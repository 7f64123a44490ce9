//! `perfbench --workload <tm1|tpcb-htap|tpcc> --seed <n> --seconds <s> --trace <0|1>`
//!
//! For each engine in turn, loads a database, runs a fixed number of
//! warm-up and measured rounds on it (`--seconds` sets the number of
//! measured rounds, sized to take about that long per engine on a 2-core
//! host), shuts it down, checks the tables it left behind and drops it
//! before the next engine's database is loaded. Prints a report followed by
//! one JSON result line. With `--trace 0` the result
//! carries the end-to-end metrics, with `--trace 1` the per-layer ones.
//! Exits 1 if a correctness check fails, 2 on bad arguments.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use dora_common::EngineKind;
use dora_perfbench::alloc::CountingAlloc;
use dora_perfbench::checks::verify;
use dora_perfbench::ops::{Kind, Scale};
use dora_perfbench::report::{end_to_end, latency_us, median, per_layer, prefix, result_line, tps};
use dora_perfbench::run::{load, measure};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-ups per run, `setup_s` being their median: one per engine plus
/// throwaway ones.
const SETUPS: usize = 5;

const USAGE: &str =
    "usage: perfbench --workload <tm1|tpcb-htap|tpcc> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().ok().filter(|s| *s >= 1).ok_or_else(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// CPU time the hypervisor gave to other machines ("steal", all CPUs of
/// this one) so far, from `/proc/stat`; `None` where that is unavailable.
fn host_steal() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: u64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    // USER_HZ is 100 on Linux.
    Some(Duration::from_millis(ticks * 10))
}

/// The commit the benchmark was built from, when run from a git checkout.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scale = Scale::full();
    let clients = scale.clients(args.kind, cores);
    let rounds = scale.rounds(args.kind);
    let measured_rounds = (args.seconds as f64 * rounds.per_second).round().max(1.0) as u32;
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "provenance {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {cores}, \"clients\": {clients}, \
         \"executors_per_table\": {cores}, \"ops_per_client_per_round\": {}, \
         \"warmup_rounds\": {}, \"measured_rounds\": {measured_rounds}, \
         \"profile\": \"{profile}\", \"git_revision\": \"{}\"}}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rounds.ops,
        rounds.warmup,
        git_revision(),
    );

    let load_engine = |engine| {
        load(engine, args.kind, &scale, cores)
            .inspect_err(|error| eprintln!("loading {} failed: {error}", prefix(engine)))
    };
    let mut setups = Vec::new();
    for _ in EngineKind::ALL.len()..SETUPS {
        let Ok(throwaway) = load_engine(EngineKind::Baseline) else {
            return ExitCode::FAILURE;
        };
        setups.push(throwaway.setup.total.as_secs_f64());
    }
    let mut runs = Vec::new();
    let mut correct = true;
    for engine in EngineKind::ALL {
        let Ok(loaded) = load_engine(engine) else {
            return ExitCode::FAILURE;
        };
        setups.push(loaded.setup.total.as_secs_f64());
        let (steal_before, started) = (host_steal(), Instant::now());
        let run = measure(
            &loaded,
            &scale,
            args.seed,
            clients,
            rounds,
            measured_rounds,
            args.trace,
        );
        let elapsed = started.elapsed();
        loaded.exec.shutdown();
        println!(
            "{}: attempted {} committed {} rolled_back {} failed {} measured {} setup_s {:.3} tps {:.0} p99_us {:.1}",
            prefix(engine),
            run.attempted,
            run.committed,
            run.rolled_back,
            run.failed,
            run.completed,
            loaded.setup.total.as_secs_f64(),
            tps(&run, rounds.per_sample),
            latency_us(&run, 0.99),
        );
        if let (Some(before), Some(after)) = (steal_before, host_steal()) {
            println!(
                "  host steal while measuring: {:.2} s of CPU in {:.2} s",
                (after - before).as_secs_f64(),
                elapsed.as_secs_f64()
            );
        }
        let per_round: Vec<String> = run
            .rounds
            .iter()
            .map(|r| format!("{:.0}", r.completed as f64 / r.length.as_secs_f64()))
            .collect();
        println!("  ops per second, round by round: {}", per_round.join(" "));
        for failure in &run.failures {
            println!("  failure: {failure}");
        }
        for check in verify(args.kind, &scale, loaded.exec.db(), &run.tally, cores) {
            match &check.result {
                Ok(()) => println!("  check {}: ok", check.name),
                Err(detail) => {
                    correct = false;
                    println!("  check {}: FAILED: {detail}", check.name);
                }
            }
        }
        runs.push((loaded.setup, run));
    }
    let listed: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    println!("set-ups (s): {}", listed.join(" "));

    let metrics = if args.trace {
        let runs: Vec<_> = runs.iter().map(|(setup, run)| (*setup, run)).collect();
        per_layer(args.kind, &runs)
    } else {
        let runs: Vec<_> = runs
            .iter()
            .map(|(setup, run)| (setup.engine, run))
            .collect();
        end_to_end(median(setups), rounds.per_sample, &runs)
    };
    for metric in &metrics {
        println!("metric {} = {} {}", metric.name, metric.value, metric.unit);
    }
    let attempted = runs.iter().map(|(_, run)| run.attempted).sum();
    let failed = runs.iter().map(|(_, run)| run.failed).sum();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
