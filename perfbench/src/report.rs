//! The metrics, computed from what the engines' runs measured, and the
//! result line.

use dora_common::EngineKind;
use dora_metrics::{CounterKind, TimeCategory};

use crate::ops::Kind;
use crate::run::{unpack, EngineRun, Round, SetupTimes};

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: String, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// The metric-name prefix of an engine.
pub fn prefix(engine: EngineKind) -> &'static str {
    match engine {
        EngineKind::Baseline => "baseline",
        EngineKind::Dora => "dora",
    }
}

/// The `q`-quantile (0 < q < 1) of `sorted` by the nearest-rank rule.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted_latencies(run: &EngineRun, label: Option<usize>) -> Vec<u64> {
    let mut nanos: Vec<u64> = run
        .samples
        .iter()
        .map(|&sample| unpack(sample))
        .filter(|(index, _)| label.is_none_or(|wanted| *index == wanted))
        .map(|(_, nanos)| nanos)
        .collect();
    nanos.sort_unstable();
    nanos
}

fn per(value: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        value / count as f64
    }
}

/// The `q`-quantile of the latency of every operation the run measured,
/// in microseconds.
pub fn latency_us(run: &EngineRun, q: f64) -> f64 {
    quantile(&sorted_latencies(run, None), q) as f64 / 1_000.0
}

/// The median of `value(sample)` over the samples of `per_sample`
/// consecutive measured rounds, each added up.
fn median_over_samples(run: &EngineRun, per_sample: usize, value: impl Fn(&Round) -> f64) -> f64 {
    let samples = run.rounds.chunks(per_sample).map(|rounds| {
        rounds.iter().fold(Round::default(), |sum, round| Round {
            length: sum.length + round.length,
            completed: sum.completed + round.completed,
            cpu: sum.cpu + round.cpu,
            alloc_bytes: sum.alloc_bytes + round.alloc_bytes,
        })
    });
    median(samples.map(|sample| value(&sample)).collect())
}

/// Completed transactions per second: the median over the samples of
/// `per_sample` measured rounds.
pub fn tps(run: &EngineRun, per_sample: usize) -> f64 {
    median_over_samples(run, per_sample, |sample| {
        sample.completed as f64 / sample.length.as_secs_f64()
    })
}

/// The median of `values` (0 when empty).
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    match values.len() {
        0 => 0.0,
        n if n % 2 == 0 => (values[mid - 1] + values[mid]) / 2.0,
        _ => values[mid],
    }
}

/// The end-to-end metrics: set-up time, then each engine's throughput,
/// median latency, CPU and allocation per completed transaction.
/// Throughput, CPU and allocation are medians over samples of `per_sample`
/// measured rounds (a median resists a burst of host steal that hits a few
/// samples), the latency median is taken over every operation of those
/// rounds. (The 99th
/// percentile is printed in the report but is no metric: on a shared
/// few-core host it does not repeat within any usable bound.)
pub fn end_to_end(
    setup_s: f64,
    per_sample: usize,
    runs: &[(EngineKind, &EngineRun)],
) -> Vec<Metric> {
    let mut metrics = vec![metric("setup_s".into(), "s", setup_s)];
    for &(engine, run) in runs {
        let e = prefix(engine);
        metrics.extend([
            metric(format!("{e}.tps"), "1/s", tps(run, per_sample)),
            metric(format!("{e}.p50_us"), "us", latency_us(run, 0.50)),
            metric(
                format!("{e}.cpu_us_per_txn"),
                "us",
                median_over_samples(run, per_sample, |s| {
                    per(s.cpu.as_secs_f64() * 1e6, s.completed)
                }),
            ),
            metric(
                format!("{e}.alloc_b_per_txn"),
                "B",
                median_over_samples(run, per_sample, |s| per(s.alloc_bytes as f64, s.completed)),
            ),
        ]);
    }
    metrics
}

/// Every transaction-type label any workload runs, for the per-type
/// latency metrics (each run reports 0 for the labels its workload lacks).
fn all_labels() -> Vec<&'static str> {
    Kind::ALL
        .iter()
        .flat_map(|kind| kind.labels().to_vec())
        .collect()
}

/// The per-layer metrics of a traced run.
pub fn per_layer(kind: Kind, runs: &[(SetupTimes, &EngineRun)]) -> Vec<Metric> {
    let mut metrics = Vec::new();
    for &(setup, run) in runs {
        let e = prefix(setup.engine);
        let c = &run.counters;
        let txns = run.completed;
        let count = |kind: CounterKind| per(c.counter(kind) as f64, txns);
        let time_us = |categories: &[TimeCategory]| {
            let nanos: u64 = categories.iter().map(|&t| c.nanos(t)).sum();
            per(nanos as f64 / 1_000.0, txns)
        };
        let layers = &run.layers;
        let mean_us = |nanos: u64, calls: u64| per(nanos as f64 / 1_000.0, calls);
        let mut add = |name: &str, unit: &'static str, value: f64| {
            metrics.push(metric(format!("{e}.{name}"), unit, value))
        };
        add("workloads.gen_us", "us", mean_us(layers.gen_ns, layers.ops));
        add(
            "core.program.prepare_us",
            "us",
            mean_us(layers.prepare_ns, layers.ops),
        );
        add("engine.exec_us", "us", mean_us(layers.exec_ns, layers.txns));
        add(
            "engine.deadlock_retries_per_txn",
            "count/txn",
            count(CounterKind::DeadlockVictim),
        );
        if setup.engine == EngineKind::Dora {
            add(
                "core.engine.submit_us",
                "us",
                mean_us(layers.submit_ns, layers.txns),
            );
            add(
                "core.engine.wait_us",
                "us",
                mean_us(layers.wait_ns, layers.txns),
            );
            add(
                "core.engine.messages_per_txn",
                "count/txn",
                count(CounterKind::DoraMessages),
            );
            add(
                "core.engine.inbox_drains_per_txn",
                "count/txn",
                count(CounterKind::InboxDrains),
            );
            add(
                "core.engine.actions_per_txn",
                "count/txn",
                count(CounterKind::ActionsExecuted),
            );
            add(
                "core.engine.overhead_us_per_txn",
                "us/txn",
                time_us(&[TimeCategory::EngineOverhead]),
            );
            add(
                "core.locallock.acquired_per_txn",
                "count/txn",
                count(CounterKind::DoraLocalLock),
            );
            add(
                "core.locallock.elided_per_txn",
                "count/txn",
                count(CounterKind::LockProbesElided),
            );
            add(
                "core.locallock.wait_us_per_txn",
                "us/txn",
                time_us(&[TimeCategory::DoraLocalWait]),
            );
        }
        add(
            "storage.lock.row_locks_per_txn",
            "count/txn",
            count(CounterKind::RowLevelLock),
        );
        add(
            "storage.lock.higher_locks_per_txn",
            "count/txn",
            count(CounterKind::HigherLevelLock),
        );
        add(
            "storage.lock.waits_per_txn",
            "count/txn",
            count(CounterKind::LockWaits),
        );
        add(
            "storage.lock.mgr_us_per_txn",
            "us/txn",
            time_us(&[
                TimeCategory::LockMgrAcquire,
                TimeCategory::LockMgrAcquireContention,
                TimeCategory::LockMgrRelease,
                TimeCategory::LockMgrReleaseContention,
                TimeCategory::LockMgrOther,
            ]),
        );
        add(
            "storage.lock.wait_us_per_txn",
            "us/txn",
            time_us(&[TimeCategory::LockWait]),
        );
        add(
            "storage.buffer.pins_per_txn",
            "count/txn",
            count(CounterKind::BufferHits) + count(CounterKind::BufferMisses),
        );
        add(
            "storage.buffer.misses_per_txn",
            "count/txn",
            count(CounterKind::BufferMisses),
        );
        add(
            "storage.latch.contended_per_txn",
            "count/txn",
            count(CounterKind::LatchContended),
        );
        add(
            "storage.latch.contention_us_per_txn",
            "us/txn",
            time_us(&[TimeCategory::OtherContention]),
        );
        add(
            "storage.log.records_per_txn",
            "count/txn",
            count(CounterKind::LogRecords),
        );
        add(
            "storage.log.group_size",
            "count",
            per(
                c.counter(CounterKind::CommitFences) as f64,
                c.counter(CounterKind::GroupCommits),
            ),
        );
        add(
            "storage.log.commit_wait_us",
            "us/txn",
            time_us(&[TimeCategory::CommitWait]),
        );
        add(
            "storage.mvcc.versions_per_txn",
            "count/txn",
            count(CounterKind::VersionsCreated),
        );
        add(
            "storage.mvcc.reclaimed_per_txn",
            "count/txn",
            count(CounterKind::VersionsReclaimed),
        );
        add(
            "storage.mvcc.scan_ms",
            "ms",
            per(layers.scan_ns as f64 / 1e6, layers.scans),
        );
        add(
            "storage.mvcc.scan_rows_per_s",
            "rows/s",
            per(
                c.counter(CounterKind::SnapshotReads) as f64 * 1e9,
                layers.scan_ns,
            ),
        );
        add("setup.load_s", "s", setup.load.as_secs_f64());
        add("setup.bind_ms", "ms", setup.bind.as_secs_f64() * 1e3);
        for label in all_labels() {
            let p50 = kind
                .labels()
                .iter()
                .position(|known| *known == label)
                .map_or(0.0, |index| {
                    quantile(&sorted_latencies(run, Some(index)), 0.5) as f64 / 1_000.0
                });
            add(&format!("type.{label}.p50_us"), "us", p50);
        }
    }
    metrics
}

/// The result line: one JSON object with the verdict, the operation counts
/// and the metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
