//! Loading one engine, driving it with closed-loop clients, and what one
//! engine's run measured.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dora_common::prelude::*;
use dora_core::{DoraConfig, DoraEngine, PreparedProgram};
use dora_engine::{BaselineEngine, DoraExecution, ExecutionEngine};
use dora_metrics::counters::{ALL_COUNTER_KINDS, COUNTER_KIND_COUNT};
use dora_metrics::timing::{ALL_TIME_CATEGORIES, TIME_CATEGORY_COUNT};
use dora_metrics::{global, CounterKind, Snapshot, TimeCategory};
use dora_storage::Database;

use crate::alloc::allocated_bytes;
use crate::ops::{Effect, Generator, Kind, Op, Rounds, Scale, Spec};

/// How long an engine's set-up took.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub engine: EngineKind,
    /// Time in `Workload::setup` (create the schema, load the rows).
    pub load: Duration,
    /// Time in `ExecutionEngine::bind`.
    pub bind: Duration,
    /// Create, load and bind.
    pub total: Duration,
}

/// One engine over its own freshly loaded database.
pub struct Loaded {
    pub kind: Kind,
    pub spec: Spec,
    pub exec: Arc<dyn ExecutionEngine>,
    /// The DORA engine behind `exec`, for the traced run's split of
    /// execution into submit and wait.
    pub dora: Option<Arc<DoraEngine>>,
    pub setup: SetupTimes,
}

/// Creates a database with the default `SystemConfig`, loads `kind` into it
/// and binds it to a new engine with the default `DoraConfig`.
pub fn load(
    engine: EngineKind,
    kind: Kind,
    scale: &Scale,
    executors_per_table: usize,
) -> DbResult<Loaded> {
    let start = Instant::now();
    let db = Database::new(SystemConfig::default());
    let spec = scale.workload(kind);
    let workload = spec.as_workload();
    workload.setup(&db)?;
    let load = start.elapsed();
    let (exec, dora): (Arc<dyn ExecutionEngine>, _) = match engine {
        EngineKind::Baseline => (Arc::new(BaselineEngine::new(db)), None),
        EngineKind::Dora => {
            let dora = Arc::new(DoraEngine::new(db, DoraConfig::default()));
            (Arc::new(DoraExecution::new(Arc::clone(&dora))), Some(dora))
        }
    };
    let bind_start = Instant::now();
    exec.bind(workload, executors_per_table)?;
    let bind = bind_start.elapsed();
    Ok(Loaded {
        kind,
        spec,
        exec,
        dora,
        setup: SetupTimes {
            engine,
            load,
            bind,
            total: start.elapsed(),
        },
    })
}

/// What the committed operations changed, tallied by the clients.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    pub call_forwarding_inserted: i64,
    pub call_forwarding_deleted: i64,
    pub transfers: i64,
    pub transfer_cents: i64,
    pub payment_cents: i64,
    pub new_orders: i64,
    pub order_lines: i64,
    /// NewOrders with an unused item id that committed anyway.
    pub invalid_new_orders_committed: i64,
    pub scans: i64,
    /// Snapshot scans whose three sums disagreed.
    pub unbalanced_scans: Vec<[i64; 3]>,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.call_forwarding_inserted += other.call_forwarding_inserted;
        self.call_forwarding_deleted += other.call_forwarding_deleted;
        self.transfers += other.transfers;
        self.transfer_cents += other.transfer_cents;
        self.payment_cents += other.payment_cents;
        self.new_orders += other.new_orders;
        self.order_lines += other.order_lines;
        self.invalid_new_orders_committed += other.invalid_new_orders_committed;
        self.scans += other.scans;
        self.unbalanced_scans.extend(other.unbalanced_scans);
    }

    fn commit(&mut self, effect: Effect) {
        match effect {
            Effect::None => {}
            Effect::CallForwardingInserted => self.call_forwarding_inserted += 1,
            Effect::CallForwardingDeleted => self.call_forwarding_deleted += 1,
            Effect::Transfer(cents) => {
                self.transfers += 1;
                self.transfer_cents += cents;
            }
            Effect::Payment(cents) => self.payment_cents += cents,
            Effect::NewOrder { lines, valid } => {
                if !valid {
                    self.invalid_new_orders_committed += 1;
                }
                self.new_orders += 1;
                self.order_lines += lines;
            }
        }
    }
}

/// Time spent in each layer's public calls, summed over the operations
/// that completed inside the measured window (traced runs only).
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    /// Operations whose times are summed below.
    pub ops: u64,
    pub gen_ns: u64,
    pub prepare_ns: u64,
    /// OLTP transactions (not scans) whose execution is timed below.
    pub txns: u64,
    pub exec_ns: u64,
    pub submit_ns: u64,
    pub wait_ns: u64,
    pub scans: u64,
    pub scan_ns: u64,
}

impl LayerTimes {
    fn add(&mut self, other: &LayerTimes) {
        self.ops += other.ops;
        self.gen_ns += other.gen_ns;
        self.prepare_ns += other.prepare_ns;
        self.txns += other.txns;
        self.exec_ns += other.exec_ns;
        self.submit_ns += other.submit_ns;
        self.wait_ns += other.wait_ns;
        self.scans += other.scans;
        self.scan_ns += other.scan_ns;
    }
}

/// Everything one engine's run measured.
#[derive(Debug, Default)]
pub struct EngineRun {
    /// Operations attempted over the whole run, warm-up included.
    pub attempted: u64,
    pub committed: u64,
    /// Rolled back by the workload's own rule (TM1 invalid input, TPC-C's
    /// NewOrders with an unused item).
    pub rolled_back: u64,
    /// Deadlock victims, give-ups and any other error.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Operations completed (committed or rolled back by rule) in the
    /// measured rounds.
    pub completed: u64,
    /// The measured rounds.
    pub rounds: Vec<Round>,
    /// Submit-to-acknowledged latency of every operation completed in the
    /// measured rounds: nanoseconds in the low 56 bits, label index in the
    /// top 8.
    pub samples: Vec<u64>,
    /// The program's counters and time categories, summed over the
    /// measured rounds.
    pub counters: Counts,
    pub layers: LayerTimes,
    /// Over the whole run.
    pub tally: Tally,
}

/// One measured round of an engine's run: every client runs the same
/// number of operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct Round {
    /// From the clients' start until the last of them finished.
    pub length: Duration,
    /// Operations completed in the round.
    pub completed: u64,
    /// Process CPU time (user + system, all threads).
    pub cpu: Duration,
    /// Heap bytes allocated.
    pub alloc_bytes: u64,
}

/// Sums of the program's counters and time categories.
#[derive(Debug, Clone)]
pub struct Counts {
    counters: [u64; COUNTER_KIND_COUNT],
    nanos: [u64; TIME_CATEGORY_COUNT],
}

impl Default for Counts {
    fn default() -> Self {
        Self {
            counters: [0; COUNTER_KIND_COUNT],
            nanos: [0; TIME_CATEGORY_COUNT],
        }
    }
}

impl Counts {
    pub fn counter(&self, kind: CounterKind) -> u64 {
        self.counters[kind.index()]
    }

    pub fn nanos(&self, category: TimeCategory) -> u64 {
        self.nanos[category.index()]
    }

    fn add(&mut self, delta: &Snapshot) {
        for kind in ALL_COUNTER_KINDS {
            self.counters[kind.index()] += delta.counter(kind);
        }
        for category in ALL_TIME_CATEGORIES {
            self.nanos[category.index()] += delta.nanos(category);
        }
    }
}

const SAMPLE_BITS: u32 = 56;
const MAX_FAILURES_KEPT: usize = 5;

/// Splits a latency sample into (label index, nanoseconds).
pub fn unpack(sample: u64) -> (usize, u64) {
    (
        (sample >> SAMPLE_BITS) as usize,
        sample & ((1 << SAMPLE_BITS) - 1),
    )
}

fn nanos(duration: Duration) -> u64 {
    duration.as_nanos().min((1 << SAMPLE_BITS) - 1) as u64
}

/// How an attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Committed,
    RolledBack,
    Failed,
}

/// Abort reasons of TM1's invalid-input rule (DORA reports the reason; the
/// Baseline folds it into `TxnOutcome::Aborted`).
const TM1_ABORT_REASONS: [&str; 8] = [
    "subscriber missing",
    "facility inactive",
    "no forwarding",
    "no access info",
    "no such facility",
    "unknown sub_nbr",
    "forwarding exists",
    "no forwarding to delete",
];

fn classify(kind: Kind, effect: Effect, result: &DbResult<TxnOutcome>) -> Class {
    let rule = match kind {
        Kind::Tm1 => true,
        Kind::Tpcc => matches!(effect, Effect::NewOrder { valid: false, .. }),
        Kind::TpcbHtap => false,
    };
    match result {
        Ok(TxnOutcome::Committed) => Class::Committed,
        Ok(TxnOutcome::Aborted) if rule => Class::RolledBack,
        Err(DbError::TxnAborted { reason, .. })
            if rule && (kind != Kind::Tm1 || TM1_ABORT_REASONS.contains(&reason.as_str())) =>
        {
            Class::RolledBack
        }
        _ => Class::Failed,
    }
}

/// Runs one prepared transaction. Untraced, and always on the Baseline, it
/// is one `execute_prepared_checked` call; a traced DORA run makes the same
/// call as its two halves, `DoraEngine::submit` and the wait on the
/// returned `DoraTxn`, and times each.
fn execute(
    loaded: &Loaded,
    prepared: &PreparedProgram,
    trace: bool,
    times: &mut LayerTimes,
) -> DbResult<TxnOutcome> {
    match (&loaded.dora, trace) {
        (Some(dora), true) => {
            let start = Instant::now();
            let submitted = dora.submit(prepared.flow_graph());
            let submitted_at = Instant::now();
            let result = submitted.and_then(|txn| txn.wait());
            times.submit_ns += nanos(submitted_at - start);
            times.wait_ns += nanos(submitted_at.elapsed());
            result.map(|()| TxnOutcome::Committed)
        }
        _ => loaded.exec.execute_prepared_checked(prepared),
    }
}

/// One closed-loop client: build an operation, prepare it, execute it,
/// `ops` times. Records what it completed when `measured`.
fn client(
    loaded: &Loaded,
    generator: &mut Generator,
    ops: u64,
    measured: bool,
    trace: bool,
) -> EngineRun {
    let db = Arc::clone(loaded.exec.db());
    let mut out = EngineRun::default();
    let mut times = LayerTimes::default();
    while out.attempted < ops {
        let mut op_times = LayerTimes::default();
        let start = Instant::now();
        let op = generator.next(&db);
        let generated = Instant::now();
        op_times.gen_ns = nanos(generated - start);
        out.attempted += 1;
        let (label, class) = match op {
            Err(error) => {
                out.failed += 1;
                if out.failures.len() < MAX_FAILURES_KEPT {
                    out.failures.push(format!("building an operation: {error}"));
                }
                continue;
            }
            Ok(Op::Txn { program, effect }) => {
                let label = program.name();
                let result = loaded.exec.prepare(program).and_then(|prepared| {
                    op_times.prepare_ns = nanos(generated.elapsed());
                    let executing = Instant::now();
                    let result = execute(loaded, &prepared, trace, &mut op_times);
                    op_times.exec_ns = nanos(executing.elapsed());
                    op_times.txns = 1;
                    result
                });
                let class = classify(loaded.kind, effect, &result);
                match (&result, class) {
                    (_, Class::Committed) => out.tally.commit(effect),
                    (Err(error), Class::Failed) if out.failures.len() < MAX_FAILURES_KEPT => {
                        out.failures.push(format!("{label}: {error}"))
                    }
                    (Ok(outcome), Class::Failed) if out.failures.len() < MAX_FAILURES_KEPT => {
                        out.failures.push(format!("{label}: {outcome:?}"))
                    }
                    _ => {}
                }
                (label, class)
            }
            Ok(Op::Scan { program, sums }) => {
                let label = program.name();
                let result = loaded.exec.prepare(program).and_then(|prepared| {
                    op_times.prepare_ns = nanos(generated.elapsed());
                    let scanning = Instant::now();
                    let result = loaded.exec.execute_snapshot_checked(&prepared);
                    op_times.scan_ns = nanos(scanning.elapsed());
                    op_times.scans = 1;
                    result
                });
                let class = match result {
                    Ok(TxnOutcome::Committed) => {
                        let sums = *sums.lock().expect("scan sums poisoned");
                        out.tally.scans += 1;
                        if sums[0] != sums[1] || sums[1] != sums[2] {
                            out.tally.unbalanced_scans.push(sums);
                        }
                        Class::Committed
                    }
                    other => {
                        if out.failures.len() < MAX_FAILURES_KEPT {
                            out.failures.push(format!("{label}: {other:?}"));
                        }
                        Class::Failed
                    }
                };
                (label, class)
            }
        };
        let latency = start.elapsed();
        match class {
            Class::Committed => out.committed += 1,
            Class::RolledBack => out.rolled_back += 1,
            Class::Failed => {
                out.failed += 1;
                continue;
            }
        }
        if measured {
            out.completed += 1;
            let index = loaded.kind.label_index(label) as u64;
            out.samples.push(index << SAMPLE_BITS | nanos(latency));
            if trace {
                op_times.ops = 1;
                times.add(&op_times);
            }
        }
    }
    out.layers = times;
    out
}

/// The process's CPU time (user + system, all threads) at nanosecond
/// resolution. The program's own `/proc/self/stat` reading counts 10 ms
/// ticks: a TM1 round takes about 0.4 s of CPU for 20,000 transactions, so
/// ticks would put its CPU per transaction on a 0.5 µs grid (3% of the
/// figure), and the median over rounds would land on that grid.
fn process_cpu_time() -> Duration {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a live, writable `struct timespec` (two `long`
    // fields on Linux) for the whole call, which writes nothing else.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(time.tv_sec as u64, time.tv_nsec as u32)
}

/// Counters, CPU time, allocated bytes and the clock at one instant.
struct Mark {
    counters: Snapshot,
    cpu: Duration,
    alloc: u64,
    at: Instant,
}

impl Mark {
    fn now() -> Self {
        Self {
            counters: global().snapshot(),
            cpu: process_cpu_time(),
            alloc: allocated_bytes(),
            at: Instant::now(),
        }
    }
}

impl EngineRun {
    fn add(&mut self, out: EngineRun) {
        self.attempted += out.attempted;
        self.committed += out.committed;
        self.rolled_back += out.rolled_back;
        self.failed += out.failed;
        self.failures.extend(out.failures);
        self.failures.truncate(MAX_FAILURES_KEPT);
        self.completed += out.completed;
        self.samples.extend(out.samples);
        self.layers.add(&out.layers);
        self.tally.add(out.tally);
    }
}

/// One engine's clients, whose operation streams continue from round to
/// round.
struct Side<'a> {
    loaded: &'a Loaded,
    generators: Vec<Generator>,
    run: EngineRun,
}

impl<'a> Side<'a> {
    fn new(loaded: &'a Loaded, scale: &Scale, seed: u64, clients: usize) -> Self {
        Self {
            loaded,
            generators: (0..clients)
                .map(|index| Generator::new(loaded.spec.clone(), scale, seed, index))
                .collect(),
            run: EngineRun::default(),
        }
    }

    /// Every client runs `ops` operations; the round ends when the last one
    /// is done. A measured round adds what it measured to `run`.
    fn round(&mut self, ops: u64, measured: bool, trace: bool) {
        let loaded = self.loaded;
        let from = Mark::now();
        let outs: Vec<EngineRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .generators
                .iter_mut()
                .map(|generator| {
                    scope.spawn(move || client(loaded, generator, ops, measured, trace))
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("client thread panicked"))
                .collect()
        });
        let to = Mark::now();
        if measured {
            self.run.counters.add(&to.counters.since(&from.counters));
            self.run.rounds.push(Round {
                length: to.at - from.at,
                completed: outs.iter().map(|out| out.completed).sum(),
                cpu: to.cpu.saturating_sub(from.cpu),
                alloc_bytes: to.alloc - from.alloc,
            });
        }
        for out in outs {
            self.run.add(out);
        }
    }
}

/// Drives `loaded` with `clients` closed-loop clients: the warm-up rounds
/// of `rounds`, then `measured` rounds. The caller measures one engine at a
/// time and drops each database before loading the next, so that no other
/// database's background work (the version collector, a log flusher) runs
/// in these rounds.
pub fn measure(
    loaded: &Loaded,
    scale: &Scale,
    seed: u64,
    clients: usize,
    rounds: Rounds,
    measured: u32,
    trace: bool,
) -> EngineRun {
    let mut side = Side::new(loaded, scale, seed, clients);
    for _ in 0..rounds.warmup {
        side.round(rounds.ops, false, trace);
    }
    for _ in 0..measured {
        side.round(rounds.ops, true, trace);
    }
    side.run
}

/// Runs one measured round of `ops` operations from one client (client 0
/// of `seed`).
pub fn run_ops(loaded: &Loaded, scale: &Scale, seed: u64, ops: u64, trace: bool) -> EngineRun {
    let mut side = Side::new(loaded, scale, seed, 1);
    side.round(ops, true, trace);
    side.run
}
