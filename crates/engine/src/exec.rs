//! The unified execution-engine abstraction.
//!
//! The paper compares two execution architectures — conventional
//! thread-to-transaction (the Baseline) and data-oriented thread-to-data
//! (DORA) — over the same storage manager and the same workloads.
//! [`ExecutionEngine`] is the single seam through which the load driver, the
//! benchmark harness, the equivalence tests and the examples drive either
//! one: bind a [`Workload`], [`prepare`](ExecutionEngine::prepare) each
//! program once, then execute the prepared handle.
//!
//! Adding a third architecture (e.g. a physiologically-partitioned or
//! HTAP-style engine) requires implementing this trait and registering a
//! factory arm in [`build_engine_with`] — no workload, driver, test or
//! experiment code changes.

use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use dora_common::prelude::*;
use dora_core::{
    AdaptiveController, ConflictMatrix, DoraConfig, DoraEngine, PreparedProgram, TxnProgram,
};
use dora_metrics::{incr, CounterKind};
use dora_storage::{Database, Snapshot};
use dora_workloads::Workload;

use crate::baseline::BaselineEngine;

/// One execution architecture bound to one workload.
///
/// Implementations hold whatever per-architecture state they need (executor
/// threads, routing tables); callers see only: *setup* —
/// [`bind`](Self::bind) a workload once, *execute* —
/// [`prepare`](Self::prepare) a program and run the handle with
/// [`execute_prepared_checked`](Self::execute_prepared_checked) (or, for
/// read-only programs, on a snapshot), and *teardown* —
/// [`shutdown`](Self::shutdown). Drawing programs from a workload's mix is
/// the caller's job ([`crate::driver::execute_next`]).
pub trait ExecutionEngine: Send + Sync {
    /// Which registered architecture this is.
    fn kind(&self) -> EngineKind;

    /// Label matching the paper's figures ("Baseline", "DORA").
    fn name(&self) -> &'static str {
        self.kind().label()
    }

    /// The underlying storage manager.
    fn db(&self) -> &Arc<Database>;

    /// Binds `workload` to this engine: whatever per-architecture setup the
    /// workload needs (DORA binds tables to executors and runs the conflict
    /// analysis; the baseline has no setup). Must be called exactly once,
    /// before the workload's programs are executed.
    fn bind(&self, workload: Arc<dyn Workload>, executors_per_table: usize) -> DbResult<()>;

    /// Lowers `program` once into a reusable [`PreparedProgram`] handle —
    /// the prepare-once/execute-many seam servers hold on to. The default
    /// just lowers; an architecture may also validate (e.g. that every
    /// routed table is bound).
    fn prepare(&self, program: TxnProgram) -> DbResult<PreparedProgram> {
        Ok(program.prepare())
    }

    /// Executes one instance of a prepared program, retrying deadlock
    /// victims up to the database's `max_retries` and surfacing the terminal
    /// error instead of folding every failure into an outcome. The serving
    /// front-end uses this to tell a retryable abort apart from a
    /// non-retryable failure such as [`DbError::DurabilityLost`] (a ghost
    /// commit must never be re-run). The program *is* the work: no bound
    /// workload is consulted.
    fn execute_prepared_checked(&self, prepared: &PreparedProgram) -> DbResult<TxnOutcome>;

    /// Pins a [`Snapshot`] at the current published commit-ticket horizon.
    /// Engine-agnostic: snapshots live in the storage manager, below the
    /// execution architecture, so both registered engines share this.
    fn snapshot(&self) -> Snapshot {
        self.db().snapshot()
    }

    /// Executes a read-only prepared program against an already-pinned
    /// [`Snapshot`] — the HTAP scan path. The program runs on the calling
    /// thread with no DORA routing, no local-lock-table probes, and no
    /// centralized lock manager involvement; several scans may share one
    /// snapshot to amortize the pin.
    fn execute_on_snapshot(
        &self,
        prepared: &PreparedProgram,
        snapshot: &Arc<Snapshot>,
    ) -> DbResult<TxnOutcome> {
        prepared.run_snapshot(self.db(), snapshot)?;
        Ok(TxnOutcome::Committed)
    }

    /// Pins a fresh snapshot and executes a read-only prepared program on
    /// it. Rejects programs with write steps.
    fn execute_snapshot_checked(&self, prepared: &PreparedProgram) -> DbResult<TxnOutcome> {
        let snapshot = Arc::new(self.snapshot());
        self.execute_on_snapshot(prepared, &snapshot)
    }

    /// The bind-time conflict-analysis report (probe-free steps,
    /// auto-serialized programs, routing coverage), when the architecture ran
    /// one. `None` for architectures without conflict analysis or when the
    /// bound workload declares no templates.
    fn conflict_report(&self) -> Option<String> {
        None
    }

    /// Stops any engine-owned threads. Idempotent; the default is a no-op.
    fn shutdown(&self) {}
}

/// Runs `attempt` until it ends in anything but a deadlock, at most
/// `1 + max_retries` times (the database's configured budget). Each attempt
/// must leave no transaction behind when it fails, so a victim can be
/// resubmitted from scratch. When every attempt was a deadlock victim the
/// give-up is counted under `CounterKind::TxnGaveUp` and `gave_up` is
/// returned, so retry exhaustion stays visible.
pub(crate) fn retry_deadlocks<T>(
    db: &Database,
    gave_up: T,
    mut attempt: impl FnMut() -> DbResult<T>,
) -> DbResult<T> {
    for _attempt in 0..=db.config().max_retries {
        match attempt() {
            Err(DbError::Deadlock { .. }) => continue,
            other => return other,
        }
    }
    incr(CounterKind::TxnGaveUp);
    Ok(gave_up)
}

impl ExecutionEngine for BaselineEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Baseline
    }

    fn db(&self) -> &Arc<Database> {
        BaselineEngine::db(self)
    }

    fn bind(&self, workload: Arc<dyn Workload>, _executors_per_table: usize) -> DbResult<()> {
        // The conventional engine needs no per-workload setup: any thread may
        // touch any record, which is the whole point of the architecture.
        self.bound()
            .set(workload)
            .map_err(|_| DbError::InvalidOperation("workload already bound to this engine".into()))
    }

    fn execute_prepared_checked(&self, prepared: &PreparedProgram) -> DbResult<TxnOutcome> {
        BaselineEngine::execute_prepared(self, prepared).map(TxnOutcome::from)
    }
}

/// Adapter presenting [`DoraEngine`] (which lives below the workload crate
/// and therefore cannot know about workloads) as an [`ExecutionEngine`].
pub struct DoraExecution {
    engine: Arc<DoraEngine>,
    bound: OnceLock<Arc<dyn Workload>>,
    /// The adaptive repartitioning controller, spawned at bind time when
    /// `DoraConfig::adaptive.enabled` is set. Stopped before the engine in
    /// [`ExecutionEngine::shutdown`] (a resize drains executors, so the
    /// controller must never outlive them).
    adaptive: Mutex<Option<AdaptiveController>>,
    /// The workload's conflict matrix, computed once at bind time when
    /// `DoraConfig::conflict_elision` is set and the workload declares step
    /// templates. Every program the mix produces is stamped against it
    /// when it is prepared (probe-free steps, DORA-S auto-serialization).
    conflicts: OnceLock<Arc<ConflictMatrix>>,
}

impl DoraExecution {
    /// Wraps an already-constructed DORA engine.
    pub fn new(engine: Arc<DoraEngine>) -> Self {
        Self {
            engine,
            bound: OnceLock::new(),
            adaptive: Mutex::new(None),
            conflicts: OnceLock::new(),
        }
    }

    /// The bind-time conflict matrix, when one was computed.
    pub fn conflict_matrix(&self) -> Option<&Arc<ConflictMatrix>> {
        self.conflicts.get()
    }

    /// The wrapped DORA engine, for callers that need architecture-specific
    /// access (routing tables, executor loads, flow-graph submission).
    pub fn dora(&self) -> &Arc<DoraEngine> {
        &self.engine
    }

    /// Resizes the adaptive controller has driven so far (0 when adaptivity
    /// is disabled).
    pub fn adaptive_resizes(&self) -> u64 {
        self.adaptive
            .lock()
            .as_ref()
            .map(AdaptiveController::resizes)
            .unwrap_or(0)
    }
}

impl ExecutionEngine for DoraExecution {
    fn kind(&self) -> EngineKind {
        EngineKind::Dora
    }

    fn db(&self) -> &Arc<Database> {
        self.engine.db()
    }

    fn bind(&self, workload: Arc<dyn Workload>, executors_per_table: usize) -> DbResult<()> {
        workload.bind_dora(&self.engine, executors_per_table)?;
        // Static conflict analysis, once per workload (DIBS-style): compare
        // every pair of declared step templates and record which steps can
        // skip the local-lock probe and which programs should run as DORA-S
        // serialized plans. Gated by `conflict_elision` so A/B runs (and the
        // Figure 11 plan comparison, which hand-picks plans) can turn the
        // whole mechanism off.
        if self.engine.config().conflict_elision {
            let templates = workload.conflict_templates(self.engine.db())?;
            if !templates.is_empty() {
                let matrix = ConflictMatrix::analyze(
                    &templates,
                    self.engine.config().serialize_abort_threshold,
                );
                let _ = self.conflicts.set(Arc::new(matrix));
            }
        }
        self.bound.set(workload).map_err(|_| {
            DbError::InvalidOperation("workload already bound to this engine".into())
        })?;
        let adaptive_config = self.engine.config().adaptive.clone();
        if adaptive_config.enabled {
            *self.adaptive.lock() = Some(AdaptiveController::spawn(
                Arc::clone(&self.engine),
                adaptive_config,
            ));
        }
        Ok(())
    }

    fn prepare(&self, program: TxnProgram) -> DbResult<PreparedProgram> {
        // Stamp conflict-analysis results (probe-free steps, DORA-S
        // auto-serialization) *before* preparing: the prepared handle shares
        // its steps behind an `Arc`, so this is the last point the program is
        // mutable. Programs unknown to the matrix pass through unchanged.
        let program = match self.conflicts.get() {
            Some(matrix) => program.with_conflicts(matrix),
            None => program,
        };
        Ok(program.prepare())
    }

    fn conflict_report(&self) -> Option<String> {
        let matrix = self.conflicts.get()?;
        let db = self.engine.db();
        Some(matrix.report(&|table| {
            db.catalog()
                .table(table)
                .map(|meta| meta.schema.name.clone())
                .unwrap_or_else(|_| table.to_string())
        }))
    }

    fn execute_prepared_checked(&self, prepared: &PreparedProgram) -> DbResult<TxnOutcome> {
        // The prepared handle re-materializes only the per-instance action
        // shells; the step bodies are shared behind the handle's `Arc`. A
        // deadlock victim is already aborted when `execute` returns, so each
        // retry submits a fresh flow graph.
        retry_deadlocks(self.engine.db(), TxnOutcome::GaveUp, || {
            self.engine
                .execute(prepared.flow_graph())
                .map(|()| TxnOutcome::Committed)
        })
    }

    fn shutdown(&self) {
        // Stop the controller first: it may be mid-resize, which needs live
        // executors to drain.
        if let Some(controller) = self.adaptive.lock().take() {
            controller.stop();
        }
        self.engine.shutdown();
    }
}

/// The engine registry: constructs the requested architecture over `db`.
/// This `match` is the *only* place in the workspace that branches on the
/// engine kind — everything downstream holds an `Arc<dyn ExecutionEngine>`.
pub fn build_engine_with(
    kind: EngineKind,
    db: Arc<Database>,
    dora_config: DoraConfig,
) -> Arc<dyn ExecutionEngine> {
    match kind {
        EngineKind::Baseline => Arc::new(BaselineEngine::new(db)),
        EngineKind::Dora => Arc::new(DoraExecution::new(Arc::new(DoraEngine::new(
            db,
            dora_config,
        )))),
    }
}

/// [`build_engine_with`] using the default DORA configuration.
pub fn build_engine(kind: EngineKind, db: Arc<Database>) -> Arc<dyn ExecutionEngine> {
    build_engine_with(kind, db, DoraConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::execute_next;
    use dora_workloads::TpcB;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn bound_engine(kind: EngineKind) -> (Arc<dyn ExecutionEngine>, Arc<dyn Workload>) {
        let db = Database::for_tests();
        let workload: Arc<dyn Workload> = Arc::new(TpcB::with_accounts(2, 20));
        workload.setup(&db).unwrap();
        let engine = build_engine_with(kind, db, DoraConfig::for_tests());
        engine.bind(Arc::clone(&workload), 2).unwrap();
        (engine, workload)
    }

    #[test]
    fn every_registered_engine_executes_transactions() {
        for kind in EngineKind::ALL {
            let (engine, workload) = bound_engine(kind);
            assert_eq!(engine.kind(), kind);
            assert_eq!(engine.name(), kind.label());
            let mut rng = SmallRng::seed_from_u64(3);
            let committed = (0..20)
                .filter(|_| {
                    execute_next(engine.as_ref(), workload.as_ref(), &mut rng, None)
                        == TxnOutcome::Committed
                })
                .count();
            assert!(committed > 0, "{} committed nothing", engine.name());
            engine.shutdown();
        }
    }

    #[test]
    fn every_registered_engine_executes_prepared_programs() {
        for kind in EngineKind::ALL {
            let (engine, _) = bound_engine(kind);
            let workload = TpcB::with_accounts(2, 20);
            // Prepare once, execute many: the same parameterized transfer.
            let program = workload
                .account_update_program(engine.db(), 1, 1, 1, 10.0)
                .unwrap();
            let prepared = engine.prepare(program).unwrap();
            for _ in 0..5 {
                assert_eq!(
                    engine.execute_prepared_checked(&prepared).unwrap(),
                    TxnOutcome::Committed,
                    "{} failed a prepared execution",
                    engine.name()
                );
            }
            engine.shutdown();
        }
    }

    #[test]
    fn checked_execution_surfaces_outcomes_for_every_engine() {
        use dora_core::OnMissing;

        for kind in EngineKind::ALL {
            let (engine, _) = bound_engine(kind);
            let table = engine.db().table_id("account").unwrap();
            let bump = |key: i64, on_missing: OnMissing| {
                TxnProgram::new("bump-account").update(
                    "bump",
                    table,
                    Key::int(1),
                    Key::int(key),
                    on_missing,
                    |_, _| Ok(()),
                )
            };
            let committed = engine.prepare(bump(1, OnMissing::Error)).unwrap();
            assert_eq!(
                engine.execute_prepared_checked(&committed).unwrap(),
                TxnOutcome::Committed,
                "{}: committed program",
                engine.name()
            );
            // A non-retryable failure reaches the caller as what it is.
            let missing = engine.prepare(bump(999, OnMissing::Error)).unwrap();
            assert!(
                matches!(
                    engine.execute_prepared_checked(&missing),
                    Err(DbError::NotFound { .. })
                ),
                "{}: a missing record must surface as NotFound",
                engine.name()
            );
            engine.shutdown();
        }
    }

    #[test]
    fn rebinding_is_rejected() {
        for kind in EngineKind::ALL {
            let (engine, _) = bound_engine(kind);
            let other: Arc<dyn Workload> = Arc::new(TpcB::with_accounts(2, 20));
            assert!(
                engine.bind(other, 2).is_err(),
                "{} allowed a second bind",
                engine.name()
            );
            engine.shutdown();
        }
    }

    #[test]
    fn every_registered_engine_serves_snapshot_reads() {
        use dora_core::{OnMissing, TxnProgram};

        for kind in EngineKind::ALL {
            let (engine, _) = bound_engine(kind);
            let table = engine.db().table_id("account").unwrap();

            let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let sink = Arc::clone(&seen);
            let program = TxnProgram::new("snapshot-read").read(
                "read-account",
                table,
                Key::int(1),
                Key::int(1),
                OnMissing::Error,
                move |_, row| {
                    sink.lock().push(row[2].clone());
                    Ok(())
                },
            );
            let prepared = program.prepare();
            assert!(prepared.is_read_only());
            assert_eq!(
                engine.execute_snapshot_checked(&prepared).unwrap(),
                TxnOutcome::Committed,
                "{}: snapshot execution",
                engine.name()
            );
            assert_eq!(seen.lock().len(), 1);

            // A program with a write step is rejected before it runs.
            let writer = TxnProgram::new("snapshot-write").update(
                "bump",
                table,
                Key::int(1),
                Key::int(1),
                OnMissing::Error,
                |_, _| Ok(()),
            );
            let prepared = writer.prepare();
            assert!(!prepared.is_read_only());
            assert!(
                engine.execute_snapshot_checked(&prepared).is_err(),
                "{}: write program must be rejected",
                engine.name()
            );
            engine.shutdown();
        }
    }
}
