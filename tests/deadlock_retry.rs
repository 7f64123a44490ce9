//! Deadlock victims are retried by every engine: a caller of
//! `ExecutionEngine::execute_prepared_checked` sees a commit, a workload
//! abort, `GaveUp` once the retry budget is spent, or a non-retryable error,
//! but never `DbError::Deadlock`.
//!
//! TPC-C's own mix with warehouses drawn uniformly is the workload that
//! produces victims on both engines: Delivery, NewOrder and StockLevel from
//! two clients meet on the same districts, orders and stock rows.

use std::sync::Arc;

use dora_repro::common::prelude::*;
use dora_repro::dora::DoraConfig;
use dora_repro::engine::build_engine_with;
use dora_repro::metrics::{global, CounterKind};
use dora_repro::storage::Database;
use dora_repro::workloads::{Tpcc, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const CLIENTS: u64 = 2;
const TXNS_PER_CLIENT: usize = 600;

#[test]
fn deadlock_victims_never_reach_the_caller_in_the_tpcc_mix() {
    for kind in EngineKind::ALL {
        let db = Database::for_tests();
        let workload: Arc<dyn Workload> = Arc::new(Tpcc::with_scale(2, 30, 100));
        workload.setup(&db).unwrap();
        let engine = build_engine_with(kind, Arc::clone(&db), DoraConfig::for_tests());
        engine
            .bind(Arc::clone(&workload), CLIENTS as usize)
            .unwrap();
        let before = global().snapshot();
        std::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let (engine, workload, db) = (&engine, &workload, &db);
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(client + 1);
                    for _ in 0..TXNS_PER_CLIENT {
                        let program = workload.next_program(db, &mut rng).unwrap();
                        let label = program.name();
                        let result = engine
                            .prepare(program)
                            .and_then(|prepared| engine.execute_prepared_checked(&prepared));
                        assert!(
                            !matches!(result, Err(DbError::Deadlock { .. })),
                            "{}: a {label} deadlock victim reached the caller",
                            engine.name()
                        );
                    }
                });
            }
        });
        engine.shutdown();
        let victims = global()
            .snapshot()
            .since(&before)
            .counter(CounterKind::DeadlockVictim);
        eprintln!("{}: {victims} deadlock victims retried", engine.name());
    }
}
