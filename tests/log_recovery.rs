//! The write-ahead log captures committed state: replaying it into a fresh
//! database reconstructs exactly what the workload committed (and nothing
//! that aborted), across both execution engines.

use std::sync::Arc;

use dora_repro::common::prelude::*;
use dora_repro::dora::{DoraConfig, DoraEngine};
use dora_repro::storage::Database;
use dora_repro::workloads::{TpcB, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn dora_committed_state_survives_log_replay() {
    let branches = 3;
    let accounts = 40;
    let db = Database::for_tests();
    let workload = TpcB::with_accounts(branches, accounts);
    workload.setup(&db).unwrap();
    let engine = DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests());
    workload.bind_dora(&engine, 2).unwrap();
    let mut rng = SmallRng::seed_from_u64(99);
    for _ in 0..150 {
        let program = workload.next_program(&db, &mut rng).unwrap();
        let _ = engine.execute(program.prepare().flow_graph());
    }
    engine.shutdown();

    // Recover into a fresh database with the same schema (empty: the loader
    // rows were not logged, so compare the *delta* the transactions applied —
    // the history rows plus the balance changes).
    let fresh = Database::for_tests();
    let fresh_workload = TpcB::with_accounts(branches, accounts);
    fresh_workload.create_schema(&fresh).unwrap();
    fresh_workload.load(&fresh).unwrap();
    db.recover_into(&fresh).unwrap();

    let history = db.table_id("history_b").unwrap();
    assert_eq!(
        db.row_count(history).unwrap(),
        fresh
            .row_count(fresh.table_id("history_b").unwrap())
            .unwrap(),
        "every committed history insert must be replayed"
    );

    // Balances: the recovered database must show the same totals.
    for (table, column) in [("branch", 1usize), ("teller", 2), ("account", 2)] {
        let sum = |database: &Database| {
            let id = database.table_id(table).unwrap();
            let txn = database.begin();
            let mut total = 0.0;
            database
                .scan_table(&txn, id, CcMode::Full, |_, row| {
                    total += row[column].as_float().unwrap_or(0.0);
                })
                .unwrap();
            database.commit(&txn).unwrap();
            total
        };
        let original = sum(&db);
        let recovered = sum(&fresh);
        assert!(
            (original - recovered).abs() < 1e-6,
            "{table} totals diverged after replay: {original} vs {recovered}"
        );
    }
}
