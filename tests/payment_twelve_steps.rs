//! Integration test for the Figure 9 walk-through: the execution of one
//! TPC-C Payment transaction in DORA, step by step.
//!
//! Steps 1-5: the dispatcher enqueues the phase-1 actions (Warehouse,
//! District, Customer); each executor acquires its local lock, runs the
//! action and reports to RVP1; the last one initiates phase 2.
//! Steps 6-9: the History executor runs the insert (which takes a
//! centralized row lock), zeroes the terminal RVP and calls for commit.
//! Steps 10-12: after the storage manager commits, completion messages fan
//! out to the involved executors, which release their local locks and resume
//! any blocked actions.

use std::sync::Arc;

use dora_repro::common::prelude::*;
use dora_repro::dora::{DoraConfig, DoraEngine};
use dora_repro::metrics::{global, CounterKind};
use dora_repro::storage::Database;
use dora_repro::workloads::tpcc::CustomerSelector;
use dora_repro::workloads::{Tpcc, Workload};

#[test]
fn payment_twelve_steps() {
    let db = Database::for_tests();
    let workload = Tpcc::with_scale(2, 30, 50);
    workload.setup(&db).unwrap();
    let engine = DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests());
    workload.bind_dora(&engine, 2).unwrap();

    let warehouse = db.table_id("warehouse").unwrap();
    let district = db.table_id("district").unwrap();
    let customer = db.table_id("customer").unwrap();
    let history = db.table_id("history_c").unwrap();

    let before = global().snapshot();

    // Steps 1-9: submit and wait for one Payment.
    let graph = workload
        .payment_program(&db, 1, 3, 1, 3, CustomerSelector::ById(7), 120.0)
        .unwrap()
        .prepare()
        .flow_graph();
    assert_eq!(
        graph.phase_count(),
        2,
        "Figure 4: two phases separated by RVP1"
    );
    assert_eq!(
        graph.actions_in(0),
        3,
        "warehouse, district and customer actions"
    );
    assert_eq!(graph.actions_in(1), 1, "history insert");
    engine.execute(graph).unwrap();

    let delta = global().snapshot().since(&before);

    // Step 8: exactly the History insert interfaced the centralized lock
    // manager (1 row-level lock out of the many a conventional execution
    // would take).
    assert!(delta.counter(CounterKind::RowLevelLock) >= 1);
    // Steps 2-7: four actions executed, each acquiring a thread-local lock.
    assert!(delta.counter(CounterKind::ActionsExecuted) >= 4);
    assert!(delta.counter(CounterKind::DoraLocalLock) >= 4);
    // Steps 1, 5, 10-11: messages flowed between the dispatcher, the
    // executors and back (phase dispatches plus completion notifications).
    assert!(delta.counter(CounterKind::DoraMessages) >= 6);
    assert!(delta.counter(CounterKind::TxnCommitted) >= 1);

    // Effects: all four tables reflect the payment.
    let check = db.begin();
    let (_, wh) = db
        .probe_primary(&check, warehouse, &Key::int(1), false, CcMode::Full)
        .unwrap()
        .unwrap();
    assert_eq!(wh[2], Value::Float(120.0));
    let (_, di) = db
        .probe_primary(&check, district, &Key::int2(1, 3), false, CcMode::Full)
        .unwrap()
        .unwrap();
    assert_eq!(di[3], Value::Float(120.0));
    let (_, cu) = db
        .probe_primary(&check, customer, &Key::int3(1, 3, 7), false, CcMode::Full)
        .unwrap()
        .unwrap();
    assert_eq!(
        cu[4],
        Value::Float(-130.0),
        "initial balance -10 minus the 120 payment"
    );
    assert_eq!(db.row_count(history).unwrap(), 1);
    db.commit(&check).unwrap();

    // Step 12: after completion the local locks are gone, so a conflicting
    // payment on the same district commits immediately.
    let graph = workload
        .payment_program(&db, 1, 3, 1, 3, CustomerSelector::ById(7), 30.0)
        .unwrap()
        .prepare()
        .flow_graph();
    engine.execute(graph).unwrap();
    engine.shutdown();
}

#[test]
fn remote_customer_payment_is_not_a_distributed_transaction() {
    // Section 4.1.2: 15% of payments touch a remote warehouse's customer;
    // DORA handles them by routing the customer action to another executor,
    // with no change in the commit protocol.
    let db = Database::for_tests();
    let workload = Tpcc::with_scale(3, 30, 50);
    workload.setup(&db).unwrap();
    let engine = DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests());
    workload.bind_dora(&engine, 3).unwrap();

    let graph = workload
        .payment_program(&db, 1, 1, 3, 9, CustomerSelector::ById(11), 55.0)
        .unwrap()
        .prepare()
        .flow_graph();
    engine.execute(graph).unwrap();

    let customer = db.table_id("customer").unwrap();
    let check = db.begin();
    let (_, cu) = db
        .probe_primary(&check, customer, &Key::int3(3, 9, 11), false, CcMode::Full)
        .unwrap()
        .unwrap();
    assert_eq!(cu[4], Value::Float(-65.0));
    db.commit(&check).unwrap();
    engine.shutdown();
}
