//! The benchmark's own tests: seeded single-client runs are deterministic,
//! and every correctness check rejects a corrupted table or tally.
//!
//! The program's counters are process-wide, so the tests take turns.

use std::sync::{Arc, Mutex, MutexGuard};

use dora_common::prelude::*;
use dora_perfbench::checks::{digest, verify, Check};
use dora_perfbench::ops::{Kind, Scale};
use dora_perfbench::report::per_layer;
use dora_perfbench::run::{load, run_ops, EngineRun, Loaded, Tally};
use dora_storage::Database;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

const SEED: u64 = 42;
const OPS: u64 = 400;
const EXECUTORS: usize = 2;

fn tables(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::Tm1 => &[
            "subscriber",
            "access_info",
            "special_facility",
            "call_forwarding",
        ],
        Kind::TpcbHtap => &["branch", "teller", "account", "history_b"],
        Kind::Tpcc => &[
            "warehouse",
            "district",
            "customer",
            "history_c",
            "new_order",
            "orders",
            "order_line",
            "item",
            "stock",
        ],
    }
}

/// Loads `kind` at the small scale on `engine`, runs the fixed seeded
/// single-client sequence, and shuts the engine down.
fn single_client(engine: EngineKind, kind: Kind, trace: bool) -> (Loaded, EngineRun) {
    let scale = Scale::small();
    let loaded = load(engine, kind, &scale, EXECUTORS).expect("small scale loads");
    let run = run_ops(&loaded, &scale, SEED, OPS, trace);
    loaded.exec.shutdown();
    assert_eq!(run.attempted, OPS);
    assert_eq!(run.failed, 0, "failures: {:?}", run.failures);
    (loaded, run)
}

#[test]
fn single_client_leaves_identical_tables_on_both_engines() {
    let _turn = serial();
    for kind in Kind::ALL {
        let (baseline, baseline_run) = single_client(EngineKind::Baseline, kind, false);
        let (dora, dora_run) = single_client(EngineKind::Dora, kind, false);
        assert_eq!(baseline_run.tally, dora_run.tally, "{}", kind.name());
        assert_eq!(
            (baseline_run.committed, baseline_run.rolled_back),
            (dora_run.committed, dora_run.rolled_back),
            "{}",
            kind.name()
        );
        for table in tables(kind) {
            assert_eq!(
                digest(baseline.exec.db(), table).unwrap(),
                digest(dora.exec.db(), table).unwrap(),
                "{} table {table}",
                kind.name()
            );
        }
    }
}

/// Per-layer counts that depend on timing rather than on the operations:
/// how many messages an inbox drain picks up, whether a latch was
/// contended, and when the version collector runs.
const TIMING_DEPENDENT: [&str; 3] = [
    "inbox_drains_per_txn",
    "latch.contended_per_txn",
    "mvcc.reclaimed_per_txn",
];

/// On DORA, the actions of one phase run in parallel on their executors.
/// When TPC-C's NewOrder reads its unused item, the customer, district and
/// other item actions of that phase have run, or find the transaction
/// aborted and skip their work, depending on which executor got there
/// first; these counts of theirs vary with that order.
const RACING_ROLLBACK: [&str; 5] = [
    "core.engine.messages_per_txn",
    "core.locallock.acquired_per_txn",
    "core.locallock.elided_per_txn",
    "buffer.pins_per_txn",
    "log.records_per_txn",
];

#[test]
fn two_single_client_runs_repeat_every_per_layer_count() {
    let _turn = serial();
    let mut differing = Vec::new();
    for kind in Kind::ALL {
        for engine in EngineKind::ALL {
            let racing: &[&str] = match (kind, engine) {
                (Kind::Tpcc, EngineKind::Dora) => &RACING_ROLLBACK,
                _ => &[],
            };
            let counts = || {
                let (loaded, run) = single_client(engine, kind, true);
                per_layer(kind, &[(loaded.setup, &run)])
                    .into_iter()
                    .filter(|m| m.unit == "count/txn")
                    .filter(|m| !TIMING_DEPENDENT.iter().any(|t| m.name.ends_with(t)))
                    .filter(|m| !racing.iter().any(|t| m.name.ends_with(t)))
                    .map(|m| (m.name, m.value))
                    .collect::<Vec<_>>()
            };
            let first = counts();
            assert!(!first.is_empty());
            for ((name, a), (_, b)) in first.iter().zip(counts()) {
                if *a != b {
                    differing.push(format!("{} {name}: {a} then {b}", kind.name()));
                }
            }
        }
    }
    assert!(differing.is_empty(), "{differing:#?}");
}

fn fails(checks: &[Check], name: &str) -> bool {
    let check = checks
        .iter()
        .find(|check| check.name == name)
        .unwrap_or_else(|| panic!("no check named {name}"));
    check.result.is_err()
}

fn assert_all_pass(checks: &[Check]) {
    for check in checks {
        assert!(check.result.is_ok(), "{}: {:?}", check.name, check.result);
    }
}

/// Runs a short baseline sequence and returns its database and tally, with
/// every check passing.
fn clean_run(kind: Kind) -> (Arc<Database>, Tally) {
    let (loaded, run) = single_client(EngineKind::Baseline, kind, false);
    let db = Arc::clone(loaded.exec.db());
    assert_all_pass(&verify(kind, &Scale::small(), &db, &run.tally, EXECUTORS));
    (db, run.tally)
}

/// Applies `change` to the row of `table` with primary key `key` in a
/// logged transaction.
fn update(db: &Database, table: &str, key: Key, change: impl FnMut(&mut Row) -> DbResult<()>) {
    let table = db.table_id(table).unwrap();
    let txn = db.begin();
    db.update_primary(&txn, table, &key, CcMode::Full, change)
        .unwrap();
    db.commit(&txn).unwrap();
}

fn delete(db: &Database, table: &str, key: Key) {
    let table = db.table_id(table).unwrap();
    let txn = db.begin();
    db.delete_primary(&txn, table, &key, CcMode::Full).unwrap();
    db.commit(&txn).unwrap();
}

fn insert(db: &Database, table: &str, row: Row) {
    let table = db.table_id(table).unwrap();
    let txn = db.begin();
    db.insert(&txn, table, row, CcMode::Full).unwrap();
    db.commit(&txn).unwrap();
}

/// Adds a row behind the log's back.
fn sneak_in(db: &Database, table: &str, row: Row) {
    db.load_row(db.table_id(table).unwrap(), row).unwrap();
}

fn add_float(column: usize, delta: f64) -> impl FnMut(&mut Row) -> DbResult<()> {
    move |row| {
        row[column] = Value::Float(row[column].as_float()? + delta);
        Ok(())
    }
}

fn check_after(kind: Kind, db: &Database, tally: &Tally) -> Vec<Check> {
    verify(kind, &Scale::small(), db, tally, EXECUTORS)
}

#[test]
fn tm1_checks_reject_corruption() {
    let _turn = serial();
    let kind = Kind::Tm1;
    let (db, tally) = clean_run(kind);
    let mut wrong = tally.clone();
    wrong.call_forwarding_inserted += 1;
    assert!(fails(
        &check_after(kind, &db, &wrong),
        "tm1.call_forwarding_rows"
    ));

    delete(&db, "subscriber", Key::int(7));
    delete(&db, "access_info", Key::int2(7, 1));
    delete(&db, "special_facility", Key::int2(7, 1));
    let checks = check_after(kind, &db, &tally);
    for name in [
        "tm1.subscriber_rows",
        "tm1.access_info_rows",
        "tm1.special_facility_rows",
    ] {
        assert!(fails(&checks, name), "{name}");
    }
}

#[test]
fn tpcb_checks_reject_corruption() {
    let _turn = serial();
    let kind = Kind::TpcbHtap;
    let (db, tally) = clean_run(kind);
    assert!(tally.scans > 0, "the run includes snapshot scans");

    let mut wrong = tally.clone();
    wrong.transfer_cents += 1;
    wrong.transfers += 1;
    wrong.unbalanced_scans.push([0, 0, 1]);
    let checks = check_after(kind, &db, &wrong);
    for name in [
        "tpcb.every_scan_balanced",
        "tpcb.branch_sum",
        "tpcb.teller_sum",
        "tpcb.account_sum",
        "tpcb.history_rows",
    ] {
        assert!(fails(&checks, name), "{name}");
    }

    update(&db, "account", Key::int(3), add_float(2, 0.01));
    let checks = check_after(kind, &db, &tally);
    assert!(fails(&checks, "tpcb.account_sum"));
    assert!(!fails(&checks, "replayed_log_equals_live_tables"));

    sneak_in(
        &db,
        "history_b",
        vec![
            Value::Int(1),
            Value::Int(1),
            Value::Int(1),
            Value::Float(0.0),
            Value::Int(-1),
        ],
    );
    assert!(fails(
        &check_after(kind, &db, &tally),
        "replayed_log_equals_live_tables"
    ));
}

#[test]
fn tpcc_checks_reject_corruption() {
    let _turn = serial();
    let kind = Kind::Tpcc;
    let (db, tally) = clean_run(kind);
    assert!(tally.new_orders > 0 && tally.payment_cents > 0);

    let mut wrong = tally.clone();
    wrong.payment_cents += 1;
    wrong.new_orders += 1;
    wrong.order_lines += 1;
    wrong.invalid_new_orders_committed = 1;
    let checks = check_after(kind, &db, &wrong);
    for name in [
        "tpcc.sum_w_ytd_is_payments",
        "tpcc.sum_d_ytd_is_payments",
        "tpcc.orders_growth",
        "tpcc.order_line_growth",
        "tpcc.invalid_new_orders_committed",
    ] {
        assert!(fails(&checks, name), "{name}");
    }
    let bigger = Scale {
        tpcc_warehouses: 3,
        ..Scale::small()
    };
    assert!(fails(
        &verify(kind, &bigger, &db, &tally, EXECUTORS),
        "tpcc.districts"
    ));

    let corrupted = |change: &dyn Fn(&Database)| {
        let (db, tally) = clean_run(kind);
        change(&db);
        check_after(kind, &db, &tally)
    };
    let checks = corrupted(&|db| update(db, "warehouse", Key::int(1), add_float(2, 1.0)));
    assert!(fails(&checks, "tpcc.1_w_ytd_is_sum_d_ytd"));

    let checks = corrupted(&|db| {
        update(db, "district", Key::int2(1, 1), |row| {
            row[4] = Value::Int(row[4].as_int()? + 1);
            Ok(())
        })
    });
    assert!(fails(&checks, "tpcc.2_next_o_id"));

    // Two pending orders with a gap between them.
    let checks = corrupted(&|db| {
        for o_id in [1_000, 1_002] {
            insert(
                db,
                "new_order",
                vec![Value::Int(2), Value::Int(3), Value::Int(o_id)],
            );
        }
    });
    assert!(fails(&checks, "tpcc.3_new_orders_contiguous"));

    let checks = corrupted(&|db| {
        insert(
            db,
            "order_line",
            vec![
                Value::Int(1),
                Value::Int(1),
                Value::Int(1),
                Value::Int(99),
                Value::Int(1),
                Value::Int(1),
                Value::Float(1.0),
            ],
        )
    });
    assert!(fails(&checks, "tpcc.4_ol_cnt_matches_lines"));

    let checks = corrupted(&|db| {
        update(db, "orders", Key::int3(1, 1, 1), |row| {
            row[4] = Value::Int(0);
            Ok(())
        })
    });
    assert!(fails(&checks, "tpcc.5_undelivered_in_new_order"));

    let checks = corrupted(&|db| update(db, "district", Key::int2(2, 2), add_float(3, 1.0)));
    assert!(fails(&checks, "tpcc.9_d_ytd_is_history"));
}
