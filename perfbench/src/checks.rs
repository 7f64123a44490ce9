//! Correctness checks: the tables an engine leaves behind against what the
//! benchmark computes on its own, from the loader's rules and its tallies of
//! committed operations.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use dora_common::prelude::*;
use dora_storage::Database;
use dora_workloads::tpcc::DISTRICTS_PER_WAREHOUSE;
use dora_workloads::Workload;

use crate::ops::{cents, Kind, Scale};
use crate::run::Tally;

/// One named check and its verdict.
#[derive(Debug)]
pub struct Check {
    pub name: &'static str,
    pub result: Result<(), String>,
}

fn check(name: &'static str, ok: bool, detail: impl FnOnce() -> String) -> Check {
    Check {
        name,
        result: if ok { Ok(()) } else { Err(detail()) },
    }
}

fn equal<T: PartialEq + std::fmt::Debug>(name: &'static str, found: T, expected: T) -> Check {
    let ok = found == expected;
    check(name, ok, || {
        format!("found {found:?}, expected {expected:?}")
    })
}

fn failed(name: &'static str, error: DbError) -> Check {
    Check {
        name,
        result: Err(error.to_string()),
    }
}

/// Calls `f` on every row of table `name`, read from a snapshot pinned now.
fn scan(db: &Database, name: &str, mut f: impl FnMut(&Row)) -> DbResult<()> {
    let table = db.table_id(name)?;
    let txn = db.begin_snapshot(Arc::new(db.snapshot()));
    db.scan_table(&txn, table, CcMode::None, |_, row| f(row))?;
    db.commit(&txn)
}

fn count(db: &Database, name: &str) -> DbResult<i64> {
    let mut rows = 0;
    scan(db, name, |_| rows += 1)?;
    Ok(rows)
}

/// Sum of column `column` of table `name`, in cents.
fn sum_cents(db: &Database, name: &str, column: usize) -> DbResult<i64> {
    let mut total = 0;
    let mut bad = None;
    scan(db, name, |row| match row[column].as_float() {
        Ok(value) => total += cents(value),
        Err(error) => bad = Some(error),
    })?;
    bad.map_or(Ok(total), Err)
}

/// Every check of `kind` against `db` and the run's `tally`; `workers`
/// replay threads for the TPC-B log-replay check.
pub fn verify(
    kind: Kind,
    scale: &Scale,
    db: &Database,
    tally: &Tally,
    workers: usize,
) -> Vec<Check> {
    match kind {
        Kind::Tm1 => tm1(scale, db, tally),
        Kind::TpcbHtap => {
            let mut checks = tpcb(db, tally);
            let workload = scale.workload(kind).as_workload();
            checks.push(replay_matches(db, workload.as_ref(), &TPCB_TABLES, workers));
            checks
        }
        Kind::Tpcc => tpcc(scale, db, tally),
    }
}

/// Row counts of the four TM1 tables as the loader creates them.
fn tm1_loaded_counts(subscribers: i64) -> [i64; 4] {
    let mut counts = [subscribers, 0, 0, 0];
    for s_id in 1..=subscribers {
        counts[1] += s_id % 4 + 1;
        let facilities = (s_id + 1) % 4 + 1;
        counts[2] += facilities;
        counts[3] += (1..=facilities).map(|sf| (s_id + sf) % 4).sum::<i64>();
    }
    counts
}

fn tm1(scale: &Scale, db: &Database, tally: &Tally) -> Vec<Check> {
    let loaded = tm1_loaded_counts(scale.tm1_subscribers);
    let expected = [
        ("tm1.subscriber_rows", loaded[0]),
        ("tm1.access_info_rows", loaded[1]),
        ("tm1.special_facility_rows", loaded[2]),
        (
            "tm1.call_forwarding_rows",
            loaded[3] + tally.call_forwarding_inserted - tally.call_forwarding_deleted,
        ),
    ];
    let tables = [
        "subscriber",
        "access_info",
        "special_facility",
        "call_forwarding",
    ];
    tables
        .iter()
        .zip(expected)
        .map(|(table, (name, rows))| match count(db, table) {
            Ok(found) => equal(name, found, rows),
            Err(error) => failed(name, error),
        })
        .collect()
}

fn tpcb(db: &Database, tally: &Tally) -> Vec<Check> {
    let mut checks = vec![check(
        "tpcb.every_scan_balanced",
        tally.unbalanced_scans.is_empty(),
        || {
            format!(
                "{} of {} scans unbalanced, first [branch, teller, account] = {:?}",
                tally.unbalanced_scans.len(),
                tally.scans,
                tally.unbalanced_scans[0]
            )
        },
    )];
    for (name, table, column) in [
        ("tpcb.branch_sum", "branch", 1),
        ("tpcb.teller_sum", "teller", 2),
        ("tpcb.account_sum", "account", 2),
    ] {
        checks.push(match sum_cents(db, table, column) {
            Ok(found) => equal(name, found, tally.transfer_cents),
            Err(error) => failed(name, error),
        });
    }
    checks.push(match count(db, "history_b") {
        Ok(found) => equal("tpcb.history_rows", found, tally.transfers),
        Err(error) => failed("tpcb.history_rows", error),
    });
    checks
}

/// Order-independent digest of a table's rows: (rows, sum of row hashes).
pub fn digest(db: &Database, name: &str) -> DbResult<(i64, u64)> {
    let mut rows = 0;
    let mut sum = 0u64;
    scan(db, name, |row| {
        let mut hasher = DefaultHasher::new();
        Value::encode_row(row).as_ref().hash(&mut hasher);
        rows += 1;
        sum = sum.wrapping_add(hasher.finish());
    })?;
    Ok((rows, sum))
}

/// Replays `db`'s log with `recover_into_parallel` into a freshly loaded
/// copy of `workload` and compares every table with the live one.
fn replay_matches(
    db: &Database,
    workload: &dyn Workload,
    tables: &[&'static str],
    workers: usize,
) -> Check {
    let name = "replayed_log_equals_live_tables";
    let fresh = Database::new(SystemConfig::default());
    if let Err(error) = workload
        .setup(&fresh)
        .and_then(|()| db.recover_into_parallel(&fresh, workers))
    {
        return failed(name, error);
    }
    for table in tables {
        match (digest(db, table), digest(&fresh, table)) {
            (Ok(live), Ok(replayed)) if live == replayed => {}
            (Ok(live), Ok(replayed)) => {
                return check(name, false, || {
                    format!(
                        "{table}: live has {} rows, replay {} rows, digests {:x} vs {:x}",
                        live.0, replayed.0, live.1, replayed.1
                    )
                })
            }
            (Err(error), _) | (_, Err(error)) => return failed(name, error),
        }
    }
    check(name, true, String::new)
}

/// TPC-B's tables, for the log-replay comparison.
const TPCB_TABLES: [&str; 4] = ["branch", "teller", "account", "history_b"];

/// Per-(warehouse, district) aggregates over the TPC-C tables.
#[derive(Default)]
struct District {
    ytd_cents: i64,
    next_o_id: i64,
    history_cents: i64,
    max_o_id: i64,
    ol_cnt_sum: i64,
    order_lines: i64,
    new_orders: i64,
    min_no_o_id: Option<i64>,
    max_no_o_id: i64,
    /// Orders whose carrier is 0 (undelivered).
    undelivered: i64,
}

fn tpcc(scale: &Scale, db: &Database, tally: &Tally) -> Vec<Check> {
    match tpcc_checks(scale, db, tally) {
        Ok(checks) => checks,
        Err(error) => vec![failed("tpcc.read_tables", error)],
    }
}

fn int(value: &Value) -> i64 {
    value.as_int().unwrap_or(i64::MIN)
}

/// The TPC-C consistency conditions that the loaded data satisfies
/// (3.3.2.1–3.3.2.5 and 3.3.2.8–3.3.2.9, with carrier 0 standing for a
/// null carrier), plus the growth the committed operations account for.
fn tpcc_checks(scale: &Scale, db: &Database, tally: &Tally) -> DbResult<Vec<Check>> {
    let mut districts: BTreeMap<(i64, i64), District> = BTreeMap::new();
    let mut warehouse_ytd: BTreeMap<i64, i64> = BTreeMap::new();
    let mut bad_value = None;
    let mut note = |result: DbResult<f64>| match result {
        Ok(value) => cents(value),
        Err(error) => {
            bad_value = Some(error);
            0
        }
    };
    scan(db, "warehouse", |row| {
        warehouse_ytd.insert(int(&row[0]), note(row[2].as_float()));
    })?;
    scan(db, "district", |row| {
        let district = districts.entry((int(&row[0]), int(&row[1]))).or_default();
        district.ytd_cents = note(row[3].as_float());
        district.next_o_id = int(&row[4]);
    })?;
    scan(db, "history_c", |row| {
        let district = districts.entry((int(&row[0]), int(&row[1]))).or_default();
        district.history_cents += note(row[3].as_float());
    })?;
    let mut orders = 0;
    scan(db, "orders", |row| {
        orders += 1;
        let district = districts.entry((int(&row[0]), int(&row[1]))).or_default();
        district.max_o_id = district.max_o_id.max(int(&row[2]));
        district.ol_cnt_sum += int(&row[5]);
        if int(&row[4]) == 0 {
            district.undelivered += 1;
        }
    })?;
    let mut order_lines = 0;
    scan(db, "order_line", |row| {
        order_lines += 1;
        districts
            .entry((int(&row[0]), int(&row[1])))
            .or_default()
            .order_lines += 1;
    })?;
    scan(db, "new_order", |row| {
        let district = districts.entry((int(&row[0]), int(&row[1]))).or_default();
        let o_id = int(&row[2]);
        district.new_orders += 1;
        district.min_no_o_id = Some(district.min_no_o_id.map_or(o_id, |low| low.min(o_id)));
        district.max_no_o_id = district.max_no_o_id.max(o_id);
    })?;
    if let Some(error) = bad_value {
        return Err(error);
    }

    let expected_districts = scale.tpcc_warehouses * DISTRICTS_PER_WAREHOUSE;
    let loaded_orders = expected_districts * scale.tpcc_customers_per_district;
    let broken = |test: &dyn Fn(&District) -> bool| {
        districts
            .iter()
            .filter(|(_, district)| !test(district))
            .map(|(key, _)| *key)
            .collect::<Vec<_>>()
    };
    let report = |keys: Vec<(i64, i64)>| move || format!("districts (w, d) {keys:?}");
    let mut checks = vec![equal(
        "tpcc.districts",
        districts.len() as i64,
        expected_districts,
    )];
    // 3.3.2.1: W_YTD = Σ D_YTD.
    let mut d_ytd_by_w: BTreeMap<i64, i64> = BTreeMap::new();
    for ((w_id, _), district) in &districts {
        *d_ytd_by_w.entry(*w_id).or_default() += district.ytd_cents;
    }
    checks.push(equal(
        "tpcc.1_w_ytd_is_sum_d_ytd",
        warehouse_ytd.clone(),
        d_ytd_by_w,
    ));
    // 3.3.2.2: D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID).
    let keys = broken(&|d| {
        d.next_o_id - 1 == d.max_o_id && (d.new_orders == 0 || d.max_no_o_id == d.max_o_id)
    });
    checks.push(check("tpcc.2_next_o_id", keys.is_empty(), report(keys)));
    // 3.3.2.3: the new_order rows of a district are contiguous.
    let keys = broken(&|d| {
        d.min_no_o_id
            .is_none_or(|low| d.max_no_o_id - low + 1 == d.new_orders)
    });
    checks.push(check(
        "tpcc.3_new_orders_contiguous",
        keys.is_empty(),
        report(keys),
    ));
    // 3.3.2.4: Σ O_OL_CNT = rows in order_line.
    let keys = broken(&|d| d.ol_cnt_sum == d.order_lines);
    checks.push(check(
        "tpcc.4_ol_cnt_matches_lines",
        keys.is_empty(),
        report(keys),
    ));
    // 3.3.2.5: an order is undelivered exactly when it is in new_order.
    let keys = broken(&|d| d.undelivered == d.new_orders);
    checks.push(check(
        "tpcc.5_undelivered_in_new_order",
        keys.is_empty(),
        report(keys),
    ));
    // 3.3.2.9: D_YTD = Σ H_AMOUNT of the district (3.3.2.8 follows with 1).
    let keys = broken(&|d| d.ytd_cents == d.history_cents);
    checks.push(check(
        "tpcc.9_d_ytd_is_history",
        keys.is_empty(),
        report(keys),
    ));
    // Against the benchmark's own tallies.
    let w_ytd: i64 = warehouse_ytd.values().sum();
    let d_ytd: i64 = districts.values().map(|d| d.ytd_cents).sum();
    checks.push(equal(
        "tpcc.sum_w_ytd_is_payments",
        w_ytd,
        tally.payment_cents,
    ));
    checks.push(equal(
        "tpcc.sum_d_ytd_is_payments",
        d_ytd,
        tally.payment_cents,
    ));
    checks.push(equal(
        "tpcc.orders_growth",
        orders - loaded_orders,
        tally.new_orders,
    ));
    checks.push(equal(
        "tpcc.order_line_growth",
        order_lines - 3 * loaded_orders,
        tally.order_lines,
    ));
    checks.push(equal(
        "tpcc.invalid_new_orders_committed",
        tally.invalid_new_orders_committed,
        0,
    ));
    Ok(checks)
}
