//! Recipes for two faults the `tpcc` workload keeps out of its inputs, since
//! they fail only some of the time. Run them with
//!
//!     cargo test --release --manifest-path perfbench/Cargo.toml \
//!         --test faults -- --ignored --nocapture
//!
//! Each drives TPC-C's own mix (`Workload::next_program`, warehouses chosen
//! uniformly) from 2 clients over 2 full-size warehouses for 20 seconds per
//! engine and prints every failed attempt by engine, transaction type and
//! error. Expected while the faults stand: DORA returns `Deadlock` victims
//! to the caller, which the Baseline retries instead; the Baseline's
//! Delivery now and then fails with `NotFound` on `new_order` when two
//! Deliveries run on one warehouse.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use dora_common::prelude::*;
use dora_perfbench::ops::{Kind, Scale};
use dora_perfbench::run::load;

const CLIENTS: u64 = 2;
const RUN: Duration = Duration::from_secs(20);

/// Failed attempts by (transaction type, error).
type Failures = BTreeMap<(&'static str, &'static str), u64>;

fn error_kind(error: &DbError) -> &'static str {
    match error {
        DbError::Deadlock { .. } => "Deadlock",
        DbError::TxnAborted { .. } => "TxnAborted",
        DbError::NotFound { .. } => "NotFound",
        DbError::DuplicateKey { .. } => "DuplicateKey",
        _ => "other",
    }
}

#[test]
#[ignore = "fault recipe: runs 40 s and reports failures instead of asserting"]
fn tpcc_with_uniform_warehouses() {
    let scale = Scale::full();
    for engine in EngineKind::ALL {
        let loaded = load(engine, Kind::Tpcc, &scale, CLIENTS as usize).unwrap();
        let workload = loaded.spec.as_workload();
        let db = loaded.exec.db();
        let deadline = Instant::now() + RUN;
        let results: Vec<(u64, Failures)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let (workload, exec) = (&workload, &loaded.exec);
                    scope.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(client + 1);
                        let mut attempts = 0;
                        let mut failures = Failures::new();
                        while Instant::now() < deadline {
                            let program = workload.next_program(db, &mut rng).unwrap();
                            let label = program.name();
                            attempts += 1;
                            let result = exec
                                .prepare(program)
                                .and_then(|prepared| exec.execute_prepared_checked(&prepared));
                            let kind = match &result {
                                Ok(TxnOutcome::GaveUp) => "GaveUp",
                                Err(error) => error_kind(error),
                                Ok(_) => continue,
                            };
                            // NewOrder's unused item id is the workload's own rule.
                            if (label, kind) != ("tpcc-new-order", "TxnAborted") {
                                *failures.entry((label, kind)).or_insert(0) += 1;
                            }
                        }
                        (attempts, failures)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        loaded.exec.shutdown();
        let attempts: u64 = results.iter().map(|(a, _)| a).sum();
        let mut failures = Failures::new();
        for (_, per_client) in results {
            for (key, count) in per_client {
                *failures.entry(key).or_insert(0) += count;
            }
        }
        println!("{engine:?}: {attempts} attempts, failures {failures:?}");
    }
}
