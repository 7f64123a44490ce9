//! The adaptive repartitioning acceptance test: under a zipfian (θ ≥ 0.99)
//! workload the engine must trigger at least one *live* resize — while
//! transactions keep flowing — and end the run with per-executor
//! serviced-action counts within 2× of each other, all without losing or
//! double-applying a single increment.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dora_repro::common::config::AdaptiveConfig;
use dora_repro::common::prelude::*;
use dora_repro::dora::{DoraConfig, DoraEngine, RoutingRule};
use dora_repro::engine::{execute_next, DoraExecution, ExecutionEngine};
use dora_repro::storage::Database;
use dora_repro::workloads::{SkewedCounters, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const KEYS: i64 = 400;
const EXECUTORS: usize = 4;
const CLIENTS: u64 = 4;

fn ratio(window: &[u64]) -> f64 {
    let max = window.iter().copied().max().unwrap_or(0).max(1);
    let min = window.iter().copied().min().unwrap_or(0).max(1);
    max as f64 / min as f64
}

#[test]
fn zipfian_load_triggers_live_resizes_and_balances_executors() {
    let db = Database::for_tests();
    let workload: Arc<dyn Workload> = Arc::new(SkewedCounters::new(KEYS, 0.99));
    workload.setup(&db).unwrap();

    let config = DoraConfig {
        adaptive: AdaptiveConfig::eager(),
        ..DoraConfig::for_tests()
    };
    let execution = Arc::new(DoraExecution::new(Arc::new(DoraEngine::new(
        Arc::clone(&db),
        config,
    ))));
    execution.bind(Arc::clone(&workload), EXECUTORS).unwrap();
    let table = db.table_id("skewed_counters").unwrap();
    let initial_rule = execution.dora().routing().rule(table).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|seed| {
            let execution = Arc::clone(&execution);
            let workload = Arc::clone(&workload);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xADA7 + seed);
                let mut committed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if execute_next(execution.as_ref(), workload.as_ref(), &mut rng, None)
                        == TxnOutcome::Committed
                    {
                        committed += 1;
                    }
                }
                committed
            })
        })
        .collect();

    // Let the controller adapt; declare success once at least one resize has
    // happened and a fresh measurement window is balanced. The loop gives
    // slow CI machines time to converge without making fast ones wait.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut balanced_window: Option<Vec<u64>> = None;
    while Instant::now() < deadline {
        let mark = execution.dora().executor_loads(table).unwrap();
        std::thread::sleep(Duration::from_millis(150));
        let now = execution.dora().executor_loads(table).unwrap();
        let window: Vec<u64> = now
            .iter()
            .zip(&mark)
            .map(|(n, m)| n.saturating_sub(*m))
            .collect();
        if execution.adaptive_resizes() >= 1
            && window.iter().sum::<u64>() > 100
            && ratio(&window) <= 2.0
        {
            balanced_window = Some(window);
            break;
        }
    }
    stop.store(true, Ordering::Relaxed);
    let committed: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();

    let resizes = execution.adaptive_resizes();
    assert!(
        resizes >= 1,
        "theta=0.99 load must trigger at least one live resize"
    );
    let window = balanced_window.unwrap_or_else(|| {
        panic!(
            "no balanced window within the deadline; resizes={resizes}, rule={:?}",
            execution.dora().routing().rule(table)
        )
    });
    assert!(
        ratio(&window) <= 2.0,
        "per-executor serviced counts must end within 2x: {window:?}"
    );

    let final_rule = execution.dora().routing().rule(table).unwrap();
    assert_ne!(
        initial_rule, final_rule,
        "the routing rule must actually have moved"
    );
    match &final_rule {
        RoutingRule::Range { boundaries } => {
            assert_eq!(boundaries.len(), EXECUTORS - 1);
            assert!(
                boundaries.windows(2).all(|w| w[0] < w[1]),
                "boundaries must stay strictly increasing: {boundaries:?}"
            );
        }
        other => panic!("adaptive rule must stay a range rule, got {other:?}"),
    }

    // No increment may be lost or applied twice across however many resizes
    // happened mid-flight.
    let check = db.begin();
    let mut sum = 0i64;
    db.scan_table(&check, table, CcMode::Full, |_, row| {
        sum += row[1].as_int().unwrap();
    })
    .unwrap();
    db.commit(&check).unwrap();
    assert_eq!(
        sum as u64, committed,
        "increments lost or double-applied across live resizes"
    );

    execution.shutdown();
}
