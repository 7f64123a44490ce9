//! Run-time load balancing (Appendix A.2.1): skew the load towards a few
//! subscribers, let the resource manager detect the imbalance and move the
//! routing-rule boundaries, and keep executing throughout.
//!
//! ```text
//! cargo run --release --example load_rebalance
//! ```

use std::sync::Arc;

use dora_repro::common::prelude::*;
use dora_repro::dora::{DoraConfig, DoraEngine, ResourceManager};
use dora_repro::storage::Database;
use dora_repro::workloads::{Tm1, Tm1Mix, Workload};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

fn main() {
    let subscribers = 10_000i64;
    let db = Database::new(SystemConfig::default());
    let workload = Tm1::new(subscribers).with_mix(Tm1Mix::GetSubscriberDataOnly);
    workload.setup(&db).expect("load TM1");

    let dora = Arc::new(DoraEngine::new(Arc::clone(&db), DoraConfig::default()));
    workload.bind_dora(&dora, 4).expect("bind");
    let subscriber_table = db.table_id("subscriber").unwrap();
    println!(
        "initial rule: {:?}",
        dora.routing().rule(subscriber_table).unwrap()
    );

    // Hammer the low end of the key space: executor 0 gets almost all work.
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..2_000 {
        let graph = workload
            .get_subscriber_data_program(&db, 1 + (rng.next_u64() % 500) as i64)
            .expect("program")
            .prepare()
            .flow_graph();
        dora.execute(graph).expect("probe");
    }
    println!(
        "executor loads after skewed phase: {:?}",
        dora.executor_loads(subscriber_table).unwrap()
    );

    // Let the resource manager react.
    let manager = ResourceManager::new(DoraConfig::default());
    let rebalanced = manager
        .rebalance_if_skewed(&dora, subscriber_table, 1, subscribers)
        .expect("rebalance");
    println!("rebalanced: {rebalanced}");
    println!(
        "new rule: {:?}",
        dora.routing().rule(subscriber_table).unwrap()
    );

    // Work continues under the new rule.
    for s_id in [10i64, 5_000, 9_999] {
        let graph = workload
            .get_subscriber_data_program(&db, s_id)
            .expect("program")
            .prepare()
            .flow_graph();
        dora.execute(graph).expect("probe after rebalance");
    }
    println!(
        "probes after the rebalance succeeded; executor loads: {:?}",
        dora.executor_loads(subscriber_table).unwrap()
    );
    dora.shutdown();
}
