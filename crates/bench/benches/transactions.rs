//! End-to-end single-transaction latency for every registered execution
//! engine, for the transactions Figure 7 reports. Criterion gives the
//! per-transaction view; the `repro fig7` harness reports the normalized
//! comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

use dora_common::EngineKind;
use dora_engine::{build_engine, execute_next};
use dora_storage::Database;
use dora_workloads::{Tm1, Tm1Mix, TpcB, Tpcc, TpccMix, Workload};

fn bench_workload(c: &mut Criterion, name: &str, make: impl Fn() -> Box<dyn Workload>) {
    let mut group = c.benchmark_group(name);
    for kind in EngineKind::ALL {
        let db = Database::for_tests();
        let workload: Arc<dyn Workload> = Arc::from(make());
        workload.setup(&db).unwrap();
        let engine = build_engine(kind, db);
        engine.bind(Arc::clone(&workload), 2).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        group.bench_function(kind.label(), |b| {
            b.iter(|| execute_next(engine.as_ref(), workload.as_ref(), &mut rng, None));
        });
        engine.shutdown();
    }
    group.finish();
}

fn transaction_latency(c: &mut Criterion) {
    bench_workload(c, "tm1_get_subscriber_data", || {
        Box::new(Tm1::new(1_000).with_mix(Tm1Mix::GetSubscriberDataOnly))
    });
    bench_workload(c, "tpcc_payment", || {
        Box::new(Tpcc::with_scale(2, 60, 100).with_mix(TpccMix::PaymentOnly))
    });
    bench_workload(c, "tpcc_new_order", || {
        Box::new(Tpcc::with_scale(2, 60, 100).with_mix(TpccMix::NewOrderOnly))
    });
    bench_workload(c, "tpcb_account_update", || {
        Box::new(TpcB::with_accounts(4, 100))
    });
}

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(1))
}

criterion_group! {
    name = benches;
    config = configure();
    targets = transaction_latency
}
criterion_main!(benches);
