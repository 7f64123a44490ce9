//! The batched executor message path: drains must preserve per-source FIFO
//! order of actions, and the batching counters must stay consistent with the
//! message counts.

use std::sync::Arc;

use dora_repro::common::prelude::*;
use dora_repro::dora::{ActionSpec, DoraConfig, DoraEngine, FlowGraph, LocalMode};
use dora_repro::metrics::CounterKind;
use dora_repro::storage::{ColumnDef, Database, TableSchema};

fn counters_db(rows: i64) -> (Arc<Database>, TableId) {
    let db = Database::for_tests();
    let table = db
        .create_table(TableSchema::new(
            "counters",
            vec![
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("n", ValueType::Int),
            ],
            vec![0],
        ))
        .unwrap();
    for id in 1..=rows {
        db.load_row(table, vec![Value::Int(id), Value::Int(0)])
            .unwrap();
    }
    (db, table)
}

/// A single-action transaction applying `f` to the counter at `id`.
fn apply_graph(table: TableId, id: i64, f: impl Fn(i64) -> i64 + Send + 'static) -> FlowGraph {
    let mut graph = FlowGraph::new();
    graph.push(ActionSpec::new(
        "apply",
        table,
        Key::int(id),
        LocalMode::Exclusive,
        move |ctx| {
            ctx.db
                .update_primary(ctx.txn, table, &Key::int(id), CcMode::None, |row| {
                    let n = row[1].as_int()?;
                    row[1] = Value::Int(f(n));
                    Ok(())
                })
        },
    ));
    graph
}

fn counter_value(db: &Database, table: TableId, id: i64) -> i64 {
    let check = db.begin();
    let (_, row) = db
        .probe_primary(&check, table, &Key::int(id), false, CcMode::Full)
        .unwrap()
        .unwrap();
    let n = row[1].as_int().unwrap();
    db.commit(&check).unwrap();
    n
}

/// Non-commutative updates submitted asynchronously from one source thread
/// must apply in submission order even when the executor drains them in
/// batches: `n -> 3n+1` then `n -> n+7` gives a different result in any
/// other order, so the final value pins the exact sequence.
#[test]
fn batched_drain_preserves_per_source_fifo_order() {
    let (db, table) = counters_db(4);
    // A single executor serves the whole domain, so every submission lands
    // in the same inbox and large batches actually form.
    let engine = DoraEngine::new(Arc::clone(&db), DoraConfig::default());
    engine.bind_table(table, 1, 1, 4).unwrap();

    let rounds = 200i64;
    let mut expected = 0i64;
    let mut pending = Vec::new();
    for round in 0..rounds {
        if round % 2 == 0 {
            expected = expected.wrapping_mul(3).wrapping_add(1);
            pending.push(
                engine
                    .submit(apply_graph(table, 1, |n| n.wrapping_mul(3).wrapping_add(1)))
                    .unwrap(),
            );
        } else {
            expected = expected.wrapping_add(7);
            pending.push(
                engine
                    .submit(apply_graph(table, 1, |n| n.wrapping_add(7)))
                    .unwrap(),
            );
        }
    }
    for txn in pending {
        txn.wait().unwrap();
    }
    assert_eq!(
        counter_value(&db, table, 1),
        expected,
        "a reordered drain would produce a different fold"
    );
    engine.shutdown();
}

/// Two source threads interleaving non-commutative updates on *different*
/// counters: batching may interleave the sources arbitrarily, but each
/// source's own sequence must stay in order.
#[test]
fn batched_drain_keeps_each_source_sequential() {
    let (db, table) = counters_db(4);
    let engine = Arc::new(DoraEngine::new(Arc::clone(&db), DoraConfig::default()));
    engine.bind_table(table, 1, 1, 4).unwrap();

    let rounds = 150i64;
    let handles: Vec<_> = [1i64, 2i64]
        .into_iter()
        .map(|id| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut expected = 0i64;
                let mut pending = Vec::new();
                for round in 0..rounds {
                    if (round + id) % 2 == 0 {
                        expected = expected.wrapping_mul(3).wrapping_add(id);
                        pending.push(engine.submit(apply_graph(table, id, move |n| {
                            n.wrapping_mul(3).wrapping_add(id)
                        })));
                    } else {
                        expected = expected.wrapping_add(7);
                        pending.push(engine.submit(apply_graph(table, id, |n| n.wrapping_add(7))));
                    }
                }
                for txn in pending {
                    txn.unwrap().wait().unwrap();
                }
                expected
            })
        })
        .collect();
    let expected: Vec<i64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(counter_value(&db, table, 1), expected[0]);
    assert_eq!(counter_value(&db, table, 2), expected[1]);
    engine.shutdown();
}

/// The batching counters stay consistent with the message counts: every
/// batch carries at least one message on both the producer and the consumer
/// side, so neither counter may outrun `DoraMessages`. (Exact deltas cannot
/// be asserted here — the global metrics registry is shared by concurrently
/// running tests — but these inequalities hold monotonically across every
/// increment site.)
#[test]
fn batching_counters_never_outrun_messages() {
    let before = dora_repro::metrics::global().snapshot();
    let (db, table) = counters_db(16);
    let engine = DoraEngine::new(Arc::clone(&db), DoraConfig::default());
    engine.bind_table(table, 2, 1, 16).unwrap();
    let mut pending = Vec::new();
    for round in 0..64i64 {
        let id = 1 + (round % 16);
        pending.push(engine.submit(apply_graph(table, id, |n| n + 1)).unwrap());
    }
    for txn in pending {
        txn.wait().unwrap();
    }
    engine.shutdown();
    let delta = dora_repro::metrics::global().snapshot().since(&before);
    let messages = delta.counter(CounterKind::DoraMessages);
    let batches = delta.counter(CounterKind::DispatchBatches);
    let drains = delta.counter(CounterKind::InboxDrains);
    assert!(batches > 0, "dispatches must be counted as batches");
    assert!(drains > 0, "consumer drains must be counted");
    assert!(
        batches <= messages,
        "every producer batch carries >= 1 message ({batches} batches, {messages} messages)"
    );
}
