//! Property tests for the declarative transaction-program subsystem: for
//! randomly generated `TxnProgram`s,
//!
//! 1. the prepared program's `flow_graph()` tiles exactly over the steps —
//!    every step becomes exactly one action, phases split exactly at the RVP
//!    boundaries, secondary steps stay unrouted, and the serialized plan puts
//!    one action per phase — and
//! 2. executing the same seeded sequence of prepared programs through
//!    `run_baseline` and through the DORA engine yields identical final table
//!    contents (the generic replacement for the per-workload cross-engine
//!    equivalence checks: any workload expressed in the DSL inherits this
//!    guarantee).

use std::sync::Arc;

use dora_repro::common::prelude::*;
use dora_repro::dora::{
    DoraConfig, DoraEngine, LocalMode, OnDuplicate, OnMissing, PreparedProgram, Step, TxnProgram,
};
use dora_repro::storage::{ColumnDef, Database, TableSchema};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const KEYS: i64 = 40;

fn counters_db() -> (Arc<Database>, TableId) {
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
    for id in 1..=KEYS {
        db.load_row(table, vec![Value::Int(id), Value::Int(0)])
            .unwrap();
    }
    (db, table)
}

/// One generated step description — kept as data so the same description can
/// deterministically build identical `Step`s wherever it is needed.
#[derive(Debug, Clone, Copy)]
enum GenStep {
    /// Add `delta` to counter `key` (aborts the txn if the key is missing,
    /// e.g. deleted by an earlier program of the sequence).
    Update { key: i64, delta: i64 },
    /// Read counter `key`; aborts if missing.
    Read { key: i64 },
    /// Insert a fresh counter row.
    Insert { key: i64, value: i64 },
    /// Delete counter `key`; aborts if missing.
    Delete { key: i64 },
    /// An unrouted step: scan-count the table into the scratchpad.
    Secondary,
    /// A free-form routed step reading through the scratchpad.
    Custom { key: i64 },
}

fn build_step(table: TableId, gen: GenStep) -> Step {
    match gen {
        GenStep::Update { key, delta } => Step::update(
            "gen-update",
            table,
            Key::int(key),
            Key::int(key),
            OnMissing::Abort("update target missing"),
            move |_ctx, row| {
                let n = row[1].as_int()?;
                row[1] = Value::Int(n + delta);
                Ok(())
            },
        ),
        GenStep::Read { key } => Step::read(
            "gen-read",
            table,
            Key::int(key),
            Key::int(key),
            OnMissing::Abort("read target missing"),
            |_ctx, _row| Ok(()),
        ),
        GenStep::Insert { key, value } => Step::insert(
            "gen-insert",
            table,
            Key::int(key),
            OnDuplicate::Abort("already inserted"),
            move |_ctx| Ok(vec![Value::Int(key), Value::Int(value)]),
        ),
        GenStep::Delete { key } => Step::delete(
            "gen-delete",
            table,
            Key::int(key),
            Key::int(key),
            OnMissing::Abort("nothing to delete"),
        ),
        GenStep::Secondary => Step::secondary("gen-secondary", table, move |ctx| {
            let mut count = 0i64;
            ctx.db
                .scan_table(ctx.txn, table, CcMode::None, |_, _| count += 1)?;
            ctx.scratch.put("count", count);
            Ok(())
        }),
        GenStep::Custom { key } => Step::custom(
            "gen-custom",
            table,
            Key::int(key),
            LocalMode::Shared,
            move |ctx| {
                // Routed free-form step: probe through the context's CC mode.
                let _ = ctx
                    .db
                    .probe_primary(ctx.txn, table, &Key::int(key), false, ctx.cc())?;
                Ok(())
            },
        ),
    }
}

/// Generates a random program shape: distinct routed keys per program (so
/// concurrent actions of one phase never race on a record), random RVP
/// breaks, occasional secondary/insert/delete steps, occasionally the
/// serialized plan.
fn generate(rng: &mut SmallRng, fresh_base: i64) -> (Vec<GenStep>, Vec<bool>, bool) {
    let step_count = rng.random_range(1..=6usize);
    // Distinct keys for the routed steps.
    let mut keys: Vec<i64> = (1..=KEYS).collect();
    for i in (1..keys.len()).rev() {
        let j = rng.random_range(0..=i as u64) as usize;
        keys.swap(i, j);
    }
    let mut steps = Vec::with_capacity(step_count);
    let mut breaks = Vec::with_capacity(step_count.saturating_sub(1));
    for (index, &key) in keys.iter().enumerate().take(step_count) {
        let step = match rng.random_range(0..10u32) {
            0..=4 => GenStep::Update {
                key,
                delta: rng.random_range(1..=9u32) as i64,
            },
            5..=6 => GenStep::Read { key },
            7 => GenStep::Insert {
                key: fresh_base + rng.random_range(0..50u64) as i64,
                value: rng.random_range(0..100u64) as i64,
            },
            8 => GenStep::Delete {
                key: rng.random_range(1..=KEYS as u64) as i64,
            },
            _ => {
                if rng.random_range(0..2u32) == 0 {
                    GenStep::Secondary
                } else {
                    GenStep::Custom { key }
                }
            }
        };
        steps.push(step);
        if index + 1 < step_count {
            breaks.push(rng.random_range(0..3u32) == 0);
        }
    }
    let serial = rng.random_range(0..5u32) == 0;
    (steps, breaks, serial)
}

fn build_program(table: TableId, steps: &[GenStep], breaks: &[bool], serial: bool) -> TxnProgram {
    let mut program = TxnProgram::new("generated");
    for (index, gen) in steps.iter().enumerate() {
        program = program.step(build_step(table, *gen));
        if index < breaks.len() && breaks[index] {
            program = program.rvp();
        }
    }
    program.serialized(serial)
}

#[test]
fn compiled_graphs_tile_exactly_over_the_steps() {
    let (_db, table) = counters_db();
    let mut rng = SmallRng::seed_from_u64(0xD0_2A);
    for round in 0..200 {
        let (steps, breaks, serial) = generate(&mut rng, 1_000 + round * 100);
        let program = build_program(table, &steps, &breaks, serial);
        let step_count = program.step_count();
        let phase_count = program.phase_count();
        let secondary_count = program.secondary_count();
        assert_eq!(step_count, steps.len());

        let graph = program.prepare().flow_graph();
        // Every step lowers to exactly one action; none are dropped or
        // duplicated.
        assert_eq!(graph.action_count(), step_count, "steps: {steps:?}");
        if serial {
            // The DORA-S plan: one action per phase, program order.
            assert_eq!(graph.phase_count(), step_count);
            for phase in 0..graph.phase_count() {
                assert_eq!(graph.actions_in(phase), 1);
            }
        } else {
            // Phases split exactly at the RVP markers.
            assert_eq!(graph.phase_count(), phase_count, "steps: {steps:?}");
            let sizes: usize = (0..graph.phase_count()).map(|p| graph.actions_in(p)).sum();
            assert_eq!(sizes, step_count);
        }
        // Secondary steps stay unrouted through the lowering.
        let described_secondary = graph
            .describe()
            .iter()
            .flatten()
            .filter(|entry| entry.contains("[secondary]"))
            .count();
        assert_eq!(described_secondary, secondary_count, "steps: {steps:?}");
    }
}

/// Runs a prepared program on the conventional path as one transaction. The
/// sequence is single-threaded, so deadlock retries cannot occur: any error
/// is a deterministic program outcome and rolls the transaction back,
/// exactly as the DORA path does.
fn run_baseline(db: &Arc<Database>, prepared: &PreparedProgram) {
    let txn = db.begin();
    match prepared.run_baseline(db, &txn) {
        Ok(()) => db.commit(&txn).unwrap(),
        Err(_) => {
            let _ = db.abort(&txn);
        }
    }
}

fn table_contents(db: &Database, table: TableId) -> Vec<(i64, i64)> {
    let txn = db.begin();
    let mut rows = Vec::new();
    db.scan_table(&txn, table, CcMode::Full, |_, row| {
        rows.push((row[0].as_int().unwrap(), row[1].as_int().unwrap()));
    })
    .unwrap();
    db.commit(&txn).unwrap();
    rows.sort_unstable();
    rows
}

#[test]
fn baseline_and_dora_compilations_of_the_same_sequence_agree() {
    let (db_base, table) = counters_db();
    let (db_dora, _) = counters_db();
    let engine = DoraEngine::new(Arc::clone(&db_dora), DoraConfig::for_tests());
    // The routing domain covers the loaded keys plus every fresh key the
    // generator can produce for inserts.
    engine.bind_table(table, 2, 1, 20_000).unwrap();

    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    let mut committed = 0u32;
    let mut aborted = 0u32;
    for round in 0..120 {
        // One generated program, lowered once, run by both engines.
        let (steps, breaks, serial) = generate(&mut rng, 1_000 + round * 100);
        let prepared = build_program(table, &steps, &breaks, serial).prepare();

        run_baseline(&db_base, &prepared);
        match engine.execute(prepared.flow_graph()) {
            Ok(()) => committed += 1,
            Err(_) => aborted += 1,
        }

        // Equivalence must hold after every single program, not just at the
        // end — a divergence would otherwise be maskable by later writes.
        assert_eq!(
            table_contents(&db_base, table),
            table_contents(&db_dora, table),
            "divergence after round {round}: {steps:?} breaks {breaks:?} serial {serial}"
        );
    }
    engine.shutdown();
    assert!(committed > 40, "only {committed} programs committed");
    assert!(aborted > 0, "the generator should produce some aborts");
}
