//! Crash consistency under asynchronous group commit with early lock
//! release on a *partitioned* log: replaying any combination of per-stream
//! torn prefixes yields exactly the maximal commit-sequence-dense prefix of
//! fully fenced transactions — no torn transactions, no ELR ghosts.
//!
//! Three failure shapes must be impossible behind every set of per-stream
//! flush horizons:
//!
//! * **Torn transactions** — a replayed transaction missing some of its data
//!   records. Impossible because a commit fence is appended to a stream only
//!   after all of the transaction's data records on that stream, and a
//!   transaction replays only when *every* touched stream holds its fence.
//! * **ELR ghosts** — effects of a transaction whose locks were released
//!   early but whose fences missed the prefixes. Impossible because recovery
//!   replays only fully fenced transactions.
//! * **Dependency inversions** — a dependent transaction surviving a crash
//!   that tore the transaction it read from (its after-images embed the
//!   writer's effects). Impossible because the commit sequence is assigned
//!   while locks are held, so a dependent always carries a higher sequence
//!   number, and recovery stops at the first gap in the fenced sequence.
//!
//! Exercised for both execution engines with group commit, ELR and multiple
//! log streams enabled; a final section checks that fuzzy-checkpoint
//! recovery reconstructs the same state as a full log replay.

use std::sync::Arc;

use dora_repro::common::prelude::*;
use dora_repro::dora::{DoraConfig, DoraEngine};
use dora_repro::engine::BaselineEngine;
use dora_repro::storage::{Database, LogRecordKind, Lsn};
use dora_repro::workloads::{TpcB, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const BRANCHES: i64 = 3;
const ACCOUNTS: i64 = 40;
const TXNS: usize = 120;
const STREAMS: usize = 3;

fn async_elr_config() -> SystemConfig {
    SystemConfig {
        // A small simulated device latency so groups actually form and
        // commits genuinely spend time in the not-yet-durable window.
        log_flush_micros: 20,
        durability: DurabilityConfig {
            group_commit: true,
            early_lock_release: true,
            // These tests cut arbitrary per-stream prefixes and compare
            // checkpoint recovery against genuine full-history replay, so
            // the log must keep every record even after a checkpoint.
            reclaim_log_at_checkpoint: false,
            ..DurabilityConfig::default()
        }
        .with_log_streams(STREAMS),
        ..SystemConfig::for_tests()
    }
}

/// Runs the TPC-B workload on the given engine and returns the loaded
/// database (whose log the prefixes are cut from).
fn run_workload(kind: EngineKind, seed: u64) -> Arc<Database> {
    let db = Database::new(async_elr_config());
    let workload = TpcB::with_accounts(BRANCHES, ACCOUNTS);
    workload.setup(&db).unwrap();
    let mut rng = SmallRng::seed_from_u64(seed);
    match kind {
        EngineKind::Baseline => {
            let engine = BaselineEngine::new(Arc::clone(&db));
            for _ in 0..TXNS {
                let program = workload.next_program(&db, &mut rng).unwrap();
                let _ = engine.execute_prepared(&program.prepare());
            }
        }
        EngineKind::Dora => {
            let engine = DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests());
            workload.bind_dora(&engine, 2).unwrap();
            for _ in 0..TXNS {
                let program = workload.next_program(&db, &mut rng).unwrap();
                let _ = engine.execute(program.prepare().flow_graph());
            }
            engine.shutdown();
        }
    }
    db
}

/// A fresh database with the TPC-B schema and initial rows, ready for
/// replay (loader rows are not logged, so replay reconstructs the delta).
fn fresh_replica() -> Arc<Database> {
    let fresh = Database::new(async_elr_config());
    let workload = TpcB::with_accounts(BRANCHES, ACCOUNTS);
    workload.create_schema(&fresh).unwrap();
    workload.load(&fresh).unwrap();
    fresh
}

fn balance_total(db: &Database, table: &str, column: usize) -> f64 {
    let id = db.table_id(table).unwrap();
    let txn = db.begin();
    let mut total = 0.0;
    db.scan_table(&txn, id, CcMode::Full, |_, row| {
        total += row[column].as_float().unwrap_or(0.0);
    })
    .unwrap();
    db.commit(&txn).unwrap();
    total
}

/// Replays the log up to the per-stream cuts into a fresh replica and checks
/// the two crash invariants: the replayed transaction set equals what the
/// log manager reports committed inside the cuts (one history row per TPC-B
/// transaction), and money is conserved across branches/tellers/accounts.
fn check_cuts(kind: EngineKind, db: &Database, cuts: &[Lsn]) {
    let fresh = fresh_replica();
    db.recover_prefixes_into(&fresh, cuts).unwrap();

    let history = fresh.table_id("history_b").unwrap();
    let committed_txns = {
        let prefix = db.log_manager().committed_changes_in_prefixes(cuts);
        let set: std::collections::HashSet<TxnId> = prefix.iter().map(|r| r.txn).collect();
        set.len()
    };
    assert_eq!(
        fresh.row_count(history).unwrap(),
        committed_txns,
        "{}: cuts {cuts:?} replayed a torn or ghost transaction",
        kind.label()
    );

    // Money conservation behind every crash point: each committed
    // transaction applies the same delta to its branch, teller and account,
    // so the three totals always agree.
    let branches = balance_total(&fresh, "branch", 1);
    let tellers = balance_total(&fresh, "teller", 2);
    let accounts = balance_total(&fresh, "account", 2);
    assert!(
        (branches - tellers).abs() < 1e-6 && (tellers - accounts).abs() < 1e-6,
        "{}: cuts {cuts:?} broke balance consistency: {branches} {tellers} {accounts}",
        kind.label()
    );
}

#[test]
fn any_torn_multi_stream_prefix_recovers_exactly_the_fenced_set() {
    for kind in EngineKind::ALL {
        let db = run_workload(kind, 0xC0FFEE + kind as u64);
        let log = db.log_manager();
        let streams = log.records_snapshot();
        assert_eq!(streams.len(), STREAMS);
        assert!(!log.is_empty(), "{}: workload must log", kind.label());
        let lens: Vec<u64> = streams.iter().map(|s| s.len() as u64).collect();
        if kind == EngineKind::Dora {
            assert!(
                streams.iter().filter(|s| !s.is_empty()).count() > 1,
                "{}: executors must spread appends over several streams, got {lens:?}",
                kind.label()
            );
        }

        // Structural no-torn-transactions invariant, per stream: a
        // transaction's commit fence on a stream is its highest LSN there,
        // so cut membership of the fence implies cut membership of every
        // data record on that stream.
        let mut fences = 0usize;
        for records in &streams {
            let fence_lsn: std::collections::HashMap<TxnId, Lsn> = records
                .iter()
                .filter(|r| matches!(r.kind, LogRecordKind::Commit { .. }))
                .map(|r| (r.txn, r.lsn))
                .collect();
            fences += fence_lsn.len();
            for record in records {
                if let Some(&fence) = fence_lsn.get(&record.txn) {
                    assert!(
                        record.lsn <= fence,
                        "{}: record {:?} of {} past its fence {:?}",
                        kind.label(),
                        record.lsn,
                        record.txn,
                        fence
                    );
                }
            }
        }
        assert!(
            fences >= TXNS / 2,
            "{}: too few commit fences recorded ({fences})",
            kind.label()
        );

        // Structured probes: nothing flushed, everything flushed, and every
        // single-stream-torn shape (one stream cut to zero / to half, the
        // rest intact) — the crashes that expose cross-stream tearing.
        let full: Vec<Lsn> = lens.iter().map(|&n| Lsn(n)).collect();
        check_cuts(kind, &db, &[Lsn(0); STREAMS]);
        check_cuts(kind, &db, &full);
        for victim in 0..STREAMS {
            for fraction in [0u64, 2, 3] {
                let mut cuts = full.clone();
                cuts[victim] = Lsn(lens[victim].checked_div(fraction).unwrap_or(0));
                check_cuts(kind, &db, &cuts);
            }
        }

        // Arbitrary torn prefixes: every stream cut independently at random.
        let mut rng = SmallRng::seed_from_u64(0xBAD5EED ^ kind as u64);
        for _ in 0..24 {
            let cuts: Vec<Lsn> = lens.iter().map(|&n| Lsn(rng.random_range(0..=n))).collect();
            check_cuts(kind, &db, &cuts);
        }

        // Sanity: replaying the full cuts equals recover_into, which equals
        // the parallel replay path.
        let via_prefix = fresh_replica();
        db.recover_prefixes_into(&via_prefix, &full).unwrap();
        let via_full = fresh_replica();
        db.recover_into(&via_full).unwrap();
        let via_parallel = fresh_replica();
        db.recover_into_parallel(&via_parallel, 4).unwrap();
        let history = via_full.table_id("history_b").unwrap();
        assert_eq!(
            via_prefix.row_count(history).unwrap(),
            via_full.row_count(history).unwrap()
        );
        assert_eq!(
            via_parallel.row_count(history).unwrap(),
            via_full.row_count(history).unwrap()
        );
        assert!(
            (balance_total(&via_parallel, "account", 2) - balance_total(&via_full, "account", 2))
                .abs()
                < 1e-6
        );
    }
}

#[test]
fn checkpoint_recovery_matches_full_replay() {
    for kind in EngineKind::ALL {
        let db = run_workload(kind, 0xFEED + kind as u64);
        // Take the checkpoint after the fact (the workload ran with
        // checkpointing disabled) so the delta past the low-water marks is
        // empty and the snapshot alone must reconstruct the state; then run
        // more work on top to exercise checkpoint + delta replay.
        db.log_manager().take_checkpoint();
        let checkpoint = db
            .log_manager()
            .checkpoint_snapshot()
            .expect("checkpoint was just taken");
        assert!(checkpoint.row_count() > 0);

        let workload = TpcB::with_accounts(BRANCHES, ACCOUNTS);
        let engine = BaselineEngine::new(Arc::clone(&db));
        let mut rng = SmallRng::seed_from_u64(0xD17A + kind as u64);
        for _ in 0..TXNS / 2 {
            let program = workload.next_program(&db, &mut rng).unwrap();
            let _ = engine.execute_prepared(&program.prepare());
        }

        let via_checkpoint = fresh_replica();
        db.recover_checkpoint_into(&via_checkpoint, 4).unwrap();
        let via_full = fresh_replica();
        db.recover_into(&via_full).unwrap();

        let history = via_full.table_id("history_b").unwrap();
        assert_eq!(
            via_checkpoint.row_count(history).unwrap(),
            via_full.row_count(history).unwrap(),
            "{}: checkpoint recovery diverged from full replay",
            kind.label()
        );
        for (table, column) in [("branch", 1), ("teller", 2), ("account", 2)] {
            assert!(
                (balance_total(&via_checkpoint, table, column)
                    - balance_total(&via_full, table, column))
                .abs()
                    < 1e-6,
                "{}: {table} totals diverged after checkpoint recovery",
                kind.label()
            );
        }
    }
}
