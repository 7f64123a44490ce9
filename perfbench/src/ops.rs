//! The three workloads: their data sizes, and each client's seeded stream of
//! operations, built with the workloads' public program builders.

use std::sync::{Arc, Mutex};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use dora_common::prelude::*;
use dora_core::{Step, TxnProgram};
use dora_storage::Database;
use dora_workloads::spec::{c_last, chance, nurand, uniform};
use dora_workloads::tpcc::{CustomerSelector, DISTRICTS_PER_WAREHOUSE};
use dora_workloads::{Tm1, TpcB, Tpcc, Workload};

/// Label of the TPC-B snapshot scan, which counts as its own transaction
/// type.
pub const SNAPSHOT_SCAN: &str = "tpcb-snapshot-scan";

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Tm1,
    TpcbHtap,
    Tpcc,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Tm1, Kind::TpcbHtap, Kind::Tpcc];

    /// The name the command line and the results use.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Tm1 => "tm1",
            Kind::TpcbHtap => "tpcb-htap",
            Kind::Tpcc => "tpcc",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Every transaction-type label the workload runs, in a fixed order
    /// (the index of a label is how latency samples are tagged).
    pub fn labels(self) -> &'static [&'static str] {
        match self {
            Kind::Tm1 => &Tm1::ALL_LABELS,
            Kind::TpcbHtap => &[TpcB::ACCOUNT_UPDATE, SNAPSHOT_SCAN],
            Kind::Tpcc => &Tpcc::ALL_LABELS,
        }
    }

    pub fn label_index(self, label: &str) -> usize {
        self.labels()
            .iter()
            .position(|known| *known == label)
            .expect("every program the generators build carries a known label")
    }
}

/// Data sizes and round sizes of the workloads.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub tm1_subscribers: i64,
    pub tpcb_branches: i64,
    pub tpcb_accounts_per_branch: i64,
    /// Account updates each TPC-B client runs between two snapshot scans
    /// (a round is these and one scan).
    pub tpcb_txns_per_scan: u64,
    pub tpcc_warehouses: i64,
    pub tpcc_customers_per_district: i64,
    pub tpcc_items: i64,
}

/// How a workload's work is cut into rounds, the unit the benchmark
/// measures: in a round every client runs the same number of operations.
#[derive(Debug, Clone, Copy)]
pub struct Rounds {
    /// Operations each client runs per round.
    pub ops: u64,
    /// Unmeasured rounds per engine before the measured ones.
    pub warmup: u32,
    /// Measured rounds per engine for each second of `--seconds`: sized so
    /// that the two engines' measured rounds take about `--seconds` each,
    /// on average, on a 2-core host.
    pub per_second: f64,
    /// Consecutive measured rounds added up into one sample of the
    /// end-to-end rates; the median over the samples is reported. One
    /// round where rounds are alike. TPC-B's are not: the version
    /// collector's work grows with every row written, so each round is
    /// slower than the last, and the median of the falling rounds would
    /// sit where the fall is steepest, which moves from run to run.
    pub per_sample: usize,
}

impl Scale {
    /// The sizes the benchmark measures: TATP's 100,000 subscribers, TPC-B
    /// at spec size with 4 branches, and 2 full-size TPC-C warehouses.
    pub fn full() -> Self {
        Self {
            tm1_subscribers: 100_000,
            tpcb_branches: 4,
            tpcb_accounts_per_branch: 100_000,
            tpcb_txns_per_scan: 10_000,
            tpcc_warehouses: 2,
            tpcc_customers_per_district: 3_000,
            tpcc_items: 10_000,
        }
    }

    /// Small sizes for the benchmark's own tests.
    pub fn small() -> Self {
        Self {
            tm1_subscribers: 2_000,
            tpcb_branches: 4,
            tpcb_accounts_per_branch: 500,
            tpcb_txns_per_scan: 50,
            tpcc_warehouses: 2,
            tpcc_customers_per_district: 60,
            tpcc_items: 200,
        }
    }

    /// The rounds of `kind`. Every round of a workload does the same mix of
    /// work (a TPC-B round ends with each client's scan), and a run does a
    /// fixed number of them, so that workloads whose tables grow as they
    /// run (TPC-B's versions and history, TPC-C's orders) are measured at
    /// the same point of their growth whatever the speed of the host.
    pub fn rounds(&self, kind: Kind) -> Rounds {
        match kind {
            Kind::Tm1 => Rounds {
                ops: 10_000,
                warmup: 3,
                per_second: 3.4,
                per_sample: 1,
            },
            Kind::TpcbHtap => Rounds {
                ops: self.tpcb_txns_per_scan + 1,
                warmup: 1,
                per_second: 0.4,
                // All measured rounds: one sample.
                per_sample: usize::MAX,
            },
            Kind::Tpcc => Rounds {
                ops: 44 * TPCC_DECK.len() as u64,
                warmup: 1,
                per_second: 1.7,
                per_sample: 1,
            },
        }
    }

    /// A fresh workload object of `kind` at this scale (one per database:
    /// the objects cache table ids).
    pub fn workload(&self, kind: Kind) -> Spec {
        match kind {
            Kind::Tm1 => Spec::Tm1(Arc::new(Tm1::new(self.tm1_subscribers))),
            Kind::TpcbHtap => Spec::Tpcb(Arc::new(TpcB::with_accounts(
                self.tpcb_branches,
                self.tpcb_accounts_per_branch,
            ))),
            Kind::Tpcc => Spec::Tpcc(Arc::new(Tpcc::with_scale(
                self.tpcc_warehouses,
                self.tpcc_customers_per_district,
                self.tpcc_items,
            ))),
        }
    }

    /// Closed-loop clients for `kind` on a host with `cores` cores: one per
    /// core, and for TPC-C no more than one per warehouse, since each
    /// client is bound to its own home warehouse.
    pub fn clients(&self, kind: Kind, cores: usize) -> usize {
        match kind {
            Kind::Tpcc => cores.min(self.tpcc_warehouses as usize),
            Kind::Tm1 | Kind::TpcbHtap => cores,
        }
        .max(1)
    }
}

/// A loaded workload object.
#[derive(Clone)]
pub enum Spec {
    Tm1(Arc<Tm1>),
    Tpcb(Arc<TpcB>),
    Tpcc(Arc<Tpcc>),
}

impl Spec {
    pub fn as_workload(&self) -> Arc<dyn Workload> {
        match self {
            Spec::Tm1(w) => w.clone(),
            Spec::Tpcb(w) => w.clone(),
            Spec::Tpcc(w) => w.clone(),
        }
    }
}

/// What a committed operation changed, as the benchmark tallies it for the
/// correctness checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    None,
    CallForwardingInserted,
    CallForwardingDeleted,
    /// A TPC-B transfer of this many cents.
    Transfer(i64),
    /// A TPC-C payment of this many cents.
    Payment(i64),
    /// A TPC-C NewOrder with this many order lines; `valid` is false for the
    /// 1% that carry an unused item id and must roll back.
    NewOrder {
        lines: i64,
        valid: bool,
    },
}

/// One operation a client submits.
pub enum Op {
    Txn {
        program: TxnProgram,
        effect: Effect,
    },
    /// The TPC-B snapshot scan: Σbranch, Σteller and Σaccount in cents, read
    /// from one snapshot into `sums`.
    Scan {
        program: TxnProgram,
        sums: Arc<Mutex<[i64; 3]>>,
    },
}

/// A balance in whole cents (amounts are generated in cents, so every
/// balance is a whole number of cents up to float rounding).
pub fn cents(value: f64) -> i64 {
    (value * 100.0).round() as i64
}

/// The snapshot scan: three read-only steps that sum the balance column of
/// `branch`, `teller` and `account`.
fn scan_program(db: &Database, sums: Arc<Mutex<[i64; 3]>>) -> DbResult<TxnProgram> {
    let mut program = TxnProgram::new(SNAPSHOT_SCAN);
    for (slot, (name, column)) in [("branch", 1), ("teller", 2), ("account", 2)]
        .into_iter()
        .enumerate()
    {
        let table = db.table_id(name)?;
        let sums = Arc::clone(&sums);
        program = program.step(Step::secondary("sum-balances", table, move |ctx| {
            let mut total = 0i64;
            let mut bad = None;
            ctx.db.scan_table(ctx.txn, table, ctx.cc(), |_, row| {
                match row[column].as_float() {
                    Ok(balance) => total += cents(balance),
                    Err(error) => bad = Some(error),
                }
            })?;
            if let Some(error) = bad {
                return Err(error);
            }
            sums.lock().expect("scan sums poisoned")[slot] = total;
            Ok(())
        }));
    }
    Ok(program)
}

/// One client's seeded operation stream.
pub struct Generator {
    spec: Spec,
    rng: SmallRng,
    scale: Scale,
    /// TPC-C home warehouse.
    home: i64,
    since_scan: u64,
    /// TPC-C cards left in the current deck.
    deck: Vec<Card>,
}

impl Generator {
    /// The stream of client `client` under `seed`: the same arguments give
    /// the same operations, whichever engine runs them.
    pub fn new(spec: Spec, scale: &Scale, seed: u64, client: usize) -> Self {
        let home = match &spec {
            Spec::Tpcc(w) => client as i64 % w.warehouses() + 1,
            _ => 1,
        };
        let stream = seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self {
            spec,
            rng: SmallRng::seed_from_u64(stream),
            scale: *scale,
            home,
            since_scan: 0,
            deck: Vec::new(),
        }
    }

    pub fn next(&mut self, db: &Database) -> DbResult<Op> {
        let rng = &mut self.rng;
        match &self.spec {
            Spec::Tm1(w) => tm1_op(w, db, rng),
            Spec::Tpcb(w) => {
                if self.since_scan == self.scale.tpcb_txns_per_scan {
                    self.since_scan = 0;
                    let sums = Arc::new(Mutex::new([0; 3]));
                    let program = scan_program(db, Arc::clone(&sums))?;
                    return Ok(Op::Scan { program, sums });
                }
                self.since_scan += 1;
                let (home_branch, _, account, teller, amount) = w.inputs(rng);
                Ok(Op::Txn {
                    program: w.account_update_program(db, home_branch, account, teller, amount)?,
                    effect: Effect::Transfer(cents(amount)),
                })
            }
            Spec::Tpcc(w) => {
                if self.deck.is_empty() {
                    self.deck = TPCC_DECK.to_vec();
                    for last in (1..self.deck.len()).rev() {
                        self.deck.swap(last, uniform(rng, 0, last as i64) as usize);
                    }
                }
                let card = self.deck.pop().expect("the deck was just refilled");
                tpcc_op(w, card, &self.scale, db, rng, self.home)
            }
        }
    }
}

/// TATP's mix with its standard percentages and input distributions,
/// subscribers chosen uniformly.
fn tm1_op(w: &Tm1, db: &Database, rng: &mut SmallRng) -> DbResult<Op> {
    let roll = uniform(rng, 0, 99);
    let s_id = uniform(rng, 1, w.subscribers());
    let sf_type = uniform(rng, 1, 4);
    let start_time = uniform(rng, 0, 2) * 8;
    let (program, effect) = match roll {
        0..=34 => (w.get_subscriber_data_program(db, s_id)?, Effect::None),
        35..=44 => (
            w.get_new_destination_program(db, s_id, sf_type, start_time)?,
            Effect::None,
        ),
        45..=79 => (
            w.get_access_data_program(db, s_id, uniform(rng, 1, 4))?,
            Effect::None,
        ),
        80..=81 => {
            let bit = uniform(rng, 0, 1);
            let data_a = uniform(rng, 0, 255);
            (
                w.update_subscriber_data_program(db, s_id, sf_type, bit, data_a, false)?,
                Effect::None,
            )
        }
        82..=95 => (
            w.update_location_program(db, s_id, uniform(rng, 0, 1_000_000))?,
            Effect::None,
        ),
        96..=97 => {
            let end_time = start_time + uniform(rng, 1, 8);
            (
                w.insert_call_forwarding_program(db, s_id, sf_type, start_time, end_time)?,
                Effect::CallForwardingInserted,
            )
        }
        _ => (
            w.delete_call_forwarding_program(db, s_id, sf_type, start_time)?,
            Effect::CallForwardingDeleted,
        ),
    };
    Ok(Op::Txn { program, effect })
}

fn customer_selector(rng: &mut SmallRng, customers: i64) -> CustomerSelector {
    if chance(rng, 60) {
        // The loader names customer `c` after `c % 1000`.
        CustomerSelector::ByLastName(c_last(uniform(rng, 1, customers) % 1000))
    } else {
        CustomerSelector::ById(nurand(rng, 1023, 1, customers))
    }
}

/// A TPC-C transaction type.
#[derive(Debug, Clone, Copy)]
enum Card {
    NewOrder,
    Payment,
    OrderStatus,
    Delivery,
    StockLevel,
}

/// The card deck of TPC-C clause 5.2.4.2: each terminal draws its
/// transaction types from shuffled decks of 10 NewOrder, 10 Payment and one
/// each of OrderStatus, Delivery and StockLevel. Every 23 operations then
/// hold the same mix, so NewOrders and Deliveries stay in step and the
/// `new_order` table, which every Delivery scans, does not drift apart from
/// one seed to the next.
const TPCC_DECK: [Card; 23] = {
    let mut deck = [Card::NewOrder; 23];
    let mut card = 10;
    while card < 20 {
        deck[card] = Card::Payment;
        card += 1;
    }
    deck[20] = Card::OrderStatus;
    deck[21] = Card::Delivery;
    deck[22] = Card::StockLevel;
    deck
};

/// One TPC-C transaction of type `card` from a terminal bound to warehouse
/// `home`; 15% of Payments pay a customer of another warehouse.
fn tpcc_op(
    w: &Tpcc,
    card: Card,
    scale: &Scale,
    db: &Database,
    rng: &mut SmallRng,
    home: i64,
) -> DbResult<Op> {
    let (customers, items) = (scale.tpcc_customers_per_district, scale.tpcc_items);
    let d_id = uniform(rng, 1, DISTRICTS_PER_WAREHOUSE);
    let (program, effect) = match card {
        Card::NewOrder => {
            let c_id = nurand(rng, 1023, 1, customers);
            let count = uniform(rng, 5, 15);
            let mut lines: Vec<(i64, i64)> = (0..count)
                .map(|_| (nurand(rng, 8191, 1, items), uniform(rng, 1, 10)))
                .collect();
            let valid = !chance(rng, 1);
            if !valid {
                lines.last_mut().expect("at least 5 lines").0 = items + 1_000_000;
            }
            (
                w.new_order_program(db, home, d_id, c_id, lines)?,
                Effect::NewOrder {
                    lines: count,
                    valid,
                },
            )
        }
        Card::Payment => {
            let (c_w_id, c_d_id) = if w.warehouses() > 1 && chance(rng, 15) {
                let mut other = uniform(rng, 1, w.warehouses() - 1);
                if other >= home {
                    other += 1;
                }
                (other, uniform(rng, 1, DISTRICTS_PER_WAREHOUSE))
            } else {
                (home, d_id)
            };
            let selector = customer_selector(rng, customers);
            let amount_cents = uniform(rng, 100, 500_000);
            (
                w.payment_program(
                    db,
                    home,
                    d_id,
                    c_w_id,
                    c_d_id,
                    selector,
                    amount_cents as f64 / 100.0,
                )?,
                Effect::Payment(amount_cents),
            )
        }
        Card::OrderStatus => {
            let selector = customer_selector(rng, customers);
            (
                w.order_status_program(db, home, d_id, selector)?,
                Effect::None,
            )
        }
        Card::Delivery => (
            w.delivery_program(db, home, uniform(rng, 1, 10))?,
            Effect::None,
        ),
        Card::StockLevel => (
            w.stock_level_program(db, home, d_id, uniform(rng, 10, 20))?,
            Effect::None,
        ),
    };
    Ok(Op::Txn { program, effect })
}
