//! Executors: the worker threads DORA couples with data.
//!
//! Each executor owns three structures (Section 4.1.3): a queue of incoming
//! actions, a queue of completed transactions and a thread-local lock table.
//! Incoming work is served strictly in FIFO order; actions that conflict on
//! the local lock table are parked and retried when a completed-transaction
//! notification releases the blocking locks.
//!
//! The executor also implements its side of the dataset-resize protocol
//! (Appendix A.2.1): on a `StartResize` message it stops serving actions of
//! *new* transactions until every transaction it already participates in has
//! left the system, signals the resource manager, and on `FinishResize`
//! re-dispatches the deferred actions through the (by then updated) routing
//! table.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, MutexGuard};

use dora_common::prelude::*;
use dora_metrics::{incr, time_section, CounterKind, TimeCategory};

use crate::action::{Action, ActionContext};
use crate::engine::EngineInner;
use crate::locallock::{LocalAcquire, LocalLockTable};
use crate::txn::DoraTxnInner;

/// Barrier used by the resource manager to wait for an executor to drain
/// during a routing-rule change.
#[derive(Debug, Default)]
pub struct ResizeBarrier {
    drained: Mutex<bool>,
    cond: Condvar,
}

impl ResizeBarrier {
    /// Creates a fresh barrier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the executor as drained and wakes the resource manager.
    pub fn signal(&self) {
        let mut drained = self.drained.lock();
        *drained = true;
        self.cond.notify_all();
    }

    /// Blocks until the executor has drained.
    pub fn wait(&self) {
        let mut drained = self.drained.lock();
        while !*drained {
            self.cond.wait(&mut drained);
        }
    }
}

/// Messages an executor can receive on its incoming queue.
pub(crate) enum Message {
    /// An action to execute.
    Action(Action),
    /// A transaction the executor participated in has committed or aborted:
    /// release its local locks and retry blocked actions (steps 10–12 of
    /// Figure 9).
    Completed(TxnId),
    /// Begin the dataset-resize drain protocol.
    StartResize(Arc<ResizeBarrier>),
    /// The routing rule has been updated; re-dispatch deferred actions and
    /// resume normal service.
    FinishResize,
    /// Terminate the executor thread.
    Shutdown,
}

impl std::fmt::Debug for Message {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Message::Action(action) => write!(f, "Action({action:?})"),
            Message::Completed(txn) => write!(f, "Completed({txn})"),
            Message::StartResize(_) => write!(f, "StartResize"),
            Message::FinishResize => write!(f, "FinishResize"),
            Message::Shutdown => write!(f, "Shutdown"),
        }
    }
}

/// A latched executor inbox: messages pushed through it become visible to
/// the executor when the guard drops. The dispatcher holds guards on every
/// destination of a phase before pushing any action, which is DORA's atomic
/// phase submission (Section 4.2.3). The guard refreshes the lock-free depth
/// mirror on release so [`ExecutorShared::queue_depth`] never touches the
/// inbox mutex.
pub(crate) struct InboxGuard<'a> {
    depth: &'a AtomicUsize,
    queue: MutexGuard<'a, VecDeque<Message>>,
}

impl InboxGuard<'_> {
    /// Appends a message to the latched inbox.
    pub(crate) fn push(&mut self, message: Message) {
        self.queue.push_back(message);
    }
}

impl Drop for InboxGuard<'_> {
    fn drop(&mut self) {
        self.depth.store(self.queue.len(), Ordering::Relaxed);
    }
}

/// The shared (cross-thread) half of an executor: its identity and queue.
pub(crate) struct ExecutorShared {
    /// Table this executor serves.
    pub table: TableId,
    /// Index of this executor within the table's executor list.
    pub index: usize,
    queue: Mutex<VecDeque<Message>>,
    available: Condvar,
    /// Lock-free mirror of the inbox length, refreshed by whoever last held
    /// the queue mutex. Lets monitoring threads (the adaptive controller's
    /// sampler) read backlogs without contending with the hot path.
    depth: AtomicUsize,
    /// Number of actions served, read by the resource manager for load
    /// balancing.
    served: AtomicU64,
}

impl ExecutorShared {
    pub(crate) fn new(table: TableId, index: usize) -> Self {
        Self {
            table,
            index,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            depth: AtomicUsize::new(0),
            served: AtomicU64::new(0),
        }
    }

    /// Enqueues a single message and wakes the executor.
    pub(crate) fn enqueue(&self, message: Message) {
        self.lock_inbox().push(message);
        self.available.notify_one();
    }

    /// Latches the inbox for a batched push. Call [`Self::notify`] after the
    /// guard drops to wake the executor.
    pub(crate) fn lock_inbox(&self) -> InboxGuard<'_> {
        InboxGuard {
            depth: &self.depth,
            queue: self.queue.lock(),
        }
    }

    /// Wakes the executor after an external push through
    /// [`Self::lock_inbox`].
    pub(crate) fn notify(&self) {
        self.available.notify_one();
    }

    /// Drains the whole inbox into `batch` under a single lock acquisition,
    /// blocking while the inbox is empty. `batch` must be empty on entry; the
    /// buffers are *swapped*, so the batch's spare capacity becomes the new
    /// inbox allocation and the two buffers ping-pong between producer and
    /// consumer without ever reallocating in steady state.
    pub(crate) fn dequeue_batch(&self, batch: &mut VecDeque<Message>) {
        debug_assert!(batch.is_empty(), "drain target must start empty");
        let mut queue = self.queue.lock();
        while queue.is_empty() {
            self.available.wait(&mut queue);
        }
        std::mem::swap(&mut *queue, batch);
        self.depth.store(0, Ordering::Relaxed);
    }

    /// Number of actions this executor has served so far.
    pub(crate) fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Current queue depth (diagnostics / load sampling). Reads the atomic
    /// mirror — never the inbox mutex — so samplers cannot contend with the
    /// message hot path.
    pub(crate) fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }
}

/// An action parked on the local lock table, together with the wait edges
/// it registered in the global deadlock detector — so that resolving this
/// wait removes exactly these edges and no others (the same transaction may
/// be parked at other executors at the same time).
struct Parked {
    action: Action,
    waits_on: Vec<TxnId>,
}

/// The thread-private half of an executor.
pub(crate) struct ExecutorWorker {
    shared: Arc<ExecutorShared>,
    engine: Arc<EngineInner>,
    locks: LocalLockTable,
    /// Actions blocked on the local lock table, in arrival order.
    waiters: VecDeque<Parked>,
    /// Actions deferred while a dataset resize is draining.
    deferred: Vec<Action>,
    /// Barrier to signal once drained (while a resize is in progress).
    draining: Option<Arc<ResizeBarrier>>,
    /// Set after the drain barrier has been signalled but before
    /// `FinishResize` arrives.
    awaiting_rule: bool,
}

impl ExecutorWorker {
    pub(crate) fn new(shared: Arc<ExecutorShared>, engine: Arc<EngineInner>) -> Self {
        Self {
            shared,
            engine,
            locks: LocalLockTable::new(),
            waiters: VecDeque::new(),
            deferred: Vec::new(),
            draining: None,
            awaiting_rule: false,
        }
    }

    /// The executor main loop: drain a batch of messages under one inbox
    /// lock, then process it entirely thread-locally. Control messages
    /// (`StartResize`/`FinishResize`/`Shutdown`) keep their FIFO position
    /// relative to actions because the batch is processed in arrival order.
    pub(crate) fn run(mut self) {
        let mut batch = VecDeque::new();
        loop {
            self.shared.dequeue_batch(&mut batch);
            incr(CounterKind::InboxDrains);
            while let Some(message) = batch.pop_front() {
                match message {
                    Message::Shutdown => return,
                    Message::Action(action) => self.handle_incoming(action),
                    Message::Completed(txn) => self.handle_completed(txn),
                    Message::StartResize(barrier) => {
                        self.draining = Some(barrier);
                        self.awaiting_rule = false;
                        self.maybe_signal_drained();
                    }
                    Message::FinishResize => self.finish_resize(),
                }
            }
        }
    }

    fn handle_incoming(&mut self, action: Action) {
        // During a drain, actions of transactions this executor is not yet
        // involved with are deferred; transactions that already hold local
        // locks here must keep making progress or the drain would never
        // complete.
        if self.draining.is_some() && !self.locks.holds_any(action.txn.id()) {
            self.deferred.push(action);
            return;
        }
        self.handle_action(action);
    }

    fn handle_action(&mut self, action: Action) {
        self.shared.served.fetch_add(1, Ordering::Relaxed);
        incr(CounterKind::ActionsExecuted);
        if action.txn.is_aborted() {
            // The transaction was aborted by another action (e.g. invalid
            // input in TM1); executing this action would be wasted work, but
            // it must still report to its RVP.
            incr(CounterKind::WastedActions);
            self.finish_action(&action.txn, action.phase);
            return;
        }
        if action.elide_probe {
            // The bind-time conflict matrix proved this step's template
            // conflicts with nothing in the workload: no lock to take, no
            // waiter to become, nothing to release at completion — skip the
            // local lock table entirely and run. `note_involved` is also
            // skipped on purpose: involvement only drives the Completed
            // fan-out that releases local locks, and this action holds none.
            incr(CounterKind::LockProbesElided);
            self.execute(action);
            return;
        }
        match self
            .locks
            .acquire(action.txn.id(), &action.identifier, action.mode)
        {
            LocalAcquire::Granted => {
                action
                    .txn
                    .note_involved(self.shared.table, self.shared.index);
                self.execute(action);
            }
            LocalAcquire::Conflict(owners) => self.park(action, owners),
        }
    }

    /// Feeds the wait into the storage manager's deadlock detector
    /// (Section 4.2.3) and parks the action. If an edge closes a cycle the
    /// transaction is aborted instead: the edges registered so far are
    /// withdrawn and the action reports to its RVP without parking.
    fn park(&mut self, action: Action, owners: Vec<TxnId>) {
        let mut registered = Vec::with_capacity(owners.len());
        for owner in owners {
            match self
                .engine
                .db()
                .lock_manager()
                .add_external_wait(action.txn.id(), owner)
            {
                Ok(()) => registered.push(owner),
                Err(deadlock) => {
                    self.engine
                        .db()
                        .lock_manager()
                        .remove_external_waits(action.txn.id(), &registered);
                    action.txn.mark_aborted(deadlock);
                    incr(CounterKind::WastedActions);
                    self.finish_action(&action.txn, action.phase);
                    return;
                }
            }
        }
        self.waiters.push_back(Parked {
            action,
            waits_on: registered,
        });
    }

    /// Executes an action body under supervision: a panic — injected by the
    /// chaos plan or a genuine bug — aborts and quarantines the owning
    /// transaction (undo via its log chain, local locks released, its RVP
    /// still reported) instead of killing the executor thread. The executor
    /// returns to its inbox either way.
    fn execute(&mut self, mut action: Action) {
        let body = action.body.take().expect("action body executed once");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let faults = self.engine.db().faults();
            if faults.enabled() && faults.should_inject(FaultSite::ExecutorPanic) {
                incr(CounterKind::FaultsInjected);
                std::panic::panic_any(InjectedPanic);
            }
            let context = ActionContext {
                db: self.engine.db(),
                txn: &action.txn.handle,
                scratch: &action.txn.scratch,
            };
            body(&context)
        }));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(error)) => action.txn.mark_aborted(error),
            Err(_payload) => {
                incr(CounterKind::ExecutorPanicsRecovered);
                action.txn.mark_aborted(DbError::TxnAborted {
                    txn: action.txn.id(),
                    reason: "action panicked; quarantined by executor supervision".into(),
                });
            }
        }
        self.finish_action(&action.txn, action.phase);
    }

    /// Reports an action to its phase RVP and, if this report zeroed the RVP,
    /// initiates the next phase or the commit (Section 4.1.2).
    fn finish_action(&mut self, txn: &Arc<DoraTxnInner>, phase: usize) {
        self.engine.report_and_advance(txn, phase);
    }

    fn handle_completed(&mut self, txn: TxnId) {
        time_section(TimeCategory::EngineOverhead, || {
            self.locks.release_txn(txn);
            self.engine.db().lock_manager().remove_external_wait(txn);
        });
        self.retry_waiters();
        self.maybe_signal_drained();
    }

    /// Retries parked actions in FIFO order after a completion freed locks.
    /// Each retry first withdraws the wait edges the parked action had
    /// registered, then either runs the action or re-parks it against its
    /// *current* blockers — lock ownership may have changed while it waited,
    /// and stale edges (or missing fresh ones) would blind the deadlock
    /// detector.
    fn retry_waiters(&mut self) {
        let parked = std::mem::take(&mut self.waiters);
        for Parked { action, waits_on } in parked {
            self.engine
                .db()
                .lock_manager()
                .remove_external_waits(action.txn.id(), &waits_on);
            if action.txn.is_aborted() {
                incr(CounterKind::WastedActions);
                self.finish_action(&action.txn, action.phase);
                continue;
            }
            match self
                .locks
                .acquire(action.txn.id(), &action.identifier, action.mode)
            {
                LocalAcquire::Granted => {
                    action
                        .txn
                        .note_involved(self.shared.table, self.shared.index);
                    self.execute(action);
                }
                LocalAcquire::Conflict(owners) => self.park(action, owners),
            }
        }
    }

    fn maybe_signal_drained(&mut self) {
        if self.awaiting_rule {
            return;
        }
        if let Some(barrier) = &self.draining {
            if self.locks.is_empty() && self.waiters.is_empty() {
                barrier.signal();
                self.awaiting_rule = true;
            }
        }
    }

    /// The routing rule has been updated: push the deferred actions back
    /// through the engine (they may now belong to a different executor) and
    /// resume normal service.
    fn finish_resize(&mut self) {
        self.draining = None;
        self.awaiting_rule = false;
        let deferred = std::mem::take(&mut self.deferred);
        for action in deferred {
            self.engine.redispatch(action);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resize_barrier_blocks_until_signal() {
        let barrier = Arc::new(ResizeBarrier::new());
        let barrier2 = Arc::clone(&barrier);
        let waiter = std::thread::spawn(move || barrier2.wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!waiter.is_finished());
        barrier.signal();
        waiter.join().unwrap();
    }

    /// Drains `shared`'s inbox and returns the transaction ids of the
    /// `Completed` messages it held, in order.
    fn drain_completed(shared: &ExecutorShared) -> Vec<TxnId> {
        let mut batch = VecDeque::new();
        shared.dequeue_batch(&mut batch);
        batch
            .into_iter()
            .map(|message| match message {
                Message::Completed(txn) => txn,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn executor_shared_queue_is_fifo() {
        let shared = ExecutorShared::new(TableId(1), 0);
        shared.enqueue(Message::Completed(TxnId(1)));
        shared.enqueue(Message::Completed(TxnId(2)));
        assert_eq!(shared.queue_depth(), 2);
        assert_eq!(drain_completed(&shared), vec![TxnId(1), TxnId(2)]);
    }

    #[test]
    fn lock_inbox_then_notify_delivers_message() {
        let shared = Arc::new(ExecutorShared::new(TableId(1), 0));
        {
            let mut inbox = shared.lock_inbox();
            inbox.push(Message::Completed(TxnId(9)));
        }
        assert_eq!(shared.queue_depth(), 1, "guard drop must refresh depth");
        shared.notify();
        assert_eq!(drain_completed(&shared), vec![TxnId(9)]);
        assert_eq!(shared.queue_depth(), 0);
    }

    #[test]
    fn dequeue_batch_drains_everything_in_fifo_order() {
        let shared = ExecutorShared::new(TableId(1), 0);
        for id in 1..=5 {
            shared.enqueue(Message::Completed(TxnId(id)));
        }
        assert_eq!(shared.queue_depth(), 5);
        let drained = drain_completed(&shared);
        assert_eq!(shared.queue_depth(), 0);
        assert_eq!(drained, (1..=5).map(TxnId).collect::<Vec<_>>());
    }

    #[test]
    fn dequeue_batch_blocks_until_work_arrives() {
        let shared = Arc::new(ExecutorShared::new(TableId(1), 0));
        let shared2 = Arc::clone(&shared);
        let consumer = std::thread::spawn(move || {
            let mut batch = VecDeque::new();
            shared2.dequeue_batch(&mut batch);
            batch.len()
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!consumer.is_finished(), "must block on an empty inbox");
        shared.enqueue(Message::Completed(TxnId(1)));
        assert_eq!(consumer.join().unwrap(), 1);
    }
}
