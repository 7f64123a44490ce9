//! Transaction flow graphs.
//!
//! A transaction flow graph (Section 4.1.2) organizes a transaction's actions
//! into *phases* separated by rendezvous points (RVPs). Actions within a
//! phase may execute concurrently on different executors; an RVP is reached
//! only when every action of the phase has reported, and the executor that
//! zeroes the RVP initiates the next phase (or commits, at the terminal RVP).
//!
//! The TPC-C Payment graph of Figure 4, for example, has two phases:
//! `[R+U(Warehouse), R+U(District), R+U(Customer)] → RVP1 → [I(History)] →
//! RVP2 (terminal)`.

use crate::action::ActionSpec;

/// A declarative transaction flow graph: an ordered list of phases, each a
/// list of [`ActionSpec`]s. Workload code builds one per transaction
/// instance and hands it to [`crate::DoraEngine::execute`].
#[derive(Debug, Default)]
pub struct FlowGraph {
    phases: Vec<Vec<ActionSpec>>,
}

impl FlowGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new phase; subsequent [`push`](Self::push)es land in it.
    /// Phases left empty are dropped at instantiation, so an extra
    /// `begin_phase` is harmless rather than an error.
    pub fn begin_phase(&mut self) -> &mut Self {
        self.phases.push(Vec::new());
        self
    }

    /// Appends an action to the current (last-opened) phase, opening phase 0
    /// first if the graph is still empty. Never panics and never indexes by a
    /// caller-supplied phase number — together with
    /// [`begin_phase`](Self::begin_phase) and
    /// [`phase_with`](Self::phase_with) this is the whole construction
    /// surface ([`crate::PreparedProgram::flow_graph`] lowers programs
    /// through `phase_with`).
    pub fn push(&mut self, action: ActionSpec) -> &mut Self {
        if self.phases.is_empty() {
            self.phases.push(Vec::new());
        }
        self.phases
            .last_mut()
            .expect("just ensured a phase exists")
            .push(action);
        self
    }

    /// Chaining convenience: appends a phase containing exactly the given
    /// actions.
    pub fn phase_with(mut self, actions: Vec<ActionSpec>) -> Self {
        self.phases.push(actions);
        self
    }

    /// Inserts an empty rendezvous point after every action, fully
    /// serializing the graph: phase boundaries are exactly what the resource
    /// manager adds when it decides a transaction with a high abort rate
    /// should run serially (Appendix A.4, the DORA-S plan of Figure 11).
    pub fn serialized(self) -> Self {
        let mut serial = FlowGraph::new();
        for phase in self.phases {
            for action in phase {
                serial.phases.push(vec![action]);
            }
        }
        serial
    }

    /// Number of phases.
    pub fn phase_count(&self) -> usize {
        self.phases.len()
    }

    /// Number of actions in `phase`.
    pub fn actions_in(&self, phase: usize) -> usize {
        self.phases.get(phase).map(Vec::len).unwrap_or(0)
    }

    /// Total number of actions across all phases.
    pub fn action_count(&self) -> usize {
        self.phases.iter().map(Vec::len).sum()
    }

    /// `true` if the graph has no phases or only empty phases.
    pub fn is_empty(&self) -> bool {
        self.action_count() == 0
    }

    /// Human-readable structure of the graph: one vector per phase, one
    /// `"label(identifier)"` entry per action. Used by the harness to print
    /// Figure 4-style graph descriptions and by diagnostics.
    pub fn describe(&self) -> Vec<Vec<String>> {
        self.phases
            .iter()
            .map(|phase| {
                phase
                    .iter()
                    .map(|action| {
                        if action.is_secondary() {
                            format!("{}[secondary]", action.label)
                        } else if action.elide_probe {
                            format!("{}{}[probe-free]", action.label, action.identifier)
                        } else {
                            format!("{}{}", action.label, action.identifier)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Consumes the graph, returning its phases. Used by the engine when it
    /// instantiates the transaction.
    pub(crate) fn into_phases(self) -> Vec<Vec<ActionSpec>> {
        // Empty phases would deadlock the RVP counting; drop them defensively.
        self.phases.into_iter().filter(|p| !p.is_empty()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::LocalMode;
    use dora_common::prelude::*;

    fn action(label: &'static str, id: i64) -> ActionSpec {
        ActionSpec::new(
            label,
            TableId(0),
            Key::int(id),
            LocalMode::Exclusive,
            |_| Ok(()),
        )
    }

    #[test]
    fn payment_shaped_graph_has_two_phases() {
        // Mirrors Figure 4: three actions in phase one, the History insert in
        // phase two.
        let mut graph = FlowGraph::new();
        graph
            .push(action("warehouse", 1))
            .push(action("district", 1))
            .push(action("customer", 1));
        graph.begin_phase().push(action("history", 1));

        assert_eq!(graph.phase_count(), 2);
        assert_eq!(graph.actions_in(0), 3);
        assert_eq!(graph.actions_in(1), 1);
        assert_eq!(graph.action_count(), 4);
        assert!(!graph.is_empty());
    }

    #[test]
    fn serialized_graph_has_one_action_per_phase() {
        let graph = FlowGraph::new()
            .phase_with(vec![action("a", 1), action("b", 2)])
            .phase_with(vec![action("c", 3)]);
        let serial = graph.serialized();
        assert_eq!(serial.phase_count(), 3);
        assert!((0..3).all(|p| serial.actions_in(p) == 1));
    }

    #[test]
    fn empty_phases_are_dropped_on_instantiation() {
        let mut graph = FlowGraph::new();
        graph.begin_phase();
        graph.begin_phase().push(action("only", 1));
        graph.begin_phase();
        let phases = graph.into_phases();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].len(), 1);
    }

    #[test]
    fn push_on_an_empty_graph_opens_the_first_phase() {
        let mut graph = FlowGraph::new();
        graph.push(action("first", 1));
        assert_eq!(graph.phase_count(), 1);
        assert_eq!(graph.actions_in(0), 1);
    }
}
