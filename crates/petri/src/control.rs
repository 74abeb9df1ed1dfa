//! Petri nets with control-states (Section 7 of the paper).
//!
//! A Petri net with control-states is a triple `(S, T, E)` where `S` is a
//! finite set of control-states, `T` a Petri net and `E ⊆ S × T × S` a set of
//! edges. In the Section 8 pipeline the control-states are the configurations
//! of the `T|_Q`-component of a bottom configuration, and an edge `(s, t, s')`
//! exists when `s --t|_Q--> s'`.

use crate::{ExplorationLimits, PetriNet};
use pp_multiset::{Multiset, SignedVec};
use std::collections::{BTreeSet, VecDeque};

/// An edge `(s, t, s')` of a Petri net with control-states, stored by indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Index of the source control-state in [`ControlNet::control_states`].
    pub from: usize,
    /// Index of the transition in the underlying Petri net.
    pub transition: usize,
    /// Index of the target control-state.
    pub to: usize,
}

/// A Petri net with control-states `(S, T, E)`.
///
/// The structure remembers the full (unrestricted) Petri net `T`, the
/// restriction set `Q` and the control-states as `Q`-configurations, which is
/// exactly the data needed by the Section 8 analysis: edges are labelled by
/// transitions of the *full* net, whose displacements on the places outside
/// `Q` drive the multicycle arguments of Lemma 7.3.
///
/// # Examples
///
/// ```
/// use pp_multiset::Multiset;
/// use pp_petri::control::ControlNet;
/// use pp_petri::{ExplorationLimits, PetriNet, Transition};
/// use std::collections::BTreeSet;
///
/// // A net whose restriction to {a, b} flips one agent between a and b.
/// let net = PetriNet::from_transitions([
///     Transition::new(Multiset::unit("a"), Multiset::unit("b")),
///     Transition::new(Multiset::unit("b"), Multiset::unit("a")),
/// ]);
/// let q: BTreeSet<&str> = ["a", "b"].into_iter().collect();
/// let control = ControlNet::from_component(
///     &net,
///     &q,
///     &Multiset::unit("a"),
///     &ExplorationLimits::default(),
/// ).unwrap();
/// assert_eq!(control.num_control_states(), 2);
/// assert!(control.is_strongly_connected());
/// ```
#[derive(Debug, Clone)]
pub struct ControlNet<P: Ord> {
    net: PetriNet<P>,
    restriction: BTreeSet<P>,
    control_states: Vec<Multiset<P>>,
    edges: Vec<Edge>,
    outgoing: Vec<Vec<usize>>,
}

impl<P: Clone + Ord> ControlNet<P> {
    /// Builds the control-state net whose control-states are the
    /// `T|_Q`-component of `base` (which must be given restricted to `Q`, or
    /// is restricted internally), with one edge per control-state and
    /// transition whose restriction maps it inside the component.
    ///
    /// Returns `None` when the component cannot be computed exactly within
    /// `limits`.
    #[must_use]
    pub fn from_component(
        net: &PetriNet<P>,
        q_places: &BTreeSet<P>,
        base: &Multiset<P>,
        limits: &ExplorationLimits,
    ) -> Option<Self> {
        let restricted_net = net.restrict(q_places);
        let base_q = base.restrict(q_places);
        let component = crate::component::component_of(&restricted_net, &base_q, limits)?;
        let control_states: Vec<Multiset<P>> = component;
        let index = |config: &Multiset<P>| control_states.iter().position(|c| c == config);
        let mut edges = Vec::new();
        for (from, state) in control_states.iter().enumerate() {
            for (t_index, t) in net.transitions().iter().enumerate() {
                let restricted = t.restrict(q_places);
                if let Some(next) = restricted.fire(state) {
                    if let Some(to) = index(&next) {
                        edges.push(Edge {
                            from,
                            transition: t_index,
                            to,
                        });
                    }
                }
            }
        }
        let mut outgoing = vec![Vec::new(); control_states.len()];
        for (e_index, edge) in edges.iter().enumerate() {
            outgoing[edge.from].push(e_index);
        }
        Some(ControlNet {
            net: net.clone(),
            restriction: q_places.clone(),
            control_states,
            edges,
            outgoing,
        })
    }

    /// The underlying (unrestricted) Petri net `T`.
    #[must_use]
    pub fn net(&self) -> &PetriNet<P> {
        &self.net
    }

    /// The restriction set `Q`.
    #[must_use]
    pub fn restriction(&self) -> &BTreeSet<P> {
        &self.restriction
    }

    /// The control-states `S` (as `Q`-configurations).
    #[must_use]
    pub fn control_states(&self) -> &[Multiset<P>] {
        &self.control_states
    }

    /// Number of control-states `|S|`.
    #[must_use]
    pub fn num_control_states(&self) -> usize {
        self.control_states.len()
    }

    /// The edges `E`.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of edges `|E|`.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Index of the control-state equal to `config` (restricted to `Q`).
    #[must_use]
    pub fn control_state_index(&self, config: &Multiset<P>) -> Option<usize> {
        let restricted = config.restrict(&self.restriction);
        self.control_states.iter().position(|c| *c == restricted)
    }

    /// Outgoing edge indices of a control-state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    #[must_use]
    pub fn outgoing(&self, state: usize) -> &[usize] {
        &self.outgoing[state]
    }

    /// Returns `true` if every control-state can reach every other one.
    #[must_use]
    pub fn is_strongly_connected(&self) -> bool {
        if self.control_states.is_empty() {
            return false;
        }
        let forward = self.reachable_states(0, false);
        let backward = self.reachable_states(0, true);
        forward.len() == self.control_states.len() && backward.len() == self.control_states.len()
    }

    fn reachable_states(&self, from: usize, reversed: bool) -> BTreeSet<usize> {
        let mut seen = BTreeSet::from([from]);
        let mut queue = VecDeque::from([from]);
        while let Some(s) = queue.pop_front() {
            for edge in &self.edges {
                let (src, dst) = if reversed {
                    (edge.to, edge.from)
                } else {
                    (edge.from, edge.to)
                };
                if src == s && seen.insert(dst) {
                    queue.push_back(dst);
                }
            }
        }
        seen
    }

    /// A shortest path (sequence of edge indices) from control-state `from` to
    /// control-state `to`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` are out of bounds.
    #[must_use]
    pub fn shortest_path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        assert!(from < self.control_states.len() && to < self.control_states.len());
        if from == to {
            return Some(Vec::new());
        }
        let mut parents: Vec<Option<(usize, usize)>> = vec![None; self.control_states.len()];
        let mut seen = BTreeSet::from([from]);
        let mut queue = VecDeque::from([from]);
        while let Some(s) = queue.pop_front() {
            for &e_index in &self.outgoing[s] {
                let edge = self.edges[e_index];
                if seen.insert(edge.to) {
                    parents[edge.to] = Some((s, e_index));
                    if edge.to == to {
                        let mut path = Vec::new();
                        let mut cur = to;
                        while cur != from {
                            let (parent, via) = parents[cur].expect("parent recorded");
                            path.push(via);
                            cur = parent;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(edge.to);
                }
            }
        }
        None
    }

    /// Checks that a sequence of edge indices is a path, and returns its
    /// endpoints `(first source, last target)`.
    #[must_use]
    pub fn path_endpoints(&self, path: &[usize]) -> Option<(usize, usize)> {
        let first = self.edges.get(*path.first()?)?;
        let mut current = first.from;
        for &e_index in path {
            let edge = self.edges.get(e_index)?;
            if edge.from != current {
                return None;
            }
            current = edge.to;
        }
        Some((first.from, current))
    }

    /// Returns `true` if `path` is a cycle (a non-empty path returning to its
    /// source).
    #[must_use]
    pub fn is_cycle(&self, path: &[usize]) -> bool {
        matches!(self.path_endpoints(path), Some((s, e)) if s == e)
    }

    /// The Parikh image of a sequence of edge indices (count per edge index).
    #[must_use]
    pub fn parikh(&self, path: &[usize]) -> Vec<u64> {
        let mut counts = vec![0u64; self.edges.len()];
        for &e in path {
            counts[e] += 1;
        }
        counts
    }

    /// The displacement `Δ(π)` of a sequence of edges: the sum of the
    /// displacements of the *full* (unrestricted) transitions along it.
    #[must_use]
    pub fn displacement(&self, path: &[usize]) -> SignedVec<P> {
        let mut total = SignedVec::new();
        for &e in path {
            let t = self.net.transition(self.edges[e].transition);
            total += &t.displacement();
        }
        total
    }

    /// The displacement of a Parikh image (a multicycle given by edge counts).
    #[must_use]
    pub fn displacement_of_parikh(&self, parikh: &[u64]) -> SignedVec<P> {
        let mut total = SignedVec::new();
        for (e, &count) in parikh.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let t = self.net.transition(self.edges[e].transition);
            total += &(&t.displacement() * i64::try_from(count).expect("count fits i64"));
        }
        total
    }

    /// Lemma 7.2: a *total* cycle (passing through every edge at least once)
    /// of length at most `|E|·|S|`, anchored at control-state `anchor`.
    ///
    /// Returns `None` if the control net is not strongly connected (or has no
    /// edge), in which case no total cycle exists.
    #[must_use]
    pub fn total_cycle(&self, anchor: usize) -> Option<Vec<usize>> {
        if self.edges.is_empty() || !self.is_strongly_connected() {
            return None;
        }
        // For every edge, a cycle through it: edge followed by a shortest path
        // back to its source. Summing the Parikh images of all those cycles
        // yields a total multicycle; the Euler lemma turns it into one cycle.
        let mut parikh = vec![0u64; self.edges.len()];
        for (e_index, edge) in self.edges.iter().enumerate() {
            parikh[e_index] += 1;
            let back = self.shortest_path(edge.to, edge.from)?;
            for b in back {
                parikh[b] += 1;
            }
        }
        let cycle = crate::euler::cycle_from_parikh(self, &parikh, anchor)?;
        debug_assert!(self.is_cycle(&cycle) || cycle.is_empty());
        Some(cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transition;

    fn ms(pairs: &[(&'static str, u64)]) -> Multiset<&'static str> {
        Multiset::from_pairs(pairs.iter().copied())
    }

    /// Example 4.2 net of the paper.
    fn example_4_2_net() -> PetriNet<&'static str> {
        PetriNet::from_transitions([
            Transition::pairwise("i", "i_bar", "p", "q"),
            Transition::pairwise("p_bar", "i", "p", "i"),
            Transition::pairwise("p", "i_bar", "p_bar", "i_bar"),
            Transition::pairwise("q_bar", "i", "q", "i"),
            Transition::pairwise("q", "i_bar", "q_bar", "i_bar"),
            Transition::pairwise("p", "q_bar", "p", "q"),
            Transition::pairwise("q", "p_bar", "q", "p"),
        ])
    }

    #[test]
    fn swap_component_is_strongly_connected() {
        let net = PetriNet::from_transitions([
            Transition::new(ms(&[("a", 1)]), ms(&[("b", 1)])),
            Transition::new(ms(&[("b", 1)]), ms(&[("a", 1)])),
        ]);
        let q: BTreeSet<&str> = ["a", "b"].into_iter().collect();
        let control =
            ControlNet::from_component(&net, &q, &ms(&[("a", 1)]), &ExplorationLimits::default())
                .unwrap();
        assert_eq!(control.num_control_states(), 2);
        assert_eq!(control.num_edges(), 2);
        assert!(control.is_strongly_connected());
        let a_index = control.control_state_index(&ms(&[("a", 1)])).unwrap();
        let b_index = control.control_state_index(&ms(&[("b", 1)])).unwrap();
        let path = control.shortest_path(a_index, b_index).unwrap();
        assert_eq!(path.len(), 1);
        assert_eq!(control.path_endpoints(&path), Some((a_index, b_index)));
        assert!(!control.is_cycle(&path));
    }

    #[test]
    fn total_cycle_visits_every_edge_within_the_lemma_7_2_bound() {
        let net = PetriNet::from_transitions([
            Transition::new(ms(&[("a", 1)]), ms(&[("b", 1)])),
            Transition::new(ms(&[("b", 1)]), ms(&[("c", 1)])),
            Transition::new(ms(&[("c", 1)]), ms(&[("a", 1)])),
            Transition::new(ms(&[("b", 1)]), ms(&[("a", 1)])),
        ]);
        let q: BTreeSet<&str> = ["a", "b", "c"].into_iter().collect();
        let control =
            ControlNet::from_component(&net, &q, &ms(&[("a", 1)]), &ExplorationLimits::default())
                .unwrap();
        assert_eq!(control.num_control_states(), 3);
        assert_eq!(control.num_edges(), 4);
        let anchor = control.control_state_index(&ms(&[("a", 1)])).unwrap();
        let cycle = control.total_cycle(anchor).unwrap();
        assert!(control.is_cycle(&cycle));
        let parikh = control.parikh(&cycle);
        assert!(parikh.iter().all(|&c| c > 0), "cycle must be total");
        assert!(cycle.len() as u64 <= (control.num_edges() * control.num_control_states()) as u64);
        // The cycle starts and ends at the anchor.
        assert_eq!(control.path_endpoints(&cycle), Some((anchor, anchor)));
    }

    #[test]
    fn total_cycle_requires_strong_connectivity() {
        // a -> b with no way back: restricted component of {a} is {a} alone
        // (b is not mutually reachable), so the control net has no edge.
        let net = PetriNet::from_transitions([Transition::new(ms(&[("a", 1)]), ms(&[("b", 1)]))]);
        let q: BTreeSet<&str> = ["a", "b"].into_iter().collect();
        let control =
            ControlNet::from_component(&net, &q, &ms(&[("a", 1)]), &ExplorationLimits::default())
                .unwrap();
        assert_eq!(control.num_control_states(), 1);
        assert_eq!(control.num_edges(), 0);
        assert!(control.total_cycle(0).is_none());
    }

    #[test]
    fn displacement_tracks_unrestricted_places() {
        // Restricting to {a} hides the b-production, but the control net's
        // displacement must still see it (that is the point of Section 7).
        let net = PetriNet::from_transitions([Transition::new(
            ms(&[("a", 1)]),
            ms(&[("a", 1), ("b", 1)]),
        )]);
        let q: BTreeSet<&str> = ["a"].into_iter().collect();
        let control =
            ControlNet::from_component(&net, &q, &ms(&[("a", 1)]), &ExplorationLimits::default())
                .unwrap();
        assert_eq!(control.num_control_states(), 1);
        assert_eq!(control.num_edges(), 1);
        let cycle = control.total_cycle(0).unwrap();
        assert_eq!(control.displacement(&cycle).get(&"b"), 1);
        assert_eq!(control.displacement(&cycle).get(&"a"), 0);
        assert_eq!(control.displacement_of_parikh(&[3]).get(&"b"), 3);
    }

    #[test]
    fn example_4_2_leader_component_is_a_singleton() {
        // From the leaders-only configuration n·ī restricted to P' = P \ {i},
        // no transition of T|P' is enabled that leaves the component... in
        // fact t|P' = (ī -> p + q) IS enabled, so the component of n·ī is just
        // {n·ī} (firing t|P' leaves it for good).
        let net = example_4_2_net();
        let q: BTreeSet<&str> = ["i_bar", "p", "p_bar", "q", "q_bar"].into_iter().collect();
        let control = ControlNet::from_component(
            &net,
            &q,
            &ms(&[("i_bar", 2)]),
            &ExplorationLimits::default(),
        )
        .unwrap();
        assert_eq!(control.num_control_states(), 1);
        // Self-loop edges may exist only if some restricted transition maps
        // 2·ī to itself; none does.
        assert_eq!(control.num_edges(), 0);
    }
}
