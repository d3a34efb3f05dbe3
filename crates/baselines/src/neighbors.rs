//! The "neighbors' neighbors" algorithm of §3, in the LOCAL model.
//!
//! Each node tells all its neighbors about all its neighbors; after one
//! round every node knows the topology to distance 2 and computes the
//! largest clique it belongs to (exactly — by [`graphs::exact`] over its
//! closed neighborhood). Overlapping proposals are resolved in favor of
//! the larger clique, ties toward the smaller minimum member ID.
//!
//! The paper *rejects* this algorithm for two reasons this module makes
//! measurable:
//!
//! * **communication** — the round-1 message carries a whole neighbor
//!   list, `Θ(Δ log n)` bits (LOCAL, not CONGEST); the metered
//!   `max_message_bits` shows the blow-up in experiment E10, and
//! * **computation** — each node solves maximum clique on its
//!   neighborhood, which is NP-hard; the exponential local work limits
//!   runs to small `n` (also the point).

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use congest::{
    Context, Message, Metrics, Mode, Port, Protocol, Session, Termination, ID_BITS, TAG_BITS,
};
use graphs::{exact, FixedBitSet, Graph, GraphBuilder};

/// Messages of the neighbors'-neighbors algorithm. `NeighborList` and
/// `Proposal` carry entire ID lists — this is what makes the algorithm
/// LOCAL-only, and the meter shows it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NnMsg {
    /// Round 1: my full neighbor list.
    NeighborList(Vec<u64>),
    /// Round 2: the largest clique I belong to (member IDs).
    Proposal(Vec<u64>),
    /// Round 3: I reject your proposal (I belong to a better one).
    Abort,
    /// Round 4: my proposal survived; members adopt `leader` as label.
    Confirm {
        /// The proposing node (the label).
        leader: u64,
    },
}

impl Message for NnMsg {
    fn bit_size(&self) -> usize {
        let payload = match self {
            NnMsg::NeighborList(ids) | NnMsg::Proposal(ids) => ids.len() * ID_BITS,
            NnMsg::Abort => 1,
            NnMsg::Confirm { .. } => ID_BITS,
        };
        TAG_BITS + payload
    }
}

/// Per-node state.
#[derive(Debug)]
pub struct NeighborsNeighbors {
    phase: u8,
    /// Edges among my neighbors, learned in round 1.
    neighbor_adjacency: BTreeMap<u64, BTreeSet<u64>>,
    my_clique: Vec<u64>,
    /// Proposals I belong to: `(size, leader, port or MAX for self)`.
    my_proposals: Vec<(usize, u64, Port)>,
    aborted: bool,
    output: Option<u64>,
}

impl NeighborsNeighbors {
    /// Creates the per-node state.
    #[must_use]
    pub fn new() -> Self {
        Self {
            phase: 0,
            neighbor_adjacency: BTreeMap::new(),
            my_clique: Vec::new(),
            my_proposals: Vec::new(),
            aborted: false,
            output: None,
        }
    }

    /// Largest clique containing me within my closed neighborhood, as IDs.
    fn best_local_clique(&self, ctx: &Context<'_, NnMsg>) -> Vec<u64> {
        let mut ids: Vec<u64> = vec![ctx.id()];
        ids.extend((0..ctx.degree()).map(|p| ctx.neighbor_id(p)));
        ids.sort_unstable();
        ids.dedup();
        let index_of: BTreeMap<u64, usize> =
            ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let mut b = GraphBuilder::new(ids.len());
        let me = index_of[&ctx.id()];
        for p in 0..ctx.degree() {
            b.add_edge(me, index_of[&ctx.neighbor_id(p)]);
        }
        for (u, adj) in &self.neighbor_adjacency {
            for v in adj {
                if let (Some(&iu), Some(&iv)) = (index_of.get(u), index_of.get(v)) {
                    if iu != iv {
                        b.add_edge(iu, iv);
                    }
                }
            }
        }
        let local = b.build();
        // Restrict to cliques containing me: run the exact search on my
        // neighborhood subgraph plus me. Simplest exact approach: take the
        // max clique of the subgraph induced on my closed neighborhood that
        // contains me — equivalently max clique of G[Γ(me)] plus me.
        let neighborhood: Vec<usize> =
            (0..ctx.degree()).map(|p| index_of[&ctx.neighbor_id(p)]).collect();
        let set = FixedBitSet::from_iter_with_capacity(ids.len(), neighborhood);
        let (sub, mapping) = local.induced_subgraph(&set);
        let clique = exact::maximum_clique(&sub);
        let mut result: Vec<u64> = clique.iter().map(|i| ids[mapping[i]]).collect();
        result.push(ctx.id());
        result.sort_unstable();
        result
    }
}

impl Default for NeighborsNeighbors {
    fn default() -> Self {
        Self::new()
    }
}

/// Proposal ordering: larger size wins; ties toward smaller minimum ID.
fn proposal_beats(a: (usize, u64), b: (usize, u64)) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

impl Protocol for NeighborsNeighbors {
    type Msg = NnMsg;
    type Output = Option<u64>;

    fn init(&mut self, ctx: &mut Context<'_, NnMsg>) {
        let list: Vec<u64> = (0..ctx.degree()).map(|p| ctx.neighbor_id(p)).collect();
        ctx.broadcast(NnMsg::NeighborList(list));
    }

    fn step(&mut self, ctx: &mut Context<'_, NnMsg>, inbox: &[(Port, NnMsg)]) {
        self.phase += 1;
        match self.phase {
            1 => {
                for (port, msg) in inbox {
                    match msg {
                        NnMsg::NeighborList(ids) => {
                            let u = ctx.neighbor_id(*port);
                            self.neighbor_adjacency.insert(u, ids.iter().copied().collect());
                        }
                        other => panic!("unexpected in NN round 1: {other:?}"),
                    }
                }
                self.my_clique = self.best_local_clique(ctx);
                self.my_proposals.push((self.my_clique.len(), ctx.id(), usize::MAX));
                ctx.broadcast(NnMsg::Proposal(self.my_clique.clone()));
            }
            2 => {
                for (port, msg) in inbox {
                    match msg {
                        NnMsg::Proposal(ids) => {
                            if ids.binary_search(&ctx.id()).is_ok() {
                                self.my_proposals.push((ids.len(), ctx.neighbor_id(*port), *port));
                            }
                        }
                        other => panic!("unexpected in NN round 2: {other:?}"),
                    }
                }
                // Vote: keep the best proposal I belong to, abort the rest.
                let min_id = |leader: u64| {
                    // Tie-break key: the proposing clique's min member is
                    // approximated by its leader ID — proposals are cliques
                    // containing the leader, and the paper leaves the exact
                    // tie-break open ("say, the smallest ID").
                    leader
                };
                let &(bs, bl, _) = self
                    .my_proposals
                    .iter()
                    .max_by(|&&(s1, l1, _), &&(s2, l2, _)| {
                        if proposal_beats((s1, min_id(l1)), (s2, min_id(l2))) {
                            std::cmp::Ordering::Greater
                        } else if proposal_beats((s2, min_id(l2)), (s1, min_id(l1))) {
                            std::cmp::Ordering::Less
                        } else {
                            std::cmp::Ordering::Equal
                        }
                    })
                    .expect("own proposal always present");
                for &(size, leader, port) in &self.my_proposals.clone() {
                    if (size, leader) != (bs, bl) && port != usize::MAX {
                        ctx.send(port, NnMsg::Abort);
                    }
                }
                if (bs, bl) != (self.my_clique.len(), ctx.id()) {
                    self.aborted = true; // my own proposal lost at my seat
                }
            }
            3 => {
                for (_port, msg) in inbox {
                    match msg {
                        NnMsg::Abort => self.aborted = true,
                        other => panic!("unexpected in NN round 3: {other:?}"),
                    }
                }
                if !self.aborted {
                    self.output = Some(ctx.id());
                    ctx.broadcast(NnMsg::Confirm { leader: ctx.id() });
                }
            }
            4 => {
                for (_port, msg) in inbox {
                    match msg {
                        NnMsg::Confirm { leader } => {
                            if self.my_proposals.iter().any(|&(_, l, _)| l == *leader)
                                && self.output.is_none()
                            {
                                self.output = Some(*leader);
                            }
                        }
                        other => panic!("unexpected in NN round 4: {other:?}"),
                    }
                }
            }
            _ => debug_assert!(inbox.is_empty(), "NN is a 4-round protocol"),
        }
    }

    fn is_idle(&self) -> bool {
        // The protocol is a fixed 4-round script; stay non-idle until it
        // has played out so isolated nodes also reach their verdicts.
        self.phase >= 4
    }

    fn output(&self) -> Option<u64> {
        self.output
    }
}

/// Result of one neighbors'-neighbors run.
#[derive(Clone, Debug)]
pub struct NeighborsRun {
    /// Per-node labels.
    pub labels: Vec<Option<u64>>,
    /// Metrics — note `max_message_bits` scales with Δ.
    pub metrics: Metrics,
}

impl NeighborsRun {
    /// The largest confirmed clique, if any.
    #[must_use]
    pub fn largest_set(&self) -> Option<FixedBitSet> {
        let n = self.labels.len();
        let mut by_label: BTreeMap<u64, FixedBitSet> = BTreeMap::new();
        for (v, l) in self.labels.iter().enumerate() {
            if let Some(label) = l {
                by_label.entry(*label).or_insert_with(|| FixedBitSet::new(n)).insert(v);
            }
        }
        by_label.into_values().max_by_key(FixedBitSet::len)
    }
}

/// Runs the neighbors'-neighbors algorithm (LOCAL model).
///
/// Local computation is exponential in the neighborhood size; keep `n`
/// small (the experiments use `n ≤ 150`).
#[must_use]
pub fn run_neighbors_neighbors(g: &Graph, seed: u64) -> NeighborsRun {
    let (labels, report) =
        Session::on(g).seed(seed).mode(Mode::Local).run_with(|_| NeighborsNeighbors::new());
    debug_assert_eq!(report.termination, Termination::Quiescent);
    NeighborsRun { labels, metrics: report.metrics }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_the_exact_clique_in_clique_plus_fringe() {
        let mut b = GraphBuilder::new(12);
        b.add_clique(&(0..8).collect::<Vec<_>>());
        b.add_edge(8, 9).add_edge(10, 11).add_edge(0, 8);
        let g = b.build();
        let run = run_neighbors_neighbors(&g, 3);
        let set = run.largest_set().expect("clique found");
        assert_eq!(set.len(), 8);
        assert_eq!(set.to_vec(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn message_width_scales_with_degree() {
        let small = Graph::complete(6);
        let big = Graph::complete(24);
        let rs = run_neighbors_neighbors(&small, 1);
        let rb = run_neighbors_neighbors(&big, 1);
        assert!(
            rb.metrics.max_message_bits > 3 * rs.metrics.max_message_bits,
            "width must grow with Δ: {} vs {}",
            rb.metrics.max_message_bits,
            rs.metrics.max_message_bits
        );
    }

    #[test]
    fn constant_round_count() {
        let g = Graph::complete(10);
        let run = run_neighbors_neighbors(&g, 2);
        assert!(run.metrics.rounds <= 6);
    }

    #[test]
    fn disjoint_cliques_both_confirmed() {
        let mut b = GraphBuilder::new(14);
        b.add_clique(&(0..7).collect::<Vec<_>>());
        b.add_clique(&(7..14).collect::<Vec<_>>());
        let g = b.build();
        let run = run_neighbors_neighbors(&g, 5);
        let labeled = run.labels.iter().filter(|l| l.is_some()).count();
        assert_eq!(labeled, 14, "both cliques fully labeled");
        assert_ne!(run.labels[0], run.labels[7]);
    }

    #[test]
    fn triangle_with_pendant() {
        let mut b = GraphBuilder::new(4);
        b.add_clique(&[0, 1, 2]).add_edge(2, 3);
        let run = run_neighbors_neighbors(&b.build(), 7);
        let set = run.largest_set().unwrap();
        assert_eq!(set.to_vec(), vec![0, 1, 2]);
    }
}
