//! Seeded input generation shared by the workloads.
//!
//! Every input is a pure function of the `--seed` argument: the graph
//! seed and the protocol seed are derived from it by `mix`, so the same
//! seed always yields the same graph, IDs and sample.

use graphs::generators::{planted_near_clique, Planted};
use graphs::{FixedBitSet, Graph};
use nearclique::{NearCliqueParams, SamplePlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64 finalizer over `seed + salt`: a derived, well-spread seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A planted near-clique instance: `k` of `n` nodes form an
/// `eps3`-near clique, every other pair is an edge with probability
/// `noise`.
#[derive(Clone, Copy, Debug)]
pub struct PlantedSpec {
    pub n: usize,
    pub k: usize,
    pub eps3: f64,
    pub noise: f64,
}

impl PlantedSpec {
    /// Generates the instance from `graph_seed`.
    pub fn generate(&self, graph_seed: u64) -> Planted {
        let mut rng = StdRng::seed_from_u64(graph_seed);
        planted_near_clique(self.n, self.k, self.eps3, self.noise, &mut rng)
    }
}

/// How many sampled nodes fall inside and outside the planted set, per
/// boosting version.
pub type SampleShape = (usize, usize);

/// A `DistNearClique` instance size: the planted graph, `E|S|`, and the
/// conditioned sample shape (see [`conditioned_seed`]).
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub spec: PlantedSpec,
    pub expected_sample: f64,
    pub shape: SampleShape,
}

/// The first protocol seed derived from `base` whose sampling stage has
/// exactly `shape` in every version: `shape.0` nodes inside the planted
/// set, forming one component of `G[S]`, and `shape.1` outside nodes,
/// each isolated in `G[S]`.
///
/// `DistNearClique`'s rounds and messages grow with `2^|S ∩ component|`
/// (Lemma 5.1), so an unconditioned sample makes one seed's run several
/// times costlier than the next. Conditioning fixes the work class of the
/// instance while the graph, the IDs and *which* nodes are sampled still
/// vary with the seed.
///
/// # Panics
///
/// Panics if no seed among the first million matches (the shape is then
/// implausible for `params`).
pub fn conditioned_seed(
    base: u64,
    params: &NearCliqueParams,
    planted: &Planted,
    shape: SampleShape,
) -> u64 {
    let n = planted.graph.node_count();
    (0..1_000_000u64)
        .map(|i| mix(base, i))
        .find(|&seed| {
            let plan = SamplePlan::draw(n, params.lambda, params.p, seed);
            (0..params.lambda).all(|v| has_shape(planted, &plan.sample(v).to_vec(), shape))
        })
        .expect("sample shape unreachable for these parameters")
}

fn has_shape(planted: &Planted, sample: &[usize], shape: SampleShape) -> bool {
    let g = &planted.graph;
    let (inside, outside): (Vec<usize>, Vec<usize>) =
        sample.iter().partition(|&&v| planted.dense_set.contains(v));
    if (inside.len(), outside.len()) != shape {
        return false;
    }
    let isolated = outside.iter().all(|&v| sample.iter().all(|&u| u == v || !g.has_edge(u, v)));
    // Grow one component from the first inside node over G[S ∩ D].
    let mut reached = inside.iter().take(1).copied().collect::<Vec<_>>();
    let mut i = 0;
    while i < reached.len() {
        let u = reached[i];
        for &v in &inside {
            if g.has_edge(u, v) && !reached.contains(&v) {
                reached.push(v);
            }
        }
        i += 1;
    }
    isolated && reached.len() == inside.len()
}

/// Share of `planted` inside `set` (0 for an empty planted set).
pub fn recall(planted: &FixedBitSet, set: Option<&FixedBitSet>) -> f64 {
    match set {
        Some(s) if !planted.is_empty() => {
            s.intersection_count(planted) as f64 / planted.len() as f64
        }
        _ => 0.0,
    }
}

/// Whether `set` is a clique of `g` that no outside node extends — a
/// necessary condition for a maximum clique, checkable in `O(n · |set|)`.
pub fn is_maximal_clique(g: &Graph, set: &FixedBitSet) -> bool {
    let members = set.to_vec();
    let clique = members
        .iter()
        .enumerate()
        .all(|(i, &u)| members[i + 1..].iter().all(|&v| g.has_edge(u, v)));
    let maximal = (0..g.node_count())
        .filter(|v| !set.contains(*v))
        .all(|v| members.iter().any(|&u| !g.has_edge(u, v)));
    clique && maximal && !members.is_empty()
}
