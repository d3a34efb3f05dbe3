//! The exact maximum-clique search against a brute-force oracle on small
//! random graphs, and its clique numbers pinned on E11-style planted
//! instances.

use graphs::bitset::FixedBitSet;
use graphs::generators::{gnp, planted_near_clique};
use graphs::{exact, Graph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Largest clique by trying every subset (`n ≤ 20`).
fn brute_force_clique_number(g: &Graph) -> usize {
    let n = g.node_count();
    let adj: Vec<u32> = g.nodes().map(|v| g.neighbors(v).iter().map(|&u| 1 << u).sum()).collect();
    (0u32..1 << n)
        .filter(|&s| (0..n).all(|v| s & (1 << v) == 0 || s & !(1 << v) & !adj[v] == 0))
        .map(u32::count_ones)
        .max()
        .unwrap_or(0) as usize
}

fn is_clique(g: &Graph, set: &FixedBitSet) -> bool {
    set.iter().all(|u| set.iter().all(|v| u == v || g.has_edge(u, v)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matches_brute_force_on_small_gnp(params in (0usize..=14, 0usize..3, any::<u64>())) {
        let (n, p_idx, seed) = params;
        let p = [0.2, 0.5, 0.8][p_idx];
        let g = gnp(n, p, &mut StdRng::seed_from_u64(seed));
        let clique = exact::maximum_clique(&g);
        prop_assert!(is_clique(&g, &clique), "n={} p={} seed={}: {:?}", n, p, seed, clique);
        prop_assert_eq!(exact::clique_number(&g), brute_force_clique_number(&g));
    }
}

/// Clique numbers of `planted_near_clique(300, k, 0.0156, 0.04)` as found
/// by the Bron–Kerbosch enumeration this search replaced.
#[test]
fn planted_clique_numbers_are_pinned() {
    for (k, seed, omega) in
        [(80, 0xEB00, 56), (90, 0xEB00, 59), (90, 0xEB1F, 59), (90, 0xEB3E, 62), (90, 0xEB5D, 62)]
    {
        let g = planted_near_clique(300, k, 0.0156, 0.04, &mut StdRng::seed_from_u64(seed)).graph;
        let clique = exact::maximum_clique(&g);
        assert!(is_clique(&g, &clique), "k={k} seed={seed:#x}: not a clique");
        assert_eq!(clique.len(), omega, "k={k} seed={seed:#x}");
        assert_eq!(exact::maximum_clique(&g), clique, "k={k} seed={seed:#x}: not deterministic");
    }
}
