//! Criterion benches for the comparator algorithms: the §3 strawmen, the
//! centralized finders and the property tester.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphs::{exact, generators, peel, quasi};
use proptester::{CountingOracle, RhoCliqueTester, TesterParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn planted(n: usize, seed: u64) -> graphs::Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::planted_clique(n, (0.4 * n as f64) as usize, 0.08, &mut rng).graph
}

fn bench_shingles(c: &mut Criterion) {
    use baselines::shingles::{run_shingles, ShinglesConfig};
    let mut group = c.benchmark_group("baseline/shingles");
    group.sample_size(20);
    for &n in &[200usize, 800] {
        let g = planted(n, 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| run_shingles(&g, ShinglesConfig::default(), 3));
        });
    }
    group.finish();
}

fn bench_neighbors_neighbors(c: &mut Criterion) {
    use baselines::neighbors::run_neighbors_neighbors;
    let mut group = c.benchmark_group("baseline/neighbors_neighbors");
    group.sample_size(10);
    for &n in &[60usize, 120] {
        let g = planted(n, 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| run_neighbors_neighbors(&g, 3));
        });
    }
    group.finish();
}

fn bench_centralized(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline/centralized");
    group.sample_size(10);
    let g = planted(300, 3);
    group.bench_function("peel_300", |b| {
        b.iter(|| peel::densest_at_least_k(&g, 50));
    });
    group.bench_function("quasi_300", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(4);
            quasi::quasi_clique(&g, &quasi::QuasiCliqueConfig::default(), &mut rng)
        });
    });
    let small = planted(120, 5);
    group.bench_function("exact_120", |b| {
        b.iter(|| exact::maximum_clique(&small));
    });
    // E11's instance family, on its first graph seed.
    let e11 =
        generators::planted_near_clique(300, 100, 0.0156, 0.04, &mut StdRng::seed_from_u64(0xEB00))
            .graph;
    group.bench_function("exact_e11_300x100", |b| {
        b.iter(|| exact::maximum_clique(&e11));
    });
    group.finish();
}

fn bench_property_tester(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline/property_tester");
    group.sample_size(20);
    let g = planted(800, 6);
    let tester = RhoCliqueTester::new(TesterParams {
        rho: 0.4,
        epsilon: 0.25,
        sample_size: 8,
        eval_size: 60,
    });
    group.bench_function("ggr_test_800", |b| {
        b.iter(|| {
            let oracle = CountingOracle::new(&g);
            let mut rng = StdRng::seed_from_u64(7);
            tester.test(&oracle, &mut rng)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_shingles,
    bench_neighbors_neighbors,
    bench_centralized,
    bench_property_tester
);
criterion_main!(benches);
