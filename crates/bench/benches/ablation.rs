//! Ablation benches for the implementation's main design choices.
//!
//! * **Step 4f exact vs estimated** (§5.3 remark): the paper suggests
//!   sampling neighbors to cut local work; we measure the wall-clock win
//!   of the estimator at several budgets (its accuracy is covered by unit
//!   tests in `nearclique::estimate`).
//! * **Component cap**: the safety valve trades coverage for state; its
//!   cost shows up as run time vs `max_component_size`.
//! * **Bit rows**: graphs can be built with or without adjacency bit
//!   rows; density kernels pay the difference.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphs::{density, generators, FixedBitSet, GraphBuilder};
use nearclique::{estimate, run_near_clique, NearCliqueParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_step4f(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/step4f");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(1);
    let p = generators::planted_near_clique(600, 300, 0.0156, 0.05, &mut rng);
    let x = FixedBitSet::from_iter_with_capacity(600, p.dense_set.iter().take(5));

    group.bench_function("exact", |b| {
        b.iter(|| density::t_eps(&p.graph, &x, 0.25));
    });
    for &budget in &[10usize, 40] {
        group.bench_with_input(BenchmarkId::new("estimated", budget), &budget, |b, &budget| {
            b.iter(|| {
                let mut r = StdRng::seed_from_u64(2);
                estimate::t_eps_estimated(&p.graph, &x, 0.25, budget, &mut r)
            });
        });
    }
    group.finish();
}

fn bench_component_cap(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/component_cap");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(3);
    let p = generators::planted_near_clique(400, 200, 0.0156, 0.02, &mut rng);
    for &cap in &[8u32, 12, 16] {
        let params = NearCliqueParams::for_expected_sample(0.25, 9.0, 400)
            .unwrap()
            .with_max_component_size(cap);
        group.bench_with_input(BenchmarkId::from_parameter(cap), &cap, |b, _| {
            b.iter(|| run_near_clique(&p.graph, &params, 5));
        });
    }
    group.finish();
}

fn bench_bit_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/bit_rows");
    let n = 1200;
    let mut rng = StdRng::seed_from_u64(4);
    let base = generators::gnp(n, 0.05, &mut rng);
    let mut with_rows = GraphBuilder::new(n);
    let mut without_rows = GraphBuilder::new(n);
    with_rows.bitset_rows(true);
    without_rows.bitset_rows(false);
    for (u, v) in base.edges() {
        with_rows.add_edge(u, v);
        without_rows.add_edge(u, v);
    }
    let gw = with_rows.build();
    let go = without_rows.build();
    let set = FixedBitSet::from_iter_with_capacity(n, (0..n).step_by(3));

    group.bench_function("density_with_rows", |b| {
        b.iter(|| density::density(&gw, &set));
    });
    group.bench_function("density_without_rows", |b| {
        b.iter(|| density::density(&go, &set));
    });
    group.finish();
}

criterion_group!(benches, bench_step4f, bench_component_cap, bench_bit_rows);
criterion_main!(benches);
