//! `exact_oracle`: experiment E11's six near-clique finders on one
//! planted instance. `graphs::exact` (the maximum-clique ground truth)
//! and the centralized `baselines` run nowhere else in the benchmark.
//!
//! The exact finder's cost swings several-fold from one planted graph to
//! the next, and the distributed finder's rounds swing with its sample,
//! so both are fixed (the seeds are recorded below): every seed measures
//! the same instance. `--seed` reseeds only the randomized comparators
//! (shingles labels, quasi-clique restarts), whose costs stay flat.

use baselines::{
    ExactFinder, KCoreFinder, NearCliqueFinder, PeelFinder, QuasiFinder, ShinglesConfig,
    ShinglesFinder,
};
use graphs::generators::Planted;
use graphs::quasi::QuasiCliqueConfig;
use nearclique::{run_near_clique, NearCliqueParams};

use crate::inputs::{is_maximal_clique, mix, recall, PlantedSpec};
use crate::nc;
use crate::report::{Rep, Sim};
use crate::trace::Spans;
use crate::Workload;

/// The fixed graph seed: E11's base seed for its planted instance.
pub const GRAPH_SEED: u64 = 0xEB00;
/// The fixed protocol seed of the distributed finder: E11's first trial.
pub const DIST_SEED: u64 = 7;

/// Instance size; the distributed finder uses E11's parameters.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub spec: PlantedSpec,
    pub expected_sample: f64,
}

pub const FULL: Size =
    Size { spec: PlantedSpec { n: 300, k: 80, eps3: 0.0156, noise: 0.04 }, expected_sample: 8.0 };
pub const TOY: Size =
    Size { spec: PlantedSpec { n: 80, k: 25, eps3: 0.0156, noise: 0.05 }, expected_sample: 4.0 };

pub struct ExactOracle {
    size: Size,
    params: NearCliqueParams,
    finder_seed: u64,
    corrupt: bool,
    finders: Vec<Box<dyn NearCliqueFinder>>,
}

impl ExactOracle {
    pub fn new(seed: u64, size: Size, corrupt: bool) -> Self {
        let n = size.spec.n;
        let params = NearCliqueParams::for_expected_sample(0.25, size.expected_sample, n)
            .expect("valid near-clique parameters")
            .with_lambda(2)
            .with_min_candidate_size(5);
        // E11's comparators, in its table order; the distributed finder
        // runs first, outside this list, so its metrics can be read.
        let finders: Vec<Box<dyn NearCliqueFinder>> = vec![
            Box::new(ShinglesFinder { config: ShinglesConfig { min_size: 5, min_density: 0.7 } }),
            Box::new(PeelFinder { min_size: 50.min(n / 2) }),
            Box::new(QuasiFinder {
                config: QuasiCliqueConfig { gamma: 0.85, restarts: 6, rcl_width: 3 },
            }),
            Box::new(KCoreFinder),
            Box::new(ExactFinder),
        ];
        Self { size, params, finder_seed: mix(seed, 0xE11F), corrupt, finders }
    }
}

impl Workload for ExactOracle {
    type Ready = Planted;

    fn setup(&self, spans: &mut Spans) -> Planted {
        spans.time("graphs.generate_s", || self.size.spec.generate(GRAPH_SEED))
    }

    fn solve(&self, planted: &mut Planted, spans: &mut Spans, rep: &mut Rep) {
        let g = &planted.graph;
        // `DistNearCliqueFinder::find` is `run_near_clique(..).largest_set()`;
        // calling the runner directly keeps its metrics and labels.
        let run = spans
            .time("baselines.dist-near-clique.s", || run_near_clique(g, &self.params, DIST_SEED));
        let labels = nc::Labels { labels: run.labels.clone(), ids: run.ids.clone() }
            .corrupted_if(self.corrupt);
        let largest = nc::check(g, &self.params, &run.plan, &labels, spans, rep, "exact_oracle");
        rep.recall = Some(recall(&planted.dense_set, largest.as_ref()));
        rep.sim = Sim {
            rounds: run.metrics.rounds,
            messages: run.metrics.messages,
            max_bits: run.metrics.max_message_bits as u64,
            wire_messages: run.metrics.messages + run.overhead.control_messages,
        };
        rep.outputs.push(largest.map_or(0, |s| s.len() as u64));
        for finder in &self.finders {
            let key = format!("baselines.{}.s", finder.name());
            let set = spans.time(&key, || finder.find(g, self.finder_seed));
            rep.outputs.push(set.len() as u64);
            if finder.name() == ExactFinder.name() {
                rep.check(is_maximal_clique(g, &set), || {
                    "exact_oracle: the exact finder's set is not a maximal clique".to_string()
                });
                spans.set("graphs.exact.clique_size", set.len() as f64);
            }
        }
    }
}
