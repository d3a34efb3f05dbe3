//! `gather_flat1`: `DistNearClique` on the single-shard flat engine over
//! a planted near clique. Message-bound and single-threaded: the
//! component gathers move nearly every message, so flat delivery and the
//! protocol's `step` share the time.

use congest::{Driver, Engine, SessionDriver, Termination};
use graphs::generators::Planted;
use nearclique::{DistNearClique, NearCliqueParams, SamplePlan};

use crate::inputs::{conditioned_seed, mix, recall, PlantedSpec, Size};
use crate::nc;
use crate::report::{Rep, Sim};
use crate::trace::{RoundClock, Spans};
use crate::Workload;

pub const FULL: Size = Size {
    spec: PlantedSpec { n: 600, k: 300, eps3: 0.0156, noise: 0.002 },
    expected_sample: 7.0,
    shape: (5, 2),
};
pub const TOY: Size = Size {
    spec: PlantedSpec { n: 120, k: 60, eps3: 0.0156, noise: 0.02 },
    expected_sample: 4.0,
    shape: (2, 2),
};

/// Rounds of the bare-delivery calibration gossip.
const CALIBRATION_ROUNDS: u64 = 8;

pub struct GatherFlat1 {
    size: Size,
    params: NearCliqueParams,
    graph_seed: u64,
    proto_seed: u64,
    corrupt: bool,
}

impl GatherFlat1 {
    pub fn new(seed: u64, size: Size, corrupt: bool) -> Self {
        let params = NearCliqueParams::for_expected_sample(0.25, size.expected_sample, size.spec.n)
            .expect("valid near-clique parameters");
        let graph_seed = mix(seed, 0x6A7E);
        let planted = size.spec.generate(graph_seed);
        let proto_seed = conditioned_seed(mix(seed, 0x6A7F), &params, &planted, size.shape);
        Self { size, params, graph_seed, proto_seed, corrupt }
    }
}

pub struct Ready {
    planted: Planted,
    plan: SamplePlan,
    driver: SessionDriver<DistNearClique>,
}

impl Workload for GatherFlat1 {
    type Ready = Ready;

    fn setup(&self, spans: &mut Spans) -> Ready {
        let traced = spans.enabled();
        let planted = spans.time("graphs.generate_s", || self.size.spec.generate(self.graph_seed));
        let p = &self.params;
        let plan = spans.time("nearclique.sample_s", || {
            SamplePlan::draw(self.size.spec.n, p.lambda, p.p, self.proto_seed)
        });
        let driver = spans.time("congest.build_s", || {
            let engine = Engine::Flat { shards: 1 };
            nc::build(&planted.graph, p, &plan, self.proto_seed, engine, nc::MAX_ROUNDS, traced)
        });
        if traced {
            let bare = crate::gossip::bare_ns_per_msg(&planted.graph, CALIBRATION_ROUNDS);
            spans.set("congest.flat.bare_ns_per_msg", bare);
        }
        Ready { planted, plan, driver }
    }

    fn solve(&self, ready: &mut Ready, spans: &mut Spans, rep: &mut Rep) {
        let Ready { planted, plan, driver } = ready;
        let g = &planted.graph;
        let mut clock = spans.enabled().then(RoundClock::start);
        let report = spans.time("congest.flat.run_s", || match clock.as_mut() {
            Some(c) => driver.run_observed(c),
            None => driver.run(),
        });
        let end_s = clock.as_ref().map_or(0.0, RoundClock::now_s);
        let out = nc::collect(driver, self.corrupt);
        rep.check(report.termination == Termination::Quiescent, || {
            format!("gather_flat1: run ended {:?}", report.termination)
        });
        let largest = nc::check(g, &self.params, plan, &out, spans, rep, "gather_flat1");
        rep.recall = Some(recall(&planted.dense_set, largest.as_ref()));
        rep.sim = Sim {
            rounds: report.metrics.rounds,
            messages: report.metrics.messages,
            max_bits: report.metrics.max_message_bits as u64,
            wire_messages: nc::wire_messages(&report),
        };
        rep.outputs = vec![largest.map_or(0, |s| s.len() as u64)];
        if let Some(clock) = clock {
            crate::flat_layers(spans, &report, &clock, g.node_count() as u64);
            let trace = driver.protocol(0).phase_trace();
            for (k, (secs, rounds, msgs)) in clock.phases(end_s).into_iter().enumerate() {
                let name = trace.get(k).map_or("done", |t| t.1);
                for (suffix, v) in
                    [("s", secs), ("rounds", rounds as f64), ("messages", msgs as f64)]
                {
                    let key = format!("nearclique.phase.{name}.{suffix}");
                    let prev = spans.get(&key);
                    spans.set(key, prev + v);
                }
            }
            let step =
                spans.get("congest.flat.ns_per_msg") - spans.get("congest.flat.bare_ns_per_msg");
            spans.set("nearclique.step_ns_per_msg_est", step);
        }
    }
}
