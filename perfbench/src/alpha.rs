//! `alpha_faulty`: `DistNearClique` on the asynchronous engine under a
//! heavy-tailed delay model and 2% message loss. Each repetition derives
//! one `PhasePlan` and runs it under both synchronizers (classic α and
//! batched α), so the `sched` layers — timing wheel, synchronizer gate,
//! retransmission — carry the work.

use congest::{
    ChurnModel, DelayModel, Driver, Engine, FaultModel, Metrics, PhasePlan, SessionDriver,
    SyncModel, Termination,
};
use graphs::generators::Planted;
use nearclique::{
    near_clique_phase_plan, run_near_clique_with, DistNearClique, NearCliqueParams, NodeOutput,
    RunOptions, SamplePlan,
};

use crate::inputs::{conditioned_seed, mix, recall, PlantedSpec, Size};
use crate::nc;
use crate::report::{ratio, Rep, Sim};
use crate::trace::Spans;
use crate::Workload;

pub const FULL: Size = Size {
    spec: PlantedSpec { n: 800, k: 160, eps3: 0.0156, noise: 4.0 / 800.0 },
    expected_sample: 7.0,
    shape: (4, 3),
};
pub const TOY: Size = Size {
    spec: PlantedSpec { n: 150, k: 50, eps3: 0.0156, noise: 0.03 },
    expected_sample: 4.0,
    shape: (2, 2),
};

const DELAY: DelayModel = DelayModel::HeavyTailed { max_delay: 8 };
const FAULT: FaultModel = FaultModel::Drop { p_millis: 20 };
const SYNCS: [(&str, SyncModel); 2] =
    [("alpha", SyncModel::Alpha), ("batched", SyncModel::BatchedAlpha)];

pub struct AlphaFaulty {
    size: Size,
    params: NearCliqueParams,
    graph_seed: u64,
    proto_seed: u64,
    corrupt: bool,
    /// The flat engine's outputs and payload metrics for the same
    /// instance — what both asynchronous runs must reproduce.
    flat: (Vec<NodeOutput>, Metrics),
}

impl AlphaFaulty {
    pub fn new(seed: u64, size: Size, corrupt: bool) -> Self {
        let params = NearCliqueParams::for_expected_sample(0.25, size.expected_sample, size.spec.n)
            .expect("valid near-clique parameters");
        let graph_seed = mix(seed, 0xA1FA);
        let planted = size.spec.generate(graph_seed);
        let proto_seed = conditioned_seed(mix(seed, 0xA1FB), &params, &planted, size.shape);
        let flat =
            run_near_clique_with(&planted.graph, &params, proto_seed, RunOptions::threaded(1));
        Self { size, params, graph_seed, proto_seed, corrupt, flat: (flat.outputs, flat.metrics) }
    }
}

pub struct Ready {
    planted: Planted,
    plan: SamplePlan,
    phases: PhasePlan,
    drivers: Vec<SessionDriver<DistNearClique>>,
}

impl Workload for AlphaFaulty {
    type Ready = Ready;

    fn setup(&self, spans: &mut Spans) -> Ready {
        let traced = spans.enabled();
        let planted = spans.time("graphs.generate_s", || self.size.spec.generate(self.graph_seed));
        let g = &planted.graph;
        let p = &self.params;
        let phases = spans.time("congest.async.plan_s", || {
            near_clique_phase_plan(g, p, self.proto_seed, nc::MAX_ROUNDS)
        });
        let plan = spans.time("nearclique.sample_s", || {
            SamplePlan::draw(self.size.spec.n, p.lambda, p.p, self.proto_seed)
        });
        let drivers = SYNCS
            .iter()
            .map(|&(_, sync)| {
                let engine =
                    Engine::Async { delay: DELAY, sync, fault: FAULT, churn: ChurnModel::None };
                spans.time("congest.build_s", || {
                    nc::build(g, p, &plan, self.proto_seed, engine, phases.total_pulses(), traced)
                })
            })
            .collect();
        Ready { planted, plan, phases, drivers }
    }

    fn solve(&self, ready: &mut Ready, spans: &mut Spans, rep: &mut Rep) {
        let Ready { planted, plan, phases, drivers } = ready;
        let g = &planted.graph;
        let mut wire = 0;
        let mut largest = None;
        for ((name, _), driver) in SYNCS.iter().zip(drivers.iter_mut()) {
            let run_key = format!("congest.async.{name}.run_s");
            let report = spans.time(&run_key, || driver.run_phased(phases, &mut ()));
            let tag = format!("alpha_faulty/{name}");
            rep.check(report.termination == Termination::Quiescent, || {
                format!("{tag}: run ended {:?}", report.termination)
            });
            rep.check(driver.outputs() == self.flat.0, || {
                format!("{tag}: outputs differ from the flat run")
            });
            rep.check(report.metrics == self.flat.1, || {
                format!("{tag}: payload metrics differ from the flat run")
            });
            let o = report.overhead;
            rep.check(o.dropped_messages == o.retransmissions, || {
                format!(
                    "{tag}: {} dropped vs {} retransmitted",
                    o.dropped_messages, o.retransmissions
                )
            });
            if *name == "alpha" {
                let out = nc::collect(driver, self.corrupt);
                largest = nc::check(g, &self.params, plan, &out, spans, rep, &tag);
                rep.sim = Sim {
                    rounds: report.metrics.rounds,
                    messages: report.metrics.messages,
                    max_bits: report.metrics.max_message_bits as u64,
                    wire_messages: 0,
                };
            }
            wire += nc::wire_messages(&report);
            rep.outputs.extend([o.control_messages, o.retransmissions, o.virtual_time]);
            if spans.enabled() {
                let events = (report.metrics.messages + o.control_messages) as f64;
                let prefix = format!("congest.async.{name}");
                spans.set(format!("{prefix}.control_messages"), o.control_messages as f64);
                spans.set(format!("{prefix}.retransmissions"), o.retransmissions as f64);
                spans.set(format!("{prefix}.dropped_messages"), o.dropped_messages as f64);
                spans.set(format!("{prefix}.virtual_time"), o.virtual_time as f64);
                spans.set(
                    format!("{prefix}.ns_per_event"),
                    ratio(spans.get(&run_key) * 1e9, events),
                );
                let wheel = report.profile.map_or(0, |p| p.max_wheel_occupancy);
                spans.set(format!("{prefix}.max_wheel_occupancy"), wheel as f64);
            }
        }
        rep.sim.wire_messages = wire;
        rep.recall = Some(recall(&planted.dense_set, largest.as_ref()));
    }
}
