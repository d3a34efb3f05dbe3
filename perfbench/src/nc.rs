//! `DistNearClique` plumbing shared by the workloads that run it:
//! session construction through the public `congest::Session` surface,
//! output collection, and the correctness gate against the centralized
//! reference.

use congest::{Driver, Engine, RunLimits, RunReport, Session, SessionDriver, TraceConfig};
use graphs::{FixedBitSet, Graph};
use nearclique::{check_labels, reference_run, DistNearClique, NearCliqueParams, SamplePlan};

use crate::report::Rep;
use crate::trace::Spans;

/// Round bound handed to the synchronous engines (the §4.1 wrapper).
pub const MAX_ROUNDS: u64 = 10_000_000;

/// Builds a `DistNearClique` driver on `engine` exactly as
/// `nearclique::run_near_clique_with` does: protocol seed `seed` for IDs
/// and node RNGs, sample flags from `plan`. Traced repetitions install
/// the engine's profile-only recorder for its `RunProfile` counts.
pub fn build(
    g: &Graph,
    params: &NearCliqueParams,
    plan: &SamplePlan,
    seed: u64,
    engine: Engine,
    budget: u64,
    traced: bool,
) -> SessionDriver<DistNearClique> {
    let mut session = Session::on(g).seed(seed).engine(engine).limits(RunLimits::rounds(budget));
    if traced {
        session = session.trace(TraceConfig::profile_only());
    }
    let mut driver = session.build_with(|endpoint| {
        let flags = (0..params.lambda).map(|v| plan.in_sample(v, endpoint.index)).collect();
        DistNearClique::new(params.clone(), flags)
    });
    if matches!(engine, Engine::Flat { .. }) {
        // As the library runner does: a reserved per-round history keeps
        // the flat engine's steady-state rounds allocation-free.
        driver.reserve_rounds(4096);
    }
    driver
}

/// Labels and IDs read back from a finished driver.
pub struct Labels {
    pub labels: Vec<Option<u64>>,
    pub ids: Vec<u64>,
}

/// Reads every node's label and ID. With `corrupt`, one label is
/// deliberately flipped — the benchmark's self-test uses it to prove the
/// gate counts a wrong output.
pub fn collect(driver: &SessionDriver<DistNearClique>, corrupt: bool) -> Labels {
    let labels = driver.outputs().into_iter().map(|o| o.label).collect();
    let ids = (0..driver.node_count()).map(|v| driver.endpoint(v).id).collect();
    Labels { labels, ids }.corrupted_if(corrupt)
}

impl Labels {
    /// With `corrupt`, flips node 0's label (set ↔ unset).
    pub fn corrupted_if(mut self, corrupt: bool) -> Self {
        if corrupt {
            if let Some(first) = self.labels.first_mut() {
                *first = if first.is_some() { None } else { Some(u64::MAX) };
            }
        }
        self
    }
}

/// The correctness gate for one run: labels equal the centralized
/// reference for the same IDs and sample, and every labeled set meets
/// Lemma 5.3's density bound. Returns the largest labeled set.
pub fn check(
    g: &Graph,
    params: &NearCliqueParams,
    plan: &SamplePlan,
    out: &Labels,
    spans: &mut Spans,
    rep: &mut Rep,
    tag: &str,
) -> Option<FixedBitSet> {
    let reference =
        spans.time("nearclique.reference_s", || reference_run(g, &out.ids, params, plan));
    spans.time("nearclique.check_s", || {
        rep.check(out.labels == reference.labels, || {
            format!("{tag}: labels differ from nearclique::reference_run")
        });
        rep.check(check_labels(g, &out.labels, params.epsilon).is_ok(), || {
            format!("{tag}: a labeled set violates Lemma 5.3")
        });
        largest_set(&out.labels)
    })
}

/// The largest labeled set (ties broken by the smaller label), as
/// `NearCliqueRun::largest_set` orders them.
fn largest_set(labels: &[Option<u64>]) -> Option<FixedBitSet> {
    let mut by_label = std::collections::BTreeMap::<u64, FixedBitSet>::new();
    for (v, label) in labels.iter().enumerate() {
        if let Some(root) = label {
            by_label.entry(*root).or_insert_with(|| FixedBitSet::new(labels.len())).insert(v);
        }
    }
    by_label
        .into_iter()
        .max_by_key(|(label, set)| (set.len(), std::cmp::Reverse(*label)))
        .map(|(_, s)| s)
}

/// Payload messages plus synchronizer control messages of one run.
pub fn wire_messages(report: &RunReport) -> u64 {
    report.metrics.messages + report.overhead.control_messages
}
