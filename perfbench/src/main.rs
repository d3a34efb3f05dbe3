//! The repository benchmark: seeded workloads through the public API of
//! `graphs`, `congest`, `nearclique` and `baselines`, every output checked
//! against the centralized reference, results printed as one JSON line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--toy] [--corrupt-labels]
//! ```
//!
//! Load is closed-loop: one instance at a time in this one process. Each
//! repetition sets an instance up from the seed (`setup_s`), solves it and
//! checks the output (`solve_s`); repetitions continue until `--seconds`
//! have passed, and timings are reported as medians. With `--trace 0`
//! every repetition is untraced and the end-to-end metrics are printed.
//! With `--trace 1` untraced repetitions are followed by traced ones, and
//! the per-layer metrics are printed. `--toy` shrinks every instance (the
//! self-test), and `--corrupt-labels` flips one output label before the
//! check, which the gate must count as a failure.
//!
//! See `perfbench/README.md` for the workloads and the layer map.

mod alpha;
mod gather;
mod gossip;
mod inputs;
mod nc;
mod oracle;
mod report;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use congest::RunReport;
use nearclique::DistNearClique;

use report::{median, peak_rss_mb, ratio, reset_peak_rss, secs, Metrics, Rep};
use trace::{RoundClock, Spans};

/// One benchmark workload: a seeded instance that can be set up, solved
/// and checked any number of times.
pub trait Workload {
    /// The ready engine(s) and whatever the check needs.
    type Ready;

    /// Seed → engine ready.
    fn setup(&self, spans: &mut Spans) -> Self::Ready;

    /// Ready engine → checked output; fills `rep`'s counts and failures.
    fn solve(&self, ready: &mut Self::Ready, spans: &mut Spans, rep: &mut Rep);
}

/// Fewest repetitions a run reports a median over.
const MIN_REPS: usize = 3;
/// Fewest traced repetitions in a `--trace 1` run.
const MIN_TRACED: usize = 2;
/// Share of an untraced run's time that set-up samples fill: after each
/// repetition, set-up-only repetitions run until set-up time reaches this
/// share, so `setup_s` is a median over many samples taken across the whole
/// run even when set-up is far cheaper than the solve.
const SETUP_SHARE: f64 = 0.15;
/// Share of `--seconds` spent on untraced repetitions in a traced run.
const UNTRACED_SHARE: f64 = 0.5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    toy: bool,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        toy: false,
        corrupt: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--toy" => args.toy = true,
            "--corrupt-labels" => args.corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (seed, toy, corrupt) = (args.seed, args.toy, args.corrupt);
    let line = match args.workload.as_str() {
        "gather_flat1" => measure(
            &gather::GatherFlat1::new(seed, if toy { gather::TOY } else { gather::FULL }, corrupt),
            &args,
        ),
        "alpha_faulty" => measure(
            &alpha::AlphaFaulty::new(seed, if toy { alpha::TOY } else { alpha::FULL }, corrupt),
            &args,
        ),
        "stream_gossip" => measure(
            &gossip::StreamGossip::new(seed, if toy { gossip::TOY } else { gossip::FULL }, corrupt),
            &args,
        ),
        "exact_oracle" => measure(
            &oracle::ExactOracle::new(seed, if toy { oracle::TOY } else { oracle::FULL }, corrupt),
            &args,
        ),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    println!("{line}");
    ExitCode::SUCCESS
}

/// One repetition: set up, solve and check one instance.
fn repetition<W: Workload>(w: &W, traced: bool) -> Rep {
    let mut spans = Spans::new(traced);
    let mut rep = Rep::default();
    reset_peak_rss();
    let t = Instant::now();
    let mut ready = w.setup(&mut spans);
    rep.setup_s = secs(t);
    let timed_before = spans.timed_s();
    let t = Instant::now();
    w.solve(&mut ready, &mut spans, &mut rep);
    rep.solve_s = secs(t);
    rep.peak_rss_mb = peak_rss_mb();
    drop(ready);
    if traced {
        spans.set("unattributed_s", rep.solve_s - (spans.timed_s() - timed_before));
        spans.set("traced_solve_s", rep.solve_s);
        spans.set("nearclique.recall", rep.recall.unwrap_or(0.0));
    }
    rep.layers = spans.into_layers();
    rep
}

/// Calls `f` at least `min` times, then again while the next call —
/// predicted to take as long as the last — ends within `until` seconds
/// of `start`, so a run stays inside its time budget.
fn repeat<T>(start: Instant, until: f64, min: usize, mut f: impl FnMut() -> T) -> Vec<T> {
    let mut out = Vec::new();
    let mut last = 0.0;
    while out.len() < min || secs(start) + last <= until {
        let t = Instant::now();
        out.push(f());
        last = secs(t);
    }
    out
}

/// Runs repetitions for `--seconds` and returns the result line.
fn measure<W: Workload>(w: &W, args: &Args) -> String {
    let start = Instant::now();
    let untraced_budget = if args.trace { args.seconds * UNTRACED_SHARE } else { args.seconds };
    let mut setups = Vec::new();
    let mut setup_total = 0.0;
    let mut reps = repeat(start, untraced_budget, MIN_REPS, || {
        let rep = repetition(w, false);
        setups.push(rep.setup_s);
        setup_total += rep.setup_s;
        while !args.trace && setup_total < SETUP_SHARE * secs(start) {
            let t = Instant::now();
            let ready = w.setup(&mut Spans::new(false));
            let s = secs(t);
            drop(ready);
            setups.push(s);
            setup_total += s;
        }
        rep
    });
    let mut traced = match args.trace {
        true => repeat(start, args.seconds, MIN_TRACED, || repetition(w, true)),
        false => Vec::new(),
    };

    // The gate: every repetition's own checks, plus identical simulated
    // counts and output summaries across all repetitions.
    let first = (reps[0].sim, reps[0].outputs.clone());
    let mut failed = 0;
    let mut reasons = std::collections::BTreeMap::<String, usize>::new();
    for rep in reps.iter_mut().chain(traced.iter_mut()) {
        let (sim, outputs) = (rep.sim, rep.outputs.clone());
        rep.check(sim == first.0, || format!("simulated counts {sim:?} differ from {:?}", first.0));
        rep.check(outputs == first.1, || format!("outputs {outputs:?} differ from {:?}", first.1));
        for f in &rep.failures {
            *reasons.entry(f.clone()).or_default() += 1;
        }
        failed += usize::from(!rep.failures.is_empty());
    }
    for (reason, count) in &reasons {
        eprintln!("perfbench: FAILED in {count} repetitions: {reason}");
    }
    let attempted = reps.len() + traced.len();

    let mut m = Metrics::default();
    let solves: Vec<f64> = reps.iter().map(|r| r.solve_s).collect();
    let solve = median(&solves);
    if args.trace {
        for (name, unit) in per_layer_names() {
            let values: Vec<f64> =
                traced.iter().map(|r| r.layers.get(&name).copied().unwrap_or(0.0)).collect();
            m.set(name, median(&values), unit);
        }
        let traced_solve = median(&traced.iter().map(|r| r.solve_s).collect::<Vec<_>>());
        m.set("trace_overhead_frac", ratio(traced_solve, solve) - 1.0, "frac");
    } else {
        let sim = first.0;
        m.set("setup_s", median(&setups), "s");
        m.set("solve_s", solve, "s");
        m.set("sim_msgs_per_s", ratio(sim.wire_messages as f64, solve), "1/s");
        // Memory is not noisy the way time is, but the allocator's retained
        // pages make later repetitions' peaks wander: the first repetition's
        // peak is the reproducible one.
        m.set("peak_rss_mb", reps[0].peak_rss_mb, "MB");
        m.set("passed_frac", ratio((attempted - failed) as f64, attempted as f64), "frac");
        m.set("sim_rounds", sim.rounds as f64, "count");
        m.set("sim_messages", sim.messages as f64, "count");
        m.set("sim_wire_messages", sim.wire_messages as f64, "count");
        m.set("sim_max_message_bits", sim.max_bits as f64, "bits");
    }
    let lo = solves.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = solves.iter().copied().fold(0.0, f64::max);
    eprintln!(
        "perfbench: {} seed {}: {} untraced + {} traced repetitions and {} set-ups in {:.1} s; \
         untraced solve_s min {lo:.4} median {solve:.4} max {hi:.4}",
        args.workload,
        args.seed,
        reps.len(),
        traced.len(),
        setups.len(),
        secs(start),
    );
    m.result_line(attempted, failed)
}

/// Flat-engine layer values of one traced run.
pub fn flat_layers(spans: &mut Spans, report: &RunReport, clock: &RoundClock, nodes: u64) {
    let messages = report.metrics.messages as f64;
    spans.set("congest.flat.rounds", report.metrics.rounds as f64);
    spans.set("congest.flat.messages", messages);
    spans.set("congest.flat.ns_per_msg", ratio(spans.get("congest.flat.run_s") * 1e9, messages));
    let depth = report.profile.as_ref().map_or(0, |p| p.max_queue_depth);
    spans.set("congest.flat.max_queue_depth", depth as f64);
    // "Almost nothing": fewer payload messages than nodes in the round.
    spans.set("congest.flat.idle_round_us", clock.idle_round_us(nodes));
}

/// Every per-layer metric a `--trace 1` run prints, with its unit; a
/// workload that does not exercise a layer reports 0 for it.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("graphs.generate_s", "s"),
        ("graphs.stream_pass_s", "s"),
        ("graphs.exact.clique_size", "count"),
        ("congest.build_s", "s"),
        ("congest.flat.run_s", "s"),
        ("congest.flat.rounds", "count"),
        ("congest.flat.messages", "count"),
        ("congest.flat.ns_per_msg", "ns"),
        ("congest.flat.bare_ns_per_msg", "ns"),
        ("congest.flat.max_queue_depth", "count"),
        ("congest.flat.idle_round_us", "us"),
        ("congest.async.plan_s", "s"),
        ("nearclique.sample_s", "s"),
        ("nearclique.reference_s", "s"),
        ("nearclique.check_s", "s"),
        ("nearclique.recall", "frac"),
        ("nearclique.step_ns_per_msg_est", "ns"),
        ("traced_solve_s", "s"),
        ("unattributed_s", "s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for sync in ["alpha", "batched"] {
        for (field, unit) in [
            ("run_s", "s"),
            ("control_messages", "count"),
            ("retransmissions", "count"),
            ("dropped_messages", "count"),
            ("virtual_time", "ticks"),
            ("ns_per_event", "ns"),
            ("max_wheel_occupancy", "count"),
        ] {
            names.push((format!("congest.async.{sync}.{field}"), unit));
        }
    }
    for phase in DistNearClique::phase_sequence(1) {
        for (field, unit) in [("s", "s"), ("rounds", "count"), ("messages", "count")] {
            names.push((format!("nearclique.phase.{phase}.{field}"), unit));
        }
    }
    for finder in [
        "dist-near-clique",
        "shingles",
        "greedy-peel",
        "quasi-clique",
        "innermost-kcore",
        "exact-max-clique",
    ] {
        names.push((format!("baselines.{finder}.s"), "s"));
    }
    names
}
