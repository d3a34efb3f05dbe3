//! `stream_gossip`: every node broadcasts a one-bit beacon for a fixed
//! number of rounds over a streamed `G(n, p)` on the 2-shard flat
//! engine. The protocol's `step` only counts, so the run measures the
//! streamed CSR build and bare sharded delivery.

use congest::{
    Context, Driver, Engine, Message, Port, Protocol, RunLimits, Session, SessionDriver,
    Termination, TraceConfig,
};
use graphs::generators::{EdgeStream, GnpStream};
use graphs::Graph;

use crate::inputs::mix;
use crate::report::{ratio, Rep, Sim};
use crate::trace::{RoundClock, Spans};
use crate::Workload;

/// The one-bit beacon.
#[derive(Clone, Copy, Debug)]
pub struct Beacon;

impl Message for Beacon {
    fn bit_size(&self) -> usize {
        1
    }
}

/// Broadcasts a beacon in each of the first `rounds` rounds and counts
/// the beacons it hears.
pub struct Gossip {
    rounds: u64,
    heard: u64,
}

impl Gossip {
    pub fn new(rounds: u64) -> Self {
        Self { rounds, heard: 0 }
    }
}

impl Protocol for Gossip {
    type Msg = Beacon;
    type Output = u64;

    fn init(&mut self, ctx: &mut Context<'_, Beacon>) {
        ctx.broadcast(Beacon);
    }

    fn step(&mut self, ctx: &mut Context<'_, Beacon>, inbox: &[(Port, Beacon)]) {
        self.heard += inbox.len() as u64;
        if ctx.round() < self.rounds {
            ctx.broadcast(Beacon);
        }
    }

    fn is_idle(&self) -> bool {
        true
    }

    fn output(&self) -> u64 {
        self.heard
    }
}

/// Bare delivery cost on `g`: ns per message of a `rounds`-round beacon
/// gossip on one shard. Used to estimate the protocol-step share of a
/// `DistNearClique` run on the same topology.
pub fn bare_ns_per_msg(g: &Graph, rounds: u64) -> f64 {
    let mut driver = Session::on(g)
        .engine(Engine::Flat { shards: 1 })
        .limits(RunLimits::rounds(rounds + 1))
        .build_with(|_| Gossip::new(rounds));
    let t = std::time::Instant::now();
    let report = driver.run();
    ratio(t.elapsed().as_secs_f64() * 1e9, report.metrics.messages as f64)
}

/// Instance size of the workload.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub n: usize,
    pub degree: f64,
    pub rounds: u64,
    pub shards: usize,
}

pub const FULL: Size = Size { n: 200_000, degree: 16.0, rounds: 10, shards: 2 };
pub const TOY: Size = Size { n: 2_000, degree: 8.0, rounds: 4, shards: 2 };

pub struct StreamGossip {
    size: Size,
    graph_seed: u64,
    proto_seed: u64,
    corrupt: bool,
}

impl StreamGossip {
    pub fn new(seed: u64, size: Size, corrupt: bool) -> Self {
        Self { size, graph_seed: mix(seed, 0x5757), proto_seed: mix(seed, 0x5758), corrupt }
    }

    fn stream(&self) -> GnpStream {
        let p = self.size.degree / (self.size.n - 1) as f64;
        GnpStream::new(self.size.n, p, self.graph_seed)
    }
}

impl Workload for StreamGossip {
    type Ready = SessionDriver<Gossip>;

    fn setup(&self, spans: &mut Spans) -> Self::Ready {
        let traced = spans.enabled();
        let mut stream = self.stream();
        if traced {
            spans.time("graphs.stream_pass_s", || {
                stream.reset();
                std::hint::black_box(std::iter::from_fn(|| stream.next_edge()).count())
            });
            stream.reset();
        }
        let rounds = self.size.rounds;
        let mut session = Session::on_stream(&mut stream)
            .seed(self.proto_seed)
            .engine(Engine::Flat { shards: self.size.shards })
            .limits(RunLimits::rounds(rounds + 1));
        if traced {
            session = session.trace(TraceConfig::profile_only());
        }
        spans.time("congest.build_s", || session.build_with(|_| Gossip::new(rounds)))
    }

    fn solve(&self, driver: &mut Self::Ready, spans: &mut Spans, rep: &mut Rep) {
        let mut clock = spans.enabled().then(RoundClock::start);
        let report = spans.time("congest.flat.run_s", || match clock.as_mut() {
            Some(c) => driver.run_observed(c),
            None => driver.run(),
        });
        let mut heard = driver.outputs();
        if self.corrupt {
            heard[0] += 1;
        }
        let rounds = self.size.rounds;
        let ports: u64 = (0..driver.node_count()).map(|v| driver.endpoint(v).degree() as u64).sum();
        let wrong = (0..driver.node_count())
            .filter(|&v| heard[v] != driver.endpoint(v).degree() as u64 * rounds)
            .count();
        rep.check(report.termination == Termination::Quiescent, || {
            format!("stream_gossip: run ended {:?}", report.termination)
        });
        rep.check(report.metrics.messages == ports * rounds, || {
            format!(
                "stream_gossip: {} messages, expected {ports} directed ports x {rounds} rounds",
                report.metrics.messages
            )
        });
        rep.check(wrong == 0, || format!("stream_gossip: {wrong} nodes heard the wrong count"));
        rep.sim = Sim {
            rounds: report.metrics.rounds,
            messages: report.metrics.messages,
            max_bits: report.metrics.max_message_bits as u64,
            wire_messages: report.metrics.messages,
        };
        rep.outputs = vec![ports];
        if let Some(clock) = clock {
            crate::flat_layers(spans, &report, &clock, driver.node_count() as u64);
        }
    }
}
