//! Tracing from outside the program: wall-clock spans around calls into
//! a layer's public functions, and round/barrier timestamps taken through
//! the public `congest::Observer` hook.
//!
//! Untraced repetitions construct a disabled [`Spans`], which calls the
//! timed closure and records nothing, and run without an observer.

use std::time::Instant;

use congest::{Observer, Round, RoundDelta};

use crate::report::{median, Layers};

/// Accumulates per-layer wall time (and counts) for one repetition.
pub struct Spans {
    enabled: bool,
    layers: Layers,
    /// Sum of every timed span so far, in seconds.
    timed_s: f64,
}

impl Spans {
    /// A recorder; `enabled == false` makes every call a pass-through.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, layers: Layers::new(), timed_s: 0.0 }
    }

    /// Whether this repetition is traced.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, adding its wall time to the `layer` span.
    pub fn time<T>(&mut self, layer: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let t = Instant::now();
        let out = f();
        let took = t.elapsed().as_secs_f64();
        *self.layers.entry(layer.to_string()).or_default() += took;
        self.timed_s += took;
        out
    }

    /// Sum of every span timed so far, in seconds (spans never nest).
    pub fn timed_s(&self) -> f64 {
        self.timed_s
    }

    /// Sets a per-layer value (a count, or a derived figure).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        if self.enabled {
            self.layers.insert(name.into(), value);
        }
    }

    /// A recorded value, 0 if absent.
    pub fn get(&self, name: &str) -> f64 {
        self.layers.get(name).copied().unwrap_or(0.0)
    }

    /// The recorded layers.
    pub fn into_layers(self) -> Layers {
        self.layers
    }
}

/// Observer that timestamps every round and every quiescence barrier on
/// the synchronous engines (which call back live, after each round).
pub struct RoundClock {
    start: Instant,
    last: Instant,
    /// Per executed round: (wall seconds since the previous callback,
    /// payload messages delivered, phase index = barriers seen so far).
    pub rounds: Vec<(f64, u64, usize)>,
    /// Seconds since `start` at each granted barrier.
    pub barriers: Vec<f64>,
}

impl RoundClock {
    /// Starts the clock now; storage is reserved up front so the run
    /// itself does not allocate on the observer's behalf.
    pub fn start() -> Self {
        let now = Instant::now();
        Self {
            start: now,
            last: now,
            rounds: Vec::with_capacity(4096),
            barriers: Vec::with_capacity(64),
        }
    }

    /// Median wall time, in µs, of rounds delivering fewer than `limit`
    /// payload messages; 0 when there are none.
    pub fn idle_round_us(&self, limit: u64) -> f64 {
        let idle: Vec<f64> =
            self.rounds.iter().filter(|r| r.1 < limit).map(|r| r.0 * 1e6).collect();
        median(&idle)
    }

    /// Per phase index: (wall seconds between barrier timestamps, rounds,
    /// payload messages). The last phase ends at `end_s` (seconds since
    /// start when the run returned).
    pub fn phases(&self, end_s: f64) -> Vec<(f64, u64, u64)> {
        let count = self.barriers.len() + 1;
        let mut out = vec![(0.0, 0u64, 0u64); count];
        let mut from = 0.0;
        for (k, slot) in out.iter_mut().enumerate() {
            let to = self.barriers.get(k).copied().unwrap_or(end_s);
            slot.0 = to - from;
            from = to;
        }
        for &(_, msgs, phase) in &self.rounds {
            let slot = &mut out[phase.min(count - 1)];
            slot.1 += 1;
            slot.2 += msgs;
        }
        out
    }

    /// Seconds since the clock started.
    pub fn now_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Observer for RoundClock {
    fn on_round(&mut self, _round: Round, delta: &RoundDelta) {
        let now = Instant::now();
        let wall = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        self.rounds.push((wall, delta.messages, self.barriers.len()));
    }

    fn on_barrier(&mut self, _round: Round) {
        self.barriers.push(self.start.elapsed().as_secs_f64());
    }
}
