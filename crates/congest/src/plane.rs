//! The flat message plane: CSR topology, slab-backed port queues, and the
//! sharded delivery machinery behind [`crate::Network`].
//!
//! # Layout
//!
//! Every directed edge `(u, v)` is a *slot*: a dense `u32` id assigned in
//! CSR order (`slot = offsets[u] + port`), mirroring [`graphs::Graph`]'s
//! own layout. Delivery routing collapses into a single flat array,
//! [`Topology::route`]: indexed by the sender's slot, one 12-byte record
//! carries the destination slot, destination node, and destination shard
//! — phase A performs no pointer chasing and no random lookups at all
//! (sender slots are visited in order).
//!
//! # Queues
//!
//! Outgoing per-port FIFOs are [`PortQueues`]. Each port's record,
//! [`PortQ`], holds the port's oldest message inline; whatever queues up
//! behind it goes to a per-shard slab of fixed-size chunks strung on
//! intrusive `u32` links and recycled through a free list. Under CONGEST
//! almost every push lands on an empty port, so single-message traffic
//! never touches the slab. A record is 16 bytes plus one message, and
//! the empty record is all-zero bits, so port tables are allocated zeroed
//! instead of written record by record. Pushes and pops never
//! allocate once the chunk pool is warm. Non-empty ports are tracked in a
//! bitset whose scan order *is* port order, so delivery costs `O(active
//! ports)` with no sorted-insert on push (the old engine's `Outbox` paid
//! `O(degree)` per first push on a port).
//!
//! # Delivery without a global sort
//!
//! Messages arrive grouped by **sender** and must be consumed grouped by
//! **receiver** — a transpose of the round's whole message volume, which
//! for large rounds is memory-bound. Instead of sorting the full entries
//! (a naive global sort moves every payload `O(log k)` times), a counting
//! pass prefix-sums per-node bucket offsets and every message is placed
//! exactly once into a flat per-round buffer. Protocols step directly on
//! the bucket slices; there are no per-node inbox vectors to fill or
//! clear.
//!
//! With one shard, [`Shard::deliver_direct`] pops straight from the port
//! queues into the buckets, and no bucket needs sorting: senders are
//! visited in slot order and neighbour lists are sorted, so each
//! receiver's ports arrive in increasing order, and a LOCAL train drains
//! consecutively. With several shards, [`Shard::bucket_incoming`] sorts
//! each node's *small* bucket by `(port, train index)` — an in-cache
//! sort whose keys are unique, so `sort_unstable` is deterministic.
//!
//! This is what makes `parallel(1)` and `parallel(k)` runs bit-identical:
//! bucket contents depend only on (receiver, port, train index), never on
//! which shard produced a message or in which order buffers drained.

use std::mem::MaybeUninit;

use graphs::{EdgeStream, Graph};

use crate::message::Message;
use crate::protocol::Port;

/// Messages per chunk. Eight keeps a chunk of small messages within one or
/// two cache lines while bounding per-queue slack to seven slots.
pub(crate) const CHUNK: usize = 8;

/// Null link / "no chunk" marker. Chunk 0 is a sentinel that is never
/// handed out, so that an all-zero [`PortQ`] is an empty queue.
const NIL: u32 = 0;

/// A delivery record produced by phase A: routing key plus payload. The
/// key packs `(destination slot << 32) | intra-train index` — unique per
/// round. The second field is the destination node (precomputed so the
/// receiver never does a random owner lookup).
pub(crate) type Entry<M> = (u64, u32, M);

/// Routing record for one directed port, indexed by *sender* slot.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Route {
    /// The same physical edge seen from the receiving side.
    pub dest_slot: u32,
    /// The node owning `dest_slot`.
    pub dest_node: u32,
    /// The shard owning `dest_node`.
    pub dest_shard: u16,
}

/// Flattened CSR topology of the network, shared read-only by all shards.
///
/// Exactly two arrays: `n + 1` port-range offsets and one 12-byte
/// `Route` record per directed port. This is the entire per-topology
/// routing state of the flat engine — [`Topology::heap_bytes`] reports
/// its size, and the scale tier budgets against it.
///
/// Constructed either from a materialized [`Graph`]
/// ([`Topology::from_graph`]) or directly from a restartable
/// [`EdgeStream`] ([`Topology::from_edge_stream`]) without ever holding
/// an intermediate edge list.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Port-range offsets per node, length `n + 1`; `offsets[n]` is the
    /// total number of directed ports (2m).
    pub(crate) offsets: Box<[u32]>,
    /// Routing record per directed port, indexed by sender slot.
    pub(crate) route: Box<[Route]>,
}

impl Topology {
    /// Builds the flat tables for `graph`, sharded into `shards` node
    /// ranges (each spanning `ceil(n / shards)` consecutive nodes — the
    /// same split [`crate::NetworkBuilder::parallel`] uses).
    ///
    /// # Panics
    ///
    /// Panics if the graph has ≥ `u32::MAX` directed edges or `shards`
    /// exceeds `u16::MAX`.
    #[must_use]
    pub fn from_graph(graph: &Graph, shards: usize) -> Self {
        let chunk = graph.node_count().div_ceil(shards.max(1)).max(1);
        Self::build(graph, chunk, shards)
    }

    /// Builds the flat tables directly from a restartable [`EdgeStream`],
    /// sharded like [`Topology::from_graph`], in two counted passes:
    /// degree counting, an in-place prefix sum, then a placement pass
    /// that writes both directions of every edge straight into the final
    /// route array. Peak memory is the final CSR plus one `u32` cursor
    /// per node — no intermediate edge list, no `Graph`.
    ///
    /// For the same instance this is bit-identical to
    /// [`Topology::from_graph`] on the materialized graph: a
    /// lexicographically sorted stream delivers each node's neighbors in
    /// increasing order, which is exactly the CSR slot order.
    ///
    /// # Panics
    ///
    /// Panics if the stream yields ≥ `u32::MAX` directed edges, `shards`
    /// exceeds `u16::MAX`, or the stream violates its contract (edges
    /// not strictly sorted / out of range, or the replay pass disagrees
    /// with the counting pass).
    #[must_use]
    pub fn from_edge_stream(stream: &mut dyn EdgeStream, shards: usize) -> Self {
        let chunk = stream.node_count().div_ceil(shards.max(1)).max(1);
        Self::build_from_stream(stream, chunk, shards)
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed ports (2m).
    #[must_use]
    pub fn port_count(&self) -> usize {
        self.route.len()
    }

    /// Heap bytes held by the routing tables: `4(n + 1)` for the offsets
    /// plus 12 per directed port.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.route.len() * std::mem::size_of::<Route>()
    }

    /// [`Topology::from_graph`] with an explicit shard span (the engine
    /// passes its own `chunk` so topology and node sharding agree).
    pub(crate) fn build(graph: &Graph, chunk: usize, shards: usize) -> Self {
        let n = graph.node_count();
        assert!(shards <= u16::MAX as usize, "shard count {shards} exceeds u16 range");
        let total: usize = (0..n).map(|u| graph.degree(u)).sum();
        assert!(
            (total as u64) < u64::from(u32::MAX),
            "graph has {total} directed edges; flat plane is limited to u32 slots"
        );

        let mut offsets = vec![0u32; n + 1];
        for u in 0..n {
            offsets[u + 1] = offsets[u] + graph.degree(u) as u32;
        }
        // Nodes are visited in increasing order and neighbour lists are
        // sorted, so when `u` reaches neighbour `v`, `u` is the next of
        // v's neighbours not yet seen: it sits at v's port `back[v]`.
        let mut route = vec![Route::default(); total];
        let mut back = vec![0u32; n];
        for u in 0..n {
            for (port, &v) in graph.neighbors(u).iter().enumerate() {
                let slot = offsets[u] as usize + port;
                let b = back[v];
                back[v] += 1;
                debug_assert_eq!(graph.neighbors(v)[b as usize], u, "graph must be symmetric");
                route[slot] = Route {
                    dest_slot: offsets[v] + b,
                    dest_node: v as u32,
                    dest_shard: v.checked_div(chunk).unwrap_or(0) as u16,
                };
            }
        }
        Self { offsets: offsets.into_boxed_slice(), route: route.into_boxed_slice() }
    }

    /// [`Topology::from_edge_stream`] with an explicit shard span.
    pub(crate) fn build_from_stream(
        stream: &mut dyn EdgeStream,
        chunk: usize,
        shards: usize,
    ) -> Self {
        let n = stream.node_count();
        assert!(shards <= u16::MAX as usize, "shard count {shards} exceeds u16 range");

        // Pass 1: count degrees into offsets[w + 1]. The sortedness
        // assert doubles as a uniqueness check (strictly increasing pairs
        // cannot repeat), so no dedup structure is ever needed.
        let mut offsets = vec![0u32; n + 1];
        stream.reset();
        let mut prev: Option<(usize, usize)> = None;
        let mut total: u64 = 0;
        while let Some((u, v)) = stream.next_edge() {
            assert!(u < v && v < n, "stream edge ({u}, {v}) must satisfy u < v < n = {n}");
            assert!(prev < Some((u, v)), "edge stream must be strictly lexicographically sorted");
            prev = Some((u, v));
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
            total += 2;
        }
        assert!(
            total < u64::from(u32::MAX),
            "stream has {total} directed edges; flat plane is limited to u32 slots"
        );
        for w in 0..n {
            offsets[w + 1] += offsets[w];
        }

        // Pass 2: replay the stream and place both directions of each
        // edge at its node's next free slot. Sorted replay hands every
        // node its neighbors in increasing order, so slot assignment —
        // and each record's back-pointing `dest_slot` — lands exactly
        // where `build` puts it.
        let mut route = vec![Route::default(); total as usize];
        let mut cursor = vec![0u32; n];
        stream.reset();
        let mut placed: u64 = 0;
        while let Some((u, v)) = stream.next_edge() {
            let slot_u = offsets[u] + cursor[u];
            cursor[u] += 1;
            let slot_v = offsets[v] + cursor[v];
            cursor[v] += 1;
            debug_assert!(slot_u < offsets[u + 1] && slot_v < offsets[v + 1]);
            route[slot_u as usize] = Route {
                dest_slot: slot_v,
                dest_node: v as u32,
                dest_shard: v.checked_div(chunk).unwrap_or(0) as u16,
            };
            route[slot_v as usize] = Route {
                dest_slot: slot_u,
                dest_node: u as u32,
                dest_shard: u.checked_div(chunk).unwrap_or(0) as u16,
            };
            placed += 2;
        }
        assert_eq!(placed, total, "edge stream must replay identically on its second pass");

        Self { offsets: offsets.into_boxed_slice(), route: route.into_boxed_slice() }
    }

    /// Resolves node `from`'s local `port` to `(sender slot, destination
    /// node, destination's local port)` — the one place the CSR
    /// back-port arithmetic lives (payload and control envelopes must
    /// route identically).
    #[inline]
    pub fn resolve(&self, from: usize, port: usize) -> (usize, u32, u32) {
        let slot = self.offsets[from] as usize + port;
        let route = self.route[slot];
        let back = route.dest_slot - self.offsets[route.dest_node as usize];
        (slot, route.dest_node, back)
    }
}

/// One outgoing FIFO: the port's oldest message inline, and whatever
/// queues up behind it on a chain of chunks. 16 bytes plus one message.
///
/// The all-zero bit pattern is the empty queue (`NIL` links, zero
/// counts, `live == false`), so a port table can be allocated zeroed;
/// fresh zeroed pages are not touched until a port is first used.
#[derive(Debug)]
struct PortQ<M> {
    /// First chunk of the chain (`NIL` when empty).
    head: u32,
    /// Last chunk of the chain (`NIL` when empty).
    tail: u32,
    /// Queued message count, the inline one included.
    len: u32,
    /// Next slot to pop within `head`.
    head_off: u8,
    /// Next slot to fill within `tail`.
    tail_off: u8,
    /// Whether `first` holds a message.
    live: bool,
    /// The oldest queued message while `live`. A push fills it only on
    /// an empty queue, and a pop that empties it does not refill it from
    /// the chain, so it is always ahead of every chained message.
    first: MaybeUninit<M>,
}

impl<M> PortQ<M> {
    /// `n` empty queues.
    fn zeroed_table(n: usize) -> Box<[PortQ<M>]> {
        // SAFETY: all-zero is a valid `PortQ`: integers and `bool` accept
        // zero, and `first` is `MaybeUninit`.
        unsafe { Box::new_zeroed_slice(n).assume_init() }
    }
}

/// A pooled block of queue slots.
#[derive(Clone, Debug)]
struct Chunk<M> {
    slots: [Option<M>; CHUNK],
    next: u32,
}

impl<M> Chunk<M> {
    fn new() -> Self {
        Self { slots: std::array::from_fn(|_| None), next: NIL }
    }
}

/// Per-round delivery counters, merged into [`crate::Metrics`] after the
/// parallel phases join. All fields are commutative aggregates, so the
/// merge is independent of shard count — a determinism requirement.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Delta {
    pub messages: u64,
    pub bits: u64,
    pub max_bits: usize,
}

impl Delta {
    #[inline]
    fn record(&mut self, bits: usize) {
        self.messages += 1;
        self.bits += bits as u64;
        self.max_bits = self.max_bits.max(bits);
    }

    pub fn take(&mut self) -> Delta {
        std::mem::take(self)
    }
}

/// A set of per-port FIFOs: the queue half of the flat plane, shared by
/// every engine. The synchronous [`Shard`] embeds one per node range; the
/// asynchronous executor ([`crate::asynch`]) owns a single set covering
/// the whole port space — one queue implementation, three engines. The
/// element type is unconstrained: the α engine also reuses this machinery
/// for structures that queue things other than application messages (the
/// timing wheel's in-flight envelopes and the rotating per-pulse inboxes
/// — see [`crate::sched::EventWheel`]).
///
/// Each port's oldest message sits inline in its [`PortQ`] record; only
/// messages queued behind it go to the chunk slab shared by the set. A
/// port that carries one message at a time — the common case under
/// CONGEST — never touches the slab.
#[derive(Debug)]
pub(crate) struct PortQueues<M> {
    /// Queue state per local port.
    ports: Box<[PortQ<M>]>,
    /// Chunk slab shared by all queues of this set; chunk 0 is the `NIL`
    /// sentinel once the slab is in use.
    chunks: Vec<Chunk<M>>,
    /// Head of the free-chunk list.
    free_head: u32,
    /// Bitset over local ports with queued messages; scan order = port
    /// order = sender order.
    active: Vec<u64>,
    /// Total messages queued across the set (O(1) quiescence checks).
    queued: u64,
    /// Most messages ever queued at once — the occupancy high-water
    /// mark, surfaced to the observability plane.
    high_water: u64,
}

impl<M> PortQueues<M> {
    /// An empty queue set over `port_count` ports.
    pub fn new(port_count: usize) -> Self {
        Self {
            ports: PortQ::zeroed_table(port_count),
            chunks: Vec::new(),
            free_head: NIL,
            active: vec![0u64; port_count.div_ceil(64)],
            queued: 0,
            high_water: 0,
        }
    }

    /// Messages queued across all ports.
    #[inline]
    pub fn queued(&self) -> u64 {
        self.queued
    }

    /// Most messages ever queued at once over the set's lifetime.
    #[inline]
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Messages queued on local port `p`.
    #[inline]
    pub fn len(&self, p: u32) -> u32 {
        self.ports[p as usize].len
    }

    fn alloc_chunk(&mut self) -> u32 {
        if self.free_head != NIL {
            let c = self.free_head;
            self.free_head = self.chunks[c as usize].next;
            self.chunks[c as usize].next = NIL;
            c
        } else {
            if self.chunks.is_empty() {
                self.chunks.push(Chunk::new()); // the NIL sentinel
            }
            self.chunks.push(Chunk::new());
            (self.chunks.len() - 1) as u32
        }
    }

    /// Enqueues `msg` on local port `p`. Allocates only while the chunk
    /// pool is still growing toward the steady-state watermark.
    #[inline]
    pub fn push(&mut self, p: u32, msg: M) {
        let q = &mut self.ports[p as usize];
        if q.len == 0 {
            debug_assert!(!q.live && q.head == NIL);
            q.first.write(msg);
            q.live = true;
            q.len = 1;
            self.active[p as usize / 64] |= 1u64 << (p % 64);
        } else {
            q.len += 1;
            self.push_chain(p, msg);
        }
        self.queued += 1;
        self.high_water = self.high_water.max(self.queued);
    }

    /// Appends `msg` to port `p`'s chunk chain.
    fn push_chain(&mut self, p: u32, msg: M) {
        let q = &self.ports[p as usize];
        let (tail, tail_off) = if q.tail == NIL {
            let c = self.alloc_chunk();
            let q = &mut self.ports[p as usize];
            q.head = c;
            q.tail = c;
            q.head_off = 0;
            (c, 0u8)
        } else if q.tail_off as usize == CHUNK {
            let prev = q.tail;
            let c = self.alloc_chunk();
            self.chunks[prev as usize].next = c;
            self.ports[p as usize].tail = c;
            (c, 0u8)
        } else {
            (q.tail, q.tail_off)
        };
        self.chunks[tail as usize].slots[tail_off as usize] = Some(msg);
        self.ports[p as usize].tail_off = tail_off + 1;
    }

    /// Visits port `p`'s queued messages in FIFO order **without**
    /// draining them: the inline message, then the chunk chain from the
    /// head cursor. The interleaving explorer's state fingerprint hashes
    /// queue contents through this — destructive iteration would perturb
    /// the very state being identified.
    pub fn for_each(&self, p: u32, mut f: impl FnMut(&M)) {
        let q = &self.ports[p as usize];
        let mut remaining = q.len;
        if q.live {
            // SAFETY: `live` marks `first` as initialized.
            f(unsafe { q.first.assume_init_ref() });
            remaining -= 1;
        }
        let mut chunk = q.head;
        let mut off = q.head_off as usize;
        while remaining > 0 {
            let c = &self.chunks[chunk as usize];
            let msg = c.slots[off].as_ref().expect("queue cursor spans filled slots");
            f(msg);
            remaining -= 1;
            off += 1;
            if off == CHUNK && remaining > 0 {
                chunk = c.next;
                off = 0;
            }
        }
    }

    /// Number of ports in the set.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Dequeues from local port `p`: the inline message first, then the
    /// chain, recycling exhausted chunks. An empty port is recognised
    /// from the active bitset, without touching its record.
    #[inline]
    pub fn pop(&mut self, p: u32) -> Option<M> {
        if self.active[p as usize / 64] & (1u64 << (p % 64)) == 0 {
            return None;
        }
        let q = &mut self.ports[p as usize];
        q.len -= 1;
        let emptied = q.len == 0;
        let msg = if q.live {
            q.live = false;
            // SAFETY: `live` marked `first` as initialized; clearing it
            // hands the message over to this read.
            unsafe { q.first.assume_init_read() }
        } else {
            self.pop_chain(p)
        };
        if emptied {
            self.active[p as usize / 64] &= !(1u64 << (p % 64));
        }
        self.queued -= 1;
        Some(msg)
    }

    /// Takes the oldest message off port `p`'s chunk chain, whose length
    /// (after the pop) is the port's `len`.
    fn pop_chain(&mut self, p: u32) -> M {
        let q = &mut self.ports[p as usize];
        let msg = self.chunks[q.head as usize].slots[q.head_off as usize]
            .take()
            .expect("queue cursor points at a filled slot");
        q.head_off += 1;
        if q.len == 0 {
            // Return the whole (single remaining) chain to the free list.
            let (head, tail) = (q.head, q.tail);
            (q.head, q.tail, q.head_off, q.tail_off) = (NIL, NIL, 0, 0);
            self.chunks[tail as usize].next = self.free_head;
            self.free_head = head;
        } else if q.head_off as usize == CHUNK {
            let exhausted = q.head;
            q.head = self.chunks[exhausted as usize].next;
            q.head_off = 0;
            self.chunks[exhausted as usize].next = self.free_head;
            self.free_head = exhausted;
        }
        msg
    }
}

impl<M: Clone> Clone for PortQueues<M> {
    fn clone(&self) -> Self {
        let ports = self
            .ports
            .iter()
            .map(|q| {
                let first = if q.live {
                    // SAFETY: `live` marks `first` as initialized.
                    MaybeUninit::new(unsafe { q.first.assume_init_ref() }.clone())
                } else {
                    MaybeUninit::uninit()
                };
                PortQ { first, ..*q }
            })
            .collect();
        Self {
            ports,
            chunks: self.chunks.clone(),
            free_head: self.free_head,
            active: self.active.clone(),
            queued: self.queued,
            high_water: self.high_water,
        }
    }
}

impl<M> Drop for PortQueues<M> {
    /// Pops whatever is still queued: inline messages are not owned by
    /// any field that drops itself.
    fn drop(&mut self) {
        if !std::mem::needs_drop::<M>() {
            return;
        }
        for wi in 0..self.active.len() {
            while self.active[wi] != 0 {
                let p = (wi * 64) as u32 + self.active[wi].trailing_zeros();
                while self.pop(p).is_some() {}
            }
        }
    }
}

/// The message-plane state owned by one worker: the outgoing queues of a
/// contiguous node range, transfer buffers toward every receiver shard,
/// and the receiver-side bucket store.
#[derive(Debug)]
pub(crate) struct Shard<M> {
    /// First node of the range.
    pub node_lo: usize,
    /// One past the last node of the range.
    pub node_hi: usize,
    /// Global id of the first port in the range.
    pub port_lo: u32,
    /// The range's outgoing per-port FIFOs.
    pub queues: PortQueues<M>,
    /// Outgoing transfer buffers, one per receiver shard.
    pub out: Vec<Vec<Entry<M>>>,
    /// Incoming buffers, swapped in from the transfer cells each round
    /// (index = sender shard); reused, never copied.
    pub incoming: Vec<Vec<Entry<M>>>,
    /// Per-local-node message counts for the counting pass, then prefix-
    /// summed into bucket cursors.
    cursor: Vec<u32>,
    /// Per-local-node bucket start offsets into [`Self::bucket`]
    /// (`node_hi - node_lo + 1` entries once built).
    pub starts: Vec<u32>,
    /// The round's messages, bucketed by receiving node and sorted by
    /// `(port, train index)` within each bucket. Protocols step directly
    /// on these slices.
    pub bucket: Vec<(Port, M)>,
    /// This round's delivery counters.
    pub delta: Delta,
}

impl<M: Message> Shard<M> {
    /// An empty shard for nodes `node_lo..node_hi` with ports
    /// `port_lo..port_hi`, ready to fan out to `shard_count` shards.
    pub fn new(
        node_lo: usize,
        node_hi: usize,
        port_lo: u32,
        port_hi: u32,
        shard_count: usize,
    ) -> Self {
        let port_count = (port_hi - port_lo) as usize;
        let node_count = node_hi - node_lo;
        Self {
            node_lo,
            node_hi,
            port_lo,
            queues: PortQueues::new(port_count),
            out: (0..shard_count).map(|_| Vec::new()).collect(),
            incoming: (0..shard_count).map(|_| Vec::new()).collect(),
            cursor: vec![0u32; node_count],
            starts: vec![0u32; node_count + 1],
            bucket: Vec::new(),
            delta: Delta::default(),
        }
    }

    /// Messages queued across all ports of this shard.
    #[inline]
    pub fn queued(&self) -> u64 {
        self.queues.queued()
    }

    /// Enqueues `msg` on local port `p`.
    #[cfg(test)]
    pub fn push(&mut self, p: u32, msg: M) {
        self.queues.push(p, msg);
    }

    /// Dequeues from local port `p`.
    #[cfg(test)]
    pub fn pop(&mut self, p: u32) -> Option<M> {
        self.queues.pop(p)
    }

    /// Delivery phase A: drains this shard's active ports — one message
    /// per port when `congest`, whole queues otherwise — routing each
    /// message into the transfer buffer of its destination shard and
    /// metering it in [`Self::delta`].
    pub fn drain_active(&mut self, topo: &Topology, congest: bool) {
        for wi in 0..self.queues.active.len() {
            // Pops may clear bits of the word being scanned; the snapshot
            // is taken before any pop of this word, so each active port is
            // visited exactly once, in port order.
            let mut word = self.queues.active[wi];
            while word != 0 {
                let p = (wi * 64) as u32 + word.trailing_zeros();
                word &= word - 1;
                let route = topo.route[(self.port_lo + p) as usize];
                let mut k: u64 = 0;
                while let Some(msg) = self.queues.pop(p) {
                    self.delta.record(msg.bit_size());
                    self.out[route.dest_shard as usize].push((
                        (u64::from(route.dest_slot) << 32) | k,
                        route.dest_node,
                        msg,
                    ));
                    if congest {
                        break;
                    }
                    k += 1;
                }
            }
        }
    }

    /// Single-shard fast path: delivers straight from the port queues
    /// into the bucket store, touching each payload exactly once (no
    /// transfer-buffer round trip).
    ///
    /// Pass 1 counts deliverable messages per receiving node without
    /// reading any payload (one per active port under `congest`, the
    /// whole queue length otherwise); after a prefix sum, pass 2 pops
    /// each message and writes `(port, msg)` directly at its bucket
    /// cursor. No sort is needed: senders are visited in slot order and
    /// every node's neighbour list is sorted, so a receiver's ports
    /// arrive in increasing order, and a LOCAL train drains
    /// consecutively. The result is identical to `drain_active` +
    /// `bucket_incoming` — same canonical per-bucket order, same metering
    /// — with half the memory traffic.
    pub fn deliver_direct(&mut self, topo: &Topology, congest: bool) {
        debug_assert_eq!(self.node_lo, 0, "direct delivery requires the single-shard layout");

        let node_count = self.node_hi - self.node_lo;
        self.cursor[..node_count].fill(0);
        let mut total = 0usize;
        for wi in 0..self.queues.active.len() {
            let mut word = self.queues.active[wi];
            while word != 0 {
                let p = (wi * 64) as u32 + word.trailing_zeros();
                word &= word - 1;
                let route = topo.route[(self.port_lo + p) as usize];
                let deliverable = if congest { 1 } else { self.queues.len(p) };
                self.cursor[route.dest_node as usize] += deliverable;
                total += deliverable as usize;
            }
        }

        let mut acc = 0u32;
        for i in 0..node_count {
            self.starts[i] = acc;
            acc += self.cursor[i];
            self.cursor[i] = self.starts[i];
        }
        self.starts[node_count] = acc;
        debug_assert_eq!(acc as usize, total);

        self.bucket.clear();
        self.bucket.reserve(total);
        let bucket_ptr = self.bucket.as_mut_ptr();
        let mut placed = 0usize;
        for wi in 0..self.queues.active.len() {
            let mut word = self.queues.active[wi];
            while word != 0 {
                let p = (wi * 64) as u32 + word.trailing_zeros();
                word &= word - 1;
                let route = topo.route[(self.port_lo + p) as usize];
                let port = (route.dest_slot - topo.offsets[route.dest_node as usize]) as usize;
                let local = route.dest_node as usize;
                while let Some(msg) = self.queues.pop(p) {
                    self.delta.record(msg.bit_size());
                    let pos = self.cursor[local];
                    self.cursor[local] = pos + 1;
                    placed += 1;
                    debug_assert!((pos as usize) < total);
                    // SAFETY: pos < total <= capacity; the prefix-summed
                    // cursors make positions distinct across the loop.
                    unsafe { std::ptr::write(bucket_ptr.add(pos as usize), (port, msg)) };
                    if congest {
                        break;
                    }
                }
            }
        }
        debug_assert_eq!(placed, total);
        // SAFETY: all `total` positions were just initialized (`placed`
        // equals `total`: pass 2 pops exactly what pass 1 counted).
        unsafe { self.bucket.set_len(total) };
        debug_assert!((0..node_count).all(|i| {
            let bucket = &self.bucket[self.starts[i] as usize..self.starts[i + 1] as usize];
            bucket.windows(2).all(|w| w[0].0 <= w[1].0)
        }));
    }

    /// Delivery phase B: buckets this round's incoming messages by
    /// receiving node and sorts each bucket into canonical order.
    ///
    /// Three linear passes (count, prefix-sum, place) move each payload
    /// exactly once; the per-bucket `sort_unstable` then runs on one
    /// node's messages at a time — small and cache-resident — with keys
    /// `(port << 32) | train index` that are unique within a round, so
    /// the result is deterministic regardless of shard count or buffer
    /// drain order. After this call, node `node_lo + i`'s inbox is
    /// `bucket[starts[i]..starts[i + 1]]` with the key field rewritten to
    /// the plain port.
    pub fn bucket_incoming(&mut self, topo: &Topology) {
        const {
            assert!(usize::BITS == 64, "bucket keys pack (port, k) into usize");
        }

        let node_count = self.node_hi - self.node_lo;
        self.cursor[..node_count].fill(0);
        let mut total = 0usize;
        for buf in &self.incoming {
            total += buf.len();
            for &(_, dest_node, _) in buf.iter() {
                self.cursor[dest_node as usize - self.node_lo] += 1;
            }
        }

        // Prefix sums: starts[i] = bucket offset of local node i.
        let mut acc = 0u32;
        for i in 0..node_count {
            self.starts[i] = acc;
            acc += self.cursor[i];
            self.cursor[i] = self.starts[i];
        }
        self.starts[node_count] = acc;
        debug_assert_eq!(acc as usize, total);

        // Place every message exactly once into its bucket range. The
        // buffers' lengths are zeroed before the raw reads so an unwind
        // can at worst leak the tail, never double-drop; the writes go to
        // `bucket`'s spare capacity and `set_len` runs only after every
        // position 0..total has been written (the prefix-summed cursors
        // enumerate each position exactly once).
        self.bucket.clear();
        self.bucket.reserve(total);
        let bucket_ptr = self.bucket.as_mut_ptr();
        for buf in &mut self.incoming {
            let len = buf.len();
            // SAFETY: shrinking only; elements are moved out below.
            unsafe { buf.set_len(0) };
            let src = buf.as_ptr();
            for i in 0..len {
                // SAFETY: `i` is below the pre-`set_len` length, and each
                // element is read exactly once across the loop.
                let (key, dest_node, msg) = unsafe { std::ptr::read(src.add(i)) };
                let local = dest_node as usize - self.node_lo;
                let slot = (key >> 32) as u32;
                let port = (slot - topo.offsets[dest_node as usize]) as usize;
                let packed = (port << 32) | (key as u32 as usize);
                let pos = self.cursor[local];
                self.cursor[local] = pos + 1;
                debug_assert!((pos as usize) < total);
                // SAFETY: pos < total <= capacity, and positions are
                // distinct across the loop (see above).
                unsafe { std::ptr::write(bucket_ptr.add(pos as usize), (packed, msg)) };
            }
        }
        // SAFETY: all `total` positions were just initialized.
        unsafe { self.bucket.set_len(total) };

        // Canonicalize each bucket and strip keys down to ports.
        for i in 0..node_count {
            let range = self.starts[i] as usize..self.starts[i + 1] as usize;
            let slice = &mut self.bucket[range];
            slice.sort_unstable_by_key(|e| e.0);
            for e in slice {
                e.0 >>= 32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Ping;
    use graphs::GraphBuilder;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn shard_for(ports: u32) -> Shard<Ping> {
        Shard::new(0, 1, 0, ports, 1)
    }

    #[test]
    fn fifo_per_port_across_chunks() {
        #[derive(Clone, Debug)]
        struct N(usize);
        impl Message for N {
            fn bit_size(&self) -> usize {
                8
            }
        }
        let mut s: Shard<N> = Shard::new(0, 1, 0, 2, 1);
        for i in 0..3 * CHUNK {
            s.push(0, N(i));
        }
        s.push(1, N(999));
        assert_eq!(s.queued(), 3 * CHUNK as u64 + 1);
        for i in 0..3 * CHUNK {
            assert_eq!(s.pop(0).unwrap().0, i);
        }
        assert!(s.pop(0).is_none());
        assert_eq!(s.pop(1).unwrap().0, 999);
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn chunks_recycle_no_unbounded_growth() {
        let mut s = shard_for(1);
        for _ in 0..100 {
            for _ in 0..2 * CHUNK {
                s.push(0, Ping);
            }
            while s.pop(0).is_some() {}
        }
        // Steady state: the pool high-water mark is one burst's worth.
        assert!(s.queues.chunks.len() <= 3, "pool grew to {} chunks", s.queues.chunks.len());
    }

    #[test]
    fn active_bits_track_queues() {
        let mut s = shard_for(130);
        s.push(0, Ping);
        s.push(129, Ping);
        assert_eq!(s.queues.active[0], 1);
        assert_eq!(s.queues.active[2], 0b10);
        s.pop(0);
        assert_eq!(s.queues.active[0], 0);
        s.pop(129);
        assert_eq!(s.queues.active[2], 0);
    }

    #[test]
    fn port_record_of_a_zero_sized_message_is_16_bytes() {
        assert_eq!(std::mem::size_of::<PortQ<Ping>>(), 16);
    }

    #[test]
    fn every_queued_message_drops_exactly_once() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Clone)]
        struct Tracked(usize, Rc<RefCell<Vec<usize>>>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.1.borrow_mut().push(self.0);
            }
        }

        let log = Rc::new(RefCell::new(Vec::new()));
        let mut q: PortQueues<Tracked> = PortQueues::new(130);
        let mut id = 0;
        // Inline only (port 0), inline plus a chain (port 1), a chain over
        // several chunks (port 2), a port in the third bitset word (129).
        for (port, count) in [(0, 1), (1, 3), (2, 3 * CHUNK + 2), (129, 2), (3, 2)] {
            for _ in 0..count {
                q.push(port, Tracked(id, Rc::clone(&log)));
                id += 1;
            }
        }
        // Port 3: an emptied inline slot ahead of a non-empty chain.
        let popped = q.pop(3).expect("queued").0;
        // Port 2: one chunk exhausted and recycled.
        let popped_chain: Vec<usize> =
            (0..CHUNK + 1).map(|_| q.pop(2).expect("queued").0).collect();
        let queued: Vec<usize> =
            (0..id).filter(|i| *i != popped && !popped_chain.contains(i)).collect();
        assert_eq!(q.queued(), queued.len() as u64);

        let count = |log: &Rc<RefCell<Vec<usize>>>, i: usize| {
            log.borrow().iter().filter(|&&d| d == i).count()
        };
        assert!((0..id).all(|i| count(&log, i) == usize::from(!queued.contains(&i))));

        let copy = q.clone();
        drop(copy);
        assert!((0..id).all(|i| count(&log, i) == 1), "clone drops each of its messages once");
        drop(q);
        for i in 0..id {
            assert_eq!(count(&log, i), 1 + usize::from(queued.contains(&i)), "message {i}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `PortQueues` against a model of one `VecDeque` per port, over
        /// random push / pop / drain sequences: FIFO order, `len`,
        /// `queued`, `high_water`, `for_each` order and the active
        /// bitset, including refills of emptied ports. A few hot ports
        /// spread over the whole range make chains longer than a chunk
        /// and reach every bitset word.
        #[test]
        fn port_queues_match_a_vecdeque_model(
            ports in 1u32..140,
            hot in 1u32..6,
            ops in proptest::collection::vec((0u32..10, 0u32..1000), 0..600),
        ) {
            let mut q: PortQueues<u64> = PortQueues::new(ports as usize);
            let mut model: Vec<VecDeque<u64>> = vec![VecDeque::new(); ports as usize];
            let (mut next, mut high_water) = (0u64, 0usize);
            for (kind, raw) in ops {
                let p = (raw % hot) * ports / hot;
                let model_p = &mut model[p as usize];
                match kind {
                    0..=5 => {
                        q.push(p, next);
                        model_p.push_back(next);
                        next += 1;
                    }
                    6..=8 => prop_assert_eq!(q.pop(p), model_p.pop_front()),
                    _ => {
                        while let Some(msg) = q.pop(p) {
                            prop_assert_eq!(Some(msg), model_p.pop_front());
                        }
                        prop_assert!(model_p.is_empty());
                    }
                }
                let total: usize = model.iter().map(VecDeque::len).sum();
                high_water = high_water.max(total);
                prop_assert_eq!(q.queued(), total as u64);
                prop_assert_eq!(q.high_water(), high_water as u64);
                for (port, want) in model.iter().enumerate() {
                    let port = port as u32;
                    prop_assert_eq!(q.len(port) as usize, want.len());
                    let active = q.active[port as usize / 64] >> (port % 64) & 1 == 1;
                    prop_assert_eq!(active, !want.is_empty());
                    let mut seen = Vec::new();
                    q.for_each(port, |&m| seen.push(m));
                    prop_assert!(seen.iter().eq(want.iter()), "port {}: {:?} vs {:?}", port, seen, want);
                }
            }
        }
    }

    #[test]
    fn topology_routes_both_directions() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        let topo = Topology::build(&g, 2, 2);
        // Node 0 port 0 → node 1 port 0; node 1 has ports 1 (to 0) and 2
        // (to 2); node 2 port 3 (to 1).
        assert_eq!(topo.offsets.as_ref(), &[0, 1, 3, 4]);
        let dest_slots: Vec<u32> = topo.route.iter().map(|r| r.dest_slot).collect();
        let dest_nodes: Vec<u32> = topo.route.iter().map(|r| r.dest_node).collect();
        let dest_shards: Vec<u16> = topo.route.iter().map(|r| r.dest_shard).collect();
        assert_eq!(dest_slots, vec![1, 0, 3, 2]);
        assert_eq!(dest_nodes, vec![1, 0, 2, 1]);
        // chunk = 2: nodes 0..2 in shard 0, node 2 in shard 1.
        assert_eq!(dest_shards, vec![0, 0, 1, 0]);
    }

    #[test]
    fn stream_build_matches_graph_build() {
        use graphs::generators::{GnpStream, VecEdgeStream};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        fn assert_same(a: &Topology, b: &Topology) {
            assert_eq!(a.offsets, b.offsets);
            assert_eq!(a.route.len(), b.route.len());
            for (x, y) in a.route.iter().zip(b.route.iter()) {
                assert_eq!(
                    (x.dest_slot, x.dest_node, x.dest_shard),
                    (y.dest_slot, y.dest_node, y.dest_shard)
                );
            }
        }

        // The hand-checked 3-node path, on the uneven 2-shard split.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        let mut s = VecEdgeStream::from_graph(&g);
        assert_same(&Topology::build(&g, 2, 2), &Topology::build_from_stream(&mut s, 2, 2));

        // A random instance, via the public constructors (same chunk rule).
        let (n, p, seed) = (80, 0.1, 9u64);
        let g = graphs::generators::gnp(n, p, &mut StdRng::seed_from_u64(seed));
        let mut s = GnpStream::new(n, p, seed);
        for shards in [1, 3] {
            assert_same(
                &Topology::from_graph(&g, shards),
                &Topology::from_edge_stream(&mut s, shards),
            );
        }
        assert_eq!(Topology::from_graph(&g, 1).heap_bytes(), 4 * (n + 1) + 12 * 2 * g.edge_count());
    }

    #[test]
    #[should_panic(expected = "strictly lexicographically sorted")]
    fn stream_build_rejects_unsorted_replay() {
        struct Unsorted(usize);
        impl EdgeStream for Unsorted {
            fn node_count(&self) -> usize {
                3
            }
            fn reset(&mut self) {
                self.0 = 0;
            }
            fn next_edge(&mut self) -> Option<(usize, usize)> {
                self.0 += 1;
                match self.0 {
                    1 => Some((1, 2)),
                    2 => Some((0, 1)),
                    _ => None,
                }
            }
        }
        let _ = Topology::build_from_stream(&mut Unsorted(0), 3, 1);
    }

    #[test]
    fn drain_congest_takes_one_per_port() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let g = b.build();
        let topo = Topology::build(&g, 2, 1);
        let mut s: Shard<Ping> = Shard::new(0, 2, 0, 2, 1);
        s.push(0, Ping);
        s.push(0, Ping);
        s.drain_active(&topo, true);
        assert_eq!(s.out[0].len(), 1);
        assert_eq!(s.queued(), 1);
        s.drain_active(&topo, false);
        assert_eq!(s.out[0].len(), 2);
        assert_eq!(s.queued(), 0);
        // Keys: dest slot 1 on node 1, train indices 0 then 0 (separate
        // rounds).
        assert_eq!(s.out[0][0].0, 1u64 << 32);
        assert_eq!(s.out[0][0].1, 1);
        assert_eq!(s.out[0][1].0, 1u64 << 32);
    }

    #[test]
    fn buckets_order_by_port_then_train() {
        #[derive(Clone, Debug)]
        struct N(u32);
        impl Message for N {
            fn bit_size(&self) -> usize {
                8
            }
        }
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        let topo = Topology::build(&g, 3, 1);
        let mut s: Shard<N> = Shard::new(0, 3, 0, 4, 1);
        // Deliveries to node 1 (slots 1 and 2), arriving out of order.
        s.incoming[0].push(((2u64 << 32) | 1, 1, N(31)));
        s.incoming[0].push((1u64 << 32, 1, N(10)));
        s.incoming[0].push((2u64 << 32, 1, N(30)));
        s.bucket_incoming(&topo);
        assert_eq!(s.starts[..4], [0, 0, 3, 3]);
        let got: Vec<(usize, u32)> = s.bucket.iter().map(|(p, m)| (*p, m.0)).collect();
        assert_eq!(got, vec![(0, 10), (1, 30), (1, 31)]);
        assert!(s.incoming[0].is_empty(), "incoming buffer drained");
    }
}
