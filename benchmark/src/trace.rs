//! Bench-side tracing: delegating wrappers around the public protocol,
//! message and link traits that count and time every call into a layer.
//!
//! Nothing here changes behaviour. Every wrapper forwards each call
//! unchanged (including `Words::urgent` and `Words::wire_bytes`), so a
//! traced run sends the same messages, words and bytes as an untraced
//! one; the harness checks this bit for bit on `replay` and `faults`.
//!
//! Counters live in a thread-local table and are folded into a global
//! table when the thread exits (or, for the calling thread, on
//! [`flush`]). Each timed call keeps a frame on a thread-local stack, so
//! a layer's *self* time is its call time minus the timed calls nested
//! inside it. Full spans are kept for a sampled 1-in-[`SPAN_EVERY`] of
//! the elements each thread sees.

use std::cell::RefCell;
use std::ops::Deref;
use std::sync::Mutex;
use std::time::Instant;

use dtrack_core::window::EpochProtocol;
use dtrack_sim::exec::TreeProtocol;
use dtrack_sim::transport::{CoordEvent, SiteEvent};
use dtrack_sim::wire::{WireError, WireReader, WireWriter};
use dtrack_sim::{
    CoordLink, Coordinator, Decode, Dest, Encode, Net, Outbox, Protocol, Site, SiteId, SiteLink,
    Words,
};

/// One element in this many has its full span tree kept.
pub const SPAN_EVERY: u64 = 4096;
/// Spans kept per process at most (the buffer is bounded).
const SPAN_CAP: usize = 200_000;

/// Every timed call site. `Bank`-indexed entries come in pairs: bank 0
/// is the protocol itself, bank 1 a wrapper layer around it (the
/// window or tree adapter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Id {
    SiteOnItem0,
    SiteOnItem1,
    SiteOnMessage0,
    SiteOnMessage1,
    CoordOnMessage0,
    CoordOnMessage1,
    Publish,
    WireBytes,
    Encode,
    Decode,
    ExecFeed,
    ExecQuiesce,
    Read,
    SendUp,
    SendDown,
    RecvWait,
}

/// Number of [`Id`]s.
pub const IDS: usize = Id::RecvWait as usize + 1;

impl Id {
    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            Id::SiteOnItem0 => "core.site.on_item",
            Id::SiteOnItem1 => "wrapper.site.on_item",
            Id::SiteOnMessage0 => "core.site.on_message",
            Id::SiteOnMessage1 => "wrapper.site.on_message",
            Id::CoordOnMessage0 => "core.coord.on_message",
            Id::CoordOnMessage1 => "wrapper.coord.on_message",
            Id::Publish => "sim.snapshot.publish",
            Id::WireBytes => "sim.message.wire_bytes",
            Id::Encode => "sim.wire.encode",
            Id::Decode => "sim.wire.decode",
            Id::ExecFeed => "exec.feed",
            Id::ExecQuiesce => "exec.quiesce",
            Id::Read => "sim.snapshot.read",
            Id::SendUp => "sim.transport.send_up",
            Id::SendDown => "sim.transport.send_down",
            Id::RecvWait => "sim.transport.recv",
        }
    }

    /// Calls of these ids nested inside a call of the same id are not
    /// timed again (a window message wraps an inner traced message).
    fn outermost_only(self) -> bool {
        matches!(self, Id::Publish | Id::WireBytes | Id::Encode | Id::Decode)
    }

    fn site_on_item(bank: usize) -> Id {
        [Id::SiteOnItem0, Id::SiteOnItem1][bank]
    }
    fn site_on_message(bank: usize) -> Id {
        [Id::SiteOnMessage0, Id::SiteOnMessage1][bank]
    }
    fn coord_on_message(bank: usize) -> Id {
        [Id::CoordOnMessage0, Id::CoordOnMessage1][bank]
    }
}

/// Call counts and times per [`Id`].
#[derive(Debug, Clone, Copy)]
pub struct Totals {
    pub calls: [u64; IDS],
    pub total_ns: [u64; IDS],
    pub self_ns: [u64; IDS],
    /// Bytes written by timed `Encode` calls.
    pub encoded_bytes: u64,
}

impl Default for Totals {
    fn default() -> Self {
        Self {
            calls: [0; IDS],
            total_ns: [0; IDS],
            self_ns: [0; IDS],
            encoded_bytes: 0,
        }
    }
}

impl Totals {
    /// The calls made between `earlier` and `self`.
    pub fn since(&self, earlier: &Totals) -> Totals {
        let mut d = *self;
        for i in 0..IDS {
            d.calls[i] -= earlier.calls[i];
            d.total_ns[i] -= earlier.total_ns[i];
            d.self_ns[i] -= earlier.self_ns[i];
        }
        d.encoded_bytes -= earlier.encoded_bytes;
        d
    }

    pub fn add(&mut self, o: &Totals) {
        for i in 0..IDS {
            self.calls[i] += o.calls[i];
            self.total_ns[i] += o.total_ns[i];
            self.self_ns[i] += o.self_ns[i];
        }
        self.encoded_bytes += o.encoded_bytes;
    }

    pub fn calls(&self, id: Id) -> u64 {
        self.calls[id as usize]
    }
    pub fn total_ns(&self, id: Id) -> u64 {
        self.total_ns[id as usize]
    }
    pub fn self_ns(&self, id: Id) -> u64 {
        self.self_ns[id as usize]
    }
    /// Mean call time in ns (0 when never called).
    pub fn mean_ns(&self, id: Id) -> f64 {
        let c = self.calls(id);
        if c == 0 {
            0.0
        } else {
            self.total_ns(id) as f64 / c as f64
        }
    }
}

/// One recorded span. Times are ns since the process's trace epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub elem: u64,
    pub thread: u64,
}

struct Frame {
    id: Id,
    start: Instant,
    child_ns: u64,
    span: u64,
    /// Record this span: it belongs to a sampled element, or encloses
    /// a span that does.
    keep: bool,
}

struct Local {
    totals: Totals,
    stack: Vec<Frame>,
    active: [u32; IDS],
    /// Elements this thread has started (outermost `on_item` calls).
    elem: u64,
    site_depth: u32,
    spans: Vec<Span>,
    next_span: u64,
    thread: u64,
}

impl Local {
    fn sampled(&self) -> bool {
        self.elem % SPAN_EVERY == 1
    }

    fn fold(&mut self) {
        let mut g = global();
        g.0.add(&self.totals);
        let room = SPAN_CAP.saturating_sub(g.1.len());
        let take = self.spans.len().min(room);
        g.1.extend(self.spans.drain(..take));
        self.spans.clear();
        self.totals = Totals::default();
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.fold();
    }
}

static GLOBAL: Mutex<(Totals, Vec<Span>)> = Mutex::new((
    Totals {
        calls: [0; IDS],
        total_ns: [0; IDS],
        self_ns: [0; IDS],
        encoded_bytes: 0,
    },
    Vec::new(),
));

fn global() -> std::sync::MutexGuard<'static, (Totals, Vec<Span>)> {
    // A thread that panicked mid-fold leaves whole counters behind;
    // the totals stay usable.
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
static THREADS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        totals: Totals::default(),
        stack: Vec::with_capacity(16),
        active: [0; IDS],
        elem: 0,
        site_depth: 0,
        spans: Vec::new(),
        next_span: 1,
        thread: THREADS.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
    });
}

/// Fold the calling thread's counters and spans into the global table.
/// Other threads fold theirs when they exit.
pub fn flush() {
    LOCAL.with(|l| l.borrow_mut().fold());
}

/// Global totals so far (call [`flush`] first, after every traced
/// thread has been joined).
pub fn totals() -> Totals {
    global().0
}

/// Take the recorded spans out of the global buffer.
pub fn take_spans() -> Vec<Span> {
    std::mem::take(&mut global().1)
}

/// Reset the global table (between the untraced and traced phases).
pub fn reset() {
    flush();
    let mut g = global();
    g.0 = Totals::default();
    g.1.clear();
}

/// A timed call: dropped at the end of the call.
pub struct Scope {
    live: bool,
}

/// Start timing a call of `id` on this thread.
pub fn scope(id: Id) -> Scope {
    let _ = epoch();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if id.outermost_only() && l.active[id as usize] > 0 {
            return Scope { live: false };
        }
        l.active[id as usize] += 1;
        let span = l.next_span;
        l.next_span += 1;
        let keep = l.sampled();
        l.stack.push(Frame {
            id,
            start: Instant::now(),
            child_ns: 0,
            span,
            keep,
        });
        Scope { live: true }
    })
}

impl Drop for Scope {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let end = Instant::now();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            // Every live scope pushed exactly one frame.
            let Some(f) = l.stack.pop() else { return };
            let dur = end.duration_since(f.start).as_nanos() as u64;
            let i = f.id as usize;
            l.active[i] -= 1;
            l.totals.calls[i] += 1;
            l.totals.total_ns[i] += dur;
            l.totals.self_ns[i] += dur.saturating_sub(f.child_ns);
            let parent = l.stack.last().map_or(0, |p| p.span);
            if let Some(p) = l.stack.last_mut() {
                p.child_ns += dur;
                p.keep |= f.keep;
            }
            if f.keep && l.spans.len() < SPAN_CAP {
                let ep = epoch();
                let span = Span {
                    id: f.span,
                    parent,
                    name: f.id.name(),
                    start_ns: f.start.duration_since(ep).as_nanos() as u64,
                    end_ns: end.duration_since(ep).as_nanos() as u64,
                    elem: l.elem,
                    thread: l.thread,
                };
                l.spans.push(span);
            }
        });
    }
}

/// Marks the start of an element on this thread (outermost site
/// `on_item` only), for span sampling.
fn enter_item() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.site_depth == 0 {
            l.elem += 1;
        }
        l.site_depth += 1;
    });
}

fn leave_item() {
    LOCAL.with(|l| l.borrow_mut().site_depth -= 1);
}

fn add_encoded(bytes: usize) {
    LOCAL.with(|l| l.borrow_mut().totals.encoded_bytes += bytes as u64);
}

// ---------------------------------------------------------------------
// Protocol wrapper.
// ---------------------------------------------------------------------

/// Delegating protocol wrapper. `B` is the counter bank: 0 for the
/// protocol, 1 for a window or tree adapter wrapped around a bank-0
/// protocol.
#[derive(Debug, Clone)]
pub struct Traced<P, const B: usize>(pub P);

/// Delegating message wrapper: times `wire_bytes`, `encode`, `decode`.
#[derive(Debug, Clone, PartialEq)]
pub struct TMsg<M>(pub M);

impl<M: Words> Words for TMsg<M> {
    fn words(&self) -> u64 {
        self.0.words()
    }
    fn urgent(&self) -> bool {
        self.0.urgent()
    }
    fn wire_bytes(&self) -> u64 {
        let _t = scope(Id::WireBytes);
        self.0.wire_bytes()
    }
}

impl<M: Encode> Encode for TMsg<M> {
    fn encode(&self, w: &mut WireWriter) {
        let before = w.len();
        let t = scope(Id::Encode);
        self.0.encode(w);
        if t.live {
            add_encoded(w.len() - before);
        }
    }
}

impl<M: Decode> Decode for TMsg<M> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let _t = scope(Id::Decode);
        M::decode(r).map(TMsg)
    }
}

/// Traced site.
pub struct TSite<S: Site, const B: usize> {
    inner: S,
    out: Outbox<S::Up>,
}

impl<S: Site, const B: usize> Site for TSite<S, B> {
    type Item = S::Item;
    type Up = TMsg<S::Up>;
    type Down = TMsg<S::Down>;

    fn on_item(&mut self, item: &S::Item, out: &mut Outbox<TMsg<S::Up>>) {
        enter_item();
        {
            let _t = scope(Id::site_on_item(B));
            self.inner.on_item(item, &mut self.out);
        }
        leave_item();
        for m in self.out.drain() {
            out.send(TMsg(m));
        }
    }

    fn on_message(&mut self, msg: &TMsg<S::Down>, out: &mut Outbox<TMsg<S::Up>>) {
        {
            let _t = scope(Id::site_on_message(B));
            self.inner.on_message(&msg.0, &mut self.out);
        }
        for m in self.out.drain() {
            out.send(TMsg(m));
        }
    }

    fn space_words(&self) -> u64 {
        self.inner.space_words()
    }
}

impl<S: Site + Clone, const B: usize> Clone for TSite<S, B> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
            out: Outbox::new(),
        }
    }
}

/// Traced coordinator. Its `Clone` is the snapshot publish.
pub struct TCoord<C: Coordinator, const B: usize> {
    inner: C,
    net: Net<C::Down>,
}

impl<C: Coordinator, const B: usize> TCoord<C, B> {
    fn new(inner: C) -> Self {
        Self {
            inner,
            net: Net::new(),
        }
    }
}

impl<C: Coordinator, const B: usize> Deref for TCoord<C, B> {
    type Target = C;
    fn deref(&self) -> &C {
        &self.inner
    }
}

impl<C: Coordinator + Clone, const B: usize> Clone for TCoord<C, B> {
    fn clone(&self) -> Self {
        let _t = scope(Id::Publish);
        Self::new(self.inner.clone())
    }
}

impl<C: Coordinator, const B: usize> Coordinator for TCoord<C, B> {
    type Up = TMsg<C::Up>;
    type Down = TMsg<C::Down>;

    fn on_message(&mut self, from: SiteId, msg: &TMsg<C::Up>, net: &mut Net<TMsg<C::Down>>) {
        {
            let _t = scope(Id::coord_on_message(B));
            self.inner.on_message(from, &msg.0, &mut self.net);
        }
        for (dest, d) in self.net.drain() {
            match dest {
                Dest::Site(to) => net.send(to, TMsg(d)),
                Dest::Broadcast => net.broadcast(TMsg(d)),
            }
        }
    }
}

impl<P: Protocol, const B: usize> Protocol for Traced<P, B> {
    type Site = TSite<P::Site, B>;
    type Coord = TCoord<P::Coord, B>;

    fn k(&self) -> usize {
        self.0.k()
    }

    fn build(&self, master_seed: u64) -> (Vec<Self::Site>, Self::Coord) {
        let (sites, coord) = self.0.build(master_seed);
        let sites = sites
            .into_iter()
            .map(|inner| TSite {
                inner,
                out: Outbox::new(),
            })
            .collect();
        (sites, TCoord::new(coord))
    }

    fn build_site(&self, master_seed: u64, me: SiteId) -> Self::Site {
        TSite {
            inner: self.0.build_site(master_seed, me),
            out: Outbox::new(),
        }
    }

    fn build_coord(&self, master_seed: u64) -> Self::Coord {
        TCoord::new(self.0.build_coord(master_seed))
    }
}

impl<P: EpochProtocol, const B: usize> EpochProtocol for Traced<P, B> {
    type Digest = P::Digest;

    fn digest(coord: &Self::Coord) -> P::Digest {
        P::digest(&coord.inner)
    }

    fn merge(a: P::Digest, b: &P::Digest) -> P::Digest {
        P::merge(a, b)
    }
}

impl<P: TreeProtocol, const B: usize> TreeProtocol for Traced<P, B> {
    type Cursor = P::Cursor;

    fn level_instance(&self, children: usize, eps_factor: f64) -> Self {
        Traced(self.0.level_instance(children, eps_factor))
    }

    fn restream(
        coord: &Self::Coord,
        cursor: &mut P::Cursor,
        emit: &mut dyn FnMut(&<Self::Site as Site>::Item),
    ) {
        P::restream(&coord.inner, cursor, emit)
    }
}

// ---------------------------------------------------------------------
// Link wrappers.
// ---------------------------------------------------------------------

/// Delegating site link: times `send_up`.
pub struct TSiteLink<L>(pub L);

impl<U, D, L: SiteLink<U, D>> SiteLink<U, D> for TSiteLink<L> {
    fn send_up(&mut self, up: U, urgent: bool) -> std::io::Result<()> {
        let _t = scope(Id::SendUp);
        self.0.send_up(up, urgent)
    }
    fn pong(&mut self, nonce: u64) -> std::io::Result<()> {
        self.0.pong(nonce)
    }
    fn eos(&mut self) -> std::io::Result<()> {
        self.0.eos()
    }
    fn try_recv(&mut self) -> Option<SiteEvent<D>> {
        self.0.try_recv()
    }
    fn recv(&mut self) -> Option<SiteEvent<D>> {
        self.0.recv()
    }
}

/// Delegating coordinator link: times `send_down` and the blocking
/// `recv` (time the coordinator waits for sites).
pub struct TCoordLink<L>(pub L);

impl<U, D, L: CoordLink<U, D>> CoordLink<U, D> for TCoordLink<L> {
    fn k(&self) -> usize {
        self.0.k()
    }
    fn send_down(&mut self, to: SiteId, down: D) -> std::io::Result<()> {
        let _t = scope(Id::SendDown);
        self.0.send_down(to, down)
    }
    fn ping(&mut self, nonce: u64) -> std::io::Result<()> {
        self.0.ping(nonce)
    }
    fn stop(&mut self) -> std::io::Result<()> {
        self.0.stop()
    }
    fn try_recv(&mut self) -> Option<CoordEvent<U>> {
        self.0.try_recv()
    }
    fn recv(&mut self) -> Option<CoordEvent<U>> {
        let _t = scope(Id::RecvWait);
        self.0.recv()
    }
}
