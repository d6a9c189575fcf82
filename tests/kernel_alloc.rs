//! Heap-allocation budget of the kernel's Summary-mode event loop: per
//! event the kernel may allocate at most the copy of a transmitted
//! packet's arrival, never a rendered line, a name, a routing scan or a
//! fresh action buffer.
//!
//! This file is its own test binary so that it can install a counting
//! global allocator.  Counts are per thread, so other tests and the
//! harness never leak into a measurement.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use sage_netsim::buffer::PacketBuf;
use sage_netsim::headers::{icmp, ipv4};
use sage_netsim::sim::{Ctx, Node, SimBuilder, Topology, TraceMode};

thread_local! {
    /// Allocations and reallocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations this thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn count_one() {
    // `try_with`: a thread tearing down its locals may still free memory.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// [`System`], plus a per-thread count of every allocation.
struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the count lives in a const-initialised
// thread-local `Cell` without a destructor, so counting never allocates or
// re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's guarantees about `layout` pass through to
    // `System::alloc` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    // SAFETY: the caller's guarantees about `layout` pass through to
    // `System::alloc_zeroed` unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr` came from this allocator, hence from `System`, with
    // `layout`; both pass through unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: `ptr` came from this allocator, hence from `System`, with
    // `layout`; both pass through unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const CLIENT: u32 = 0x0A00_0101;
const SERVER: u32 = 0x0A00_0102;

/// Re-sends one pre-built echo request per timer round; the clone it
/// sends is the handler's own allocation, tallied into `own`.
struct Resender {
    packet: PacketBuf,
    rounds: u32,
    sent: u32,
    own: Rc<Cell<u64>>,
}

impl Node for Resender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(1_000, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let before = allocations();
        let packet = self.packet.clone();
        self.own.set(self.own.get() + allocations() - before);
        ctx.send(packet);
        self.sent += 1;
        if self.sent < self.rounds {
            ctx.set_timer(1_000, token);
        }
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: &PacketBuf) {}
}

/// Terminates every packet it receives.
struct Sink;

impl Node for Sink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _packet: &PacketBuf) {
        ctx.deliver_local();
    }
}

/// Build and run a Summary-mode host pair for `rounds` rounds; returns
/// the allocations made by the kernel (the handlers' own subtracted) and
/// the events it recorded.
fn kernel_allocations(rounds: u32) -> (u64, u64) {
    let mut topo = Topology::named("alloc-pair");
    let client = topo.host("client", CLIENT, 24);
    let server = topo.host("server", SERVER, 24);
    topo.link(client, server, 500);
    let echo = icmp::build_echo(false, 1, 1, b"budget");
    let own = Rc::new(Cell::new(0));
    let mut sim = SimBuilder::new(topo);
    sim.trace_mode(TraceMode::Summary);
    sim.bind(
        client,
        Box::new(Resender {
            packet: ipv4::build_packet(CLIENT, SERVER, ipv4::PROTO_ICMP, 64, echo.as_bytes()),
            rounds,
            sent: 0,
            own: Rc::clone(&own),
        }),
    );
    sim.bind(server, Box::new(Sink));
    let before = allocations();
    let trace = sim.build().run();
    let total = allocations() - before;
    (total - own.get(), trace.summary.events_recorded)
}

#[test]
fn summary_mode_allocates_at_most_one_arrival_copy_per_round() {
    const ROUNDS: u32 = 1_000;
    // Set-up, route tables and the ring's first fill cost the same in
    // both runs, so the difference is the steady-state cost of ROUNDS.
    let (short_allocs, short_events) = kernel_allocations(ROUNDS);
    let (long_allocs, long_events) = kernel_allocations(2 * ROUNDS);
    let events = long_events - short_events;
    assert_eq!(
        events,
        4 * u64::from(ROUNDS),
        "a round is timer, originate, deliver and deliver-local"
    );
    let per_event = long_allocs.saturating_sub(short_allocs) as f64 / events as f64;
    assert!(
        per_event <= 0.25,
        "{per_event:.3} kernel allocations per event; the budget is one \
         arrival copy per four-event round (0.25)"
    );
}
