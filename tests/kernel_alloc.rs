//! Heap-allocation budgets: per event the kernel's Summary-mode event loop
//! may allocate at most the copy of a transmitted packet's arrival, never a
//! rendered line, a name, a routing scan or a fresh action buffer;
//! rendering a Full-mode trace allocates only to grow its one buffer; and
//! handing out a generated adapter reuses the registry's lowering instead
//! of copying and re-lowering the program.
//!
//! Session packets have budgets too.  Every header builder allocates
//! exactly once (its buffer, sized for header and payload); the
//! field-omitting checksum and the UDP checksum allocate nothing; the UDP
//! reader allocates at most the copy of the payload it returns.  Per
//! protocol, after a warm-up packet, a soak client's request costs at
//! most 3 allocations and a soak server's reply at most 4, on the
//! contained generated service and on the reference service alike.
//!
//! The chunker's dictionary probes allocate nothing: after a warm-up call,
//! chunking a sentence costs at most 3 allocations per returned phrase
//! (the list its text is joined from, the text and its lower-cased copy)
//! plus 10 (the tag and
//! phrase vectors and the one probe buffer), however many candidate spans
//! it looks up in the term dictionary.
//!
//! This file is its own test binary so that it can install a counting
//! global allocator.  Counts are per thread, so other tests and the
//! harness never leak into a measurement.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use sage_core::programs::generate_program;
use sage_interp::quarantine::{
    contained_soak_service, reference_soak_service, DEFAULT_ERROR_BUDGET,
};
use sage_interp::{generated_scenarios, ExecMode, ResponderRegistry};
use sage_netsim::buffer::PacketBuf;
use sage_netsim::checksum::checksum_omitting_field;
use sage_netsim::headers::{bfd, icmp, igmp, ipv4, ntp, udp};
use sage_netsim::scenario::run_scenario_on;
use sage_netsim::sim::{Ctx, Node, NodeId, SimBuilder, Topology, TraceMode};
use sage_netsim::tools::igmp::SESSION_GROUP;
use sage_netsim::tools::soak::{SoakClientNode, SoakProtocol};
use sage_nlp::{chunk, tokenize, ChunkerConfig, TermDictionary};
use sage_spec::corpus::Protocol;

thread_local! {
    /// Allocations and reallocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations this thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations();
    let out = f();
    (out, allocations() - before)
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

/// A registry holding the four generated programs.
fn generated_registry() -> ResponderRegistry {
    let mut registry = ResponderRegistry::new();
    for protocol in Protocol::all() {
        registry.register(protocol.name(), generate_program(protocol));
    }
    registry
}

#[test]
fn rendering_a_full_trace_allocates_only_to_grow_its_buffer() {
    let registry = generated_registry();
    for scenario in generated_scenarios(&registry).scenarios() {
        let run = run_scenario_on(scenario.as_ref(), Topology::mesh10()).expect("binds on mesh10");
        let (rendered, allocs) = counted(|| run.trace.render());
        eprintln!(
            "{}: render() allocated {allocs} times for {} events, {} bytes",
            scenario.name(),
            run.trace.events.len(),
            rendered.len()
        );
        assert!(
            allocs <= 16,
            "{}: render() allocated {allocs} times for {} bytes; the budget is \
             16, for growing the one output buffer",
            scenario.name(),
            rendered.len()
        );
    }
}

#[test]
fn handing_out_a_generated_adapter_allocates_at_most_four_times() {
    let registry = generated_registry();
    let factories = registry.responders(ExecMode::Vm);
    let icmp = factories.icmp.expect("icmp program");
    let igmp = factories.igmp.expect("igmp program");
    let (ntp_policy, ntp_server) = factories.ntp.expect("ntp program");
    let bfd = factories.bfd.expect("bfd program");
    let counts = [
        ("responders.icmp", counted(|| icmp()).1),
        ("responders.igmp", counted(|| igmp()).1),
        ("responders.ntp policy", counted(|| ntp_policy()).1),
        ("responders.ntp server", counted(|| ntp_server()).1),
        ("responders.bfd", counted(|| bfd(1, 2)).1),
    ];
    eprintln!("allocations per adapter: {counts:?}");
    let over: Vec<_> = counts.iter().filter(|(_, allocs)| *allocs > 4).collect();
    assert!(
        over.is_empty(),
        "adapters over the budget of 4 allocations: {over:?}"
    );
}

#[test]
fn header_builders_allocate_once_and_checksums_never() {
    let payload = *b"0123456789abcdef";
    let datagram = ipv4::build_packet(CLIENT, SERVER, ipv4::PROTO_UDP, 64, &payload);
    let builders = [
        (
            "ipv4::build_packet",
            counted(|| ipv4::build_packet(CLIENT, SERVER, ipv4::PROTO_ICMP, 64, &payload)).1,
        ),
        (
            "udp::build_datagram",
            counted(|| udp::build_datagram(CLIENT, SERVER, 4000, 123, &payload)).1,
        ),
        (
            "icmp::build_echo",
            counted(|| icmp::build_echo(false, 1, 2, &payload)).1,
        ),
        (
            "icmp::build_error",
            counted(|| icmp::build_error(11, 0, 0, datagram.as_bytes())).1,
        ),
        (
            "icmp::build_timestamp",
            counted(|| icmp::build_timestamp(true, 1, 2, 3, 4, 5)).1,
        ),
        (
            "icmp::build_info",
            counted(|| icmp::build_info(true, 1, 2)).1,
        ),
        (
            "igmp::build_message",
            counted(|| igmp::build_message(2, SESSION_GROUP)).1,
        ),
        (
            "ntp::build_packet",
            counted(|| ntp::build_packet(0, 1, 3, 0, 42)).1,
        ),
        (
            "bfd::build_control_packet",
            counted(|| bfd::build_control_packet(bfd::SessionState::Up, 1, 2, 3, false)).1,
        ),
    ];
    eprintln!("allocations per header builder: {builders:?}");
    let off: Vec<_> = builders.iter().filter(|(_, allocs)| *allocs != 1).collect();
    assert!(
        off.is_empty(),
        "header builders not at exactly one allocation: {off:?}"
    );

    let segment = ipv4::payload(&datagram);
    let checksums = [
        (
            "checksum_omitting_field",
            counted(|| checksum_omitting_field(datagram.as_bytes(), 10)).1,
        ),
        (
            "udp::compute_checksum",
            counted(|| udp::compute_checksum(CLIENT, SERVER, segment)).1,
        ),
    ];
    assert_eq!(checksums.map(|(_, allocs)| allocs), [0, 0], "{checksums:?}");

    let request = udp::build_datagram(CLIENT, SERVER, 4000, 123, &payload);
    let packet = ipv4::build_packet(CLIENT, SERVER, ipv4::PROTO_UDP, 64, request.as_bytes());
    let (received, allocs) = counted(|| udp::receive(&packet, 123));
    assert!(received.is_some());
    assert!(
        allocs <= 1,
        "udp::receive allocated {allocs} times; the budget is the payload copy"
    );
    assert_eq!(counted(|| udp::receive(&packet, 124)).1, 0, "other port");
}

#[test]
fn soak_requests_and_replies_stay_within_their_allocation_budgets() {
    const ROUNDS: u32 = 4;
    let registry = generated_registry();
    let mut report = Vec::new();
    for protocol in SoakProtocol::all() {
        let client =
            SoakClientNode::new(0, CLIENT, SERVER, NodeId(1), protocol, ROUNDS, 1, 1_000, 0);
        let requests: Vec<PacketBuf> = (0..ROUNDS).map(|r| client.build_request(r, 0)).collect();
        let mut contained =
            contained_soak_service(&registry, protocol, 0, SERVER, DEFAULT_ERROR_BUDGET);
        let mut reference = reference_soak_service(protocol, 0, SERVER);
        // The first round warms each service up (VM scratch, reply buffers).
        for service in [&mut contained, &mut reference] {
            let reply = service.respond(&requests[0]).expect("served");
            assert!(reply.is_some(), "{}: no reply", protocol.name());
        }
        let mut request_allocs = 0;
        let mut contained_allocs = 0;
        let mut reference_allocs = 0;
        for (round, request) in (1..ROUNDS).zip(&requests[1..]) {
            request_allocs = request_allocs.max(counted(|| client.build_request(round, 0)).1);
            for (service, allocs) in [
                (&mut contained, &mut contained_allocs),
                (&mut reference, &mut reference_allocs),
            ] {
                let (reply, n) = counted(|| service.respond(request));
                assert!(
                    matches!(reply, Ok(Some(_))),
                    "{}: round {round} unanswered",
                    protocol.name()
                );
                *allocs = (*allocs).max(n);
            }
        }
        report.push((
            protocol.name(),
            request_allocs,
            contained_allocs,
            reference_allocs,
        ));
    }
    eprintln!("allocations per (protocol, request, contained reply, reference reply): {report:?}");
    for (protocol, request, contained, reference) in report {
        assert!(
            request <= 3,
            "{protocol}: a request took {request} allocations; the budget is 3"
        );
        assert!(
            contained <= 4,
            "{protocol}: a contained reply took {contained} allocations; the budget is 4"
        );
        assert!(
            reference <= 4,
            "{protocol}: a reference reply took {reference} allocations; the budget is 4"
        );
    }
}

#[test]
fn chunking_allocates_per_phrase_never_per_dictionary_probe() {
    let dict = TermDictionary::networking();
    let config = ChunkerConfig::default();
    let mut report = Vec::new();
    for sentence in [
        // Table 7's sentence and one of RFC 5880 §6.8.6: long runs of
        // content words, so the dictionary pass probes many spans.
        "The address of the source in an echo message will be the destination of the \
         echo reply message.",
        "If the Your Discriminator field is zero and the State field is not Down or \
         AdminDown, the packet MUST be discarded.",
    ] {
        let tokens = tokenize(sentence);
        let warm = chunk(&tokens, &dict, config);
        let (phrases, allocs) = counted(|| chunk(&tokens, &dict, config));
        assert_eq!(phrases, warm);
        report.push((phrases.len(), allocs));
        assert!(
            allocs <= 3 * phrases.len() as u64 + 10,
            "chunking {sentence:?} allocated {allocs} times for {} phrases; the \
             budget is 3 per phrase plus 10",
            phrases.len()
        );
    }
    eprintln!("(phrases, allocations) per chunked sentence: {report:?}");
}
