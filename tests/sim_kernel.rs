//! Discrete-event kernel guarantees: determinism (same seed + topology =>
//! byte-identical trace, across repeated runs and across sweep worker
//! counts) and the delay-ordering property (packets are delivered in
//! per-link-delay order, ties broken by link enumeration order), plus the
//! exact trace of every routing drop and of the event cap, the line text of
//! the packet kinds, and first-match ownership of an address two nodes
//! share.

use std::collections::HashSet;

use proptest::prelude::*;
use sage_repro::core::sweep::{full_registry, run_sweep};
use sage_repro::netsim::buffer::PacketBuf;
use sage_repro::netsim::fuzz::{FaultSchedule, SchedulePlan};
use sage_repro::netsim::headers::{icmp, ipv4};
use sage_repro::netsim::scenario::{reference_scenarios, run_scenario_on};
use sage_repro::netsim::sim::{
    Ctx, EventTrace, Node, NodeId, SimBuilder, SimTime, Topology, TraceEvent, TraceEventKind,
    TraceMode,
};

#[test]
fn every_reference_scenario_replays_byte_identically_on_every_topology() {
    let registry = reference_scenarios();
    for scenario in registry.scenarios() {
        for topology in Topology::library() {
            let first = run_scenario_on(scenario.as_ref(), topology.clone()).unwrap();
            let second = run_scenario_on(scenario.as_ref(), topology.clone()).unwrap();
            assert_eq!(
                first.trace.render(),
                second.trace.render(),
                "{}/{} diverged between runs",
                scenario.name(),
                topology.name,
            );
        }
    }
}

/// A host that fires a burst of echo requests at its peer when started.
struct Burst {
    src: u32,
    dst: u32,
    count: u16,
}

impl Node for Burst {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: &sage_repro::netsim::buffer::PacketBuf) {}

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for seq in 0..self.count {
            let echo = icmp::build_echo(false, 0x42, seq, b"determinism");
            ctx.send(ipv4::build_packet(
                self.src,
                self.dst,
                ipv4::PROTO_ICMP,
                64,
                echo.as_bytes(),
            ));
        }
    }
}

/// Up to 32 faults on the one link, over the burst's 64 transmits.
const BURST_PLAN: SchedulePlan = SchedulePlan {
    links: 1,
    max_entries: 32,
    horizon: 64,
};

/// Build the two-host burst sim with a seeded fault schedule on its link
/// and run it.
fn faulty_burst_trace(seed: u64) -> String {
    let mut topo = Topology::named("faulty-pair");
    let a = topo.host("a", ipv4::addr(10, 0, 1, 1), 24);
    let b = topo.host("b", ipv4::addr(10, 0, 1, 2), 24);
    topo.link(a, b, 1_000);
    let mut sim = SimBuilder::new(topo);
    sim.bind(
        a,
        Box::new(Burst {
            src: ipv4::addr(10, 0, 1, 1),
            dst: ipv4::addr(10, 0, 1, 2),
            count: 64,
        }),
    );
    FaultSchedule::generate(seed, &BURST_PLAN).apply(&mut sim);
    sim.build().run().render()
}

#[test]
fn seeded_faulty_link_replays_the_same_trace() {
    // Every fault kind occurs within the burst, so the replay covers them
    // all.
    let schedule = FaultSchedule::generate(0x5A6E, &BURST_PLAN);
    let kinds: HashSet<_> = schedule
        .entries
        .iter()
        .map(|e| std::mem::discriminant(&e.action))
        .collect();
    assert_eq!(kinds.len(), 5, "{}", schedule.render());
    let first = faulty_burst_trace(0x5A6E);
    let second = faulty_burst_trace(0x5A6E);
    assert_eq!(first, second, "same seed must replay byte-identically");
    let other = faulty_burst_trace(0x5A6F);
    assert_ne!(
        first, other,
        "a different seed should perturb the fault schedule"
    );
}

#[test]
fn sweep_results_are_identical_across_worker_counts() {
    let registry = full_registry();
    let topologies = Topology::library();
    let baseline = run_sweep(&registry, &topologies, 1, 0);
    for workers in [2, 4, 8] {
        let sweep = run_sweep(&registry, &topologies, workers, 0);
        let view = |r: &sage_repro::core::sweep::SweepReport| {
            r.cells
                .iter()
                .map(|c| {
                    let (sc, topo, ok, ev, de, or, vn, dig) = c.deterministic_view();
                    format!("{sc} {topo} {ok} {ev} {de} {or} {vn} {dig:016x}")
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            view(&baseline),
            view(&sweep),
            "sweep diverged at {workers} workers"
        );
    }
}

/// A hub node that multicasts one packet at start; every spoke receives it
/// after exactly its own link delay.
struct Caster {
    src: u32,
}

impl Node for Caster {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: &sage_repro::netsim::buffer::PacketBuf) {}

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let echo = icmp::build_echo(false, 1, 1, b"fanout");
        ctx.send(ipv4::build_packet(
            self.src,
            ipv4::addr(224, 0, 0, 5),
            ipv4::PROTO_ICMP,
            64,
            echo.as_bytes(),
        ));
    }
}

proptest! {
    /// Deliveries come out of the kernel ordered by per-link delay, with
    /// equal delays resolved in link enumeration order — the (time, seq)
    /// heap discipline observed from outside.
    #[test]
    fn delivery_order_respects_per_link_delays(
        delays in prop::collection::vec(1_000u64..5_000_000, 2..12)
    ) {
        let mut topo = Topology::named("prop-star");
        let hub = topo.host("hub", ipv4::addr(10, 0, 0, 1), 8);
        let spokes: Vec<_> = (0..delays.len())
            .map(|i| {
                let spoke = topo.host(
                    &format!("s{i}"),
                    ipv4::addr(10, 0, 1, 1 + i as u8),
                    8,
                );
                topo.link(hub, spoke, delays[i]);
                spoke
            })
            .collect();
        let mut sim = SimBuilder::new(topo);
        sim.bind(hub, Box::new(Caster { src: ipv4::addr(10, 0, 0, 1) }));
        let trace = sim.build().run();

        // Observed order: Deliver events on the spokes, as (time, node).
        let observed: Vec<(u64, usize)> = trace
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    sage_repro::netsim::sim::TraceEventKind::Deliver(_)
                )
            })
            .map(|e| (e.time.0, e.node.0))
            .collect();
        prop_assert_eq!(observed.len(), delays.len());

        // Expected order: spokes sorted by (delay, link index); link index
        // order equals spoke creation order here.
        let mut expected: Vec<(u64, usize)> = delays
            .iter()
            .zip(&spokes)
            .map(|(d, s)| (*d, s.0))
            .collect();
        expected.sort_by_key(|&(d, i)| (d, i));
        prop_assert_eq!(observed, expected);

        // And each arrival lands exactly at its link delay.
        for event in &trace.events {
            if let sage_repro::netsim::sim::TraceEventKind::Deliver(_) = event.kind {
                let spoke_index = spokes.iter().position(|s| *s == event.node).unwrap();
                prop_assert_eq!(event.time.0, delays[spoke_index]);
            }
        }
    }
}

/// The icmp sequence numbers of the packets delivered to `node`, in
/// processing order — the observable the (time, seq) heap discipline is
/// judged by.
fn delivered_sequence(trace: &sage_repro::netsim::sim::EventTrace, node: &str) -> Vec<u16> {
    trace
        .delivered_to(node)
        .iter()
        .map(|bytes| {
            let packet = sage_repro::netsim::buffer::PacketBuf::from_bytes(bytes.clone());
            let message =
                sage_repro::netsim::buffer::PacketBuf::from_bytes(ipv4::payload(&packet).to_vec());
            message.get_field(icmp::FIELDS, "sequence_number").unwrap() as u16
        })
        .collect()
}

/// Run a two-host burst with a [`ScheduledLink`] and return the trace.
fn scheduled_burst_trace(
    count: u16,
    entries: Vec<(u32, sage_repro::netsim::fuzz::FaultAction)>,
) -> sage_repro::netsim::sim::EventTrace {
    use sage_repro::netsim::fuzz::ScheduledLink;
    let mut topo = Topology::named("scheduled-pair");
    let a = topo.host("a", ipv4::addr(10, 0, 1, 1), 24);
    let b = topo.host("b", ipv4::addr(10, 0, 1, 2), 24);
    let link = topo.link(a, b, 1_000);
    let mut sim = SimBuilder::new(topo);
    sim.bind(
        a,
        Box::new(Burst {
            src: ipv4::addr(10, 0, 1, 1),
            dst: ipv4::addr(10, 0, 1, 2),
            count,
        }),
    );
    sim.bind_link_model(link, Box::new(ScheduledLink::new(entries)));
    sim.build().run()
}

#[test]
fn zero_extra_delay_duplicates_keep_scheduling_order() {
    use sage_repro::netsim::fuzz::FaultAction;
    // Every transmit is duplicated with zero extra delay: each original
    // and its copy arrive at the *same* virtual time, so only the seq
    // tiebreak (assignment in scheduling order) orders them.  The
    // observable order must be per-transmit pairs, never interleaved or
    // reshuffled: 0,0,1,1,2,2.
    let entries = (0..3)
        .map(|t| (t, FaultAction::Duplicate { extra_delay_ns: 0 }))
        .collect();
    let trace = scheduled_burst_trace(3, entries);
    assert_eq!(delivered_sequence(&trace, "b"), vec![0, 0, 1, 1, 2, 2]);
    // All six deliveries land at one timestamp — the ties are real.
    let times: Vec<u64> = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, sage_repro::netsim::sim::TraceEventKind::Deliver(_)))
        .map(|e| e.time.0)
        .collect();
    assert_eq!(times.len(), 6);
    assert!(times.windows(2).all(|w| w[0] == w[1]), "{times:?}");
    // And the whole ordering is stable across runs.
    let entries = (0..3)
        .map(|t| (t, FaultAction::Duplicate { extra_delay_ns: 0 }))
        .collect();
    assert_eq!(trace.render(), scheduled_burst_trace(3, entries).render());
}

#[test]
fn delayed_duplicates_sort_by_time_before_seq() {
    use sage_repro::netsim::fuzz::FaultAction;
    // The first transmit's copy is delayed past the second transmit's
    // arrival: time dominates seq, so the copy lands last even though it
    // was scheduled before the second packet.
    let trace = scheduled_burst_trace(
        2,
        vec![(
            0,
            FaultAction::Duplicate {
                extra_delay_ns: 500,
            },
        )],
    );
    assert_eq!(delivered_sequence(&trace, "b"), vec![0, 1, 0]);
}

/// A host that notes whether the kernel can route to `probe` (when set),
/// then originates one packet.
struct OneShot {
    packet: PacketBuf,
    probe: Option<u32>,
}

impl Node for OneShot {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: &PacketBuf) {}

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(dst) = self.probe {
            ctx.note(format!("has_route={}", ctx.has_route(dst)));
        }
        ctx.send(self.packet.clone());
    }
}

/// Run the sim `bind` sets up in both trace modes: the Full-mode trace's
/// lines, and the Summary-mode run's `drops` counter.
fn lines_and_summary_drops(bind: impl Fn() -> SimBuilder) -> (Vec<String>, u64) {
    let full = bind().build().run();
    let mut summary = bind();
    summary.trace_mode(TraceMode::Summary);
    let summary = summary.build().run();
    assert_eq!(full.summary.drops, summary.summary.drops);
    let lines = full.render().lines().map(str::to_string).collect();
    (lines, summary.summary.drops)
}

/// An echo request from 10.0.1.1 to `dst`, and its rendered hex.
fn echo_to(dst: u32) -> (PacketBuf, String) {
    let echo = icmp::build_echo(false, 5, 1, b"route");
    let packet = ipv4::build_packet(
        ipv4::addr(10, 0, 1, 1),
        dst,
        ipv4::PROTO_ICMP,
        64,
        echo.as_bytes(),
    );
    let hex = packet
        .as_bytes()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    (packet, hex)
}

/// Hosts `a` (10.0.1.1) and `b` (10.0.1.2), joined only when `linked`.
fn host_pair(linked: bool) -> Topology {
    let mut topo = Topology::named("pair");
    let a = topo.host("a", ipv4::addr(10, 0, 1, 1), 24);
    let b = topo.host("b", ipv4::addr(10, 0, 1, 2), 24);
    if linked {
        topo.link(a, b, 1_000);
    }
    topo
}

#[test]
fn a_packet_shorter_than_an_ipv4_header_drops_as_truncated() {
    let header: Vec<u8> = (0u8..19).collect();
    let (lines, drops) = lines_and_summary_drops(|| {
        let topo = host_pair(true);
        let mut sim = SimBuilder::new(topo);
        sim.bind(
            NodeId(0),
            Box::new(OneShot {
                packet: PacketBuf::from_bytes(header.clone()),
                probe: None,
            }),
        );
        sim
    });
    assert_eq!(
        lines,
        [
            "[0ns] a        originate 000102030405060708090a0b0c0d0e0f101112",
            "[0ns] a        drop truncated header",
        ]
    );
    assert_eq!(drops, 1);
}

#[test]
fn a_unicast_to_an_address_no_node_owns_has_no_route() {
    let nowhere = ipv4::addr(10, 0, 9, 9);
    let (packet, hex) = echo_to(nowhere);
    let (lines, drops) = lines_and_summary_drops(|| {
        let mut sim = SimBuilder::new(host_pair(true));
        sim.bind(
            NodeId(0),
            Box::new(OneShot {
                packet: packet.clone(),
                probe: Some(nowhere),
            }),
        );
        sim
    });
    assert_eq!(
        lines,
        [
            "[0ns] a        note has_route=false".to_string(),
            format!("[0ns] a        originate {hex}"),
            "[0ns] a        drop no route to destination".to_string(),
        ]
    );
    assert_eq!(drops, 1);
}

#[test]
fn a_unicast_to_an_owner_without_a_path_is_unreachable() {
    let b_addr = ipv4::addr(10, 0, 1, 2);
    let (packet, hex) = echo_to(b_addr);
    let (lines, drops) = lines_and_summary_drops(|| {
        let mut sim = SimBuilder::new(host_pair(false));
        sim.bind(
            NodeId(0),
            Box::new(OneShot {
                packet: packet.clone(),
                probe: Some(b_addr),
            }),
        );
        sim
    });
    assert_eq!(
        lines,
        [
            "[0ns] a        note has_route=false".to_string(),
            format!("[0ns] a        originate {hex}"),
            "[0ns] a        drop destination unreachable".to_string(),
        ]
    );
    assert_eq!(drops, 1);
}

/// A host whose timer re-arms itself forever.
struct Ticker;

impl Node for Ticker {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: &PacketBuf) {}

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(1_000, 7);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        ctx.set_timer(1_000, token);
    }
}

#[test]
fn the_event_cap_stops_a_runaway_pump() {
    let (lines, drops) = lines_and_summary_drops(|| {
        let mut sim = SimBuilder::new(host_pair(true));
        sim.bind(NodeId(1), Box::new(Ticker));
        sim.max_events(3);
        sim
    });
    // The cap is traced at node 0, whichever node the next event was for.
    assert_eq!(
        lines,
        [
            "[1000ns] b        timer 7",
            "[2000ns] b        timer 7",
            "[3000ns] b        timer 7",
            "[4000ns] a        drop event cap hit",
        ]
    );
    assert_eq!(drops, 1);
}

/// The hex of a packet holding every byte from 0x00 to 0xff, in order.
const ALL_BYTES_HEX: &str = concat!(
    "000102030405060708090a0b0c0d0e0f",
    "101112131415161718191a1b1c1d1e1f",
    "202122232425262728292a2b2c2d2e2f",
    "303132333435363738393a3b3c3d3e3f",
    "404142434445464748494a4b4c4d4e4f",
    "505152535455565758595a5b5c5d5e5f",
    "606162636465666768696a6b6c6d6e6f",
    "707172737475767778797a7b7c7d7e7f",
    "808182838485868788898a8b8c8d8e8f",
    "909192939495969798999a9b9c9d9e9f",
    "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf",
    "b0b1b2b3b4b5b6b7b8b9babbbcbdbebf",
    "c0c1c2c3c4c5c6c7c8c9cacbcccdcecf",
    "d0d1d2d3d4d5d6d7d8d9dadbdcdddedf",
    "e0e1e2e3e4e5e6e7e8e9eaebecedeeef",
    "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff",
);

#[test]
fn packet_kinds_render_their_pinned_lines() {
    let event = |time: u64, node_name: &str, kind: TraceEventKind| TraceEvent {
        time: SimTime(time),
        node: NodeId(0),
        node_name: node_name.to_string(),
        kind,
    };
    let trace = EventTrace {
        events: vec![
            event(
                1_000_000_000_000,
                "core-router",
                TraceEventKind::Forward((0..=255).collect()),
            ),
            event(
                999,
                "routerAB",
                TraceEventKind::Deliver(vec![0x13, 0x7f, 0xa0, 0xff]),
            ),
            event(u64::MAX, "b", TraceEventKind::DeliverLocal),
        ],
        ..EventTrace::default()
    };
    // The time is unpadded and a name of 8 or more characters runs on
    // unpadded; shorter names pad to 8 columns.
    let expected = [
        ["[1000000000000ns] core-router forward ", ALL_BYTES_HEX].concat(),
        "[999ns] routerAB deliver 137fa0ff".to_string(),
        "[18446744073709551615ns] b        deliver-local".to_string(),
    ];
    for (e, want) in trace.events.iter().zip(&expected) {
        assert_eq!(EventTrace::render_line(e), *want);
    }
    let rendered: String = expected.iter().map(|line| format!("{line}\n")).collect();
    assert_eq!(trace.render(), rendered);
}

/// Hosts `a` (10.0.1.1), `b` and `c` (both 10.0.1.2); `a` is linked to
/// `c` always and to `b` only when `b_linked`.
fn shared_address_topology(b_linked: bool) -> Topology {
    let mut topo = Topology::named("shared");
    let a = topo.host("a", ipv4::addr(10, 0, 1, 1), 24);
    let b = topo.host("b", ipv4::addr(10, 0, 1, 2), 24);
    let c = topo.host("c", ipv4::addr(10, 0, 1, 2), 24);
    if b_linked {
        topo.link(a, b, 1_000);
    }
    topo.link(a, c, 1_000);
    topo
}

#[test]
fn a_shared_address_belongs_to_the_lowest_node_id() {
    let shared = ipv4::addr(10, 0, 1, 2);
    let (packet, hex) = echo_to(shared);
    for b_linked in [true, false] {
        let topo = shared_address_topology(b_linked);
        let b = topo.node_named("b").unwrap();
        assert_eq!(topo.owner_of(shared), Some(b));
        let (lines, drops) = lines_and_summary_drops(|| {
            let mut sim = SimBuilder::new(topo.clone());
            sim.bind(
                NodeId(0),
                Box::new(OneShot {
                    packet: packet.clone(),
                    probe: Some(shared),
                }),
            );
            sim
        });
        // `c` owns the address too and is always reachable, yet neither
        // the kernel nor `has_route` ever picks it.
        let expected = if b_linked {
            vec![
                "[0ns] a        note has_route=true".to_string(),
                format!("[0ns] a        originate {hex}"),
                format!("[1000ns] b        deliver {hex}"),
            ]
        } else {
            vec![
                "[0ns] a        note has_route=false".to_string(),
                format!("[0ns] a        originate {hex}"),
                "[0ns] a        drop destination unreachable".to_string(),
            ]
        };
        assert_eq!(lines, expected, "b linked: {b_linked}");
        assert_eq!(drops, u64::from(!b_linked));
    }
}
