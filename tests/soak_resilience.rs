//! Overload-resilience and quarantine suite: the kernel's bounded
//! queues, backpressure and watchdog under hostile load, and the
//! containment layer's quarantine-to-reference parity — the ISSUE-10
//! acceptance tests at the pinned seed.

use sage_core::soak::{run_soak_campaign, SoakConfig};
use sage_interp::quarantine::{reference_soak_service, CanarySoakResponder, Contained};
use sage_netsim::sim::{
    EventTrace, NodeId, SimBuilder, SimTime, TraceEventKind, TraceMode, TRACE_RING_CAPACITY,
};
use sage_netsim::tools::soak::{soak_pair_topology, SoakClientNode, SoakProtocol, SoakServerNode};

/// Build one ICMP soak session pair with the given service, knobs for
/// queue capacity / burst / link delay, in the given trace mode.
#[allow(clippy::too_many_arguments)]
fn run_one_session(
    service: Box<dyn sage_netsim::tools::soak::SoakResponder>,
    rounds: u32,
    burst: u32,
    interval_ns: u64,
    delay_ns: u64,
    capacity: Option<usize>,
    mode: TraceMode,
    crash_server_at: Option<u64>,
) -> EventTrace {
    let topology = soak_pair_topology("soak_resilience", 1, delay_ns, None);
    let mut sim = SimBuilder::new(topology);
    sim.trace_mode(mode).max_events(1_000_000);
    if let Some(cap) = capacity {
        sim.queue_capacity(cap);
    }
    let client = NodeId(0);
    let server = NodeId(1);
    let client_addr = sim.topology().addr_of(client);
    let server_addr = sim.topology().addr_of(server);
    sim.bind(
        client,
        Box::new(SoakClientNode::new(
            0,
            client_addr,
            server_addr,
            server,
            SoakProtocol::Icmp,
            rounds,
            burst,
            interval_ns,
            1,
        )),
    );
    sim.bind(server, Box::new(SoakServerNode { service }));
    sim.watchdog(client, interval_ns * 4);
    if let Some(at) = crash_server_at {
        sim.crash_at(server, SimTime(at));
    }
    sim.build().run()
}

fn reference_icmp() -> Box<dyn sage_netsim::tools::soak::SoakResponder> {
    reference_soak_service(SoakProtocol::Icmp, 0, 0)
}

/// A canary ICMP service that serves `ok` packets correctly, then fails
/// every packet, contained with `budget` and a reference fallback.
fn contained_canary(ok: u64, budget: u32) -> Box<dyn sage_netsim::tools::soak::SoakResponder> {
    Box::new(Contained::new(
        "icmp",
        Box::new(CanarySoakResponder::new(reference_icmp(), ok, false)),
        reference_icmp(),
        budget,
    ))
}

/// Render a Full-mode trace with the containment bookkeeping notes
/// stripped — what a reference-only run of the same schedule looks like.
fn render_without_containment_notes(trace: &EventTrace) -> String {
    trace
        .events
        .iter()
        .filter(|e| {
            !matches!(
                &e.kind,
                TraceEventKind::Note(n)
                    if n.starts_with("responder-error") || n.starts_with("quarantine")
            )
        })
        .map(|e| EventTrace::render_line(e) + "\n")
        .collect()
}

#[test]
fn queue_overflow_sheds_deterministically_without_deadlock() {
    // Burst 5 into a capacity-2 ingress over a slow link: 3 of every
    // burst shed at the full queue, the rest are served, and the run
    // terminates (bounded, no deadlock).
    let run = || {
        run_one_session(
            reference_icmp(),
            10,
            5,
            1_000_000,
            2_000_000,
            Some(2),
            TraceMode::Summary,
            None,
        )
    };
    let trace = run();
    assert!(trace.summary.shed > 0, "no shedding under overflow");
    assert!(trace.summary.delivered > 0, "shedding starved the session");
    // Shed is bounded by what was originated, and every burst keeps the
    // first `capacity` packets.
    assert!(trace.summary.shed < trace.summary.originated);
    let again = run();
    assert_eq!(trace.summary, again.summary, "shedding is nondeterministic");
}

#[test]
fn overloaded_session_recovers_after_the_burst_phase() {
    // Overload for the first rounds, then watch deliveries continue to
    // the end of the run: the queue drains and service resumes — no
    // livelock, no permanent collapse.
    let trace = run_one_session(
        reference_icmp(),
        12,
        5,
        1_000_000,
        2_000_000,
        Some(2),
        TraceMode::Full,
        None,
    );
    let last_deliver = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::Deliver(_)))
        .map(|e| e.time.0)
        .max()
        .expect("no deliveries at all");
    // The final round fires at ~12ms virtual; deliveries must reach the
    // tail of the run, not stop at the first overflow.
    assert!(
        last_deliver >= 11 * 1_000_000,
        "deliveries stopped early at {last_deliver}ns"
    );
    assert!(trace.summary.shed > 0);
}

#[test]
fn watchdog_trips_when_the_server_goes_silent() {
    // Crash the server mid-run with no restart: the client's watchdog
    // must flag the stall, and the run must still terminate.
    let trace = run_one_session(
        reference_icmp(),
        20,
        1,
        1_000_000,
        500_000,
        None,
        TraceMode::Summary,
        Some(8_000_000),
    );
    assert!(
        trace.summary.watchdog_trips > 0,
        "silent server never tripped the watchdog"
    );
    // And a healthy run at the same schedule trips nothing.
    let healthy = run_one_session(
        reference_icmp(),
        20,
        1,
        1_000_000,
        500_000,
        None,
        TraceMode::Summary,
        None,
    );
    assert_eq!(healthy.summary.watchdog_trips, 0);
}

#[test]
fn quarantined_session_trace_is_byte_identical_to_reference_only() {
    // The canary serves 3 packets, then fails; budget 2 means packets 4
    // and 5 are charged (and served by the fallback), and from packet 5
    // on the primary is quarantined.  Because both the pre-fault canary
    // and the fallback are the reference engine, stripping the
    // containment notes must leave a trace byte-identical to a
    // reference-only run of the same schedule.
    let contained = run_one_session(
        contained_canary(3, 2),
        10,
        1,
        1_000_000,
        500_000,
        None,
        TraceMode::Full,
        None,
    );
    let reference = run_one_session(
        reference_icmp(),
        10,
        1,
        1_000_000,
        500_000,
        None,
        TraceMode::Full,
        None,
    );
    assert!(
        contained.summary.quarantines == 1,
        "canary never quarantined"
    );
    assert_eq!(reference.summary.quarantines, 0);
    assert_eq!(
        render_without_containment_notes(&contained),
        reference.render(),
        "containment changed the observable protocol behaviour"
    );
}

#[test]
fn summary_mode_memory_is_independent_of_packet_count() {
    let short = run_one_session(
        reference_icmp(),
        8,
        1,
        1_000_000,
        500_000,
        None,
        TraceMode::Summary,
        None,
    );
    let long = run_one_session(
        reference_icmp(),
        256,
        1,
        1_000_000,
        500_000,
        None,
        TraceMode::Summary,
        None,
    );
    assert!(long.summary.delivered > short.summary.delivered * 8);
    assert!(short.events.is_empty() && long.events.is_empty());
    assert!(long.summary.last_events().len() <= sage_netsim::sim::TRACE_RING_CAPACITY);
    assert!(short.summary.last_events().len() <= sage_netsim::sim::TRACE_RING_CAPACITY);
}

#[test]
fn tiny_campaign_report_is_worker_count_invariant_at_pinned_seed() {
    let mut config = SoakConfig {
        seed: 0x5A6E,
        sessions_per_shard: 2,
        shards_per_protocol: 4,
        rounds: 12,
        interval_ns: 1_000_000,
        workers: 1,
    };
    let solo = run_soak_campaign(&config);
    config.workers = 3;
    let pooled = run_soak_campaign(&config);
    assert_eq!(
        solo.to_baseline_json("pinned"),
        pooled.to_baseline_json("pinned")
    );
    assert!(solo.total_delivered() > 0);
}

/// Run one session in both trace modes and check that the Summary-mode
/// ring holds exactly the last [`TRACE_RING_CAPACITY`] lines of the
/// Full-mode rendering; returns those lines and the Full-mode line count.
fn ring_matches_full_render_tail(run: impl Fn(TraceMode) -> EventTrace) -> (Vec<String>, usize) {
    let full = run(TraceMode::Full);
    let summary = run(TraceMode::Summary);
    let rendered = full.render();
    let lines: Vec<&str> = rendered.lines().collect();
    let tail = &lines[lines.len().saturating_sub(TRACE_RING_CAPACITY)..];
    let ring = summary.summary.last_events();
    assert_eq!(ring, tail, "the ring is not the tail of the Full rendering");
    assert!(
        full.summary.last_events().is_empty(),
        "Full mode keeps no ring"
    );
    (ring, lines.len())
}

/// True if some ring line's event body (after the node column) starts
/// with `body`.
fn ring_has(ring: &[String], body: &str) -> bool {
    ring.iter().any(|line| line.contains(&format!(" {body}")))
}

#[test]
fn ring_holds_the_tail_of_an_overload_run() {
    let (ring, total) = ring_matches_full_render_tail(|mode| {
        run_one_session(
            reference_icmp(),
            10,
            5,
            1_000_000,
            2_000_000,
            Some(2),
            mode,
            None,
        )
    });
    assert!(total > TRACE_RING_CAPACITY, "only {total} events");
    for body in [
        "originate ",
        "deliver ",
        "drop shed",
        "timer ",
        "note backpressure-skip",
    ] {
        assert!(ring_has(&ring, body), "no {body:?} in the ring:\n{ring:#?}");
    }
}

#[test]
fn ring_holds_the_tail_of_a_canary_run() {
    let (ring, total) = ring_matches_full_render_tail(|mode| {
        run_one_session(
            contained_canary(8, 2),
            14,
            1,
            1_000_000,
            500_000,
            None,
            mode,
            None,
        )
    });
    assert!(total > TRACE_RING_CAPACITY, "only {total} events");
    for body in ["note responder-error", "note quarantine"] {
        assert!(ring_has(&ring, body), "no {body:?} in the ring:\n{ring:#?}");
    }
}

#[test]
fn ring_holds_all_of_a_short_run() {
    let (ring, total) = ring_matches_full_render_tail(|mode| {
        run_one_session(reference_icmp(), 2, 1, 1_000_000, 500_000, None, mode, None)
    });
    assert!(total < TRACE_RING_CAPACITY, "{total} events");
    assert_eq!(ring.len(), total);
}
