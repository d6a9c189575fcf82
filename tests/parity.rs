//! Generated-vs-reference responder parity across all four protocols.
//!
//! One parameterized suite (replacing the ICMP-only
//! `generated_code_matches_reference_for_echo` pattern): every case renders
//! the observable outcome of the SAGE-generated program and of the
//! hand-written reference responder to a comparable string, and the two
//! must agree byte-for-byte / state-for-state.

use sage_repro::core::programs::generate_program;
use sage_repro::interp::{
    ExecMode, GeneratedBfdEndpoint, GeneratedIgmpResponder, GeneratedNtpServer,
    GeneratedNtpTimeoutPolicy, GeneratedResponder,
};
use sage_repro::netsim::buffer::PacketBuf;
use sage_repro::netsim::headers::{bfd, icmp, igmp, ipv4, ntp};
use sage_repro::netsim::net::{IcmpEvent, IcmpResponder, ReferenceResponder, Router, RouterAction};
use sage_repro::netsim::tools::bfd_session::{BfdEndpoint, ReferenceBfdEndpoint};
use sage_repro::netsim::tools::igmp::IgmpResponder;
use sage_repro::netsim::tools::ntp_exchange::{
    NtpServer, NtpTimeoutPolicy, ReferenceNtpServer, ReferenceTimeoutPolicy,
};
use sage_repro::spec::corpus::Protocol;

/// One parity observation: the same stimulus shown to the generated program
/// and to the reference, rendered comparably.
struct ParityCase {
    protocol: &'static str,
    case: String,
    generated: String,
    reference: String,
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A bare reply message as hex, or `silent` when there is none.
fn render_message(message: Option<PacketBuf>) -> String {
    match message {
        Some(msg) => hex(msg.as_bytes()),
        None => "silent".to_string(),
    }
}

/// How a reply is projected for comparison.
#[derive(Clone, Copy)]
enum Compare {
    /// The RFC pins the reply bytes: full payload hex must match.
    Bytes,
    /// The reference fills framework-chosen values (timestamps): compare
    /// the message type and that the checksum verifies.
    TypeAndChecksum,
    /// The redirect code's granularity is the framework's choice, but the
    /// gateway address (bytes 4..8) is pinned: compare type, checksum and
    /// gateway.
    Gateway,
}

/// One ICMP message (no IP header) projected by `compare`.
fn render_icmp(message: &[u8], compare: Compare) -> String {
    let msg = PacketBuf::from_bytes(message.to_vec());
    let kind = format!(
        "reply type={} checksum_ok={}",
        msg.get_field(icmp::FIELDS, "type").unwrap_or(255),
        icmp::checksum_ok(&msg)
    );
    match compare {
        Compare::Bytes => format!("reply {}", hex(message)),
        Compare::TypeAndChecksum => kind,
        Compare::Gateway => format!("{kind} gateway={}", hex(message.get(4..8).unwrap_or(&[]))),
    }
}

/// ICMP: the Appendix A router scenarios, plus parameter-problem events
/// handed straight to the responder (the router only ever raises pointer
/// 1); reply payloads compared.
fn icmp_cases() -> Vec<ParityCase> {
    let client = ipv4::addr(10, 0, 1, 100);
    let router = ipv4::addr(10, 0, 1, 1);
    let program = generate_program(Protocol::Icmp);
    let echo_to = |dst: u32, ttl: u8, id: u16, data: &[u8]| {
        ipv4::build_packet(
            client,
            dst,
            ipv4::PROTO_ICMP,
            ttl,
            icmp::build_echo(false, id, 1, data).as_bytes(),
        )
    };
    // `None` routes the datagram through the router, which picks the event.
    let stimuli: Vec<(&str, Compare, Option<IcmpEvent>, PacketBuf)> = vec![
        (
            "echo request",
            Compare::Bytes,
            None,
            ipv4::build_packet(
                client,
                router,
                ipv4::PROTO_ICMP,
                64,
                icmp::build_echo(false, 0xAB, 2, b"parity-suite").as_bytes(),
            ),
        ),
        (
            "timestamp request",
            Compare::TypeAndChecksum,
            None,
            ipv4::build_packet(
                client,
                router,
                ipv4::PROTO_ICMP,
                64,
                icmp::build_timestamp(false, 5, 1, 1000, 0, 0).as_bytes(),
            ),
        ),
        (
            "information request",
            Compare::Bytes,
            None,
            ipv4::build_packet(
                client,
                router,
                ipv4::PROTO_ICMP,
                64,
                icmp::build_info(false, 6, 1).as_bytes(),
            ),
        ),
        (
            "unknown destination",
            Compare::Bytes,
            None,
            echo_to(ipv4::addr(8, 8, 8, 8), 64, 2, b"x"),
        ),
        (
            "ttl expiry",
            Compare::Bytes,
            None,
            echo_to(ipv4::addr(192, 168, 2, 100), 1, 3, b"x"),
        ),
        (
            "same-subnet redirect",
            Compare::Gateway,
            None,
            echo_to(ipv4::addr(10, 0, 1, 200), 64, 4, b"x"),
        ),
        (
            "parameter problem at octet 1",
            Compare::Bytes,
            Some(IcmpEvent::ParameterProblem(1)),
            echo_to(router, 64, 7, b"pointer"),
        ),
        (
            "parameter problem at octet 9",
            Compare::Bytes,
            Some(IcmpEvent::ParameterProblem(9)),
            echo_to(router, 64, 8, b"pointer"),
        ),
    ];
    stimuli
        .into_iter()
        .map(|(case, compare, event, request)| {
            let render = |responder: &mut dyn IcmpResponder| match event {
                None => match Router::appendix_a().process(&request, 0, |_| false, responder) {
                    RouterAction::IcmpReply(reply) => render_icmp(ipv4::payload(&reply), compare),
                    other => format!("{other:?}"),
                },
                Some(event) => match responder.respond(event, &request) {
                    Some(msg) => render_icmp(msg.as_bytes(), compare),
                    None => "silent".to_string(),
                },
            };
            ParityCase {
                protocol: "ICMP",
                case: case.to_string(),
                generated: render(&mut GeneratedResponder::new(program.clone())),
                reference: render(&mut ReferenceResponder),
            }
        })
        .collect()
}

/// IGMP: queries are answered identically, non-queries ignored identically.
fn igmp_cases() -> Vec<ParityCase> {
    let group = ipv4::addr(224, 0, 0, 251);
    let program = generate_program(Protocol::Igmp);
    let stimuli = vec![
        (
            "membership query".to_string(),
            igmp::build_message(igmp::msg_type::MEMBERSHIP_QUERY, 0),
        ),
        (
            "membership report (not answered)".to_string(),
            igmp::build_message(igmp::msg_type::MEMBERSHIP_REPORT, group),
        ),
    ];
    stimuli
        .into_iter()
        .map(|(case, query)| {
            let mut gen_host = GeneratedIgmpResponder::new(program.clone(), group);
            let generated = render_message(gen_host.respond(&query));
            assert!(gen_host.errors.is_empty(), "{case}: {:?}", gen_host.errors);
            let reference = render_message(igmp::respond_to_query(&query, group));
            ParityCase {
                protocol: "IGMP",
                case,
                generated,
                reference,
            }
        })
        .collect()
}

/// NTP: the Table 11 timeout decision over a mode/timer grid, plus the
/// server reply bytes.
fn ntp_cases() -> Vec<ParityCase> {
    let program = generate_program(Protocol::Ntp);
    let mut cases = Vec::new();

    for mode in [
        ntp::mode::CLIENT,
        ntp::mode::SYMMETRIC_ACTIVE,
        ntp::mode::SYMMETRIC_PASSIVE,
        ntp::mode::SERVER,
        ntp::mode::BROADCAST,
    ] {
        for (timer, threshold) in [(64u64, 64u64), (63, 64), (100, 64)] {
            let peer = ntp::PeerVariables {
                timer,
                threshold,
                mode,
            };
            let mut generated_policy = GeneratedNtpTimeoutPolicy::new(program.clone());
            let generated = format!("timeout={}", generated_policy.timeout_due(&peer));
            assert!(generated_policy.errors.is_empty());
            let reference = format!("timeout={}", ReferenceTimeoutPolicy.timeout_due(&peer));
            cases.push(ParityCase {
                protocol: "NTP",
                case: format!("timeout mode={mode} timer={timer}/{threshold}"),
                generated,
                reference,
            });
        }
    }

    for (case, request) in [
        (
            "server reply to client request".to_string(),
            ntp::build_packet(0, 1, ntp::mode::CLIENT, 0, 0xDEAD_BEEF_0000_0001),
        ),
        (
            "server ignores broadcast".to_string(),
            ntp::build_packet(0, 1, ntp::mode::BROADCAST, 1, 7),
        ),
    ] {
        let mut generated_server = GeneratedNtpServer::new(program.clone(), 2, 0x1234_5678);
        let generated = render_message(generated_server.respond(&request));
        assert!(generated_server.errors.is_empty());
        let mut reference_server = ReferenceNtpServer {
            stratum: 2,
            clock: 0x1234_5678,
        };
        let reference = render_message(reference_server.respond(&request));
        cases.push(ParityCase {
            protocol: "NTP",
            case,
            generated,
            reference,
        });
    }
    cases
}

fn render_bfd_endpoint(state: bfd::SessionState, session: &bfd::SessionVariables) -> String {
    format!(
        "state={state:?} remote_discr={} remote_state={:?} demand={} periodic={}",
        session.remote_discr,
        session.remote_session_state,
        session.remote_demand_mode,
        session.periodic_transmission_active
    )
}

/// BFD: a control-packet battery applied to one endpoint, plus the full
/// bring-up trace of a session pair.
fn bfd_cases() -> Vec<ParityCase> {
    let program = generate_program(Protocol::Bfd);
    let mut cases = Vec::new();

    use bfd::SessionState::{Down, Init, Up};
    let battery: Vec<(String, PacketBuf)> = vec![
        (
            "well-formed down".into(),
            bfd::build_control_packet(Down, 41, 9, 3, false),
        ),
        (
            "well-formed init".into(),
            bfd::build_control_packet(Init, 42, 9, 3, false),
        ),
        (
            "well-formed up".into(),
            bfd::build_control_packet(Up, 43, 9, 3, false),
        ),
        (
            "demand mode up".into(),
            bfd::build_control_packet(Up, 44, 9, 3, true),
        ),
        (
            "unknown session".into(),
            bfd::build_control_packet(Up, 45, 999, 3, false),
        ),
        (
            "zero your-discriminator, state init (discarded)".into(),
            bfd::build_control_packet(Init, 48, 0, 3, false),
        ),
        (
            "zero your-discriminator, state down (accepted)".into(),
            bfd::build_control_packet(Down, 49, 0, 3, false),
        ),
        (
            "zero detect mult".into(),
            bfd::build_control_packet(Up, 46, 9, 0, false),
        ),
        (
            "zero my discriminator".into(),
            bfd::build_control_packet(Up, 0, 9, 3, false),
        ),
    ];
    for (case, packet) in battery {
        // Fresh endpoints per case so outcomes are independent.
        let mut generated_ep = GeneratedBfdEndpoint::new(program.clone(), 9, 41);
        generated_ep.receive(&packet);
        assert!(
            generated_ep.errors.is_empty(),
            "{case}: {:?}",
            generated_ep.errors
        );
        let mut reference_ep = ReferenceBfdEndpoint::new(9, 41);
        reference_ep.receive(&packet);
        cases.push(ParityCase {
            protocol: "BFD",
            case,
            generated: render_bfd_endpoint(generated_ep.state(), &generated_ep.session),
            reference: render_bfd_endpoint(reference_ep.state(), &reference_ep.session),
        });
    }

    // Full bring-up parity, observed on the event kernel: the generated
    // endpoints and the reference endpoints must leave byte-identical event
    // traces (same packets, same delivery times, same state notes).
    use sage_repro::netsim::scenario::{
        reference_scenarios, run_scenario, BfdFactory, BfdScenario,
    };
    use std::sync::Arc;
    let gen_program = program.clone();
    let generated_factory: BfdFactory = Arc::new(move |local, remote| {
        Box::new(GeneratedBfdEndpoint::new(
            gen_program.clone(),
            local,
            remote,
        ))
    });
    let generated_run = run_scenario(&BfdScenario::new(
        "bfd/parity-generated",
        generated_factory.clone(),
        generated_factory,
        (7, 9),
        (9, 7),
    ))
    .expect("scenario binds");
    let references = reference_scenarios();
    let reference_bfd = references.find("bfd/reference").expect("registered");
    let reference_run = run_scenario(reference_bfd.as_ref()).expect("scenario binds");
    assert!(generated_run.ok(), "{:?}", generated_run.outcome.failures());
    assert!(reference_run.ok(), "{:?}", reference_run.outcome.failures());
    cases.push(ParityCase {
        protocol: "BFD",
        case: "session bring-up kernel trace".into(),
        generated: generated_run.trace.render(),
        reference: reference_run.trace.render(),
    });
    cases
}

/// Run one generated adapter battery in a fixed [`ExecMode`] and render
/// every observable to one comparable transcript.
fn engine_transcript(mode: ExecMode) -> String {
    let mut out = Vec::new();

    // ICMP: full reply packets (header + payload) through the router.
    let icmp_program = generate_program(Protocol::Icmp);
    let client = ipv4::addr(10, 0, 1, 100);
    for (case, dst, ttl) in [
        ("echo", ipv4::addr(10, 0, 1, 1), 64u8),
        ("unreachable", ipv4::addr(8, 8, 8, 8), 64),
        ("ttl-expiry", ipv4::addr(192, 168, 2, 100), 1),
    ] {
        let request = ipv4::build_packet(
            client,
            dst,
            ipv4::PROTO_ICMP,
            ttl,
            icmp::build_echo(false, 0xE1, 9, b"engine-parity").as_bytes(),
        );
        let mut responder = GeneratedResponder::new(icmp_program.clone()).with_mode(mode);
        let rendered = match Router::appendix_a().process(&request, 0, |_| false, &mut responder) {
            RouterAction::IcmpReply(reply) => hex(reply.as_bytes()),
            other => format!("{other:?}"),
        };
        assert!(
            responder.errors.is_empty(),
            "{case}: {:?}",
            responder.errors
        );
        out.push(format!("icmp/{case}: {rendered}"));
    }
    // The events whose payload the adapter seeds as a state variable, and
    // a datagram cut short inside the IP header (its errors are part of
    // the transcript).
    let request = ipv4::build_packet(
        client,
        ipv4::addr(10, 0, 1, 200),
        ipv4::PROTO_ICMP,
        64,
        icmp::build_echo(false, 0xE2, 1, b"seeded").as_bytes(),
    );
    let truncated = PacketBuf::from_bytes(request.as_bytes()[..4].to_vec());
    for (case, event, datagram) in [
        (
            "redirect",
            IcmpEvent::Redirect(ipv4::addr(10, 0, 1, 1)),
            &request,
        ),
        (
            "parameter-problem-1",
            IcmpEvent::ParameterProblem(1),
            &request,
        ),
        (
            "parameter-problem-9",
            IcmpEvent::ParameterProblem(9),
            &request,
        ),
        ("truncated", IcmpEvent::EchoRequest, &truncated),
    ] {
        let mut responder = GeneratedResponder::new(icmp_program.clone()).with_mode(mode);
        let reply = responder.respond(event, datagram);
        out.push(format!(
            "icmp/{case}: {} errors={:?}",
            render_message(reply),
            responder.errors
        ));
    }

    // IGMP: report bytes for a query, silence for a report.
    let igmp_program = generate_program(Protocol::Igmp);
    let group = ipv4::addr(224, 0, 0, 251);
    for (case, query) in [
        (
            "query",
            igmp::build_message(igmp::msg_type::MEMBERSHIP_QUERY, 0),
        ),
        (
            "report",
            igmp::build_message(igmp::msg_type::MEMBERSHIP_REPORT, group),
        ),
    ] {
        let mut host = GeneratedIgmpResponder::new(igmp_program.clone(), group).with_mode(mode);
        let rendered = render_message(host.respond(&query));
        assert!(host.errors.is_empty(), "{case}: {:?}", host.errors);
        out.push(format!("igmp/{case}: {rendered}"));
    }
    let query = igmp::build_message(igmp::msg_type::MEMBERSHIP_QUERY, 0);
    let mut host = GeneratedIgmpResponder::new(igmp_program.clone(), group).with_mode(mode);
    let reply = host.respond(&PacketBuf::from_bytes(query.as_bytes()[..1].to_vec()));
    out.push(format!(
        "igmp/truncated: {} errors={:?}",
        render_message(reply),
        host.errors
    ));

    // NTP: the timeout grid and the server reply bytes.
    let ntp_program = generate_program(Protocol::Ntp);
    for mode_code in [
        ntp::mode::CLIENT,
        ntp::mode::SERVER,
        ntp::mode::SYMMETRIC_ACTIVE,
        ntp::mode::SYMMETRIC_PASSIVE,
        ntp::mode::BROADCAST,
    ] {
        for (timer, threshold) in [(64u64, 64u64), (63, 64)] {
            let peer = ntp::PeerVariables {
                timer,
                threshold,
                mode: mode_code,
            };
            let mut policy = GeneratedNtpTimeoutPolicy::new(ntp_program.clone()).with_mode(mode);
            out.push(format!(
                "ntp/timeout m={mode_code} t={timer}: {}",
                policy.timeout_due(&peer)
            ));
            assert!(policy.errors.is_empty());
        }
    }
    let request = ntp::build_packet(0, 1, ntp::mode::CLIENT, 0, 0xDEAD_BEEF_0000_0001);
    let mut server = GeneratedNtpServer::new(ntp_program.clone(), 2, 0x1234_5678).with_mode(mode);
    out.push(format!(
        "ntp/server: {}",
        render_message(server.respond(&request))
    ));
    assert!(server.errors.is_empty());
    let reply = server.respond(&PacketBuf::from_bytes(request.as_bytes()[..3].to_vec()));
    out.push(format!(
        "ntp/truncated: {} errors={:?}",
        render_message(reply),
        server.errors
    ));

    // BFD: the endpoint state machine over a packet battery.
    let bfd_program = generate_program(Protocol::Bfd);
    use bfd::SessionState::{AdminDown, Down, Init, Up};
    for (case, packet) in [
        ("down", bfd::build_control_packet(Down, 41, 9, 3, false)),
        ("init", bfd::build_control_packet(Init, 42, 9, 3, false)),
        ("up-demand", bfd::build_control_packet(Up, 44, 9, 3, true)),
        ("unknown", bfd::build_control_packet(Up, 45, 999, 3, false)),
        ("zero-mult", bfd::build_control_packet(Up, 46, 9, 0, false)),
    ] {
        let mut ep = GeneratedBfdEndpoint::new(bfd_program.clone(), 9, 41).with_mode(mode);
        ep.receive(&packet);
        assert!(ep.errors.is_empty(), "{case}: {:?}", ep.errors);
        out.push(format!(
            "bfd/{case}: {}",
            render_bfd_endpoint(ep.state(), &ep.session)
        ));
    }
    let packet = bfd::build_control_packet(Down, 41, 9, 3, false);
    let mut ep = GeneratedBfdEndpoint::new(bfd_program.clone(), 9, 41).with_mode(mode);
    ep.receive(&PacketBuf::from_bytes(packet.as_bytes()[..2].to_vec()));
    out.push(format!(
        "bfd/truncated: {} errors={:?}",
        render_bfd_endpoint(ep.state(), &ep.session),
        ep.errors
    ));
    // One endpoint carried through bring-up and back down: each packet
    // starts from the session variables the previous one left behind.
    let mut ep = GeneratedBfdEndpoint::new(bfd_program.clone(), 9, 41).with_mode(mode);
    for remote in [Down, Up, Up, AdminDown] {
        ep.receive(&bfd::build_control_packet(remote, 41, 9, 3, false));
        assert!(ep.errors.is_empty(), "walk/{remote:?}: {:?}", ep.errors);
        out.push(format!(
            "bfd/walk {remote:?}: {}",
            render_bfd_endpoint(ep.state(), &ep.session)
        ));
    }

    out.join("\n")
}

#[test]
fn vm_replies_match_tree_walker_replies_bit_for_bit() {
    // The tentpole guarantee: the bytecode VM is observationally identical
    // to the tree-walking oracle on every real generated program — full
    // reply packets, decisions, and session state, compared as one
    // transcript so a divergence shows exactly which stimulus split.
    //
    // The VM fast path must actually be taken (not silently fall back).
    let responder = GeneratedResponder::new(generate_program(Protocol::Icmp));
    assert_eq!(responder.engine(), ExecMode::Vm, "icmp program must lower");
    assert_eq!(
        engine_transcript(ExecMode::Vm),
        engine_transcript(ExecMode::TreeWalk)
    );
}

#[test]
fn generated_code_matches_reference_for_all_four_protocols() {
    let mut all = Vec::new();
    all.extend(icmp_cases());
    all.extend(igmp_cases());
    all.extend(ntp_cases());
    all.extend(bfd_cases());

    let mut failures = Vec::new();
    for c in &all {
        if c.generated != c.reference {
            failures.push(format!(
                "[{}] {}:\n  generated: {}\n  reference: {}",
                c.protocol, c.case, c.generated, c.reference
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));

    // The suite genuinely spans all four protocols with real replies.
    for protocol in ["ICMP", "IGMP", "NTP", "BFD"] {
        assert!(
            all.iter().any(|c| c.protocol == protocol),
            "no cases for {protocol}"
        );
    }
    assert!(
        all.iter()
            .filter(|c| c.protocol == "ICMP")
            .all(|c| c.generated.starts_with("reply ")),
        "every ICMP scenario must produce a reply"
    );
    assert!(all.len() >= 25, "suite shrank: {} cases", all.len());
}
