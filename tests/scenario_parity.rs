//! Exchange parity on the Appendix-A topology: for every protocol, the
//! packets the kernel scenarios originate are pinned byte-for-byte to an
//! exchange built here by hand from the header builders, the reference and
//! generated sessions originate identical packets, those packets match
//! `tests/traces/exchanges.txt`, and the generated sessions leave identical
//! kernel traces on both execution engines.
//!
//! To refresh the exchange golden after an intentional change:
//! `UPDATE_GOLDEN=1 cargo test --test scenario_parity` — then review the diff.

use sage_repro::core::programs::generate_program;
use sage_repro::interp::{generated_scenarios, ExecMode, ResponderRegistry};
use sage_repro::netsim::headers::bfd::SessionState;
use sage_repro::netsim::headers::{icmp, igmp, ipv4, ntp, udp};
use sage_repro::netsim::net::{IcmpResponder, Network, ReferenceResponder, RouterAction};
use sage_repro::netsim::scenario::{reference_scenarios, run_scenario, ScenarioRegistry};
use sage_repro::netsim::tools::{
    BfdEndpoint, IgmpResponder, NtpServer, NtpTimeoutPolicy, ReferenceBfdEndpoint,
    ReferenceIgmpResponder, ReferenceNtpServer, ReferenceTimeoutPolicy,
};
use sage_repro::spec::corpus::Protocol;
use std::fs;
use std::path::PathBuf;

fn registry() -> ResponderRegistry {
    let mut registry = ResponderRegistry::new();
    for protocol in Protocol::all() {
        registry.register(protocol.name(), generate_program(protocol));
    }
    registry
}

/// Run the named kernel scenario and return its originated packets.
fn kernel_packets(scenarios: &ScenarioRegistry, name: &str) -> Vec<Vec<u8>> {
    let scenario = scenarios
        .find(name)
        .unwrap_or_else(|| panic!("scenario {name} not registered"));
    let run = run_scenario(scenario.as_ref()).expect("scenario binds");
    assert!(run.ok(), "{name} failed: {:?}", run.outcome.failures());
    run.trace.originated_packets()
}

/// The first host of Appendix A (the client, 10.0.1.100).
fn client_addr(net: &Network) -> u32 {
    net.hosts[0].iface.addr
}

/// The ping exchange as on-the-wire bytes: the echo request plus the reply
/// the Appendix-A router produces with `responder`.
fn hand_built_ping(responder: &mut dyn IcmpResponder) -> Vec<Vec<u8>> {
    let mut net = Network::appendix_a();
    let client = client_addr(&net);
    let router = net.router.interfaces[0].addr;
    let echo = icmp::build_echo(false, 0x77, 1, b"0123456789abcdef");
    let request = ipv4::build_packet(client, router, ipv4::PROTO_ICMP, 64, echo.as_bytes());
    let RouterAction::IcmpReply(reply) = net.router_process(&request, 0, responder) else {
        panic!("router did not reply to the echo request");
    };
    vec![request.as_bytes().to_vec(), reply.as_bytes().to_vec()]
}

/// The IGMP exchange: the router's all-hosts Host Membership Query (TTL 1)
/// and `host`'s report for `group`.
fn hand_built_igmp(host: &mut dyn IgmpResponder, group: u32) -> Vec<Vec<u8>> {
    let net = Network::appendix_a();
    let router = net.router.interfaces[0].addr;
    let query = igmp::build_message(igmp::msg_type::MEMBERSHIP_QUERY, 0);
    let query_ip = ipv4::build_packet(
        router,
        ipv4::addr(224, 0, 0, 1),
        ipv4::PROTO_IGMP,
        1,
        query.as_bytes(),
    );
    let report = host.respond(&query).expect("host reports membership");
    let report_ip = ipv4::build_packet(
        client_addr(&net),
        group,
        ipv4::PROTO_IGMP,
        1,
        report.as_bytes(),
    );
    vec![query_ip.as_bytes().to_vec(), report_ip.as_bytes().to_vec()]
}

/// The NTP exchange: the client's timeout procedure fires for a peer whose
/// timer reached the threshold, the router forwards the request to the
/// first server, and the server's reply goes back to the request's source
/// port (the Appendix-A rule).
fn hand_built_ntp(policy: &mut dyn NtpTimeoutPolicy, server: &mut dyn NtpServer) -> Vec<Vec<u8>> {
    let peer = ntp::PeerVariables {
        timer: 64,
        threshold: 64,
        mode: ntp::mode::CLIENT,
    };
    assert!(policy.timeout_due(&peer), "timeout procedure must fire");
    let mut net = Network::appendix_a();
    let client = client_addr(&net);
    let server_addr = net.hosts[1].iface.addr;
    let client_port = 45123;

    let request = ntp::build_packet(0, 1, ntp::mode::CLIENT, 0, 0xDEAD_BEEF);
    let request_udp = ntp::encapsulate_in_udp(client, server_addr, client_port, &request);
    let request_ip = ipv4::build_packet(
        client,
        server_addr,
        ipv4::PROTO_UDP,
        64,
        request_udp.as_bytes(),
    );
    assert_eq!(
        net.router_process(&request_ip, 0, &mut ReferenceResponder),
        RouterAction::Forwarded(1)
    );

    let reply = server.respond(&request).expect("server answers a client");
    let reply_udp = udp::build_datagram(
        server_addr,
        client,
        udp::NTP_PORT,
        client_port,
        reply.as_bytes(),
    );
    let reply_ip = ipv4::build_packet(
        server_addr,
        client,
        ipv4::PROTO_UDP,
        64,
        reply_udp.as_bytes(),
    );
    vec![request_ip.as_bytes().to_vec(), reply_ip.as_bytes().to_vec()]
}

/// The BFD bring-up between 10.0.1.100 (`a`, the initiator) and 10.0.1.200
/// (`b`): control packets alternate a→b, b→a, UDP-encapsulated on the
/// single-hop control port with TTL 255, until both endpoints are Up.
fn hand_built_bfd(a: &mut dyn BfdEndpoint, b: &mut dyn BfdEndpoint) -> Vec<Vec<u8>> {
    let addr_a = ipv4::addr(10, 0, 1, 100);
    let addr_b = ipv4::addr(10, 0, 1, 200);
    let send = |from: &dyn BfdEndpoint, src: u32, dst: u32| {
        let control = from.control_packet();
        let datagram = udp::build_datagram(src, dst, 49152, 3784, control.as_bytes());
        let ip = ipv4::build_packet(src, dst, ipv4::PROTO_UDP, 255, datagram.as_bytes());
        (control, ip.as_bytes().to_vec())
    };
    let both_up = |a: &dyn BfdEndpoint, b: &dyn BfdEndpoint| {
        a.state() == SessionState::Up && b.state() == SessionState::Up
    };
    let mut packets = Vec::new();
    for _ in 0..4 {
        let (control, ip) = send(a, addr_a, addr_b);
        packets.push(ip);
        b.receive(&control);
        if both_up(a, b) {
            break;
        }
        let (control, ip) = send(b, addr_b, addr_a);
        packets.push(ip);
        a.receive(&control);
        if both_up(a, b) {
            break;
        }
    }
    assert!(both_up(a, b), "hand-built bring-up did not come up");
    packets
}

#[test]
fn ping_kernel_trace_matches_the_legacy_exchange() {
    let reference = kernel_packets(&reference_scenarios(), "ping/reference");
    assert_eq!(reference, hand_built_ping(&mut ReferenceResponder));

    let registry = registry();
    let generated = kernel_packets(&generated_scenarios(&registry), "ping/generated");
    let mut responder = registry.icmp_responder().expect("icmp program");
    assert_eq!(generated, hand_built_ping(&mut responder));

    // The generated and reference exchanges are themselves identical (the
    // §6.2 interoperation claim restated at the trace level).
    assert_eq!(reference, generated);
}

#[test]
fn igmp_kernel_trace_matches_the_legacy_exchange() {
    let group = ipv4::addr(224, 0, 0, 251);
    let registry = registry();

    let mut host = registry.igmp_responder(group).expect("igmp program");
    let generated = kernel_packets(&generated_scenarios(&registry), "igmp/generated");
    assert_eq!(generated, hand_built_igmp(&mut host, group));

    let mut reference_host = ReferenceIgmpResponder { group };
    let reference = kernel_packets(&reference_scenarios(), "igmp/reference");
    assert_eq!(reference, hand_built_igmp(&mut reference_host, group));
    assert_eq!(reference, generated);
}

#[test]
fn ntp_kernel_trace_matches_the_legacy_exchange() {
    let registry = registry();

    let mut policy = registry.ntp_timeout_policy().expect("ntp program");
    let mut server = registry.ntp_server(2, 0x1000).expect("ntp program");
    let generated = kernel_packets(&generated_scenarios(&registry), "ntp/generated");
    assert_eq!(generated, hand_built_ntp(&mut policy, &mut server));

    let mut reference_server = ReferenceNtpServer {
        stratum: 2,
        clock: 0x1000,
    };
    let reference = kernel_packets(&reference_scenarios(), "ntp/reference");
    assert_eq!(
        reference,
        hand_built_ntp(&mut ReferenceTimeoutPolicy, &mut reference_server)
    );
}

#[test]
fn bfd_kernel_trace_matches_the_legacy_bring_up() {
    let registry = registry();

    let mut a = registry.bfd_endpoint(7, 9).expect("bfd program");
    let mut b = registry.bfd_endpoint(9, 7).expect("bfd program");
    let generated = kernel_packets(&generated_scenarios(&registry), "bfd/generated");
    assert_eq!(generated, hand_built_bfd(&mut a, &mut b));

    let mut ra = ReferenceBfdEndpoint::new(7, 9);
    let mut rb = ReferenceBfdEndpoint::new(9, 7);
    let reference = kernel_packets(&reference_scenarios(), "bfd/reference");
    assert_eq!(reference, hand_built_bfd(&mut ra, &mut rb));
}

/// The packets each protocol's `<prefix>/reference` and `<prefix>/generated`
/// sessions originate on Appendix A: the two must agree (the §6.2–§6.4
/// interoperation claim restated at the wire level), and both must match
/// the golden, one `prefix index hex` line per packet.
#[test]
fn exchanges_match_the_committed_golden() {
    let reference = reference_scenarios();
    let generated = generated_scenarios(&registry());
    let mut lines = Vec::new();
    for prefix in ["ping", "igmp", "ntp", "bfd"] {
        let expected = kernel_packets(&reference, &format!("{prefix}/reference"));
        let actual = kernel_packets(&generated, &format!("{prefix}/generated"));
        assert_eq!(expected, actual, "{prefix}: generated exchange differs");
        for (i, packet) in expected.iter().enumerate() {
            let hex: String = packet.iter().map(|b| format!("{b:02x}")).collect();
            lines.push(format!("{prefix} {i} {hex}"));
        }
    }
    let text = lines.join("\n") + "\n";
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/traces/exchanges.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        fs::write(&path, &text).expect("write golden");
        return;
    }
    let golden = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {}: {e}; run with UPDATE_GOLDEN=1", path.display()));
    assert_eq!(golden, text, "exchanges diverged from {}", path.display());
}

#[test]
fn kernel_traces_are_identical_on_both_execution_engines() {
    // The generated scenarios run on the bytecode VM by default; pinning
    // the full kernel trace (packets, delivery times, state notes) against
    // a tree-walker registry proves the engine swap is invisible to the
    // discrete-event kernel for every protocol.
    let registry = registry();
    let vm = registry.responders(ExecMode::Vm).scenarios("generated");
    let tree = registry
        .responders(ExecMode::TreeWalk)
        .scenarios("generated");
    let mut compared = 0;
    for scenario in vm.scenarios() {
        let name = scenario.name();
        let vm_run = run_scenario(scenario.as_ref()).expect("scenario binds");
        let tree_scenario = tree.find(name).expect("same scenario set");
        let tree_run = run_scenario(tree_scenario.as_ref()).expect("scenario binds");
        assert!(vm_run.ok(), "{name} failed on the VM");
        assert_eq!(
            vm_run.trace.render(),
            tree_run.trace.render(),
            "{name} trace diverged between engines"
        );
        compared += 1;
    }
    assert_eq!(compared, 4, "one scenario per protocol");

    // And the default registry is the VM one.
    let default_run = run_scenario(
        generated_scenarios(&registry)
            .find("ping/generated")
            .unwrap()
            .as_ref(),
    )
    .unwrap();
    let vm_run = run_scenario(vm.find("ping/generated").unwrap().as_ref()).unwrap();
    assert_eq!(default_run.trace.render(), vm_run.trace.render());
}

#[test]
fn ping_outcome_parity_between_kernel_and_legacy_driver() {
    use sage_repro::netsim::tools::ping::ping_once;
    let mut net = Network::appendix_a();
    let legacy = ping_once(
        &mut net,
        &mut ReferenceResponder,
        ipv4::addr(10, 0, 1, 100),
        ipv4::addr(10, 0, 1, 1),
        0x77,
        1,
        b"0123456789abcdef",
    );
    let scenarios = reference_scenarios();
    let run = run_scenario(scenarios.find("ping/reference").unwrap().as_ref()).unwrap();
    assert_eq!(legacy.success(), run.ok());
}
