//! Integration test spanning the whole workspace: the §6.2 end-to-end ICMP
//! experiment (RFC text → pipeline → generated code → virtual network →
//! simulated Linux tools).

use sage_repro::core::{generate_icmp_program, icmp_end_to_end};
use sage_repro::interp::GeneratedResponder;
use sage_repro::netsim::headers::{icmp, ipv4};
use sage_repro::netsim::net::{Router, RouterAction};
use sage_repro::netsim::sim::Topology;
use sage_repro::netsim::tcpdump::decode_packet;
use sage_repro::netsim::tools::ping::{echo_request, ping_once};

#[test]
fn generated_icmp_interoperates_end_to_end() {
    let program = generate_icmp_program();
    let result = icmp_end_to_end(&program);
    assert!(result.all_ok(), "{result:#?}");
    assert!(result.packets_checked >= 5);
}

// Generated-vs-reference parity (formerly the ICMP-only
// `generated_code_matches_reference_for_echo`) now lives in
// `tests/parity.rs` as one parameterized suite spanning all four protocols.

/// The Appendix-A client (10.0.1.100) and the router interface facing it
/// (10.0.1.1).
fn client_and_router() -> (u32, u32) {
    let topology = Topology::appendix_a();
    let addr = |name: &str| topology.addr_of(topology.node_named(name).expect("Appendix-A node"));
    (addr("client"), addr("router"))
}

#[test]
fn all_eight_message_scenarios_produce_clean_captures() {
    let program = generate_icmp_program();
    let (client, router_addr) = client_and_router();
    // Source quench: mark a buffer full.
    let router = Router {
        full_buffers: vec![1],
        ..Router::appendix_a()
    };
    let mut responder = GeneratedResponder::new(program);

    // Parameter problem: unsupported type of service.
    let mut param_problem_trigger = echo_request(client, ipv4::addr(172, 64, 3, 100), 8, 1, b"x");
    param_problem_trigger
        .set_field(ipv4::FIELDS, "type_of_service", 1)
        .unwrap();
    ipv4::refresh_checksum(&mut param_problem_trigger);
    let all: Vec<(&str, sage_repro::netsim::buffer::PacketBuf)> = vec![
        ("echo", echo_request(client, router_addr, 1, 1, b"x")),
        (
            "dest-unreachable",
            echo_request(client, ipv4::addr(9, 9, 9, 9), 2, 1, b"x"),
        ),
        (
            "time-exceeded",
            ipv4::build_packet(
                client,
                ipv4::addr(192, 168, 2, 100),
                ipv4::PROTO_ICMP,
                1,
                icmp::build_echo(false, 3, 1, b"x").as_bytes(),
            ),
        ),
        (
            "redirect",
            echo_request(client, ipv4::addr(10, 0, 1, 50), 4, 1, b"x"),
        ),
        (
            "timestamp",
            ipv4::build_packet(
                client,
                router_addr,
                ipv4::PROTO_ICMP,
                64,
                icmp::build_timestamp(false, 5, 1, 123, 0, 0).as_bytes(),
            ),
        ),
        (
            "information",
            ipv4::build_packet(
                client,
                router_addr,
                ipv4::PROTO_ICMP,
                64,
                icmp::build_info(false, 6, 1).as_bytes(),
            ),
        ),
        (
            "source-quench",
            echo_request(client, ipv4::addr(192, 168, 2, 100), 7, 1, b"x"),
        ),
        ("parameter-problem", param_problem_trigger),
    ];

    let mut replies = 0;
    for (name, pkt) in &all {
        match router.process(pkt, 0, |_| false, &mut responder) {
            RouterAction::IcmpReply(reply) => {
                replies += 1;
                let decoded = decode_packet(reply.as_bytes());
                assert!(
                    decoded.clean(),
                    "{name}: {} -> {:?}",
                    decoded.summary,
                    decoded.warnings
                );
            }
            other => panic!("{name}: expected an ICMP reply, got {other:?}"),
        }
    }
    assert_eq!(replies, 8, "every scenario should produce a reply");
}

#[test]
fn faulty_student_implementations_fail_ping_but_generated_code_passes() {
    use sage_repro::netsim::faulty::{ChecksumInterpretation, FaultSpec, StudentResponder};
    let (client, router_addr) = client_and_router();
    let router = Router::appendix_a();

    // A wrong checksum-range interpretation (Table 3 row 4) breaks interop.
    let mut faulty = StudentResponder::new(FaultSpec {
        checksum: ChecksumInterpretation::IpHeader,
        ..FaultSpec::correct()
    });
    let outcome = ping_once(
        &router,
        &mut faulty,
        client,
        router_addr,
        1,
        1,
        b"payload-bytes",
    );
    assert!(!outcome.success());

    // The SAGE-generated implementation passes the same test.
    let program = generate_icmp_program();
    let mut generated = GeneratedResponder::new(program);
    let outcome = ping_once(
        &router,
        &mut generated,
        client,
        router_addr,
        1,
        1,
        b"payload-bytes",
    );
    assert!(outcome.success(), "{outcome:?}");
}
