//! Integration test spanning the whole workspace: the §6.2 end-to-end ICMP
//! experiment (RFC text → pipeline → generated code → virtual network →
//! simulated Linux tools).

use sage_repro::core::{generate_icmp_program, icmp_end_to_end};
use sage_repro::interp::GeneratedResponder;
use sage_repro::netsim::headers::{icmp, ipv4};
use sage_repro::netsim::net::{Network, RouterAction};
use sage_repro::netsim::pcap::{read_pcap, PcapWriter};
use sage_repro::netsim::tcpdump::decode_packet;
use sage_repro::netsim::tools::ping::ping_once;

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

#[test]
fn all_eight_message_scenarios_produce_clean_captures() {
    let program = generate_icmp_program();
    let client = ipv4::addr(10, 0, 1, 100);
    let router = ipv4::addr(10, 0, 1, 1);
    let mut net = Network::appendix_a();
    let mut responder = GeneratedResponder::new(program);
    let mut pcap = PcapWriter::new();

    let scenarios: Vec<(&str, sage_repro::netsim::buffer::PacketBuf)> = vec![
        (
            "echo",
            ipv4::build_packet(
                client,
                router,
                ipv4::PROTO_ICMP,
                64,
                icmp::build_echo(false, 1, 1, b"x").as_bytes(),
            ),
        ),
        (
            "dest-unreachable",
            ipv4::build_packet(
                client,
                ipv4::addr(9, 9, 9, 9),
                ipv4::PROTO_ICMP,
                64,
                icmp::build_echo(false, 2, 1, b"x").as_bytes(),
            ),
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
            ipv4::build_packet(
                client,
                ipv4::addr(10, 0, 1, 50),
                ipv4::PROTO_ICMP,
                64,
                icmp::build_echo(false, 4, 1, b"x").as_bytes(),
            ),
        ),
        (
            "timestamp",
            ipv4::build_packet(
                client,
                router,
                ipv4::PROTO_ICMP,
                64,
                icmp::build_timestamp(false, 5, 1, 123, 0, 0).as_bytes(),
            ),
        ),
        (
            "information",
            ipv4::build_packet(
                client,
                router,
                ipv4::PROTO_ICMP,
                64,
                icmp::build_info(false, 6, 1).as_bytes(),
            ),
        ),
    ];
    // Source quench: mark a buffer full.
    net.router.full_buffers.push(1);
    let source_quench_trigger = ipv4::build_packet(
        client,
        ipv4::addr(192, 168, 2, 100),
        ipv4::PROTO_ICMP,
        64,
        icmp::build_echo(false, 7, 1, b"x").as_bytes(),
    );
    // Parameter problem: unsupported type of service.
    let mut param_problem_trigger = ipv4::build_packet(
        client,
        ipv4::addr(172, 64, 3, 100),
        ipv4::PROTO_ICMP,
        64,
        icmp::build_echo(false, 8, 1, b"x").as_bytes(),
    );
    param_problem_trigger
        .set_field(ipv4::FIELDS, "type_of_service", 1)
        .unwrap();
    ipv4::refresh_checksum(&mut param_problem_trigger);

    let mut all = scenarios;
    all.push(("source-quench", source_quench_trigger));
    all.push(("parameter-problem", param_problem_trigger));

    let mut replies = 0;
    for (i, (name, pkt)) in all.iter().enumerate() {
        match net.router_process(pkt, 0, &mut responder) {
            RouterAction::IcmpReply(reply) => {
                replies += 1;
                pcap.add_packet(i as u32, reply.as_bytes());
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
    // The capture round-trips through the pcap format.
    let packets = read_pcap(&pcap.to_bytes()).expect("valid pcap");
    assert_eq!(packets.len(), 8);
}

#[test]
fn faulty_student_implementations_fail_ping_but_generated_code_passes() {
    use sage_repro::netsim::faulty::{ChecksumInterpretation, FaultSpec, StudentResponder};
    let client = ipv4::addr(10, 0, 1, 100);
    let router = ipv4::addr(10, 0, 1, 1);

    // A wrong checksum-range interpretation (Table 3 row 4) breaks interop.
    let mut net = Network::appendix_a();
    let mut faulty = StudentResponder::new(FaultSpec {
        checksum: ChecksumInterpretation::IpHeader,
        ..FaultSpec::correct()
    });
    let outcome = ping_once(
        &mut net,
        &mut faulty,
        client,
        router,
        1,
        1,
        b"payload-bytes",
    );
    assert!(!outcome.success());

    // The SAGE-generated implementation passes the same test.
    let program = generate_icmp_program();
    let mut net = Network::appendix_a();
    let mut generated = GeneratedResponder::new(program);
    let outcome = ping_once(
        &mut net,
        &mut generated,
        client,
        router,
        1,
        1,
        b"payload-bytes",
    );
    assert!(outcome.success(), "{outcome:?}");
}
