//! ICMP end-to-end code generation (§6.2 and Appendix A).
//!
//! This module drives the full workflow for RFC 792: run the pipeline over
//! the corpus, apply the human rewrites for the sentences the pipeline
//! flags (exactly the sentences the paper reports as truly ambiguous /
//! unparseable), convert the resolved logical forms to code, and exercise
//! the generated program against the virtual network with the simulated
//! `ping` / `traceroute` / `tcpdump` tools.
//!
//! The human-in-the-loop step is modelled by [`rewritten_resolutions`]: for
//! each sentence the pipeline cannot resolve on its own, it supplies the
//! disambiguated logical form corresponding to the rewritten sentence (the
//! paper's authors similarly rewrote 5 sentences and re-ran SAGE; §6.5).

use crate::batch::BatchItem;
use crate::pipeline::Sage;
use crate::programs::{annotate, emit, ICMP_TYPE_CODE};
use sage_codegen::Program;
use sage_interp::GeneratedResponder;
use sage_logic::{parse_lf, Lf};
use sage_netsim::headers::ipv4;
use sage_netsim::net::Network;
use sage_netsim::tcpdump::decode_packet;
use sage_netsim::tools::ping::{ping_once, PingOutcome, ECHO_PAYLOAD};
use sage_netsim::tools::traceroute::traceroute;
use sage_spec::context::Role;
use sage_spec::corpus::Protocol;

/// The disambiguated logical forms supplied by the human rewrites, keyed by
/// the message section they apply to.  These correspond one-to-one to the
/// rewritten sentences in `sage_spec::corpus::icmp::REWRITTEN_SENTENCES`.
pub fn rewritten_resolutions() -> Vec<(String, Role, &'static str, Lf)> {
    let reply_forming = |type_value: i64| {
        Lf::and(vec![
            Lf::action(
                "reverse",
                vec![Lf::atom("source and destination addresses")],
            ),
            Lf::is(Lf::atom("type code"), Lf::num(type_value)),
            Lf::action("recompute", vec![Lf::atom("checksum")]),
        ])
    };
    // The checksum description resolves to "recompute the ICMP checksum over
    // the whole message"; the zero-the-field advice is folded into the
    // framework's checksum routine (it always sums with the field zeroed).
    let checksum = parse_lf("@Action('recompute', 'checksum')").expect("static LF");
    let identifier = parse_lf("@If(@Is('code', @Num(0)), @Is('identifier', @From('identifier')))")
        .expect("static LF");
    let gateway = parse_lf("@Is('gateway_internet_address', 'next_gateway')").expect("static LF");
    let pointer =
        parse_lf("@If(@Is('code', @Num(0)), @Is('pointer', 'error_octet'))").expect("static LF");

    let mut out = Vec::new();
    for (section, reply_type) in [
        ("Echo or Echo Reply Message", 0),
        ("Timestamp or Timestamp Reply Message", 14),
        ("Information Request or Information Reply Message", 16),
    ] {
        out.push((
            section.to_string(),
            Role::Receiver,
            "reply-forming sentence (rewritten)",
            reply_forming(reply_type),
        ));
        out.push((
            section.to_string(),
            Role::Receiver,
            "checksum advice sentence",
            checksum.clone(),
        ));
        out.push((
            section.to_string(),
            Role::Receiver,
            "identifier sentence (rewritten: receiver copies the identifier)",
            identifier.clone(),
        ));
    }
    for section in [
        "Destination Unreachable Message",
        "Time Exceeded Message",
        "Source Quench Message",
    ] {
        out.push((
            section.to_string(),
            Role::Receiver,
            "checksum advice sentence",
            checksum.clone(),
        ));
    }
    out.push((
        "Parameter Problem Message".to_string(),
        Role::Receiver,
        "pointer sentence (subject supplied)",
        pointer,
    ));
    out.push((
        "Parameter Problem Message".to_string(),
        Role::Receiver,
        "checksum advice sentence",
        checksum.clone(),
    ));
    out.push((
        "Redirect Message".to_string(),
        Role::Receiver,
        "gateway sentence (rewritten)",
        gateway,
    ));
    out.push((
        "Redirect Message".to_string(),
        Role::Receiver,
        "checksum advice sentence",
        checksum,
    ));
    out
}

/// Run the pipeline over the ICMP corpus and produce the generated program.
///
/// Pipeline-resolved field-value assignments (the Type/Code idiom sentences)
/// are combined with the human-rewritten resolutions for the reply-forming,
/// checksum, identifier, gateway and pointer sentences.
pub fn generate_icmp_program() -> Program {
    let doc = Protocol::Icmp.document();
    let mut annotated = ICMP_TYPE_CODE.harvest(&Sage::default(), &BatchItem::from_document(&doc));
    annotated.extend(
        rewritten_resolutions()
            .into_iter()
            .map(|r| annotate("ICMP", r)),
    );
    emit(&doc, &annotated)
}

/// The outcome of the §6.2 end-to-end experiments.
#[derive(Debug, Clone)]
pub struct IcmpEndToEnd {
    /// Per-scenario ping outcomes: (scenario, success).
    pub ping_results: Vec<(String, bool)>,
    /// Whether traceroute completed and saw the router.
    pub traceroute_ok: bool,
    /// Whether every captured generated packet decoded cleanly in the
    /// tcpdump substitute.
    pub tcpdump_clean: bool,
    /// Number of packets captured and checked.
    pub packets_checked: usize,
}

impl IcmpEndToEnd {
    /// True if every check succeeded (the paper's headline claim).
    pub fn all_ok(&self) -> bool {
        self.ping_results.iter().all(|(_, ok)| *ok) && self.traceroute_ok && self.tcpdump_clean
    }
}

/// Run the end-to-end ICMP experiments with the generated program: echo
/// interoperation with `ping`, TTL-limited probing with `traceroute`,
/// unknown-destination handling, and packet-capture verification.
pub fn icmp_end_to_end(program: &Program) -> IcmpEndToEnd {
    let client = ipv4::addr(10, 0, 1, 100);
    let router = ipv4::addr(10, 0, 1, 1);
    let mut captured: Vec<Vec<u8>> = Vec::new();
    let mut ping_results = Vec::new();

    // Echo: ping the router.
    {
        let mut net = Network::appendix_a();
        let mut responder = GeneratedResponder::new(program.clone());
        let outcome = ping_once(
            &mut net,
            &mut responder,
            client,
            router,
            0x5A,
            1,
            ECHO_PAYLOAD,
        );
        ping_results.push(("echo".to_string(), outcome.success()));
    }
    // Destination unreachable: ping an unknown destination and expect the
    // error to come back and be understood.
    {
        let mut net = Network::appendix_a();
        let mut responder = GeneratedResponder::new(program.clone());
        let outcome = ping_once(
            &mut net,
            &mut responder,
            client,
            ipv4::addr(8, 8, 8, 8),
            0x5B,
            1,
            b"x",
        );
        ping_results.push((
            "destination unreachable".to_string(),
            outcome == PingOutcome::Error("destination unreachable"),
        ));
    }
    // Time exceeded: TTL-1 packet towards a server.
    {
        let mut net = Network::appendix_a();
        let mut responder = GeneratedResponder::new(program.clone());
        let echo = sage_netsim::headers::icmp::build_echo(false, 0x5C, 1, b"ttl");
        let pkt = ipv4::build_packet(
            client,
            ipv4::addr(192, 168, 2, 100),
            ipv4::PROTO_ICMP,
            1,
            echo.as_bytes(),
        );
        let action = net.router_process(&pkt, 0, &mut responder);
        let ok = matches!(&action, sage_netsim::net::RouterAction::IcmpReply(reply)
        if {
            captured.push(reply.as_bytes().to_vec());
            let inner = sage_netsim::buffer::PacketBuf::from_bytes(ipv4::payload(reply).to_vec());
            inner.get_field(sage_netsim::headers::icmp::FIELDS, "type").unwrap_or(0) == 11
        });
        ping_results.push(("time exceeded".to_string(), ok));
    }
    // Traceroute towards a server on another subnet.
    let traceroute_ok = {
        let mut net = Network::appendix_a();
        let mut responder = GeneratedResponder::new(program.clone());
        let report = traceroute(
            &mut net,
            &mut responder,
            client,
            ipv4::addr(192, 168, 2, 100),
            8,
        );
        report.completed && report.intermediate_routers().contains(&router)
    };

    // Packet-capture verification: generate each message type's reply and
    // run it through the tcpdump substitute.
    {
        let mut net = Network::appendix_a();
        let mut responder = GeneratedResponder::new(program.clone());
        let scenarios: Vec<sage_netsim::buffer::PacketBuf> = vec![
            // echo request to the router
            ipv4::build_packet(
                client,
                router,
                ipv4::PROTO_ICMP,
                64,
                sage_netsim::headers::icmp::build_echo(false, 1, 1, b"abcdefgh").as_bytes(),
            ),
            // unknown destination
            ipv4::build_packet(
                client,
                ipv4::addr(8, 8, 8, 8),
                ipv4::PROTO_ICMP,
                64,
                sage_netsim::headers::icmp::build_echo(false, 2, 1, b"abcdefgh").as_bytes(),
            ),
            // TTL expiry
            ipv4::build_packet(
                client,
                ipv4::addr(192, 168, 2, 100),
                ipv4::PROTO_ICMP,
                1,
                sage_netsim::headers::icmp::build_echo(false, 3, 1, b"abcdefgh").as_bytes(),
            ),
            // same-subnet redirect
            ipv4::build_packet(
                client,
                ipv4::addr(10, 0, 1, 200),
                ipv4::PROTO_ICMP,
                64,
                sage_netsim::headers::icmp::build_echo(false, 4, 1, b"abcdefgh").as_bytes(),
            ),
            // timestamp request to the router
            ipv4::build_packet(
                client,
                router,
                ipv4::PROTO_ICMP,
                64,
                sage_netsim::headers::icmp::build_timestamp(false, 5, 1, 1000, 0, 0).as_bytes(),
            ),
            // information request to the router
            ipv4::build_packet(
                client,
                router,
                ipv4::PROTO_ICMP,
                64,
                sage_netsim::headers::icmp::build_info(false, 6, 1).as_bytes(),
            ),
        ];
        for pkt in scenarios {
            if let sage_netsim::net::RouterAction::IcmpReply(reply) =
                net.router_process(&pkt, 0, &mut responder)
            {
                captured.push(reply.as_bytes().to_vec());
            }
        }
    }
    let tcpdump_clean = captured.iter().all(|bytes| decode_packet(bytes).clean());

    IcmpEndToEnd {
        ping_results,
        traceroute_ok,
        tcpdump_clean,
        packets_checked: captured.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_program_has_functions_for_all_eight_message_families() {
        let program = generate_icmp_program();
        for fragment in [
            "echo_or_echo_reply",
            "destination_unreachable",
            "time_exceeded",
            "parameter_problem",
            "source_quench",
            "redirect",
            "timestamp",
            "information",
        ] {
            assert!(
                program.functions.iter().any(|f| f.name.contains(fragment)),
                "no generated function for {fragment}; have: {:?}",
                program
                    .functions
                    .iter()
                    .map(|f| &f.name)
                    .collect::<Vec<_>>()
            );
        }
        // Structs extracted from the RFC art are part of the program.
        assert!(!program.structs.is_empty());
        assert!(program.to_c().contains("struct"));
    }

    #[test]
    fn echo_receiver_reverses_sets_type_and_recomputes() {
        let program = generate_icmp_program();
        let f = program
            .function("echo_or_echo_reply")
            .expect("echo function");
        let c = f.to_c();
        assert!(c.contains("reverse_source_and_destination"));
        assert!(c.contains("icmp_hdr->type = 0;"));
        assert!(c.contains("compute_checksum"));
    }

    #[test]
    fn end_to_end_interoperates_with_simulated_linux_tools() {
        let program = generate_icmp_program();
        let result = icmp_end_to_end(&program);
        assert!(result.all_ok(), "{result:#?}");
        assert!(result.packets_checked >= 5);
    }

    #[test]
    fn rewritten_resolutions_cover_every_flagged_sentence_shape() {
        let res = rewritten_resolutions();
        // 3 reply-forming + per-message checksum + identifier + gateway + pointer.
        assert!(res.len() >= 12);
        assert!(res.iter().any(|(s, ..)| s.contains("Redirect")));
        assert!(res.iter().any(|(s, ..)| s.contains("Parameter Problem")));
    }
}
