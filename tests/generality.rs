//! Integration tests for the generality studies (§6.3 IGMP and NTP, §6.4
//! BFD) and the evaluation harness as a whole.

use sage_repro::core::evaluation;
use sage_repro::core::pipeline::{Sage, SageConfig, SentenceStatus};
use sage_repro::netsim::headers::{igmp, ipv4};
use sage_repro::netsim::tcpdump::decode_packet;
use sage_repro::spec::corpus::Protocol;

#[test]
fn igmp_corpus_parses_and_membership_query_interoperates() {
    // Parsing: the IGMP Appendix I text goes through the pipeline.
    let sage = Sage::new(SageConfig::default());
    let report = sage.analyze_document(&Protocol::Igmp.document());
    assert!(report.reports.len() >= 8);
    assert!(report.count(SentenceStatus::Resolved) >= 3);

    // Interoperation: a host membership query gets a report back whose
    // packet decodes cleanly (the commodity-switch experiment of §6.3).
    let query = igmp::build_message(igmp::msg_type::MEMBERSHIP_QUERY, 0);
    let group = ipv4::addr(224, 0, 0, 251);
    let report_msg = igmp::respond_to_query(&query, group).expect("hosts answer queries");
    assert!(igmp::checksum_ok(&report_msg));
    let packet = ipv4::build_packet(
        ipv4::addr(10, 0, 1, 100),
        group,
        ipv4::PROTO_IGMP,
        1,
        report_msg.as_bytes(),
    );
    let decoded = decode_packet(packet.as_bytes());
    assert!(decoded.clean(), "{:?}", decoded.warnings);
    assert!(decoded.summary.contains("IGMP"));
}

#[test]
fn ntp_timeout_table11_reproduces() {
    let t11 = evaluation::table11();
    assert!(t11.generated_code.contains("peer.timer >= peer.threshold"));
    assert!(t11.generated_code.contains("timeout_procedure()"));
    assert!(t11.semantics_ok);
}

#[test]
fn ntp_document_parses_and_udp_encapsulation_works() {
    let sage = Sage::default();
    let report = sage.analyze_document(&Protocol::Ntp.document());
    assert!(report.reports.len() >= 10);

    use sage_repro::netsim::headers::{ntp, udp};
    let msg = ntp::build_packet(0, 1, ntp::mode::CLIENT, 2, 42);
    let d = ntp::encapsulate_in_udp(ipv4::addr(1, 1, 1, 1), ipv4::addr(2, 2, 2, 2), 40000, &msg);
    assert_eq!(d.get_field(udp::FIELDS, "destination_port").unwrap(), 123);
}

#[test]
fn bfd_state_management_parses_and_winnows() {
    let sage = Sage::default();
    let report = sage.analyze_sentences(
        "BFD",
        sage_repro::spec::corpus::bfd::STATE_MANAGEMENT_SENTENCES,
    );
    assert_eq!(report.reports.len(), 22);
    let parsed = report
        .analyses()
        .filter(|a| a.status != SentenceStatus::ZeroLf)
        .count();
    assert!(parsed >= 12, "only {parsed}/22 BFD sentences parsed");
    // Long conditionals over-generate and are winnowed back down.
    let worst = report.analyses().map(|a| a.base_lf_count).max().unwrap();
    assert!(
        worst >= 4,
        "expected over-generation on long sentences, max base was {worst}"
    );
    for a in report.analyses() {
        if a.base_lf_count > 0 {
            assert!(
                a.trace.counts[5] <= a.base_lf_count,
                "winnowing should never increase the LF count"
            );
        }
    }
}

#[test]
fn every_table_and_figure_regenerates() {
    assert_eq!(evaluation::table2().len(), 6);
    assert_eq!(evaluation::table3().len(), 7);
    assert_eq!(evaluation::table6().len(), 3);
    let t7 = evaluation::table7();
    assert!(t7.good_lf_count <= t7.poor_lf_count);
    assert_eq!(evaluation::table8().len(), 2);
    assert_eq!(evaluation::table9().rows.len(), 6);
    assert_eq!(evaluation::table10().rows.len(), 7);
    assert_eq!(evaluation::figure5(Protocol::Icmp).len(), 6);
    assert_eq!(evaluation::figure5(Protocol::Igmp).len(), 6);
    assert_eq!(evaluation::figure5(Protocol::Bfd).len(), 6);
    assert_eq!(evaluation::figure6().len(), 4);
    assert_eq!(
        evaluation::lexicon_extension_counts(),
        vec![("ICMP", 71), ("IGMP", 8), ("NTP", 5), ("BFD", 15)]
    );
}

#[test]
fn figure5_bfd_shows_large_base_ambiguity() {
    // The paper observes up to 56 LFs for long BFD sentences before
    // winnowing; our substrate should at least show substantial ambiguity
    // collapsing to (near) one.
    let points = evaluation::figure5(Protocol::Bfd);
    let base = &points[0];
    let final_stage = &points[5];
    assert!(base.max >= 4, "base max = {}", base.max);
    assert!(final_stage.avg <= base.avg);
}
