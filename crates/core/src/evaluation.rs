//! The evaluation harness: regenerates every table and figure in §2 and §6
//! of the paper.  The `sage-bench` binaries print these; `EXPERIMENTS.md`
//! records measured-vs-paper values.

use crate::pipeline::{Sage, SageConfig, SentenceStatus};
use sage_ccg::ParserConfig;
use sage_disambig::stats::{all_check_effects_interned, CheckEffect};
use sage_disambig::winnow::WinnowStage;
use sage_logic::parse_lf;
use sage_netsim::faulty::{
    classify_errors, ChecksumInterpretation, ErrorCategory, FaultSpec, StudentResponder,
};
use sage_netsim::headers::{icmp, ipv4};
use sage_netsim::net::{Router, RouterAction};
use sage_netsim::tools::ping::{echo_request, validate_reply};
use sage_nlp::ChunkerConfig;
use sage_spec::corpus::{icmp as icmp_corpus, Protocol};

// ---------------------------------------------------------------------------
// Table 2 — student implementation error categories
// ---------------------------------------------------------------------------

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Error category label.
    pub label: &'static str,
    /// Fraction of faulty implementations exhibiting the error (0..=1).
    pub frequency: f64,
}

/// The deterministic cohort of 14 faulty student implementations, built so
/// that the per-category frequencies match Table 2 (57%, 57%, 29%, 43%,
/// 29%, 36% of 14 ≈ 8, 8, 4, 6, 4, 5 implementations).
pub fn faulty_cohort() -> Vec<FaultSpec> {
    let correct = FaultSpec::correct();
    let mut cohort = vec![correct; 14];
    // IP-header errors: implementations 0..8
    for spec in cohort.iter_mut().take(8) {
        spec.ip_header_error = true;
    }
    // ICMP-header errors: implementations 6..14
    for spec in cohort.iter_mut().skip(6) {
        spec.icmp_header_error = true;
    }
    // Byte-order errors: 0..4
    for spec in cohort.iter_mut().take(4) {
        spec.byte_order_error = true;
    }
    // Payload-content errors: 4..10
    for spec in cohort.iter_mut().skip(4).take(6) {
        spec.payload_error = true;
    }
    // Length errors: 10..14
    for spec in cohort.iter_mut().skip(10) {
        spec.length_error = true;
    }
    // Checksum errors: 0..5 use wrong checksum ranges (Table 3 readings).
    cohort[0].checksum = ChecksumInterpretation::IpHeader;
    cohort[1].checksum = ChecksumInterpretation::SpecificHeaderSize;
    cohort[2].checksum = ChecksumInterpretation::PartialHeader;
    cohort[3].checksum = ChecksumInterpretation::MagicConstant(2);
    cohort[4].checksum = ChecksumInterpretation::IpHeader;
    cohort
}

/// Run one simulated student implementation against the echo test and
/// classify its errors.
pub fn classify_student(spec: FaultSpec) -> Vec<ErrorCategory> {
    let echo = icmp::build_echo(false, 0x2222, 9, b"0123456789abcdef");
    let request = ipv4::build_packet(
        ipv4::addr(10, 0, 1, 100),
        ipv4::addr(10, 0, 1, 1),
        ipv4::PROTO_ICMP,
        64,
        echo.as_bytes(),
    );
    // Students implement the full reply path, including the IP header, so
    // the classification runs on the complete reply they construct.
    let reply = StudentResponder::new(spec).build_ip_reply(&request);
    classify_errors(&reply, &request)
}

/// Regenerate Table 2: error-category frequencies over the faulty cohort.
pub fn table2() -> Vec<Table2Row> {
    let cohort = faulty_cohort();
    let mut counts = std::collections::HashMap::new();
    for spec in &cohort {
        for cat in classify_student(*spec) {
            *counts.entry(cat).or_insert(0usize) += 1;
        }
    }
    ErrorCategory::all()
        .into_iter()
        .map(|cat| Table2Row {
            label: cat.label(),
            frequency: counts.get(&cat).copied().unwrap_or(0) as f64 / cohort.len() as f64,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 3 — checksum-range interpretations
// ---------------------------------------------------------------------------

/// One row of Table 3, extended with whether the interpretation
/// interoperates with the simulated `ping`.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Row index (1..=7).
    pub index: usize,
    /// The paper's description of the interpretation.
    pub description: &'static str,
    /// Measured: does an implementation using this range interoperate?
    pub interoperates: bool,
}

/// Regenerate Table 3 by running each interpretation through the echo test.
pub fn table3() -> Vec<Table3Row> {
    let router = Router::appendix_a();
    ChecksumInterpretation::all()
        .into_iter()
        .map(|interp| {
            let spec = FaultSpec {
                checksum: interp,
                ..FaultSpec::correct()
            };
            let payload: Vec<u8> = (0u8..64).collect();
            let request = echo_request(
                ipv4::addr(10, 0, 1, 100),
                ipv4::addr(10, 0, 1, 1),
                7,
                1,
                &payload,
            );
            let interoperates =
                match router.process(&request, 0, |_| false, &mut StudentResponder::new(spec)) {
                    RouterAction::IcmpReply(reply) => {
                        validate_reply(&reply, ipv4::addr(10, 0, 1, 100), 7, 1, &payload).success()
                    }
                    _ => false,
                };
            Table3Row {
                index: interp.index(),
                description: interp.description(),
                interoperates,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 6 — categorised rewritten text
// ---------------------------------------------------------------------------

/// One row of Table 6.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table6Row {
    /// Category ("More than 1 LF", "0 LF", "Imprecise sentence").
    pub category: &'static str,
    /// Example sentence.
    pub example: &'static str,
    /// Count of instances.
    pub count: usize,
}

/// Regenerate Table 6 from the curated corpus sentence sets.
pub fn table6() -> Vec<Table6Row> {
    vec![
        Table6Row {
            category: "More than 1 LF",
            example: icmp_corpus::MULTI_LF_SENTENCES[0],
            count: icmp_corpus::MULTI_LF_SENTENCES.len(),
        },
        Table6Row {
            category: "0 LF",
            example: icmp_corpus::ZERO_LF_SENTENCES[0],
            count: icmp_corpus::ZERO_LF_SENTENCES.len(),
        },
        Table6Row {
            category: "Imprecise sentence",
            example: icmp_corpus::IMPRECISE_SENTENCES[0],
            count: icmp_corpus::IMPRECISE_SENTENCES.len(),
        },
    ]
}

// ---------------------------------------------------------------------------
// Table 7 — noun-phrase labelling quality
// ---------------------------------------------------------------------------

/// A Table 7 measurement: LF counts under good and poor NP labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table7Result {
    /// #LFs with the good labelling ("echo reply message" as one NP).
    pub good_lf_count: usize,
    /// #LFs with the poor labelling ("echo reply" + "message" separately).
    pub poor_lf_count: usize,
}

/// Regenerate Table 7: parse the echo-address sentence with the phrase
/// "echo reply message" either kept intact or split, and count base LFs.
pub fn table7() -> Table7Result {
    let good_sage = Sage::default();
    // Poor labelling: the domain dictionary is not consulted, so multi-word
    // phrases such as "echo reply message" are not kept as single noun
    // phrases (the paper's "poor" labelling splits exactly that phrase).
    let poor_sage = Sage::new(SageConfig {
        chunker: ChunkerConfig {
            use_dictionary: false,
            use_np_labeling: true,
        },
        ..SageConfig::default()
    });
    let sentence = sage_spec::document::Sentence {
        text: "The address of the source in an echo message will be the destination of the echo reply message.".into(),
        section: "Echo or Echo Reply Message".into(),
        field: None,
    };
    let ctx = sage_spec::context::ContextDict {
        protocol: "ICMP".into(),
        message: sentence.section.clone(),
        field: String::new(),
        role: Default::default(),
    };
    let good = good_sage.analyze_sentence(&sentence, ctx.clone());
    let poor = poor_sage.analyze_sentence(&sentence, ctx);
    Table7Result {
        good_lf_count: good.base_lf_count,
        poor_lf_count: poor.base_lf_count,
    }
}

// ---------------------------------------------------------------------------
// Table 8 — ablation of the dictionary and NP labelling
// ---------------------------------------------------------------------------

/// One row of Table 8: per-sentence effect of removing a component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table8Row {
    /// The removed component.
    pub component: &'static str,
    /// Number of sentences whose base LF count increased.
    pub increase: usize,
    /// Number of sentences whose base LF count decreased.
    pub decrease: usize,
    /// Number of sentences that dropped to zero LFs.
    pub zero: usize,
}

/// Regenerate Table 8 by re-running the pipeline with each component
/// disabled and comparing per-sentence LF counts against the baseline.
pub fn table8() -> Vec<Table8Row> {
    let doc = Protocol::Icmp.document();
    let baseline = Sage::default().analyze_document(&doc);
    let configs = [
        (
            "Domain-specific Dict.",
            SageConfig {
                chunker: ChunkerConfig {
                    use_dictionary: false,
                    use_np_labeling: true,
                },
                ..SageConfig::default()
            },
        ),
        (
            "Noun-phrase Labeling",
            SageConfig {
                chunker: ChunkerConfig {
                    use_dictionary: true,
                    use_np_labeling: false,
                },
                parser: ParserConfig {
                    // Without NP labelling, unknown words have no NP reading
                    // (the Table 8 "0 LF" effect).
                    unknown_nominals_as_np: false,
                    ..ParserConfig::default()
                },
                ..SageConfig::default()
            },
        ),
    ];
    configs
        .into_iter()
        .map(|(component, config)| {
            let ablated = Sage::new(config).analyze_document(&doc);
            let mut increase = 0;
            let mut decrease = 0;
            let mut zero = 0;
            for (b, a) in baseline.analyses.iter().zip(ablated.analyses.iter()) {
                if a.base_lf_count == 0 && b.base_lf_count > 0 {
                    zero += 1;
                } else if a.base_lf_count > b.base_lf_count {
                    increase += 1;
                } else if a.base_lf_count < b.base_lf_count {
                    decrease += 1;
                }
            }
            Table8Row {
                component,
                increase,
                decrease,
                zero,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Tables 9 and 10 — component coverage matrices
// ---------------------------------------------------------------------------

/// A coverage matrix: component names × protocol names, with presence flags
/// and SAGE-support annotations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageMatrix {
    /// Protocols (columns).
    pub protocols: Vec<&'static str>,
    /// Rows: (component, supported-by-sage marker, presence per protocol).
    pub rows: Vec<(&'static str, &'static str, Vec<bool>)>,
}

/// Table 9: conceptual components in RFCs.
pub fn table9() -> CoverageMatrix {
    let protocols = vec![
        "IPv4", "TCP", "UDP", "ICMP", "NTP", "OSPF2", "BGP4", "RTP", "BFD",
    ];
    let rows = vec![
        ("Packet Format", "full", vec![true; 9]),
        (
            "Interoperation",
            "full",
            vec![true, true, true, true, true, true, true, false, true],
        ),
        ("Pseudo Code", "full", vec![true; 9]),
        (
            "State/Session Mngmt.",
            "partial",
            vec![false, true, false, false, true, true, true, false, true],
        ),
        (
            "Comm. Patterns",
            "none",
            vec![false, true, false, false, true, true, true, true, true],
        ),
        (
            "Architecture",
            "none",
            vec![false, false, false, false, false, true, true, true, false],
        ),
    ];
    CoverageMatrix { protocols, rows }
}

/// Table 10: syntactic components in RFCs.
pub fn table10() -> CoverageMatrix {
    let protocols = vec![
        "IPv4", "TCP", "UDP", "ICMP", "NTP", "OSPF2", "BGP4", "RTP", "BFD",
    ];
    let rows = vec![
        ("Header Diagram", "full", vec![true; 9]),
        ("Listing", "full", vec![true; 9]),
        (
            "Table",
            "none",
            vec![true, true, false, false, true, true, true, true, true],
        ),
        (
            "Algorithm Description",
            "none",
            vec![false, true, false, false, true, true, true, true, true],
        ),
        (
            "Other Figures",
            "none",
            vec![true, false, false, false, true, true, false, true, true],
        ),
        (
            "Seq./Comm. Diagram",
            "none",
            vec![false, true, false, false, true, false, true, true, true],
        ),
        (
            "State Machine Diagram",
            "none",
            vec![false, true, false, false, false, false, false, false, true],
        ),
    ];
    CoverageMatrix { protocols, rows }
}

// ---------------------------------------------------------------------------
// Table 11 — the NTP timeout sentence
// ---------------------------------------------------------------------------

/// The Table 11 reproduction: the sentence, the generated code, and whether
/// the generated condition matches the paper's semantics ("and" = OR).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table11Result {
    /// The RFC sentence.
    pub sentence: &'static str,
    /// The C-like code generated from its logical form.
    pub generated_code: String,
    /// True if the code triggers in client mode, symmetric mode, and not in
    /// server mode (the disambiguated "and means or" reading of §7).
    pub semantics_ok: bool,
}

/// Regenerate Table 11.
pub fn table11() -> Table11Result {
    let lf = parse_lf(
        "@If(@And(@Compare('>=', 'peer.timer', 'peer.threshold'), @Or('client mode', 'symmetric mode')), @Action('timeout_procedure'))",
    )
    .expect("static LF");
    let ctx = sage_spec::context::ContextDict {
        protocol: "NTP".into(),
        message: "Timeout Procedure".into(),
        field: String::new(),
        role: Default::default(),
    };
    let stmts = sage_codegen::handlers::generate_stmts(&lf, &ctx).expect("codegen");
    let generated_code = stmts
        .iter()
        .map(|s| s.to_c(0))
        .collect::<Vec<_>>()
        .join("\n");

    // Check the semantics against the peer-variable model.
    let semantics_ok = {
        use sage_netsim::headers::ntp::{mode, PeerVariables};
        let client = PeerVariables {
            timer: 64,
            threshold: 64,
            mode: mode::CLIENT,
        };
        let symmetric = PeerVariables {
            timer: 64,
            threshold: 64,
            mode: mode::SYMMETRIC_ACTIVE,
        };
        let server = PeerVariables {
            timer: 64,
            threshold: 64,
            mode: mode::SERVER,
        };
        let below = PeerVariables {
            timer: 10,
            threshold: 64,
            mode: mode::CLIENT,
        };
        client.timeout_due()
            && symmetric.timeout_due()
            && !server.timeout_due()
            && !below.timeout_due()
    };
    Table11Result {
        sentence: sage_spec::corpus::ntp::TIMEOUT_SENTENCE,
        generated_code,
        semantics_ok,
    }
}

// ---------------------------------------------------------------------------
// Figures 5 and 6 — winnowing statistics
// ---------------------------------------------------------------------------

/// One series point of Figure 5: the max/avg/min number of LFs after a stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Point {
    /// The winnowing stage.
    pub stage: WinnowStage,
    /// Maximum LF count across ambiguous sentences.
    pub max: usize,
    /// Mean LF count.
    pub avg: f64,
    /// Minimum LF count.
    pub min: usize,
}

/// Regenerate one Figure 5 panel (ICMP = 5a, IGMP = 5b, BFD = 5c).
pub fn figure5(protocol: Protocol) -> Vec<Fig5Point> {
    let sage = Sage::default();
    let report = match protocol {
        Protocol::Bfd => {
            sage.analyze_sentences("BFD", sage_spec::corpus::bfd::STATE_MANAGEMENT_SENTENCES)
        }
        _ => sage.analyze_document(&protocol.document()),
    };
    let ambiguous: Vec<_> = report
        .analyses
        .iter()
        .filter(|a| a.base_lf_count > 1)
        .collect();
    WinnowStage::ALL
        .iter()
        .enumerate()
        .map(|(i, stage)| {
            let counts: Vec<usize> = ambiguous.iter().map(|a| a.trace.counts[i]).collect();
            let max = counts.iter().copied().max().unwrap_or(0);
            let min = counts.iter().copied().min().unwrap_or(0);
            let avg = if counts.is_empty() {
                0.0
            } else {
                counts.iter().sum::<usize>() as f64 / counts.len() as f64
            };
            Fig5Point {
                stage: *stage,
                max,
                avg,
                min,
            }
        })
        .collect()
}

/// Regenerate Figure 6: per-check effects on the ICMP ambiguous sentences.
/// Runs the id-native statistics path: one arena carries the memoized
/// verdicts across all four families (the boxed path is pinned equal by the
/// parity suite).
pub fn figure6() -> Vec<CheckEffect> {
    let sage = Sage::default();
    let report = sage.analyze_document(&Protocol::Icmp.document());
    let base_sets = report.ambiguous_base_sets();
    let mut arena = sage_logic::LfArena::new();
    all_check_effects_interned(&base_sets, &mut arena)
}

// ---------------------------------------------------------------------------
// Per-protocol end-to-end summary (§6.2, §6.3, §6.4)
// ---------------------------------------------------------------------------

/// One row of the per-protocol end-to-end summary: a generated program ran
/// its protocol's scenario on the virtual network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndToEndRow {
    /// Protocol name.
    pub protocol: &'static str,
    /// The scenario the generated code was exercised in.
    pub scenario: &'static str,
    /// Whether every check of the scenario succeeded.
    pub ok: bool,
    /// Number of packets captured during the scenario.
    pub packets: usize,
}

/// Run every protocol's generated program through its end-to-end scenario
/// on the discrete-event kernel — the §6.2 ICMP experiments plus the
/// generality scenarios (§6.3 IGMP and NTP, §6.4 BFD) — dispatching each
/// program through the one shared registry of
/// [`generated_responders`](crate::fuzz::generated_responders) and the
/// [`Scenario`](sage_netsim::Scenario) registry built over it.
pub fn end_to_end_summary() -> Vec<EndToEndRow> {
    use sage_interp::generated_scenarios;
    use sage_netsim::scenario::run_scenario;

    let registry = crate::fuzz::generated_responders();
    let mut rows = Vec::new();
    for scenario in generated_scenarios(&registry).scenarios() {
        let run = match run_scenario(scenario.as_ref()) {
            Ok(run) => run,
            Err(err) => {
                rows.push(EndToEndRow {
                    protocol: "?",
                    scenario: "scenario failed to bind",
                    ok: false,
                    packets: 0,
                });
                eprintln!("scenario bind failed: {err}");
                continue;
            }
        };
        let (protocol, label, extra_ok) = match run.protocol.as_str() {
            // ICMP keeps the full §6.2 battery (traceroute, tcpdump,
            // error stimuli) alongside the kernel echo exchange.
            "icmp" => {
                let result =
                    crate::icmp::icmp_end_to_end(registry.program("ICMP").expect("registered"));
                (
                    "ICMP",
                    "ping on the event kernel + traceroute",
                    result.all_ok(),
                )
            }
            "igmp" => ("IGMP", "membership query/report on the kernel", true),
            "ntp" => ("NTP", "timeout-triggered exchange on the kernel", true),
            "bfd" => ("BFD", "session bring-up (Down -> Init -> Up)", true),
            _ => ("?", "unknown scenario", false),
        };
        rows.push(EndToEndRow {
            protocol,
            scenario: label,
            ok: run.ok() && extra_ok,
            packets: run.originated(),
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Lexicon-extension counts (§6.3, §6.4)
// ---------------------------------------------------------------------------

/// Lexicon entries added per protocol (paper: 71 / 8 / 5 / 15).
pub fn lexicon_extension_counts() -> Vec<(&'static str, usize)> {
    use sage_ccg::lexicon::{bfd_entries, icmp_entries, igmp_entries, ntp_entries};
    vec![
        ("ICMP", icmp_entries().len()),
        ("IGMP", igmp_entries().len()),
        ("NTP", ntp_entries().len()),
        ("BFD", bfd_entries().len()),
    ]
}

/// Summary statistics for the §6.5 disambiguation discussion: how many ICMP
/// sentences fall in each status bucket.
pub fn disambiguation_summary() -> Vec<(&'static str, usize)> {
    let report = Sage::default().analyze_document(&Protocol::Icmp.document());
    vec![
        ("total sentences", report.analyses.len()),
        (
            "resolved automatically",
            report.count(SentenceStatus::Resolved),
        ),
        ("zero logical forms", report.count(SentenceStatus::ZeroLf)),
        (
            "ambiguous after winnowing",
            report.count(SentenceStatus::Ambiguous),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_frequencies_are_plausible() {
        let rows = table2();
        assert_eq!(rows.len(), 6);
        // Every category occurs in at least 4 of the 14 faulty
        // implementations (the paper's observation).
        for row in &rows {
            assert!(
                row.frequency >= 4.0 / 14.0 - 1e-9,
                "{} occurs too rarely: {}",
                row.label,
                row.frequency
            );
            assert!(row.frequency <= 1.0);
        }
        // IP-header and ICMP-header errors are the most common, as in the
        // paper (57%).
        assert!(rows[0].frequency >= rows[2].frequency);
        assert!(rows[1].frequency >= rows[4].frequency);
    }

    #[test]
    fn table3_has_seven_rows_and_only_full_range_interoperates() {
        let rows = table3();
        assert_eq!(rows.len(), 7);
        let interoperable: Vec<usize> = rows
            .iter()
            .filter(|r| r.interoperates)
            .map(|r| r.index)
            .collect();
        assert!(
            interoperable.contains(&3),
            "the correct reading must interoperate"
        );
        assert!(!interoperable.contains(&1));
        assert!(!interoperable.contains(&4));
        assert!(!interoperable.contains(&7));
    }

    #[test]
    fn table6_matches_paper_counts() {
        let rows = table6();
        assert_eq!(rows[0].count, 4);
        assert_eq!(rows[1].count, 1);
        assert_eq!(rows[2].count, 6);
    }

    #[test]
    fn table7_good_labeling_yields_fewer_lfs() {
        let r = table7();
        // A sentence that stopped parsing would read 0 under both labellings.
        assert!(r.good_lf_count > 0, "good labelling yields no LF");
        assert!(r.poor_lf_count > 0, "poor labelling yields no LF");
        assert!(
            r.good_lf_count <= r.poor_lf_count,
            "good {} should be <= poor {}",
            r.good_lf_count,
            r.poor_lf_count
        );
    }

    #[test]
    fn table8_np_labeling_matters_most() {
        let rows = table8();
        assert_eq!(rows.len(), 2);
        let dict = &rows[0];
        let np = &rows[1];
        // Removing NP labelling produces far more zero-LF sentences than
        // removing the dictionary (54 vs 0 in the paper).
        assert!(
            np.zero > dict.zero,
            "np.zero={} dict.zero={}",
            np.zero,
            dict.zero
        );
    }

    #[test]
    fn tables_9_and_10_have_paper_dimensions() {
        let t9 = table9();
        assert_eq!(t9.protocols.len(), 9);
        assert_eq!(t9.rows.len(), 6);
        let t10 = table10();
        assert_eq!(t10.rows.len(), 7);
        for (_, _, presence) in t9.rows.iter().chain(t10.rows.iter()) {
            assert_eq!(presence.len(), 9);
        }
    }

    #[test]
    fn table11_code_matches_paper_shape() {
        let r = table11();
        assert!(r.generated_code.contains("peer.timer >= peer.threshold"));
        assert!(r.generated_code.contains("timeout_procedure()"));
        assert!(r.semantics_ok);
    }

    #[test]
    fn figure5_counts_decrease_to_one_for_icmp() {
        let points = figure5(Protocol::Icmp);
        assert_eq!(points.len(), 6);
        let base = &points[0];
        let last = &points[5];
        assert!(
            base.max >= 2,
            "base max should show ambiguity, got {}",
            base.max
        );
        assert!(last.avg <= base.avg);
        assert!(last.min >= 1);
    }

    #[test]
    fn figure6_reports_four_check_families() {
        let effects = figure6();
        assert_eq!(effects.len(), 4);
        assert!(effects.iter().any(|e| e.mean_filtered > 0.0));
    }

    #[test]
    fn end_to_end_summary_passes_for_all_four_protocols() {
        let rows = end_to_end_summary();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.ok, "{} failed: {row:?}", row.protocol);
            assert!(row.packets >= 2, "{} captured too little", row.protocol);
        }
        let protocols: Vec<_> = rows.iter().map(|r| r.protocol).collect();
        assert_eq!(protocols, vec!["ICMP", "IGMP", "NTP", "BFD"]);
    }

    #[test]
    fn lexicon_counts_match_paper() {
        assert_eq!(
            lexicon_extension_counts(),
            vec![("ICMP", 71), ("IGMP", 8), ("NTP", 5), ("BFD", 15)]
        );
    }

    #[test]
    fn disambiguation_summary_is_consistent() {
        let s = disambiguation_summary();
        let total = s[0].1;
        assert_eq!(
            total,
            s[1].1 + s[2].1 + s[3].1 + {
                // skipped sentences (if any) are the remainder
                let report = Sage::default().analyze_document(&Protocol::Icmp.document());
                report.count(SentenceStatus::Skipped)
            }
        );
    }
}
