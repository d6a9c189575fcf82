//! Shared rendering helpers for the table/figure regeneration binaries.

#![deny(missing_docs)]

use sage_core::evaluation as eval;
use sage_spec::corpus::Protocol;

/// Render Table 2 as text rows.
pub fn render_table2() -> String {
    let mut out = String::from("Table 2: Error types of failed cases and their frequency\n");
    out.push_str(&format!("{:<55} {:>9}\n", "Error Type", "Frequency"));
    for row in eval::table2() {
        out.push_str(&format!(
            "{:<55} {:>8.0}%\n",
            row.label,
            row.frequency * 100.0
        ));
    }
    out
}

/// Render Table 3.
pub fn render_table3() -> String {
    let mut out = String::from("Table 3: Students' ICMP checksum range interpretations\n");
    out.push_str(&format!(
        "{:<6} {:<90} {}\n",
        "Index", "Interpretation", "Interoperates with ping?"
    ));
    for row in eval::table3() {
        out.push_str(&format!(
            "{:<6} {:<90} {}\n",
            row.index,
            row.description,
            if row.interoperates { "yes" } else { "no" }
        ));
    }
    out
}

/// Render Table 4 (LF + context + code).
pub fn render_table4() -> String {
    use sage_codegen::handlers::generate_stmts;
    use sage_logic::parse_lf;
    use sage_spec::context::ContextDict;
    let lf = parse_lf("@Is('type', '3')").expect("static LF");
    let ctx = ContextDict {
        protocol: "ICMP".into(),
        message: "Destination Unreachable Message".into(),
        field: "type".into(),
        role: Default::default(),
    };
    let code = generate_stmts(&lf, &ctx)
        .expect("codegen")
        .iter()
        .map(|s| s.to_c(0))
        .collect::<Vec<_>>()
        .join("\n");
    format!(
        "Table 4: Logical form with context and resulting code\nLF      {}\ncontext {}\ncode    {}\n",
        lf,
        ctx.render(),
        code
    )
}

/// Render Table 5 (challenging BFD sentences and their rewrites).
pub fn render_table5() -> String {
    use sage_spec::corpus::bfd;
    format!(
        "Table 5: Challenging BFD state management sentences\n\
         [Nested code]  original : {}\n\
         [Nested code]  rewritten: {}\n\
         [Rephrasing]   original : {}\n\
         [Rephrasing]   rewritten: {}\n",
        bfd::TABLE5_NESTED_CODE.0,
        bfd::TABLE5_NESTED_CODE.1,
        bfd::TABLE5_REPHRASING.0,
        bfd::TABLE5_REPHRASING.1
    )
}

/// Render Table 6.
pub fn render_table6() -> String {
    let mut out = String::from("Table 6: Examples of categorized rewritten text\n");
    out.push_str(&format!(
        "{:<20} {:>5}  {}\n",
        "Category", "Count", "Example"
    ));
    for row in eval::table6() {
        let example: String = row.example.chars().take(70).collect();
        out.push_str(&format!(
            "{:<20} {:>5}  {}...\n",
            row.category, row.count, example
        ));
    }
    out
}

/// Render Table 7.
pub fn render_table7() -> String {
    let r = eval::table7();
    format!(
        "Table 7: Number of logical forms under good vs poor noun-phrase labels\n\
         good labelling : {} LFs\npoor labelling : {} LFs\n",
        r.good_lf_count, r.poor_lf_count
    )
}

/// Render Table 8.
pub fn render_table8() -> String {
    let mut out =
        String::from("Table 8: Effect of disabling components on number of logical forms\n");
    out.push_str(&format!(
        "{:<25} {:>9} {:>9} {:>6}\n",
        "Component removed", "Increase", "Decrease", "Zero"
    ));
    for row in eval::table8() {
        out.push_str(&format!(
            "{:<25} {:>9} {:>9} {:>6}\n",
            row.component, row.increase, row.decrease, row.zero
        ));
    }
    out
}

fn render_matrix(title: &str, m: &eval::CoverageMatrix) -> String {
    let mut out = format!("{title}\n{:<25} {:>8}", "Component", "SAGE");
    for p in &m.protocols {
        out.push_str(&format!(" {:>6}", p));
    }
    out.push('\n');
    for (name, support, presence) in &m.rows {
        out.push_str(&format!("{:<25} {:>8}", name, support));
        for present in presence {
            out.push_str(&format!(" {:>6}", if *present { "x" } else { "" }));
        }
        out.push('\n');
    }
    out
}

/// Render Table 9.
pub fn render_table9() -> String {
    render_matrix("Table 9: Conceptual components in RFCs", &eval::table9())
}

/// Render Table 10.
pub fn render_table10() -> String {
    render_matrix("Table 10: Syntactic components in RFCs", &eval::table10())
}

/// Render Table 11.
pub fn render_table11() -> String {
    let r = eval::table11();
    format!(
        "Table 11: NTP peer variable sentence and resulting code\nsentence: {}\ncode:\n{}\nsemantics check (client/symmetric fire, server does not): {}\n",
        r.sentence,
        r.generated_code,
        if r.semantics_ok { "ok" } else { "FAILED" }
    )
}

/// Render the lexicon-extension counts (§6.3/§6.4).
pub fn render_lexicon_counts() -> String {
    let mut out = String::from("Lexicon entries added per protocol (paper: 71 / 8 / 5 / 15)\n");
    for (proto, count) in eval::lexicon_extension_counts() {
        out.push_str(&format!("{proto:<6} {count}\n"));
    }
    out
}

/// Render one Figure 5 panel.
pub fn render_figure5(protocol: Protocol, label: &str) -> String {
    let mut out = format!(
        "Figure 5{label}: #LFs after inconsistency checks ({})\n",
        protocol.name()
    );
    out.push_str(&format!(
        "{:<12} {:>6} {:>8} {:>6}\n",
        "Stage", "max", "avg", "min"
    ));
    for p in eval::figure5(protocol) {
        out.push_str(&format!(
            "{:<12} {:>6} {:>8.2} {:>6}\n",
            p.stage.label(),
            p.max,
            p.avg,
            p.min
        ));
    }
    out
}

/// Render Figure 6.
pub fn render_figure6() -> String {
    let mut out = String::from("Figure 6: Effect of individual disambiguation checks on RFC 792\n");
    out.push_str(&format!(
        "{:<20} {:>16} {:>10} {:>20}\n",
        "Check", "avg LFs filtered", "std err", "# affected sentences"
    ));
    for e in eval::figure6() {
        out.push_str(&format!(
            "{:<20} {:>16.2} {:>10.2} {:>14} of {}\n",
            e.stage.label(),
            e.mean_filtered,
            e.std_error,
            e.affected_sentences,
            e.total_sentences
        ));
    }
    out
}

/// Render the §6.2 end-to-end summary of
/// [`sage_core::icmp_end_to_end`].
pub fn render_end_to_end(result: &sage_core::IcmpEndToEnd) -> String {
    let mut out = String::from("End-to-end ICMP evaluation (§6.2)\n");
    for (scenario, ok) in &result.ping_results {
        out.push_str(&format!(
            "  {scenario:<28} {}\n",
            if *ok { "ok" } else { "FAILED" }
        ));
    }
    out.push_str(&format!(
        "  traceroute                   {}\n",
        if result.traceroute_ok { "ok" } else { "FAILED" }
    ));
    out.push_str(&format!(
        "  tcpdump clean ({} packets)    {}\n",
        result.packets_checked,
        if result.tcpdump_clean { "ok" } else { "FAILED" }
    ));
    out
}

/// Render the per-protocol end-to-end summary of
/// [`eval::end_to_end_summary`]: every generated program run through its
/// scenario (§6.2 ICMP; §6.3 IGMP and NTP; §6.4 BFD).
pub fn render_protocol_summary(rows: &[eval::EndToEndRow]) -> String {
    let mut out = String::from("Per-protocol end-to-end execution (§6.2-§6.4)\n");
    for row in rows {
        out.push_str(&format!(
            "  {:<5} {:<42} {:>3} packets  {}\n",
            row.protocol,
            row.scenario,
            row.packets,
            if row.ok { "ok" } else { "FAILED" }
        ));
    }
    out
}

/// Render the §6.5 disambiguation summary.
pub fn render_disambiguation_summary() -> String {
    let mut out = String::from("Disambiguation summary over the ICMP corpus (§6.5)\n");
    for (label, count) in eval::disambiguation_summary() {
        out.push_str(&format!("  {label:<28} {count}\n"));
    }
    out
}

// ---- bench-drift tooling ----------------------------------------------------

/// Extract `(id, ns_per_iter)` measurement pairs from a bench JSON blob.
///
/// Works on both formats this repo produces — the shim harness output
/// (`{"results": [...]}`) and the committed `BENCH_*.json` baselines
/// (`{"benchmarks": {"group": [...]}}`) — because both serialise every
/// measurement as an object containing an `"id"` string and an
/// `"ns_per_iter"` number.  A hand-rolled scan keeps the workspace free of
/// a JSON dependency (the build environment is offline).
pub fn extract_bench_results(json: &str) -> Vec<(String, f64)> {
    let mut events: Vec<(usize, bool)> = json
        .match_indices("\"id\"")
        .map(|(i, _)| (i, true))
        .chain(
            json.match_indices("\"ns_per_iter\"")
                .map(|(i, _)| (i, false)),
        )
        .collect();
    events.sort_unstable();
    let mut out = Vec::new();
    let mut last_id: Option<String> = None;
    for (pos, is_id) in events {
        let rest = &json[pos..];
        let Some(colon) = rest.find(':') else {
            continue;
        };
        let val = rest[colon + 1..].trim_start();
        if is_id {
            if let Some(stripped) = val.strip_prefix('"') {
                if let Some(end) = stripped.find('"') {
                    last_id = Some(stripped[..end].to_string());
                }
            }
        } else {
            let num: String = val
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
                .collect();
            if let (Some(id), Ok(n)) = (last_id.take(), num.parse::<f64>()) {
                out.push((id, n));
            }
        }
    }
    out
}

/// Render the bench-drift table: every benchmark id present in the
/// committed baselines and/or a fresh run, with the per-iteration times and
/// the relative delta (negative = the fresh run is faster).
///
/// Purely informational — the CI drift step prints this into the job log so
/// perf movement is visible on every PR without making timing-noisy runs a
/// build failure.
pub fn render_bench_diff(baseline: &[(String, f64)], fresh: &[(String, f64)]) -> String {
    let fresh_by_id: std::collections::HashMap<&str, f64> =
        fresh.iter().map(|(id, ns)| (id.as_str(), *ns)).collect();
    let mut out = String::from("Bench drift vs committed BENCH_*.json baselines\n");
    out.push_str(&format!(
        "{:<50} {:>14} {:>14} {:>9}\n",
        "benchmark", "baseline", "fresh", "delta"
    ));
    let mut not_exercised = 0usize;
    for (id, base_ns) in baseline {
        match fresh_by_id.get(id.as_str()) {
            Some(fresh_ns) => {
                let delta = (fresh_ns - base_ns) / base_ns * 100.0;
                out.push_str(&format!(
                    "{:<50} {:>11.1} ms {:>11.1} ms {:>+8.1}%\n",
                    id,
                    base_ns / 1e6,
                    fresh_ns / 1e6,
                    delta
                ));
            }
            None => not_exercised += 1,
        }
    }
    for (id, fresh_ns) in fresh {
        if !baseline.iter().any(|(base_id, _)| base_id == id) {
            out.push_str(&format!(
                "{:<50} {:>14} {:>11.1} ms {:>9}\n",
                id,
                "-",
                fresh_ns / 1e6,
                "new"
            ));
        }
    }
    if not_exercised > 0 {
        out.push_str(&format!(
            "({not_exercised} baseline benchmarks not exercised by this run)\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_renders_nonempty() {
        for (name, text) in [
            ("t2", render_table2()),
            ("t3", render_table3()),
            ("t4", render_table4()),
            ("t5", render_table5()),
            ("t6", render_table6()),
            ("t7", render_table7()),
            ("t8", render_table8()),
            ("t9", render_table9()),
            ("t10", render_table10()),
            ("t11", render_table11()),
            ("lex", render_lexicon_counts()),
        ] {
            assert!(text.lines().count() >= 3, "{name} too short:\n{text}");
        }
    }

    #[test]
    fn figures_render() {
        assert!(render_figure5(Protocol::Icmp, "a").contains("Assoc."));
        assert!(render_figure6().contains("affected"));
    }

    #[test]
    fn table4_shows_the_paper_code_line() {
        assert!(render_table4().contains("icmp_hdr->type = 3;"));
    }

    #[test]
    fn bench_results_extract_from_both_schemas() {
        let shim = r#"{
  "binary": "parser",
  "unit": "ns_per_iter",
  "results": [
    {"id": "parser/a", "iterations": 10, "total_ns": 100, "ns_per_iter": 10.0},
    {"id": "parser/b", "iterations": 5, "total_ns": 100, "ns_per_iter": 20.5}
  ]
}"#;
        assert_eq!(
            extract_bench_results(shim),
            vec![
                ("parser/a".to_string(), 10.0),
                ("parser/b".to_string(), 20.5)
            ]
        );
        let baseline = "{\n \"benchmarks\": {\n  \"throughput\": [\n   {\n    \"id\": \"throughput/x\",\n    \"iterations\": 3,\n    \"ns_per_iter\": 1500000.0\n   }\n  ]\n }\n}";
        assert_eq!(
            extract_bench_results(baseline),
            vec![("throughput/x".to_string(), 1500000.0)]
        );
        assert!(extract_bench_results("not json at all").is_empty());
    }

    #[test]
    fn bench_diff_reports_deltas_missing_and_new() {
        let baseline = vec![
            ("throughput/batch_workers/1".to_string(), 20_000_000.0),
            ("gone/bench".to_string(), 1_000_000.0),
        ];
        let fresh = vec![
            ("throughput/batch_workers/1".to_string(), 10_000_000.0),
            ("brand/new".to_string(), 2_000_000.0),
        ];
        let table = render_bench_diff(&baseline, &fresh);
        assert!(table.contains("throughput/batch_workers/1"), "{table}");
        assert!(table.contains("-50.0%"), "{table}");
        assert!(
            table.contains("1 baseline benchmarks not exercised"),
            "{table}"
        );
        assert!(table.contains("new"), "{table}");
        assert!(!table.contains("gone/bench"), "{table}");
    }
}
