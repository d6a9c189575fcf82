//! Regenerate the paper's tables.
//!
//! Usage: `cargo run -p sage-bench --bin tables [-- <table>...]`
//! where `<table>` is one of `table2`..`table11`, `lexicon`, `e2e`,
//! `protocols`, `summary`, `fig5a`, or `all` (default: every table but
//! `fig5a`).
//!
//! `e2e` and `protocols` run the generated programs against the simulated
//! tools: the binary exits 1 when any of those checks fails, and 2 on an
//! unknown table name, before rendering anything.
//!
//! The extra `bench-diff [fresh-dir]` subcommand compares a fresh
//! `SAGE_BENCH_JSON` run (default `target/bench-json`) against the
//! committed `BENCH_*.json` baselines in the current directory and prints
//! the delta table — the CI bench-drift step's reporting half.

use sage_bench as render;
use sage_core::evaluation::end_to_end_summary;
use sage_spec::corpus::Protocol;
use std::process::ExitCode;

/// The tables `all` renders, in order.
const ALL: [&str; 14] = [
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "table11",
    "lexicon",
    "e2e",
    "protocols",
    "summary",
];

/// `(id, ns_per_iter)` pairs from every `.json` file in `dir` (fresh runs),
/// or from every `BENCH_*.json` file when `baselines` is set.
fn collect_results(dir: &str, baselines: bool) -> Vec<(String, f64)> {
    let mut files: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                name.ends_with(".json") && (!baselines || name.starts_with("BENCH_"))
            })
            .collect(),
        Err(e) => {
            eprintln!("bench-diff: cannot read {dir}: {e}");
            Vec::new()
        }
    };
    files.sort();
    let mut out = Vec::new();
    for path in files {
        match std::fs::read_to_string(&path) {
            Ok(text) => out.extend(render::extract_bench_results(&text)),
            Err(e) => eprintln!("bench-diff: cannot read {}: {e}", path.display()),
        }
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("bench-diff") {
        let fresh_dir = args
            .get(1)
            .map(String::as_str)
            .unwrap_or("target/bench-json");
        let baseline = collect_results(".", true);
        let fresh = collect_results(fresh_dir, false);
        print!("{}", render::render_bench_diff(&baseline, &fresh));
        return ExitCode::SUCCESS;
    }
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    if let Some(unknown) = wanted
        .iter()
        .find(|name| !ALL.contains(name) && **name != "fig5a")
    {
        eprintln!(
            "unknown table '{unknown}'; accepted: {}, fig5a, all, or bench-diff [fresh-dir]",
            ALL.join(", ")
        );
        return ExitCode::from(2);
    }
    let mut all_ok = true;
    for name in wanted {
        let text = match name {
            "table2" => render::render_table2(),
            "table3" => render::render_table3(),
            "table4" => render::render_table4(),
            "table5" => render::render_table5(),
            "table6" => render::render_table6(),
            "table7" => render::render_table7(),
            "table8" => render::render_table8(),
            "table9" => render::render_table9(),
            "table10" => render::render_table10(),
            "table11" => render::render_table11(),
            "lexicon" => render::render_lexicon_counts(),
            "e2e" => {
                let result = sage_core::icmp_end_to_end(&sage_core::generate_icmp_program());
                all_ok &= result.all_ok();
                render::render_end_to_end(&result)
            }
            "protocols" => {
                let rows = end_to_end_summary();
                all_ok &= rows.iter().all(|row| row.ok);
                render::render_protocol_summary(&rows)
            }
            "summary" => render::render_disambiguation_summary(),
            "fig5a" => render::render_figure5(Protocol::Icmp, "a"),
            other => unreachable!("table name '{other}' passed the check above"),
        };
        println!("{text}");
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("an end-to-end check FAILED");
        ExitCode::FAILURE
    }
}
