//! Session-trace golden: every registered protocol session, on every
//! library topology, clean and under seeded packet and lifecycle faults,
//! pinned by the FNV-1a hash of its rendered kernel trace.
//!
//! The 16 sessions are the four protocols' happy-path and chaos-recovery
//! scenarios, each wired to the hand-written references and to the
//! SAGE-generated programs.  Each runs on the 5 topologies of
//! [`Topology::library`] in 5 variants: clean, and for seeds 17 and 20
//! under [`FaultSchedule::generate`] and [`FaultSchedule::generate_chaos`].
//! One line per cell, `name topology variant events hash`, is compared
//! against `tests/traces/sessions.txt`, so any change to a session's
//! packets, timers, notes or drops fails here.
//!
//! To refresh after an intentional change:
//! `UPDATE_GOLDEN=1 cargo test --test session_traces` — then review the diff.

use sage_repro::core::programs::generate_program;
use sage_repro::interp::{ExecMode, ResponderRegistry};
use sage_repro::netsim::fuzz::{ChaosPlan, FaultSchedule, FuzzedScenario, SchedulePlan};
use sage_repro::netsim::scenario::{run_scenario_on, Responders, Scenario};
use sage_repro::netsim::sim::Topology;
use sage_repro::netsim::tools::chaos_scenarios;
use sage_repro::spec::corpus::Protocol;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

/// The fault seeds; between them they reach every rare recovery path
/// listed in [`RARE_EVENTS`].
const SEEDS: [u64; 2] = [17, 20];

/// Trace lines the pinned cells must contain at least once, so the golden
/// covers the stale-reply, rejection, detection-timeout, crash and flap
/// paths and not only the happy path.
const RARE_EVENTS: [&str; 8] = [
    " note ping=stale",
    " note ping=rejected:",
    " note bfd=detection-timeout",
    " note bfd_state=Down",
    " note node-down",
    " drop stale timer",
    " drop node down",
    " drop link down",
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/traces/sessions.txt")
}

/// Every registered session: reference, generated, chaos and
/// chaos-generated, four protocols each.
fn sessions() -> Vec<Arc<dyn Scenario>> {
    let mut registry = ResponderRegistry::new();
    for protocol in Protocol::all() {
        registry.register(protocol.name(), generate_program(protocol));
    }
    let reference = Responders::reference();
    let generated = registry.responders(ExecMode::Vm);
    [
        reference.scenarios("reference"),
        generated.scenarios("generated"),
        chaos_scenarios(&reference, "chaos"),
        chaos_scenarios(&generated, "chaos-generated"),
    ]
    .iter()
    .flat_map(|registry| registry.scenarios().iter().cloned())
    .collect()
}

/// The fault variants of one topology: `(label, schedule)`, clean first.
fn variants(topology: &Topology) -> Vec<(String, Option<FaultSchedule>)> {
    let plan = SchedulePlan::default();
    let chaos = ChaosPlan::for_topology(topology);
    let mut variants = vec![("clean".to_string(), None)];
    for seed in SEEDS {
        variants.push((
            format!("fuzz-{seed}"),
            Some(FaultSchedule::generate(seed, &plan)),
        ));
        variants.push((
            format!("chaos-{seed}"),
            Some(FaultSchedule::generate_chaos(seed, &plan, &chaos)),
        ));
    }
    variants
}

#[test]
fn session_traces_match_the_committed_golden() {
    let sessions = sessions();
    assert_eq!(sessions.len(), 16, "4 protocols x 4 session kinds");
    let mut lines = Vec::new();
    let mut missing: Vec<&str> = RARE_EVENTS.to_vec();
    for session in &sessions {
        for topology in Topology::library() {
            for (variant, schedule) in variants(&topology) {
                let run = match schedule {
                    None => run_scenario_on(session.as_ref(), topology.clone()),
                    Some(schedule) => run_scenario_on(
                        &FuzzedScenario::new(session.clone(), schedule),
                        topology.clone(),
                    ),
                }
                .expect("every session binds on every library topology");
                let rendered = run.trace.render();
                missing.retain(|needle| !rendered.contains(needle));
                lines.push(format!(
                    "{} {} {} {} {:016x}",
                    session.name(),
                    topology.name,
                    variant,
                    run.event_count(),
                    run.trace.digest()
                ));
            }
        }
    }
    assert_eq!(lines.len(), 400);
    assert!(
        missing.is_empty(),
        "no pinned trace reaches {missing:?}; pick seeds that do"
    );

    let text = lines.join("\n") + "\n";
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        fs::write(&path, &text).expect("write golden");
        return;
    }
    let golden = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {}: {e}; run with UPDATE_GOLDEN=1", path.display()));
    let diverged: Vec<String> = golden
        .lines()
        .zip(text.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  want {want}\n  got  {got}"))
        .take(10)
        .collect();
    assert!(
        diverged.is_empty() && golden.lines().count() == text.lines().count(),
        "session traces diverged from {} ({} vs {} lines):\n{}",
        path.display(),
        golden.lines().count(),
        text.lines().count(),
        diverged.join("\n")
    );
}
