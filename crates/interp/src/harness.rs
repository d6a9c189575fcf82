//! The tri-engine differential harness: run one fuzzed protocol exchange
//! three ways — generated program on the bytecode VM, generated program
//! on the tree-walking oracle, and the hand-written reference responder —
//! and diff the resulting kernel traces line-for-line.
//!
//! Two oracles with different strengths come out of one run:
//!
//! * **VM vs tree-walker** is a *hard* invariant: both execute the same
//!   generated program, so any trace divergence is an engine bug, under
//!   any fault schedule whatsoever.
//! * **Generated vs reference** is byte-identical under non-corrupting
//!   schedules (loss, duplication, reordering, delay only reshuffle
//!   well-formed packets).  Under corruption the two may legitimately
//!   differ — the reference rebuilds replies from parsed fields while the
//!   generated code edits the quoted scaffold — so those divergences are
//!   *findings* to shrink and report, not assertion failures.
//!
//! Either way, a failure shrinks (via
//! [`sage_netsim::fuzz::shrink_schedule`]) to a minimal replayable
//! [`FaultSchedule`] and renders as a self-contained repro snippet pinned
//! by `PROPTEST_SEED`.

use std::sync::Arc;

use crate::responder::{ExecMode, ResponderRegistry};
use sage_netsim::buffer::PacketBuf;
use sage_netsim::fuzz::{
    check_properties, diff_traces, shrink_schedule, FaultSchedule, FuzzedScenario,
    PropertyViolation, TraceDivergence,
};
use sage_netsim::headers::icmp;
use sage_netsim::net::{IcmpEvent, IcmpResponder, ReferenceResponder};
use sage_netsim::scenario::{
    reference_scenarios, run_scenario_on, PingScenario, Scenario, ScenarioRun,
};
use sage_netsim::sim::{Topology, TopologyError};

/// The scenario-name prefix each protocol's exchange is registered under.
pub fn scenario_prefix(protocol: &str) -> &'static str {
    match protocol {
        "icmp" => "ping",
        "igmp" => "igmp",
        "ntp" => "ntp",
        "bfd" => "bfd",
        other => panic!("no scenario registered for protocol {other:?}"),
    }
}

/// One fuzzed exchange run on all three engines.
#[derive(Debug, Clone)]
pub struct TriTraces {
    /// The protocol exercised.
    pub protocol: String,
    /// Generated program on the bytecode VM.
    pub vm: ScenarioRun,
    /// Generated program on the tree-walking oracle.
    pub tree: ScenarioRun,
    /// Hand-written reference responder.
    pub reference: ScenarioRun,
}

/// The harness's judgement of one tri-engine run.
#[derive(Debug, Clone)]
pub struct TriVerdict {
    /// First line where the VM and tree-walker traces differ (an engine
    /// bug whenever present).
    pub vm_tree_divergence: Option<TraceDivergence>,
    /// First line where the VM and reference traces differ (a behavioural
    /// finding; expected only under corrupting schedules).
    pub reference_divergence: Option<TraceDivergence>,
    /// `(engine, violation)` for every per-step property violation on any
    /// of the three traces.
    pub property_violations: Vec<(&'static str, PropertyViolation)>,
}

impl TriVerdict {
    /// True when VM and tree-walker produced byte-identical traces.
    pub fn engines_agree(&self) -> bool {
        self.vm_tree_divergence.is_none()
    }

    /// True when the generated code's trace matches the reference's.
    pub fn matches_reference(&self) -> bool {
        self.reference_divergence.is_none()
    }

    /// True when no property was violated on any engine.
    pub fn properties_hold(&self) -> bool {
        self.property_violations.is_empty()
    }

    /// True when nothing at all was found.
    pub fn clean(&self) -> bool {
        self.engines_agree() && self.matches_reference() && self.properties_hold()
    }
}

/// Run `protocol`'s exchange under `schedule` on all three engines over
/// the same topology.  The registry must hold a generated program for the
/// protocol (panics otherwise — campaign code filters on
/// [`ResponderRegistry::protocols`] first).
pub fn tri_run(
    registry: &ResponderRegistry,
    protocol: &str,
    topology: Topology,
    schedule: &FaultSchedule,
) -> Result<TriTraces, TopologyError> {
    let prefix = scenario_prefix(protocol);
    let generated_name = format!("{prefix}/generated");
    let reference_name = format!("{prefix}/reference");
    let run = |scenario: Arc<dyn Scenario>| {
        let fuzzed = FuzzedScenario::new(scenario, schedule.clone());
        run_scenario_on(&fuzzed, topology.clone())
    };
    let pick = |registry: &sage_netsim::scenario::ScenarioRegistry, name: &str| {
        registry
            .find(name)
            .unwrap_or_else(|| panic!("scenario {name:?} not registered"))
            .clone()
    };
    let generated = |mode| registry.responders(mode).scenarios("generated");
    let vm = run(pick(&generated(ExecMode::Vm), &generated_name))?;
    let tree = run(pick(&generated(ExecMode::TreeWalk), &generated_name))?;
    let reference = run(pick(&reference_scenarios(), &reference_name))?;
    Ok(TriTraces {
        protocol: protocol.to_string(),
        vm,
        tree,
        reference,
    })
}

/// Judge a tri-engine run: diff the traces and evaluate the per-step
/// properties on all three.
pub fn judge(traces: &TriTraces) -> TriVerdict {
    let mut property_violations = Vec::new();
    for (engine, run) in [
        ("vm", &traces.vm),
        ("tree", &traces.tree),
        ("reference", &traces.reference),
    ] {
        for violation in check_properties(&traces.protocol, &run.trace) {
            property_violations.push((engine, violation));
        }
    }
    TriVerdict {
        vm_tree_divergence: diff_traces(&traces.vm.trace, &traces.tree.trace),
        reference_divergence: diff_traces(&traces.vm.trace, &traces.reference.trace),
        property_violations,
    }
}

/// Shrink a failing schedule against the tri-engine harness: the
/// predicate re-runs all three engines on each candidate and keeps the
/// entry only if `fails` still holds on the fresh verdict.  Deterministic
/// end to end, so one `PROPTEST_SEED` pins the minimal schedule.
pub fn shrink_tri_failure(
    registry: &ResponderRegistry,
    protocol: &str,
    topology: &Topology,
    schedule: &FaultSchedule,
    mut fails: impl FnMut(&TriVerdict) -> bool,
) -> FaultSchedule {
    shrink_schedule(schedule, |candidate| {
        tri_run(registry, protocol, topology.clone(), candidate)
            .map(|traces| fails(&judge(&traces)))
            .unwrap_or(false)
    })
}

/// Render a failing schedule as a self-contained repro snippet: the
/// pinned seed, the scenario/topology pair, and the schedule as Rust.
pub fn repro_snippet(scenario: &str, topology: &str, schedule: &FaultSchedule) -> String {
    format!(
        "// Replay: PROPTEST_SEED=0x{seed:x} cargo test --test fuzz_differential\n\
         // scenario: {scenario}   topology: {topology}\n\
         {body}",
        seed = schedule.seed,
        scenario = scenario,
        topology = topology,
        body = schedule.render(),
    )
}

// ---------------------------------------------------------------------------
// The seeded canary
// ---------------------------------------------------------------------------

/// An intentionally broken ICMP responder for self-testing the fuzzer:
/// it answers the *first* echo request exactly like [`ReferenceResponder`]
/// and corrupts one payload byte of every reply after that.  The happy
/// path (one request, one reply) is clean, so only a schedule that lands
/// a second request — e.g. one `Duplicate` entry — exposes it; the
/// minimal shrunk schedule is therefore a single entry.  Only campaign
/// code that explicitly opts in (the `include_canary` flag) ever binds
/// it.
#[derive(Debug, Default)]
pub struct CanaryResponder {
    inner: ReferenceResponder,
    echoes: u32,
}

impl IcmpResponder for CanaryResponder {
    fn respond(&mut self, event: IcmpEvent, original: &PacketBuf) -> Option<PacketBuf> {
        let reply = self.inner.respond(event, original)?;
        if !matches!(event, IcmpEvent::EchoRequest) {
            return Some(reply);
        }
        self.echoes += 1;
        if self.echoes < 2 {
            return Some(reply);
        }
        let mut bytes = reply.as_bytes().to_vec();
        if bytes.len() > icmp::HEADER_LEN {
            let last = bytes.len() - 1;
            bytes[last] ^= 0x20;
        }
        Some(PacketBuf::from_bytes(bytes))
    }
}

/// The ping scenario wired to the canary responder.
pub fn canary_ping_scenario() -> PingScenario {
    PingScenario::new(
        "ping/canary",
        Arc::new(|| Box::<CanaryResponder>::default()),
    )
}

/// True when `schedule` makes the canary's trace diverge from the
/// reference's — the self-test predicate the shrinker minimises.
pub fn canary_diverges(schedule: &FaultSchedule, topology: &Topology) -> bool {
    let canary = FuzzedScenario::new(Arc::new(canary_ping_scenario()), schedule.clone());
    let reference = reference_scenarios()
        .find("ping/reference")
        .expect("reference ping registered")
        .clone();
    let reference = FuzzedScenario::new(reference, schedule.clone());
    let Ok(canary_run) = run_scenario_on(&canary, topology.clone()) else {
        return false;
    };
    let Ok(reference_run) = run_scenario_on(&reference, topology.clone()) else {
        return false;
    };
    diff_traces(&canary_run.trace, &reference_run.trace).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_netsim::fuzz::{FaultAction, ScheduleEntry};

    fn duplicate_first_request() -> FaultSchedule {
        FaultSchedule {
            seed: 0,
            entries: vec![ScheduleEntry {
                link: 0,
                transmit_index: 0,
                action: FaultAction::Duplicate {
                    extra_delay_ns: 1_000,
                },
            }],
            ..FaultSchedule::clean()
        }
    }

    #[test]
    fn canary_is_clean_on_the_happy_path() {
        assert!(
            !canary_diverges(&FaultSchedule::clean(), &Topology::appendix_a()),
            "one request, one correct reply"
        );
    }

    #[test]
    fn canary_trips_on_a_duplicated_request() {
        assert!(
            canary_diverges(&duplicate_first_request(), &Topology::appendix_a()),
            "a second echo request draws the corrupted reply"
        );
    }

    #[test]
    fn repro_snippet_is_self_contained() {
        let snippet = repro_snippet("ping/canary", "appendix-a", &duplicate_first_request());
        assert!(snippet.contains("PROPTEST_SEED=0x0"));
        assert!(snippet.contains("ping/canary"));
        assert!(snippet.contains("FaultAction::Duplicate"));
    }
}
