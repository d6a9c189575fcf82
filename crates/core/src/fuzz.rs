//! The fuzz campaign runner: seeded adversarial schedules swept over
//! every generated protocol on the tri-engine differential harness.
//!
//! A campaign is a grid of protocol × iteration cells.  Each cell derives
//! a schedule seed from the campaign seed, generates a
//! [`FaultSchedule`], runs the exchange on all three engines
//! ([`sage_interp::harness::tri_run`]) and judges the traces.  Anything
//! the judge flags — an engine mismatch (VM vs tree-walker, always a
//! bug), a reference divergence (generated code behaving unlike the
//! hand-written responder), or a per-step property violation — is shrunk
//! to a minimal replayable schedule and reported with a self-contained
//! repro snippet.  The whole campaign is a pure function of its
//! [`FuzzConfig`], so one `PROPTEST_SEED` pins every cell, finding and
//! shrunk schedule byte-for-byte.
//!
//! [`fuzzed_scenarios`] additionally exposes fuzzed cells to the
//! evaluation sweep: every sweep scenario wrapped under a seeded
//! schedule, judged by the state-machine properties (which hold under any
//! schedule) instead of the happy-path checks (which loss legitimately
//! breaks).
//!
//! [`run_chaos_campaign`] is the lifecycle-fault counterpart: the four
//! chaos recovery scenarios (reference and generated engines) swept over
//! the topology library under seeded crash/restart/flap schedules, judged
//! by the safety properties *plus* the per-protocol liveness checkers
//! ("after the last fault clears, the protocol re-converges within a
//! bounded virtual time").  Recovery times are virtual nanoseconds, so
//! the campaign's `BENCH_chaos.json` serialisation is byte-identical on
//! every machine and sits in the bench-drift delta table alongside the
//! wall-clock baselines.

use std::sync::Arc;

use sage_interp::harness::{canary_diverges, judge, repro_snippet, tri_run, TriVerdict};
use sage_interp::{shrink_tri_failure, ExecMode, ResponderRegistry};
use sage_netsim::faulty::FaultRng;
use sage_netsim::fuzz::{
    check_liveness, check_properties, recovery_time_ns, seed_from_env, shrink_schedule, ChaosPlan,
    FaultSchedule, FuzzedScenario, SchedulePlan,
};
use sage_netsim::scenario::{run_scenario_on, Scenario, ScenarioRegistry};
use sage_netsim::sim::{SimTime, Topology};
use sage_netsim::tools::{chaos_reference_scenario, chaos_scenarios, CHAOS_RECOVERY_BOUND_NS};
use sage_spec::corpus::Protocol;

use crate::grid::{baseline_json, par_map};
use crate::programs::generate_program;

/// The protocols a campaign exercises, in grid order.
pub const FUZZ_PROTOCOLS: [&str; 4] = ["icmp", "igmp", "ntp", "bfd"];

/// One generated program per protocol — the registry the tri-engine
/// harness draws its VM and tree-walker scenarios from.
pub fn generated_responders() -> ResponderRegistry {
    let mut responders = ResponderRegistry::new();
    for protocol in Protocol::all() {
        responders.register(protocol.name(), generate_program(protocol));
    }
    responders
}

/// Campaign bounds; the default is the bounded smoke configuration CI
/// runs (fixed seed, capped iterations).
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Campaign seed; defaults to [`seed_from_env`] (`PROPTEST_SEED` or
    /// the shim default).
    pub seed: u64,
    /// Schedules per protocol.
    pub iterations: u32,
    /// Random-schedule bounds.
    pub plan: SchedulePlan,
    /// Worker threads for the cell grid.
    pub workers: usize,
    /// Also self-test the fuzzer against the seeded canary responder:
    /// search for a schedule that exposes it, shrink, and report it as a
    /// [`FindingKind::CanaryDivergence`].  Off by default — the canary is
    /// intentionally broken code and only campaign code that opts in ever
    /// binds it.
    pub include_canary: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: seed_from_env(),
            iterations: 8,
            plan: SchedulePlan::default(),
            workers: 1,
            include_canary: false,
        }
    }
}

/// What kind of failure a finding records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// VM and tree-walker traces diverged — an engine bug.
    EngineMismatch,
    /// Generated code's trace diverged from the reference responder's.
    ReferenceDivergence,
    /// A per-step state-machine property was violated.
    PropertyViolation,
    /// The seeded canary responder was exposed (fuzzer self-test).
    CanaryDivergence,
}

impl std::fmt::Display for FindingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FindingKind::EngineMismatch => "engine-mismatch",
            FindingKind::ReferenceDivergence => "reference-divergence",
            FindingKind::PropertyViolation => "property-violation",
            FindingKind::CanaryDivergence => "canary-divergence",
        };
        f.write_str(s)
    }
}

/// One shrunk, replayable failure.
#[derive(Debug, Clone)]
pub struct FuzzFinding {
    /// Protocol of the fuzzed exchange.
    pub protocol: String,
    /// Topology the exchange ran on.
    pub topology: String,
    /// What the judge flagged.
    pub kind: FindingKind,
    /// The minimal schedule that still fails.
    pub schedule: FaultSchedule,
    /// Evidence (first divergent trace line or the violated property).
    pub detail: String,
    /// Self-contained repro snippet.
    pub repro: String,
}

/// One protocol × iteration cell of the campaign grid.
#[derive(Debug, Clone)]
pub struct FuzzCell {
    /// Protocol of the fuzzed exchange.
    pub protocol: String,
    /// Iteration index within the protocol.
    pub iteration: u32,
    /// The derived schedule seed.
    pub schedule_seed: u64,
    /// Entries in the generated schedule.
    pub entries: usize,
    /// VM and tree-walker traces were byte-identical.
    pub engines_agree: bool,
    /// Generated trace matched the reference trace.
    pub matches_reference: bool,
    /// No per-step property was violated on any engine.
    pub properties_hold: bool,
    /// Findings this cell produced (shrunk), in detection order.
    pub findings: Vec<FuzzFinding>,
}

/// The campaign's result: cells in grid order plus every shrunk finding.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Campaign seed.
    pub seed: u64,
    /// One cell per protocol × iteration, in grid order.
    pub cells: Vec<FuzzCell>,
    /// Every finding across all cells, in grid order.
    pub findings: Vec<FuzzFinding>,
}

impl FuzzReport {
    /// True when no cell produced an engine mismatch or property
    /// violation.  Reference divergences under corrupting schedules are
    /// behavioural findings, not campaign failures.
    pub fn sound(&self) -> bool {
        self.findings.iter().all(|f| {
            !matches!(
                f.kind,
                FindingKind::EngineMismatch | FindingKind::PropertyViolation
            )
        })
    }

    /// Render the campaign for humans: a grid summary plus each finding's
    /// repro snippet.
    pub fn render(&self) -> String {
        let mut out = format!(
            "fuzz campaign seed=0x{:x}: {} cells, {} findings\n",
            self.seed,
            self.cells.len(),
            self.findings.len()
        );
        for cell in &self.cells {
            out.push_str(&format!(
                "  {:<5} #{:<2} seed=0x{:016x} entries={} engines={} reference={} properties={}\n",
                cell.protocol,
                cell.iteration,
                cell.schedule_seed,
                cell.entries,
                if cell.engines_agree { "ok" } else { "SPLIT" },
                if cell.matches_reference { "ok" } else { "DIFF" },
                if cell.properties_hold { "ok" } else { "FAIL" },
            ));
        }
        for finding in &self.findings {
            out.push_str(&format!(
                "finding [{}] {} on {}: {}\n{}\n",
                finding.kind, finding.protocol, finding.topology, finding.detail, finding.repro
            ));
        }
        out
    }
}

/// Derive a cell's schedule seed from the campaign seed and its grid
/// coordinates — one SplitMix64 draw, so adjacent cells get well-mixed,
/// order-independent streams.
pub(crate) fn cell_seed(campaign: u64, protocol_index: usize, iteration: u32) -> u64 {
    FaultRng::new(
        campaign
            .wrapping_add((protocol_index as u64) << 32)
            .wrapping_add(u64::from(iteration)),
    )
    .next_u64()
}

/// Run one campaign cell: generate, run tri-engine, judge, shrink.
fn run_fuzz_cell(
    responders: &ResponderRegistry,
    config: &FuzzConfig,
    protocol_index: usize,
    iteration: u32,
) -> FuzzCell {
    let protocol = FUZZ_PROTOCOLS[protocol_index];
    let topology = Topology::appendix_a();
    let schedule_seed = cell_seed(config.seed, protocol_index, iteration);
    let schedule = FaultSchedule::generate(schedule_seed, &config.plan);
    let traces = tri_run(responders, protocol, topology.clone(), &schedule)
        .expect("appendix A fits every scenario");
    let verdict = judge(&traces);
    let mut findings = Vec::new();
    let mut report = |kind: FindingKind, detail: String, fails: &dyn Fn(&TriVerdict) -> bool| {
        let shrunk = shrink_tri_failure(responders, protocol, &topology, &schedule, |v| fails(v));
        let repro = repro_snippet(&format!("{protocol} tri-engine"), &topology.name, &shrunk);
        findings.push(FuzzFinding {
            protocol: protocol.to_string(),
            topology: topology.name.clone(),
            kind,
            schedule: shrunk,
            detail,
            repro,
        });
    };
    if let Some(d) = &verdict.vm_tree_divergence {
        report(FindingKind::EngineMismatch, d.to_string(), &|v| {
            !v.engines_agree()
        });
    }
    if !verdict.properties_hold() {
        let detail = verdict
            .property_violations
            .iter()
            .map(|(engine, v)| format!("{engine}: {} ({})", v.property, v.detail))
            .collect::<Vec<_>>()
            .join("; ");
        report(FindingKind::PropertyViolation, detail, &|v| {
            !v.properties_hold()
        });
    }
    if let Some(d) = &verdict.reference_divergence {
        report(FindingKind::ReferenceDivergence, d.to_string(), &|v| {
            !v.matches_reference()
        });
    }
    FuzzCell {
        protocol: protocol.to_string(),
        iteration,
        schedule_seed,
        entries: schedule.entries.len(),
        engines_agree: verdict.engines_agree(),
        matches_reference: verdict.matches_reference(),
        properties_hold: verdict.properties_hold(),
        findings,
    }
}

/// Search for a schedule exposing the canary responder and shrink it —
/// the fuzzer's self-test.  Returns `None` if no divergence shows within
/// `attempts` seeds (which would itself be a campaign failure).
pub fn find_canary_finding(seed: u64, attempts: u32) -> Option<FuzzFinding> {
    let topology = Topology::appendix_a();
    let plan = SchedulePlan::default();
    for attempt in 0..attempts {
        let schedule_seed = cell_seed(seed, FUZZ_PROTOCOLS.len(), attempt);
        let schedule = FaultSchedule::generate(schedule_seed, &plan);
        if !canary_diverges(&schedule, &topology) {
            continue;
        }
        let shrunk = shrink_schedule(&schedule, |s| canary_diverges(s, &topology));
        let repro = repro_snippet("ping/canary", &topology.name, &shrunk);
        return Some(FuzzFinding {
            protocol: "icmp".to_string(),
            topology: topology.name.clone(),
            kind: FindingKind::CanaryDivergence,
            schedule: shrunk,
            detail: format!("canary exposed at attempt {attempt}, seed 0x{schedule_seed:x}"),
            repro,
        });
    }
    None
}

/// Run a full campaign: the protocol × iteration grid shared across
/// `config.workers` threads of the [`grid`](crate::grid) runner, so the
/// report is byte-identical at every worker count.
pub fn run_campaign(config: &FuzzConfig) -> FuzzReport {
    let responders = generated_responders();
    let grid: Vec<(usize, u32)> = (0..FUZZ_PROTOCOLS.len())
        .flat_map(|p| (0..config.iterations).map(move |i| (p, i)))
        .collect();
    let cells = par_map(&grid, config.workers, |&(p, i)| {
        run_fuzz_cell(&responders, config, p, i)
    });
    let mut findings: Vec<FuzzFinding> = cells
        .iter()
        .flat_map(|cell| cell.findings.iter().cloned())
        .collect();
    if config.include_canary {
        if let Some(finding) = find_canary_finding(config.seed, 512) {
            findings.push(finding);
        }
    }
    FuzzReport {
        seed: config.seed,
        cells,
        findings,
    }
}

/// Wrap every scenario in `base` under `per_scenario` seeded schedules —
/// the fuzzed cells `eval-sweep --fuzz` appends to its grid.  The
/// wrappers judge runs by the per-step properties, which hold under any
/// schedule, so fuzzed cells stay meaningful on every topology.
pub fn fuzzed_scenarios(base: &ScenarioRegistry, seed: u64, per_scenario: u32) -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    for (index, scenario) in base.scenarios().iter().enumerate() {
        for variant in 0..per_scenario {
            let schedule_seed = cell_seed(seed, index, variant);
            let schedule = FaultSchedule::generate(schedule_seed, &SchedulePlan::default());
            registry.register(std::sync::Arc::new(FuzzedScenario::named(
                format!("{}+fuzz{}", scenario.name(), variant),
                scenario.clone(),
                schedule,
            )));
        }
    }
    registry
}

// ---------------------------------------------------------------------------
// Chaos campaign
// ---------------------------------------------------------------------------

/// The execution engines a chaos cell runs on, in grid order: the
/// hand-written reference responders and the SAGE-generated programs on
/// the bytecode VM.
pub const CHAOS_ENGINES: [&str; 2] = ["reference", "generated"];

/// Chaos campaign bounds; the default is the fixed-seed configuration CI
/// smokes and `BENCH_chaos.json` is recorded at.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Campaign seed; defaults to [`seed_from_env`].
    pub seed: u64,
    /// Packet-fault bounds (the lifecycle bounds come from
    /// [`ChaosPlan::for_topology`] per cell).
    pub plan: SchedulePlan,
    /// Worker threads for the cell grid.
    pub workers: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: seed_from_env(),
            plan: SchedulePlan::default(),
            workers: 1,
        }
    }
}

/// One protocol × engine × topology cell of the chaos grid.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Protocol of the chaos scenario.
    pub protocol: String,
    /// `reference` or `generated`.
    pub engine: &'static str,
    /// Topology the cell ran on.
    pub topology: String,
    /// The derived schedule seed (shared by the reference and generated
    /// cells of the same protocol × topology pair).
    pub schedule_seed: u64,
    /// Packet entries plus lifecycle entries in the schedule.
    pub faults: usize,
    /// Virtual time the last lifecycle fault cleared.
    pub last_fault_ns: u64,
    /// No per-step safety property was violated.
    pub safety_ok: bool,
    /// The protocol recovered within [`CHAOS_RECOVERY_BOUND_NS`] of the
    /// last fault clearing.
    pub liveness_ok: bool,
    /// Virtual nanoseconds from the last fault clearing to the recovery
    /// evidence (`None` when the trace never recovered).
    pub recovery_ns: Option<u64>,
    /// Rendered property violations (safety then liveness; empty when ok).
    pub violations: Vec<String>,
    /// Self-contained repro snippet for the shrunk failing schedule
    /// (`None` when the cell passed).
    pub repro: Option<String>,
}

impl ChaosCell {
    /// True when the cell held both safety and liveness.
    pub fn ok(&self) -> bool {
        self.safety_ok && self.liveness_ok
    }

    /// The cell's benchmark id, `chaos/<protocol>/<engine>/<topology>`.
    pub fn bench_id(&self) -> String {
        format!("chaos/{}/{}/{}", self.protocol, self.engine, self.topology)
    }
}

/// The chaos campaign's result: cells in protocol-major, engine-middle,
/// topology-minor grid order.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Campaign seed.
    pub seed: u64,
    /// One cell per protocol × engine × topology, in grid order.
    pub cells: Vec<ChaosCell>,
}

impl ChaosReport {
    /// True when every cell held safety and liveness.
    pub fn all_ok(&self) -> bool {
        self.cells.iter().all(ChaosCell::ok)
    }

    /// The cells that violated a property.
    pub fn failed_cells(&self) -> Vec<&ChaosCell> {
        self.cells.iter().filter(|c| !c.ok()).collect()
    }

    /// Nearest-rank p50/p99 of `protocol`'s recovery times across its
    /// cells, in virtual nanoseconds.  `None` when no cell of the
    /// protocol recovered.
    pub fn recovery_percentiles(&self, protocol: &str) -> Option<(u64, u64)> {
        let mut samples: Vec<u64> = self
            .cells
            .iter()
            .filter(|c| c.protocol == protocol)
            .filter_map(|c| c.recovery_ns)
            .collect();
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let rank = |p: f64| samples[((p * samples.len() as f64).ceil() as usize).max(1) - 1];
        Some((rank(0.50), rank(0.99)))
    }

    /// Render the campaign for humans: the cell grid, per-protocol
    /// recovery percentiles, and each failing cell's repro snippet.
    pub fn render(&self) -> String {
        let mut out = format!(
            "chaos campaign seed=0x{:x}: {} cells, {} violations\n",
            self.seed,
            self.cells.len(),
            self.failed_cells().len()
        );
        for cell in &self.cells {
            let recovery = match cell.recovery_ns {
                Some(ns) => format!("{ns}ns"),
                None => "never".to_string(),
            };
            out.push_str(&format!(
                "  {:<5} {:<9} {:<10} seed=0x{:016x} faults={} safety={} liveness={} recovery={}\n",
                cell.protocol,
                cell.engine,
                cell.topology,
                cell.schedule_seed,
                cell.faults,
                if cell.safety_ok { "ok" } else { "FAIL" },
                if cell.liveness_ok { "ok" } else { "FAIL" },
                recovery,
            ));
        }
        for protocol in FUZZ_PROTOCOLS {
            if let Some((p50, p99)) = self.recovery_percentiles(protocol) {
                out.push_str(&format!(
                    "  {protocol:<5} recovery p50={p50}ns p99={p99}ns\n"
                ));
            }
        }
        for cell in self.failed_cells() {
            out.push_str(&format!(
                "violation [{}] on {}: {}\n",
                cell.bench_id(),
                cell.topology,
                cell.violations.join("; ")
            ));
            if let Some(repro) = &cell.repro {
                out.push_str(repro);
                out.push('\n');
            }
        }
        out
    }

    /// Serialise the campaign as a `sage-bench-baseline/v1` document: one
    /// benchmark per cell (`ns_per_iter` = virtual recovery nanoseconds,
    /// so the committed file is byte-identical on every machine) plus
    /// per-protocol `recovery_p50`/`recovery_p99` rollups.
    pub fn to_baseline_json(&self, note: &str) -> String {
        let row = |id: String, samples: usize, ns: u64| (id, samples, ns as f64, ns as f64);
        let mut rows: Vec<_> = self
            .cells
            .iter()
            .map(|c| row(c.bench_id(), 1, c.recovery_ns.unwrap_or(0)))
            .collect();
        for protocol in FUZZ_PROTOCOLS {
            if let Some((p50, p99)) = self.recovery_percentiles(protocol) {
                let samples = self
                    .cells
                    .iter()
                    .filter(|c| c.protocol == protocol && c.recovery_ns.is_some())
                    .count();
                rows.push(row(format!("chaos/{protocol}/recovery_p50"), samples, p50));
                rows.push(row(format!("chaos/{protocol}/recovery_p99"), samples, p99));
            }
        }
        baseline_json("chaos", note, &rows)
    }
}

/// Judge one chaos run of `scenario` under `schedule`: safety properties
/// always, liveness only when the schedule is recoverable (the shrinker
/// guard — a candidate that orphans a crash must not read as failing).
fn chaos_violations(
    protocol: &str,
    scenario: &Arc<dyn Scenario>,
    topology: &Topology,
    schedule: &FaultSchedule,
) -> Vec<String> {
    let fuzzed = FuzzedScenario::named(
        format!("{}+chaos", scenario.name()),
        scenario.clone(),
        schedule.clone(),
    );
    let run = match run_scenario_on(&fuzzed, topology.clone()) {
        Ok(run) => run,
        Err(e) => return vec![format!("bind error: {e}")],
    };
    let mut violations: Vec<String> = check_properties(protocol, &run.trace)
        .iter()
        .map(|v| format!("{} ({})", v.property, v.detail))
        .collect();
    if schedule.is_recoverable() {
        violations.extend(
            check_liveness(
                protocol,
                &run.trace,
                SimTime(schedule.last_fault_ns()),
                CHAOS_RECOVERY_BOUND_NS,
            )
            .iter()
            .map(|v| format!("{} ({})", v.property, v.detail)),
        );
    }
    violations
}

/// Run one chaos cell: generate the lifecycle schedule, run the engine's
/// chaos scenario under it, judge safety + liveness, shrink on failure.
fn run_chaos_cell(
    generated: &ScenarioRegistry,
    config: &ChaosConfig,
    topologies: &[Topology],
    protocol_index: usize,
    engine_index: usize,
    topology_index: usize,
) -> ChaosCell {
    let protocol = FUZZ_PROTOCOLS[protocol_index];
    let engine = CHAOS_ENGINES[engine_index];
    let topology = topologies[topology_index].clone();
    let scenario: Arc<dyn Scenario> = if engine == "reference" {
        chaos_reference_scenario(protocol)
    } else {
        generated
            .scenarios()
            .iter()
            .find(|s| s.protocol() == protocol)
            .cloned()
            .expect("every protocol has a generated chaos scenario")
    };
    // The engine index is deliberately absent from the seed: reference and
    // generated cells of the same pair replay the same schedule.
    let schedule_seed = cell_seed(config.seed, protocol_index, topology_index as u32);
    let schedule = FaultSchedule::generate_chaos(
        schedule_seed,
        &config.plan,
        &ChaosPlan::for_topology(&topology),
    );
    let fuzzed = FuzzedScenario::named(
        format!("{}+chaos", scenario.name()),
        scenario.clone(),
        schedule.clone(),
    );
    let run = run_scenario_on(&fuzzed, topology.clone())
        .expect("library topologies fit every chaos scenario");
    let recover_after = SimTime(schedule.last_fault_ns());
    let safety: Vec<String> = check_properties(protocol, &run.trace)
        .iter()
        .map(|v| format!("{} ({})", v.property, v.detail))
        .collect();
    let liveness: Vec<String> =
        check_liveness(protocol, &run.trace, recover_after, CHAOS_RECOVERY_BOUND_NS)
            .iter()
            .map(|v| format!("{} ({})", v.property, v.detail))
            .collect();
    let recovery_ns = recovery_time_ns(protocol, &run.trace, recover_after);
    let (safety_ok, liveness_ok) = (safety.is_empty(), liveness.is_empty());
    let mut violations = safety;
    violations.extend(liveness);
    let repro = if violations.is_empty() {
        None
    } else {
        let shrunk = shrink_schedule(&schedule, |candidate| {
            !chaos_violations(protocol, &scenario, &topology, candidate).is_empty()
        });
        Some(repro_snippet(
            &format!("{} chaos", scenario.name()),
            &topology.name,
            &shrunk,
        ))
    };
    ChaosCell {
        protocol: protocol.to_string(),
        engine,
        topology: topology.name,
        schedule_seed,
        faults: schedule.fault_count(),
        last_fault_ns: schedule.last_fault_ns(),
        safety_ok,
        liveness_ok,
        recovery_ns,
        violations,
        repro,
    }
}

/// Run the chaos recovery campaign: 4 protocols × 2 engines × the 5
/// library topologies, each cell a seeded crash/restart/flap schedule
/// judged by the safety properties plus the per-protocol liveness
/// checkers.  The grid shares `config.workers` threads of the
/// [`grid`](crate::grid) runner, so the report — and the
/// `BENCH_chaos.json` serialisation — is byte-identical at every worker
/// count.
pub fn run_chaos_campaign(config: &ChaosConfig) -> ChaosReport {
    let generated = chaos_scenarios(
        &generated_responders().responders(ExecMode::Vm),
        "chaos-generated",
    );
    let topologies = Topology::library();
    let topology_count = topologies.len();
    let grid: Vec<(usize, usize, usize)> = (0..FUZZ_PROTOCOLS.len())
        .flat_map(|p| {
            (0..CHAOS_ENGINES.len()).flat_map(move |e| (0..topology_count).map(move |t| (p, e, t)))
        })
        .collect();
    let cells = par_map(&grid, config.workers, |&(p, e, t)| {
        run_chaos_cell(&generated, config, &topologies, p, e, t)
    });
    ChaosReport {
        seed: config.seed,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::full_registry;

    #[test]
    fn campaign_is_a_pure_function_of_its_seed() {
        let config = FuzzConfig {
            seed: 0xFEED,
            iterations: 2,
            workers: 1,
            ..FuzzConfig::default()
        };
        let a = run_campaign(&config);
        let b = run_campaign(&config);
        assert_eq!(a.render(), b.render(), "campaigns replay byte-for-byte");
        assert_eq!(a.cells.len(), FUZZ_PROTOCOLS.len() * 2);
        assert!(a.sound(), "engine or property failure:\n{}", a.render());
    }

    #[test]
    fn campaign_is_invariant_under_worker_count() {
        let one = run_campaign(&FuzzConfig {
            seed: 0xFACE,
            iterations: 2,
            workers: 1,
            ..FuzzConfig::default()
        });
        let many = run_campaign(&FuzzConfig {
            seed: 0xFACE,
            iterations: 2,
            workers: 8,
            ..FuzzConfig::default()
        });
        assert_eq!(one.render(), many.render());
    }

    #[test]
    fn fuzzed_sweep_cells_run_green_on_the_library() {
        let fuzzed = fuzzed_scenarios(&full_registry(), 0x5A6E, 1);
        assert_eq!(fuzzed.len(), full_registry().len());
        let report = crate::sweep::run_sweep(&fuzzed, &[Topology::appendix_a()], 2, 0);
        for cell in &report.cells {
            assert!(
                cell.ok,
                "{}/{} violated a property: {:?}",
                cell.scenario, cell.topology, cell.failures
            );
        }
    }
}
