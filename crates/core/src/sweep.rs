//! The evaluation sweep: every registered scenario run on every library
//! topology, in parallel, with per-cell metrics.
//!
//! This is the §6 evaluation harness generalised from "one driver per
//! protocol on the Appendix-A network" to a grid: the [`Scenario`]
//! registry (reference responders plus the four generated programs)
//! crossed with [`Topology::library()`].  Each cell boots a fresh
//! discrete-event [`Sim`](sage_netsim::Sim), so cells are independent and
//! the grid is embarrassingly parallel; it runs on the [`grid`](crate::grid)
//! runner, so the report is byte-identical at every worker count.
//!
//! [`Scenario`]: sage_netsim::Scenario

use std::time::Instant;

use sage_interp::generated_scenarios;
use sage_netsim::scenario::{reference_scenarios, run_scenario_on, ScenarioRegistry};
use sage_netsim::sim::Topology;

use crate::fuzz::generated_responders;
use crate::grid::{baseline_json, effective_workers, par_map};

/// The full scenario registry the sweep runs: the four reference scenarios
/// (hand-written responders, the interoperation oracle of §6.2) plus the
/// four generated ones (SAGE-produced programs for ICMP, IGMP, NTP, BFD).
pub fn full_registry() -> ScenarioRegistry {
    let mut registry = reference_scenarios();
    for scenario in generated_scenarios(&generated_responders()).scenarios() {
        registry.register(scenario.clone());
    }
    registry
}

/// One scenario × topology cell of the sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Scenario name, e.g. `ping/reference`.
    pub scenario: String,
    /// Protocol the scenario exercises (`icmp`, `igmp`, `ntp`, `bfd`).
    pub protocol: String,
    /// Topology name, e.g. `mesh10`.
    pub topology: String,
    /// Every scenario check passed.
    pub ok: bool,
    /// Names of the checks that failed (empty when `ok`).
    pub failures: Vec<&'static str>,
    /// The topology diagnostic when the scenario could not even bind to
    /// the topology (`None` for cells that simulated).
    pub bind_error: Option<String>,
    /// Events the kernel processed.
    pub events: usize,
    /// Packets delivered to a node's handler.
    pub delivered: usize,
    /// Packets originated by endpoint handlers (the on-the-wire exchange).
    pub originated: usize,
    /// Virtual duration of the run in nanoseconds.
    pub virtual_ns: u64,
    /// The event trace's [`digest`](sage_netsim::sim::EventTrace::digest),
    /// FNV-1a of its rendering; equal digests mean byte-identical traces,
    /// which is how the determinism tests compare sweeps across worker
    /// counts without keeping every trace alive.
    pub trace_digest: u64,
    /// Wall-clock nanoseconds per simulation of this cell (averaged over
    /// [`SweepReport::iterations`] repeats).  The only non-deterministic
    /// field.
    pub wall_ns_per_iter: f64,
}

impl SweepCell {
    /// The cell's benchmark id, `sim_sweep/<scenario>/<topology>`.
    pub fn bench_id(&self) -> String {
        format!("sim_sweep/{}/{}", self.scenario, self.topology)
    }

    /// The deterministic portion of the cell — everything except the
    /// wall-clock timing.  Two sweeps agree iff these agree cell-by-cell.
    pub fn deterministic_view(&self) -> (&str, &str, bool, usize, usize, usize, u64, u64) {
        (
            self.scenario.as_str(),
            self.topology.as_str(),
            self.ok,
            self.events,
            self.delivered,
            self.originated,
            self.virtual_ns,
            self.trace_digest,
        )
    }
}

/// Result of a sweep: cells in scenario-major, topology-minor order —
/// the enumeration order, never the completion order.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// One cell per scenario × topology pair, in grid order.
    pub cells: Vec<SweepCell>,
    /// Worker threads actually used.
    pub workers: usize,
    /// Timed repeats behind each cell's `wall_ns_per_iter`.
    pub iterations: u32,
}

impl SweepReport {
    /// True when every cell passed all its checks.
    pub fn all_ok(&self) -> bool {
        self.cells.iter().all(|c| c.ok)
    }

    /// The cells that failed at least one check.
    pub fn failed_cells(&self) -> Vec<&SweepCell> {
        self.cells.iter().filter(|c| !c.ok).collect()
    }

    /// Render the grid as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:<11} {:>3}  {:>6} {:>9} {:>10} {:>12} {:>12}\n",
            "scenario",
            "topology",
            "ok",
            "events",
            "delivered",
            "originated",
            "virtual_ns",
            "wall_ns"
        ));
        for cell in &self.cells {
            out.push_str(&format!(
                "{:<16} {:<11} {:>3}  {:>6} {:>9} {:>10} {:>12} {:>12.0}\n",
                cell.scenario,
                cell.topology,
                if cell.ok { "ok" } else { "FAIL" },
                cell.events,
                cell.delivered,
                cell.originated,
                cell.virtual_ns,
                cell.wall_ns_per_iter,
            ));
            for failure in &cell.failures {
                out.push_str(&format!("    failed check: {failure}\n"));
            }
            if let Some(diag) = &cell.bind_error {
                out.push_str(&format!("    bind error: {diag}\n"));
            }
        }
        let failed = self.cells.iter().filter(|c| !c.ok).count();
        out.push_str(&format!(
            "{} cells, {} passed, {} failed ({} workers, {} timing iterations/cell)\n",
            self.cells.len(),
            self.cells.len() - failed,
            failed,
            self.workers,
            self.iterations,
        ));
        out
    }

    /// Serialise the sweep as a `sage-bench-baseline/v1` document, the same
    /// schema as the committed `BENCH_*.json` files, so the CI bench-drift
    /// step can diff a fresh `--bench sim` run against it.
    pub fn to_baseline_json(&self, note: &str) -> String {
        let iterations = f64::from(self.iterations);
        let rows: Vec<_> = self
            .cells
            .iter()
            .map(|cell| {
                (
                    cell.bench_id(),
                    self.iterations as usize,
                    cell.wall_ns_per_iter * iterations,
                    cell.wall_ns_per_iter,
                )
            })
            .collect();
        baseline_json("sim_sweep", note, &rows)
    }
}

/// Run one cell: simulate once for the metrics and trace, then time
/// `iterations` further runs for the wall-clock figure.
fn run_cell(
    scenario: &dyn sage_netsim::Scenario,
    topology: &Topology,
    iterations: u32,
) -> SweepCell {
    let run = match run_scenario_on(scenario, topology.clone()) {
        Ok(run) => run,
        Err(err) => {
            // A scenario/topology mismatch is a failed cell with a
            // diagnostic, not a panic that kills the whole sweep.
            return SweepCell {
                scenario: scenario.name().to_string(),
                protocol: scenario.protocol().to_string(),
                topology: topology.name.clone(),
                ok: false,
                failures: vec!["bind"],
                bind_error: Some(err.to_string()),
                events: 0,
                delivered: 0,
                originated: 0,
                virtual_ns: 0,
                trace_digest: 0,
                wall_ns_per_iter: 0.0,
            };
        }
    };
    let start = Instant::now();
    for _ in 0..iterations {
        let _ = std::hint::black_box(run_scenario_on(scenario, topology.clone()));
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    SweepCell {
        scenario: run.scenario.clone(),
        protocol: run.protocol.clone(),
        topology: run.topology.clone(),
        ok: run.ok(),
        failures: run.outcome.failures(),
        bind_error: None,
        events: run.event_count(),
        delivered: run.delivered(),
        originated: run.originated(),
        virtual_ns: run.duration_ns(),
        trace_digest: run.trace.digest(),
        wall_ns_per_iter: elapsed / f64::from(iterations.max(1)),
    }
}

/// Run every scenario in `registry` on every topology in `topologies`,
/// sharing the grid across `workers` threads of the [`grid`](crate::grid)
/// runner, so the output is independent of worker count and scheduling.
pub fn run_sweep(
    registry: &ScenarioRegistry,
    topologies: &[Topology],
    workers: usize,
    iterations: u32,
) -> SweepReport {
    let grid: Vec<(usize, usize)> = (0..registry.len())
        .flat_map(|s| (0..topologies.len()).map(move |t| (s, t)))
        .collect();
    let workers = effective_workers(workers, grid.len());
    let scenarios = registry.scenarios();
    let cells = par_map(&grid, workers, |&(s, t)| {
        run_cell(scenarios[s].as_ref(), &topologies[t], iterations)
    });
    SweepReport {
        cells,
        workers,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_registry_holds_reference_and_generated_scenarios() {
        let registry = full_registry();
        assert_eq!(registry.len(), 8);
        for name in [
            "ping/reference",
            "igmp/reference",
            "ntp/reference",
            "bfd/reference",
            "ping/generated",
            "igmp/generated",
            "ntp/generated",
            "bfd/generated",
        ] {
            assert!(registry.find(name).is_some(), "missing scenario {name}");
        }
    }

    #[test]
    fn sweep_covers_the_grid_and_every_cell_passes() {
        let registry = full_registry();
        let topologies = Topology::library();
        let report = run_sweep(&registry, &topologies, 4, 1);
        assert_eq!(report.cells.len(), registry.len() * topologies.len());
        assert!(report.cells.len() >= 20, "acceptance floor: >= 20 cells");
        for cell in &report.cells {
            assert!(
                cell.ok,
                "{}/{} failed: {:?}",
                cell.scenario, cell.topology, cell.failures
            );
            assert!(
                cell.originated >= 1,
                "{} originated no packets",
                cell.bench_id()
            );
        }
    }

    #[test]
    fn bind_failures_become_failed_cells_with_diagnostics() {
        // A topology too small for the scenarios: cells fail with the
        // topology diagnostic instead of panicking the sweep.
        let mut tiny = Topology::named("tiny");
        tiny.host("only", sage_netsim::headers::ipv4::addr(10, 0, 1, 1), 24);
        let report = run_sweep(&reference_scenarios(), &[tiny], 1, 0);
        assert!(!report.all_ok());
        let ntp = report
            .cells
            .iter()
            .find(|c| c.scenario == "ntp/reference")
            .unwrap();
        assert_eq!(ntp.failures, vec!["bind"]);
        let diag = ntp.bind_error.as_deref().unwrap();
        assert!(diag.contains("2 host"), "{diag}");
        assert!(report.render().contains("bind error:"));
    }

    #[test]
    fn sweep_is_invariant_under_worker_count() {
        let registry = full_registry();
        let topologies = vec![Topology::appendix_a(), Topology::line(3)];
        let one = run_sweep(&registry, &topologies, 1, 0);
        let many = run_sweep(&registry, &topologies, 8, 0);
        let det = |r: &SweepReport| {
            r.cells
                .iter()
                .map(|c| {
                    let (sc, topo, ok, ev, de, or, vn, dig) = c.deterministic_view();
                    (sc.to_string(), topo.to_string(), ok, ev, de, or, vn, dig)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(det(&one), det(&many));
    }

    #[test]
    fn baseline_json_lists_every_cell_once() {
        let registry = full_registry();
        let topologies = vec![Topology::appendix_a()];
        let report = run_sweep(&registry, &topologies, 1, 1);
        let json = report.to_baseline_json("test note");
        assert!(json.contains("\"schema\": \"sage-bench-baseline/v1\""));
        assert_eq!(json.matches("sim_sweep/").count(), report.cells.len());
        assert!(json.contains("sim_sweep/ping/reference/appendix_a"));
    }
}
