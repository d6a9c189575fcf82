//! SAGE: the end-to-end semi-automated protocol-processing pipeline.
//!
//! This crate ties the substrates together into the three-stage pipeline of
//! Figure 1 — semantic parsing, disambiguation, code generation — plus the
//! surrounding workflow: ambiguity reporting (0-LF / multi-LF sentences),
//! human rewrites, unit-test-driven discovery of under-specified behaviour,
//! and the evaluation harness that regenerates the paper's tables and
//! figures.
//!
//! ```
//! use sage_core::pipeline::{Sage, SageConfig};
//! use sage_spec::corpus::Protocol;
//!
//! let sage = Sage::new(SageConfig::default());
//! let report = sage.analyze_document(&Protocol::Icmp.document());
//! assert!(report.reports.len() > 50);
//! ```

#![deny(missing_docs)]

pub mod batch;
pub mod evaluation;
pub mod fuzz;
pub mod grid;
pub mod icmp;
pub mod pipeline;
pub mod programs;
pub mod soak;
pub mod sweep;

pub use batch::{BatchItem, BatchPipeline, BatchReport, StageReport};
pub use fuzz::{
    fuzzed_scenarios, generated_responders, run_campaign, FindingKind, FuzzCell, FuzzConfig,
    FuzzFinding, FuzzReport,
};
pub use icmp::{generate_icmp_program, icmp_end_to_end, IcmpEndToEnd};
pub use pipeline::{AnalysisWorkspace, Sage, SageConfig, SentenceAnalysis, SentenceStatus};
pub use programs::{
    generate_bfd_program, generate_igmp_program, generate_ntp_program, generate_program,
    lowering_summary, LoweringSummary,
};
pub use soak::{
    run_soak_campaign, ProtocolSoakStats, SoakConfig, SoakReport, SoakShardStats, SOAK_ROLES,
};
pub use sweep::{full_registry, run_sweep, SweepCell, SweepReport};
