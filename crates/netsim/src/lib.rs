//! The *static framework* and network substrate for SAGE-generated code.
//!
//! §5.1 of the paper: "sage requires a pre-defined static framework that
//! provides such functionality along with an API to access and manipulate
//! headers of other protocols, and to interface with the OS."  The paper's
//! framework wraps Linux sockets, Mininet, `ping`, `traceroute` and
//! `tcpdump`; this crate provides equivalent functionality in-process:
//!
//! * [`checksum`] — one's-complement arithmetic (RFC 1071), including the
//!   incremental-update form;
//! * [`buffer`] — byte buffers with named bit-field access driven by field
//!   tables, the mechanism generated code uses to touch headers;
//! * [`headers`] — wire codecs and field tables for IPv4, UDP, ICMP, IGMP,
//!   NTP and BFD;
//! * [`net`] — the Appendix-A router (the Mininet substitute's router): one
//!   decision ladder for TTL handling, routing and every ICMP trigger, with
//!   the ICMP messages built by a pluggable responder;
//! * [`tcpdump`] — a decoder/validator that mimics `tcpdump`'s sanity
//!   checks (truncation, bad checksums, unknown types);
//! * [`tools`] — `ping` and `traceroute` clients driven against the virtual
//!   network;
//! * [`faulty`] — the student-implementation fault model used to regenerate
//!   Tables 2 and 3;
//! * [`fuzz`] — seeded adversarial fault schedules, per-step state-machine
//!   property checkers, and minimal-schedule shrinking for differential
//!   fuzzing of the generated responders.

#![deny(missing_docs)]

pub mod buffer;
pub mod checksum;
pub mod faulty;
pub mod fuzz;
pub mod headers;
pub mod net;
pub mod scenario;
pub mod sim;
pub mod tcpdump;
pub mod tools;

pub use buffer::{FieldSpec, FieldView, PacketBuf};
pub use checksum::{
    checksum_omitting_field, incremental_update, ones_complement_checksum, ones_complement_sum,
};
pub use fuzz::{
    check_properties, diff_traces, seed_from_env, shrink_schedule, FaultAction, FaultSchedule,
    FuzzedScenario, PropertyViolation, ScheduleEntry, SchedulePlan, ScheduledLink, TraceDivergence,
};
pub use headers::{bfd, icmp, igmp, ipv4, ntp, udp};
pub use net::{Interface, Router};
pub use scenario::{
    reference_scenarios, run_scenario, run_scenario_on, Responders, Scenario, ScenarioOutcome,
    ScenarioRegistry, ScenarioRun,
};
pub use sim::{
    EventTrace, LatencyHistogram, LinkDelivery, LinkModel, Node, NodeId, RouterNode, Sim,
    SimBuilder, SimTime, Topology, TopologyError, TraceMode, TraceSummary,
};
pub use tcpdump::{decode_packet, Decoded, Warning};
