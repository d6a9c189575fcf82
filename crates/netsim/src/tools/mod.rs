//! Simulated Linux network tools and the protocol sessions' wire formats.
//!
//! §6.2 tests SAGE-generated ICMP code against `ping` and `traceroute`;
//! [`mod@ping`] and [`mod@traceroute`] reproduce the relevant client-side behaviour
//! of those tools against the virtual network in [`crate::net`].  The
//! generality studies add one module per protocol session, each owning the
//! session's pluggable responder trait with its hand-written reference and
//! the packets the session exchanges: [`igmp`] (§6.3 host membership
//! query/report), [`ntp_exchange`] (§6.3 client/server exchange triggered
//! by the Table 11 timeout rule) and [`bfd_session`] (§6.4 session
//! bring-up, Down → Init → Up).  The happy-path ([`crate::scenario`]),
//! recovery ([`chaos`]) and load ([`soak`]) nodes all build and unwrap
//! their packets through these modules.

pub mod bfd_session;
pub mod chaos;
pub mod igmp;
pub mod ntp_exchange;
pub mod ping;
pub mod soak;
pub mod traceroute;

pub use bfd_session::{BfdEndpoint, ReferenceBfdEndpoint};
pub use chaos::{
    chaos_reference_scenario, chaos_scenarios, ChaosBfdScenario, ChaosIgmpScenario,
    ChaosNtpScenario, ChaosPingScenario, CHAOS_HORIZON_NS, CHAOS_RECOVERY_BOUND_NS,
};
pub use igmp::{IgmpResponder, ReferenceIgmpResponder};
pub use ntp_exchange::{NtpServer, NtpTimeoutPolicy, ReferenceNtpServer, ReferenceTimeoutPolicy};
pub use ping::{ping_once, PingOutcome};
pub use soak::{
    soak_pair_topology, soak_service, SoakClientNode, SoakProtocol, SoakResponder, SoakServerNode,
};
pub use traceroute::{traceroute, Hop, TracerouteReport};
