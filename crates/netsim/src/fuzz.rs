//! Adversarial fault-schedule fuzzing over the event kernel.
//!
//! The four reference scenarios exercise one happy-path exchange each; the
//! paper's claim is that generated code must behave like the spec under
//! real network conditions.  This module supplies the machinery to test
//! that claim:
//!
//! * a seeded [`FaultSchedule`] — a replayable plan of loss, duplication,
//!   reordering, corruption and delay entries, compiled per link into
//!   [`ScheduledLink`] [`LinkModel`]s;
//! * [`FuzzedScenario`], which wraps any [`Scenario`] and applies a
//!   schedule to its links while judging the run by per-step state-machine
//!   properties ([`check_properties`]) instead of the happy-path checks —
//!   a lost packet may legitimately break "got a reply", but it must never
//!   make BFD skip Down→Init→Up;
//! * [`shrink_schedule`], a deterministic delta-debugging pass that
//!   reduces a failing schedule to a minimal one that still fails;
//! * the unified seed plumbing ([`seed_from_env`]: `PROPTEST_SEED`, else
//!   [`DEFAULT_SEED`]) shared by the campaigns and the proptest suites, so
//!   a single `PROPTEST_SEED` pins fault schedules, property-test cases and
//!   fuzz campaigns alike.

use std::fmt;
use std::sync::Arc;

use crate::buffer::PacketBuf;
use crate::faulty::FaultRng;
use crate::headers::{bfd, igmp, ipv4, udp};
use crate::scenario::{Scenario, ScenarioOutcome};
use crate::sim::{
    EventTrace, LinkDelivery, LinkId, LinkModel, NodeId, SimBuilder, SimTime, Topology,
    TopologyError, TraceEventKind,
};
use crate::tools::bfd_session::BFD_CONTROL_PORT;

// ---------------------------------------------------------------------------
// Seed plumbing
// ---------------------------------------------------------------------------

/// The default seed, identical to the vendored proptest shim's fallback so
/// an unseeded fuzz run and an unseeded property-test run draw the same
/// stream.
pub const DEFAULT_SEED: u64 = 0x5A6E;

/// Parse a seed string the way the proptest shim does: trimmed, either
/// `0x`-prefixed hex or decimal; [`DEFAULT_SEED`] when absent or
/// malformed.
fn parse_seed(raw: Option<&str>) -> u64 {
    let raw = raw.unwrap_or_default().trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse::<u64>()
    };
    parsed.unwrap_or(DEFAULT_SEED)
}

/// The seed every suite shares: `PROPTEST_SEED` (decimal or `0x` hex) if
/// set and well-formed, else [`DEFAULT_SEED`].
pub fn seed_from_env() -> u64 {
    parse_seed(std::env::var("PROPTEST_SEED").ok().as_deref())
}

// ---------------------------------------------------------------------------
// Fault schedules
// ---------------------------------------------------------------------------

/// The extra delay a [`FaultAction::Reorder`] imposes: long enough to push
/// the packet behind anything transmitted in the following couple of
/// round trips on the appendix-A link delays.
pub const REORDER_DELAY_NS: u64 = 2_500_000;

/// One adversarial action applied to one transmit on one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Drop the packet (the kernel traces `drop lost on link`).
    Drop,
    /// Deliver the packet twice; the copy arrives `extra_delay_ns` later.
    Duplicate {
        /// Extra delay on the duplicate copy, in nanoseconds.
        extra_delay_ns: u64,
    },
    /// Delay the packet by [`REORDER_DELAY_NS`] so it lands after
    /// subsequently transmitted packets — reordering expressed as data.
    Reorder,
    /// XOR one byte of the packet (at `offset % len`) with `xor`.
    Corrupt {
        /// Byte offset, taken modulo the packet length.
        offset: usize,
        /// XOR mask; generators draw from `1..=255` so the byte changes.
        xor: u8,
    },
    /// Delay the packet by `extra_ns` nanoseconds.
    Delay {
        /// Extra delay, in nanoseconds.
        extra_ns: u64,
    },
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Drop => write!(f, "FaultAction::Drop"),
            FaultAction::Duplicate { extra_delay_ns } => {
                write!(
                    f,
                    "FaultAction::Duplicate {{ extra_delay_ns: {extra_delay_ns} }}"
                )
            }
            FaultAction::Reorder => write!(f, "FaultAction::Reorder"),
            FaultAction::Corrupt { offset, xor } => {
                write!(
                    f,
                    "FaultAction::Corrupt {{ offset: {offset}, xor: 0x{xor:02x} }}"
                )
            }
            FaultAction::Delay { extra_ns } => {
                write!(f, "FaultAction::Delay {{ extra_ns: {extra_ns} }}")
            }
        }
    }
}

/// One schedule entry: apply `action` to the `transmit_index`-th transmit
/// (0-based, counting both directions) on link `link`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// Link index into [`Topology::links`].
    pub link: usize,
    /// Which transmit on that link the action targets.
    pub transmit_index: u32,
    /// What happens to that transmit.
    pub action: FaultAction,
}

impl fmt::Display for ScheduleEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ScheduleEntry {{ link: {}, transmit_index: {}, action: {} }}",
            self.link, self.transmit_index, self.action
        )
    }
}

/// One node/link lifecycle fault, keyed by absolute virtual time — the
/// chaos half of the [`FaultSchedule`] grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleEntry {
    /// Crash node `node` at `at_ns`: its handler stops and the kernel's
    /// timer-generation tag invalidates every pending timer.
    Crash {
        /// Node index into [`Topology::nodes`].
        node: usize,
        /// Virtual crash time in nanoseconds.
        at_ns: u64,
    },
    /// Restart node `node` at `at_ns`: [`crate::sim::Node::on_restart`]
    /// resets the handler's protocol state and re-originates traffic.
    Restart {
        /// Node index into [`Topology::nodes`].
        node: usize,
        /// Virtual restart time in nanoseconds.
        at_ns: u64,
    },
    /// Flap link `link`: down at `at_ns`, back up `down_ns` later —
    /// self-recovering by construction.
    Flap {
        /// Link index into [`Topology::links`].
        link: usize,
        /// Virtual time the link goes down, in nanoseconds.
        at_ns: u64,
        /// How long the link stays down, in nanoseconds.
        down_ns: u64,
    },
}

impl LifecycleEntry {
    /// The virtual time at which this entry's disruption has fully
    /// cleared: a restart instant, a flap's up instant — or `u64::MAX`
    /// for a crash, which on its own never clears (only a matching
    /// [`LifecycleEntry::Restart`] does).
    pub fn clears_at_ns(&self) -> u64 {
        match *self {
            LifecycleEntry::Crash { .. } => u64::MAX,
            LifecycleEntry::Restart { at_ns, .. } => at_ns,
            LifecycleEntry::Flap { at_ns, down_ns, .. } => at_ns.saturating_add(down_ns),
        }
    }
}

impl fmt::Display for LifecycleEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LifecycleEntry::Crash { node, at_ns } => {
                write!(
                    f,
                    "LifecycleEntry::Crash {{ node: {node}, at_ns: {at_ns} }}"
                )
            }
            LifecycleEntry::Restart { node, at_ns } => {
                write!(
                    f,
                    "LifecycleEntry::Restart {{ node: {node}, at_ns: {at_ns} }}"
                )
            }
            LifecycleEntry::Flap {
                link,
                at_ns,
                down_ns,
            } => {
                write!(
                    f,
                    "LifecycleEntry::Flap {{ link: {link}, at_ns: {at_ns}, down_ns: {down_ns} }}"
                )
            }
        }
    }
}

/// Bounds for random lifecycle-fault generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Number of nodes crashes may target.
    pub nodes: usize,
    /// Number of links flaps may target.
    pub links: usize,
    /// Maximum number of lifecycle faults per schedule.
    pub max_faults: usize,
    /// Faults start within `0..window_ns` virtual nanoseconds.
    pub window_ns: u64,
    /// Minimum outage length; outages draw from
    /// `min_down_ns..min_down_ns + down_spread_ns`.
    pub min_down_ns: u64,
    /// Outage length spread on top of the minimum.
    pub down_spread_ns: u64,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        // Sized for the appendix-A topology and the chaos scenarios'
        // protocol timers: faults land inside the first two virtual
        // seconds, outages run 100–500ms — each shorter than BFD's 600ms
        // detection time (`ChaosBfdScenario::DETECT_NS`), and short enough
        // that recovery fits the scenario horizon.
        ChaosPlan {
            nodes: 5,
            links: 4,
            max_faults: 3,
            window_ns: 2_000_000_000,
            min_down_ns: 100_000_000,
            down_spread_ns: 400_000_000,
        }
    }
}

impl ChaosPlan {
    /// A plan whose crash/flap targets cover every node and link of
    /// `topology`.
    pub fn for_topology(topology: &Topology) -> ChaosPlan {
        ChaosPlan {
            nodes: topology.nodes.len(),
            links: topology.links.len(),
            ..ChaosPlan::default()
        }
    }
}

/// Bounds for random schedule generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulePlan {
    /// Number of links entries may target (appendix A has 4).
    pub links: usize,
    /// Maximum number of entries per schedule.
    pub max_entries: usize,
    /// Entries target transmit indices in `0..horizon`.
    pub horizon: u32,
}

impl Default for SchedulePlan {
    fn default() -> Self {
        SchedulePlan {
            links: 4,
            max_entries: 6,
            horizon: 6,
        }
    }
}

/// A seeded, replayable adversarial plan: which transmits on which links
/// are dropped, duplicated, reordered, corrupted or delayed.  Schedules
/// are plain data — generation, application and shrinking are all
/// deterministic, so a failing schedule *is* the repro.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSchedule {
    /// The seed this schedule was generated from (0 for hand-built ones).
    pub seed: u64,
    /// The scheduled faults, in generation order.
    pub entries: Vec<ScheduleEntry>,
    /// Node crash/restart and link flap faults, in generation order.
    pub lifecycle: Vec<LifecycleEntry>,
}

impl FaultSchedule {
    /// A schedule with no faults — every link behaves ideally.
    pub fn clean() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Generate a random schedule from `seed` within `plan`'s bounds.
    /// Identical seeds and plans yield byte-identical schedules.
    pub fn generate(seed: u64, plan: &SchedulePlan) -> FaultSchedule {
        let mut rng = FaultRng::new(seed);
        let count = 1 + (rng.next_u64() as usize) % plan.max_entries.max(1);
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let link = (rng.next_u64() as usize) % plan.links.max(1);
            let transmit_index = (rng.next_u64() % u64::from(plan.horizon.max(1))) as u32;
            let action = match rng.next_u64() % 5 {
                0 => FaultAction::Drop,
                1 => FaultAction::Duplicate {
                    extra_delay_ns: 1_000 + (rng.next_u64() % 4) * 500,
                },
                2 => FaultAction::Reorder,
                3 => FaultAction::Corrupt {
                    offset: (rng.next_u64() % 64) as usize,
                    xor: (1 + rng.next_u64() % 255) as u8,
                },
                _ => FaultAction::Delay {
                    extra_ns: (1 + rng.next_u64() % 2_000) * 1_000,
                },
            };
            entries.push(ScheduleEntry {
                link,
                transmit_index,
                action,
            });
        }
        FaultSchedule {
            seed,
            entries,
            lifecycle: Vec::new(),
        }
    }

    /// [`FaultSchedule::generate`] plus seeded lifecycle faults within
    /// `chaos`'s bounds.  Every generated crash carries a matching restart
    /// and every flap self-recovers, so generated chaos schedules always
    /// have a fault-free tail ([`FaultSchedule::is_recoverable`] holds) —
    /// the precondition the liveness checkers assert convergence under.
    pub fn generate_chaos(seed: u64, plan: &SchedulePlan, chaos: &ChaosPlan) -> FaultSchedule {
        let mut schedule = FaultSchedule::generate(seed, plan);
        // A separate stream so the packet-fault half stays byte-identical
        // to the plain generator at the same seed.
        let mut rng = FaultRng::new(seed ^ 0xC4A0_5CAB_005E_0000);
        let count = 1 + (rng.next_u64() as usize) % chaos.max_faults.max(1);
        for _ in 0..count {
            let at_ns = rng.next_u64() % chaos.window_ns.max(1);
            let down_ns = chaos.min_down_ns + rng.next_u64() % chaos.down_spread_ns.max(1);
            if rng.next_u64() % 2 == 0 {
                let node = (rng.next_u64() as usize) % chaos.nodes.max(1);
                schedule
                    .lifecycle
                    .push(LifecycleEntry::Crash { node, at_ns });
                schedule.lifecycle.push(LifecycleEntry::Restart {
                    node,
                    at_ns: at_ns.saturating_add(down_ns),
                });
            } else {
                let link = (rng.next_u64() as usize) % chaos.links.max(1);
                schedule.lifecycle.push(LifecycleEntry::Flap {
                    link,
                    at_ns,
                    down_ns,
                });
            }
        }
        schedule
    }

    /// True if any entry corrupts packet bytes.  Under a non-corrupting
    /// schedule all engines see only well-formed packets, so the
    /// tri-engine traces must stay byte-identical; corruption may expose
    /// genuine reference/generated behavioural differences.
    pub fn is_corrupting(&self) -> bool {
        self.entries
            .iter()
            .any(|e| matches!(e.action, FaultAction::Corrupt { .. }))
    }

    /// Total number of removable faults: packet entries plus lifecycle
    /// entries — the index space [`FaultSchedule::without_index`] and the
    /// shrinker iterate.
    pub fn fault_count(&self) -> usize {
        self.entries.len() + self.lifecycle.len()
    }

    /// The schedule with packet entry `index` removed — the shrinking step
    /// for the packet-fault half.
    pub fn without_entry(&self, index: usize) -> FaultSchedule {
        let mut entries = self.entries.clone();
        entries.remove(index);
        FaultSchedule {
            seed: self.seed,
            entries,
            lifecycle: self.lifecycle.clone(),
        }
    }

    /// The schedule with fault `index` removed, indexing packet entries
    /// first (`0..entries.len()`) then lifecycle entries — the unified
    /// shrinking step over both halves of the grammar.
    pub fn without_index(&self, index: usize) -> FaultSchedule {
        if index < self.entries.len() {
            return self.without_entry(index);
        }
        let mut lifecycle = self.lifecycle.clone();
        lifecycle.remove(index - self.entries.len());
        FaultSchedule {
            seed: self.seed,
            entries: self.entries.clone(),
            lifecycle,
        }
    }

    /// True when every crash has a later restart of the same node: after
    /// [`FaultSchedule::last_fault_ns`] all nodes are up and all links
    /// restored, so liveness (recovery within a bounded virtual time) is a
    /// fair demand.  Schedules that leave a node permanently down trivially
    /// fail liveness, and the shrinker must not reduce a real finding into
    /// one of those.
    pub fn is_recoverable(&self) -> bool {
        self.lifecycle.iter().all(|entry| match *entry {
            LifecycleEntry::Crash { node, at_ns } => {
                self.lifecycle.iter().any(|other| match *other {
                    LifecycleEntry::Restart {
                        node: n,
                        at_ns: restart,
                    } => n == node && restart > at_ns,
                    _ => false,
                })
            }
            _ => true,
        })
    }

    /// The virtual time the last lifecycle disruption clears (0 for
    /// schedules with no lifecycle faults) — the instant liveness checking
    /// starts from.  A crash clears at its earliest matching restart;
    /// `u64::MAX` when an unmatched crash never clears.
    pub fn last_fault_ns(&self) -> u64 {
        self.lifecycle
            .iter()
            .map(|entry| match *entry {
                LifecycleEntry::Crash { node, at_ns } => self
                    .lifecycle
                    .iter()
                    .filter_map(|other| match *other {
                        LifecycleEntry::Restart {
                            node: n,
                            at_ns: restart,
                        } if n == node && restart > at_ns => Some(restart),
                        _ => None,
                    })
                    .min()
                    .unwrap_or(u64::MAX),
                other => other.clears_at_ns(),
            })
            .max()
            .unwrap_or(0)
    }

    /// Compile the schedule into per-link [`ScheduledLink`] models and
    /// bind them on the builder.  Entries referencing links the topology
    /// does not have are skipped, so one schedule can be replayed on any
    /// sweep topology.
    pub fn apply(&self, sim: &mut SimBuilder) {
        let link_count = sim.topology().links.len();
        let node_count = sim.topology().nodes.len();
        for link in 0..link_count {
            let entries: Vec<(u32, FaultAction)> = self
                .entries
                .iter()
                .filter(|e| e.link == link)
                .map(|e| (e.transmit_index, e.action))
                .collect();
            if !entries.is_empty() {
                sim.bind_link_model(LinkId(link), Box::new(ScheduledLink::new(entries)));
            }
        }
        for entry in &self.lifecycle {
            match *entry {
                LifecycleEntry::Crash { node, at_ns } if node < node_count => {
                    sim.crash_at(NodeId(node), SimTime(at_ns));
                }
                LifecycleEntry::Restart { node, at_ns } if node < node_count => {
                    sim.restart_at(NodeId(node), SimTime(at_ns));
                }
                LifecycleEntry::Flap {
                    link,
                    at_ns,
                    down_ns,
                } if link < link_count => {
                    sim.link_down_at(LinkId(link), SimTime(at_ns));
                    sim.link_up_at(LinkId(link), SimTime(at_ns.saturating_add(down_ns)));
                }
                _ => {}
            }
        }
    }

    /// Render the schedule as a self-contained Rust construction — the
    /// body of a repro snippet.  Deterministic: byte-identical for equal
    /// schedules.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("FaultSchedule {\n");
        out.push_str(&format!("    seed: 0x{:x},\n", self.seed));
        out.push_str("    entries: vec![\n");
        for e in &self.entries {
            out.push_str(&format!("        {e},\n"));
        }
        out.push_str("    ],\n");
        out.push_str("    lifecycle: vec![\n");
        for e in &self.lifecycle {
            out.push_str(&format!("        {e},\n"));
        }
        out.push_str("    ],\n}\n");
        out
    }
}

/// A [`LinkModel`] compiled from the [`FaultSchedule`] entries targeting
/// one link: a per-link transmit counter selects which entries fire, and
/// several entries on the same transmit compose (corrupt-then-duplicate
/// duplicates the corrupted bytes).
#[derive(Debug)]
pub struct ScheduledLink {
    entries: Vec<(u32, FaultAction)>,
    transmits: u32,
}

impl ScheduledLink {
    /// A link model firing `entries` (`(transmit_index, action)` pairs).
    pub fn new(entries: Vec<(u32, FaultAction)>) -> ScheduledLink {
        ScheduledLink {
            entries,
            transmits: 0,
        }
    }
}

impl LinkModel for ScheduledLink {
    fn transmit(&mut self, packet: &PacketBuf) -> Vec<LinkDelivery> {
        let index = self.transmits;
        self.transmits += 1;
        let mut bytes = packet.as_bytes().to_vec();
        let mut extra_delay_ns = 0u64;
        let mut duplicate: Option<u64> = None;
        for (target, action) in &self.entries {
            if *target != index {
                continue;
            }
            match *action {
                FaultAction::Drop => return Vec::new(),
                FaultAction::Duplicate { extra_delay_ns: d } => duplicate = Some(d),
                FaultAction::Reorder => extra_delay_ns += REORDER_DELAY_NS,
                FaultAction::Corrupt { offset, xor } => {
                    if !bytes.is_empty() {
                        let at = offset % bytes.len();
                        bytes[at] ^= xor;
                    }
                }
                FaultAction::Delay { extra_ns } => extra_delay_ns += extra_ns,
            }
        }
        let delivered = PacketBuf::from_bytes(bytes);
        let mut out = vec![LinkDelivery {
            packet: delivered.clone(),
            extra_delay_ns,
        }];
        if let Some(extra) = duplicate {
            out.push(LinkDelivery {
                packet: delivered,
                extra_delay_ns: extra_delay_ns + extra,
            });
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Trace diffing
// ---------------------------------------------------------------------------

/// The first line two rendered traces disagree on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDivergence {
    /// 0-based line number into [`EventTrace::render`] output.
    pub line: usize,
    /// The left trace's line (empty if it ended first).
    pub left: String,
    /// The right trace's line (empty if it ended first).
    pub right: String,
}

impl fmt::Display for TraceDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace line {}: left={:?} right={:?}",
            self.line, self.left, self.right
        )
    }
}

/// Diff two traces by their deterministic renderings; `None` when
/// byte-identical, else the first divergent line.
pub fn diff_traces(left: &EventTrace, right: &EventTrace) -> Option<TraceDivergence> {
    let left = left.render();
    let right = right.render();
    if left == right {
        return None;
    }
    let mut l = left.lines();
    let mut r = right.lines();
    let mut line = 0;
    loop {
        match (l.next(), r.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (a, b) => {
                return Some(TraceDivergence {
                    line,
                    left: a.unwrap_or_default().to_string(),
                    right: b.unwrap_or_default().to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-step state-machine properties
// ---------------------------------------------------------------------------

/// One property violation found while walking a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyViolation {
    /// The property's stable name (one of [`protocol_properties`]).
    pub property: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

/// The per-protocol property inventory [`check_properties`] evaluates;
/// [`FuzzedScenario::assert`] reports one check per name.
pub fn protocol_properties(protocol: &str) -> &'static [&'static str] {
    match protocol {
        "icmp" => &["icmp_reply_budget"],
        "igmp" => &["igmp_report_per_query", "igmp_reports_consistent"],
        "ntp" => &["ntp_client_gated_by_timeout", "ntp_no_spurious_retransmit"],
        "bfd" => &["bfd_transitions_legal"],
        _ => &[],
    }
}

/// Evaluate the per-step state-machine properties for `protocol` against a
/// finished trace.  These hold under *any* fault schedule — loss may
/// remove packets and duplication may add them, but BFD must never skip
/// Down→Init→Up, an NTP client must not transmit without its Table 11
/// timeout, IGMP report suppression must stay consistent, and an ICMP
/// responder must not reply more often than it was asked.
pub fn check_properties(protocol: &str, trace: &EventTrace) -> Vec<PropertyViolation> {
    match protocol {
        "icmp" => check_icmp(trace),
        "igmp" => check_igmp(trace),
        "ntp" => check_ntp(trace),
        "bfd" => check_bfd(trace),
        _ => Vec::new(),
    }
}

/// The ICMP type byte of an IP-encapsulated ICMP datagram, if it is one.
fn icmp_type_of(datagram: &[u8]) -> Option<u8> {
    let p = PacketBuf::from_bytes(datagram.to_vec());
    if p.get_field(ipv4::FIELDS, "protocol").ok()? as u8 != ipv4::PROTO_ICMP {
        return None;
    }
    let payload = ipv4::payload(&p);
    payload.first().copied()
}

/// ICMP: every echo reply answers a delivered echo request — replies never
/// outnumber requests, even under duplication.
fn check_icmp(trace: &EventTrace) -> Vec<PropertyViolation> {
    let mut requests = 0usize;
    let mut replies = 0usize;
    for e in &trace.events {
        match &e.kind {
            TraceEventKind::Deliver(bytes)
                if icmp_type_of(bytes) == Some(crate::headers::icmp::msg_type::ECHO) =>
            {
                requests += 1;
            }
            TraceEventKind::Originate(bytes)
                if icmp_type_of(bytes) == Some(crate::headers::icmp::msg_type::ECHO_REPLY) =>
            {
                replies += 1;
            }
            _ => {}
        }
    }
    if replies > requests {
        vec![PropertyViolation {
            property: "icmp_reply_budget",
            detail: format!("{replies} echo replies for {requests} delivered echo requests"),
        }]
    } else {
        Vec::new()
    }
}

/// The IGMP message type (the 4-bit type nibble) of an IP-encapsulated
/// IGMP datagram, if it is one.
fn igmp_type_of(datagram: &[u8]) -> Option<u8> {
    let p = PacketBuf::from_bytes(datagram.to_vec());
    if p.get_field(ipv4::FIELDS, "protocol").ok()? as u8 != ipv4::PROTO_IGMP {
        return None;
    }
    let message = PacketBuf::from_bytes(ipv4::payload(&p).to_vec());
    Some(message.get_field(igmp::FIELDS, "type").ok()? as u8)
}

/// IGMP: a host reports at most once per delivered query (suppression
/// never amplifies), and every report a host emits is byte-identical (the
/// group membership does not drift mid-run).
fn check_igmp(trace: &EventTrace) -> Vec<PropertyViolation> {
    use std::collections::BTreeMap;
    let mut queries: BTreeMap<&str, usize> = BTreeMap::new();
    let mut reports: BTreeMap<&str, Vec<&Vec<u8>>> = BTreeMap::new();
    for e in &trace.events {
        match &e.kind {
            TraceEventKind::Deliver(bytes)
                if igmp_type_of(bytes) == Some(igmp::msg_type::MEMBERSHIP_QUERY) =>
            {
                *queries.entry(e.node_name.as_str()).or_default() += 1;
            }
            TraceEventKind::Originate(bytes)
                if igmp_type_of(bytes) == Some(igmp::msg_type::MEMBERSHIP_REPORT) =>
            {
                reports.entry(e.node_name.as_str()).or_default().push(bytes);
            }
            _ => {}
        }
    }
    let mut violations = Vec::new();
    for (node, emitted) in &reports {
        let budget = queries.get(node).copied().unwrap_or(0);
        if emitted.len() > budget {
            violations.push(PropertyViolation {
                property: "igmp_report_per_query",
                detail: format!(
                    "{node} emitted {} reports for {budget} delivered queries",
                    emitted.len()
                ),
            });
        }
        if emitted.windows(2).any(|w| w[0] != w[1]) {
            violations.push(PropertyViolation {
                property: "igmp_reports_consistent",
                detail: format!("{node} emitted non-identical membership reports"),
            });
        }
    }
    violations
}

/// NTP: the client originates only after its Table 11 timeout fired, and
/// never more often than the timeout fired — retransmission obeys the
/// timeout under every schedule.
fn check_ntp(trace: &EventTrace) -> Vec<PropertyViolation> {
    let mut client: Option<&str> = None;
    let mut fired = 0usize;
    for (node, text) in trace.notes() {
        if text == "ntp=timeout-fired" {
            client = Some(node);
            fired += 1;
        } else if text == "ntp=timeout-not-due" {
            client = Some(node);
        }
    }
    let Some(client) = client else {
        return Vec::new();
    };
    let sent = trace.originated_by(client).len();
    let mut violations = Vec::new();
    if fired == 0 && sent > 0 {
        violations.push(PropertyViolation {
            property: "ntp_client_gated_by_timeout",
            detail: format!("{client} transmitted {sent} requests with no timeout due"),
        });
    }
    if sent > fired {
        violations.push(PropertyViolation {
            property: "ntp_no_spurious_retransmit",
            detail: format!("{client} transmitted {sent} requests for {fired} timeout firings"),
        });
    }
    violations
}

/// The BFD session state carried by an IP/UDP datagram addressed to the
/// BFD control port, if it is one.
fn bfd_state_of(datagram: &[u8]) -> Option<bfd::SessionState> {
    let control = udp::receive(&PacketBuf::from_bytes(datagram.to_vec()), BFD_CONTROL_PORT)?;
    bfd::SessionState::from_code(control.payload.get_field(bfd::FIELDS, "state").ok()? as u8)
}

/// Parse a `bfd_state=...` note back into a session state.
fn parse_state_note(text: &str) -> Option<bfd::SessionState> {
    match text.strip_prefix("bfd_state=")? {
        "AdminDown" => Some(bfd::SessionState::AdminDown),
        "Down" => Some(bfd::SessionState::Down),
        "Init" => Some(bfd::SessionState::Init),
        "Up" => Some(bfd::SessionState::Up),
        _ => None,
    }
}

/// BFD: every observed state change is either a hold (packet discarded)
/// or the RFC 5880 §6.8.6 transition for the packet just delivered — in
/// particular a session must never jump Down→Up unless the peer reported
/// Init.  Corrupted packets still decode (the state field is 2 bits), so
/// the transition function is total over whatever arrives.
fn check_bfd(trace: &EventTrace) -> Vec<PropertyViolation> {
    use std::collections::BTreeMap;
    let mut last_received: BTreeMap<&str, bfd::SessionState> = BTreeMap::new();
    let mut state: BTreeMap<&str, bfd::SessionState> = BTreeMap::new();
    let mut timeout_pending: BTreeMap<&str, bool> = BTreeMap::new();
    let mut violations = Vec::new();
    for e in &trace.events {
        match &e.kind {
            TraceEventKind::Deliver(bytes) => {
                if let Some(s) = bfd_state_of(bytes) {
                    last_received.insert(e.node_name.as_str(), s);
                }
            }
            TraceEventKind::Note(text) if text == "node-down" => {
                // A crash wipes the session: the restarted node boots in
                // Down with no received-state history.
                let node = e.node_name.as_str();
                state.insert(node, bfd::SessionState::Down);
                last_received.remove(node);
                timeout_pending.remove(node);
            }
            TraceEventKind::Note(text) if text == "bfd=detection-timeout" => {
                // RFC 5880 §6.8.1: detection time expiry forces the
                // session Down regardless of the last packet received.
                timeout_pending.insert(e.node_name.as_str(), true);
            }
            TraceEventKind::Note(text) => {
                let Some(new) = parse_state_note(text) else {
                    continue;
                };
                let node = e.node_name.as_str();
                let prev = state.get(node).copied().unwrap_or(bfd::SessionState::Down);
                let legal_next = last_received
                    .get(node)
                    .map(|r| bfd::session_state_transition(prev, *r));
                let timed_out =
                    timeout_pending.remove(node).unwrap_or(false) && new == bfd::SessionState::Down;
                // RFC 5880 §6.8.6: a peer reporting Down takes any session
                // Down (the corpus transition subset elides this rule, so
                // the checker admits it explicitly).
                let peer_down = new == bfd::SessionState::Down
                    && last_received.get(node) == Some(&bfd::SessionState::Down);
                let legal = new == prev || legal_next == Some(new) || timed_out || peer_down;
                if timed_out {
                    // A timeout-driven drop to Down invalidates whatever
                    // the peer last reported — the next transition starts
                    // from scratch.
                    last_received.remove(node);
                }
                if !legal {
                    violations.push(PropertyViolation {
                        property: "bfd_transitions_legal",
                        detail: format!(
                            "{node} moved {prev:?} -> {new:?} but received {:?} allows only {:?}",
                            last_received.get(node),
                            legal_next
                        ),
                    });
                }
                state.insert(node, new);
            }
            _ => {}
        }
    }
    violations
}

// ---------------------------------------------------------------------------
// Liveness: recovery once the faults clear
// ---------------------------------------------------------------------------

/// The liveness property checked for `protocol`: once the last fault
/// clears, the protocol must re-converge within a bounded virtual time.
/// The safety inventory ([`protocol_properties`]) holds under *any*
/// schedule; these hold only for recoverable ones
/// ([`FaultSchedule::is_recoverable`]).
pub fn protocol_liveness(protocol: &str) -> &'static str {
    match protocol {
        "icmp" => "icmp_ping_recovers",
        "igmp" => "igmp_reconverges",
        "ntp" => "ntp_resynchronizes",
        "bfd" => "bfd_returns_up",
        other => panic!("no liveness property for protocol {other:?}"),
    }
}

/// The virtual time recovery was observed at, or `None` if the trace
/// never recovers after `recover_after`.  Evidence per protocol: a
/// `ping=ok` note (ICMP), an `igmp=report-received` note at the querier
/// (IGMP), an `ntp=synchronized` note (NTP), and for BFD every session
/// node's state timeline ending in an unbroken Up run.  A node that was
/// already converged when the faults cleared recovers at `recover_after`
/// itself (zero recovery time).
fn recovery_evidence_time(
    protocol: &str,
    trace: &EventTrace,
    recover_after: SimTime,
) -> Option<SimTime> {
    let note_at = |wanted: &str| {
        trace.events.iter().find_map(|e| match &e.kind {
            TraceEventKind::Note(text) if text == wanted && e.time >= recover_after => Some(e.time),
            _ => None,
        })
    };
    match protocol {
        "icmp" => note_at("ping=ok"),
        "igmp" => note_at("igmp=report-received"),
        "ntp" => note_at("ntp=synchronized"),
        "bfd" => bfd_recovery_time(trace, recover_after),
        _ => None,
    }
}

/// BFD recovery: every node that ever noted a session state must end the
/// trace in an unbroken Up run (a crash breaks the run via the kernel's
/// `node-down` note).  The recovery instant is the latest start of those
/// trailing runs, clamped to `recover_after`.
fn bfd_recovery_time(trace: &EventTrace, recover_after: SimTime) -> Option<SimTime> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut timelines: BTreeMap<&str, Vec<(SimTime, bfd::SessionState)>> = BTreeMap::new();
    let mut sessions: BTreeSet<&str> = BTreeSet::new();
    for e in &trace.events {
        if let TraceEventKind::Note(text) = &e.kind {
            if let Some(s) = parse_state_note(text) {
                sessions.insert(e.node_name.as_str());
                timelines
                    .entry(e.node_name.as_str())
                    .or_default()
                    .push((e.time, s));
            } else if text == "node-down" {
                timelines
                    .entry(e.node_name.as_str())
                    .or_default()
                    .push((e.time, bfd::SessionState::Down));
            }
        }
    }
    if sessions.is_empty() {
        return None;
    }
    let mut latest = recover_after;
    for node in &sessions {
        let timeline = &timelines[node];
        let trailing_up = timeline
            .iter()
            .rev()
            .take_while(|(_, s)| *s == bfd::SessionState::Up)
            .count();
        if trailing_up == 0 {
            return None;
        }
        let run_start = timeline[timeline.len() - trailing_up].0;
        latest = latest.max(run_start);
    }
    Some(latest)
}

/// Evaluate `protocol`'s liveness property: the trace must show recovery
/// evidence no later than `bound_ns` of virtual time past
/// `recover_after` (the instant the schedule's last fault cleared,
/// [`FaultSchedule::last_fault_ns`]).
pub fn check_liveness(
    protocol: &str,
    trace: &EventTrace,
    recover_after: SimTime,
    bound_ns: u64,
) -> Vec<PropertyViolation> {
    let property = protocol_liveness(protocol);
    let deadline = recover_after.0.saturating_add(bound_ns);
    match recovery_evidence_time(protocol, trace, recover_after) {
        Some(at) if at.0 <= deadline => Vec::new(),
        Some(at) => vec![PropertyViolation {
            property,
            detail: format!(
                "recovered at {}ns, {}ns past the {bound_ns}ns bound after faults cleared at {}ns",
                at.0,
                at.0 - deadline,
                recover_after.0
            ),
        }],
        None => vec![PropertyViolation {
            property,
            detail: format!(
                "no recovery evidence after faults cleared at {}ns",
                recover_after.0
            ),
        }],
    }
}

/// How long past `recover_after` the trace took to recover, in virtual
/// nanoseconds — the quantity the chaos campaign aggregates into
/// p50/p99.  `None` when the trace never recovered.
pub fn recovery_time_ns(protocol: &str, trace: &EventTrace, recover_after: SimTime) -> Option<u64> {
    recovery_evidence_time(protocol, trace, recover_after)
        .map(|at| at.0.saturating_sub(recover_after.0))
}

// ---------------------------------------------------------------------------
// Fuzzed scenarios
// ---------------------------------------------------------------------------

/// A [`Scenario`] wrapper that replays the inner scenario under a
/// [`FaultSchedule`] and judges the run by [`check_properties`] instead
/// of the inner happy-path checks (which loss legitimately breaks).
pub struct FuzzedScenario {
    name: String,
    inner: Arc<dyn Scenario>,
    schedule: FaultSchedule,
}

impl FuzzedScenario {
    /// Wrap `inner` under `schedule`, named `"<inner>+fuzz"`.
    pub fn new(inner: Arc<dyn Scenario>, schedule: FaultSchedule) -> FuzzedScenario {
        let name = format!("{}+fuzz", inner.name());
        FuzzedScenario::named(name, inner, schedule)
    }

    /// Wrap `inner` under `schedule` with an explicit name (sweep cells
    /// need unique names per schedule).
    pub fn named(
        name: impl Into<String>,
        inner: Arc<dyn Scenario>,
        schedule: FaultSchedule,
    ) -> FuzzedScenario {
        FuzzedScenario {
            name: name.into(),
            inner,
            schedule,
        }
    }

    /// The schedule this wrapper applies.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }
}

impl Scenario for FuzzedScenario {
    fn name(&self) -> &str {
        &self.name
    }

    fn protocol(&self) -> &'static str {
        self.inner.protocol()
    }

    fn bind(&self, sim: &mut SimBuilder) -> Result<(), TopologyError> {
        self.inner.bind(sim)?;
        self.schedule.apply(sim);
        Ok(())
    }

    fn assert(&self, trace: &EventTrace) -> ScenarioOutcome {
        let violations = check_properties(self.protocol(), trace);
        let checks = protocol_properties(self.protocol())
            .iter()
            .map(|property| {
                (
                    *property,
                    violations.iter().all(|v| v.property != *property),
                )
            })
            .collect();
        ScenarioOutcome { checks }
    }
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

/// Delta-debug a failing schedule down to a minimal one: greedily drop
/// each fault (packet entries and lifecycle entries alike) whose removal
/// keeps `still_fails` true, looping to a fixed point.  Deterministic —
/// faults are tried in order and the predicate is a pure function of the
/// candidate schedule — so the same failing schedule always shrinks to
/// the same minimum.
///
/// Liveness predicates should treat non-recoverable candidates (e.g. a
/// crash whose matching restart was just removed) as *not* failing —
/// otherwise shrinking degenerates to "the node never came back", which
/// reproduces nothing.  [`FaultSchedule::is_recoverable`] is the guard.
pub fn shrink_schedule(
    schedule: &FaultSchedule,
    mut still_fails: impl FnMut(&FaultSchedule) -> bool,
) -> FaultSchedule {
    let mut current = schedule.clone();
    loop {
        let mut reduced = false;
        let mut index = 0;
        while index < current.fault_count() {
            let candidate = current.without_index(index);
            if still_fails(&candidate) {
                current = candidate;
                reduced = true;
            } else {
                index += 1;
            }
        }
        if !reduced {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{reference_scenarios, run_scenario_on};
    use crate::tools::bfd_session::control_datagram;

    /// The reference ping session, the subject of the wrapper tests.
    fn reference_ping() -> Arc<dyn Scenario> {
        reference_scenarios()
            .find("ping/reference")
            .expect("registered")
            .clone()
    }

    #[test]
    fn seed_parsing_accepts_hex_decimal_and_rejects_noise() {
        // `seed_from_env` on a given `PROPTEST_SEED` value, without
        // touching the process environment.
        assert_eq!(parse_seed(Some("0x99")), 0x99);
        assert_eq!(parse_seed(Some("0X10")), 16);
        assert_eq!(parse_seed(Some("  42  ")), 42);
        assert_eq!(parse_seed(Some("banana")), DEFAULT_SEED);
        assert_eq!(parse_seed(Some("")), DEFAULT_SEED);
        assert_eq!(parse_seed(None), DEFAULT_SEED);
    }

    #[test]
    fn schedules_are_a_pure_function_of_the_seed() {
        let plan = SchedulePlan::default();
        let a = FaultSchedule::generate(0xBEEF, &plan);
        let b = FaultSchedule::generate(0xBEEF, &plan);
        let c = FaultSchedule::generate(0xBEF0, &plan);
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        assert_ne!(a, c, "different seeds should draw different schedules");
        assert!(!a.entries.is_empty() && a.entries.len() <= plan.max_entries);
    }

    #[test]
    fn scheduled_link_composes_actions_per_transmit() {
        let mut link = ScheduledLink::new(vec![
            (
                0,
                FaultAction::Corrupt {
                    offset: 1,
                    xor: 0xFF,
                },
            ),
            (
                0,
                FaultAction::Duplicate {
                    extra_delay_ns: 500,
                },
            ),
            (1, FaultAction::Drop),
            (2, FaultAction::Delay { extra_ns: 9 }),
        ]);
        let packet = PacketBuf::from_bytes(vec![0xAA, 0x00, 0xCC]);
        let first = link.transmit(&packet);
        assert_eq!(first.len(), 2, "corrupt composes with duplicate");
        assert_eq!(first[0].packet.as_bytes(), &[0xAA, 0xFF, 0xCC]);
        assert_eq!(first[0].extra_delay_ns, 0);
        assert_eq!(first[1].packet.as_bytes(), &[0xAA, 0xFF, 0xCC]);
        assert_eq!(first[1].extra_delay_ns, 500);
        assert!(link.transmit(&packet).is_empty(), "second transmit dropped");
        let third = link.transmit(&packet);
        assert_eq!(third.len(), 1);
        assert_eq!(third[0].extra_delay_ns, 9);
        assert_eq!(third[0].packet.as_bytes(), packet.as_bytes());
        let fourth = link.transmit(&packet);
        assert_eq!(
            fourth[0].extra_delay_ns, 0,
            "untargeted transmits are intact"
        );
    }

    #[test]
    fn clean_schedule_leaves_the_reference_ping_green() {
        let fuzzed = FuzzedScenario::new(reference_ping(), FaultSchedule::clean());
        let run = run_scenario_on(&fuzzed, Topology::appendix_a()).expect("binds");
        assert!(
            run.ok(),
            "property checks hold on the happy path: {:?}",
            run.outcome
        );
        assert_eq!(run.scenario, "ping/reference+fuzz");
    }

    #[test]
    fn dropped_request_still_satisfies_properties() {
        let schedule = FaultSchedule {
            seed: 0,
            entries: vec![ScheduleEntry {
                link: 0,
                transmit_index: 0,
                action: FaultAction::Drop,
            }],
            ..FaultSchedule::clean()
        };
        let fuzzed = FuzzedScenario::new(reference_ping(), schedule);
        let run = run_scenario_on(&fuzzed, Topology::appendix_a()).expect("binds");
        assert!(run.ok(), "loss breaks the exchange but not the properties");
        let rendered = run.trace.render();
        assert!(
            rendered.contains("lost on link"),
            "drop is traced:\n{rendered}"
        );
    }

    #[test]
    fn schedule_entries_outside_the_topology_are_skipped() {
        let schedule = FaultSchedule {
            seed: 0,
            entries: vec![ScheduleEntry {
                link: 99,
                transmit_index: 0,
                action: FaultAction::Drop,
            }],
            ..FaultSchedule::clean()
        };
        let fuzzed = FuzzedScenario::new(reference_ping(), schedule);
        let run = run_scenario_on(&fuzzed, Topology::appendix_a()).expect("binds without panic");
        assert!(run.ok());
    }

    #[test]
    fn diff_traces_reports_the_first_divergent_line() {
        let schedule = FaultSchedule {
            seed: 0,
            entries: vec![ScheduleEntry {
                link: 0,
                transmit_index: 1,
                action: FaultAction::Drop,
            }],
            ..FaultSchedule::clean()
        };
        let clean = FuzzedScenario::new(reference_ping(), FaultSchedule::clean());
        let faulty = FuzzedScenario::new(reference_ping(), schedule);
        let a = run_scenario_on(&clean, Topology::appendix_a()).unwrap();
        let b = run_scenario_on(&faulty, Topology::appendix_a()).unwrap();
        assert!(diff_traces(&a.trace, &a.trace).is_none());
        let divergence = diff_traces(&a.trace, &b.trace).expect("drop changes the trace");
        assert_ne!(divergence.left, divergence.right);
    }

    #[test]
    fn shrinking_is_deterministic_and_minimal() {
        // Predicate: the schedule still contains a Drop on link 0.
        let fails = |s: &FaultSchedule| {
            s.entries
                .iter()
                .any(|e| e.link == 0 && matches!(e.action, FaultAction::Drop))
        };
        let noisy = FaultSchedule {
            seed: 0x77,
            entries: vec![
                ScheduleEntry {
                    link: 1,
                    transmit_index: 0,
                    action: FaultAction::Reorder,
                },
                ScheduleEntry {
                    link: 0,
                    transmit_index: 2,
                    action: FaultAction::Drop,
                },
                ScheduleEntry {
                    link: 2,
                    transmit_index: 1,
                    action: FaultAction::Delay { extra_ns: 5 },
                },
                ScheduleEntry {
                    link: 0,
                    transmit_index: 3,
                    action: FaultAction::Drop,
                },
            ],
            ..FaultSchedule::clean()
        };
        let shrunk = shrink_schedule(&noisy, fails);
        assert_eq!(shrunk.entries.len(), 1, "one Drop suffices: {shrunk:?}");
        assert!(fails(&shrunk));
        let again = shrink_schedule(&noisy, fails);
        assert_eq!(
            shrunk.render(),
            again.render(),
            "shrinking is deterministic"
        );
    }

    #[test]
    fn chaos_schedules_are_recoverable_and_seed_stable() {
        let plan = SchedulePlan::default();
        let chaos = ChaosPlan::default();
        let a = FaultSchedule::generate_chaos(0x5A6E, &plan, &chaos);
        let b = FaultSchedule::generate_chaos(0x5A6E, &plan, &chaos);
        assert_eq!(a, b);
        assert!(!a.lifecycle.is_empty(), "chaos draws lifecycle faults");
        assert!(a.is_recoverable(), "every crash pairs with a restart");
        assert!(a.last_fault_ns() > 0);
        assert_eq!(
            a.entries,
            FaultSchedule::generate(0x5A6E, &plan).entries,
            "the packet-fault half is untouched by the chaos stream"
        );
        let rendered = a.render();
        assert!(rendered.contains("lifecycle: vec!["));
    }

    #[test]
    fn shrinking_spans_lifecycle_entries() {
        let noisy = FaultSchedule {
            seed: 0x77,
            entries: vec![ScheduleEntry {
                link: 1,
                transmit_index: 0,
                action: FaultAction::Reorder,
            }],
            lifecycle: vec![
                LifecycleEntry::Crash {
                    node: 2,
                    at_ns: 1_000,
                },
                LifecycleEntry::Restart {
                    node: 2,
                    at_ns: 2_000,
                },
                LifecycleEntry::Flap {
                    link: 0,
                    at_ns: 500,
                    down_ns: 100,
                },
            ],
        };
        // Predicate: a recoverable schedule that still flaps link 0.  The
        // recoverability guard keeps the orphaned-crash candidate out.
        let fails = |s: &FaultSchedule| {
            s.is_recoverable()
                && s.lifecycle
                    .iter()
                    .any(|e| matches!(e, LifecycleEntry::Flap { link: 0, .. }))
        };
        let shrunk = shrink_schedule(&noisy, fails);
        assert!(shrunk.entries.is_empty());
        assert_eq!(
            shrunk.lifecycle,
            vec![LifecycleEntry::Flap {
                link: 0,
                at_ns: 500,
                down_ns: 100,
            }],
            "crash/restart pair and packet entry all shrink away"
        );
    }

    #[test]
    fn unmatched_crash_is_not_recoverable() {
        let schedule = FaultSchedule {
            seed: 0,
            entries: vec![],
            lifecycle: vec![LifecycleEntry::Crash { node: 1, at_ns: 10 }],
        };
        assert!(!schedule.is_recoverable());
        assert_eq!(schedule.last_fault_ns(), u64::MAX);
    }

    fn note(time: u64, node: &str, text: &str) -> crate::sim::TraceEvent {
        crate::sim::TraceEvent {
            time: SimTime(time),
            node: NodeId(0),
            node_name: node.to_string(),
            kind: TraceEventKind::Note(text.to_string()),
        }
    }

    #[test]
    fn liveness_accepts_recovery_within_bound_and_reports_it_late_or_missing() {
        let trace = EventTrace {
            events: vec![note(5_000, "h1", "ping=ok"), note(9_000, "h1", "ping=ok")],
            ..EventTrace::default()
        };
        assert!(check_liveness("icmp", &trace, SimTime(4_000), 2_000).is_empty());
        assert_eq!(
            recovery_time_ns("icmp", &trace, SimTime(4_000)),
            Some(1_000)
        );
        let late = check_liveness("icmp", &trace, SimTime(6_000), 1_000);
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].property, "icmp_ping_recovers");
        let missing = check_liveness("icmp", &EventTrace::default(), SimTime(0), 1_000);
        assert!(missing[0].detail.contains("no recovery evidence"));
    }

    #[test]
    fn bfd_liveness_requires_every_session_to_end_up() {
        let recovered = EventTrace {
            events: vec![
                note(1_000, "h1", "bfd_state=Up"),
                note(2_000, "h1", "node-down"),
                note(3_000, "h1", "bfd_state=Down"),
                note(4_000, "h1", "bfd_state=Init"),
                note(5_000, "h1", "bfd_state=Up"),
                note(1_500, "h2", "bfd_state=Up"),
            ],
            ..EventTrace::default()
        };
        assert!(check_liveness("bfd", &recovered, SimTime(2_500), 5_000).is_empty());
        // h1 re-enters Up at 5_000; h2 was Up before the faults cleared,
        // so its recovery clamps to recover_after.
        assert_eq!(
            recovery_time_ns("bfd", &recovered, SimTime(2_500)),
            Some(2_500)
        );
        let stuck = EventTrace {
            events: vec![
                note(1_000, "h1", "bfd_state=Up"),
                note(2_000, "h1", "node-down"),
            ],
            ..EventTrace::default()
        };
        assert_eq!(
            check_liveness("bfd", &stuck, SimTime(2_500), 5_000)[0].property,
            "bfd_returns_up"
        );
    }

    fn deliver(time: u64, node: &str, bytes: Vec<u8>) -> crate::sim::TraceEvent {
        crate::sim::TraceEvent {
            time: SimTime(time),
            node: NodeId(0),
            node_name: node.to_string(),
            kind: TraceEventKind::Deliver(bytes),
        }
    }

    fn bfd_datagram(state: bfd::SessionState) -> Vec<u8> {
        let control = bfd::build_control_packet(state, 1, 2, 3, false);
        control_datagram(1, 2, &control).as_bytes().to_vec()
    }

    #[test]
    fn detection_timeout_legalises_the_drop_to_down() {
        // Bring the tracked session to Up via legal deliveries first.
        let come_up = vec![
            deliver(1_000, "h1", bfd_datagram(bfd::SessionState::Down)),
            note(1_001, "h1", "bfd_state=Init"),
            deliver(2_000, "h1", bfd_datagram(bfd::SessionState::Up)),
            note(2_001, "h1", "bfd_state=Up"),
        ];
        let mut timed_out = come_up.clone();
        timed_out.push(note(3_000, "h1", "bfd=detection-timeout"));
        timed_out.push(note(3_000, "h1", "bfd_state=Down"));
        assert!(
            check_bfd(&EventTrace {
                events: timed_out,
                ..EventTrace::default()
            })
            .is_empty(),
            "timeout-driven Up->Down is legal without a delivered packet"
        );
        let mut silent = come_up;
        silent.push(note(3_000, "h1", "bfd_state=Down"));
        assert_eq!(
            check_bfd(&EventTrace {
                events: silent,
                ..EventTrace::default()
            })
            .len(),
            1,
            "Up->Down with no packet and no timeout stays a violation"
        );
    }
}
