//! The unified `Scenario` API over the discrete-event kernel.
//!
//! One trait covers every protocol exercise: a [`Scenario`] names a
//! protocol session, binds event handlers onto any [`Topology`], and
//! asserts over the resulting [`EventTrace`].  [`run_scenario`] runs it on
//! the Appendix-A network; the sweep binary and the test suites iterate a
//! [`ScenarioRegistry`] through [`run_scenario_on`], so the same exercise
//! runs unchanged on a line, a star, a ring or a mesh too.
//!
//! A [`Responders`] bundle holds the pluggable role of each protocol — the
//! hand-written references or SAGE-generated code — and is the one place
//! that wires those roles into the happy-path registry
//! ([`Responders::scenarios`]), the chaos-recovery registry
//! ([`crate::tools::chaos::chaos_scenarios`]) and the soak's services
//! ([`crate::tools::soak::soak_service`]).  Each session's packets come
//! from its protocol module in [`crate::tools`].
//!
//! # Contract
//!
//! * `bind` must be pure over `&self`: each call creates fresh handler state
//!   (protocol endpoints come from factory closures), so one scenario value
//!   can run on many topologies, possibly concurrently.
//! * `bind` locates nodes structurally — first router, first host, last
//!   host — never by topology-specific names.
//! * `assert` judges only the trace (originated packets and notes), which
//!   keeps verdicts replayable from a rendered trace alone.
//!
//! `tests/scenario_parity.rs` pins the packets each session originates on
//! the Appendix-A topology, and `tests/session_traces.rs` pins the full
//! trace of every registered session on every library topology.

use crate::buffer::PacketBuf;
use crate::headers::{bfd, igmp, ipv4, ntp, udp};
use crate::net::{IcmpResponder, ReferenceResponder};
use crate::sim::{
    Ctx, EventTrace, Node, NodeId, RouterNode, SimBuilder, Topology, TopologyError, TraceEventKind,
};
use crate::tcpdump::decode_packet;
use crate::tools::bfd_session::{
    control_datagram, BfdEndpoint, ReferenceBfdEndpoint, BFD_CONTROL_PORT,
};
use crate::tools::igmp::{
    query_packet, report_packet, IgmpResponder, ReferenceIgmpResponder, SESSION_GROUP,
};
use crate::tools::ntp_exchange::{
    reply_packet, request_packet, NtpServer, NtpTimeoutPolicy, ReferenceNtpServer,
    ReferenceTimeoutPolicy, SERVER_CLOCK, SERVER_STRATUM,
};
use crate::tools::ping::{echo_request, validate_reply, PingOutcome, ECHO_PAYLOAD};
use std::sync::Arc;

/// Factory for the router-side ICMP responder under test.
pub type IcmpFactory = Arc<dyn Fn() -> Box<dyn IcmpResponder> + Send + Sync>;
/// Factory for the IGMP host responder under test.
pub type IgmpFactory = Arc<dyn Fn() -> Box<dyn IgmpResponder> + Send + Sync>;
/// Factory for the NTP client timeout policy under test.
pub type NtpPolicyFactory = Arc<dyn Fn() -> Box<dyn NtpTimeoutPolicy> + Send + Sync>;
/// Factory for the NTP server under test.
pub type NtpServerFactory = Arc<dyn Fn() -> Box<dyn NtpServer> + Send + Sync>;
/// Factory for a BFD endpoint under test, given `(local, remote)`
/// discriminators.
pub type BfdFactory = Arc<dyn Fn(u32, u32) -> Box<dyn BfdEndpoint> + Send + Sync>;

/// The named pass/fail checks a scenario computed from a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// `(check name, passed)` in evaluation order.
    pub checks: Vec<(&'static str, bool)>,
}

impl ScenarioOutcome {
    /// True if every check passed.
    pub fn all_ok(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The names of the failed checks.
    pub fn failures(&self) -> Vec<&'static str> {
        self.checks
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(name, _)| *name)
            .collect()
    }
}

/// One protocol exercise that can run on any topology of the library.
pub trait Scenario: Send + Sync {
    /// Unique scenario name (used in sweep reports and bench ids).
    fn name(&self) -> &str;

    /// The protocol exercised (`icmp` / `igmp` / `ntp` / `bfd`).
    fn protocol(&self) -> &'static str;

    /// Bind fresh event handlers onto the builder's topology.  A
    /// scenario/topology mismatch (missing node, too few hosts) comes back
    /// as a [`TopologyError`] diagnostic instead of a panic.
    fn bind(&self, sim: &mut SimBuilder) -> Result<(), TopologyError>;

    /// Judge a finished run from its trace.
    fn assert(&self, trace: &EventTrace) -> ScenarioOutcome;
}

/// The result of running one scenario on one topology.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Scenario name.
    pub scenario: String,
    /// Protocol name.
    pub protocol: String,
    /// Topology name.
    pub topology: String,
    /// The scenario's verdicts.
    pub outcome: ScenarioOutcome,
    /// The full event trace of the run.
    pub trace: EventTrace,
}

impl ScenarioRun {
    /// True if every check passed.
    pub fn ok(&self) -> bool {
        self.outcome.all_ok()
    }

    /// Number of processed trace events.
    pub fn event_count(&self) -> usize {
        self.trace.events.len()
    }

    /// Number of packets delivered across links.
    pub fn delivered(&self) -> usize {
        self.trace.delivered_count()
    }

    /// Number of packets originated by endpoints.
    pub fn originated(&self) -> usize {
        self.trace.originated_packets().len()
    }

    /// Virtual duration of the run in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.trace.duration().0
    }
}

/// Run a scenario on the paper's Appendix-A network
/// ([`Topology::appendix_a`]); the sweep runs it on every library topology
/// through [`run_scenario_on`].
pub fn run_scenario(scenario: &dyn Scenario) -> Result<ScenarioRun, TopologyError> {
    run_scenario_on(scenario, Topology::appendix_a())
}

/// Run a scenario on an explicit topology.  A misconfigured pairing fails
/// with a [`TopologyError`] diagnostic before any event is pumped.
pub fn run_scenario_on(
    scenario: &dyn Scenario,
    topology: Topology,
) -> Result<ScenarioRun, TopologyError> {
    let topology_name = topology.name.clone();
    let mut sim = SimBuilder::new(topology);
    scenario.bind(&mut sim)?;
    let trace = sim.build().run();
    let outcome = scenario.assert(&trace);
    Ok(ScenarioRun {
        scenario: scenario.name().to_string(),
        protocol: scenario.protocol().to_string(),
        topology: topology_name,
        outcome,
        trace,
    })
}

/// An ordered collection of scenarios the sweep binary and tests iterate.
#[derive(Default, Clone)]
pub struct ScenarioRegistry {
    scenarios: Vec<Arc<dyn Scenario>>,
}

impl ScenarioRegistry {
    /// An empty registry.
    pub fn new() -> ScenarioRegistry {
        ScenarioRegistry::default()
    }

    /// Add a scenario.
    pub fn register(&mut self, scenario: Arc<dyn Scenario>) {
        self.scenarios.push(scenario);
    }

    /// The registered scenarios, in registration order.
    pub fn scenarios(&self) -> &[Arc<dyn Scenario>] {
        &self.scenarios
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True if no scenario is registered.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Look a scenario up by name.
    pub fn find(&self, name: &str) -> Option<&Arc<dyn Scenario>> {
        self.scenarios.iter().find(|s| s.name() == name)
    }
}

/// The peer every NTP session polls: its timer has reached the threshold,
/// so the Table 11 timeout procedure fires.
pub(crate) const DUE_PEER: ntp::PeerVariables = ntp::PeerVariables {
    timer: 64,
    threshold: 64,
    mode: ntp::mode::CLIENT,
};

/// The pluggable role of each protocol session, as factories.  A bundle
/// builds the happy-path registry ([`Responders::scenarios`]), the
/// chaos-recovery one ([`crate::tools::chaos::chaos_scenarios`]) and the
/// soak's services ([`crate::tools::soak::soak_service`]); a `None` role
/// registers no session for its protocol.
#[derive(Clone, Default)]
pub struct Responders {
    /// The first router's ICMP responder.
    pub icmp: Option<IcmpFactory>,
    /// The IGMP host, a member of [`SESSION_GROUP`].
    pub igmp: Option<IgmpFactory>,
    /// The NTP client's timeout policy and the NTP server.
    pub ntp: Option<(NtpPolicyFactory, NtpServerFactory)>,
    /// Both BFD endpoints.
    pub bfd: Option<BfdFactory>,
}

impl Responders {
    /// The hand-written references in every role.
    pub fn reference() -> Responders {
        Responders {
            icmp: Some(Arc::new(|| Box::new(ReferenceResponder))),
            igmp: Some(Arc::new(|| {
                Box::new(ReferenceIgmpResponder {
                    group: SESSION_GROUP,
                })
            })),
            ntp: Some((
                Arc::new(|| Box::new(ReferenceTimeoutPolicy)),
                Arc::new(|| {
                    Box::new(ReferenceNtpServer {
                        stratum: SERVER_STRATUM,
                        clock: SERVER_CLOCK,
                    })
                }),
            )),
            bfd: Some(Arc::new(|local, remote| {
                Box::new(ReferenceBfdEndpoint::new(local, remote))
            })),
        }
    }

    /// The happy-path session of every filled role, named
    /// `<prefix>/<label>` with prefixes `ping`, `igmp`, `ntp` and `bfd`.
    pub fn scenarios(&self, label: &str) -> ScenarioRegistry {
        let mut reg = ScenarioRegistry::new();
        if let Some(responder) = &self.icmp {
            let name = format!("ping/{label}");
            reg.register(Arc::new(PingScenario::new(&name, responder.clone())));
        }
        if let Some(host) = &self.igmp {
            let name = format!("igmp/{label}");
            reg.register(Arc::new(IgmpScenario::new(
                &name,
                SESSION_GROUP,
                host.clone(),
            )));
        }
        if let Some((policy, server)) = &self.ntp {
            let name = format!("ntp/{label}");
            reg.register(Arc::new(NtpScenario::new(
                &name,
                policy.clone(),
                server.clone(),
                DUE_PEER,
                0xDEAD_BEEF,
            )));
        }
        if let Some(endpoint) = &self.bfd {
            let name = format!("bfd/{label}");
            reg.register(Arc::new(BfdScenario::new(
                &name,
                endpoint.clone(),
                endpoint.clone(),
                (7, 9),
                (9, 7),
            )));
        }
        reg
    }
}

/// The four protocol sessions wired to the hand-written references, named
/// `<prefix>/reference`.
pub fn reference_scenarios() -> ScenarioRegistry {
    Responders::reference().scenarios("reference")
}

/// Bind reference [`RouterNode`]s on every router except `skip` — the
/// forwarding fabric every scenario shares.
pub(crate) fn bind_infrastructure_routers(sim: &mut SimBuilder, skip: Option<NodeId>) {
    for r in sim.topology().routers() {
        if Some(r) == skip {
            continue;
        }
        let cfg = sim.topology().router_config(r);
        sim.bind(
            r,
            Box::new(RouterNode::new(cfg, Box::new(ReferenceResponder))),
        );
    }
}

// ---------------------------------------------------------------------------
// ICMP ping
// ---------------------------------------------------------------------------

/// The ping exercise: the first host echoes against the first router, whose
/// ICMP behaviour comes from the scenario's responder factory.
pub struct PingScenario {
    name: String,
    responder: IcmpFactory,
}

/// The echo identifier every ping scenario uses.
const PING_IDENT: u16 = 0x77;
/// The echo sequence number every ping scenario uses.
const PING_SEQ: u16 = 1;

impl PingScenario {
    /// A ping scenario with a custom name and router responder.
    pub fn new(name: &str, responder: IcmpFactory) -> PingScenario {
        PingScenario {
            name: name.to_string(),
            responder,
        }
    }
}

struct PingClientNode {
    src: u32,
    dst: u32,
}

impl Node for PingClientNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(echo_request(
            self.src,
            self.dst,
            PING_IDENT,
            PING_SEQ,
            ECHO_PAYLOAD,
        ));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: &PacketBuf) {
        match validate_reply(packet, self.src, PING_IDENT, PING_SEQ, ECHO_PAYLOAD) {
            PingOutcome::Reply { .. } => ctx.note("ping=ok"),
            PingOutcome::Error(e) => ctx.note(format!("ping=error:{e}")),
            PingOutcome::Rejected(r) => ctx.note(format!("ping=rejected:{r}")),
            PingOutcome::NoReply => ctx.note("ping=no-reply"),
        }
    }
}

impl Scenario for PingScenario {
    fn name(&self) -> &str {
        &self.name
    }

    fn protocol(&self) -> &'static str {
        "icmp"
    }

    fn bind(&self, sim: &mut SimBuilder) -> Result<(), TopologyError> {
        let router = sim.topology().router_at(0)?;
        let cfg = sim.topology().router_config(router);
        let client = sim.topology().host_at(0)?;
        let src = sim.topology().addr_of(client);
        let dst = sim.topology().addr_of(router);
        sim.bind(router, Box::new(RouterNode::new(cfg, (self.responder)())));
        bind_infrastructure_routers(sim, Some(router));
        sim.bind(client, Box::new(PingClientNode { src, dst }));
        Ok(())
    }

    fn assert(&self, trace: &EventTrace) -> ScenarioOutcome {
        let notes = trace.notes();
        ScenarioOutcome {
            checks: vec![
                ("request_sent", !trace.originated_packets().is_empty()),
                (
                    "reply_valid",
                    notes.iter().any(|(_, text)| *text == "ping=ok"),
                ),
            ],
        }
    }
}

// ---------------------------------------------------------------------------
// IGMP membership
// ---------------------------------------------------------------------------

/// The IGMP exercise: the first router queries the all-hosts group, the
/// first host reports membership through the scenario's responder factory.
pub struct IgmpScenario {
    name: String,
    group: u32,
    responder: IgmpFactory,
}

impl IgmpScenario {
    /// An IGMP scenario for `group` with a custom host responder.
    pub fn new(name: &str, group: u32, responder: IgmpFactory) -> IgmpScenario {
        IgmpScenario {
            name: name.to_string(),
            group,
            responder,
        }
    }
}

/// The querier side: sends one Host Membership Query at start, consumes
/// whatever multicast comes back (the report is judged from the trace).
struct IgmpQuerierNode {
    router_addr: u32,
}

impl Node for IgmpQuerierNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(query_packet(self.router_addr));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _packet: &PacketBuf) {
        ctx.deliver_local();
    }
}

/// The host side: answers membership queries through the pluggable
/// responder.  Shared with the chaos scenarios, which pair it with a
/// re-querying querier instead of the one-shot one.
pub(crate) struct IgmpHostNode {
    pub(crate) host_addr: u32,
    pub(crate) group: u32,
    pub(crate) responder: Box<dyn IgmpResponder>,
}

impl Node for IgmpHostNode {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: &PacketBuf) {
        let proto = packet.get_field(ipv4::FIELDS, "protocol").unwrap_or(0) as u8;
        if proto != ipv4::PROTO_IGMP {
            ctx.deliver_local();
            return;
        }
        let delivered = PacketBuf::from_bytes(ipv4::payload(packet).to_vec());
        match self.responder.respond(&delivered) {
            Some(msg) => ctx.send(report_packet(self.host_addr, self.group, &msg)),
            None => ctx.note("igmp=silent"),
        }
    }
}

impl Scenario for IgmpScenario {
    fn name(&self) -> &str {
        &self.name
    }

    fn protocol(&self) -> &'static str {
        "igmp"
    }

    fn bind(&self, sim: &mut SimBuilder) -> Result<(), TopologyError> {
        let querier = sim.topology().router_at(0)?;
        let host = sim.topology().host_at(0)?;
        let router_addr = sim.topology().addr_of(querier);
        let host_addr = sim.topology().addr_of(host);
        sim.bind(querier, Box::new(IgmpQuerierNode { router_addr }));
        bind_infrastructure_routers(sim, Some(querier));
        sim.bind(
            host,
            Box::new(IgmpHostNode {
                host_addr,
                group: self.group,
                responder: (self.responder)(),
            }),
        );
        Ok(())
    }

    fn assert(&self, trace: &EventTrace) -> ScenarioOutcome {
        let packets = trace.originated_packets();
        let query_clean = packets
            .first()
            .is_some_and(|bytes| decode_packet(bytes).clean());
        let report = packets.get(1);
        let (report_type_ok, group_echoed, checksum_ok, report_clean) = match report {
            Some(bytes) => {
                let ip = PacketBuf::from_bytes(bytes.clone());
                let msg = PacketBuf::from_bytes(ipv4::payload(&ip).to_vec());
                (
                    msg.get_field(igmp::FIELDS, "type").ok()
                        == Some(u64::from(igmp::msg_type::MEMBERSHIP_REPORT)),
                    msg.get_field(igmp::FIELDS, "group_address").ok()
                        == Some(u64::from(self.group)),
                    igmp::checksum_ok(&msg),
                    decode_packet(bytes).clean(),
                )
            }
            None => (false, false, false, false),
        };
        ScenarioOutcome {
            checks: vec![
                ("query_clean", query_clean),
                ("report_sent", report.is_some()),
                ("report_type_ok", report_type_ok),
                ("group_echoed", group_echoed),
                ("checksum_ok", checksum_ok),
                ("report_clean", report_clean),
            ],
        }
    }
}

// ---------------------------------------------------------------------------
// NTP client/server
// ---------------------------------------------------------------------------

/// The NTP exercise: the first host's timeout policy decides whether to poll
/// the second host's server over UDP port 123.
pub struct NtpScenario {
    name: String,
    policy: NtpPolicyFactory,
    server: NtpServerFactory,
    peer: ntp::PeerVariables,
    transmit_timestamp: u64,
    expect_exchange: bool,
}

impl NtpScenario {
    /// An NTP scenario expecting a full request/reply exchange.
    pub fn new(
        name: &str,
        policy: NtpPolicyFactory,
        server: NtpServerFactory,
        peer: ntp::PeerVariables,
        transmit_timestamp: u64,
    ) -> NtpScenario {
        NtpScenario {
            name: name.to_string(),
            policy,
            server,
            peer,
            transmit_timestamp,
            expect_exchange: true,
        }
    }

    /// An NTP scenario expecting the client to stay quiet (the timeout
    /// procedure must not fire for `peer`).
    pub fn quiet(
        name: &str,
        policy: NtpPolicyFactory,
        server: NtpServerFactory,
        peer: ntp::PeerVariables,
    ) -> NtpScenario {
        NtpScenario {
            name: name.to_string(),
            policy,
            server,
            peer,
            transmit_timestamp: 0,
            expect_exchange: false,
        }
    }
}

struct NtpClientNode {
    client_addr: u32,
    server_addr: u32,
    policy: Box<dyn NtpTimeoutPolicy>,
    peer: ntp::PeerVariables,
    transmit_timestamp: u64,
}

impl Node for NtpClientNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if !self.policy.timeout_due(&self.peer) {
            ctx.note("ntp=timeout-not-due");
            return;
        }
        ctx.note("ntp=timeout-fired");
        ctx.send(request_packet(
            self.client_addr,
            self.server_addr,
            self.transmit_timestamp,
        ));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _packet: &PacketBuf) {
        ctx.note("ntp=reply-received");
    }
}

/// The NTP server side, shared with the chaos scenarios (the server is
/// stateless, so crash/restart needs no extra handling).
pub(crate) struct NtpServerNode {
    pub(crate) server_addr: u32,
    pub(crate) server: Box<dyn NtpServer>,
}

impl Node for NtpServerNode {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: &PacketBuf) {
        let Some(request) = udp::receive(packet, udp::NTP_PORT) else {
            ctx.deliver_local();
            return;
        };
        let Some(reply) = self.server.respond(&request.payload) else {
            ctx.note("ntp=server-silent");
            return;
        };
        ctx.send(reply_packet(
            self.server_addr,
            request.src_addr,
            request.src_port,
            &reply,
        ));
    }
}

impl Scenario for NtpScenario {
    fn name(&self) -> &str {
        &self.name
    }

    fn protocol(&self) -> &'static str {
        "ntp"
    }

    fn bind(&self, sim: &mut SimBuilder) -> Result<(), TopologyError> {
        let client = sim.topology().host_at(0)?;
        let server = sim.topology().host_at(1)?;
        let client_addr = sim.topology().addr_of(client);
        let server_addr = sim.topology().addr_of(server);
        bind_infrastructure_routers(sim, None);
        sim.bind(
            client,
            Box::new(NtpClientNode {
                client_addr,
                server_addr,
                policy: (self.policy)(),
                peer: self.peer,
                transmit_timestamp: self.transmit_timestamp,
            }),
        );
        sim.bind(
            server,
            Box::new(NtpServerNode {
                server_addr,
                server: (self.server)(),
            }),
        );
        Ok(())
    }

    fn assert(&self, trace: &EventTrace) -> ScenarioOutcome {
        let notes = trace.notes();
        let fired = notes.iter().any(|(_, t)| *t == "ntp=timeout-fired");
        let packets = trace.originated_packets();
        if !self.expect_exchange {
            return ScenarioOutcome {
                checks: vec![
                    ("timeout_quiet", !fired),
                    ("no_packets", packets.is_empty()),
                ],
            };
        }
        let forwarded = trace
            .events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::Forward(_)));
        let reply = packets.get(1).map(|bytes| {
            let ip = PacketBuf::from_bytes(bytes.clone());
            PacketBuf::from_bytes(ipv4::payload(&ip).to_vec())
        });
        let (reply_mode_ok, originate_echoed) = match &reply {
            Some(datagram) => {
                let msg = PacketBuf::from_bytes(udp::payload(datagram).to_vec());
                (
                    msg.get_field(ntp::FIELDS, "mode").ok() == Some(u64::from(ntp::mode::SERVER)),
                    msg.get_field(ntp::FIELDS, "originate_timestamp").ok()
                        == Some(self.transmit_timestamp),
                )
            }
            None => (false, false),
        };
        let udp_checksums_ok = packets.len() == 2 && {
            let check = |bytes: &[u8]| {
                let ip = PacketBuf::from_bytes(bytes.to_vec());
                let src = ip.get_field(ipv4::FIELDS, "source_address").unwrap_or(0) as u32;
                let dst = ip
                    .get_field(ipv4::FIELDS, "destination_address")
                    .unwrap_or(0) as u32;
                let datagram = PacketBuf::from_bytes(ipv4::payload(&ip).to_vec());
                udp::checksum_ok(src, dst, &datagram)
            };
            check(&packets[0]) && check(&packets[1])
        };
        let decoded_clean = notes.iter().any(|(_, t)| *t == "ntp=reply-received")
            && !packets.is_empty()
            && packets.iter().all(|bytes| decode_packet(bytes).clean());
        ScenarioOutcome {
            checks: vec![
                ("timeout_fired", fired),
                ("request_forwarded", forwarded),
                ("reply_sent", packets.len() >= 2),
                ("reply_mode_ok", reply_mode_ok),
                ("originate_echoed", originate_echoed),
                ("udp_checksums_ok", udp_checksums_ok),
                ("decoded_clean", decoded_clean),
            ],
        }
    }
}

// ---------------------------------------------------------------------------
// BFD bring-up
// ---------------------------------------------------------------------------

/// The BFD exercise: the first and last host run pluggable endpoints and
/// exchange control packets until both report Up (or the transmission
/// budget runs out).
pub struct BfdScenario {
    name: String,
    endpoint_a: BfdFactory,
    endpoint_b: BfdFactory,
    discr_a: (u32, u32),
    discr_b: (u32, u32),
    max_rounds: usize,
    expect_path: Vec<bfd::SessionState>,
}

impl BfdScenario {
    /// A BFD scenario with custom endpoint factories and discriminators.
    pub fn new(
        name: &str,
        endpoint_a: BfdFactory,
        endpoint_b: BfdFactory,
        discr_a: (u32, u32),
        discr_b: (u32, u32),
    ) -> BfdScenario {
        BfdScenario {
            name: name.to_string(),
            endpoint_a,
            endpoint_b,
            discr_a,
            discr_b,
            max_rounds: 4,
            expect_path: vec![
                bfd::SessionState::Down,
                bfd::SessionState::Init,
                bfd::SessionState::Up,
            ],
        }
    }
}

/// One BFD endpoint as an event handler.  Transmission is receive-driven:
/// the initiator transmits at start, and every endpoint transmits after a
/// reception unless both it and the received packet already report Up —
/// which yields the alternating a→b / b→a schedule of a bring-up
/// handshake.  A per-node transmission budget guarantees termination for
/// endpoints that never come up.
struct BfdEndpointNode {
    endpoint: Box<dyn BfdEndpoint>,
    local_addr: u32,
    peer_addr: u32,
    initiator: bool,
    budget: usize,
}

impl BfdEndpointNode {
    fn transmit(&mut self, ctx: &mut Ctx<'_>) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        let control = self.endpoint.control_packet();
        ctx.send(control_datagram(self.local_addr, self.peer_addr, &control));
    }
}

impl Node for BfdEndpointNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.initiator {
            self.transmit(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: &PacketBuf) {
        let Some(received) = udp::receive(packet, BFD_CONTROL_PORT) else {
            ctx.deliver_local();
            return;
        };
        let control = received.payload;
        self.endpoint.receive(&control);
        ctx.note(format!("bfd_state={:?}", self.endpoint.state()));
        let received_up = control.get_field(bfd::FIELDS, "state").unwrap_or(0)
            == u64::from(bfd::SessionState::Up.code());
        if !(self.endpoint.state() == bfd::SessionState::Up && received_up) {
            self.transmit(ctx);
        }
    }
}

impl Scenario for BfdScenario {
    fn name(&self) -> &str {
        &self.name
    }

    fn protocol(&self) -> &'static str {
        "bfd"
    }

    fn bind(&self, sim: &mut SimBuilder) -> Result<(), TopologyError> {
        let a = sim.topology().host_at(0)?;
        let b = sim.topology().last_host()?;
        let addr_a = sim.topology().addr_of(a);
        let addr_b = sim.topology().addr_of(b);
        bind_infrastructure_routers(sim, None);
        sim.bind(
            a,
            Box::new(BfdEndpointNode {
                endpoint: (self.endpoint_a)(self.discr_a.0, self.discr_a.1),
                local_addr: addr_a,
                peer_addr: addr_b,
                initiator: true,
                budget: self.max_rounds,
            }),
        );
        sim.bind(
            b,
            Box::new(BfdEndpointNode {
                endpoint: (self.endpoint_b)(self.discr_b.0, self.discr_b.1),
                local_addr: addr_b,
                peer_addr: addr_a,
                initiator: false,
                budget: self.max_rounds,
            }),
        );
        Ok(())
    }

    fn assert(&self, trace: &EventTrace) -> ScenarioOutcome {
        // Endpoint a is the node that originated the first packet; its
        // per-receive state notes and the peer's judge the handshake.
        let a_name = trace
            .events
            .iter()
            .find(|e| matches!(e.kind, TraceEventKind::Originate(_)))
            .map(|e| e.node_name.clone())
            .unwrap_or_default();
        let state_notes: Vec<(&str, &str)> = trace
            .notes()
            .into_iter()
            .filter(|(_, t)| t.starts_with("bfd_state="))
            .collect();
        let last_state = |name_matches: &dyn Fn(&str) -> bool| {
            state_notes
                .iter()
                .rev()
                .find(|(n, _)| name_matches(n))
                .map(|(_, t)| t.trim_start_matches("bfd_state=").to_string())
        };
        let a_up = last_state(&|n: &str| n == a_name).as_deref() == Some("Up");
        let b_up = last_state(&|n: &str| n != a_name).as_deref() == Some("Up");
        let mut b_path = vec![format!("{:?}", bfd::SessionState::Down)];
        for (n, t) in &state_notes {
            if *n != a_name {
                let s = t.trim_start_matches("bfd_state=").to_string();
                if b_path.last() != Some(&s) {
                    b_path.push(s);
                }
            }
        }
        let expected: Vec<String> = self.expect_path.iter().map(|s| format!("{s:?}")).collect();
        let packets = trace.originated_packets();
        ScenarioOutcome {
            checks: vec![
                ("came_up", a_up && b_up),
                ("handshake_path", b_path == expected),
                (
                    "decoded_clean",
                    !packets.is_empty() && packets.iter().all(|bytes| decode_packet(bytes).clean()),
                ),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_scenarios_pass_on_their_preferred_topology() {
        for scenario in reference_scenarios().scenarios() {
            let run = run_scenario(scenario.as_ref()).unwrap();
            assert!(
                run.ok(),
                "{}/{} failed {:?}\n{}",
                run.scenario,
                run.topology,
                run.outcome.failures(),
                run.trace.render()
            );
        }
    }

    #[test]
    fn reference_scenarios_pass_on_every_library_topology() {
        let registry = reference_scenarios();
        for topo in Topology::library() {
            for scenario in registry.scenarios() {
                let run = run_scenario_on(scenario.as_ref(), topo.clone()).unwrap();
                assert!(
                    run.ok(),
                    "{}/{} failed {:?}\n{}",
                    run.scenario,
                    run.topology,
                    run.outcome.failures(),
                    run.trace.render()
                );
            }
        }
    }

    #[test]
    fn registry_finds_scenarios_by_name() {
        let registry = reference_scenarios();
        assert_eq!(registry.len(), 4);
        assert!(registry.find("bfd/reference").is_some());
        assert!(registry.find("nope").is_none());
    }

    #[test]
    fn misconfigured_topology_fails_with_a_diagnostic() {
        // One host, no routers: NTP needs two hosts, ping needs a router.
        let mut topo = Topology::named("tiny");
        topo.host("only", ipv4::addr(10, 0, 1, 1), 24);
        let registry = reference_scenarios();
        let ntp = registry.find("ntp/reference").unwrap();
        let err = run_scenario_on(ntp.as_ref(), topo.clone()).unwrap_err();
        assert_eq!(
            err,
            TopologyError::NotEnoughHosts {
                needed: 2,
                available: 1
            }
        );
        let ping = registry.find("ping/reference").unwrap();
        let err = run_scenario_on(ping.as_ref(), topo).unwrap_err();
        assert!(
            matches!(err, TopologyError::NotEnoughRouters { .. }),
            "{err}"
        );
    }

    #[test]
    fn quiet_ntp_scenario_stays_quiet() {
        let scenario = NtpScenario::quiet(
            "ntp/quiet",
            Arc::new(|| Box::new(ReferenceTimeoutPolicy)),
            Arc::new(|| {
                Box::new(ReferenceNtpServer {
                    stratum: 2,
                    clock: 1,
                })
            }),
            ntp::PeerVariables {
                timer: 10,
                threshold: 64,
                mode: ntp::mode::CLIENT,
            },
        );
        let run = run_scenario(&scenario).unwrap();
        assert!(run.ok(), "{:?}", run.outcome);
        assert_eq!(run.originated(), 0);
    }

    #[test]
    fn silent_igmp_host_is_reported() {
        struct Mute;
        impl IgmpResponder for Mute {
            fn respond(&mut self, _query: &PacketBuf) -> Option<PacketBuf> {
                None
            }
        }
        let scenario = IgmpScenario::new("igmp/silent", SESSION_GROUP, Arc::new(|| Box::new(Mute)));
        let run = run_scenario(&scenario).unwrap();
        assert!(run.outcome.failures().contains(&"report_sent"));
        assert!(run.outcome.checks.contains(&("query_clean", true)));
        assert_eq!(run.originated(), 1, "only the query goes out");
        assert!(run.trace.notes().iter().any(|(_, t)| *t == "igmp=silent"));
    }

    #[test]
    fn admin_down_bfd_endpoint_never_comes_up() {
        let admin_down: BfdFactory = Arc::new(|local, remote| {
            let mut endpoint = ReferenceBfdEndpoint::new(local, remote);
            endpoint.session.session_state = bfd::SessionState::AdminDown;
            Box::new(endpoint)
        });
        let reference = Responders::reference().bfd.unwrap();
        let scenario = BfdScenario::new("bfd/admin-down", admin_down, reference, (7, 9), (9, 7));
        let run = run_scenario(&scenario).unwrap();
        assert!(
            run.outcome.failures().contains(&"came_up"),
            "{:?}\n{}",
            run.outcome,
            run.trace.render()
        );
        assert!(run.trace.notes().iter().all(|(_, t)| *t != "bfd_state=Up"));
    }

    #[test]
    fn misconfigured_bfd_discriminator_still_comes_up() {
        let factory = Responders::reference().bfd.unwrap();
        let mut scenario = BfdScenario::new(
            "bfd/misconfigured",
            factory.clone(),
            factory,
            (7, 999),
            (9, 7),
        );
        scenario.expect_path = vec![bfd::SessionState::Down, bfd::SessionState::Up];
        let run = run_scenario(&scenario).unwrap();
        assert!(run.ok(), "{:?}\n{}", run.outcome, run.trace.render());
        assert_eq!(run.originated(), 4);
    }
}
