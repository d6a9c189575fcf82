//! Chaos-recovery scenarios: long-running drivers that keep each protocol
//! exchange alive past crashes, restarts and link flaps.
//!
//! The plain [`crate::scenario`] exercises are one-shot — a single ping, a
//! single query/report, one poll, one bring-up — so a fault that eats the
//! exchange leaves nothing to recover.  The chaos variants replace them
//! with *recovery state machines*:
//!
//! * **ICMP** — the client pings periodically until the horizon, so a lost
//!   request or a crashed router is retried on the next round.
//! * **IGMP** — the querier re-queries every interval and retransmits a
//!   round's query up to the robustness variable when no report came back
//!   (RFC 1112's robustness against lost reports).
//! * **NTP** — the client polls on a fixed cadence and retransmits with
//!   capped exponential backoff while a poll goes unanswered; every
//!   transmission is preceded by its Table 11 timeout note, so the safety
//!   checkers hold under chaos too.
//! * **BFD** — both endpoints transmit periodically (not receive-driven);
//!   a detection timeout of three transmit intervals drives the session
//!   Up→Down (RFC 5880 §6.8.1) and the fresh session re-runs
//!   Down→Init→Up automatically.
//!
//! Every driver stops arming timers at [`CHAOS_HORIZON_NS`], which bounds
//! the run, and implements [`Node::on_restart`] so a kernel restart boots
//! a clean state machine.  Recovery evidence is emitted as trace notes
//! (`ping=ok`, `igmp=report-received`, `ntp=synchronized`, `bfd_state=Up`)
//! that [`crate::fuzz::check_liveness`] and
//! [`crate::fuzz::recovery_time_ns`] consume.

use crate::buffer::PacketBuf;
use crate::headers::{bfd, ipv4, ntp, udp};
use crate::scenario::{
    bind_infrastructure_routers, BfdFactory, IcmpFactory, IgmpFactory, IgmpHostNode,
    NtpPolicyFactory, NtpServerFactory, NtpServerNode, Responders, Scenario, ScenarioOutcome,
    ScenarioRegistry, DUE_PEER,
};
use crate::sim::{Ctx, EventTrace, Node, RouterNode, SimBuilder, TopologyError};
use crate::tools::bfd_session::{control_datagram, BfdEndpoint, BFD_CONTROL_PORT};
use crate::tools::igmp::{query_packet, SESSION_GROUP};
use crate::tools::ntp_exchange::request_packet;
use crate::tools::ping::{echo_request, validate_reply, PingOutcome, ECHO_PAYLOAD};
use std::sync::Arc;

/// The virtual time chaos drivers stop arming timers at.  Fault schedules
/// draw their last fault well before this (the default
/// [`crate::fuzz::ChaosPlan`] window plus downtime tops out at 2.5s), so
/// every driver has several retry rounds of fault-free tail to recover in.
pub const CHAOS_HORIZON_NS: u64 = 6_000_000_000;

/// The recovery bound the chaos campaign checks liveness against: every
/// protocol must show recovery evidence within this much virtual time of
/// the last fault clearing.  The slowest driver is the NTP client (1s
/// poll cadence plus capped backoff); 3s covers it with margin while
/// staying inside the horizon tail.
pub const CHAOS_RECOVERY_BOUND_NS: u64 = 3_000_000_000;

/// Arm `token` after `delay_ns` unless that would land past the horizon.
fn arm(ctx: &mut Ctx<'_>, delay_ns: u64, token: u64) {
    if ctx.now().0.saturating_add(delay_ns) < CHAOS_HORIZON_NS {
        ctx.set_timer(delay_ns, token);
    }
}

// ---------------------------------------------------------------------------
// ICMP: periodic ping
// ---------------------------------------------------------------------------

/// The chaos ping exercise: the first host pings the first router every
/// [`ChaosPingScenario::INTERVAL_NS`] until the horizon.
pub struct ChaosPingScenario {
    name: String,
    responder: IcmpFactory,
}

impl ChaosPingScenario {
    /// The ping cadence.
    pub const INTERVAL_NS: u64 = 500_000_000;

    /// A chaos ping scenario with a custom router responder.
    pub fn new(name: &str, responder: IcmpFactory) -> ChaosPingScenario {
        ChaosPingScenario {
            name: name.to_string(),
            responder,
        }
    }
}

const CHAOS_PING_IDENT: u16 = 0x77;

struct ChaosPingClient {
    src: u32,
    dst: u32,
    round: u64,
}

impl ChaosPingClient {
    fn ping(&mut self, ctx: &mut Ctx<'_>) {
        self.round += 1;
        ctx.send(echo_request(
            self.src,
            self.dst,
            CHAOS_PING_IDENT,
            self.round as u16,
            ECHO_PAYLOAD,
        ));
        arm(ctx, ChaosPingScenario::INTERVAL_NS, self.round);
    }
}

impl Node for ChaosPingClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.ping(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.ping(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == self.round {
            self.ping(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: &PacketBuf) {
        match validate_reply(
            packet,
            self.src,
            CHAOS_PING_IDENT,
            self.round as u16,
            ECHO_PAYLOAD,
        ) {
            PingOutcome::Reply { .. } => ctx.note("ping=ok"),
            _ => ctx.note("ping=stale"),
        }
    }
}

impl Scenario for ChaosPingScenario {
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
        sim.bind(client, Box::new(ChaosPingClient { src, dst, round: 0 }));
        Ok(())
    }

    fn assert(&self, trace: &EventTrace) -> ScenarioOutcome {
        let ok = trace.notes().iter().any(|(_, t)| *t == "ping=ok");
        ScenarioOutcome {
            checks: vec![("ping_recovers", ok)],
        }
    }
}

// ---------------------------------------------------------------------------
// IGMP: re-query with robustness retransmission
// ---------------------------------------------------------------------------

/// The chaos IGMP exercise: the querier re-queries every interval and
/// retransmits unanswered rounds up to the robustness variable.
pub struct ChaosIgmpScenario {
    name: String,
    group: u32,
    responder: IgmpFactory,
}

impl ChaosIgmpScenario {
    /// The general-query cadence.
    pub const QUERY_INTERVAL_NS: u64 = 500_000_000;
    /// The retransmission spacing within an unanswered round.
    pub const RETRY_INTERVAL_NS: u64 = 150_000_000;
    /// RFC 1112 robustness variable: extra query transmissions per round.
    pub const ROBUSTNESS: u32 = 2;

    /// A chaos IGMP scenario for `group` with a custom host responder.
    pub fn new(name: &str, group: u32, responder: IgmpFactory) -> ChaosIgmpScenario {
        ChaosIgmpScenario {
            name: name.to_string(),
            group,
            responder,
        }
    }
}

struct ChaosIgmpQuerier {
    router_addr: u32,
    round: u64,
    retries: u32,
    answered: bool,
    /// True while resting between rounds (the next fire opens a round).
    gap: bool,
}

impl ChaosIgmpQuerier {
    fn query(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(query_packet(self.router_addr));
    }

    fn new_round(&mut self, ctx: &mut Ctx<'_>) {
        self.round += 1;
        self.retries = 0;
        self.answered = false;
        self.gap = false;
        self.query(ctx);
        arm(ctx, ChaosIgmpScenario::RETRY_INTERVAL_NS, self.round);
    }
}

impl Node for ChaosIgmpQuerier {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.new_round(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.new_round(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != self.round {
            return;
        }
        if self.gap {
            // The inter-round rest ended: open the round with its query.
            self.gap = false;
            self.query(ctx);
            arm(ctx, ChaosIgmpScenario::RETRY_INTERVAL_NS, self.round);
        } else if !self.answered && self.retries < ChaosIgmpScenario::ROBUSTNESS {
            // The round's report is missing: retransmit the query.
            self.retries += 1;
            self.query(ctx);
            arm(ctx, ChaosIgmpScenario::RETRY_INTERVAL_NS, self.round);
        } else {
            // Round over (answered, or robustness exhausted): rest until
            // the next general query.
            self.round += 1;
            self.retries = 0;
            self.answered = false;
            self.gap = true;
            arm(ctx, ChaosIgmpScenario::QUERY_INTERVAL_NS, self.round);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: &PacketBuf) {
        let proto = packet.get_field(ipv4::FIELDS, "protocol").unwrap_or(0) as u8;
        if proto == ipv4::PROTO_IGMP {
            self.answered = true;
            ctx.note("igmp=report-received");
        }
        ctx.deliver_local();
    }
}

impl Scenario for ChaosIgmpScenario {
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
        sim.bind(
            querier,
            Box::new(ChaosIgmpQuerier {
                router_addr,
                round: 0,
                retries: 0,
                answered: false,
                gap: false,
            }),
        );
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
        let ok = trace
            .notes()
            .iter()
            .any(|(_, t)| *t == "igmp=report-received");
        ScenarioOutcome {
            checks: vec![("report_received", ok)],
        }
    }
}

// ---------------------------------------------------------------------------
// NTP: polling with capped exponential backoff
// ---------------------------------------------------------------------------

/// The chaos NTP exercise: the client polls every
/// [`ChaosNtpScenario::POLL_INTERVAL_NS`] and retransmits unanswered
/// polls with capped exponential backoff.
pub struct ChaosNtpScenario {
    name: String,
    policy: NtpPolicyFactory,
    server: NtpServerFactory,
    peer: ntp::PeerVariables,
}

impl ChaosNtpScenario {
    /// The poll cadence.
    pub const POLL_INTERVAL_NS: u64 = 1_000_000_000;
    /// The initial retransmission backoff.
    pub const BACKOFF_BASE_NS: u64 = 250_000_000;
    /// The backoff cap.
    pub const BACKOFF_CAP_NS: u64 = 1_000_000_000;

    /// A chaos NTP scenario with custom policy/server factories.
    pub fn new(
        name: &str,
        policy: NtpPolicyFactory,
        server: NtpServerFactory,
        peer: ntp::PeerVariables,
    ) -> ChaosNtpScenario {
        ChaosNtpScenario {
            name: name.to_string(),
            policy,
            server,
            peer,
        }
    }
}

struct ChaosNtpClient {
    client_addr: u32,
    server_addr: u32,
    policy: Box<dyn crate::tools::NtpTimeoutPolicy>,
    peer: ntp::PeerVariables,
    round: u64,
    backoff_ns: u64,
    synchronized: bool,
}

impl ChaosNtpClient {
    /// Send one poll for the current round.  The Table 11 timeout note
    /// precedes *every* transmission in the same handler call, which keeps
    /// the `ntp_no_spurious_retransmit` safety property an invariant of
    /// construction.
    fn transmit(&mut self, ctx: &mut Ctx<'_>) {
        if !self.policy.timeout_due(&self.peer) {
            ctx.note("ntp=timeout-not-due");
            return;
        }
        ctx.note("ntp=timeout-fired");
        ctx.send(request_packet(
            self.client_addr,
            self.server_addr,
            self.round,
        ));
        arm(ctx, self.backoff_ns, self.round);
        self.backoff_ns = (self.backoff_ns * 2).min(ChaosNtpScenario::BACKOFF_CAP_NS);
    }

    fn new_poll(&mut self, ctx: &mut Ctx<'_>) {
        self.round += 1;
        self.backoff_ns = ChaosNtpScenario::BACKOFF_BASE_NS;
        self.synchronized = false;
        self.transmit(ctx);
    }
}

impl Node for ChaosNtpClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.new_poll(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.new_poll(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == self.round {
            if self.synchronized {
                // The answered round is over: begin the next poll.
                self.new_poll(ctx);
            } else {
                // Unanswered: retransmit with the backed-off delay.
                self.transmit(ctx);
            }
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _packet: &PacketBuf) {
        ctx.note("ntp=reply-received");
        if !self.synchronized {
            self.synchronized = true;
            ctx.note("ntp=synchronized");
            // Bump the round so any pending retransmit timer goes stale,
            // then rest until the next poll.
            self.round += 1;
            arm(ctx, ChaosNtpScenario::POLL_INTERVAL_NS, self.round);
        }
    }
}

impl Scenario for ChaosNtpScenario {
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
            Box::new(ChaosNtpClient {
                client_addr,
                server_addr,
                policy: (self.policy)(),
                peer: self.peer,
                round: 0,
                backoff_ns: ChaosNtpScenario::BACKOFF_BASE_NS,
                synchronized: false,
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
        let ok = trace.notes().iter().any(|(_, t)| *t == "ntp=synchronized");
        ScenarioOutcome {
            checks: vec![("resynchronizes", ok)],
        }
    }
}

// ---------------------------------------------------------------------------
// BFD: periodic transmission with detection timeout
// ---------------------------------------------------------------------------

/// The chaos BFD exercise: both endpoints transmit periodically; a
/// detection timeout drives the session Down and the fresh session
/// re-runs the bring-up handshake.
pub struct ChaosBfdScenario {
    name: String,
    endpoint_a: BfdFactory,
    endpoint_b: BfdFactory,
    discr_a: (u32, u32),
    discr_b: (u32, u32),
}

impl ChaosBfdScenario {
    /// The control-packet transmit interval.
    pub const TX_INTERVAL_NS: u64 = 200_000_000;
    /// RFC 5880 §6.8.4 detection time: three transmit intervals without a
    /// received packet declares the session down.
    pub const DETECT_NS: u64 = 3 * ChaosBfdScenario::TX_INTERVAL_NS;

    /// A chaos BFD scenario with custom endpoint factories.
    pub fn new(
        name: &str,
        endpoint_a: BfdFactory,
        endpoint_b: BfdFactory,
        discr_a: (u32, u32),
        discr_b: (u32, u32),
    ) -> ChaosBfdScenario {
        ChaosBfdScenario {
            name: name.to_string(),
            endpoint_a,
            endpoint_b,
            discr_a,
            discr_b,
        }
    }
}

/// One chaos BFD endpoint in the RFC 5880 active/passive discipline: the
/// *active* system transmits periodically, the *passive* system only ever
/// responds to received packets.  The asymmetry matters — the corpus's
/// transition rules have no Init+Init→Up, so a symmetric simultaneous
/// bring-up would deadlock both sessions in Init, exactly the race the
/// RFC's roles exist to prevent.
///
/// The session object has no reset hook, so detection timeout, a peer's
/// Down report while Up, and node restart all *replace* it through the
/// stored factory — a fresh session boots in Down, like a real
/// implementation tearing down session state.
struct ChaosBfdEndpoint {
    factory: BfdFactory,
    discr: (u32, u32),
    endpoint: Box<dyn BfdEndpoint>,
    local_addr: u32,
    peer_addr: u32,
    active: bool,
    last_rx: u64,
    ticks: u64,
}

impl ChaosBfdEndpoint {
    fn transmit(&mut self, ctx: &mut Ctx<'_>) {
        let control = self.endpoint.control_packet();
        ctx.send(control_datagram(self.local_addr, self.peer_addr, &control));
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        self.ticks += 1;
        arm(ctx, ChaosBfdScenario::TX_INTERVAL_NS, self.ticks);
    }

    fn boot(&mut self, ctx: &mut Ctx<'_>) {
        self.endpoint = (self.factory)(self.discr.0, self.discr.1);
        self.last_rx = ctx.now().0;
        if self.active {
            self.transmit(ctx);
        }
        self.tick(ctx);
    }

    fn reset_session(&mut self, ctx: &mut Ctx<'_>) {
        self.endpoint = (self.factory)(self.discr.0, self.discr.1);
        ctx.note(format!("bfd_state={:?}", self.endpoint.state()));
    }
}

impl Node for ChaosBfdEndpoint {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.boot(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.boot(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != self.ticks {
            return;
        }
        let silent_ns = ctx.now().0.saturating_sub(self.last_rx);
        if silent_ns >= ChaosBfdScenario::DETECT_NS
            && self.endpoint.state() != bfd::SessionState::Down
        {
            ctx.note("bfd=detection-timeout");
            self.reset_session(ctx);
        }
        if self.active {
            self.transmit(ctx);
        }
        self.tick(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: &PacketBuf) {
        let Some(received) = udp::receive(packet, BFD_CONTROL_PORT) else {
            ctx.deliver_local();
            return;
        };
        let control = received.payload;
        self.endpoint.receive(&control);
        self.last_rx = ctx.now().0;
        let received_down = control.get_field(bfd::FIELDS, "state").unwrap_or(u64::MAX)
            == u64::from(bfd::SessionState::Down.code());
        if received_down && self.endpoint.state() == bfd::SessionState::Up {
            // RFC 5880 §6.8.6: a peer reporting Down takes an Up session
            // Down (the corpus's rule subset elides this one, so the
            // wrapper supplies it by tearing the session down).
            self.reset_session(ctx);
        } else {
            ctx.note(format!("bfd_state={:?}", self.endpoint.state()));
        }
        if !self.active {
            self.transmit(ctx);
        }
    }
}

impl Scenario for ChaosBfdScenario {
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
            Box::new(ChaosBfdEndpoint {
                factory: self.endpoint_a.clone(),
                discr: self.discr_a,
                endpoint: (self.endpoint_a)(self.discr_a.0, self.discr_a.1),
                local_addr: addr_a,
                peer_addr: addr_b,
                active: true,
                last_rx: 0,
                ticks: 0,
            }),
        );
        sim.bind(
            b,
            Box::new(ChaosBfdEndpoint {
                factory: self.endpoint_b.clone(),
                discr: self.discr_b,
                endpoint: (self.endpoint_b)(self.discr_b.0, self.discr_b.1),
                local_addr: addr_b,
                peer_addr: addr_a,
                active: false,
                last_rx: 0,
                ticks: 0,
            }),
        );
        Ok(())
    }

    fn assert(&self, trace: &EventTrace) -> ScenarioOutcome {
        // Both endpoints must end the run in Up.
        let mut last: std::collections::BTreeMap<&str, &str> = std::collections::BTreeMap::new();
        for (node, text) in trace.notes() {
            if text.starts_with("bfd_state=") {
                last.insert(node, text);
            }
        }
        let both_up = last.len() == 2 && last.values().all(|t| *t == "bfd_state=Up");
        ScenarioOutcome {
            checks: vec![("both_up", both_up)],
        }
    }
}

/// The chaos-recovery session of every role `responders` fills, named
/// `<prefix>/<label>` — the recovery counterpart of
/// [`Responders::scenarios`], with the same roles and parameters.
pub fn chaos_scenarios(responders: &Responders, label: &str) -> ScenarioRegistry {
    let mut reg = ScenarioRegistry::new();
    if let Some(responder) = &responders.icmp {
        let name = format!("ping/{label}");
        reg.register(Arc::new(ChaosPingScenario::new(&name, responder.clone())));
    }
    if let Some(host) = &responders.igmp {
        let name = format!("igmp/{label}");
        reg.register(Arc::new(ChaosIgmpScenario::new(
            &name,
            SESSION_GROUP,
            host.clone(),
        )));
    }
    if let Some((policy, server)) = &responders.ntp {
        let name = format!("ntp/{label}");
        reg.register(Arc::new(ChaosNtpScenario::new(
            &name,
            policy.clone(),
            server.clone(),
            DUE_PEER,
        )));
    }
    if let Some(endpoint) = &responders.bfd {
        let name = format!("bfd/{label}");
        reg.register(Arc::new(ChaosBfdScenario::new(
            &name,
            endpoint.clone(),
            endpoint.clone(),
            (7, 9),
            (9, 7),
        )));
    }
    reg
}

/// The reference chaos scenario for `protocol`, named `<prefix>/chaos`.
pub fn chaos_reference_scenario(protocol: &str) -> Arc<dyn Scenario> {
    chaos_scenarios(&Responders::reference(), "chaos")
        .scenarios()
        .iter()
        .find(|s| s.protocol() == protocol)
        .cloned()
        .unwrap_or_else(|| panic!("no chaos scenario for protocol {protocol:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::{
        check_liveness, check_properties, recovery_time_ns, FaultSchedule, FuzzedScenario,
        LifecycleEntry,
    };
    use crate::scenario::run_scenario_on;
    use crate::sim::{SimTime, Topology};

    #[test]
    fn chaos_scenarios_converge_without_faults() {
        for scenario in chaos_scenarios(&Responders::reference(), "chaos").scenarios() {
            let run = run_scenario_on(scenario.as_ref(), Topology::appendix_a()).unwrap();
            assert!(
                run.ok(),
                "{} failed {:?}\n{}",
                run.scenario,
                run.outcome.failures(),
                run.trace.render()
            );
            assert!(
                check_properties(run.protocol.as_str(), &run.trace).is_empty(),
                "{} violates safety on the happy path",
                run.scenario
            );
        }
    }

    #[test]
    fn chaos_scenarios_recover_from_a_crash_and_a_flap() {
        // Crash node 1 at 600ms, restart at 900ms; flap link 0 down for
        // 300ms at 1.2s.  Every protocol must re-converge afterwards.
        let schedule = FaultSchedule {
            seed: 0,
            entries: vec![],
            lifecycle: vec![
                LifecycleEntry::Crash {
                    node: 1,
                    at_ns: 600_000_000,
                },
                LifecycleEntry::Restart {
                    node: 1,
                    at_ns: 900_000_000,
                },
                LifecycleEntry::Flap {
                    link: 0,
                    at_ns: 1_200_000_000,
                    down_ns: 300_000_000,
                },
            ],
        };
        assert!(schedule.is_recoverable());
        let recover_after = SimTime(schedule.last_fault_ns());
        for scenario in chaos_scenarios(&Responders::reference(), "chaos").scenarios() {
            let fuzzed = FuzzedScenario::new(scenario.clone(), schedule.clone());
            let run = run_scenario_on(&fuzzed, Topology::appendix_a()).unwrap();
            assert!(
                run.ok(),
                "{} violates safety under chaos: {:?}\n{}",
                run.scenario,
                run.outcome.failures(),
                run.trace.render()
            );
            let violations = check_liveness(
                scenario.protocol(),
                &run.trace,
                recover_after,
                CHAOS_RECOVERY_BOUND_NS,
            );
            assert!(
                violations.is_empty(),
                "{} fails liveness: {violations:?}\n{}",
                run.scenario,
                run.trace.render()
            );
            let recovery = recovery_time_ns(scenario.protocol(), &run.trace, recover_after)
                .expect("recovered");
            assert!(recovery <= CHAOS_RECOVERY_BOUND_NS);
        }
    }

    #[test]
    fn bfd_detection_timeout_drives_down_then_recovers() {
        // A long flap on the a-b path: the endpoints stop hearing each
        // other, detect the failure, drop to Down, and re-converge once
        // the link returns.
        let schedule = FaultSchedule {
            seed: 0,
            entries: vec![],
            lifecycle: vec![LifecycleEntry::Flap {
                link: 0,
                at_ns: 500_000_000,
                down_ns: 1_000_000_000,
            }],
        };
        let scenario = chaos_reference_scenario("bfd");
        let fuzzed = FuzzedScenario::new(scenario, schedule.clone());
        let run = run_scenario_on(&fuzzed, Topology::line(2)).unwrap();
        let rendered = run.trace.render();
        assert!(
            rendered.contains("bfd=detection-timeout"),
            "detection timeout fires during the outage:\n{rendered}"
        );
        assert!(
            check_liveness(
                "bfd",
                &run.trace,
                SimTime(schedule.last_fault_ns()),
                CHAOS_RECOVERY_BOUND_NS
            )
            .is_empty(),
            "session returns to Up:\n{rendered}"
        );
        assert!(run.ok(), "safety holds: {:?}", run.outcome.failures());
    }
}
