//! Session-scale soak machinery: thousands of concurrent client/server
//! pairs per protocol on one topology, pushing millions of packets
//! through pluggable responders under bounded queues, backpressure and
//! watchdogs.
//!
//! The layout is deliberately demultiplex-free: every session is its own
//! client/server host pair joined by a private link
//! ([`soak_pair_topology`]), so no node ever has to dispatch traffic
//! between sessions and the kernel's per-node ingress bounds and
//! backpressure signal map one-to-one onto sessions.  The server side of
//! every pair is a [`SoakResponder`] — a full-datagram-in /
//! full-datagram-out service with a typed error channel — that
//! [`soak_service`] builds over the role a [`Responders`] bundle fills,
//! so the hand-written references and the SAGE-generated engines plug in
//! through the same seam as the scenarios.  Error containment (panic
//! catching, error budgets, quarantine) wraps this trait one level up, in
//! `sage-interp`.

use crate::buffer::{FieldView, PacketBuf};
use crate::headers::{bfd, icmp, ipv4, udp};
use crate::net::{IcmpEvent, IcmpResponder};
use crate::scenario::Responders;
use crate::sim::{Ctx, Node, NodeId, Topology};
use crate::tools::bfd_session::{control_datagram, BfdEndpoint, BFD_CONTROL_PORT};
use crate::tools::igmp::{query_packet, report_packet, IgmpResponder, SESSION_GROUP};
use crate::tools::ntp_exchange::{reply_packet, request_packet, NtpServer};
use crate::tools::ping::{echo_request, ECHO_PAYLOAD};

/// The timer token soak clients schedule their rounds with.
const SOAK_ROUND_TOKEN: u64 = 0x50AC;

/// The BFD discriminators of soak session `session`: the client's local
/// discriminator, then the server's.
fn soak_discriminators(session: u32) -> (u32, u32) {
    (session * 2 + 1, session * 2 + 2)
}

/// The protocol a soak session speaks; one of the four generated corpora.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoakProtocol {
    /// ICMP echo request/reply rounds.
    Icmp,
    /// IGMP membership query/report rounds.
    Igmp,
    /// NTP client poll / server reply rounds.
    Ntp,
    /// BFD control-packet rounds (Down → Init → Up, then steady Up).
    Bfd,
}

impl SoakProtocol {
    /// All four protocols, in campaign grid order.
    pub fn all() -> [SoakProtocol; 4] {
        [
            SoakProtocol::Icmp,
            SoakProtocol::Igmp,
            SoakProtocol::Ntp,
            SoakProtocol::Bfd,
        ]
    }

    /// The protocol's lowercase name (matches the fuzz/chaos grids).
    pub fn name(&self) -> &'static str {
        match self {
            SoakProtocol::Icmp => "icmp",
            SoakProtocol::Igmp => "igmp",
            SoakProtocol::Ntp => "ntp",
            SoakProtocol::Bfd => "bfd",
        }
    }
}

/// A topology of `sessions` disconnected client/server host pairs, each
/// joined by a private link of `delay_ns` (and optionally a bandwidth
/// cap).  Client `i` is node `2i` ("c&lt;i&gt;"), server `i` is node `2i + 1`
/// ("s&lt;i&gt;"), link `i` joins them — so campaigns can address sessions
/// without lookups.
pub fn soak_pair_topology(
    name: &str,
    sessions: usize,
    delay_ns: u64,
    bandwidth_bps: Option<u64>,
) -> Topology {
    let mut t = Topology::named(name);
    for i in 0..sessions {
        let hi = (i / 250) as u8;
        let lo = (i % 250 + 1) as u8;
        let client = t.host(&format!("c{i}"), ipv4::addr(10, 1, hi, lo), 24);
        let server = t.host(&format!("s{i}"), ipv4::addr(10, 2, hi, lo), 24);
        t.link_with(client, server, delay_ns, bandwidth_bps);
    }
    t
}

/// The server side of a soak session: a full IP datagram in, an optional
/// full IP datagram reply out, with errors surfaced as values (never
/// panics — containment above this trait turns both into budget hits).
pub trait SoakResponder {
    /// Serve one delivered datagram.
    fn respond(&mut self, packet: &PacketBuf) -> Result<Option<PacketBuf>, String>;

    /// Drain any notes the responder wants in the trace (the containment
    /// layer reports error-budget hits and quarantine swaps this way).
    fn drain_notes(&mut self) -> Vec<String> {
        Vec::new()
    }
}

/// The soak service of session `session`, answering from `server_addr`,
/// over the role `roles` fills for `protocol` (the server's BFD endpoint
/// takes the session's second discriminator as its own), or `None` when
/// the bundle leaves that role empty.  Every soak service is built here:
/// the references from [`Responders::reference`], generated code from a
/// registry's bundle.  An error the role reports through its `take_error`
/// while serving a packet comes back as `Err`, for containment to charge.
pub fn soak_service(
    roles: &Responders,
    protocol: SoakProtocol,
    session: u32,
    server_addr: u32,
) -> Option<Box<dyn SoakResponder>> {
    Some(match protocol {
        SoakProtocol::Icmp => Box::new(IcmpSoak(roles.icmp.as_ref()?())),
        SoakProtocol::Igmp => Box::new(IgmpSoak {
            host: roles.igmp.as_ref()?(),
            addr: server_addr,
        }),
        SoakProtocol::Ntp => Box::new(NtpSoak(roles.ntp.as_ref()?.1())),
        SoakProtocol::Bfd => {
            let (client_discr, server_discr) = soak_discriminators(session);
            Box::new(BfdSoak(roles.bfd.as_ref()?(server_discr, client_discr)))
        }
    })
}

/// An [`IcmpResponder`] serving echo requests: unwraps the IP datagram and
/// re-wraps the bare ICMP reply with the request's addresses swapped.
struct IcmpSoak(Box<dyn IcmpResponder>);

impl SoakResponder for IcmpSoak {
    fn respond(&mut self, packet: &PacketBuf) -> Result<Option<PacketBuf>, String> {
        if packet.get_bits(ipv4::PROTOCOL).unwrap_or(0) as u8 != ipv4::PROTO_ICMP {
            return Ok(None);
        }
        let msg = FieldView::new(ipv4::payload(packet));
        if msg.get_bits(icmp::TYPE).unwrap_or(0) != u64::from(icmp::msg_type::ECHO) {
            return Ok(None);
        }
        let src = ipv4::source_address(packet);
        let dst = ipv4::destination_address(packet);
        let reply = self
            .0
            .respond(IcmpEvent::EchoRequest, packet)
            .map(|reply| ipv4::build_packet(dst, src, ipv4::PROTO_ICMP, 64, reply.as_bytes()));
        self.0.take_error().map_or(Ok(reply), Err)
    }
}

/// An [`IgmpResponder`] answering membership queries with a report from
/// `addr` to [`SESSION_GROUP`].
struct IgmpSoak {
    host: Box<dyn IgmpResponder>,
    addr: u32,
}

impl SoakResponder for IgmpSoak {
    fn respond(&mut self, packet: &PacketBuf) -> Result<Option<PacketBuf>, String> {
        if packet.get_bits(ipv4::PROTOCOL).unwrap_or(0) as u8 != ipv4::PROTO_IGMP {
            return Ok(None);
        }
        // `IgmpResponder::respond` takes a buffer: the one copy.
        let query = PacketBuf::from_bytes(ipv4::payload(packet).to_vec());
        let reply = self
            .host
            .respond(&query)
            .map(|msg| report_packet(self.addr, SESSION_GROUP, &msg));
        self.host.take_error().map_or(Ok(reply), Err)
    }
}

/// An [`NtpServer`] answering UDP port 123 requests, the reply re-wrapped
/// with the request's source port echoed.
struct NtpSoak(Box<dyn NtpServer>);

impl SoakResponder for NtpSoak {
    fn respond(&mut self, packet: &PacketBuf) -> Result<Option<PacketBuf>, String> {
        let Some(request) = udp::receive(packet, udp::NTP_PORT) else {
            return Ok(None);
        };
        let reply = self.0.respond(&request.payload).map(|reply| {
            reply_packet(request.dst_addr, request.src_addr, request.src_port, &reply)
        });
        self.0.take_error().map_or(Ok(reply), Err)
    }
}

/// A [`BfdEndpoint`] fed every received control packet, answering with
/// its current control packet.
struct BfdSoak(Box<dyn BfdEndpoint>);

impl SoakResponder for BfdSoak {
    fn respond(&mut self, packet: &PacketBuf) -> Result<Option<PacketBuf>, String> {
        let Some(received) = udp::receive(packet, BFD_CONTROL_PORT) else {
            return Ok(None);
        };
        self.0.receive(&received.payload);
        let reply = control_datagram(
            received.dst_addr,
            received.src_addr,
            &self.0.control_packet(),
        );
        self.0.take_error().map_or(Ok(Some(reply)), Err)
    }
}

/// The server node of one soak session: delegates every delivered packet
/// to its [`SoakResponder`] and relays the responder's notes (error
/// budgets, quarantine swaps) into the trace.
pub struct SoakServerNode {
    /// The session's service.
    pub service: Box<dyn SoakResponder>,
}

impl Node for SoakServerNode {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: &PacketBuf) {
        let outcome = self.service.respond(packet);
        for note in self.service.drain_notes() {
            ctx.note(note);
        }
        match outcome {
            Ok(Some(reply)) => ctx.send(reply),
            Ok(None) => ctx.deliver_local(),
            // An uncontained responder error: keep serving (the session
            // degrades to request-without-reply) but leave evidence.
            Err(e) => ctx.note(format!("responder-error uncontained {e}")),
        }
    }
}

/// The client node of one soak session: timer-driven rounds, each a burst
/// of requests towards the session's server, skipped (with a
/// `backpressure-skip` note) whenever the server's ingress queue is full
/// — the graceful-degradation half of the overload story.
pub struct SoakClientNode {
    session: u32,
    client_addr: u32,
    server_addr: u32,
    server: NodeId,
    protocol: SoakProtocol,
    rounds: u32,
    burst: u32,
    interval_ns: u64,
    start_offset_ns: u64,
    sent_rounds: u32,
    replies_received: u64,
}

impl SoakClientNode {
    /// A client for session `session` of `protocol`, sending `burst`
    /// requests every `interval_ns` for `rounds` rounds, starting after
    /// `start_offset_ns` (campaigns stagger sessions to spread load).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        session: u32,
        client_addr: u32,
        server_addr: u32,
        server: NodeId,
        protocol: SoakProtocol,
        rounds: u32,
        burst: u32,
        interval_ns: u64,
        start_offset_ns: u64,
    ) -> SoakClientNode {
        SoakClientNode {
            session,
            client_addr,
            server_addr,
            server,
            protocol,
            rounds,
            burst: burst.max(1),
            interval_ns,
            start_offset_ns,
            sent_rounds: 0,
            replies_received: 0,
        }
    }

    /// Replies this client has received so far.
    pub fn replies_received(&self) -> u64 {
        self.replies_received
    }

    /// Build the `index`-th request of round `round`: a full IP datagram
    /// addressed to the session's server.
    pub fn build_request(&self, round: u32, index: u32) -> PacketBuf {
        match self.protocol {
            SoakProtocol::Icmp => {
                let seq = (round.wrapping_mul(self.burst).wrapping_add(index)) as u16;
                echo_request(
                    self.client_addr,
                    self.server_addr,
                    self.session as u16,
                    seq,
                    ECHO_PAYLOAD,
                )
            }
            SoakProtocol::Igmp => query_packet(self.client_addr),
            SoakProtocol::Ntp => {
                let transmit = (u64::from(self.session) << 32) | u64::from(round);
                request_packet(self.client_addr, self.server_addr, transmit)
            }
            SoakProtocol::Bfd => {
                // Legal bring-up against a fresh peer: Down first, Init
                // next, steady Up from the third round on.
                let state = match round {
                    0 => bfd::SessionState::Down,
                    1 => bfd::SessionState::Init,
                    _ => bfd::SessionState::Up,
                };
                let (local, remote) = soak_discriminators(self.session);
                let control = bfd::build_control_packet(state, local, remote, 3, false);
                control_datagram(self.client_addr, self.server_addr, &control)
            }
        }
    }
}

impl Node for SoakClientNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.start_offset_ns.max(1), SOAK_ROUND_TOKEN);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if self.sent_rounds >= self.rounds {
            return;
        }
        if ctx.backpressure(self.server) >= 1.0 {
            // The server's ingress queue is full: degrade by skipping the
            // round instead of feeding packets the kernel would shed.
            ctx.note("backpressure-skip");
        } else {
            for index in 0..self.burst {
                ctx.send(self.build_request(self.sent_rounds, index));
            }
        }
        self.sent_rounds += 1;
        if self.sent_rounds < self.rounds {
            ctx.set_timer(self.interval_ns, SOAK_ROUND_TOKEN);
        }
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: &PacketBuf) {
        // Replies are counted, not re-traced: the kernel's Deliver event
        // and latency histogram already carry the per-packet record.
        self.replies_received += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimBuilder, TraceMode};

    fn run_pairs(protocol: SoakProtocol, sessions: usize, rounds: u32) -> crate::sim::EventTrace {
        let roles = Responders::reference();
        let topology = soak_pair_topology("soak_test", sessions, 1_000_000, None);
        let mut sim = SimBuilder::new(topology);
        sim.trace_mode(TraceMode::Summary).max_events(1_000_000);
        for i in 0..sessions {
            let client = NodeId(i * 2);
            let server = NodeId(i * 2 + 1);
            let client_addr = sim.topology().addr_of(client);
            let server_addr = sim.topology().addr_of(server);
            sim.bind(
                client,
                Box::new(SoakClientNode::new(
                    i as u32,
                    client_addr,
                    server_addr,
                    server,
                    protocol,
                    rounds,
                    1,
                    1_000_000,
                    (i as u64 + 1) * 10_000,
                )),
            );
            sim.bind(
                server,
                Box::new(SoakServerNode {
                    service: soak_service(&roles, protocol, i as u32, server_addr).unwrap(),
                }),
            );
        }
        sim.build().run()
    }

    #[test]
    fn every_protocol_completes_full_round_trips() {
        for protocol in SoakProtocol::all() {
            let trace = run_pairs(protocol, 4, 10);
            // 4 sessions x 10 rounds x (request + reply).
            assert_eq!(
                trace.summary.delivered,
                4 * 10 * 2,
                "{}: wrong delivery count",
                protocol.name()
            );
            assert_eq!(trace.summary.drops, 0, "{}: drops", protocol.name());
            assert!(trace.events.is_empty(), "summary mode retains no events");
        }
    }

    #[test]
    fn summary_mode_statistics_match_full_mode() {
        let summary = run_pairs(SoakProtocol::Icmp, 3, 8).summary;
        let roles = Responders::reference();
        let topology = soak_pair_topology("soak_test", 3, 1_000_000, None);
        let mut sim = SimBuilder::new(topology);
        sim.max_events(1_000_000);
        for i in 0..3usize {
            let client = NodeId(i * 2);
            let server = NodeId(i * 2 + 1);
            let client_addr = sim.topology().addr_of(client);
            let server_addr = sim.topology().addr_of(server);
            sim.bind(
                client,
                Box::new(SoakClientNode::new(
                    i as u32,
                    client_addr,
                    server_addr,
                    server,
                    SoakProtocol::Icmp,
                    8,
                    1,
                    1_000_000,
                    (i as u64 + 1) * 10_000,
                )),
            );
            sim.bind(
                server,
                Box::new(SoakServerNode {
                    service: soak_service(&roles, SoakProtocol::Icmp, i as u32, server_addr)
                        .unwrap(),
                }),
            );
        }
        let full = sim.build().run();
        assert!(!full.events.is_empty());
        assert_eq!(summary.delivered, full.summary.delivered);
        assert_eq!(
            summary.latency.percentile(0.50),
            full.summary.latency.percentile(0.50)
        );
        assert_eq!(
            summary.latency.percentile(0.99),
            full.summary.latency.percentile(0.99)
        );
        assert_eq!(summary.events_recorded, full.summary.events_recorded);
    }
}
