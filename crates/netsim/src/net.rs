//! The Appendix-A router's ICMP decisions.
//!
//! This is the substitute for the router of the Mininet-based framework the
//! paper uses for its end-to-end experiments (§6.2 and Appendix A).
//! [`Router::process`] is the one decision ladder: it owns every
//! ICMP-relevant decision (truncated header, multicast, unsupported
//! type-of-service, messages addressed to the router itself, TTL expiry,
//! same-subnet redirect, full outbound buffer, unknown destination) and
//! delegates the construction of the ICMP message to a pluggable
//! [`IcmpResponder`] — in the paper that role is played by the
//! SAGE-generated code; here it can be the generated-code interpreter, the
//! hand-written reference, or a deliberately faulty student model.  The
//! kernel's [`crate::sim::RouterNode`] runs it on every packet a router
//! receives; `ping`, `traceroute` and the §6.2 experiments call it
//! directly.

use crate::buffer::{FieldView, PacketBuf};
use crate::headers::{icmp, ipv4};
use crate::sim::{is_multicast, Topology};

/// A router interface: an address and the prefix length of its subnet.
#[derive(Debug, Clone)]
pub struct Interface {
    /// Interface address.
    pub addr: u32,
    /// Prefix length of the attached subnet.
    pub prefix_len: u8,
}

impl Interface {
    /// Create an interface.
    pub fn new(addr: u32, prefix_len: u8) -> Interface {
        Interface { addr, prefix_len }
    }

    /// True if `addr` is inside this interface's subnet.
    ///
    /// A prefix length of zero is the default route and matches everything;
    /// lengths beyond 32 are clamped to a host route.
    pub fn contains(&self, addr: u32) -> bool {
        let prefix = u32::from(self.prefix_len).min(32);
        if prefix == 0 {
            return true;
        }
        let shift = 32 - prefix;
        (self.addr >> shift) == (addr >> shift)
    }
}

/// The ICMP-triggering events the router recognises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcmpEvent {
    /// An echo request addressed to the router.
    EchoRequest,
    /// A timestamp request addressed to the router.
    TimestampRequest,
    /// An information request addressed to the router.
    InfoRequest,
    /// The destination network is unknown.
    DestinationUnreachable,
    /// The TTL reached zero in transit.
    TimeExceeded,
    /// An unsupported header value; the argument is the offending octet.
    ParameterProblem(u8),
    /// The outbound buffer is full.
    SourceQuench,
    /// A shorter route exists via the given gateway on the sender's subnet.
    Redirect(u32),
}

/// Something that can build ICMP messages in response to router events —
/// the role filled by SAGE-generated code.
pub trait IcmpResponder {
    /// Build the ICMP message (not IP-encapsulated) for `event`, given the
    /// full original IP datagram that triggered it.
    fn respond(&mut self, event: IcmpEvent, original: &PacketBuf) -> Option<PacketBuf>;

    /// The first execution error since the last call, if any, dropping
    /// the rest; soak containment charges it to the error budget.
    /// Hand-written roles never fail and keep the default.
    fn take_error(&mut self) -> Option<String> {
        None
    }
}

/// The hand-written reference responder, used as ground truth in tests and
/// as the "correct implementation" baseline in the Table 2/3 experiments.
#[derive(Debug, Default, Clone)]
pub struct ReferenceResponder;

impl IcmpResponder for ReferenceResponder {
    fn respond(&mut self, event: IcmpEvent, original: &PacketBuf) -> Option<PacketBuf> {
        let request = FieldView::new(ipv4::payload(original));
        let id_seq = || -> Option<(u16, u16)> {
            let id = request.get_bits(icmp::IDENTIFIER).ok()? as u16;
            let seq = request.get_bits(icmp::SEQUENCE_NUMBER).ok()? as u16;
            Some((id, seq))
        };
        match event {
            IcmpEvent::EchoRequest => {
                let (id, seq) = id_seq()?;
                let data = request.as_bytes().get(icmp::HEADER_LEN..).unwrap_or(&[]);
                Some(icmp::build_echo(true, id, seq, data))
            }
            IcmpEvent::TimestampRequest => {
                let (id, seq) = id_seq()?;
                let orig = request.get_bits(icmp::ORIGINATE_TIMESTAMP).unwrap_or(0) as u32;
                Some(icmp::build_timestamp(
                    true,
                    id,
                    seq,
                    orig,
                    orig + 1,
                    orig + 1,
                ))
            }
            IcmpEvent::InfoRequest => {
                let (id, seq) = id_seq()?;
                Some(icmp::build_info(true, id, seq))
            }
            IcmpEvent::DestinationUnreachable => Some(icmp::build_error(
                icmp::msg_type::DEST_UNREACHABLE,
                0,
                0,
                original.as_bytes(),
            )),
            IcmpEvent::TimeExceeded => Some(icmp::build_error(
                icmp::msg_type::TIME_EXCEEDED,
                0,
                0,
                original.as_bytes(),
            )),
            IcmpEvent::ParameterProblem(pointer) => Some(icmp::build_error(
                icmp::msg_type::PARAMETER_PROBLEM,
                0,
                u32::from(pointer) << 24,
                original.as_bytes(),
            )),
            IcmpEvent::SourceQuench => Some(icmp::build_error(
                icmp::msg_type::SOURCE_QUENCH,
                0,
                0,
                original.as_bytes(),
            )),
            IcmpEvent::Redirect(gateway) => Some(icmp::build_error(
                icmp::msg_type::REDIRECT,
                1,
                gateway,
                original.as_bytes(),
            )),
        }
    }
}

/// The only type-of-service value the router accepts (Appendix A uses 0).
pub const SUPPORTED_TOS: u8 = 0;

/// What the router did with a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterAction {
    /// Forwarded: the packet as it leaves the router, TTL decremented and
    /// header checksum refreshed.
    Forwarded(PacketBuf),
    /// Delivered locally (addressed to the router itself, or multicast)
    /// without a reply.
    DeliveredLocally,
    /// An ICMP reply was generated (the full IP packet is returned).
    IcmpReply(PacketBuf),
    /// The packet was dropped without a reply.
    Dropped(&'static str),
}

/// A router: the subnets it serves and the interfaces whose outbound
/// buffers are full (Appendix A of the paper).  It keeps no per-packet
/// state, so one router decides any number of packets alike.
#[derive(Debug, Clone)]
pub struct Router {
    /// Interfaces, one per attached subnet.
    pub interfaces: Vec<Interface>,
    /// Interface indices whose outbound buffers are full (source-quench
    /// scenario).
    pub full_buffers: Vec<usize>,
}

impl Router {
    /// The three-subnet router used throughout Appendix A: the router of
    /// [`Topology::appendix_a`].
    pub fn appendix_a() -> Router {
        let topology = Topology::appendix_a();
        topology.router_config(topology.router_at(0).expect("Appendix A has a router"))
    }

    /// True if the router owns `addr` on one of its interfaces.
    fn owns(&self, addr: u32) -> bool {
        self.interfaces.iter().any(|i| i.addr == addr)
    }

    /// Decide what happens to one IP packet arriving on interface
    /// `ingress`, using `responder` to build any ICMP message.  The rungs,
    /// in order: a truncated header is dropped; multicast is delivered
    /// locally; an unsupported type of service gets a parameter problem; a
    /// packet addressed to the router gets its echo, timestamp or
    /// information reply (or is delivered locally); an expiring TTL gets
    /// time exceeded.  Then a destination in an attached subnet gets a
    /// redirect (it is on the ingress subnet), a source quench (its
    /// outbound buffer is full) or is forwarded; any other destination is
    /// forwarded if `transit` accepts it and is unreachable otherwise.
    /// `transit` is the kernel's routing table inside a simulation and
    /// `|_| false` for a router on its own.  ICMP replies are fully
    /// IP-encapsulated and addressed back to the packet's source.
    pub fn process(
        &self,
        packet: &PacketBuf,
        ingress: usize,
        transit: impl FnOnce(u32) -> bool,
        responder: &mut dyn IcmpResponder,
    ) -> RouterAction {
        let Ok(dst) = packet.get_bits(ipv4::DESTINATION_ADDRESS) else {
            return RouterAction::Dropped("truncated header");
        };
        let dst = dst as u32;
        // Link-local / group traffic is consumed silently: the router does
        // not forward 224.0.0.0/4 and must not answer it with ICMP errors.
        if is_multicast(dst) {
            return RouterAction::DeliveredLocally;
        }
        let src = ipv4::source_address(packet);
        let tos = packet.get_bits(ipv4::TYPE_OF_SERVICE).unwrap_or(0) as u8;
        let ttl = packet.get_bits(ipv4::TTL).unwrap_or(0) as u8;
        let protocol = packet.get_bits(ipv4::PROTOCOL).unwrap_or(0) as u8;

        let reply_via = |msg: Option<PacketBuf>, router_addr: u32| match msg {
            Some(m) => RouterAction::IcmpReply(ipv4::build_packet(
                router_addr,
                src,
                ipv4::PROTO_ICMP,
                64,
                m.as_bytes(),
            )),
            None => RouterAction::Dropped("responder produced no message"),
        };
        let ingress_addr = self.interfaces.get(ingress).map(|i| i.addr).unwrap_or(0);

        // Unsupported type of service → parameter problem (Appendix A).
        if tos != SUPPORTED_TOS {
            let msg = responder.respond(IcmpEvent::ParameterProblem(1), packet);
            return reply_via(msg, ingress_addr);
        }

        // Addressed to the router itself.
        if self.owns(dst) {
            if protocol == ipv4::PROTO_ICMP {
                let t = FieldView::new(ipv4::payload(packet))
                    .get_bits(icmp::TYPE)
                    .unwrap_or(255) as u8;
                let event = match t {
                    icmp::msg_type::ECHO => Some(IcmpEvent::EchoRequest),
                    icmp::msg_type::TIMESTAMP => Some(IcmpEvent::TimestampRequest),
                    icmp::msg_type::INFO_REQUEST => Some(IcmpEvent::InfoRequest),
                    _ => None,
                };
                if let Some(ev) = event {
                    let msg = responder.respond(ev, packet);
                    return reply_via(msg, dst);
                }
            }
            return RouterAction::DeliveredLocally;
        }

        // TTL expiry (checked before forwarding, as the router decrements).
        if ttl <= 1 {
            let msg = responder.respond(IcmpEvent::TimeExceeded, packet);
            return reply_via(msg, ingress_addr);
        }

        // Routing decision.
        match self.interfaces.iter().position(|iface| iface.contains(dst)) {
            // Redirect: next hop is on the same subnet the packet arrived
            // from.
            Some(egress) if egress == ingress => {
                let gateway = self.interfaces[egress].addr;
                let msg = responder.respond(IcmpEvent::Redirect(gateway), packet);
                return reply_via(msg, ingress_addr);
            }
            // Source quench: outbound buffer full.
            Some(egress) if self.full_buffers.contains(&egress) => {
                let msg = responder.respond(IcmpEvent::SourceQuench, packet);
                return reply_via(msg, ingress_addr);
            }
            Some(_) => {}
            // A transit hop the surrounding network routes.
            None if transit(dst) => {}
            None => {
                let msg = responder.respond(IcmpEvent::DestinationUnreachable, packet);
                return reply_via(msg, ingress_addr);
            }
        }

        // Forward: decrement TTL, refresh checksum.
        let mut fwd = packet.clone();
        fwd.set_bits(ipv4::TTL, u64::from(ttl - 1)).expect("field");
        ipv4::refresh_checksum(&mut fwd);
        RouterAction::Forwarded(fwd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tools::ping::echo_request;

    fn echo_request_packet(dst: u32, ttl: u8, tos: u8) -> PacketBuf {
        let mut p = echo_request(ipv4::addr(10, 0, 1, 100), dst, 0x42, 1, b"abcdefgh");
        p.set_bits(ipv4::TTL, u64::from(ttl)).unwrap();
        p.set_bits(ipv4::TYPE_OF_SERVICE, u64::from(tos)).unwrap();
        ipv4::refresh_checksum(&mut p);
        p
    }

    /// The Appendix-A router on its own: nothing beyond its subnets routes.
    fn process(router: &Router, packet: &PacketBuf) -> RouterAction {
        router.process(packet, 0, |_| false, &mut ReferenceResponder)
    }

    /// The ICMP type of a reply, or a panic naming the action.
    fn reply_type(action: RouterAction) -> u64 {
        let RouterAction::IcmpReply(reply) = action else {
            panic!("expected an ICMP reply, got {action:?}");
        };
        assert!(ipv4::checksum_ok(&reply));
        let inner = PacketBuf::from_bytes(ipv4::payload(&reply).to_vec());
        inner.get_field(icmp::FIELDS, "type").unwrap()
    }

    #[test]
    fn interface_subnet_membership() {
        let iface = Interface::new(ipv4::addr(10, 0, 1, 1), 24);
        assert!(iface.contains(ipv4::addr(10, 0, 1, 200)));
        assert!(!iface.contains(ipv4::addr(10, 0, 2, 200)));
    }

    #[test]
    fn default_route_interface_contains_everything() {
        // prefix_len == 0 used to shift by 32 (debug overflow); a default
        // route matches every address.
        let iface = Interface::new(ipv4::addr(10, 0, 1, 1), 0);
        assert!(iface.contains(ipv4::addr(8, 8, 8, 8)));
        assert!(iface.contains(0));
        assert!(iface.contains(u32::MAX));
    }

    #[test]
    fn oversized_prefix_clamps_to_host_route() {
        let iface = Interface::new(ipv4::addr(10, 0, 1, 1), 40);
        assert!(iface.contains(ipv4::addr(10, 0, 1, 1)));
        assert!(!iface.contains(ipv4::addr(10, 0, 1, 2)));
    }

    #[test]
    fn echo_request_to_router_yields_echo_reply() {
        let pkt = echo_request_packet(ipv4::addr(10, 0, 1, 1), 64, 0);
        let action = process(&Router::appendix_a(), &pkt);
        let RouterAction::IcmpReply(reply) = action else {
            panic!("expected ICMP reply, got {action:?}");
        };
        assert!(ipv4::checksum_ok(&reply));
        let inner = PacketBuf::from_bytes(ipv4::payload(&reply).to_vec());
        assert_eq!(inner.get_field(icmp::FIELDS, "type").unwrap(), 0);
        assert_eq!(inner.get_field(icmp::FIELDS, "identifier").unwrap(), 0x42);
        assert!(icmp::checksum_ok(&inner));
    }

    #[test]
    fn unknown_destination_yields_destination_unreachable() {
        let pkt = echo_request_packet(ipv4::addr(8, 8, 8, 8), 64, 0);
        assert_eq!(reply_type(process(&Router::appendix_a(), &pkt)), 3);
    }

    #[test]
    fn ttl_expiry_yields_time_exceeded() {
        let pkt = echo_request_packet(ipv4::addr(192, 168, 2, 100), 1, 0);
        assert_eq!(reply_type(process(&Router::appendix_a(), &pkt)), 11);
    }

    #[test]
    fn unsupported_tos_yields_parameter_problem() {
        let pkt = echo_request_packet(ipv4::addr(192, 168, 2, 100), 64, 1);
        assert_eq!(reply_type(process(&Router::appendix_a(), &pkt)), 12);
    }

    #[test]
    fn full_buffer_yields_source_quench() {
        let router = Router {
            full_buffers: vec![1],
            ..Router::appendix_a()
        };
        let pkt = echo_request_packet(ipv4::addr(192, 168, 2, 100), 64, 0);
        assert_eq!(reply_type(process(&router, &pkt)), 4);
    }

    #[test]
    fn same_subnet_next_hop_yields_redirect() {
        // Destination on the same subnet the packet arrived from.
        let pkt = echo_request_packet(ipv4::addr(10, 0, 1, 200), 64, 0);
        let action = process(&Router::appendix_a(), &pkt);
        let RouterAction::IcmpReply(reply) = action else {
            panic!("expected reply, got {action:?}");
        };
        let inner = PacketBuf::from_bytes(ipv4::payload(&reply).to_vec());
        assert_eq!(inner.get_field(icmp::FIELDS, "type").unwrap(), 5);
        assert_eq!(
            inner
                .get_field(icmp::FIELDS, "gateway_internet_address")
                .unwrap(),
            u64::from(ipv4::addr(10, 0, 1, 1))
        );
    }

    #[test]
    fn normal_packets_are_forwarded_with_decremented_ttl() {
        let pkt = echo_request_packet(ipv4::addr(192, 168, 2, 100), 64, 0);
        let mut expected = pkt.clone();
        expected.set_bits(ipv4::TTL, 63).unwrap();
        ipv4::refresh_checksum(&mut expected);
        let action = process(&Router::appendix_a(), &pkt);
        assert_eq!(action, RouterAction::Forwarded(expected));
    }

    #[test]
    fn a_reused_router_never_source_quenches_a_forward() {
        // One router decides every packet alike: twenty forwards in a row
        // all leave the router, none is answered with a source quench.
        let router = Router::appendix_a();
        for seq in 1..=20 {
            let pkt = echo_request(
                ipv4::addr(10, 0, 1, 100),
                ipv4::addr(192, 168, 2, 100),
                0x42,
                seq,
                b"abcdefgh",
            );
            let action = process(&router, &pkt);
            let RouterAction::Forwarded(forwarded) = action else {
                panic!("packet {seq}: expected a forward, got {action:?}");
            };
            assert_eq!(forwarded.get_field(ipv4::FIELDS, "ttl").unwrap(), 63);
            assert!(ipv4::checksum_ok(&forwarded), "packet {seq}");
        }
    }

    #[test]
    fn timestamp_and_info_requests_get_replies() {
        let router = Router::appendix_a();
        let ts = icmp::build_timestamp(false, 7, 1, 1000, 0, 0);
        let pkt = ipv4::build_packet(
            ipv4::addr(10, 0, 1, 100),
            ipv4::addr(10, 0, 1, 1),
            ipv4::PROTO_ICMP,
            64,
            ts.as_bytes(),
        );
        assert_eq!(reply_type(process(&router, &pkt)), 14);

        let info = icmp::build_info(false, 9, 1);
        let pkt = ipv4::build_packet(
            ipv4::addr(10, 0, 1, 100),
            ipv4::addr(10, 0, 1, 1),
            ipv4::PROTO_ICMP,
            64,
            info.as_bytes(),
        );
        assert_eq!(reply_type(process(&router, &pkt)), 16);
    }
}
