//! A small virtual network: hosts, a router and links.
//!
//! This is the substitute for the Mininet-based framework the paper uses for
//! its end-to-end experiments (§6.2 and Appendix A).  The router owns the
//! ICMP-relevant decisions (unknown destination, TTL expiry, unsupported
//! type-of-service, full outbound buffer, same-subnet redirect, messages
//! addressed to the router itself) and delegates the construction of the
//! ICMP message to a pluggable [`IcmpResponder`] — in the paper that role is
//! played by the SAGE-generated code; here it can be the generated-code
//! interpreter, the hand-written reference, or a deliberately faulty student
//! model.

use crate::buffer::{FieldView, PacketBuf};
use crate::headers::{icmp, ipv4};

/// A network interface with an address, prefix length and outbound queue.
#[derive(Debug, Clone)]
pub struct Interface {
    /// Interface address.
    pub addr: u32,
    /// Prefix length of the attached subnet.
    pub prefix_len: u8,
    /// Maximum number of packets the outbound buffer holds.
    pub buffer_capacity: usize,
    /// Queued outbound packets.
    pub queue: Vec<PacketBuf>,
}

impl Interface {
    /// Create an interface.
    pub fn new(addr: u32, prefix_len: u8) -> Interface {
        Interface {
            addr,
            prefix_len,
            buffer_capacity: 16,
            queue: Vec::new(),
        }
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

    /// True if the outbound buffer has no free space.
    pub fn buffer_full(&self) -> bool {
        self.queue.len() >= self.buffer_capacity
    }
}

/// A simple end host: one interface plus a log of received packets.
#[derive(Debug, Clone)]
pub struct Host {
    /// Host name, for diagnostics.
    pub name: String,
    /// The host's interface.
    pub iface: Interface,
    /// Packets delivered to this host.
    pub received: Vec<PacketBuf>,
}

impl Host {
    /// Create a host.
    pub fn new(name: &str, addr: u32, prefix_len: u8) -> Host {
        Host {
            name: name.to_string(),
            iface: Interface::new(addr, prefix_len),
            received: Vec::new(),
        }
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

/// Router configuration: the subnets it serves and its constraints
/// (Appendix A of the paper).
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Interfaces, one per attached subnet.
    pub interfaces: Vec<Interface>,
    /// The only type-of-service value the router accepts (Appendix A uses 0).
    pub supported_tos: u8,
    /// Interface indices whose outbound buffers are full (source-quench
    /// scenario).
    pub full_buffers: Vec<usize>,
}

impl RouterConfig {
    /// The three-subnet router used throughout Appendix A.
    pub fn appendix_a() -> RouterConfig {
        RouterConfig {
            interfaces: vec![
                Interface::new(ipv4::addr(10, 0, 1, 1), 24),
                Interface::new(ipv4::addr(192, 168, 2, 1), 24),
                Interface::new(ipv4::addr(172, 64, 3, 1), 24),
            ],
            supported_tos: 0,
            full_buffers: Vec::new(),
        }
    }
}

/// What the router did with a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterAction {
    /// Forwarded out of the given interface index.
    Forwarded(usize),
    /// Delivered locally (addressed to the router itself) without a reply.
    DeliveredLocally,
    /// An ICMP reply was generated (the full IP packet is returned).
    IcmpReply(PacketBuf),
    /// The packet was dropped without a reply.
    Dropped(&'static str),
}

/// The virtual network: a router plus the hosts on its subnets.
#[derive(Debug)]
pub struct Network {
    /// Router configuration.
    pub router: RouterConfig,
    /// Hosts attached to the subnets.
    pub hosts: Vec<Host>,
}

impl Network {
    /// Build the Appendix A topology: a client on 10.0.1.0/24 and servers on
    /// the other two subnets.
    pub fn appendix_a() -> Network {
        Network {
            router: RouterConfig::appendix_a(),
            hosts: vec![
                Host::new("client", ipv4::addr(10, 0, 1, 100), 24),
                Host::new("server1", ipv4::addr(192, 168, 2, 100), 24),
                Host::new("server2", ipv4::addr(172, 64, 3, 100), 24),
            ],
        }
    }

    /// True if the router owns `addr` on one of its interfaces.
    pub fn is_router_address(&self, addr: u32) -> bool {
        self.router.interfaces.iter().any(|i| i.addr == addr)
    }

    /// Process one IP packet arriving at the router from `ingress_iface`,
    /// using `responder` to build any ICMP message.  Returns the router's
    /// action; ICMP replies are fully IP-encapsulated and addressed back to
    /// the packet's source.
    pub fn router_process(
        &mut self,
        packet: &PacketBuf,
        ingress_iface: usize,
        responder: &mut dyn IcmpResponder,
    ) -> RouterAction {
        let Ok(dst) = packet.get_bits(ipv4::DESTINATION_ADDRESS) else {
            return RouterAction::Dropped("truncated header");
        };
        let dst = dst as u32;
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
        let ingress_addr = self
            .router
            .interfaces
            .get(ingress_iface)
            .map(|i| i.addr)
            .unwrap_or(0);

        // Unsupported type of service → parameter problem (Appendix A).
        if tos != self.router.supported_tos {
            let msg = responder.respond(IcmpEvent::ParameterProblem(1), packet);
            return reply_via(msg, ingress_addr);
        }

        // Addressed to the router itself.
        if self.is_router_address(dst) {
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
        let egress = self
            .router
            .interfaces
            .iter()
            .position(|iface| iface.contains(dst));
        let Some(egress) = egress else {
            let msg = responder.respond(IcmpEvent::DestinationUnreachable, packet);
            return reply_via(msg, ingress_addr);
        };

        // Redirect: next hop is on the same subnet the packet arrived from.
        if egress == ingress_iface {
            let gateway = self.router.interfaces[egress].addr;
            let msg = responder.respond(IcmpEvent::Redirect(gateway), packet);
            return reply_via(msg, ingress_addr);
        }

        // Source quench: outbound buffer full.
        if self.router.full_buffers.contains(&egress)
            || self.router.interfaces[egress].buffer_full()
        {
            let msg = responder.respond(IcmpEvent::SourceQuench, packet);
            return reply_via(msg, ingress_addr);
        }

        // Forward: decrement TTL, refresh checksum, enqueue.
        let mut fwd = packet.clone();
        fwd.set_bits(ipv4::TTL, u64::from(ttl - 1)).expect("field");
        ipv4::refresh_checksum(&mut fwd);
        self.router.interfaces[egress].queue.push(fwd);
        RouterAction::Forwarded(egress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_request_packet(dst: u32, ttl: u8, tos: u8) -> PacketBuf {
        let echo = icmp::build_echo(false, 0x42, 1, b"abcdefgh");
        let mut p = ipv4::build_packet(
            ipv4::addr(10, 0, 1, 100),
            dst,
            ipv4::PROTO_ICMP,
            ttl,
            echo.as_bytes(),
        );
        p.set_field(ipv4::FIELDS, "type_of_service", u64::from(tos))
            .unwrap();
        ipv4::refresh_checksum(&mut p);
        p
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
        let mut net = Network::appendix_a();
        let pkt = echo_request_packet(ipv4::addr(10, 0, 1, 1), 64, 0);
        let action = net.router_process(&pkt, 0, &mut ReferenceResponder);
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
        let mut net = Network::appendix_a();
        let pkt = echo_request_packet(ipv4::addr(8, 8, 8, 8), 64, 0);
        let action = net.router_process(&pkt, 0, &mut ReferenceResponder);
        let RouterAction::IcmpReply(reply) = action else {
            panic!("expected reply, got {action:?}");
        };
        let inner = PacketBuf::from_bytes(ipv4::payload(&reply).to_vec());
        assert_eq!(inner.get_field(icmp::FIELDS, "type").unwrap(), 3);
    }

    #[test]
    fn ttl_expiry_yields_time_exceeded() {
        let mut net = Network::appendix_a();
        let pkt = echo_request_packet(ipv4::addr(192, 168, 2, 100), 1, 0);
        let action = net.router_process(&pkt, 0, &mut ReferenceResponder);
        let RouterAction::IcmpReply(reply) = action else {
            panic!("expected reply, got {action:?}");
        };
        let inner = PacketBuf::from_bytes(ipv4::payload(&reply).to_vec());
        assert_eq!(inner.get_field(icmp::FIELDS, "type").unwrap(), 11);
    }

    #[test]
    fn unsupported_tos_yields_parameter_problem() {
        let mut net = Network::appendix_a();
        let pkt = echo_request_packet(ipv4::addr(192, 168, 2, 100), 64, 1);
        let action = net.router_process(&pkt, 0, &mut ReferenceResponder);
        let RouterAction::IcmpReply(reply) = action else {
            panic!("expected reply, got {action:?}");
        };
        let inner = PacketBuf::from_bytes(ipv4::payload(&reply).to_vec());
        assert_eq!(inner.get_field(icmp::FIELDS, "type").unwrap(), 12);
    }

    #[test]
    fn full_buffer_yields_source_quench() {
        let mut net = Network::appendix_a();
        net.router.full_buffers.push(1);
        let pkt = echo_request_packet(ipv4::addr(192, 168, 2, 100), 64, 0);
        let action = net.router_process(&pkt, 0, &mut ReferenceResponder);
        let RouterAction::IcmpReply(reply) = action else {
            panic!("expected reply, got {action:?}");
        };
        let inner = PacketBuf::from_bytes(ipv4::payload(&reply).to_vec());
        assert_eq!(inner.get_field(icmp::FIELDS, "type").unwrap(), 4);
    }

    #[test]
    fn same_subnet_next_hop_yields_redirect() {
        let mut net = Network::appendix_a();
        // Destination on the same subnet the packet arrived from.
        let pkt = echo_request_packet(ipv4::addr(10, 0, 1, 200), 64, 0);
        let action = net.router_process(&pkt, 0, &mut ReferenceResponder);
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
        let mut net = Network::appendix_a();
        let pkt = echo_request_packet(ipv4::addr(192, 168, 2, 100), 64, 0);
        let action = net.router_process(&pkt, 0, &mut ReferenceResponder);
        assert_eq!(action, RouterAction::Forwarded(1));
        let forwarded = &net.router.interfaces[1].queue[0];
        assert_eq!(forwarded.get_field(ipv4::FIELDS, "ttl").unwrap(), 63);
        assert!(ipv4::checksum_ok(forwarded));
    }

    #[test]
    fn timestamp_and_info_requests_get_replies() {
        let mut net = Network::appendix_a();
        let ts = icmp::build_timestamp(false, 7, 1, 1000, 0, 0);
        let pkt = ipv4::build_packet(
            ipv4::addr(10, 0, 1, 100),
            ipv4::addr(10, 0, 1, 1),
            ipv4::PROTO_ICMP,
            64,
            ts.as_bytes(),
        );
        let RouterAction::IcmpReply(reply) = net.router_process(&pkt, 0, &mut ReferenceResponder)
        else {
            panic!("expected timestamp reply");
        };
        let inner = PacketBuf::from_bytes(ipv4::payload(&reply).to_vec());
        assert_eq!(inner.get_field(icmp::FIELDS, "type").unwrap(), 14);

        let info = icmp::build_info(false, 9, 1);
        let pkt = ipv4::build_packet(
            ipv4::addr(10, 0, 1, 100),
            ipv4::addr(10, 0, 1, 1),
            ipv4::PROTO_ICMP,
            64,
            info.as_bytes(),
        );
        let RouterAction::IcmpReply(reply) = net.router_process(&pkt, 0, &mut ReferenceResponder)
        else {
            panic!("expected info reply");
        };
        let inner = PacketBuf::from_bytes(ipv4::payload(&reply).to_vec());
        assert_eq!(inner.get_field(icmp::FIELDS, "type").unwrap(), 16);
    }
}
