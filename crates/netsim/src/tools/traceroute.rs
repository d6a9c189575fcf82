//! A `traceroute` client: sends TTL-limited probes and interprets the ICMP
//! time-exceeded / destination-unreachable replies, as in the §6.2
//! interoperation test ("TTL-limited data packets or packets to non-existent
//! destinations sent by traceroute").

use crate::buffer::PacketBuf;
use crate::headers::{icmp, ipv4, udp};
use crate::net::{IcmpResponder, Router, RouterAction};

/// One hop observed by traceroute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// TTL used for the probe.
    pub ttl: u8,
    /// Address that answered, if any.
    pub responder: Option<u32>,
    /// ICMP type of the answer (11 = time exceeded, 3 = unreachable).
    pub icmp_type: Option<u8>,
}

/// The result of a traceroute run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracerouteReport {
    /// Hops in TTL order.
    pub hops: Vec<Hop>,
    /// True if the destination (or a terminating unreachable) was reached.
    pub completed: bool,
}

impl TracerouteReport {
    /// Addresses of the routers that answered with time-exceeded.
    pub fn intermediate_routers(&self) -> Vec<u32> {
        self.hops
            .iter()
            .filter(|h| h.icmp_type == Some(icmp::msg_type::TIME_EXCEEDED))
            .filter_map(|h| h.responder)
            .collect()
    }
}

/// Run a traceroute from `src` towards `dst` through `router` (on its
/// interface 0, routing nothing beyond its subnets) using UDP probes to
/// high ports, with TTLs from 1 to `max_ttl`.
pub fn traceroute(
    router: &Router,
    responder: &mut dyn IcmpResponder,
    src: u32,
    dst: u32,
    max_ttl: u8,
) -> TracerouteReport {
    let mut hops = Vec::new();
    let mut completed = false;
    for ttl in 1..=max_ttl {
        let probe_udp = udp::build_datagram(
            src,
            dst,
            45000 + u16::from(ttl),
            33434 + u16::from(ttl),
            b"probe",
        );
        let probe = ipv4::build_packet(src, dst, ipv4::PROTO_UDP, ttl, probe_udp.as_bytes());
        let action = router.process(&probe, 0, |_| false, responder);
        let hop = match action {
            RouterAction::IcmpReply(reply) => {
                let from = reply.get_field(ipv4::FIELDS, "source_address").unwrap_or(0) as u32;
                let inner = PacketBuf::from_bytes(ipv4::payload(&reply).to_vec());
                let t = inner.get_field(icmp::FIELDS, "type").ok().map(|v| v as u8);
                if matches!(t, Some(icmp::msg_type::DEST_UNREACHABLE)) {
                    completed = true;
                }
                Hop {
                    ttl,
                    responder: Some(from),
                    icmp_type: t,
                }
            }
            RouterAction::Forwarded(_) => {
                // The probe reached the destination subnet; the destination
                // host would answer port-unreachable.  Model that terminal
                // condition directly.
                completed = true;
                Hop {
                    ttl,
                    responder: Some(dst),
                    icmp_type: Some(icmp::msg_type::DEST_UNREACHABLE),
                }
            }
            RouterAction::DeliveredLocally | RouterAction::Dropped(_) => Hop {
                ttl,
                responder: None,
                icmp_type: None,
            },
        };
        hops.push(hop);
        if completed {
            break;
        }
    }
    TracerouteReport { hops, completed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::ipv4::addr;
    use crate::net::ReferenceResponder;

    #[test]
    fn traceroute_to_server_sees_router_then_destination() {
        let report = traceroute(
            &Router::appendix_a(),
            &mut ReferenceResponder,
            addr(10, 0, 1, 100),
            addr(192, 168, 2, 100),
            5,
        );
        assert!(report.completed);
        assert_eq!(report.hops.len(), 2);
        // First hop: time exceeded from the router's ingress interface.
        assert_eq!(
            report.hops[0].icmp_type,
            Some(icmp::msg_type::TIME_EXCEEDED)
        );
        assert_eq!(report.hops[0].responder, Some(addr(10, 0, 1, 1)));
        // Second hop: the destination.
        assert_eq!(report.hops[1].responder, Some(addr(192, 168, 2, 100)));
        assert_eq!(report.intermediate_routers(), vec![addr(10, 0, 1, 1)]);
    }

    #[test]
    fn traceroute_to_unknown_destination_terminates_with_unreachable() {
        let report = traceroute(
            &Router::appendix_a(),
            &mut ReferenceResponder,
            addr(10, 0, 1, 100),
            addr(8, 8, 8, 8),
            5,
        );
        // TTL 1 gets time-exceeded; TTL 2 reaches the routing decision and
        // gets destination-unreachable, which terminates the trace.
        assert!(report.completed);
        let last = report.hops.last().unwrap();
        assert_eq!(last.icmp_type, Some(icmp::msg_type::DEST_UNREACHABLE));
    }

    #[test]
    fn max_ttl_bounds_the_probe_count() {
        let report = traceroute(
            &Router::appendix_a(),
            &mut ReferenceResponder,
            addr(10, 0, 1, 100),
            addr(192, 168, 2, 100),
            1,
        );
        assert_eq!(report.hops.len(), 1);
        assert!(!report.completed);
    }
}
