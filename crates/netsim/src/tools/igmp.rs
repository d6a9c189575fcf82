//! The IGMP host-membership session (§6.3): its wire format and pluggable
//! host role.
//!
//! A multicast router queries the all-hosts group; a host answers with a
//! Host Membership Report for the group it belongs to.  The host side is
//! pluggable — the hand-written [`ReferenceIgmpResponder`] or SAGE-generated
//! code.  IGMP is link-local, so both packets carry TTL 1.

use crate::buffer::PacketBuf;
use crate::headers::{igmp, ipv4};

/// The all-hosts multicast group queries are addressed to (RFC 1112).
pub const ALL_HOSTS: u32 = ipv4::addr(224, 0, 0, 1);

/// The group every IGMP session's host reports membership of.
pub const SESSION_GROUP: u32 = ipv4::addr(224, 0, 0, 251);

/// Something that answers Host Membership Queries — the role filled by
/// SAGE-generated IGMP code.
pub trait IgmpResponder {
    /// Build the membership report answering `query` (a bare IGMP message),
    /// or `None` to stay silent (e.g. the packet was not a query).
    fn respond(&mut self, query: &PacketBuf) -> Option<PacketBuf>;

    /// The first execution error since the last call, if any, dropping
    /// the rest; soak containment charges it to the error budget.
    /// Hand-written roles never fail and keep the default.
    fn take_error(&mut self) -> Option<String> {
        None
    }
}

/// The hand-written reference host, used as ground truth in parity tests.
#[derive(Debug, Clone)]
pub struct ReferenceIgmpResponder {
    /// The host group this host reports membership of.
    pub group: u32,
}

impl IgmpResponder for ReferenceIgmpResponder {
    fn respond(&mut self, query: &PacketBuf) -> Option<PacketBuf> {
        igmp::respond_to_query(query, self.group)
    }
}

/// The Host Membership Query a router at `router_addr` sends to the
/// all-hosts group.
pub fn query_packet(router_addr: u32) -> PacketBuf {
    let query = igmp::build_message(igmp::msg_type::MEMBERSHIP_QUERY, 0);
    ipv4::build_packet(
        router_addr,
        ALL_HOSTS,
        ipv4::PROTO_IGMP,
        1,
        query.as_bytes(),
    )
}

/// A host's membership `report` (a bare IGMP message), addressed to the
/// reported `group`.
pub fn report_packet(host_addr: u32, group: u32, report: &PacketBuf) -> PacketBuf {
    ipv4::build_packet(host_addr, group, ipv4::PROTO_IGMP, 1, report.as_bytes())
}
