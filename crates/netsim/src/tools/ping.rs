//! A `ping` client: sends an ICMP echo request and validates the reply the
//! way Linux `ping` does (type, identifier, sequence number, payload and
//! checksums all have to match before it prints a reply line).

use crate::buffer::PacketBuf;
use crate::headers::{icmp, ipv4};
use crate::net::{IcmpResponder, Router, RouterAction};

/// The result of one echo exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PingOutcome {
    /// A correct echo reply was received.
    Reply {
        /// Bytes of ICMP payload echoed back.
        bytes: usize,
        /// Sequence number of the reply.
        seq: u16,
    },
    /// An ICMP error came back instead of a reply.
    Error(&'static str),
    /// A reply arrived but `ping` could not accept it (the reason mirrors
    /// the student-implementation failures of §2.1).
    Rejected(&'static str),
    /// Nothing came back.
    NoReply,
}

impl PingOutcome {
    /// True if the exchange succeeded (interoperation criterion of §6.2).
    pub fn success(&self) -> bool {
        matches!(self, PingOutcome::Reply { .. })
    }
}

/// The echo payload every ping session carries (the classic 16-byte
/// pattern).
pub const ECHO_PAYLOAD: &[u8] = b"0123456789abcdef";

/// The IP-encapsulated echo request `ping` sends from `src` to `dst`.
pub fn echo_request(src: u32, dst: u32, identifier: u16, seq: u16, payload: &[u8]) -> PacketBuf {
    let echo = icmp::build_echo(false, identifier, seq, payload);
    ipv4::build_packet(src, dst, ipv4::PROTO_ICMP, 64, echo.as_bytes())
}

/// Send one echo request from `src` to `dst` through `router` (on its
/// interface 0, routing nothing beyond its subnets), having it answer with
/// `responder`, and validate the reply.
pub fn ping_once(
    router: &Router,
    responder: &mut dyn IcmpResponder,
    src: u32,
    dst: u32,
    identifier: u16,
    seq: u16,
    payload: &[u8],
) -> PingOutcome {
    let request = echo_request(src, dst, identifier, seq, payload);
    match router.process(&request, 0, |_| false, responder) {
        RouterAction::IcmpReply(reply) => validate_reply(&reply, src, identifier, seq, payload),
        RouterAction::Forwarded(_) | RouterAction::DeliveredLocally => PingOutcome::NoReply,
        RouterAction::Dropped(_) => PingOutcome::NoReply,
    }
}

/// Validate an echo reply exactly as `ping` would.
pub fn validate_reply(
    reply: &PacketBuf,
    expected_dst: u32,
    identifier: u16,
    seq: u16,
    payload: &[u8],
) -> PingOutcome {
    if !ipv4::checksum_ok(reply) {
        return PingOutcome::Rejected("bad IP header checksum");
    }
    let dst = reply
        .get_field(ipv4::FIELDS, "destination_address")
        .unwrap_or(0) as u32;
    if dst != expected_dst {
        return PingOutcome::Rejected("reply not addressed to the sender");
    }
    let inner_bytes = ipv4::payload(reply);
    if inner_bytes.len() < icmp::HEADER_LEN {
        return PingOutcome::Rejected("truncated ICMP message");
    }
    let inner = PacketBuf::from_bytes(inner_bytes.to_vec());
    if !icmp::checksum_ok(&inner) {
        return PingOutcome::Rejected("bad ICMP checksum (dropped by kernel)");
    }
    let t = inner.get_field(icmp::FIELDS, "type").unwrap_or(255) as u8;
    match t {
        icmp::msg_type::ECHO_REPLY => {}
        icmp::msg_type::DEST_UNREACHABLE => return PingOutcome::Error("destination unreachable"),
        icmp::msg_type::TIME_EXCEEDED => return PingOutcome::Error("time exceeded"),
        icmp::msg_type::PARAMETER_PROBLEM => return PingOutcome::Error("parameter problem"),
        icmp::msg_type::SOURCE_QUENCH => return PingOutcome::Error("source quench"),
        icmp::msg_type::REDIRECT => return PingOutcome::Error("redirect"),
        _ => return PingOutcome::Rejected("unexpected ICMP type"),
    }
    if inner.get_field(icmp::FIELDS, "identifier").unwrap_or(0) as u16 != identifier {
        return PingOutcome::Rejected("identifier mismatch");
    }
    if inner
        .get_field(icmp::FIELDS, "sequence_number")
        .unwrap_or(0) as u16
        != seq
    {
        return PingOutcome::Rejected("sequence number mismatch");
    }
    let reply_payload = &inner_bytes[icmp::HEADER_LEN..];
    if reply_payload != payload {
        return PingOutcome::Rejected("payload mismatch");
    }
    PingOutcome::Reply {
        bytes: inner_bytes.len(),
        seq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::ipv4::addr;
    use crate::net::ReferenceResponder;

    #[test]
    fn ping_router_succeeds_with_reference_responder() {
        let outcome = ping_once(
            &Router::appendix_a(),
            &mut ReferenceResponder,
            addr(10, 0, 1, 100),
            addr(10, 0, 1, 1),
            0x77,
            1,
            ECHO_PAYLOAD,
        );
        assert!(outcome.success(), "outcome: {outcome:?}");
        assert_eq!(
            outcome,
            PingOutcome::Reply {
                bytes: 8 + 16,
                seq: 1
            }
        );
    }

    #[test]
    fn ping_unknown_destination_reports_unreachable() {
        let outcome = ping_once(
            &Router::appendix_a(),
            &mut ReferenceResponder,
            addr(10, 0, 1, 100),
            addr(8, 8, 8, 8),
            1,
            1,
            b"x",
        );
        assert_eq!(outcome, PingOutcome::Error("destination unreachable"));
    }

    #[test]
    fn reply_with_wrong_identifier_is_rejected() {
        let echo = icmp::build_echo(true, 999, 1, b"data");
        let reply = ipv4::build_packet(
            addr(10, 0, 1, 1),
            addr(10, 0, 1, 100),
            ipv4::PROTO_ICMP,
            64,
            echo.as_bytes(),
        );
        let outcome = validate_reply(&reply, addr(10, 0, 1, 100), 0x77, 1, b"data");
        assert_eq!(outcome, PingOutcome::Rejected("identifier mismatch"));
    }

    #[test]
    fn reply_with_wrong_payload_is_rejected() {
        let echo = icmp::build_echo(true, 7, 1, b"XXXX");
        let reply = ipv4::build_packet(
            addr(10, 0, 1, 1),
            addr(10, 0, 1, 100),
            ipv4::PROTO_ICMP,
            64,
            echo.as_bytes(),
        );
        let outcome = validate_reply(&reply, addr(10, 0, 1, 100), 7, 1, b"data");
        assert_eq!(outcome, PingOutcome::Rejected("payload mismatch"));
    }

    #[test]
    fn reply_with_bad_icmp_checksum_is_rejected() {
        let mut echo = icmp::build_echo(true, 7, 1, b"data");
        echo.set_field(icmp::FIELDS, "checksum", 0x1234).unwrap();
        let reply = ipv4::build_packet(
            addr(10, 0, 1, 1),
            addr(10, 0, 1, 100),
            ipv4::PROTO_ICMP,
            64,
            echo.as_bytes(),
        );
        let outcome = validate_reply(&reply, addr(10, 0, 1, 100), 7, 1, b"data");
        assert_eq!(
            outcome,
            PingOutcome::Rejected("bad ICMP checksum (dropped by kernel)")
        );
    }

    #[test]
    fn correct_manual_reply_is_accepted() {
        let echo = icmp::build_echo(true, 7, 3, b"data");
        let reply = ipv4::build_packet(
            addr(10, 0, 1, 1),
            addr(10, 0, 1, 100),
            ipv4::PROTO_ICMP,
            64,
            echo.as_bytes(),
        );
        let outcome = validate_reply(&reply, addr(10, 0, 1, 100), 7, 3, b"data");
        assert!(outcome.success());
    }
}
