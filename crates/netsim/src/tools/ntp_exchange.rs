//! The NTP client/server session (§6.3, Table 11): its wire format and
//! pluggable roles.
//!
//! RFC 1059's timeout procedure is the trigger: "The timeout procedure is
//! called in client mode and symmetric mode when the peer timer reaches the
//! value of the timer threshold variable.  The peer timer is set to zero
//! and the timeout procedure constructs a new NTP message.  The message is
//! sent to the peer address using the UDP port assigned for NTP."
//!
//! Both decision points are pluggable: the *timeout policy* (does the
//! client's timeout procedure fire for the current peer variables?) and the
//! *server* (how is the reply message formed?).  The static framework
//! supplies everything the RFC assigns to lower layers — UDP encapsulation
//! on port 123 and IP.

use crate::buffer::PacketBuf;
use crate::headers::{ipv4, ntp, udp};

/// The ephemeral UDP port NTP clients send their requests from.
pub const CLIENT_PORT: u16 = 45123;

/// The stratum the session servers answer with.
pub const SERVER_STRATUM: u8 = 2;

/// The clock the session servers stamp their replies with.
pub const SERVER_CLOCK: u64 = 0x1000;

/// The client-side decision of Table 11: whether the timeout procedure runs
/// for the given peer variables — the role filled by SAGE-generated code.
pub trait NtpTimeoutPolicy {
    /// True if the timeout procedure must be called now.
    fn timeout_due(&mut self, peer: &ntp::PeerVariables) -> bool;
}

/// The hand-written reference policy (the Table 11 semantics).
#[derive(Debug, Clone, Default)]
pub struct ReferenceTimeoutPolicy;

impl NtpTimeoutPolicy for ReferenceTimeoutPolicy {
    fn timeout_due(&mut self, peer: &ntp::PeerVariables) -> bool {
        peer.timeout_due()
    }
}

/// Something that answers NTP client requests — the server half of the
/// exchange, filled by SAGE-generated code or the reference below.
pub trait NtpServer {
    /// Build the server reply to `request` (a bare NTP message), or `None`
    /// to stay silent (e.g. the request was not in client mode).
    fn respond(&mut self, request: &PacketBuf) -> Option<PacketBuf>;

    /// The first execution error since the last call, if any, dropping
    /// the rest; soak containment charges it to the error budget.
    /// Hand-written roles never fail and keep the default.
    fn take_error(&mut self) -> Option<String> {
        None
    }
}

/// The hand-written reference server, used as ground truth in parity tests.
#[derive(Debug, Clone)]
pub struct ReferenceNtpServer {
    /// The stratum the server answers with.
    pub stratum: u8,
    /// The server clock, used for the receive and transmit timestamps.
    pub clock: u64,
}

impl NtpServer for ReferenceNtpServer {
    fn respond(&mut self, request: &PacketBuf) -> Option<PacketBuf> {
        if request.get_bits(ntp::MODE).ok()? != u64::from(ntp::mode::CLIENT) {
            return None;
        }
        let version = request.get_bits(ntp::VERSION).ok()?;
        let transmit = request.get_bits(ntp::TRANSMIT_TIMESTAMP).ok()?;
        let mut reply = ntp::build_packet(
            0,
            version as u8,
            ntp::mode::SERVER,
            self.stratum,
            self.clock,
        );
        reply
            .set_bits(ntp::ORIGINATE_TIMESTAMP, transmit)
            .expect("field");
        reply
            .set_bits(ntp::RECEIVE_TIMESTAMP, self.clock)
            .expect("field");
        Some(reply)
    }
}

/// The client-mode message the timeout procedure constructs, sent from
/// [`CLIENT_PORT`] to the server's NTP port.
pub fn request_packet(client_addr: u32, server_addr: u32, transmit_timestamp: u64) -> PacketBuf {
    let request = ntp::build_packet(0, 1, ntp::mode::CLIENT, 0, transmit_timestamp);
    let datagram = ntp::encapsulate_in_udp(client_addr, server_addr, CLIENT_PORT, &request);
    ipv4::build_packet(
        client_addr,
        server_addr,
        ipv4::PROTO_UDP,
        64,
        datagram.as_bytes(),
    )
}

/// The server's `reply` (a bare NTP message) to a request from
/// `client_addr`.  Appendix A: the reply's destination port "is copied from
/// the source port field of the request", passed as `client_port`.
pub fn reply_packet(
    server_addr: u32,
    client_addr: u32,
    client_port: u16,
    reply: &PacketBuf,
) -> PacketBuf {
    let datagram = udp::build_datagram(
        server_addr,
        client_addr,
        udp::NTP_PORT,
        client_port,
        reply.as_bytes(),
    );
    ipv4::build_packet(
        server_addr,
        client_addr,
        ipv4::PROTO_UDP,
        64,
        datagram.as_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_ignores_non_client_requests() {
        let mut server = ReferenceNtpServer {
            stratum: 2,
            clock: 1,
        };
        let broadcast = ntp::build_packet(0, 1, ntp::mode::BROADCAST, 1, 7);
        assert!(server.respond(&broadcast).is_none());
    }
}
