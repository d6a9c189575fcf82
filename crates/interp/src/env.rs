//! The execution environment for generated code.

use sage_netsim::buffer::PacketBuf;
use sage_netsim::headers::{icmp, ipv4};
use sage_netsim::net::IcmpEvent;
use std::collections::HashMap;

/// The environment a generated packet-handling function runs in.
#[derive(Debug, Clone)]
pub struct Env {
    /// The full received IP datagram.
    pub request_ip: PacketBuf,
    /// The ICMP (or other protocol) message being constructed as the reply.
    pub reply: PacketBuf,
    /// Source address the reply will carry (filled by the framework, may be
    /// swapped by generated code).
    pub reply_src: u32,
    /// Destination address of the reply.
    pub reply_dst: u32,
    /// Named state variables (`bfd.RemoteDiscr`, `peer.timer`, modes, …).
    pub vars: HashMap<String, i64>,
    /// Set when generated code calls `discard_packet`.
    pub discarded: bool,
    /// Set when generated code calls `send_packet` (or implicitly at return).
    pub sent: bool,
    /// Set when generated code calls `cease_periodic_transmission`.
    pub transmission_ceased: bool,
    /// The protocol whose header the reply buffer holds ("icmp", "igmp",
    /// "ntp", "bfd", …).  Protocol-agnostic framework services — currently
    /// `compute_checksum` — use it to locate the right header field.
    pub reply_proto: String,
}

impl Env {
    /// Environment over an explicit start state: the received datagram, the
    /// initial reply buffer and its addresses, with the reply tagged as
    /// holding `protocol`'s header.
    pub(crate) fn new(
        request_ip: PacketBuf,
        reply: PacketBuf,
        reply_src: u32,
        reply_dst: u32,
        protocol: &str,
    ) -> Env {
        Env {
            request_ip,
            reply,
            reply_src,
            reply_dst,
            vars: HashMap::new(),
            discarded: false,
            sent: false,
            transmission_ceased: false,
            reply_proto: protocol.to_string(),
        }
    }

    /// Environment for a reply to `event`, applying the static framework's
    /// scaffolding rules (§5.1): echo/timestamp/info replies start from a
    /// copy of the received ICMP message; error messages start from a fresh
    /// header followed by the quoted original datagram.
    pub fn for_event(event: IcmpEvent, request_ip: &PacketBuf) -> Env {
        // The reply initially flows back the way the request came; the
        // generated "reverse the source and destination addresses" code
        // operates on these.
        let (reply, src, dst) = reply_scaffold(event, request_ip);
        let mut env = Env::new(request_ip.clone(), reply, src, dst, "icmp");
        if let IcmpEvent::Redirect(gateway) = event {
            env.set_var("next_gateway", i64::from(gateway));
        }
        if let IcmpEvent::ParameterProblem(pointer) = event {
            env.set_var("error_octet", i64::from(pointer));
        }
        env
    }

    /// Environment for processing a received non-ICMP message (e.g. a BFD
    /// control packet), where the "reply" buffer is the received message
    /// itself and generated code mostly manipulates state variables.
    pub fn for_received_message(message: &PacketBuf) -> Env {
        Env::new(PacketBuf::new(), message.clone(), 0, 0, "icmp")
    }

    /// Tag the reply buffer with the protocol whose header it holds, so
    /// protocol-agnostic framework services resolve the right fields.
    pub fn with_protocol(mut self, protocol: &str) -> Env {
        self.reply_proto = protocol.to_ascii_lowercase();
        self
    }

    /// Canonical key for a state variable.  Dotted state variables are
    /// case-normalised: the RFC prose writes `bfd.RemoteDiscr` but the
    /// pipeline's tokeniser lowercases sentence text, so generated code
    /// refers to `bfd.remotediscr` — both must hit the same slot.
    ///
    /// The bytecode lowering pass applies the same canonicalisation once,
    /// at compile time, when assigning variable slots.
    pub fn var_key(name: &str) -> String {
        if name.contains('.') {
            name.to_ascii_lowercase()
        } else {
            name.to_string()
        }
    }

    /// True when `name` needs case folding before it can index `vars`
    /// directly — the already-canonical spelling (no dot, or all-lowercase)
    /// is the common case on the per-packet path and must not allocate.
    fn needs_folding(name: &str) -> bool {
        name.contains('.') && name.bytes().any(|b| b.is_ascii_uppercase())
    }

    /// Read a state variable (0 if unset).
    pub fn var(&self, name: &str) -> i64 {
        let slot = if Env::needs_folding(name) {
            self.vars.get(&name.to_ascii_lowercase())
        } else {
            self.vars.get(name)
        };
        slot.copied().unwrap_or(0)
    }

    /// Set a state variable.
    pub fn set_var(&mut self, name: &str, value: i64) {
        if Env::needs_folding(name) {
            self.vars.insert(name.to_ascii_lowercase(), value);
        } else if let Some(slot) = self.vars.get_mut(name) {
            *slot = value;
        } else {
            self.vars.insert(name.to_string(), value);
        }
    }
}

/// The static framework's reply scaffolding for an ICMP router event
/// (§5.1): the initial reply message buffer plus the reply source and
/// destination addresses, before generated code runs.  The ICMP adapter
/// computes it once per event and starts whichever engine runs from it,
/// and [`Env::for_event`] builds its environment from it, so every path
/// starts from byte-identical state.
pub fn reply_scaffold(event: IcmpEvent, request_ip: &PacketBuf) -> (PacketBuf, u32, u32) {
    let icmp_payload = ipv4::payload(request_ip);
    let reply = match event {
        IcmpEvent::EchoRequest | IcmpEvent::TimestampRequest | IcmpEvent::InfoRequest => {
            PacketBuf::from_bytes(icmp_payload.to_vec())
        }
        _ => {
            let mut m = PacketBuf::zeroed(icmp::HEADER_LEN);
            m.extend_from_slice(&icmp::quoted_payload(request_ip.as_bytes()));
            m
        }
    };
    let src = ipv4::source_address(request_ip);
    let dst = ipv4::destination_address(request_ip);
    (reply, src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_netsim::headers::ipv4::addr;

    fn echo_request_ip() -> PacketBuf {
        let echo = icmp::build_echo(false, 0x42, 3, b"payload!");
        ipv4::build_packet(
            addr(10, 0, 1, 100),
            addr(10, 0, 1, 1),
            ipv4::PROTO_ICMP,
            64,
            echo.as_bytes(),
        )
    }

    #[test]
    fn echo_environment_starts_from_received_message() {
        let req = echo_request_ip();
        let env = Env::for_event(IcmpEvent::EchoRequest, &req);
        assert_eq!(env.reply.as_bytes(), ipv4::payload(&req));
        assert_eq!(env.reply_src, addr(10, 0, 1, 100));
        assert_eq!(env.reply_dst, addr(10, 0, 1, 1));
        assert!(!env.discarded);
    }

    #[test]
    fn error_environment_quotes_header_plus_64_bits() {
        let req = echo_request_ip();
        let env = Env::for_event(IcmpEvent::DestinationUnreachable, &req);
        assert_eq!(env.reply.len(), icmp::HEADER_LEN + ipv4::HEADER_LEN + 8);
        // Quoted bytes start with the original IP header.
        assert_eq!(env.reply.as_bytes()[icmp::HEADER_LEN], 0x45);
    }

    #[test]
    fn redirect_environment_exposes_the_gateway() {
        let req = echo_request_ip();
        let env = Env::for_event(IcmpEvent::Redirect(addr(10, 0, 1, 1)), &req);
        assert_eq!(env.var("next_gateway"), i64::from(addr(10, 0, 1, 1)));
    }

    #[test]
    fn state_variables_default_to_zero() {
        let req = echo_request_ip();
        let mut env = Env::for_event(IcmpEvent::EchoRequest, &req);
        assert_eq!(env.var("bfd.RemoteDiscr"), 0);
        env.set_var("bfd.RemoteDiscr", 7);
        assert_eq!(env.var("bfd.RemoteDiscr"), 7);
    }

    #[test]
    fn dotted_state_variables_are_case_insensitive() {
        // The prose spelling and the tokeniser's lowercased spelling must
        // alias; plain identifiers stay case-sensitive.
        let req = echo_request_ip();
        let mut env = Env::for_event(IcmpEvent::EchoRequest, &req);
        env.set_var("bfd.RemoteDiscr", 7);
        assert_eq!(env.var("bfd.remotediscr"), 7);
        env.set_var("bfd.sessionstate", 3);
        assert_eq!(env.var("bfd.SessionState"), 3);
        env.set_var("Up", 3);
        assert_eq!(env.var("up"), 0);
    }

    #[test]
    fn received_message_environment() {
        let msg = PacketBuf::from_bytes(vec![1, 2, 3, 4]);
        let env = Env::for_received_message(&msg);
        assert_eq!(env.reply.as_bytes(), &[1, 2, 3, 4]);
        assert!(env.request_ip.is_empty());
        assert_eq!(env.reply_proto, "icmp");
    }

    #[test]
    fn with_protocol_retags_the_reply_buffer() {
        let msg = PacketBuf::from_bytes(vec![0; 8]);
        let env = Env::for_received_message(&msg).with_protocol("IGMP");
        assert_eq!(env.reply_proto, "igmp");
    }
}
