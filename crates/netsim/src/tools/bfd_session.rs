//! The BFD session (§6.4): its wire format and pluggable endpoint role.
//!
//! Two endpoints exchange control packets until both sessions reach Up
//! (Down → Init → Up).  The reception behaviour of each endpoint is
//! pluggable — the hand-written [`ReferenceBfdEndpoint`] (built on
//! [`bfd::session_state_transition`]) or SAGE-generated state-management
//! code — while the environment RFC 5880 assumes, UDP/IP encapsulation on
//! the BFD control port, lives here once.

use crate::buffer::PacketBuf;
use crate::headers::{bfd, ipv4, udp};

/// The destination UDP port for BFD single-hop control packets (RFC 5881).
pub const BFD_CONTROL_PORT: u16 = 3784;

/// The UDP source port BFD endpoints transmit control packets from.
pub const SOURCE_PORT: u16 = 49152;

/// One side of a BFD session — the role filled by SAGE-generated code.
pub trait BfdEndpoint {
    /// The session's current state.
    fn state(&self) -> bfd::SessionState;
    /// Process one received control packet, updating the session state.
    fn receive(&mut self, packet: &PacketBuf);
    /// Build the control packet this endpoint currently transmits.
    fn control_packet(&self) -> PacketBuf;

    /// The first execution error since the last call, if any, dropping
    /// the rest; soak containment charges it to the error budget.
    /// Hand-written roles never fail and keep the default.
    fn take_error(&mut self) -> Option<String> {
        None
    }
}

/// The hand-written reference endpoint, used as ground truth in parity
/// tests.  Discriminators are statically configured, as in the paper's
/// testbed.
#[derive(Debug, Clone)]
pub struct ReferenceBfdEndpoint {
    /// The local session variables.
    pub session: bfd::SessionVariables,
}

impl ReferenceBfdEndpoint {
    /// A Down session with the given local/remote discriminator pair.
    pub fn new(local_discr: u32, remote_discr: u32) -> ReferenceBfdEndpoint {
        ReferenceBfdEndpoint {
            session: bfd::SessionVariables {
                local_discr,
                remote_discr,
                ..bfd::SessionVariables::default()
            },
        }
    }
}

impl BfdEndpoint for ReferenceBfdEndpoint {
    fn state(&self) -> bfd::SessionState {
        self.session.session_state
    }

    fn receive(&mut self, packet: &PacketBuf) {
        // The §6.8.6 discard rules first.
        if packet.get_bits(bfd::VERSION).unwrap_or(0) != 1
            || packet.get_bits(bfd::DETECT_MULT).unwrap_or(0) == 0
            || packet.get_bits(bfd::MY_DISCRIMINATOR).unwrap_or(0) == 0
        {
            return;
        }
        let your_discr = packet.get_bits(bfd::YOUR_DISCRIMINATOR).unwrap_or(0) as u32;
        if your_discr != 0 && your_discr != self.session.local_discr {
            return;
        }
        let received = bfd::SessionState::from_code(packet.get_bits(bfd::STATE).unwrap_or(0) as u8)
            .unwrap_or(bfd::SessionState::Down);
        // "If the Your Discriminator field is zero and the State field is
        //  not Down or AdminDown, the packet MUST be discarded."
        if your_discr == 0
            && !matches!(
                received,
                bfd::SessionState::Down | bfd::SessionState::AdminDown
            )
        {
            return;
        }
        if self.session.session_state == bfd::SessionState::AdminDown {
            return;
        }
        self.session.remote_session_state = received;
        self.session.remote_discr = packet.get_bits(bfd::MY_DISCRIMINATOR).unwrap_or(0) as u32;
        self.session.remote_demand_mode = packet.get_bits(bfd::DEMAND).unwrap_or(0) == 1;
        self.session.session_state =
            bfd::session_state_transition(self.session.session_state, received);
        if self.session.remote_demand_mode
            && self.session.session_state == bfd::SessionState::Up
            && self.session.remote_session_state == bfd::SessionState::Up
        {
            self.session.periodic_transmission_active = false;
        }
    }

    fn control_packet(&self) -> PacketBuf {
        bfd::build_control_packet(
            self.session.session_state,
            self.session.local_discr,
            self.session.remote_discr,
            3,
            self.session.demand_mode,
        )
    }
}

/// A `control` packet from `src` to `dst`, UDP/IP-encapsulated on the BFD
/// control port with TTL 255 (RFC 5881's single-hop rule).
pub fn control_datagram(src: u32, dst: u32, control: &PacketBuf) -> PacketBuf {
    let datagram = udp::build_datagram(src, dst, SOURCE_PORT, BFD_CONTROL_PORT, control.as_bytes());
    ipv4::build_packet(src, dst, ipv4::PROTO_UDP, 255, datagram.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfd::SessionState::{Down, Init, Up};

    #[test]
    fn wrong_discriminator_and_malformed_packets_are_discarded() {
        let mut b = ReferenceBfdEndpoint::new(9, 7);
        // Unknown session: nonzero Your Discriminator that selects nothing.
        b.receive(&bfd::build_control_packet(Down, 7, 999, 3, false));
        assert_eq!(b.state(), Down, "discarded packet must not transition");
        assert_eq!(b.session.remote_discr, 7, "no bookkeeping on discard");
        // Zero Detect Mult.
        b.receive(&bfd::build_control_packet(Down, 7, 9, 0, false));
        assert_eq!(b.state(), Down);
        // Zero My Discriminator.
        b.receive(&bfd::build_control_packet(Down, 0, 9, 3, false));
        assert_eq!(b.state(), Down);
        // A well-formed packet then transitions Down → Init.
        b.receive(&bfd::build_control_packet(Down, 7, 9, 3, false));
        assert_eq!(b.state(), Init);
    }

    #[test]
    fn zero_your_discriminator_is_accepted_only_for_down_states() {
        // "If the Your Discriminator field is zero and the State field is
        //  not Down or AdminDown, the packet MUST be discarded."
        let mut b = ReferenceBfdEndpoint::new(9, 7);
        b.receive(&bfd::build_control_packet(Init, 7, 0, 3, false));
        assert_eq!(b.state(), Down, "Init with zero discriminator: discard");
        b.receive(&bfd::build_control_packet(Up, 7, 0, 3, false));
        assert_eq!(b.state(), Down, "Up with zero discriminator: discard");
        // State Down with zero discriminator is the bootstrap case.
        b.receive(&bfd::build_control_packet(Down, 7, 0, 3, false));
        assert_eq!(b.state(), Init);
    }
}
