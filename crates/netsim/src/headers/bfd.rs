//! BFD control-packet codec and session state model (RFC 5880) — the
//! substrate for the state-management study in §6.4.

use crate::buffer::{field, FieldSpec, PacketBuf};

/// Mandatory BFD control packet length (no authentication), in bytes.
pub const HEADER_LEN: usize = 24;

/// BFD session states (RFC 5880 §4.1, the `Sta` field / bfd.SessionState).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionState {
    /// Administratively down.
    AdminDown,
    /// Down.
    Down,
    /// Init.
    Init,
    /// Up.
    Up,
}

impl SessionState {
    /// Wire encoding of the state.
    pub fn code(self) -> u8 {
        match self {
            SessionState::AdminDown => 0,
            SessionState::Down => 1,
            SessionState::Init => 2,
            SessionState::Up => 3,
        }
    }

    /// Decode a wire value.
    pub fn from_code(code: u8) -> Option<SessionState> {
        match code {
            0 => Some(SessionState::AdminDown),
            1 => Some(SessionState::Down),
            2 => Some(SessionState::Init),
            3 => Some(SessionState::Up),
            _ => None,
        }
    }
}

/// BFD control packet field layout (RFC 5880 §4.1).
pub const FIELDS: &[FieldSpec] = &[
    FieldSpec::new("version", 0, 3),
    FieldSpec::new("diag", 3, 5),
    FieldSpec::new("state", 8, 2),
    FieldSpec::new("poll", 10, 1),
    FieldSpec::new("final", 11, 1),
    FieldSpec::new("control_plane_independent", 12, 1),
    FieldSpec::new("authentication_present", 13, 1),
    FieldSpec::new("demand", 14, 1),
    FieldSpec::new("multipoint", 15, 1),
    FieldSpec::new("detect_mult", 16, 8),
    FieldSpec::new("length", 24, 8),
    FieldSpec::new("my_discriminator", 32, 32),
    FieldSpec::new("your_discriminator", 64, 32),
    FieldSpec::new("desired_min_tx_interval", 96, 32),
    FieldSpec::new("required_min_rx_interval", 128, 32),
    FieldSpec::new("required_min_echo_rx_interval", 160, 32),
];

pub(crate) const VERSION: &FieldSpec = field(FIELDS, "version");
pub(crate) const STATE: &FieldSpec = field(FIELDS, "state");
pub(crate) const DEMAND: &FieldSpec = field(FIELDS, "demand");
pub(crate) const DETECT_MULT: &FieldSpec = field(FIELDS, "detect_mult");
const LENGTH: &FieldSpec = field(FIELDS, "length");
pub(crate) const MY_DISCRIMINATOR: &FieldSpec = field(FIELDS, "my_discriminator");
pub(crate) const YOUR_DISCRIMINATOR: &FieldSpec = field(FIELDS, "your_discriminator");

/// Build a BFD control packet.
pub fn build_control_packet(
    state: SessionState,
    my_discriminator: u32,
    your_discriminator: u32,
    detect_mult: u8,
    demand: bool,
) -> PacketBuf {
    let mut p = PacketBuf::zeroed(HEADER_LEN);
    p.set_bits(VERSION, 1).expect("field");
    p.set_bits(STATE, u64::from(state.code())).expect("field");
    p.set_bits(DETECT_MULT, u64::from(detect_mult))
        .expect("field");
    p.set_bits(LENGTH, HEADER_LEN as u64).expect("field");
    p.set_bits(MY_DISCRIMINATOR, u64::from(my_discriminator))
        .expect("field");
    p.set_bits(YOUR_DISCRIMINATOR, u64::from(your_discriminator))
        .expect("field");
    p.set_bits(DEMAND, u64::from(demand)).expect("field");
    p
}

/// The per-session state variables RFC 5880 §6.8.1 defines (the subset the
/// §6.8.6 reception text manipulates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionVariables {
    /// bfd.SessionState
    pub session_state: SessionState,
    /// bfd.RemoteSessionState
    pub remote_session_state: SessionState,
    /// bfd.LocalDiscr
    pub local_discr: u32,
    /// bfd.RemoteDiscr
    pub remote_discr: u32,
    /// bfd.RemoteDemandMode
    pub remote_demand_mode: bool,
    /// bfd.DemandMode
    pub demand_mode: bool,
    /// Whether the local system is currently sending periodic control packets.
    pub periodic_transmission_active: bool,
}

impl Default for SessionVariables {
    fn default() -> Self {
        SessionVariables {
            session_state: SessionState::Down,
            remote_session_state: SessionState::Down,
            local_discr: 0,
            remote_discr: 0,
            remote_demand_mode: false,
            demand_mode: false,
            periodic_transmission_active: true,
        }
    }
}

/// A table of BFD sessions keyed by local discriminator — "select the
/// session with which this BFD packet is associated".
#[derive(Debug, Default)]
pub struct SessionTable {
    sessions: Vec<SessionVariables>,
}

impl SessionTable {
    /// Create an empty table.
    pub fn new() -> SessionTable {
        SessionTable::default()
    }

    /// Add a session and return its local discriminator.
    pub fn add(&mut self, mut session: SessionVariables) -> u32 {
        if session.local_discr == 0 {
            session.local_discr = self.sessions.len() as u32 + 1;
        }
        let discr = session.local_discr;
        self.sessions.push(session);
        discr
    }

    /// Select the session whose local discriminator matches
    /// `your_discriminator` from a received packet.
    pub fn select(&mut self, your_discriminator: u32) -> Option<&mut SessionVariables> {
        self.sessions
            .iter_mut()
            .find(|s| s.local_discr == your_discriminator)
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True if the table has no sessions.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

/// The RFC 5880 §6.8.6 session state transition for one received packet:
/// the rules the corpus carries ("Down + received Init → Up", "Init +
/// received Up → Up", "received AdminDown while not Down → Down") plus the
/// Down + received Down → Init bootstrap rule the excerpt elides (supplied
/// to the generated code through the human-resolution mechanism of §6.5).
///
/// The rules apply *sequentially* on the evolving state, exactly as the
/// generated sequential `if` statements execute, so the reference and the
/// generated code agree packet-for-packet.
pub fn session_state_transition(local: SessionState, received: SessionState) -> SessionState {
    let mut state = local;
    if received == SessionState::AdminDown && state != SessionState::Down {
        state = SessionState::Down;
    }
    if state == SessionState::Down && received == SessionState::Down {
        state = SessionState::Init;
    }
    if state == SessionState::Down && received == SessionState::Init {
        state = SessionState::Up;
    }
    if state == SessionState::Init && received == SessionState::Up {
        state = SessionState::Up;
    }
    state
}

/// The outcome of processing a received control packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReceiveAction {
    /// Packet accepted; session variables updated.
    Accepted,
    /// Packet discarded (with the reason from the RFC text).
    Discarded(&'static str),
}

/// Reference implementation of the RFC 5880 §6.8.6 reception rules covered
/// by the paper's BFD corpus: discriminator-based session selection,
/// remote-state bookkeeping and the Demand-mode transmission rule.  The SAGE
/// pipeline's generated code is checked against this behaviour.
pub fn receive_control_packet(table: &mut SessionTable, packet: &PacketBuf) -> ReceiveAction {
    let version = packet.get_bits(VERSION).unwrap_or(0);
    if version != 1 {
        return ReceiveAction::Discarded("version is not correct");
    }
    let detect_mult = packet.get_bits(DETECT_MULT).unwrap_or(0);
    if detect_mult == 0 {
        return ReceiveAction::Discarded("detect mult is zero");
    }
    let my_discr = packet.get_bits(MY_DISCRIMINATOR).unwrap_or(0);
    if my_discr == 0 {
        return ReceiveAction::Discarded("my discriminator is zero");
    }
    let your_discr = packet.get_bits(YOUR_DISCRIMINATOR).unwrap_or(0) as u32;
    // "If the Your Discriminator field is nonzero, it MUST be used to select
    //  the session ...  If [it is nonzero and] no session is found, the
    //  packet MUST be discarded."  (the paper's rewritten version)
    if your_discr != 0 {
        let Some(session) = table.select(your_discr) else {
            return ReceiveAction::Discarded("no session is found");
        };
        let remote_state = SessionState::from_code(packet.get_bits(STATE).unwrap_or(0) as u8)
            .unwrap_or(SessionState::Down);
        session.remote_session_state = remote_state;
        session.remote_discr = my_discr as u32;
        session.remote_demand_mode = packet.get_bits(DEMAND).unwrap_or(0) == 1;
        // "If bfd.RemoteDemandMode is 1, bfd.SessionState is Up, and
        //  bfd.RemoteSessionState is Up, ... the local system MUST cease the
        //  periodic transmission of BFD Control packets."
        if session.remote_demand_mode
            && session.session_state == SessionState::Up
            && session.remote_session_state == SessionState::Up
        {
            session.periodic_transmission_active = false;
        }
        ReceiveAction::Accepted
    } else {
        ReceiveAction::Discarded("your discriminator is zero and no matching session")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn up_session(discr: u32) -> SessionVariables {
        SessionVariables {
            session_state: SessionState::Up,
            local_discr: discr,
            ..SessionVariables::default()
        }
    }

    #[test]
    fn state_transitions_follow_the_reception_rules() {
        use SessionState::{AdminDown, Down, Init, Up};
        // The three-way handshake path.
        assert_eq!(session_state_transition(Down, Down), Init);
        assert_eq!(session_state_transition(Down, Init), Up);
        assert_eq!(session_state_transition(Init, Up), Up);
        // AdminDown received pulls a live session Down; a Down session stays.
        assert_eq!(session_state_transition(Up, AdminDown), Down);
        assert_eq!(session_state_transition(Init, AdminDown), Down);
        assert_eq!(session_state_transition(Down, AdminDown), Down);
        // No rule fires: state holds.
        assert_eq!(session_state_transition(Up, Up), Up);
        assert_eq!(session_state_transition(Up, Down), Up);
        assert_eq!(session_state_transition(Init, Down), Init);
    }

    #[test]
    fn control_packet_round_trip() {
        let p = build_control_packet(SessionState::Up, 7, 9, 3, true);
        assert_eq!(p.len(), HEADER_LEN);
        assert_eq!(p.get_field(FIELDS, "version").unwrap(), 1);
        assert_eq!(p.get_field(FIELDS, "state").unwrap(), 3);
        assert_eq!(p.get_field(FIELDS, "my_discriminator").unwrap(), 7);
        assert_eq!(p.get_field(FIELDS, "your_discriminator").unwrap(), 9);
        assert_eq!(p.get_field(FIELDS, "demand").unwrap(), 1);
        assert_eq!(p.get_field(FIELDS, "length").unwrap() as usize, HEADER_LEN);
    }

    #[test]
    fn session_state_codes_round_trip() {
        for s in [
            SessionState::AdminDown,
            SessionState::Down,
            SessionState::Init,
            SessionState::Up,
        ] {
            assert_eq!(SessionState::from_code(s.code()), Some(s));
        }
        assert_eq!(SessionState::from_code(9), None);
    }

    #[test]
    fn nonzero_discriminator_selects_session() {
        let mut table = SessionTable::new();
        let discr = table.add(up_session(5));
        let pkt = build_control_packet(SessionState::Up, 42, discr, 3, false);
        assert_eq!(
            receive_control_packet(&mut table, &pkt),
            ReceiveAction::Accepted
        );
        let session = table.select(discr).unwrap();
        assert_eq!(session.remote_session_state, SessionState::Up);
        assert_eq!(session.remote_discr, 42);
    }

    #[test]
    fn unknown_session_is_discarded() {
        let mut table = SessionTable::new();
        table.add(up_session(5));
        let pkt = build_control_packet(SessionState::Up, 42, 999, 3, false);
        assert_eq!(
            receive_control_packet(&mut table, &pkt),
            ReceiveAction::Discarded("no session is found")
        );
    }

    #[test]
    fn demand_mode_ceases_periodic_transmission() {
        let mut table = SessionTable::new();
        let discr = table.add(up_session(1));
        let pkt = build_control_packet(SessionState::Up, 42, discr, 3, true);
        assert_eq!(
            receive_control_packet(&mut table, &pkt),
            ReceiveAction::Accepted
        );
        assert!(!table.select(discr).unwrap().periodic_transmission_active);
    }

    #[test]
    fn demand_mode_without_up_state_keeps_transmitting() {
        let mut table = SessionTable::new();
        let mut s = up_session(1);
        s.session_state = SessionState::Init;
        let discr = table.add(s);
        let pkt = build_control_packet(SessionState::Up, 42, discr, 3, true);
        assert_eq!(
            receive_control_packet(&mut table, &pkt),
            ReceiveAction::Accepted
        );
        assert!(table.select(discr).unwrap().periodic_transmission_active);
    }

    #[test]
    fn malformed_packets_are_discarded() {
        let mut table = SessionTable::new();
        table.add(up_session(1));
        // detect_mult == 0
        let bad = build_control_packet(SessionState::Up, 42, 1, 0, false);
        assert!(matches!(
            receive_control_packet(&mut table, &bad),
            ReceiveAction::Discarded(_)
        ));
        // my discriminator == 0
        let bad2 = build_control_packet(SessionState::Up, 0, 1, 3, false);
        assert!(matches!(
            receive_control_packet(&mut table, &bad2),
            ReceiveAction::Discarded(_)
        ));
    }

    #[test]
    fn session_table_assigns_discriminators() {
        let mut table = SessionTable::new();
        assert!(table.is_empty());
        let d1 = table.add(SessionVariables::default());
        let d2 = table.add(SessionVariables::default());
        assert_ne!(d1, d2);
        assert_eq!(table.len(), 2);
    }
}
