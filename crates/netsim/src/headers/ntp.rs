//! NTPv1 packet codec (RFC 1059, Appendix B) plus the peer-variable model
//! needed by the timeout-procedure sentence in Table 11.

use crate::buffer::{field, FieldSpec, PacketBuf};

/// NTP packet header length (no authenticator), in bytes.
pub const HEADER_LEN: usize = 48;

/// NTP association modes (RFC 1059).
pub mod mode {
    /// Symmetric active.
    pub const SYMMETRIC_ACTIVE: u8 = 1;
    /// Symmetric passive.
    pub const SYMMETRIC_PASSIVE: u8 = 2;
    /// Client.
    pub const CLIENT: u8 = 3;
    /// Server.
    pub const SERVER: u8 = 4;
    /// Broadcast.
    pub const BROADCAST: u8 = 5;
}

/// NTP field layout (RFC 1059, Appendix B).
pub const FIELDS: &[FieldSpec] = &[
    FieldSpec::new("leap_indicator", 0, 2),
    FieldSpec::new("version", 2, 3),
    FieldSpec::new("mode", 5, 3),
    FieldSpec::new("stratum", 8, 8),
    FieldSpec::new("poll", 16, 8),
    FieldSpec::new("precision", 24, 8),
    FieldSpec::new("root_delay", 32, 32),
    FieldSpec::new("root_dispersion", 64, 32),
    FieldSpec::new("reference_identifier", 96, 32),
    FieldSpec::new("reference_timestamp", 128, 64),
    FieldSpec::new("originate_timestamp", 192, 64),
    FieldSpec::new("receive_timestamp", 256, 64),
    FieldSpec::new("transmit_timestamp", 320, 64),
];

const LEAP_INDICATOR: &FieldSpec = field(FIELDS, "leap_indicator");
pub(crate) const VERSION: &FieldSpec = field(FIELDS, "version");
pub(crate) const MODE: &FieldSpec = field(FIELDS, "mode");
const STRATUM: &FieldSpec = field(FIELDS, "stratum");
pub(crate) const ORIGINATE_TIMESTAMP: &FieldSpec = field(FIELDS, "originate_timestamp");
pub(crate) const RECEIVE_TIMESTAMP: &FieldSpec = field(FIELDS, "receive_timestamp");
pub(crate) const TRANSMIT_TIMESTAMP: &FieldSpec = field(FIELDS, "transmit_timestamp");

/// Build an NTP packet.
pub fn build_packet(
    leap: u8,
    version: u8,
    mode: u8,
    stratum: u8,
    transmit_timestamp: u64,
) -> PacketBuf {
    let mut p = PacketBuf::zeroed(HEADER_LEN);
    p.set_bits(LEAP_INDICATOR, u64::from(leap)).expect("field");
    p.set_bits(VERSION, u64::from(version)).expect("field");
    p.set_bits(MODE, u64::from(mode)).expect("field");
    p.set_bits(STRATUM, u64::from(stratum)).expect("field");
    p.set_bits(TRANSMIT_TIMESTAMP, transmit_timestamp)
        .expect("field");
    p
}

/// Encapsulate an NTP packet in UDP (Appendix A: NTP runs over UDP port 123).
pub fn encapsulate_in_udp(
    src_addr: u32,
    dst_addr: u32,
    src_port: u16,
    ntp: &PacketBuf,
) -> PacketBuf {
    super::udp::build_datagram(
        src_addr,
        dst_addr,
        src_port,
        super::udp::NTP_PORT,
        ntp.as_bytes(),
    )
}

/// The peer variables involved in the timeout-procedure sentence
/// (Table 11): the peer timer and the timer threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeerVariables {
    /// `peer.timer` — seconds since the last update.
    pub timer: u64,
    /// `peer.threshold` — the timer threshold variable.
    pub threshold: u64,
    /// Current association mode.
    pub mode: u8,
}

impl PeerVariables {
    /// The RFC's trigger condition: the timeout procedure is called in
    /// client and symmetric modes when the peer timer reaches the threshold.
    pub fn timeout_due(&self) -> bool {
        let mode_ok = matches!(
            self.mode,
            mode::CLIENT | mode::SYMMETRIC_ACTIVE | mode::SYMMETRIC_PASSIVE
        );
        mode_ok && self.timer >= self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::ipv4::addr;

    #[test]
    fn packet_fields_round_trip() {
        let p = build_packet(0, 1, mode::CLIENT, 2, 0x0123_4567_89AB_CDEF);
        assert_eq!(p.len(), HEADER_LEN);
        assert_eq!(p.get_field(FIELDS, "version").unwrap(), 1);
        assert_eq!(
            p.get_field(FIELDS, "mode").unwrap(),
            u64::from(mode::CLIENT)
        );
        assert_eq!(p.get_field(FIELDS, "stratum").unwrap(), 2);
        assert_eq!(
            p.get_field(FIELDS, "transmit_timestamp").unwrap(),
            0x0123_4567_89AB_CDEF
        );
    }

    #[test]
    fn leap_version_mode_share_first_byte() {
        let p = build_packet(3, 7, 7, 0, 0);
        assert_eq!(p.as_bytes()[0], 0b11_111_111);
    }

    #[test]
    fn udp_encapsulation_targets_port_123() {
        let ntp = build_packet(0, 1, mode::CLIENT, 3, 42);
        let udp = encapsulate_in_udp(addr(10, 0, 1, 5), addr(10, 0, 2, 5), 45000, &ntp);
        assert_eq!(
            udp.get_field(super::super::udp::FIELDS, "destination_port")
                .unwrap(),
            u64::from(super::super::udp::NTP_PORT)
        );
        assert_eq!(super::super::udp::payload(&udp), ntp.as_bytes());
        assert!(super::super::udp::checksum_ok(
            addr(10, 0, 1, 5),
            addr(10, 0, 2, 5),
            &udp
        ));
    }

    #[test]
    fn timeout_condition_matches_table11_semantics() {
        // Fires in client mode once the timer reaches the threshold.
        let mut v = PeerVariables {
            timer: 64,
            threshold: 64,
            mode: mode::CLIENT,
        };
        assert!(v.timeout_due());
        v.timer = 63;
        assert!(!v.timeout_due());
        // Symmetric modes also fire ("and" in the RFC means OR — §7).
        v = PeerVariables {
            timer: 100,
            threshold: 64,
            mode: mode::SYMMETRIC_ACTIVE,
        };
        assert!(v.timeout_due());
        // Server/broadcast modes never fire.
        v.mode = mode::SERVER;
        assert!(!v.timeout_due());
        v.mode = mode::BROADCAST;
        assert!(!v.timeout_due());
    }
}
