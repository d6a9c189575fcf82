//! IPv4 header codec (RFC 791) — the lower-layer protocol the static
//! framework exposes to ICMP/IGMP/UDP code.

use crate::buffer::{field, FieldSpec, PacketBuf};
use crate::checksum::checksum_omitting_field;

/// Fixed IPv4 header length (no options), in bytes.
pub const HEADER_LEN: usize = 20;

/// Protocol numbers used in this workspace.
pub const PROTO_ICMP: u8 = 1;
/// IGMP protocol number.
pub const PROTO_IGMP: u8 = 2;
/// UDP protocol number.
pub const PROTO_UDP: u8 = 17;

/// IPv4 field layout (no options).
pub const FIELDS: &[FieldSpec] = &[
    FieldSpec::new("version", 0, 4),
    FieldSpec::new("ihl", 4, 4),
    FieldSpec::new("type_of_service", 8, 8),
    FieldSpec::new("total_length", 16, 16),
    FieldSpec::new("identification", 32, 16),
    FieldSpec::new("flags", 48, 3),
    FieldSpec::new("fragment_offset", 51, 13),
    FieldSpec::new("ttl", 64, 8),
    FieldSpec::new("protocol", 72, 8),
    FieldSpec::new("header_checksum", 80, 16),
    FieldSpec::new("source_address", 96, 32),
    FieldSpec::new("destination_address", 128, 32),
];

const VERSION: &FieldSpec = field(FIELDS, "version");
const IHL: &FieldSpec = field(FIELDS, "ihl");
pub(crate) const TYPE_OF_SERVICE: &FieldSpec = field(FIELDS, "type_of_service");
const TOTAL_LENGTH: &FieldSpec = field(FIELDS, "total_length");
pub(crate) const TTL: &FieldSpec = field(FIELDS, "ttl");
pub(crate) const PROTOCOL: &FieldSpec = field(FIELDS, "protocol");
const HEADER_CHECKSUM: &FieldSpec = field(FIELDS, "header_checksum");
const SOURCE_ADDRESS: &FieldSpec = field(FIELDS, "source_address");
pub(crate) const DESTINATION_ADDRESS: &FieldSpec = field(FIELDS, "destination_address");

/// An IPv4 address as a u32 (network order when serialised).
pub const fn addr(a: u8, b: u8, c: u8, d: u8) -> u32 {
    u32::from_be_bytes([a, b, c, d])
}

/// Render an address for diagnostics.
pub fn addr_to_string(a: u32) -> String {
    let b = a.to_be_bytes();
    format!("{}.{}.{}.{}", b[0], b[1], b[2], b[3])
}

/// Build an IPv4 packet wrapping `payload`.
///
/// # Panics
///
/// Panics if the packet would exceed the 65,535 bytes its `total_length`
/// field can state, i.e. if `payload` is longer than 65,515 bytes.
pub fn build_packet(src: u32, dst: u32, protocol: u8, ttl: u8, payload: &[u8]) -> PacketBuf {
    let total_len = HEADER_LEN + payload.len();
    let Ok(total_length) = u16::try_from(total_len) else {
        panic!("an IPv4 packet of {total_len} bytes overflows its 16-bit total_length field");
    };
    let mut buf = PacketBuf::zeroed_with_payload(HEADER_LEN, payload);
    buf.set_bits(VERSION, 4).expect("field");
    buf.set_bits(IHL, 5).expect("field");
    buf.set_bits(TOTAL_LENGTH, u64::from(total_length))
        .expect("field");
    buf.set_bits(TTL, u64::from(ttl)).expect("field");
    buf.set_bits(PROTOCOL, u64::from(protocol)).expect("field");
    buf.set_bits(SOURCE_ADDRESS, u64::from(src)).expect("field");
    buf.set_bits(DESTINATION_ADDRESS, u64::from(dst))
        .expect("field");
    refresh_checksum(&mut buf);
    buf
}

/// Recompute and store the header checksum (after mutating header fields).
pub fn refresh_checksum(packet: &mut PacketBuf) {
    if packet.len() < HEADER_LEN {
        return;
    }
    let offset = HEADER_CHECKSUM.byte_range().0;
    let ck = checksum_omitting_field(&packet.as_bytes()[..HEADER_LEN], offset);
    packet
        .set_bits(HEADER_CHECKSUM, u64::from(ck))
        .expect("header present");
}

/// Verify the header checksum.
pub fn checksum_ok(packet: &PacketBuf) -> bool {
    if packet.len() < HEADER_LEN {
        return false;
    }
    crate::checksum::ones_complement_sum(&packet.as_bytes()[..HEADER_LEN]) == 0xFFFF
}

/// The source address, read at its fixed offset (0 when the buffer is
/// shorter than a header).  Per-packet paths use this instead of a
/// string-keyed [`FIELDS`] scan.
pub fn source_address(packet: &PacketBuf) -> u32 {
    let b = packet.as_bytes();
    match b.get(12..16) {
        Some(w) => u32::from_be_bytes([w[0], w[1], w[2], w[3]]),
        None => 0,
    }
}

/// The destination address at its fixed offset (0 when too short).
pub fn destination_address(packet: &PacketBuf) -> u32 {
    let b = packet.as_bytes();
    match b.get(16..20) {
        Some(w) => u32::from_be_bytes([w[0], w[1], w[2], w[3]]),
        None => 0,
    }
}

/// The payload (everything after the fixed header).
pub fn payload(packet: &PacketBuf) -> &[u8] {
    if packet.len() <= HEADER_LEN {
        &[]
    } else {
        &packet.as_bytes()[HEADER_LEN..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_offset_address_reads_match_the_field_table() {
        let p = build_packet(addr(10, 0, 1, 100), addr(10, 0, 1, 1), PROTO_ICMP, 64, b"x");
        assert_eq!(
            u64::from(source_address(&p)),
            p.get_field(FIELDS, "source_address").unwrap()
        );
        assert_eq!(
            u64::from(destination_address(&p)),
            p.get_field(FIELDS, "destination_address").unwrap()
        );
        assert_eq!(source_address(&PacketBuf::new()), 0);
        assert_eq!(destination_address(&PacketBuf::new()), 0);
    }

    #[test]
    fn build_produces_valid_header() {
        let p = build_packet(
            addr(10, 0, 1, 5),
            addr(192, 168, 2, 9),
            PROTO_ICMP,
            64,
            b"hello",
        );
        assert_eq!(p.get_field(FIELDS, "version").unwrap(), 4);
        assert_eq!(p.get_field(FIELDS, "ihl").unwrap(), 5);
        assert_eq!(p.get_field(FIELDS, "total_length").unwrap() as usize, 25);
        assert_eq!(
            p.get_field(FIELDS, "protocol").unwrap(),
            u64::from(PROTO_ICMP)
        );
        assert_eq!(p.get_field(FIELDS, "ttl").unwrap(), 64);
        assert!(checksum_ok(&p));
        assert_eq!(payload(&p), b"hello");
    }

    #[test]
    fn addresses_round_trip() {
        let a = addr(172, 64, 3, 1);
        let p = build_packet(a, addr(10, 0, 1, 1), PROTO_UDP, 32, &[]);
        assert_eq!(p.get_field(FIELDS, "source_address").unwrap(), u64::from(a));
        assert_eq!(addr_to_string(a), "172.64.3.1");
    }

    #[test]
    fn refresh_checksum_after_ttl_change() {
        let mut p = build_packet(
            addr(10, 0, 1, 5),
            addr(10, 0, 2, 5),
            PROTO_ICMP,
            64,
            &[1, 2, 3],
        );
        p.set_field(FIELDS, "ttl", 63).unwrap();
        assert!(!checksum_ok(&p), "stale checksum should fail");
        refresh_checksum(&mut p);
        assert!(checksum_ok(&p));
    }

    #[test]
    fn corrupted_header_fails_checksum() {
        let mut p = build_packet(addr(1, 2, 3, 4), addr(5, 6, 7, 8), PROTO_ICMP, 64, &[]);
        p.as_bytes_mut()[12] ^= 0x40;
        assert!(!checksum_ok(&p));
    }

    #[test]
    fn the_largest_packet_states_its_length() {
        let p = build_packet(1, 2, PROTO_UDP, 64, &vec![0xA5; 65_515]);
        assert_eq!(p.len(), 65_535);
        assert_eq!(p.get_field(FIELDS, "total_length").unwrap(), 65_535);
        assert!(checksum_ok(&p));
    }

    #[test]
    #[should_panic(expected = "IPv4 packet of 65536 bytes overflows")]
    fn a_payload_too_long_for_total_length_panics() {
        build_packet(1, 2, PROTO_UDP, 64, &vec![0; 65_516]);
    }

    #[test]
    fn short_packet_is_not_valid() {
        let p = PacketBuf::from_bytes(vec![0x45, 0x00, 0x00]);
        assert!(!checksum_ok(&p));
        assert_eq!(payload(&p), &[] as &[u8]);
    }
}
