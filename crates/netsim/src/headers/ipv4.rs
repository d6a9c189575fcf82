//! IPv4 header codec (RFC 791) — the lower-layer protocol the static
//! framework exposes to ICMP/IGMP/UDP code.

use crate::buffer::{FieldSpec, PacketBuf};
use crate::checksum::checksum_with_zeroed_field;

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
pub fn build_packet(src: u32, dst: u32, protocol: u8, ttl: u8, payload: &[u8]) -> PacketBuf {
    let total_len = HEADER_LEN + payload.len();
    let mut buf = PacketBuf::zeroed(HEADER_LEN);
    buf.set_field(FIELDS, "version", 4).expect("field");
    buf.set_field(FIELDS, "ihl", 5).expect("field");
    buf.set_field(FIELDS, "total_length", total_len as u64)
        .expect("field");
    buf.set_field(FIELDS, "ttl", u64::from(ttl)).expect("field");
    buf.set_field(FIELDS, "protocol", u64::from(protocol))
        .expect("field");
    buf.set_field(FIELDS, "source_address", u64::from(src))
        .expect("field");
    buf.set_field(FIELDS, "destination_address", u64::from(dst))
        .expect("field");
    let ck = checksum_with_zeroed_field(&buf.as_bytes()[..HEADER_LEN], 10);
    buf.set_field(FIELDS, "header_checksum", u64::from(ck))
        .expect("field");
    buf.extend_from_slice(payload);
    buf
}

/// Recompute and store the header checksum (after mutating header fields).
pub fn refresh_checksum(packet: &mut PacketBuf) {
    if packet.len() < HEADER_LEN {
        return;
    }
    let ck = checksum_with_zeroed_field(&packet.as_bytes()[..HEADER_LEN], 10);
    packet
        .set_field(FIELDS, "header_checksum", u64::from(ck))
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
    fn short_packet_is_not_valid() {
        let p = PacketBuf::from_bytes(vec![0x45, 0x00, 0x00]);
        assert!(!checksum_ok(&p));
        assert_eq!(payload(&p), &[] as &[u8]);
    }
}
