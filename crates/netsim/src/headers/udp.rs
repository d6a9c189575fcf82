//! UDP header codec (RFC 768) — needed for NTP encapsulation (§6.3).

use super::ipv4;
use crate::buffer::{FieldSpec, PacketBuf};
use crate::checksum::ones_complement_checksum;

/// UDP header length in bytes.
pub const HEADER_LEN: usize = 8;

/// The well-known NTP port.
pub const NTP_PORT: u16 = 123;

/// UDP field layout.
pub const FIELDS: &[FieldSpec] = &[
    FieldSpec::new("source_port", 0, 16),
    FieldSpec::new("destination_port", 16, 16),
    FieldSpec::new("length", 32, 16),
    FieldSpec::new("checksum", 48, 16),
];

/// Build a UDP datagram.  The checksum is computed over the RFC 768
/// pseudo-header, the UDP header and the payload.
pub fn build_datagram(
    src_addr: u32,
    dst_addr: u32,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> PacketBuf {
    let length = (HEADER_LEN + payload.len()) as u16;
    let mut d = PacketBuf::zeroed(HEADER_LEN);
    d.set_field(FIELDS, "source_port", u64::from(src_port))
        .expect("field");
    d.set_field(FIELDS, "destination_port", u64::from(dst_port))
        .expect("field");
    d.set_field(FIELDS, "length", u64::from(length))
        .expect("field");
    d.extend_from_slice(payload);
    let ck = compute_checksum(src_addr, dst_addr, d.as_bytes());
    // Per RFC 768, a computed checksum of zero is transmitted as all ones.
    let ck = if ck == 0 { 0xFFFF } else { ck };
    d.set_field(FIELDS, "checksum", u64::from(ck))
        .expect("field");
    d
}

/// Compute the UDP checksum (pseudo-header + segment with zeroed checksum).
pub fn compute_checksum(src_addr: u32, dst_addr: u32, segment: &[u8]) -> u16 {
    let mut data = Vec::with_capacity(12 + segment.len());
    data.extend_from_slice(&src_addr.to_be_bytes());
    data.extend_from_slice(&dst_addr.to_be_bytes());
    data.push(0);
    data.push(ipv4::PROTO_UDP);
    data.extend_from_slice(&(segment.len() as u16).to_be_bytes());
    data.extend_from_slice(segment);
    // Zero the checksum field within the copied segment (offset 6 in UDP).
    if data.len() >= 12 + 8 {
        data[12 + 6] = 0;
        data[12 + 7] = 0;
    }
    ones_complement_checksum(&data)
}

/// Verify a UDP datagram's checksum given the pseudo-header addresses.
pub fn checksum_ok(src_addr: u32, dst_addr: u32, segment: &PacketBuf) -> bool {
    if segment.len() < HEADER_LEN {
        return false;
    }
    let stored = segment.get_field(FIELDS, "checksum").unwrap_or(0) as u16;
    if stored == 0 {
        // Checksum not used by the sender.
        return true;
    }
    let computed = compute_checksum(src_addr, dst_addr, segment.as_bytes());
    let computed = if computed == 0 { 0xFFFF } else { computed };
    stored == computed
}

/// The UDP payload.
pub fn payload(segment: &PacketBuf) -> &[u8] {
    if segment.len() <= HEADER_LEN {
        &[]
    } else {
        &segment.as_bytes()[HEADER_LEN..]
    }
}

/// A UDP datagram unwrapped from the IPv4 packet that carried it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Received {
    /// The IP source address.
    pub src_addr: u32,
    /// The IP destination address.
    pub dst_addr: u32,
    /// The UDP source port (where a reply goes).
    pub src_port: u16,
    /// The UDP payload.
    pub payload: PacketBuf,
}

/// Unwrap `packet` (a full IPv4 packet) when it carries a UDP datagram
/// addressed to `port`; `None` for any other protocol or port.
pub fn receive(packet: &PacketBuf, port: u16) -> Option<Received> {
    let proto = packet.get_field(ipv4::FIELDS, "protocol").unwrap_or(0) as u8;
    if proto != ipv4::PROTO_UDP {
        return None;
    }
    let datagram = PacketBuf::from_bytes(ipv4::payload(packet).to_vec());
    if datagram.get_field(FIELDS, "destination_port").unwrap_or(0) as u16 != port {
        return None;
    }
    Some(Received {
        src_addr: ipv4::source_address(packet),
        dst_addr: ipv4::destination_address(packet),
        src_port: datagram.get_field(FIELDS, "source_port").unwrap_or(0) as u16,
        payload: PacketBuf::from_bytes(payload(&datagram).to_vec()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::ipv4::addr;

    #[test]
    fn datagram_round_trip() {
        let d = build_datagram(
            addr(10, 0, 1, 5),
            addr(10, 0, 2, 5),
            5000,
            NTP_PORT,
            b"ntp-data",
        );
        assert_eq!(d.get_field(FIELDS, "source_port").unwrap(), 5000);
        assert_eq!(
            d.get_field(FIELDS, "destination_port").unwrap(),
            u64::from(NTP_PORT)
        );
        assert_eq!(d.get_field(FIELDS, "length").unwrap() as usize, 8 + 8);
        assert_eq!(payload(&d), b"ntp-data");
        assert!(checksum_ok(addr(10, 0, 1, 5), addr(10, 0, 2, 5), &d));
    }

    #[test]
    fn checksum_depends_on_pseudo_header() {
        let d = build_datagram(addr(10, 0, 1, 5), addr(10, 0, 2, 5), 5000, 53, b"x");
        assert!(checksum_ok(addr(10, 0, 1, 5), addr(10, 0, 2, 5), &d));
        assert!(!checksum_ok(addr(10, 0, 1, 6), addr(10, 0, 2, 5), &d));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut d = build_datagram(addr(1, 1, 1, 1), addr(2, 2, 2, 2), 1, 2, b"hello");
        let n = d.len();
        d.as_bytes_mut()[n - 1] ^= 0x01;
        assert!(!checksum_ok(addr(1, 1, 1, 1), addr(2, 2, 2, 2), &d));
    }

    #[test]
    fn zero_checksum_means_unused() {
        let mut d = build_datagram(addr(1, 1, 1, 1), addr(2, 2, 2, 2), 1, 2, b"hello");
        d.set_field(FIELDS, "checksum", 0).unwrap();
        assert!(checksum_ok(addr(9, 9, 9, 9), addr(8, 8, 8, 8), &d));
    }

    #[test]
    fn empty_payload() {
        let d = build_datagram(addr(1, 1, 1, 1), addr(2, 2, 2, 2), 1, 2, &[]);
        assert_eq!(d.len(), HEADER_LEN);
        assert_eq!(payload(&d), &[] as &[u8]);
    }
}
