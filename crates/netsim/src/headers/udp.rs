//! UDP header codec (RFC 768) — needed for NTP encapsulation (§6.3).

use super::ipv4;
use crate::buffer::{field, FieldSpec, FieldView, PacketBuf};
use crate::checksum::{checksum_omitting_field, ones_complement_checksum, ones_complement_sum};

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

const SOURCE_PORT: &FieldSpec = field(FIELDS, "source_port");
const DESTINATION_PORT: &FieldSpec = field(FIELDS, "destination_port");
const LENGTH: &FieldSpec = field(FIELDS, "length");
const CHECKSUM: &FieldSpec = field(FIELDS, "checksum");

/// Build a UDP datagram.  The checksum is computed over the RFC 768
/// pseudo-header, the UDP header and the payload.
///
/// # Panics
///
/// Panics if the datagram would exceed the 65,535 bytes its `length`
/// field can state, i.e. if `payload` is longer than 65,527 bytes.
pub fn build_datagram(
    src_addr: u32,
    dst_addr: u32,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> PacketBuf {
    let len = HEADER_LEN + payload.len();
    let Ok(length) = u16::try_from(len) else {
        panic!("a UDP datagram of {len} bytes overflows its 16-bit length field");
    };
    let mut d = PacketBuf::zeroed_with_payload(HEADER_LEN, payload);
    d.set_bits(SOURCE_PORT, u64::from(src_port)).expect("field");
    d.set_bits(DESTINATION_PORT, u64::from(dst_port))
        .expect("field");
    d.set_bits(LENGTH, u64::from(length)).expect("field");
    let ck = compute_checksum(src_addr, dst_addr, d.as_bytes());
    // Per RFC 768, a computed checksum of zero is transmitted as all ones.
    let ck = if ck == 0 { 0xFFFF } else { ck };
    d.set_bits(CHECKSUM, u64::from(ck)).expect("field");
    d
}

/// Compute the UDP checksum: the RFC 768 pseudo-header, then `segment`
/// with its checksum word (when it has one) taken as zero.
pub fn compute_checksum(src_addr: u32, dst_addr: u32, segment: &[u8]) -> u16 {
    let mut pseudo = [0u8; 12];
    pseudo[..4].copy_from_slice(&src_addr.to_be_bytes());
    pseudo[4..8].copy_from_slice(&dst_addr.to_be_bytes());
    pseudo[9] = ipv4::PROTO_UDP;
    pseudo[10..].copy_from_slice(&(segment.len() as u16).to_be_bytes());
    // Twelve bytes keep the segment's words aligned, so the checksum is
    // that of the two partial sums added in ones-complement arithmetic.
    let [a, b] = ones_complement_sum(&pseudo).to_be_bytes();
    let [c, d] = (!checksum_omitting_field(segment, CHECKSUM.byte_range().0)).to_be_bytes();
    ones_complement_checksum(&[a, b, c, d])
}

/// Verify a UDP datagram's checksum given the pseudo-header addresses.
pub fn checksum_ok(src_addr: u32, dst_addr: u32, segment: &PacketBuf) -> bool {
    if segment.len() < HEADER_LEN {
        return false;
    }
    let stored = segment.get_bits(CHECKSUM).unwrap_or(0) as u16;
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
    payload_of(segment.as_bytes())
}

/// The bytes after a UDP header (none when `segment` is shorter).
fn payload_of(segment: &[u8]) -> &[u8] {
    segment.get(HEADER_LEN..).unwrap_or(&[])
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
/// addressed to `port`; `None` for any other protocol or port.  The
/// headers are read where they lie; only the UDP payload is copied.
pub fn receive(packet: &PacketBuf, port: u16) -> Option<Received> {
    if packet.get_bits(ipv4::PROTOCOL).unwrap_or(0) as u8 != ipv4::PROTO_UDP {
        return None;
    }
    let datagram = FieldView::new(ipv4::payload(packet));
    if datagram.get_bits(DESTINATION_PORT).unwrap_or(0) as u16 != port {
        return None;
    }
    Some(Received {
        src_addr: ipv4::source_address(packet),
        dst_addr: ipv4::destination_address(packet),
        src_port: datagram.get_bits(SOURCE_PORT).unwrap_or(0) as u16,
        payload: PacketBuf::from_bytes(payload_of(datagram.as_bytes()).to_vec()),
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
    fn the_largest_datagram_states_its_length() {
        let (src, dst) = (addr(10, 0, 1, 5), addr(10, 0, 2, 5));
        let d = build_datagram(src, dst, 1, 2, &vec![0xA5; 65_527]);
        assert_eq!(d.len(), 65_535);
        assert_eq!(d.get_field(FIELDS, "length").unwrap(), 65_535);
        assert!(checksum_ok(src, dst, &d));
    }

    #[test]
    #[should_panic(expected = "UDP datagram of 65536 bytes overflows")]
    fn a_payload_too_long_for_the_length_field_panics() {
        build_datagram(1, 2, 3, 4, &vec![0; 65_528]);
    }

    #[test]
    fn empty_payload() {
        let d = build_datagram(addr(1, 1, 1, 1), addr(2, 2, 2, 2), 1, 2, &[]);
        assert_eq!(d.len(), HEADER_LEN);
        assert_eq!(payload(&d), &[] as &[u8]);
    }
}
