//! IGMPv1 message codec (RFC 1112, Appendix I) — used by the generality
//! study in §6.3 (host membership query / report).

use crate::buffer::{field, FieldSpec, PacketBuf};
use crate::checksum::checksum_omitting_field;

/// IGMPv1 message length in bytes.
pub const HEADER_LEN: usize = 8;

/// IGMPv1 message types (RFC 1112 uses a version/type nibble pair).
pub mod msg_type {
    /// Host membership query.
    pub const MEMBERSHIP_QUERY: u8 = 1;
    /// Host membership report.
    pub const MEMBERSHIP_REPORT: u8 = 2;
}

/// IGMPv1 field layout.
pub const FIELDS: &[FieldSpec] = &[
    FieldSpec::new("version", 0, 4),
    FieldSpec::new("type", 4, 4),
    FieldSpec::new("unused", 8, 8),
    FieldSpec::new("checksum", 16, 16),
    FieldSpec::new("group_address", 32, 32),
];

const VERSION: &FieldSpec = field(FIELDS, "version");
const TYPE: &FieldSpec = field(FIELDS, "type");
const CHECKSUM: &FieldSpec = field(FIELDS, "checksum");
const GROUP_ADDRESS: &FieldSpec = field(FIELDS, "group_address");

/// Build an IGMPv1 message.
pub fn build_message(msg_type: u8, group_address: u32) -> PacketBuf {
    let mut m = PacketBuf::zeroed(HEADER_LEN);
    m.set_bits(VERSION, 1).expect("field");
    m.set_bits(TYPE, u64::from(msg_type)).expect("field");
    m.set_bits(GROUP_ADDRESS, u64::from(group_address))
        .expect("field");
    let ck = checksum_omitting_field(m.as_bytes(), CHECKSUM.byte_range().0);
    m.set_bits(CHECKSUM, u64::from(ck)).expect("field");
    m
}

/// Verify the IGMP checksum.
pub fn checksum_ok(m: &PacketBuf) -> bool {
    m.len() >= HEADER_LEN && crate::checksum::ones_complement_sum(m.as_bytes()) == 0xFFFF
}

/// Given a membership query, construct the report a host should answer
/// with for `group` (per RFC 1112: reports carry the group address).
pub fn respond_to_query(query: &PacketBuf, group: u32) -> Option<PacketBuf> {
    if query.get_bits(TYPE).ok()? != u64::from(msg_type::MEMBERSHIP_QUERY) {
        return None;
    }
    Some(build_message(msg_type::MEMBERSHIP_REPORT, group))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::ipv4::addr;

    #[test]
    fn query_is_well_formed() {
        let q = build_message(msg_type::MEMBERSHIP_QUERY, 0);
        assert_eq!(q.get_field(FIELDS, "version").unwrap(), 1);
        assert_eq!(q.get_field(FIELDS, "type").unwrap(), 1);
        assert_eq!(q.get_field(FIELDS, "group_address").unwrap(), 0);
        assert!(checksum_ok(&q));
    }

    #[test]
    fn report_carries_group_address() {
        let group = addr(224, 0, 0, 251);
        let r = build_message(msg_type::MEMBERSHIP_REPORT, group);
        assert_eq!(
            r.get_field(FIELDS, "group_address").unwrap(),
            u64::from(group)
        );
        assert!(checksum_ok(&r));
    }

    #[test]
    fn host_responds_to_query_with_report() {
        let q = build_message(msg_type::MEMBERSHIP_QUERY, 0);
        let group = addr(224, 1, 2, 3);
        let r = respond_to_query(&q, group).unwrap();
        assert_eq!(
            r.get_field(FIELDS, "type").unwrap(),
            u64::from(msg_type::MEMBERSHIP_REPORT)
        );
        assert_eq!(
            r.get_field(FIELDS, "group_address").unwrap(),
            u64::from(group)
        );
    }

    #[test]
    fn report_is_not_answered() {
        let r = build_message(msg_type::MEMBERSHIP_REPORT, addr(224, 0, 0, 1));
        assert!(respond_to_query(&r, addr(224, 0, 0, 1)).is_none());
    }

    #[test]
    fn corrupted_message_fails_checksum() {
        let mut q = build_message(msg_type::MEMBERSHIP_QUERY, 0);
        q.as_bytes_mut()[5] ^= 0xFF;
        assert!(!checksum_ok(&q));
    }
}
