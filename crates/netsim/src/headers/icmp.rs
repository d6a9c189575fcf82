//! ICMP message codec (RFC 792) — the paper's primary case study.
//!
//! All eight message families from the RFC are covered: destination
//! unreachable, time exceeded, parameter problem, source quench, redirect,
//! echo / echo reply, timestamp / timestamp reply and information
//! request / reply.

use crate::buffer::{field, FieldSpec, PacketBuf};
use crate::checksum::checksum_omitting_field;

/// Fixed part of the ICMP header (type, code, checksum, 4 bytes of
/// type-specific data), in bytes.
pub const HEADER_LEN: usize = 8;

/// ICMP message types (RFC 792).
pub mod msg_type {
    /// Echo reply.
    pub const ECHO_REPLY: u8 = 0;
    /// Destination unreachable.
    pub const DEST_UNREACHABLE: u8 = 3;
    /// Source quench.
    pub const SOURCE_QUENCH: u8 = 4;
    /// Redirect.
    pub const REDIRECT: u8 = 5;
    /// Echo (request).
    pub const ECHO: u8 = 8;
    /// Time exceeded.
    pub const TIME_EXCEEDED: u8 = 11;
    /// Parameter problem.
    pub const PARAMETER_PROBLEM: u8 = 12;
    /// Timestamp (request).
    pub const TIMESTAMP: u8 = 13;
    /// Timestamp reply.
    pub const TIMESTAMP_REPLY: u8 = 14;
    /// Information request.
    pub const INFO_REQUEST: u8 = 15;
    /// Information reply.
    pub const INFO_REPLY: u8 = 16;
}

/// Common ICMP field layout.  The second header word is exposed both as a
/// whole (`rest_of_header`) and under the per-message-type names the RFC's
/// field descriptions use.
pub const FIELDS: &[FieldSpec] = &[
    FieldSpec::new("type", 0, 8),
    FieldSpec::new("code", 8, 8),
    FieldSpec::new("checksum", 16, 16),
    FieldSpec::new("rest_of_header", 32, 32),
    FieldSpec::new("unused", 32, 32),
    FieldSpec::new("identifier", 32, 16),
    FieldSpec::new("sequence_number", 48, 16),
    FieldSpec::new("pointer", 32, 8),
    FieldSpec::new("gateway_internet_address", 32, 32),
];

/// Timestamp messages carry three additional 32-bit timestamps.
pub const TIMESTAMP_FIELDS: &[FieldSpec] = &[
    FieldSpec::new("originate_timestamp", 64, 32),
    FieldSpec::new("receive_timestamp", 96, 32),
    FieldSpec::new("transmit_timestamp", 128, 32),
];

/// Length of a timestamp / timestamp reply message (no data), in bytes.
pub const TIMESTAMP_LEN: usize = 20;

pub(crate) const TYPE: &FieldSpec = field(FIELDS, "type");
const CODE: &FieldSpec = field(FIELDS, "code");
const CHECKSUM: &FieldSpec = field(FIELDS, "checksum");
const REST_OF_HEADER: &FieldSpec = field(FIELDS, "rest_of_header");
pub(crate) const IDENTIFIER: &FieldSpec = field(FIELDS, "identifier");
pub(crate) const SEQUENCE_NUMBER: &FieldSpec = field(FIELDS, "sequence_number");
pub(crate) const ORIGINATE_TIMESTAMP: &FieldSpec = field(TIMESTAMP_FIELDS, "originate_timestamp");
const RECEIVE_TIMESTAMP: &FieldSpec = field(TIMESTAMP_FIELDS, "receive_timestamp");
const TRANSMIT_TIMESTAMP: &FieldSpec = field(TIMESTAMP_FIELDS, "transmit_timestamp");

/// Fill in the ICMP checksum over the whole message (header + payload),
/// starting with the ICMP Type — the disambiguated reading of the RFC's
/// checksum sentence.
pub fn finalize_checksum(msg: &mut PacketBuf) {
    let ck = checksum_omitting_field(msg.as_bytes(), CHECKSUM.byte_range().0);
    msg.set_bits(CHECKSUM, u64::from(ck))
        .expect("header present");
}

/// Verify the ICMP checksum over the entire message.
pub fn checksum_ok(msg: &PacketBuf) -> bool {
    msg.len() >= 4 && crate::checksum::ones_complement_sum(msg.as_bytes()) == 0xFFFF
}

/// A `header_len`-byte message of type `msg_type` carrying `identifier`,
/// `sequence` and then `data`; the caller fills in the rest and the
/// checksum.
fn query(
    header_len: usize,
    msg_type: u8,
    identifier: u16,
    sequence: u16,
    data: &[u8],
) -> PacketBuf {
    let mut m = PacketBuf::zeroed_with_payload(header_len, data);
    m.set_bits(TYPE, u64::from(msg_type)).expect("field");
    m.set_bits(IDENTIFIER, u64::from(identifier))
        .expect("field");
    m.set_bits(SEQUENCE_NUMBER, u64::from(sequence))
        .expect("field");
    m
}

/// Build an echo or echo-reply message.
pub fn build_echo(reply: bool, identifier: u16, sequence: u16, data: &[u8]) -> PacketBuf {
    let t = if reply {
        msg_type::ECHO_REPLY
    } else {
        msg_type::ECHO
    };
    let mut m = query(HEADER_LEN, t, identifier, sequence, data);
    finalize_checksum(&mut m);
    m
}

/// Build an error message (destination unreachable, time exceeded, source
/// quench or parameter problem) quoting the offending datagram: the internet
/// header plus the first 64 bits of the original datagram's data.
pub fn build_error(
    msg_type: u8,
    code: u8,
    second_word: u32,
    original_datagram: &[u8],
) -> PacketBuf {
    let mut m = PacketBuf::zeroed_with_payload(HEADER_LEN, quoted(original_datagram));
    m.set_bits(TYPE, u64::from(msg_type)).expect("field");
    m.set_bits(CODE, u64::from(code)).expect("field");
    m.set_bits(REST_OF_HEADER, u64::from(second_word))
        .expect("field");
    finalize_checksum(&mut m);
    m
}

/// The portion of the original datagram quoted in ICMP error messages:
/// its IP header plus the first 64 bits (8 bytes) of its data.
pub fn quoted_payload(original_datagram: &[u8]) -> Vec<u8> {
    quoted(original_datagram).to_vec()
}

/// [`quoted_payload`], borrowed from the original.
fn quoted(original_datagram: &[u8]) -> &[u8] {
    let ip_header = super::ipv4::HEADER_LEN.min(original_datagram.len());
    let end = (ip_header + 8).min(original_datagram.len());
    &original_datagram[..end]
}

/// Build a timestamp or timestamp-reply message.
pub fn build_timestamp(
    reply: bool,
    identifier: u16,
    sequence: u16,
    originate: u32,
    receive: u32,
    transmit: u32,
) -> PacketBuf {
    let t = if reply {
        msg_type::TIMESTAMP_REPLY
    } else {
        msg_type::TIMESTAMP
    };
    let mut m = query(TIMESTAMP_LEN, t, identifier, sequence, &[]);
    m.set_bits(ORIGINATE_TIMESTAMP, u64::from(originate))
        .expect("field");
    m.set_bits(RECEIVE_TIMESTAMP, u64::from(receive))
        .expect("field");
    m.set_bits(TRANSMIT_TIMESTAMP, u64::from(transmit))
        .expect("field");
    finalize_checksum(&mut m);
    m
}

/// Build an information request / reply message (header only, no data).
pub fn build_info(reply: bool, identifier: u16, sequence: u16) -> PacketBuf {
    let t = if reply {
        msg_type::INFO_REPLY
    } else {
        msg_type::INFO_REQUEST
    };
    let mut m = query(HEADER_LEN, t, identifier, sequence, &[]);
    finalize_checksum(&mut m);
    m
}

/// A human-readable name for an ICMP type (used by the tcpdump substitute).
pub fn type_name(t: u8) -> &'static str {
    match t {
        msg_type::ECHO_REPLY => "echo reply",
        msg_type::DEST_UNREACHABLE => "destination unreachable",
        msg_type::SOURCE_QUENCH => "source quench",
        msg_type::REDIRECT => "redirect",
        msg_type::ECHO => "echo request",
        msg_type::TIME_EXCEEDED => "time exceeded",
        msg_type::PARAMETER_PROBLEM => "parameter problem",
        msg_type::TIMESTAMP => "timestamp request",
        msg_type::TIMESTAMP_REPLY => "timestamp reply",
        msg_type::INFO_REQUEST => "information request",
        msg_type::INFO_REPLY => "information reply",
        _ => "unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_request_and_reply_are_well_formed() {
        let req = build_echo(false, 0x1234, 1, b"abcdefgh");
        assert_eq!(req.get_field(FIELDS, "type").unwrap(), 8);
        assert_eq!(req.get_field(FIELDS, "identifier").unwrap(), 0x1234);
        assert!(checksum_ok(&req));
        let rep = build_echo(true, 0x1234, 1, b"abcdefgh");
        assert_eq!(rep.get_field(FIELDS, "type").unwrap(), 0);
        assert!(checksum_ok(&rep));
        // Same id/seq/data, different type → different checksum.
        assert_ne!(
            req.get_field(FIELDS, "checksum").unwrap(),
            rep.get_field(FIELDS, "checksum").unwrap()
        );
    }

    #[test]
    fn checksum_covers_payload() {
        let mut m = build_echo(false, 1, 1, b"payload");
        assert!(checksum_ok(&m));
        let len = m.len();
        m.as_bytes_mut()[len - 1] ^= 0xFF;
        assert!(
            !checksum_ok(&m),
            "corrupting payload must break the checksum"
        );
    }

    #[test]
    fn error_message_quotes_header_plus_64_bits() {
        let original = super::super::ipv4::build_packet(
            super::super::ipv4::addr(10, 0, 1, 5),
            super::super::ipv4::addr(8, 8, 8, 8),
            super::super::ipv4::PROTO_UDP,
            64,
            b"0123456789abcdef",
        );
        let err = build_error(msg_type::DEST_UNREACHABLE, 0, 0, original.as_bytes());
        assert_eq!(err.get_field(FIELDS, "type").unwrap(), 3);
        // 8-byte ICMP header + 20-byte IP header + 8 bytes of data.
        assert_eq!(err.len(), 8 + 20 + 8);
        assert!(checksum_ok(&err));
    }

    #[test]
    fn quoted_payload_handles_short_datagrams() {
        assert_eq!(quoted_payload(&[1, 2, 3]), vec![1, 2, 3]);
        let long = vec![7u8; 64];
        assert_eq!(quoted_payload(&long).len(), 28);
    }

    #[test]
    fn timestamp_message_has_three_timestamps() {
        let m = build_timestamp(true, 9, 2, 111, 222, 333);
        assert_eq!(m.len(), TIMESTAMP_LEN);
        assert_eq!(
            m.get_field(FIELDS, "type").unwrap(),
            u64::from(msg_type::TIMESTAMP_REPLY)
        );
        assert_eq!(
            m.get_field(TIMESTAMP_FIELDS, "originate_timestamp")
                .unwrap(),
            111
        );
        assert_eq!(
            m.get_field(TIMESTAMP_FIELDS, "receive_timestamp").unwrap(),
            222
        );
        assert_eq!(
            m.get_field(TIMESTAMP_FIELDS, "transmit_timestamp").unwrap(),
            333
        );
        assert!(checksum_ok(&m));
    }

    #[test]
    fn info_messages_have_no_data() {
        let m = build_info(false, 5, 6);
        assert_eq!(m.len(), HEADER_LEN);
        assert_eq!(
            m.get_field(FIELDS, "type").unwrap(),
            u64::from(msg_type::INFO_REQUEST)
        );
        assert!(checksum_ok(&m));
    }

    #[test]
    fn redirect_carries_gateway_address() {
        let gw = super::super::ipv4::addr(10, 0, 1, 254);
        let err = build_error(msg_type::REDIRECT, 1, gw, &[0x45; 28]);
        assert_eq!(
            err.get_field(FIELDS, "gateway_internet_address").unwrap(),
            u64::from(gw)
        );
        assert!(checksum_ok(&err));
    }

    #[test]
    fn parameter_problem_pointer_is_first_octet_of_second_word() {
        let err = build_error(msg_type::PARAMETER_PROBLEM, 0, 0x0800_0000, &[0x45; 28]);
        assert_eq!(err.get_field(FIELDS, "pointer").unwrap(), 8);
    }

    #[test]
    fn type_names() {
        assert_eq!(type_name(0), "echo reply");
        assert_eq!(type_name(11), "time exceeded");
        assert_eq!(type_name(200), "unknown");
    }
}
