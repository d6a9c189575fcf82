//! The student-implementation fault model (Tables 2 and 3).
//!
//! §2.1 of the paper analyses 39 graduate-student ICMP implementations: 24
//! interoperate with `ping`, one does not compile, and 14 exhibit six
//! (non-exclusive) categories of error.  Table 3 lists the seven distinct
//! interpretations students gave to the under-specified checksum range.  The
//! original student code is not available, so this module models those
//! implementations: a [`FaultSpec`] selects which errors an implementation
//! makes, [`StudentResponder`] produces the echo reply that implementation
//! would emit, and [`classify_errors`] maps an observed reply back onto the
//! Table 2 categories.

use crate::buffer::PacketBuf;
use crate::checksum::{checksum_omitting_field, incremental_update, ones_complement_checksum};
use crate::headers::{icmp, ipv4};
use crate::net::{IcmpEvent, IcmpResponder};

/// The seven checksum-range interpretations from Table 3, plus the correct
/// reading used as the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChecksumInterpretation {
    /// Table 3 #1: the size of a specific ICMP header type (8 bytes).
    SpecificHeaderSize,
    /// Table 3 #2: a partial ICMP header (the first 4 bytes).
    PartialHeader,
    /// Table 3 #3: the ICMP header and payload — the correct, disambiguated
    /// reading.
    HeaderAndPayload,
    /// Table 3 #4: the IP header.
    IpHeader,
    /// Table 3 #5: ICMP header, payload and any IP options.
    HeaderPayloadAndOptions,
    /// Table 3 #6: incremental update of the received checksum.
    IncrementalUpdate,
    /// Table 3 #7: a magic constant number of bytes (2, 8 or 36).
    MagicConstant(u8),
}

impl ChecksumInterpretation {
    /// All seven interpretations, in Table 3 order.
    pub fn all() -> Vec<ChecksumInterpretation> {
        vec![
            ChecksumInterpretation::SpecificHeaderSize,
            ChecksumInterpretation::PartialHeader,
            ChecksumInterpretation::HeaderAndPayload,
            ChecksumInterpretation::IpHeader,
            ChecksumInterpretation::HeaderPayloadAndOptions,
            ChecksumInterpretation::IncrementalUpdate,
            ChecksumInterpretation::MagicConstant(36),
        ]
    }

    /// The Table 3 row index (1-based).
    pub fn index(&self) -> usize {
        match self {
            ChecksumInterpretation::SpecificHeaderSize => 1,
            ChecksumInterpretation::PartialHeader => 2,
            ChecksumInterpretation::HeaderAndPayload => 3,
            ChecksumInterpretation::IpHeader => 4,
            ChecksumInterpretation::HeaderPayloadAndOptions => 5,
            ChecksumInterpretation::IncrementalUpdate => 6,
            ChecksumInterpretation::MagicConstant(_) => 7,
        }
    }

    /// The paper's description of the interpretation.
    pub fn description(&self) -> &'static str {
        match self {
            ChecksumInterpretation::SpecificHeaderSize => "Size of a specific type of ICMP header.",
            ChecksumInterpretation::PartialHeader => "Size of a partial ICMP header.",
            ChecksumInterpretation::HeaderAndPayload => "Size of the ICMP header and payload.",
            ChecksumInterpretation::IpHeader => "Size of the IP header.",
            ChecksumInterpretation::HeaderPayloadAndOptions => {
                "Size of the ICMP header and payload, and any IP options."
            }
            ChecksumInterpretation::IncrementalUpdate => {
                "Incremental update of the checksum field using whichever checksum range the sender packet chose."
            }
            ChecksumInterpretation::MagicConstant(_) => "Magic constants (e.g. 2 or 8 or 36).",
        }
    }

    /// Compute a reply checksum under this interpretation.  `reply` is the
    /// ICMP reply message (checksum field zeroed); `request_ip` is the full
    /// received IP datagram.
    pub fn compute(&self, reply: &PacketBuf, request_ip: &PacketBuf) -> u16 {
        let bytes = reply.as_bytes();
        match self {
            ChecksumInterpretation::SpecificHeaderSize => {
                checksum_omitting_field(&bytes[..icmp::HEADER_LEN.min(bytes.len())], 2)
            }
            ChecksumInterpretation::PartialHeader => {
                checksum_omitting_field(&bytes[..4.min(bytes.len())], 2)
            }
            ChecksumInterpretation::HeaderAndPayload
            | ChecksumInterpretation::HeaderPayloadAndOptions => {
                // With no IP options in this substrate, #5 coincides with #3.
                checksum_omitting_field(bytes, 2)
            }
            ChecksumInterpretation::IpHeader => {
                let ip = request_ip.as_bytes();
                ones_complement_checksum(&ip[..ipv4::HEADER_LEN.min(ip.len())])
            }
            ChecksumInterpretation::IncrementalUpdate => {
                let request_icmp = ipv4::payload(request_ip);
                let old_ck = u16::from_be_bytes([
                    request_icmp.get(2).copied().unwrap_or(0),
                    request_icmp.get(3).copied().unwrap_or(0),
                ]);
                // Only the type changed (8 → 0); update incrementally.
                incremental_update(old_ck, 0x0800, 0x0000)
            }
            ChecksumInterpretation::MagicConstant(n) => {
                let end = usize::from(*n).min(bytes.len());
                checksum_omitting_field(&bytes[..end], 2)
            }
        }
    }

    /// Whether this interpretation interoperates with `ping` (only the
    /// correct full-message readings do; incremental update also happens to
    /// produce the right value when only the type field changes).
    pub fn interoperates(&self) -> bool {
        matches!(
            self,
            ChecksumInterpretation::HeaderAndPayload
                | ChecksumInterpretation::HeaderPayloadAndOptions
                | ChecksumInterpretation::IncrementalUpdate
        )
    }
}

/// The Table 2 error categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ErrorCategory {
    /// IP header related.
    IpHeader,
    /// ICMP header related.
    IcmpHeader,
    /// Network/host byte-order conversion.
    ByteOrder,
    /// Incorrect ICMP payload content.
    PayloadContent,
    /// Incorrect echo-reply packet length.
    PacketLength,
    /// Incorrect checksum (or dropped by the kernel).
    Checksum,
}

impl ErrorCategory {
    /// All categories in Table 2 order.
    pub fn all() -> [ErrorCategory; 6] {
        [
            ErrorCategory::IpHeader,
            ErrorCategory::IcmpHeader,
            ErrorCategory::ByteOrder,
            ErrorCategory::PayloadContent,
            ErrorCategory::PacketLength,
            ErrorCategory::Checksum,
        ]
    }

    /// The row label used in Table 2.
    pub fn label(&self) -> &'static str {
        match self {
            ErrorCategory::IpHeader => "IP header related",
            ErrorCategory::IcmpHeader => "ICMP header related",
            ErrorCategory::ByteOrder => "Network byte order and host byte order conversion",
            ErrorCategory::PayloadContent => "Incorrect ICMP payload content",
            ErrorCategory::PacketLength => "Incorrect echo reply packet length",
            ErrorCategory::Checksum => "Incorrect checksum or dropped by kernel",
        }
    }
}

/// Which mistakes a simulated student implementation makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Swap/omit IP address handling (reply goes to the wrong address).
    pub ip_header_error: bool,
    /// Wrong ICMP header handling (type left as 8, identifier dropped).
    pub icmp_header_error: bool,
    /// Identifier/sequence written in host byte order.
    pub byte_order_error: bool,
    /// Payload not copied into the reply.
    pub payload_error: bool,
    /// Reply truncated to the header only.
    pub length_error: bool,
    /// Which checksum range the implementation uses.
    pub checksum: ChecksumInterpretation,
}

impl FaultSpec {
    /// A correct implementation.
    pub fn correct() -> FaultSpec {
        FaultSpec {
            ip_header_error: false,
            icmp_header_error: false,
            byte_order_error: false,
            payload_error: false,
            length_error: false,
            checksum: ChecksumInterpretation::HeaderAndPayload,
        }
    }

    /// True if this specification makes no mistakes that `ping` can observe.
    pub fn is_faulty(&self) -> bool {
        self.ip_header_error
            || self.icmp_header_error
            || self.byte_order_error
            || self.payload_error
            || self.length_error
            || !self.checksum.interoperates()
    }
}

/// An ICMP responder that behaves like a student implementation with the
/// given faults.  Only echo requests are handled (the §2.1 test).
#[derive(Debug, Clone)]
pub struct StudentResponder {
    /// The faults this implementation exhibits.
    pub spec: FaultSpec,
}

impl StudentResponder {
    /// Wrap a fault specification.
    pub fn new(spec: FaultSpec) -> StudentResponder {
        StudentResponder { spec }
    }
}

impl StudentResponder {
    /// Build the complete IP-encapsulated echo reply this implementation
    /// would emit for a received echo request.  Students implement the full
    /// reply path — IP header included — so IP-header faults (not swapping
    /// the addresses, stale IP checksum) show up here.
    pub fn build_ip_reply(&mut self, request_ip: &PacketBuf) -> PacketBuf {
        let icmp_reply = self
            .respond(IcmpEvent::EchoRequest, request_ip)
            .unwrap_or_else(|| PacketBuf::zeroed(icmp::HEADER_LEN));
        let src = request_ip
            .get_field(ipv4::FIELDS, "source_address")
            .unwrap_or(0) as u32;
        let dst = request_ip
            .get_field(ipv4::FIELDS, "destination_address")
            .unwrap_or(0) as u32;
        let (reply_src, reply_dst) = if self.spec.ip_header_error {
            // Forgot to swap the addresses: the reply goes back out with the
            // original source/destination.
            (src, dst)
        } else {
            (dst, src)
        };
        let mut reply = ipv4::build_packet(
            reply_src,
            reply_dst,
            ipv4::PROTO_ICMP,
            64,
            icmp_reply.as_bytes(),
        );
        if self.spec.ip_header_error {
            // Also leave a stale IP header checksum behind.
            reply.set_field(ipv4::FIELDS, "header_checksum", 0).ok();
        }
        reply
    }
}

impl IcmpResponder for StudentResponder {
    fn respond(&mut self, event: IcmpEvent, original: &PacketBuf) -> Option<PacketBuf> {
        if event != IcmpEvent::EchoRequest {
            return None;
        }
        let request_icmp = ipv4::payload(original);
        let req = PacketBuf::from_bytes(request_icmp.to_vec());
        let id = req.get_field(icmp::FIELDS, "identifier").unwrap_or(0) as u16;
        let seq = req.get_field(icmp::FIELDS, "sequence_number").unwrap_or(0) as u16;
        let data: &[u8] = if request_icmp.len() > icmp::HEADER_LEN {
            &request_icmp[icmp::HEADER_LEN..]
        } else {
            &[]
        };

        let mut reply = PacketBuf::zeroed(icmp::HEADER_LEN);
        // ICMP header errors: leave the type as echo request.
        let reply_type = if self.spec.icmp_header_error { 8 } else { 0 };
        reply.set_field(icmp::FIELDS, "type", reply_type).ok()?;
        // Byte-order errors: write identifier and sequence byte-swapped.
        let (wid, wseq) = if self.spec.byte_order_error {
            (id.swap_bytes(), seq.swap_bytes())
        } else {
            (id, seq)
        };
        reply
            .set_field(icmp::FIELDS, "identifier", u64::from(wid))
            .ok()?;
        reply
            .set_field(icmp::FIELDS, "sequence_number", u64::from(wseq))
            .ok()?;
        // Payload errors: wrong content; length errors: truncated.
        if !self.spec.length_error {
            if self.spec.payload_error {
                reply.extend_from_slice(&vec![0u8; data.len()]);
            } else {
                reply.extend_from_slice(data);
            }
        }
        // Checksum according to the chosen interpretation.
        let ck = self.spec.checksum.compute(&reply, original);
        reply
            .set_field(icmp::FIELDS, "checksum", u64::from(ck))
            .ok()?;
        Some(reply)
    }
}

/// Compare an observed echo reply against what a correct implementation
/// would send, and classify the differences into Table 2 categories.
pub fn classify_errors(
    observed_reply_ip: &PacketBuf,
    request_ip: &PacketBuf,
) -> Vec<ErrorCategory> {
    let mut errors = Vec::new();
    let src = request_ip
        .get_field(ipv4::FIELDS, "source_address")
        .unwrap_or(0);
    let observed_dst = observed_reply_ip
        .get_field(ipv4::FIELDS, "destination_address")
        .unwrap_or(u64::MAX);
    if observed_dst != src || !ipv4::checksum_ok(observed_reply_ip) {
        errors.push(ErrorCategory::IpHeader);
    }

    let request_icmp = ipv4::payload(request_ip);
    let req = PacketBuf::from_bytes(request_icmp.to_vec());
    let id = req.get_field(icmp::FIELDS, "identifier").unwrap_or(0) as u16;
    let seq = req.get_field(icmp::FIELDS, "sequence_number").unwrap_or(0) as u16;
    let data: &[u8] = if request_icmp.len() > icmp::HEADER_LEN {
        &request_icmp[icmp::HEADER_LEN..]
    } else {
        &[]
    };

    let reply_bytes = ipv4::payload(observed_reply_ip);
    if reply_bytes.len() < icmp::HEADER_LEN {
        errors.push(ErrorCategory::PacketLength);
        return errors;
    }
    let reply = PacketBuf::from_bytes(reply_bytes.to_vec());
    let rtype = reply.get_field(icmp::FIELDS, "type").unwrap_or(255);
    let rid = reply.get_field(icmp::FIELDS, "identifier").unwrap_or(0) as u16;
    let rseq = reply
        .get_field(icmp::FIELDS, "sequence_number")
        .unwrap_or(0) as u16;
    if rtype != u64::from(icmp::msg_type::ECHO_REPLY) {
        errors.push(ErrorCategory::IcmpHeader);
    }
    if rid != id || rseq != seq {
        if rid == id.swap_bytes() || rseq == seq.swap_bytes() {
            errors.push(ErrorCategory::ByteOrder);
        } else if !errors.contains(&ErrorCategory::IcmpHeader) {
            errors.push(ErrorCategory::IcmpHeader);
        }
    }
    let reply_data = &reply_bytes[icmp::HEADER_LEN..];
    if reply_data.len() != data.len() {
        errors.push(ErrorCategory::PacketLength);
    } else if reply_data != data {
        errors.push(ErrorCategory::PayloadContent);
    }
    if !icmp::checksum_ok(&reply) {
        errors.push(ErrorCategory::Checksum);
    }
    errors.sort();
    errors.dedup();
    errors
}

// ---------------------------------------------------------------------------
// Seeded randomness for fault schedules
// ---------------------------------------------------------------------------

/// A deterministic SplitMix64 stream, the same generator the vendored
/// proptest shim uses.  [`crate::fuzz::FaultSchedule`]'s generators and
/// the campaign grids' per-cell seeds draw from it, so a fault schedule
/// replays under the same `PROPTEST_SEED` contract as the property tests.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// A stream seeded explicitly.
    pub fn new(seed: u64) -> FaultRng {
        FaultRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::ipv4::addr;
    use crate::net::{Router, RouterAction};

    fn echo_request() -> PacketBuf {
        crate::tools::ping::echo_request(
            addr(10, 0, 1, 100),
            addr(10, 0, 1, 1),
            0x1234,
            7,
            b"0123456789abcdef",
        )
    }

    fn run_student(spec: FaultSpec) -> (PacketBuf, PacketBuf) {
        let request = echo_request();
        let action =
            Router::appendix_a().process(&request, 0, |_| false, &mut StudentResponder::new(spec));
        match action {
            RouterAction::IcmpReply(reply) => (reply, request),
            other => panic!("expected a reply, got {other:?}"),
        }
    }

    #[test]
    fn correct_spec_produces_clean_reply() {
        let (reply, request) = run_student(FaultSpec::correct());
        assert!(classify_errors(&reply, &request).is_empty());
        let outcome = crate::tools::ping::validate_reply(
            &reply,
            addr(10, 0, 1, 100),
            0x1234,
            7,
            b"0123456789abcdef",
        );
        assert!(outcome.success(), "{outcome:?}");
    }

    #[test]
    fn byte_order_fault_is_detected() {
        let spec = FaultSpec {
            byte_order_error: true,
            ..FaultSpec::correct()
        };
        let (reply, request) = run_student(spec);
        let errors = classify_errors(&reply, &request);
        assert!(errors.contains(&ErrorCategory::ByteOrder), "{errors:?}");
    }

    #[test]
    fn icmp_header_fault_is_detected() {
        let spec = FaultSpec {
            icmp_header_error: true,
            ..FaultSpec::correct()
        };
        let (reply, request) = run_student(spec);
        let errors = classify_errors(&reply, &request);
        assert!(errors.contains(&ErrorCategory::IcmpHeader), "{errors:?}");
    }

    #[test]
    fn payload_and_length_faults_are_detected() {
        let (reply, request) = run_student(FaultSpec {
            payload_error: true,
            ..FaultSpec::correct()
        });
        assert!(classify_errors(&reply, &request).contains(&ErrorCategory::PayloadContent));

        let (reply, request) = run_student(FaultSpec {
            length_error: true,
            ..FaultSpec::correct()
        });
        assert!(classify_errors(&reply, &request).contains(&ErrorCategory::PacketLength));
    }

    #[test]
    fn wrong_checksum_range_is_detected_and_breaks_ping() {
        let spec = FaultSpec {
            checksum: ChecksumInterpretation::IpHeader,
            ..FaultSpec::correct()
        };
        let (reply, request) = run_student(spec);
        let errors = classify_errors(&reply, &request);
        assert!(errors.contains(&ErrorCategory::Checksum), "{errors:?}");
        let outcome = crate::tools::ping::validate_reply(
            &reply,
            addr(10, 0, 1, 100),
            0x1234,
            7,
            b"0123456789abcdef",
        );
        assert!(!outcome.success());
    }

    #[test]
    fn table3_interpretations_cover_seven_rows() {
        let all = ChecksumInterpretation::all();
        assert_eq!(all.len(), 7);
        let indices: Vec<usize> = all.iter().map(ChecksumInterpretation::index).collect();
        assert_eq!(indices, vec![1, 2, 3, 4, 5, 6, 7]);
        // Only the full-message readings (and the degenerate incremental
        // update) interoperate.
        let interoperable: Vec<bool> = all
            .iter()
            .map(ChecksumInterpretation::interoperates)
            .collect();
        assert_eq!(interoperable.iter().filter(|b| **b).count(), 3);
    }

    #[test]
    fn interpretation_checksums_differ_from_correct_one() {
        let (reply_ok, request) = run_student(FaultSpec::correct());
        let correct_ck = PacketBuf::from_bytes(ipv4::payload(&reply_ok).to_vec())
            .get_field(icmp::FIELDS, "checksum")
            .unwrap();
        for interp in [
            ChecksumInterpretation::SpecificHeaderSize,
            ChecksumInterpretation::PartialHeader,
            ChecksumInterpretation::IpHeader,
            ChecksumInterpretation::MagicConstant(2),
        ] {
            let (reply, _) = run_student(FaultSpec {
                checksum: interp,
                ..FaultSpec::correct()
            });
            let ck = PacketBuf::from_bytes(ipv4::payload(&reply).to_vec())
                .get_field(icmp::FIELDS, "checksum")
                .unwrap();
            assert_ne!(ck, correct_ck, "{interp:?} should give a wrong checksum");
        }
        let _ = request;
    }

    #[test]
    fn fault_spec_faultiness() {
        assert!(!FaultSpec::correct().is_faulty());
        assert!(FaultSpec {
            ip_header_error: true,
            ..FaultSpec::correct()
        }
        .is_faulty());
        assert!(FaultSpec {
            checksum: ChecksumInterpretation::MagicConstant(8),
            ..FaultSpec::correct()
        }
        .is_faulty());
    }

    #[test]
    fn error_category_labels_match_table2() {
        assert_eq!(ErrorCategory::all().len(), 6);
        assert_eq!(ErrorCategory::IpHeader.label(), "IP header related");
        assert_eq!(
            ErrorCategory::Checksum.label(),
            "Incorrect checksum or dropped by kernel"
        );
    }
}
