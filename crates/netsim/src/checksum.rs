//! One's-complement checksums (RFC 1071) — the arithmetic the ICMP, IGMP,
//! UDP and IPv4 checksum fields rely on, plus the incremental-update form
//! that one of the student interpretations in Table 3 uses.

/// Compute the 32-bit-accumulated one's-complement sum of `data`, folding to
/// 16 bits.  An odd trailing byte is padded with zero, per RFC 1071.
pub fn ones_complement_sum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    sum as u16
}

/// The Internet checksum: the one's complement of the one's-complement sum.
pub fn ones_complement_checksum(data: &[u8]) -> u16 {
    !ones_complement_sum(data)
}

/// Incremental checksum update per RFC 1624: given the old checksum, an old
/// 16-bit field value and its new value, compute the updated checksum
/// without touching the rest of the packet.
pub fn incremental_update(old_checksum: u16, old_value: u16, new_value: u16) -> u16 {
    // RFC 1624: HC' = ~(~HC + ~m + m')
    let mut sum = u32::from(!old_checksum) + u32::from(!old_value) + u32::from(new_value);
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Compute a checksum over a buffer with the checksum field (at
/// `checksum_offset`) treated as zero — the common "zero the field, then
/// sum" procedure the Figure-2 sentence describes — in one pass over
/// `data`, without zeroing a copy.  An offset whose field does not fit in
/// `data` omits nothing.
///
/// Bit-identical to summing a zeroed clone: substitution keeps the exact
/// RFC 1071 word sequence, where a ones-complement *subtraction* of the
/// field could land on the other representative of zero (0xFFFF vs
/// 0x0000) and break byte-for-byte reply parity.
pub fn checksum_omitting_field(data: &[u8], checksum_offset: usize) -> u16 {
    let omit = checksum_offset + 2 <= data.len();
    // Word-aligned field (every shipped header table): sum the whole
    // buffer with the plain word loop, then subtract the checksum word's
    // contribution.  The subtraction happens on the unfolded u32
    // accumulator, where it is exact integer arithmetic — not the
    // post-fold ones-complement subtraction whose zero has two
    // representatives (0x0000 vs 0xFFFF).
    if omit && checksum_offset % 2 == 0 {
        let mut sum: u32 = 0;
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = chunks.remainder() {
            sum += u32::from(u16::from_be_bytes([*last, 0]));
        }
        sum -= u32::from(u16::from_be_bytes([
            data[checksum_offset],
            data[checksum_offset + 1],
        ]));
        while sum > 0xFFFF {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        return !(sum as u16);
    }
    let byte_at = |i: usize| -> u8 {
        if omit && (i == checksum_offset || i == checksum_offset + 1) {
            0
        } else {
            data[i]
        }
    };
    let mut sum: u32 = 0;
    let mut i = 0;
    while i + 1 < data.len() {
        sum += u32::from(u16::from_be_bytes([byte_at(i), byte_at(i + 1)]));
        i += 2;
    }
    if i < data.len() {
        sum += u32::from(u16::from_be_bytes([byte_at(i), 0]));
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checksum of a copy of `data` whose checksum field is zeroed:
    /// the oracle [`checksum_omitting_field`] must match bit for bit.
    fn zeroed_clone_checksum(data: &[u8], checksum_offset: usize) -> u16 {
        let mut copy = data.to_vec();
        if checksum_offset + 2 <= copy.len() {
            copy[checksum_offset] = 0;
            copy[checksum_offset + 1] = 0;
        }
        ones_complement_checksum(&copy)
    }

    #[test]
    fn rfc1071_worked_example() {
        // The classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(ones_complement_sum(&data), 0xddf2);
        assert_eq!(ones_complement_checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_is_zero_padded() {
        let even = [0x12u8, 0x34, 0xab, 0x00];
        let odd = [0x12u8, 0x34, 0xab];
        assert_eq!(ones_complement_sum(&even), ones_complement_sum(&odd));
    }

    #[test]
    fn empty_buffer_checksums_to_ffff() {
        assert_eq!(ones_complement_sum(&[]), 0);
        assert_eq!(ones_complement_checksum(&[]), 0xFFFF);
    }

    #[test]
    fn filled_in_checksum_verifies() {
        // Build an ICMP echo header: type 8, code 0, checksum 0, id 0x1234, seq 1.
        let mut pkt = vec![8u8, 0, 0, 0, 0x12, 0x34, 0x00, 0x01, 0xde, 0xad];
        let ck = checksum_omitting_field(&pkt, 2);
        pkt[2..4].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(ones_complement_sum(&pkt), 0xFFFF);
        // Corrupting any byte breaks verification.
        pkt[9] ^= 0xFF;
        assert_ne!(ones_complement_sum(&pkt), 0xFFFF);
    }

    #[test]
    fn incremental_update_matches_full_recompute() {
        let mut pkt = vec![8u8, 0, 0, 0, 0x12, 0x34, 0x00, 0x01];
        let ck = checksum_omitting_field(&pkt, 2);
        pkt[2..4].copy_from_slice(&ck.to_be_bytes());
        // Change the 16-bit word at offset 6 (sequence number) from 1 to 2.
        let old_word = u16::from_be_bytes([pkt[6], pkt[7]]);
        let new_word = 2u16;
        pkt[6..8].copy_from_slice(&new_word.to_be_bytes());
        let updated = incremental_update(ck, old_word, new_word);
        let recomputed = checksum_omitting_field(&pkt, 2);
        assert_eq!(updated, recomputed);
    }

    #[test]
    fn checksum_with_zeroed_field_ignores_prefilled_value() {
        let mut a = vec![8u8, 0, 0xAA, 0xBB, 0x12, 0x34];
        let b = vec![8u8, 0, 0x00, 0x00, 0x12, 0x34];
        assert_eq!(
            checksum_omitting_field(&a, 2),
            checksum_omitting_field(&b, 2)
        );
        a[2] = 0;
        a[3] = 0;
        assert_eq!(checksum_omitting_field(&a, 2), ones_complement_checksum(&a));
    }

    #[test]
    fn omitting_form_matches_cloning_form() {
        // Varied lengths (odd and even), offsets (in range, at the tail,
        // past the end) and prefilled checksum bytes: the in-place pass
        // must be bit-identical to summing a zeroed clone.
        let mut data = Vec::new();
        let mut x: u8 = 7;
        for len in 0..40usize {
            data.truncate(0);
            for _ in 0..len {
                x = x.wrapping_mul(31).wrapping_add(11);
                data.push(x);
            }
            for offset in 0..(len + 3) {
                assert_eq!(
                    checksum_omitting_field(&data, offset),
                    zeroed_clone_checksum(&data, offset),
                    "len={len} offset={offset}"
                );
            }
        }
    }

    #[test]
    fn sum_is_order_insensitive_over_16bit_words() {
        let a = [0x12u8, 0x34, 0x56, 0x78];
        let b = [0x56u8, 0x78, 0x12, 0x34];
        assert_eq!(ones_complement_sum(&a), ones_complement_sum(&b));
    }
}
