//! Packet buffers with named, table-driven field access.
//!
//! Generated code manipulates header fields by name (`hdr->type = 3;`).  In
//! this substrate, each protocol module publishes a table of [`FieldSpec`]s
//! (name, bit offset, bit width) — partly cross-checked against the header
//! structs that `sage-spec` extracts from the RFC ASCII art — and
//! [`PacketBuf`] reads and writes those fields in network byte order.
//!
//! Code that addresses a field by name at run time — the generated-code
//! engines, the tcpdump decoder — scans the table per access.  Code
//! that knows its fields when it is written resolves them once, at compile
//! time, with [`field`]: `const TTL: &FieldSpec = field(FIELDS, "ttl");`.

use std::fmt;

/// A named bit-field within a header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpec {
    /// Field name as used by generated code (lower-case, underscores).
    pub name: &'static str,
    /// Offset of the field's first bit from the start of the header.
    pub offset_bits: usize,
    /// Width of the field in bits (1..=64).
    pub width_bits: usize,
}

impl FieldSpec {
    /// Construct a field spec.
    pub const fn new(name: &'static str, offset_bits: usize, width_bits: usize) -> FieldSpec {
        FieldSpec {
            name,
            offset_bits,
            width_bits,
        }
    }

    /// The byte range `[start, end)` this field touches.
    pub fn byte_range(&self) -> (usize, usize) {
        let start = self.offset_bits / 8;
        let end = (self.offset_bits + self.width_bits).div_ceil(8);
        (start, end)
    }
}

/// The spec named `name` in `table`, resolved during const evaluation.
///
/// ```
/// use sage_netsim::buffer::{field, FieldSpec};
/// use sage_netsim::headers::ipv4;
///
/// const TTL: &FieldSpec = field(ipv4::FIELDS, "ttl");
/// assert_eq!((TTL.offset_bits, TTL.width_bits), (64, 8));
/// ```
///
/// # Panics
///
/// Panics if `table` has no field called `name`.  In a `const` item that
/// panic is a compile error, so a misspelt name fails the build:
///
/// ```compile_fail
/// use sage_netsim::buffer::{field, FieldSpec};
/// use sage_netsim::headers::ipv4;
///
/// const TTL: &FieldSpec = field(ipv4::FIELDS, "tll");
/// assert_eq!(TTL.width_bits, 8);
/// ```
pub const fn field(table: &'static [FieldSpec], name: &str) -> &'static FieldSpec {
    let mut i = 0;
    while i < table.len() {
        if str_eq(table[i].name, name) {
            return &table[i];
        }
        i += 1;
    }
    panic!("no field of that name in the table")
}

/// `a == b`, usable in const evaluation.
const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Errors from field access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldError {
    /// The named field is not in the table.
    UnknownField(String),
    /// The buffer is too short to contain the field.
    OutOfBounds {
        /// The field whose access ran past the buffer.
        field: String,
        /// Bytes the access needed.
        needed: usize,
        /// Bytes the buffer actually has.
        len: usize,
    },
    /// The value does not fit in the field's width.
    ValueTooLarge {
        /// The field being written.
        field: String,
        /// The field's width in bits.
        width_bits: usize,
        /// The value that did not fit.
        value: u64,
    },
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldError::UnknownField(name) => write!(f, "unknown field '{name}'"),
            FieldError::OutOfBounds { field, needed, len } => {
                write!(
                    f,
                    "field '{field}' needs {needed} bytes but buffer has {len}"
                )
            }
            FieldError::ValueTooLarge {
                field,
                width_bits,
                value,
            } => {
                write!(
                    f,
                    "value {value} does not fit in {width_bits}-bit field '{field}'"
                )
            }
        }
    }
}

impl std::error::Error for FieldError {}

/// Read a big-endian bit-field out of a borrowed byte slice (the core
/// primitive behind [`PacketBuf::get_bits`] and [`FieldView`]; public so
/// the bytecode VM can read request headers without copying them into a
/// buffer).
///
/// Fields spanning at most eight bytes — every field in the shipped
/// header tables — are read as one big-endian word assembly + shift +
/// mask instead of a per-bit loop.  That path is small enough to inline,
/// so a spec known at compile time folds to a few loads and shifts;
/// errors and wider misaligned fields take the out-of-line bit loop.
#[inline]
pub fn read_bits(bytes: &[u8], spec: &FieldSpec) -> Result<u64, FieldError> {
    let (start, end) = spec.byte_range();
    match bytes.get(start..end) {
        Some(window) if window.len() <= 8 => {
            let mut word: u64 = 0;
            for &b in window {
                word = (word << 8) | u64::from(b);
            }
            Ok((word >> window_shift(spec)) & width_mask(spec.width_bits))
        }
        _ => read_bits_bitwise(bytes, spec),
    }
}

/// [`read_bits`] one bit at a time, with its bounds error.
#[cold]
fn read_bits_bitwise(bytes: &[u8], spec: &FieldSpec) -> Result<u64, FieldError> {
    let (_, end) = spec.byte_range();
    if end > bytes.len() {
        return Err(FieldError::OutOfBounds {
            field: spec.name.to_string(),
            needed: end,
            len: bytes.len(),
        });
    }
    let mut value: u64 = 0;
    for i in 0..spec.width_bits {
        let bit_index = spec.offset_bits + i;
        let byte = bytes[bit_index / 8];
        let bit = (byte >> (7 - (bit_index % 8))) & 1;
        value = (value << 1) | u64::from(bit);
    }
    Ok(value)
}

/// All-ones mask of `width_bits` (≤ 64) low bits.
fn width_mask(width_bits: usize) -> u64 {
    if width_bits >= 64 {
        u64::MAX
    } else {
        (1u64 << width_bits) - 1
    }
}

/// The bits between a field's last bit and the end of its byte window:
/// the shift that brings the field down to bit 0 of the window's word.
fn window_shift(spec: &FieldSpec) -> usize {
    let (start, end) = spec.byte_range();
    (end - start) * 8 - (spec.offset_bits - start * 8) - spec.width_bits
}

/// Write a big-endian bit-field into a mutable byte slice — the mirror of
/// [`read_bits`], with the same inlined word path.
#[inline]
fn write_bits(bytes: &mut [u8], spec: &FieldSpec, value: u64) -> Result<(), FieldError> {
    let fits = spec.width_bits >= 64 || value < (1u64 << spec.width_bits);
    let (start, end) = spec.byte_range();
    match bytes.get_mut(start..end) {
        Some(window) if fits && window.len() <= 8 => {
            let mut word: u64 = 0;
            for &b in window.iter() {
                word = (word << 8) | u64::from(b);
            }
            let shift = window_shift(spec);
            let mask = width_mask(spec.width_bits);
            word = (word & !(mask << shift)) | ((value & mask) << shift);
            for b in window.iter_mut().rev() {
                *b = word as u8;
                word >>= 8;
            }
            Ok(())
        }
        _ => write_bits_bitwise(bytes, spec, value),
    }
}

/// [`write_bits`] one bit at a time, with its range and bounds errors.
#[cold]
fn write_bits_bitwise(bytes: &mut [u8], spec: &FieldSpec, value: u64) -> Result<(), FieldError> {
    if spec.width_bits < 64 && value >= (1u64 << spec.width_bits) {
        return Err(FieldError::ValueTooLarge {
            field: spec.name.to_string(),
            width_bits: spec.width_bits,
            value,
        });
    }
    let (_, end) = spec.byte_range();
    if end > bytes.len() {
        return Err(FieldError::OutOfBounds {
            field: spec.name.to_string(),
            needed: end,
            len: bytes.len(),
        });
    }
    for i in 0..spec.width_bits {
        let bit_index = spec.offset_bits + i;
        let bit_value = (value >> (spec.width_bits - 1 - i)) & 1;
        let byte = &mut bytes[bit_index / 8];
        let mask = 1u8 << (7 - (bit_index % 8));
        if bit_value == 1 {
            *byte |= mask;
        } else {
            *byte &= !mask;
        }
    }
    Ok(())
}

/// A zero-copy, read-only view of a header held in a borrowed byte slice:
/// the same big-endian bit-field reads as [`PacketBuf`] without owning (or
/// copying) the bytes.  The bytecode VM reads request and reply headers
/// through these.
#[derive(Debug, Clone, Copy)]
pub struct FieldView<'a> {
    bytes: &'a [u8],
}

impl<'a> FieldView<'a> {
    /// View a borrowed byte slice.
    pub fn new(bytes: &'a [u8]) -> FieldView<'a> {
        FieldView { bytes }
    }

    /// The viewed bytes.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// View length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Read a field given its spec directly.
    #[inline]
    pub fn get_bits(&self, spec: &FieldSpec) -> Result<u64, FieldError> {
        read_bits(self.bytes, spec)
    }

    /// Read a named field (big-endian / network byte order).
    pub fn get_field(&self, table: &[FieldSpec], name: &str) -> Result<u64, FieldError> {
        self.get_bits(PacketBuf::find(table, name)?)
    }
}

/// A growable packet buffer with bit-field accessors.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PacketBuf {
    bytes: Vec<u8>,
}

impl PacketBuf {
    /// An empty buffer.
    pub fn new() -> PacketBuf {
        PacketBuf { bytes: Vec::new() }
    }

    /// A zero-filled buffer of `len` bytes.
    pub fn zeroed(len: usize) -> PacketBuf {
        PacketBuf {
            bytes: vec![0; len],
        }
    }

    /// `header_len` zero bytes followed by a copy of `payload`, in one
    /// allocation: the starting point of every header builder.
    pub(crate) fn zeroed_with_payload(header_len: usize, payload: &[u8]) -> PacketBuf {
        let mut bytes = Vec::with_capacity(header_len + payload.len());
        bytes.resize(header_len, 0);
        bytes.extend_from_slice(payload);
        PacketBuf { bytes }
    }

    /// Wrap existing bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> PacketBuf {
        PacketBuf { bytes }
    }

    /// The underlying bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable access to the underlying bytes.
    pub fn as_bytes_mut(&mut self) -> &mut Vec<u8> {
        &mut self.bytes
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Append raw bytes (e.g. a payload).
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.bytes.extend_from_slice(data);
    }

    fn find<'a>(table: &'a [FieldSpec], name: &str) -> Result<&'a FieldSpec, FieldError> {
        table
            .iter()
            .find(|f| f.name == name)
            .ok_or_else(|| FieldError::UnknownField(name.to_string()))
    }

    /// A zero-copy read-only view over this buffer's bytes.
    pub fn view(&self) -> FieldView<'_> {
        FieldView::new(&self.bytes)
    }

    /// Read a named field (big-endian / network byte order).
    pub fn get_field(&self, table: &[FieldSpec], name: &str) -> Result<u64, FieldError> {
        let spec = Self::find(table, name)?;
        self.get_bits(spec)
    }

    /// Write a named field (big-endian / network byte order).
    pub fn set_field(
        &mut self,
        table: &[FieldSpec],
        name: &str,
        value: u64,
    ) -> Result<(), FieldError> {
        let spec = Self::find(table, name)?;
        self.set_bits(spec, value)
    }

    /// Read a field given its spec directly.
    #[inline]
    pub fn get_bits(&self, spec: &FieldSpec) -> Result<u64, FieldError> {
        read_bits(&self.bytes, spec)
    }

    /// Write a field given its spec directly.
    #[inline]
    pub fn set_bits(&mut self, spec: &FieldSpec, value: u64) -> Result<(), FieldError> {
        write_bits(&mut self.bytes, spec, value)
    }

    /// Replace the contents with a copy of `data`, reusing the existing
    /// allocation — the steady-state form of `PacketBuf::from_bytes(
    /// data.to_vec())` for per-packet hot paths.
    pub fn copy_from(&mut self, data: &[u8]) {
        self.bytes.clear();
        self.bytes.extend_from_slice(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &[FieldSpec] = &[
        FieldSpec::new("type", 0, 8),
        FieldSpec::new("code", 8, 8),
        FieldSpec::new("checksum", 16, 16),
        FieldSpec::new("version", 32, 4),
        FieldSpec::new("ihl", 36, 4),
        FieldSpec::new("word", 40, 32),
    ];

    #[test]
    fn byte_aligned_fields_round_trip() {
        let mut buf = PacketBuf::zeroed(16);
        buf.set_field(TABLE, "type", 8).unwrap();
        buf.set_field(TABLE, "code", 0).unwrap();
        buf.set_field(TABLE, "checksum", 0xBEEF).unwrap();
        assert_eq!(buf.get_field(TABLE, "type").unwrap(), 8);
        assert_eq!(buf.get_field(TABLE, "checksum").unwrap(), 0xBEEF);
        assert_eq!(buf.as_bytes()[2], 0xBE);
        assert_eq!(buf.as_bytes()[3], 0xEF);
    }

    #[test]
    fn sub_byte_fields_pack_correctly() {
        let mut buf = PacketBuf::zeroed(16);
        buf.set_field(TABLE, "version", 4).unwrap();
        buf.set_field(TABLE, "ihl", 5).unwrap();
        assert_eq!(buf.as_bytes()[4], 0x45);
        assert_eq!(buf.get_field(TABLE, "version").unwrap(), 4);
        assert_eq!(buf.get_field(TABLE, "ihl").unwrap(), 5);
    }

    #[test]
    fn thirty_two_bit_fields() {
        let mut buf = PacketBuf::zeroed(16);
        buf.set_field(TABLE, "word", 0xDEADBEEF).unwrap();
        assert_eq!(buf.get_field(TABLE, "word").unwrap(), 0xDEADBEEF);
        assert_eq!(&buf.as_bytes()[5..9], &[0xDE, 0xAD, 0xBE, 0xEF]);
    }

    #[test]
    fn unknown_field_is_an_error() {
        let buf = PacketBuf::zeroed(8);
        assert!(matches!(
            buf.get_field(TABLE, "banana"),
            Err(FieldError::UnknownField(_))
        ));
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let buf = PacketBuf::zeroed(2);
        assert!(matches!(
            buf.get_field(TABLE, "checksum"),
            Err(FieldError::OutOfBounds { .. })
        ));
        let mut small = PacketBuf::zeroed(2);
        assert!(small.set_field(TABLE, "checksum", 1).is_err());
    }

    #[test]
    fn oversized_values_are_rejected() {
        let mut buf = PacketBuf::zeroed(16);
        assert!(matches!(
            buf.set_field(TABLE, "version", 16),
            Err(FieldError::ValueTooLarge { .. })
        ));
        assert!(buf.set_field(TABLE, "version", 15).is_ok());
    }

    #[test]
    fn setting_a_field_does_not_disturb_neighbours() {
        let mut buf = PacketBuf::zeroed(16);
        buf.set_field(TABLE, "version", 0xF).unwrap();
        buf.set_field(TABLE, "ihl", 0x0).unwrap();
        assert_eq!(buf.get_field(TABLE, "version").unwrap(), 0xF);
        buf.set_field(TABLE, "ihl", 0xA).unwrap();
        assert_eq!(buf.get_field(TABLE, "version").unwrap(), 0xF);
        assert_eq!(buf.get_field(TABLE, "ihl").unwrap(), 0xA);
    }

    #[test]
    fn word_fast_path_agrees_with_the_bit_loop_everywhere() {
        // Exhaustive (offset, width) sweep over a patterned buffer: the
        // word-assembly fast path must read exactly what a naive per-bit
        // walk reads, and a set/get round trip must preserve the value.
        let mut bytes = [0u8; 12];
        let mut x: u8 = 0x3C;
        for b in &mut bytes {
            x = x.wrapping_mul(167).wrapping_add(13);
            *b = x;
        }
        let naive = |offset: usize, width: usize| -> u64 {
            let mut v = 0u64;
            for i in 0..width {
                let bit = (bytes[(offset + i) / 8] >> (7 - ((offset + i) % 8))) & 1;
                v = (v << 1) | u64::from(bit);
            }
            v
        };
        let buf = PacketBuf::from_bytes(bytes.to_vec());
        for offset in 0..(12 * 8) {
            for width in 1..=64usize {
                if offset + width > 12 * 8 {
                    continue;
                }
                let spec = FieldSpec::new("sweep", offset, width);
                assert_eq!(
                    buf.get_bits(&spec).unwrap(),
                    naive(offset, width),
                    "offset={offset} width={width}"
                );
                let mut copy = buf.clone();
                let value = naive(offset, width) ^ (width_mask(width) & 0x5555_5555_5555_5555);
                copy.set_bits(&spec, value).unwrap();
                assert_eq!(
                    copy.get_bits(&spec).unwrap(),
                    value,
                    "round trip offset={offset} width={width}"
                );
            }
        }
    }

    #[test]
    fn copy_from_reuses_the_buffer() {
        let mut buf = PacketBuf::from_bytes(vec![1, 2, 3, 4]);
        buf.copy_from(&[9, 8]);
        assert_eq!(buf.as_bytes(), &[9, 8]);
        buf.copy_from(&[5, 5, 5]);
        assert_eq!(buf.as_bytes(), &[5, 5, 5]);
    }

    #[test]
    fn field_spec_byte_range() {
        assert_eq!(FieldSpec::new("x", 0, 8).byte_range(), (0, 1));
        assert_eq!(FieldSpec::new("x", 16, 16).byte_range(), (2, 4));
        assert_eq!(FieldSpec::new("x", 36, 4).byte_range(), (4, 5));
        assert_eq!(FieldSpec::new("x", 40, 32).byte_range(), (5, 9));
    }

    #[test]
    fn views_read_the_same_bits_as_the_buffer() {
        let mut buf = PacketBuf::zeroed(16);
        buf.set_field(TABLE, "version", 4).unwrap();
        buf.set_field(TABLE, "checksum", 0xBEEF).unwrap();
        let view = buf.view();
        assert_eq!(view.get_field(TABLE, "checksum").unwrap(), 0xBEEF);
        assert_eq!(view.get_field(TABLE, "version").unwrap(), 4);
        assert_eq!(view.len(), buf.len());
        assert!(matches!(
            view.get_field(TABLE, "banana"),
            Err(FieldError::UnknownField(_))
        ));
        let short = FieldView::new(&buf.as_bytes()[..2]);
        assert!(matches!(
            short.get_field(TABLE, "checksum"),
            Err(FieldError::OutOfBounds { .. })
        ));
        assert!(!short.is_empty());
        assert_eq!(short.as_bytes().len(), 2);
    }

    #[test]
    fn compile_time_specs_are_the_table_entries() {
        const CHECKSUM: &FieldSpec = field(TABLE, "checksum");
        const WORD: &FieldSpec = field(TABLE, "word");
        assert_eq!(CHECKSUM, PacketBuf::find(TABLE, "checksum").unwrap());
        assert_eq!(WORD, &TABLE[5]);
        for spec in TABLE {
            assert_eq!(field(TABLE, spec.name), spec);
        }
    }

    #[test]
    #[should_panic(expected = "no field of that name")]
    fn an_unknown_name_has_no_spec() {
        field(TABLE, "typ");
    }

    #[test]
    fn zeroed_with_payload_is_a_zero_header_then_the_payload() {
        let buf = PacketBuf::zeroed_with_payload(3, &[7, 8]);
        assert_eq!(buf.as_bytes(), &[0, 0, 0, 7, 8]);
        assert_eq!(PacketBuf::zeroed_with_payload(2, &[]).as_bytes(), &[0, 0]);
    }

    #[test]
    fn extend_and_len() {
        let mut buf = PacketBuf::new();
        assert!(buf.is_empty());
        buf.extend_from_slice(&[1, 2, 3]);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.as_bytes(), &[1, 2, 3]);
    }

    proptest::proptest! {
        #[test]
        fn prop_round_trip_arbitrary_values(
            offset in 0usize..64,
            width in 1usize..33,
            value in 0u64..u64::MAX,
        ) {
            let spec = FieldSpec { name: "f", offset_bits: offset, width_bits: width };
            let masked = if width == 64 { value } else { value & ((1u64 << width) - 1) };
            let mut buf = PacketBuf::zeroed(16);
            buf.set_bits(&spec, masked).unwrap();
            proptest::prop_assert_eq!(buf.get_bits(&spec).unwrap(), masked);
        }
    }
}
