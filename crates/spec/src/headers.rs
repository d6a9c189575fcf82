//! Packet-header extraction from RFC ASCII-art diagrams.
//!
//! RFC 792-style diagrams draw each 32-bit word between `+-+-+` rulers, with
//! field names between `|` separators; the number of bit positions a field
//! spans (dashes/columns) gives its width.  SAGE "extract\[s\] field names and
//! widths and directly generate\[s\] data structures (specifically, structs in
//! C) to represent headers" (§3).

/// A field extracted from a header diagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderField {
    /// Field name, normalised to lower-case snake case.
    pub name: String,
    /// Width in bits.
    pub width_bits: usize,
    /// Offset from the start of the header, in bits.
    pub offset_bits: usize,
}

/// A header structure extracted from a diagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderStruct {
    /// Struct name (derived from the message/section title).
    pub name: String,
    /// Fields in wire order.
    pub fields: Vec<HeaderField>,
}

impl HeaderStruct {
    /// Look up a field by (normalised) name.
    pub fn field(&self, name: &str) -> Option<&HeaderField> {
        let norm = normalise_name(name);
        self.fields.iter().find(|f| f.name == norm)
    }

    /// Emit a C struct definition, the form the paper's code generator uses.
    pub fn to_c_struct(&self) -> String {
        let mut out = format!("struct {} {{\n", self.name);
        for f in &self.fields {
            let ctype = match f.width_bits {
                1..=8 => "uint8_t",
                9..=16 => "uint16_t",
                17..=32 => "uint32_t",
                _ => "uint64_t",
            };
            if f.width_bits == 8 || f.width_bits == 16 || f.width_bits == 32 || f.width_bits == 64 {
                out.push_str(&format!("    {} {};\n", ctype, f.name));
            } else {
                out.push_str(&format!("    {} {} : {};\n", ctype, f.name, f.width_bits));
            }
        }
        out.push_str("};\n");
        out
    }
}

/// Normalise a field name from the diagram into an identifier.
pub fn normalise_name(raw: &str) -> String {
    let mut s: String = raw
        .trim()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    while s.contains("__") {
        s = s.replace("__", "_");
    }
    s.trim_matches('_').to_string()
}

/// Parse an ASCII-art header diagram into a [`HeaderStruct`].
///
/// Returns `None` if the text does not look like a diagram (no `+-+-`
/// ruler lines).
pub fn parse_header_diagram(name: &str, art: &str) -> Option<HeaderStruct> {
    let lines: Vec<&str> = art.lines().map(str::trim_end).collect();
    if !lines.iter().any(|l| is_ruler(l)) {
        return None;
    }
    let mut fields = Vec::new();
    let mut offset_bits = 0usize;
    for line in lines {
        let trimmed = line.trim_start();
        if is_ruler(trimmed) || trimmed.is_empty() || !trimmed.contains('|') {
            continue;
        }
        // A content row: fields are separated by '|'.  Each character column
        // between rulers corresponds to half a bit (the diagrams use two
        // characters per bit: "+-"), so a 32-bit word is 64 columns plus
        // separators; in practice each field's width is the number of
        // columns it spans divided by 2.
        let row = trimmed.trim_matches('|');
        let cells: Vec<&str> = row.split('|').collect();
        for cell in cells {
            let width_cols = cell.len() + 1; // include the separator column
            let width_bits = (width_cols / 2).max(1);
            let label = cell.trim();
            let name = if label.is_empty() {
                "unused".to_string()
            } else {
                normalise_name(label)
            };
            fields.push(HeaderField {
                name,
                width_bits,
                offset_bits,
            });
            offset_bits += width_bits;
        }
    }
    if fields.is_empty() {
        return None;
    }
    Some(HeaderStruct {
        name: normalise_name(name),
        fields,
    })
}

fn is_ruler(line: &str) -> bool {
    let l = line.trim();
    l.len() > 4
        && l.chars().all(|c| c == '+' || c == '-' || c == ' ')
        && l.contains('+')
        && l.contains('-')
}

/// The RFC 792 echo-message diagram, kept here both as documentation of the
/// expected input format and for tests.
pub const ICMP_ECHO_DIAGRAM: &str = "\
 0                   1                   2                   3
 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
|     Type      |     Code      |          Checksum             |
+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
|           Identifier          |        Sequence Number        |
+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
|     Data ...
+-+-+-+-+-+-+-+-+-
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_diagram_extracts_fields_and_widths() {
        let hs = parse_header_diagram("icmp_echo", ICMP_ECHO_DIAGRAM).unwrap();
        let type_field = hs.field("Type").unwrap();
        assert_eq!(type_field.width_bits, 8);
        assert_eq!(type_field.offset_bits, 0);
        let code = hs.field("Code").unwrap();
        assert_eq!(code.width_bits, 8);
        assert_eq!(code.offset_bits, 8);
        let checksum = hs.field("Checksum").unwrap();
        assert_eq!(checksum.width_bits, 16);
        assert_eq!(checksum.offset_bits, 16);
        let ident = hs.field("Identifier").unwrap();
        assert_eq!(ident.width_bits, 16);
        assert_eq!(ident.offset_bits, 32);
        let seq = hs.field("Sequence Number").unwrap();
        assert_eq!(seq.name, "sequence_number");
        assert_eq!(seq.width_bits, 16);
    }

    #[test]
    fn extracted_layout_matches_netsim_field_table() {
        // The field table the static framework uses must agree with what the
        // pre-processor extracts from the RFC art.
        let hs = parse_header_diagram("icmp", ICMP_ECHO_DIAGRAM).unwrap();
        for (name, offset, width) in [
            ("type", 0usize, 8usize),
            ("code", 8, 8),
            ("checksum", 16, 16),
            ("identifier", 32, 16),
            ("sequence_number", 48, 16),
        ] {
            let f = hs.field(name).unwrap();
            assert_eq!(
                (f.offset_bits, f.width_bits),
                (offset, width),
                "field {name}"
            );
        }
    }

    #[test]
    fn c_struct_emission() {
        let hs = parse_header_diagram("icmp_echo", ICMP_ECHO_DIAGRAM).unwrap();
        let c = hs.to_c_struct();
        assert!(c.starts_with("struct icmp_echo {"));
        assert!(c.contains("uint8_t type;"));
        assert!(c.contains("uint16_t checksum;"));
        assert!(c.contains("uint16_t sequence_number;"));
    }

    #[test]
    fn non_diagram_text_is_rejected() {
        assert!(parse_header_diagram("x", "The checksum is zero.").is_none());
        assert!(parse_header_diagram("x", "").is_none());
    }

    #[test]
    fn name_normalisation() {
        assert_eq!(normalise_name("Sequence Number"), "sequence_number");
        assert_eq!(
            normalise_name("  Gateway Internet Address "),
            "gateway_internet_address"
        );
        assert_eq!(normalise_name("unused"), "unused");
        assert_eq!(normalise_name("Originate Timestamp"), "originate_timestamp");
    }

    #[test]
    fn sub_byte_fields_are_supported() {
        let art = "\
+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
|Vers | Type  |     Unused      |
+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
";
        let hs = parse_header_diagram("igmp", art).unwrap();
        assert_eq!(hs.fields.len(), 3);
        assert!(hs.fields[0].width_bits < 8);
        let c = hs.to_c_struct();
        assert!(c.contains(':'), "sub-byte fields should use bitfields: {c}");
    }
}
