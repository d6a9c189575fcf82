//! The structured document model produced by the RFC pre-processor.

/// A field-description entry: the field's name and its prose description
/// (which may be a sentence fragment lacking a subject — §4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldEntry {
    /// Field name as written in the RFC ("Checksum", "Code", …).
    pub name: String,
    /// Description text (joined, unwrapped).
    pub description: String,
}

/// One block of a section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Block {
    /// Ordinary prose with its indentation level (spaces).
    Paragraph {
        /// The unwrapped paragraph text.
        text: String,
        /// Leading-space indentation of the paragraph.
        indent: usize,
    },
    /// A packet header diagram in `+-+-+` ASCII art.
    HeaderDiagram(String),
    /// A list of field descriptions.
    FieldList(Vec<FieldEntry>),
    /// Pseudo-code or other verbatim material.
    Verbatim(String),
}

/// A section of an RFC (e.g. "Echo or Echo Reply Message").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Section {
    /// Section title.
    pub title: String,
    /// Blocks in document order.
    pub blocks: Vec<Block>,
}

impl Section {
    /// All field entries in this section.
    pub fn field_entries(&self) -> Vec<&FieldEntry> {
        self.blocks
            .iter()
            .filter_map(|b| match b {
                Block::FieldList(entries) => Some(entries.iter()),
                _ => None,
            })
            .flatten()
            .collect()
    }

    /// The header diagram for this section, if any.
    pub fn header_diagram(&self) -> Option<&str> {
        self.blocks.iter().find_map(|b| match b {
            Block::HeaderDiagram(art) => Some(art.as_str()),
            _ => None,
        })
    }
}

/// A parsed RFC document.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Document {
    /// Protocol name ("ICMP", "IGMP", "NTP", "BFD").
    pub protocol: String,
    /// RFC number, for reporting.
    pub rfc_number: u32,
    /// Sections in document order.
    pub sections: Vec<Section>,
}

/// A sentence extracted from the document together with where it came from —
/// the unit the SAGE pipeline processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sentence {
    /// The sentence text.
    pub text: String,
    /// The section title the sentence appears under.
    pub section: String,
    /// The field-description entry it belongs to, if any.
    pub field: Option<String>,
}

impl Document {
    /// Create an empty document.
    pub fn new(protocol: &str, rfc_number: u32) -> Document {
        Document {
            protocol: protocol.to_string(),
            rfc_number,
            sections: Vec::new(),
        }
    }

    /// Find a section by (case-insensitive substring of) title.
    pub fn section(&self, title_fragment: &str) -> Option<&Section> {
        let needle = title_fragment.to_ascii_lowercase();
        self.sections
            .iter()
            .find(|s| s.title.to_ascii_lowercase().contains(&needle))
    }

    /// Extract every sentence (from paragraphs and field descriptions),
    /// tagged with its structural origin.
    pub fn sentences(&self) -> Vec<Sentence> {
        let mut out = Vec::new();
        for section in &self.sections {
            for block in &section.blocks {
                match block {
                    Block::Paragraph { text, .. } => {
                        for s in split_prose(text) {
                            out.push(Sentence {
                                text: s,
                                section: section.title.clone(),
                                field: None,
                            });
                        }
                    }
                    Block::FieldList(entries) => {
                        for e in entries {
                            for s in split_prose(&e.description) {
                                out.push(Sentence {
                                    text: s,
                                    section: section.title.clone(),
                                    field: Some(e.name.clone()),
                                });
                            }
                        }
                    }
                    Block::HeaderDiagram(_) | Block::Verbatim(_) => {}
                }
            }
        }
        out
    }

    /// All header diagrams in the document, paired with their section title.
    pub fn header_diagrams(&self) -> Vec<(&str, &str)> {
        self.sections
            .iter()
            .filter_map(|s| s.header_diagram().map(|d| (s.title.as_str(), d)))
            .collect()
    }
}

/// Split prose into sentences at every `.` and `;` (a piece that is only
/// its terminator is dropped).  Dotted identifiers, numbers and
/// abbreviations are cut too; the corpus analyses and their goldens are
/// recorded over this splitting.
fn split_prose(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        current.push(ch);
        if ch == '.' || ch == ';' {
            let trimmed = current.trim();
            if trimmed.len() > 1 {
                out.push(trimmed.to_string());
            }
            current.clear();
        }
    }
    let tail = current.trim();
    if !tail.is_empty() {
        out.push(tail.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Document {
        Document {
            protocol: "ICMP".into(),
            rfc_number: 792,
            sections: vec![Section {
                title: "Echo or Echo Reply Message".into(),
                blocks: vec![
                    Block::HeaderDiagram("+-+-+\n|Type|\n+-+-+".into()),
                    Block::Paragraph {
                        text: "The data received in the echo message must be returned in the echo reply message.".into(),
                        indent: 3,
                    },
                    Block::FieldList(vec![
                        FieldEntry {
                            name: "Code".into(),
                            description: "0 for echo message; 8 for echo reply message.".into(),
                        },
                        FieldEntry {
                            name: "Identifier".into(),
                            description:
                                "If code = 0, an identifier to aid in matching echos and replies, may be zero."
                                    .into(),
                        },
                    ]),
                ],
            }],
        }
    }

    #[test]
    fn sentences_carry_structural_origin() {
        let doc = sample_doc();
        let sentences = doc.sentences();
        assert_eq!(sentences.len(), 4);
        assert_eq!(sentences[0].field, None);
        assert_eq!(sentences[0].section, "Echo or Echo Reply Message");
        assert_eq!(sentences[1].field.as_deref(), Some("Code"));
        assert_eq!(sentences[3].field.as_deref(), Some("Identifier"));
        assert!(sentences[3].text.contains("identifier to aid"));
    }

    #[test]
    fn section_lookup_is_case_insensitive_substring() {
        let doc = sample_doc();
        assert!(doc.section("echo").is_some());
        assert!(doc.section("ECHO REPLY").is_some());
        assert!(doc.section("redirect").is_none());
    }

    #[test]
    fn field_entries_and_diagrams_are_accessible() {
        let doc = sample_doc();
        let section = doc.section("echo").unwrap();
        assert_eq!(section.field_entries().len(), 2);
        assert!(section.header_diagram().unwrap().contains("Type"));
        assert_eq!(doc.header_diagrams().len(), 1);
    }

    #[test]
    fn empty_document() {
        let doc = Document::new("ICMP", 792);
        assert!(doc.sentences().is_empty());
        assert!(doc.header_diagrams().is_empty());
        assert_eq!(doc.rfc_number, 792);
    }

    #[test]
    fn semicolons_split_field_descriptions() {
        let doc = sample_doc();
        let code_sentences: Vec<_> = doc
            .sentences()
            .into_iter()
            .filter(|s| s.field.as_deref() == Some("Code"))
            .collect();
        assert_eq!(code_sentences.len(), 2);
    }
}
