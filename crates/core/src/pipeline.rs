//! The SAGE pipeline: parse → disambiguate → report / generate.

use crate::batch::{BatchItem, BatchPipeline, BatchReport};
use sage_ccg::overgenerate::{overgenerate_with, OvergenConfig};
use sage_ccg::{Lexicon, ParseResult, ParserConfig, ParserWorkspace};
use sage_disambig::{WinnowTrace, Winnower};
use sage_logic::{Interner, Lf, LfArena, PredName, Symbol};
use sage_nlp::{ChunkerConfig, TermDictionary};
use sage_spec::context::ContextDict;
use sage_spec::document::{Document, Sentence};
use std::collections::HashMap;
use std::sync::Arc;

/// Which lexicon to parse with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LexiconChoice {
    /// Base English + ICMP entries.
    Icmp,
    /// + IGMP entries.
    Igmp,
    /// + NTP entries.
    Ntp,
    /// + BFD entries (the full lexicon).
    #[default]
    Bfd,
}

impl LexiconChoice {
    fn build(self) -> Lexicon {
        match self {
            LexiconChoice::Icmp => Lexicon::icmp(),
            LexiconChoice::Igmp => Lexicon::igmp(),
            LexiconChoice::Ntp => Lexicon::ntp(),
            LexiconChoice::Bfd => Lexicon::bfd(),
        }
    }
}

/// Pipeline configuration; the defaults correspond to the paper's primary
/// configuration, and the ablations of Table 8 flip the chunker switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SageConfig {
    /// Noun-phrase chunking configuration (dictionary / NP labelling).
    pub chunker: ChunkerConfig,
    /// Chart-parser configuration.
    pub parser: ParserConfig,
    /// Which CCG over-generation behaviours to emulate.
    pub overgen: OvergenConfig,
    /// Which lexicon to use.
    pub lexicon: LexiconChoice,
}

/// How a sentence fared in the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SentenceStatus {
    /// Exactly one logical form survived winnowing.
    Resolved,
    /// The parser produced no logical forms (even with the subject supplied).
    ZeroLf,
    /// More than one logical form survived — a true ambiguity requiring a
    /// human rewrite.
    Ambiguous,
    /// The sentence was skipped (empty after preprocessing).
    Skipped,
}

/// The per-sentence record produced by the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SentenceAnalysis {
    /// The sentence and its structural origin.
    pub sentence: Sentence,
    /// The dynamic context dictionary.
    pub context: ContextDict,
    /// Number of logical forms straight out of the parser (before
    /// over-generation emulation).
    pub parser_lf_count: usize,
    /// Number of logical forms entering winnowing (the Figure 5 "Base").
    pub base_lf_count: usize,
    /// The logical forms entering winnowing (kept for the Figure 5/6
    /// analyses, which re-apply checks in isolation).
    pub base_lfs: Vec<Lf>,
    /// The winnowing trace (per-stage counts and survivors).
    pub trace: WinnowTrace,
    /// True if the parse only succeeded after the field-description subject
    /// was supplied from document structure (§4.1).
    pub subject_supplied: bool,
    /// Final status.
    pub status: SentenceStatus,
}

impl SentenceAnalysis {
    /// The single surviving logical form, if resolved.
    pub fn resolved_lf(&self) -> Option<&Lf> {
        if self.status == SentenceStatus::Resolved {
            self.trace.survivors.first()
        } else {
            None
        }
    }
}

/// The SAGE pipeline object.
pub struct Sage {
    config: SageConfig,
    lexicon: Lexicon,
    dictionary: TermDictionary,
}

/// Per-worker scratch state for the memoized analysis path.
///
/// The lexicon and configuration live in the shared, read-only [`Sage`];
/// everything mutable — the [`ParserWorkspace`] (memoized lexicon lookups
/// plus the recycled category/semantics arenas and packed-chart buffers of
/// the interned CKY engine), the sentence-level parse memo, the
/// hash-consing logical-form arena, and the pre-built winnowing check
/// families — lives here.  The batch pipeline gives each worker thread its
/// own workspace, so no locks are taken on the hot path.  A workspace
/// serves only the [`Sage`] that built it.
pub struct AnalysisWorkspace<'s> {
    /// The pipeline this workspace was built by; its lexicon is the one
    /// `parser` caches and `parse_memo` was filled from.
    sage: &'s Sage,
    parser: ParserWorkspace<'s>,
    arena: LfArena,
    winnower: Winnower,
    texts: Interner,
    parse_memo: HashMap<Symbol, Arc<ParseResult>>,
    parse_hits: u64,
}

impl AnalysisWorkspace<'_> {
    /// `(hits, misses)` of the lexicon lookup memo.
    pub fn lookup_stats(&self) -> (u64, u64) {
        self.parser.lookup_stats()
    }

    /// Number of distinct logical-form nodes interned so far.
    pub fn arena_nodes(&self) -> usize {
        self.arena.len()
    }

    /// `(hits, misses)` of the per-node check-verdict memo the workspace
    /// arena carries for the id-native winnower.  Because the arena is
    /// hash-consed and lives as long as the workspace, a verdict computed
    /// for a subterm of one sentence is a hit for every later sentence (or
    /// re-analysis) sharing that subterm — over a corpus, hits should
    /// dominate.
    pub fn verdict_stats(&self) -> (u64, u64) {
        self.arena.verdict_stats()
    }

    /// `(hits, distinct sentences)` of the sentence-level parse memo.  RFC
    /// prose repeats field descriptions verbatim across message sections
    /// (the ICMP checksum paragraph appears once per message type), so hits
    /// skip entire chart parses.
    pub fn parse_memo_stats(&self) -> (u64, usize) {
        (self.parse_hits, self.parse_memo.len())
    }
}

impl Sage {
    /// Build a pipeline with the given configuration.
    pub fn new(config: SageConfig) -> Sage {
        let dictionary = if config.chunker.use_dictionary {
            TermDictionary::networking()
        } else {
            TermDictionary::empty()
        };
        Sage {
            lexicon: config.lexicon.build(),
            dictionary,
            config,
        }
    }

    /// Build a fresh per-worker workspace borrowing this pipeline's shared
    /// read-only lexicon; it serves this pipeline only.
    pub fn workspace(&self) -> AnalysisWorkspace<'_> {
        AnalysisWorkspace {
            sage: self,
            parser: ParserWorkspace::new(&self.lexicon),
            arena: LfArena::new(),
            winnower: Winnower::new(),
            texts: Interner::new(),
            parse_memo: HashMap::new(),
            parse_hits: 0,
        }
    }

    /// Parse through the workspace: memoized lexicon lookups, plus a
    /// sentence-level memo keyed by the interned text.
    ///
    /// # Panics
    ///
    /// If `ws` was built by another [`Sage`], whose lexicon and
    /// configuration its caches belong to.
    fn parse_memoized(&self, text: &str, ws: &mut AnalysisWorkspace<'_>) -> Arc<ParseResult> {
        assert!(
            std::ptr::eq(ws.sage, self),
            "an AnalysisWorkspace serves only the Sage that built it"
        );
        let sym = ws.texts.intern(text);
        if let Some(result) = ws.parse_memo.get(&sym) {
            ws.parse_hits += 1;
            return Arc::clone(result);
        }
        let result = Arc::new(ws.parser.parse_sentence(
            text,
            &self.dictionary,
            self.config.chunker,
            self.config.parser,
        ));
        ws.parse_memo.insert(sym, Arc::clone(&result));
        result
    }

    /// Parse one sentence (with optional subject re-supply) and winnow it,
    /// through a reusable [`AnalysisWorkspace`]: lexicon probes are memoized
    /// by interned symbol, logical forms are hash-consed in the workspace
    /// arena, and winnowing compares arena ids instead of string trees.  A
    /// warm workspace produces the same analysis as a fresh one.
    ///
    /// # Panics
    ///
    /// If the sentence needs a parse and `ws` was built by another [`Sage`]
    /// (see [`Sage::workspace`]).
    pub fn analyze_sentence_in(
        &self,
        sentence: &Sentence,
        context: ContextDict,
        ws: &mut AnalysisWorkspace<'_>,
    ) -> SentenceAnalysis {
        let text = sentence.text.trim();
        if text.is_empty() {
            return SentenceAnalysis {
                sentence: sentence.clone(),
                context,
                parser_lf_count: 0,
                base_lf_count: 0,
                base_lfs: Vec::new(),
                trace: ws.winnower.winnow_interned(&[], &mut ws.arena),
                subject_supplied: false,
                status: SentenceStatus::Skipped,
            };
        }

        // The field-value idiom: a field description consisting solely of a
        // value ("Type" followed by "3", or "0 = net unreachable") is turned
        // into an assignment to the described field (§3, domain-specific
        // semantics).
        if let Some(lf) = field_value_idiom(text, &context) {
            let trace = ws
                .winnower
                .winnow_interned(std::slice::from_ref(&lf), &mut ws.arena);
            return SentenceAnalysis {
                sentence: sentence.clone(),
                context,
                parser_lf_count: 1,
                base_lf_count: 1,
                base_lfs: vec![lf],
                trace,
                subject_supplied: false,
                status: SentenceStatus::Resolved,
            };
        }

        let mut result = self.parse_memoized(text, ws);
        let mut subject_supplied = false;
        // §4.1: re-parse subject-less field descriptions with the field name
        // supplied as the subject.
        if result.logical_forms.is_empty() {
            if let Some(field) = &sentence.field {
                let with_subject = format!("The {} is {}", field.to_ascii_lowercase(), text);
                let retry = self.parse_memoized(&with_subject, ws);
                if !retry.logical_forms.is_empty() {
                    result = retry;
                    subject_supplied = true;
                }
            }
        }

        let parser_lf_count = result.logical_forms.len();
        let base = overgenerate_with(&result.logical_forms, self.config.overgen, &mut ws.arena);
        let trace = ws.winnower.winnow_interned(&base, &mut ws.arena);
        let status = if base.is_empty() {
            SentenceStatus::ZeroLf
        } else if trace.survivors.len() == 1 {
            SentenceStatus::Resolved
        } else {
            SentenceStatus::Ambiguous
        };
        SentenceAnalysis {
            sentence: sentence.clone(),
            context,
            parser_lf_count,
            base_lf_count: base.len(),
            base_lfs: base,
            trace,
            subject_supplied,
            status,
        }
    }

    /// [`Sage::analyze_sentence_in`] on a fresh workspace.
    pub fn analyze_sentence(&self, sentence: &Sentence, context: ContextDict) -> SentenceAnalysis {
        self.analyze_sentence_in(sentence, context, &mut self.workspace())
    }

    /// Run the pipeline over every sentence of a document: the one-worker
    /// [`BatchPipeline`] over [`BatchItem::from_document`].
    pub fn analyze_document(&self, doc: &Document) -> BatchReport {
        BatchPipeline::new(self)
            .with_workers(1)
            .run(&BatchItem::from_document(doc))
    }

    /// Analyze a bare list of sentences (used for the BFD state-management
    /// corpus, which the paper evaluates as a sentence list): the one-worker
    /// [`BatchPipeline`] over [`BatchItem::from_sentences`].
    pub fn analyze_sentences(&self, protocol: &str, sentences: &[&str]) -> BatchReport {
        BatchPipeline::new(self)
            .with_workers(1)
            .run(&BatchItem::from_sentences(protocol, sentences))
    }
}

impl Default for Sage {
    fn default() -> Self {
        Sage::new(SageConfig::default())
    }
}

/// Recognise the field-value idioms: a bare value ("3"), or a value list
/// entry ("0 = net unreachable", "8 for echo message").
pub(crate) fn field_value_idiom(text: &str, context: &ContextDict) -> Option<Lf> {
    if context.field.is_empty() {
        return None;
    }
    let cleaned = text.trim_end_matches(['.', ';']).trim();
    // Bare numeric value.
    if let Ok(n) = cleaned.parse::<i64>() {
        return Some(Lf::is(Lf::atom(context.field.clone()), Lf::num(n)));
    }
    // "<value> = <meaning>"  /  "<value> for <meaning>"
    let (value_part, meaning) = cleaned
        .split_once('=')
        .or_else(|| cleaned.split_once(" for "))?;
    let n: i64 = value_part.trim().parse().ok()?;
    let meaning = meaning.trim();
    Some(Lf::Pred(
        PredName::If,
        vec![
            Lf::is(Lf::atom("message"), Lf::atom(meaning)),
            Lf::is(Lf::atom(context.field.clone()), Lf::num(n)),
        ],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_spec::context::context_for;
    use sage_spec::corpus::Protocol;

    #[test]
    fn icmp_document_pipeline_produces_mostly_resolved_sentences() {
        let sage = Sage::default();
        let report = sage.analyze_document(&Protocol::Icmp.document());
        let total = report.reports.len();
        assert!(total >= 60, "only {total} sentences analysed");
        let resolved = report.count(SentenceStatus::Resolved);
        assert!(
            resolved >= 25,
            "expected a substantial number of sentences resolved automatically: {resolved}/{total}"
        );
        assert!(
            resolved > report.count(SentenceStatus::Ambiguous),
            "resolved sentences should outnumber truly ambiguous ones"
        );
        // The known hard sentences remain as zero-LF or ambiguous.
        assert!(report.count(SentenceStatus::ZeroLf) + report.count(SentenceStatus::Ambiguous) > 0);
    }

    #[test]
    fn field_value_idiom_produces_assignments() {
        let ctx = ContextDict {
            protocol: "ICMP".into(),
            message: "Destination Unreachable Message".into(),
            field: "type".into(),
            role: Default::default(),
        };
        assert_eq!(
            field_value_idiom("3", &ctx).unwrap(),
            Lf::is(Lf::atom("type"), Lf::num(3))
        );
        let conditional = field_value_idiom("0 = net unreachable;", &ctx).unwrap();
        assert!(conditional.contains_pred(&PredName::If));
        assert!(field_value_idiom("3", &ContextDict::default()).is_none());
    }

    #[test]
    fn checksum_sentence_is_resolved_to_one_lf() {
        let sage = Sage::default();
        let sentence = Sentence {
            text: "For computing the checksum, the checksum field should be zero.".into(),
            section: "Echo or Echo Reply Message".into(),
            field: Some("Checksum".into()),
        };
        let ctx = ContextDict {
            protocol: "ICMP".into(),
            message: sentence.section.clone(),
            field: "checksum".into(),
            role: Default::default(),
        };
        let analysis = sage.analyze_sentence(&sentence, ctx);
        assert_eq!(
            analysis.status,
            SentenceStatus::Resolved,
            "{:#?}",
            analysis.trace.survivors
        );
        assert!(analysis.base_lf_count >= 1);
    }

    #[test]
    fn subjectless_field_description_gets_subject_supplied() {
        let sage = Sage::default();
        let sentence = Sentence {
            text: "The internet header plus the first 64 bits of the original datagram's data."
                .into(),
            section: "Destination Unreachable Message".into(),
            field: Some("Internet Header".into()),
        };
        let ctx = ContextDict {
            protocol: "ICMP".into(),
            message: sentence.section.clone(),
            field: "internet header".into(),
            role: Default::default(),
        };
        let analysis = sage.analyze_sentence(&sentence, ctx);
        // Either the fragment parse or the subject-supplied parse succeeds.
        assert_ne!(analysis.status, SentenceStatus::ZeroLf);
    }

    #[test]
    fn gateway_sentence_is_hard() {
        // Sentence D: remains unparseable (0 LFs) before rewriting — the
        // paper had to rewrite it too.
        let sage = Sage::new(SageConfig {
            parser: ParserConfig {
                allow_fragments: false,
                ..ParserConfig::default()
            },
            ..SageConfig::default()
        });
        let sentence = Sentence {
            text: sage_spec::corpus::icmp::ZERO_LF_SENTENCES[0].into(),
            section: "Redirect Message".into(),
            field: Some("Gateway Internet Address".into()),
        };
        let ctx = ContextDict {
            protocol: "ICMP".into(),
            message: sentence.section.clone(),
            field: "gateway internet address".into(),
            role: Default::default(),
        };
        let analysis = sage.analyze_sentence(&sentence, ctx);
        assert_eq!(analysis.status, SentenceStatus::ZeroLf);
    }

    #[test]
    fn empty_sentence_is_skipped() {
        let sage = Sage::default();
        let sentence = Sentence {
            text: "   ".into(),
            section: "X".into(),
            field: None,
        };
        let analysis = sage.analyze_sentence(&sentence, ContextDict::default());
        assert_eq!(analysis.status, SentenceStatus::Skipped);
    }

    #[test]
    fn bfd_state_management_sentences_mostly_parse() {
        let sage = Sage::default();
        let report =
            sage.analyze_sentences("BFD", sage_spec::corpus::bfd::STATE_MANAGEMENT_SENTENCES);
        assert_eq!(report.reports.len(), 22);
        let parsed = report
            .analyses()
            .filter(|a| a.status != SentenceStatus::ZeroLf)
            .count();
        assert!(parsed >= 12, "only {parsed}/22 BFD sentences parsed");
    }

    #[test]
    fn workspace_path_matches_plain_path_over_icmp_corpus() {
        let sage = Sage::default();
        let mut ws = sage.workspace();
        let doc = Protocol::Icmp.document();
        for sentence in doc.sentences() {
            let context = context_for(&doc, &sentence);
            let plain = sage.analyze_sentence(&sentence, context.clone());
            let memoized = sage.analyze_sentence_in(&sentence, context, &mut ws);
            assert_eq!(memoized, plain, "diverged on {:?}", sentence.text);
        }
        let (hits, misses) = ws.lookup_stats();
        assert!(hits > misses, "memo should dominate over a corpus");
        assert!(ws.arena_nodes() > 0);
    }

    #[test]
    #[should_panic(expected = "serves only the Sage that built it")]
    fn foreign_workspace_is_refused() {
        // A workspace's lexicon cache and parse memo belong to the pipeline
        // that built it; another pipeline, even one configured the same,
        // may not analyse through it.
        let builder = Sage::default();
        let other = Sage::default();
        let mut foreign_ws = builder.workspace();
        let sentence = Sentence {
            text: "If bfd.RemoteDemandMode is 1, the local system must cease the periodic \
                   transmission of BFD Control packets."
                .into(),
            section: "BFD state management".into(),
            field: None,
        };
        other.analyze_sentence_in(&sentence, ContextDict::default(), &mut foreign_ws);
    }

    #[test]
    fn ablation_configs_change_results() {
        // Disabling NP labelling makes many sentences unparseable (Table 8).
        let full = Sage::default();
        let ablated = Sage::new(SageConfig {
            chunker: ChunkerConfig {
                use_dictionary: true,
                use_np_labeling: false,
            },
            ..SageConfig::default()
        });
        let doc = Protocol::Icmp.document();
        let full_zero = full.analyze_document(&doc).count(SentenceStatus::ZeroLf);
        let ablated_zero = ablated.analyze_document(&doc).count(SentenceStatus::ZeroLf);
        assert!(
            ablated_zero > full_zero,
            "removing NP labelling should increase zero-LF sentences ({ablated_zero} vs {full_zero})"
        );
    }
}
