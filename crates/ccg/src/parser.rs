//! The CKY chart parser, rewritten around interned, id-compared items.
//!
//! The parser operates over noun-phrase-chunked sentences.  Chart cells hold
//! `(category, semantics)` items; adjacent items combine through forward and
//! backward application, forward composition, coordination and punctuation
//! absorption.  Every complete analysis of the sentence yields one logical
//! form; sentences with several analyses yield several LFs — the raw
//! ambiguity that the disambiguation stage (crate `sage-disambig`) winnows.
//!
//! # Representation
//!
//! A chart item is a pair of `u32` arena ids — a [`CatId`] into a
//! hash-consed [`CatArena`] and a [`SemId`] into a hash-consed
//! [`SemArena`] — so items are `Copy`, unification is an id compare plus
//! the `N`/`NP` coercion check, and per-cell duplicate detection hashes two
//! integers instead of walking category/semantics trees.  The chart itself
//! is packed: one flat `Vec` of items plus a `(start, end)` range per cell,
//! filled cell-by-cell in CKY order, so combining a split point reads two
//! completed ranges and appends to the tail — no per-split cell cloning.
//! Combination rules build new arena nodes (beta reduction rewrites only
//! the spine it touches) instead of cloning subtrees, and the joined
//! surface string for multi-phrase lexicon probes is a single scratch
//! buffer reused across spans and sentences.
//!
//! All of that state lives in a [`ParserWorkspace`], which clones the
//! lexicon's pre-interned arenas once at construction (clones preserve ids,
//! so the lexicon's [`InternedEntry`] ids stay valid) and is recycled
//! across sentences.  `tests/parser_parity.rs` pins its output over all
//! four RFC corpora, under four configurations, in a committed golden
//! recorded while the pre-refactor boxed engine still agreed with it.

use crate::category::{CatArena, CatId, Slash};
use crate::lexicon::{InternedEntry, Lexicon, LookupCache};
use crate::semantics::{SemArena, SemId};
use sage_logic::{IdSet, Lf, LfId, PredName, Symbol};
use sage_nlp::{chunk, tokenize, ChunkerConfig, Phrase, PhraseKind, TermDictionary};

/// An item in a chart cell: an interned category with its interned
/// semantics.  Two items from one workspace are equal iff their boxed
/// counterparts are structurally equal, because both arenas hash-cons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Item {
    cat: CatId,
    sem: SemId,
}

/// Parser configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParserConfig {
    /// Maximum number of items retained per chart cell (guards against
    /// combinatorial blow-up on long sentences).
    pub max_items_per_cell: usize,
    /// Longest multi-word lexicon phrase to try during chart initialisation.
    pub max_lexical_span: usize,
    /// If no sentence-level (`S`) analysis exists, fall back to noun-phrase
    /// analyses.  RFC field descriptions are frequently fragments
    /// ("The internet header plus the first 64 bits …"), so this is on by
    /// default; §4.1's zero-LF examples are produced with it off.
    pub allow_fragments: bool,
    /// Give unknown nominal phrases an `NP` reading even when absent from
    /// the lexicon.  Disabling this reproduces the "0 LFs" behaviour of the
    /// Table 8 ablation where noun-phrase labelling is removed.
    pub unknown_nominals_as_np: bool,
}

impl Default for ParserConfig {
    fn default() -> Self {
        ParserConfig {
            max_items_per_cell: 48,
            max_lexical_span: 5,
            allow_fragments: true,
            unknown_nominals_as_np: true,
        }
    }
}

/// The result of parsing one sentence.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseResult {
    /// All logical forms produced (deduplicated syntactically).
    pub logical_forms: Vec<Lf>,
    /// True if the analyses come from the fragment (NP) fallback rather than
    /// a full sentence parse.
    pub from_fragment: bool,
    /// Total number of chart items built (a proxy for parsing effort).
    pub chart_items: usize,
}

impl ParseResult {
    /// Number of logical forms (the paper's "#LFs per sentence").
    pub fn lf_count(&self) -> usize {
        self.logical_forms.len()
    }
}

/// Reusable per-thread parsing state: the memoized lexicon view, private
/// clones of the lexicon's category/semantics arenas, and the packed-chart
/// scratch buffers.
///
/// Construction clones the lexicon's arenas **once**; after that, parsing a
/// sentence allocates only when it encounters a term, category or surface
/// string the workspace has never seen before (hash-consing makes repeats
/// free), so a workspace recycled across a corpus quickly reaches a
/// steady state where the hot path performs no allocation at all.
///
/// The workspace borrows the lexicon, which also guarantees the lexicon
/// cannot gain entries (and thus arena ids the clones lack) while any
/// workspace is alive.
pub struct ParserWorkspace<'lex> {
    cache: LookupCache<'lex>,
    cats: CatArena,
    sems: SemArena,
    /// Packed chart: all cells' items in one allocation, cell-contiguous.
    chart: Vec<Item>,
    /// Per-cell `(start, end)` ranges into `chart`, indexed `i * n + (j - i - 1)`.
    ranges: Vec<(u32, u32)>,
    /// Per-cell duplicate filter, cleared at each cell start.
    seen: IdSet<Item>,
    /// Reused surface buffer for multi-phrase lexicon probes.
    surface: String,
    /// Reused buffer for `' '` → `'_'` atom normalisation.
    atom_buf: String,
    sym_z_comp: Symbol,
    sym_conj_left: Symbol,
}

impl<'lex> ParserWorkspace<'lex> {
    /// Build a workspace over a shared read-only lexicon, cloning its
    /// pre-interned arenas (id-preserving) and pre-interning the variable
    /// names the combination rules introduce.
    pub fn new(lexicon: &'lex Lexicon) -> ParserWorkspace<'lex> {
        let cats = lexicon.cat_arena().clone();
        let mut sems = lexicon.sem_arena().clone();
        let sym_z_comp = sems.lf_arena_mut().intern_symbol("z_comp");
        let sym_conj_left = sems.lf_arena_mut().intern_symbol("conj_left");
        ParserWorkspace {
            cache: LookupCache::new(lexicon),
            cats,
            sems,
            chart: Vec::new(),
            ranges: Vec::new(),
            seen: IdSet::default(),
            surface: String::new(),
            atom_buf: String::new(),
            sym_z_comp,
            sym_conj_left,
        }
    }

    /// The wrapped lexicon.
    pub fn lexicon(&self) -> &'lex Lexicon {
        self.cache.lexicon()
    }

    /// `(hits, misses)` of the memoized lexicon lookup — each miss is one
    /// real lexicon probe.
    pub fn lookup_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Parse a raw sentence: tokenize, chunk noun phrases, then chart-parse.
    pub fn parse_sentence(
        &mut self,
        sentence: &str,
        dict: &TermDictionary,
        chunker_config: ChunkerConfig,
        parser_config: ParserConfig,
    ) -> ParseResult {
        let tokens = tokenize(sentence);
        let phrases = chunk(&tokens, dict, chunker_config);
        self.parse_phrases(&phrases, parser_config)
    }

    /// Parse an already-chunked sentence on the packed chart.
    pub fn parse_phrases(&mut self, phrases: &[Phrase], config: ParserConfig) -> ParseResult {
        let n = phrases.len();
        if n == 0 {
            return ParseResult {
                logical_forms: Vec::new(),
                from_fragment: false,
                chart_items: 0,
            };
        }

        self.chart.clear();
        self.ranges.clear();
        self.ranges.resize(n * n, (0, 0));
        let mut total_items = 0usize;
        let cap = config.max_items_per_cell;

        // Cells are completed in CKY order (spans small to large), so each
        // cell's items are one contiguous run of the flat chart: lexical
        // items first, then combinations.
        for span in 1..=n {
            for i in 0..=n - span {
                let j = i + span;
                let start = self.chart.len();
                self.seen.clear();

                // ---- lexical initialisation -------------------------------
                if span <= config.max_lexical_span {
                    let has_punct = phrases[i..j].iter().any(|p| p.kind == PhraseKind::Punct);
                    if !(has_punct && span > 1) {
                        self.surface.clear();
                        for (offset, p) in phrases[i..j].iter().enumerate() {
                            if offset > 0 {
                                self.surface.push(' ');
                            }
                            self.surface.push_str(&p.lower);
                        }
                        let entries: &[InternedEntry] = self.cache.lookup_interned(&self.surface);
                        if span == 1 && entries.is_empty() {
                            // Fallback readings for single phrases not in
                            // the lexicon.
                            self.push_fallback(&phrases[i], config, start, cap, &mut total_items);
                        } else {
                            for e in entries {
                                self.push_item(
                                    Item {
                                        cat: e.cat,
                                        sem: e.sem,
                                    },
                                    start,
                                    cap,
                                    &mut total_items,
                                );
                            }
                        }
                    }
                }

                // ---- CKY combination --------------------------------------
                if span >= 2 {
                    for k in i + 1..j {
                        let (ls, le) = self.ranges[cell_index(i, k, n)];
                        let (rs, re) = self.ranges[cell_index(k, j, n)];
                        for li in ls..le {
                            for ri in rs..re {
                                // Items are Copy ids, so reading them does
                                // not hold a borrow on the chart while the
                                // rules push to its tail.
                                let l = self.chart[li as usize];
                                let r = self.chart[ri as usize];
                                self.combine(l, r, start, cap, &mut total_items);
                            }
                        }
                    }
                }

                self.ranges[cell_index(i, j, n)] = (start as u32, self.chart.len() as u32);
            }
        }

        // ---- read out results ------------------------------------------
        let root = self.ranges[cell_index(0, n, n)];
        let mut ids = self.collect_lfs(root, CatArena::S);
        let mut from_fragment = false;
        if ids.is_empty() && config.allow_fragments {
            ids = self.collect_lfs(root, CatArena::NP);
            if ids.is_empty() {
                ids = self.collect_lfs(root, CatArena::N);
            }
            from_fragment = !ids.is_empty();
        }
        ParseResult {
            logical_forms: ids.iter().map(|id| self.sems.resolve_lf(*id)).collect(),
            from_fragment,
            chart_items: total_items,
        }
    }

    fn push_item(&mut self, item: Item, cell_start: usize, cap: usize, total: &mut usize) {
        if self.chart.len() - cell_start >= cap {
            return;
        }
        if !self.seen.insert(item) {
            return;
        }
        *total += 1;
        self.chart.push(item);
    }

    /// Default readings for single phrases without lexicon entries.
    fn push_fallback(
        &mut self,
        phrase: &Phrase,
        config: ParserConfig,
        cell_start: usize,
        cap: usize,
        total: &mut usize,
    ) {
        match phrase.kind {
            PhraseKind::Number => {
                let sem = match phrase.lower.parse::<i64>() {
                    Ok(n) => self.sems.num(n),
                    Err(_) => self.sems.atom(&phrase.lower),
                };
                self.push_item(
                    Item {
                        cat: CatArena::NP,
                        sem,
                    },
                    cell_start,
                    cap,
                    total,
                );
            }
            PhraseKind::DomainTerm | PhraseKind::NounPhrase => {
                if config.unknown_nominals_as_np {
                    let sem = if phrase.lower.contains(' ') {
                        self.atom_buf.clear();
                        for ch in phrase.lower.chars() {
                            self.atom_buf.push(if ch == ' ' { '_' } else { ch });
                        }
                        self.sems.atom(&self.atom_buf)
                    } else {
                        self.sems.atom(&phrase.lower)
                    };
                    self.push_item(
                        Item {
                            cat: CatArena::NP,
                            sem,
                        },
                        cell_start,
                        cap,
                        total,
                    );
                }
            }
            PhraseKind::Punct => {
                let sem = self.sems.atom(&phrase.lower);
                self.push_item(
                    Item {
                        cat: CatArena::PUNCT,
                        sem,
                    },
                    cell_start,
                    cap,
                    total,
                );
            }
            PhraseKind::Word => {
                // Unknown single words: no reading.  (The lexicon plus the
                // nominal fallback covers the vocabulary SAGE understands;
                // an unknown verb legitimately blocks a full-sentence parse,
                // which is exactly the "0 LF" signal the pipeline reports.)
            }
        }
    }

    /// Try every combination rule on a pair of adjacent items, pushing the
    /// results straight into the current cell.
    fn combine(&mut self, l: Item, r: Item, cell_start: usize, cap: usize, total: &mut usize) {
        self.forward_application(l, r, cell_start, cap, total);
        self.backward_application(l, r, cell_start, cap, total);
        self.forward_composition(l, r, cell_start, cap, total);
        self.coordination(l, r, cell_start, cap, total);
        self.punctuation(l, r, cell_start, cap, total);
        self.noun_compound(l, r, cell_start, cap, total);
    }

    /// `X/Y  Y  =>  X`
    fn forward_application(
        &mut self,
        l: Item,
        r: Item,
        cell_start: usize,
        cap: usize,
        total: &mut usize,
    ) {
        if let Some((result, Slash::Forward, arg)) = self.cats.as_complex(l.cat) {
            if CatArena::unifies(arg, r.cat) {
                let app = self.sems.app(l.sem, r.sem);
                let sem = self.sems.normalize(app);
                self.push_item(Item { cat: result, sem }, cell_start, cap, total);
            }
        }
    }

    /// `Y  X\Y  =>  X`
    fn backward_application(
        &mut self,
        l: Item,
        r: Item,
        cell_start: usize,
        cap: usize,
        total: &mut usize,
    ) {
        if let Some((result, Slash::Backward, arg)) = self.cats.as_complex(r.cat) {
            if CatArena::unifies(arg, l.cat) {
                let app = self.sems.app(r.sem, l.sem);
                let sem = self.sems.normalize(app);
                self.push_item(Item { cat: result, sem }, cell_start, cap, total);
            }
        }
    }

    /// `X/Y  Y/Z  =>  X/Z`  (forward composition, B rule)
    fn forward_composition(
        &mut self,
        l: Item,
        r: Item,
        cell_start: usize,
        cap: usize,
        total: &mut usize,
    ) {
        if let (Some((x, Slash::Forward, y1)), Some((y2, Slash::Forward, z))) =
            (self.cats.as_complex(l.cat), self.cats.as_complex(r.cat))
        {
            if CatArena::unifies(y1, y2) {
                let var = self.sems.var_sym(self.sym_z_comp);
                let inner = self.sems.app(r.sem, var);
                let outer = self.sems.app(l.sem, inner);
                let sem = self.sems.lam(self.sym_z_comp, outer);
                let cat = self.cats.forward(x, z);
                self.push_item(Item { cat, sem }, cell_start, cap, total);
            }
        }
    }

    /// `CONJ  X  =>  X\X`  with `λy.@And(y, x_right)`; a later backward
    /// application with the left conjunct completes coordination.
    fn coordination(&mut self, l: Item, r: Item, cell_start: usize, cap: usize, total: &mut usize) {
        if l.cat == CatArena::CONJ && (r.cat == CatArena::NP || r.cat == CatArena::S) {
            let is_or = match self.sems.ground_atom(l.sem) {
                Some(sym) => self.sems.lf_arena().interner().resolve(sym) == "or",
                None => false,
            };
            let conj_pred = if is_or { PredName::Or } else { PredName::And };
            let var = self.sems.var_sym(self.sym_conj_left);
            let body = self.sems.pred(conj_pred, vec![var, r.sem]);
            let sem = self.sems.lam(self.sym_conj_left, body);
            let cat = self.cats.backward(r.cat, r.cat);
            self.push_item(Item { cat, sem }, cell_start, cap, total);
        }
    }

    /// Punctuation absorption: `X PUNCT => X` and `PUNCT X => X`.
    fn punctuation(&mut self, l: Item, r: Item, cell_start: usize, cap: usize, total: &mut usize) {
        if r.cat == CatArena::PUNCT && l.cat != CatArena::PUNCT {
            self.push_item(l, cell_start, cap, total);
        }
        if l.cat == CatArena::PUNCT && r.cat != CatArena::PUNCT {
            self.push_item(r, cell_start, cap, total);
        }
    }

    /// `NP NP => NP` for simple noun-noun compounds ("BFD Control packets").
    /// Restricted to ground atomic semantics so that it cannot interfere
    /// with clause-level structure.
    fn noun_compound(
        &mut self,
        l: Item,
        r: Item,
        cell_start: usize,
        cap: usize,
        total: &mut usize,
    ) {
        if l.cat != CatArena::NP || r.cat != CatArena::NP {
            return;
        }
        if let (Some(a), Some(b)) = (self.sems.ground_atom(l.sem), self.sems.ground_atom(r.sem)) {
            self.atom_buf.clear();
            self.atom_buf
                .push_str(self.sems.lf_arena().interner().resolve(a));
            self.atom_buf.push('_');
            self.atom_buf
                .push_str(self.sems.lf_arena().interner().resolve(b));
            let sem = self.sems.atom(&self.atom_buf);
            self.push_item(
                Item {
                    cat: CatArena::NP,
                    sem,
                },
                cell_start,
                cap,
                total,
            );
        }
    }

    /// Ground logical forms of the root items unifying with `target`,
    /// deduplicated by arena id, in chart order.
    fn collect_lfs(&mut self, (start, end): (u32, u32), target: CatId) -> Vec<LfId> {
        let mut out: Vec<LfId> = Vec::new();
        for idx in start..end {
            let item = self.chart[idx as usize];
            if CatArena::unifies(item.cat, target) {
                if let Some(lf) = self.sems.to_lf_id(item.sem) {
                    if !out.contains(&lf) {
                        out.push(lf);
                    }
                }
            }
        }
        out
    }
}

/// Flat index of the cell covering `phrases[i..j]` in an `n`-phrase chart.
fn cell_index(i: usize, j: usize, n: usize) -> usize {
    i * n + (j - i - 1)
}

/// Parse a raw sentence: tokenize, chunk noun phrases, then chart-parse.
///
/// Builds a transient [`ParserWorkspace`]; callers parsing more than one
/// sentence should hold a workspace and use
/// [`ParserWorkspace::parse_sentence`] so arenas and scratch buffers are
/// recycled.
pub fn parse_sentence(
    sentence: &str,
    lexicon: &Lexicon,
    dict: &TermDictionary,
    chunker_config: ChunkerConfig,
    parser_config: ParserConfig,
) -> ParseResult {
    ParserWorkspace::new(lexicon).parse_sentence(sentence, dict, chunker_config, parser_config)
}

/// Parse an already-chunked sentence.
pub fn parse_phrases(phrases: &[Phrase], lexicon: &Lexicon, config: ParserConfig) -> ParseResult {
    ParserWorkspace::new(lexicon).parse_phrases(phrases, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexicon::Lexicon;

    fn parse(s: &str) -> ParseResult {
        parse_sentence(
            s,
            &Lexicon::bfd(),
            &TermDictionary::networking(),
            ChunkerConfig::default(),
            ParserConfig::default(),
        )
    }

    #[test]
    fn checksum_is_zero() {
        let r = parse("The checksum is zero.");
        assert!(r
            .logical_forms
            .contains(&Lf::is(Lf::atom("checksum"), Lf::num(0))));
        assert!(!r.from_fragment);
    }

    #[test]
    fn checksum_field_should_be_zero() {
        let r = parse("The checksum field should be zero.");
        assert!(r
            .logical_forms
            .contains(&Lf::is(Lf::atom("checksum_field"), Lf::num(0))));
    }

    #[test]
    fn figure7_for_computing_the_checksum() {
        let r = parse("For computing the checksum, the checksum field should be zero.");
        // Expect the paper's LF2 (Figure 2) among the analyses.
        let expected = Lf::Pred(
            PredName::AdvBefore,
            vec![
                Lf::action("compute", vec![Lf::atom("checksum")]),
                Lf::is(Lf::atom("checksum_field"), Lf::num(0)),
            ],
        );
        assert!(
            r.logical_forms.contains(&expected),
            "analyses: {:#?}",
            r.logical_forms
        );
    }

    #[test]
    fn code_equals_zero_condition() {
        let r = parse("If code = 0, the identifier is zero.");
        let expected = Lf::if_then(
            Lf::is(Lf::atom("code"), Lf::num(0)),
            Lf::is(Lf::atom("identifier"), Lf::num(0)),
        );
        assert!(
            r.logical_forms.contains(&expected),
            "analyses: {:#?}",
            r.logical_forms
        );
    }

    #[test]
    fn type_code_changed_to_16() {
        let r = parse("The type code changed to 16.");
        assert!(r
            .logical_forms
            .contains(&Lf::is(Lf::atom("type_code"), Lf::num(16))));
    }

    #[test]
    fn of_chains_generate_multiple_groupings() {
        // "A of B of C" should have at least two analyses (Figure 3).
        let r = parse("The checksum of the header of the message is zero.");
        assert!(
            r.lf_count() >= 2,
            "expected ambiguity from the @Of chain, got {:#?}",
            r.logical_forms
        );
    }

    #[test]
    fn fragment_fallback_for_field_descriptions() {
        // Sentence B from §4.1 — grammatically incomplete, lacking a subject.
        let r = parse("The internet header plus the first 64 bits of the original datagram's data");
        assert!(r.from_fragment);
        assert!(r.lf_count() >= 1);
    }

    #[test]
    fn zero_lfs_without_fragment_fallback() {
        let cfg = ParserConfig {
            allow_fragments: false,
            ..ParserConfig::default()
        };
        let r = parse_sentence(
            "The internet header plus the first 64 bits of the original datagram's data",
            &Lexicon::icmp(),
            &TermDictionary::networking(),
            ChunkerConfig::default(),
            cfg,
        );
        assert_eq!(r.lf_count(), 0);
    }

    #[test]
    fn coordination_builds_and() {
        let r = parse("The source address and the destination address are reversed.");
        let has_and = r
            .logical_forms
            .iter()
            .any(|lf| lf.contains_pred(&PredName::And));
        assert!(has_and, "analyses: {:#?}", r.logical_forms);
    }

    #[test]
    fn empty_sentence_has_no_lfs() {
        let r = parse("");
        assert_eq!(r.lf_count(), 0);
        assert_eq!(r.chart_items, 0);
    }

    #[test]
    fn unknown_verbs_block_sentence_parse() {
        let r = parse_sentence(
            "The widget frobnicates the gadget.",
            &Lexicon::icmp(),
            &TermDictionary::networking(),
            ChunkerConfig::default(),
            ParserConfig {
                allow_fragments: false,
                ..ParserConfig::default()
            },
        );
        assert_eq!(r.lf_count(), 0);
    }

    #[test]
    fn bfd_state_sentence_parses() {
        let r = parse("If bfd.RemoteDemandMode is 1, the local system must cease the periodic transmission of BFD Control packets.");
        assert!(
            r.logical_forms
                .iter()
                .any(|lf| lf.contains_pred(&PredName::If)),
            "analyses: {:#?}",
            r.logical_forms
        );
    }

    #[test]
    fn recycled_workspace_matches_fresh_parses() {
        let lexicon = Lexicon::bfd();
        let dict = TermDictionary::networking();
        let mut ws = ParserWorkspace::new(&lexicon);
        for sentence in [
            "The checksum is zero.",
            "For computing the checksum, the checksum field should be zero.",
            "If code = 0, the identifier is zero.",
            "The checksum is zero.", // repeat: recycled arenas must not change output
        ] {
            let plain = parse_sentence(
                sentence,
                &lexicon,
                &dict,
                ChunkerConfig::default(),
                ParserConfig::default(),
            );
            let recycled = ws.parse_sentence(
                sentence,
                &dict,
                ChunkerConfig::default(),
                ParserConfig::default(),
            );
            assert_eq!(recycled, plain, "recycled parse diverged on {sentence:?}");
        }
        let (hits, _misses) = ws.lookup_stats();
        assert!(hits > 0, "repeat sentence should hit the lookup memo");
        assert_eq!(ws.lexicon().len(), lexicon.len());
    }

    #[test]
    fn chart_item_cap_is_respected() {
        let cfg = ParserConfig {
            max_items_per_cell: 4,
            ..ParserConfig::default()
        };
        let r = parse_sentence(
            "The checksum of the header of the message of the packet of the datagram is zero.",
            &Lexicon::icmp(),
            &TermDictionary::networking(),
            ChunkerConfig::default(),
            cfg,
        );
        // With a tiny cap the parse still terminates and produces something.
        assert!(r.chart_items > 0);
    }
}
