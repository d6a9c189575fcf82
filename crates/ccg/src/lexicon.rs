//! The CCG lexicon: base English entries plus the domain-specific entries
//! SAGE adds for each protocol.
//!
//! §6.1 of the paper reports 71 lexical entries added for ICMP, 8 more for
//! IGMP, 5 more for NTP, and 15 more for the BFD state-management text; the
//! constructors in this module mirror those increments and the tests pin the
//! counts.

use crate::category::{CatArena, CatId, Category};
use crate::semantics::{SemArena, SemId, SemTerm};
use sage_logic::{Interner, PredName, Symbol};
use std::collections::HashMap;

/// Where a lexical entry came from (base grammar vs per-protocol extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LexiconGroup {
    /// Closed-class English words every parse needs.
    BaseEnglish,
    /// Entries added while processing the ICMP RFC (71 in the paper).
    Icmp,
    /// Entries added for IGMP (8 in the paper).
    Igmp,
    /// Entries added for NTP (5 in the paper).
    Ntp,
    /// Entries added for BFD state management (15 in the paper).
    Bfd,
}

/// A single lexical entry: a surface phrase, its CCG category and semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct LexEntry {
    /// Lower-case surface phrase this entry matches.
    pub phrase: String,
    /// Syntactic category.
    pub category: Category,
    /// Semantic term.
    pub sem: SemTerm,
    /// Which lexicon group contributed the entry.
    pub group: LexiconGroup,
}

impl LexEntry {
    fn new(phrase: &str, category: Category, sem: SemTerm, group: LexiconGroup) -> LexEntry {
        LexEntry {
            phrase: phrase.to_ascii_lowercase(),
            category,
            sem,
            group,
        }
    }
}

/// A lexical entry pre-interned into the owning lexicon's arenas: the
/// category and semantic-term ids the chart parser copies straight into
/// chart cells, with no per-parse cloning or re-interning.
///
/// The ids are valid in the lexicon's [`CatArena`] / [`SemArena`] *and in
/// any clone of them* — cloning an arena preserves ids, which is how a
/// parser workspace gets private mutable arenas that still agree with the
/// shared read-only lexicon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InternedEntry {
    /// Interned syntactic category.
    pub cat: CatId,
    /// Interned semantic term.
    pub sem: SemId,
}

/// The lexicon: phrase → candidate entries, interned at build time into the
/// lexicon's own category/semantics arenas.  The interned items are the
/// lexicon's only copy of its entries.
#[derive(Debug, Clone, Default)]
pub struct Lexicon {
    entries: HashMap<String, Vec<InternedEntry>>,
    cats: CatArena,
    sems: SemArena,
}

// ---- semantic helpers -------------------------------------------------------

fn np_atom(s: &str) -> SemTerm {
    SemTerm::atom(s)
}

/// λx.x — identity modifier.
fn identity() -> SemTerm {
    SemTerm::lam("x", SemTerm::var("x"))
}

/// λx.λy.@P(y, x) — a transitive relation taking its object first.
fn trans(pred: PredName) -> SemTerm {
    SemTerm::lam(
        "x",
        SemTerm::lam(
            "y",
            SemTerm::pred(pred, vec![SemTerm::var("y"), SemTerm::var("x")]),
        ),
    )
}

/// λx.@Action(name, x) — a unary action on its subject.
fn unary_action(name: &str) -> SemTerm {
    SemTerm::lam(
        "x",
        SemTerm::pred(
            PredName::Action,
            vec![SemTerm::atom(name), SemTerm::var("x")],
        ),
    )
}

/// λx.λy.@Action(name, y, x) — an action taking object then subject.
fn binary_action(name: &str) -> SemTerm {
    SemTerm::lam(
        "x",
        SemTerm::lam(
            "y",
            SemTerm::pred(
                PredName::Action,
                vec![SemTerm::atom(name), SemTerm::var("y"), SemTerm::var("x")],
            ),
        ),
    )
}

impl Lexicon {
    /// An empty lexicon.
    pub fn new() -> Lexicon {
        Lexicon::default()
    }

    /// Base English plus the ICMP domain entries (the configuration used for
    /// the paper's primary evaluation).
    pub fn icmp() -> Lexicon {
        let mut lex = Lexicon::new();
        lex.add_entries(base_english_entries());
        lex.add_entries(icmp_entries());
        lex
    }

    /// ICMP lexicon extended with the IGMP additions (§6.3).
    pub fn igmp() -> Lexicon {
        let mut lex = Lexicon::icmp();
        lex.add_entries(igmp_entries());
        lex
    }

    /// IGMP lexicon extended with the NTP additions (§6.3).
    pub fn ntp() -> Lexicon {
        let mut lex = Lexicon::igmp();
        lex.add_entries(ntp_entries());
        lex
    }

    /// Full lexicon including the BFD state-management additions (§6.4).
    pub fn bfd() -> Lexicon {
        let mut lex = Lexicon::ntp();
        lex.add_entries(bfd_entries());
        lex
    }

    /// Add entries, indexing them by phrase and interning each one's
    /// category and semantics into the lexicon's arenas.
    pub fn add_entries(&mut self, entries: Vec<LexEntry>) {
        for e in entries {
            let item = InternedEntry {
                cat: self.cats.intern(&e.category),
                sem: self.sems.intern_term(&e.sem),
            };
            self.entries.entry(e.phrase).or_default().push(item);
        }
    }

    /// Look up the interned chart items for a phrase, in the order they were
    /// added.  Lower-cases the probe only when it actually contains
    /// upper-case bytes, so hot-path probes (chart surfaces are already
    /// lower-case) allocate nothing.
    pub fn lookup_interned(&self, phrase: &str) -> &[InternedEntry] {
        let set = if phrase.bytes().any(|b| b.is_ascii_uppercase()) {
            self.entries.get(&phrase.to_ascii_lowercase())
        } else {
            self.entries.get(phrase)
        };
        set.map_or(&[], Vec::as_slice)
    }

    /// The arena the entries' categories are interned into.
    pub fn cat_arena(&self) -> &CatArena {
        &self.cats
    }

    /// The arena the entries' semantic terms are interned into.
    pub fn sem_arena(&self) -> &SemArena {
        &self.sems
    }

    /// True if the phrase has at least one entry.
    pub fn contains(&self, phrase: &str) -> bool {
        !self.lookup_interned(phrase).is_empty()
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// True if the lexicon is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Memoized, [`Symbol`]-keyed lookup view over a shared read-only
/// [`Lexicon`].
///
/// Chart initialisation probes the lexicon once per candidate span, and a
/// corpus re-probes the same few hundred surface phrases over and over.  The
/// cache interns each (lower-cased) phrase and keys the resolved entry slice
/// by its symbol, so repeat probes cost one hash of a `&str` to find the
/// symbol plus one hash of a `u32` — no per-call lower-case allocation.
///
/// Workers of the batch pipeline each own one `LookupCache` borrowing the
/// single shared lexicon.
pub struct LookupCache<'lex> {
    lexicon: &'lex Lexicon,
    interner: Interner,
    memo: HashMap<Symbol, &'lex [InternedEntry]>,
    hits: u64,
    misses: u64,
}

impl<'lex> LookupCache<'lex> {
    /// Wrap a shared lexicon.
    pub fn new(lexicon: &'lex Lexicon) -> LookupCache<'lex> {
        LookupCache {
            lexicon,
            interner: Interner::new(),
            memo: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The wrapped lexicon.
    pub fn lexicon(&self) -> &'lex Lexicon {
        self.lexicon
    }

    /// Memoized equivalent of [`Lexicon::lookup_interned`] — the chart
    /// parser's lexical-initialisation path.  Repeat probes cost one `&str`
    /// hash plus one `u32` hash; the returned items are `Copy` ids ready to
    /// drop into chart cells.
    pub fn lookup_interned(&mut self, phrase: &str) -> &'lex [InternedEntry] {
        let sym = if phrase.bytes().any(|b| b.is_ascii_uppercase()) {
            self.interner.intern(&phrase.to_ascii_lowercase())
        } else {
            self.interner.intern(phrase)
        };
        if let Some(set) = self.memo.get(&sym) {
            self.hits += 1;
            return set;
        }
        self.misses += 1;
        let set = self.lexicon.lookup_interned(self.interner.resolve(sym));
        self.memo.insert(sym, set);
        set
    }

    /// `(hits, misses)` counters — each miss is one real lexicon probe.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

// ---- base English -----------------------------------------------------------

/// Closed-class English entries: determiners, copulas, modals, conjunctions,
/// core prepositions and punctuation.
pub fn base_english_entries() -> Vec<LexEntry> {
    use Category as C;
    use LexiconGroup::BaseEnglish as G;
    let mut v = Vec::new();
    // Determiners are transparent NP modifiers.
    for det in ["the", "a", "an", "this", "that", "any", "each", "its"] {
        v.push(LexEntry::new(det, C::np_modifier(), identity(), G));
    }
    // Copulas: assignment / equality (the paper's entry (2) for "is").
    for cop in ["is", "are", "was", "were", "will be", "be"] {
        v.push(LexEntry::new(cop, C::verb_trans(), trans(PredName::Is), G));
        // Passive auxiliary reading: "are reversed", "is recomputed".
        v.push(LexEntry::new(
            cop,
            C::forward(C::verb_intrans(), C::verb_intrans()),
            identity(),
            G,
        ));
    }
    // "plus" joins two noun phrases ("the internet header plus the first 64 bits").
    v.push(LexEntry::new(
        "plus",
        C::forward(C::np_postmodifier(), C::NP),
        SemTerm::lam(
            "x",
            SemTerm::lam(
                "y",
                SemTerm::pred(PredName::And, vec![SemTerm::var("y"), SemTerm::var("x")]),
            ),
        ),
        G,
    ));
    // Modals pass their verb phrase through unchanged ((S\NP)/(S\NP)).
    for modal in ["must", "should", "may", "shall", "can", "will", "might"] {
        v.push(LexEntry::new(
            modal,
            C::forward(C::verb_intrans(), C::verb_intrans()),
            identity(),
            G,
        ));
    }
    // Coordination.
    for conj in ["and", "or"] {
        v.push(LexEntry::new(conj, C::Conj, SemTerm::atom(conj), G));
    }
    // Subordinator "if": (S/S)/S with @If semantics.
    v.push(LexEntry::new(
        "if",
        C::forward(C::sentence_modifier(), C::S),
        SemTerm::lam(
            "c",
            SemTerm::lam(
                "b",
                SemTerm::pred(PredName::If, vec![SemTerm::var("c"), SemTerm::var("b")]),
            ),
        ),
        G,
    ));
    // Core prepositions build @Of-style post-modifiers: (NP\NP)/NP.
    for prep in ["of", "in", "from", "for the", "within"] {
        v.push(LexEntry::new(
            prep,
            C::forward(C::np_postmodifier(), C::NP),
            trans(PredName::Of),
            G,
        ));
    }
    // "to" and "with" most often introduce a target value or complement and
    // are transparent.
    for prep in ["to", "with", "as", "by", "simply", "also", "then"] {
        v.push(LexEntry::new(prep, C::np_modifier(), identity(), G));
    }
    // Negation.
    v.push(LexEntry::new(
        "not",
        C::np_modifier(),
        SemTerm::lam("x", SemTerm::pred(PredName::Not, vec![SemTerm::var("x")])),
        G,
    ));
    // Equality symbol used by the "code = 0" idiom.
    v.push(LexEntry::new("=", C::verb_trans(), trans(PredName::Is), G));
    // Punctuation.
    for p in [",", ".", ";", ":", "(", ")", "\""] {
        v.push(LexEntry::new(p, C::Punct, SemTerm::atom(p), G));
    }
    // Pronouns and light nouns that stand in for entities named elsewhere.
    v.push(LexEntry::new("it", C::NP, np_atom("it"), G));
    // "no X" negates the existence of X ("no session is found").
    v.push(LexEntry::new(
        "no",
        C::np_modifier(),
        SemTerm::lam("x", SemTerm::pred(PredName::Not, vec![SemTerm::var("x")])),
        G,
    ));
    // Participles that modify nouns transparently ("the received state").
    for part in ["received", "being", "specified"] {
        v.push(LexEntry::new(part, C::np_modifier(), identity(), G));
    }
    // Imperative verbs used by state-management prose ("Set X to Y",
    // "Update X ...").
    v.push(LexEntry::new(
        "set",
        C::forward(C::forward(C::S, C::NP), C::NP),
        SemTerm::lam(
            "t",
            SemTerm::lam(
                "v",
                SemTerm::pred(PredName::Is, vec![SemTerm::var("t"), SemTerm::var("v")]),
            ),
        ),
        G,
    ));
    v.push(LexEntry::new(
        "set",
        C::verb_intrans(),
        unary_action("set"),
        G,
    ));
    v.push(LexEntry::new(
        "update",
        C::forward(C::S, C::NP),
        SemTerm::lam(
            "x",
            SemTerm::pred(
                PredName::Action,
                vec![SemTerm::atom("update"), SemTerm::var("x")],
            ),
        ),
        G,
    ));
    for (verb, action) in [
        ("terminated", "terminate"),
        ("transmitted", "transmit"),
        ("associated", "associate"),
    ] {
        v.push(LexEntry::new(
            verb,
            C::verb_intrans(),
            unary_action(action),
            G,
        ));
    }
    // Generic numbers written as words.
    v.push(LexEntry::new("zero", C::NP, SemTerm::num(0), G));
    v.push(LexEntry::new("one", C::NP, SemTerm::num(1), G));
    v.push(LexEntry::new("nonzero", C::NP, np_atom("nonzero"), G));
    v
}

// ---- ICMP (71 entries) ------------------------------------------------------

/// The 71 domain-specific entries added for RFC 792 (ICMP).
pub fn icmp_entries() -> Vec<LexEntry> {
    use Category as C;
    use LexiconGroup::Icmp as G;
    let mut v = Vec::new();

    // 1–24: header fields and packet nouns treated as NP keywords
    // (the paper's entry (1): checksum → NP: "checksum").
    for noun in [
        "checksum",
        "checksum field",
        "type",
        "type field",
        "code",
        "code field",
        "type code",
        "identifier",
        "identifier field",
        "sequence number",
        "sequence number field",
        "pointer",
        "gateway internet address",
        "internet header",
        "unused",
        "originate timestamp",
        "receive timestamp",
        "transmit timestamp",
        "source address",
        "destination address",
        "source and destination addresses",
        "icmp message",
        "icmp type",
        "icmp checksum",
    ] {
        v.push(LexEntry::new(
            noun,
            C::NP,
            np_atom(&noun.replace(' ', "_")),
            G,
        ));
    }

    // 25–38: message-type noun phrases.
    for msg in [
        "echo message",
        "echo reply",
        "echo reply message",
        "information request message",
        "information reply message",
        "timestamp message",
        "timestamp reply message",
        "destination unreachable message",
        "time exceeded message",
        "parameter problem message",
        "source quench message",
        "redirect message",
        "original datagram",
        "original datagram's data",
    ] {
        v.push(LexEntry::new(
            msg,
            C::NP,
            np_atom(&msg.replace(' ', "_")),
            G,
        ));
    }

    // 39–46: other domain nouns.
    for noun in [
        "gateway",
        "internet destination network field",
        "source network",
        "first 64 bits",
        "higher level protocol",
        "port numbers",
        "octet",
        "data datagram",
    ] {
        v.push(LexEntry::new(
            noun,
            C::NP,
            np_atom(&noun.replace(' ', "_")),
            G,
        ));
    }

    // 47–58: verbs describing ICMP operations.
    v.push(LexEntry::new(
        "reversed",
        C::verb_intrans(),
        unary_action("reverse"),
        G,
    ));
    v.push(LexEntry::new(
        "recomputed",
        C::verb_intrans(),
        unary_action("recompute"),
        G,
    ));
    v.push(LexEntry::new(
        "computed",
        C::verb_intrans(),
        unary_action("compute"),
        G,
    ));
    v.push(LexEntry::new(
        "changed to",
        C::verb_trans(),
        trans(PredName::Is),
        G,
    ));
    v.push(LexEntry::new(
        "set to",
        C::verb_trans(),
        trans(PredName::Is),
        G,
    ));
    v.push(LexEntry::new(
        "identifies",
        C::verb_trans(),
        binary_action("identify"),
        G,
    ));
    v.push(LexEntry::new(
        "matching",
        C::forward(C::np_postmodifier(), C::NP),
        trans(PredName::Of),
        G,
    ));
    v.push(LexEntry::new(
        "aid in",
        C::forward(C::np_postmodifier(), C::NP),
        trans(PredName::Of),
        G,
    ));
    v.push(LexEntry::new(
        "to aid in",
        C::forward(C::np_postmodifier(), C::NP),
        trans(PredName::Of),
        G,
    ));
    v.push(LexEntry::new(
        "sent",
        C::verb_intrans(),
        unary_action("send"),
        G,
    ));
    v.push(LexEntry::new(
        "returned",
        C::verb_intrans(),
        unary_action("return"),
        G,
    ));
    v.push(LexEntry::new(
        "discarded",
        C::verb_intrans(),
        unary_action("discard"),
        G,
    ));

    // 59–63: the "For computing the checksum, ..." advice construction
    // (Figure 7): $For, $Compute, plus related gerunds.
    v.push(LexEntry::new(
        "for",
        C::forward(C::sentence_modifier(), C::NP),
        SemTerm::lam(
            "x",
            SemTerm::lam(
                "s",
                SemTerm::pred(
                    PredName::AdvBefore,
                    vec![SemTerm::var("x"), SemTerm::var("s")],
                ),
            ),
        ),
        G,
    ));
    v.push(LexEntry::new(
        "computing",
        C::np_modifier(),
        SemTerm::lam(
            "x",
            SemTerm::pred(
                PredName::Action,
                vec![SemTerm::atom("compute"), SemTerm::var("x")],
            ),
        ),
        G,
    ));
    v.push(LexEntry::new(
        "forming",
        C::np_modifier(),
        SemTerm::lam(
            "x",
            SemTerm::pred(
                PredName::Action,
                vec![SemTerm::atom("form"), SemTerm::var("x")],
            ),
        ),
        G,
    ));
    v.push(LexEntry::new(
        "to form",
        C::forward(C::sentence_modifier(), C::NP),
        SemTerm::lam(
            "x",
            SemTerm::lam(
                "s",
                SemTerm::pred(
                    PredName::AdvBefore,
                    vec![
                        SemTerm::pred(
                            PredName::Action,
                            vec![SemTerm::atom("form"), SemTerm::var("x")],
                        ),
                        SemTerm::var("s"),
                    ],
                ),
            ),
        ),
        G,
    ));
    v.push(LexEntry::new(
        "starting with",
        C::forward(C::np_postmodifier(), C::NP),
        trans(PredName::StartsWith),
        G,
    ));

    // 64–71: checksum-specific operations and idioms.  The one's-complement
    // phrases are NP keywords whose @Of relationships the preposition "of"
    // supplies, yielding the Figure 3 logical forms.
    v.push(LexEntry::new("one's complement", C::NP, np_atom("Ones"), G));
    v.push(LexEntry::new(
        "16-bit one's complement",
        C::NP,
        np_atom("Ones"),
        G,
    ));
    v.push(LexEntry::new(
        "16-bit ones's complement",
        C::NP,
        np_atom("Ones"),
        G,
    ));
    v.push(LexEntry::new(
        "one's complement sum",
        C::NP,
        np_atom("OnesSum"),
        G,
    ));
    v.push(LexEntry::new(
        "may be zero",
        C::verb_intrans(),
        SemTerm::lam(
            "x",
            SemTerm::pred(
                PredName::May,
                vec![SemTerm::pred(
                    PredName::Is,
                    vec![SemTerm::var("x"), SemTerm::Ground(sage_logic::Lf::num(0))],
                )],
            ),
        ),
        G,
    ));
    v.push(LexEntry::new(
        "echos and replies",
        C::NP,
        np_atom("echos_and_replies"),
        G,
    ));
    v.push(LexEntry::new(
        "timestamp and replies",
        C::NP,
        np_atom("timestamp_and_replies"),
        G,
    ));
    v.push(LexEntry::new(
        "time exceeded",
        C::NP,
        np_atom("time_exceeded"),
        G,
    ));

    v
}

// ---- IGMP (8 entries) -------------------------------------------------------

/// The 8 entries added for IGMP (RFC 1112, Appendix I).
pub fn igmp_entries() -> Vec<LexEntry> {
    use Category as C;
    use LexiconGroup::Igmp as G;
    vec![
        LexEntry::new("igmp message", C::NP, np_atom("igmp_message"), G),
        LexEntry::new(
            "host membership query",
            C::NP,
            np_atom("host_membership_query"),
            G,
        ),
        LexEntry::new(
            "host membership report",
            C::NP,
            np_atom("host_membership_report"),
            G,
        ),
        LexEntry::new("group address", C::NP, np_atom("group_address"), G),
        LexEntry::new(
            "host group address",
            C::NP,
            np_atom("host_group_address"),
            G,
        ),
        LexEntry::new("igmp checksum", C::NP, np_atom("igmp_checksum"), G),
        LexEntry::new("all-hosts group", C::NP, np_atom("all_hosts_group"), G),
        LexEntry::new("zeroed", C::verb_intrans(), unary_action("zero"), G),
    ]
}

// ---- NTP (5 entries) --------------------------------------------------------

/// The 5 entries added for NTP (RFC 1059, Appendices A and B).
pub fn ntp_entries() -> Vec<LexEntry> {
    use Category as C;
    use LexiconGroup::Ntp as G;
    vec![
        LexEntry::new("ntp message", C::NP, np_atom("ntp_message"), G),
        LexEntry::new("timeout procedure", C::NP, np_atom("timeout_procedure"), G),
        LexEntry::new("peer timer", C::NP, np_atom("peer.timer"), G),
        LexEntry::new(
            "timer threshold variable",
            C::NP,
            np_atom("peer.threshold"),
            G,
        ),
        LexEntry::new(
            "reaches",
            C::verb_trans(),
            SemTerm::lam(
                "x",
                SemTerm::lam(
                    "y",
                    SemTerm::pred(
                        PredName::Compare,
                        vec![SemTerm::atom(">="), SemTerm::var("y"), SemTerm::var("x")],
                    ),
                ),
            ),
            G,
        ),
    ]
}

// ---- BFD (15 entries) -------------------------------------------------------

/// The 15 entries added for the BFD state-management text (RFC 5880 §6.8.6).
pub fn bfd_entries() -> Vec<LexEntry> {
    use Category as C;
    use LexiconGroup::Bfd as G;
    let mut v = vec![
        LexEntry::new(
            "bfd control packet",
            C::NP,
            np_atom("bfd_control_packet"),
            G,
        ),
        LexEntry::new("bfd packet", C::NP, np_atom("bfd_packet"), G),
        LexEntry::new(
            "your discriminator field",
            C::NP,
            np_atom("your_discriminator"),
            G,
        ),
        LexEntry::new(
            "my discriminator field",
            C::NP,
            np_atom("my_discriminator"),
            G,
        ),
        LexEntry::new("session", C::NP, np_atom("session"), G),
        LexEntry::new("local system", C::NP, np_atom("local_system"), G),
        LexEntry::new("remote system", C::NP, np_atom("remote_system"), G),
        LexEntry::new("demand mode", C::NP, np_atom("demand_mode"), G),
        LexEntry::new(
            "periodic transmission",
            C::NP,
            np_atom("periodic_transmission"),
            G,
        ),
        LexEntry::new("up", C::NP, np_atom("Up"), G),
        LexEntry::new("down", C::NP, np_atom("Down"), G),
    ];
    v.push(LexEntry::new(
        "used to select",
        C::verb_trans(),
        binary_action("select"),
        G,
    ));
    v.push(LexEntry::new(
        "found",
        C::verb_intrans(),
        unary_action("find"),
        G,
    ));
    v.push(LexEntry::new(
        "cease",
        C::verb_intrans(),
        unary_action("cease"),
        G,
    ));
    v.push(LexEntry::new(
        "cease the periodic transmission of",
        C::verb_trans(),
        binary_action("cease_transmission"),
        G,
    ));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_logic::Lf;

    #[test]
    fn icmp_adds_71_entries() {
        assert_eq!(icmp_entries().len(), 71);
    }

    #[test]
    fn igmp_ntp_bfd_extension_counts_match_paper() {
        assert_eq!(igmp_entries().len(), 8);
        assert_eq!(ntp_entries().len(), 5);
        assert_eq!(bfd_entries().len(), 15);
    }

    #[test]
    fn lexicons_are_cumulative() {
        assert!(Lexicon::icmp().len() < Lexicon::igmp().len());
        assert!(Lexicon::igmp().len() < Lexicon::ntp().len());
        assert!(Lexicon::ntp().len() < Lexicon::bfd().len());
    }

    /// The logical form an entry's semantics reduces to, on a copy of the
    /// lexicon's arena.
    fn lf_of(lex: &Lexicon, sem: SemId) -> Option<Lf> {
        let mut sems = lex.sem_arena().clone();
        sems.to_lf_id(sem).map(|lf| sems.resolve_lf(lf))
    }

    #[test]
    fn checksum_entry_matches_paper_example() {
        let lex = Lexicon::icmp();
        let items = lex.lookup_interned("checksum");
        assert_eq!(items.len(), 1);
        assert_eq!(lex.cat_arena().resolve(items[0].cat), Category::NP);
        assert_eq!(lf_of(&lex, items[0].sem), Some(Lf::atom("checksum")));
    }

    #[test]
    fn is_entry_matches_paper_example() {
        let lex = Lexicon::icmp();
        let items = lex.lookup_interned("is");
        // Two readings: assignment/equality and the passive auxiliary.
        assert_eq!(items.len(), 2);
        let assign = items
            .iter()
            .find(|e| lex.cat_arena().resolve(e.cat) == Category::verb_trans())
            .expect("transitive reading for 'is'");
        // λx.λy.@Is(y, x): applying 0 then checksum yields @Is(checksum, 0).
        let mut sems = lex.sem_arena().clone();
        let zero = sems.num(0);
        let checksum = sems.atom("checksum");
        let partial = sems.app(assign.sem, zero);
        let applied = sems.app(partial, checksum);
        assert_eq!(
            sems.to_lf_id(applied).map(|lf| sems.resolve_lf(lf)),
            Some(Lf::is(Lf::atom("checksum"), Lf::num(0)))
        );
    }

    #[test]
    fn zero_entry_matches_paper_example() {
        let lex = Lexicon::icmp();
        let items = lex.lookup_interned("zero");
        assert_eq!(lf_of(&lex, items[0].sem), Some(Lf::num(0)));
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let lex = Lexicon::icmp();
        assert!(lex.contains("Checksum"));
        assert!(lex.contains("Echo Reply Message"));
        assert!(!lex.contains("nonexistent phrase"));
    }

    #[test]
    fn bfd_lexicon_covers_state_sentences() {
        let lex = Lexicon::bfd();
        assert!(lex.contains("your discriminator field"));
        assert!(lex.contains("periodic transmission"));
        assert!(lex.contains("local system"));
    }

    #[test]
    fn lookup_cache_agrees_with_direct_lookup_and_memoizes() {
        let lexicon = Lexicon::bfd();
        let mut cache = LookupCache::new(&lexicon);
        for phrase in ["checksum", "Checksum", "is", "no such phrase", "checksum"] {
            assert_eq!(
                cache.lookup_interned(phrase),
                lexicon.lookup_interned(phrase),
                "{phrase}"
            );
        }
        let (hits, misses) = cache.stats();
        // "Checksum" and the repeat "checksum" hit the memo.
        assert_eq!(misses, 3, "expected 3 distinct probes");
        assert_eq!(hits, 2, "expected 2 memo hits");
        assert!(!cache.lookup_interned("checksum").is_empty());
        assert!(cache.lookup_interned("no such phrase").is_empty());
        assert_eq!(cache.lexicon().len(), lexicon.len());
    }

    #[test]
    fn interned_entries_mirror_boxed_entries() {
        let lexicon = Lexicon::bfd();
        let boxed = [
            base_english_entries(),
            icmp_entries(),
            igmp_entries(),
            ntp_entries(),
            bfd_entries(),
        ]
        .concat();
        assert_eq!(lexicon.len(), boxed.len());
        for phrase in ["checksum", "is", "of", "set", "zero", "bfd control packet"] {
            let entries: Vec<&LexEntry> = boxed.iter().filter(|e| e.phrase == phrase).collect();
            let items = lexicon.lookup_interned(phrase);
            assert_eq!(entries.len(), items.len(), "{phrase}");
            for (e, item) in entries.iter().zip(items) {
                assert_eq!(
                    lexicon.cat_arena().resolve(item.cat),
                    e.category,
                    "category mismatch for {phrase}"
                );
                assert_eq!(
                    lexicon.sem_arena().resolve(item.sem),
                    e.sem,
                    "semantics mismatch for {phrase}"
                );
            }
        }
        assert!(lexicon.lookup_interned("no such phrase").is_empty());
        // The memoized path returns the same interned items.
        let mut cache = LookupCache::new(&lexicon);
        assert_eq!(cache.lookup_interned("is"), lexicon.lookup_interned("is"));
        assert_eq!(cache.lookup_interned("IS"), lexicon.lookup_interned("is"));
    }

    #[test]
    fn no_duplicate_phrase_category_pairs_within_a_group() {
        for (name, entries) in [
            ("icmp", icmp_entries()),
            ("igmp", igmp_entries()),
            ("ntp", ntp_entries()),
            ("bfd", bfd_entries()),
            ("base", base_english_entries()),
        ] {
            let mut seen = std::collections::HashSet::new();
            for e in &entries {
                assert!(
                    seen.insert((e.phrase.clone(), format!("{}", e.category))),
                    "duplicate entry in {name}: {} :: {}",
                    e.phrase,
                    e.category
                );
            }
        }
    }
}
