//! Lightweight semantic typing of LF leaves.
//!
//! CCG's lexical rules do not support a type system (§4.1, "inconsistent
//! argument types"), so SAGE layers one on top: each atom is classified as a
//! field reference, numeric constant, function name, protocol message, state
//! variable, and so on.  The type checks in `sage-disambig` consult these
//! classifications.

use crate::intern::{LfArena, LfId, LfNode};
use crate::lf::Lf;
use crate::pred::PredName;

/// Coarse semantic categories for LF leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomType {
    /// A numeric constant (`0`, `16`, `64`).
    Constant,
    /// A protocol header field (`checksum`, `type`, `code`, `identifier`).
    Field,
    /// A function-like operation (`compute`, `reverse`, `recompute`, `send`).
    Function,
    /// A protocol message name (`echo reply message`).
    Message,
    /// A protocol or layer name (`ICMP`, `IP`, `UDP`).
    Protocol,
    /// A state variable (`bfd.SessionState`, `peer.timer`).
    StateVar,
    /// A permitted state value (`Up`, `Down`, `Init`, `client mode`).
    StateValue,
    /// Anything else (generic noun phrase).
    Other,
}

/// Field names that appear in the packet formats handled by SAGE (ICMP,
/// IGMP, NTP, BFD headers plus the IP fields the static context exposes).
const FIELD_WORDS: &[&str] = &[
    "type",
    "code",
    "checksum",
    "checksum field",
    "checksum_field",
    "identifier",
    "sequence number",
    "sequence_number",
    "pointer",
    "gateway internet address",
    "gateway_internet_address",
    "internet header",
    "unused",
    "originate timestamp",
    "receive timestamp",
    "transmit timestamp",
    "source address",
    "destination address",
    "source and destination addresses",
    "address",
    "time-to-live",
    "ttl",
    "version",
    "max response time",
    "group address",
    "your discriminator",
    "your discriminator field",
    "my discriminator",
    "detect mult",
    "desired min tx interval",
    "required min rx interval",
    "leap indicator",
    "stratum",
    "poll",
    "precision",
    "root delay",
    "root dispersion",
    "reference identifier",
    "reference timestamp",
    "type code",
    "type of service",
    "protocol",
    "port",
    "port numbers",
    "length",
    "data",
    "payload",
];

/// Operation words that act as function names in `@Action` forms.
const FUNCTION_WORDS: &[&str] = &[
    "compute",
    "computing",
    "recompute",
    "recomputed",
    "reverse",
    "reversed",
    "send",
    "sent",
    "discard",
    "discarded",
    "select",
    "match",
    "matching",
    "form",
    "return",
    "set",
    "change",
    "changed",
    "cease",
    "update",
    "initialize",
    "timeout_procedure",
    "timeout procedure",
    "one's complement",
    "ones complement",
    "one's complement sum",
    "16-bit one's complement",
    "incremental update",
    "aid",
];

/// Message-level nouns.
const MESSAGE_WORDS: &[&str] = &[
    "echo message",
    "echo reply",
    "echo reply message",
    "information reply message",
    "information request",
    "timestamp message",
    "timestamp reply message",
    "destination unreachable message",
    "time exceeded message",
    "parameter problem message",
    "source quench message",
    "redirect message",
    "membership query",
    "membership report",
    "host membership query",
    "host membership report",
    "ntp message",
    "bfd control packet",
    "bfd packet",
    "control packets",
    "packet",
    "datagram",
    "message",
    "icmp_message",
    "icmp message",
];

/// Protocol / layer names.
const PROTOCOL_WORDS: &[&str] = &[
    "icmp",
    "ip",
    "udp",
    "tcp",
    "igmp",
    "ntp",
    "bfd",
    "internet protocol",
    "ospf",
    "bgp",
    "rtp",
];

/// State values used by BFD/NTP state-management text.
const STATE_VALUE_WORDS: &[&str] = &[
    "up",
    "down",
    "init",
    "admindown",
    "client mode",
    "symmetric mode",
    "server mode",
    "broadcast mode",
    "demand mode",
    "active",
    "passive",
];

fn normalize(s: &str) -> String {
    s.trim().to_ascii_lowercase().replace('_', " ")
}

/// Classify an atom's semantic type.
///
/// State variables are recognised structurally (dotted names such as
/// `bfd.SessionState` or `peer.timer`); other categories use word lists
/// drawn from the protocols in the corpus.
pub fn infer_atom_type(atom: &str) -> AtomType {
    let norm = normalize(atom);
    if norm.is_empty() {
        return AtomType::Other;
    }
    if norm.parse::<i64>().is_ok() || norm == "zero" || norm == "one" {
        return AtomType::Constant;
    }
    if atom.contains('.')
        && atom
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_')
    {
        return AtomType::StateVar;
    }
    if STATE_VALUE_WORDS.contains(&norm.as_str()) {
        return AtomType::StateValue;
    }
    if MESSAGE_WORDS.contains(&norm.as_str()) {
        return AtomType::Message;
    }
    if PROTOCOL_WORDS.contains(&norm.as_str()) {
        return AtomType::Protocol;
    }
    if FIELD_WORDS.contains(&norm.as_str()) {
        return AtomType::Field;
    }
    if FUNCTION_WORDS.contains(&norm.as_str()) {
        return AtomType::Function;
    }
    // Composite field names like "checksum field" or "identifier field".
    if norm.ends_with(" field") {
        let stem = norm.trim_end_matches(" field").trim();
        if FIELD_WORDS.contains(&stem) {
            return AtomType::Field;
        }
    }
    AtomType::Other
}

/// Classify an arbitrary LF node: numbers are constants, predicates are not
/// typed (returns `None`), atoms use [`infer_atom_type`].
pub fn infer_lf_type(lf: &Lf) -> Option<AtomType> {
    match lf {
        Lf::Number(_) => Some(AtomType::Constant),
        Lf::Atom(s) => Some(infer_atom_type(s)),
        Lf::Pred(..) => None,
    }
}

/// True if the node can serve as the left-hand side of an assignment
/// (`@Is`): fields and state variables can, constants cannot.
pub fn assignable(lf: &Lf) -> bool {
    match infer_lf_type(lf) {
        Some(AtomType::Constant) => false,
        Some(AtomType::Field) | Some(AtomType::StateVar) => true,
        Some(_) => true, // unknown noun phrases get the benefit of the doubt
        None => {
            // Nested @Of(field, message) or @Field(...) references are assignable.
            matches!(
                lf.pred_name(),
                Some(crate::pred::PredName::Of) | Some(crate::pred::PredName::Field)
            )
        }
    }
}

/// True if the node can serve as a function name argument to `@Action`.
pub fn valid_function_name(lf: &Lf) -> bool {
    match lf {
        Lf::Number(_) => false,
        Lf::Atom(s) => {
            let t = infer_atom_type(s);
            t == AtomType::Function || t == AtomType::Other
        }
        Lf::Pred(..) => false,
    }
}

// ---- interned entry points --------------------------------------------------
//
// The id-native check engine types arena nodes without materialising boxed
// trees.  All three functions cache through the arena's per-symbol memo
// tables: one word-list scan per *distinct* atom, ever.

/// Interned counterpart of [`assignable`]: fields, state variables and other
/// noun phrases can head an `@Is`, constants cannot, and `@Of`/`@Field`
/// references are assignable.
pub fn assignable_interned(arena: &mut LfArena, id: LfId) -> bool {
    match arena.type_of(id) {
        Some(AtomType::Constant) => false,
        Some(_) => true,
        None => match arena.node(id) {
            LfNode::Pred(sym, _) => {
                let of = PredName::Of.builtin_symbol().expect("builtin");
                let field = PredName::Field.builtin_symbol().expect("builtin");
                *sym == of || *sym == field
            }
            _ => false,
        },
    }
}

/// Interned counterpart of [`valid_function_name`].
pub fn valid_function_name_interned(arena: &mut LfArena, id: LfId) -> bool {
    match arena.node(id) {
        LfNode::Num(_) | LfNode::Pred(..) => false,
        LfNode::Atom(_) => matches!(
            arena.type_of(id),
            Some(AtomType::Function) | Some(AtomType::Other)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_and_number_words_are_constants() {
        assert_eq!(infer_atom_type("0"), AtomType::Constant);
        assert_eq!(infer_atom_type("16"), AtomType::Constant);
        assert_eq!(infer_atom_type("zero"), AtomType::Constant);
    }

    #[test]
    fn header_fields_are_fields() {
        assert_eq!(infer_atom_type("checksum"), AtomType::Field);
        assert_eq!(infer_atom_type("Checksum"), AtomType::Field);
        assert_eq!(infer_atom_type("checksum_field"), AtomType::Field);
        assert_eq!(infer_atom_type("identifier field"), AtomType::Field);
        assert_eq!(infer_atom_type("sequence number"), AtomType::Field);
    }

    #[test]
    fn state_variables_recognised_structurally() {
        assert_eq!(infer_atom_type("bfd.SessionState"), AtomType::StateVar);
        assert_eq!(infer_atom_type("peer.timer"), AtomType::StateVar);
        assert_eq!(infer_atom_type("bfd.RemoteDemandMode"), AtomType::StateVar);
    }

    #[test]
    fn state_values_and_modes() {
        assert_eq!(infer_atom_type("Up"), AtomType::StateValue);
        assert_eq!(infer_atom_type("client mode"), AtomType::StateValue);
    }

    #[test]
    fn functions_and_messages() {
        assert_eq!(infer_atom_type("compute"), AtomType::Function);
        assert_eq!(infer_atom_type("one's complement sum"), AtomType::Function);
        assert_eq!(infer_atom_type("echo reply message"), AtomType::Message);
        assert_eq!(infer_atom_type("ICMP"), AtomType::Protocol);
    }

    #[test]
    fn unknown_atoms_are_other() {
        assert_eq!(infer_atom_type("original datagram"), AtomType::Other);
        assert_eq!(infer_atom_type(""), AtomType::Other);
    }

    #[test]
    fn constants_are_not_assignable() {
        assert!(!assignable(&Lf::num(0)));
        assert!(!assignable(&Lf::atom("3")));
        assert!(assignable(&Lf::atom("checksum")));
        assert!(assignable(&Lf::atom("bfd.SessionState")));
    }

    #[test]
    fn interned_entry_points_agree_with_boxed_helpers() {
        let mut arena = LfArena::new();
        let cases = [
            Lf::atom("checksum"),
            Lf::atom("compute"),
            Lf::atom("3"),
            Lf::num(0),
            Lf::atom("bfd.SessionState"),
            Lf::is(Lf::atom("a"), Lf::atom("b")),
            Lf::Pred(
                PredName::Of,
                vec![Lf::atom("checksum"), Lf::atom("icmp message")],
            ),
            Lf::Pred(PredName::Field, vec![Lf::atom("icmp"), Lf::atom("type")]),
        ];
        for lf in &cases {
            let id = arena.intern_lf(lf);
            assert_eq!(arena.type_of(id), infer_lf_type(lf));
            assert_eq!(assignable_interned(&mut arena, id), assignable(lf), "{lf}");
            assert_eq!(
                valid_function_name_interned(&mut arena, id),
                valid_function_name(lf),
                "{lf}"
            );
        }
    }

    #[test]
    fn of_references_are_assignable() {
        let lf = Lf::Pred(
            crate::pred::PredName::Of,
            vec![Lf::atom("checksum"), Lf::atom("icmp message")],
        );
        assert!(assignable(&lf));
    }

    #[test]
    fn function_name_validity() {
        assert!(valid_function_name(&Lf::atom("compute")));
        assert!(!valid_function_name(&Lf::num(0)));
        assert!(!valid_function_name(&Lf::is(Lf::atom("a"), Lf::atom("b"))));
        // A numeric atom is a constant, hence not a valid function name.
        assert!(!valid_function_name(&Lf::atom("0")) || infer_atom_type("0") != AtomType::Constant);
    }
}
