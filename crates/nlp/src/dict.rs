//! The domain-specific term dictionary.
//!
//! The paper builds a dictionary of roughly 400 networking nouns and noun
//! phrases from the index of a standard networking textbook (§3, §6.1) and
//! uses it — together with SpaCy — to label noun phrases before CCG parsing.
//! This module provides that dictionary plus per-protocol extensions (state
//! variables and values for BFD, peer variables for NTP), and supports the
//! Table 8 ablation in which the dictionary is disabled.

use std::collections::HashSet;

/// Core networking terms, in the spirit of a textbook index.  Multi-word
/// phrases are matched longest-first by the chunker.
pub const CORE_TERMS: &[&str] = &[
    // --- packet & header anatomy ---
    "packet",
    "packets",
    "datagram",
    "datagrams",
    "frame",
    "header",
    "headers",
    "payload",
    "data",
    "octet",
    "octets",
    "byte",
    "bytes",
    "bit",
    "bits",
    "field",
    "fields",
    "checksum",
    "checksum field",
    "header checksum",
    "internet header",
    "ip header",
    "icmp header",
    "udp header",
    "tcp header",
    "original datagram",
    "original data datagram",
    "original datagram's data",
    "first 64 bits",
    "64 bits of data",
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
    "pointer field",
    "unused",
    "unused field",
    "version",
    "version field",
    "length",
    "length field",
    "total length",
    "time to live",
    "time-to-live",
    "ttl",
    "type of service",
    "protocol field",
    "options",
    "ip options",
    "padding",
    "fragment offset",
    "flags",
    "source address",
    "destination address",
    "source and destination addresses",
    "internet source address",
    "internet destination address",
    "internet address",
    "gateway internet address",
    "gateway address",
    "source network",
    "destination network",
    "internet destination network field",
    "network",
    "subnet",
    "address",
    "addresses",
    "port",
    "ports",
    "port number",
    "port numbers",
    "source port",
    "destination port",
    // --- messages & message types ---
    "message",
    "messages",
    "echo message",
    "echo reply",
    "echo reply message",
    "echo request",
    "echo request message",
    "echos",
    "replies",
    "information request",
    "information request message",
    "information reply",
    "information reply message",
    "timestamp",
    "timestamps",
    "timestamp message",
    "timestamp reply",
    "timestamp reply message",
    "originate timestamp",
    "receive timestamp",
    "transmit timestamp",
    "destination unreachable",
    "destination unreachable message",
    "time exceeded",
    "time exceeded message",
    "parameter problem",
    "parameter problem message",
    "source quench",
    "source quench message",
    "redirect",
    "redirect message",
    "membership query",
    "membership report",
    "host membership query",
    "host membership report",
    "query message",
    "report message",
    "control packet",
    "control packets",
    "bfd control packet",
    "bfd packet",
    "ntp message",
    "ntp packet",
    "data packet",
    // --- protocols & layers ---
    "icmp",
    "icmp message",
    "icmp type",
    "icmp checksum",
    "icmp payload",
    "ip",
    "ipv4",
    "ipv6",
    "internet protocol",
    "udp",
    "tcp",
    "igmp",
    "ntp",
    "bfd",
    "bgp",
    "ospf",
    "rtp",
    "arp",
    "dns",
    "dhcp",
    "http",
    "protocol",
    "protocols",
    "higher level protocol",
    "lower-level protocol",
    "transport layer",
    "network layer",
    "link layer",
    "application layer",
    // --- devices, roles, endpoints ---
    "host",
    "hosts",
    "router",
    "routers",
    "gateway",
    "gateways",
    "client",
    "server",
    "sender",
    "receiver",
    "source",
    "destination",
    "node",
    "nodes",
    "peer",
    "peers",
    "interface",
    "interfaces",
    "local system",
    "remote system",
    "switch",
    "endpoint",
    // --- operations & computations ---
    "one's complement",
    "ones complement",
    "one's complement sum",
    "16-bit one's complement",
    "16-bit ones's complement",
    "incremental update",
    "checksum computation",
    "byte order",
    "network byte order",
    "host byte order",
    "fragmentation",
    "reassembly",
    "encapsulation",
    "retransmission",
    "routing",
    "forwarding",
    "routing table",
    "outbound buffer",
    "buffer",
    "buffers",
    "queue",
    "timer",
    "timers",
    "timeout",
    "timeout procedure",
    "timer threshold variable",
    "threshold",
    "periodic transmission",
    "transmission",
    "reception",
    "session",
    "sessions",
    "connection",
    "state",
    "state variable",
    "state variables",
    "connection state",
    "protocol state",
    "state machine",
    "handshake",
    "error",
    "errors",
    // --- modes & values ---
    "client mode",
    "server mode",
    "symmetric mode",
    "broadcast mode",
    "demand mode",
    "zero",
    "nonzero",
    "value",
    "values",
    "constant",
    "variable",
    "variables",
    // --- NTP-specific ---
    "peer timer",
    "peer variables",
    "system variables",
    "leap indicator",
    "stratum",
    "poll interval",
    "precision",
    "root delay",
    "root dispersion",
    "reference identifier",
    "reference timestamp",
    "clock",
    "clock offset",
    // --- BFD-specific state variables & fields ---
    "bfd.SessionState",
    "bfd.RemoteSessionState",
    "bfd.RemoteDemandMode",
    "bfd.LocalDiscr",
    "bfd.RemoteDiscr",
    "bfd.DetectMult",
    "bfd.DesiredMinTxInterval",
    "bfd.RequiredMinRxInterval",
    "bfd.RemoteMinRxInterval",
    "bfd.AuthType",
    "bfd.AuthSeqKnown",
    "bfd.XmitAuthSeq",
    "bfd.RcvAuthSeq",
    "your discriminator",
    "your discriminator field",
    "my discriminator",
    "my discriminator field",
    "detect mult",
    "detection time",
    "desired min tx interval",
    "required min rx interval",
    "diagnostic",
    "diag",
    "poll bit",
    "final bit",
    "poll sequence",
    "demand bit",
    "authentication section",
    "authentication",
    // --- IGMP-specific ---
    "group address",
    "host group",
    "host group address",
    "multicast",
    "multicast datagram",
    "all-hosts group",
    "max response time",
    "igmp message",
    // --- misc RFC vocabulary ---
    "specification",
    "rfc",
    "standard",
    "implementation",
    "implementations",
    "module",
    "procedure",
    "procedures",
    "function",
    "parameter",
    "parameters",
    "argument",
    "event",
    "events",
    "behavior",
    "operation",
    "operations",
    "traffic",
    "route",
    "routes",
    "next gateway",
    "internet",
    "kernel",
    "operating system",
];

/// A term dictionary: a set of lower-cased noun phrases plus the length (in
/// words) of the longest phrase, to bound chunker look-ahead.
#[derive(Debug, Clone)]
pub struct TermDictionary {
    terms: HashSet<String>,
    max_words: usize,
}

impl TermDictionary {
    /// Build the default networking dictionary used for ICMP.
    pub fn networking() -> TermDictionary {
        TermDictionary::from_terms(CORE_TERMS.iter().copied())
    }

    /// Build an empty dictionary (used in the Table 8 ablation: "remove the
    /// domain-specific dictionary").
    pub fn empty() -> TermDictionary {
        TermDictionary {
            terms: HashSet::new(),
            max_words: 1,
        }
    }

    /// Build a dictionary from an explicit term list.
    pub fn from_terms<'a>(terms: impl IntoIterator<Item = &'a str>) -> TermDictionary {
        let mut dict = TermDictionary::empty();
        for t in terms {
            dict.insert(t);
        }
        dict
    }

    /// Insert a term (stored lower-cased).
    pub fn insert(&mut self, term: &str) {
        let norm = term.trim().to_ascii_lowercase();
        if norm.is_empty() {
            return;
        }
        let words = norm.split_whitespace().count().max(1);
        self.max_words = self.max_words.max(words);
        self.terms.insert(norm);
    }

    /// Extend with protocol-specific terms (e.g. BFD state variables).
    pub fn extend<'a>(&mut self, terms: impl IntoIterator<Item = &'a str>) {
        for t in terms {
            self.insert(t);
        }
    }

    /// Membership test (case-insensitive).  A phrase with no upper-case
    /// byte is looked up as it is, without a lower-cased copy.
    pub fn contains(&self, phrase: &str) -> bool {
        let phrase = phrase.trim();
        if phrase.bytes().any(|b| b.is_ascii_uppercase()) {
            self.terms.contains(&phrase.to_ascii_lowercase())
        } else {
            self.terms.contains(phrase)
        }
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if the dictionary has no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Longest phrase length in words, for chunker look-ahead.
    pub fn max_phrase_words(&self) -> usize {
        self.max_words
    }
}

impl Default for TermDictionary {
    fn default() -> Self {
        TermDictionary::networking()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_dictionary_has_textbook_scale() {
        let d = TermDictionary::networking();
        // The paper reports "about 400 terms"; ours is in the same ballpark.
        assert!(d.len() >= 250, "dictionary too small: {}", d.len());
        assert!(d.len() <= 600, "dictionary suspiciously large: {}", d.len());
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let d = TermDictionary::networking();
        assert!(d.contains("Checksum"));
        assert!(d.contains("echo reply message"));
        assert!(d.contains("Echo Reply Message"));
        assert!(!d.contains("banana"));
    }

    #[test]
    fn multi_word_phrases_present() {
        let d = TermDictionary::networking();
        assert!(d.contains("one's complement sum"));
        assert!(d.contains("source and destination addresses"));
        assert!(d.contains("internet destination network field"));
        assert!(d.max_phrase_words() >= 4);
    }

    #[test]
    fn bfd_state_variables_present() {
        let d = TermDictionary::networking();
        assert!(d.contains("bfd.SessionState"));
        assert!(d.contains("bfd.remotedemandmode"));
        assert!(d.contains("your discriminator field"));
    }

    #[test]
    fn empty_dictionary_for_ablation() {
        let d = TermDictionary::empty();
        assert!(d.is_empty());
        assert!(!d.contains("checksum"));
        assert_eq!(d.max_phrase_words(), 1);
    }

    #[test]
    fn insert_and_extend() {
        let mut d = TermDictionary::empty();
        d.insert("Widget Header");
        d.extend(["frob field", "grommet"]);
        assert_eq!(d.len(), 3);
        assert!(d.contains("widget header"));
        assert!(d.contains("FROB FIELD"));
    }

    #[test]
    fn blank_terms_are_ignored() {
        let mut d = TermDictionary::empty();
        d.insert("   ");
        assert!(d.is_empty());
    }

    #[test]
    fn no_duplicate_terms_in_core_list() {
        let mut seen = HashSet::new();
        let mut dups = Vec::new();
        for t in CORE_TERMS {
            if !seen.insert(t.to_ascii_lowercase()) {
                dups.push(*t);
            }
        }
        assert!(dups.is_empty(), "duplicate dictionary terms: {dups:?}");
    }
}
