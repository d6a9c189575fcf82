//! Property-based integration tests over the core invariants:
//! winnowing never increases ambiguity, checksums verify after construction,
//! field access round-trips, the LF text format round-trips, and the
//! interned (Symbol/arena) representation is indistinguishable from the
//! boxed one: parse→print→parse identity, `Symbol` equality ⇔ string
//! equality, and graph-isomorphism invariance under interning.  Semantic
//! terms intern stably, and an arena reused across terms beta-reduces them
//! exactly as a fresh arena does.  The header
//! builders, the UDP checksum and the UDP reader are pinned byte for byte
//! to a table-driven encoding by field name (`table_encoding` below).

use proptest::prelude::*;
use sage_repro::ccg::{SemArena, SemTerm};
use sage_repro::disambig::{winnow, Winnower};
use sage_repro::logic::{isomorphic, parse_lf, Interner, Lf, LfArena, PredName};
use sage_repro::netsim::buffer::{FieldSpec, PacketBuf};
use sage_repro::netsim::checksum::{
    checksum_omitting_field, ones_complement_checksum, ones_complement_sum,
};
use sage_repro::netsim::headers::{bfd, icmp, igmp, ipv4, ntp, udp};

/// Strategy generating small random logical forms.
fn arb_lf() -> impl Strategy<Value = Lf> {
    let leaf = prop_oneof![
        "[a-z_]{1,12}".prop_map(Lf::atom),
        (0i64..256).prop_map(Lf::num),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Lf::is(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Lf::if_then(a, b)),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Lf::and),
            (inner.clone(), inner).prop_map(|(a, b)| Lf::Pred(PredName::Of, vec![a, b])),
        ]
    })
}

/// Strategy generating small random semantic terms: variables from
/// {x, y, z}, atoms, numbers, abstractions, applications, `@Is` and `@And`.
/// Open terms, stuck applications and shadowed binders are all in range.
fn arb_sem() -> impl Strategy<Value = SemTerm> {
    let leaf = prop_oneof![
        "[xyz]".prop_map(|v| SemTerm::var(&v)),
        "[a-z]{1,6}".prop_map(SemTerm::atom),
        (0i64..16).prop_map(SemTerm::num),
    ];
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            ("[xyz]", inner.clone()).prop_map(|(v, body)| SemTerm::lam(&v, body)),
            (inner.clone(), inner.clone()).prop_map(|(f, a)| SemTerm::app(f, a)),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| SemTerm::pred(PredName::Is, vec![a, b])),
            (inner.clone(), inner).prop_map(|(a, b)| SemTerm::pred(PredName::And, vec![a, b])),
        ]
    })
}

proptest! {
    #[test]
    fn winnowing_never_increases_lf_count(lfs in prop::collection::vec(arb_lf(), 1..8)) {
        let trace = winnow(&lfs);
        let mut unique = Vec::new();
        for lf in &lfs {
            if !unique.contains(lf) {
                unique.push(lf.clone());
            }
        }
        prop_assert!(trace.counts[0] <= lfs.len());
        for w in trace.counts.windows(2) {
            prop_assert!(w[1] <= w[0], "counts increased: {:?}", trace.counts);
        }
        prop_assert!(!trace.survivors.is_empty());
        prop_assert!(trace.survivors.len() <= unique.len());
    }

    #[test]
    fn lf_display_parse_round_trip(lf in arb_lf()) {
        let text = lf.to_string();
        let reparsed = parse_lf(&text).expect("display output must re-parse");
        prop_assert_eq!(reparsed, lf);
    }

    #[test]
    fn interned_parse_print_parse_round_trip_is_identity(lf in arb_lf()) {
        let mut arena = LfArena::new();
        let id = arena.intern_lf(&lf);
        // Arena → boxed tree round trip.
        let resolved = arena.resolve(id);
        prop_assert_eq!(&resolved, &lf);
        // print → parse → re-intern lands on the same hash-consed id.
        let reparsed = parse_lf(&resolved.to_string()).expect("display must re-parse");
        prop_assert_eq!(arena.intern_lf(&reparsed), id);
        prop_assert_eq!(arena.node_count(id), lf.node_count());
    }

    #[test]
    fn symbol_equality_iff_string_equality(a in "[a-z_]{1,8}", b in "[a-z_]{1,8}") {
        let mut interner = Interner::new();
        let sa = interner.intern(&a);
        let sb = interner.intern(&b);
        prop_assert_eq!(sa == sb, a == b, "symbols {:?}/{:?} for {:?}/{:?}", sa, sb, a, b);
        prop_assert_eq!(interner.resolve(sa), a.as_str());
        prop_assert_eq!(interner.resolve(sb), b.as_str());
        // Re-interning is stable.
        prop_assert_eq!(interner.intern(&a), sa);
    }

    #[test]
    fn graph_isomorphism_is_invariant_under_interning(a in arb_lf(), b in arb_lf()) {
        let mut arena = LfArena::new();
        let ia = arena.intern_lf(&a);
        let ib = arena.intern_lf(&b);
        prop_assert_eq!(arena.isomorphic(ia, ib), isomorphic(&a, &b));
        // Every form is isomorphic to its own canonical form, in both
        // representations.
        let canon = sage_repro::logic::canonical_form(&a);
        let ic = arena.intern_lf(&canon);
        prop_assert!(arena.isomorphic(ia, ic));
    }

    #[test]
    fn sem_terms_intern_stably_and_round_trip(term in arb_sem()) {
        let mut arena = SemArena::new();
        let id = arena.intern_term(&term);
        prop_assert_eq!(arena.intern_term(&term), id);
        prop_assert_eq!(arena.resolve(id), term);
    }

    /// Beta reduction and logical-form conversion on one arena reused across
    /// terms (memo tables warm, subterms shared) resolve to exactly what a
    /// fresh arena per term gives.
    #[test]
    fn reused_sem_arena_reduces_like_a_fresh_arena(
        terms in prop::collection::vec(arb_sem(), 1..6)
    ) {
        let mut reused = SemArena::new();
        for term in &terms {
            let mut fresh = SemArena::new();
            let r = reused.intern_term(term);
            let f = fresh.intern_term(term);
            let (rn, fnorm) = (reused.normalize(r), fresh.normalize(f));
            prop_assert_eq!(
                reused.resolve(rn),
                fresh.resolve(fnorm),
                "normalize diverged on {}",
                term
            );
            let r_lf = reused.to_lf_id(r).map(|lf| reused.resolve_lf(lf));
            let f_lf = fresh.to_lf_id(f).map(|lf| fresh.resolve_lf(lf));
            prop_assert_eq!(r_lf, f_lf, "to_lf_id diverged on {}", term);
        }
    }

    #[test]
    fn interned_winnow_matches_boxed_winnow(lfs in prop::collection::vec(arb_lf(), 1..8)) {
        let winnower = Winnower::new();
        let mut arena = LfArena::new();
        let boxed = winnower.winnow(&lfs);
        let interned = winnower.winnow_interned(&lfs, &mut arena);
        prop_assert_eq!(interned, boxed);
    }

    #[test]
    fn icmp_echo_checksum_always_verifies(
        id in 0u16..=u16::MAX,
        seq in 0u16..=u16::MAX,
        payload in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let msg = icmp::build_echo(false, id, seq, &payload);
        prop_assert!(icmp::checksum_ok(&msg));
        prop_assert_eq!(msg.get_field(icmp::FIELDS, "identifier").unwrap() as u16, id);
        prop_assert_eq!(msg.get_field(icmp::FIELDS, "sequence_number").unwrap() as u16, seq);
    }

    #[test]
    fn ip_packets_always_verify_and_round_trip_addresses(
        src in any::<u32>(),
        dst in any::<u32>(),
        ttl in 1u8..=255,
        payload in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let pkt = ipv4::build_packet(src, dst, ipv4::PROTO_ICMP, ttl, &payload);
        prop_assert!(ipv4::checksum_ok(&pkt));
        prop_assert_eq!(pkt.get_field(ipv4::FIELDS, "source_address").unwrap() as u32, src);
        prop_assert_eq!(pkt.get_field(ipv4::FIELDS, "destination_address").unwrap() as u32, dst);
        prop_assert_eq!(ipv4::payload(&pkt), &payload[..]);
    }

    #[test]
    fn checksum_field_insertion_yields_verifying_message(
        data in prop::collection::vec(any::<u8>(), 8..64),
    ) {
        let mut buf = data;
        let ck = checksum_omitting_field(&buf, 2);
        buf[2..4].copy_from_slice(&ck.to_be_bytes());
        prop_assert_eq!(ones_complement_sum(&buf), 0xFFFF);
    }

    #[test]
    fn field_access_round_trips(
        offset in 0usize..64,
        width in 1usize..32,
        value in any::<u64>(),
    ) {
        let spec = FieldSpec { name: "f", offset_bits: offset, width_bits: width };
        let masked = value & ((1u64 << width) - 1);
        let mut buf = PacketBuf::zeroed(16);
        buf.set_bits(&spec, masked).unwrap();
        prop_assert_eq!(buf.get_bits(&spec).unwrap(), masked);
    }

    #[test]
    fn header_builders_match_the_field_table_encoding(
        src in any::<u32>(),
        dst in any::<u32>(),
        ports in (any::<u16>(), any::<u16>()),
        ttl in any::<u8>(),
        protocol in any::<u8>(),
        payload in prop::collection::vec(any::<u8>(), 0..65),
        icmp_words in (any::<u16>(), any::<u16>(), any::<u32>(), any::<u8>()),
        timestamps in (any::<u32>(), any::<u32>(), any::<u32>()),
        reply in any::<bool>(),
        igmp_msg in (0u8..16, any::<u32>()),
        ntp_header in (0u8..4, 0u8..8, 0u8..8, any::<u8>()),
        transmit in any::<u64>(),
        bfd_state in 0u8..4,
        bfd_fields in (any::<u32>(), any::<u32>(), any::<u8>(), any::<bool>()),
        udp_reader in (any::<bool>(), 0u8..3, 0usize..120, any::<bool>()),
    ) {
        let (src_port, dst_port) = ports;
        prop_assert_eq!(
            ipv4::build_packet(src, dst, protocol, ttl, &payload).as_bytes(),
            table_encoding::ipv4(src, dst, protocol, ttl, &payload).as_bytes()
        );
        prop_assert_eq!(
            udp::build_datagram(src, dst, src_port, dst_port, &payload).as_bytes(),
            table_encoding::udp(src, dst, src_port, dst_port, &payload).as_bytes()
        );
        // Segments of every length, shorter than a UDP header included.
        prop_assert_eq!(
            udp::compute_checksum(src, dst, &payload),
            table_encoding::udp_checksum(src, dst, &payload)
        );

        let (identifier, sequence, second_word, code) = icmp_words;
        let (originate, receive, transmit_ts) = timestamps;
        prop_assert_eq!(
            icmp::build_echo(reply, identifier, sequence, &payload).as_bytes(),
            table_encoding::icmp_echo(reply, identifier, sequence, &payload).as_bytes()
        );
        prop_assert_eq!(
            icmp::build_error(protocol, code, second_word, &payload).as_bytes(),
            table_encoding::icmp_error(protocol, code, second_word, &payload).as_bytes()
        );
        prop_assert_eq!(
            icmp::build_timestamp(reply, identifier, sequence, originate, receive, transmit_ts)
                .as_bytes(),
            table_encoding::icmp_timestamp(
                reply, identifier, sequence, originate, receive, transmit_ts
            )
            .as_bytes()
        );
        prop_assert_eq!(
            icmp::build_info(reply, identifier, sequence).as_bytes(),
            table_encoding::icmp_info(reply, identifier, sequence).as_bytes()
        );

        let (igmp_type, group) = igmp_msg;
        prop_assert_eq!(
            igmp::build_message(igmp_type, group).as_bytes(),
            table_encoding::igmp(igmp_type, group).as_bytes()
        );
        let (leap, version, mode, stratum) = ntp_header;
        prop_assert_eq!(
            ntp::build_packet(leap, version, mode, stratum, transmit).as_bytes(),
            table_encoding::ntp(leap, version, mode, stratum, transmit).as_bytes()
        );
        let state = bfd::SessionState::from_code(bfd_state).expect("two-bit state");
        let (my_discr, your_discr, detect_mult, demand) = bfd_fields;
        prop_assert_eq!(
            bfd::build_control_packet(state, my_discr, your_discr, detect_mult, demand).as_bytes(),
            table_encoding::bfd(state, my_discr, your_discr, detect_mult, demand).as_bytes()
        );

        // The UDP reader on a datagram carried over UDP or another
        // protocol, asked for its own port, port 0 or another port, whole
        // or cut anywhere (into the IPv4 header included).
        let (is_udp, port_pick, cut, truncate) = udp_reader;
        let datagram = udp::build_datagram(src, dst, src_port, dst_port, &payload);
        let carrier = if is_udp { ipv4::PROTO_UDP } else { protocol };
        let mut packet = ipv4::build_packet(src, dst, carrier, ttl, datagram.as_bytes());
        if truncate {
            packet.as_bytes_mut().truncate(cut);
        }
        let port = match port_pick {
            0 => dst_port,
            1 => 0,
            _ => src_port,
        };
        prop_assert_eq!(
            udp::receive(&packet, port),
            table_encoding::udp_receive(&packet, port)
        );
    }
}

#[test]
fn udp_checksum_computing_to_zero_is_sent_as_all_ones() {
    // RFC 768: a computed checksum of zero goes on the wire as 0xFFFF (an
    // all-zero field means "no checksum").  Random inputs almost never
    // reach that case, so search the two payload bytes that make it.
    let (src, dst) = (ipv4::addr(10, 0, 1, 5), ipv4::addr(10, 0, 2, 5));
    let payload = (0..=u16::MAX)
        .map(u16::to_be_bytes)
        .find(|p| {
            let segment = table_encoding::udp_segment(1000, 2000, p, 0);
            table_encoding::udp_checksum(src, dst, segment.as_bytes()) == 0
        })
        .expect("some two-byte payload sums to zero");
    let d = udp::build_datagram(src, dst, 1000, 2000, &payload);
    assert_eq!(&d.as_bytes()[6..8], &[0xFF, 0xFF]);
    assert_eq!(
        d.as_bytes(),
        table_encoding::udp(src, dst, 1000, 2000, &payload).as_bytes()
    );
    assert_eq!(udp::compute_checksum(src, dst, d.as_bytes()), 0);
    assert!(udp::checksum_ok(src, dst, &d));
}

/// The clone-and-zero Internet checksum: the checksum of a copy of `data`
/// whose two bytes at `offset` are zeroed.
fn zeroed_field_checksum(data: &[u8], offset: usize) -> u16 {
    let mut copy = data.to_vec();
    if offset + 2 <= copy.len() {
        copy[offset] = 0;
        copy[offset + 1] = 0;
    }
    ones_complement_checksum(&copy)
}

/// The header codecs as a table-driven encoding: a zero-filled header,
/// every field written by name through its protocol's `FIELDS` table, the
/// clone-and-zero checksum, and the payload appended.  The library's
/// builders must produce exactly these bytes.
mod table_encoding {
    use super::zeroed_field_checksum;
    use sage_repro::netsim::buffer::{FieldSpec, PacketBuf};
    use sage_repro::netsim::headers::{bfd, icmp, igmp, ipv4, ntp, udp};

    fn set(buf: &mut PacketBuf, table: &[FieldSpec], name: &str, value: u64) {
        buf.set_field(table, name, value).expect("field");
    }

    pub fn ipv4(src: u32, dst: u32, protocol: u8, ttl: u8, payload: &[u8]) -> PacketBuf {
        let mut b = PacketBuf::zeroed(ipv4::HEADER_LEN);
        let total_length = (ipv4::HEADER_LEN + payload.len()) as u64;
        set(&mut b, ipv4::FIELDS, "version", 4);
        set(&mut b, ipv4::FIELDS, "ihl", 5);
        set(&mut b, ipv4::FIELDS, "total_length", total_length);
        set(&mut b, ipv4::FIELDS, "ttl", u64::from(ttl));
        set(&mut b, ipv4::FIELDS, "protocol", u64::from(protocol));
        set(&mut b, ipv4::FIELDS, "source_address", u64::from(src));
        set(&mut b, ipv4::FIELDS, "destination_address", u64::from(dst));
        let ck = zeroed_field_checksum(b.as_bytes(), 10);
        set(&mut b, ipv4::FIELDS, "header_checksum", u64::from(ck));
        b.extend_from_slice(payload);
        b
    }

    /// A UDP header plus `payload`, with `checksum` stored as given.
    pub fn udp_segment(src_port: u16, dst_port: u16, payload: &[u8], checksum: u16) -> PacketBuf {
        let mut d = PacketBuf::zeroed(udp::HEADER_LEN);
        let length = (udp::HEADER_LEN + payload.len()) as u64;
        set(&mut d, udp::FIELDS, "source_port", u64::from(src_port));
        set(&mut d, udp::FIELDS, "destination_port", u64::from(dst_port));
        set(&mut d, udp::FIELDS, "length", length);
        set(&mut d, udp::FIELDS, "checksum", u64::from(checksum));
        d.extend_from_slice(payload);
        d
    }

    /// The UDP checksum over a copied pseudo-header and segment, the
    /// segment's checksum word zeroed in the copy.
    pub fn udp_checksum(src_addr: u32, dst_addr: u32, segment: &[u8]) -> u16 {
        let mut data = Vec::new();
        data.extend_from_slice(&src_addr.to_be_bytes());
        data.extend_from_slice(&dst_addr.to_be_bytes());
        data.push(0);
        data.push(ipv4::PROTO_UDP);
        data.extend_from_slice(&(segment.len() as u16).to_be_bytes());
        data.extend_from_slice(segment);
        if data.len() >= 12 + udp::HEADER_LEN {
            data[12 + 6] = 0;
            data[12 + 7] = 0;
        }
        sage_repro::netsim::checksum::ones_complement_checksum(&data)
    }

    pub fn udp(
        src_addr: u32,
        dst_addr: u32,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) -> PacketBuf {
        let mut d = udp_segment(src_port, dst_port, payload, 0);
        let ck = udp_checksum(src_addr, dst_addr, d.as_bytes());
        let ck = if ck == 0 { 0xFFFF } else { ck };
        set(&mut d, udp::FIELDS, "checksum", u64::from(ck));
        d
    }

    /// The UDP reader that copies the IPv4 payload into a buffer before
    /// reading its ports by name.
    pub fn udp_receive(packet: &PacketBuf, port: u16) -> Option<udp::Received> {
        let proto = packet.get_field(ipv4::FIELDS, "protocol").unwrap_or(0) as u8;
        if proto != ipv4::PROTO_UDP {
            return None;
        }
        let datagram = PacketBuf::from_bytes(ipv4::payload(packet).to_vec());
        if datagram
            .get_field(udp::FIELDS, "destination_port")
            .unwrap_or(0) as u16
            != port
        {
            return None;
        }
        let body = datagram.as_bytes().get(udp::HEADER_LEN..).unwrap_or(&[]);
        Some(udp::Received {
            src_addr: packet
                .get_field(ipv4::FIELDS, "source_address")
                .unwrap_or(0) as u32,
            dst_addr: packet
                .get_field(ipv4::FIELDS, "destination_address")
                .unwrap_or(0) as u32,
            src_port: datagram.get_field(udp::FIELDS, "source_port").unwrap_or(0) as u16,
            payload: PacketBuf::from_bytes(body.to_vec()),
        })
    }

    fn icmp_finish(mut m: PacketBuf) -> PacketBuf {
        let ck = zeroed_field_checksum(m.as_bytes(), 2);
        set(&mut m, icmp::FIELDS, "checksum", u64::from(ck));
        m
    }

    fn icmp_header(len: usize, msg_type: u8, identifier: u16, sequence: u16) -> PacketBuf {
        let mut m = PacketBuf::zeroed(len);
        set(&mut m, icmp::FIELDS, "type", u64::from(msg_type));
        set(&mut m, icmp::FIELDS, "identifier", u64::from(identifier));
        set(&mut m, icmp::FIELDS, "sequence_number", u64::from(sequence));
        m
    }

    pub fn icmp_echo(reply: bool, identifier: u16, sequence: u16, data: &[u8]) -> PacketBuf {
        let t = if reply { 0 } else { 8 };
        let mut m = icmp_header(icmp::HEADER_LEN, t, identifier, sequence);
        m.extend_from_slice(data);
        icmp_finish(m)
    }

    pub fn icmp_error(msg_type: u8, code: u8, second_word: u32, original: &[u8]) -> PacketBuf {
        let mut m = PacketBuf::zeroed(icmp::HEADER_LEN);
        set(&mut m, icmp::FIELDS, "type", u64::from(msg_type));
        set(&mut m, icmp::FIELDS, "code", u64::from(code));
        set(
            &mut m,
            icmp::FIELDS,
            "rest_of_header",
            u64::from(second_word),
        );
        // The original's IP header plus the first 64 bits of its data.
        let quoted = (ipv4::HEADER_LEN + 8).min(original.len());
        m.extend_from_slice(&original[..quoted]);
        icmp_finish(m)
    }

    pub fn icmp_timestamp(
        reply: bool,
        identifier: u16,
        sequence: u16,
        originate: u32,
        receive: u32,
        transmit: u32,
    ) -> PacketBuf {
        let t = if reply { 14 } else { 13 };
        let mut m = icmp_header(icmp::TIMESTAMP_LEN, t, identifier, sequence);
        let table = icmp::TIMESTAMP_FIELDS;
        set(&mut m, table, "originate_timestamp", u64::from(originate));
        set(&mut m, table, "receive_timestamp", u64::from(receive));
        set(&mut m, table, "transmit_timestamp", u64::from(transmit));
        icmp_finish(m)
    }

    pub fn icmp_info(reply: bool, identifier: u16, sequence: u16) -> PacketBuf {
        let t = if reply { 16 } else { 15 };
        icmp_finish(icmp_header(icmp::HEADER_LEN, t, identifier, sequence))
    }

    pub fn igmp(msg_type: u8, group: u32) -> PacketBuf {
        let mut m = PacketBuf::zeroed(igmp::HEADER_LEN);
        set(&mut m, igmp::FIELDS, "version", 1);
        set(&mut m, igmp::FIELDS, "type", u64::from(msg_type));
        set(&mut m, igmp::FIELDS, "group_address", u64::from(group));
        let ck = zeroed_field_checksum(m.as_bytes(), 2);
        set(&mut m, igmp::FIELDS, "checksum", u64::from(ck));
        m
    }

    pub fn ntp(leap: u8, version: u8, mode: u8, stratum: u8, transmit: u64) -> PacketBuf {
        let mut p = PacketBuf::zeroed(ntp::HEADER_LEN);
        set(&mut p, ntp::FIELDS, "leap_indicator", u64::from(leap));
        set(&mut p, ntp::FIELDS, "version", u64::from(version));
        set(&mut p, ntp::FIELDS, "mode", u64::from(mode));
        set(&mut p, ntp::FIELDS, "stratum", u64::from(stratum));
        set(&mut p, ntp::FIELDS, "transmit_timestamp", transmit);
        p
    }

    pub fn bfd(
        state: bfd::SessionState,
        my_discriminator: u32,
        your_discriminator: u32,
        detect_mult: u8,
        demand: bool,
    ) -> PacketBuf {
        let mut p = PacketBuf::zeroed(bfd::HEADER_LEN);
        set(&mut p, bfd::FIELDS, "version", 1);
        set(&mut p, bfd::FIELDS, "state", u64::from(state.code()));
        set(&mut p, bfd::FIELDS, "detect_mult", u64::from(detect_mult));
        set(&mut p, bfd::FIELDS, "length", bfd::HEADER_LEN as u64);
        set(
            &mut p,
            bfd::FIELDS,
            "my_discriminator",
            u64::from(my_discriminator),
        );
        set(
            &mut p,
            bfd::FIELDS,
            "your_discriminator",
            u64::from(your_discriminator),
        );
        set(&mut p, bfd::FIELDS, "demand", u64::from(demand));
        p
    }
}
