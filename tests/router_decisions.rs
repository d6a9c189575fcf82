//! Router decision golden: every decision the Appendix-A router makes,
//! synchronously and inside the kernel, pinned to `tests/traces/router.txt`.
//!
//! The synchronous half shows a fresh Appendix-A router one stimulus at a
//! time: every destination of [`DESTINATIONS`] × payload × TOS {0, 1} ×
//! TTL {1, 2} × ingress interface {0, 1}, then the forwardable
//! destinations with the outbound buffer of interface 1 full, then an echo
//! cut to 0, 8, 19 and 20 bytes.  One line per stimulus gives the ICMP
//! event the router raised and what it did; a reply or a forward also gives
//! the emitted packet's ICMP type/code, source, TTL and FNV-1a hash.
//!
//! The kernel half binds reference [`RouterNode`]s and delivers each
//! stimulus class to them: on `appendix_a` from the client and from
//! server1, and on `ring4` through one and two routers.  A stimulus the
//! kernel routes to the router is originated by a sender node; one it
//! would not (an unknown, same-subnet or truncated destination) replaces a
//! carrier packet on the sender's link.  The routers' rendered trace lines
//! are recorded.
//!
//! To refresh after an intentional change:
//! `UPDATE_GOLDEN=1 cargo test --test router_decisions` — then review the
//! diff.

use sage_repro::netsim::buffer::PacketBuf;
use sage_repro::netsim::headers::{icmp, ipv4, udp};
use sage_repro::netsim::net::{IcmpEvent, IcmpResponder, ReferenceResponder, Router, RouterAction};
use sage_repro::netsim::sim::{
    Ctx, EventTrace, LinkDelivery, LinkId, LinkModel, Node, RouterNode, SimBuilder, Topology,
};
use sage_repro::netsim::tools::ping::echo_request;
use std::fs;
use std::path::PathBuf;

/// The synchronous grid's destinations: the ingress interface of the
/// client's subnet, another router interface, a host behind the router, a
/// host on the client's own subnet, an unknown network and a multicast
/// group.
const DESTINATIONS: [u32; 6] = [
    ipv4::addr(10, 0, 1, 1),
    ipv4::addr(192, 168, 2, 1),
    ipv4::addr(192, 168, 2, 100),
    ipv4::addr(10, 0, 1, 200),
    ipv4::addr(8, 8, 8, 8),
    ipv4::addr(224, 0, 0, 1),
];

/// The sender on each ingress interface's subnet.
const SOURCES: [u32; 2] = [ipv4::addr(10, 0, 1, 100), ipv4::addr(192, 168, 2, 100)];

/// Router actions the synchronous half must take at least once.
const ACTIONS: [&str; 4] = ["-> forward", "-> reply", "-> local", "-> drop"];

/// ICMP events the synchronous half must raise at least once.
const EVENTS: [&str; 8] = [
    ": EchoRequest ",
    ": TimestampRequest ",
    ": InfoRequest ",
    ": DestinationUnreachable ",
    ": TimeExceeded ",
    ": ParameterProblem(",
    ": SourceQuench ",
    ": Redirect(",
];

/// Router trace lines the kernel half must contain at least once: a
/// forward, an ICMP reply, a local delivery and a drop.
const KERNEL_EVENTS: [&str; 4] = [" forward ", " originate ", " deliver-local", " drop "];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/traces/router.txt")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The payloads of the grid: `(label, IP protocol, bytes)`.
fn payloads(src: u32, dst: u32) -> [(&'static str, u8, PacketBuf); 5] {
    [
        (
            "echo",
            ipv4::PROTO_ICMP,
            icmp::build_echo(false, 0x51, 1, b"grid"),
        ),
        (
            "timestamp",
            ipv4::PROTO_ICMP,
            icmp::build_timestamp(false, 0x52, 1, 1000, 0, 0),
        ),
        ("info", ipv4::PROTO_ICMP, icmp::build_info(false, 0x53, 1)),
        (
            "echo-reply",
            ipv4::PROTO_ICMP,
            icmp::build_echo(true, 0x54, 1, b"grid"),
        ),
        (
            "udp",
            ipv4::PROTO_UDP,
            udp::build_datagram(src, dst, 45000, 33434, b"grid"),
        ),
    ]
}

/// An IP packet with the given header values around `payload`.
fn packet(src: u32, dst: u32, protocol: u8, tos: u8, ttl: u8, payload: &PacketBuf) -> PacketBuf {
    let mut p = ipv4::build_packet(src, dst, protocol, ttl, payload.as_bytes());
    p.set_field(ipv4::FIELDS, "type_of_service", u64::from(tos))
        .expect("field");
    ipv4::refresh_checksum(&mut p);
    p
}

/// The reference responder, remembering every event it is asked about.
#[derive(Default)]
struct Recorder(Vec<IcmpEvent>);

impl IcmpResponder for Recorder {
    fn respond(&mut self, event: IcmpEvent, original: &PacketBuf) -> Option<PacketBuf> {
        self.0.push(event);
        ReferenceResponder.respond(event, original)
    }
}

/// An event's name, addresses dotted.
fn event_name(event: IcmpEvent) -> String {
    match event {
        IcmpEvent::EchoRequest => "EchoRequest".into(),
        IcmpEvent::TimestampRequest => "TimestampRequest".into(),
        IcmpEvent::InfoRequest => "InfoRequest".into(),
        IcmpEvent::DestinationUnreachable => "DestinationUnreachable".into(),
        IcmpEvent::TimeExceeded => "TimeExceeded".into(),
        IcmpEvent::ParameterProblem(pointer) => format!("ParameterProblem({pointer})"),
        IcmpEvent::SourceQuench => "SourceQuench".into(),
        IcmpEvent::Redirect(gateway) => format!("Redirect({})", ipv4::addr_to_string(gateway)),
    }
}

/// `icmp=T/C src=A ttl=N fnv=H` for a packet the router emitted.
fn describe(packet: &PacketBuf) -> String {
    let bytes = packet.as_bytes();
    let icmp = match (bytes.get(9), ipv4::payload(packet).get(..2)) {
        (Some(&ipv4::PROTO_ICMP), Some([t, c])) => format!("{t}/{c}"),
        _ => "-".to_string(),
    };
    format!(
        "icmp={icmp} src={} ttl={} fnv={:016x}",
        ipv4::addr_to_string(ipv4::source_address(packet)),
        bytes.get(8).copied().unwrap_or(0),
        fnv1a(bytes)
    )
}

/// One synchronous stimulus through a fresh Appendix-A router.
fn sync_line(label: &str, packet: &PacketBuf, ingress: usize, full_buffers: &[usize]) -> String {
    let router = Router {
        full_buffers: full_buffers.to_vec(),
        ..Router::appendix_a()
    };
    let mut responder = Recorder::default();
    let action = router.process(packet, ingress, |_| false, &mut responder);
    let events: Vec<String> = responder.0.into_iter().map(event_name).collect();
    let event = if events.is_empty() {
        "-".to_string()
    } else {
        events.join(",")
    };
    let action = match action {
        RouterAction::Forwarded(forwarded) => format!("forward {}", describe(&forwarded)),
        RouterAction::IcmpReply(reply) => format!("reply {}", describe(&reply)),
        RouterAction::DeliveredLocally => "local".to_string(),
        RouterAction::Dropped(reason) => format!("drop {reason}"),
    };
    format!("sync {label} in={ingress}: {event} -> {action}")
}

/// The synchronous half: the grid, the full-buffer extras and the
/// truncations.
fn sync_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for dst in DESTINATIONS {
        for (ingress, src) in SOURCES.into_iter().enumerate() {
            for (name, protocol, payload) in payloads(src, dst) {
                for tos in [0, 1] {
                    for ttl in [1, 2] {
                        let label =
                            format!("{} {name} tos={tos} ttl={ttl}", ipv4::addr_to_string(dst));
                        let p = packet(src, dst, protocol, tos, ttl, &payload);
                        lines.push(sync_line(&label, &p, ingress, &[]));
                    }
                }
            }
        }
    }
    for dst in [ipv4::addr(192, 168, 2, 100), ipv4::addr(10, 0, 1, 200)] {
        for (ingress, src) in SOURCES.into_iter().enumerate() {
            for (name, protocol, payload) in payloads(src, dst) {
                let label = format!("{} {name} tos=0 ttl=2 full=1", ipv4::addr_to_string(dst));
                let p = packet(src, dst, protocol, 0, 2, &payload);
                lines.push(sync_line(&label, &p, ingress, &[1]));
            }
        }
    }
    let echo = echo_request(SOURCES[0], ipv4::addr(192, 168, 2, 100), 0x55, 1, b"grid");
    for len in [0, 8, 19, 20] {
        let cut = PacketBuf::from_bytes(echo.as_bytes()[..len].to_vec());
        lines.push(sync_line(
            &format!("192.168.2.100 echo cut={len}"),
            &cut,
            0,
            &[],
        ));
    }
    lines
}

/// A host that originates one packet at start and ignores what comes back.
struct Sender(PacketBuf);

impl Node for Sender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(self.0.clone());
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: &PacketBuf) {}
}

/// A link model that replaces the first packet it carries with a stimulus
/// and carries every later packet intact.
struct Substitute(Option<PacketBuf>);

impl LinkModel for Substitute {
    fn transmit(&mut self, packet: &PacketBuf) -> Vec<LinkDelivery> {
        let packet = self.0.take().unwrap_or_else(|| packet.clone());
        vec![LinkDelivery::intact(packet)]
    }
}

/// How a kernel stimulus reaches the first router.
enum Delivery {
    /// The sender originates it and the kernel routes it.
    Routed,
    /// It replaces a carrier packet on the sender's link to the router.
    Substituted,
}

/// One kernel stimulus: reference routers on every router of `topology`
/// (with `full_buffers` marked full), `stimulus` sent from `sender`, and
/// the routers' trace lines under a header naming the case.
fn kernel_lines(
    topology: &Topology,
    sender: &str,
    label: &str,
    stimulus: PacketBuf,
    delivery: Delivery,
    full_buffers: &[usize],
) -> Vec<String> {
    let routers = topology.routers();
    let mut sim = SimBuilder::new(topology.clone());
    for &r in &routers {
        let mut config = topology.router_config(r);
        config.full_buffers = full_buffers.to_vec();
        sim.bind(
            r,
            Box::new(RouterNode::new(config, Box::new(ReferenceResponder))),
        );
    }
    let from = topology.node_named(sender).expect("sender");
    let sent = match delivery {
        Delivery::Routed => stimulus,
        Delivery::Substituted => {
            let link = topology
                .links
                .iter()
                .position(|l| l.peer_of(from).is_some_and(|p| routers.contains(&p)))
                .expect("the sender is linked to a router");
            let router = topology.links[link].peer_of(from).expect("peer");
            sim.bind_link_model(LinkId(link), Box::new(Substitute(Some(stimulus))));
            let src = topology.addr_of(from);
            echo_request(src, topology.addr_of(router), 0x56, 1, b"carrier")
        }
    };
    sim.bind(from, Box::new(Sender(sent)));
    let trace = sim.build().run();
    let mut lines = vec![format!("kernel {} {sender} {label}", topology.name)];
    lines.extend(
        trace
            .events
            .iter()
            .filter(|e| routers.contains(&e.node))
            .map(|e| format!("  {}", EventTrace::render_line(e).trim_end())),
    );
    lines
}

/// The kernel half: each stimulus class on `appendix_a` from both sides of
/// the router, and transit, TTL expiry at either router and TOS 1 on
/// `ring4`.
fn kernel_cases() -> Vec<String> {
    use Delivery::{Routed, Substituted};
    let mut lines = Vec::new();
    let appendix_a = Topology::appendix_a();
    let sides = [
        ("client", [10, 0, 1], [192, 168, 2]),
        ("server1", [192, 168, 2], [10, 0, 1]),
    ];
    for (sender, [a, b, c], [x, y, z]) in sides {
        let src = ipv4::addr(a, b, c, 100);
        let own_router = ipv4::addr(a, b, c, 1);
        let far_host = ipv4::addr(x, y, z, 100);
        let echo = |dst: u32, tos: u8, ttl: u8| {
            let payload = icmp::build_echo(false, 0x57, 1, b"kernel");
            packet(src, dst, ipv4::PROTO_ICMP, tos, ttl, &payload)
        };
        let mut run = |label: &str, stimulus: PacketBuf, delivery: Delivery, full: &[usize]| {
            let case = kernel_lines(&appendix_a, sender, label, stimulus, delivery, full);
            lines.extend(case);
        };
        for (name, protocol, payload) in payloads(src, own_router) {
            let p = packet(src, own_router, protocol, 0, 64, &payload);
            run(&format!("{name} to own interface"), p, Routed, &[]);
        }
        let far_router = ipv4::addr(x, y, z, 1);
        run(
            "echo to far interface",
            echo(far_router, 0, 64),
            Routed,
            &[],
        );
        for (name, protocol, payload) in payloads(src, far_host) {
            let p = packet(src, far_host, protocol, 0, 64, &payload);
            run(&format!("{name} to far host"), p, Routed, &[]);
        }
        let server2 = ipv4::addr(172, 64, 3, 100);
        run("echo to server2", echo(server2, 0, 64), Routed, &[]);
        run("echo ttl=1 to far host", echo(far_host, 0, 1), Routed, &[]);
        run("echo tos=1 to far host", echo(far_host, 1, 64), Routed, &[]);
        run(
            "echo full=1 to far host",
            echo(far_host, 0, 64),
            Routed,
            &[1],
        );
        let group = ipv4::addr(224, 0, 0, 1);
        run("echo to group", echo(group, 0, 64), Routed, &[]);
        run("echo tos=1 ttl=1 to group", echo(group, 1, 1), Routed, &[]);
        let unknown = ipv4::addr(8, 8, 8, 8);
        run("echo to unknown", echo(unknown, 0, 64), Substituted, &[]);
        let neighbour = ipv4::addr(a, b, c, 200);
        run(
            "echo to neighbour",
            echo(neighbour, 0, 64),
            Substituted,
            &[],
        );
        let whole = echo(far_host, 0, 64);
        for len in [0, 8, 19, 20] {
            let cut = PacketBuf::from_bytes(whole.as_bytes()[..len].to_vec());
            run(
                &format!("echo cut={len} to far host"),
                cut,
                Substituted,
                &[],
            );
        }
    }

    let ring = Topology::ring(4);
    let echo = |dst: u32, tos: u8, ttl: u8| {
        let payload = icmp::build_echo(false, 0x58, 1, b"ring");
        packet(
            ipv4::addr(10, 0, 1, 100),
            dst,
            ipv4::PROTO_ICMP,
            tos,
            ttl,
            &payload,
        )
    };
    let far_host = ipv4::addr(10, 0, 3, 100);
    let ring_cases = [
        ("echo to far host", echo(far_host, 0, 64), Routed),
        (
            "echo to far router",
            echo(ipv4::addr(10, 0, 3, 1), 0, 64),
            Routed,
        ),
        ("echo ttl=1 to far host", echo(far_host, 0, 1), Routed),
        ("echo ttl=2 to far host", echo(far_host, 0, 2), Routed),
        ("echo tos=1 to far host", echo(far_host, 1, 64), Routed),
        (
            "echo to unknown",
            echo(ipv4::addr(8, 8, 8, 8), 0, 64),
            Substituted,
        ),
    ];
    for (label, stimulus, delivery) in ring_cases {
        lines.extend(kernel_lines(&ring, "h1", label, stimulus, delivery, &[]));
    }
    lines
}

#[test]
fn router_decisions_match_the_committed_golden() {
    let sync = sync_lines();
    assert_eq!(sync.len(), 240 + 20 + 4);
    let kernel = kernel_cases();

    let sync_text = sync.join("\n");
    let mut missing: Vec<&str> = ACTIONS.iter().chain(EVENTS.iter()).copied().collect();
    missing.retain(|needle| !sync_text.contains(needle));
    let kernel_text = kernel.join("\n");
    missing.extend(
        KERNEL_EVENTS
            .iter()
            .filter(|needle| !kernel_text.contains(*needle)),
    );
    assert!(
        missing.is_empty(),
        "no pinned router decision reaches {missing:?}; add a stimulus that does"
    );

    let text = sync_text + "\n" + &kernel_text + "\n";
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        fs::write(&path, &text).expect("write golden");
        return;
    }
    let golden = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {}: {e}; run with UPDATE_GOLDEN=1", path.display()));
    let diverged: Vec<String> = golden
        .lines()
        .zip(text.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  want {want}\n  got  {got}"))
        .take(10)
        .collect();
    assert!(
        diverged.is_empty() && golden.lines().count() == text.lines().count(),
        "router decisions diverged from {} ({} vs {} lines):\n{}",
        path.display(),
        golden.lines().count(),
        text.lines().count(),
        diverged.join("\n")
    );
}
