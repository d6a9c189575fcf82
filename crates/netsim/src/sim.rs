//! The deterministic discrete-event simulation kernel.
//!
//! An N-node [`Topology`] (hosts and routers joined by links with per-link
//! delay, bandwidth and fault models) runs under a virtual clock.  Routers
//! run [`RouterNode`]s, which decide with [`crate::net::Router::process`],
//! the ladder `ping` and `traceroute` call synchronously.  Everything a
//! node does happens inside an event handler — the [`Node`] trait — so any
//! responder (the hand-written references, SAGE-generated adapters from
//! `sage-interp`, or deliberately faulty student models) can be bound to any
//! node and replayed exactly.
//!
//! # Event ordering and determinism
//!
//! The kernel is a binary-heap event queue ordered by `(time, seq)`: virtual
//! nanoseconds first, then a monotonically assigned sequence number that
//! breaks ties in scheduling order.  Every source of ordering is therefore
//! deterministic:
//!
//! * handlers run one at a time and their emitted actions are processed in
//!   emission order;
//! * simultaneous events fire in the order they were scheduled;
//! * fan-out (multicast) schedules arrivals in ascending link order;
//! * randomness only enters through explicitly seeded [`LinkModel`]s.
//!
//! The same topology, bindings and seeds always produce a byte-identical
//! [`EventTrace`] — `tests/sim_kernel.rs` pins this across repeated runs and
//! across sweep worker counts.

use crate::buffer::PacketBuf;
use crate::headers::ipv4;
use crate::net::{IcmpResponder, Interface, Router, RouterAction};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// A duration of `ms` milliseconds.
    pub fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    /// Saturating addition of a nanosecond delta.
    pub fn offset(self, delta_ns: u64) -> SimTime {
        SimTime(self.0.saturating_add(delta_ns))
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

/// Index of a node in its [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Index of a link in its [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

/// A diagnosable topology/scenario binding failure: what was asked for,
/// and what the topology actually offers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// No node with the requested name; lists the names that exist.
    NoSuchNode {
        /// The name that was looked up.
        name: String,
        /// Every node name the topology has, in declaration order.
        available: Vec<String>,
    },
    /// The topology has fewer hosts than the scenario needs.
    NotEnoughHosts {
        /// Hosts the scenario needs.
        needed: usize,
        /// Hosts the topology has.
        available: usize,
    },
    /// The topology has fewer routers than the scenario needs.
    NotEnoughRouters {
        /// Routers the scenario needs.
        needed: usize,
        /// Routers the topology has.
        available: usize,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::NoSuchNode { name, available } => {
                write!(f, "no node named {name:?}; available: {available:?}")
            }
            TopologyError::NotEnoughHosts { needed, available } => {
                write!(
                    f,
                    "scenario needs {needed} host(s), topology has {available}"
                )
            }
            TopologyError::NotEnoughRouters { needed, available } => {
                write!(
                    f,
                    "scenario needs {needed} router(s), topology has {available}"
                )
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Whether a node is an end host or a packet-forwarding router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An end host with (normally) one address.
    Host,
    /// A router with one interface address per attached subnet.
    Router,
}

/// One node of a topology: a name, a kind and its interface addresses.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Node name, used in traces and for binding handlers.
    pub name: String,
    /// Host or router.
    pub kind: NodeKind,
    /// `(address, prefix_len)` per interface.
    pub addrs: Vec<(u32, u8)>,
}

/// One point-to-point link between two nodes.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Propagation delay in nanoseconds.
    pub delay_ns: u64,
    /// Bandwidth in bits per second; `None` means serialization is free.
    pub bandwidth_bps: Option<u64>,
}

impl LinkSpec {
    /// The endpoint opposite `n`, if `n` is on this link.
    pub fn peer_of(&self, n: NodeId) -> Option<NodeId> {
        if self.a == n {
            Some(self.b)
        } else if self.b == n {
            Some(self.a)
        } else {
            None
        }
    }

    /// Nanoseconds to serialize `bytes` onto the wire at this link's
    /// bandwidth (0 when unbounded).
    pub fn serialization_ns(&self, bytes: usize) -> u64 {
        match self.bandwidth_bps {
            Some(bps) if bps > 0 => (bytes as u64 * 8).saturating_mul(1_000_000_000) / bps,
            _ => 0,
        }
    }
}

/// A multi-node network: nodes joined by point-to-point links, with static
/// shortest-path routes computed when a [`Sim`] is built.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Topology name, used in sweep reports.
    pub name: String,
    /// Nodes, indexed by [`NodeId`].
    pub nodes: Vec<NodeSpec>,
    /// Links, indexed by [`LinkId`].
    pub links: Vec<LinkSpec>,
}

impl Topology {
    /// An empty topology with a name.
    pub fn named(name: &str) -> Topology {
        Topology {
            name: name.to_string(),
            nodes: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Add an end host with one address.
    pub fn host(&mut self, name: &str, addr: u32, prefix_len: u8) -> NodeId {
        self.nodes.push(NodeSpec {
            name: name.to_string(),
            kind: NodeKind::Host,
            addrs: vec![(addr, prefix_len)],
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Add a router with one interface per attached subnet.
    pub fn router(&mut self, name: &str, ifaces: &[(u32, u8)]) -> NodeId {
        self.nodes.push(NodeSpec {
            name: name.to_string(),
            kind: NodeKind::Router,
            addrs: ifaces.to_vec(),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Join two nodes with a link of the given propagation delay.
    pub fn link(&mut self, a: NodeId, b: NodeId, delay_ns: u64) -> LinkId {
        self.link_with(a, b, delay_ns, None)
    }

    /// Join two nodes with a delay and a bandwidth cap.
    pub fn link_with(
        &mut self,
        a: NodeId,
        b: NodeId,
        delay_ns: u64,
        bandwidth_bps: Option<u64>,
    ) -> LinkId {
        self.links.push(LinkSpec {
            a,
            b,
            delay_ns,
            bandwidth_bps,
        });
        LinkId(self.links.len() - 1)
    }

    /// The node that owns `addr` on one of its interfaces; the lowest
    /// [`NodeId`] when several do.  A linear scan: the kernel answers the
    /// same question from the map [`Routes::compute`] builds.
    pub fn owner_of(&self, addr: u32) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.addrs.iter().any(|(a, _)| *a == addr))
            .map(NodeId)
    }

    /// The node named `name`, or a [`TopologyError::NoSuchNode`] listing
    /// the names that do exist.
    pub fn node_named(&self, name: &str) -> Result<NodeId, TopologyError> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(NodeId)
            .ok_or_else(|| TopologyError::NoSuchNode {
                name: name.to_string(),
                available: self.nodes.iter().map(|n| n.name.clone()).collect(),
            })
    }

    /// The `index`-th host (declaration order), or a diagnostic error.
    pub fn host_at(&self, index: usize) -> Result<NodeId, TopologyError> {
        let hosts = self.hosts();
        hosts
            .get(index)
            .copied()
            .ok_or(TopologyError::NotEnoughHosts {
                needed: index + 1,
                available: hosts.len(),
            })
    }

    /// The last host (declaration order), or a diagnostic error.
    pub fn last_host(&self) -> Result<NodeId, TopologyError> {
        let hosts = self.hosts();
        hosts.last().copied().ok_or(TopologyError::NotEnoughHosts {
            needed: 1,
            available: 0,
        })
    }

    /// The `index`-th router (declaration order), or a diagnostic error.
    pub fn router_at(&self, index: usize) -> Result<NodeId, TopologyError> {
        let routers = self.routers();
        routers
            .get(index)
            .copied()
            .ok_or(TopologyError::NotEnoughRouters {
                needed: index + 1,
                available: routers.len(),
            })
    }

    /// All hosts, in declaration order.
    pub fn hosts(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|i| self.nodes[*i].kind == NodeKind::Host)
            .map(NodeId)
            .collect()
    }

    /// All routers, in declaration order.
    pub fn routers(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|i| self.nodes[*i].kind == NodeKind::Router)
            .map(NodeId)
            .collect()
    }

    /// The primary address of a node (its first interface).  Returns 0
    /// for an addressless or out-of-range node.
    pub fn addr_of(&self, n: NodeId) -> u32 {
        self.nodes
            .get(n.0)
            .and_then(|spec| spec.addrs.first())
            .map(|(a, _)| *a)
            .unwrap_or(0)
    }

    /// The [`Router`] of node `n`, one interface per address and no full
    /// buffer — what a [`RouterNode`] on `n` decides with.
    pub fn router_config(&self, n: NodeId) -> Router {
        Router {
            interfaces: self.nodes[n.0]
                .addrs
                .iter()
                .map(|(addr, prefix)| Interface::new(*addr, *prefix))
                .collect(),
            full_buffers: Vec::new(),
        }
    }

    // -- the topology library ------------------------------------------------

    /// The Appendix-A network of the paper: one router serving three /24
    /// subnets, a client and BFD peer on the first, servers on the other
    /// two.  The client and peer share a subnet, so their link is direct
    /// (BFD single-hop traffic never crosses the router).
    pub fn appendix_a() -> Topology {
        let mut t = Topology::named("appendix_a");
        let router = t.router(
            "router",
            &[
                (ipv4::addr(10, 0, 1, 1), 24),
                (ipv4::addr(192, 168, 2, 1), 24),
                (ipv4::addr(172, 64, 3, 1), 24),
            ],
        );
        let client = t.host("client", ipv4::addr(10, 0, 1, 100), 24);
        let server1 = t.host("server1", ipv4::addr(192, 168, 2, 100), 24);
        let server2 = t.host("server2", ipv4::addr(172, 64, 3, 100), 24);
        let peer = t.host("peer", ipv4::addr(10, 0, 1, 200), 24);
        t.link(router, client, 1_000_000);
        t.link(router, server1, 1_000_000);
        t.link(router, server2, 1_000_000);
        t.link(client, peer, 500_000);
        t
    }

    /// A chain of `n` routers `r1..rn` between a client and a server.
    /// Subnet 10.0.k.0/24 joins the two nodes either side of it: the
    /// client (.100) and r1 (.1) for k = 1, r(k-1) (.1) and rk (.2) in
    /// between, and rn (.1) and the server (.100) for k = n+1.  As in
    /// `ring` and `mesh10`, the right-hand router on a shared subnet takes
    /// .2, so every address belongs to one router.
    pub fn line(n: usize) -> Topology {
        let n = n.max(1);
        let mut t = Topology::named("line");
        t.name = format!("line{n}");
        let routers: Vec<NodeId> = (0..n)
            .map(|i| {
                let left_host = if i == 0 { 1 } else { 2 };
                let left = ipv4::addr(10, 0, (i + 1) as u8, left_host);
                let right = ipv4::addr(10, 0, (i + 2) as u8, 1);
                t.router(&format!("r{}", i + 1), &[(left, 24), (right, 24)])
            })
            .collect();
        let client = t.host("client", ipv4::addr(10, 0, 1, 100), 24);
        let server = t.host("server", ipv4::addr(10, 0, (n + 1) as u8, 100), 24);
        t.link(routers[0], client, 1_000_000);
        for w in routers.windows(2) {
            t.link(w[0], w[1], 2_000_000);
        }
        t.link(routers[n - 1], server, 1_000_000);
        t
    }

    /// A star: one central router with `k` hosts, one subnet each.
    pub fn star(k: usize) -> Topology {
        let k = k.max(2);
        let mut t = Topology::named("star");
        t.name = format!("star{k}");
        let ifaces: Vec<(u32, u8)> = (0..k)
            .map(|i| (ipv4::addr(10, 0, (i + 1) as u8, 1), 24))
            .collect();
        let hub = t.router("hub", &ifaces);
        for i in 0..k {
            let h = t.host(
                &format!("h{}", i + 1),
                ipv4::addr(10, 0, (i + 1) as u8, 100),
                24,
            );
            t.link(hub, h, 1_000_000);
        }
        t
    }

    /// A ring of `k` routers, one host each; router-to-router links use
    /// 172.16.x.0/24 transit subnets.
    pub fn ring(k: usize) -> Topology {
        let k = k.max(3);
        let mut t = Topology::named("ring");
        t.name = format!("ring{k}");
        let mut routers = Vec::new();
        for i in 0..k {
            // Host-facing interface plus two transit interfaces: to the
            // previous ring link (i) and the next (i+1, wrapping).
            let host_if = (ipv4::addr(10, 0, (i + 1) as u8, 1), 24);
            let prev_link = i; // link (i-1, i) carries subnet 172.16.i.0/24
            let next_link = (i + 1) % k;
            let ifaces = vec![
                host_if,
                (ipv4::addr(172, 16, prev_link as u8, 2), 24),
                (ipv4::addr(172, 16, next_link as u8, 1), 24),
            ];
            routers.push(t.router(&format!("r{}", i + 1), &ifaces));
        }
        for (i, &router) in routers.iter().enumerate() {
            let h = t.host(
                &format!("h{}", i + 1),
                ipv4::addr(10, 0, (i + 1) as u8, 100),
                24,
            );
            t.link(router, h, 1_000_000);
        }
        for i in 0..k {
            t.link(routers[i], routers[(i + 1) % k], 2_000_000);
        }
        t
    }

    /// A ~10-node mesh: four fully-meshed routers with six hosts spread
    /// across them.
    pub fn mesh10() -> Topology {
        let mut t = Topology::named("mesh10");
        // Host subnets 10.0.1-6.0/24; transit subnets 172.16.n.0/24 per
        // router pair (n = 0..6 in pair order).
        let host_subnets: [&[u8]; 4] = [&[1, 2], &[3, 4], &[5], &[6]];
        let pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let mut ifaces: Vec<Vec<(u32, u8)>> = host_subnets
            .iter()
            .map(|subnets| {
                subnets
                    .iter()
                    .map(|s| (ipv4::addr(10, 0, *s, 1), 24))
                    .collect()
            })
            .collect();
        for (n, (a, b)) in pairs.iter().enumerate() {
            ifaces[*a].push((ipv4::addr(172, 16, n as u8, 1), 24));
            ifaces[*b].push((ipv4::addr(172, 16, n as u8, 2), 24));
        }
        let routers: Vec<NodeId> = ifaces
            .iter()
            .enumerate()
            .map(|(i, ifs)| t.router(&format!("r{}", i + 1), ifs))
            .collect();
        for (r, subnets) in routers.iter().zip(host_subnets.iter()) {
            for s in *subnets {
                let h = t.host(&format!("h{s}"), ipv4::addr(10, 0, *s, 100), 24);
                t.link(*r, h, 1_000_000);
            }
        }
        for (a, b) in pairs {
            t.link(routers[a], routers[b], 3_000_000);
        }
        t
    }

    /// Every topology of the library, in sweep order.
    pub fn library() -> Vec<Topology> {
        vec![
            Topology::appendix_a(),
            Topology::line(3),
            Topology::star(4),
            Topology::ring(4),
            Topology::mesh10(),
        ]
    }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// Static routing tables, built once per topology so every per-packet
/// lookup is O(1): `next_hop[src][dst]` is the link a packet leaves `src`
/// on towards `dst` (Dijkstra over link delays with deterministic
/// `(distance, node index)` tie-breaking), `owner` maps each interface
/// address to its node, and `adjacency[n]` lists `n`'s links.
#[derive(Debug, Clone)]
pub struct Routes {
    next_hop: Vec<Vec<Option<LinkId>>>,
    owner: HashMap<u32, NodeId>,
    adjacency: Vec<Vec<LinkId>>,
}

impl Routes {
    /// Compute shortest-path routes, the address map and the adjacency
    /// lists for a topology.
    pub fn compute(topo: &Topology) -> Routes {
        let n = topo.nodes.len();
        let mut owner = HashMap::new();
        for (i, node) in topo.nodes.iter().enumerate() {
            for (addr, _) in &node.addrs {
                // First match wins, as in `Topology::owner_of`.
                owner.entry(*addr).or_insert(NodeId(i));
            }
        }
        let mut adjacency = vec![Vec::new(); n];
        for (li, link) in topo.links.iter().enumerate() {
            if let Some(list) = adjacency.get_mut(link.a.0) {
                list.push(LinkId(li));
            }
            // A self-loop is listed once, as `peer_of` matches it once.
            if link.b != link.a {
                if let Some(list) = adjacency.get_mut(link.b.0) {
                    list.push(LinkId(li));
                }
            }
        }
        let mut next_hop = vec![vec![None; n]; n];
        for src in 0..n {
            // Dijkstra from src; `via[d]` is the first link on the path.
            let mut dist = vec![u64::MAX; n];
            let mut via: Vec<Option<LinkId>> = vec![None; n];
            let mut done = vec![false; n];
            dist[src] = 0;
            for _ in 0..n {
                // Deterministic extract-min: smallest (dist, index).
                let Some(u) = (0..n)
                    .filter(|i| !done[*i] && dist[*i] != u64::MAX)
                    .min_by_key(|i| (dist[*i], *i))
                else {
                    break;
                };
                done[u] = true;
                for &LinkId(li) in &adjacency[u] {
                    let link = &topo.links[li];
                    let Some(peer) = link.peer_of(NodeId(u)) else {
                        continue;
                    };
                    let v = peer.0;
                    let nd = dist[u].saturating_add(link.delay_ns.max(1));
                    let better = nd < dist[v]
                        || (nd == dist[v]
                            && via[v].map(|l| l.0).unwrap_or(usize::MAX) > li
                            && via[u].is_none());
                    if better {
                        dist[v] = nd;
                        via[v] = if u == src { Some(LinkId(li)) } else { via[u] };
                    }
                }
            }
            next_hop[src] = via;
        }
        Routes {
            next_hop,
            owner,
            adjacency,
        }
    }

    /// The node that owns `addr`: the same answer as
    /// [`Topology::owner_of`] (lowest [`NodeId`] on a shared address),
    /// read from a map.
    fn owner_of(&self, addr: u32) -> Option<NodeId> {
        self.owner.get(&addr).copied()
    }

    /// Links incident to `n`, in ascending link order (empty for an
    /// out-of-range id).
    fn links_of(&self, n: NodeId) -> &[LinkId] {
        self.adjacency.get(n.0).map_or(&[], Vec::as_slice)
    }

    /// The link a packet leaves `src` on towards `dst` (None if unreachable
    /// or `src == dst`).
    ///
    /// Indexing invariant: `next_hop` is an N×N table built by
    /// [`Routes::compute`] from the same topology the ids came from, so
    /// in-kernel callers (which only ever pass ids the topology produced)
    /// cannot go out of range.
    pub fn link_towards(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        self.next_hop[src.0][dst.0]
    }
}

// ---------------------------------------------------------------------------
// Link models
// ---------------------------------------------------------------------------

/// One packet's fate on a link: the (possibly mutated) bytes plus any extra
/// queueing delay the model imposes.
#[derive(Debug, Clone)]
pub struct LinkDelivery {
    /// The packet that arrives (possibly corrupted by the model).
    pub packet: PacketBuf,
    /// Extra delay on top of propagation + serialization, in nanoseconds.
    pub extra_delay_ns: u64,
}

impl LinkDelivery {
    /// An unmodified, undelayed delivery.
    pub fn intact(packet: PacketBuf) -> LinkDelivery {
        LinkDelivery {
            packet,
            extra_delay_ns: 0,
        }
    }
}

/// A per-link behaviour hook: loss, duplication, corruption and jitter are
/// expressed by returning zero, one or many [`LinkDelivery`]s per transmit.
/// Implementations must be deterministic for a fixed seed —
/// [`crate::fuzz::ScheduledLink`] is the seeded implementation.
pub trait LinkModel: Send {
    /// Decide what arrives when `packet` is transmitted on this link.
    fn transmit(&mut self, packet: &PacketBuf) -> Vec<LinkDelivery>;
}

// ---------------------------------------------------------------------------
// Nodes and the handler context
// ---------------------------------------------------------------------------

/// A behaviour bound to a topology node: every protocol role — router,
/// ping client, IGMP querier/host, NTP client/server, BFD endpoint — is an
/// event handler implementing this trait.
pub trait Node {
    /// Called once at virtual time zero, in node order, before any events
    /// are pumped.  The place to originate initial traffic or set timers.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called when an IP packet arrives at this node.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: &PacketBuf);

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// Called when the kernel restarts this node after a
    /// [`SimBuilder::crash_at`]/[`SimBuilder::restart_at`] cycle (or
    /// power-cycles a running node).  The node's protocol state must come
    /// back as if freshly booted: reset session variables, then
    /// re-originate traffic and re-arm timers.  Every timer set before the
    /// crash has already been invalidated by the kernel's generation tag.
    /// Defaults to [`Node::on_start`] — a restart is a fresh boot.
    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.on_start(ctx);
    }
}

/// An action emitted by a handler, applied by the kernel in emission order.
#[derive(Debug)]
enum Action {
    Originate(PacketBuf),
    Forward(PacketBuf),
    Timer { delay_ns: u64, token: u64 },
    Note(String),
    DeliverLocal,
    Drop(&'static str),
}

/// The handler-side view of the kernel: the current virtual time, routing
/// queries, and the action buffer handlers emit into.
pub struct Ctx<'a> {
    now: SimTime,
    node: NodeId,
    arrival_from: Option<NodeId>,
    topology: &'a Topology,
    routes: &'a Routes,
    in_flight: &'a [usize],
    queue_capacity: Option<usize>,
    actions: Vec<Action>,
}

impl Ctx<'_> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this handler is bound to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The neighbour a packet arrived from (None for timers/start).
    pub fn arrival_from(&self) -> Option<NodeId> {
        self.arrival_from
    }

    /// The interface addresses of a node.
    pub fn node_addrs(&self, n: NodeId) -> &[(u32, u8)] {
        &self.topology.nodes[n.0].addrs
    }

    /// The backpressure signal towards `node`: its ingress queue depth as
    /// a fraction of the configured [`SimBuilder::queue_capacity`], in
    /// `0.0..=1.0`.  `1.0` means the next transmit would be shed; `0.0`
    /// always, when no capacity bound is configured.  Responders observe
    /// this to degrade gracefully (skip a round, thin a burst) instead of
    /// blindly feeding a full queue.
    pub fn backpressure(&self, node: NodeId) -> f64 {
        match self.queue_capacity {
            Some(cap) if cap > 0 => {
                let depth = self.in_flight.get(node.0).copied().unwrap_or(0);
                (depth as f64 / cap as f64).min(1.0)
            }
            Some(_) => 1.0,
            None => 0.0,
        }
    }

    /// True if the kernel can route a packet from this node to `dst` (some
    /// node owns the address and a path exists).  Reads the same address
    /// map the kernel routes by, so the two always agree.
    pub fn has_route(&self, dst: u32) -> bool {
        match self.routes.owner_of(dst) {
            Some(owner) if owner == self.node => true,
            Some(owner) => self.routes.link_towards(self.node, owner).is_some(),
            None => false,
        }
    }

    /// Originate a new packet from this node (traced as `Originate`).
    pub fn send(&mut self, packet: PacketBuf) {
        self.actions.push(Action::Originate(packet));
    }

    /// Forward a transit packet (traced as `Forward`, excluded from
    /// [`EventTrace::originated_packets`]).
    pub fn forward(&mut self, packet: PacketBuf) {
        self.actions.push(Action::Forward(packet));
    }

    /// Schedule [`Node::on_timer`] after `delay_ns` virtual nanoseconds.
    pub fn set_timer(&mut self, delay_ns: u64, token: u64) {
        self.actions.push(Action::Timer { delay_ns, token });
    }

    /// Record a free-form trace note (scenario assertions read these).
    pub fn note(&mut self, text: impl Into<String>) {
        self.actions.push(Action::Note(text.into()));
    }

    /// Record local delivery (the packet terminated here on purpose).
    pub fn deliver_local(&mut self) {
        self.actions.push(Action::DeliverLocal);
    }

    /// Record an intentional drop.
    pub fn drop_packet(&mut self, reason: &'static str) {
        self.actions.push(Action::Drop(reason));
    }
}

// ---------------------------------------------------------------------------
// The event trace
// ---------------------------------------------------------------------------

/// How much of a run the [`EventTrace`] retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Every event is retained in [`EventTrace::events`] — the
    /// byte-identical replay artifact the parity and determinism suites
    /// pin.  The default.
    #[default]
    Full,
    /// O(1) state per run: only the [`TraceSummary`] counters, the
    /// virtual-latency histogram and a ring of the last
    /// [`TRACE_RING_CAPACITY`] events are kept, so million-packet soak
    /// runs never hold O(packets) memory.  Per event the kernel updates
    /// the counters and overwrites one ring slot in place, copying the
    /// packet bytes or note into that slot's reused buffers; nothing is
    /// rendered until [`TraceSummary::last_events`] is read.
    /// [`EventTrace::events`] stays empty.
    Summary,
}

/// Events the [`TraceMode::Summary`] ring keeps, unrendered, for
/// [`TraceSummary::last_events`].  Once the ring is full each new event
/// overwrites the oldest slot, reusing its name and payload buffers.
pub const TRACE_RING_CAPACITY: usize = 64;

/// A 64-bucket log2 histogram of virtual latencies: O(1) memory whatever
/// the packet count, with nearest-rank percentiles read from bucket upper
/// bounds.  Bucket `i` holds values in `(2^(i-1), 2^i]` (bucket 0 holds 0
/// and 1), so percentile error is bounded by 2× — plenty for the p50/p99
/// drift tracking the soak baselines do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; 64],
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; 64],
            total: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// The bucket index for a latency value.
    fn bucket(value_ns: u64) -> usize {
        if value_ns <= 1 {
            0
        } else {
            (64 - (value_ns - 1).leading_zeros() as usize).min(63)
        }
    }

    /// Record one latency sample.
    pub fn record(&mut self, value_ns: u64) {
        self.counts[Self::bucket(value_ns)] += 1;
        self.total += 1;
    }

    /// Total samples recorded.
    pub fn samples(&self) -> u64 {
        self.total
    }

    /// The nearest-rank percentile (`p` in `0.0..=1.0`), reported as the
    /// containing bucket's upper bound; `None` on an empty histogram.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(if i >= 63 { u64::MAX } else { 1u64 << i });
            }
        }
        None
    }

    /// Merge another histogram into this one (cross-shard aggregation).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }
}

/// O(1)-per-run statistics the kernel accumulates in *both* trace modes
/// (so Summary-mode percentiles are exactly the Full-mode ones): event
/// counters, per-node shed counts, the delivery-latency histogram and —
/// in [`TraceMode::Summary`] only — a bounded ring of the most recent
/// events for post-mortem context, rendered by
/// [`TraceSummary::last_events`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Trace events recorded (what `events.len()` would be in Full mode).
    pub events_recorded: u64,
    /// `Originate` events.
    pub originated: u64,
    /// `Forward` events.
    pub forwarded: u64,
    /// `Deliver` events.
    pub delivered: u64,
    /// `DeliverLocal` events.
    pub delivered_local: u64,
    /// `Timer` events.
    pub timers: u64,
    /// `Note` events.
    pub notes: u64,
    /// `Drop` events of any reason (including sheds).
    pub drops: u64,
    /// `Drop("shed")` events: packets the bounded ingress queue refused.
    pub shed: u64,
    /// Sheds per receiving node, indexed by [`NodeId`].
    pub shed_by_node: Vec<u64>,
    /// Watchdog trips (`stalled` notes emitted by the kernel watchdog).
    pub watchdog_trips: u64,
    /// Quarantine swaps (notes starting with `quarantine`), however the
    /// containment layer phrases the rest of the note.
    pub quarantines: u64,
    /// Virtual delivery latency of every `Deliver` (transmit → arrival).
    pub latency: LatencyHistogram,
    /// The last [`TRACE_RING_CAPACITY`] events, oldest first, unrendered
    /// ([`TraceMode::Summary`] only).
    ring: VecDeque<RingSlot>,
    /// Virtual time of the most recent event.
    pub last_time: SimTime,
}

impl TraceSummary {
    /// The last [`TRACE_RING_CAPACITY`] events, oldest first, rendered
    /// exactly as [`EventTrace::render`] renders them
    /// ([`TraceMode::Summary`] only; empty in Full mode, where
    /// [`EventTrace::events`] has everything).  The ring stores events
    /// unrendered, so the lines are built here, on read.
    pub fn last_events(&self) -> Vec<String> {
        self.ring
            .iter()
            .map(|slot| EventTrace::render_line(&slot.event))
            .collect()
    }

    /// Account one event into the counters; shared by both trace modes so
    /// their statistics coincide.
    fn account(&mut self, time: SimTime, node: NodeId, kind: &KindRef<'_>) {
        self.events_recorded += 1;
        self.last_time = self.last_time.max(time);
        match kind {
            KindRef::Originate(_) => self.originated += 1,
            KindRef::Forward(_) => self.forwarded += 1,
            KindRef::Deliver(_) => self.delivered += 1,
            KindRef::DeliverLocal => self.delivered_local += 1,
            KindRef::Timer(_) => self.timers += 1,
            KindRef::Note(text) => {
                self.notes += 1;
                if text.starts_with("quarantine") {
                    self.quarantines += 1;
                }
            }
            KindRef::Drop(reason) => {
                self.drops += 1;
                if *reason == "shed" {
                    self.shed += 1;
                    if self.shed_by_node.len() <= node.0 {
                        self.shed_by_node.resize(node.0 + 1, 0);
                    }
                    self.shed_by_node[node.0] += 1;
                }
            }
        }
    }

    /// Keep one event in the ring: a new slot until it holds
    /// [`TRACE_RING_CAPACITY`], then the oldest slot rewritten in place.
    fn remember(&mut self, time: SimTime, node: NodeId, node_name: &str, kind: KindRef<'_>) {
        if self.ring.len() < TRACE_RING_CAPACITY {
            self.ring.push_back(RingSlot {
                event: TraceEvent {
                    time,
                    node,
                    node_name: node_name.to_string(),
                    kind: kind.into_owned(),
                },
                spare_bytes: Vec::new(),
                spare_text: String::new(),
            });
        } else if let Some(mut slot) = self.ring.pop_front() {
            slot.overwrite(time, node, node_name, kind);
            self.ring.push_back(slot);
        }
    }
}

/// One event of the Summary-mode ring.  The spares hold the buffers of
/// payload kinds the slot does not carry right now, so rewriting it with
/// any kind it has carried before allocates nothing.  Equality compares
/// the event only.
#[derive(Debug, Clone)]
struct RingSlot {
    event: TraceEvent,
    spare_bytes: Vec<u8>,
    spare_text: String,
}

impl PartialEq for RingSlot {
    fn eq(&self, other: &Self) -> bool {
        self.event == other.event
    }
}

impl Eq for RingSlot {}

impl RingSlot {
    /// Rewrite the slot with a new event, parking the outgoing payload's
    /// buffer among the spares first so the incoming payload can reuse it.
    fn overwrite(&mut self, time: SimTime, node: NodeId, node_name: &str, kind: KindRef<'_>) {
        match std::mem::replace(&mut self.event.kind, TraceEventKind::DeliverLocal) {
            TraceEventKind::Originate(bytes)
            | TraceEventKind::Forward(bytes)
            | TraceEventKind::Deliver(bytes) => self.spare_bytes = bytes,
            TraceEventKind::Note(text) => self.spare_text = text,
            _ => {}
        }
        self.event.time = time;
        self.event.node = node;
        self.event.node_name.clear();
        self.event.node_name.push_str(node_name);
        self.event.kind = kind.into_owned_in(&mut self.spare_bytes, &mut self.spare_text);
    }
}

/// A [`TraceEventKind`] as the kernel holds it: packet bytes borrowed
/// from the buffer in flight, notes borrowed or owned.  Counting reads it
/// in place; only a retained event copies it.
enum KindRef<'a> {
    Originate(&'a [u8]),
    Forward(&'a [u8]),
    Deliver(&'a [u8]),
    DeliverLocal,
    Drop(&'static str),
    Timer(u64),
    Note(Cow<'a, str>),
}

impl KindRef<'_> {
    /// The owned kind in fresh buffers (an owned note moves, free).
    fn into_owned(self) -> TraceEventKind {
        self.into_owned_in(&mut Vec::new(), &mut String::new())
    }

    /// The owned kind, with packet bytes or a borrowed note copied into
    /// `bytes` or `text` (taken and cleared first) so that a recycled
    /// ring slot reuses their allocations.
    fn into_owned_in(self, bytes: &mut Vec<u8>, text: &mut String) -> TraceEventKind {
        let mut copy = |packet: &[u8]| {
            let mut buf = std::mem::take(bytes);
            buf.clear();
            buf.extend_from_slice(packet);
            buf
        };
        match self {
            KindRef::Originate(packet) => TraceEventKind::Originate(copy(packet)),
            KindRef::Forward(packet) => TraceEventKind::Forward(copy(packet)),
            KindRef::Deliver(packet) => TraceEventKind::Deliver(copy(packet)),
            KindRef::DeliverLocal => TraceEventKind::DeliverLocal,
            KindRef::Drop(reason) => TraceEventKind::Drop(reason),
            KindRef::Timer(token) => TraceEventKind::Timer(token),
            KindRef::Note(Cow::Owned(note)) => TraceEventKind::Note(note),
            KindRef::Note(Cow::Borrowed(note)) => {
                let mut buf = std::mem::take(text);
                buf.clear();
                buf.push_str(note);
                TraceEventKind::Note(buf)
            }
        }
    }
}

/// What happened at one trace point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A node originated a new packet.
    Originate(Vec<u8>),
    /// A router forwarded a transit packet.
    Forward(Vec<u8>),
    /// A packet arrived at a node.
    Deliver(Vec<u8>),
    /// A packet terminated locally on purpose.
    DeliverLocal,
    /// A packet was dropped.
    Drop(&'static str),
    /// A timer fired.
    Timer(u64),
    /// A handler note.
    Note(String),
}

/// One trace record: when, where, what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub time: SimTime,
    /// The node the event happened at.
    pub node: NodeId,
    /// The node's name (denormalised for rendering).
    pub node_name: String,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The replayable record of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventTrace {
    /// Events in processing order ([`TraceMode::Full`] only; empty in
    /// Summary mode, where only [`EventTrace::summary`] is kept).
    pub events: Vec<TraceEvent>,
    /// The mode the trace was recorded in.
    pub mode: TraceMode,
    /// O(1) run statistics, accumulated identically in both modes.
    pub summary: TraceSummary,
}

impl EventTrace {
    /// Count one event, then keep it as the mode asks: an owned
    /// [`TraceEvent`] in Full mode, a recycled ring slot in Summary mode.
    fn record(&mut self, time: SimTime, node: NodeId, node_name: &str, kind: KindRef<'_>) {
        self.summary.account(time, node, &kind);
        match self.mode {
            TraceMode::Full => self.events.push(TraceEvent {
                time,
                node,
                node_name: node_name.to_string(),
                kind: kind.into_owned(),
            }),
            TraceMode::Summary => self.summary.remember(time, node, node_name, kind),
        }
    }

    /// Every originated packet, in order — the packets a session put on
    /// the wire (forwarded transit copies are excluded).
    pub fn originated_packets(&self) -> Vec<Vec<u8>> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceEventKind::Originate(bytes) => Some(bytes.clone()),
                _ => None,
            })
            .collect()
    }

    /// Packets originated by the named node, in order — the per-node view
    /// the fuzz property checkers budget against.
    pub fn originated_by(&self, node_name: &str) -> Vec<Vec<u8>> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceEventKind::Originate(bytes) if e.node_name == node_name => Some(bytes.clone()),
                _ => None,
            })
            .collect()
    }

    /// Packets delivered to the named node, in order.
    pub fn delivered_to(&self, node_name: &str) -> Vec<Vec<u8>> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceEventKind::Deliver(bytes) if e.node_name == node_name => Some(bytes.clone()),
                _ => None,
            })
            .collect()
    }

    /// `(node_name, text)` for every note, in order.
    pub fn notes(&self) -> Vec<(&str, &str)> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceEventKind::Note(text) => Some((e.node_name.as_str(), text.as_str())),
                _ => None,
            })
            .collect()
    }

    /// Number of `Deliver` events.
    pub fn delivered_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Deliver(_)))
            .count()
    }

    /// The virtual time of the last event (the run's virtual duration).
    /// Mode-independent: Summary mode has no retained events, so the
    /// summary's running maximum is consulted too.
    pub fn duration(&self) -> SimTime {
        self.events
            .last()
            .map(|e| e.time)
            .unwrap_or(SimTime::ZERO)
            .max(self.summary.last_time)
    }

    /// Render one event exactly as [`EventTrace::render`] would — also
    /// the line format of the Summary-mode last-K ring.
    pub fn render_line(e: &TraceEvent) -> String {
        let mut line = String::new();
        write_line(&mut line, e);
        line
    }

    /// Render the trace deterministically, one line per event with full
    /// packet hex — the byte-identical artifact the determinism tests pin.
    /// (Summary-mode traces render empty; [`TraceSummary::last_events`]
    /// renders the last-K ring instead.)
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            write_line(&mut out, e);
            out.push('\n');
        }
        out
    }

    /// FNV-1a over exactly the bytes [`EventTrace::render`] produces: the
    /// trace's stable digest (unlike `DefaultHasher`, whose algorithm the
    /// standard library does not pin across releases).  Equal digests mean
    /// byte-identical traces.
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut line = String::new();
        for e in &self.events {
            line.clear();
            write_line(&mut line, e);
            line.push('\n');
            for &b in line.as_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }
}

/// Append one event's line, without its newline, to `out`: the time, the
/// node name padded to 8 columns, the kind word and its payload, packet
/// bytes as lowercase hex.  The time is unpadded (`[1000ns]`), because
/// [`SimTime`]'s `Display` ignores a width; that form is part of the
/// pinned trace format.
fn write_line(out: &mut String, e: &TraceEvent) {
    use std::fmt::Write;
    // Formatting into a `String` cannot fail.
    let _ = write!(out, "[{}] {:<8} ", e.time, e.node_name);
    match &e.kind {
        TraceEventKind::Originate(bytes) => push_packet(out, "originate ", bytes),
        TraceEventKind::Forward(bytes) => push_packet(out, "forward ", bytes),
        TraceEventKind::Deliver(bytes) => push_packet(out, "deliver ", bytes),
        TraceEventKind::DeliverLocal => out.push_str("deliver-local"),
        TraceEventKind::Drop(reason) => {
            out.push_str("drop ");
            out.push_str(reason);
        }
        TraceEventKind::Timer(token) => {
            let _ = write!(out, "timer {token}");
        }
        TraceEventKind::Note(note) => {
            out.push_str("note ");
            out.push_str(note);
        }
    }
}

/// Append `word` and then `packet` as two lowercase hex digits per byte.
fn push_packet(out: &mut String, word: &str, packet: &[u8]) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(word.len() + 2 * packet.len());
    out.push_str(word);
    for &b in packet {
        out.push(char::from(HEX[usize::from(b >> 4)]));
        out.push(char::from(HEX[usize::from(b & 0x0f)]));
    }
}

// ---------------------------------------------------------------------------
// The kernel
// ---------------------------------------------------------------------------

/// A queued future event.
#[derive(Debug)]
enum QueuedKind {
    Arrival {
        node: NodeId,
        from: NodeId,
        packet: PacketBuf,
        /// Transmit → arrival virtual latency (propagation +
        /// serialization + model delay), recorded into the summary's
        /// latency histogram at delivery.
        latency_ns: u64,
    },
    TimerFire {
        node: NodeId,
        token: u64,
        /// The owning node's restart generation when the timer was set; a
        /// fire whose generation no longer matches is stale (the node
        /// crashed or power-cycled in between) and is dropped.
        generation: u32,
    },
    NodeCrash {
        node: NodeId,
    },
    NodeRestart {
        node: NodeId,
    },
    LinkDown {
        link: LinkId,
    },
    LinkUp {
        link: LinkId,
    },
    /// A periodic progress check for a watched node: if the node has
    /// processed no new deliveries since `seen`, the kernel traces a
    /// `stalled` note and counts a watchdog trip.  Re-arms itself while
    /// any non-watchdog event is still pending, so the pump always
    /// terminates.
    WatchdogCheck {
        node: NodeId,
        budget_ns: u64,
        /// The node's delivery count at the previous check.
        seen: u64,
    },
}

#[derive(Debug)]
struct QueuedEvent {
    time: SimTime,
    seq: u64,
    kind: QueuedKind,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A scheduled node/link lifecycle change, registered on the builder and
/// fired by the kernel at its virtual time.
#[derive(Debug, Clone, Copy)]
enum LifecycleAction {
    Crash(NodeId),
    Restart(NodeId),
    LinkDown(LinkId),
    LinkUp(LinkId),
}

/// Builds a [`Sim`]: a topology plus per-node handlers and per-link models.
pub struct SimBuilder {
    topology: Topology,
    handlers: Vec<Option<Box<dyn Node>>>,
    link_models: Vec<Option<Box<dyn LinkModel>>>,
    lifecycle: Vec<(SimTime, LifecycleAction)>,
    watchdogs: Vec<(NodeId, u64)>,
    max_events: usize,
    queue_capacity: Option<usize>,
    trace_mode: TraceMode,
}

impl SimBuilder {
    /// Start building over a topology.
    pub fn new(topology: Topology) -> SimBuilder {
        let nodes = topology.nodes.len();
        let links = topology.links.len();
        SimBuilder {
            topology,
            handlers: (0..nodes).map(|_| None).collect(),
            link_models: (0..links).map(|_| None).collect(),
            lifecycle: Vec::new(),
            watchdogs: Vec::new(),
            max_events: 100_000,
            queue_capacity: None,
            trace_mode: TraceMode::Full,
        }
    }

    /// The topology being bound (scenarios read addresses from here).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Bind a handler to a node by id.
    ///
    /// Indexing invariant: `handlers` is sized from the topology at
    /// construction, so ids the topology produced cannot go out of
    /// range.
    pub fn bind(&mut self, node: NodeId, handler: Box<dyn Node>) -> &mut Self {
        self.handlers[node.0] = Some(handler);
        self
    }

    /// Bind a handler to a node by name.  A scenario/topology mismatch
    /// comes back as a [`TopologyError`] naming the nodes that do exist,
    /// instead of a panic.
    pub fn bind_named(
        &mut self,
        name: &str,
        handler: Box<dyn Node>,
    ) -> Result<&mut Self, TopologyError> {
        let node = self.topology.node_named(name)?;
        Ok(self.bind(node, handler))
    }

    /// Attach a fault/delay model to a link.
    ///
    /// Indexing invariant: `link_models` is sized from the topology at
    /// construction, so ids the topology produced cannot go out of
    /// range.
    pub fn bind_link_model(&mut self, link: LinkId, model: Box<dyn LinkModel>) -> &mut Self {
        self.link_models[link.0] = Some(model);
        self
    }

    /// Cap the total number of processed events (runaway-loop backstop).
    pub fn max_events(&mut self, cap: usize) -> &mut Self {
        self.max_events = cap;
        self
    }

    /// Bound every node's ingress queue to `capacity` packets in flight
    /// (scheduled arrivals not yet delivered).  A transmit towards a
    /// full node is shed drop-tail: the kernel traces `drop shed` at the
    /// receiving node and bumps its [`TraceSummary::shed_by_node`]
    /// counter instead of enqueueing.  `None` (the default) keeps the
    /// historical unbounded behaviour.
    pub fn queue_capacity(&mut self, capacity: usize) -> &mut Self {
        self.queue_capacity = Some(capacity);
        self
    }

    /// Select how much of the run the trace retains; see [`TraceMode`].
    pub fn trace_mode(&mut self, mode: TraceMode) -> &mut Self {
        self.trace_mode = mode;
        self
    }

    /// Watch `node` for progress: every `budget_ns` of virtual time, the
    /// kernel checks that the node processed at least one new delivery;
    /// if not it traces a `stalled` note at the node and counts a
    /// watchdog trip ([`TraceSummary::watchdog_trips`]).  The check
    /// re-arms only while other events are still pending, so a finished
    /// run drains instead of ticking forever.
    pub fn watchdog(&mut self, node: NodeId, budget_ns: u64) -> &mut Self {
        self.watchdogs.push((node, budget_ns));
        self
    }

    /// Crash `node` at virtual time `at`: its handler stops receiving
    /// packets (arrivals trace as `drop node down`) and every timer it set
    /// before the crash is invalidated.  The trace records a `node-down`
    /// note at the crash instant.
    pub fn crash_at(&mut self, node: NodeId, at: SimTime) -> &mut Self {
        self.lifecycle.push((at, LifecycleAction::Crash(node)));
        self
    }

    /// Restart `node` at virtual time `at`: the kernel calls
    /// [`Node::on_restart`] so the handler resets its protocol state and
    /// re-originates traffic.  Restarting a running node is a power-cycle
    /// (state reset, pre-restart timers invalidated).  The trace records a
    /// `node-up` note.
    pub fn restart_at(&mut self, node: NodeId, at: SimTime) -> &mut Self {
        self.lifecycle.push((at, LifecycleAction::Restart(node)));
        self
    }

    /// Take `link` down at virtual time `at`: subsequent transmits trace
    /// as `drop link down` (the link model is not consulted) until a
    /// matching [`SimBuilder::link_up_at`].  The trace records a
    /// `link-down <a>-<b>` note at the link's first endpoint.
    pub fn link_down_at(&mut self, link: LinkId, at: SimTime) -> &mut Self {
        self.lifecycle.push((at, LifecycleAction::LinkDown(link)));
        self
    }

    /// Bring `link` back up at virtual time `at`.  The trace records a
    /// `link-up <a>-<b>` note at the link's first endpoint.
    pub fn link_up_at(&mut self, link: LinkId, at: SimTime) -> &mut Self {
        self.lifecycle.push((at, LifecycleAction::LinkUp(link)));
        self
    }

    /// Compute routes and produce a runnable [`Sim`].
    pub fn build(self) -> Sim {
        let routes = Routes::compute(&self.topology);
        let nodes = self.topology.nodes.len();
        let links = self.topology.links.len();
        let mut trace = EventTrace {
            mode: self.trace_mode,
            ..EventTrace::default()
        };
        trace.summary.shed_by_node = vec![0; nodes];
        let mut sim = Sim {
            topology: self.topology,
            routes,
            handlers: self.handlers,
            link_models: self.link_models,
            queue: BinaryHeap::new(),
            next_seq: 0,
            trace,
            max_events: self.max_events,
            node_alive: vec![true; nodes],
            node_generation: vec![0; nodes],
            link_state_up: vec![true; links],
            queue_capacity: self.queue_capacity,
            in_flight: vec![0; nodes],
            progress: vec![0; nodes],
            real_pending: 0,
            actions: Vec::new(),
        };
        // Lifecycle events enter the queue first, in registration order, so
        // simultaneous lifecycle changes fire deterministically before any
        // same-instant traffic scheduled later.
        for (at, action) in self.lifecycle {
            let kind = match action {
                LifecycleAction::Crash(node) => QueuedKind::NodeCrash { node },
                LifecycleAction::Restart(node) => QueuedKind::NodeRestart { node },
                LifecycleAction::LinkDown(link) => QueuedKind::LinkDown { link },
                LifecycleAction::LinkUp(link) => QueuedKind::LinkUp { link },
            };
            sim.push_event(at, kind);
        }
        for (node, budget_ns) in self.watchdogs {
            sim.push_event(
                SimTime(budget_ns),
                QueuedKind::WatchdogCheck {
                    node,
                    budget_ns,
                    seen: 0,
                },
            );
        }
        sim
    }
}

/// The discrete-event simulator: pumps the queue to completion, producing an
/// [`EventTrace`].
pub struct Sim {
    topology: Topology,
    routes: Routes,
    handlers: Vec<Option<Box<dyn Node>>>,
    link_models: Vec<Option<Box<dyn LinkModel>>>,
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    next_seq: u64,
    trace: EventTrace,
    max_events: usize,
    /// Per-node liveness: crashed nodes neither receive packets nor run
    /// timers until restarted.
    node_alive: Vec<bool>,
    /// Per-node restart generation; timers are tagged with it when set and
    /// dropped as stale when it moved on (see [`QueuedKind::TimerFire`]).
    node_generation: Vec<u32>,
    /// Per-link administrative state; transmits on a downed link drop.
    link_state_up: Vec<bool>,
    /// Ingress bound per node (`None` = unbounded, the historical
    /// behaviour); see [`SimBuilder::queue_capacity`].
    queue_capacity: Option<usize>,
    /// Scheduled-but-undelivered arrivals per receiving node — the
    /// ingress queue depth the bound and the backpressure signal read.
    in_flight: Vec<usize>,
    /// Deliveries processed per node — the progress measure watchdogs
    /// compare against.
    progress: Vec<u64>,
    /// Queued events that are not watchdog checks.  Watchdogs re-arm only
    /// while this is nonzero, so the pump terminates once real work
    /// drains.
    real_pending: usize,
    /// The action buffer every handler call emits into, recycled empty.
    actions: Vec<Action>,
}

impl Sim {
    /// The topology under simulation.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Run to completion: start handlers fire at time zero in node order,
    /// then events are pumped in `(time, seq)` order until the queue drains
    /// or the event cap is hit.
    pub fn run(mut self) -> EventTrace {
        for i in 0..self.handlers.len() {
            self.dispatch(SimTime::ZERO, NodeId(i), None, |h, ctx| h.on_start(ctx));
        }
        let mut processed = 0usize;
        while let Some(Reverse(event)) = self.queue.pop() {
            if !matches!(event.kind, QueuedKind::WatchdogCheck { .. }) {
                self.real_pending = self.real_pending.saturating_sub(1);
            }
            if processed >= self.max_events {
                self.trace_event(event.time, NodeId(0), KindRef::Drop("event cap hit"));
                break;
            }
            processed += 1;
            match event.kind {
                QueuedKind::Arrival {
                    node,
                    from,
                    packet,
                    latency_ns,
                } => {
                    // The packet left its ingress queue whatever happens
                    // next — a dead receiver still frees the slot.
                    self.in_flight[node.0] = self.in_flight[node.0].saturating_sub(1);
                    if !self.node_alive[node.0] {
                        self.trace_event(event.time, node, KindRef::Drop("node down"));
                        continue;
                    }
                    self.trace.summary.latency.record(latency_ns);
                    self.progress[node.0] += 1;
                    self.trace_event(event.time, node, KindRef::Deliver(packet.as_bytes()));
                    self.dispatch(event.time, node, Some(from), |h, ctx| {
                        h.on_packet(ctx, &packet)
                    });
                }
                QueuedKind::TimerFire {
                    node,
                    token,
                    generation,
                } => {
                    if !self.node_alive[node.0] || generation != self.node_generation[node.0] {
                        // Set before a crash or power-cycle: never delivered
                        // to the restarted handler.
                        self.trace_event(event.time, node, KindRef::Drop("stale timer"));
                        continue;
                    }
                    self.trace_event(event.time, node, KindRef::Timer(token));
                    self.dispatch(event.time, node, None, |h, ctx| h.on_timer(ctx, token));
                }
                QueuedKind::NodeCrash { node } => {
                    if self.node_alive[node.0] {
                        self.node_alive[node.0] = false;
                        self.node_generation[node.0] += 1;
                        self.trace_event(event.time, node, KindRef::Note("node-down".into()));
                    }
                }
                QueuedKind::NodeRestart { node } => {
                    // A restart of a running node is a power-cycle: either
                    // way the state resets and pre-restart timers go stale.
                    self.node_generation[node.0] += 1;
                    self.node_alive[node.0] = true;
                    self.trace_event(event.time, node, KindRef::Note("node-up".into()));
                    self.dispatch(event.time, node, None, |h, ctx| h.on_restart(ctx));
                }
                QueuedKind::LinkDown { link } => {
                    if self.link_state_up[link.0] {
                        self.link_state_up[link.0] = false;
                        let (at, note) = self.link_note(link, "link-down");
                        self.trace_event(event.time, at, KindRef::Note(note.into()));
                    }
                }
                QueuedKind::LinkUp { link } => {
                    if !self.link_state_up[link.0] {
                        self.link_state_up[link.0] = true;
                        let (at, note) = self.link_note(link, "link-up");
                        self.trace_event(event.time, at, KindRef::Note(note.into()));
                    }
                }
                QueuedKind::WatchdogCheck {
                    node,
                    budget_ns,
                    seen,
                } => {
                    let now = self.progress[node.0];
                    if now == seen {
                        self.trace_event(event.time, node, KindRef::Note("stalled".into()));
                        self.trace.summary.watchdog_trips += 1;
                    }
                    if self.real_pending > 0 {
                        self.push_event(
                            event.time.offset(budget_ns.max(1)),
                            QueuedKind::WatchdogCheck {
                                node,
                                budget_ns,
                                seen: now,
                            },
                        );
                    }
                }
            }
        }
        self.trace
    }

    /// Run one callback of `node`'s handler, if one is bound, over a
    /// context that emits into the recycled action buffer, then apply the
    /// emitted actions in order.
    fn dispatch(
        &mut self,
        now: SimTime,
        node: NodeId,
        arrival_from: Option<NodeId>,
        call: impl FnOnce(&mut dyn Node, &mut Ctx<'_>),
    ) {
        let Some(mut handler) = self.handlers[node.0].take() else {
            return;
        };
        let mut ctx = Ctx {
            now,
            node,
            arrival_from,
            topology: &self.topology,
            routes: &self.routes,
            in_flight: &self.in_flight,
            queue_capacity: self.queue_capacity,
            actions: std::mem::take(&mut self.actions),
        };
        call(handler.as_mut(), &mut ctx);
        let mut actions = ctx.actions;
        self.apply_actions(now, node, &mut actions);
        self.actions = actions;
        self.handlers[node.0] = Some(handler);
    }

    /// The `(trace node, note text)` for a link lifecycle change: traced at
    /// the link's first endpoint, naming both ends so fault context reads
    /// inline in rendered traces and `diff_traces` output.
    fn link_note(&self, link: LinkId, what: &str) -> (NodeId, String) {
        let spec = &self.topology.links[link.0];
        let name = |n: NodeId| {
            self.topology
                .nodes
                .get(n.0)
                .map(|s| s.name.as_str())
                .unwrap_or("?")
        };
        (spec.a, format!("{what} {}-{}", name(spec.a), name(spec.b)))
    }

    fn trace_event(&mut self, time: SimTime, node: NodeId, kind: KindRef<'_>) {
        let node_name = self
            .topology
            .nodes
            .get(node.0)
            .map_or("", |n| n.name.as_str());
        self.trace.record(time, node, node_name, kind);
    }

    /// Apply a handler's actions in emission order, leaving the buffer
    /// empty (its capacity kept for the next handler call).
    fn apply_actions(&mut self, now: SimTime, node: NodeId, actions: &mut Vec<Action>) {
        for action in actions.drain(..) {
            match action {
                Action::Originate(packet) => {
                    self.trace_event(now, node, KindRef::Originate(packet.as_bytes()));
                    self.route_packet(now, node, packet);
                }
                Action::Forward(packet) => {
                    self.trace_event(now, node, KindRef::Forward(packet.as_bytes()));
                    self.route_packet(now, node, packet);
                }
                Action::Timer { delay_ns, token } => {
                    let generation = self.node_generation[node.0];
                    self.push_event(
                        now.offset(delay_ns),
                        QueuedKind::TimerFire {
                            node,
                            token,
                            generation,
                        },
                    );
                }
                Action::Note(text) => self.trace_event(now, node, KindRef::Note(text.into())),
                Action::DeliverLocal => self.trace_event(now, node, KindRef::DeliverLocal),
                Action::Drop(reason) => self.trace_event(now, node, KindRef::Drop(reason)),
            }
        }
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Enqueue a future event, keeping the non-watchdog pending count
    /// (the watchdog termination condition) in sync.
    fn push_event(&mut self, time: SimTime, kind: QueuedKind) {
        if !matches!(kind, QueuedKind::WatchdogCheck { .. }) {
            self.real_pending += 1;
        }
        let seq = self.bump_seq();
        self.queue.push(Reverse(QueuedEvent { time, seq, kind }));
    }

    /// Route one outgoing packet from `node` by destination address:
    /// multicast fans out over every incident link; unicast follows the
    /// static next-hop table.
    fn route_packet(&mut self, now: SimTime, node: NodeId, packet: PacketBuf) {
        // The IPv4 destination address is bytes 16..20 of the header.
        let Some(&[a, b, c, d]) = packet.as_bytes().get(16..20) else {
            self.trace_event(now, node, KindRef::Drop("truncated header"));
            return;
        };
        let dst = u32::from_be_bytes([a, b, c, d]);
        if is_multicast(dst) {
            for i in 0..self.routes.links_of(node).len() {
                let link = self.routes.links_of(node)[i];
                self.transmit(now, node, link, packet.clone());
            }
            return;
        }
        if self
            .topology
            .nodes
            .get(node.0)
            .is_some_and(|n| n.addrs.iter().any(|(a, _)| *a == dst))
        {
            // Addressed to the sender itself: terminate without a wire trip.
            self.trace_event(now, node, KindRef::DeliverLocal);
            return;
        }
        let Some(owner) = self.routes.owner_of(dst) else {
            self.trace_event(now, node, KindRef::Drop("no route to destination"));
            return;
        };
        let Some(link) = self.routes.link_towards(node, owner) else {
            self.trace_event(now, node, KindRef::Drop("destination unreachable"));
            return;
        };
        self.transmit(now, node, link, packet);
    }

    /// Put one packet on a link.  An unmodelled link schedules the
    /// packet's arrival directly; a modelled one schedules whatever its
    /// [`LinkModel`] returns (loss, duplication, corruption, jitter).
    fn transmit(&mut self, now: SimTime, from: NodeId, link: LinkId, packet: PacketBuf) {
        let Some(to) = self.topology.links[link.0].peer_of(from) else {
            return;
        };
        if !self.link_state_up[link.0] {
            // An administratively downed link never carries the packet;
            // the link model is not consulted, so its transmit counter
            // only ever counts packets that reached the wire.
            self.trace_event(now, from, KindRef::Drop("link down"));
            return;
        }
        let Some(model) = self.link_models[link.0].as_mut() else {
            self.schedule_arrival(now, from, to, link, packet, 0);
            return;
        };
        let deliveries = model.transmit(&packet);
        if deliveries.is_empty() {
            self.trace_event(now, from, KindRef::Drop("lost on link"));
            return;
        }
        for d in deliveries {
            self.schedule_arrival(now, from, to, link, d.packet, d.extra_delay_ns);
        }
    }

    /// Schedule `packet`'s arrival at `to` after the link's propagation
    /// and serialization delay plus `extra_delay_ns`, unless `to`'s
    /// ingress queue is full.
    fn schedule_arrival(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        link: LinkId,
        packet: PacketBuf,
        extra_delay_ns: u64,
    ) {
        if let Some(cap) = self.queue_capacity {
            if self.in_flight[to.0] >= cap {
                // Drop-tail shedding: the receiver's ingress queue is
                // full, so the packet never makes the wire.  Traced at
                // the receiving node so per-node shed counters point
                // at the overloaded queue, not the sender.
                self.trace_event(now, to, KindRef::Drop("shed"));
                return;
            }
        }
        let spec = &self.topology.links[link.0];
        let latency = spec
            .delay_ns
            .saturating_add(spec.serialization_ns(packet.len()))
            .saturating_add(extra_delay_ns);
        self.in_flight[to.0] += 1;
        self.push_event(
            now.offset(latency),
            QueuedKind::Arrival {
                node: to,
                from,
                packet,
                latency_ns: latency,
            },
        );
    }
}

/// True for IPv4 multicast destinations (224.0.0.0/4).
pub fn is_multicast(addr: u32) -> bool {
    (0xE000_0000..0xF000_0000).contains(&addr)
}

// ---------------------------------------------------------------------------
// The router as an event handler
// ---------------------------------------------------------------------------

/// The Appendix-A router as an event handler: it infers the interface a
/// packet arrived on, lets [`Router::process`] decide with the kernel's
/// routing table as the transit test, and applies the action.
pub struct RouterNode {
    router: Router,
    responder: Box<dyn IcmpResponder>,
}

impl RouterNode {
    /// A node deciding with `router` and answering ICMP events through
    /// `responder`.
    pub fn new(router: Router, responder: Box<dyn IcmpResponder>) -> RouterNode {
        RouterNode { router, responder }
    }

    /// Infer the ingress interface: the interface whose subnet contains an
    /// address of the neighbour the packet arrived from, falling back to
    /// the interface containing the packet source, then to 0.
    fn ingress_iface(&self, ctx: &Ctx<'_>, src: u32) -> usize {
        let interfaces = &self.router.interfaces;
        if let Some(from) = ctx.arrival_from() {
            for (addr, _) in ctx.node_addrs(from) {
                if let Some(i) = interfaces.iter().position(|iface| iface.contains(*addr)) {
                    return i;
                }
            }
        }
        interfaces
            .iter()
            .position(|iface| iface.contains(src))
            .unwrap_or(0)
    }
}

impl Node for RouterNode {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: &PacketBuf) {
        let ingress = self.ingress_iface(ctx, ipv4::source_address(packet));
        let action = self.router.process(
            packet,
            ingress,
            |dst| ctx.has_route(dst),
            self.responder.as_mut(),
        );
        match action {
            RouterAction::IcmpReply(reply) => ctx.send(reply),
            RouterAction::Forwarded(fwd) => ctx.forward(fwd),
            RouterAction::DeliveredLocally => ctx.deliver_local(),
            RouterAction::Dropped(reason) => ctx.drop_packet(reason),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::icmp;
    use crate::net::ReferenceResponder;

    /// A host that notes every packet it receives.
    struct Probe;
    impl Node for Probe {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: &PacketBuf) {
            let proto = packet.get_field(ipv4::FIELDS, "protocol").unwrap_or(0);
            ctx.note(format!("got proto={proto}"));
        }
    }

    /// A host that sends one echo request at start.
    struct Pinger {
        src: u32,
        dst: u32,
    }
    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let echo = icmp::build_echo(false, 7, 1, b"kernel");
            ctx.send(ipv4::build_packet(
                self.src,
                self.dst,
                ipv4::PROTO_ICMP,
                64,
                echo.as_bytes(),
            ));
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: &PacketBuf) {
            let outcome = crate::tools::ping::validate_reply(packet, self.src, 7, 1, b"kernel");
            ctx.note(format!("outcome={outcome:?}"));
        }
    }

    #[test]
    fn echo_to_router_comes_back_over_the_kernel() {
        let topo = Topology::appendix_a();
        let client = topo.addr_of(topo.node_named("client").unwrap());
        let router_addr = topo.addr_of(topo.node_named("router").unwrap());
        let mut sim = SimBuilder::new(topo);
        sim.bind_named(
            "router",
            Box::new(RouterNode::new(
                Router::appendix_a(),
                Box::new(ReferenceResponder),
            )),
        )
        .unwrap();
        sim.bind_named(
            "client",
            Box::new(Pinger {
                src: client,
                dst: router_addr,
            }),
        )
        .unwrap();
        let trace = sim.build().run();
        let notes = trace.notes();
        assert_eq!(notes.len(), 1, "{}", trace.render());
        assert!(notes[0].1.contains("Reply"), "{}", trace.render());
        // Two wire trips at 1ms each.
        assert_eq!(trace.duration(), SimTime::from_millis(2));
    }

    #[test]
    fn transit_forwarding_crosses_a_line_of_routers() {
        let topo = Topology::line(3);
        let client = topo.addr_of(topo.node_named("client").unwrap());
        let server = topo.addr_of(topo.node_named("server").unwrap());
        let mut sim = SimBuilder::new(topo.clone());
        for r in topo.routers() {
            let cfg = topo.router_config(r);
            sim.bind(
                r,
                Box::new(RouterNode::new(cfg, Box::new(ReferenceResponder))),
            );
        }
        sim.bind_named(
            "client",
            Box::new(Pinger {
                src: client,
                dst: server,
            }),
        )
        .unwrap();
        sim.bind_named("server", Box::new(Probe)).unwrap();
        let trace = sim.build().run();
        let notes = trace.notes();
        assert_eq!(notes.len(), 1, "{}", trace.render());
        assert_eq!(notes[0], ("server", "got proto=1"));
        // TTL decremented once per router.
        let delivered = trace.delivered_to("server");
        assert_eq!(delivered.len(), 1);
        let p = PacketBuf::from_bytes(delivered[0].clone());
        assert_eq!(p.get_field(ipv4::FIELDS, "ttl").unwrap(), 61);
        assert!(ipv4::checksum_ok(&p));
    }

    #[test]
    fn every_interface_address_belongs_to_one_node() {
        let topologies = Topology::library()
            .into_iter()
            .chain((1..=8).map(Topology::line))
            .chain((2..=8).map(Topology::star))
            .chain((3..=8).map(Topology::ring));
        for topo in topologies {
            let mut owners: HashMap<u32, &str> = HashMap::new();
            for node in &topo.nodes {
                for (addr, _) in &node.addrs {
                    if let Some(first) = owners.insert(*addr, &node.name) {
                        panic!(
                            "{}: {} is on {first} and on {}",
                            topo.name,
                            ipv4::addr_to_string(*addr),
                            node.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_node_names_report_available_nodes() {
        let topo = Topology::appendix_a();
        let err = topo.node_named("nope").unwrap_err();
        match &err {
            TopologyError::NoSuchNode { name, available } => {
                assert_eq!(name, "nope");
                assert!(available.contains(&"router".to_string()));
                assert!(available.contains(&"client".to_string()));
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("client"), "{err}");
        let mut sim = SimBuilder::new(topo);
        assert!(sim.bind_named("nope", Box::new(Probe)).is_err());
    }

    #[test]
    fn structural_accessors_diagnose_missing_nodes() {
        let empty = Topology::named("empty");
        assert_eq!(
            empty.host_at(0),
            Err(TopologyError::NotEnoughHosts {
                needed: 1,
                available: 0
            })
        );
        assert!(matches!(
            empty.last_host(),
            Err(TopologyError::NotEnoughHosts { .. })
        ));
        assert!(matches!(
            empty.router_at(0),
            Err(TopologyError::NotEnoughRouters { .. })
        ));
        let appendix = Topology::appendix_a();
        assert_eq!(appendix.host_at(0).unwrap(), appendix.hosts()[0]);
        assert_eq!(
            appendix.last_host().unwrap(),
            *appendix.hosts().last().unwrap()
        );
        assert_eq!(appendix.router_at(0).unwrap(), appendix.routers()[0]);
        assert!(matches!(
            appendix.host_at(99),
            Err(TopologyError::NotEnoughHosts {
                needed: 100,
                available: 4
            })
        ));
    }

    #[test]
    fn ties_break_by_schedule_order() {
        // Two packets scheduled at the same instant arrive in schedule order.
        let mut topo = Topology::named("pair");
        let a = topo.host("a", ipv4::addr(10, 0, 1, 1), 24);
        let b = topo.host("b", ipv4::addr(10, 0, 1, 2), 24);
        topo.link(a, b, 1_000);
        struct TwoSends;
        impl Node for TwoSends {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for seq in [1u16, 2] {
                    let echo = icmp::build_echo(false, 1, seq, b"x");
                    ctx.send(ipv4::build_packet(
                        ipv4::addr(10, 0, 1, 1),
                        ipv4::addr(10, 0, 1, 2),
                        ipv4::PROTO_ICMP,
                        64,
                        echo.as_bytes(),
                    ));
                }
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: &PacketBuf) {}
        }
        let mut sim = SimBuilder::new(topo);
        sim.bind(a, Box::new(TwoSends));
        let trace = sim.build().run();
        let delivered = trace.delivered_to("b");
        assert_eq!(delivered.len(), 2);
        let seq_of = |bytes: &[u8]| {
            let p = PacketBuf::from_bytes(
                ipv4::payload(&PacketBuf::from_bytes(bytes.to_vec())).to_vec(),
            );
            p.get_field(icmp::FIELDS, "sequence_number").unwrap()
        };
        assert_eq!(seq_of(&delivered[0]), 1);
        assert_eq!(seq_of(&delivered[1]), 2);
    }

    #[test]
    fn timers_fire_at_their_virtual_time() {
        let mut topo = Topology::named("solo");
        let a = topo.host("a", ipv4::addr(10, 0, 1, 1), 24);
        struct TimerNode;
        impl Node for TimerNode {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(5_000, 42);
                ctx.set_timer(1_000, 7);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: &PacketBuf) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                ctx.note(format!("fired {token}"));
            }
        }
        let mut sim = SimBuilder::new(topo);
        sim.bind(a, Box::new(TimerNode));
        let trace = sim.build().run();
        let notes: Vec<&str> = trace.notes().into_iter().map(|(_, t)| t).collect();
        assert_eq!(notes, vec!["fired 7", "fired 42"]);
        assert_eq!(trace.duration(), SimTime(5_000));
    }

    #[test]
    fn routes_cross_every_library_topology() {
        for topo in Topology::library() {
            let routes = Routes::compute(&topo);
            let hosts = topo.hosts();
            for &h1 in &hosts {
                for &h2 in &hosts {
                    if h1 != h2 {
                        assert!(
                            routes.link_towards(h1, h2).is_some(),
                            "{}: no route {:?} -> {:?}",
                            topo.name,
                            topo.nodes[h1.0].name,
                            topo.nodes[h2.0].name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bandwidth_adds_serialization_delay() {
        let mut topo = Topology::named("slow");
        let a = topo.host("a", ipv4::addr(10, 0, 1, 1), 24);
        let b = topo.host("b", ipv4::addr(10, 0, 1, 2), 24);
        // 8 Mbit/s: 1 byte costs 1000ns on the wire.
        topo.link_with(a, b, 1_000, Some(8_000_000));
        struct OneSend;
        impl Node for OneSend {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let echo = icmp::build_echo(false, 1, 1, &[0u8; 12]);
                ctx.send(ipv4::build_packet(
                    ipv4::addr(10, 0, 1, 1),
                    ipv4::addr(10, 0, 1, 2),
                    ipv4::PROTO_ICMP,
                    64,
                    echo.as_bytes(),
                ));
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: &PacketBuf) {}
        }
        let mut sim = SimBuilder::new(topo);
        sim.bind(a, Box::new(OneSend));
        let trace = sim.build().run();
        // IP(20) + ICMP(8) + 12 payload = 40 bytes -> 40_000ns + 1_000ns.
        assert_eq!(trace.duration(), SimTime(41_000));
    }

    /// A node that arms one timer at (re)start and notes every fire and
    /// every packet — the minimal observer for lifecycle semantics.
    struct Rearmer {
        delay_ns: u64,
        boots: u32,
    }
    impl Node for Rearmer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.boots += 1;
            ctx.note(format!("boot {}", self.boots));
            ctx.set_timer(self.delay_ns, u64::from(self.boots));
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _p: &PacketBuf) {
            ctx.note("packet");
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            ctx.note(format!("fired {token}"));
        }
    }

    #[test]
    fn stale_timers_never_reach_a_restarted_node() {
        // Timer armed at t=0 for t=10_000; crash at t=5_000, restart at
        // t=7_000.  The pre-crash timer must be dropped as stale, while the
        // timer re-armed by on_restart (for t=17_000) fires normally.
        let mut topo = Topology::named("solo");
        let a = topo.host("a", ipv4::addr(10, 0, 1, 1), 24);
        let mut sim = SimBuilder::new(topo);
        sim.bind(
            a,
            Box::new(Rearmer {
                delay_ns: 10_000,
                boots: 0,
            }),
        );
        sim.crash_at(a, SimTime(5_000));
        sim.restart_at(a, SimTime(7_000));
        let trace = sim.build().run();
        let notes: Vec<&str> = trace.notes().into_iter().map(|(_, t)| t).collect();
        assert_eq!(
            notes,
            vec!["boot 1", "node-down", "node-up", "boot 2", "fired 2"],
            "{}",
            trace.render()
        );
        let rendered = trace.render();
        assert!(rendered.contains("drop stale timer"), "{rendered}");
        assert!(
            !rendered.contains("timer 1"),
            "the pre-crash timer must not be delivered:\n{rendered}"
        );
        assert_eq!(trace.duration(), SimTime(17_000));
    }

    #[test]
    fn crashed_nodes_drop_arrivals_until_restarted() {
        let mut topo = Topology::named("pair");
        let a = topo.host("a", ipv4::addr(10, 0, 1, 1), 24);
        let b = topo.host("b", ipv4::addr(10, 0, 1, 2), 24);
        topo.link(a, b, 1_000);
        struct SendAt {
            delays: Vec<u64>,
        }
        impl Node for SendAt {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for (i, d) in self.delays.iter().enumerate() {
                    ctx.set_timer(*d, i as u64);
                }
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: &PacketBuf) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                let echo = icmp::build_echo(false, 9, token as u16, b"x");
                ctx.send(ipv4::build_packet(
                    ipv4::addr(10, 0, 1, 1),
                    ipv4::addr(10, 0, 1, 2),
                    ipv4::PROTO_ICMP,
                    64,
                    echo.as_bytes(),
                ));
            }
        }
        let mut sim = SimBuilder::new(topo);
        sim.bind(
            a,
            Box::new(SendAt {
                delays: vec![2_000, 20_000],
            }),
        );
        sim.bind(
            b,
            Box::new(Rearmer {
                delay_ns: 1_000_000,
                boots: 0,
            }),
        );
        // b is down when the first packet lands (t=3_000) and back up well
        // before the second (t=21_000).
        sim.crash_at(b, SimTime(2_500));
        sim.restart_at(b, SimTime(10_000));
        let trace = sim.build().run();
        let rendered = trace.render();
        assert!(rendered.contains("drop node down"), "{rendered}");
        assert_eq!(trace.delivered_to("b").len(), 1, "{rendered}");
        let b_notes: Vec<(&str, &str)> = trace
            .notes()
            .into_iter()
            .filter(|(n, _)| *n == "b")
            .collect();
        assert!(b_notes.contains(&("b", "packet")), "{rendered}");
    }

    #[test]
    fn link_flaps_gate_transmissions_and_trace_inline() {
        let mut topo = Topology::named("pair");
        let a = topo.host("a", ipv4::addr(10, 0, 1, 1), 24);
        let b = topo.host("b", ipv4::addr(10, 0, 1, 2), 24);
        let link = topo.link(a, b, 1_000);
        struct PeriodicSender {
            sent: u16,
        }
        impl Node for PeriodicSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(1_000, 0);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: &PacketBuf) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
                self.sent += 1;
                let echo = icmp::build_echo(false, 3, self.sent, b"x");
                ctx.send(ipv4::build_packet(
                    ipv4::addr(10, 0, 1, 1),
                    ipv4::addr(10, 0, 1, 2),
                    ipv4::PROTO_ICMP,
                    64,
                    echo.as_bytes(),
                ));
                if self.sent < 4 {
                    ctx.set_timer(2_000, 0);
                }
            }
        }
        let mut sim = SimBuilder::new(topo);
        sim.bind(a, Box::new(PeriodicSender { sent: 0 }));
        // Down for the window covering sends #2 and #3 (t=3_000, 5_000).
        sim.link_down_at(link, SimTime(2_000));
        sim.link_up_at(link, SimTime(6_000));
        let trace = sim.build().run();
        let rendered = trace.render();
        assert_eq!(trace.delivered_to("b").len(), 2, "{rendered}");
        assert_eq!(
            rendered.matches("drop link down").count(),
            2,
            "two transmits hit the downed link:\n{rendered}"
        );
        assert!(rendered.contains("note link-down a-b"), "{rendered}");
        assert!(rendered.contains("note link-up a-b"), "{rendered}");
    }

    #[test]
    fn restart_of_a_running_node_is_a_power_cycle() {
        let mut topo = Topology::named("solo");
        let a = topo.host("a", ipv4::addr(10, 0, 1, 1), 24);
        let mut sim = SimBuilder::new(topo);
        sim.bind(
            a,
            Box::new(Rearmer {
                delay_ns: 10_000,
                boots: 0,
            }),
        );
        // No crash: restarting a live node still resets state and
        // invalidates the pending timer.
        sim.restart_at(a, SimTime(4_000));
        let trace = sim.build().run();
        let notes: Vec<&str> = trace.notes().into_iter().map(|(_, t)| t).collect();
        assert_eq!(
            notes,
            vec!["boot 1", "node-up", "boot 2", "fired 2"],
            "{}",
            trace.render()
        );
        assert!(trace.render().contains("drop stale timer"));
    }

    #[test]
    fn lifecycle_free_runs_are_byte_identical_to_before() {
        // The lifecycle machinery must be invisible when unused: two runs
        // of a plain scenario, one built through a builder that never
        // schedules lifecycle events, render identically.
        let build = || {
            let topo = Topology::appendix_a();
            let client = topo.addr_of(topo.node_named("client").unwrap());
            let router_addr = topo.addr_of(topo.node_named("router").unwrap());
            let mut sim = SimBuilder::new(topo);
            sim.bind_named(
                "router",
                Box::new(RouterNode::new(
                    Router::appendix_a(),
                    Box::new(ReferenceResponder),
                )),
            )
            .unwrap();
            sim.bind_named(
                "client",
                Box::new(Pinger {
                    src: client,
                    dst: router_addr,
                }),
            )
            .unwrap();
            sim.build().run()
        };
        assert_eq!(build().render(), build().render());
    }

    #[test]
    fn multicast_fans_out_to_all_neighbours() {
        let topo = Topology::star(4);
        let hub_addr = topo.addr_of(topo.node_named("hub").unwrap());
        struct Caster {
            src: u32,
        }
        impl Node for Caster {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let msg = crate::headers::igmp::build_message(
                    crate::headers::igmp::msg_type::MEMBERSHIP_QUERY,
                    0,
                );
                ctx.send(ipv4::build_packet(
                    self.src,
                    ipv4::addr(224, 0, 0, 1),
                    ipv4::PROTO_IGMP,
                    1,
                    msg.as_bytes(),
                ));
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: &PacketBuf) {}
        }
        let mut sim = SimBuilder::new(topo);
        sim.bind_named("hub", Box::new(Caster { src: hub_addr }))
            .unwrap();
        let trace = sim.build().run();
        assert_eq!(trace.delivered_count(), 4, "{}", trace.render());
        assert_eq!(trace.originated_packets().len(), 1);
    }
}
