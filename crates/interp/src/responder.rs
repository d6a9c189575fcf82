//! Adapters that plug generated programs into the network substrate.
//!
//! One adapter per protocol scenario — [`GeneratedResponder`] (ICMP router
//! events), [`GeneratedIgmpResponder`] (membership queries),
//! [`GeneratedNtpTimeoutPolicy`] / [`GeneratedNtpServer`] (the Table 11
//! client trigger and the server reply), [`GeneratedBfdEndpoint`] (session
//! state management) — plus the [`ResponderRegistry`] that holds the four
//! generated programs side by side and bundles their adapters as the
//! sessions' roles ([`ResponderRegistry::responders`]).  Each adapter of a
//! served role keeps its execution errors and reports the first through
//! the role trait's `take_error`, which soak containment charges.
//!
//! Every adapter is one private `Engine` runner plus its role's own step.
//! The runner seeds the role's state variables on whichever of the two
//! engines runs (slots on the VM, names on the tree-walker), runs the
//! chosen functions and reads the variables back; the adapter picks the
//! functions, fills the start state and interprets what comes back.  The
//! program and its bytecode are lowered once per role and shared by `Arc`:
//! the registry lowers at [`ResponderRegistry::register`], and every adapter
//! it hands out reads the same lowering, keeping only its execution mode,
//! VM scratch and session state of its own.

use crate::env::{self, Env};
use crate::exec::{exec_function, ExecError};
use crate::lower::lower_program;
use crate::vm::{self, CompiledProgram, VmScratch, VmState};
use sage_codegen::ir::{Function, Program};
use sage_netsim::buffer::PacketBuf;
use sage_netsim::headers::{bfd, ntp};
use sage_netsim::net::{IcmpEvent, IcmpResponder};
use sage_netsim::scenario::{
    BfdFactory, IcmpFactory, IgmpFactory, NtpPolicyFactory, NtpServerFactory, Responders,
    ScenarioRegistry,
};
use sage_netsim::tools::bfd_session::BfdEndpoint;
use sage_netsim::tools::igmp::{IgmpResponder as IgmpResponderTrait, SESSION_GROUP};
use sage_netsim::tools::ntp_exchange::{NtpServer, NtpTimeoutPolicy, SERVER_CLOCK, SERVER_STRATUM};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which engine an adapter executes its generated program on.
///
/// Every adapter's program is lowered to bytecode once, at construction or
/// at registration, and runs on the VM by default; the tree-walking
/// interpreter remains available as the semantic oracle (parity suites run
/// both and compare bit-for-bit).  A program outside the lowerable subset
/// silently stays on the tree-walker regardless of the requested mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Run the compiled register bytecode (the per-packet fast path).
    #[default]
    Vm,
    /// Run the tree-walking interpreter (the oracle path).
    TreeWalk,
}

/// What the static framework hands generated code before a run.
struct Start<'a> {
    /// The received IP datagram (empty for roles handed a bare message).
    request: &'a [u8],
    /// The message the generated code edits into its reply.
    reply: PacketBuf,
    /// Source address the reply will carry.
    reply_src: u32,
    /// Destination address of the reply.
    reply_dst: u32,
    /// Discriminators of locally existing BFD sessions.
    sessions: &'a [i64],
}

impl Start<'_> {
    /// The start for a role handed a bare message: it edits `reply` in
    /// place and sees no datagram, addresses or sessions.
    fn message(reply: PacketBuf) -> Start<'static> {
        Start {
            request: &[],
            reply,
            reply_src: 0,
            reply_dst: 0,
            sessions: &[],
        }
    }
}

/// What a run leaves behind besides the state variables.
struct Outcome {
    /// The reply buffer as the generated code left it.
    reply: PacketBuf,
    /// The generated code discarded the packet.
    discarded: bool,
    /// The generated code ceased periodic transmission.
    ceased: bool,
}

/// A role a generated program fills: the protocol whose program fills it,
/// which is also the protocol of the reply buffer's header, and the state
/// variables a run exchanges with the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Icmp,
    Igmp,
    NtpPolicy,
    NtpServer,
    Bfd,
}

impl Role {
    const ALL: [Role; 5] = [
        Role::Icmp,
        Role::Igmp,
        Role::NtpPolicy,
        Role::NtpServer,
        Role::Bfd,
    ];

    fn protocol(self) -> &'static str {
        match self {
            Role::Icmp => "icmp",
            Role::Igmp => "igmp",
            Role::NtpPolicy | Role::NtpServer => "ntp",
            Role::Bfd => "bfd",
        }
    }

    /// The state variables a run seeds and reads back, in the order the
    /// role's adapter fills `values`.
    fn vars(self) -> &'static [&'static str] {
        match self {
            Role::Icmp => &["next_gateway", "error_octet"],
            Role::Igmp => &["reported_group"],
            Role::NtpPolicy => &[
                "peer.timer",
                "peer.threshold",
                "client_mode",
                "symmetric_mode",
                "timeout_procedure_called",
            ],
            Role::NtpServer => &["server_stratum", "server_clock"],
            // The five session variables, then the state-name constants.
            Role::Bfd => &[
                "bfd.SessionState",
                "bfd.RemoteSessionState",
                "bfd.RemoteDiscr",
                "bfd.RemoteDemandMode",
                "periodic_transmission_active",
                "admindown",
                "down",
                "init",
                "up",
            ],
        }
    }
}

/// A generated program lowered for one role: the read-only part of an
/// [`Engine`], shared by every adapter of the role over one program.
#[derive(Debug)]
struct Lowering {
    program: Arc<Program>,
    role: Role,
    /// The bytecode and the slot of each of the role's variables, when the
    /// program lowered.
    compiled: Option<(CompiledProgram, Vec<u16>)>,
}

impl Lowering {
    /// Lower `program` for `role`, the role's variables pre-allocated as
    /// slots.
    fn new(program: Arc<Program>, role: Role) -> Arc<Lowering> {
        let vars = role.vars();
        let compiled = lower_program(&program, role.protocol(), vars)
            .ok()
            .and_then(|c| {
                let slots = vars.iter().map(|v| c.slot(v)).collect::<Option<_>>()?;
                Some((c, slots))
            });
        Arc::new(Lowering {
            program,
            role,
            compiled,
        })
    }
}

/// A generated program on its two engines: the shared [`Lowering`], the
/// requested [`ExecMode`] and this adapter's own VM scratch.
#[derive(Debug, Clone)]
struct Engine {
    lowering: Arc<Lowering>,
    mode: ExecMode,
    scratch: VmScratch,
}

impl Engine {
    fn new(lowering: Arc<Lowering>) -> Engine {
        Engine {
            lowering,
            mode: ExecMode::default(),
            scratch: VmScratch::default(),
        }
    }

    /// Seed `values` into the role's variables, run `functions` in order
    /// until one discards, and read the variables back into `values`.
    fn run(
        &mut self,
        functions: &[usize],
        start: Start<'_>,
        values: &mut [i64],
    ) -> Result<Outcome, ExecError> {
        let lowering = &*self.lowering;
        let vars = lowering.role.vars();
        debug_assert_eq!(values.len(), vars.len());
        if let (ExecMode::Vm, Some((compiled, slots))) = (self.mode, &lowering.compiled) {
            self.scratch.reset(compiled);
            for (&slot, &value) in slots.iter().zip(values.iter()) {
                self.scratch.slots[usize::from(slot)] = value;
            }
            let mut st = VmState::new(
                &mut self.scratch,
                start.request,
                start.reply,
                start.reply_src,
                start.reply_dst,
                start.sessions,
            );
            for &i in functions {
                vm::run(&compiled.functions[i], compiled, &mut st)?;
                if st.discarded {
                    break;
                }
            }
            for (value, &slot) in values.iter_mut().zip(slots) {
                *value = st.scratch.slots[usize::from(slot)];
            }
            return Ok(Outcome {
                reply: st.reply,
                discarded: st.discarded,
                ceased: st.transmission_ceased,
            });
        }
        let mut env = Env::new(
            PacketBuf::from_bytes(start.request.to_vec()),
            start.reply,
            start.reply_src,
            start.reply_dst,
            lowering.role.protocol(),
        );
        for (name, &value) in vars.iter().zip(values.iter()) {
            env.set_var(name, value);
        }
        for discr in start.sessions {
            env.set_var(&format!("session.{discr}"), 1);
        }
        for &i in functions {
            exec_function(&mut env, &lowering.program.functions[i])?;
            if env.discarded {
                break;
            }
        }
        for (value, name) in values.iter_mut().zip(vars) {
            *value = env.var(name);
        }
        Ok(Outcome {
            reply: env.reply,
            discarded: env.discarded,
            ceased: env.transmission_ceased,
        })
    }
}

/// The reply a run produced, unless the generated code discarded the
/// packet; an execution error is recorded and yields no reply.
fn reply_of(run: Result<Outcome, ExecError>, errors: &mut Vec<ExecError>) -> Option<PacketBuf> {
    match run {
        Ok(outcome) if outcome.discarded => None,
        Ok(outcome) => Some(outcome.reply),
        Err(e) => {
            errors.push(e);
            None
        }
    }
}

/// Drain `errors`, reporting the first: a served role's
/// [`IcmpResponder::take_error`] and its counterparts.
fn first_error(errors: &mut Vec<ExecError>) -> Option<String> {
    errors.drain(..).next().map(|e| e.to_string())
}

/// The engine accessors every adapter shares.
macro_rules! engine_accessors {
    ($($adapter:ty),*) => {$(
        impl $adapter {
            /// Select the execution engine; [`ExecMode::Vm`] silently falls
            /// back to the tree-walker when the program did not lower.
            pub fn with_mode(mut self, mode: ExecMode) -> Self {
                self.engine.mode = mode;
                self
            }

            /// The engine packets actually execute on.
            pub fn engine(&self) -> ExecMode {
                match (&self.engine.lowering.compiled, self.engine.mode) {
                    (Some(_), ExecMode::Vm) => ExecMode::Vm,
                    _ => ExecMode::TreeWalk,
                }
            }

            /// The generated program (lowered once, at construction or at
            /// registration).
            pub fn program(&self) -> &Program {
                &self.engine.lowering.program
            }
        }
    )*};
}

engine_accessors!(
    GeneratedResponder,
    GeneratedIgmpResponder,
    GeneratedNtpTimeoutPolicy,
    GeneratedNtpServer,
    GeneratedBfdEndpoint
);

/// The message-name fragments router events correspond to, indexed by
/// [`event_kind`]; function names are derived from section titles.
const EVENT_FRAGMENTS: [&str; 8] = [
    "echo",
    "timestamp",
    "information",
    "destination_unreachable",
    "time_exceeded",
    "parameter_problem",
    "source_quench",
    "redirect",
];

/// Dense index of an event's kind into [`EVENT_FRAGMENTS`] and the
/// per-adapter function-index cache (payload-carrying variants share a
/// kind regardless of payload).
fn event_kind(event: IcmpEvent) -> usize {
    match event {
        IcmpEvent::EchoRequest => 0,
        IcmpEvent::TimestampRequest => 1,
        IcmpEvent::InfoRequest => 2,
        IcmpEvent::DestinationUnreachable => 3,
        IcmpEvent::TimeExceeded => 4,
        IcmpEvent::ParameterProblem(_) => 5,
        IcmpEvent::SourceQuench => 6,
        IcmpEvent::Redirect(_) => 7,
    }
}

/// An [`IcmpResponder`] backed by a SAGE-generated program: the role the
/// generated code plays in the §6.2 end-to-end experiments.
#[derive(Debug, Clone)]
pub struct GeneratedResponder {
    /// Execution errors encountered (should stay empty for a good program).
    pub errors: Vec<ExecError>,
    engine: Engine,
    fn_index: [Option<usize>; 8],
}

/// Resolve the function index for one event fragment: prefer the
/// receiver-side function for the matching message, falling back to the
/// first role-less match.
fn resolve_fragment(functions: &[Function], fragment: &str) -> Option<usize> {
    let mut first = None;
    for (i, f) in functions.iter().enumerate() {
        if f.name.contains(fragment) {
            if f.role == "receiver" {
                return Some(i);
            }
            if first.is_none() {
                first = Some(i);
            }
        }
    }
    first
}

impl GeneratedResponder {
    /// Wrap a generated program, lowering it to bytecode.
    pub fn new(program: Program) -> GeneratedResponder {
        GeneratedResponder::over(Lowering::new(Arc::new(program), Role::Icmp))
    }

    fn over(lowering: Arc<Lowering>) -> GeneratedResponder {
        let functions = &lowering.program.functions;
        let fn_index = EVENT_FRAGMENTS.map(|fragment| resolve_fragment(functions, fragment));
        GeneratedResponder {
            errors: Vec::new(),
            engine: Engine::new(lowering),
            fn_index,
        }
    }
}

impl IcmpResponder for GeneratedResponder {
    fn respond(&mut self, event: IcmpEvent, original: &PacketBuf) -> Option<PacketBuf> {
        let idx = self.fn_index[event_kind(event)]?;
        let (reply, reply_src, reply_dst) = env::reply_scaffold(event, original);
        let start = Start {
            request: original.as_bytes(),
            reply,
            reply_src,
            reply_dst,
            sessions: &[],
        };
        let mut values = match event {
            IcmpEvent::Redirect(gateway) => [i64::from(gateway), 0],
            IcmpEvent::ParameterProblem(pointer) => [0, i64::from(pointer)],
            _ => [0, 0],
        };
        let run = self.engine.run(&[idx], start, &mut values);
        reply_of(run, &mut self.errors)
    }

    fn take_error(&mut self) -> Option<String> {
        first_error(&mut self.errors)
    }
}

/// An IGMP host backed by a SAGE-generated program: answers Host Membership
/// Queries with reports for the group it belongs to (§6.3).
#[derive(Debug, Clone)]
pub struct GeneratedIgmpResponder {
    /// The host group this host reports membership of.
    pub group: u32,
    /// Execution errors encountered (should stay empty for a good program).
    pub errors: Vec<ExecError>,
    engine: Engine,
    fn_idx: Option<usize>,
}

impl GeneratedIgmpResponder {
    /// Wrap a generated program for a host in `group`.
    pub fn new(program: Program, group: u32) -> GeneratedIgmpResponder {
        GeneratedIgmpResponder::over(Lowering::new(Arc::new(program), Role::Igmp), group)
    }

    fn over(lowering: Arc<Lowering>, group: u32) -> GeneratedIgmpResponder {
        let fn_idx = lowering
            .program
            .functions
            .iter()
            .position(|f| f.name.starts_with("igmp"));
        GeneratedIgmpResponder {
            group,
            errors: Vec::new(),
            engine: Engine::new(lowering),
            fn_idx,
        }
    }
}

impl IgmpResponderTrait for GeneratedIgmpResponder {
    fn respond(&mut self, query: &PacketBuf) -> Option<PacketBuf> {
        let idx = self.fn_idx?;
        let mut values = [i64::from(self.group)];
        let run = self
            .engine
            .run(&[idx], Start::message(query.clone()), &mut values);
        reply_of(run, &mut self.errors)
    }

    fn take_error(&mut self) -> Option<String> {
        first_error(&mut self.errors)
    }
}

/// The Table 11 timeout decision made by SAGE-generated code (§6.3).
#[derive(Debug, Clone)]
pub struct GeneratedNtpTimeoutPolicy {
    /// Execution errors encountered (should stay empty for a good program).
    pub errors: Vec<ExecError>,
    engine: Engine,
    fn_idx: Option<usize>,
}

impl GeneratedNtpTimeoutPolicy {
    /// Wrap a generated program.
    pub fn new(program: Program) -> GeneratedNtpTimeoutPolicy {
        GeneratedNtpTimeoutPolicy::over(Lowering::new(Arc::new(program), Role::NtpPolicy))
    }

    fn over(lowering: Arc<Lowering>) -> GeneratedNtpTimeoutPolicy {
        let fn_idx = lowering
            .program
            .functions
            .iter()
            .position(|f| f.name.contains("timeout"));
        GeneratedNtpTimeoutPolicy {
            errors: Vec::new(),
            engine: Engine::new(lowering),
            fn_idx,
        }
    }
}

impl NtpTimeoutPolicy for GeneratedNtpTimeoutPolicy {
    fn timeout_due(&mut self, peer: &ntp::PeerVariables) -> bool {
        let Some(idx) = self.fn_idx else {
            return false;
        };
        let symmetric = matches!(
            peer.mode,
            ntp::mode::SYMMETRIC_ACTIVE | ntp::mode::SYMMETRIC_PASSIVE
        );
        let mut values = [
            peer.timer as i64,
            peer.threshold as i64,
            i64::from(peer.mode == ntp::mode::CLIENT),
            i64::from(symmetric),
            0,
        ];
        match self
            .engine
            .run(&[idx], Start::message(PacketBuf::new()), &mut values)
        {
            Ok(_) => values[4] != 0,
            Err(e) => {
                self.errors.push(e);
                false
            }
        }
    }
}

/// An NTP server backed by a SAGE-generated program: forms the server-mode
/// reply to a client request (§6.3).
#[derive(Debug, Clone)]
pub struct GeneratedNtpServer {
    /// The stratum the server answers with.
    pub stratum: u8,
    /// The server clock, used for the receive and transmit timestamps.
    pub clock: u64,
    /// Execution errors encountered (should stay empty for a good program).
    pub errors: Vec<ExecError>,
    engine: Engine,
    fn_idx: Option<usize>,
}

impl GeneratedNtpServer {
    /// Wrap a generated program for a server at `stratum` with `clock`.
    pub fn new(program: Program, stratum: u8, clock: u64) -> GeneratedNtpServer {
        let lowering = Lowering::new(Arc::new(program), Role::NtpServer);
        GeneratedNtpServer::over(lowering, stratum, clock)
    }

    fn over(lowering: Arc<Lowering>, stratum: u8, clock: u64) -> GeneratedNtpServer {
        let fn_idx = lowering
            .program
            .functions
            .iter()
            .position(|f| f.name.contains("data_format"));
        GeneratedNtpServer {
            stratum,
            clock,
            errors: Vec::new(),
            engine: Engine::new(lowering),
            fn_idx,
        }
    }
}

impl NtpServer for GeneratedNtpServer {
    fn respond(&mut self, request: &PacketBuf) -> Option<PacketBuf> {
        let idx = self.fn_idx?;
        let mut values = [i64::from(self.stratum), self.clock as i64];
        let run = self
            .engine
            .run(&[idx], Start::message(request.clone()), &mut values);
        reply_of(run, &mut self.errors)
    }

    fn take_error(&mut self) -> Option<String> {
        first_error(&mut self.errors)
    }
}

/// One side of a BFD session driven by SAGE-generated state-management code
/// (§6.4): fills the [`BfdEndpoint`] role of the BFD sessions.
#[derive(Debug, Clone)]
pub struct GeneratedBfdEndpoint {
    /// The local session variables, updated by the generated code.
    pub session: bfd::SessionVariables,
    /// Execution errors encountered (should stay empty for a good program).
    pub errors: Vec<ExecError>,
    engine: Engine,
    reception_indices: Vec<usize>,
    reply_buf: PacketBuf,
}

impl GeneratedBfdEndpoint {
    /// A Down session with the given local/remote discriminator pair.
    pub fn new(program: Program, local_discr: u32, remote_discr: u32) -> GeneratedBfdEndpoint {
        let lowering = Lowering::new(Arc::new(program), Role::Bfd);
        GeneratedBfdEndpoint::over(lowering, local_discr, remote_discr)
    }

    fn over(lowering: Arc<Lowering>, local_discr: u32, remote_discr: u32) -> GeneratedBfdEndpoint {
        let reception_indices = lowering
            .program
            .functions
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name.contains("reception"))
            .map(|(i, _)| i)
            .collect();
        GeneratedBfdEndpoint {
            session: bfd::SessionVariables {
                local_discr,
                remote_discr,
                ..bfd::SessionVariables::default()
            },
            errors: Vec::new(),
            engine: Engine::new(lowering),
            reception_indices,
            reply_buf: PacketBuf::new(),
        }
    }
}

impl BfdEndpoint for GeneratedBfdEndpoint {
    fn state(&self) -> bfd::SessionState {
        self.session.session_state
    }

    fn receive(&mut self, packet: &PacketBuf) {
        use bfd::SessionState::{AdminDown, Down, Init, Up};
        let session = &mut self.session;
        let mut values = [
            i64::from(session.session_state.code()),
            i64::from(session.remote_session_state.code()),
            i64::from(session.remote_discr),
            i64::from(session.remote_demand_mode),
            i64::from(session.periodic_transmission_active),
            i64::from(AdminDown.code()),
            i64::from(Down.code()),
            i64::from(Init.code()),
            i64::from(Up.code()),
        ];
        let sessions = [i64::from(session.local_discr)];
        let mut reply = std::mem::take(&mut self.reply_buf);
        reply.copy_from(packet.as_bytes());
        let start = Start {
            sessions: &sessions,
            ..Start::message(reply)
        };
        let outcome = match self.engine.run(&self.reception_indices, start, &mut values) {
            Ok(outcome) => outcome,
            Err(e) => {
                self.errors.push(e);
                return;
            }
        };
        self.reply_buf = outcome.reply;
        if outcome.discarded {
            return;
        }
        let state = |code: i64, old| bfd::SessionState::from_code(code as u8).unwrap_or(old);
        session.session_state = state(values[0], session.session_state);
        session.remote_session_state = state(values[1], session.remote_session_state);
        session.remote_discr = values[2] as u32;
        session.remote_demand_mode = values[3] != 0;
        session.periodic_transmission_active = values[4] != 0 && !outcome.ceased;
    }

    fn control_packet(&self) -> PacketBuf {
        bfd::build_control_packet(
            self.session.session_state,
            self.session.local_discr,
            self.session.remote_discr,
            3,
            self.session.demand_mode,
        )
    }

    fn take_error(&mut self) -> Option<String> {
        first_error(&mut self.errors)
    }
}

/// A protocol-dispatching registry of generated programs: the multi-protocol
/// responder surface.  Register one [`Program`] per protocol (keyed by name,
/// case-insensitive), then take the roles they fill as one [`Responders`]
/// bundle.
///
/// Registration lowers the program once for each role its protocol fills
/// (ICMP, IGMP and BFD one each, NTP the timeout policy and the server);
/// every adapter handed out shares that lowering.
#[derive(Debug, Clone, Default)]
pub struct ResponderRegistry {
    entries: BTreeMap<String, Entry>,
}

/// A registered program and its lowering for each role its protocol fills.
#[derive(Debug, Clone)]
struct Entry {
    program: Arc<Program>,
    lowerings: Vec<Arc<Lowering>>,
}

impl ResponderRegistry {
    /// An empty registry.
    pub fn new() -> ResponderRegistry {
        ResponderRegistry::default()
    }

    /// Register (or replace) the generated program for `protocol`, lowering
    /// it for each role the protocol fills.
    pub fn register(&mut self, protocol: &str, program: Program) {
        let protocol = protocol.to_ascii_lowercase();
        let program = Arc::new(program);
        let lowerings = Role::ALL
            .into_iter()
            .filter(|role| role.protocol() == protocol)
            .map(|role| Lowering::new(Arc::clone(&program), role))
            .collect();
        self.entries.insert(protocol, Entry { program, lowerings });
    }

    /// The program registered for `protocol`, if any.
    pub fn program(&self, protocol: &str) -> Option<&Program> {
        let entry = self.entries.get(&protocol.to_ascii_lowercase())?;
        Some(&entry.program)
    }

    /// The registered protocol names, sorted.
    pub fn protocols(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// The registered program's lowering for `role`, if any.
    fn lowering(&self, role: Role) -> Option<Arc<Lowering>> {
        let entry = self.entries.get(role.protocol())?;
        entry.lowerings.iter().find(|l| l.role == role).cloned()
    }

    /// The session roles filled by the registered programs, every adapter
    /// on `mode`: the generated counterpart of
    /// [`Responders::reference`], from which the `generated` and
    /// `chaos-generated` registries are built.  Protocols without a program
    /// stay `None`.
    pub fn responders(&self, mode: ExecMode) -> Responders {
        let ntp = self
            .lowering(Role::NtpPolicy)
            .zip(self.lowering(Role::NtpServer));
        Responders {
            icmp: self.lowering(Role::Icmp).map(|lowering| -> IcmpFactory {
                Arc::new(move || {
                    Box::new(GeneratedResponder::over(Arc::clone(&lowering)).with_mode(mode))
                })
            }),
            igmp: self.lowering(Role::Igmp).map(|lowering| -> IgmpFactory {
                Arc::new(move || {
                    Box::new(
                        GeneratedIgmpResponder::over(Arc::clone(&lowering), SESSION_GROUP)
                            .with_mode(mode),
                    )
                })
            }),
            ntp: ntp.map(|(policy, server)| -> (NtpPolicyFactory, NtpServerFactory) {
                (
                    Arc::new(move || {
                        Box::new(
                            GeneratedNtpTimeoutPolicy::over(Arc::clone(&policy)).with_mode(mode),
                        )
                    }),
                    Arc::new(move || {
                        Box::new(
                            GeneratedNtpServer::over(
                                Arc::clone(&server),
                                SERVER_STRATUM,
                                SERVER_CLOCK,
                            )
                            .with_mode(mode),
                        )
                    }),
                )
            }),
            bfd: self.lowering(Role::Bfd).map(|lowering| -> BfdFactory {
                Arc::new(move |local, remote| {
                    Box::new(
                        GeneratedBfdEndpoint::over(Arc::clone(&lowering), local, remote)
                            .with_mode(mode),
                    )
                })
            }),
        }
    }
}

/// The kernel scenarios wired to this registry's generated programs: one
/// per registered protocol, named `<prefix>/generated`, each exercising the
/// same session as its `<prefix>/reference` counterpart but with the
/// SAGE-generated code in the pluggable role.  Adapters run on the bytecode
/// VM (the default [`ExecMode`]).
pub fn generated_scenarios(registry: &ResponderRegistry) -> ScenarioRegistry {
    registry.responders(ExecMode::Vm).scenarios("generated")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_codegen::ir::{Expr, Stmt};
    use sage_netsim::headers::{icmp, ipv4};
    use sage_netsim::net::{ReferenceResponder, Router, RouterAction};
    use sage_netsim::tools::ping::{ping_once, ECHO_PAYLOAD};

    /// Select the function for an event: prefer the receiver-side function
    /// for the matching message, falling back to the role-less one.
    fn function_for(responder: &GeneratedResponder, event: IcmpEvent) -> Option<&Function> {
        responder.fn_index[event_kind(event)].map(|i| &responder.program().functions[i])
    }

    /// A hand-assembled program equivalent to what the pipeline generates
    /// for the echo-reply sentence G (used to test the adapter in isolation;
    /// the full pipeline is exercised in `sage-core` and the integration
    /// tests).
    fn echo_reply_program() -> Program {
        Program {
            structs: vec![],
            functions: vec![Function {
                name: "icmp_echo_or_echo_reply_message_receiver".into(),
                role: "receiver".into(),
                body: vec![
                    Stmt::Call {
                        name: "reverse_source_and_destination".into(),
                        args: vec![],
                    },
                    Stmt::Assign {
                        target: Expr::field("icmp", "type"),
                        value: Expr::Num(0),
                    },
                    Stmt::Call {
                        name: "compute_checksum".into(),
                        args: vec![],
                    },
                ],
            }],
        }
    }

    #[test]
    fn generated_echo_reply_interoperates_with_ping() {
        let mut responder = GeneratedResponder::new(echo_reply_program());
        let outcome = ping_once(
            &Router::appendix_a(),
            &mut responder,
            ipv4::addr(10, 0, 1, 100),
            ipv4::addr(10, 0, 1, 1),
            0x99,
            5,
            ECHO_PAYLOAD,
        );
        assert!(outcome.success(), "{outcome:?}");
        assert!(responder.errors.is_empty());
    }

    #[test]
    fn generated_reply_matches_reference_reply() {
        let router = Router::appendix_a();
        let echo = icmp::build_echo(false, 1, 1, b"abc");
        let req = ipv4::build_packet(
            ipv4::addr(10, 0, 1, 100),
            ipv4::addr(10, 0, 1, 1),
            ipv4::PROTO_ICMP,
            64,
            echo.as_bytes(),
        );
        let mut generated = GeneratedResponder::new(echo_reply_program());
        let gen_action = router.process(&req, 0, |_| false, &mut generated);
        let ref_action = router.process(&req, 0, |_| false, &mut ReferenceResponder);
        let (RouterAction::IcmpReply(g), RouterAction::IcmpReply(r)) = (gen_action, ref_action)
        else {
            panic!("expected replies");
        };
        assert_eq!(ipv4::payload(&g), ipv4::payload(&r));
    }

    #[test]
    fn missing_function_yields_no_reply() {
        let mut responder = GeneratedResponder::new(Program::default());
        let echo = icmp::build_echo(false, 1, 1, b"abc");
        let req = ipv4::build_packet(
            ipv4::addr(10, 0, 1, 100),
            ipv4::addr(10, 0, 1, 1),
            ipv4::PROTO_ICMP,
            64,
            echo.as_bytes(),
        );
        assert!(responder.respond(IcmpEvent::EchoRequest, &req).is_none());
    }

    #[test]
    fn every_served_role_reports_its_first_error_once() {
        // One receiver per role that calls a framework function nobody
        // provides: each does not lower, and fails on every packet.
        let failing = |name: &str| Program {
            structs: vec![],
            functions: vec![Function {
                name: name.into(),
                role: "receiver".into(),
                body: vec![Stmt::Call {
                    name: "warp_drive".into(),
                    args: vec![],
                }],
            }],
        };
        let mut reg = ResponderRegistry::new();
        reg.register("icmp", failing("icmp_echo_or_echo_reply_message_receiver"));
        reg.register("igmp", failing("igmp_host_membership_query_receiver"));
        reg.register("ntp", failing("ntp_data_format_receiver"));
        reg.register(
            "bfd",
            failing("bfd_reception_of_bfd_control_packets_receiver"),
        );
        let roles = reg.responders(ExecMode::Vm);
        let echo = icmp::build_echo(false, 1, 1, b"abc");
        let request = ipv4::build_packet(
            ipv4::addr(10, 0, 1, 100),
            ipv4::addr(10, 0, 1, 1),
            ipv4::PROTO_ICMP,
            64,
            echo.as_bytes(),
        );
        let (mut icmp, mut igmp) = (roles.icmp.unwrap()(), roles.igmp.unwrap()());
        let (mut ntp, mut bfd) = (roles.ntp.unwrap().1(), roles.bfd.unwrap()(1, 2));
        for _ in 0..2 {
            assert!(icmp.respond(IcmpEvent::EchoRequest, &request).is_none());
            assert!(igmp.respond(&PacketBuf::new()).is_none());
            assert!(ntp.respond(&PacketBuf::new()).is_none());
            bfd.receive(&PacketBuf::new());
        }
        // Two errors each: the first is reported, the second drained.
        let want = [
            Some("unknown framework function warp_drive".to_string()),
            None,
        ];
        assert_eq!([icmp.take_error(), icmp.take_error()], want, "icmp");
        assert_eq!([igmp.take_error(), igmp.take_error()], want, "igmp");
        assert_eq!([ntp.take_error(), ntp.take_error()], want, "ntp");
        assert_eq!([bfd.take_error(), bfd.take_error()], want, "bfd");
    }

    #[test]
    fn function_selection_prefers_receiver_role() {
        let mut program = echo_reply_program();
        program.functions.push(Function {
            name: "icmp_echo_or_echo_reply_message_sender".into(),
            role: "sender".into(),
            body: vec![],
        });
        let responder = GeneratedResponder::new(program);
        let f = function_for(&responder, IcmpEvent::EchoRequest).unwrap();
        assert_eq!(f.role, "receiver");
    }

    fn bfd_reception_program() -> Program {
        // select_session();
        // if (bfd_hdr->your_discriminator != 0) { if (!session_found) discard; }
        // bfd.RemoteDiscr = bfd_hdr->my_discriminator;
        // bfd.RemoteSessionState = bfd_hdr->state;
        // bfd.RemoteDemandMode = bfd_hdr->demand;
        // if (demand && state==up && remote==up) cease_periodic_transmission();
        let var = |name: &str| Expr::Var(name.into());
        let call = |name: &str| Stmt::Call {
            name: name.into(),
            args: vec![],
        };
        let assign = |name: &str, field: &str| Stmt::Assign {
            target: var(name),
            value: Expr::field("bfd", field),
        };
        Program {
            structs: vec![],
            functions: vec![Function {
                name: "bfd_reception_of_bfd_control_packets_receiver".into(),
                role: "receiver".into(),
                body: vec![
                    call("select_session"),
                    Stmt::If {
                        cond: Expr::binop(
                            "!=",
                            Expr::field("bfd", "your_discriminator"),
                            Expr::Num(0),
                        ),
                        then: vec![Stmt::If {
                            cond: Expr::Not(Box::new(var("session_found"))),
                            then: vec![call("discard_packet")],
                            els: vec![],
                        }],
                        els: vec![],
                    },
                    assign("bfd.RemoteDiscr", "my_discriminator"),
                    assign("bfd.RemoteSessionState", "state"),
                    assign("bfd.RemoteDemandMode", "demand"),
                    Stmt::If {
                        cond: Expr::binop(
                            "&&",
                            Expr::binop(
                                "&&",
                                Expr::binop("==", var("bfd.RemoteDemandMode"), Expr::Num(1)),
                                Expr::binop("==", var("bfd.SessionState"), var("up")),
                            ),
                            Expr::binop("==", var("bfd.RemoteSessionState"), var("up")),
                        ),
                        then: vec![call("cease_periodic_transmission")],
                        els: vec![],
                    },
                ],
            }],
        }
    }

    /// An Up endpoint with local discriminator `local` on `mode`, checked
    /// to really run there.
    fn up_endpoint(local: u32, mode: ExecMode) -> GeneratedBfdEndpoint {
        let mut ep = GeneratedBfdEndpoint::new(bfd_reception_program(), local, 0).with_mode(mode);
        assert_eq!(ep.engine(), mode);
        ep.session.session_state = bfd::SessionState::Up;
        ep
    }

    #[test]
    fn bfd_generated_code_selects_sessions_and_updates_state() {
        for mode in [ExecMode::Vm, ExecMode::TreeWalk] {
            let mut ep = up_endpoint(5, mode);
            // Known session, remote in demand mode and Up: accept + cease.
            ep.receive(&bfd::build_control_packet(
                bfd::SessionState::Up,
                42,
                5,
                3,
                true,
            ));
            assert!(ep.errors.is_empty(), "{mode:?}: {:?}", ep.errors);
            assert_eq!(ep.state(), bfd::SessionState::Up, "{mode:?}");
            assert_eq!(ep.session.remote_discr, 42, "{mode:?}");
            assert_eq!(ep.session.remote_session_state, bfd::SessionState::Up);
            assert!(ep.session.remote_demand_mode, "{mode:?}");
            assert!(!ep.session.periodic_transmission_active, "{mode:?}");
        }
    }

    #[test]
    fn bfd_generated_code_discards_unknown_sessions() {
        for mode in [ExecMode::Vm, ExecMode::TreeWalk] {
            let mut ep = up_endpoint(5, mode);
            let before = ep.session.clone();
            ep.receive(&bfd::build_control_packet(
                bfd::SessionState::Up,
                42,
                999,
                3,
                true,
            ));
            // Discarded: no bookkeeping ran, so nothing was read back.
            assert!(ep.errors.is_empty(), "{mode:?}: {:?}", ep.errors);
            assert_eq!(ep.session, before, "{mode:?}");
        }
    }

    #[test]
    fn registry_dispatches_by_protocol_name() {
        let mut reg = ResponderRegistry::new();
        reg.register("ICMP", echo_reply_program());
        reg.register("bfd", bfd_reception_program());
        assert_eq!(reg.protocols(), vec!["bfd", "icmp"]);
        assert!(reg.program("Icmp").is_some());
        let roles = reg.responders(ExecMode::Vm);
        assert!(roles.icmp.is_some());
        assert!(roles.igmp.is_none(), "no IGMP program registered");
        assert!(roles.ntp.is_none());
        assert!(roles.bfd.is_some());
    }

    #[test]
    fn adapters_share_the_registry_lowering_until_it_is_replaced() {
        let mut reg = ResponderRegistry::new();
        reg.register("icmp", echo_reply_program());
        reg.register("ntp", Program::default());
        let lowering = |reg: &ResponderRegistry| reg.lowering(Role::Icmp).unwrap();
        let first = lowering(&reg);
        assert!(Arc::ptr_eq(&first, &lowering(&reg)));
        // Every adapter a bundle hands out holds that lowering, not a copy.
        let icmp = reg.responders(ExecMode::Vm).icmp.unwrap();
        let held = Arc::strong_count(&first);
        let adapters = [icmp(), icmp()];
        assert_eq!(Arc::strong_count(&first), held + adapters.len());
        // NTP's two roles share the program, each with its own lowering.
        let policy = reg.lowering(Role::NtpPolicy).unwrap();
        let server = reg.lowering(Role::NtpServer).unwrap();
        assert!(Arc::ptr_eq(&policy.program, &server.program));
        assert!(!Arc::ptr_eq(&policy, &server));

        reg.register("ICMP", echo_reply_program());
        let second = lowering(&reg);
        assert!(!Arc::ptr_eq(&first, &second), "re-registering re-lowers");
        assert!(Arc::ptr_eq(&second, &lowering(&reg)));
    }

    /// [`echo_reply_program`] plus a redirect function that writes the
    /// gateway it is handed into the reply.
    fn echo_and_redirect_program() -> Program {
        let mut program = echo_reply_program();
        program.functions.push(Function {
            name: "icmp_redirect_message_sender".into(),
            role: "sender".into(),
            body: vec![
                Stmt::Assign {
                    target: Expr::field("icmp", "type"),
                    value: Expr::Num(5),
                },
                Stmt::Assign {
                    target: Expr::field("icmp", "gateway_internet_address"),
                    value: Expr::Var("next_gateway".into()),
                },
                Stmt::Call {
                    name: "compute_checksum".into(),
                    args: vec![],
                },
            ],
        });
        program
    }

    #[test]
    fn icmp_responders_sharing_a_lowering_answer_as_if_alone() {
        let mut reg = ResponderRegistry::new();
        reg.register("icmp", echo_and_redirect_program());
        // Each responder's script: echo and redirect events about its own
        // host's request, the redirects naming its own gateway.
        let script = |host: u8| {
            let echo = icmp::build_echo(false, u16::from(host), 1, b"abc");
            let request = ipv4::build_packet(
                ipv4::addr(10, 0, 1, host),
                ipv4::addr(10, 0, 1, 1),
                ipv4::PROTO_ICMP,
                64,
                echo.as_bytes(),
            );
            let gateway = ipv4::addr(10, 0, 1, host + 1);
            [
                IcmpEvent::EchoRequest,
                IcmpEvent::Redirect(gateway),
                IcmpEvent::Redirect(gateway),
                IcmpEvent::EchoRequest,
            ]
            .map(|event| (event, request.clone()))
        };
        let scripts = [script(100), script(200)];
        let answer = |r: &mut dyn IcmpResponder, (event, request): &(IcmpEvent, PacketBuf)| {
            r.respond(*event, request)
                .map(|reply| reply.as_bytes().to_vec())
        };
        for mode in [ExecMode::Vm, ExecMode::TreeWalk] {
            let lowering = reg.lowering(Role::Icmp).unwrap();
            assert_eq!(
                GeneratedResponder::over(lowering).with_mode(mode).engine(),
                mode
            );
            let responder = reg.responders(mode).icmp.unwrap();
            let alone: Vec<Vec<_>> = scripts
                .iter()
                .map(|script| {
                    let mut r = responder();
                    script.iter().map(|step| answer(r.as_mut(), step)).collect()
                })
                .collect();
            let (mut first, mut second) = (responder(), responder());
            let (mut first_answers, mut second_answers) = (Vec::new(), Vec::new());
            for (a, b) in scripts[0].iter().zip(&scripts[1]) {
                first_answers.push(answer(first.as_mut(), a));
                second_answers.push(answer(second.as_mut(), b));
            }
            assert_eq!(alone, [first_answers, second_answers], "{mode:?}");
            let redirect = alone[1][1].as_ref().expect("redirect answered");
            assert_eq!(redirect[4..8], [10, 0, 1, 201], "{mode:?}");
            assert_ne!(alone[0], alone[1], "{mode:?}: the scripts must differ");
            assert_eq!((first.take_error(), second.take_error()), (None, None));
        }
    }

    /// [`bfd_reception_program`] plus the Down→Init→Up transitions on the
    /// received state.
    fn bfd_state_program() -> Program {
        let var = |name: &str| Expr::Var(name.into());
        let is = |name: &str, state: &str| Expr::binop("==", var(name), var(state));
        let set = |state: &str| Stmt::Assign {
            target: var("bfd.SessionState"),
            value: var(state),
        };
        let mut program = bfd_reception_program();
        program.functions[0].body.push(Stmt::If {
            cond: is("bfd.SessionState", "down"),
            then: vec![Stmt::If {
                cond: is("bfd.RemoteSessionState", "down"),
                then: vec![set("init")],
                els: vec![Stmt::If {
                    cond: is("bfd.RemoteSessionState", "init"),
                    then: vec![set("up")],
                    els: vec![],
                }],
            }],
            els: vec![Stmt::If {
                cond: Expr::binop(
                    "&&",
                    is("bfd.SessionState", "init"),
                    Expr::binop(
                        "||",
                        is("bfd.RemoteSessionState", "init"),
                        is("bfd.RemoteSessionState", "up"),
                    ),
                ),
                then: vec![set("up")],
                els: vec![],
            }],
        });
        program
    }

    #[test]
    fn bfd_endpoints_from_one_factory_keep_their_own_sessions() {
        use bfd::SessionState::{Down, Init, Up};
        let mut reg = ResponderRegistry::new();
        reg.register("bfd", bfd_state_program());
        // `(state, my discriminator, your discriminator)` of each packet:
        // endpoint 1 is brought up by its peer 2; endpoint 5's packets name
        // sessions it does not have, so it discards every one.
        let bring_up = [(Down, 2, 0), (Init, 2, 1), (Up, 2, 1)];
        let discarded = [(Up, 6, 999), (Init, 6, 998), (Down, 6, 997)];
        let feed = |ep: &mut dyn BfdEndpoint, (state, my, your)| {
            ep.receive(&bfd::build_control_packet(state, my, your, 3, false));
            (ep.state(), ep.control_packet().as_bytes().to_vec())
        };
        for mode in [ExecMode::Vm, ExecMode::TreeWalk] {
            let lowering = reg.lowering(Role::Bfd).unwrap();
            let endpoint = GeneratedBfdEndpoint::over(lowering, 1, 2).with_mode(mode);
            assert_eq!(endpoint.engine(), mode);
            let factory = reg.responders(mode).bfd.expect("bfd program");
            let alone = |local, remote, packets: &[_]| {
                let mut ep = factory(local, remote);
                packets
                    .iter()
                    .map(|&p| feed(ep.as_mut(), p))
                    .collect::<Vec<_>>()
            };
            let up_alone = alone(1, 2, &bring_up);
            let discarding_alone = alone(5, 6, &discarded);
            let states = |steps: &[(bfd::SessionState, Vec<u8>)]| {
                steps.iter().map(|(state, _)| *state).collect::<Vec<_>>()
            };
            assert_eq!(states(&up_alone), [Init, Up, Up], "{mode:?}");
            assert_eq!(states(&discarding_alone), [Down, Down, Down], "{mode:?}");

            let (mut up, mut discarding) = (factory(1, 2), factory(5, 6));
            let (mut up_steps, mut discarding_steps) = (Vec::new(), Vec::new());
            for (&p, &q) in bring_up.iter().zip(&discarded) {
                up_steps.push(feed(up.as_mut(), p));
                discarding_steps.push(feed(discarding.as_mut(), q));
            }
            assert_eq!(up_steps, up_alone, "{mode:?}");
            assert_eq!(discarding_steps, discarding_alone, "{mode:?}");
        }
    }

    #[test]
    fn generated_bfd_endpoint_discards_malformed_packets() {
        let mut ep = GeneratedBfdEndpoint::new(bfd_reception_program(), 9, 7);
        // Unknown session: state must not move, bookkeeping must not run.
        ep.receive(&bfd::build_control_packet(
            bfd::SessionState::Down,
            7,
            999,
            3,
            false,
        ));
        assert_eq!(ep.state(), bfd::SessionState::Down);
        assert_eq!(ep.session.remote_discr, 7);
        assert!(ep.errors.is_empty());
    }

    #[test]
    fn bfd_generated_code_matches_reference_behaviour() {
        // The generated behaviour must agree with the hand-written
        // reference receiver in netsim for the same packets.
        for mode in [ExecMode::Vm, ExecMode::TreeWalk] {
            let mut ep = up_endpoint(7, mode);
            let mut table = bfd::SessionTable::new();
            table.add(bfd::SessionVariables {
                session_state: bfd::SessionState::Up,
                local_discr: 7,
                ..Default::default()
            });
            for (my, your, demand) in [(41u32, 7u32, true), (42, 7, false), (43, 999, false)] {
                let pkt = bfd::build_control_packet(bfd::SessionState::Up, my, your, 3, demand);
                ep.receive(&pkt);
                // The bookkeeping stores the sender's discriminator only
                // when the packet was accepted.
                let accepted = ep.session.remote_discr == my;
                let reference = bfd::receive_control_packet(&mut table, &pkt);
                assert_eq!(
                    accepted,
                    reference == bfd::ReceiveAction::Accepted,
                    "{mode:?} my={my}: reference {reference:?}"
                );
            }
            assert!(ep.errors.is_empty(), "{mode:?}: {:?}", ep.errors);
        }
    }
}
