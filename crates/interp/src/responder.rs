//! Adapters that plug generated programs into the network substrate.
//!
//! One adapter per protocol scenario — [`GeneratedResponder`] (ICMP router
//! events), [`GeneratedIgmpResponder`] (membership queries),
//! [`GeneratedNtpTimeoutPolicy`] / [`GeneratedNtpServer`] (the Table 11
//! client trigger and the server reply), [`GeneratedBfdEndpoint`] (session
//! state management) — plus the [`ResponderRegistry`] that holds the four
//! generated programs side by side and hands out the right adapter per
//! protocol.

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
use sage_netsim::tools::ntp_exchange::{NtpServer, NtpTimeoutPolicy};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which engine an adapter executes its generated program on.
///
/// Every adapter lowers its program to bytecode at construction and runs
/// the VM by default; the tree-walking interpreter remains available as
/// the semantic oracle (parity suites run both and compare bit-for-bit).
/// A program outside the lowerable subset silently stays on the
/// tree-walker regardless of the requested mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Run the compiled register bytecode (the per-packet fast path).
    #[default]
    Vm,
    /// Run the tree-walking interpreter (the oracle path).
    TreeWalk,
}

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
///
/// The program is lowered to bytecode once here; mutating `program` after
/// construction does not recompile (rebuild the adapter instead).
#[derive(Debug, Clone)]
pub struct GeneratedResponder {
    /// The generated program.
    pub program: Program,
    /// Execution errors encountered (should stay empty for a good program).
    pub errors: Vec<ExecError>,
    compiled: Option<CompiledProgram>,
    mode: ExecMode,
    scratch: VmScratch,
    next_gateway_slot: Option<u16>,
    error_octet_slot: Option<u16>,
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
        let compiled = lower_program(&program, "icmp", &["next_gateway", "error_octet"]).ok();
        let (next_gateway_slot, error_octet_slot) = match &compiled {
            Some(c) => (c.slot("next_gateway"), c.slot("error_octet")),
            None => (None, None),
        };
        let mut fn_index = [None; 8];
        for (kind, fragment) in EVENT_FRAGMENTS.iter().enumerate() {
            fn_index[kind] = resolve_fragment(&program.functions, fragment);
        }
        GeneratedResponder {
            program,
            errors: Vec::new(),
            compiled,
            mode: ExecMode::default(),
            scratch: VmScratch::default(),
            next_gateway_slot,
            error_octet_slot,
            fn_index,
        }
    }

    /// Select the execution engine; [`ExecMode::Vm`] silently falls back
    /// to the tree-walker when the program did not lower.
    pub fn with_mode(mut self, mode: ExecMode) -> GeneratedResponder {
        self.mode = mode;
        self
    }

    /// The engine packets actually execute on.
    pub fn engine(&self) -> ExecMode {
        match (&self.compiled, self.mode) {
            (Some(_), ExecMode::Vm) => ExecMode::Vm,
            _ => ExecMode::TreeWalk,
        }
    }

    /// The compiled bytecode, when the program lowered.
    pub fn compiled(&self) -> Option<&CompiledProgram> {
        self.compiled.as_ref()
    }

    fn function_index_for(&self, event: IcmpEvent) -> Option<usize> {
        self.fn_index[event_kind(event)]
    }

    /// Select the function for an event: prefer the receiver-side function
    /// for the matching message, falling back to the role-less one.
    pub fn function_for(&self, event: IcmpEvent) -> Option<&Function> {
        self.function_index_for(event)
            .map(|i| &self.program.functions[i])
    }
}

impl IcmpResponder for GeneratedResponder {
    fn respond(&mut self, event: IcmpEvent, original: &PacketBuf) -> Option<PacketBuf> {
        let idx = self.function_index_for(event)?;
        if self.mode == ExecMode::Vm {
            if let Some(compiled) = &self.compiled {
                let (reply, src, dst) = env::reply_scaffold(event, original);
                self.scratch.reset(compiled);
                match event {
                    IcmpEvent::Redirect(gateway) => {
                        VmState::seed(
                            &mut self.scratch,
                            self.next_gateway_slot,
                            i64::from(gateway),
                        );
                    }
                    IcmpEvent::ParameterProblem(pointer) => {
                        VmState::seed(&mut self.scratch, self.error_octet_slot, i64::from(pointer));
                    }
                    _ => {}
                }
                let mut st =
                    VmState::new(&mut self.scratch, original.as_bytes(), reply, src, dst, &[]);
                return match vm::run(&compiled.functions[idx], compiled, &mut st) {
                    Ok(()) if st.discarded => None,
                    Ok(()) => Some(st.reply),
                    Err(e) => {
                        self.errors.push(e);
                        None
                    }
                };
            }
        }
        let mut env = Env::for_event(event, original);
        if let Err(e) = exec_function(&mut env, &self.program.functions[idx]) {
            self.errors.push(e);
            return None;
        }
        if env.discarded {
            return None;
        }
        Some(env.reply)
    }
}

/// The observable outcome of running generated BFD reception code on one
/// control packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfdOutcome {
    /// True if the generated code discarded the packet.
    pub discarded: bool,
    /// True if the generated code ceased periodic transmission.
    pub ceased_transmission: bool,
    /// Value the generated code stored in `bfd.RemoteDiscr` (0 if untouched).
    pub remote_discr: i64,
    /// Value the generated code stored in `bfd.RemoteDemandMode`.
    pub remote_demand_mode: i64,
}

/// Variable slots a BFD adapter seeds before a VM run and reads back
/// afterwards, resolved once at construction.
#[derive(Debug, Clone, Copy, Default)]
struct BfdSlots {
    session_state: Option<u16>,
    remote_session_state: Option<u16>,
    remote_discr: Option<u16>,
    remote_demand_mode: Option<u16>,
    periodic_active: Option<u16>,
    admindown: Option<u16>,
    down: Option<u16>,
    init: Option<u16>,
    up: Option<u16>,
    up_titlecase: Option<u16>,
    nonzero: Option<u16>,
    session_found: Option<u16>,
}

/// The state-variable names the BFD adapters exchange with generated code;
/// pre-allocated as lowering externals so each gets a slot even when a
/// program never mentions it.
const BFD_EXTERNALS: &[&str] = &[
    "bfd.SessionState",
    "bfd.RemoteSessionState",
    "bfd.RemoteDiscr",
    "bfd.RemoteDemandMode",
    "periodic_transmission_active",
    "admindown",
    "down",
    "init",
    "up",
    "Up",
    "nonzero",
    "session_found",
];

impl BfdSlots {
    fn resolve(compiled: &CompiledProgram) -> BfdSlots {
        BfdSlots {
            session_state: compiled.slot("bfd.SessionState"),
            remote_session_state: compiled.slot("bfd.RemoteSessionState"),
            remote_discr: compiled.slot("bfd.RemoteDiscr"),
            remote_demand_mode: compiled.slot("bfd.RemoteDemandMode"),
            periodic_active: compiled.slot("periodic_transmission_active"),
            admindown: compiled.slot("admindown"),
            down: compiled.slot("down"),
            init: compiled.slot("init"),
            up: compiled.slot("up"),
            up_titlecase: compiled.slot("Up"),
            nonzero: compiled.slot("nonzero"),
            session_found: compiled.slot("session_found"),
        }
    }
}

/// A BFD receiver driven by generated state-management code (§6.4).
///
/// The program is lowered to bytecode once at construction.
#[derive(Debug, Clone)]
pub struct BfdGeneratedReceiver {
    /// The generated program (functions from the "Reception of BFD Control
    /// Packets" section).
    pub program: Program,
    /// Local session state fed to the generated code as variables.
    pub session_state: bfd::SessionState,
    /// Discriminators of sessions that exist locally.
    pub known_sessions: Vec<u32>,
    compiled: Option<CompiledProgram>,
    mode: ExecMode,
    scratch: VmScratch,
    slots: BfdSlots,
    reception_indices: Vec<usize>,
    reply_buf: PacketBuf,
    sessions_scratch: Vec<i64>,
}

impl BfdGeneratedReceiver {
    /// Create a receiver with one known session in the given state.
    pub fn new(
        program: Program,
        session_state: bfd::SessionState,
        known_sessions: Vec<u32>,
    ) -> Self {
        let compiled = lower_program(&program, "bfd", BFD_EXTERNALS).ok();
        let slots = compiled.as_ref().map(BfdSlots::resolve).unwrap_or_default();
        let reception_indices = program
            .functions
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name.contains("reception") || f.name.contains("bfd"))
            .map(|(i, _)| i)
            .collect();
        BfdGeneratedReceiver {
            program,
            session_state,
            known_sessions,
            compiled,
            mode: ExecMode::default(),
            scratch: VmScratch::default(),
            slots,
            reception_indices,
            reply_buf: PacketBuf::new(),
            sessions_scratch: Vec::new(),
        }
    }

    /// Select the execution engine; [`ExecMode::Vm`] silently falls back
    /// to the tree-walker when the program did not lower.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    fn receive_vm(&mut self, packet: &PacketBuf) -> Option<Result<BfdOutcome, ExecError>> {
        if self.mode != ExecMode::Vm {
            return None;
        }
        let compiled = self.compiled.as_ref()?;
        self.scratch.reset(compiled);
        let slots = self.slots;
        let scratch = &mut self.scratch;
        VmState::seed(
            scratch,
            slots.session_state,
            i64::from(self.session_state.code()),
        );
        VmState::seed(
            scratch,
            slots.remote_session_state,
            packet.get_field(bfd::FIELDS, "state").unwrap_or(0) as i64,
        );
        VmState::seed(scratch, slots.periodic_active, 1);
        let up_code = i64::from(bfd::SessionState::Up.code());
        VmState::seed(scratch, slots.up, up_code);
        VmState::seed(scratch, slots.up_titlecase, up_code);
        VmState::seed(
            scratch,
            slots.down,
            i64::from(bfd::SessionState::Down.code()),
        );
        let your_discr = packet
            .get_field(bfd::FIELDS, "your_discriminator")
            .unwrap_or(0) as i64;
        VmState::seed(scratch, slots.nonzero, i64::from(your_discr != 0));
        VmState::seed(
            scratch,
            slots.session_found,
            i64::from(self.known_sessions.contains(&(your_discr as u32))),
        );
        self.sessions_scratch.clear();
        self.sessions_scratch
            .extend(self.known_sessions.iter().map(|&d| i64::from(d)));
        let mut reply = std::mem::take(&mut self.reply_buf);
        reply.copy_from(packet.as_bytes());
        let mut st = VmState::new(scratch, &[], reply, 0, 0, &self.sessions_scratch);
        for &i in &self.reception_indices {
            if let Err(e) = vm::run(&compiled.functions[i], compiled, &mut st) {
                self.reply_buf = st.reply;
                return Some(Err(e));
            }
            if st.discarded {
                break;
            }
        }
        let outcome = BfdOutcome {
            discarded: st.discarded,
            ceased_transmission: st.transmission_ceased
                || st.slot_or(slots.periodic_active, 1) == 0,
            remote_discr: st.slot_or(slots.remote_discr, 0),
            remote_demand_mode: st.slot_or(slots.remote_demand_mode, 0),
        };
        self.reply_buf = st.reply;
        Some(Ok(outcome))
    }

    /// Process a received control packet with the generated code and report
    /// the observable outcome.
    pub fn receive(&mut self, packet: &PacketBuf) -> Result<BfdOutcome, ExecError> {
        if let Some(outcome) = self.receive_vm(packet) {
            return outcome;
        }
        let mut env = Env::for_received_message(packet);
        // Seed the state variables the generated code reads.
        env.set_var("bfd.SessionState", i64::from(self.session_state.code()));
        env.set_var(
            "bfd.RemoteSessionState",
            packet.get_field(bfd::FIELDS, "state").unwrap_or(0) as i64,
        );
        env.set_var("periodic_transmission_active", 1);
        for discr in &self.known_sessions {
            env.set_var(&format!("session.{discr}"), 1);
        }
        let up_code = i64::from(bfd::SessionState::Up.code());
        env.set_var("Up", up_code);
        env.set_var("up", up_code);
        env.set_var("down", i64::from(bfd::SessionState::Down.code()));
        // The "nonzero" symbol used by conditions like "If the Your
        // Discriminator field is nonzero" evaluates against the field value.
        let your_discr = packet
            .get_field(bfd::FIELDS, "your_discriminator")
            .unwrap_or(0) as i64;
        env.set_var("nonzero", i64::from(your_discr != 0));
        env.set_var(
            "session_found",
            i64::from(self.known_sessions.contains(&(your_discr as u32))),
        );

        for &i in &self.reception_indices {
            exec_function(&mut env, &self.program.functions[i])?;
            if env.discarded {
                break;
            }
        }
        Ok(BfdOutcome {
            discarded: env.discarded,
            ceased_transmission: env.transmission_ceased
                || env.var("periodic_transmission_active") == 0,
            remote_discr: env.var("bfd.RemoteDiscr"),
            remote_demand_mode: env.var("bfd.RemoteDemandMode"),
        })
    }
}

/// An IGMP host backed by a SAGE-generated program: answers Host Membership
/// Queries with reports for the group it belongs to (§6.3).
///
/// The program is lowered to bytecode once at construction.
#[derive(Debug, Clone)]
pub struct GeneratedIgmpResponder {
    /// The generated program.
    pub program: Program,
    /// The host group this host reports membership of.
    pub group: u32,
    /// Execution errors encountered (should stay empty for a good program).
    pub errors: Vec<ExecError>,
    compiled: Option<CompiledProgram>,
    mode: ExecMode,
    scratch: VmScratch,
    reported_group_slot: Option<u16>,
    fn_idx: Option<usize>,
}

impl GeneratedIgmpResponder {
    /// Wrap a generated program for a host in `group`.
    pub fn new(program: Program, group: u32) -> GeneratedIgmpResponder {
        let compiled = lower_program(&program, "igmp", &["reported_group"]).ok();
        let reported_group_slot = compiled.as_ref().and_then(|c| c.slot("reported_group"));
        let fn_idx = program
            .functions
            .iter()
            .position(|f| f.name.starts_with("igmp"));
        GeneratedIgmpResponder {
            program,
            group,
            errors: Vec::new(),
            compiled,
            mode: ExecMode::default(),
            scratch: VmScratch::default(),
            reported_group_slot,
            fn_idx,
        }
    }

    /// Select the execution engine; [`ExecMode::Vm`] silently falls back
    /// to the tree-walker when the program did not lower.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }
}

impl IgmpResponderTrait for GeneratedIgmpResponder {
    fn respond(&mut self, query: &PacketBuf) -> Option<PacketBuf> {
        let idx = self.fn_idx?;
        if self.mode == ExecMode::Vm {
            if let Some(compiled) = &self.compiled {
                self.scratch.reset(compiled);
                VmState::seed(
                    &mut self.scratch,
                    self.reported_group_slot,
                    i64::from(self.group),
                );
                let mut st = VmState::new(&mut self.scratch, &[], query.clone(), 0, 0, &[]);
                return match vm::run(&compiled.functions[idx], compiled, &mut st) {
                    Ok(()) if st.discarded => None,
                    Ok(()) => Some(st.reply),
                    Err(e) => {
                        self.errors.push(e);
                        None
                    }
                };
            }
        }
        let mut env = Env::for_received_message(query).with_protocol("igmp");
        env.set_var("reported_group", i64::from(self.group));
        if let Err(e) = exec_function(&mut env, &self.program.functions[idx]) {
            self.errors.push(e);
            return None;
        }
        if env.discarded {
            return None;
        }
        Some(env.reply)
    }
}

/// The Table 11 timeout decision made by SAGE-generated code (§6.3).
///
/// The program is lowered to bytecode once at construction.
#[derive(Debug, Clone)]
pub struct GeneratedNtpTimeoutPolicy {
    /// The generated program.
    pub program: Program,
    /// Execution errors encountered (should stay empty for a good program).
    pub errors: Vec<ExecError>,
    compiled: Option<CompiledProgram>,
    mode: ExecMode,
    scratch: VmScratch,
    timer_slot: Option<u16>,
    threshold_slot: Option<u16>,
    client_mode_slot: Option<u16>,
    symmetric_mode_slot: Option<u16>,
    timeout_called_slot: Option<u16>,
    fn_idx: Option<usize>,
}

impl GeneratedNtpTimeoutPolicy {
    /// Wrap a generated program.
    pub fn new(program: Program) -> GeneratedNtpTimeoutPolicy {
        let compiled = lower_program(
            &program,
            "ntp",
            &[
                "peer.timer",
                "peer.threshold",
                "client_mode",
                "symmetric_mode",
                "timeout_procedure_called",
            ],
        )
        .ok();
        let slot = |name: &str| compiled.as_ref().and_then(|c| c.slot(name));
        let (timer_slot, threshold_slot) = (slot("peer.timer"), slot("peer.threshold"));
        let (client_mode_slot, symmetric_mode_slot) = (slot("client_mode"), slot("symmetric_mode"));
        let timeout_called_slot = slot("timeout_procedure_called");
        let fn_idx = program
            .functions
            .iter()
            .position(|f| f.name.contains("timeout"));
        GeneratedNtpTimeoutPolicy {
            program,
            errors: Vec::new(),
            compiled,
            mode: ExecMode::default(),
            scratch: VmScratch::default(),
            timer_slot,
            threshold_slot,
            client_mode_slot,
            symmetric_mode_slot,
            timeout_called_slot,
            fn_idx,
        }
    }

    /// Select the execution engine; [`ExecMode::Vm`] silently falls back
    /// to the tree-walker when the program did not lower.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }
}

impl NtpTimeoutPolicy for GeneratedNtpTimeoutPolicy {
    fn timeout_due(&mut self, peer: &ntp::PeerVariables) -> bool {
        let Some(idx) = self.fn_idx else {
            return false;
        };
        let client_mode = i64::from(peer.mode == ntp::mode::CLIENT);
        let symmetric_mode = i64::from(matches!(
            peer.mode,
            ntp::mode::SYMMETRIC_ACTIVE | ntp::mode::SYMMETRIC_PASSIVE
        ));
        if self.mode == ExecMode::Vm {
            if let Some(compiled) = &self.compiled {
                self.scratch.reset(compiled);
                let scratch = &mut self.scratch;
                VmState::seed(scratch, self.timer_slot, peer.timer as i64);
                VmState::seed(scratch, self.threshold_slot, peer.threshold as i64);
                VmState::seed(scratch, self.client_mode_slot, client_mode);
                VmState::seed(scratch, self.symmetric_mode_slot, symmetric_mode);
                let mut st = VmState::new(scratch, &[], PacketBuf::new(), 0, 0, &[]);
                return match vm::run(&compiled.functions[idx], compiled, &mut st) {
                    Ok(()) => st.slot_or(self.timeout_called_slot, 0) != 0,
                    Err(e) => {
                        self.errors.push(e);
                        false
                    }
                };
            }
        }
        let mut env = Env::for_received_message(&PacketBuf::new()).with_protocol("ntp");
        env.set_var("peer.timer", peer.timer as i64);
        env.set_var("peer.threshold", peer.threshold as i64);
        env.set_var("client_mode", client_mode);
        env.set_var("symmetric_mode", symmetric_mode);
        if let Err(e) = exec_function(&mut env, &self.program.functions[idx]) {
            self.errors.push(e);
            return false;
        }
        env.var("timeout_procedure_called") != 0
    }
}

/// An NTP server backed by a SAGE-generated program: forms the server-mode
/// reply to a client request (§6.3).
///
/// The program is lowered to bytecode once at construction.
#[derive(Debug, Clone)]
pub struct GeneratedNtpServer {
    /// The generated program.
    pub program: Program,
    /// The stratum the server answers with.
    pub stratum: u8,
    /// The server clock, used for the receive and transmit timestamps.
    pub clock: u64,
    /// Execution errors encountered (should stay empty for a good program).
    pub errors: Vec<ExecError>,
    compiled: Option<CompiledProgram>,
    mode: ExecMode,
    scratch: VmScratch,
    stratum_slot: Option<u16>,
    clock_slot: Option<u16>,
    fn_idx: Option<usize>,
}

impl GeneratedNtpServer {
    /// Wrap a generated program for a server at `stratum` with `clock`.
    pub fn new(program: Program, stratum: u8, clock: u64) -> GeneratedNtpServer {
        let compiled = lower_program(&program, "ntp", &["server_stratum", "server_clock"]).ok();
        let (stratum_slot, clock_slot) = match &compiled {
            Some(c) => (c.slot("server_stratum"), c.slot("server_clock")),
            None => (None, None),
        };
        let fn_idx = program
            .functions
            .iter()
            .position(|f| f.name.contains("data_format"));
        GeneratedNtpServer {
            program,
            stratum,
            clock,
            errors: Vec::new(),
            compiled,
            mode: ExecMode::default(),
            scratch: VmScratch::default(),
            stratum_slot,
            clock_slot,
            fn_idx,
        }
    }

    /// Select the execution engine; [`ExecMode::Vm`] silently falls back
    /// to the tree-walker when the program did not lower.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }
}

impl NtpServer for GeneratedNtpServer {
    fn respond(&mut self, request: &PacketBuf) -> Option<PacketBuf> {
        let idx = self.fn_idx?;
        if self.mode == ExecMode::Vm {
            if let Some(compiled) = &self.compiled {
                self.scratch.reset(compiled);
                VmState::seed(
                    &mut self.scratch,
                    self.stratum_slot,
                    i64::from(self.stratum),
                );
                VmState::seed(&mut self.scratch, self.clock_slot, self.clock as i64);
                let mut st = VmState::new(&mut self.scratch, &[], request.clone(), 0, 0, &[]);
                return match vm::run(&compiled.functions[idx], compiled, &mut st) {
                    Ok(()) if st.discarded => None,
                    Ok(()) => Some(st.reply),
                    Err(e) => {
                        self.errors.push(e);
                        None
                    }
                };
            }
        }
        let mut env = Env::for_received_message(request).with_protocol("ntp");
        env.set_var("server_stratum", i64::from(self.stratum));
        env.set_var("server_clock", self.clock as i64);
        if let Err(e) = exec_function(&mut env, &self.program.functions[idx]) {
            self.errors.push(e);
            return None;
        }
        if env.discarded {
            return None;
        }
        Some(env.reply)
    }
}

/// One side of a BFD session driven by SAGE-generated state-management code
/// (§6.4): fills the [`BfdEndpoint`] role of the BFD sessions.
///
/// The program is lowered to bytecode once at construction.
#[derive(Debug, Clone)]
pub struct GeneratedBfdEndpoint {
    /// The generated program (the "Reception of BFD Control Packets"
    /// functions).
    pub program: Program,
    /// The local session variables, updated by the generated code.
    pub session: bfd::SessionVariables,
    /// Execution errors encountered (should stay empty for a good program).
    pub errors: Vec<ExecError>,
    compiled: Option<CompiledProgram>,
    mode: ExecMode,
    scratch: VmScratch,
    slots: BfdSlots,
    reception_indices: Vec<usize>,
    reply_buf: PacketBuf,
}

impl GeneratedBfdEndpoint {
    /// A Down session with the given local/remote discriminator pair.
    pub fn new(program: Program, local_discr: u32, remote_discr: u32) -> GeneratedBfdEndpoint {
        let compiled = lower_program(&program, "bfd", BFD_EXTERNALS).ok();
        let slots = compiled.as_ref().map(BfdSlots::resolve).unwrap_or_default();
        let reception_indices = program
            .functions
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name.contains("reception"))
            .map(|(i, _)| i)
            .collect();
        GeneratedBfdEndpoint {
            program,
            session: bfd::SessionVariables {
                local_discr,
                remote_discr,
                ..bfd::SessionVariables::default()
            },
            errors: Vec::new(),
            compiled,
            mode: ExecMode::default(),
            scratch: VmScratch::default(),
            slots,
            reception_indices,
            reply_buf: PacketBuf::new(),
        }
    }

    /// Select the execution engine; [`ExecMode::Vm`] silently falls back
    /// to the tree-walker when the program did not lower.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Run the reception functions on the VM; `true` when the VM handled
    /// the packet (the caller then skips the tree-walker).
    fn receive_vm(&mut self, packet: &PacketBuf) -> bool {
        if self.mode != ExecMode::Vm {
            return false;
        }
        let Some(compiled) = self.compiled.as_ref() else {
            return false;
        };
        self.scratch.reset(compiled);
        let slots = self.slots;
        let seeded_state = i64::from(self.session.session_state.code());
        let seeded_remote_state = i64::from(self.session.remote_session_state.code());
        let seeded_periodic = i64::from(self.session.periodic_transmission_active);
        let scratch = &mut self.scratch;
        VmState::seed(scratch, slots.session_state, seeded_state);
        VmState::seed(scratch, slots.remote_session_state, seeded_remote_state);
        VmState::seed(
            scratch,
            slots.remote_discr,
            i64::from(self.session.remote_discr),
        );
        VmState::seed(
            scratch,
            slots.remote_demand_mode,
            i64::from(self.session.remote_demand_mode),
        );
        VmState::seed(scratch, slots.periodic_active, seeded_periodic);
        for (slot, state) in [
            (slots.admindown, bfd::SessionState::AdminDown),
            (slots.down, bfd::SessionState::Down),
            (slots.init, bfd::SessionState::Init),
            (slots.up, bfd::SessionState::Up),
        ] {
            VmState::seed(scratch, slot, i64::from(state.code()));
        }
        let sessions = [i64::from(self.session.local_discr)];
        let mut reply = std::mem::take(&mut self.reply_buf);
        reply.copy_from(packet.as_bytes());
        let mut st = VmState::new(scratch, &[], reply, 0, 0, &sessions);
        for &i in &self.reception_indices {
            if let Err(e) = vm::run(&compiled.functions[i], compiled, &mut st) {
                self.reply_buf = st.reply;
                self.errors.push(e);
                return true;
            }
            if st.discarded {
                self.reply_buf = st.reply;
                return true;
            }
        }
        // Read the updated session variables back out of the slots.
        self.session.session_state =
            bfd::SessionState::from_code(st.slot_or(slots.session_state, seeded_state) as u8)
                .unwrap_or(self.session.session_state);
        self.session.remote_session_state = bfd::SessionState::from_code(
            st.slot_or(slots.remote_session_state, seeded_remote_state) as u8,
        )
        .unwrap_or(self.session.remote_session_state);
        self.session.remote_discr = st.slot_or(slots.remote_discr, 0) as u32;
        self.session.remote_demand_mode = st.slot_or(slots.remote_demand_mode, 0) != 0;
        self.session.periodic_transmission_active =
            st.slot_or(slots.periodic_active, seeded_periodic) != 0 && !st.transmission_ceased;
        self.reply_buf = st.reply;
        true
    }
}

impl BfdEndpoint for GeneratedBfdEndpoint {
    fn state(&self) -> bfd::SessionState {
        self.session.session_state
    }

    fn receive(&mut self, packet: &PacketBuf) {
        if self.receive_vm(packet) {
            return;
        }
        let mut env = Env::for_received_message(packet).with_protocol("bfd");
        // Seed the session variables and state-name constants the generated
        // code reads.
        env.set_var(
            "bfd.SessionState",
            i64::from(self.session.session_state.code()),
        );
        env.set_var(
            "bfd.RemoteSessionState",
            i64::from(self.session.remote_session_state.code()),
        );
        env.set_var("bfd.RemoteDiscr", i64::from(self.session.remote_discr));
        env.set_var(
            "bfd.RemoteDemandMode",
            i64::from(self.session.remote_demand_mode),
        );
        env.set_var(
            "periodic_transmission_active",
            i64::from(self.session.periodic_transmission_active),
        );
        env.set_var(&format!("session.{}", self.session.local_discr), 1);
        for (name, state) in [
            ("admindown", bfd::SessionState::AdminDown),
            ("down", bfd::SessionState::Down),
            ("init", bfd::SessionState::Init),
            ("up", bfd::SessionState::Up),
        ] {
            env.set_var(name, i64::from(state.code()));
        }
        for i in 0..self.reception_indices.len() {
            let idx = self.reception_indices[i];
            if let Err(e) = exec_function(&mut env, &self.program.functions[idx]) {
                self.errors.push(e);
                return;
            }
            if env.discarded {
                return;
            }
        }
        // Read the updated session variables back out of the environment.
        self.session.session_state =
            bfd::SessionState::from_code(env.var("bfd.SessionState") as u8)
                .unwrap_or(self.session.session_state);
        self.session.remote_session_state =
            bfd::SessionState::from_code(env.var("bfd.RemoteSessionState") as u8)
                .unwrap_or(self.session.remote_session_state);
        self.session.remote_discr = env.var("bfd.RemoteDiscr") as u32;
        self.session.remote_demand_mode = env.var("bfd.RemoteDemandMode") != 0;
        self.session.periodic_transmission_active =
            env.var("periodic_transmission_active") != 0 && !env.transmission_ceased;
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
}

/// A protocol-dispatching registry of generated programs: the multi-protocol
/// responder surface.  Register one [`Program`] per protocol (keyed by name,
/// case-insensitive), then hand out the protocol-specific adapter.
#[derive(Debug, Clone, Default)]
pub struct ResponderRegistry {
    programs: BTreeMap<String, Program>,
}

impl ResponderRegistry {
    /// An empty registry.
    pub fn new() -> ResponderRegistry {
        ResponderRegistry::default()
    }

    /// Register (or replace) the generated program for `protocol`.
    pub fn register(&mut self, protocol: &str, program: Program) {
        self.programs.insert(protocol.to_ascii_lowercase(), program);
    }

    /// The program registered for `protocol`, if any.
    pub fn program(&self, protocol: &str) -> Option<&Program> {
        self.programs.get(&protocol.to_ascii_lowercase())
    }

    /// The registered protocol names, sorted.
    pub fn protocols(&self) -> Vec<&str> {
        self.programs.keys().map(String::as_str).collect()
    }

    /// An ICMP responder over the registered ICMP program.
    pub fn icmp_responder(&self) -> Option<GeneratedResponder> {
        Some(GeneratedResponder::new(self.program("icmp")?.clone()))
    }

    /// An IGMP host (member of `group`) over the registered IGMP program.
    pub fn igmp_responder(&self, group: u32) -> Option<GeneratedIgmpResponder> {
        Some(GeneratedIgmpResponder::new(
            self.program("igmp")?.clone(),
            group,
        ))
    }

    /// The Table 11 timeout policy over the registered NTP program.
    pub fn ntp_timeout_policy(&self) -> Option<GeneratedNtpTimeoutPolicy> {
        Some(GeneratedNtpTimeoutPolicy::new(self.program("ntp")?.clone()))
    }

    /// An NTP server over the registered NTP program.
    pub fn ntp_server(&self, stratum: u8, clock: u64) -> Option<GeneratedNtpServer> {
        Some(GeneratedNtpServer::new(
            self.program("ntp")?.clone(),
            stratum,
            clock,
        ))
    }

    /// A BFD endpoint over the registered BFD program.
    pub fn bfd_endpoint(
        &self,
        local_discr: u32,
        remote_discr: u32,
    ) -> Option<GeneratedBfdEndpoint> {
        Some(GeneratedBfdEndpoint::new(
            self.program("bfd")?.clone(),
            local_discr,
            remote_discr,
        ))
    }

    /// The session roles filled by the registered programs, every adapter
    /// on `mode`: the generated counterpart of
    /// [`Responders::reference`], from which the `generated` and
    /// `chaos-generated` registries are built.  Protocols without a program
    /// stay `None`.
    pub fn responders(&self, mode: ExecMode) -> Responders {
        let program = |protocol: &str| self.program(protocol).cloned();
        Responders {
            icmp: program("icmp").map(|program| -> IcmpFactory {
                Arc::new(move || Box::new(GeneratedResponder::new(program.clone()).with_mode(mode)))
            }),
            igmp: program("igmp").map(|program| -> IgmpFactory {
                Arc::new(move || {
                    Box::new(
                        GeneratedIgmpResponder::new(program.clone(), SESSION_GROUP).with_mode(mode),
                    )
                })
            }),
            ntp: program("ntp").map(|program| -> (NtpPolicyFactory, NtpServerFactory) {
                let server = program.clone();
                (
                    Arc::new(move || {
                        Box::new(GeneratedNtpTimeoutPolicy::new(program.clone()).with_mode(mode))
                    }),
                    Arc::new(move || {
                        Box::new(GeneratedNtpServer::new(server.clone(), 2, 0x1000).with_mode(mode))
                    }),
                )
            }),
            bfd: program("bfd").map(|program| -> BfdFactory {
                Arc::new(move |local, remote| {
                    Box::new(
                        GeneratedBfdEndpoint::new(program.clone(), local, remote).with_mode(mode),
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
    use sage_netsim::net::{Network, ReferenceResponder, RouterAction};
    use sage_netsim::tools::ping::{ping_once, ECHO_PAYLOAD};

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
        let mut net = Network::appendix_a();
        let mut responder = GeneratedResponder::new(echo_reply_program());
        let outcome = ping_once(
            &mut net,
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
        let mut net = Network::appendix_a();
        let echo = icmp::build_echo(false, 1, 1, b"abc");
        let req = ipv4::build_packet(
            ipv4::addr(10, 0, 1, 100),
            ipv4::addr(10, 0, 1, 1),
            ipv4::PROTO_ICMP,
            64,
            echo.as_bytes(),
        );
        let gen_action =
            net.router_process(&req, 0, &mut GeneratedResponder::new(echo_reply_program()));
        let ref_action = net.router_process(&req, 0, &mut ReferenceResponder);
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
    fn function_selection_prefers_receiver_role() {
        let mut program = echo_reply_program();
        program.functions.push(Function {
            name: "icmp_echo_or_echo_reply_message_sender".into(),
            role: "sender".into(),
            body: vec![],
        });
        let responder = GeneratedResponder::new(program);
        let f = responder.function_for(IcmpEvent::EchoRequest).unwrap();
        assert_eq!(f.role, "receiver");
    }

    fn bfd_reception_program() -> Program {
        // if (bfd_hdr->your_discriminator != 0) { if (!session_found) discard; }
        // bfd.RemoteDiscr = bfd_hdr->my_discriminator;
        // if (demand && state==Up && remote==Up) cease_periodic_transmission();
        Program {
            structs: vec![],
            functions: vec![Function {
                name: "bfd_reception_of_bfd_control_packets_receiver".into(),
                role: "receiver".into(),
                body: vec![
                    Stmt::If {
                        cond: Expr::binop(
                            "!=",
                            Expr::field("bfd", "your_discriminator"),
                            Expr::Num(0),
                        ),
                        then: vec![Stmt::If {
                            cond: Expr::Not(Box::new(Expr::Var("session_found".into()))),
                            then: vec![Stmt::Call {
                                name: "discard_packet".into(),
                                args: vec![],
                            }],
                            els: vec![],
                        }],
                        els: vec![],
                    },
                    Stmt::Assign {
                        target: Expr::Var("bfd.RemoteDiscr".into()),
                        value: Expr::field("bfd", "my_discriminator"),
                    },
                    Stmt::Assign {
                        target: Expr::Var("bfd.RemoteDemandMode".into()),
                        value: Expr::field("bfd", "demand"),
                    },
                    Stmt::If {
                        cond: Expr::binop(
                            "&&",
                            Expr::binop(
                                "&&",
                                Expr::binop(
                                    "==",
                                    Expr::Var("bfd.RemoteDemandMode".into()),
                                    Expr::Num(1),
                                ),
                                Expr::binop(
                                    "==",
                                    Expr::Var("bfd.SessionState".into()),
                                    Expr::Var("Up".into()),
                                ),
                            ),
                            Expr::binop(
                                "==",
                                Expr::Var("bfd.RemoteSessionState".into()),
                                Expr::Var("Up".into()),
                            ),
                        ),
                        then: vec![Stmt::Call {
                            name: "cease_periodic_transmission".into(),
                            args: vec![],
                        }],
                        els: vec![],
                    },
                ],
            }],
        }
    }

    #[test]
    fn bfd_generated_code_selects_sessions_and_updates_state() {
        let mut rx =
            BfdGeneratedReceiver::new(bfd_reception_program(), bfd::SessionState::Up, vec![5]);
        // Known session, remote in demand mode and Up: accept + cease.
        let pkt = bfd::build_control_packet(bfd::SessionState::Up, 42, 5, 3, true);
        let out = rx.receive(&pkt).unwrap();
        assert!(!out.discarded);
        assert!(out.ceased_transmission);
        assert_eq!(out.remote_discr, 42);
        assert_eq!(out.remote_demand_mode, 1);
    }

    #[test]
    fn bfd_generated_code_discards_unknown_sessions() {
        let mut rx =
            BfdGeneratedReceiver::new(bfd_reception_program(), bfd::SessionState::Up, vec![5]);
        let pkt = bfd::build_control_packet(bfd::SessionState::Up, 42, 999, 3, false);
        let out = rx.receive(&pkt).unwrap();
        assert!(out.discarded);
        assert!(!out.ceased_transmission);
    }

    #[test]
    fn registry_dispatches_by_protocol_name() {
        let mut reg = ResponderRegistry::new();
        reg.register("ICMP", echo_reply_program());
        reg.register("bfd", bfd_reception_program());
        assert_eq!(reg.protocols(), vec!["bfd", "icmp"]);
        assert!(reg.program("Icmp").is_some());
        assert!(reg.icmp_responder().is_some());
        assert!(
            reg.igmp_responder(1).is_none(),
            "no IGMP program registered"
        );
        assert!(reg.ntp_server(2, 1).is_none());
        assert!(reg.bfd_endpoint(1, 2).is_some());
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
        let mut rx =
            BfdGeneratedReceiver::new(bfd_reception_program(), bfd::SessionState::Up, vec![7]);
        let mut table = bfd::SessionTable::new();
        table.add(bfd::SessionVariables {
            session_state: bfd::SessionState::Up,
            local_discr: 7,
            ..Default::default()
        });
        for (my, your, demand) in [(41u32, 7u32, true), (42, 7, false), (43, 999, false)] {
            let pkt = bfd::build_control_packet(bfd::SessionState::Up, my, your, 3, demand);
            let gen = rx.receive(&pkt).unwrap();
            let reference = bfd::receive_control_packet(&mut table, &pkt);
            match reference {
                bfd::ReceiveAction::Accepted => assert!(!gen.discarded, "my={my}"),
                bfd::ReceiveAction::Discarded(_) => assert!(gen.discarded, "my={my}"),
            }
        }
    }
}
