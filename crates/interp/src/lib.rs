//! Execution of SAGE-generated code against the static framework.
//!
//! The paper compiles the generated C and links it against a static
//! framework wrapping Linux networking; in this reproduction the generated
//! code IR (`sage-codegen`) is interpreted directly against `sage-netsim`.
//! The split of responsibilities mirrors §5.1: the *generated* code sets
//! header fields, reverses addresses, computes checksums and decides
//! control flow, while the *static framework* provides message scaffolding
//! (allocating the reply buffer, quoting the offending datagram in error
//! messages), lower-layer header access and one's-complement arithmetic.
//!
//! * [`mod@env`] — the execution environment: the received packet, the reply
//!   under construction, state variables and framework services;
//! * [`exec`] — the statement/expression tree-walking interpreter (the
//!   semantic oracle);
//! * [`lower`] — the one-time lowering pass from generated IR to register
//!   bytecode: slot-indexed variables, pre-resolved header-field offsets,
//!   constant-folded operands;
//! * [`vm`] — the register bytecode VM the lowered programs run on (the
//!   per-packet fast path);
//! * [`responder`] — adapters that plug generated programs into the virtual
//!   network as [`sage_netsim::net::IcmpResponder`]s and into the pluggable
//!   roles of the protocol sessions in `sage_netsim::tools`;
//!   [`ResponderRegistry`] holds one generated program per protocol,
//!   lowered once per role at registration, and bundles the adapters as
//!   the sessions' roles ([`ResponderRegistry::responders`]).  Every
//!   adapter runs its program through one shared runner that seeds and
//!   reads back the role's state variables on either engine; adapters
//!   execute on the VM by default and fall back to the tree-walker
//!   whenever a program is outside the lowerable subset;
//! * [`harness`] — the tri-engine differential harness: one fuzzed
//!   exchange run on the VM, the tree-walker and the hand-written
//!   reference, traces diffed line-for-line and failures shrunk to
//!   minimal replayable fault schedules;
//! * [`quarantine`] — runtime containment for generated responders in
//!   soak campaigns: `catch_unwind` dispatch, per-responder error
//!   budgets charged with panics and with the errors the served roles
//!   report through `take_error`, and permanent quarantine with fallback
//!   to the reference engine once a budget is exhausted.

#![deny(missing_docs)]

pub mod env;
pub mod exec;
pub mod harness;
pub mod lower;
pub mod quarantine;
pub mod responder;
pub mod vm;

pub use env::Env;
pub use exec::{checksum_delegated, eval_expr, exec_function, exec_stmt, ExecError};
pub use harness::{
    canary_diverges, canary_ping_scenario, judge, repro_snippet, shrink_tri_failure, tri_run,
    CanaryResponder, TriTraces, TriVerdict,
};
pub use lower::lower_program;
pub use quarantine::{
    contained_soak_service, reference_soak_service, CanarySoakResponder, Contained,
    DEFAULT_ERROR_BUDGET,
};
pub use responder::{
    generated_scenarios, ExecMode, GeneratedBfdEndpoint, GeneratedIgmpResponder,
    GeneratedNtpServer, GeneratedNtpTimeoutPolicy, GeneratedResponder, ResponderRegistry,
};
pub use vm::{CompiledFunction, CompiledProgram, VmScratch, VmState};
