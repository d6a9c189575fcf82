//! Panic/error containment and quarantine for generated soak responders.
//!
//! Generated code is untrusted at runtime: a bad synthesis can panic, or
//! return execution errors on every packet.  [`Contained`] wraps a primary
//! (generated) [`SoakResponder`] and a fallback (hand-written reference)
//! responder behind `catch_unwind` dispatch with a per-responder error
//! budget.  Every panic or error costs one budget unit and the offending
//! packet is served by the fallback instead, so the session never loses a
//! reply; when the budget is exhausted the primary is permanently
//! quarantined and the fallback serves everything from then on.  Both the
//! budget hits and the quarantine swap are emitted as trace notes
//! (`responder-error …`, `quarantine …`), so parity accounting against a
//! reference-only run stays honest: strip the containment notes and the
//! post-quarantine trace is byte-identical.

use std::mem;
use std::panic::{self, AssertUnwindSafe};

use sage_netsim::buffer::PacketBuf;
use sage_netsim::scenario::Responders;
use sage_netsim::tools::soak::{soak_service, SoakProtocol, SoakResponder};

use crate::responder::{ExecMode, ResponderRegistry};

/// The default error budget a contained responder gets before quarantine.
pub const DEFAULT_ERROR_BUDGET: u32 = 3;

/// A primary/fallback pair with `catch_unwind` dispatch and an error
/// budget; see the module docs for the containment contract.
pub struct Contained {
    protocol: &'static str,
    primary: Box<dyn SoakResponder>,
    fallback: Box<dyn SoakResponder>,
    budget: u32,
    errors: u32,
    quarantined: bool,
    notes: Vec<String>,
}

impl Contained {
    /// Contain `primary` with `fallback` as the quarantine target and an
    /// error budget of `budget` (clamped to at least 1).
    pub fn new(
        protocol: &'static str,
        primary: Box<dyn SoakResponder>,
        fallback: Box<dyn SoakResponder>,
        budget: u32,
    ) -> Contained {
        Contained {
            protocol,
            primary,
            fallback,
            budget: budget.max(1),
            errors: 0,
            quarantined: false,
            notes: Vec::new(),
        }
    }

    /// Whether the primary has been permanently quarantined.
    pub fn quarantined(&self) -> bool {
        self.quarantined
    }

    /// Errors charged against the budget so far.
    pub fn errors(&self) -> u32 {
        self.errors
    }

    /// Charge one error against the budget, quarantining on exhaustion.
    fn charge(&mut self, detail: &str) {
        self.errors += 1;
        self.notes.push(format!(
            "responder-error {} {}/{} {detail}",
            self.protocol, self.errors, self.budget
        ));
        if self.errors >= self.budget {
            self.quarantined = true;
            self.notes
                .push(format!("quarantine {} fallback=reference", self.protocol));
        }
    }
}

impl SoakResponder for Contained {
    fn respond(&mut self, packet: &PacketBuf) -> Result<Option<PacketBuf>, String> {
        if self.quarantined {
            return self.fallback.respond(packet);
        }
        match panic::catch_unwind(AssertUnwindSafe(|| self.primary.respond(packet))) {
            Ok(Ok(reply)) => Ok(reply),
            Ok(Err(error)) => {
                self.charge(&error);
                self.fallback.respond(packet)
            }
            Err(payload) => {
                let detail = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic".to_string());
                self.charge(&format!("panic: {detail}"));
                self.fallback.respond(packet)
            }
        }
    }

    fn drain_notes(&mut self) -> Vec<String> {
        let mut notes = mem::take(&mut self.notes);
        notes.extend(self.primary.drain_notes());
        notes.extend(self.fallback.drain_notes());
        notes
    }
}

/// A fault-injection responder for containment tests and canary soak
/// shards: serves `fail_after` packets via its inner responder, then fails
/// every subsequent packet — by panicking when `panics` is set (exercising
/// the `catch_unwind` path) or by returning an error otherwise (the quiet
/// mode campaigns use so soak logs stay readable).
pub struct CanarySoakResponder {
    /// The well-behaved responder served before the fault point.
    pub inner: Box<dyn SoakResponder>,
    /// Packets served correctly before the canary starts failing.
    pub fail_after: u64,
    /// Fail by panic (true) or by returned error (false).
    pub panics: bool,
    seen: u64,
}

impl CanarySoakResponder {
    /// A canary over `inner` that fails every packet after `fail_after`.
    pub fn new(
        inner: Box<dyn SoakResponder>,
        fail_after: u64,
        panics: bool,
    ) -> CanarySoakResponder {
        CanarySoakResponder {
            inner,
            fail_after,
            panics,
            seen: 0,
        }
    }
}

impl SoakResponder for CanarySoakResponder {
    fn respond(&mut self, packet: &PacketBuf) -> Result<Option<PacketBuf>, String> {
        self.seen += 1;
        if self.seen > self.fail_after {
            if self.panics {
                panic!("canary fault injection");
            }
            return Err("canary fault injection".to_string());
        }
        self.inner.respond(packet)
    }

    fn drain_notes(&mut self) -> Vec<String> {
        self.inner.drain_notes()
    }
}

/// The hand-written reference soak service for one session — the
/// quarantine fallback, and the whole engine of reference-only shards.
pub fn reference_soak_service(
    protocol: SoakProtocol,
    session: u32,
    server_addr: u32,
) -> Box<dyn SoakResponder> {
    soak_service(&Responders::reference(), protocol, session, server_addr)
        .expect("the references fill every role")
}

/// A contained session service: the registry's generated responder as the
/// primary, the reference engine as the quarantine fallback.  Falls back to
/// an uncontained reference service when no program is registered for the
/// protocol.
pub fn contained_soak_service(
    registry: &ResponderRegistry,
    protocol: SoakProtocol,
    session: u32,
    server_addr: u32,
    budget: u32,
) -> Box<dyn SoakResponder> {
    let reference = reference_soak_service(protocol, session, server_addr);
    let roles = registry.responders(ExecMode::Vm);
    match soak_service(&roles, protocol, session, server_addr) {
        Some(primary) => Box::new(Contained::new(protocol.name(), primary, reference, budget)),
        None => reference,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_netsim::headers::{icmp, ipv4};

    fn echo_request(seq: u16) -> PacketBuf {
        let echo = icmp::build_echo(false, 7, seq, b"0123456789abcdef");
        ipv4::build_packet(
            ipv4::addr(10, 1, 0, 1),
            ipv4::addr(10, 2, 0, 1),
            ipv4::PROTO_ICMP,
            64,
            echo.as_bytes(),
        )
    }

    fn contained_canary(panics: bool, budget: u32) -> Contained {
        let canary = CanarySoakResponder::new(
            reference_soak_service(SoakProtocol::Icmp, 0, ipv4::addr(10, 2, 0, 1)),
            2,
            panics,
        );
        Contained::new(
            "icmp",
            Box::new(canary),
            reference_soak_service(SoakProtocol::Icmp, 0, ipv4::addr(10, 2, 0, 1)),
            budget,
        )
    }

    #[test]
    fn error_canary_is_quarantined_within_budget_and_replies_never_stop() {
        let mut contained = contained_canary(false, 3);
        for seq in 0..10u16 {
            let reply = contained.respond(&echo_request(seq)).expect("contained");
            assert!(reply.is_some(), "packet {seq} lost its reply");
        }
        assert!(contained.quarantined());
        assert_eq!(contained.errors(), 3);
        let notes = contained.drain_notes();
        assert_eq!(
            notes
                .iter()
                .filter(|n| n.starts_with("responder-error"))
                .count(),
            3
        );
        assert_eq!(
            notes.iter().filter(|n| n.starts_with("quarantine")).count(),
            1
        );
    }

    #[test]
    fn panic_canary_is_caught_and_quarantined() {
        // Silence the default hook while the canary panics on purpose.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut contained = contained_canary(true, 2);
        for seq in 0..6u16 {
            let reply = contained.respond(&echo_request(seq)).expect("contained");
            assert!(reply.is_some(), "packet {seq} lost its reply");
        }
        std::panic::set_hook(hook);
        assert!(contained.quarantined());
        let notes = contained.drain_notes();
        assert!(notes.iter().any(|n| n.contains("panic")));
    }

    #[test]
    fn generated_execution_errors_are_charged_to_the_budget() {
        use sage_codegen::ir::{Function, Program, Stmt};
        // An echo receiver that calls a framework function nobody provides:
        // it does not lower, and fails on the tree-walker on every packet.
        let mut registry = ResponderRegistry::new();
        registry.register(
            "icmp",
            Program {
                structs: vec![],
                functions: vec![Function {
                    name: "icmp_echo_or_echo_reply_message_receiver".into(),
                    role: "receiver".into(),
                    body: vec![Stmt::Call {
                        name: "warp_drive".into(),
                        args: vec![],
                    }],
                }],
            },
        );
        let server = ipv4::addr(10, 2, 0, 1);
        let budget = DEFAULT_ERROR_BUDGET;
        let roles = registry.responders(ExecMode::Vm);
        let mut contained = Contained::new(
            "icmp",
            soak_service(&roles, SoakProtocol::Icmp, 0, server).expect("icmp program"),
            reference_soak_service(SoakProtocol::Icmp, 0, server),
            budget,
        );
        let mut served = contained_soak_service(&registry, SoakProtocol::Icmp, 0, server, budget);
        let mut reference = reference_soak_service(SoakProtocol::Icmp, 0, server);
        let (mut notes, mut served_notes) = (Vec::new(), Vec::new());
        for seq in 0..5u16 {
            let packet = echo_request(seq);
            let want = reference.respond(&packet).expect("reference");
            assert!(want.is_some());
            assert_eq!(contained.respond(&packet), Ok(want.clone()), "seq {seq}");
            assert_eq!(served.respond(&packet), Ok(want), "seq {seq}");
            notes.extend(contained.drain_notes());
            served_notes.extend(served.drain_notes());
        }
        let error = "unknown framework function warp_drive";
        let want: Vec<String> = (1..=3)
            .map(|n| format!("responder-error icmp {n}/3 {error}"))
            .chain(["quarantine icmp fallback=reference".to_string()])
            .collect();
        assert_eq!(notes, want);
        assert_eq!(served_notes, want);
        assert!(contained.quarantined());
    }

    #[test]
    fn quarantined_replies_match_reference_replies_exactly() {
        let mut contained = contained_canary(false, 1);
        let mut reference = reference_soak_service(SoakProtocol::Icmp, 0, ipv4::addr(10, 2, 0, 1));
        for seq in 0..8u16 {
            let packet = echo_request(seq);
            let got = contained
                .respond(&packet)
                .expect("contained")
                .expect("reply");
            let want = reference
                .respond(&packet)
                .expect("reference")
                .expect("reply");
            assert_eq!(got.as_bytes(), want.as_bytes(), "seq {seq}");
        }
    }
}
