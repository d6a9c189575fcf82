//! A compact register bytecode VM for generated programs.
//!
//! The tree-walking interpreter in [`crate::exec`] resolves every header
//! field by string through [`sage_netsim::headers::field_table`] and every
//! state variable through a `HashMap<String, i64>` — per packet.  The
//! lowering pass in [`crate::lower`] performs all of that name resolution
//! once, producing [`CompiledFunction`]s over this instruction set:
//!
//! | instruction | effect |
//! |---|---|
//! | `Const` | `reg[dst] = value` (constant-folded operands land here) |
//! | `LoadSlot` / `StoreSlot` | slot-indexed state variables (no hashing) |
//! | `LoadField` / `StoreField` | pre-resolved [`FieldSpec`] bit access |
//! | `LoadReplySrc` / … | the `ip.source_address` address special case |
//! | `Not` / `Not16` / `BinOp` | strict (non-short-circuit) operators |
//! | `BinOpImm` / `BinOpSlots` / `BinOpSlotImm` | fused operand forms |
//! | `CopySlot` | variable-to-variable assignment |
//! | `Jump` / `JumpIfZero` | lowered `if`/`else` control flow |
//! | `OnesComplementSum` | RFC 1071 sum over the reply buffer |
//! | `ComputeChecksum` | zero-copy incremental store via [`checksum_omitting_field`] |
//! | `ReverseAddrs`, `Send`, `Discard`, `Cease` | framework side effects |
//! | `SelectSession` | BFD discriminator lookup in the session set |
//! | `HaltIfDiscarded` | top-level statement boundary check |
//!
//! Execution state lives in a reusable [`VmScratch`] (registers + slots)
//! so the per-packet cost is one reply-buffer allocation; the received
//! datagram is read through a borrowed byte view, never cloned.
//!
//! Semantics are pinned bit-for-bit against the tree-walker by
//! `tests/vm_differential.rs` and the parity suites; adapters keep the
//! tree-walker as the oracle and fall back to it whenever a program cannot
//! be lowered.

use crate::exec::ExecError;
use sage_netsim::buffer::{read_bits, FieldSpec, PacketBuf};
use sage_netsim::checksum::{checksum_omitting_field, ones_complement_sum};

/// Which packet buffer a field instruction addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Buf {
    /// The received IP datagram (read-only byte view).
    Request,
    /// The reply message under construction.
    Reply,
}

/// Strict binary operators (both operands always evaluated, matching the
/// tree-walker's non-short-circuit `&&` / `||`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpCode {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `>=`
    Ge,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `&&` (strict)
    And,
    /// `||` (strict)
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
}

impl OpCode {
    /// Apply the operator to two values, mirroring
    /// [`crate::exec::eval_expr`] exactly.
    pub fn apply(self, l: i64, r: i64) -> i64 {
        match self {
            OpCode::Eq => i64::from(l == r),
            OpCode::Ne => i64::from(l != r),
            OpCode::Ge => i64::from(l >= r),
            OpCode::Le => i64::from(l <= r),
            OpCode::Gt => i64::from(l > r),
            OpCode::Lt => i64::from(l < r),
            OpCode::And => i64::from(l != 0 && r != 0),
            OpCode::Or => i64::from(l != 0 || r != 0),
            OpCode::Add => l + r,
            OpCode::Sub => l - r,
        }
    }
}

/// One bytecode instruction.  `dst`/`lhs`/`rhs`/`src` index the register
/// file; `slot` indexes the program's variable slots; `name` indexes
/// [`CompiledProgram::field_names`] for error messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// `reg[dst] = value`.
    Const {
        /// Destination register.
        dst: u8,
        /// The constant.
        value: i64,
    },
    /// `reg[dst] = slot[slot]`.
    LoadSlot {
        /// Destination register.
        dst: u8,
        /// Variable slot.
        slot: u16,
    },
    /// `slot[slot] = reg[src]`.
    StoreSlot {
        /// Variable slot.
        slot: u16,
        /// Source register.
        src: u8,
    },
    /// `reg[dst] = field` read through a pre-resolved spec.
    LoadField {
        /// Destination register.
        dst: u8,
        /// Which buffer the field lives in.
        buf: Buf,
        /// Pre-resolved field layout.
        spec: FieldSpec,
        /// Index into [`CompiledProgram::field_names`].
        name: u16,
    },
    /// Write `reg[src]` into a reply-buffer field.
    StoreField {
        /// Pre-resolved field layout.
        spec: FieldSpec,
        /// Source register.
        src: u8,
        /// Index into [`CompiledProgram::field_names`].
        name: u16,
    },
    /// `reg[dst] = reply_src` (the `ip.source_address` special case).
    LoadReplySrc {
        /// Destination register.
        dst: u8,
    },
    /// `reg[dst] = reply_dst`.
    LoadReplyDst {
        /// Destination register.
        dst: u8,
    },
    /// `reply_src = reg[src]`.
    StoreReplySrc {
        /// Source register.
        src: u8,
    },
    /// `reply_dst = reg[src]`.
    StoreReplyDst {
        /// Source register.
        src: u8,
    },
    /// Logical negation: `reg[dst] = (reg[src] == 0)`.
    Not {
        /// Destination register.
        dst: u8,
        /// Source register.
        src: u8,
    },
    /// One's complement of the low 16 bits (the `ones_complement` call).
    Not16 {
        /// Destination register.
        dst: u8,
        /// Source register.
        src: u8,
    },
    /// `reg[dst] = op(reg[lhs], reg[rhs])`.
    BinOp {
        /// Operator.
        op: OpCode,
        /// Destination register.
        dst: u8,
        /// Left operand register.
        lhs: u8,
        /// Right operand register.
        rhs: u8,
    },
    /// `reg[dst] = op(reg[lhs], imm)` — the fused form the lowering emits
    /// when one operand is a folded constant (comparisons against literals
    /// and state codes dominate generated conditions).
    BinOpImm {
        /// Operator.
        op: OpCode,
        /// Destination register.
        dst: u8,
        /// Left operand register.
        lhs: u8,
        /// Immediate right operand.
        imm: i64,
    },
    /// `reg[dst] = op(slot[lhs], slot[rhs])` — fused state-variable
    /// comparison (`bfd.SessionState == up` and friends), replacing a
    /// `LoadSlot`/`LoadSlot`/`BinOp` triple.
    BinOpSlots {
        /// Operator.
        op: OpCode,
        /// Destination register.
        dst: u8,
        /// Left operand slot.
        lhs: u16,
        /// Right operand slot.
        rhs: u16,
    },
    /// `reg[dst] = op(slot[lhs], imm)` — fused variable-vs-constant form.
    BinOpSlotImm {
        /// Operator.
        op: OpCode,
        /// Destination register.
        dst: u8,
        /// Left operand slot.
        lhs: u16,
        /// Immediate right operand.
        imm: i64,
    },
    /// `slot[dst] = slot[src]` — a variable-to-variable assignment.
    CopySlot {
        /// Destination slot.
        dst: u16,
        /// Source slot.
        src: u16,
    },
    /// Unconditional jump to instruction index `target`.
    Jump {
        /// Jump target (instruction index).
        target: u32,
    },
    /// Jump to `target` when `reg[src] == 0`.
    JumpIfZero {
        /// Condition register.
        src: u8,
        /// Jump target (instruction index).
        target: u32,
    },
    /// `reg[dst] = ones_complement_sum(reply bytes)`.
    OnesComplementSum {
        /// Destination register.
        dst: u8,
    },
    /// Compute the reply checksum with the field's own bytes treated as
    /// zero (one zero-copy pass) and store it through `spec`.
    ComputeChecksum {
        /// Destination register (receives the checksum value).
        dst: u8,
        /// The checksum field of the reply protocol.
        spec: FieldSpec,
        /// Index into [`CompiledProgram::field_names`].
        name: u16,
    },
    /// Swap `reply_src` and `reply_dst`; `reg[dst] = 0`.
    ReverseAddrs {
        /// Destination register.
        dst: u8,
    },
    /// Mark the reply as sent; `reg[dst] = 0`.
    Send {
        /// Destination register.
        dst: u8,
    },
    /// Mark the packet as discarded; `reg[dst] = 0`.  Execution continues
    /// until the next top-level statement boundary ([`Instr::HaltIfDiscarded`]),
    /// matching [`crate::exec::exec_function`].
    Discard {
        /// Destination register.
        dst: u8,
    },
    /// Cease periodic transmission: set the flag, zero the `active` slot.
    Cease {
        /// Destination register.
        dst: u8,
        /// Slot of `periodic_transmission_active`.
        active_slot: u16,
    },
    /// BFD session selection: read `your_discriminator` from the reply
    /// buffer (0 when out of range), test membership in the session set,
    /// store the verdict and the discriminator.
    SelectSession {
        /// Destination register (receives the found flag).
        dst: u8,
        /// Slot of `session_found`.
        found_slot: u16,
        /// Slot of `selected_session`.
        selected_slot: u16,
        /// The `bfd.your_discriminator` field layout.
        discr_spec: FieldSpec,
    },
    /// Stop (successfully) when the packet has been discarded — emitted
    /// after every top-level statement.
    HaltIfDiscarded,
}

/// A lowered function: the bytecode plus the register budget.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFunction {
    /// Function name (copied from the IR function).
    pub name: String,
    /// The role the function runs in ("sender", "receiver" or "").
    pub role: String,
    /// The instruction stream.
    pub code: Vec<Instr>,
    /// Number of scratch registers the stream addresses.
    pub num_regs: usize,
}

/// A lowered program: one [`CompiledFunction`] per IR function (same order
/// and indices as [`sage_codegen::ir::Program::functions`]) plus the shared
/// symbol tables.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompiledProgram {
    /// Lowered functions, index-aligned with the source program.
    pub functions: Vec<CompiledFunction>,
    /// Canonical state-variable names; the index is the slot number.
    pub slot_names: Vec<String>,
    /// `protocol.field` spellings for error messages, indexed by the
    /// `name` operand of field instructions.
    pub field_names: Vec<String>,
}

impl CompiledProgram {
    /// Number of variable slots the program (plus its adapter-seeded
    /// externals) addresses.
    pub fn num_slots(&self) -> usize {
        self.slot_names.len()
    }

    /// Resolve a state-variable name to its slot, applying the same
    /// canonicalisation as the tree-walker's environment (dotted names are
    /// case-folded, plain names are case-sensitive).
    pub fn slot(&self, name: &str) -> Option<u16> {
        let key = crate::env::Env::var_key(name);
        self.slot_names
            .iter()
            .position(|n| *n == key)
            .map(|i| i as u16)
    }
}

/// Register-file depth: expressions deeper than this refuse to lower (the
/// depth-based allocator needs one register per nesting level).  A fixed
/// inline array keeps register access free of heap indirection.
pub const MAX_REGS: usize = 16;

/// Reusable per-adapter execution scratch: the register file and the
/// variable slots.  Reusing it across packets keeps the steady-state
/// per-packet allocation down to the reply buffer itself.
#[derive(Debug, Clone, Default)]
pub struct VmScratch {
    /// Scratch registers (fixed-depth; [`MAX_REGS`] bounds lowering).
    pub regs: [i64; MAX_REGS],
    /// Variable slots, index-aligned with [`CompiledProgram::slot_names`].
    pub slots: Vec<i64>,
}

impl VmScratch {
    /// Zero and size the slots for `program`; registers are pure scratch
    /// (every instruction writes before reading) and need no reset.
    pub fn reset(&mut self, program: &CompiledProgram) {
        self.slots.clear();
        self.slots.resize(program.num_slots(), 0);
    }
}

/// Mutable machine state for one packet.
#[derive(Debug)]
pub struct VmState<'a> {
    /// Registers + variable slots (reused across packets).
    pub scratch: &'a mut VmScratch,
    /// Borrowed bytes of the received IP datagram (zero-copy; the
    /// tree-walker clones this buffer into its environment).
    pub request: &'a [u8],
    /// The reply message under construction (owned — it is the output).
    pub reply: PacketBuf,
    /// Source address the reply will carry.
    pub reply_src: u32,
    /// Destination address of the reply.
    pub reply_dst: u32,
    /// Discriminators of locally existing BFD sessions (the VM form of the
    /// tree-walker's `session.<discr>` variables).
    pub sessions: &'a [i64],
    /// Set by [`Instr::Discard`].
    pub discarded: bool,
    /// Set by [`Instr::Send`].
    pub sent: bool,
    /// Set by [`Instr::Cease`].
    pub transmission_ceased: bool,
}

impl<'a> VmState<'a> {
    /// State for one packet: scratch must already be
    /// [`VmScratch::reset`] (and seeded) for the program about to run.
    pub fn new(
        scratch: &'a mut VmScratch,
        request: &'a [u8],
        reply: PacketBuf,
        reply_src: u32,
        reply_dst: u32,
        sessions: &'a [i64],
    ) -> VmState<'a> {
        VmState {
            scratch,
            request,
            reply,
            reply_src,
            reply_dst,
            sessions,
            discarded: false,
            sent: false,
            transmission_ceased: false,
        }
    }

    /// Seed a slot when the program has one for the variable.
    pub fn seed(scratch: &mut VmScratch, slot: Option<u16>, value: i64) {
        if let Some(s) = slot {
            scratch.slots[s as usize] = value;
        }
    }
}

/// Execute one compiled function against the machine state.
///
/// Runtime errors mirror the tree-walker: an out-of-range field access
/// raises [`ExecError::UnknownField`] with the `protocol.field` spelling.
pub fn run(
    function: &CompiledFunction,
    program: &CompiledProgram,
    st: &mut VmState<'_>,
) -> Result<(), ExecError> {
    debug_assert!(function.num_regs <= MAX_REGS);
    // Split-borrow everything once: register/slot access inside the loop
    // is then a single indexed load/store with no pointer chain through
    // `st.scratch`.
    let VmState {
        scratch,
        request,
        reply,
        reply_src,
        reply_dst,
        sessions,
        discarded,
        sent,
        transmission_ceased,
    } = st;
    let VmScratch { regs, slots } = &mut **scratch;
    let code = &function.code;
    let mut pc = 0usize;
    while pc < code.len() {
        match code[pc] {
            Instr::Const { dst, value } => regs[dst as usize] = value,
            Instr::LoadSlot { dst, slot } => regs[dst as usize] = slots[slot as usize],
            Instr::StoreSlot { slot, src } => slots[slot as usize] = regs[src as usize],
            Instr::LoadField {
                dst,
                buf,
                spec,
                name,
            } => {
                let bytes = match buf {
                    Buf::Request => *request,
                    Buf::Reply => reply.as_bytes(),
                };
                let v = read_bits(bytes, &spec).map_err(|_| {
                    ExecError::UnknownField(program.field_names[name as usize].clone())
                })?;
                regs[dst as usize] = v as i64;
            }
            Instr::StoreField { spec, src, name } => {
                let v = regs[src as usize];
                reply.set_bits(&spec, v as u64).map_err(|_| {
                    ExecError::UnknownField(program.field_names[name as usize].clone())
                })?;
            }
            Instr::LoadReplySrc { dst } => regs[dst as usize] = i64::from(*reply_src),
            Instr::LoadReplyDst { dst } => regs[dst as usize] = i64::from(*reply_dst),
            Instr::StoreReplySrc { src } => *reply_src = regs[src as usize] as u32,
            Instr::StoreReplyDst { src } => *reply_dst = regs[src as usize] as u32,
            Instr::Not { dst, src } => regs[dst as usize] = i64::from(regs[src as usize] == 0),
            Instr::Not16 { dst, src } => {
                regs[dst as usize] = i64::from(!(regs[src as usize] as u16));
            }
            Instr::BinOp { op, dst, lhs, rhs } => {
                regs[dst as usize] = op.apply(regs[lhs as usize], regs[rhs as usize]);
            }
            Instr::BinOpImm { op, dst, lhs, imm } => {
                regs[dst as usize] = op.apply(regs[lhs as usize], imm);
            }
            Instr::BinOpSlots { op, dst, lhs, rhs } => {
                regs[dst as usize] = op.apply(slots[lhs as usize], slots[rhs as usize]);
            }
            Instr::BinOpSlotImm { op, dst, lhs, imm } => {
                regs[dst as usize] = op.apply(slots[lhs as usize], imm);
            }
            Instr::CopySlot { dst, src } => slots[dst as usize] = slots[src as usize],
            Instr::Jump { target } => {
                pc = target as usize;
                continue;
            }
            Instr::JumpIfZero { src, target } => {
                if regs[src as usize] == 0 {
                    pc = target as usize;
                    continue;
                }
            }
            Instr::OnesComplementSum { dst } => {
                regs[dst as usize] = i64::from(ones_complement_sum(reply.as_bytes()));
            }
            Instr::ComputeChecksum { dst, spec, name } => {
                let ck = checksum_omitting_field(reply.as_bytes(), spec.byte_range().0);
                reply.set_bits(&spec, u64::from(ck)).map_err(|_| {
                    ExecError::UnknownField(program.field_names[name as usize].clone())
                })?;
                regs[dst as usize] = i64::from(ck);
            }
            Instr::ReverseAddrs { dst } => {
                std::mem::swap(reply_src, reply_dst);
                regs[dst as usize] = 0;
            }
            Instr::Send { dst } => {
                *sent = true;
                regs[dst as usize] = 0;
            }
            Instr::Discard { dst } => {
                *discarded = true;
                regs[dst as usize] = 0;
            }
            Instr::Cease { dst, active_slot } => {
                *transmission_ceased = true;
                slots[active_slot as usize] = 0;
                regs[dst as usize] = 0;
            }
            Instr::SelectSession {
                dst,
                found_slot,
                selected_slot,
                discr_spec,
            } => {
                let discr = read_bits(reply.as_bytes(), &discr_spec)
                    .map(|v| v as i64)
                    .unwrap_or(0);
                let found = i64::from(sessions.contains(&discr));
                slots[found_slot as usize] = found;
                slots[selected_slot as usize] = discr;
                regs[dst as usize] = found;
            }
            Instr::HaltIfDiscarded => {
                if *discarded {
                    return Ok(());
                }
            }
        }
        pc += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcodes_match_the_tree_walker_semantics() {
        assert_eq!(OpCode::Eq.apply(3, 3), 1);
        assert_eq!(OpCode::Ne.apply(3, 3), 0);
        assert_eq!(OpCode::And.apply(2, 0), 0);
        assert_eq!(OpCode::And.apply(-1, 7), 1);
        assert_eq!(OpCode::Or.apply(0, 0), 0);
        assert_eq!(OpCode::Sub.apply(2, 5), -3);
    }

    #[test]
    fn discard_halts_only_at_statement_boundaries() {
        let program = CompiledProgram {
            functions: vec![],
            slot_names: vec!["after_discard".into(), "after_halt".into()],
            field_names: vec![],
        };
        let f = CompiledFunction {
            name: "f".into(),
            role: String::new(),
            code: vec![
                Instr::Discard { dst: 0 },
                // Same top-level statement: still executes.
                Instr::Const { dst: 0, value: 1 },
                Instr::StoreSlot { slot: 0, src: 0 },
                Instr::HaltIfDiscarded,
                // Next statement: must not execute.
                Instr::Const { dst: 0, value: 1 },
                Instr::StoreSlot { slot: 1, src: 0 },
            ],
            num_regs: 1,
        };
        let mut scratch = VmScratch::default();
        scratch.reset(&program);
        let mut st = VmState::new(&mut scratch, &[], PacketBuf::new(), 0, 0, &[]);
        run(&f, &program, &mut st).unwrap();
        assert!(st.discarded);
        assert_eq!(st.scratch.slots, vec![1, 0]);
    }

    #[test]
    fn out_of_range_field_reads_report_the_dotted_name() {
        let program = CompiledProgram {
            functions: vec![],
            slot_names: vec![],
            field_names: vec!["bfd.state".into()],
        };
        let f = CompiledFunction {
            name: "f".into(),
            role: String::new(),
            code: vec![Instr::LoadField {
                dst: 0,
                buf: Buf::Reply,
                spec: FieldSpec::new("state", 48, 2),
                name: 0,
            }],
            num_regs: 1,
        };
        let mut scratch = VmScratch::default();
        scratch.reset(&program);
        // A 4-byte reply cannot hold a field at bit 48.
        let mut st = VmState::new(
            &mut scratch,
            &[],
            PacketBuf::from_bytes(vec![0; 4]),
            0,
            0,
            &[],
        );
        assert_eq!(
            run(&f, &program, &mut st),
            Err(ExecError::UnknownField("bfd.state".into()))
        );
    }
}
