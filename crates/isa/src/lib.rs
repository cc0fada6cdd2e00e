//! PowerPC-subset instruction set architecture.
//!
//! This crate defines the ISA executed by the POWER5 timing model: a
//! faithful subset of the 32-bit PowerPC application ISA (the paper's
//! kernels are plain 32-bit integer code), extended with the paper's two
//! proposed predicated instructions:
//!
//! * **`isel RT,RA,RB,BC`** — the embedded-PowerPC integer select, chosen
//!   by a condition-register bit (requires a preceding `cmp`);
//! * **`maxw RT,RA,RB`** — the paper's hypothetical single-cycle fused
//!   signed maximum ("we selected an unused PowerPC primary and extended
//!   opcode combination").
//!
//! Provided here:
//!
//! * [`insn::Instruction`] — the decoded instruction enum with per-insn
//!   classification (execution unit, latency class, registers read and
//!   written) consumed by the timing model;
//! * [`mod@encode`] — binary encode/decode in genuine PowerPC instruction
//!   formats (D/X/XO/I/B/M-form), property-tested for round-tripping;
//! * [`disasm`] — textual disassembly;
//! * [`exec`] — functional semantics: [`exec::CpuState`] + [`exec::Memory`]
//!   with a single-instruction [`exec::step`] that also reports the
//!   branch/memory events the timing model needs.
//!
//! # Example
//!
//! ```
//! use ppc_isa::insn::Instruction;
//! use ppc_isa::reg::Gpr;
//! use ppc_isa::encode::{encode, decode};
//!
//! let insn = Instruction::Add { rt: Gpr(3), ra: Gpr(4), rb: Gpr(5) };
//! let word = encode(&insn);
//! assert_eq!(decode(word)?, insn);
//! assert_eq!(insn.to_string(), "add r3, r4, r5");
//! # Ok::<(), ppc_isa::encode::DecodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disasm;
pub mod encode;
pub mod exec;
pub mod insn;
pub mod reg;

pub use encode::{decode, encode, DecodeError};
pub use exec::{eval_cond, rlwinm_mask, step, CpuState, Memory, StepEvent, PAGE_SIZE};
pub use insn::{ExecUnit, Instruction, LatencyClass};
pub use reg::{CrBit, CrField, Gpr};
