//! Cycle-level POWER5-like core model.
//!
//! This crate is the reproduction's stand-in for IBM's SystemSim full-system
//! simulator configured as a POWER5 (paper Section V). It executes the
//! PowerPC-subset ISA of [`ppc_isa`] functionally while modelling the
//! timing structures the paper's experiments manipulate:
//!
//! * a fetch front end with group formation (up to five instructions per
//!   dispatch group, one branch per group — the POWER5 rule that caps
//!   commit throughput at five per cycle),
//! * branch **direction** prediction ([`predictor`]: bimodal, gshare, or a
//!   POWER5-style tournament predictor) with a full pipeline-redirect
//!   penalty on misprediction,
//! * the POWER5's **2-cycle taken-branch bubble** (3 with SMT) and the
//!   paper's proposed 8-entry scored **BTAC** ([`btac`]) that removes it,
//! * a return-address stack, so branch-to-LR targets mispredict rarely
//!   (giving Table I's direction-vs-target misprediction split),
//! * configurable numbers of **fixed-point units** (2–4, paper Section
//!   VI-C), two load/store units, and a branch unit, with greedy
//!   earliest-slot scheduling and register-dependence tracking,
//! * an L1I/L1D/L2 **cache hierarchy** ([`cache`]) with LRU replacement,
//! * a reorder window sized in dispatch groups (20 × 5, as POWER5),
//! * hardware **performance counters** ([`counters`]) including a
//!   completion-stall (CPI-stack) breakdown and interval time series —
//!   the data behind the paper's Tables I–II and Figure 2,
//! * a SMARTS-style uniform sampling driver ([`machine::Machine::run_sampled`],
//!   paper's reference \[22\]).
//!
//! The simulator core is panic-free on guest misbehaviour: undecodable
//! words and bad memory accesses surface as a typed [`machine::Trap`],
//! runaway programs are cut off by [`machine::Watchdog`] budgets, the
//! complete machine state round-trips through [`machine::Checkpoint`]
//! for bit-exact resume, and [`fault`] provides a seeded fault-injection
//! plan with containment checking. The [`oracle`] module adds a
//! golden-model lockstep checker (a deliberately simple reference
//! interpreter compared against the fast path per committed
//! instruction, behind [`oracle::LockstepMode`]) and a divergence
//! shrinker that delta-debugs a mismatch down to a minimal window.
//!
//! # Example
//!
//! ```
//! use power5_sim::{config::CoreConfig, machine::Machine};
//!
//! let prog = ppc_asm::assemble("
//! entry:
//!     li r3, 0
//!     li r4, 100
//!     mtctr r4
//! loop:
//!     addi r3, r3, 1
//!     bdnz loop
//!     trap
//! ", 0x1000)?;
//! let mut m = Machine::new(CoreConfig::power5(), &prog.bytes, 0x1000, 0x1000, 0x100000);
//! let result = m.run_timed(u64::MAX)?;
//! assert!(result.halted);
//! assert_eq!(m.cpu().reg(ppc_isa::Gpr(3)), 100);
//! assert!(m.counters().cycles > 100);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btac;
pub mod cache;
pub mod config;
pub mod core;
pub mod counters;
pub mod fault;
mod fuse;
pub mod lanes;
pub mod machine;
pub mod oracle;
pub mod predictor;
pub mod telemetry;
pub mod trace;

pub use config::CoreConfig;
pub use core::StaticTiming;
pub use counters::{ClassCounts, Counters, StallBreakdown, StallClass};
pub use fault::{FaultKind, FaultPlan, FaultSpec, InjectionWindow, XorShift64};
pub use fuse::FusionStats;
pub use lanes::{run_batch_functional, BatchRun, LaneExit, LaneGang, LaneRun, LaneStats, Trunk};
pub use machine::{
    Checkpoint, Machine, RetireTally, RunResult, StopReason, Trap, TrapCause, Watchdog,
    WatchdogKind,
};
pub use oracle::{shrink_divergence, ArchField, Divergence, LockstepMode, Oracle, ShrunkRepro};
pub use telemetry::{GuestProfiler, Histogram, HotRegion, MetricsRegistry, ProfilerReport};
pub use trace::{SymbolMap, Tracer};
