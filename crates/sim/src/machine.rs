//! Program loading and simulation drivers.
//!
//! A [`Machine`] couples architectural state (CPU + memory) with the
//! [`TimingCore`]. Three drivers are provided:
//!
//! * [`Machine::run_functional`] — fast architectural execution only
//!   (SystemSim's "turbo mode");
//! * [`Machine::run_timed`] — full timing simulation;
//! * [`Machine::run_sampled`] — SMARTS-style uniform sampling: long
//!   functional fast-forward, a timed warm-up whose counters are
//!   discarded, and a short measured window, repeated across the program
//!   (the paper's Section V methodology).
//!
//! Guest misbehaviour — an undecodable word, an out-of-bounds or
//! misaligned access — surfaces as a typed [`Trap`] carrying the faulting
//! PC and cycle; a runaway kernel is cut off by the configurable
//! [`Watchdog`] and reported as a graceful [`StopReason::Watchdog`]
//! outcome. Neither path panics, which is what the fault-injection
//! harness ([`crate::fault`]) relies on. [`Machine::checkpoint`] /
//! [`Machine::restore`] serialize the complete simulation state for
//! bit-exact resume.

#![deny(clippy::unwrap_used)]

use crate::config::CoreConfig;
use crate::core::{CoreState, Retired, StaticTiming, TimingCore};
use crate::counters::{ClassCounts, Counters, StallBreakdown};
use crate::fuse::{self, DriveStop as FuseDriveStop, FusedCache, FusionStats};
use crate::oracle::{Divergence, Lockstep, LockstepMode};
use crate::telemetry::GuestProfiler;
use crate::trace::{self, JsonlSink, PipeViewSink, RingSink, SymbolMap, Tracer};
use ppc_isa::exec::MemFault;
use ppc_isa::reg::CondReg;
use ppc_isa::{decode, step, CpuState, Instruction, Memory};
use std::fmt;

/// Which watchdog budget expired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogKind {
    /// The cycle budget (timed runs only).
    Cycles,
    /// The committed-instruction budget.
    Instructions,
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The program executed `trap`.
    Halted,
    /// The instruction budget passed to the run call was exhausted.
    Budget,
    /// A [`Watchdog`] budget expired — the graceful "Timeout" outcome for
    /// runaway kernels; counters and heatmaps remain readable.
    Watchdog(WatchdogKind),
    /// The lockstep oracle caught the fast path disagreeing with the
    /// reference semantics; the [`Divergence`] record is available from
    /// [`Machine::take_divergence`]. Only possible when a
    /// non-[`LockstepMode::Off`] mode is installed.
    Diverged,
}

/// Result of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Instructions executed during this call.
    pub executed: u64,
    /// Whether the program hit `trap`.
    pub halted: bool,
    /// Why the run returned.
    pub stop: StopReason,
}

/// Instructions a machine retired on each timed path, across all
/// `run_timed` calls: [`Machine::run_timed`] takes the batched path
/// unless a tracer pins it to the per-instruction reference loop or a
/// lockstep oracle sends it to the checked loop. Harness state, like the
/// tracer: excluded from checkpoints and untouched by restore.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetireTally {
    /// Retired by the block-batched loop.
    pub batched: u64,
    /// Retired by the per-instruction reference loop.
    pub pinned: u64,
    /// Retired by the lockstep-checked loop.
    pub checked: u64,
}

impl RetireTally {
    /// Instructions retired off the batched path.
    pub fn off_batched(&self) -> u64 {
        self.pinned + self.checked
    }
}

/// What raised a [`Trap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapCause {
    /// Data access fault (out-of-bounds or misaligned).
    Mem(MemFault),
    /// The PC points at a word that does not decode.
    BadInstruction,
    /// The PC itself is not 4-byte aligned, so there is no instruction
    /// word to decode in the first place.
    MisalignedFetch,
}

/// A program-check trap: the typed, recoverable outcome of guest
/// misbehaviour, reported with the faulting PC and the cycle it was
/// detected at (0 in functional mode, where no clock advances).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trap {
    /// What went wrong.
    pub cause: TrapCause,
    /// The PC of the faulting instruction.
    pub pc: u32,
    /// Cycle count when the trap was detected.
    pub cycle: u64,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.cause {
            TrapCause::Mem(m) => {
                write!(f, "trap at pc {:#010x}, cycle {}: {m}", self.pc, self.cycle)
            }
            TrapCause::BadInstruction => {
                write!(
                    f,
                    "trap at pc {:#010x}, cycle {}: undecodable instruction",
                    self.pc, self.cycle
                )
            }
            TrapCause::MisalignedFetch => {
                write!(
                    f,
                    "trap at pc {:#010x}, cycle {}: misaligned fetch address",
                    self.pc, self.cycle
                )
            }
        }
    }
}

impl std::error::Error for Trap {}

/// Cycle/instruction watchdog budgets. `None` disables a budget. The
/// cycle budget is only checked in timed runs (functional mode has no
/// clock); the instruction budget counts instructions executed across
/// *all* run calls on the machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Watchdog {
    /// Stop once the cycle counter passes this value.
    pub max_cycles: Option<u64>,
    /// Stop once the lifetime instruction count passes this value.
    pub max_instructions: Option<u64>,
}

/// SMARTS-style sampling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Distance between measurement windows, in instructions.
    pub period: u64,
    /// Timed warm-up instructions before each window (counters discarded).
    pub warmup: u64,
    /// Measured instructions per window.
    pub detail: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig { period: 100_000, warmup: 2_000, detail: 1_000 }
    }
}

/// Estimates produced by a sampled run.
#[derive(Debug, Clone)]
pub struct SampledRun {
    /// Counters accumulated over the measured windows only.
    pub measured: Counters,
    /// Total instructions executed (all modes).
    pub total_instructions: u64,
    /// Estimated total cycles (measured CPI × total instructions).
    pub estimated_cycles: u64,
    /// Whether the program halted.
    pub halted: bool,
    /// Why the run returned.
    pub stop: StopReason,
}

impl SampledRun {
    /// The IPC estimate from the measured windows.
    pub fn ipc(&self) -> f64 {
        self.measured.ipc()
    }
}

/// A region of PCs attributed to one function for profiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRegion {
    /// Function name.
    pub name: String,
    /// First byte address (inclusive).
    pub start: u32,
    /// Last byte address (exclusive).
    pub end: u32,
}

/// Per-function attribution state: the regions and, for each, the
/// `(cycles, instructions)` charged so far.
type ProfileState = (Vec<ProfileRegion>, Vec<(u64, u64)>);

/// Checkpoint memory-page granularity: all-zero pages are elided.
const PAGE: usize = 4096;

/// Complete serializable simulation state, produced by
/// [`Machine::checkpoint`] and reinstalled by [`Machine::restore`].
/// Resuming from a checkpoint is bit-exact: a run of `N` instructions
/// equals a run of `k`, a checkpoint/restore, and a run of `N - k`.
///
/// The tracer and symbol table are deliberately excluded (live I/O and
/// presentation-only data); the restoring machine keeps its own.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// FNV-1a digest of the [`CoreConfig`], guarding against restoring
    /// into a differently-configured machine.
    pub config_digest: u64,
    /// General-purpose registers.
    pub gpr: [u32; 32],
    /// Condition register.
    pub cr: u32,
    /// Link register.
    pub lr: u32,
    /// Count register.
    pub ctr: u32,
    /// Program counter.
    pub pc: u32,
    /// Simulated memory size in bytes.
    pub mem_size: usize,
    /// Sparse memory image: `(base_address, bytes)` per nonzero 4 KiB page.
    pub pages: Vec<(u32, Vec<u8>)>,
    /// Base address of the pre-decoded code region.
    pub code_base: u32,
    /// Length of the decode table in words (rebuilt on restore by
    /// re-decoding memory, so injected code faults survive the round
    /// trip).
    pub code_len: usize,
    /// Whether the program had halted.
    pub halted: bool,
    /// Lifetime committed-instruction count.
    pub insns_total: u64,
    /// Watchdog budgets in effect.
    pub watchdog: Watchdog,
    /// Per-function attribution state, if profiling was enabled.
    pub profile: Option<ProfileState>,
    /// Last commit cycle charged to a profile region.
    pub last_commit_seen: u64,
    /// The timing core's complete microarchitectural state.
    pub core: CoreState,
}

/// FNV-1a digest of a core configuration's debug rendering; guards
/// [`Machine::restore`] against configuration mismatches.
pub fn config_digest(cfg: &CoreConfig) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{cfg:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Sentinel stored in invalid decode slots. Never executed: the run
/// loops consult `run_len` first, and a zero run length routes to the
/// [`TrapCause::BadInstruction`] path without touching `decoded`.
const INVALID_SLOT: Instruction = Instruction::Trap;

/// Region-index sentinel: this code word belongs to no profile region.
const NO_REGION: u32 = u32::MAX;

/// Whether `insn` ends a straight-line run (control may leave the
/// fall-through path after it).
fn is_block_terminator(insn: &Instruction) -> bool {
    insn.is_branch() || matches!(insn, Instruction::Trap)
}

/// Build the dense decode table and the basic-block run-length table
/// from per-word decode results.
///
/// `run_len[i]` is the number of instructions that can be executed
/// starting at slot `i` before control can leave the fall-through path:
/// `0` marks an undecodable word, a branch or `trap` counts as `1`, and
/// a straight-line instruction extends the run that follows it. The run
/// loops use it to dispatch whole blocks without per-instruction fetch
/// checks; a zero is the illegal-instruction sentinel that keeps the
/// hit path free of `Option` tests.
fn code_tables(slots: &[Option<Instruction>]) -> (Vec<Instruction>, Vec<u32>) {
    let decoded: Vec<Instruction> = slots.iter().map(|s| s.unwrap_or(INVALID_SLOT)).collect();
    let mut run_len = vec![0u32; slots.len()];
    for i in (0..slots.len()).rev() {
        run_len[i] = match &slots[i] {
            None => 0,
            Some(insn) if is_block_terminator(insn) => 1,
            Some(_) => 1 + run_len.get(i + 1).copied().unwrap_or(0),
        };
    }
    (decoded, run_len)
}

/// Build the static timing sidecar and the per-class counter prefix sums
/// over the decoded image. `prefix[i]` holds the summed class counts of
/// slots `0..i`, so a block execution spanning slots `[i, i+n)` folds its
/// per-class counter increments with a single subtraction at block exit
/// instead of per-instruction increments.
fn timing_tables(decoded: &[Instruction]) -> (Vec<StaticTiming>, Vec<ClassCounts>) {
    let timing: Vec<StaticTiming> = decoded.iter().map(StaticTiming::of).collect();
    let mut prefix = Vec::with_capacity(decoded.len() + 1);
    let mut acc = ClassCounts::default();
    prefix.push(acc);
    for t in &timing {
        acc.add(&t.class_counts());
        prefix.push(acc);
    }
    (timing, prefix)
}

/// A loaded program plus simulation state.
pub struct Machine {
    cpu: CpuState,
    mem: Memory,
    core: TimingCore,
    /// Pre-decoded image (indexed by `(pc - base) / 4`). Invalid words
    /// hold [`INVALID_SLOT`] and are guarded by a zero in `run_len`, so
    /// the fetch hit path reads the instruction with no `Option` test.
    decoded: Vec<Instruction>,
    /// Straight-line run length per slot (see [`code_tables`]); `0`
    /// marks an undecodable word.
    run_len: Vec<u32>,
    /// Static timing sidecar, parallel to `decoded` (see
    /// [`StaticTiming`]); rebuilt together with the decode table.
    timing: Vec<StaticTiming>,
    /// Per-class counter prefix sums over the image (see
    /// [`timing_tables`]); `decoded.len() + 1` entries.
    class_prefix: Vec<ClassCounts>,
    code_base: u32,
    halted: bool,
    /// Optional per-function cycle/instruction attribution.
    profile: Option<ProfileState>,
    /// Dense per-code-word region index ([`NO_REGION`] = unattributed);
    /// rebuilt whenever the regions or the code image change.
    region_index: Vec<u32>,
    /// Per code word, how many consecutive words from it share its
    /// `region_index` entry; the batched loop cuts its segments there.
    region_run: Vec<u32>,
    last_commit_seen: u64,
    /// Optional symbol table for symbolized heatmaps and trace dumps.
    symbols: Option<SymbolMap>,
    /// Instructions executed across all run calls (watchdog bookkeeping).
    insns_total: u64,
    watchdog: Watchdog,
    /// Lockstep oracle checker (`None` = [`LockstepMode::Off`]). Like
    /// the tracer, harness state: excluded from checkpoints.
    lockstep: Option<Lockstep>,
    /// Guest sampling profiler (`None` = disabled; one pointer test per
    /// retired block). Harness state: excluded from checkpoints.
    profiler: Option<Box<GuestProfiler>>,
    /// Lazily-compiled fused superinstruction blocks (DESIGN §16),
    /// parallel to `decoded`. Derived state: cleared whenever the
    /// decode table changes and excluded from checkpoints.
    fused: FusedCache,
    /// Whether `run_functional` dispatches through the fused
    /// direct-threaded tier (on by default; [`Machine::set_fusion`]).
    fusion_enabled: bool,
    /// Fusion-bug injection hook: PC of a pair's second constituent to
    /// compile deliberately wrong ([`Machine::inject_fusion_bug`]).
    fusion_sabotage: Option<u32>,
    /// Instructions retired per timed path (harness state).
    retired: RetireTally,
}

impl Machine {
    /// Create a machine with `image` loaded at `base`, starting execution
    /// at `entry`, with `mem_size` bytes of simulated memory.
    ///
    /// The image is pre-decoded at load time; executing self-modifying
    /// code is not supported.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit below `mem_size`. Production
    /// callers that load untrusted layouts should use
    /// [`Machine::try_new`].
    pub fn new(cfg: CoreConfig, image: &[u8], base: u32, entry: u32, mem_size: usize) -> Self {
        Self::try_new(cfg, image, base, entry, mem_size)
            .expect("program image must fit in simulated memory")
    }

    /// Like [`Machine::new`], but an image that does not fit in memory is
    /// reported as a typed [`MemFault`] instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns the out-of-bounds [`MemFault`] when the image does not fit
    /// below `mem_size`.
    pub fn try_new(
        cfg: CoreConfig,
        image: &[u8],
        base: u32,
        entry: u32,
        mem_size: usize,
    ) -> Result<Self, MemFault> {
        let mut mem = Memory::new(mem_size);
        mem.write_bytes(base, image)?;
        let slots: Vec<Option<Instruction>> = image
            .chunks(4)
            .map(|c| {
                if c.len() == 4 {
                    decode(u32::from_le_bytes(c.try_into().expect("4 bytes"))).ok()
                } else {
                    None
                }
            })
            .collect();
        let (decoded, run_len) = code_tables(&slots);
        let (timing, class_prefix) = timing_tables(&decoded);
        let mut core = TimingCore::new(cfg);
        core.set_code_region(base, decoded.len());
        let fused = FusedCache::new(decoded.len());
        Ok(Machine {
            cpu: CpuState::new(entry),
            mem,
            core,
            decoded,
            run_len,
            timing,
            class_prefix,
            code_base: base,
            halted: false,
            profile: None,
            region_index: Vec::new(),
            region_run: Vec::new(),
            last_commit_seen: 0,
            symbols: None,
            insns_total: 0,
            watchdog: Watchdog::default(),
            lockstep: None,
            profiler: None,
            fused,
            fusion_enabled: true,
            fusion_sabotage: None,
            retired: RetireTally::default(),
        })
    }

    /// Install a guest sampling profiler attributing one sample per
    /// `period` retired instructions to the retiring basic block's start
    /// PC (see [`GuestProfiler`]). Replaces any previous profiler.
    /// Profiler state is harness state — like the tracer and the
    /// lockstep oracle it is excluded from [`Machine::checkpoint`].
    pub fn set_sampling_profiler(&mut self, period: u64) {
        self.profiler = Some(Box::new(GuestProfiler::new(period)));
        // Hammock superinstructions change profiler block boundaries,
        // so they are only legal while no profiler is attached; drop
        // any blocks compiled under the other setting.
        self.fused.clear();
    }

    /// Remove and return the sampling profiler, disabling sampling and
    /// restoring the untouched fast paths.
    pub fn take_profiler(&mut self) -> Option<Box<GuestProfiler>> {
        self.fused.clear();
        self.profiler.take()
    }

    /// The installed sampling profiler, if any.
    pub fn profiler(&self) -> Option<&GuestProfiler> {
        self.profiler.as_deref()
    }

    /// Install a lockstep verification mode (see [`LockstepMode`]).
    /// [`LockstepMode::Off`] removes the checker entirely, restoring the
    /// untouched fast run loops; any previously recorded divergence is
    /// discarded.
    pub fn set_lockstep(&mut self, mode: LockstepMode) {
        self.lockstep = Lockstep::new(mode);
    }

    /// The active lockstep mode.
    pub fn lockstep_mode(&self) -> LockstepMode {
        self.lockstep.as_ref().map_or(LockstepMode::Off, Lockstep::mode)
    }

    /// Remove and return the divergence recorded by the last run that
    /// stopped with [`StopReason::Diverged`].
    pub fn take_divergence(&mut self) -> Option<Divergence> {
        self.lockstep.as_mut().and_then(Lockstep::take_divergence)
    }

    /// Install `insn` in the pre-decoded table at `pc` *without*
    /// touching the backing memory — a model of a fast-path pre-decode
    /// defect (the class of bug the lockstep oracle exists to catch:
    /// the oracle fetches and decodes the raw memory word, so it sees
    /// the correct instruction while the fast path executes the wrong
    /// one). Returns `false` when `pc` is outside the code region.
    ///
    /// Note that [`Machine::restore`] rebuilds the decode table from
    /// memory and therefore silently repairs an injected decode bug;
    /// triage flows must re-apply it after every restore (see
    /// [`crate::oracle::shrink_divergence`]).
    pub fn inject_decode_bug(&mut self, pc: u32, insn: Instruction) -> bool {
        let idx = pc.wrapping_sub(self.code_base) as usize / 4;
        if !pc.is_multiple_of(4) || idx >= self.decoded.len() {
            return false;
        }
        self.patch_code_slot(idx, Some(insn));
        true
    }

    /// Enable or disable the fused direct-threaded functional tier
    /// (DESIGN §16). On by default; disabling falls back to the scalar
    /// per-instruction block loop, which is architecturally identical —
    /// the toggle exists for A/B throughput measurement and for the
    /// fusion-legality tests. Compiled blocks are dropped on any
    /// change of setting.
    pub fn set_fusion(&mut self, enabled: bool) {
        if self.fusion_enabled != enabled {
            self.fused.clear();
        }
        self.fusion_enabled = enabled;
    }

    /// Whether the fused functional tier is enabled.
    pub fn fusion_enabled(&self) -> bool {
        self.fusion_enabled
    }

    /// Fused-tier throughput counters accumulated across run calls
    /// (unchecked functional runs; the lockstep-checked loop verifies
    /// fused ops but does not count toward these).
    pub fn fusion_stats(&self) -> FusionStats {
        self.fused.stats()
    }

    /// Compile the fusion pair whose *second* constituent sits at `pc`
    /// deliberately wrong — a `cmp`+branch pair gets its branch sense
    /// inverted, a `cmp`+`isel` pair gets its select arms swapped —
    /// modelling a broken fusion rule for the lockstep oracle to catch
    /// (the fused-tier analogue of [`Machine::inject_decode_bug`]).
    /// Returns `false` when `pc` is outside the code region.
    ///
    /// Like a decode bug, [`Machine::restore`] silently repairs it
    /// (the cache is rebuilt clean); triage flows must re-apply it
    /// after every restore.
    pub fn inject_fusion_bug(&mut self, pc: u32) -> bool {
        let idx = pc.wrapping_sub(self.code_base) as usize / 4;
        if !pc.is_multiple_of(4) || idx >= self.decoded.len() {
            return false;
        }
        self.fusion_sabotage = Some(pc);
        self.fused.clear();
        true
    }

    /// Install watchdog budgets (see [`Watchdog`]). A budget that is
    /// already exceeded makes the next run call return immediately with
    /// [`StopReason::Watchdog`].
    pub fn set_watchdog(&mut self, watchdog: Watchdog) {
        self.watchdog = watchdog;
    }

    /// The active watchdog budgets.
    pub fn watchdog(&self) -> Watchdog {
        self.watchdog
    }

    /// Instructions executed across all run calls on this machine.
    pub fn insns_total(&self) -> u64 {
        self.insns_total
    }

    /// Instructions retired on each timed path so far (see
    /// [`RetireTally`]).
    pub fn retire_tally(&self) -> RetireTally {
        self.retired
    }

    /// Split borrow of the architectural state for the lane gang
    /// (DESIGN §18): the gang steps `cpu`/`mem` op-major across lanes
    /// while the decode tables and fused cache stay shared gang-side.
    #[inline]
    pub(crate) fn lane_state(&mut self) -> (&mut CpuState, &mut Memory) {
        (&mut self.cpu, &mut self.mem)
    }

    /// The derived tables a gang shares across lanes: decode table,
    /// run-length sidecar, and the code base address.
    pub(crate) fn lane_tables(&self) -> (&[Instruction], &[u32], u32) {
        (&self.decoded, &self.run_len, self.code_base)
    }

    /// Credit `n` gang-retired instructions to this lane's lifetime
    /// count, exactly as the scalar run loops do per block.
    #[inline]
    pub(crate) fn lane_note_retired(&mut self, n: u64) {
        self.insns_total += n;
    }

    /// Mark the lane halted (a `trap` retired inside the gang).
    #[inline]
    pub(crate) fn lane_set_halted(&mut self) {
        self.halted = true;
    }

    /// Why this machine cannot join a lane gang, if anything: the gang
    /// runs the unchecked fused path only, so per-instruction harness
    /// state (oracle, guest profiler, armed sabotage) forces the scalar
    /// path instead.
    pub(crate) fn lane_gang_blocker(&self) -> Option<&'static str> {
        if self.lockstep.is_some() {
            Some("lockstep oracle attached")
        } else if self.profiler.is_some() {
            Some("guest profiler attached")
        } else if self.fusion_sabotage.is_some() {
            Some("fusion sabotage armed")
        } else {
            None
        }
    }

    /// Enable per-function profiling over the given regions. Committed
    /// instructions and commit-cycle deltas are attributed to the region
    /// containing their PC.
    pub fn set_profile_regions(&mut self, regions: Vec<ProfileRegion>) {
        let n = regions.len();
        self.profile = Some((regions, vec![(0, 0); n]));
        self.rebuild_region_index();
    }

    /// Recompute the dense PC→region table from the active profile
    /// regions: one entry per code word, holding the index of the first
    /// region containing it (matching the linear first-match scan this
    /// table replaces on the retire path), plus the same-region run
    /// length per word.
    fn rebuild_region_index(&mut self) {
        self.region_index = match &self.profile {
            None => Vec::new(),
            Some((regions, _)) => (0..self.decoded.len())
                .map(|i| {
                    let pc = self.code_base.wrapping_add((i as u32) * 4);
                    regions
                        .iter()
                        .position(|r| pc >= r.start && pc < r.end)
                        .map_or(NO_REGION, |p| p as u32)
                })
                .collect(),
        };
        let index = &self.region_index;
        let mut run = vec![0u32; index.len()];
        for i in (0..index.len()).rev() {
            run[i] = match index.get(i + 1) {
                Some(&next) if next == index[i] => 1 + run[i + 1],
                _ => 1,
            };
        }
        self.region_run = run;
    }

    /// Profiling results as `(name, instructions, cycles)`, in region
    /// order. Empty when profiling was never enabled.
    pub fn profile_results(&self) -> Vec<(String, u64, u64)> {
        match &self.profile {
            None => Vec::new(),
            Some((regions, counts)) => {
                regions.iter().zip(counts).map(|(r, &(i, c))| (r.name.clone(), i, c)).collect()
            }
        }
    }

    /// Architectural CPU state.
    pub fn cpu(&self) -> &CpuState {
        &self.cpu
    }

    /// Mutable CPU state (for setting up kernel arguments in registers).
    pub fn cpu_mut(&mut self) -> &mut CpuState {
        &mut self.cpu
    }

    /// Simulated memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable simulated memory (for serializing workload inputs).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Timing counters accumulated so far.
    pub fn counters(&self) -> Counters {
        self.core.counters()
    }

    /// Whether the program has executed `trap`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Enable Figure-2-style interval sampling (committed instructions per
    /// sample point).
    pub fn set_interval_sampling(&mut self, insns: u64) {
        self.core.set_interval_sampling(insns);
    }

    /// Enable per-PC conditional-branch statistics.
    pub fn set_branch_site_profiling(&mut self, on: bool) {
        self.core.set_branch_site_profiling(on);
    }

    /// Per-PC branch statistics, sorted by mispredictions (largest first).
    /// Empty unless [`Machine::set_branch_site_profiling`] was enabled.
    pub fn branch_sites(&self) -> Vec<(u32, crate::core::BranchSite)> {
        self.core.branch_sites()
    }

    /// Enable per-PC attribution of every stall class (see
    /// [`crate::core::TimingCore::set_stall_site_profiling`]).
    pub fn set_stall_site_profiling(&mut self, on: bool) {
        self.core.set_stall_site_profiling(on);
    }

    /// Per-PC stall breakdowns, hottest site first. Empty unless
    /// [`Machine::set_stall_site_profiling`] was enabled.
    pub fn stall_sites(&self) -> Vec<(u32, StallBreakdown)> {
        self.core.stall_sites()
    }

    /// Install a symbol table (from `ppc-asm`'s `Assembled::symbol_table`)
    /// so heatmaps and trace dumps print `function+offset`.
    pub fn set_symbols(&mut self, symbols: SymbolMap) {
        self.symbols = Some(symbols);
    }

    /// The installed symbol table, if any.
    pub fn symbols(&self) -> Option<&SymbolMap> {
        self.symbols.as_ref()
    }

    /// Render the per-PC stall heatmap (top `top` sites), symbolized when a
    /// symbol table was installed. Empty output unless
    /// [`Machine::set_stall_site_profiling`] was enabled.
    pub fn stall_heatmap(&self, top: usize) -> String {
        trace::render_stall_heatmap(&self.stall_sites(), self.symbols.as_ref(), top)
    }

    /// Install a pipeline event tracer ([`Tracer::Off`] disables tracing).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.core.set_tracer(tracer);
    }

    /// Trace the last `n` committed instructions into a ring buffer
    /// (post-mortem dumps; replaces any previous tracer).
    pub fn trace_last(&mut self, n: usize) {
        self.core.set_tracer(Tracer::Ring(RingSink::new(n)));
    }

    /// Stream gem5-O3-pipeview-style text to `out` (replaces any previous
    /// tracer).
    pub fn trace_pipeview(&mut self, out: impl std::io::Write + 'static) {
        self.core.set_tracer(Tracer::PipeView(PipeViewSink::new(Box::new(out))));
    }

    /// Stream JSONL records to `out` (replaces any previous tracer).
    pub fn trace_jsonl(&mut self, out: impl std::io::Write + 'static) {
        self.core.set_tracer(Tracer::Jsonl(JsonlSink::new(Box::new(out))));
    }

    /// The active tracer.
    pub fn tracer(&self) -> &Tracer {
        self.core.tracer()
    }

    /// Mutable access to the active tracer (e.g. to flush it).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        self.core.tracer_mut()
    }

    /// Remove and return the active tracer, disabling tracing. Flush the
    /// returned tracer with [`Tracer::finish`] to surface deferred I/O
    /// errors.
    pub fn take_tracer(&mut self) -> Tracer {
        self.core.take_tracer()
    }

    /// Construct a [`Trap`] at `pc`, stamped with the core's current
    /// commit cycle (0 when no timed run has advanced the clock).
    fn trap(&self, cause: TrapCause, pc: u32) -> Trap {
        Trap { cause, pc, cycle: self.core.counters().cycles }
    }

    /// Whether the lifetime instruction budget has expired.
    fn insn_budget_expired(&self) -> bool {
        self.watchdog.max_instructions.is_some_and(|limit| self.insns_total >= limit)
    }

    /// Resolve `pc` against the dense pre-decoded table: the slot index
    /// and the straight-line run length starting there. Misalignment is
    /// checked *before* any index arithmetic and reported as its own
    /// [`TrapCause::MisalignedFetch`]; an in-range but undecodable word
    /// (run length `0`) and an out-of-image PC both stay
    /// [`TrapCause::BadInstruction`].
    #[inline]
    fn fetch_decode(&self, pc: u32) -> Result<(usize, u32), Trap> {
        if !pc.is_multiple_of(4) {
            return Err(self.trap(TrapCause::MisalignedFetch, pc));
        }
        let idx = (pc.wrapping_sub(self.code_base) / 4) as usize;
        match self.run_len.get(idx) {
            Some(&run) if run > 0 => Ok((idx, run)),
            _ => Err(self.trap(TrapCause::BadInstruction, pc)),
        }
    }

    /// How many instructions of a run of length `run` may execute before
    /// the caller's budget or the instruction watchdog must be rechecked.
    /// The watchdog was checked non-expired just before, so the remaining
    /// allowance is at least one instruction.
    #[inline]
    fn block_quota(&self, run: u32, remaining_budget: u64) -> u64 {
        let mut n = u64::from(run).min(remaining_budget);
        if let Some(limit) = self.watchdog.max_instructions {
            n = n.min(limit - self.insns_total);
        }
        n
    }

    /// Run functionally (no timing) for at most `max_insns` instructions.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on memory faults or undecodable instructions.
    pub fn run_functional(&mut self, max_insns: u64) -> Result<RunResult, Trap> {
        if self.lockstep.is_some() {
            // Lockstep checking runs in its own per-instruction loop so
            // this hot path stays untouched when the mode is Off.
            return self.run_functional_checked(max_insns);
        }
        let mut executed = 0;
        let mut stop = StopReason::Budget;
        'blocks: while executed < max_insns && !self.halted {
            if self.insn_budget_expired() {
                stop = StopReason::Watchdog(WatchdogKind::Instructions);
                break;
            }
            if self.fusion_enabled {
                // Fused direct-threaded tier (DESIGN §16): hand the PC
                // to the fused dispatch loop, which compiles blocks on
                // first dispatch and executes their superinstruction
                // arrays back to back without per-instruction fetch or
                // match. It returns for anything needing the slow path:
                // traps, halts, self-modifying stores, and blocks whose
                // full retire bound no longer fits the remaining
                // budget/watchdog allowance (those run scalar below, so
                // mid-block budget cuts land exactly where the scalar
                // loop puts them).
                let mut allowance = max_insns - executed;
                if let Some(limit) = self.watchdog.max_instructions {
                    allowance = allowance.min(limit - self.insns_total);
                }
                let Machine {
                    cpu,
                    mem,
                    fused,
                    decoded,
                    run_len,
                    profiler,
                    fusion_sabotage,
                    code_base,
                    ..
                } = &mut *self;
                let dr = fused.drive(
                    cpu,
                    mem,
                    decoded,
                    run_len,
                    *code_base,
                    profiler.is_none(),
                    *fusion_sabotage,
                    allowance,
                    profiler.as_deref_mut(),
                );
                executed += dr.executed;
                self.insns_total += dr.executed;
                match dr.stop {
                    FuseDriveStop::Fault(f) => {
                        // Like the scalar loop: prior retires stay
                        // counted in `insns_total`, no profiler flush,
                        // and the trap carries the faulting PC (already
                        // parked by the fused executor).
                        let pc = self.cpu.pc;
                        return Err(self.trap(TrapCause::Mem(f), pc));
                    }
                    FuseDriveStop::Halted => {
                        self.halted = true;
                        continue 'blocks;
                    }
                    FuseDriveStop::StoredCode { addr, width } => {
                        self.repair_stored_code(addr, width);
                        continue 'blocks;
                    }
                    FuseDriveStop::Refetch => {
                        if executed >= max_insns || self.insn_budget_expired() {
                            continue 'blocks;
                        }
                        self.fused.note_scalar_block();
                    }
                }
            }
            // Dispatch one straight-line block: within it the PC only
            // ever advances by 4 (the terminator, if any, is the last
            // instruction of the run), so fetch, alignment, and budget
            // checks are hoisted to the block boundary.
            let (idx, run) = self.fetch_decode(self.cpu.pc)?;
            let quota = self.block_quota(run, max_insns - executed);
            let block_pc = self.cpu.pc;
            let block_start = executed;
            for k in 0..quota as usize {
                let pc = self.cpu.pc;
                let insn = self.decoded[idx + k];
                let ev = step(&mut self.cpu, &mut self.mem, &insn)
                    .map_err(|m| self.trap(TrapCause::Mem(m), pc))?;
                executed += 1;
                self.insns_total += 1;
                if ev.halted {
                    self.halted = true;
                    break;
                }
                if let Some((addr, width, true)) = ev.mem {
                    if self.repair_stored_code(addr, width) {
                        // The decode tables just changed: drop the rest
                        // of the block quota and re-fetch at the
                        // already-advanced PC.
                        if let Some(p) = &mut self.profiler {
                            p.on_block(block_pc, (executed - block_start) as u32);
                        }
                        continue 'blocks;
                    }
                }
            }
            if let Some(p) = &mut self.profiler {
                p.on_block(block_pc, (executed - block_start) as u32);
            }
        }
        if self.halted {
            stop = StopReason::Halted;
        }
        Ok(RunResult { executed, halted: self.halted, stop })
    }

    /// Run with full timing for at most `max_insns` instructions.
    ///
    /// Dispatches to the block-batched retire loop unless a lockstep
    /// oracle is attached (the checked loop) or a tracer needs one record
    /// per instruction (the per-instruction reference loop,
    /// [`Machine::run_timed_pinned`]). Per-function profiling, interval
    /// sampling, the cycle watchdog, and the guest sampling profiler all
    /// run batched. Every path drives the same pipeline scheduler and is
    /// cycle-exact to the others: identical counters, profiles, interval
    /// series, stall partitions, site heatmaps, and checkpoints.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on memory faults or undecodable instructions.
    pub fn run_timed(&mut self, max_insns: u64) -> Result<RunResult, Trap> {
        if self.lockstep.is_some() {
            // See `run_functional`: the checked loop is separate.
            return self.run_timed_checked(max_insns);
        }
        if self.core.needs_per_insn_retire() {
            return self.run_timed_pinned(max_insns);
        }
        self.run_timed_batched(max_insns)
    }

    /// The per-instruction timed loop: every retirement folds its own
    /// counters and runs its own watchdog/profiling checks. This is the
    /// reference the batched path must match bit-for-bit (the
    /// cycle-exactness tests pin one side of the comparison to it), and
    /// the path [`Machine::run_timed`] takes while a tracer is attached.
    /// With a lockstep oracle installed it defers to the checked loop,
    /// exactly like [`Machine::run_timed`].
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on memory faults or undecodable instructions.
    pub fn run_timed_pinned(&mut self, max_insns: u64) -> Result<RunResult, Trap> {
        if self.lockstep.is_some() {
            return self.run_timed_checked(max_insns);
        }
        let mut executed = 0;
        let mut stop = StopReason::Budget;
        let max_cycles = self.watchdog.max_cycles;
        let profiling = self.profile.is_some();
        'blocks: while executed < max_insns && !self.halted {
            if self.insn_budget_expired() {
                stop = StopReason::Watchdog(WatchdogKind::Instructions);
                break;
            }
            // Block dispatch, as in `run_functional`; see there.
            let (idx, run) = self.fetch_decode(self.cpu.pc)?;
            let quota = self.block_quota(run, max_insns - executed);
            let block_pc = self.cpu.pc;
            let block_start = executed;
            for k in 0..quota as usize {
                let pc = self.cpu.pc;
                let insn = self.decoded[idx + k];
                let ev = step(&mut self.cpu, &mut self.mem, &insn)
                    .map_err(|m| self.trap(TrapCause::Mem(m), pc))?;
                let commit = self.core.retire(Retired { insn: &insn, pc, event: ev });
                if profiling {
                    self.attribute_profile(idx + k, 1, commit);
                }
                executed += 1;
                self.insns_total += 1;
                self.retired.pinned += 1;
                if ev.halted {
                    self.halted = true;
                    break;
                }
                // Repair before the watchdog stop: a code-patching store
                // that crosses the cycle limit must leave the decode
                // tables matching memory, as a restore would rebuild them.
                let repaired = match ev.mem {
                    Some((addr, width, true)) => self.repair_stored_code(addr, width),
                    _ => false,
                };
                if max_cycles.is_some_and(|limit| commit >= limit) {
                    stop = StopReason::Watchdog(WatchdogKind::Cycles);
                    self.sample_block_timed(block_pc, executed - block_start);
                    break 'blocks;
                }
                if repaired {
                    // See `run_functional`: re-fetch after the tables
                    // changed.
                    self.sample_block_timed(block_pc, executed - block_start);
                    continue 'blocks;
                }
            }
            self.sample_block_timed(block_pc, executed - block_start);
        }
        if self.halted {
            stop = StopReason::Halted;
        }
        Ok(RunResult { executed, halted: self.halted, stop })
    }

    /// Feed one retired block to the sampling profiler (timed paths):
    /// the block's start PC, retired length, and the core's last commit
    /// cycle. A single `Option` test per block when disabled.
    #[inline]
    fn sample_block_timed(&mut self, block_pc: u32, len: u64) {
        if let Some(p) = &mut self.profiler {
            let commit = self.core.last_commit();
            p.on_block_timed(block_pc, len as u32, commit);
        }
    }

    /// Retire bookkeeping for one batched segment of `n` just-executed
    /// instructions from slots `[idx, idx + n)`: fold their per-class
    /// counters via the sidecar's prefix sums (pushing the interval
    /// sample when the segment ends on an edge), charge them to their
    /// profile region, and count them. Must run against the same decode
    /// tables those instructions were executed from (i.e. *before* any
    /// repair), and before a trap is built so it carries the current
    /// cycle count.
    #[inline]
    fn flush_segment(&mut self, idx: usize, n: usize) {
        if n == 0 {
            return;
        }
        let d = self.class_prefix[idx + n].minus(&self.class_prefix[idx]);
        self.core.flush_block(d);
        if self.profile.is_some() {
            self.attribute_profile(idx, n as u64, self.core.last_commit());
        }
        self.insns_total += n as u64;
        self.retired.batched += n as u64;
    }

    /// The block-batched timed loop. Each dispatch block retires through
    /// the precomputed [`StaticTiming`] sidecar in one or more
    /// *segments*: a segment ends at the block's quota, at a profile
    /// region boundary, or at the next interval-sampling edge, so its
    /// per-class counters, region charge and interval sample are folded
    /// once at the segment's end (see [`Machine::flush_segment`]) with
    /// exactly the values the per-instruction loop produces. A trap, a
    /// halt, a self-modifying store, or a commit reaching the cycle
    /// watchdog cuts the segment early, on the same instruction the
    /// per-instruction loop stops at. The guest sampling profiler still
    /// sees one record per dispatch block.
    fn run_timed_batched(&mut self, max_insns: u64) -> Result<RunResult, Trap> {
        /// Why the segment loop stopped before exhausting its length.
        enum Cut {
            Length,
            Halt,
            Fault(MemFault, u32),
            StoredCode(u32, u32),
            Cycles,
        }
        let mut executed = 0;
        let mut stop = StopReason::Budget;
        let cycle_limit = self.watchdog.max_cycles.unwrap_or(u64::MAX);
        while executed < max_insns && !self.halted {
            if self.insn_budget_expired() {
                stop = StopReason::Watchdog(WatchdogKind::Instructions);
                break;
            }
            let (idx, run) = self.fetch_decode(self.cpu.pc)?;
            let quota = self.block_quota(run, max_insns - executed) as usize;
            let block_pc = self.cpu.pc;
            // Code-region bounds for the self-modifying-store check
            // (`store_touches_code`, inlined), read before `self` is
            // split into disjoint field borrows below.
            let code_lo = u64::from(self.code_base);
            let code_hi = code_lo + (self.decoded.len() as u64) * 4;
            let mut done = 0usize;
            let cut = loop {
                let seg = idx + done;
                let mut len = quota - done;
                if let Some(&same) = self.region_run.get(seg) {
                    len = len.min(same as usize);
                }
                len = len.min(usize::try_from(self.core.insns_to_interval_edge()).unwrap_or(len));
                // Split borrows: `step` mutates cpu/mem while the decode
                // and timing tables are read in lockstep. Iterating the
                // two slices zipped (instead of indexing per instruction)
                // drops the bounds checks and the sidecar copy from the
                // hot loop.
                let Machine { cpu, mem, core, decoded, timing, .. } = &mut *self;
                let mut n = 0usize;
                let mut cut = Cut::Length;
                for (insn, st) in decoded[seg..seg + len].iter().zip(&timing[seg..seg + len]) {
                    let pc = cpu.pc;
                    let ev = match step(cpu, mem, insn) {
                        Ok(ev) => ev,
                        Err(m) => {
                            cut = Cut::Fault(m, pc);
                            break;
                        }
                    };
                    let commit = core.retire_batched(st, pc, ev);
                    n += 1;
                    if ev.halted {
                        cut = Cut::Halt;
                        break;
                    }
                    if st.is_store() {
                        if let Some((addr, width, true)) = ev.mem {
                            let lo = u64::from(addr);
                            let hi = lo + u64::from(width.max(1)) - 1;
                            if lo < code_hi && hi >= code_lo {
                                cut = Cut::StoredCode(addr, width);
                                break;
                            }
                        }
                    }
                    if commit >= cycle_limit {
                        cut = Cut::Cycles;
                        break;
                    }
                }
                // Fold against the *pre-repair* prefix sums: a store may
                // patch an earlier, already-executed slot of this very
                // block.
                self.flush_segment(seg, n);
                done += n;
                match cut {
                    Cut::Length if done < quota => {}
                    cut => break cut,
                }
            };
            executed += done as u64;
            match cut {
                // Like the per-instruction loop, a trap skips the guest
                // profiler's block record.
                Cut::Fault(m, pc) => return Err(self.trap(TrapCause::Mem(m), pc)),
                Cut::Halt => self.halted = true,
                Cut::StoredCode(addr, width) => {
                    self.repair_stored_code(addr, width);
                }
                Cut::Cycles | Cut::Length => {}
            }
            self.sample_block_timed(block_pc, done as u64);
            // The last retired instruction is the first to reach the
            // cycle limit (the segment loop cuts there); stop after it,
            // and after a code-patching store's repair, as
            // `run_timed_pinned` does.
            if self.core.last_commit() >= cycle_limit {
                stop = StopReason::Watchdog(WatchdogKind::Cycles);
                break;
            }
        }
        if self.halted {
            stop = StopReason::Halted;
        }
        Ok(RunResult { executed, halted: self.halted, stop })
    }

    /// Functional run with lockstep verification: per-instruction
    /// dispatch (no block hoisting — correctness checking, not speed),
    /// with every commit the sampler selects re-derived by the oracle
    /// and compared. Architecturally identical to [`Machine::run_functional`]
    /// up to the first divergence, which stops the run with
    /// [`StopReason::Diverged`].
    fn run_functional_checked(&mut self, max_insns: u64) -> Result<RunResult, Trap> {
        let mut executed = 0;
        let mut stop = StopReason::Budget;
        let code_base = self.code_base;
        'run: while executed < max_insns && !self.halted {
            if self.insn_budget_expired() {
                stop = StopReason::Watchdog(WatchdogKind::Instructions);
                break;
            }
            let (idx, _run) = self.fetch_decode(self.cpu.pc)?;
            if self.fusion_enabled {
                // Verify the *fused* tier at op granularity: execute
                // each store-free superinstruction with the fused
                // handler, then let the oracle replay its constituents
                // against the reference semantics
                // (`Lockstep::verify_fused`). Store-bearing ops and
                // partial-budget tails break out to the scalar
                // per-instruction body below, which always makes
                // progress.
                let handle = {
                    let Machine { fused, decoded, run_len, profiler, fusion_sabotage, .. } =
                        &mut *self;
                    fused.handle_at(
                        idx,
                        decoded,
                        run_len,
                        code_base,
                        profiler.is_none(),
                        *fusion_sabotage,
                    )
                };
                let n_ops = self.fused.block(handle).ops.len();
                let mut ran = false;
                for k in 0..n_ops {
                    if executed >= max_insns || self.halted || self.insn_budget_expired() {
                        break;
                    }
                    let entry = self.fused.block(handle).ops[k];
                    let mut allowance = max_insns - executed;
                    if let Some(limit) = self.watchdog.max_instructions {
                        allowance = allowance.min(limit - self.insns_total);
                    }
                    if entry.op.has_store() || u64::from(entry.op.max_weight()) > allowance {
                        break;
                    }
                    let pre = self.cpu.clone();
                    let base_index = self.insns_total;
                    let opr = fuse::run_op(&entry, &mut self.cpu, &mut self.mem)
                        .map_err(|m| self.trap(TrapCause::Mem(m), entry.pc))?;
                    executed += u64::from(opr.retired);
                    self.insns_total += u64::from(opr.retired);
                    ran = true;
                    let mut due = false;
                    if let Some(ls) = self.lockstep.as_mut() {
                        // One ring entry and one sampling draw per
                        // retired constituent, like the scalar loop.
                        for j in 0..opr.retired {
                            ls.note_commit(entry.pc.wrapping_add(4 * j));
                            due |= ls.check_due();
                        }
                    }
                    if due {
                        if let Some(ls) = self.lockstep.as_mut() {
                            if ls.verify_fused(
                                &pre,
                                &self.cpu,
                                &mut self.mem,
                                &self.decoded,
                                code_base,
                                opr.retired,
                                base_index,
                            ) {
                                stop = StopReason::Diverged;
                                break 'run;
                            }
                        }
                    }
                    if opr.halted {
                        self.halted = true;
                        break;
                    }
                }
                if ran {
                    continue 'run;
                }
            }
            let pc = self.cpu.pc;
            let insn = self.decoded[idx];
            let check = self.lockstep.as_mut().is_some_and(Lockstep::check_due);
            let pre = if check { Some(self.cpu.clone()) } else { None };
            let ev = step(&mut self.cpu, &mut self.mem, &insn)
                .map_err(|m| self.trap(TrapCause::Mem(m), pc))?;
            executed += 1;
            self.insns_total += 1;
            if let Some(ls) = self.lockstep.as_mut() {
                ls.note_commit(pc);
                if let Some(pre) = &pre {
                    if ls.verify_commit(
                        pre,
                        &self.cpu,
                        &mut self.mem,
                        &insn,
                        ev,
                        self.insns_total - 1,
                    ) {
                        stop = StopReason::Diverged;
                        break;
                    }
                }
            }
            if ev.halted {
                self.halted = true;
                break;
            }
            if let Some((addr, width, true)) = ev.mem {
                // Same self-modifying-code repair as the unchecked loop;
                // the next iteration re-fetches anyway.
                self.repair_stored_code(addr, width);
            }
        }
        if self.halted {
            stop = StopReason::Halted;
        }
        Ok(RunResult { executed, halted: self.halted, stop })
    }

    /// Timed run with lockstep verification; retires the same commit
    /// stream as [`Machine::run_timed`], so counters are identical to an
    /// unchecked run up to the first divergence.
    fn run_timed_checked(&mut self, max_insns: u64) -> Result<RunResult, Trap> {
        let mut executed = 0;
        let mut stop = StopReason::Budget;
        let max_cycles = self.watchdog.max_cycles;
        let profiling = self.profile.is_some();
        while executed < max_insns && !self.halted {
            if self.insn_budget_expired() {
                stop = StopReason::Watchdog(WatchdogKind::Instructions);
                break;
            }
            let (idx, _run) = self.fetch_decode(self.cpu.pc)?;
            let pc = self.cpu.pc;
            let insn = self.decoded[idx];
            let check = self.lockstep.as_mut().is_some_and(Lockstep::check_due);
            let pre = if check { Some(self.cpu.clone()) } else { None };
            let ev = step(&mut self.cpu, &mut self.mem, &insn)
                .map_err(|m| self.trap(TrapCause::Mem(m), pc))?;
            let commit = self.core.retire(Retired { insn: &insn, pc, event: ev });
            if profiling {
                self.attribute_profile(idx, 1, commit);
            }
            executed += 1;
            self.insns_total += 1;
            self.retired.checked += 1;
            if let Some(ls) = self.lockstep.as_mut() {
                ls.note_commit(pc);
                if let Some(pre) = &pre {
                    if ls.verify_commit(
                        pre,
                        &self.cpu,
                        &mut self.mem,
                        &insn,
                        ev,
                        self.insns_total - 1,
                    ) {
                        stop = StopReason::Diverged;
                        break;
                    }
                }
            }
            if ev.halted {
                self.halted = true;
                break;
            }
            if let Some((addr, width, true)) = ev.mem {
                // Same self-modifying-code repair as the unchecked loops,
                // also before the watchdog stop; the next iteration
                // re-fetches anyway.
                self.repair_stored_code(addr, width);
            }
            if max_cycles.is_some_and(|limit| commit >= limit) {
                stop = StopReason::Watchdog(WatchdogKind::Cycles);
                break;
            }
        }
        if self.halted {
            stop = StopReason::Halted;
        }
        Ok(RunResult { executed, halted: self.halted, stop })
    }

    /// Charge `n` committed instructions starting at code slot `slot`,
    /// all in one profile region and the last committing at cycle
    /// `commit`, to that region via the dense index. Commits are
    /// monotone, so one charge of the whole commit-cycle delta equals
    /// `n` per-instruction charges. Only called when profiling is enabled.
    fn attribute_profile(&mut self, slot: usize, n: u64, commit: u64) {
        let delta = commit.saturating_sub(self.last_commit_seen);
        self.last_commit_seen = self.last_commit_seen.max(commit);
        let region = self.region_index.get(slot).copied().unwrap_or(NO_REGION);
        if region != NO_REGION {
            if let Some((_, counts)) = &mut self.profile {
                counts[region as usize].0 += n;
                counts[region as usize].1 += delta;
            }
        }
    }

    /// Run to completion (or `budget` instructions) with SMARTS-style
    /// uniform sampling and return the measured estimate.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on memory faults or undecodable instructions.
    ///
    /// # Panics
    ///
    /// Panics if `sampling.detail` is zero or the warm-up and detail
    /// windows do not fit in the period.
    pub fn run_sampled(
        &mut self,
        sampling: SamplingConfig,
        budget: u64,
    ) -> Result<SampledRun, Trap> {
        assert!(sampling.detail > 0, "detail window must be non-empty");
        assert!(
            sampling.warmup + sampling.detail <= sampling.period,
            "warm-up plus detail must fit in the sampling period"
        );
        let mut total = 0u64;
        let mut stop = StopReason::Budget;
        let mut measured = Counters::default();
        'outer: while total < budget && !self.halted {
            // Fast-forward.
            let ff = sampling.period - sampling.warmup - sampling.detail;
            let r = self.run_functional(ff.min(budget - total))?;
            total += r.executed;
            if matches!(r.stop, StopReason::Watchdog(_) | StopReason::Diverged) {
                stop = r.stop;
                break;
            }
            if self.halted || total >= budget {
                break;
            }
            // Timed warm-up: run with timing but discard the counter delta.
            let before_warm = self.core.counters();
            let r = self.run_timed(sampling.warmup.min(budget - total))?;
            total += r.executed;
            let _ = before_warm; // warm-up deltas are deliberately dropped
            if matches!(r.stop, StopReason::Watchdog(_) | StopReason::Diverged) {
                stop = r.stop;
                break;
            }
            if self.halted || total >= budget {
                break;
            }
            // Measured window.
            let before = self.core.counters();
            let r = self.run_timed(sampling.detail.min(budget - total))?;
            total += r.executed;
            let after = self.core.counters();
            measured.merge(&delta(&after, &before));
            if matches!(r.stop, StopReason::Watchdog(_) | StopReason::Diverged) {
                stop = r.stop;
                break 'outer;
            }
        }
        if self.halted {
            stop = StopReason::Halted;
        }
        let cpi = if measured.instructions == 0 {
            1.0
        } else {
            measured.cycles as f64 / measured.instructions as f64
        };
        Ok(SampledRun {
            estimated_cycles: (cpi * total as f64) as u64,
            measured,
            total_instructions: total,
            halted: self.halted,
            stop,
        })
    }

    // ---- Fault-injection hooks (see `crate::fault`) -------------------

    /// Flip one bit of the instruction word at `pc`, updating the backing
    /// memory *and* the pre-decoded table together (the decode table is
    /// the authority at fetch time, so both must agree). Returns `false`
    /// when `pc` is outside the code region.
    pub fn flip_code_bit(&mut self, pc: u32, bit: u32) -> bool {
        let idx = pc.wrapping_sub(self.code_base) as usize / 4;
        if !pc.is_multiple_of(4) || idx >= self.decoded.len() {
            return false;
        }
        let addr = self.code_base.wrapping_add((idx as u32) * 4);
        let Ok(word) = self.mem.load_u32(addr) else {
            return false;
        };
        let word = word ^ (1 << (bit & 31));
        if self.mem.store_u32(addr, word).is_err() {
            return false;
        }
        self.patch_code_slot(idx, decode(word).ok());
        true
    }

    /// Install a new decode result at `slot` and repair the run-length
    /// table: the slot's own entry, then every straight-line predecessor
    /// whose run flows into it (stopping at the previous terminator or
    /// invalid word — runs upstream of those are unaffected). The static
    /// timing sidecar and its class-count prefix sums are repaired in the
    /// same step (slot entry plus the prefix suffix from `slot` on —
    /// patching is rare, so the linear suffix rebuild stays off every hot
    /// path).
    fn patch_code_slot(&mut self, slot: usize, insn: Option<Instruction>) {
        self.run_len[slot] = match &insn {
            None => 0,
            Some(i) if is_block_terminator(i) => 1,
            Some(_) => 1 + self.run_len.get(slot + 1).copied().unwrap_or(0),
        };
        self.decoded[slot] = insn.unwrap_or(INVALID_SLOT);
        self.timing[slot] = StaticTiming::of(&self.decoded[slot]);
        for i in slot..self.decoded.len() {
            let mut p = self.class_prefix[i];
            p.add(&self.timing[i].class_counts());
            self.class_prefix[i + 1] = p;
        }
        let mut i = slot;
        while i > 0 {
            i -= 1;
            if self.run_len[i] == 0 || is_block_terminator(&self.decoded[i]) {
                break;
            }
            self.run_len[i] = 1 + self.run_len[i + 1];
        }
        // Fused blocks are compiled from the decode table, so every
        // writer that repairs the table invalidates them the same way.
        // Patching is already an O(image) slow path; dropping the whole
        // cache (blocks recompile lazily) keeps the invariant simple.
        self.fused.clear();
    }

    /// Whether a store of `width` bytes at `addr` overlaps the pre-decoded
    /// code region (the read-only test the batched loop uses before it
    /// flushes its block accumulators and repairs the tables).
    #[inline]
    fn store_touches_code(&self, addr: u32, width: u32) -> bool {
        let base = u64::from(self.code_base);
        let end = base + (self.decoded.len() as u64) * 4;
        let lo = u64::from(addr);
        let hi = lo + u64::from(width.max(1)) - 1;
        lo < end && hi >= base
    }

    /// Re-decode every code slot a just-executed store touched. The
    /// decode and run-length tables are derived from memory, and every
    /// writer must repair them — including the program's own stores
    /// (self-modifying code; in practice a fault-corrupted wild store
    /// landing in the code region). Returns whether any slot changed,
    /// so block dispatch can re-fetch. No-op for the overwhelmingly
    /// common store outside the code region.
    pub(crate) fn repair_stored_code(&mut self, addr: u32, width: u32) -> bool {
        if !self.store_touches_code(addr, width) {
            return false;
        }
        let base = u64::from(self.code_base);
        let end = base + (self.decoded.len() as u64) * 4;
        let lo = u64::from(addr);
        let hi = lo + u64::from(width.max(1)) - 1;
        let first = (lo.max(base) - base) / 4;
        let last = (hi.min(end - 1) - base) / 4;
        for slot in first..=last {
            let word_addr = self.code_base.wrapping_add((slot as u32) * 4);
            let insn = self.mem.load_u32(word_addr).ok().and_then(|w| decode(w).ok());
            self.patch_code_slot(slot as usize, insn);
        }
        true
    }

    /// Flip one bit of a data byte (out-of-range addresses are ignored).
    /// Flipping bytes inside the code region repairs the decode table
    /// the same way an executed store would; use
    /// [`Machine::flip_code_bit`] for word-aligned instruction faults.
    pub fn flip_data_bit(&mut self, addr: u32, bit: u32) {
        self.mem.flip_bit(addr, bit);
        self.repair_stored_code(addr, 1);
    }

    /// Flip one bit of an architectural register. `reg % 35` selects
    /// GPR0–31, then CR, LR, CTR.
    pub fn flip_reg_bit(&mut self, reg: u64, bit: u32) {
        let mask = 1u32 << (bit & 31);
        match reg % 35 {
            r @ 0..=31 => self.cpu.gpr[r as usize] ^= mask,
            32 => self.cpu.cr = CondReg(self.cpu.cr.0 ^ mask),
            33 => self.cpu.lr ^= mask,
            _ => self.cpu.ctr ^= mask,
        }
    }

    /// Corrupt one branch-predictor counter bit (see
    /// [`TimingCore::corrupt_predictor`]).
    pub fn corrupt_predictor(&mut self, selector: u64) {
        self.core.corrupt_predictor(selector);
    }

    /// Invalidate one cache line across the hierarchy (see
    /// [`TimingCore::drop_cache_line`]). Returns whether a valid line was
    /// dropped.
    pub fn drop_cache_line(&mut self, selector: u64) -> bool {
        self.core.drop_cache_line(selector)
    }

    // ---- Checkpoint / resume ------------------------------------------

    /// Capture the complete simulation state. See [`Checkpoint`].
    pub fn checkpoint(&self) -> Checkpoint {
        let bytes = self.mem.bytes();
        let mut pages = Vec::new();
        for (i, page) in bytes.chunks(PAGE).enumerate() {
            if page.iter().any(|&b| b != 0) {
                pages.push(((i * PAGE) as u32, page.to_vec()));
            }
        }
        Checkpoint {
            config_digest: config_digest(self.core.config()),
            gpr: self.cpu.gpr,
            cr: self.cpu.cr.0,
            lr: self.cpu.lr,
            ctr: self.cpu.ctr,
            pc: self.cpu.pc,
            mem_size: bytes.len(),
            pages,
            code_base: self.code_base,
            code_len: self.decoded.len(),
            halted: self.halted,
            insns_total: self.insns_total,
            watchdog: self.watchdog,
            profile: self.profile.clone(),
            last_commit_seen: self.last_commit_seen,
            core: self.core.snapshot(),
        }
    }

    /// Reinstall a checkpoint taken from an identically-configured
    /// machine. The decode table is rebuilt by re-decoding the restored
    /// memory image. The tracer and symbol table are untouched.
    ///
    /// # Errors
    ///
    /// Returns a message when the configuration digest, memory size, or
    /// any microarchitectural table shape does not match; the machine is
    /// left in an unspecified (but non-panicking) state on error.
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<(), String> {
        let digest = config_digest(self.core.config());
        if ck.config_digest != digest {
            return Err(format!(
                "checkpoint config digest {:#018x} does not match machine {digest:#018x}",
                ck.config_digest
            ));
        }
        if ck.mem_size != self.mem.size() {
            return Err(format!(
                "checkpoint memory size {} does not match machine {}",
                ck.mem_size,
                self.mem.size()
            ));
        }
        let mem = self.mem.bytes_mut();
        mem.fill(0);
        for (addr, data) in &ck.pages {
            let start = *addr as usize;
            let end = start.checked_add(data.len()).ok_or("checkpoint page overflows")?;
            if end > mem.len() {
                return Err(format!("checkpoint page at {addr:#x} exceeds memory"));
            }
            mem[start..end].copy_from_slice(data);
        }
        self.cpu.gpr = ck.gpr;
        self.cpu.cr = CondReg(ck.cr);
        self.cpu.lr = ck.lr;
        self.cpu.ctr = ck.ctr;
        self.cpu.pc = ck.pc;
        self.code_base = ck.code_base;
        let slots: Vec<Option<Instruction>> = (0..ck.code_len)
            .map(|i| {
                let addr = ck.code_base.wrapping_add((i as u32) * 4);
                self.mem.load_u32(addr).ok().and_then(|w| decode(w).ok())
            })
            .collect();
        let (decoded, run_len) = code_tables(&slots);
        let (timing, class_prefix) = timing_tables(&decoded);
        self.decoded = decoded;
        self.run_len = run_len;
        self.timing = timing;
        self.class_prefix = class_prefix;
        // The fused cache is derived from the decode table (and an
        // injected fusion bug is harness state, like a decode bug):
        // rebuild clean for the restored image.
        self.fused.reset(self.decoded.len());
        self.fusion_sabotage = None;
        self.halted = ck.halted;
        self.insns_total = ck.insns_total;
        self.watchdog = ck.watchdog;
        self.profile = ck.profile.clone();
        self.rebuild_region_index();
        self.last_commit_seen = ck.last_commit_seen;
        self.core.set_code_region(ck.code_base, ck.code_len);
        self.core.restore(&ck.core)
    }
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("pc", &self.cpu.pc)
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

/// Counter delta `after - before` (interval fields excluded).
fn delta(after: &Counters, before: &Counters) -> Counters {
    let mut d = Counters {
        cycles: after.cycles - before.cycles,
        instructions: after.instructions - before.instructions,
        fxu_ops: after.fxu_ops - before.fxu_ops,
        lsu_ops: after.lsu_ops - before.lsu_ops,
        loads: after.loads - before.loads,
        stores: after.stores - before.stores,
        compares: after.compares - before.compares,
        predicated_ops: after.predicated_ops - before.predicated_ops,
        ..Counters::default()
    };
    d.branches.total = after.branches.total - before.branches.total;
    d.branches.conditional = after.branches.conditional - before.branches.conditional;
    d.branches.taken = after.branches.taken - before.branches.taken;
    d.branches.direction_mispredictions =
        after.branches.direction_mispredictions - before.branches.direction_mispredictions;
    d.branches.target_mispredictions =
        after.branches.target_mispredictions - before.branches.target_mispredictions;
    d.stalls.fxu = after.stalls.fxu - before.stalls.fxu;
    d.stalls.load = after.stalls.load - before.stalls.load;
    d.stalls.branch_mispredict = after.stalls.branch_mispredict - before.stalls.branch_mispredict;
    d.stalls.taken_branch = after.stalls.taken_branch - before.stalls.taken_branch;
    d.stalls.icache = after.stalls.icache - before.stalls.icache;
    d.stalls.window_full = after.stalls.window_full - before.stalls.window_full;
    d.stalls.other = after.stalls.other - before.stalls.other;
    d.l1i.accesses = after.l1i.accesses - before.l1i.accesses;
    d.l1i.misses = after.l1i.misses - before.l1i.misses;
    d.l1d.accesses = after.l1d.accesses - before.l1d.accesses;
    d.l1d.misses = after.l1d.misses - before.l1d.misses;
    d.l2.accesses = after.l2.accesses - before.l2.accesses;
    d.l2.misses = after.l2.misses - before.l2.misses;
    d.btac.lookups = after.btac.lookups - before.btac.lookups;
    d.btac.predictions = after.btac.predictions - before.btac.predictions;
    d.btac.correct = after.btac.correct - before.btac.correct;
    d.btac.incorrect = after.btac.incorrect - before.btac.incorrect;
    d
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ppc_isa::Gpr;

    fn machine(src: &str) -> Machine {
        let prog = ppc_asm::assemble(src, 0x1000).expect("test program assembles");
        Machine::new(CoreConfig::power5(), &prog.bytes, 0x1000, 0x1000, 1 << 20)
    }

    const COUNT_LOOP: &str = "
entry:
    li r3, 0
    li r4, 1000
    mtctr r4
loop:
    addi r3, r3, 1
    bdnz loop
    trap
";

    #[test]
    fn functional_and_timed_agree_architecturally() {
        let mut f = machine(COUNT_LOOP);
        let mut t = machine(COUNT_LOOP);
        let rf = f.run_functional(u64::MAX).unwrap();
        let rt = t.run_timed(u64::MAX).unwrap();
        assert!(rf.halted && rt.halted);
        assert_eq!(rf.executed, rt.executed);
        assert_eq!(f.cpu().reg(Gpr(3)), 1000);
        assert_eq!(t.cpu().reg(Gpr(3)), 1000);
        assert_eq!(f.cpu().pc, t.cpu().pc);
    }

    #[test]
    fn timed_run_produces_plausible_cycle_counts() {
        let mut m = machine(COUNT_LOOP);
        m.run_timed(u64::MAX).unwrap();
        let c = m.counters();
        // ~2004 instructions; a tight dependent loop with a taken branch
        // per iteration cannot exceed 1 IPC here and must not be absurdly
        // slow either.
        assert!(c.instructions > 2000);
        assert!(c.cycles > c.instructions / 5, "cycles {}", c.cycles);
        assert!(c.cycles < c.instructions * 20, "cycles {}", c.cycles);
        // bdnz is almost always taken and perfectly predictable.
        assert!(c.branches.misprediction_rate() < 0.01);
        assert!(c.branches.taken_fraction() > 0.99);
    }

    #[test]
    fn budget_stops_early() {
        let mut m = machine(COUNT_LOOP);
        let r = m.run_timed(100).unwrap();
        assert_eq!(r.executed, 100);
        assert!(!r.halted);
        let r2 = m.run_timed(u64::MAX).unwrap();
        assert!(r2.halted);
        assert_eq!(m.cpu().reg(Gpr(3)), 1000);
    }

    #[test]
    fn bad_instruction_reports_pc() {
        let mut m = Machine::new(CoreConfig::power5(), &[0, 0, 0, 0], 0x1000, 0x1000, 1 << 16);
        let err = m.run_timed(10).unwrap_err();
        assert_eq!(err.cause, TrapCause::BadInstruction);
        assert_eq!(err.pc, 0x1000);
        assert!(format!("{err}").contains("0x00001000"));
    }

    #[test]
    fn misaligned_pc_reports_distinct_trap() {
        let mut m = machine(COUNT_LOOP);
        m.cpu_mut().pc = 0x1002;
        let err = m.run_timed(10).unwrap_err();
        assert_eq!(err.cause, TrapCause::MisalignedFetch);
        assert_eq!(err.pc, 0x1002);
        assert!(format!("{err}").contains("misaligned fetch"));
        // Functional mode reports the same distinct cause — including for
        // a misaligned PC pointing outside the code image, which must not
        // fold back into BadInstruction.
        let mut f = machine(COUNT_LOOP);
        f.cpu_mut().pc = 0x9_0001;
        assert_eq!(f.run_functional(10).unwrap_err().cause, TrapCause::MisalignedFetch);
        // An aligned PC outside the image is still a BadInstruction.
        let mut b = machine(COUNT_LOOP);
        b.cpu_mut().pc = 0x9_0000;
        assert_eq!(b.run_timed(10).unwrap_err().cause, TrapCause::BadInstruction);
    }

    #[test]
    fn sampling_profiler_observes_every_retired_instruction() {
        // Functional, batched-timed, and pinned-timed paths all feed the
        // profiler the same retirement stream: identical instruction
        // totals and identical hottest region (the loop body).
        let mut f = machine(COUNT_LOOP);
        f.set_sampling_profiler(16);
        let rf = f.run_functional(u64::MAX).unwrap();
        let pf = f.take_profiler().unwrap();
        assert_eq!(pf.insns(), rf.executed);
        assert!(f.profiler().is_none());

        let mut b = machine(COUNT_LOOP);
        b.set_sampling_profiler(16);
        let rb = b.run_timed(u64::MAX).unwrap();
        let pb = b.take_profiler().unwrap();
        assert_eq!(pb.insns(), rb.executed);
        assert_eq!(pb.insns(), pf.insns());

        let mut p = machine(COUNT_LOOP);
        p.set_sampling_profiler(16);
        let rp = p.run_timed_pinned(u64::MAX).unwrap();
        let pp = p.take_profiler().unwrap();
        assert_eq!(pp.insns(), rp.executed);

        // The loop block at `loop:` (0x100c) dominates; both timed paths
        // agree on the hottest PC-region and the sample total.
        let rep_b = pb.report(None);
        let rep_p = pp.report(None);
        assert_eq!(rep_b.hot_regions[0].name, "0x0000100c");
        assert_eq!(rep_b.hot_regions[0].name, rep_p.hot_regions[0].name);
        assert_eq!(rep_b.total_samples, rep_p.total_samples);
        assert!(rep_b.retire_latency.count() > 0);
        assert!(rep_b.block_len.max() <= 5);
    }

    #[test]
    fn profile_regions_split_straight_line_blocks() {
        // The loop body is one straight-line block that crosses two
        // region boundaries and an unattributed gap, so the batched path
        // must cut its segments inside the block.
        const BODY: &str = "
entry:
    li r3, 0
    li r4, 300
    mtctr r4
loop:
    addi r3, r3, 1
    addi r5, r3, 2
    add r6, r5, r3
    addi r7, r6, 3
    add r8, r7, r5
    bdnz loop
    trap
";
        let regions = vec![
            ProfileRegion { name: "entry".into(), start: 0x1000, end: 0x100c },
            ProfileRegion { name: "head".into(), start: 0x100c, end: 0x1014 },
            ProfileRegion { name: "tail".into(), start: 0x1018, end: 0x1030 },
        ];
        let mut b = machine(BODY);
        let mut p = machine(BODY);
        for m in [&mut b, &mut p] {
            m.set_profile_regions(regions.clone());
        }
        let rb = b.run_timed(u64::MAX).unwrap();
        let rp = p.run_timed_pinned(u64::MAX).unwrap();
        assert_eq!(rb, rp);
        assert_eq!(
            b.retire_tally(),
            RetireTally { batched: rb.executed, ..RetireTally::default() }
        );
        assert_eq!(b.profile_results(), p.profile_results());
        assert_eq!(b.counters(), p.counters());
        let profile = b.profile_results();
        let insns: Vec<u64> = profile.iter().map(|&(_, i, _)| i).collect();
        assert_eq!(insns, vec![3, 600, 901]);
        assert!(profile.iter().all(|&(_, _, cycles)| cycles > 0));
    }

    #[test]
    fn run_length_table_matches_block_structure() {
        // COUNT_LOOP decodes to li, li, mtctr, addi, bdnz, trap: one
        // five-instruction run ending at the branch, then the trap block.
        let m = machine(COUNT_LOOP);
        assert_eq!(m.run_len, vec![5, 4, 3, 2, 1, 1]);
    }

    #[test]
    fn patching_code_repairs_run_lengths() {
        let mut m = machine(COUNT_LOOP);
        // Invalidate the mtctr slot: upstream runs must now stop there.
        m.patch_code_slot(2, None);
        assert_eq!(m.run_len, vec![2, 1, 0, 2, 1, 1]);
        // Patch a straight-line instruction back in: full runs return.
        m.patch_code_slot(2, Some(Instruction::Add { rt: Gpr(5), ra: Gpr(5), rb: Gpr(5) }));
        assert_eq!(m.run_len, vec![5, 4, 3, 2, 1, 1]);
    }

    #[test]
    fn memory_fault_surfaces_with_pc_and_cycle() {
        let mut m = machine("entry:\n li r3, 1\n lwz r3, 0(r4)\n trap\n");
        m.cpu_mut().gpr[4] = 0xFFFF_0000; // out of the 1 MiB memory
        let err = m.run_timed(10).unwrap_err();
        assert!(matches!(err.cause, TrapCause::Mem(_)));
        assert_eq!(err.pc, 0x1004);
        // One instruction committed before the fault; the clock advanced.
        assert!(err.cycle > 0, "trap cycle not stamped");
    }

    #[test]
    fn try_new_rejects_oversized_image_without_panicking() {
        let image = vec![0u8; 64];
        let err = Machine::try_new(CoreConfig::power5(), &image, 0xFFF0, 0xFFF0, 1 << 12);
        assert!(err.is_err());
    }

    #[test]
    fn instruction_watchdog_times_out_gracefully() {
        let mut m = machine(COUNT_LOOP);
        m.set_watchdog(Watchdog { max_instructions: Some(500), ..Watchdog::default() });
        let r = m.run_timed(u64::MAX).unwrap();
        assert_eq!(r.stop, StopReason::Watchdog(WatchdogKind::Instructions));
        assert!(!r.halted);
        assert_eq!(r.executed, 500);
        assert_eq!(m.insns_total(), 500);
        // Counters remain readable — this is the partial-report path.
        assert!(m.counters().instructions >= 500);
        // Watchdog also guards functional runs.
        let r2 = m.run_functional(u64::MAX).unwrap();
        assert_eq!(r2.stop, StopReason::Watchdog(WatchdogKind::Instructions));
        assert_eq!(r2.executed, 0);
    }

    #[test]
    fn cycle_watchdog_times_out_gracefully() {
        let mut m = machine(COUNT_LOOP);
        m.set_watchdog(Watchdog { max_cycles: Some(300), ..Watchdog::default() });
        let r = m.run_timed(u64::MAX).unwrap();
        assert_eq!(r.stop, StopReason::Watchdog(WatchdogKind::Cycles));
        assert!(!r.halted);
        assert!(m.counters().cycles >= 300);
        // Clearing the budget lets the program finish.
        m.set_watchdog(Watchdog::default());
        let r2 = m.run_timed(u64::MAX).unwrap();
        assert_eq!(r2.stop, StopReason::Halted);
        assert_eq!(m.cpu().reg(Gpr(3)), 1000);
    }

    #[test]
    fn sampled_run_reports_watchdog_stop() {
        let mut m = machine(COUNT_LOOP);
        m.set_watchdog(Watchdog { max_instructions: Some(100), ..Watchdog::default() });
        let s =
            m.run_sampled(SamplingConfig { period: 50, warmup: 10, detail: 10 }, u64::MAX).unwrap();
        assert!(!s.halted);
        assert_eq!(s.stop, StopReason::Watchdog(WatchdogKind::Instructions));
        assert!(s.total_instructions <= 100);
    }

    #[test]
    fn checkpoint_resume_is_bit_exact() {
        // Gold: run to completion in one go.
        let mut gold = machine(COUNT_LOOP);
        gold.set_stall_site_profiling(true);
        let rg = gold.run_timed(u64::MAX).unwrap();

        // Split: run 700 instructions, checkpoint, restore into a fresh
        // machine, finish there.
        let mut first = machine(COUNT_LOOP);
        first.set_stall_site_profiling(true);
        first.run_timed(700).unwrap();
        let ck = first.checkpoint();

        let mut resumed = machine(COUNT_LOOP);
        resumed.set_stall_site_profiling(true);
        resumed.restore(&ck).unwrap();
        assert_eq!(resumed.insns_total(), 700);
        let rr = resumed.run_timed(u64::MAX).unwrap();

        assert_eq!(rg.executed, 700 + rr.executed);
        assert_eq!(gold.counters(), resumed.counters());
        assert_eq!(gold.cpu().pc, resumed.cpu().pc);
        assert_eq!(gold.cpu().gpr, resumed.cpu().gpr);
        assert_eq!(gold.stall_sites(), resumed.stall_sites());
        assert_eq!(gold.checkpoint(), resumed.checkpoint());
    }

    #[test]
    fn restore_rejects_mismatched_machines() {
        let m = machine(COUNT_LOOP);
        let ck = m.checkpoint();

        // Different core configuration.
        let prog = ppc_asm::assemble(COUNT_LOOP, 0x1000).unwrap();
        let mut other =
            Machine::new(CoreConfig::power5().with_fxus(4), &prog.bytes, 0x1000, 0x1000, 1 << 20);
        assert!(other.restore(&ck).is_err());

        // Different memory size.
        let mut small = Machine::new(CoreConfig::power5(), &prog.bytes, 0x1000, 0x1000, 1 << 16);
        assert!(small.restore(&ck).is_err());
    }

    #[test]
    fn checkpoint_preserves_injected_code_faults() {
        // Clobber an instruction, checkpoint, restore elsewhere: the
        // restored machine must trap at the same PC (decode table is
        // rebuilt from the mutated memory image).
        let mut m = machine(COUNT_LOOP);
        assert!(m.flip_code_bit(0x1000, 31)); // li -> something else (or invalid)
        let ck = m.checkpoint();
        let mut n = machine(COUNT_LOOP);
        n.restore(&ck).unwrap();
        let a = m.run_timed(10);
        let b = n.run_timed(10);
        assert_eq!(a, b, "original and restored machines diverged on a code fault");
    }

    /// Copies the `donor` instruction word over `patchme` *within the
    /// same straight-line block* (the `stw` is the fifth instruction).
    const SMC: &str = "
entry:
    li r3, 0
    li r9, 4124
    lwz r8, 0(r9)
    li r10, 4116
    stw r8, 0(r10)
patchme:
    addi r3, r3, 1
    trap
donor:
    addi r3, r3, 100
";

    #[test]
    fn stores_into_the_code_region_repair_the_decode_tables() {
        // The repaired decode and run-length tables must take effect
        // immediately: memory is the authority, and the stored
        // instruction (r3 += 100) executes instead of the original
        // (r3 += 1).
        for timed in [false, true] {
            let mut m = machine(SMC);
            let r = if timed { m.run_timed(u64::MAX) } else { m.run_functional(u64::MAX) }
                .expect("smc program runs");
            assert!(r.halted);
            assert_eq!(m.cpu().reg(Gpr(3)), 100, "the stored instruction must execute");
        }
        // The oracle agrees: full lockstep sees no divergence, because
        // the decode table tracks the mutated memory.
        let mut checked = machine(SMC);
        checked.set_lockstep(LockstepMode::Full);
        let r = checked.run_timed(u64::MAX).expect("checked smc program runs");
        assert!(r.halted, "full-lockstep run must halt, not diverge: {:?}", r.stop);
        assert_eq!(checked.cpu().reg(Gpr(3)), 100);
        assert!(checked.take_divergence().is_none());
    }

    #[test]
    fn cycle_watchdog_stop_on_a_code_patching_store_repairs_first() {
        // Place the cycle limit exactly on the code-patching store's
        // commit: the store is the first instruction to reach it.
        let mut probe = machine(SMC);
        probe.run_timed_pinned(4).unwrap();
        let before = probe.counters().cycles;
        probe.run_timed_pinned(1).unwrap();
        let limit = probe.counters().cycles;
        assert!(before < limit, "the store must be the first commit at the limit");
        for path in ["batched", "pinned", "checked"] {
            let fresh = || {
                let mut m = machine(SMC);
                if path == "checked" {
                    m.set_lockstep(LockstepMode::Full);
                }
                m
            };
            let run = |m: &mut Machine| {
                if path == "pinned" { m.run_timed_pinned(u64::MAX) } else { m.run_timed(u64::MAX) }
                    .unwrap()
            };
            let mut cont = fresh();
            cont.set_watchdog(Watchdog { max_cycles: Some(limit), ..Watchdog::default() });
            let r = run(&mut cont);
            assert_eq!(r.stop, StopReason::Watchdog(WatchdogKind::Cycles), "{path}");
            assert_eq!(r.executed, 5, "{path}: stops on the store");
            // Continuing the stopped machine must equal rebuilding it
            // from memory via checkpoint and restore.
            let mut restored = fresh();
            restored.restore(&cont.checkpoint()).unwrap();
            for m in [&mut cont, &mut restored] {
                m.set_watchdog(Watchdog::default());
                assert!(run(m).halted, "{path}");
                assert_eq!(m.cpu().reg(Gpr(3)), 100, "{path}: the stored instruction executes");
            }
            assert_eq!(cont.checkpoint(), restored.checkpoint(), "{path}");
            let tally = cont.retire_tally();
            let on_path = match path {
                "batched" => tally.batched,
                "pinned" => tally.pinned,
                _ => tally.checked,
            };
            assert_eq!(on_path, cont.insns_total(), "{path}: every retire on its own path");
        }
    }

    #[test]
    fn flip_code_bit_outside_code_region_is_refused() {
        let mut m = machine(COUNT_LOOP);
        assert!(!m.flip_code_bit(0x9_0000, 0));
        assert!(!m.flip_code_bit(0x1002, 0)); // misaligned PC
    }

    #[test]
    fn flip_reg_bit_touches_named_registers() {
        let mut m = machine(COUNT_LOOP);
        m.flip_reg_bit(3, 0);
        assert_eq!(m.cpu().gpr[3], 1);
        m.flip_reg_bit(33, 4); // LR
        assert_eq!(m.cpu().lr, 16);
        m.flip_reg_bit(34, 1); // CTR
        assert_eq!(m.cpu().ctr, 2);
        m.flip_reg_bit(32, 0); // CR
        assert_eq!(m.cpu().cr.0, 1);
    }

    #[test]
    fn sampled_run_estimates_full_run() {
        // Build a long-enough loop that sampling kicks in.
        let src = "
entry:
    li r3, 0
    lis r4, 2
    mtctr r4
loop:
    addi r3, r3, 1
    addi r5, r5, 2
    xor r6, r3, r5
    bdnz loop
    trap
";
        let mut full = machine(src);
        full.run_timed(u64::MAX).unwrap();
        let full_c = full.counters();
        let full_ipc = full_c.ipc();

        let mut sampled = machine(src);
        let s = sampled
            .run_sampled(SamplingConfig { period: 10_000, warmup: 500, detail: 500 }, u64::MAX)
            .unwrap();
        assert!(s.halted);
        assert_eq!(s.total_instructions, full_c.instructions);
        let err = (s.ipc() - full_ipc).abs() / full_ipc;
        assert!(err < 0.15, "sampled IPC {} vs full {full_ipc}", s.ipc());
    }

    #[test]
    fn interval_series_reflects_phases() {
        let mut m = machine(COUNT_LOOP);
        m.set_interval_sampling(200);
        m.run_timed(u64::MAX).unwrap();
        let c = m.counters();
        assert!(c.intervals.len() >= 9, "intervals {}", c.intervals.len());
    }

    // A loop whose body exercises `isel`, the paper's predicated-select
    // instruction — the fast-path defect class the lockstep tests below
    // inject is a wrong `isel` condition in the decode table.
    const ISEL_LOOP: &str = "
entry:
    li r3, 0
    li r7, 400
    mtctr r7
    li r5, 1
    li r6, 2
loop:
    cmpwi cr0, r3, 25
    isel r4, r5, r6, 4*cr0+gt
    add r3, r3, r4
    bdnz loop
    trap
";

    /// The PC of the first `isel` in the image and a copy of it with the
    /// condition bit flipped (`gt` -> `lt`).
    fn isel_site(m: &Machine) -> (u32, Instruction) {
        let idx = m
            .decoded
            .iter()
            .position(|i| matches!(i, Instruction::Isel { .. }))
            .expect("program contains isel");
        let Instruction::Isel { rt, ra, rb, bc } = m.decoded[idx] else {
            unreachable!();
        };
        let wrong =
            Instruction::Isel { rt, ra, rb, bc: ppc_isa::CrBit(if bc.0 == 0 { 1 } else { 0 }) };
        (m.code_base + (idx as u32) * 4, wrong)
    }

    #[test]
    fn oracle_matches_the_fast_interpreter_end_to_end() {
        let mut m = machine(ISEL_LOOP);
        let mut o = crate::oracle::Oracle::from_machine(&m);
        m.run_functional(u64::MAX).unwrap();
        o.run(u64::MAX).unwrap();
        assert!(m.halted() && o.halted());
        assert_eq!(m.cpu(), o.cpu());
        assert_eq!(m.mem(), o.mem());
    }

    #[test]
    fn full_lockstep_passes_clean_runs_and_matches_unchecked_counters() {
        let mut plain = machine(ISEL_LOOP);
        let mut checked = machine(ISEL_LOOP);
        checked.set_lockstep(LockstepMode::Full);
        assert_eq!(checked.lockstep_mode(), LockstepMode::Full);
        let rp = plain.run_timed(u64::MAX).unwrap();
        let rc = checked.run_timed(u64::MAX).unwrap();
        assert_eq!(rp, rc);
        assert_eq!(plain.counters(), checked.counters());
        assert_eq!(plain.cpu(), checked.cpu());
        assert!(checked.take_divergence().is_none());
    }

    #[test]
    fn full_lockstep_catches_an_injected_decode_bug() {
        let mut m = machine(ISEL_LOOP);
        let (pc, wrong) = isel_site(&m);
        assert!(m.inject_decode_bug(pc, wrong));
        m.set_lockstep(LockstepMode::Full);
        let r = m.run_timed(u64::MAX).unwrap();
        assert_eq!(r.stop, StopReason::Diverged);
        assert!(!r.halted);
        let d = m.take_divergence().expect("divergence recorded");
        assert_eq!(d.pc, pc);
        assert_eq!(d.field, crate::oracle::ArchField::Decode);
        assert_eq!(d.recent_pcs.last(), Some(&pc));
        assert!(format!("{d}").contains("decode"));
    }

    #[test]
    fn sampled_lockstep_detects_and_the_shrinker_minimizes_the_window() {
        let mut m = machine(ISEL_LOOP);
        let start = m.checkpoint();
        let (pc, wrong) = isel_site(&m);
        assert!(m.inject_decode_bug(pc, wrong));
        m.set_lockstep(LockstepMode::Sampled { period: 10, seed: 11 });
        let r = m.run_functional(u64::MAX).unwrap();
        assert_eq!(r.stop, StopReason::Diverged, "sampled lockstep must land on the bad isel");
        let d = m.take_divergence().expect("divergence recorded");
        assert_eq!(d.pc, pc);

        let mut reapply = |mm: &mut Machine| {
            mm.inject_decode_bug(pc, wrong);
        };
        let repro =
            crate::oracle::shrink_divergence(&mut m, &start, &mut reapply, d.instruction, 64)
                .expect("shrinker converges");
        assert!(repro.span <= 64, "span {}", repro.span);
        assert_eq!(repro.divergence.pc, pc);
        assert_eq!(repro.divergence.field, crate::oracle::ArchField::Decode);
        assert_eq!(repro.first_divergent + 1, repro.start.insns_total + repro.span);

        // The repro replays: restore the start checkpoint, re-apply the
        // defect, run the span under full lockstep, observe the same
        // divergence.
        let mut replay = machine(ISEL_LOOP);
        replay.restore(&repro.start).unwrap();
        reapply(&mut replay);
        replay.set_lockstep(LockstepMode::Full);
        let rr = replay.run_functional(repro.span).unwrap();
        assert_eq!(rr.stop, StopReason::Diverged);
        let dd = replay.take_divergence().unwrap();
        assert_eq!(dd.pc, repro.divergence.pc);
        assert_eq!(dd.field, repro.divergence.field);
        assert_eq!(dd.instruction, repro.first_divergent);
    }

    #[test]
    fn lockstep_off_is_the_default_and_clears_state() {
        let mut m = machine(COUNT_LOOP);
        assert_eq!(m.lockstep_mode(), LockstepMode::Off);
        m.set_lockstep(LockstepMode::Full);
        m.set_lockstep(LockstepMode::Off);
        assert_eq!(m.lockstep_mode(), LockstepMode::Off);
        let r = m.run_timed(u64::MAX).unwrap();
        assert!(r.halted);
        assert!(m.take_divergence().is_none());
    }

    #[test]
    fn workload_inputs_via_memory_and_registers() {
        // Kernel: sum 8 words at address in r3, count in r4, result in r3.
        let src = "
entry:
    mtctr r4
    li r5, 0
loop:
    lwz r6, 0(r3)
    add r5, r5, r6
    addi r3, r3, 4
    bdnz loop
    mr r3, r5
    trap
";
        let mut m = machine(src);
        m.mem_mut().write_i32s(0x8000, &[1, 2, 3, 4, 5, 6, 7, -8]).unwrap();
        m.cpu_mut().gpr[3] = 0x8000;
        m.cpu_mut().gpr[4] = 8;
        m.run_timed(u64::MAX).unwrap();
        assert_eq!(m.cpu().reg(Gpr(3)) as i32, 20);
    }
}
