//! The execution-driven timing model of one POWER5-like core.
//!
//! The model consumes the *committed* instruction stream (functional
//! execution happens first; wrong-path instructions are not simulated,
//! their cost appears as redirect latency — the standard trade-off of
//! execution-driven timers) and schedules each instruction through fetch →
//! dispatch-group formation → issue → execute → in-order group commit,
//! with greedy earliest-slot resource scheduling:
//!
//! * **Fetch**: up to `fetch_width` sequential instructions per cycle; a
//!   taken branch ends the packet and costs the 2-cycle POWER5 bubble
//!   (unless the BTAC supplies the target); a mispredicted branch restarts
//!   fetch after resolution plus the redirect latency; I-cache misses stall
//!   fetch.
//! * **Dispatch**: groups of up to `group_size` instructions, at most one
//!   branch per group, one group per cycle.
//! * **Issue**: an instruction issues at the earliest cycle at or after
//!   dispatch when all source resources are ready and a unit instance of
//!   its class is free (register renaming is assumed ideal; issue-queue
//!   capacity is subsumed by the reorder-window limit).
//! * **Commit**: groups commit in order, one group per cycle, which caps
//!   commit throughput at five — the POWER5 property the paper cites.
//!   Cycles in which completion stalls are attributed to the oldest
//!   instruction's delay reason (the CPI-stack of Table I).

use crate::btac::{Btac, BtacState};
use crate::cache::{CacheState, Hierarchy};
use crate::config::CoreConfig;
use crate::counters::{ClassCounts, Counters, IntervalSample, StallBreakdown, StallClass};
use crate::predictor::{AnyPredictor, DirectionPredictor, PredictorState, RasState, ReturnStack};
use crate::trace::{InsnTrace, TraceRedirect, Tracer};
use ppc_isa::insn::{ExecUnit, Instruction, LatencyClass};
use ppc_isa::reg::{ResList, Resource};
use ppc_isa::StepEvent;
use std::collections::VecDeque;

const GPRS: usize = 32;
const CRS: usize = 8;
/// Flat scoreboard slots: r0–r31, cr0–cr7, LR, CTR.
const RES_SLOTS: usize = GPRS + CRS + 2;

/// Flat scoreboard index of a resource (the packed-mask bit position used
/// by [`StaticTiming`]): GPRs first, then CR fields, then LR and CTR —
/// the same order [`CoreState::scoreboard`] serializes.
#[inline]
fn res_index(r: Resource) -> usize {
    match r {
        Resource::Gpr(g) => g.index(),
        Resource::Cr(c) => GPRS + c.index(),
        Resource::Lr => GPRS + CRS,
        Resource::Ctr => GPRS + CRS + 1,
    }
}

/// Register scoreboard: per-resource ready cycle and producing unit, flat
/// over [`res_index`], plus a conservative `busy` mask of slots whose
/// ready cycle may still lie in the future. The mask lets the issue stage
/// skip the source scan entirely when no source has an outstanding
/// producer — the common case in straight-line DP kernels. Bits are set
/// on every write and cleared lazily when a scan observes the slot ready
/// at or before the dispatch frontier; since dispatch never moves
/// backwards, a cleared bit can never become busy again without a new
/// write, so the mask stays a superset of the truly-busy slots and the
/// skip is exact, not approximate.
#[derive(Debug, Clone)]
struct Scoreboard {
    ready: [u64; RES_SLOTS],
    unit: [ExecUnit; RES_SLOTS],
    busy: u64,
}

impl Scoreboard {
    fn new() -> Self {
        Scoreboard { ready: [0; RES_SLOTS], unit: [ExecUnit::Fxu; RES_SLOTS], busy: 0 }
    }

    /// Mark every written slot as potentially busy (used after a restore,
    /// where no dispatch frontier is available to compare against).
    fn assume_busy(&mut self) {
        self.busy = 0;
        for (i, &r) in self.ready.iter().enumerate() {
            if r > 0 {
                self.busy |= 1 << i;
            }
        }
    }
}

const F_BRANCH: u16 = 1 << 0;
const F_COND_BRANCH: u16 = 1 << 1;
const F_LOAD: u16 = 1 << 2;
const F_STORE: u16 = 1 << 3;
const F_PREDICATED: u16 = 1 << 4;
const F_COMPARE: u16 = 1 << 5;
const F_CALL: u16 = 1 << 6;
const F_RETURN: u16 = 1 << 7;
const F_BCCTR: u16 = 1 << 8;

/// Everything the pipeline scheduler needs to know about an instruction
/// that does not depend on runtime values: unit class, latency class,
/// source/destination resource lists, the packed source mask, and the
/// branch/memory shape flags. Precomputed once per decoded word by the
/// machine's static timing sidecar so [`TimingCore::retire`] stops
/// re-deriving it from the [`Instruction`] on every retirement.
///
/// `reads` keeps the *original* [`Instruction::reads`] order: the issue
/// stage takes the blocking unit from the first source reaching the
/// maximum ready cycle, so scanning in any other order (e.g. mask bit
/// order) could change stall attribution. The packed `src_mask` is used
/// only for the exact skip test against the scoreboard's busy mask.
#[derive(Debug, Clone, Copy)]
pub struct StaticTiming {
    /// Source resources as a bit mask over [`res_index`].
    src_mask: u64,
    /// Source resources in `Instruction::reads` order.
    reads: ResList,
    /// Destination resources in `Instruction::writes` order.
    writes: ResList,
    unit: ExecUnit,
    lat: LatencyClass,
    flags: u16,
}

impl StaticTiming {
    /// Derive the static timing record of one instruction.
    pub fn of(insn: &Instruction) -> Self {
        let reads = insn.reads();
        let writes = insn.writes();
        let mut src_mask = 0u64;
        for r in reads.iter() {
            src_mask |= 1 << res_index(r);
        }
        let mut flags = 0u16;
        if insn.is_branch() {
            flags |= F_BRANCH;
        }
        if insn.is_conditional_branch() {
            flags |= F_COND_BRANCH;
        }
        if insn.is_load() {
            flags |= F_LOAD;
        }
        if insn.is_store() {
            flags |= F_STORE;
        }
        if insn.is_predicated() {
            flags |= F_PREDICATED;
        }
        if matches!(
            insn,
            Instruction::Cmpw { .. }
                | Instruction::Cmpwi { .. }
                | Instruction::Cmplw { .. }
                | Instruction::Cmplwi { .. }
        ) {
            flags |= F_COMPARE;
        }
        if matches!(insn, Instruction::B { link: true, .. } | Instruction::Bc { link: true, .. }) {
            flags |= F_CALL;
        }
        if matches!(insn, Instruction::Bclr { .. }) {
            flags |= F_RETURN;
        }
        if matches!(insn, Instruction::Bcctr { .. }) {
            flags |= F_BCCTR;
        }
        StaticTiming {
            src_mask,
            reads,
            writes,
            unit: insn.unit(),
            lat: insn.latency_class(),
            flags,
        }
    }

    /// Whether this is any branch form.
    #[inline]
    pub fn is_branch(&self) -> bool {
        self.flags & F_BRANCH != 0
    }

    #[inline]
    fn is_conditional_branch(&self) -> bool {
        self.flags & F_COND_BRANCH != 0
    }

    /// Whether this is a load.
    #[inline]
    pub fn is_load(&self) -> bool {
        self.flags & F_LOAD != 0
    }

    /// Whether this is a store (the machine's batched loop uses this to
    /// gate the self-modifying-code repair check).
    #[inline]
    pub fn is_store(&self) -> bool {
        self.flags & F_STORE != 0
    }

    #[inline]
    fn is_predicated(&self) -> bool {
        self.flags & F_PREDICATED != 0
    }

    #[inline]
    fn is_compare(&self) -> bool {
        self.flags & F_COMPARE != 0
    }

    #[inline]
    fn is_call(&self) -> bool {
        self.flags & F_CALL != 0
    }

    #[inline]
    fn is_return(&self) -> bool {
        self.flags & F_RETURN != 0
    }

    #[inline]
    fn is_bcctr(&self) -> bool {
        self.flags & F_BCCTR != 0
    }

    /// The per-class counter contribution of one execution of this
    /// instruction (what [`TimingCore::retire`] folds into [`Counters`]).
    pub fn class_counts(&self) -> ClassCounts {
        ClassCounts {
            executed: 1,
            fxu: matches!(self.unit, ExecUnit::Fxu) as u64,
            lsu: matches!(self.unit, ExecUnit::Lsu) as u64,
            compares: self.is_compare() as u64,
            predicated: self.is_predicated() as u64,
            loads: self.is_load() as u64,
            stores: self.is_store() as u64,
        }
    }
}

/// The pipeline stamps of one scheduled instruction.
struct Sched {
    fetch: u64,
    dispatch: u64,
    issue: u64,
    complete: u64,
    commit: u64,
    reason: StallClass,
    gap: u64,
}

/// Flat per-PC profile table over the registered code image. PCs inside
/// the region index a dense vector directly — no hashing on the retire
/// fast path — while any PC outside (or seen before a region was
/// registered) spills to a `HashMap`, so correctness never depends on
/// [`TimingCore::set_code_region`] having been called. A slot counts as
/// *occupied* exactly when the profiling code has written to it, which
/// the accessors detect through a per-type `used` predicate (sites are
/// only ever created together with a non-zero increment).
#[derive(Debug, Clone)]
struct PcTable<T> {
    base: u32,
    dense: Vec<T>,
    spill: std::collections::HashMap<u32, T>,
}

impl<T: Copy + Default> PcTable<T> {
    fn new(base: u32, words: usize) -> Self {
        PcTable { base, dense: vec![T::default(); words], spill: std::collections::HashMap::new() }
    }

    /// The profile slot for `pc` (dense when inside the code region).
    #[inline]
    fn slot(&mut self, pc: u32) -> &mut T {
        let off = pc.wrapping_sub(self.base);
        let idx = (off / 4) as usize;
        if off.is_multiple_of(4) && idx < self.dense.len() {
            &mut self.dense[idx]
        } else {
            self.spill.entry(pc).or_default()
        }
    }

    /// All occupied entries (per `used`), in unspecified order.
    fn entries(&self, used: impl Fn(&T) -> bool) -> Vec<(u32, T)> {
        let mut v: Vec<(u32, T)> = self
            .dense
            .iter()
            .enumerate()
            .filter(|(_, t)| used(t))
            .map(|(i, &t)| (self.base.wrapping_add((i as u32) * 4), t))
            .collect();
        v.extend(self.spill.iter().filter(|(_, t)| used(t)).map(|(&pc, &t)| (pc, t)));
        v
    }

    /// The same entries re-bucketed over a new code region.
    fn rebased(&self, base: u32, words: usize, used: impl Fn(&T) -> bool) -> Self {
        Self::from_entries(base, words, &self.entries(used))
    }

    fn from_entries(base: u32, words: usize, entries: &[(u32, T)]) -> Self {
        let mut t = Self::new(base, words);
        for &(pc, v) in entries {
            *t.slot(pc) = v;
        }
        t
    }
}

/// The timing core. Feed it one committed instruction at a time via
/// [`TimingCore::retire`].
pub struct TimingCore {
    cfg: CoreConfig,
    predictor: AnyPredictor,
    ras: ReturnStack,
    btac: Option<Btac>,
    hier: Hierarchy,
    board: Scoreboard,
    /// Next free cycle per unit instance, per class.
    fxu_free: Vec<u64>,
    lsu_free: Vec<u64>,
    bru_free: Vec<u64>,
    /// Cycle the next instruction may be fetched.
    fetch_cycle: u64,
    /// Instructions already fetched in `fetch_cycle`.
    fetched_this_cycle: usize,
    /// Pending front-end redirect (cycle fetch may resume) and its cause.
    pending_redirect: Option<(u64, StallClass)>,
    /// Last instruction cache line touched by fetch.
    last_fetch_line: u64,
    /// `log2(l1i.line)`, precomputed so the per-instruction fetch stage
    /// needs no integer division.
    fetch_line_shift: u32,
    /// Dispatch-group state.
    group_dispatch: u64,
    group_len: usize,
    group_has_branch: bool,
    /// In-order commit state.
    last_commit: u64,
    commit_new_group: bool,
    /// Commit times of in-flight instructions (reorder window).
    rob: VecDeque<u64>,
    /// `cfg.rob_insns()`, cached off the hot path.
    rob_cap: usize,
    counters: Counters,
    /// Code region registered by the machine (base, words); sizes the
    /// dense site-profiling tables. Zero words = everything spills.
    code_base: u32,
    code_words: usize,
    /// Optional per-PC conditional-branch statistics.
    branch_sites: Option<PcTable<BranchSite>>,
    /// Optional per-PC attribution of *all* stall classes.
    stall_sites: Option<PcTable<StallBreakdown>>,
    /// Pipeline event tracing (enum-dispatched; `Tracer::Off` by default).
    tracer: Tracer,
    /// Direction mispredictions seen (drives link-stack corruption).
    dir_mispredicts_seen: u64,
    /// Interval sampling period in instructions (0 = off).
    interval_insns: u64,
    interval_start: (u64, u64, u64), // (instructions, cycles, dir_mispredicts)
}

/// Per-PC statistics of one conditional-branch site (enabled via
/// [`TimingCore::set_branch_site_profiling`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchSite {
    /// Times the branch committed.
    pub executed: u64,
    /// Times it was taken.
    pub taken: u64,
    /// Times its direction was mispredicted.
    pub mispredicted: u64,
}

/// Everything [`TimingCore::retire`] needs to know about one committed
/// instruction.
#[derive(Debug, Clone, Copy)]
pub struct Retired<'a> {
    /// The instruction.
    pub insn: &'a Instruction,
    /// Its fetch address.
    pub pc: u32,
    /// The functional step's event record (branch outcome, memory access).
    pub event: StepEvent,
}

impl TimingCore {
    /// Build the core from a configuration.
    pub fn new(cfg: CoreConfig) -> Self {
        let predictor = AnyPredictor::build(cfg.predictor);
        let btac = cfg.btac.map(Btac::new);
        let hier = Hierarchy::new(cfg.l1i, cfg.l1d, cfg.l2, cfg.memory_latency);
        TimingCore {
            predictor,
            ras: ReturnStack::new(cfg.ras_entries),
            btac,
            hier,
            board: Scoreboard::new(),
            fxu_free: vec![0; cfg.fxu_count],
            lsu_free: vec![0; cfg.lsu_count],
            bru_free: vec![0; cfg.bru_count],
            fetch_cycle: 0,
            fetched_this_cycle: 0,
            pending_redirect: None,
            last_fetch_line: u64::MAX,
            fetch_line_shift: cfg.l1i.line.trailing_zeros(),
            group_dispatch: 0,
            group_len: 0,
            group_has_branch: false,
            last_commit: 0,
            commit_new_group: true,
            rob: VecDeque::with_capacity(cfg.rob_insns()),
            rob_cap: cfg.rob_insns(),
            counters: Counters::default(),
            code_base: 0,
            code_words: 0,
            branch_sites: None,
            stall_sites: None,
            tracer: Tracer::Off,
            dir_mispredicts_seen: 0,
            interval_insns: 0,
            interval_start: (0, 0, 0),
            cfg,
        }
    }

    /// Enable Figure-2-style interval sampling every `insns` committed
    /// instructions (0 disables).
    pub fn set_interval_sampling(&mut self, insns: u64) {
        self.interval_insns = insns;
    }

    /// Register the code image `(base, words)` so the per-PC profiling
    /// tables can be laid out flat over it. Called by the machine at load
    /// and restore time; existing profile entries are re-bucketed. Cores
    /// driven without a region fall back to hashed storage throughout.
    pub fn set_code_region(&mut self, base: u32, words: usize) {
        self.code_base = base;
        self.code_words = words;
        if let Some(t) = &mut self.branch_sites {
            *t = t.rebased(base, words, |s| s.executed > 0);
        }
        if let Some(t) = &mut self.stall_sites {
            *t = t.rebased(base, words, |s| s.total() > 0);
        }
    }

    /// Enable per-PC conditional-branch statistics (the data behind the
    /// paper's "which branches are unpredictable" analysis).
    pub fn set_branch_site_profiling(&mut self, on: bool) {
        self.branch_sites =
            if on { Some(PcTable::new(self.code_base, self.code_words)) } else { None };
    }

    /// Enable per-PC attribution of every stall class in
    /// [`StallBreakdown`] (the "guilty branch" analysis generalized to all
    /// stall categories). With attribution on, the sum of all per-PC
    /// breakdowns equals the aggregate [`Counters::stalls`] accumulated
    /// while it was enabled.
    pub fn set_stall_site_profiling(&mut self, on: bool) {
        self.stall_sites =
            if on { Some(PcTable::new(self.code_base, self.code_words)) } else { None };
    }

    /// Per-PC stall breakdowns, sorted by total stall cycles (largest
    /// first). Empty unless [`TimingCore::set_stall_site_profiling`] was
    /// enabled.
    pub fn stall_sites(&self) -> Vec<(u32, StallBreakdown)> {
        let mut v = match &self.stall_sites {
            None => Vec::new(),
            Some(t) => t.entries(|s| s.total() > 0),
        };
        v.sort_by(|a, b| b.1.total().cmp(&a.1.total()).then(a.0.cmp(&b.0)));
        v
    }

    /// Install a pipeline event tracer (replacing any previous one). Pass
    /// [`Tracer::Off`] to disable tracing.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The active tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable access to the active tracer (e.g. to flush it).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Remove and return the active tracer, disabling tracing.
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::take(&mut self.tracer)
    }

    /// Per-PC branch statistics, sorted by misprediction count (largest
    /// first). Empty unless profiling was enabled.
    pub fn branch_sites(&self) -> Vec<(u32, BranchSite)> {
        let mut v = match &self.branch_sites {
            None => Vec::new(),
            Some(t) => t.entries(|s| s.executed > 0),
        };
        v.sort_by(|a, b| b.1.mispredicted.cmp(&a.1.mispredicted).then(a.0.cmp(&b.0)));
        v
    }

    /// The accumulated counters (cache/BTAC statistics are folded in).
    pub fn counters(&self) -> Counters {
        let mut c = self.counters.clone();
        c.l1i = self.hier.l1i.stats();
        c.l1d = self.hier.l1d.stats();
        c.l2 = self.hier.l2.stats();
        if let Some(b) = &self.btac {
            c.btac = b.stats();
        }
        c
    }

    /// The configuration in force.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Export the complete timing state for checkpointing. The tracer is
    /// deliberately excluded (it wraps live I/O handles); a restored core
    /// starts with tracing off.
    pub fn snapshot(&self) -> CoreState {
        let sorted = |m: &PcTable<BranchSite>| {
            let mut v = m.entries(|s| s.executed > 0);
            v.sort_by_key(|&(pc, _)| pc);
            v
        };
        let sorted_stalls = |m: &PcTable<StallBreakdown>| {
            let mut v = m.entries(|s| s.total() > 0);
            v.sort_by_key(|&(pc, _)| pc);
            v
        };
        // Flat scoreboard order matches res_index: r0..r31, cr0..cr7, LR,
        // CTR — the layout this snapshot format has always used. The busy
        // mask is derived state and is not serialized.
        let scoreboard: Vec<(u64, ExecUnit)> =
            self.board.ready.iter().copied().zip(self.board.unit.iter().copied()).collect();
        CoreState {
            predictor: self.predictor.snapshot(),
            ras: self.ras.snapshot(),
            btac: self.btac.as_ref().map(Btac::snapshot),
            l1i: self.hier.l1i.snapshot(),
            l1d: self.hier.l1d.snapshot(),
            l2: self.hier.l2.snapshot(),
            scoreboard,
            fxu_free: self.fxu_free.clone(),
            lsu_free: self.lsu_free.clone(),
            bru_free: self.bru_free.clone(),
            fetch_cycle: self.fetch_cycle,
            fetched_this_cycle: self.fetched_this_cycle,
            pending_redirect: self.pending_redirect,
            last_fetch_line: self.last_fetch_line,
            group_dispatch: self.group_dispatch,
            group_len: self.group_len,
            group_has_branch: self.group_has_branch,
            last_commit: self.last_commit,
            commit_new_group: self.commit_new_group,
            rob: self.rob.iter().copied().collect(),
            counters: self.counters.clone(),
            branch_sites: self.branch_sites.as_ref().map(sorted),
            stall_sites: self.stall_sites.as_ref().map(sorted_stalls),
            dir_mispredicts_seen: self.dir_mispredicts_seen,
            interval_insns: self.interval_insns,
            interval_start: self.interval_start,
        }
    }

    /// Reinstall a snapshot taken from a core with the *same*
    /// configuration. The active tracer is left untouched.
    ///
    /// # Errors
    ///
    /// Returns a message when any component's geometry (predictor tables,
    /// caches, unit pools, BTAC presence) does not match this core.
    pub fn restore(&mut self, state: &CoreState) -> Result<(), String> {
        self.predictor.restore(&state.predictor)?;
        self.ras.restore(&state.ras)?;
        match (&mut self.btac, &state.btac) {
            (None, None) => {}
            (Some(b), Some(s)) => b.restore(s)?,
            (Some(_), None) => return Err("snapshot has no BTAC state, core has a BTAC".into()),
            (None, Some(_)) => return Err("snapshot has BTAC state, core has none".into()),
        }
        self.hier.l1i.restore(&state.l1i).map_err(|e| format!("l1i: {e}"))?;
        self.hier.l1d.restore(&state.l1d).map_err(|e| format!("l1d: {e}"))?;
        self.hier.l2.restore(&state.l2).map_err(|e| format!("l2: {e}"))?;
        if state.scoreboard.len() != RES_SLOTS {
            return Err(format!(
                "scoreboard snapshot has {} entries, want {}",
                state.scoreboard.len(),
                RES_SLOTS
            ));
        }
        for (i, &(ready, unit)) in state.scoreboard.iter().enumerate() {
            self.board.ready[i] = ready;
            self.board.unit[i] = unit;
        }
        // No dispatch frontier to compare against here: conservatively mark
        // every written slot busy (a superset never changes results).
        self.board.assume_busy();
        for (pool, src, name) in [
            (&mut self.fxu_free, &state.fxu_free, "fxu"),
            (&mut self.lsu_free, &state.lsu_free, "lsu"),
            (&mut self.bru_free, &state.bru_free, "bru"),
        ] {
            if pool.len() != src.len() {
                return Err(format!(
                    "{name} pool has {} units, snapshot {}",
                    pool.len(),
                    src.len()
                ));
            }
            pool.copy_from_slice(src);
        }
        self.fetch_cycle = state.fetch_cycle;
        self.fetched_this_cycle = state.fetched_this_cycle;
        self.pending_redirect = state.pending_redirect;
        self.last_fetch_line = state.last_fetch_line;
        self.group_dispatch = state.group_dispatch;
        self.group_len = state.group_len;
        self.group_has_branch = state.group_has_branch;
        self.last_commit = state.last_commit;
        self.commit_new_group = state.commit_new_group;
        self.rob = state.rob.iter().copied().collect();
        self.counters = state.counters.clone();
        self.branch_sites = state
            .branch_sites
            .as_ref()
            .map(|v| PcTable::from_entries(self.code_base, self.code_words, v));
        self.stall_sites = state
            .stall_sites
            .as_ref()
            .map(|v| PcTable::from_entries(self.code_base, self.code_words, v));
        self.dir_mispredicts_seen = state.dir_mispredicts_seen;
        self.interval_insns = state.interval_insns;
        self.interval_start = state.interval_start;
        Ok(())
    }

    /// Flip one low-order bit of a direction-predictor counter (fault
    /// injection). Timing-only state: accuracy can suffer, results cannot.
    pub fn corrupt_predictor(&mut self, selector: u64) {
        self.predictor.corrupt(selector);
    }

    /// Invalidate one cache way slot chosen by `selector`, spread across
    /// L1I/L1D/L2 (fault injection: a dropped line). Returns whether a
    /// valid line was actually lost.
    pub fn drop_cache_line(&mut self, selector: u64) -> bool {
        let cache = match selector % 3 {
            0 => &mut self.hier.l1i,
            1 => &mut self.hier.l1d,
            _ => &mut self.hier.l2,
        };
        cache.drop_slot((selector / 3) as usize)
    }

    fn unit_pool(&mut self, unit: ExecUnit) -> &mut Vec<u64> {
        match unit {
            ExecUnit::Fxu => &mut self.fxu_free,
            ExecUnit::Lsu => &mut self.lsu_free,
            ExecUnit::Bru => &mut self.bru_free,
        }
    }

    fn latency(&self, st: &StaticTiming, mem_latency: u64) -> u64 {
        match st.lat {
            LatencyClass::Simple => {
                if st.is_predicated() {
                    self.cfg.lat_simple + self.cfg.lat_predicated_extra
                } else {
                    self.cfg.lat_simple
                }
            }
            LatencyClass::Mul => self.cfg.lat_mul,
            LatencyClass::Div => self.cfg.lat_div,
            LatencyClass::Load => mem_latency,
            LatencyClass::Store => 1,
            LatencyClass::Branch => 1,
        }
    }

    /// Schedule one committed instruction through the pipeline model.
    /// Updates all *dynamic* state (scoreboard, pools, caches, predictor,
    /// stall partition, branch counters, stall/branch site heatmaps) but
    /// none of the per-class retirement counters — those are folded in by
    /// [`TimingCore::retire`] per instruction or by
    /// [`TimingCore::flush_block`] per block.
    fn schedule(&mut self, st: &StaticTiming, pc: u32, event: StepEvent) -> Sched {
        let cfg_group = self.cfg.group_size;
        let mut delay = StallClass::None;

        // ---------------- FETCH ----------------
        if let Some((resume, reason)) = self.pending_redirect.take() {
            if resume > self.fetch_cycle {
                self.fetch_cycle = resume;
                self.fetched_this_cycle = 0;
                delay = reason;
            }
        }
        // Reorder-window limit: the oldest in-flight instruction must have
        // committed before a new one can enter.
        if self.rob.len() >= self.rob_cap {
            let freed = self.rob.pop_front().expect("rob nonempty");
            if freed > self.fetch_cycle {
                self.fetch_cycle = freed;
                self.fetched_this_cycle = 0;
                if delay == StallClass::None {
                    delay = StallClass::WindowFull;
                }
            }
        }
        // Instruction-cache access per line transition.
        let line = (pc as u64) >> self.fetch_line_shift;
        if line != self.last_fetch_line {
            self.last_fetch_line = line;
            let lat = self.hier.fetch(pc);
            let extra = lat.saturating_sub(self.cfg.l1i.hit_latency);
            if extra > 0 {
                self.fetch_cycle += extra;
                self.fetched_this_cycle = 0;
                if delay == StallClass::None {
                    delay = StallClass::ICache;
                }
            }
        }
        if self.fetched_this_cycle >= self.cfg.fetch_width {
            self.fetch_cycle += 1;
            self.fetched_this_cycle = 0;
        }
        let fetch_time = self.fetch_cycle;
        self.fetched_this_cycle += 1;

        // ---------------- DISPATCH (group formation) ----------------
        let close_group = self.group_len >= cfg_group || (st.is_branch() && self.group_has_branch);
        if close_group {
            self.group_dispatch += 1;
            self.group_len = 0;
            self.group_has_branch = false;
            self.commit_new_group = true;
        }
        let earliest_dispatch = fetch_time + self.cfg.frontend_depth;
        if earliest_dispatch > self.group_dispatch {
            // A fresh group cannot dispatch before its instructions arrive;
            // later arrivals push the whole group (approximation).
            self.group_dispatch = earliest_dispatch;
        }
        self.group_len += 1;
        if st.is_branch() {
            self.group_has_branch = true;
        }
        let dispatch = self.group_dispatch;

        // ---------------- ISSUE ----------------
        let mut ready = dispatch;
        let mut blocking_unit = ExecUnit::Bru;
        let mut data_wait = false;
        // Fast path: when no source has a potentially-outstanding producer
        // the scan cannot raise `ready` (busy is a superset of slots with
        // ready > dispatch, and dispatch never decreases), so skipping it
        // is exact. Otherwise scan in `reads` order — the blocking unit is
        // taken from the FIRST source reaching the max ready cycle, so the
        // order is part of the observable stall attribution.
        if st.src_mask & self.board.busy != 0 {
            let mut settled = 0u64;
            for res in st.reads.iter() {
                let i = res_index(res);
                let r = self.board.ready[i];
                if r > ready {
                    ready = r;
                    blocking_unit = self.board.unit[i];
                    data_wait = true;
                }
                if r <= dispatch {
                    settled |= 1 << i;
                }
            }
            self.board.busy &= !settled;
        }
        let unit = st.unit;
        let div_latency = self.cfg.lat_div;
        let pool = self.unit_pool(unit);
        // Earliest-available instance.
        let (slot, &slot_free) =
            pool.iter().enumerate().min_by_key(|&(_, &f)| f).expect("unit pool nonempty");
        let issue = ready.max(slot_free);
        let unit_wait = slot_free > ready;
        // Occupancy: divides hog the unit; everything else pipelines.
        let occupy = if matches!(st.lat, LatencyClass::Div) { div_latency } else { 1 };
        pool[slot] = issue + occupy;

        // ---------------- EXECUTE ----------------
        let mem_latency = match event.mem {
            Some((addr, _, is_store)) => {
                let lat = self.hier.data(addr);
                if !is_store && lat > self.cfg.l1d.hit_latency {
                    data_wait = true;
                }
                if is_store {
                    1
                } else {
                    lat
                }
            }
            None => 0,
        };
        let complete = issue + self.latency(st, mem_latency);

        // ---------------- WRITEBACK ----------------
        for res in st.writes.iter() {
            let i = res_index(res);
            self.board.ready[i] = complete;
            self.board.unit[i] = unit;
            self.board.busy |= 1 << i;
        }

        // ---------------- BRANCH RESOLUTION ----------------
        if let Some((taken, target)) = event.branch {
            self.account_branch(st, pc, fetch_time, complete, taken, target);
        }

        // ---------------- COMMIT ----------------
        let min_commit =
            if self.commit_new_group { self.last_commit + 1 } else { self.last_commit };
        let commit = complete.max(min_commit);
        // Attribute completion-stall cycles beyond the structural 1/group.
        let gap = commit.saturating_sub(min_commit);
        let reason = if gap == 0 {
            StallClass::None
        } else if delay != StallClass::None {
            delay
        } else if event.mem.is_some_and(|(_, _, is_st)| !is_st)
            && mem_latency > self.cfg.l1d.hit_latency
        {
            StallClass::LoadMiss
        } else if (data_wait && blocking_unit == ExecUnit::Fxu)
            || (unit_wait && unit == ExecUnit::Fxu)
        {
            StallClass::FxuChain
        } else if data_wait && blocking_unit == ExecUnit::Lsu {
            StallClass::LoadMiss
        } else {
            StallClass::Other
        };
        if gap > 0 {
            self.counters.stalls.add(reason, gap);
            if let Some(sites) = &mut self.stall_sites {
                sites.slot(pc).add(reason, gap);
            }
        }
        self.commit_new_group = false;
        self.last_commit = commit;
        self.rob.push_back(commit);
        if self.rob.len() > self.rob_cap {
            self.rob.pop_front();
        }
        Sched { fetch: fetch_time, dispatch, issue, complete, commit, reason, gap }
    }

    /// Fold one instruction's per-class counts, advance the cycle counter,
    /// and push an interval sample when one is due.
    fn count_one(&mut self, st: &StaticTiming, commit: u64) {
        let c = &mut self.counters;
        c.instructions += 1;
        c.cycles = c.cycles.max(commit);
        match st.unit {
            ExecUnit::Fxu => c.fxu_ops += 1,
            ExecUnit::Lsu => c.lsu_ops += 1,
            ExecUnit::Bru => {}
        }
        if st.is_compare() {
            c.compares += 1;
        }
        if st.is_predicated() {
            c.predicated_ops += 1;
        }
        if st.is_load() {
            c.loads += 1;
        }
        if st.is_store() {
            c.stores += 1;
        }
        self.sample_interval_edge();
    }

    /// Push an interval sample when the folded instruction count sits on
    /// an interval edge. Both retire paths call this right after folding
    /// counts: per instruction, or per segment clamped to the edge (see
    /// [`TimingCore::insns_to_interval_edge`]), so the sample sees the
    /// same counters either way.
    fn sample_interval_edge(&mut self) {
        let c = &mut self.counters;
        if self.interval_insns == 0 || !c.instructions.is_multiple_of(self.interval_insns) {
            return;
        }
        let (i0, cy0, m0) = self.interval_start;
        let di = c.instructions - i0;
        let dc = c.cycles.saturating_sub(cy0).max(1);
        let dm = c.branches.direction_mispredictions - m0;
        let cond =
            (di as f64 * c.branches.conditional as f64 / c.instructions.max(1) as f64).max(1.0);
        c.intervals.push(IntervalSample {
            instructions: c.instructions,
            cycles: c.cycles,
            ipc: di as f64 / dc as f64,
            mispredict_rate: dm as f64 / cond,
        });
        self.interval_start = (c.instructions, c.cycles, c.branches.direction_mispredictions);
    }

    /// Instructions left until the next interval-sampling edge
    /// (`u64::MAX` when sampling is off). The batched retire path clamps
    /// each segment to this so an edge can only fall on a segment's last
    /// instruction, where [`TimingCore::flush_block`] samples it.
    #[inline]
    pub fn insns_to_interval_edge(&self) -> u64 {
        match self.interval_insns {
            0 => u64::MAX,
            n => n - self.counters.instructions % n,
        }
    }

    /// Account one committed instruction; returns the cycle it commits.
    ///
    /// Derives the [`StaticTiming`] record on the fly and runs the same
    /// scheduler as the batched path, so the per-instruction reference
    /// loop and the batched loop are identical by construction.
    pub fn retire(&mut self, r: Retired<'_>) -> u64 {
        let st = StaticTiming::of(r.insn);
        let s = self.schedule(&st, r.pc, r.event);
        self.count_one(&st, s.commit);
        // One discriminant test when tracing is off; the record is built
        // only on the cold path.
        if !self.tracer.is_off() {
            self.emit_trace(
                &r, s.fetch, s.dispatch, s.issue, s.complete, s.commit, s.reason, s.gap,
            );
        }
        s.commit
    }

    /// Account one committed instruction from its precomputed static
    /// timing record, deferring the per-class counter increments to a
    /// later [`TimingCore::flush_block`]. Only valid when no tracer is
    /// active (see [`TimingCore::needs_per_insn_retire`]); callers
    /// accumulate the class counts per segment from the sidecar's prefix
    /// sums.
    #[inline]
    pub fn retire_batched(&mut self, st: &StaticTiming, pc: u32, event: StepEvent) -> u64 {
        self.schedule(st, pc, event).commit
    }

    /// Fold a segment's accumulated per-class counts into [`Counters`],
    /// advance the cycle counter to the last commit, and push the
    /// interval sample if the segment ended on an interval edge.
    /// `last_commit` is monotonically non-decreasing, so taking it once
    /// per segment equals the per-instruction `max` fold. The segment
    /// must not cross an interval edge (clamp it to
    /// [`TimingCore::insns_to_interval_edge`]).
    pub fn flush_block(&mut self, d: ClassCounts) {
        let c = &mut self.counters;
        c.instructions += d.executed;
        c.fxu_ops += d.fxu;
        c.lsu_ops += d.lsu;
        c.compares += d.compares;
        c.predicated_ops += d.predicated;
        c.loads += d.loads;
        c.stores += d.stores;
        c.cycles = c.cycles.max(self.last_commit);
        if d.executed > 0 {
            self.sample_interval_edge();
        }
    }

    /// Cycle of the most recent commit (0 before the first retirement).
    /// Monotonically non-decreasing; the machine's telemetry hooks read
    /// it once per retired block to feed the retire-latency histogram.
    #[inline]
    pub fn last_commit(&self) -> u64 {
        self.last_commit
    }

    /// Whether retire-time bookkeeping requires visiting every
    /// instruction individually, ruling out the block-batched commit
    /// path. Only a tracer does: it emits one record per instruction.
    pub fn needs_per_insn_retire(&self) -> bool {
        !self.tracer.is_off()
    }

    /// Build and deliver one pipeline event record (kept out of the retire
    /// fast path; only runs when a tracer is installed).
    #[cold]
    #[allow(clippy::too_many_arguments)]
    fn emit_trace(
        &mut self,
        r: &Retired<'_>,
        fetch: u64,
        dispatch: u64,
        issue: u64,
        complete: u64,
        commit: u64,
        stall: StallClass,
        stall_cycles: u64,
    ) {
        // Any redirect pending here was installed by THIS instruction's
        // branch resolution: older redirects were consumed at fetch.
        let redirect = r
            .event
            .branch
            .and(self.pending_redirect)
            .map(|(resume, cause)| TraceRedirect { resume, cause });
        let record = InsnTrace {
            seq: self.counters.instructions,
            pc: r.pc,
            disasm: r.insn.to_string(),
            fetch,
            dispatch,
            issue,
            complete,
            commit,
            stall,
            stall_cycles,
            redirect,
        };
        self.tracer.record(&record);
    }

    fn account_branch(
        &mut self,
        st: &StaticTiming,
        pc: u32,
        fetch_time: u64,
        resolve: u64,
        taken: bool,
        target: u32,
    ) {
        let c = &mut self.counters;
        c.branches.total += 1;
        let conditional = st.is_conditional_branch();
        if conditional {
            c.branches.conditional += 1;
        }
        if taken {
            c.branches.taken += 1;
        }

        // Direction prediction (conditional branches only — unconditional
        // branches and bdnz-with-known-count still resolve direction in
        // the front end; bdnz direction is still predicted dynamically,
        // matching POWER5, which predicts all bc forms).
        let mut direction_mispredict = false;
        if conditional {
            let predicted = self.predictor.predict(pc);
            self.predictor.update(pc, taken);
            if let Some(sites) = &mut self.branch_sites {
                let site = sites.slot(pc);
                site.executed += 1;
                site.taken += taken as u64;
                site.mispredicted += (predicted != taken) as u64;
            }
            if predicted != taken {
                direction_mispredict = true;
                c.branches.direction_mispredictions += 1;
                // Wrong-path fetch speculatively pushes/pops the link
                // stack; model the occasional corruption that survives the
                // flush (POWER5's link stack is not checkpointed), which
                // is what produces the paper's small residue of *target*
                // mispredictions next to the dominant direction ones.
                self.dir_mispredicts_seen += 1;
                if self.dir_mispredicts_seen.is_multiple_of(20) {
                    let _ = self.ras.pop();
                }
            }
        }

        // Call/return bookkeeping for target prediction.
        if st.is_call() {
            self.ras.push(pc.wrapping_add(4));
        }
        let is_return = st.is_return();

        // Target prediction for taken branches.
        let mut target_mispredict = false;
        let mut btac_covered = false;
        if taken && !direction_mispredict {
            if is_return {
                match self.ras.pop() {
                    Some(pred) if pred == target => {}
                    _ => target_mispredict = true,
                }
            } else if st.is_bcctr() {
                // CTR targets resolve late; treat like a normal taken
                // branch (bubble), never a silent mispredict.
            }
            if !target_mispredict {
                if let Some(btac) = &mut self.btac {
                    let predicted = btac.lookup(pc);
                    btac.update(pc, predicted, target);
                    match predicted {
                        Some(nia) if nia == target => btac_covered = true,
                        Some(_) => target_mispredict = true,
                        None => {}
                    }
                }
            }
        } else if is_return && taken {
            // Direction mispredict on a return still consumes the RAS entry.
            let _ = self.ras.pop();
        }

        if target_mispredict {
            c.branches.target_mispredictions += 1;
        }

        // Front-end consequences, in priority order.
        if direction_mispredict || target_mispredict {
            let resume = resolve + self.cfg.mispredict_penalty;
            self.pending_redirect = Some((resume, StallClass::Mispredict));
        } else if taken {
            // A correct BTAC prediction removes the NIA-computation bubble;
            // the target-refetch overhead remains either way.
            let bubble = if btac_covered {
                self.cfg.fetch_align_penalty
            } else {
                self.cfg.fetch_align_penalty + self.cfg.effective_taken_penalty()
            };
            // Taken branch ends the fetch packet; the bubble shows up as a
            // completion stall only if the window cannot hide it (the gap
            // is attributed at the next commit).
            let resume = fetch_time + 1 + bubble;
            self.pending_redirect = Some((resume, StallClass::TakenBubble));
        }
    }
}

/// Serializable [`TimingCore`] state — every field the retire loop reads,
/// minus the tracer (live I/O) and the configuration (supplied by the
/// caller at restore time, which is what makes geometry mismatches
/// detectable instead of silent).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreState {
    /// Direction-predictor tables.
    pub predictor: PredictorState,
    /// Link stack.
    pub ras: RasState,
    /// BTAC entries (`None` when the core has no BTAC).
    pub btac: Option<BtacState>,
    /// L1 instruction cache.
    pub l1i: CacheState,
    /// L1 data cache.
    pub l1d: CacheState,
    /// Unified L2.
    pub l2: CacheState,
    /// `(ready_cycle, producing_unit)` for r0..r31, cr0..cr7, LR, CTR.
    pub scoreboard: Vec<(u64, ExecUnit)>,
    /// Next free cycle per FXU instance.
    pub fxu_free: Vec<u64>,
    /// Next free cycle per LSU instance.
    pub lsu_free: Vec<u64>,
    /// Next free cycle per BRU instance.
    pub bru_free: Vec<u64>,
    /// Cycle the next instruction may be fetched.
    pub fetch_cycle: u64,
    /// Instructions already fetched in `fetch_cycle`.
    pub fetched_this_cycle: usize,
    /// Pending front-end redirect and its cause.
    pub pending_redirect: Option<(u64, StallClass)>,
    /// Last I-cache line touched by fetch (`u64::MAX` = none yet).
    pub last_fetch_line: u64,
    /// Dispatch cycle of the open group.
    pub group_dispatch: u64,
    /// Instructions in the open group.
    pub group_len: usize,
    /// Whether the open group holds a branch.
    pub group_has_branch: bool,
    /// Cycle of the most recent commit.
    pub last_commit: u64,
    /// Whether the next commit opens a new group.
    pub commit_new_group: bool,
    /// Commit cycles of in-flight instructions, oldest first.
    pub rob: Vec<u64>,
    /// Raw accumulated counters (cache/BTAC stats live in their snapshots).
    pub counters: Counters,
    /// Per-PC branch statistics, sorted by PC (`None` = profiling off).
    pub branch_sites: Option<Vec<(u32, BranchSite)>>,
    /// Per-PC stall attribution, sorted by PC (`None` = profiling off).
    pub stall_sites: Option<Vec<(u32, StallBreakdown)>>,
    /// Direction mispredictions seen (link-stack corruption pacing).
    pub dir_mispredicts_seen: u64,
    /// Interval sampling period (0 = off).
    pub interval_insns: u64,
    /// `(instructions, cycles, dir_mispredicts)` at the interval start.
    pub interval_start: (u64, u64, u64),
}

impl std::fmt::Debug for TimingCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingCore")
            .field("cfg", &self.cfg)
            .field("fetch_cycle", &self.fetch_cycle)
            .field("last_commit", &self.last_commit)
            .field("instructions", &self.counters.instructions)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_isa::insn::BranchCond;
    use ppc_isa::reg::{CrBit, Gpr};

    fn core() -> TimingCore {
        TimingCore::new(CoreConfig::power5())
    }

    fn simple(rt: u8, ra: u8, rb: u8) -> Instruction {
        Instruction::Add { rt: Gpr(rt), ra: Gpr(ra), rb: Gpr(rb) }
    }

    fn retire_plain(core: &mut TimingCore, insn: &Instruction, pc: u32) -> u64 {
        core.retire(Retired { insn, pc, event: StepEvent::default() })
    }

    #[test]
    fn independent_ops_pack_into_groups() {
        let mut c = core();
        // 50 independent adds (different targets, sources always r1/r2).
        let insns: Vec<Instruction> = (0..25).map(|i| simple(3 + (i % 2) as u8, 1, 2)).collect();
        let mut last = 0;
        for (i, insn) in insns.iter().enumerate() {
            last = retire_plain(&mut c, insn, 0x1000 + 4 * i as u32);
        }
        let counters = c.counters();
        assert_eq!(counters.instructions, 25);
        // Group commit caps at 5/cycle: at least ceil(25/5) commit cycles,
        // but only 2 FXUs limit issue to 2/cycle.
        assert!(counters.cycles >= 12, "cycles {}", counters.cycles);
        assert!(last >= 12);
    }

    #[test]
    fn dependent_chain_serializes() {
        let mut c = core();
        // r3 = r3 + r3, 20 times: each must wait for the previous.
        let insn = simple(3, 3, 3);
        let mut commits = Vec::new();
        for i in 0..20 {
            commits.push(retire_plain(&mut c, &insn, 0x1000 + 4 * i));
        }
        // Commit gaps of >= 1 cycle each after the pipeline fills.
        let tail: Vec<u64> = commits[10..].windows(2).map(|w| w[1] - w[0]).collect();
        assert!(tail.iter().all(|&g| g >= 1), "gaps {tail:?}");
    }

    #[test]
    fn more_fxus_speed_up_independent_work() {
        let run = |fxus: usize| {
            let mut c = TimingCore::new(CoreConfig::power5().with_fxus(fxus));
            for i in 0..400u32 {
                // Rotate targets so instructions are independent.
                let insn = simple(3 + (i % 8) as u8, 1, 2);
                retire_plain(&mut c, &insn, 0x1000 + 4 * i);
            }
            c.counters().cycles
        };
        let two = run(2);
        let four = run(4);
        assert!(four < two, "4 FXUs {four} vs 2 FXUs {two}");
    }

    #[test]
    fn taken_branch_pays_bubble() {
        // Alternating add + always-taken branch: each branch costs the
        // 2-cycle bubble, so IPC sinks well below the no-branch case.
        let run = |penalty: u64| {
            let mut cfg = CoreConfig::power5();
            cfg.taken_branch_penalty = penalty;
            let mut c = TimingCore::new(cfg);
            for i in 0..200u32 {
                let pc = 0x1000 + 8 * i;
                retire_plain(&mut c, &simple(3, 1, 2), pc);
                let b = Instruction::B { offset: 4, link: false };
                c.retire(Retired {
                    insn: &b,
                    pc: pc + 4,
                    event: StepEvent { branch: Some((true, pc + 8)), ..Default::default() },
                });
            }
            c.counters().cycles
        };
        let with_bubble = run(2);
        let without = run(0);
        assert!(with_bubble > without + 300, "bubble {with_bubble} vs none {without}");
    }

    #[test]
    fn mispredicted_branches_cost_redirects() {
        // A conditional branch with a pseudorandom direction stream.
        let mut c = core();
        let bc = Instruction::Bc { cond: BranchCond::IfTrue(CrBit(1)), offset: 8, link: false };
        let mut x = 99u64;
        for i in 0..500u32 {
            let pc = 0x1000 + 8 * (i % 4);
            retire_plain(&mut c, &simple(3, 1, 2), pc);
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let taken = (x >> 40) & 1 == 1;
            c.retire(Retired {
                insn: &bc,
                pc: pc + 4,
                event: StepEvent { branch: Some((taken, pc + 12)), ..Default::default() },
            });
        }
        let counters = c.counters();
        assert!(counters.branches.conditional == 500);
        let rate = counters.branches.misprediction_rate();
        assert!(rate > 0.3, "random directions must mispredict, rate {rate}");
        assert!(counters.stalls.branch_mispredict > 1000);
        // Direction dominates target mispredictions (Table I's point).
        assert!(counters.branches.direction_fraction() > 0.99);
    }

    #[test]
    fn btac_removes_taken_bubble_for_stable_branches() {
        let run = |with_btac: bool| {
            let mut cfg = CoreConfig::power5();
            if with_btac {
                cfg = cfg.with_btac(crate::config::BtacConfig::default());
            }
            let mut c = TimingCore::new(cfg);
            for i in 0..300u32 {
                let pc = 0x1000 + 8 * (i % 2); // two hot branches
                retire_plain(&mut c, &simple(3, 1, 2), pc);
                let b = Instruction::B { offset: 16, link: false };
                c.retire(Retired {
                    insn: &b,
                    pc: pc + 4,
                    event: StepEvent { branch: Some((true, pc + 20)), ..Default::default() },
                });
            }
            c.counters()
        };
        let base = run(false);
        let btac = run(true);
        assert!(btac.cycles + 200 < base.cycles, "btac {} vs base {}", btac.cycles, base.cycles);
        assert!(btac.btac.predictions > 200);
        assert!(btac.btac.misprediction_rate() < 0.05);
        assert_eq!(base.btac.lookups, 0);
    }

    #[test]
    fn returns_predicted_by_ras() {
        let mut c = core();
        // call/return pairs: bl then blr back.
        for i in 0..50u32 {
            let call_pc = 0x1000 + 16 * i;
            let bl = Instruction::B { offset: 0x100, link: true };
            c.retire(Retired {
                insn: &bl,
                pc: call_pc,
                event: StepEvent { branch: Some((true, call_pc + 0x100)), ..Default::default() },
            });
            let blr = Instruction::Bclr { cond: BranchCond::Always };
            c.retire(Retired {
                insn: &blr,
                pc: call_pc + 0x100,
                event: StepEvent { branch: Some((true, call_pc + 4)), ..Default::default() },
            });
        }
        let counters = c.counters();
        assert_eq!(counters.branches.target_mispredictions, 0);
    }

    #[test]
    fn load_misses_attributed_to_load_stalls() {
        let mut c = core();
        let ld = Instruction::Lwz { rt: Gpr(3), ra: Gpr(4), disp: 0 };
        // Loads striding by one cache line, then a dependent use.
        for i in 0..200u32 {
            c.retire(Retired {
                insn: &ld,
                pc: 0x1000,
                event: StepEvent {
                    mem: Some((0x10_0000 + 128 * i, 4, false)),
                    ..Default::default()
                },
            });
            retire_plain(&mut c, &simple(5, 3, 3), 0x1004);
        }
        let counters = c.counters();
        assert!(counters.l1d.misses >= 199, "misses {}", counters.l1d.misses);
        assert!(counters.stalls.load > 0);
    }

    #[test]
    fn interval_sampling_emits_points() {
        let mut c = core();
        c.set_interval_sampling(50);
        for i in 0..175u32 {
            retire_plain(&mut c, &simple(3 + (i % 4) as u8, 1, 2), 0x1000 + 4 * i);
        }
        let counters = c.counters();
        assert_eq!(counters.intervals.len(), 3);
        assert!(counters.intervals.iter().all(|s| s.ipc > 0.0));
        assert_eq!(counters.intervals[0].instructions, 50);
    }

    #[test]
    fn snapshot_restore_resumes_bit_exactly() {
        let mixed = |c: &mut TimingCore, i: u32, x: &mut u64| {
            *x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pc = 0x1000 + 8 * (i % 16);
            match i % 4 {
                0 => {
                    retire_plain(c, &simple(3 + (i % 4) as u8, 1, 2), pc);
                }
                1 => {
                    let ld = Instruction::Lwz { rt: Gpr(4), ra: Gpr(5), disp: 0 };
                    c.retire(Retired {
                        insn: &ld,
                        pc,
                        event: StepEvent {
                            mem: Some((0x8000 + 64 * (i % 40), 4, false)),
                            ..Default::default()
                        },
                    });
                }
                2 => {
                    let bc = Instruction::Bc {
                        cond: BranchCond::IfTrue(CrBit(0)),
                        offset: 8,
                        link: false,
                    };
                    let taken = (*x >> 40) & 1 == 1;
                    c.retire(Retired {
                        insn: &bc,
                        pc,
                        event: StepEvent { branch: Some((taken, pc + 8)), ..Default::default() },
                    });
                }
                _ => {
                    let bl = Instruction::B { offset: 0x40, link: true };
                    c.retire(Retired {
                        insn: &bl,
                        pc,
                        event: StepEvent { branch: Some((true, pc + 0x40)), ..Default::default() },
                    });
                }
            }
        };
        let cfg = CoreConfig::power5().with_btac(crate::config::BtacConfig::default());
        let mut gold = TimingCore::new(cfg.clone());
        gold.set_branch_site_profiling(true);
        gold.set_stall_site_profiling(true);
        gold.set_interval_sampling(37);
        let (mut xa, mut xb) = (99u64, 99u64);
        for i in 0..500 {
            mixed(&mut gold, i, &mut xa);
        }
        // Re-run the first 200, checkpoint, restore into a fresh core, and
        // replay the remaining 300: every counter must match `gold`.
        let mut first = TimingCore::new(cfg.clone());
        first.set_branch_site_profiling(true);
        first.set_stall_site_profiling(true);
        first.set_interval_sampling(37);
        for i in 0..200 {
            mixed(&mut first, i, &mut xb);
        }
        let snap = first.snapshot();
        let mut resumed = TimingCore::new(cfg);
        resumed.restore(&snap).unwrap();
        for i in 200..500 {
            mixed(&mut resumed, i, &mut xb);
        }
        assert_eq!(resumed.counters(), gold.counters());
        assert_eq!(resumed.branch_sites(), gold.branch_sites());
        assert_eq!(resumed.stall_sites(), gold.stall_sites());
        assert_eq!(resumed.snapshot(), gold.snapshot());
    }

    #[test]
    fn restore_rejects_mismatched_configuration() {
        let snap = TimingCore::new(CoreConfig::power5()).snapshot();
        let mut other = TimingCore::new(CoreConfig::power5().with_fxus(4));
        assert!(other.restore(&snap).is_err());
        let mut btac =
            TimingCore::new(CoreConfig::power5().with_btac(crate::config::BtacConfig::default()));
        assert!(btac.restore(&snap).is_err());
    }

    #[test]
    fn timing_faults_never_break_the_stall_partition() {
        let mut c = core();
        c.set_stall_site_profiling(true);
        let bc = Instruction::Bc { cond: BranchCond::IfTrue(CrBit(0)), offset: 8, link: false };
        let mut x = 5u64;
        for i in 0..400u32 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if i % 7 == 0 {
                c.corrupt_predictor(x);
            }
            if i % 11 == 0 {
                c.drop_cache_line(x >> 8);
            }
            let pc = 0x1000 + 8 * (i % 8);
            retire_plain(&mut c, &simple(3, 1, 2), pc);
            c.retire(Retired {
                insn: &bc,
                pc: pc + 4,
                event: StepEvent {
                    branch: Some(((x >> 33) & 1 == 1, pc + 12)),
                    ..Default::default()
                },
            });
        }
        let counters = c.counters();
        let mut summed = StallBreakdown::default();
        for (_, s) in c.stall_sites() {
            summed.merge(&s);
        }
        assert_eq!(summed, counters.stalls, "per-PC stalls no longer partition the aggregate");
    }

    #[test]
    fn counters_conserve_branch_identities() {
        let mut c = core();
        let bc = Instruction::Bc { cond: BranchCond::IfTrue(CrBit(0)), offset: 8, link: false };
        for i in 0..100u32 {
            let taken = i % 3 == 0;
            c.retire(Retired {
                insn: &bc,
                pc: 0x1000,
                event: StepEvent { branch: Some((taken, 0x1008)), ..Default::default() },
            });
        }
        let counters = c.counters();
        assert_eq!(counters.branches.total, 100);
        assert_eq!(counters.branches.conditional, 100);
        assert_eq!(counters.branches.taken, 34);
        assert!(counters.branches.direction_mispredictions <= counters.branches.conditional);
    }
}
