//! The block-batched timed path must be bit-for-bit identical to the
//! per-instruction reference loop.
//!
//! `Machine::run_timed` dispatches to a batched loop that folds counter
//! updates per segment of a dispatch block and skips scoreboard scans
//! for dependency-free instructions; `Machine::run_timed_pinned` is the
//! pinned per-instruction reference. These tests drive every application
//! workload at `Scale::Test` through both paths and require identical
//! `Counters`, per-function profiles, interval series, guest-profiler
//! reports, stall/branch site tables (which must still partition the
//! aggregates), checkpoints, and architectural output — including when
//! the run is split by a mid-stream checkpoint/restore or cut by the
//! cycle watchdog. Every batched side must also have retired all of its
//! instructions on the batched path: `Workload::prepare` installs
//! profile regions, so a routing regression would otherwise turn these
//! into pinned-versus-pinned comparisons.

use bioarch::apps::{App, Scale, Variant, Workload};
use power5_sim::fault::check_stall_partition;
use power5_sim::{
    Checkpoint, CoreConfig, Machine, RetireTally, RunResult, StopReason, Watchdog, WatchdogKind,
};

const BUDGET: u64 = 2_000_000_000;

/// Prepare one app workload and return its machine plus the output
/// window to verify against the golden vector.
fn prepared(app: App) -> (Machine, u32, usize, Vec<i32>) {
    let wl = Workload::new(app, Scale::Test, 7);
    let run = wl.prepare(Variant::Baseline, &CoreConfig::power5()).expect("prepare");
    (run.machine, run.out_addr, run.out_len, run.golden)
}

fn checkpoints_match(app: App, a: &Checkpoint, b: &Checkpoint) {
    // `Checkpoint` derives `PartialEq` over the complete state (registers,
    // sparse memory image, counters, predictor, scoreboard serialization,
    // per-function profile), so one comparison covers everything the
    // timed paths could perturb.
    assert_eq!(a, b, "{}: batched and pinned checkpoints differ", app.name());
}

/// `m` retired exactly `batched` instructions, all on the batched path.
fn assert_all_batched(app: App, m: &Machine, batched: u64) {
    assert_eq!(
        m.retire_tally(),
        RetireTally { batched, ..RetireTally::default() },
        "{}: the batched side left the batched path",
        app.name()
    );
}

/// Run `batched` through `run_timed` and `pinned` through the reference
/// loop, and require identical results, counters, profiles, registers,
/// and retire paths. Callers compare full checkpoints where they need
/// the whole state (a checkpoint scans the entire memory image).
fn run_both(app: App, batched: &mut Machine, pinned: &mut Machine, budget: u64) -> RunResult {
    let (b0, p0) = (batched.retire_tally().batched, pinned.retire_tally().pinned);
    let rb = batched.run_timed(budget).expect("batched run");
    let rp = pinned.run_timed_pinned(budget).expect("pinned run");
    assert_eq!(rb, rp, "{}: run results differ", app.name());
    assert_all_batched(app, batched, b0 + rb.executed);
    assert_eq!(pinned.retire_tally().pinned, p0 + rp.executed, "{}: pinned tally", app.name());
    assert_eq!(batched.counters(), pinned.counters(), "{}: counters differ", app.name());
    assert_eq!(batched.profile_results(), pinned.profile_results(), "{}: profiles", app.name());
    assert_eq!(batched.cpu().pc, pinned.cpu().pc, "{}: pc", app.name());
    assert_eq!(batched.cpu().gpr, pinned.cpu().gpr, "{}: registers", app.name());
    rb
}

#[test]
fn batched_path_matches_pinned_reference_for_every_app() {
    for app in App::all() {
        let (mut batched, out_addr, out_len, golden) = prepared(app);
        let (mut pinned, ..) = prepared(app);
        for m in [&mut batched, &mut pinned] {
            m.set_branch_site_profiling(true);
            m.set_stall_site_profiling(true);
        }

        let rb = run_both(app, &mut batched, &mut pinned, BUDGET);
        assert!(rb.halted, "{}: both paths must halt", app.name());

        // The Fig 1 per-function breakdown: every instruction lands in a
        // region, and the region charges agree exactly.
        let profile = batched.profile_results();
        let charged: u64 = profile.iter().map(|&(_, insns, _)| insns).sum();
        assert_eq!(charged, rb.executed, "{}: profile covers every retire", app.name());

        // Site tables are identical and still partition the aggregates on
        // both sides (the batched path records sites inside the shared
        // scheduling stage, not in the folded per-segment counters).
        assert_eq!(batched.stall_sites(), pinned.stall_sites(), "{}: stall sites", app.name());
        assert_eq!(batched.branch_sites(), pinned.branch_sites(), "{}: branch sites", app.name());
        for m in [&batched, &pinned] {
            check_stall_partition(&m.counters().stalls, &m.stall_sites())
                .unwrap_or_else(|e| panic!("{}: stall partition broken: {e}", app.name()));
        }

        // Full-state digest: registers, memory image, predictor tables,
        // scoreboard — everything a checkpoint captures.
        checkpoints_match(app, &batched.checkpoint(), &pinned.checkpoint());

        // And the run actually computed the workload's answer.
        let out = batched.mem().read_i32s(out_addr, out_len).expect("output window");
        assert_eq!(out, golden, "{}: batched output diverges from golden", app.name());
    }
}

/// Splitting the batched run with a checkpoint/restore round trip must
/// not perturb it: the mid-stream checkpoints of both paths agree, and a
/// machine restored from the batched mid-point finishes with the same
/// final state as an uninterrupted pinned run.
#[test]
fn batched_checkpoints_are_exact_at_mid_stream_cuts() {
    for app in App::all() {
        let (mut batched, ..) = prepared(app);
        let (mut pinned, ..) = prepared(app);

        // Cut at an instruction count low enough that no Test-scale app
        // has halted, and odd so it never coincides with a block boundary.
        const CUT: u64 = 100_003;
        let rb = run_both(app, &mut batched, &mut pinned, CUT);
        assert_eq!(rb.executed, CUT, "{}: budget stop is exact", app.name());
        let mid = batched.checkpoint();
        checkpoints_match(app, &mid, &pinned.checkpoint());

        // Resume the batched side from its own checkpoint in a fresh
        // machine; both sides then run to completion on their usual path.
        let mut resumed = prepared(app).0;
        resumed.restore(&mid).expect("restore mid-stream checkpoint");
        let rr = run_both(app, &mut resumed, &mut pinned, BUDGET);
        assert!(rr.halted, "{}: both second halves halt", app.name());
        checkpoints_match(app, &resumed.checkpoint(), &pinned.checkpoint());
    }
}

/// Fig 2's interval series: sampling periods that are not multiples of
/// any block length put the edges mid-block, where the batched path must
/// split its segments and sample exactly what the reference loop does.
#[test]
fn interval_series_match_at_mid_block_edges() {
    for app in App::all() {
        for interval in [7, 997, 20_011] {
            let (mut batched, ..) = prepared(app);
            let (mut pinned, ..) = prepared(app);
            for m in [&mut batched, &mut pinned] {
                m.set_interval_sampling(interval);
            }
            let rb = run_both(app, &mut batched, &mut pinned, BUDGET);
            assert!(rb.halted, "{}: both paths must halt", app.name());
            let (cb, cp) = (batched.counters(), pinned.counters());
            assert_eq!(cb.intervals.len() as u64, rb.executed / interval, "{}", app.name());
            assert_eq!(cb.intervals, cp.intervals, "{}: interval {interval} series", app.name());
        }
    }
}

/// The cycle watchdog stops the batched path on the same instruction as
/// the reference loop — at a sweep of consecutive limits, so cuts land
/// at every commit position, mid-block ones included — and a run resumed
/// under a widened budget, and then without one, stays identical.
#[test]
fn cycle_watchdog_cuts_match_at_every_offset() {
    for app in App::all() {
        let (mut batched, ..) = prepared(app);
        let (mut pinned, ..) = prepared(app);
        let start = batched.checkpoint();
        let mut mid_block_cuts = 0;
        let limits = (1..=24).chain(4_000..4_032).chain([77_777]);
        for (k, limit) in limits.enumerate() {
            for m in [&mut batched, &mut pinned] {
                m.restore(&start).expect("restore the start state");
                m.set_interval_sampling(13);
                m.set_sampling_profiler(61);
                m.set_watchdog(Watchdog { max_cycles: Some(limit), ..Watchdog::default() });
            }
            let r = run_both(app, &mut batched, &mut pinned, BUDGET);
            assert_eq!(r.stop, StopReason::Watchdog(WatchdogKind::Cycles), "{}", app.name());
            // A cut whose preceding word is no branch stopped inside a
            // straight-line run, i.e. in the middle of a dispatch block.
            let pc = batched.cpu().pc;
            let prev = batched.mem().load_u32(pc.wrapping_sub(4)).ok();
            if prev.and_then(|w| ppc_isa::decode(w).ok()).is_some_and(|i| !i.is_branch()) {
                mid_block_cuts += 1;
            }

            // Widen the budget and resume on the same machines.
            for m in [&mut batched, &mut pinned] {
                m.set_watchdog(Watchdog { max_cycles: Some(limit * 2 + 1), ..Watchdog::default() });
            }
            run_both(app, &mut batched, &mut pinned, BUDGET);

            // Run a few resumes to completion (each is a whole app run).
            if k % 32 == 0 {
                for m in [&mut batched, &mut pinned] {
                    m.set_watchdog(Watchdog::default());
                }
                let r = run_both(app, &mut batched, &mut pinned, BUDGET);
                assert!(r.halted, "{}: the resumed run halts", app.name());
                checkpoints_match(app, &batched.checkpoint(), &pinned.checkpoint());
            }
            assert_eq!(
                batched.take_profiler().map(|p| p.report(None)),
                pinned.take_profiler().map(|p| p.report(None)),
                "{}: guest profiles at limit {limit}",
                app.name()
            );
        }
        assert!(mid_block_cuts > 0, "{}: no cut landed mid-block", app.name());
    }
}

/// The guest sampling profiler still sees one record per dispatch block,
/// with the same length and commit cycle, although the batched path
/// splits blocks into segments at profile-region boundaries.
#[test]
fn guest_profiler_reports_match() {
    for app in App::all() {
        for period in [1, 61, 4096] {
            let (mut batched, ..) = prepared(app);
            let (mut pinned, ..) = prepared(app);
            for m in [&mut batched, &mut pinned] {
                m.set_sampling_profiler(period);
            }
            run_both(app, &mut batched, &mut pinned, BUDGET);
            let report = |m: &mut Machine| {
                let profiler = m.take_profiler().expect("profiler attached");
                profiler.report(m.symbols())
            };
            let (rb, rp) = (report(&mut batched), report(&mut pinned));
            assert!(rb.blocks > 0, "{}: profiler saw no blocks", app.name());
            assert_eq!(rb, rp, "{}: guest profile at period {period}", app.name());
        }
    }
}
