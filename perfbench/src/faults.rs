//! `faults`: the seeded fault campaign at Test scale over the four
//! apps, on the trunk schedule written with the `Machine` API. One clean
//! machine advances monotonically with faults sorted by injection point;
//! per fault the benchmark takes `checkpoint()`, applies the `FaultSpec`,
//! classifies the faulty leg under the watchdog exactly as
//! `examples/fault_campaign.rs` does, then calls `restore()`.

use crate::trace::Tracer;
use crate::{derive_seed, quantile, timed_setup, Outcome};
use bioarch::apps::{App, PreparedRun, Scale, Variant, Workload};
use power5_sim::fault::{check_invariants, check_stall_partition, FaultPlan};
use power5_sim::machine::Machine;
use power5_sim::{CoreConfig, FaultSpec, InjectionWindow, RunResult, StopReason, Trap, Watchdog};
use std::time::Instant;

pub struct Size {
    pub faults_per_app: usize,
    pub rounds: usize,
}

impl Size {
    /// One round (4 apps x 8 faults) takes 0.7-1.0 s on a 2-core host.
    /// Many short rounds average over many input seeds and over the
    /// host's speed, which moves from second to second.
    pub fn for_seconds(seconds: u64) -> Size {
        Size { faults_per_app: 8, rounds: (seconds as usize * 8 / 5).max(1) }
    }
}

/// The classification of one faulty leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Detected,
    Timeout,
    Masked,
    Contained,
    Uncontained,
}

impl Verdict {
    fn all_keys() -> impl Iterator<Item = &'static str> {
        [
            Verdict::Detected,
            Verdict::Timeout,
            Verdict::Masked,
            Verdict::Contained,
            Verdict::Uncontained,
        ]
        .into_iter()
        .map(Verdict::key)
    }

    fn key(self) -> &'static str {
        match self {
            Verdict::Detected => "sim.fault.detected",
            Verdict::Timeout => "sim.fault.timeout",
            Verdict::Masked => "sim.fault.masked",
            Verdict::Contained => "sim.fault.contained",
            Verdict::Uncontained => "sim.fault.uncontained",
        }
    }
}

/// Run the faulty machine to completion or cut-off and classify it.
fn classify(m: &mut Machine, out: &Output, result: Result<RunResult, Trap>) -> Verdict {
    match result {
        Err(_trap) => Verdict::Detected,
        Ok(r) => match r.stop {
            StopReason::Watchdog(_) => Verdict::Timeout,
            // Lockstep is off, so a divergence cannot be reported; treat
            // it as the harness bug it would be.
            StopReason::Diverged => Verdict::Uncontained,
            StopReason::Budget | StopReason::Halted => {
                let counters = m.counters();
                let sites = m.stall_sites();
                if check_invariants(&counters)
                    .and_then(|()| check_stall_partition(&counters.stalls, &sites))
                    .is_err()
                {
                    Verdict::Uncontained
                } else {
                    match m.mem().read_i32s(out.addr, out.golden.len()) {
                        Ok(words) if words == out.golden => Verdict::Masked,
                        Ok(_) => Verdict::Contained,
                        Err(_) => Verdict::Detected,
                    }
                }
            }
        },
    }
}

/// Where a run leaves its primary output, and what a fault-free run
/// writes there.
struct Output {
    addr: u32,
    golden: Vec<i32>,
}

/// Counts simulated work of every `run_timed` call on one machine.
#[derive(Default)]
struct Work {
    insns: u64,
    cycles: u64,
}

impl Work {
    fn run(&mut self, m: &mut Machine, max_insns: u64) -> Result<RunResult, Trap> {
        let (i0, c0) = (m.insns_total(), m.counters().cycles);
        let r = m.run_timed(max_insns);
        self.insns += m.insns_total() - i0;
        self.cycles += m.counters().cycles - c0;
        r
    }
}

/// One app's campaign on a prepared machine: clean reference run, plan,
/// then the trunk schedule.
#[allow(clippy::too_many_arguments)]
fn campaign(
    app: App,
    seed: u64,
    faults: usize,
    p: PreparedRun,
    tracer: &Tracer,
    work: &mut Work,
    legs_ms: &mut Vec<f64>,
    o: &mut Outcome,
) -> Result<(), String> {
    let out = Output { addr: p.out_addr, golden: p.golden };
    let mut machine = p.machine;
    let m = &mut machine;
    m.set_stall_site_profiling(true);
    let pristine = m.checkpoint();
    let clean = tracer.span("sim.execute", || work.run(m, u64::MAX));
    let clean = clean.map_err(|t| format!("{app}: clean run trapped: {t}"))?;
    if !clean.halted {
        return Err(format!("{app}: clean run did not halt"));
    }
    if m.mem().read_i32s(out.addr, out.golden.len()).ok().as_deref() != Some(&out.golden[..]) {
        return Err(format!("{app}: clean run does not match the golden model"));
    }
    let c = m.counters();
    let watchdog = Watchdog {
        max_cycles: Some(c.cycles * 4 + 200_000),
        max_instructions: Some(c.instructions * 3 + 50_000),
    };
    let window = InjectionWindow {
        code_base: p.code_base,
        code_len: p.code_len,
        data_base: p.data_base,
        data_len: p.data_len,
        max_instruction: c.instructions,
    };
    let plan = FaultPlan::generate(seed ^ (app as u64).wrapping_mul(0x9E37_79B9), faults, &window);
    let mut order: Vec<&FaultSpec> = plan.faults.iter().collect();
    order.sort_by_key(|f| f.at_instruction);

    m.restore(&pristine).map_err(|e| format!("{app}: restore failed: {e}"))?;
    m.set_watchdog(watchdog);
    let mut pos = 0u64;
    for fault in order {
        let delta = fault.at_instruction.saturating_sub(pos);
        pos = pos.max(fault.at_instruction);
        let advanced = tracer.span("sim.fault.advance", || work.run(m, delta));
        match advanced {
            Ok(r) if !matches!(r.stop, StopReason::Watchdog(_)) => {}
            _ => return Err(format!("{app}: clean prefix to {} failed", fault.at_instruction)),
        }
        let ck = tracer.span("sim.checkpoint", || m.checkpoint());
        o.add_count("sim.checkpoints", 1);
        let t0 = Instant::now();
        let verdict = tracer.span("sim.fault.leg", || {
            fault.apply(m);
            let result = work.run(m, u64::MAX);
            classify(m, &out, result)
        });
        legs_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        o.add_count(verdict.key(), 1);
        if verdict == Verdict::Uncontained {
            o.fail(format!("{app}: uncontained fault {fault:?}"));
        }
        tracer
            .span("sim.restore", || m.restore(&ck))
            .map_err(|e| format!("{app}: restore: {e}"))?;
        o.add_count("sim.restores", 1);
    }
    Ok(())
}

pub fn run(size: &Size, seed: u64, tracer: &Tracer) -> Outcome {
    let mut o = Outcome::default();
    for key in Verdict::all_keys() {
        o.add_count(key, 0);
    }
    let config = CoreConfig::power5();
    let mut work = Work::default();
    let mut legs_ms = Vec::new();
    for round in 0..size.rounds {
        let round_seed = derive_seed(seed, round);
        o.probe(crate::PROBE_BURST);
        // One app at a time, so one prepared machine is alive at once.
        for app in App::all() {
            let (setup, prepared) = timed_setup(tracer, || {
                let wl = tracer.span("bioseq.gen", || Workload::new(app, Scale::Test, round_seed));
                tracer.span("kernelc.build", || wl.prepare(Variant::Baseline, &config))
            });
            o.setup_s += setup;
            o.attempted += size.faults_per_app as u64;
            let t0 = Instant::now();
            let result = prepared.map_err(|e| format!("{app}: build failed: {e}")).and_then(|p| {
                tracer.span("faults.campaign", || {
                    campaign(
                        app,
                        round_seed,
                        size.faults_per_app,
                        p,
                        tracer,
                        &mut work,
                        &mut legs_ms,
                        &mut o,
                    )
                })
            });
            o.wall_s += t0.elapsed().as_secs_f64();
            if let Err(e) = result {
                o.fail(e);
            }
        }
    }
    o.probe(crate::PROBE_BURST);
    o.add_count("sim.guest_insns", work.insns);
    o.add_count("sim.guest_cycles", work.cycles);
    o.add_count("sim.fault.legs", legs_ms.len() as u64);

    let builds = (size.rounds * App::all().len() * crate::SETUP_REPS) as f64;
    o.set_layer("host.rounds", size.rounds as f64);
    o.set_layer("bioseq.workloads", builds);
    o.set_layer("bioseq.gen_s", tracer.total("bioseq.gen"));
    o.set_layer("kernelc.builds", builds);
    o.set_layer("kernelc.build_s", tracer.total("kernelc.build"));
    for key in
        ["sim.guest_insns", "sim.guest_cycles", "sim.checkpoints", "sim.restores", "sim.fault.legs"]
            .into_iter()
            .chain(Verdict::all_keys())
    {
        o.set_layer(key, o.count(key) as f64);
    }
    let execute_s = tracer.total("sim.execute")
        + tracer.total("sim.fault.advance")
        + tracer.total("sim.fault.leg");
    o.set_layer("sim.execute_s", execute_s);
    o.set_layer("sim.ns_per_insn", execute_s * 1e9 / work.insns.max(1) as f64);
    o.set_layer("sim.checkpoint_s", tracer.total("sim.checkpoint"));
    o.set_layer("sim.restore_s", tracer.total("sim.restore"));
    o.set_layer("sim.fault.advance_s", tracer.total("sim.fault.advance"));
    o.set_layer("sim.fault.leg_ms.p50", quantile(&legs_ms, 0.5));
    o.set_layer("sim.fault.leg_ms.p95", quantile(&legs_ms, 0.95));
    o
}
