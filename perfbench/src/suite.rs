//! `suite`: the ClassC paper experiments, serial, through
//! `Study::run_experiment`. Each round is a fresh study on its own
//! derived seed running Table I, Figure 1, Figure 2 and Figure 6
//! (21 simulations: the four profiled baselines, the Clustalw interval
//! run, and Figure 6's BTAC / 4-FXU / predicated configurations).

use crate::trace::Tracer;
use crate::{derive_seed, host, quantile, timed_setup, Outcome};
use bioarch::apps::{App, Scale, Variant};
use bioarch::experiments::{Hw, Study};
use bioarch::telemetry::{TelemetryConfig, TelemetryHub};
use std::io::{self, Write};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// The experiments each round runs, in paper order.
const SLUGS: [&str; 4] = ["table1", "fig1", "fig2", "fig6"];

/// The paper's headline: the combined enhancements improve IPC by 64%.
const PAPER_FIG6_PCT: f64 = 64.0;

pub struct Size {
    pub scale: Scale,
    pub rounds: usize,
}

impl Size {
    /// One ClassC round takes about 15 s on a 2-core host.
    pub fn for_seconds(seconds: u64) -> Size {
        Size { scale: Scale::ClassC, rounds: (seconds as usize).div_ceil(15).max(1) }
    }
}

/// Progress sink that takes host-speed probes each time a job retires:
/// the serial study emits `job_retired` on its simulating thread between
/// two jobs, so the probes interleave with the simulation job by job.
struct ProbeAtRetire {
    line: Vec<u8>,
    probes: Arc<Mutex<Vec<f64>>>,
}

impl Write for ProbeAtRetire {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.line.extend_from_slice(buf);
        while let Some(end) = self.line.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.line.drain(..=end).collect();
            if line.windows(11).any(|w| w == b"job_retired") {
                let mut probes = self.probes.lock().unwrap_or_else(PoisonError::into_inner);
                host::sample(&mut probes, crate::PROBE_BURST);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Seconds of all probes taken so far.
fn probe_secs(probes: &Mutex<Vec<f64>>) -> f64 {
    probes.lock().unwrap_or_else(PoisonError::into_inner).iter().sum()
}

/// Resolve a supervisor job label (`App/Variant/Hw` or
/// `App/Variant/Hw@interval`) to the plain study job it names.
fn resolve_label(label: &str) -> Option<(App, Variant, Hw)> {
    let plain = label.split('@').next()?;
    let hws =
        (1..=8usize).flat_map(|n| [Hw::Fxus(n), Hw::BtacFxus(n)]).chain([Hw::Stock, Hw::Btac]);
    let hws: Vec<Hw> = hws.collect();
    App::all().into_iter().find_map(|app| {
        Variant::all().into_iter().find_map(|variant| {
            hws.iter()
                .find(|hw| format!("{app:?}/{variant:?}/{hw:?}") == plain)
                .map(|&hw| (app, variant, hw))
        })
    })
}

pub fn run(size: &Size, seed: u64, tracer: &Tracer) -> Outcome {
    let mut o = Outcome::default();
    let mut job_ms = Vec::new();
    let mut gaps = Vec::new();
    for round in 0..size.rounds {
        let round_seed = derive_seed(seed, round);
        let (setup, mut study) = timed_setup(tracer, || {
            tracer.span("bioseq.gen", || Study::new(size.scale, round_seed))
        });
        o.setup_s += setup;
        o.add_layer("bioseq.workloads", (App::all().len() * crate::SETUP_REPS) as f64);
        study.set_threads(1);
        let probes = Arc::new(Mutex::new(Vec::new()));
        let sink = ProbeAtRetire { line: Vec::new(), probes: Arc::clone(&probes) };
        study.set_telemetry(TelemetryHub::with_progress(
            TelemetryConfig { profiler_period: 0, heartbeat_ms: 100 },
            Box::new(sink),
        ));

        let reports: Vec<_> = tracer.span("suite.round", || {
            SLUGS
                .iter()
                .map(|slug| {
                    let (t0, probed) = (Instant::now(), probe_secs(&probes));
                    let report =
                        tracer.span(format!("experiments.{slug}"), || study.run_experiment(slug));
                    // The timed body excludes the probes taken inside it.
                    o.wall_s += t0.elapsed().as_secs_f64() - (probe_secs(&probes) - probed);
                    report
                })
                .collect()
        });

        for report in &reports {
            o.check(!report.is_degraded(), || {
                format!("{} (seed {round_seed}) degraded: {:?}", report.experiment, report.failures)
            });
            if report.experiment == "fig6" {
                match report.get("avg.total_improvement") {
                    Some(m) => gaps.push((100.0 * m.value - PAPER_FIG6_PCT).abs()),
                    None => o.fail("fig6 report has no avg.total_improvement"),
                }
            }
        }
        let snap = study.take_telemetry().expect("hub attached above").finish();
        o.probes.append(&mut probes.lock().unwrap_or_else(PoisonError::into_inner));
        o.attempted += snap.jobs_started;
        o.failed += snap.jobs_quarantined;
        o.check(snap.jobs_retired == snap.jobs_started, || {
            format!("{} of {} jobs retired", snap.jobs_retired, snap.jobs_started)
        });
        let insns = study.simulated_instructions();
        let span_insns: u64 = snap.spans.iter().map(|s| s.instructions).sum();
        o.check(insns == span_insns, || {
            format!("study counted {insns} instructions, job spans {span_insns}")
        });
        o.add_count("sim.guest_insns", insns);
        o.add_count("experiments.jobs", snap.spans.len() as u64);
        for span in &snap.spans {
            job_ms.push(span.wall_ms);
            o.add_layer("kernelc.build_s", span.phases.decode as f64 * 1e-9);
            o.add_layer("sim.execute_s", span.phases.execute as f64 * 1e-9);
            // Cycles are not in the span: read them back from the
            // study's cache, after the timed body. An interval job is
            // the plain job's simulation with sampling on, so it
            // retires the same cycles.
            match resolve_label(&span.job).map(|(a, v, h)| study.run(a, v, h)) {
                Some(Ok(run)) => o.add_count("sim.guest_cycles", run.counters.cycles),
                _ => o.fail(format!("cannot read back cycles of job {}", span.job)),
            }
        }
    }
    let jobs = o.count("experiments.jobs");
    o.set_layer("host.rounds", size.rounds as f64);
    o.set_layer("bioseq.gen_s", tracer.total("bioseq.gen"));
    o.set_layer("kernelc.builds", jobs as f64);
    o.set_layer("sim.guest_insns", o.count("sim.guest_insns") as f64);
    o.set_layer("sim.guest_cycles", o.count("sim.guest_cycles") as f64);
    let execute_s = o.layers.get("sim.execute_s").copied().unwrap_or(0.0);
    o.set_layer("sim.ns_per_insn", execute_s * 1e9 / o.count("sim.guest_insns").max(1) as f64);
    o.set_layer("experiments.jobs", jobs as f64);
    o.set_layer("experiments.failed", o.failed as f64);
    o.set_layer("experiments.job_ms.p50", quantile(&job_ms, 0.5));
    o.set_layer("experiments.job_ms.p75", quantile(&job_ms, 0.75));
    for slug in SLUGS {
        o.set_layer(&format!("experiments.{slug}_s"), tracer.total(&format!("experiments.{slug}")));
    }
    o.set_layer("experiments.fig6_gap_pp", crate::median(&gaps));
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_labels_resolve_to_study_jobs() {
        assert_eq!(
            resolve_label("Clustalw/Baseline/Stock@100000"),
            Some((App::Clustalw, Variant::Baseline, Hw::Stock))
        );
        assert_eq!(
            resolve_label("Blast/Combination/BtacFxus(4)"),
            Some((App::Blast, Variant::Combination, Hw::BtacFxus(4)))
        );
        assert_eq!(resolve_label("Blast/Nope/Stock"), None);
    }
}
