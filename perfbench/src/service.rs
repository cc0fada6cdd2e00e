//! `service`: the campaign service over loopback. Each round opens a
//! campaign in a fresh directory, submits Test-scale jobs (4 apps x 6
//! variants on the round's seed), serves them with `remote::serve` to
//! one `run_worker` thread over 127.0.0.1 at a small chunk, then drops
//! the campaign, reopens it (journal replay), resubmits the same jobs
//! (all cache hits) and merges the report. The first round's merged
//! report must be byte-identical to an in-process unchunked run of the
//! same jobs.

use crate::trace::Tracer;
use crate::{derive_seed, fnv1a, median, timed_setup, Outcome};
use bioarch::apps::{App, Scale, Variant, Workload};
use bioarch::campaign::remote::{
    self, decode_frame, encode_frame, Frame, ServeOptions, WorkerOptions,
};
use bioarch::campaign::{Campaign, CampaignConfig, JobSpec, SubmitOutcome};
use bioarch::checkpoint;
use bioarch::experiments::Hw;
use bioarch::report::Report;
use power5_sim::Watchdog;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

pub struct Size {
    pub variants: usize,
    pub chunk: u64,
    pub rounds: usize,
}

impl Size {
    /// One round (24 jobs at chunk 100 000, about a quarter of a job)
    /// takes about 4 s on a 2-core host. Every checkpoint is also written
    /// to disk, so a smaller chunk makes the run follow the host's disk
    /// more than its simulator.
    pub fn for_seconds(seconds: u64) -> Size {
        Size { variants: 6, chunk: 100_000, rounds: (seconds as usize / 4).max(1) }
    }
}

fn specs(variants: usize, seed: u64) -> Vec<JobSpec> {
    App::all()
        .into_iter()
        .flat_map(|app| {
            Variant::all().into_iter().take(variants).map(move |variant| JobSpec {
                app,
                variant,
                hw: Hw::Stock,
                scale: Scale::Test,
                seed,
            })
        })
        .collect()
}

fn config(dir: &Path, chunk: u64) -> CampaignConfig {
    let mut config = CampaignConfig::new(dir);
    config.chunk = chunk;
    config
}

/// Open a campaign in a fresh `dir` and submit `jobs`.
fn open_and_submit(
    dir: &Path,
    chunk: u64,
    jobs: &[JobSpec],
    tracer: &Tracer,
) -> Result<Campaign, String> {
    let _ = std::fs::remove_dir_all(dir);
    let campaign = tracer.span("campaign.open", || Campaign::open(config(dir, chunk)))?;
    tracer.span("campaign.submit", || {
        jobs.iter().try_for_each(|spec| match campaign.submit(*spec)? {
            SubmitOutcome::Accepted => Ok(()),
            other => Err(format!("fresh submit of {} was {other:?}", spec.label())),
        })
    })?;
    Ok(campaign)
}

/// Sum of every merged-report metric named `*.{suffix}`.
fn sum_metric(report: &Report, suffix: &str) -> u64 {
    report.metrics.iter().filter(|m| m.name.ends_with(suffix)).map(|m| m.value as u64).sum()
}

/// What one round's body observed.
struct Round {
    digest: u64,
    report: Report,
    frames: u64,
    jobs_run: u64,
    connections: u64,
    reconnects: u64,
    cache_hits: u64,
    journal_records: u64,
    journal_bytes: u64,
}

/// The timed body: serve, drain, reopen, resubmit, merge.
fn body(
    campaign: Campaign,
    dir: &Path,
    chunk: u64,
    jobs: &[JobSpec],
    tracer: &Tracer,
    o: &mut Outcome,
) -> Result<Round, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("local addr: {e}"))?;
    let opts = ServeOptions { deadline: None, poll_ms: 50 };
    let (served, worker) = std::thread::scope(|s| {
        let worker = s.spawn(|| remote::run_worker(&WorkerOptions::new(addr.to_string(), 1)));
        let served = tracer.span("wire.serve", || remote::serve(&campaign, listener, &opts));
        (served, worker.join())
    });
    let served = served.map_err(|e| format!("serve: {e}"))?;
    let worker = worker.map_err(|_| "worker thread panicked".to_string())?;
    o.check(worker.clean, || "worker did not end cleanly".into());
    o.check(served.completed == jobs.len() as u64, || {
        format!("{} of {} jobs completed over the wire", served.completed, jobs.len())
    });
    o.check(served.quarantined == 0, || format!("{} jobs quarantined", served.quarantined));
    drop(campaign);

    let reopened = tracer.span("campaign.open", || Campaign::open(config(dir, chunk)))?;
    let mut cache_hits = 0;
    tracer.span("campaign.submit", || -> Result<(), String> {
        for spec in jobs {
            if reopened.submit(*spec)? == SubmitOutcome::CacheHit {
                cache_hits += 1;
            }
        }
        Ok(())
    })?;
    let report = tracer.span("campaign.merge", || reopened.merged_report())?;
    let journal = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap_or_default();
    Ok(Round {
        digest: fnv1a(report.render_json().as_bytes()),
        report,
        frames: worker.frames_sent,
        jobs_run: worker.jobs_run,
        connections: served.connections,
        reconnects: worker.reconnects,
        cache_hits,
        journal_records: journal.lines().count() as u64,
        journal_bytes: journal.len() as u64,
    })
}

/// The merged report of the same jobs run in process, unchunked.
fn reference_digest(dir: &Path, jobs: &[JobSpec]) -> Result<u64, String> {
    let campaign = open_and_submit(dir, 0, jobs, &Tracer::new(false))?;
    campaign.run();
    let digest = fnv1a(campaign.merged_report()?.render_json().as_bytes());
    drop(campaign);
    let _ = std::fs::remove_dir_all(dir);
    Ok(digest)
}

/// Per-call seconds of the library calls the service makes inside
/// `serve` and `run_worker`, on this run's own jobs: input generation,
/// code build, checkpoint render and parse, and the progress frame's
/// encode + decode. Also the first slice's host nanoseconds per guest
/// instruction and a rendered checkpoint's size in bytes.
struct PerCall {
    gen: f64,
    build: f64,
    ns_per_insn: f64,
    render: f64,
    parse: f64,
    codec: f64,
    ck_bytes: f64,
}

fn per_call(jobs: &[JobSpec], chunk: u64) -> Result<PerCall, String> {
    let mut s: [Vec<f64>; 7] = Default::default();
    for spec in jobs {
        let t = Instant::now();
        let wl = Workload::new(spec.app, spec.scale, spec.seed);
        s[0].push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let mut p = wl.prepare(spec.variant, &spec.hw.config()).map_err(|e| e.to_string())?;
        s[1].push(t.elapsed().as_secs_f64());
        p.machine.set_watchdog(Watchdog { max_cycles: None, max_instructions: Some(chunk) });
        let t = Instant::now();
        p.machine.run_timed(u64::MAX).map_err(|t| t.to_string())?;
        s[6].push(t.elapsed().as_secs_f64() * 1e9 / p.machine.insns_total().max(1) as f64);
        let ck = p.machine.checkpoint();
        let t = Instant::now();
        let text = checkpoint::render(&ck);
        s[2].push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        checkpoint::parse(&text)?;
        s[3].push(t.elapsed().as_secs_f64());
        s[5].push(text.len() as f64);
        let frame = Frame::Progress { job: spec.id(), insns: ck.insns_total, checkpoint: text };
        let t = Instant::now();
        decode_frame(&encode_frame(&frame)).map_err(|e| format!("{e:?}"))?;
        s[4].push(t.elapsed().as_secs_f64());
    }
    let [gen, build, render, parse, codec, ck_bytes, ns_per_insn] = s.map(|v| median(&v));
    Ok(PerCall { gen, build, ns_per_insn, render, parse, codec, ck_bytes })
}

pub fn run(size: &Size, seed: u64, tracer: &Tracer) -> Outcome {
    let mut o = Outcome::default();
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run_id = RUNS.fetch_add(1, Ordering::Relaxed);
    let root: PathBuf = crate::out_dir().join(format!("service-{}-{run_id}", std::process::id()));
    let dir = root.join("campaign");
    let mut jobs_run = 0;
    for round in 0..size.rounds {
        let jobs = specs(size.variants, derive_seed(seed, round));
        o.attempted += jobs.len() as u64;
        let (setup, campaign) =
            timed_setup(tracer, || open_and_submit(&dir, size.chunk, &jobs, tracer));
        o.setup_s += setup;
        let campaign = match campaign {
            Ok(c) => c,
            Err(e) => {
                o.fail(format!("campaign set-up: {e}"));
                continue;
            }
        };
        let t0 = Instant::now();
        let observed = tracer
            .span("service.round", || body(campaign, &dir, size.chunk, &jobs, tracer, &mut o));
        o.wall_s += t0.elapsed().as_secs_f64();
        let r = match observed {
            Ok(r) => r,
            Err(e) => {
                o.fail(e);
                continue;
            }
        };
        o.check(!r.report.is_degraded(), || {
            format!("merged report degraded: {:?}", r.report.failures)
        });
        o.check(r.reconnects == 0, || format!("{} worker reconnects", r.reconnects));
        o.failed += r.reconnects;
        o.check(r.cache_hits == jobs.len() as u64, || {
            format!("resubmission: {} of {} cache hits", r.cache_hits, jobs.len())
        });
        // One round is checked against the in-process path; the others'
        // digests are held to repeat, like every exact count.
        if round == 0 {
            match reference_digest(&root.join("reference"), &jobs) {
                Ok(d) => o.check(d == r.digest, || {
                    format!(
                        "merged report digest {:016x} differs from in-process {d:016x}",
                        r.digest
                    )
                }),
                Err(e) => o.fail(format!("in-process reference: {e}")),
            }
        }
        o.add_count("sim.guest_insns", sum_metric(&r.report, ".instructions"));
        o.add_count("sim.guest_cycles", sum_metric(&r.report, ".cycles"));
        o.add_count("wire.frames", r.frames);
        o.add_count("campaign.completed", sum_metric(&r.report, "campaign.completed"));
        o.add_count(&format!("digest.round{round}"), r.digest);
        jobs_run += r.jobs_run;
        o.add_layer("campaign.jobs", jobs.len() as f64);
        o.add_layer("campaign.cache_hits", r.cache_hits as f64);
        o.add_layer("campaign.journal_records", r.journal_records as f64);
        o.add_layer("campaign.journal_kb", r.journal_bytes as f64 / 1024.0);
        o.add_layer("wire.connections", r.connections as f64);
        o.add_layer("wire.reconnects", r.reconnects as f64);
    }
    let _ = std::fs::remove_dir_all(&root);

    // Frames per job: one fetch, a heartbeat per slice, a progress per
    // slice boundary and a retire; plus the final fetch per round.
    let frames = o.count("wire.frames");
    let slices = frames.saturating_sub(jobs_run + size.rounds as u64) / 2;
    let progress = slices.saturating_sub(jobs_run);
    let insns = o.count("sim.guest_insns");
    o.set_layer("host.rounds", size.rounds as f64);
    o.set_layer("sim.guest_insns", insns as f64);
    o.set_layer("sim.guest_cycles", o.count("sim.guest_cycles") as f64);
    o.set_layer("bioseq.workloads", jobs_run as f64);
    o.set_layer("kernelc.builds", slices as f64);
    o.set_layer("checkpoint.renders", progress as f64);
    o.set_layer("checkpoint.parses", progress as f64);
    let (jobs, completed) = (o.attempted as f64, o.count("campaign.completed") as f64);
    o.set_layer("campaign.completed", completed);
    o.set_layer("campaign.quarantined", jobs - completed);
    let cache_hits = o.layers.get("campaign.cache_hits").copied().unwrap_or(0.0);
    o.set_layer("campaign.cache_hit_ratio", cache_hits / jobs.max(1.0));
    o.set_layer("campaign.open_s", tracer.total("campaign.open"));
    o.set_layer("campaign.submit_s", tracer.total("campaign.submit"));
    o.set_layer("campaign.merge_s", tracer.total("campaign.merge"));
    o.set_layer("wire.frames", frames as f64);
    o.set_layer("wire.serve_s", tracer.total("wire.serve"));
    if tracer.enabled() {
        match per_call(&specs(size.variants, derive_seed(seed, 0)), size.chunk) {
            Ok(c) => {
                o.set_layer("bioseq.gen_s", c.gen * jobs_run as f64);
                o.set_layer("kernelc.build_s", c.build * slices as f64);
                o.set_layer("sim.ns_per_insn", c.ns_per_insn);
                o.set_layer("sim.execute_s", c.ns_per_insn * 1e-9 * insns as f64);
                o.set_layer("checkpoint.kb", c.ck_bytes / 1024.0);
                o.set_layer("checkpoint.render_ms", c.render * 1e3 * progress as f64);
                o.set_layer("checkpoint.parse_ms", c.parse * 1e3 * progress as f64);
                o.set_layer("wire.codec_ms", c.codec * 1e3 * progress as f64);
            }
            Err(e) => o.fail(format!("per-call timing: {e}")),
        }
    }
    o
}
