//! `top`-style live viewer (and CI checker) for a suite progress stream.
//!
//! A study run with a progress sink (`BIOARCH_PROGRESS=<path>` on the
//! bench harness, or `TelemetryHub::with_progress` in code) streams
//! JSONL job-lifecycle events and heartbeats while it runs. This tool
//! consumes that stream two ways:
//!
//! ```text
//! # Live: tail a stream another process is writing, render a status
//! # line per event, exit when suite_finished arrives (or the writer
//! # stalls past --idle-secs, default 30).
//! cargo run --example suite_top -- /tmp/progress.jsonl
//!
//! # CI: validate a completed stream — every line parses, seq is
//! # contiguous, elapsed_ms is monotone, every started job reached a
//! # terminal event — and print a summary, including the instructions
//! # retired on each timed path. Exits non-zero on a malformed stream,
//! # fewer heartbeats than --min-heartbeats, or a job that retired off
//! # the batched timed path with no tracer or lockstep oracle attached.
//! cargo run --example suite_top -- --check /tmp/progress.jsonl [--min-heartbeats <n>]
//! ```

use bioarch::json::Json;
use bioarch::telemetry::check_progress_stream;
use std::io::{Read, Seek, SeekFrom};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn die(msg: &str) -> ! {
    eprintln!("suite_top: {msg}");
    std::process::exit(1);
}

/// One rendered status line per event.
fn render_event(line: &str) -> Option<String> {
    let doc = Json::parse(line).ok()?;
    let event = doc.get("event").and_then(Json::as_str)?;
    let elapsed = doc.get("elapsed_ms").and_then(Json::as_f64).unwrap_or(0.0) / 1e3;
    let job = doc.get("job").and_then(Json::as_str).unwrap_or("-");
    let detail = match event {
        "suite_started" => format!(
            "heartbeat {}ms, profiler period {}",
            doc.get("heartbeat_ms").and_then(Json::as_f64).unwrap_or(0.0),
            doc.get("profiler_period").and_then(Json::as_f64).unwrap_or(0.0),
        ),
        "heartbeat" => format!(
            "{} started, {} done",
            doc.get("started").and_then(Json::as_f64).unwrap_or(0.0),
            doc.get("done").and_then(Json::as_f64).unwrap_or(0.0),
        ),
        "job_started" => job.to_string(),
        "job_retired" => format!(
            "{job} ({} insns, {:.1} ms, attempt {})",
            doc.get("instructions").and_then(Json::as_f64).unwrap_or(0.0),
            doc.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0),
            doc.get("attempts").and_then(Json::as_f64).unwrap_or(1.0),
        ),
        "job_retried" | "job_quarantined" => {
            format!("{job} ({})", doc.get("class").and_then(Json::as_str).unwrap_or("?"),)
        }
        "job_resumed" => {
            format!("{job} (attempt {})", doc.get("attempt").and_then(Json::as_f64).unwrap_or(0.0),)
        }
        "metrics" => match doc.get("counters") {
            Some(Json::Obj(pairs)) => format!("{} host counter(s)", pairs.len()),
            _ => "no counters".to_string(),
        },
        "suite_finished" => format!(
            "{} retired, {} quarantined, {} retries",
            doc.get("retired").and_then(Json::as_f64).unwrap_or(0.0),
            doc.get("quarantined").and_then(Json::as_f64).unwrap_or(0.0),
            doc.get("retries").and_then(Json::as_f64).unwrap_or(0.0),
        ),
        _ => String::new(),
    };
    Some(format!("[{elapsed:8.3}s] {event:<16} {detail}"))
}

/// Tail `path` until `suite_finished` (or the stream goes idle).
fn live(path: &str, idle_secs: u64) -> ExitCode {
    let mut file =
        std::fs::File::open(path).unwrap_or_else(|e| die(&format!("cannot open {path}: {e}")));
    let mut pos = 0u64;
    let mut pending = String::new();
    let mut last_progress = Instant::now();
    loop {
        file.seek(SeekFrom::Start(pos)).unwrap_or_else(|e| die(&format!("seek: {e}")));
        let mut chunk = String::new();
        let n =
            file.read_to_string(&mut chunk).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
        pos += n as u64;
        if n > 0 {
            last_progress = Instant::now();
            pending.push_str(&chunk);
            // Render every complete line; keep a trailing partial line.
            while let Some(nl) = pending.find('\n') {
                let line: String = pending.drain(..=nl).collect();
                let line = line.trim_end();
                if line.is_empty() {
                    continue;
                }
                match render_event(line) {
                    Some(text) => println!("{text}"),
                    None => println!("[unparsed] {line}"),
                }
                if line.contains("\"event\":\"suite_finished\"") {
                    return ExitCode::SUCCESS;
                }
            }
        } else {
            if last_progress.elapsed() > Duration::from_secs(idle_secs) {
                eprintln!("suite_top: stream idle for {idle_secs}s without suite_finished");
                return ExitCode::from(2);
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

/// Subscribe to a distributed campaign server and print every retired
/// result as it streams in, until `campaign_done`.
fn subscribe(addr: &str) -> ExitCode {
    use bioarch::campaign::remote::{Frame, FramedStream, Role};
    let stream = std::net::TcpStream::connect(addr)
        .unwrap_or_else(|e| die(&format!("cannot connect to {addr}: {e}")));
    let mut fs = FramedStream::new(stream);
    fs.set_deadlines(Some(30_000), Some(5_000)).unwrap_or_else(|e| die(&format!("deadlines: {e}")));
    fs.send(&Frame::Hello { role: Role::Subscriber, worker: 0 })
        .unwrap_or_else(|e| die(&format!("hello: {e}")));
    match fs.recv() {
        Ok(Frame::HelloAck { .. }) => {}
        other => die(&format!("expected hello_ack, got {other:?}")),
    }
    loop {
        match fs.recv() {
            Ok(Frame::Result { label, report, .. }) => {
                let degraded = report.contains("\"degraded\":true");
                println!("result  {label}{}", if degraded { "  [degraded]" } else { "" });
            }
            Ok(Frame::CampaignDone { completed, quarantined }) => {
                println!("campaign done: {completed} completed, {quarantined} quarantined");
                return ExitCode::SUCCESS;
            }
            Ok(other) => die(&format!("unexpected frame {other:?}")),
            Err(e) => die(&format!("stream: {e}")),
        }
    }
}

/// Validate a completed stream and print a one-screen summary.
fn check(path: &str, min_heartbeats: u64, allow_truncated: bool, stall_factor: f64) -> ExitCode {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let stats = match check_progress_stream(&text) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("suite_top: malformed progress stream: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "progress stream OK: {} events, {} heartbeats (interval {} ms, max gap {:.0} ms)",
        stats.events, stats.heartbeats, stats.heartbeat_ms, stats.max_gap_ms
    );
    println!(
        "jobs: {} started, {} retired, {} quarantined; {} retries, {} resumes; finished: {}",
        stats.jobs_started,
        stats.jobs_retired,
        stats.jobs_quarantined,
        stats.retries,
        stats.resumes,
        stats.finished
    );
    if !stats.host_counters.is_empty() {
        // Surface every counter the stream carried, verbatim — names the
        // checker has never heard of (new fusion rates, cache counters)
        // are printed, not silently dropped.
        println!("host counters:");
        for (name, value) in &stats.host_counters {
            println!("  {name} = {value}");
        }
    }
    let counter = |n: &str| stats.host_counters.iter().find(|(name, _)| name == n).map(|(_, v)| *v);
    if let Some(gangs) = counter("lanes.gang_blocks") {
        // One-line lane-backend digest alongside the fusion.* counters
        // above: how wide the gangs ran and why lanes dropped out.
        println!(
            "lanes: {gangs} gang block(s), occupancy {:.1}%, exits: divergence {} halt {} fault \
             {} smc {} cut {} refetch {}",
            counter("lanes.occupancy_permille").unwrap_or(0.0) / 10.0,
            counter("lanes.exit_divergence").unwrap_or(0.0),
            counter("lanes.exit_halt").unwrap_or(0.0),
            counter("lanes.exit_fault").unwrap_or(0.0),
            counter("lanes.exit_smc").unwrap_or(0.0),
            counter("lanes.exit_cut").unwrap_or(0.0),
            counter("lanes.exit_refetch").unwrap_or(0.0),
        );
    }
    let r = &stats.retired;
    if r.batched + r.off_batched() > 0 {
        println!("retire paths: batched {}, pinned {}, checked {}", r.batched, r.pinned, r.checked);
    }
    if stats.batch_retires > 0 {
        // Batch-retire bursts are quiet-then-burst progress from a
        // lane-batch worker; their forgiven gaps are reported here and
        // excluded from the stall verdict.
        println!(
            "diagnostic: {} batch-retire burst(s), largest forgiven gap {:.0} ms",
            stats.batch_retires, stats.batch_gap_ms
        );
    }
    if stats.truncated_tail {
        // A torn final line is the signature of a writer killed
        // mid-write — diagnose it explicitly instead of erroring.
        println!("diagnostic: truncated_tail — final line torn (writer killed mid-write)");
    }
    if stats.stalled_with(stall_factor) {
        // Distinct from truncated_tail: the writer kept the file intact
        // but went silent far past its own heartbeat promise.
        eprintln!(
            "suite_top: stalled — max gap {:.0} ms exceeds {stall_factor}x heartbeat ({} ms)",
            stats.max_gap_ms, stats.heartbeat_ms
        );
        return ExitCode::from(2);
    }
    if !stats.off_batched_jobs.is_empty() {
        // Only a tracer or a lockstep oracle may keep a timed run off
        // the batched path; anything else is a routing regression.
        eprintln!(
            "suite_top: {} job(s) with no tracer or lockstep retired off the batched path: {:?}",
            stats.off_batched_jobs.len(),
            stats.off_batched_jobs
        );
        return ExitCode::from(2);
    }
    if !stats.finished {
        if allow_truncated && stats.truncated_tail {
            println!("suite_top: accepting unfinished stream (--allow-truncated)");
            return ExitCode::SUCCESS;
        }
        eprintln!("suite_top: stream never reached suite_finished");
        return ExitCode::from(2);
    }
    if stats.heartbeats < min_heartbeats {
        eprintln!("suite_top: {} heartbeat(s), need at least {min_heartbeats}", stats.heartbeats);
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut min_heartbeats = 0u64;
    if let Some(i) = args.iter().position(|a| a == "--min-heartbeats") {
        if i + 1 >= args.len() {
            die("--min-heartbeats needs a count");
        }
        let v = args.remove(i + 1);
        min_heartbeats = v.parse().unwrap_or_else(|_| die(&format!("bad count {v:?}")));
        args.remove(i);
    }
    let mut idle_secs = 30u64;
    if let Some(i) = args.iter().position(|a| a == "--idle-secs") {
        if i + 1 >= args.len() {
            die("--idle-secs needs a count");
        }
        let v = args.remove(i + 1);
        idle_secs = v.parse().unwrap_or_else(|_| die(&format!("bad count {v:?}")));
        args.remove(i);
    }
    let mut stall_factor = bioarch::telemetry::DEFAULT_STALL_FACTOR;
    if let Some(i) = args.iter().position(|a| a == "--stall-factor") {
        if i + 1 >= args.len() {
            die("--stall-factor needs a multiple");
        }
        let v = args.remove(i + 1);
        stall_factor = v.parse().unwrap_or_else(|_| die(&format!("bad factor {v:?}")));
        args.remove(i);
    }
    if let Some(i) = args.iter().position(|a| a == "--subscribe") {
        if i + 1 >= args.len() {
            die("--subscribe needs host:port");
        }
        return subscribe(&args[i + 1]);
    }
    let checking = args.iter().any(|a| a == "--check");
    args.retain(|a| a != "--check");
    let allow_truncated = args.iter().any(|a| a == "--allow-truncated");
    args.retain(|a| a != "--allow-truncated");
    let Some(path) = args.first() else {
        die(concat!(
            "usage: suite_top [--check [--min-heartbeats <n>] [--allow-truncated] ",
            "[--stall-factor <x>]] [--idle-secs <n>] [--subscribe <host:port>] <progress.jsonl>"
        ));
    };
    if checking {
        check(path, min_heartbeats, allow_truncated, stall_factor)
    } else {
        live(path, idle_secs)
    }
}
