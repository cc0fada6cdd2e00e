//! End-to-end benchmark of the reproduction's three user workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite|faults|service --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload does a fixed amount of work derived from `--seed` and
//! sized by `--seconds`, checks its outputs, and prints every metric by
//! name with its unit. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set; with `--trace 1` the workload runs
//! twice in the process, untraced then traced, and the metrics are the
//! per-layer set plus the tracing overhead. A failed check exits 1.
//! See `perfbench/README.md` for why each workload and metric exists.

mod faults;
mod host;
mod service;
mod suite;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// Exact counts a workload must reproduce on every run of one seed.
pub type Counts = BTreeMap<String, u64>;

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (suite jobs, fault legs, campaign jobs).
    pub attempted: u64,
    /// Operations failed, failed checks included.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Host seconds of the timed body.
    pub wall_s: f64,
    /// Host seconds of set-up: the sum, over the preparations a run
    /// makes, of each one's median over [`SETUP_REPS`] repetitions.
    pub setup_s: f64,
    /// Seconds of each host-speed probe taken between units of work
    /// (see [`host`]); their median scales the time metrics.
    pub probes: Vec<f64>,
    /// Exact counts; `sim.guest_insns` is the `guest_mips` numerator.
    pub counts: Counts,
    /// Per-layer metrics by name (names from [`LAYER_METRICS`]).
    pub layers: BTreeMap<String, f64>,
}

impl Outcome {
    /// Record a failed check.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.failed += 1;
        self.problems.push(problem.into());
    }

    /// Check `cond`, recording `problem` when it does not hold.
    pub fn check(&mut self, cond: bool, problem: impl FnOnce() -> String) {
        if !cond {
            self.fail(problem());
        }
    }

    /// Take `n` host-speed probes now, outside the timed body.
    pub fn probe(&mut self, n: usize) {
        host::sample(&mut self.probes, n);
    }

    /// Host seconds to reference-host seconds (see [`host`]).
    pub fn speed_factor(&self) -> f64 {
        host::speed_factor(&self.probes)
    }

    pub fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    pub fn add_count(&mut self, key: &str, by: u64) {
        *self.counts.entry(key.to_string()).or_default() += by;
    }

    pub fn set_layer(&mut self, key: &str, value: f64) {
        self.layers.insert(key.to_string(), value);
    }

    pub fn add_layer(&mut self, key: &str, value: f64) {
        *self.layers.entry(key.to_string()).or_default() += value;
    }

    /// Fail every count that differs from `expected` (same seed and size
    /// must reproduce every exact count).
    pub fn check_repeat(&mut self, expected: &Counts) {
        let keys: std::collections::BTreeSet<&String> =
            expected.keys().chain(self.counts.keys()).collect();
        let mut diffs = Vec::new();
        for key in keys {
            let (want, got) = (expected.get(key), self.counts.get(key));
            if want != got {
                diffs.push(format!("{key}: expected {want:?}, got {got:?}"));
            }
        }
        for d in diffs {
            self.fail(format!("count not repeated: {d}"));
        }
    }
}

/// End-to-end metrics (`--trace 0`), in output order. For a workload
/// that takes host-speed probes, `wall_s`, `setup_s` and `guest_mips`
/// are in reference-host seconds (see [`host`]); the unscaled readings
/// are printed beside them and reported per layer as `host.raw_*`.
pub const E2E_METRICS: [(&str, &str); 4] =
    [("wall_s", "s"), ("setup_s", "s"), ("guest_mips", "MIPS"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (`--trace 1`). Every workload reports every one;
/// a layer the workload never enters reads 0.
pub const LAYER_METRICS: [(&str, &str); 65] = [
    ("bioseq.workloads", "count"),
    ("bioseq.gen_s", "s"),
    ("kernelc.builds", "count"),
    ("kernelc.build_s", "s"),
    ("sim.guest_insns", "count"),
    ("sim.guest_cycles", "count"),
    ("sim.execute_s", "s"),
    ("sim.ns_per_insn", "ns"),
    ("sim.checkpoints", "count"),
    ("sim.checkpoint_s", "s"),
    ("sim.restores", "count"),
    ("sim.restore_s", "s"),
    ("sim.fault.legs", "count"),
    ("sim.fault.advance_s", "s"),
    ("sim.fault.leg_ms.p50", "ms"),
    ("sim.fault.leg_ms.p95", "ms"),
    ("sim.fault.detected", "count"),
    ("sim.fault.timeout", "count"),
    ("sim.fault.masked", "count"),
    ("sim.fault.contained", "count"),
    ("sim.fault.uncontained", "count"),
    ("experiments.jobs", "count"),
    ("experiments.failed", "count"),
    ("experiments.job_ms.p50", "ms"),
    ("experiments.job_ms.p75", "ms"),
    ("experiments.table1_s", "s"),
    ("experiments.fig1_s", "s"),
    ("experiments.fig2_s", "s"),
    ("experiments.fig3_s", "s"),
    ("experiments.table2_s", "s"),
    ("experiments.fig4_s", "s"),
    ("experiments.fig5_s", "s"),
    ("experiments.fig6_s", "s"),
    ("experiments.fig6_gap_pp", "pp"),
    ("checkpoint.renders", "count"),
    ("checkpoint.parses", "count"),
    ("checkpoint.kb", "KiB"),
    ("checkpoint.render_ms", "ms"),
    ("checkpoint.parse_ms", "ms"),
    ("campaign.jobs", "count"),
    ("campaign.completed", "count"),
    ("campaign.quarantined", "count"),
    ("campaign.cache_hits", "count"),
    ("campaign.cache_hit_ratio", "ratio"),
    ("campaign.journal_records", "count"),
    ("campaign.journal_kb", "KiB"),
    ("campaign.open_s", "s"),
    ("campaign.submit_s", "s"),
    ("campaign.merge_s", "s"),
    ("wire.frames", "count"),
    ("wire.connections", "count"),
    ("wire.reconnects", "count"),
    ("wire.serve_s", "s"),
    ("wire.codec_ms", "ms"),
    ("host.threads", "count"),
    ("host.rounds", "count"),
    ("host.probe_ms", "ms"),
    ("host.speed_factor", "ratio"),
    ("host.raw_wall_s", "s"),
    ("host.raw_guest_mips", "MIPS"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Host-speed probes a workload takes at each probe point: after each
/// suite job, before each fault round and after the last. The service
/// takes none, so its times are not scaled (see README).
pub const PROBE_BURST: usize = 6;

/// Identical preparations per round; set-up time is their median.
pub const SETUP_REPS: usize = 9;

/// The `round`-th input seed of a run: rounds use distinct inputs so a
/// run averages over several of them (splitmix64).
pub fn derive_seed(seed: u64, round: usize) -> u64 {
    let mut z = seed.wrapping_add((round as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Time `f` [`SETUP_REPS`] times inside one `setup` span; returns the
/// median seconds and the last result. Each result is dropped before the
/// next is made, so at most one is alive and the peak resident set does
/// not count them twice.
pub fn timed_setup<T>(tracer: &Tracer, mut f: impl FnMut() -> T) -> (f64, T) {
    tracer.span("setup", || {
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut last = None;
        for _ in 0..SETUP_REPS {
            drop(last.take());
            let t0 = std::time::Instant::now();
            last = Some(f());
            times.push(t0.elapsed().as_secs_f64());
        }
        (median(&times), last.expect("SETUP_REPS is positive"))
    })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv1a_extend(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

/// FNV-1a 64 of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// This process's peak resident set (VmHWM) in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Scratch space for campaign directories, span files and count
/// records: under the cargo target directory, inside the checkout.
pub fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("perfbench")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Suite,
    Faults,
    Service,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "suite" => Some(Workload::Suite),
            "faults" => Some(Workload::Faults),
            "service" => Some(Workload::Service),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Suite => "suite",
            Workload::Faults => "faults",
            Workload::Service => "service",
        }
    }

    fn run(self, seed: u64, seconds: u64, tracer: &Tracer) -> Outcome {
        match self {
            Workload::Suite => suite::run(&suite::Size::for_seconds(seconds), seed, tracer),
            Workload::Faults => faults::run(&faults::Size::for_seconds(seconds), seed, tracer),
            Workload::Service => service::run(&service::Size::for_seconds(seconds), seed, tracer),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|_| format!("{flag}: bad number {value:?}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload suite|faults|service is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// Where the exact counts of one (binary, workload, seed, size) are
/// recorded, so a later run of the same binary can check it repeats them.
fn counts_path(workload: Workload, seed: u64, seconds: u64) -> Option<PathBuf> {
    // Streamed, so hashing the binary does not raise the peak resident set.
    let mut exe = std::fs::File::open(std::env::current_exe().ok()?).ok()?;
    let (mut hash, mut buf) = (FNV_OFFSET, vec![0u8; 1 << 16]);
    loop {
        match std::io::Read::read(&mut exe, &mut buf).ok()? {
            0 => break,
            n => hash = fnv1a_extend(hash, &buf[..n]),
        }
    }
    let name = format!("{}-{seed}-{seconds}-{hash:016x}.txt", workload.name());
    Some(out_dir().join("counts").join(name))
}

fn load_counts(path: &Path) -> Option<Counts> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .map(|l| {
            let (k, v) = l.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

fn save_counts(path: &Path, counts: &Counts) -> std::io::Result<()> {
    std::fs::create_dir_all(path.parent().expect("counts path has a directory"))?;
    let text: String = counts.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(tmp, path)
}

/// The final stdout line.
fn result_json(o: &Outcome, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.problems.is_empty(),
        o.attempted.max(1),
        o.failed,
        body.join(", ")
    )
}

/// Guest instructions per host second of `wall_s`, in millions.
fn mips(o: &Outcome, wall_s: f64) -> f64 {
    o.count("sim.guest_insns") as f64 / wall_s.max(1e-9) / 1e6
}

/// The end-to-end metrics of an untraced outcome, times scaled to the
/// reference host.
fn e2e_metrics(o: &Outcome, rss_mb: f64) -> Vec<(&'static str, f64, &'static str)> {
    let k = o.speed_factor();
    let values = [o.wall_s * k, o.setup_s * k, mips(o, o.wall_s * k), rss_mb];
    E2E_METRICS.iter().zip(values).map(|(&(name, unit), v)| (name, v, unit)).collect()
}

fn layer_metrics(o: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name, o.layers.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// Run a workload untraced; with `trace`, run it again traced and
/// return the traced outcome carrying the tracing overhead. `spans`
/// names the file the traced run's spans are written to.
fn bench(trace: bool, spans: &Path, run: impl Fn(&Tracer) -> Outcome) -> Outcome {
    let untraced = run(&Tracer::new(false));
    if !trace {
        return untraced;
    }
    let tracer = Tracer::new(true);
    let mut traced = run(&tracer);
    traced.check_repeat(&untraced.counts);
    traced.attempted += untraced.attempted;
    traced.failed += untraced.failed;
    traced.problems.extend(untraced.problems);
    traced.set_layer("trace.untraced_wall_s", untraced.wall_s);
    traced.set_layer("trace.traced_wall_s", traced.wall_s);
    traced.set_layer("trace.overhead_s", traced.wall_s - untraced.wall_s);
    traced
        .set_layer("trace.overhead_pct", 100.0 * (traced.wall_s / untraced.wall_s.max(1e-9) - 1.0));
    traced.set_layer("trace.spans", tracer.len() as f64);
    match tracer.write_jsonl(spans) {
        Ok(()) => println!("spans: {} written to {}", tracer.len(), spans.display()),
        Err(e) => traced.fail(format!("writing spans to {}: {e}", spans.display())),
    }
    traced
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let record =
        (!args.trace).then(|| counts_path(args.workload, args.seed, args.seconds)).flatten();
    let spans =
        out_dir().join("spans").join(format!("{}-{}.jsonl", args.workload.name(), args.seed));
    let mut outcome =
        bench(args.trace, &spans, |tracer| args.workload.run(args.seed, args.seconds, tracer));
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    outcome.set_layer("host.threads", threads as f64);
    outcome.set_layer("host.probe_ms", median(&outcome.probes) * 1e3);
    outcome.set_layer("host.speed_factor", outcome.speed_factor());
    outcome.set_layer("host.raw_wall_s", outcome.wall_s);
    outcome.set_layer("host.raw_guest_mips", mips(&outcome, outcome.wall_s));
    let metrics = if args.trace {
        layer_metrics(&outcome)
    } else {
        if let Some(path) = &record {
            match load_counts(path) {
                Some(expected) => outcome.check_repeat(&expected),
                None if outcome.problems.is_empty() => {
                    if let Err(e) = save_counts(path, &outcome.counts) {
                        eprintln!("perfbench: cannot record counts at {}: {e}", path.display());
                    }
                }
                None => {}
            }
        }
        let rss = peak_rss_mb().unwrap_or_else(|| {
            outcome.fail("VmHWM not readable from /proc/self/status");
            0.0
        });
        e2e_metrics(&outcome, rss)
    };
    println!(
        "workload {} seed {} seconds {} trace {}: {} attempted, {} failed",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    if !args.trace && !outcome.probes.is_empty() {
        println!(
            "  unscaled (host seconds; {} probes, median {:.3} ms):",
            outcome.probes.len(),
            median(&outcome.probes) * 1e3
        );
        println!("  {:<28} {:>16.6} s", "wall_s", outcome.wall_s);
        println!("  {:<28} {:>16.6} s", "setup_s", outcome.setup_s);
        println!("  {:<28} {:>16.6} MIPS", "guest_mips", mips(&outcome, outcome.wall_s));
    }
    if let (false, Some(gap)) = (args.trace, outcome.layers.get("experiments.fig6_gap_pp")) {
        println!("  {:<28} {gap:>16.6} pp (suite accuracy; reported per layer)", "fig6_gap_pp");
    }
    for problem in &outcome.problems {
        eprintln!("perfbench: FAILED CHECK: {problem}");
    }
    println!("{}", result_json(&outcome, &metrics));
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Self-test: `cargo test --release --manifest-path perfbench/Cargo.toml`.
#[cfg(test)]
mod tests {
    use super::*;
    use bioarch::json::Json;

    fn tiny(workload: Workload, tracer: &Tracer) -> Outcome {
        match workload {
            Workload::Suite => {
                suite::run(&suite::Size { scale: bioarch::Scale::Test, rounds: 1 }, 3, tracer)
            }
            Workload::Faults => {
                faults::run(&faults::Size { faults_per_app: 4, rounds: 1 }, 3, tracer)
            }
            Workload::Service => {
                service::run(&service::Size { variants: 1, chunk: 100_000, rounds: 1 }, 3, tracer)
            }
        }
    }

    /// The result line parses as JSON with exactly the four keys, and
    /// every metric carries its unit.
    fn assert_reports(line: &str, want: &[(&str, &str)]) {
        let doc = Json::parse(line).expect("result line is JSON");
        let Json::Obj(keys) = &doc else { panic!("result is not an object") };
        let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = doc.get("metrics") else { panic!("no metrics object") };
        assert_eq!(metrics.len(), want.len());
        for (name, unit) in want {
            let metric = doc.get("metrics").and_then(|m| m.get(name));
            let metric = metric.unwrap_or_else(|| panic!("metric {name} missing"));
            assert!(metric.get("value").and_then(Json::as_f64).is_some(), "{name} has no value");
            assert_eq!(metric.get("unit").and_then(Json::as_str), Some(*unit), "{name} unit");
        }
    }

    #[test]
    fn tiny_runs_print_every_metric_with_its_unit() {
        let spans = out_dir().join("selftest");
        for workload in [Workload::Suite, Workload::Faults, Workload::Service] {
            let untraced = tiny(workload, &Tracer::new(false));
            assert!(untraced.problems.is_empty(), "{workload:?}: {:?}", untraced.problems);
            assert!(untraced.attempted > 0 && untraced.count("sim.guest_insns") > 0);
            let line = result_json(&untraced, &e2e_metrics(&untraced, 1.0));
            assert_reports(&line, &E2E_METRICS);

            let path = spans.join(format!("{}.jsonl", workload.name()));
            let traced = bench(true, &path, |tracer| tiny(workload, tracer));
            assert!(traced.problems.is_empty(), "{workload:?}: {:?}", traced.problems);
            assert_reports(&result_json(&traced, &layer_metrics(&traced)), &LAYER_METRICS);
            assert!(std::fs::read_to_string(&path).expect("spans written").lines().count() > 0);
        }
    }

    #[test]
    fn a_wrong_expected_tally_or_digest_is_a_failure() {
        for (workload, key) in
            [(Workload::Faults, "sim.fault.masked"), (Workload::Service, "digest.round0")]
        {
            let mut outcome = tiny(workload, &Tracer::new(false));
            assert!(outcome.problems.is_empty(), "{workload:?}: {:?}", outcome.problems);
            let mut expected = outcome.counts.clone();
            let slot = expected.get_mut(key).unwrap_or_else(|| panic!("{workload:?} counts {key}"));
            *slot ^= 1;
            outcome.check_repeat(&expected);
            assert_eq!(outcome.failed, 1, "{workload:?}: {:?}", outcome.problems);
            let line = result_json(&outcome, &e2e_metrics(&outcome, 1.0));
            assert!(line.starts_with("{\"correct\": false, "), "{line}");
        }
    }

    #[test]
    fn counts_round_trip_through_the_record_file() {
        let path = out_dir().join("selftest").join("counts.txt");
        let counts: Counts = [("a.b".to_string(), 7), ("digest".to_string(), u64::MAX)].into();
        save_counts(&path, &counts).expect("record written");
        assert_eq!(load_counts(&path), Some(counts));
    }

    #[test]
    fn quantiles_interpolate_like_numpy() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.75), 3.25);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = parse("--workload faults --seed 4 --seconds 9 --trace 1").expect("valid");
        assert_eq!((ok.workload, ok.seed, ok.seconds, ok.trace), (Workload::Faults, 4, 9, true));
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload suite").is_err());
        assert!(parse("--workload suite --seed 1 --trace 2").is_err());
        assert!(parse("--workload suite --seed").is_err());
    }
}
