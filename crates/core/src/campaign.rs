//! Crash-safe campaign service: a durable job queue, a content-addressed
//! run cache, and preempt/resume worker shards.
//!
//! The suite runner in [`crate::experiments`] drives one fixed study in
//! one process: a crash loses the whole run. This module promotes it
//! into a long-running *campaign* service built around one contract,
//! enforced by test: **kill the process at any byte boundary, restart
//! it, and the final merged report is byte-identical to an uninterrupted
//! run.**
//!
//! The pieces:
//!
//! * **Durable submission queue** — every job is keyed by a
//!   content-addressed digest of `(app, variant, hw, scale, seed,
//!   code-image digest)` and recorded in an append-only JSONL journal
//!   (schema [`JOURNAL_SCHEMA`]). Each record is a single compact line;
//!   a torn final line (crash mid-`write`) is healed on reopen by
//!   truncating to the last newline, so replay always reaches a
//!   prefix-consistent state. Compaction rewrites the journal through
//!   the same atomic-rename path as every other document
//!   ([`crate::report::write_atomic`]) and bumps the segment counter.
//! * **Content-addressed run cache** — a completed job's
//!   `bioarch-report/v1` document lives in `cache/<digest>.json`.
//!   Resubmitting an identical job is served entirely from the cache:
//!   zero simulation work, visible in telemetry as zero execute-phase
//!   nanoseconds.
//! * **Preempt/resume workers** — workers lease jobs with
//!   heartbeat-stamped leases and checkpoint long jobs on an
//!   instruction-cadence via the `bioarch-checkpoint/v1` machinery.
//!   A lease whose heartbeat goes stale (worker died, process was
//!   killed) is claimable by any other worker, which resumes from the
//!   last checkpoint — preemption and migration for free.
//! * **Retry policy** — Timeout with an exhausted budget resumes from
//!   its own checkpoint under a seeded exponentially-widened budget
//!   (recomputed from the attempt *index*, so an interrupted retry
//!   schedule replays identically); Trap/Divergence restart from
//!   scratch; both quarantine into a `degraded` report with the
//!   existing `failure_class` taxonomy after the attempt limit.
//!   [`Campaign::drain`] stops workers at the next checkpoint boundary
//!   and releases their leases — finish-or-checkpoint, never abandon.
//!
//! # Why the contract holds
//!
//! Simulation is deterministic and checkpoint/resume is bit-exact, so a
//! job's result depends only on its spec — not on which worker ran it,
//! how many times it was preempted, or where it crashed. Checkpoints
//! are cut on a fixed instruction grid (multiples of the configured
//! chunk), so interrupted and uninterrupted runs traverse the same
//! slice boundaries. The journal loses at most one (torn) record at a
//! crash, and every lost-record case converges: a lost `submitted` is
//! resubmitted identically; a lost `lease`/`progress` re-runs or
//! resumes a deterministic job; a lost `completed` re-runs the job and
//! rewrites the identical cache bytes (the cache file is written
//! *before* the `completed` record). The merged report is derived from
//! cache contents in submission order and contains no wall-clock or
//! scheduling data, so its bytes depend only on the submitted set.

pub mod remote;

use crate::apps::{App, RunError, Scale, Variant, Workload};
use crate::checkpoint;
use crate::experiments::Hw;
use crate::json::Json;
use crate::kernels;
use crate::report::{write_atomic, Direction, Report};
use crate::schema::check_schema;
use crate::telemetry::{JobSpan, TelemetryHub};
use power5_sim::{Checkpoint, LockstepMode, Watchdog, XorShift64};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Schema identifier embedded in every journal header record.
pub const JOURNAL_SCHEMA: &str = "bioarch-journal/v1";

/// Milliseconds since the Unix epoch (heartbeat stamps).
fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Fold `bytes` into a 64-bit FNV-1a state.
fn fnv64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Content-address a set of string fields, independent of field order.
///
/// The pairs are sorted by key before hashing and separated by bytes
/// that cannot appear in the values (0x1f between key and value, 0x1e
/// between pairs), so the digest is stable across serialization order
/// and — being pure integer arithmetic — across platforms.
pub fn digest_fields(fields: &[(String, String)]) -> u64 {
    let mut sorted: Vec<&(String, String)> = fields.iter().collect();
    sorted.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (k, v) in sorted {
        h = fnv64(h, k.as_bytes());
        h = fnv64(h, &[0x1f]);
        h = fnv64(h, v.as_bytes());
        h = fnv64(h, &[0x1e]);
    }
    h
}

/// Lowercase slug for an [`App`].
fn app_slug(app: App) -> String {
    app.name().to_lowercase()
}

fn app_from_slug(s: &str) -> Option<App> {
    App::all().into_iter().find(|a| app_slug(*a) == s)
}

/// Machine-readable slug for a [`Scale`].
fn scale_slug(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::ClassC => "classc",
    }
}

fn scale_from_slug(s: &str) -> Option<Scale> {
    match s {
        "test" => Some(Scale::Test),
        "classc" => Some(Scale::ClassC),
        _ => None,
    }
}

/// One campaign job: everything that determines a simulation's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Which application.
    pub app: App,
    /// Which code variant.
    pub variant: Variant,
    /// Which hardware configuration.
    pub hw: Hw,
    /// Input scale.
    pub scale: Scale,
    /// Input-generation seed.
    pub seed: u64,
}

impl JobSpec {
    /// Digest of the kernel source this job compiles (the "code image"
    /// component of the content address): a new compiler or kernel
    /// revision changes the digest, so stale cached results are never
    /// served for new code.
    pub fn code_digest(self) -> u64 {
        let source = match self.app {
            App::Fasta => kernels::fasta(self.variant.flavor()),
            App::Clustalw => kernels::clustalw(self.variant.flavor()),
            App::Hmmer => kernels::hmmer(self.variant.flavor()),
            App::Blast => kernels::blast(self.variant.flavor()),
        };
        let h = fnv64(0xcbf2_9ce4_8422_2325, source.as_bytes());
        fnv64(h, self.variant.slug().as_bytes())
    }

    /// The canonical `(key, value)` pairs the content address hashes.
    pub fn canonical_fields(self) -> Vec<(String, String)> {
        vec![
            ("app".to_string(), app_slug(self.app)),
            ("code".to_string(), format!("{:016x}", self.code_digest())),
            ("hw".to_string(), self.hw.slug()),
            ("scale".to_string(), scale_slug(self.scale).to_string()),
            ("seed".to_string(), self.seed.to_string()),
            ("variant".to_string(), self.variant.slug().to_string()),
        ]
    }

    /// The content-address digest keying this job in queue and cache.
    pub fn digest(self) -> u64 {
        digest_fields(&self.canonical_fields())
    }

    /// The digest as the 16-hex-digit job id used in journal records
    /// and cache file names.
    pub fn id(self) -> String {
        format!("{:016x}", self.digest())
    }

    /// Human-readable label (`app/variant/hw/s<seed>`) used in metric
    /// names and telemetry spans.
    pub fn label(self) -> String {
        format!("{}/{}/{}/s{}", app_slug(self.app), self.variant.slug(), self.hw.slug(), self.seed)
    }

    /// Serialize for a `submitted` journal record. The seed is a
    /// decimal string (JSON numbers are doubles; a u64 seed must not be
    /// rounded) and the code digest rides along for humans reading the
    /// journal — [`JobSpec::from_json`] recomputes it from source.
    pub fn to_json(self) -> Json {
        Json::obj()
            .set("app", Json::Str(app_slug(self.app)))
            .set("variant", Json::Str(self.variant.slug().to_string()))
            .set("hw", Json::Str(self.hw.slug()))
            .set("scale", Json::Str(scale_slug(self.scale).to_string()))
            .set("seed", Json::Str(self.seed.to_string()))
            .set("code", Json::Str(format!("{:016x}", self.code_digest())))
    }

    /// Deserialize a `submitted` journal record's spec.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        let field = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("job spec missing field {k:?}"))
        };
        let app = field("app")?;
        let app = app_from_slug(&app).ok_or_else(|| format!("unknown app {app:?}"))?;
        let variant = field("variant")?;
        let variant = Variant::all()
            .into_iter()
            .find(|v| v.slug() == variant)
            .ok_or_else(|| format!("unknown variant {variant:?}"))?;
        let hw = field("hw")?;
        let hw = Hw::from_slug(&hw).ok_or_else(|| format!("unknown hw {hw:?}"))?;
        let scale = field("scale")?;
        let scale = scale_from_slug(&scale).ok_or_else(|| format!("unknown scale {scale:?}"))?;
        let seed = field("seed")?;
        let seed = seed.parse::<u64>().map_err(|_| format!("bad seed {seed:?}"))?;
        Ok(JobSpec { app, variant, hw, scale, seed })
    }
}

/// Where a job stands in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Submitted, waiting for a worker (or released back by one).
    Pending,
    /// Leased by a worker shard.
    Leased {
        /// The leasing worker's shard id.
        worker: u64,
        /// Last heartbeat, in ms since the Unix epoch. A lease whose
        /// heartbeat is older than the configured timeout is claimable
        /// by any worker.
        hb: u64,
    },
    /// Finished; its report is in the run cache.
    Completed,
    /// Gave up after the attempt limit (or a non-retryable failure).
    Quarantined {
        /// `failure_class` taxonomy value (`trap`, `timeout`, …).
        class: String,
        /// Human-readable description of the final failure.
        message: String,
    },
}

/// One job's state as reconstructed by [`replay_journal`] (and carried
/// live by [`Campaign`]).
#[derive(Debug, Clone)]
pub struct ReplayedJob {
    /// The submitted spec.
    pub spec: JobSpec,
    /// Lifecycle position.
    pub status: JobStatus,
    /// Failed attempts so far (the retry policy's input).
    pub attempts: u32,
    /// Instructions retired at the last recorded checkpoint.
    pub insns: u64,
}

/// The state a journal replays to.
#[derive(Debug)]
pub struct JournalReplay {
    /// Job state by 16-hex-digit id.
    pub jobs: HashMap<String, ReplayedJob>,
    /// Job ids in submission order (the merged report's order).
    pub order: Vec<String>,
    /// Segment counter from the header (bumped by compaction).
    pub segment: u64,
    /// Complete records replayed.
    pub records: u64,
    /// Whether the final line was torn (unparseable) and dropped.
    pub truncated_tail: bool,
}

/// Replay a journal text to a consistent state.
///
/// Every complete line is applied in order. An unparseable *final* line
/// is a torn write from a crash: it is dropped and reported via
/// [`JournalReplay::truncated_tail`]. An unparseable line anywhere else
/// is corruption and errors.
///
/// # Errors
///
/// Returns a message for an empty journal, a missing or unsupported
/// header, corruption before the final line, or a record referencing an
/// unsubmitted job.
pub fn replay_journal(text: &str) -> Result<JournalReplay, String> {
    let lines: Vec<&str> = text.lines().map(str::trim_end).filter(|l| !l.is_empty()).collect();
    if lines.is_empty() {
        return Err("empty journal".to_string());
    }
    let mut replay = JournalReplay {
        jobs: HashMap::new(),
        order: Vec::new(),
        segment: 0,
        records: 0,
        truncated_tail: false,
    };
    for (i, line) in lines.iter().enumerate() {
        let doc = match Json::parse(line) {
            Ok(doc) => doc,
            Err(e) => {
                if i + 1 == lines.len() {
                    replay.truncated_tail = true;
                    break;
                }
                return Err(format!("journal line {}: {e}", i + 1));
            }
        };
        let rec = doc.get("rec").and_then(Json::as_str).unwrap_or("");
        if i == 0 {
            if rec != "header" {
                return Err(format!("journal line 1: expected header record, got {rec:?}"));
            }
            check_schema(&doc, JOURNAL_SCHEMA).map_err(|e| e.to_string())?;
            replay.segment = doc.get("segment").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            replay.records += 1;
            continue;
        }
        let job_id = || {
            doc.get("job")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("journal line {}: record missing job id", i + 1))
        };
        match rec {
            "header" => {
                // A header after line 1 would mean a botched compaction;
                // the atomic rename makes that unreachable, so reject.
                return Err(format!("journal line {}: unexpected header record", i + 1));
            }
            "submitted" => {
                let id = job_id()?;
                let spec = doc
                    .get("spec")
                    .ok_or_else(|| format!("journal line {}: submitted without spec", i + 1))
                    .and_then(|s| {
                        JobSpec::from_json(s).map_err(|e| format!("journal line {}: {e}", i + 1))
                    })?;
                // Duplicate submissions are idempotent: a crash between
                // a torn `submitted` tail and the resubmission on
                // restart must not double-queue the job.
                if !replay.jobs.contains_key(&id) {
                    replay.jobs.insert(
                        id.clone(),
                        ReplayedJob { spec, status: JobStatus::Pending, attempts: 0, insns: 0 },
                    );
                    replay.order.push(id);
                }
            }
            "lease" => {
                let id = job_id()?;
                let job = replay
                    .jobs
                    .get_mut(&id)
                    .ok_or_else(|| format!("journal line {}: lease of unknown job {id}", i + 1))?;
                job.status = JobStatus::Leased {
                    worker: doc.get("worker").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                    hb: doc.get("hb").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                };
            }
            "progress" => {
                let id = job_id()?;
                let job = replay.jobs.get_mut(&id).ok_or_else(|| {
                    format!("journal line {}: progress of unknown job {id}", i + 1)
                })?;
                job.insns = doc.get("insns").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                let hb = doc.get("hb").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                if let JobStatus::Leased { hb: stamp, .. } = &mut job.status {
                    *stamp = hb;
                }
            }
            "retry" => {
                let id = job_id()?;
                let job = replay
                    .jobs
                    .get_mut(&id)
                    .ok_or_else(|| format!("journal line {}: retry of unknown job {id}", i + 1))?;
                // The record's attempt count is authoritative (not an
                // increment), so replaying a journal twice — or a
                // compacted journal — lands on the same count.
                job.attempts = doc.get("attempt").and_then(Json::as_f64).unwrap_or(0.0) as u32;
            }
            "completed" => {
                let id = job_id()?;
                let job = replay.jobs.get_mut(&id).ok_or_else(|| {
                    format!("journal line {}: completion of unknown job {id}", i + 1)
                })?;
                job.status = JobStatus::Completed;
            }
            "quarantined" => {
                let id = job_id()?;
                let job = replay.jobs.get_mut(&id).ok_or_else(|| {
                    format!("journal line {}: quarantine of unknown job {id}", i + 1)
                })?;
                job.status = JobStatus::Quarantined {
                    class: doc.get("class").and_then(Json::as_str).unwrap_or("error").to_string(),
                    message: doc.get("message").and_then(Json::as_str).unwrap_or("").to_string(),
                };
            }
            "released" => {
                let id = job_id()?;
                let job = replay.jobs.get_mut(&id).ok_or_else(|| {
                    format!("journal line {}: release of unknown job {id}", i + 1)
                })?;
                job.status = JobStatus::Pending;
            }
            other => {
                return Err(format!("journal line {}: unknown record kind {other:?}", i + 1));
            }
        }
        replay.records += 1;
    }
    Ok(replay)
}

/// Campaign service configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign directory: holds `journal.jsonl`, `cache/`, `state/`.
    pub dir: PathBuf,
    /// Worker shards [`Campaign::run`] spawns (min 1).
    pub workers: usize,
    /// Checkpoint cadence in instructions; 0 runs jobs unchunked.
    /// Checkpoints are cut on multiples of this grid, which is what
    /// makes interrupted and uninterrupted runs byte-identical.
    pub chunk: u64,
    /// Per-attempt instruction budget; `None` means unbudgeted. A job
    /// that exhausts its (seeded, exponentially widened) budget retries
    /// from its own checkpoint, then quarantines.
    pub budget: Option<u64>,
    /// Attempts before quarantine.
    pub max_attempts: u32,
    /// A lease whose heartbeat is older than this is claimable.
    pub lease_timeout_ms: u64,
    /// Compact the journal when it exceeds this many records; 0 never
    /// compacts.
    pub compact_threshold: u64,
    /// Batch width for lane-parallel claiming (min 1). Above 1, each
    /// in-process worker claims up to this many *compatible* jobs —
    /// same app/variant/hw/scale, differing seed — per dispatch
    /// ([`Campaign::claim_batch_for`]), and remote workers claiming
    /// through [`Campaign::claim_for`] get compatibility affinity:
    /// consecutive claims prefer jobs matching the worker's previous
    /// one. Claim interleaving never affects the merged report (it is
    /// built in submission order), so any width yields byte-identical
    /// reports.
    pub lanes: usize,
}

impl CampaignConfig {
    /// Defaults: 1 worker, unchunked, unbudgeted, 3 attempts, 60 s
    /// lease timeout, no compaction, no lane batching.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CampaignConfig {
            dir: dir.into(),
            workers: 1,
            chunk: 0,
            budget: None,
            max_attempts: 3,
            lease_timeout_ms: 60_000,
            compact_threshold: 0,
            lanes: 1,
        }
    }
}

/// What [`Campaign::submit`] did with a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// New job, queued.
    Accepted,
    /// Already queued or running; deduped.
    Duplicate,
    /// Already finished; the result is served from the run cache with
    /// zero simulation work.
    CacheHit,
}

/// A job leased to a worker shard — everything the worker (in-process
/// thread or remote process) needs to start executing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeasedJob {
    /// 16-hex-digit content-address id.
    pub id: String,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Failed attempts so far (input to the seeded budget widening).
    pub attempts: u32,
}

/// What a claim attempt produced (shared by the in-process worker loop
/// and the remote lease protocol in [`remote`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Claim {
    /// A job was leased to the asking worker.
    Job(LeasedJob),
    /// Nothing claimable right now, but live leases exist — the asking
    /// worker should retry shortly (another shard may die or release).
    Busy,
    /// The campaign is draining: stop claiming.
    Drained,
    /// Every job is terminal, or the incarnation crashed: stop.
    Finished,
}

/// What a batch claim attempt produced ([`Campaign::claim_batch_for`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchClaim {
    /// One or more compatible jobs leased to the asking worker (the
    /// first is the anchor; the rest share its app/variant/hw/scale).
    Jobs(Vec<LeasedJob>),
    /// Nothing claimable right now, but live leases exist.
    Busy,
    /// The campaign is draining: stop claiming.
    Drained,
    /// Every job is terminal, or the incarnation crashed: stop.
    Finished,
}

/// Whether two jobs may share a lane batch: everything but the seed
/// (and thus the generated input data) must match, which is exactly
/// the compatibility class the lane gang requires — one code image,
/// one hardware configuration, one scale.
fn lane_compatible(a: JobSpec, b: JobSpec) -> bool {
    a.app == b.app && a.variant == b.variant && a.hw == b.hw && a.scale == b.scale
}

/// What [`Campaign`] did with a remotely retired result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetireOutcome {
    /// First completion: cache written, `completed` record appended.
    Recorded,
    /// The job was already terminal — a re-delivery after a reconnect
    /// or an expired-lease re-run. Served as a cache hit, never
    /// double-counted.
    Duplicate,
    /// The incarnation crashed or the cache write failed.
    Failed,
}

/// Terminal-state counts after [`Campaign::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Jobs completed (including cache hits from earlier incarnations).
    pub completed: u64,
    /// Jobs quarantined.
    pub quarantined: u64,
    /// Whether the (simulated) crash tripped; real incarnations never
    /// set this.
    pub crashed: bool,
}

/// Mutable campaign state behind the service lock.
struct Inner {
    jobs: HashMap<String, ReplayedJob>,
    order: Vec<String>,
    file: Option<std::fs::File>,
    segment: u64,
    records: u64,
    /// Journal appends performed by this incarnation (the crash-point
    /// coordinate used by [`Campaign::crash_after_appends`]).
    appends: u64,
    crash_after: Option<u64>,
    crashed: bool,
    truncated_tail: bool,
    /// Last spec each worker claimed — the compatibility-affinity hint
    /// used when `config.lanes > 1`. In-memory only (not journaled):
    /// affinity is a scheduling preference, never a correctness input.
    affinity: HashMap<u64, JobSpec>,
}

/// The campaign service: open (replaying the journal), submit jobs, run
/// worker shards, and merge a deterministic report.
pub struct Campaign {
    config: CampaignConfig,
    inner: Mutex<Inner>,
    draining: AtomicBool,
    telemetry: Option<TelemetryHub>,
}

fn lock(inner: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Campaign {
    /// Open (or create) the campaign at `config.dir`, replaying the
    /// journal to a consistent state.
    ///
    /// Recovery on open: a torn final journal line is healed by
    /// truncating to the last newline; stale leases from a dead
    /// incarnation revert to pending; a `completed` job whose cache
    /// file is missing (crash between cache write and record — the
    /// other order is impossible) reverts to pending and will re-run
    /// deterministically.
    ///
    /// # Errors
    ///
    /// Returns a message when the directory or journal cannot be
    /// created/read, or the journal is corrupt beyond a torn tail.
    pub fn open(config: CampaignConfig) -> Result<Campaign, String> {
        let dir = &config.dir;
        std::fs::create_dir_all(dir.join("cache"))
            .map_err(|e| format!("create {}/cache: {e}", dir.display()))?;
        std::fs::create_dir_all(dir.join("state"))
            .map_err(|e| format!("create {}/state: {e}", dir.display()))?;
        let journal = dir.join("journal.jsonl");
        let mut inner = Inner {
            jobs: HashMap::new(),
            order: Vec::new(),
            file: None,
            segment: 0,
            records: 0,
            appends: 0,
            crash_after: None,
            crashed: false,
            truncated_tail: false,
            affinity: HashMap::new(),
        };
        let text = match std::fs::read_to_string(&journal) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(format!("read {}: {e}", journal.display())),
        };
        let fresh = text.trim().is_empty();
        if !fresh {
            let replay = replay_journal(&text)?;
            if replay.truncated_tail {
                let healed = match text.rfind('\n') {
                    Some(nl) => &text[..=nl],
                    None => "",
                };
                write_atomic(&journal, healed)
                    .map_err(|e| format!("heal {}: {e}", journal.display()))?;
                inner.truncated_tail = true;
            } else if !text.ends_with('\n') {
                // The final record is complete but its newline was torn
                // off; restore it so the next append starts a new line
                // instead of concatenating onto this one.
                write_atomic(&journal, &format!("{text}\n"))
                    .map_err(|e| format!("heal {}: {e}", journal.display()))?;
                inner.truncated_tail = true;
            }
            inner.segment = replay.segment;
            inner.records = replay.records;
            inner.order = replay.order;
            inner.jobs = replay.jobs;
            for job in inner.jobs.values_mut() {
                // Any lease recorded by a previous incarnation is dead:
                // its worker no longer exists.
                let stale_lease = matches!(job.status, JobStatus::Leased { .. });
                // A `completed` job without its cache file means the
                // crash landed between the cache write and the record's
                // append — impossible the other way round. Re-running
                // it rewrites the identical bytes.
                let orphaned = matches!(job.status, JobStatus::Completed)
                    && !dir.join("cache").join(format!("{}.json", job.spec.id())).is_file();
                if stale_lease || orphaned {
                    job.status = JobStatus::Pending;
                }
            }
        }
        let file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&journal)
            .map_err(|e| format!("open {}: {e}", journal.display()))?;
        inner.file = Some(file);
        let campaign = Campaign {
            config,
            inner: Mutex::new(inner),
            draining: AtomicBool::new(false),
            telemetry: None,
        };
        if fresh {
            let mut st = lock(&campaign.inner);
            let header = Json::obj()
                .set("rec", Json::Str("header".to_string()))
                .set("schema", Json::Str(JOURNAL_SCHEMA.to_string()))
                .set("segment", Json::Num(0.0));
            if !campaign.append(&mut st, &header) {
                return Err("journal header write failed".to_string());
            }
        }
        Ok(campaign)
    }

    /// Attach a telemetry hub: workers record job spans and lease/
    /// cache/journal phase nanoseconds through it.
    pub fn set_telemetry(&mut self, hub: TelemetryHub) {
        self.telemetry = Some(hub);
    }

    /// Detach the telemetry hub (to `finish()` it into a snapshot).
    pub fn take_telemetry(&mut self) -> Option<TelemetryHub> {
        self.telemetry.take()
    }

    /// Arrange for the simulated crash: the `n+1`-th journal append of
    /// this incarnation is refused and every later disk write is
    /// suppressed — equivalent to SIGKILL at that boundary, since all
    /// earlier appends were flushed.
    pub fn crash_after_appends(&self, n: u64) {
        lock(&self.inner).crash_after = Some(n);
    }

    /// Journal appends performed by this incarnation.
    pub fn journal_appends(&self) -> u64 {
        lock(&self.inner).appends
    }

    /// Whether the simulated crash tripped.
    pub fn crashed(&self) -> bool {
        lock(&self.inner).crashed
    }

    /// Whether opening healed a torn final journal line.
    pub fn truncated_tail(&self) -> bool {
        lock(&self.inner).truncated_tail
    }

    /// Job ids in submission order.
    pub fn job_ids(&self) -> Vec<String> {
        lock(&self.inner).order.clone()
    }

    /// A job's current status.
    pub fn status(&self, id: &str) -> Option<JobStatus> {
        lock(&self.inner).jobs.get(id).map(|j| j.status.clone())
    }

    /// Terminal-state counts.
    pub fn summary(&self) -> CampaignSummary {
        let st = lock(&self.inner);
        let mut s = CampaignSummary { completed: 0, quarantined: 0, crashed: st.crashed };
        for job in st.jobs.values() {
            match job.status {
                JobStatus::Completed => s.completed += 1,
                JobStatus::Quarantined { .. } => s.quarantined += 1,
                _ => {}
            }
        }
        s
    }

    fn cache_path(&self, id: &str) -> PathBuf {
        self.config.dir.join("cache").join(format!("{id}.json"))
    }

    fn ck_path(&self, id: &str) -> PathBuf {
        self.config.dir.join("state").join(format!("{id}.ck.json"))
    }

    /// Append one record to the journal. Returns `false` when the
    /// incarnation has (simulated-)crashed — the caller must stop, as a
    /// killed process would.
    fn append(&self, st: &mut Inner, doc: &Json) -> bool {
        if st.crashed {
            return false;
        }
        if let Some(n) = st.crash_after {
            if st.appends >= n {
                st.crashed = true;
                return false;
            }
        }
        st.appends += 1;
        let started = Instant::now();
        let Some(file) = st.file.as_mut() else {
            st.crashed = true;
            return false;
        };
        let line = format!("{}\n", doc.render_compact());
        if file.write_all(line.as_bytes()).and_then(|()| file.flush()).is_err() {
            st.crashed = true;
            return false;
        }
        if let Some(hub) = &self.telemetry {
            hub.phase_host("journal", started.elapsed().as_nanos() as u64);
        }
        st.records += 1;
        if self.config.compact_threshold > 0 && st.records > self.config.compact_threshold {
            self.compact(st);
        }
        true
    }

    /// Rewrite the journal from in-memory state (atomic rename), bump
    /// the segment, and reopen the append handle. Compaction lines are
    /// not "appends" for [`Campaign::crash_after_appends`] purposes.
    ///
    /// The superseded journal file is archived (not deleted) into
    /// `segments/<segment>.jsonl` under its own segment number first, so
    /// a campaign that outlives one journal incarnation remains
    /// replayable end-to-end: the archive plus the live journal form the
    /// complete record history. The archive is a *copy* made before the
    /// atomic rename — a crash between the two leaves the live journal
    /// intact and at worst re-archives the same segment (idempotent, the
    /// re-archived copy is a superset prefix of the same records).
    fn compact(&self, st: &mut Inner) {
        let journal = self.config.dir.join("journal.jsonl");
        let seg_dir = self.config.dir.join("segments");
        let archived = seg_dir.join(format!("{:06}.jsonl", st.segment));
        if std::fs::create_dir_all(&seg_dir).is_err() || std::fs::copy(&journal, &archived).is_err()
        {
            st.crashed = true;
            return;
        }
        st.segment += 1;
        let mut out = String::new();
        let header = Json::obj()
            .set("rec", Json::Str("header".to_string()))
            .set("schema", Json::Str(JOURNAL_SCHEMA.to_string()))
            .set("segment", Json::Num(st.segment as f64));
        out.push_str(&header.render_compact());
        out.push('\n');
        let mut records = 1u64;
        for id in &st.order {
            let Some(job) = st.jobs.get(id) else { continue };
            let sub = Json::obj()
                .set("rec", Json::Str("submitted".to_string()))
                .set("job", Json::Str(id.clone()))
                .set("spec", job.spec.to_json());
            out.push_str(&sub.render_compact());
            out.push('\n');
            records += 1;
            if job.attempts > 0 {
                let retry = Json::obj()
                    .set("rec", Json::Str("retry".to_string()))
                    .set("job", Json::Str(id.clone()))
                    .set("attempt", Json::Num(f64::from(job.attempts)))
                    .set("class", Json::Str("carried".to_string()));
                out.push_str(&retry.render_compact());
                out.push('\n');
                records += 1;
            }
            if job.insns > 0 {
                let progress = Json::obj()
                    .set("rec", Json::Str("progress".to_string()))
                    .set("job", Json::Str(id.clone()))
                    .set("insns", Json::Num(job.insns as f64))
                    .set("hb", Json::Num(0.0));
                out.push_str(&progress.render_compact());
                out.push('\n');
                records += 1;
            }
            let status = match &job.status {
                JobStatus::Pending => None,
                JobStatus::Leased { worker, hb } => Some(
                    Json::obj()
                        .set("rec", Json::Str("lease".to_string()))
                        .set("job", Json::Str(id.clone()))
                        .set("worker", Json::Num(*worker as f64))
                        .set("hb", Json::Num(*hb as f64)),
                ),
                JobStatus::Completed => Some(
                    Json::obj()
                        .set("rec", Json::Str("completed".to_string()))
                        .set("job", Json::Str(id.clone())),
                ),
                JobStatus::Quarantined { class, message } => Some(
                    Json::obj()
                        .set("rec", Json::Str("quarantined".to_string()))
                        .set("job", Json::Str(id.clone()))
                        .set("class", Json::Str(class.clone()))
                        .set("message", Json::Str(message.clone())),
                ),
            };
            if let Some(doc) = status {
                out.push_str(&doc.render_compact());
                out.push('\n');
                records += 1;
            }
        }
        if write_atomic(&journal, &out).is_err() {
            st.crashed = true;
            return;
        }
        match std::fs::OpenOptions::new().append(true).open(&journal) {
            Ok(file) => {
                st.file = Some(file);
                st.records = records;
            }
            Err(_) => st.crashed = true,
        }
    }

    /// Submit a job: dedupe against the queue and serve finished
    /// results from the run cache.
    ///
    /// # Errors
    ///
    /// Returns a message when the journal append fails (the incarnation
    /// crashed).
    pub fn submit(&self, spec: JobSpec) -> Result<SubmitOutcome, String> {
        let id = spec.id();
        let mut st = lock(&self.inner);
        if let Some(job) = st.jobs.get(&id) {
            return Ok(match job.status {
                JobStatus::Completed | JobStatus::Quarantined { .. } => {
                    if let Some(hub) = &self.telemetry {
                        hub.count_host("campaign.cache_hits", 1);
                    }
                    SubmitOutcome::CacheHit
                }
                _ => SubmitOutcome::Duplicate,
            });
        }
        // State first, then the journal record: compaction (triggered
        // from inside `append`) rebuilds the journal from state, so the
        // state must already reflect the record being appended.
        st.jobs.insert(
            id.clone(),
            ReplayedJob { spec, status: JobStatus::Pending, attempts: 0, insns: 0 },
        );
        st.order.push(id.clone());
        let doc = Json::obj()
            .set("rec", Json::Str("submitted".to_string()))
            .set("job", Json::Str(id))
            .set("spec", spec.to_json());
        if !self.append(&mut st, &doc) {
            return Err(format!("journal append failed submitting {}", spec.label()));
        }
        Ok(SubmitOutcome::Accepted)
    }

    /// Request graceful drain: workers stop claiming jobs, finish or
    /// checkpoint their current slice, release their leases, and
    /// return. Never abandons a lease.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Run worker shards until every job is terminal, the campaign is
    /// drained, or the (simulated) crash trips.
    pub fn run(&self) -> CampaignSummary {
        let shards = self.config.workers.max(1);
        std::thread::scope(|scope| {
            for w in 0..shards {
                scope.spawn(move || self.worker(w as u64));
            }
        });
        self.summary()
    }

    /// One worker shard: claim pending (or lease-expired) jobs and
    /// execute them until nothing is claimable. With `config.lanes > 1`
    /// the shard claims whole compatible batches per dispatch and
    /// retires them back to back, keeping sibling leases warm while
    /// earlier batch members execute.
    fn worker(&self, w: u64) {
        let lanes = self.config.lanes.max(1);
        if lanes <= 1 {
            loop {
                match self.claim_for(w) {
                    Claim::Job(job) => self.execute(w, &job.id, job.spec, job.attempts),
                    Claim::Busy => std::thread::sleep(std::time::Duration::from_millis(2)),
                    Claim::Drained | Claim::Finished => return,
                }
            }
        }
        loop {
            match self.claim_batch_for(w, lanes) {
                BatchClaim::Jobs(jobs) => {
                    for (k, job) in jobs.iter().enumerate() {
                        for other in &jobs[k + 1..] {
                            self.touch_lease(&other.id, w);
                        }
                        self.execute(w, &job.id, job.spec, job.attempts);
                    }
                }
                BatchClaim::Busy => std::thread::sleep(std::time::Duration::from_millis(2)),
                BatchClaim::Drained | BatchClaim::Finished => return,
            }
        }
    }

    /// Claim the first claimable job — pending, or leased with an
    /// expired heartbeat — for worker `w`, appending the `lease`
    /// record. This is the single lease path: the in-process worker
    /// loop and the remote `serve` protocol both claim through it, so
    /// expired remote leases are reclaimed exactly as in-process ones.
    pub fn claim_for(&self, w: u64) -> Claim {
        if self.draining.load(Ordering::SeqCst) {
            return Claim::Drained;
        }
        let mut st = lock(&self.inner);
        if st.crashed {
            return Claim::Finished;
        }
        let now = now_ms();
        let timeout = self.config.lease_timeout_ms;
        // With lane batching enabled, prefer a claimable job compatible
        // with this worker's previous claim: remote workers (which batch
        // through repeated single claims over the unchanged wire
        // protocol) then stream compatible jobs back to back. With
        // `lanes <= 1` the scan is the original first-claimable walk.
        let affinity = if self.config.lanes > 1 { st.affinity.get(&w).copied() } else { None };
        let mut first: Option<(String, bool)> = None;
        let mut affine: Option<(String, bool)> = None;
        let mut live = false;
        for id in &st.order {
            let Some(job) = st.jobs.get(id) else { continue };
            let reclaimed = match &job.status {
                JobStatus::Pending => false,
                JobStatus::Leased { hb, .. } => {
                    if now.saturating_sub(*hb) > timeout {
                        true
                    } else {
                        live = true;
                        continue;
                    }
                }
                _ => continue,
            };
            if first.is_none() {
                first = Some((id.clone(), reclaimed));
                if affinity.is_none() {
                    break;
                }
            }
            if affinity.is_some_and(|a| lane_compatible(a, job.spec)) {
                affine = Some((id.clone(), reclaimed));
                break;
            }
        }
        match affine.or(first) {
            Some((id, reclaimed)) => {
                let started = Instant::now();
                let job = st.jobs.get_mut(&id).expect("claimed job exists");
                job.status = JobStatus::Leased { worker: w, hb: now };
                let (spec, attempts) = (job.spec, job.attempts);
                let doc = Json::obj()
                    .set("rec", Json::Str("lease".to_string()))
                    .set("job", Json::Str(id.clone()))
                    .set("worker", Json::Num(w as f64))
                    .set("hb", Json::Num(now as f64));
                if !self.append(&mut st, &doc) {
                    return Claim::Finished;
                }
                if self.config.lanes > 1 {
                    st.affinity.insert(w, spec);
                }
                if let Some(hub) = &self.telemetry {
                    hub.phase_host("lease", started.elapsed().as_nanos() as u64);
                    if reclaimed {
                        hub.count_host("campaign.lease_reclaims", 1);
                    }
                }
                Claim::Job(LeasedJob { id, spec, attempts })
            }
            None if live => Claim::Busy,
            None => Claim::Finished,
        }
    }

    /// Claim up to `max` *compatible* jobs — same app/variant/hw/scale,
    /// differing seed — for worker `w` in one locked pass, appending a
    /// `lease` record per job. The anchor job is chosen exactly like
    /// [`Campaign::claim_for`] (first claimable, with affinity to the
    /// worker's previous claim); the rest are the next claimable jobs
    /// in submission order that share the anchor's compatibility class.
    /// The merged report is built in submission order from terminal
    /// states, so batch claiming cannot change its bytes.
    pub fn claim_batch_for(&self, w: u64, max: usize) -> BatchClaim {
        let max = max.max(1);
        if self.draining.load(Ordering::SeqCst) {
            return BatchClaim::Drained;
        }
        let mut st = lock(&self.inner);
        if st.crashed {
            return BatchClaim::Finished;
        }
        let now = now_ms();
        let timeout = self.config.lease_timeout_ms;
        let mut claimable: Vec<(String, bool)> = Vec::new();
        let mut live = false;
        for id in &st.order {
            match st.jobs.get(id).map(|j| &j.status) {
                Some(JobStatus::Pending) => claimable.push((id.clone(), false)),
                Some(JobStatus::Leased { hb, .. }) => {
                    if now.saturating_sub(*hb) > timeout {
                        claimable.push((id.clone(), true));
                    } else {
                        live = true;
                    }
                }
                _ => {}
            }
        }
        if claimable.is_empty() {
            return if live { BatchClaim::Busy } else { BatchClaim::Finished };
        }
        let spec_of = |st: &Inner, id: &str| st.jobs.get(id).expect("claimable job exists").spec;
        let anchor = st
            .affinity
            .get(&w)
            .copied()
            .and_then(|a| claimable.iter().position(|(id, _)| lane_compatible(a, spec_of(&st, id))))
            .unwrap_or(0);
        let anchor_spec = spec_of(&st, &claimable[anchor].0);
        let mut picks: Vec<(String, bool)> = vec![claimable[anchor].clone()];
        for (k, entry) in claimable.iter().enumerate() {
            if picks.len() >= max {
                break;
            }
            if k != anchor && lane_compatible(anchor_spec, spec_of(&st, &entry.0)) {
                picks.push(entry.clone());
            }
        }
        let started = Instant::now();
        let mut jobs = Vec::with_capacity(picks.len());
        let mut reclaims = 0u64;
        for (id, reclaimed) in picks {
            let job = st.jobs.get_mut(&id).expect("claimed job exists");
            job.status = JobStatus::Leased { worker: w, hb: now };
            let (spec, attempts) = (job.spec, job.attempts);
            let doc = Json::obj()
                .set("rec", Json::Str("lease".to_string()))
                .set("job", Json::Str(id.clone()))
                .set("worker", Json::Num(w as f64))
                .set("hb", Json::Num(now as f64));
            if !self.append(&mut st, &doc) {
                return BatchClaim::Finished;
            }
            reclaims += u64::from(reclaimed);
            jobs.push(LeasedJob { id, spec, attempts });
        }
        st.affinity.insert(w, anchor_spec);
        if let Some(hub) = &self.telemetry {
            hub.phase_host("lease", started.elapsed().as_nanos() as u64);
            hub.count_host("campaign.batch_claims", 1);
            hub.count_host("campaign.batch_jobs", jobs.len() as u64);
            if reclaims > 0 {
                hub.count_host("campaign.lease_reclaims", reclaims);
            }
        }
        BatchClaim::Jobs(jobs)
    }

    /// Refresh the heartbeat on a lease held by worker `w`. A heartbeat
    /// for a job leased to a *different* worker (the lease expired and
    /// was reclaimed while this worker was disconnected) is ignored —
    /// the stale worker must not keep the new lease alive.
    pub fn touch_lease(&self, id: &str, w: u64) {
        let mut st = lock(&self.inner);
        if let Some(job) = st.jobs.get_mut(id) {
            if let JobStatus::Leased { worker, hb } = &mut job.status {
                if *worker == w {
                    *hb = now_ms();
                }
            }
        }
    }

    /// The job currently leased to worker `w`, if any. The remote
    /// protocol re-delivers this on `fetch` — idempotent re-delivery
    /// keyed by the content-addressed id — so a worker that lost the
    /// original `job` frame resumes the same work instead of waiting
    /// out its own lease.
    pub fn leased_to(&self, w: u64) -> Option<LeasedJob> {
        let st = lock(&self.inner);
        for id in &st.order {
            if let Some(job) = st.jobs.get(id) {
                if matches!(job.status, JobStatus::Leased { worker, .. } if worker == w) {
                    return Some(LeasedJob {
                        id: id.clone(),
                        spec: job.spec,
                        attempts: job.attempts,
                    });
                }
            }
        }
        None
    }

    /// Jobs not yet terminal (pending or leased).
    pub fn outstanding(&self) -> u64 {
        let st = lock(&self.inner);
        st.jobs
            .values()
            .filter(|j| matches!(j.status, JobStatus::Pending | JobStatus::Leased { .. }))
            .count() as u64
    }

    /// Leases whose heartbeat is still within the timeout.
    pub fn live_leases(&self) -> u64 {
        let st = lock(&self.inner);
        let now = now_ms();
        st.jobs
            .values()
            .filter(|j| match j.status {
                JobStatus::Leased { hb, .. } => {
                    now.saturating_sub(hb) <= self.config.lease_timeout_ms
                }
                _ => false,
            })
            .count() as u64
    }

    /// Whether graceful drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// The service configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// A job's submitted spec.
    pub fn spec(&self, id: &str) -> Option<JobSpec> {
        lock(&self.inner).jobs.get(id).map(|j| j.spec)
    }

    /// The rendered resume checkpoint for a job, if one is on disk.
    fn resume_text(&self, id: &str) -> Option<String> {
        std::fs::read_to_string(self.ck_path(id)).ok()
    }

    /// Record a remote worker's chunk-boundary checkpoint: validate and
    /// persist the rendered checkpoint, then append the `progress`
    /// record (which doubles as the lease heartbeat).
    fn remote_progress(&self, id: &str, insns: u64, ck_text: &str) -> bool {
        if lock(&self.inner).crashed {
            return false;
        }
        if checkpoint::parse(ck_text).is_err() {
            return false;
        }
        self.store_checkpoint(id, ck_text) && self.append_progress(id, insns)
    }

    /// Record a remote worker's failed attempt: persist (budget retry)
    /// or remove (scratch retry) the checkpoint, then journal the
    /// authoritative attempt count. Mirrors [`Campaign::retry`].
    fn remote_retry(
        &self,
        id: &str,
        label: &str,
        attempt: u32,
        class: &str,
        ck_text: Option<&str>,
    ) -> bool {
        if lock(&self.inner).crashed {
            return false;
        }
        match ck_text {
            Some(text) => {
                if checkpoint::parse(text).is_err() || !self.store_checkpoint(id, text) {
                    return false;
                }
            }
            None => {
                let _ = std::fs::remove_file(self.ck_path(id));
            }
        }
        self.record_retry(id, label, attempt, class)
    }

    /// Retire a job remotely: write the worker-rendered report into the
    /// run cache (before the `completed` record, preserving the crash
    /// ordering invariant) and mark the job completed. A job that is
    /// already terminal — the worker reconnected and re-delivered, or
    /// an expired lease was re-run by another shard — is a
    /// [`RetireOutcome::Duplicate`]: a cache hit, never a double-count.
    fn remote_retire(&self, id: &str, insns: u64, report_text: &str) -> RetireOutcome {
        {
            let st = lock(&self.inner);
            if st.crashed {
                return RetireOutcome::Failed;
            }
            match st.jobs.get(id).map(|j| &j.status) {
                Some(JobStatus::Completed | JobStatus::Quarantined { .. }) => {
                    drop(st);
                    if let Some(hub) = &self.telemetry {
                        hub.count_host("campaign.remote.dup_retires", 1);
                    }
                    return RetireOutcome::Duplicate;
                }
                Some(_) => {}
                None => return RetireOutcome::Failed,
            }
        }
        let started = Instant::now();
        if write_atomic(self.cache_path(id), report_text).is_err() {
            return RetireOutcome::Failed;
        }
        if let Some(hub) = &self.telemetry {
            hub.phase_host("cache", started.elapsed().as_nanos() as u64);
        }
        let mut st = lock(&self.inner);
        // Recheck under the lock: another connection may have retired
        // the same job between the peek above and the cache write (both
        // writes carry identical bytes, so the race is benign).
        if matches!(
            st.jobs.get(id).map(|j| &j.status),
            Some(JobStatus::Completed | JobStatus::Quarantined { .. })
        ) {
            drop(st);
            if let Some(hub) = &self.telemetry {
                hub.count_host("campaign.remote.dup_retires", 1);
            }
            return RetireOutcome::Duplicate;
        }
        if let Some(job) = st.jobs.get_mut(id) {
            job.status = JobStatus::Completed;
            job.insns = insns;
        }
        let doc = Json::obj()
            .set("rec", Json::Str("completed".to_string()))
            .set("job", Json::Str(id.to_string()));
        if !self.append(&mut st, &doc) {
            return RetireOutcome::Failed;
        }
        drop(st);
        let _ = std::fs::remove_file(self.ck_path(id));
        RetireOutcome::Recorded
    }

    /// Quarantine a job on a remote worker's behalf. Idempotent: a job
    /// that is already terminal is left untouched, so a stale worker's
    /// verdict can never overwrite a recorded completion.
    fn remote_quarantine(&self, id: &str, class: &str, message: &str) -> bool {
        let spec = {
            let st = lock(&self.inner);
            if st.crashed {
                return false;
            }
            match st.jobs.get(id) {
                Some(job) => {
                    if matches!(job.status, JobStatus::Completed | JobStatus::Quarantined { .. }) {
                        drop(st);
                        if let Some(hub) = &self.telemetry {
                            hub.count_host("campaign.remote.dup_retires", 1);
                        }
                        return true;
                    }
                    job.spec
                }
                None => return false,
            }
        };
        self.quarantine(id, &spec.label(), spec, class, message);
        true
    }

    /// Release a lease held by worker `w` (remote graceful drain). A
    /// release for a lease the worker no longer holds is a no-op.
    fn remote_release(&self, id: &str, w: u64) {
        let holds = matches!(
            lock(&self.inner).jobs.get(id).map(|j| &j.status),
            Some(JobStatus::Leased { worker, .. }) if *worker == w
        );
        if holds {
            self.release(id);
        }
    }

    /// Execute one leased job to a terminal state (or checkpoint +
    /// release on drain, or stop on crash).
    fn execute(&self, _w: u64, id: &str, spec: JobSpec, mut attempts: u32) {
        let label = spec.label();
        let digest = spec.digest();
        let wall0 = Instant::now();
        if let Some(hub) = &self.telemetry {
            hub.job_started(&label);
        }
        let workload = Workload::new(spec.app, spec.scale, spec.seed);
        let profiler = self.telemetry.as_ref().and_then(TelemetryHub::profiler_period);
        let cfg = spec.hw.config();
        let mut resume: Option<Checkpoint> = std::fs::read_to_string(self.ck_path(id))
            .ok()
            .and_then(|text| checkpoint::parse(&text).ok());
        if resume.is_some() {
            if let Some(hub) = &self.telemetry {
                hub.job_resumed(&label, attempts + 1);
            }
        }
        loop {
            let done = resume.as_ref().map_or(0, |c| c.insns_total);
            let budget = self.config.budget.map(|b| widened_budget(digest, b, attempts));
            let slice_end = match (self.config.chunk, budget) {
                (0, None) => None,
                (0, Some(b)) => Some(b),
                (c, None) => Some((done / c + 1) * c),
                (c, Some(b)) => Some(((done / c + 1) * c).min(b)),
            };
            let watchdog =
                slice_end.map(|e| Watchdog { max_cycles: None, max_instructions: Some(e) });
            let result = match (&resume, watchdog) {
                (Some(ck), Some(wd)) => {
                    workload.resume_instrumented(spec.variant, &cfg, ck, wd, profiler)
                }
                _ => workload.run_full_instrumented(
                    spec.variant,
                    &cfg,
                    None,
                    watchdog,
                    LockstepMode::Off,
                    profiler,
                ),
            };
            match result {
                Ok(run) => {
                    if run.validated {
                        self.complete(id, &label, spec, attempts, &run, wall0);
                    } else {
                        let what = format!(
                            "{label}: output mismatch: {}",
                            run.mismatches.first().map(String::as_str).unwrap_or("?")
                        );
                        self.quarantine(id, &label, spec, "validation", &what);
                    }
                    return;
                }
                Err(RunError::Timeout { checkpoint, .. }) => {
                    let hit_budget = budget.is_some_and(|b| checkpoint.insns_total >= b);
                    if hit_budget {
                        attempts += 1;
                        if attempts >= self.config.max_attempts {
                            let msg = format!(
                                "{label}: budget exhausted after {} attempts ({} insns)",
                                attempts, checkpoint.insns_total
                            );
                            self.quarantine(id, &label, spec, "timeout", &msg);
                            return;
                        }
                        if !self.retry(id, &label, attempts, "timeout", Some(&checkpoint)) {
                            return;
                        }
                        resume = Some(*checkpoint);
                    } else {
                        // Routine chunk boundary: persist and continue.
                        if !self.progress(id, &label, &checkpoint) {
                            return;
                        }
                        resume = Some(*checkpoint);
                        if self.draining.load(Ordering::SeqCst) {
                            self.release(id);
                            return;
                        }
                    }
                }
                Err(err @ (RunError::Trap(_) | RunError::Divergence { .. })) => {
                    attempts += 1;
                    let class = err.class();
                    let msg = format!("{label}: {err}");
                    if attempts >= self.config.max_attempts {
                        self.quarantine(id, &label, spec, class, &msg);
                        return;
                    }
                    // Restart from scratch: the checkpoint (if any) is
                    // tainted. Remove it *before* the retry record so a
                    // crash between the two never resumes stale state.
                    if !self.retry(id, &label, attempts, class, None) {
                        return;
                    }
                    resume = None;
                }
                Err(err) => {
                    let msg = format!("{label}: {err}");
                    self.quarantine(id, &label, spec, err.class(), &msg);
                    return;
                }
            }
        }
    }

    /// Persist a routine checkpoint and its `progress` record.
    fn progress(&self, id: &str, _label: &str, ck: &Checkpoint) -> bool {
        if lock(&self.inner).crashed {
            return false;
        }
        self.store_checkpoint(id, &checkpoint::render(ck))
            && self.append_progress(id, ck.insns_total)
    }

    /// Atomically persist a rendered checkpoint for `id`.
    fn store_checkpoint(&self, id: &str, text: &str) -> bool {
        let started = Instant::now();
        if write_atomic(self.ck_path(id), text).is_err() {
            return false;
        }
        if let Some(hub) = &self.telemetry {
            hub.phase_host("checkpoint", started.elapsed().as_nanos() as u64);
        }
        true
    }

    /// Append the `progress` record for `id`, bumping the lease
    /// heartbeat and the in-memory instruction high-water mark.
    fn append_progress(&self, id: &str, insns: u64) -> bool {
        let mut st = lock(&self.inner);
        let now = now_ms();
        if let Some(job) = st.jobs.get_mut(id) {
            job.insns = insns;
            if let JobStatus::Leased { hb, .. } = &mut job.status {
                *hb = now;
            }
        }
        let doc = Json::obj()
            .set("rec", Json::Str("progress".to_string()))
            .set("job", Json::Str(id.to_string()))
            .set("insns", Json::Num(insns as f64))
            .set("hb", Json::Num(now as f64));
        self.append(&mut st, &doc)
    }

    /// Record a failed attempt; persist (budget retry) or remove
    /// (scratch retry) the checkpoint first, so a crash between the
    /// two converges.
    fn retry(
        &self,
        id: &str,
        label: &str,
        attempt: u32,
        class: &str,
        ck: Option<&Checkpoint>,
    ) -> bool {
        if lock(&self.inner).crashed {
            return false;
        }
        match ck {
            Some(ck) => {
                if !self.store_checkpoint(id, &checkpoint::render(ck)) {
                    return false;
                }
            }
            None => {
                let _ = std::fs::remove_file(self.ck_path(id));
            }
        }
        self.record_retry(id, label, attempt, class)
    }

    /// Append the `retry` record for `id` (the checkpoint, if any, must
    /// already be persisted or removed by the caller).
    fn record_retry(&self, id: &str, label: &str, attempt: u32, class: &str) -> bool {
        let mut st = lock(&self.inner);
        if let Some(job) = st.jobs.get_mut(id) {
            job.attempts = attempt;
        }
        let doc = Json::obj()
            .set("rec", Json::Str("retry".to_string()))
            .set("job", Json::Str(id.to_string()))
            .set("attempt", Json::Num(f64::from(attempt)))
            .set("class", Json::Str(class.to_string()));
        if !self.append(&mut st, &doc) {
            return false;
        }
        drop(st);
        if let Some(hub) = &self.telemetry {
            hub.job_retried(label, attempt, class);
        }
        true
    }

    /// Release a lease on drain: the job stays resumable.
    fn release(&self, id: &str) {
        let mut st = lock(&self.inner);
        if let Some(job) = st.jobs.get_mut(id) {
            job.status = JobStatus::Pending;
        }
        let doc = Json::obj()
            .set("rec", Json::Str("released".to_string()))
            .set("job", Json::Str(id.to_string()));
        self.append(&mut st, &doc);
    }

    /// Finish a validated run: write the cache report (before the
    /// `completed` record — a crash between the two re-runs the job and
    /// rewrites identical bytes), mark completed, drop the checkpoint.
    fn complete(
        &self,
        id: &str,
        label: &str,
        spec: JobSpec,
        attempts: u32,
        run: &crate::apps::AppRun,
        wall0: Instant,
    ) {
        if lock(&self.inner).crashed {
            return;
        }
        let report = job_report(label, spec, run);
        let started = Instant::now();
        if write_atomic(self.cache_path(id), &report.render_json()).is_err() {
            return;
        }
        if let Some(hub) = &self.telemetry {
            hub.phase_host("cache", started.elapsed().as_nanos() as u64);
        }
        let mut st = lock(&self.inner);
        if matches!(st.jobs.get(id).map(|j| &j.status), Some(JobStatus::Completed)) {
            return;
        }
        if let Some(job) = st.jobs.get_mut(id) {
            job.status = JobStatus::Completed;
            job.insns = run.counters.instructions;
        }
        let doc = Json::obj()
            .set("rec", Json::Str("completed".to_string()))
            .set("job", Json::Str(id.to_string()));
        if !self.append(&mut st, &doc) {
            return;
        }
        drop(st);
        let _ = std::fs::remove_file(self.ck_path(id));
        if let Some(hub) = &self.telemetry {
            hub.job_retired(
                JobSpan {
                    job: label.to_string(),
                    wall_ms: wall0.elapsed().as_secs_f64() * 1e3,
                    instructions: run.counters.instructions,
                    attempts: attempts + 1,
                    phases: run.phases,
                    retired: run.retired,
                    observer: None,
                },
                run.guest_profile.as_deref(),
            );
        }
    }

    /// Quarantine a job: cache its degraded report (so resubmission is
    /// still a cache hit), record, drop the checkpoint.
    fn quarantine(&self, id: &str, label: &str, spec: JobSpec, class: &str, message: &str) {
        if lock(&self.inner).crashed {
            return;
        }
        let mut report = job_report_shell(label, spec);
        report.degrade_classified(class, message);
        let started = Instant::now();
        if write_atomic(self.cache_path(id), &report.render_json()).is_err() {
            return;
        }
        if let Some(hub) = &self.telemetry {
            hub.phase_host("cache", started.elapsed().as_nanos() as u64);
        }
        let mut st = lock(&self.inner);
        if let Some(job) = st.jobs.get_mut(id) {
            job.status =
                JobStatus::Quarantined { class: class.to_string(), message: message.to_string() };
        }
        let doc = Json::obj()
            .set("rec", Json::Str("quarantined".to_string()))
            .set("job", Json::Str(id.to_string()))
            .set("class", Json::Str(class.to_string()))
            .set("message", Json::Str(message.to_string()));
        if !self.append(&mut st, &doc) {
            return;
        }
        drop(st);
        let _ = std::fs::remove_file(self.ck_path(id));
        if let Some(hub) = &self.telemetry {
            hub.job_quarantined(label, class);
        }
    }

    /// Merge every terminal job into one deterministic report, in
    /// submission order. Contains no wall-clock, lease, or scheduling
    /// data — its bytes depend only on the submitted set, which is what
    /// the kill-and-restart byte-identity contract needs.
    ///
    /// # Errors
    ///
    /// Returns a message when a completed job's cache file is missing
    /// or unparseable.
    pub fn merged_report(&self) -> Result<Report, String> {
        let st = lock(&self.inner);
        let mut merged = Report::new("campaign");
        let mut completed = 0u64;
        let mut quarantined = 0u64;
        for id in &st.order {
            match st.jobs.get(id).map(|j| &j.status) {
                Some(JobStatus::Completed) => completed += 1,
                Some(JobStatus::Quarantined { .. }) => quarantined += 1,
                _ => {}
            }
        }
        merged.push("campaign.jobs", st.order.len() as f64, Direction::Neutral);
        merged.push("campaign.completed", completed as f64, Direction::Higher);
        merged.push("campaign.quarantined", quarantined as f64, Direction::Lower);
        for id in &st.order {
            let Some(job) = st.jobs.get(id) else { continue };
            let label = job.spec.label();
            match &job.status {
                JobStatus::Completed => {
                    let path = self.cache_path(id);
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("read {}: {e}", path.display()))?;
                    let report = Report::parse(&text)
                        .map_err(|e| format!("parse {}: {e}", path.display()))?;
                    for metric in &report.metrics {
                        merged.push(
                            format!("{label}.{}", metric.name),
                            metric.value,
                            metric.direction,
                        );
                    }
                }
                JobStatus::Quarantined { class, message } => {
                    merged.degrade_classified(class.clone(), format!("{label}: {message}"));
                }
                _ => {
                    merged.degrade_classified("incomplete", format!("{label}: not terminal"));
                }
            }
        }
        Ok(merged)
    }
}

/// The seeded exponential backoff budget for attempt `retries` of the
/// job with content address `digest`. Recomputed from the attempt index
/// each time (never carried across restarts), so an interrupted retry
/// schedule replays identically.
fn widened_budget(digest: u64, base: u64, retries: u32) -> u64 {
    let mut rng = XorShift64::new(digest ^ 0x5EED_F00D_BA5E_BA11);
    let mut b = base.max(1);
    for _ in 0..retries {
        b = b + b / 2 + rng.below(b / 4 + 1);
    }
    b
}

/// A completed job's cache report: deterministic counters only.
fn job_report(label: &str, spec: JobSpec, run: &crate::apps::AppRun) -> Report {
    let mut report = job_report_shell(label, spec);
    let c = &run.counters;
    report.push("instructions", c.instructions as f64, Direction::Neutral);
    report.push("cycles", c.cycles as f64, Direction::Lower);
    report.push("ipc", c.ipc(), Direction::Higher);
    report.push("mispredict_rate", c.branches.misprediction_rate(), Direction::Lower);
    report
}

/// Archived journal segments under `dir/segments/`, sorted by segment
/// number (the monotonically numbered file names compaction leaves
/// behind). Concatenating every archived segment in order with the live
/// `journal.jsonl` replays the campaign's full history end-to-end.
pub fn archived_segments(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir.join("segments"))
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}

/// The context-only shell shared by completed and quarantined reports.
fn job_report_shell(label: &str, spec: JobSpec) -> Report {
    Report::new(label)
        .context("app", app_slug(spec.app))
        .context("variant", spec.variant.slug())
        .context("hw", spec.hw.slug())
        .context("scale", scale_slug(spec.scale))
        .context("seed", spec.seed)
        .context("job", spec.id())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            app: App::Fasta,
            variant: Variant::Baseline,
            hw: Hw::Stock,
            scale: Scale::Test,
            seed: 42,
        }
    }

    #[test]
    fn digest_ignores_field_order() {
        let fields = spec().canonical_fields();
        let mut reversed = fields.clone();
        reversed.reverse();
        assert_eq!(digest_fields(&fields), digest_fields(&reversed));
        let mut tweaked = fields.clone();
        tweaked[0].1 = "hmmer".to_string();
        assert_ne!(digest_fields(&fields), digest_fields(&tweaked));
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = JobSpec {
            app: App::Hmmer,
            variant: Variant::HandMax,
            hw: Hw::BtacFxus(4),
            scale: Scale::ClassC,
            seed: u64::MAX,
        };
        let doc = spec.to_json();
        assert_eq!(JobSpec::from_json(&doc).unwrap(), spec);
    }

    #[test]
    fn replay_reconstructs_lifecycle() {
        let spec = spec();
        let id = spec.id();
        let header = Json::obj()
            .set("rec", Json::Str("header".into()))
            .set("schema", Json::Str(JOURNAL_SCHEMA.into()))
            .set("segment", Json::Num(0.0));
        let sub = Json::obj()
            .set("rec", Json::Str("submitted".into()))
            .set("job", Json::Str(id.clone()))
            .set("spec", spec.to_json());
        let lease = Json::obj()
            .set("rec", Json::Str("lease".into()))
            .set("job", Json::Str(id.clone()))
            .set("worker", Json::Num(3.0))
            .set("hb", Json::Num(7.0));
        let progress = Json::obj()
            .set("rec", Json::Str("progress".into()))
            .set("job", Json::Str(id.clone()))
            .set("insns", Json::Num(20000.0))
            .set("hb", Json::Num(9.0));
        let done =
            Json::obj().set("rec", Json::Str("completed".into())).set("job", Json::Str(id.clone()));
        let text = [&header, &sub, &lease, &progress, &done]
            .iter()
            .map(|d| d.render_compact())
            .collect::<Vec<_>>()
            .join("\n");

        let mid = replay_journal(&text[..text.rfind('\n').unwrap() + 1]).unwrap();
        let job = &mid.jobs[&id];
        assert_eq!(job.status, JobStatus::Leased { worker: 3, hb: 9 });
        assert_eq!(job.insns, 20000);

        let full = replay_journal(&text).unwrap();
        assert_eq!(full.jobs[&id].status, JobStatus::Completed);
        assert_eq!(full.order, vec![id.clone()]);
        assert!(!full.truncated_tail);

        // Torn final line: dropped, flagged, prefix state preserved.
        let torn = format!("{}\n{}", text, &done.render_compact()[..10]);
        let replay = replay_journal(&torn).unwrap();
        assert!(replay.truncated_tail);
        assert_eq!(replay.jobs[&id].status, JobStatus::Completed);

        // Torn line anywhere else is corruption.
        let corrupt =
            format!("{}\n{}\n{}", header.render_compact(), "{oops", done.render_compact());
        assert!(replay_journal(&corrupt).is_err());
    }

    #[test]
    fn replay_rejects_wrong_schema() {
        let text = r#"{"rec":"header","schema":"bioarch-journal/v9","segment":0}"#;
        let err = replay_journal(text).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
        assert!(err.contains("bioarch-journal/v1"), "{err}");
    }

    #[test]
    fn widened_budget_is_deterministic_and_monotone() {
        let d = spec().digest();
        assert_eq!(widened_budget(d, 10_000, 0), 10_000);
        let one = widened_budget(d, 10_000, 1);
        let two = widened_budget(d, 10_000, 2);
        assert!(one >= 15_000, "{one}");
        assert!(two > one, "{two} vs {one}");
        assert_eq!(one, widened_budget(d, 10_000, 1));
    }

    #[test]
    fn submit_dedupes_and_journal_survives_reopen() {
        let dir =
            std::env::temp_dir().join(format!("bioarch-campaign-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let campaign = Campaign::open(CampaignConfig::new(&dir)).unwrap();
        assert_eq!(campaign.submit(spec()).unwrap(), SubmitOutcome::Accepted);
        assert_eq!(campaign.submit(spec()).unwrap(), SubmitOutcome::Duplicate);
        assert_eq!(campaign.job_ids().len(), 1);
        drop(campaign);
        let reopened = Campaign::open(CampaignConfig::new(&dir)).unwrap();
        assert_eq!(reopened.status(&spec().id()), Some(JobStatus::Pending));
        assert_eq!(reopened.submit(spec()).unwrap(), SubmitOutcome::Duplicate);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_state() {
        let dir =
            std::env::temp_dir().join(format!("bioarch-campaign-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = CampaignConfig::new(&dir);
        config.compact_threshold = 3;
        let campaign = Campaign::open(config).unwrap();
        for seed in 0..4u64 {
            let s = JobSpec { seed, ..spec() };
            assert_eq!(campaign.submit(s).unwrap(), SubmitOutcome::Accepted);
        }
        let order = campaign.job_ids();
        drop(campaign);
        let text = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
        let replay = replay_journal(&text).unwrap();
        assert!(replay.segment >= 1, "compaction should bump the segment");
        assert_eq!(replay.order, order, "compaction must preserve submission order");

        // Superseded journals are archived, not deleted: one
        // monotonically numbered segment file per compaction, each a
        // valid journal whose replay is a prefix of the final state.
        let segments = archived_segments(&dir);
        assert_eq!(segments.len() as u64, replay.segment, "one archive per compaction");
        for (i, seg) in segments.iter().enumerate() {
            assert_eq!(
                seg.file_name().unwrap().to_str().unwrap(),
                format!("{:06}.jsonl", i),
                "segment names are monotonically numbered"
            );
            let seg_text = std::fs::read_to_string(seg).unwrap();
            let seg_replay = replay_journal(&seg_text).unwrap();
            assert_eq!(seg_replay.segment, i as u64);
            for id in &seg_replay.order {
                assert!(replay.jobs.contains_key(id), "archived job survives compaction");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_claim_groups_compatible_jobs() {
        let dir =
            std::env::temp_dir().join(format!("bioarch-campaign-batch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = CampaignConfig::new(&dir);
        config.lanes = 3;
        let campaign = Campaign::open(config).unwrap();
        // Interleave two compatibility classes: seeds of the base spec
        // and one job on different hardware in the middle.
        for seed in 0..2u64 {
            campaign.submit(JobSpec { seed, ..spec() }).unwrap();
        }
        campaign.submit(JobSpec { hw: Hw::Btac, ..spec() }).unwrap();
        for seed in 2..4u64 {
            campaign.submit(JobSpec { seed, ..spec() }).unwrap();
        }

        // First batch: the three compatible seeds, skipping the
        // incompatible middle job; submission order preserved.
        let BatchClaim::Jobs(batch) = campaign.claim_batch_for(7, 3) else {
            panic!("expected jobs");
        };
        let seeds: Vec<u64> = batch.iter().map(|j| j.spec.seed).collect();
        assert_eq!(seeds, vec![0, 1, 2]);
        assert!(batch.iter().all(|j| lane_compatible(j.spec, spec())));

        // Next batch: affinity keeps the worker on the same class while
        // one remains, then the other class is picked up.
        let BatchClaim::Jobs(batch2) = campaign.claim_batch_for(7, 3) else {
            panic!("expected jobs");
        };
        assert_eq!(batch2.len(), 1);
        assert_eq!(batch2[0].spec.seed, 3);
        let BatchClaim::Jobs(batch3) = campaign.claim_batch_for(7, 3) else {
            panic!("expected jobs");
        };
        assert_eq!(batch3.len(), 1);
        assert_eq!(batch3[0].spec.hw, Hw::Btac);
        // Everything is leased now.
        assert!(matches!(campaign.claim_batch_for(7, 3), BatchClaim::Busy));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_claims_follow_affinity_when_lanes_enabled() {
        let dir =
            std::env::temp_dir().join(format!("bioarch-campaign-affinity-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = CampaignConfig::new(&dir);
        config.lanes = 2;
        let campaign = Campaign::open(config).unwrap();
        campaign.submit(JobSpec { seed: 0, ..spec() }).unwrap();
        campaign.submit(JobSpec { hw: Hw::Btac, ..spec() }).unwrap();
        campaign.submit(JobSpec { seed: 1, ..spec() }).unwrap();

        // A remote-style worker claiming one job at a time streams the
        // compatible pair back to back, deferring the odd one out.
        let Claim::Job(first) = campaign.claim_for(1) else { panic!("expected job") };
        assert_eq!(first.spec.seed, 0);
        assert_eq!(first.spec.hw, spec().hw);
        let Claim::Job(second) = campaign.claim_for(1) else { panic!("expected job") };
        assert_eq!(second.spec.seed, 1, "affinity should skip the incompatible job");
        let Claim::Job(third) = campaign.claim_for(1) else { panic!("expected job") };
        assert_eq!(third.spec.hw, Hw::Btac);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
