//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Spans stay in memory while the workload runs and are written
//! out as JSONL when it ends; a disabled tracer calls straight through
//! without reading the clock.

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One finished span: a named interval and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Span recorder. Spans nest by call order on the recording thread;
/// the benchmark records from one thread only.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), state: Mutex::new(State::default()) }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("span recorder poisoned by a panicking workload")
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let id = {
            let mut st = self.state();
            let parent = st.open.last().copied();
            st.spans.push(Span { name: name.into(), parent, start_ns, end_ns: start_ns });
            let id = st.spans.len() - 1;
            st.open.push(id);
            id
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut st = self.state();
        st.spans[id].end_ns = end_ns;
        st.open.pop();
        out
    }

    /// Summed duration in seconds of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.state().spans.iter().filter(|s| s.name == name).map(Span::secs).sum()
    }

    pub fn len(&self) -> usize {
        self.state().spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.state().spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
