//! In-memory span recorder for the traced run.
//!
//! Spans are taken from outside the program, around calls into its
//! public functions, and kept in memory until the run ends; then they
//! are written out as Chrome trace-event JSON (`chrome://tracing` or
//! Perfetto open it). Spans of one repetition share its id, and each
//! span names the span that caused it.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was timed: a public call or a layer lane.
    pub name: String,
    /// Repetition (or lane batch) the span belongs to.
    pub rep: u64,
    /// Index of the causing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Simulated time reached at the end of the span (0 if not a slice
    /// of the event loop).
    pub sim_ns: u64,
    /// Engine events executed by the end of the span (0 if not a slice).
    pub events: u64,
}

impl Span {
    /// Wall-clock duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// The span as one line of text, as a repetition's process hands
    /// it to the benchmark.
    pub fn line(&self) -> String {
        let parent = self.parent.map_or("-".to_string(), |p| p.to_string());
        format!(
            "{} {parent} {} {} {} {}",
            self.name, self.start_ns, self.end_ns, self.sim_ns, self.events
        )
    }

    /// Reads [`Span::line`] back, shifting its times by `offset` ns and
    /// filing it under repetition `rep`.
    pub fn parse(line: &str, offset: u64, rep: u64) -> Option<Span> {
        let mut f = line.split(' ');
        let name = f.next()?.to_string();
        let parent = match f.next()? {
            "-" => None,
            p => Some(p.parse().ok()?),
        };
        let mut num = || f.next().and_then(|v| v.parse::<u64>().ok());
        Some(Span {
            name,
            rep,
            parent,
            start_ns: num()? + offset,
            end_ns: num()? + offset,
            sim_ns: num()?,
            events: num()?,
        })
    }
}

/// Records spans against one origin instant.
pub struct Tracer {
    origin: Instant,
    rep: u64,
    /// Closed spans, in closing order; open ones hold a placeholder.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for repetition `rep`.
    pub fn new(origin: Instant, rep: u64) -> Tracer {
        Tracer {
            origin,
            rep,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span caused by `parent`; returns its index.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            rep: self.rep,
            parent,
            start_ns: now,
            end_ns: now,
            sim_ns: 0,
            events: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `idx`.
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Closes a slice of the event loop, noting where the engine stood.
    pub fn close_slice(&mut self, idx: usize, sim_ns: u64, events: u64) {
        self.close(idx);
        self.spans[idx].sim_ns = sim_ns;
        self.spans[idx].events = events;
    }

    /// Total seconds of every span called `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }
}

/// Appends one recorder's spans to the run's list, rebasing parent
/// indices onto it.
pub fn append(all: &mut Vec<Span>, spans: Vec<Span>) {
    let base = all.len();
    all.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Renders spans as Chrome trace-event JSON. `rep` becomes the thread
/// id so each repetition reads as its own row.
pub fn chrome_json(spans: &[Span], provenance: &str) -> String {
    let mut out = String::from("{\"otherData\":{");
    out.push_str(provenance);
    out.push_str("},\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"sim_ns\":{},\"events\":{}}}}}",
            s.name,
            s.rep,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.sim_ns,
            s.events,
        );
    }
    out.push_str("]}\n");
    out
}
