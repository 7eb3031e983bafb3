//! One repetition: compile and run one scenario seed in a process of
//! its own, as the `pegasus-scenario` CLI does.
//!
//! The benchmark re-executes itself with `--repetition`; the child
//! runs the scenario, checks its report, and prints what it measured
//! as `key value…` lines, ending with the canonical report. A process
//! per repetition gives each one its own peak memory (compiled scenarios
//! do not all hand their memory back when dropped, so repetitions in
//! one process would add up), isolates panics, and lets a repetition
//! that overruns [`REP_BOUND`] be killed and waited for.

use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use pegasus_scenario::report::SCHEMA_VERSION;
use pegasus_scenario::{compile, compile_for, run_sharded, ExecPlan, ScenarioReport, ScenarioSpec};
use pegasus_sim::time::MS;

use crate::trace::{Span, Tracer};
use crate::workloads::{self, Workload};

/// A repetition still running after this long has hung or regressed
/// beyond measuring: it is killed, counts as failed, and ends the run.
pub const REP_BOUND: Duration = Duration::from_secs(60);
/// Simulated-time step of the event-loop slices in a traced repetition.
const SLICE_STEP: u64 = 10 * MS;

/// How a repetition runs its scenario.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Mode {
    /// `compile`, then `Scenario::run`.
    Single,
    /// Shard replicas compiled with `compile_for` (set-up), then
    /// `run_sharded` at this many shards.
    Sharded(usize),
}

impl Mode {
    pub fn shards(self) -> usize {
        match self {
            Mode::Single => 1,
            Mode::Sharded(n) => n,
        }
    }
}

/// Report counts a repetition hands to its parent, by name.
type CountFn = fn(&ScenarioReport) -> u64;
const COUNTS: &[(&str, CountFn)] = &[
    ("admitted", |r| r.broker.admitted + r.broker.degraded),
    ("rejected", |r| r.broker.rejected),
    ("duration_ns", |r| r.duration),
    ("events", |r| r.events_executed),
    ("cells_sent", |r| r.cells.sent),
    ("cells_delivered", |r| r.cells.delivered),
    ("peak_queue_cells", |r| r.peak_queue_cells),
    ("credit_stalls", |r| {
        let s = r.backpressure.credit_stalls;
        s.0 + s.1 + s.2
    }),
    ("frames_skipped", |r| r.backpressure.frames_skipped),
    ("queue_bound_cells", |r| r.backpressure.queue_bound_cells),
    ("renegotiations_down", |r| {
        r.backpressure.renegotiations_down
    }),
    ("renegotiations_up", |r| r.backpressure.renegotiations_up),
    ("tiles_blitted", |r| r.tiles_blitted),
    ("vod_presented", |r| r.vod_presented),
    ("playback_late", |r| r.playback_late),
    ("audio_underruns", |r| r.audio_underruns),
    ("deadline_misses", |r| r.deadline_misses),
    ("video_latency_n", |r| r.video.latency.n),
    ("video_latency_p99_ns", |r| r.video.latency.p99),
    ("pfs_periods", |r| r.pfs.periods),
    ("pfs_missed", |r| r.pfs.missed),
    ("pfs_bytes_delivered", |r| r.pfs.bytes_delivered),
    ("cache_hot_milli", |r| r.cache.hot_milli),
    ("cache_warm_milli", |r| r.cache.warm_milli),
    ("cache_cold_milli", |r| r.cache.cold_milli),
    ("cache_disk_io_saved_cells", |r| r.cache.disk_io_saved_cells),
    ("cache_fresh_allocs", |r| r.cache.fresh_allocs),
    ("nemesis_epochs", |r| r.nemesis.epochs),
    ("nemesis_starved_epochs", |r| r.nemesis.starved_epochs),
    ("shards_run", |r| r.shards.len() as u64),
    ("barrier_waits", |r| {
        r.shards.iter().map(|s| s.barrier_waits).max().unwrap_or(0)
    }),
    ("cells_crossed", |r| {
        r.shards.iter().map(|s| s.cells_exported).sum()
    }),
];

/// What one repetition measured, as the parent reads it.
#[derive(Default)]
pub struct Rep {
    /// `compile` (sharded: every replica's `compile_for`), seconds.
    pub setup_s: f64,
    /// First event to canonical report in hand, seconds.
    pub run_s: f64,
    /// Traced only: the event loop's span (on a workload with control
    /// marks, the whole of `Scenario::run`), the `Scenario::run` tail
    /// after the loop, and `to_json_canonical`.
    pub loop_s: f64,
    pub tail_s: f64,
    pub report_s: f64,
    /// Resident memory right after set-up, MB.
    pub rss_after_compile_mb: f64,
    /// Peak resident memory of the repetition's process, MB.
    pub peak_rss_mb: f64,
    /// Events queued in the freshly compiled engine.
    pub pending: u64,
    counts: BTreeMap<String, u64>,
    /// Why the report failed its invariants, if it did.
    pub check: Option<String>,
    pub canonical: String,
    pub spans: Vec<Span>,
}

impl Rep {
    /// A named report count (see [`COUNTS`]).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// A named report count as a float.
    pub fn n(&self, name: &str) -> f64 {
        self.count(name) as f64
    }
}

/// Why a repetition produced nothing to compare.
pub enum RepError {
    /// The process failed: a panic, or output that does not parse.
    Crashed(String),
    /// Killed at [`REP_BOUND`].
    Overran,
}

/// Runs one repetition in a child process and waits for it, killing it
/// at [`REP_BOUND`]. Span times are rebased onto `origin`.
pub fn spawn(
    wl: &Workload,
    seed: u64,
    mode: Mode,
    traced: bool,
    origin: Instant,
    rep_id: u64,
) -> Result<Rep, RepError> {
    let exe = std::env::current_exe().map_err(|e| RepError::Crashed(e.to_string()))?;
    let started = Instant::now();
    let mut child = Command::new(exe)
        .args(["--repetition", wl.name])
        .arg(seed.to_string())
        .arg(mode.shards().to_string())
        .arg(if traced { "1" } else { "0" })
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| RepError::Crashed(format!("spawn: {e}")))?;
    // The child's stdout closes when it exits; reading it to the end
    // is the wait, bounded by the time bound.
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let (done, output) = mpsc::channel();
    let reader = thread::spawn(move || {
        let mut out = String::new();
        let _ = done.send(stdout.read_to_string(&mut out).map(|_| out));
    });
    let out = match output.recv_timeout(REP_BOUND.saturating_sub(started.elapsed())) {
        Ok(out) => out.unwrap_or_default(),
        Err(_) => {
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err(RepError::Overran);
        }
    };
    let _ = reader.join();
    let status = child
        .wait()
        .map_err(|e| RepError::Crashed(format!("wait: {e}")))?;
    if !status.success() {
        return Err(RepError::Crashed(format!("exited with {status}")));
    }
    let offset = (started - origin).as_nanos() as u64;
    parse(&out, offset, rep_id).ok_or_else(|| RepError::Crashed("unreadable output".into()))
}

/// Reads a child's output back into a [`Rep`].
fn parse(out: &str, offset: u64, rep_id: u64) -> Option<Rep> {
    let mut rep = Rep::default();
    let mut complete = false;
    for line in out.lines() {
        if let Some(json) = line.strip_prefix("canonical ") {
            rep.canonical = format!("{json}\n");
            complete = true;
            continue;
        }
        let mut f = line.split(' ');
        let key = f.next()?;
        let mut num = || f.next().and_then(|v| v.parse::<f64>().ok());
        match key {
            "time" => {
                rep.setup_s = num()?;
                rep.run_s = num()?;
                rep.loop_s = num()?;
                rep.tail_s = num()?;
                rep.report_s = num()?;
            }
            "mem" => {
                rep.rss_after_compile_mb = num()?;
                rep.peak_rss_mb = num()?;
                rep.pending = num()? as u64;
            }
            "count" => {
                let name = f.next()?.to_string();
                rep.counts.insert(name, f.next()?.parse().ok()?);
            }
            "check" => rep.check = Some(line["check ".len()..].to_string()),
            "span" => rep
                .spans
                .push(Span::parse(&line["span ".len()..], offset, rep_id)?),
            _ => {}
        }
    }
    complete.then_some(rep)
}

/// The child side: `--repetition <workload> <seed> <shards> <traced>`.
/// Runs the repetition and prints it for the parent.
pub fn child(args: &[String]) -> Result<(), String> {
    let [name, seed, shards, traced] = args else {
        return Err("--repetition takes <workload> <seed> <shards> <0|1>".into());
    };
    let wl = workloads::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed}"))?;
    let mode = match shards.parse::<usize>() {
        Ok(1) => Mode::Single,
        Ok(n) if n > 1 => Mode::Sharded(n),
        _ => return Err(format!("bad shard count {shards}")),
    };
    let spec = wl.spec_for(seed);
    let tracer = (traced == "1").then(|| Tracer::new(Instant::now(), 0));
    let (rep, report) = repetition(&spec, mode, tracer);
    let mut out = String::new();
    out.push_str(&format!(
        "time {} {} {} {} {}\n",
        rep.setup_s, rep.run_s, rep.loop_s, rep.tail_s, rep.report_s
    ));
    out.push_str(&format!(
        "mem {} {} {}\n",
        rep.rss_after_compile_mb,
        crate::proc_status_mb("VmHWM:"),
        rep.pending
    ));
    for (name, f) in COUNTS {
        out.push_str(&format!("count {name} {}\n", f(&report)));
    }
    if let Err(why) = check_report(&spec, &report, mode.shards()) {
        out.push_str(&format!("check {why}\n"));
    }
    for s in &rep.spans {
        out.push_str(&format!("span {}\n", s.line()));
    }
    out.push_str("canonical ");
    out.push_str(&rep.canonical);
    print!("{out}");
    Ok(())
}

/// One repetition of `spec` in this process. With a tracer, spans cover
/// `compile`, `run_until` slices of the event loop at [`SLICE_STEP`],
/// the `Scenario::run` tail, `to_json_canonical` and `run_sharded`.
fn repetition(spec: &ScenarioSpec, mode: Mode, mut tr: Option<Tracer>) -> (Rep, ScenarioReport) {
    let open = |tr: &mut Option<Tracer>, name, parent| tr.as_mut().map(|t| t.open(name, parent));
    let close = |tr: &mut Option<Tracer>, span: Option<usize>| {
        if let (Some(t), Some(s)) = (tr.as_mut(), span) {
            t.close(s);
        }
    };
    let root = open(&mut tr, "repetition", None);
    let t0 = Instant::now();
    let (report, pending, t1, rss_after_compile_mb) = match mode {
        Mode::Single => {
            let span = open(&mut tr, "compile", root);
            let mut sc = compile(spec);
            close(&mut tr, span);
            let t1 = Instant::now();
            let rss = crate::proc_status_mb("VmRSS:");
            let pending = sc.sim.pending() as u64;
            let report = match tr.as_mut() {
                Some(t) if !Workload::has_control_marks(spec) => {
                    let lp = t.open("event_loop", root);
                    let end = sc.end_time();
                    let mut at = SLICE_STEP.min(end);
                    loop {
                        let s = t.open("run_until", Some(lp));
                        sc.sim.run_until(at);
                        t.close_slice(s, at, sc.sim.events_executed());
                        if at == end {
                            break;
                        }
                        at = (at + SLICE_STEP).min(end);
                    }
                    t.close(lp);
                    let tail = t.open("run_tail", root);
                    let report = sc.run();
                    t.close(tail);
                    report
                }
                Some(t) => {
                    // Control marks are private to the scenario crate,
                    // so the loop and its tail are one span here.
                    let s = t.open("scenario_run", root);
                    let report = sc.run();
                    t.close(s);
                    report
                }
                None => sc.run(),
            };
            (report, pending, t1, rss)
        }
        Mode::Sharded(shards) => {
            let plan = ExecPlan::partition(spec, shards);
            let span = open(&mut tr, "compile_for", root);
            for i in 0..plan.shards {
                drop(compile_for(spec, plan.shard_plan(i)));
            }
            close(&mut tr, span);
            let t1 = Instant::now();
            let rss = crate::proc_status_mb("VmRSS:");
            let span = open(&mut tr, "run_sharded", root);
            let report = run_sharded(spec, shards);
            close(&mut tr, span);
            (report, 0, t1, rss)
        }
    };
    let span = open(&mut tr, "to_json_canonical", root);
    let canonical = report.to_json_canonical();
    close(&mut tr, span);
    let t2 = Instant::now();
    close(&mut tr, root);
    let total = |name: &str| tr.as_ref().map_or(0.0, |t| t.total_secs(name));
    let rep = Rep {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        loop_s: total("event_loop") + total("scenario_run"),
        tail_s: total("run_tail"),
        report_s: total("to_json_canonical"),
        rss_after_compile_mb,
        pending,
        canonical,
        spans: tr.map(|t| t.spans).unwrap_or_default(),
        ..Rep::default()
    };
    (rep, report)
}

/// Invariants every report must hold, beyond matching its reference.
fn check_report(spec: &ScenarioSpec, r: &ScenarioReport, shards: usize) -> Result<(), String> {
    let sessions = r.sessions.0 + r.sessions.1 + r.sessions.2;
    let decided = r.broker.admitted + r.broker.degraded + r.broker.rejected;
    let shard_events: u64 = r.shards.iter().map(|s| s.events).sum();
    let plan = ExecPlan::partition(spec, shards);
    let checks = [
        (r.schema_version == SCHEMA_VERSION, "schema version"),
        (r.name == spec.name && r.seed == spec.seed, "name and seed"),
        (sessions == spec.sessions as u64, "session count"),
        (decided == sessions, "every session decided by the broker"),
        (r.events_executed > 0, "engine executed events"),
        (shard_events == r.events_executed, "shard events sum"),
        (r.shards.len() == plan.shards, "one slice per shard"),
        (r.cells.delivered <= r.cells.sent, "deliveries within sends"),
        (r.deadline_misses == r.total_misses(), "deadline-miss sum"),
    ];
    match checks.iter().find(|(ok, _)| !ok) {
        Some((_, what)) => Err(format!("report check failed: {what}")),
        None => Ok(()),
    }
}
