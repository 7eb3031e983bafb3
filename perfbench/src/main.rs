//! perfbench — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `workloads.rs`) from a seed for a wall-time
//! budget, checks every report it produces, prints a table and, as the
//! last line of stdout, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` times whole runs and prints the end-to-end metrics;
//! `--trace 1` is a separate run that records spans around each layer's
//! public calls, times the layer lanes, and prints the per-layer
//! metrics. Everything is measured from outside the program: the
//! benchmark calls public functions and reads the public report.
//!
//! A *repetition* compiles and runs one scenario seed in a process of
//! its own (`rep.rs`). `attempted` counts repetitions and `failed`
//! those that crashed, ran past the time bound, broke a report
//! invariant, or produced a canonical report that differs from the
//! first one of the same seed (a sharded repetition: from the
//! single-threaded one). `failed ÷ attempted` is the failed-run ratio.
//! Failed repetitions that still report times stay in the sample.

mod lanes;
mod rep;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};
use std::thread;
use std::time::{Duration, Instant};

use rep::{Mode, Rep, RepError};
use trace::{Span, Tracer};
use workloads::Workload;

/// Share of a traced run's budget spent on the layer lanes.
const LANE_SHARE: f64 = 0.3;
/// Where the traced run writes its spans, relative to the checkout.
const TRACE_DIR: &str = "perfbench/out";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if s >= 1 => seconds = Some(s),
                _ => return Err(format!("bad --seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("bad --trace {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Median of `v` (sorted in place); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile range over median, with quartiles placed as Python's
/// `statistics.quantiles(v, n=4)` places them; 0 below two samples.
fn spread(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    let med = median(&mut s);
    let n = s.len();
    if n < 2 || med == 0.0 {
        return 0.0;
    }
    let q = |i: usize| {
        let m = (n + 1) * i;
        let j = (m / 4).clamp(1, n - 1);
        let delta = (m % 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(3) - q(1)) / med
}

/// A field of `/proc/self/status` in MB (Linux; 0 elsewhere).
pub fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The first line a command prints, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how the numbers were taken.
struct Provenance {
    host_cores: usize,
    commit: String,
    rustc: String,
}

impl Provenance {
    fn probe() -> Provenance {
        // Outside a git checkout there is no commit to name; asking git
        // anyway could name an enclosing repository's.
        let commit = if std::path::Path::new(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"])
        } else {
            "unknown".to_string()
        };
        Provenance {
            host_cores: thread::available_parallelism().map_or(1, usize::from),
            commit,
            rustc: command_line("rustc", &["-V"]),
        }
    }
}

/// Outcome bookkeeping shared by both kinds of run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Set when a repetition overran: the run stops there.
    stop: bool,
}

impl Tally {
    /// Records one repetition of scenario seed `seed`, comparing it
    /// with (or making it) the seed's reference report; returns it when
    /// it produced one.
    fn record(
        &mut self,
        outcome: Result<Rep, RepError>,
        seed: u64,
        reference: &mut Option<String>,
    ) -> Option<Rep> {
        self.attempted += 1;
        let rep = match outcome {
            Ok(rep) => rep,
            Err(e) => {
                self.failed += 1;
                let why = match e {
                    RepError::Crashed(why) => why,
                    RepError::Overran => {
                        self.stop = true;
                        format!("killed at the {} s time bound", rep::REP_BOUND.as_secs())
                    }
                };
                eprintln!("repetition of seed {seed} failed: {why}");
                return None;
            }
        };
        let mismatch = match reference {
            Some(r) => *r != rep.canonical,
            None => {
                *reference = Some(rep.canonical.clone());
                false
            }
        };
        let bad = rep.check.clone().or_else(|| {
            mismatch.then(|| "canonical report differs from its reference".to_string())
        });
        if let Some(why) = bad {
            self.failed += 1;
            eprintln!("repetition of seed {seed}: {why}");
        }
        Some(rep)
    }
}

/// A metric as printed: name, value, unit, in-run spread (if any).
type Metric = (&'static str, f64, &'static str, Option<f64>);

/// One scenario seed's repetitions in a timed run.
struct SeedRuns {
    seed: u64,
    reference: Option<String>,
    reps: Vec<Rep>,
}

/// The timed run: sweeps the workload's scenario seeds round-robin
/// until the budget is spent (at least one full sweep). Each timing is
/// the sum over seeds of the per-seed median; peak memory is the mean
/// over seeds of the per-seed median of each repetition's own peak
/// (it depends on the seed: `vod-crowd`'s title draw decides how many
/// 1 MiB cache chunks stay resident).
fn timed_run(wl: &Workload, args: &Args, tally: &mut Tally) -> (Vec<Metric>, Vec<String>) {
    let mut seeds: Vec<SeedRuns> = wl
        .seeds(args.seed)
        .into_iter()
        .map(|seed| SeedRuns {
            seed,
            reference: None,
            reps: Vec::new(),
        })
        .collect();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut k, n_seeds) = (0usize, seeds.len());
    while !tally.stop && (k < n_seeds || start.elapsed() < budget) {
        let s = &mut seeds[k % n_seeds];
        k += 1;
        let outcome = rep::spawn(wl, s.seed, Mode::Single, false, start, 0);
        if let Some(rep) = tally.record(outcome, s.seed, &mut s.reference) {
            s.reps.push(rep);
        }
    }

    // Spreads are taken over every repetition's value relative to its
    // seed's median.
    let (mut setup_s, mut run_s, mut session_s) = (0.0, 0.0, 0.0);
    let (mut setup_rel, mut run_rel, mut total_rel) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rss, mut rss_rel, mut misses, mut p99s) = (Vec::new(), Vec::new(), 0u64, Vec::new());
    for s in seeds.iter().filter(|s| !s.reps.is_empty()) {
        let ms = med_of(&s.reps, |r| r.setup_s);
        let mr = med_of(&s.reps, |r| r.run_s);
        let mm = med_of(&s.reps, |r| r.peak_rss_mb);
        setup_s += ms;
        run_s += mr;
        rss.push(mm);
        for r in &s.reps {
            setup_rel.push(r.setup_s / ms);
            run_rel.push(r.run_s / mr);
            total_rel.push((r.setup_s + r.run_s) / (ms + mr));
            rss_rel.push(r.peak_rss_mb / mm);
        }
        let r = &s.reps[0];
        session_s += r.n("admitted") * r.n("duration_ns") / 1e9;
        misses += r.count("deadline_misses");
        if r.count("video_latency_n") > 0 {
            p99s.push(r.n("video_latency_p99_ns") / 1e3);
        }
    }
    let metrics = vec![
        ("setup_s", setup_s, "s", Some(spread(&setup_rel))),
        ("run_s", run_s, "s", Some(spread(&run_rel))),
        (
            "session_sim_s_per_s",
            session_s / (setup_s + run_s),
            "session_s/s",
            Some(spread(&total_rel)),
        ),
        (
            "peak_rss_mb",
            rss.iter().sum::<f64>() / rss.len().max(1) as f64,
            "MB",
            Some(spread(&rss_rel)),
        ),
    ];
    let p99 = if p99s.is_empty() {
        "n/a (no displayed video)".to_string()
    } else {
        format!("{} us", median(&mut p99s))
    };
    let notes = vec![
        format!(
            "failed_run_ratio                       {} (failed / attempted)",
            tally.failed as f64 / tally.attempted.max(1) as f64
        ),
        format!(
            "deadline_misses                        {misses} count (simulated, summed over seeds)"
        ),
        format!("video_p99_latency_us                   {p99} (simulated, median over seeds)"),
        format!(
            "repetitions {} over scenario seeds {:?}",
            tally.attempted,
            seeds.iter().map(|s| s.seed).collect::<Vec<_>>()
        ),
    ];
    (metrics, notes)
}

/// Median of one field over repetitions.
fn med_of<'a>(reps: impl IntoIterator<Item = &'a Rep>, f: impl Fn(&Rep) -> f64) -> f64 {
    median(&mut reps.into_iter().map(f).collect::<Vec<_>>())
}

/// The traced run, on the workload's first scenario seed. It cycles
/// untraced and traced repetitions (plus, with a shard probe, sharded
/// ones, whose reports must equal the single-threaded one), then times
/// the layer lanes, writes the spans and derives the per-layer metrics.
fn traced_run(wl: &Workload, args: &Args, tally: &mut Tally, prov: &Provenance) -> Vec<Metric> {
    let seed = wl.seeds(args.seed)[0];
    let origin = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds as f64 * (1.0 - LANE_SHARE));
    let mut cycle = vec![(Mode::Single, false), (Mode::Single, true)];
    let probe = Mode::Sharded(wl.shard_probe);
    if wl.shard_probe > 1 && wl.shard_probe <= prov.host_cores {
        cycle.extend([(probe, false), (probe, true)]);
    } else if wl.shard_probe > 1 {
        // Loud, never silent: the executor metrics read 0 shards run.
        let msg = format!(
            "SKIPPED: {}-shard executor probe needs {} cores; this host has {}",
            wl.shard_probe, wl.shard_probe, prov.host_cores
        );
        println!("{msg}");
        eprintln!("{msg}");
    }
    let mut reference = None;
    let mut reps: Vec<(Mode, bool, Rep)> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut i = 0usize;
    while !tally.stop && (i < cycle.len() || origin.elapsed() < budget) {
        let (mode, traced) = cycle[i % cycle.len()];
        i += 1;
        let outcome = rep::spawn(wl, seed, mode, traced, origin, i as u64);
        if let Some(mut rep) = tally.record(outcome, seed, &mut reference) {
            trace::append(&mut spans, std::mem::take(&mut rep.spans));
            reps.push((mode, traced, rep));
        }
    }
    let pick = |m: Mode, traced: bool| {
        reps.iter()
            .filter(move |r| r.0 == m && r.1 == traced)
            .map(|r| &r.2)
    };
    let Some(r) = pick(Mode::Single, false).next() else {
        return Vec::new();
    };
    let traced = || pick(Mode::Single, true);
    let loop_s = med_of(traced(), |x| x.loop_s);
    let tail_s = med_of(traced(), |x| x.tail_s);
    let run_of = |m, traced| med_of(pick(m, traced), |x| x.run_s);
    let sharded = pick(probe, false).next();
    let executor_overhead_s = match sharded {
        Some(_) => run_of(probe, false) - run_of(Mode::Single, false),
        None => 0.0,
    };

    let pending = reps.iter().map(|r| r.2.pending).max().unwrap_or(0);
    let mut tr = Tracer::new(origin, 0);
    let slice = Duration::from_secs_f64(args.seconds as f64 * LANE_SHARE / 7.0);
    let lane = lanes::measure(&mut tr, &wl.spec_for(seed), pending as usize, slice);
    trace::append(&mut spans, tr.spans);
    write_trace(wl, args, &spans, prov);

    let events = r.n("events");
    let cells = r.n("cells_sent");
    let loop_ns = loop_s * 1e9;
    let run_ns = (loop_s + tail_s) * 1e9;
    let share = |ns: f64, over: f64| if over > 0.0 { ns / over } else { 0.0 };
    let ex = |name: &str| sharded.map_or(0.0, |x| x.n(name));
    vec![
        ("sim.events", events, "count", None),
        ("sim.events_per_s", share(events, loop_s), "1/s", None),
        ("sim.ns_per_event", share(loop_ns, events), "ns", None),
        ("sim.schedule_step_ns", lane.schedule_step_ns, "ns", None),
        (
            "sim.engine_share",
            share(events * lane.schedule_step_ns, loop_ns),
            "ratio",
            None,
        ),
        ("atm.cells_sent", cells, "count", None),
        (
            "atm.cells_delivered_ratio",
            share(r.n("cells_delivered"), cells),
            "ratio",
            None,
        ),
        (
            "atm.peak_queue_cells",
            r.n("peak_queue_cells"),
            "count",
            None,
        ),
        ("atm.ns_per_cell", share(loop_ns, cells), "ns", None),
        ("atm.segment_frame_ns", lane.segment_frame_ns, "ns", None),
        (
            "atm.segment_share",
            share(
                share(cells, lane.cells_per_frame) * lane.segment_frame_ns,
                loop_ns,
            ),
            "ratio",
            None,
        ),
        (
            "atm.push_frame_ns_per_cell",
            lane.push_frame_ns_per_cell,
            "ns",
            None,
        ),
        (
            "atm.reassembly_share",
            share(cells * lane.push_frame_ns_per_cell, loop_ns),
            "ratio",
            None,
        ),
        ("atm.credit_stalls", r.n("credit_stalls"), "count", None),
        ("atm.frames_skipped", r.n("frames_skipped"), "count", None),
        (
            "atm.queue_bound_cells",
            r.n("queue_bound_cells"),
            "count",
            None,
        ),
        ("devices.tiles_blitted", r.n("tiles_blitted"), "count", None),
        ("devices.encode_tile_ns", lane.encode_tile_ns, "ns", None),
        ("devices.render_frame_ns", lane.render_frame_ns, "ns", None),
        (
            "devices.encode_share",
            share(r.n("tiles_blitted") * lane.encode_tile_ns, loop_ns),
            "ratio",
            None,
        ),
        ("streams.vod_presented", r.n("vod_presented"), "count", None),
        ("streams.playback_late", r.n("playback_late"), "count", None),
        (
            "streams.audio_underruns",
            r.n("audio_underruns"),
            "count",
            None,
        ),
        (
            "streams.deadline_misses",
            r.n("deadline_misses"),
            "count",
            None,
        ),
        ("pfs.periods", r.n("pfs_periods"), "count", None),
        ("pfs.missed", r.n("pfs_missed"), "count", None),
        (
            "pfs.bytes_delivered",
            r.n("pfs_bytes_delivered"),
            "bytes",
            None,
        ),
        ("pfs.cache.hot_milli", r.n("cache_hot_milli"), "milli", None),
        (
            "pfs.cache.warm_milli",
            r.n("cache_warm_milli"),
            "milli",
            None,
        ),
        (
            "pfs.cache.cold_milli",
            r.n("cache_cold_milli"),
            "milli",
            None,
        ),
        (
            "pfs.cache.disk_io_saved_cells",
            r.n("cache_disk_io_saved_cells"),
            "count",
            None,
        ),
        (
            "pfs.cache.fresh_allocs",
            r.n("cache_fresh_allocs"),
            "count",
            None,
        ),
        ("pfs.cm_period_ns", lane.cm_period_ns, "ns", None),
        (
            "pfs.cm_share",
            share(r.n("pfs_periods") * lane.cm_period_ns, run_ns),
            "ratio",
            None,
        ),
        ("nemesis.epochs", r.n("nemesis_epochs"), "count", None),
        (
            "nemesis.starved_epochs",
            r.n("nemesis_starved_epochs"),
            "count",
            None,
        ),
        ("nemesis.epoch_driver_ns", lane.epoch_driver_ns, "ns", None),
        (
            "nemesis.share",
            share(r.n("nemesis_epochs") * lane.epoch_driver_ns, run_ns),
            "ratio",
            None,
        ),
        ("core.broker.admitted", r.n("admitted"), "count", None),
        ("core.broker.rejected", r.n("rejected"), "count", None),
        (
            "core.congestion.renegotiations_down",
            r.n("renegotiations_down"),
            "count",
            None,
        ),
        (
            "core.congestion.renegotiations_up",
            r.n("renegotiations_up"),
            "count",
            None,
        ),
        (
            "scenario.compile_s",
            med_of(traced(), |x| x.setup_s),
            "s",
            None,
        ),
        ("scenario.loop_s", loop_s, "s", None),
        ("scenario.collect_s", tail_s, "s", None),
        (
            "scenario.report_s",
            med_of(traced(), |x| x.report_s),
            "s",
            None,
        ),
        (
            "scenario.rss_after_compile_mb",
            r.rss_after_compile_mb,
            "MB",
            None,
        ),
        (
            "scenario.trace_overhead_s",
            run_of(Mode::Single, true) - run_of(Mode::Single, false),
            "s",
            None,
        ),
        ("executor.shards_run", ex("shards_run"), "count", None),
        ("executor.barrier_waits", ex("barrier_waits"), "count", None),
        ("executor.cells_crossed", ex("cells_crossed"), "count", None),
        (
            "executor.cells_per_barrier",
            share(ex("cells_crossed"), ex("barrier_waits")),
            "ratio",
            None,
        ),
        ("executor.overhead_s", executor_overhead_s, "s", None),
    ]
}

/// Writes the traced run's spans to [`TRACE_DIR`].
fn write_trace(wl: &Workload, args: &Args, spans: &[Span], prov: &Provenance) {
    let path = format!("{TRACE_DIR}/trace-{}-seed{}.json", wl.name, args.seed);
    let meta = format!(
        "\"workload\":\"{}\",\"seed\":{},\"host_cores\":{},\"commit\":\"{}\",\"rustc\":\"{}\"",
        wl.name, args.seed, prov.host_cores, prov.commit, prov.rustc
    );
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, trace::chrome_json(spans, &meta)));
    match written {
        Ok(()) => println!("trace: {} spans in {path}", spans.len()),
        Err(e) => eprintln!("trace: cannot write {path}: {e}"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--repetition") {
        return match rep::child(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("workloads: {}", names.join(", "));
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    let prov = Provenance::probe();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        wl.name, args.seed, args.seconds, args.trace as u8
    );
    println!("why: {}", wl.why);
    println!(
        "provenance host_cores={} commit={} rustc=\"{}\"",
        prov.host_cores, prov.commit, prov.rustc
    );

    let mut tally = Tally::default();
    let (metrics, notes) = if args.trace {
        (traced_run(wl, &args, &mut tally, &prov), Vec::new())
    } else {
        timed_run(wl, &args, &mut tally)
    };
    for (name, value, unit, spread) in &metrics {
        let spread = spread.map_or(String::new(), |s| format!("  iqr/median {s:.4}"));
        println!("{name:<38} {value:>18.6} {unit}{spread}");
    }
    for note in &notes {
        println!("{note}");
    }
    let correct = tally.attempted > 0 && tally.failed == 0 && !metrics.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _)| {
            // Non-finite values have no JSON form; -0 prints as 0.
            let v = if value.is_finite() { *value + 0.0 } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(",")
    );
    ExitCode::SUCCESS
}
