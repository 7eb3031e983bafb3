//! Compiling a [`ScenarioSpec`] into a wired system and running it.
//!
//! The builder assembles a [`System`] piecewise — fabric from the
//! topology spec, then per-session devices attached directly to fabric
//! switches — schedules every session's start/stop on the engine and
//! applies the fault schedule. [`Scenario::run`] drives it to the drain
//! deadline through the epoch driver (`crate::executor`) and folds every
//! layer's statistics into a [`ScenarioReport`].
//!
//! Every session is admitted through the cross-layer QoS broker
//! ([`pegasus::broker::QosBroker`]): its requested resource vector —
//! CPU share, guaranteed video bandwidth (both scaled by the mix's
//! `load` factor) and a file-server stream slot for VoD — is checked
//! against the Nemesis CPU ledger, every ATM hop, and the per-server
//! slot ledgers. Admitted sessions run at full quality; degraded ones
//! at the broker's rung (halved bitrate, frame rate, codec quality and
//! CPU by default); rejected ones are not wired at all. The per-session
//! [`SessionContract`]s, outcome counts and capacity-headroom samples
//! land in the report's `broker` section.
//!
//! Everything stochastic (placement, start times, scenes) draws from
//! one RNG seeded by the spec, so a report is a pure function of
//! `(spec, seed)` — the property the CI determinism gate enforces.
//! Admission is part of that function: which sessions are admitted,
//! degraded or rejected is byte-for-byte reproducible.

use std::cell::RefCell;
use std::rc::Rc;

use pegasus::broker::{
    FlowRequest, Outcome, QosBroker, RejectLayer, ResourceVector, SessionClass, SessionGrant,
    SessionRequest,
};
use pegasus::congestion::{EpochSignal, Verdict};
use pegasus::system::{HostNic, System, SystemBuilder};
use pegasus_atm::cell::{Cell, Vci, CELL_SIZE};
use pegasus_atm::credit::{CreditExportBuf, CreditRef, CreditSink, CreditWindow};
use pegasus_atm::link::{CellSink, SinkRef};
use pegasus_atm::network::{EndpointId, LinkConfig, Network, SwitchId, VcHandle};
use pegasus_atm::signalling::QosSpec;
use pegasus_devices::audio::{AudioConfig, AudioSink, AudioSource};
use pegasus_devices::camera::{Camera, CameraConfig, VideoMode};
use pegasus_devices::display::{Display, Rect, WindowManager};
use pegasus_devices::tile::TileFrame;
use pegasus_devices::video::Scene;
use pegasus_nemesis::faults::{EpochDriver, Fault, FaultSchedule};
use pegasus_nemesis::qosmgr::QosManager;
use pegasus_pfs::cm::CmScheduler;
use pegasus_pfs::disk::DiskConfig;
use pegasus_pfs::log::{FileClass, FileId, LogFs, SEGMENT_BYTES};
use pegasus_pfs::tier::{TierConfig, TieredCache};
use pegasus_sim::rng::{exponential, seeded};
use pegasus_sim::stats::Histogram;
use pegasus_sim::time::{tx_time, Ns, MS, SEC};
use pegasus_sim::Simulator;
use pegasus_streams::playback::{ArrivalSink, PlaybackControl, PlaybackPolicy, StreamId};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::executor::drive;
use crate::partition::ShardPlan;
use crate::report::{
    BrokerReport, CacheReport, ClassReport, NemesisReport, PfsReport, ScenarioReport, ShardSlice,
    SCHEMA_VERSION,
};
use crate::spec::{Arrival, FaultSpec, ScenarioSpec};

/// Bandwidth reserved for a videophone session's audio flow, never
/// degraded: a call with unintelligible audio is a failed call.
const AUDIO_BPS: u64 = 128_000;

/// CM service period for VoD disk scheduling. A small read still costs
/// a whole RAID stripe (~51 ms on the 1994 array), so the period is
/// sized to amortize one stripe per stream; a server meets its
/// deadlines while `streams × stripe_time < period`.
const VOD_PERIOD: Ns = 500 * MS;

/// CM periods replayed for a run of `duration`.
fn vod_periods(duration: Ns) -> u64 {
    (duration / VOD_PERIOD).max(1)
}

/// One VoD file server: a log file system with pre-recorded
/// continuous-media titles, a rate-guaranteed scheduler over it, and —
/// when the spec enables it — a tiered content cache in front of the
/// log store.
struct VodServer {
    fs: LogFs,
    cm: CmScheduler,
    /// Pre-recorded titles; sessions pick one (title 0 when the spec
    /// records a single title, the classic world).
    files: Vec<FileId>,
    cache: Option<TieredCache>,
}

/// One VoD client's playback side: the controller and its stream id.
type VodClient = (Rc<RefCell<PlaybackControl>>, StreamId);

/// A discard endpoint: the blast's sink (its credits already returned
/// by the [`CreditSink`] wrapped around it), and the stand-in for a
/// consumer another shard owns.
struct NullSink;

impl NullSink {
    fn shared() -> Rc<RefCell<NullSink>> {
        Rc::new(RefCell::new(NullSink))
    }
}

impl CellSink for NullSink {
    fn deliver(&mut self, _sim: &mut Simulator, _cell: Cell) {}

    /// Reads no clocks: trains may collapse to one delivery event.
    fn batch_capable(&self) -> bool {
        true
    }
}

/// One live session's running state, kept for the whole run: the
/// broker's grant (whose `vcs` the congestion loop resizes in place),
/// the producer to retune after a renegotiation, and the media
/// circuit's credit window. Also the set signalling walks when a switch
/// dies — `stranded[i]` marks circuits repair gave up on, so no later
/// renegotiation touches their released reservations.
struct SessionBook {
    grant: SessionGrant,
    class: SessionClass,
    /// The media producer (camera, or the VoD paced pusher).
    camera: Option<Rc<RefCell<Camera>>>,
    /// The media circuit's credit window, when backpressure is on.
    credit: Option<CreditRef>,
    /// Parallel to `grant.vcs`: circuit `i` was stranded by a switch
    /// death (reservations already released — never resize it again).
    stranded: Vec<bool>,
}

/// One session's admission record: what it asked for, what the broker
/// granted, and the verdict. The property tests hold the broker to
/// these (ledgers never exceeded, renegotiation only lowers, outcomes
/// a pure function of `(spec, seed)`).
#[derive(Debug, Clone, Copy)]
pub struct SessionContract {
    /// The session's class.
    pub class: SessionClass,
    /// The broker's verdict.
    pub outcome: Outcome,
    /// Requested resource vector (at the mix's load factor).
    pub requested: ResourceVector,
    /// Granted vector (all zeros when rejected).
    pub granted: ResourceVector,
}

/// Outcome counts, per-class quality sums and capacity-headroom samples
/// accumulated while sessions are admitted, folded into
/// [`BrokerReport`] at report time.
#[derive(Default)]
struct BrokerTally {
    /// Outcome counts; the rest is filled in by `into_report`.
    counts: BrokerReport,
    quality_sum: [u64; 3],
    quality_n: [u64; 3],
    headroom_cpu: Histogram,
    headroom_bw: Histogram,
    headroom_pfs: Histogram,
}

impl BrokerTally {
    /// Records one decision and samples every layer's headroom — the
    /// "capacity headroom over time" series of the report.
    fn record(
        &mut self,
        grant: &SessionGrant,
        class: SessionClass,
        net: &Network,
        broker: &QosBroker,
    ) {
        let c = &mut self.counts;
        match grant.outcome {
            Outcome::Admitted => c.admitted += 1,
            Outcome::Degraded => c.degraded += 1,
            Outcome::Rejected(layer) => {
                c.rejected += 1;
                match layer {
                    RejectLayer::Cpu => c.rejected_cpu += 1,
                    RejectLayer::Bandwidth => c.rejected_bandwidth += 1,
                    RejectLayer::PfsSlots => c.rejected_pfs += 1,
                }
            }
        }
        let idx = match class {
            SessionClass::Videophone => 0,
            SessionClass::Vod => 1,
            SessionClass::Tv => 2,
        };
        self.quality_sum[idx] += grant.quality_milli;
        self.quality_n[idx] += 1;
        self.headroom_cpu.record(broker.cpu_headroom_micro());
        let bw = (net.reservable_fraction - net.max_reservation_utilization()) * 1000.0;
        self.headroom_bw.record(bw.max(0.0).floor() as u64);
        self.headroom_pfs.record(broker.pfs_headroom_slots());
    }

    fn quality(&self, idx: usize) -> u64 {
        // A class with no sessions degraded nothing: full quality.
        self.quality_sum[idx]
            .checked_div(self.quality_n[idx])
            .unwrap_or(1000)
    }

    fn into_report(mut self) -> BrokerReport {
        BrokerReport {
            quality_milli: (self.quality(0), self.quality(1), self.quality(2)),
            headroom_cpu: self.headroom_cpu.summarize(),
            headroom_bandwidth: self.headroom_bw.summarize(),
            headroom_pfs: self.headroom_pfs.summarize(),
            ..self.counts
        }
    }
}

/// A compiled scenario, ready to run.
pub struct Scenario {
    spec: ScenarioSpec,
    /// The shard this compilation materialized: which switches it owns,
    /// how many peers it has, whether it is the coordinator. The
    /// classic path compiles under [`ShardPlan::single`].
    plan: ShardPlan,
    /// The assembled installation.
    pub sys: System,
    /// The engine that will drive it.
    pub sim: Simulator,
    /// Per-class session counts (videophone, vod, tv) — requested, not
    /// admitted; the broker section of the report gives the outcomes.
    pub counts: (usize, usize, usize),
    /// The QoS broker holding the run's capacity ledgers.
    pub broker: QosBroker,
    /// One contract per requested session, in setup order.
    pub contracts: Vec<SessionContract>,
    tally: BrokerTally,
    /// Owned displays, each flagged whether it shows a single stream
    /// (one videophone session) rather than a TV control room merging a
    /// whole group's feeds.
    displays: Vec<(Rc<RefCell<Display>>, bool)>,
    audio_sinks: Vec<Rc<RefCell<AudioSink>>>,
    vod_clients: Vec<VodClient>,
    vod_servers: Vec<VodServer>,
    /// One book entry per admitted session: the grant (held live so the
    /// congestion loop can renegotiate it), the producer, the credit
    /// window, and the circuits signalling repairs after a switch death.
    books: Vec<SessionBook>,
    /// Best-effort blast circuits (congestion sources), with their own
    /// credit windows: pressure by construction, never overflow. Every
    /// shard carries an entry per blast (the route is replicated state
    /// switch-death repair walks); the window is `Some` only on the
    /// shard owning the pump. The bool marks a blast stranded by a
    /// switch death.
    blasts: Vec<(VcHandle, Option<CreditRef>, bool)>,
    /// Outbound credit-return records, one buffer per *producer* shard:
    /// a consumer-side [`CreditSink`] in export mode appends here, and
    /// the executor seals the records into its post to that shard at
    /// the next epoch boundary. Empty buffers (and the one
    /// unused buffer on the classic path) cost nothing.
    pub(crate) credit_out: Vec<CreditExportBuf>,
    /// Registry of credit windows whose producer this shard owns,
    /// keyed by delivery VCI and sorted for binary search — the lookup
    /// table for applying sealed credit returns and remote reclaims.
    credit_windows: Vec<(Vci, CreditRef)>,
}

/// Everything one shard measured, in `Send` form — plain counters,
/// histograms and report fragments, no `Rc`: the shard's slice of the
/// report, plus each class's raw latency and jitter histograms (video,
/// audio, VoD), which must merge before they summarize. [`assemble`]
/// folds a vector of these into the final [`ScenarioReport`]. Only the
/// coordinator's slice (shard 0) carries the sections that are either
/// identical on every shard by replication (broker ledgers, topology
/// counts) or need state only it materializes (the PFS CM replay) or
/// replays (the Nemesis epoch schedule).
pub struct ShardOutcome {
    report: ScenarioReport,
    hists: [(Histogram, Histogram); 3],
}

/// The camera settings a session runs at after renegotiation: frame
/// rate and Motion-JPEG quality scale with the granted rung (floored,
/// never below 1), so a degraded session offers the network less load
/// — the whole point of renegotiating down instead of dropping cells.
fn camera_for(cfg: CameraConfig, quality_milli: u64) -> CameraConfig {
    if quality_milli >= 1000 {
        return cfg;
    }
    let mut degraded = cfg;
    degraded.fps = ((cfg.fps as u64 * quality_milli / 1000).max(1)) as u32;
    if let VideoMode::Mjpeg(q) = cfg.mode {
        degraded.mode = VideoMode::Mjpeg(((q as u64 * quality_milli / 1000).max(1)) as u8);
    }
    degraded
}

/// Draws a title index from a Zipf law over `titles` titles with
/// exponent `alpha_milli / 1000` — title 0 the most popular. α = 0
/// degenerates to uniform. Only called when a spec records more than
/// one title, so single-title specs keep their RNG streams untouched.
fn zipf_pick(rng: &mut SmallRng, titles: usize, alpha_milli: u64) -> usize {
    let alpha = alpha_milli as f64 / 1000.0;
    let weights: Vec<f64> = (0..titles)
        .map(|k| 1.0 / ((k + 1) as f64).powf(alpha))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen_range(0.0..1.0) * total;
    for (k, w) in weights.iter().enumerate() {
        if u < *w {
            return k;
        }
        u -= *w;
    }
    titles - 1
}

fn pick_scene(rng: &mut SmallRng) -> Scene {
    if rng.gen_range(0..2u32) == 0 {
        Scene::MovingGradient
    } else {
        Scene::TestCard
    }
}

fn start_time(rng: &mut SmallRng, arrival: Arrival, poisson_clock: &mut Ns) -> Ns {
    match arrival {
        Arrival::Immediate => 0,
        Arrival::Uniform { window } => rng.gen_range(0..window.max(1)),
        Arrival::Poisson { mean_gap } => {
            *poisson_clock += exponential(rng, mean_gap as f64) as Ns;
            *poisson_clock
        }
    }
}

/// Compiles `spec` into a wired, scheduled [`Scenario`] that owns the
/// whole city (the classic single-threaded path).
pub fn compile(spec: &ScenarioSpec) -> Scenario {
    compile_for(spec, ShardPlan::single())
}

/// Compiles `spec` into the world as shard `plan.shard` sees it.
///
/// Every shard builds the *full* city — same RNG draws, same admission
/// decisions, same VCIs, same broker ledgers — so all shards agree on
/// every compile-time fact without communicating. Only runtime activity
/// is partitioned: an event is armed on the one shard owning the
/// switch its device hangs off, and statistics are collected only from
/// owned devices, so the per-shard measurements sum to exactly the
/// single-shard ones. Remote replicas of switches and devices exist but
/// stay silent — no event ever touches them.
///
/// Each session class keeps only what is its own — the videophone's
/// audio pair, the TV window manager and director cuts, the VoD title
/// draw and CM admission — and hands its media circuit to the one
/// installer (`Scenario::install`). RNG draws and device attachments
/// run in a fixed per-class order (a VoD client attaches before its
/// server), which fixes endpoint and VCI numbering.
pub fn compile_for(spec: &ScenarioSpec, plan: ShardPlan) -> Scenario {
    let mut rng = seeded(spec.seed);
    let sys = SystemBuilder::new()
        .topology(spec.topology.shape, spec.topology.switches)
        .link(spec.topology.link)
        .build();
    let n_fabric = sys.fabric.len();
    let counts = spec.mix.counts(spec.sessions);
    let (n_vp, n_vod, n_tv) = counts;
    let req_disk = (spec.vod_disk_rate as f64 * spec.mix.load).round() as u64;
    let n_servers = spec.pfs_servers.max(1).min(n_vod.max(1));
    let mut sc = Scenario {
        spec: spec.clone(),
        credit_out: (0..plan.shards)
            .map(|_| Rc::new(RefCell::new(Vec::new())))
            .collect(),
        plan,
        sys,
        sim: Simulator::new(),
        counts,
        broker: QosBroker::new(
            spec.broker.cpu_capacity_micro,
            if n_vod > 0 { n_servers } else { 0 },
            spec.broker.pfs_slots_per_server,
            spec.broker.degrade_milli,
        ),
        contracts: Vec::new(),
        tally: BrokerTally::default(),
        displays: Vec::new(),
        audio_sinks: Vec::new(),
        vod_clients: Vec::new(),
        vod_servers: Vec::new(),
        books: Vec::new(),
        blasts: Vec::new(),
        credit_windows: Vec::new(),
    };
    let credited = spec.backpressure.enabled;
    // Nothing reads a scenario display's pixels, and a headless display
    // keeps identical statistics without a framebuffer.
    let make_display = || Display::shared_headless(176, 144);

    let mut poisson_clock: Ns = 0;
    let mut timing = |rng: &mut SmallRng| {
        let t0 = start_time(rng, spec.arrival, &mut poisson_clock).min(spec.duration);
        (t0, pick_scene(rng))
    };
    let pick_pair = |rng: &mut SmallRng| -> (usize, usize) {
        let src = rng.gen_range(0..n_fabric);
        let dst = if n_fabric > 1 {
            // Different switch: sessions should cross the fabric.
            let d = rng.gen_range(0..n_fabric - 1);
            if d >= src {
                d + 1
            } else {
                d
            }
        } else {
            src
        };
        (src, dst)
    };

    // ---- Videophone sessions: camera→display plus audio, one way. ----
    for _ in 0..n_vp {
        let (src, dst) = pick_pair(&mut rng);
        let (t0, scene) = timing(&mut rng);
        let owns_dst = sc.plan.owns(dst);
        let cam_ep = sc.sys.device(src, HostNic::shared());
        let display = owns_dst.then(&make_display);
        let (disp_ep, gate) = sc.attach_consumer(dst, display.clone(), credited);
        let audio_src_ep = sc.sys.device(src, HostNic::shared());
        let audio_sink =
            owns_dst.then(|| AudioSink::shared(AudioConfig::telephony(), spec.audio_jitter_buffer));
        let (audio_sink_ep, _) = sc.attach_consumer(dst, audio_sink.clone(), false);
        let mut req = sc.request(SessionClass::Videophone, cam_ep, disp_ep);
        req.fixed_flows.push(FlowRequest {
            src: audio_src_ep,
            dst: audio_sink_ep,
            bps: AUDIO_BPS,
        });
        let Some(grant) = sc.install(&req, (src, dst), gate.as_ref(), scene, t0) else {
            continue;
        };
        let (vc_dst, avc_src) = (grant.vcs[0].dst_vci, grant.vcs[1].src_vci);
        if let Some(display) = display {
            WindowManager::new(display.clone(), 1).create(vc_dst, Rect::new(0, 0, 176, 144));
            sc.displays.push((display, true));
        }
        // The source's start and the sink's play-out start are separate
        // events — each lands on the shard owning its end of the call.
        if sc.plan.owns(src) {
            let audio = sc
                .sys
                .audio_source_on(audio_src_ep, AudioConfig::telephony(), avc_src);
            let (a_start, a_stop) = (audio.clone(), audio);
            sc.sim
                .schedule_at(t0, move |sim| AudioSource::start(&a_start, sim));
            sc.sim
                .schedule_at(spec.duration, move |_| a_stop.borrow_mut().stop());
        }
        if let Some(audio_sink) = audio_sink {
            sc.audio_sinks.push(audio_sink.clone());
            let duration = spec.duration;
            sc.sim.schedule_at(t0, move |sim| {
                AudioSink::start_playout(&audio_sink, sim, duration)
            });
        }
    }

    // ---- VoD sessions: file server → synchronized playback client. ----
    // The servers' disk state (prerecord + CM replay) lives only on the
    // coordinator: the replay is post-hoc and global, not event-driven.
    let titles = spec.cache.titles_per_server.max(1);
    if n_vod > 0 && sc.plan.materialize_pfs {
        // Rate ceiling sized to a slot-full server at the requested
        // rate: the stream *slots* are the binding capacity, enforced
        // by the broker's ledger and the scheduler's own cap.
        let slots = spec.broker.pfs_slots_per_server;
        let per_server_rate = req_disk * slots.max(1) as u64;
        for _ in 0..n_servers {
            let mut fs = LogFs::new(DiskConfig::hp_1994());
            fs.raid_mut().set_store(false);
            // Pre-record enough media per title for every stream to read
            // the whole replay from offset 0, even at the full requested
            // rate.
            let replay = vod_periods(spec.duration) * VOD_PERIOD;
            let need = (req_disk as u128 * replay as u128 / SEC as u128) as usize;
            let mut files = Vec::with_capacity(titles);
            for _ in 0..titles {
                let file = fs.create(FileClass::Continuous);
                for _ in 0..need.div_ceil(SEGMENT_BYTES).max(1) {
                    fs.append(file, &vec![0u8; SEGMENT_BYTES])
                        .expect("prerecord");
                }
                files.push(file);
            }
            fs.sync().expect("prerecord sync");
            let mut cm = CmScheduler::new(VOD_PERIOD, per_server_rate * 2 + 1_000_000);
            cm.set_max_streams(slots);
            let cache = spec.cache.enabled.then(|| {
                let mut c = TieredCache::new(TierConfig {
                    hot_chunks: spec.cache.hot_chunks,
                    warm_chunks: spec.cache.warm_chunks,
                    prefetch_chunks: spec.cache.prefetch_chunks,
                    ..TierConfig::default()
                });
                // Title 0 is the most popular under the Zipf draw and
                // the flash crowd's target — the one the report's
                // crowd-hit gate watches.
                c.set_crowd_file(files[0]);
                c
            });
            sc.vod_servers.push(VodServer {
                fs,
                cm,
                files,
                cache,
            });
        }
    }
    for i in 0..n_vod {
        let (src, dst) = pick_pair(&mut rng);
        let (t0, scene) = timing(&mut rng);
        // Which title this viewer plays: the flash-crowd fraction —
        // the *last* arrivals, as a real flash crowd piles onto an
        // already-playing hit — is pinned to title 0; the rest draw
        // from the Zipf law. With one recorded title there is no draw
        // at all — the classic RNG stream is untouched.
        let title = if titles > 1 {
            if (i as u64) * 1000 >= n_vod as u64 * (1000 - spec.cache.crowd_milli) {
                0
            } else {
                zipf_pick(&mut rng, titles, spec.cache.zipf_alpha_milli)
            }
        } else {
            0
        };

        let client = sc.plan.owns(dst).then(|| {
            let ctl = PlaybackControl::shared(PlaybackPolicy::Synchronized {
                target_latency: spec.vod_target_latency,
            });
            let stream = ctl.borrow_mut().add_stream("vod");
            let sink = ArrivalSink::shared(ctl.clone(), stream, |bytes| {
                TileFrame::decode(bytes).ok().map(|tf| tf.timestamp)
            });
            (ctl, stream, sink)
        });
        let (client_ep, gate) =
            sc.attach_consumer(dst, client.as_ref().map(|c| c.2.clone()), credited);
        let server_ep = sc.sys.device(src, HostNic::shared());
        // The continuous-media stack pushes tiles at frame rate; the
        // camera model doubles as that paced pusher, renegotiated down
        // with the rest of the session when degraded.
        let mut req = sc.request(SessionClass::Vod, server_ep, client_ep);
        req.pfs_server = Some(i % n_servers);
        let Some(grant) = sc.install(&req, (src, dst), gate.as_ref(), scene, t0) else {
            continue;
        };
        // Disk side: admit the stream on its granted server at the rate
        // the broker's contract actually buys — the same hint drives
        // the CM reservation and the cache's prefetch horizon.
        let granted_disk = grant.disk_rate_hint(req_disk);
        sc.vod_clients
            .extend(client.map(|(ctl, stream, _)| (ctl, stream)));
        if sc.plan.materialize_pfs {
            let server = &mut sc.vod_servers[i % n_servers];
            let fid = server.files[title.min(server.files.len() - 1)];
            server
                .cm
                .admit(fid, granted_disk, 0)
                .expect("broker slot grant implies CM capacity");
            if let Some(cache) = &mut server.cache {
                cache.register_stream(fid, granted_disk);
            }
        }
    }

    // ---- TV distribution: studio cameras into control-room stacks. ----
    let group = spec.tv_group.max(1);
    let mut tv_left = n_tv;
    while tv_left > 0 {
        let feeds = group.min(tv_left);
        tv_left -= feeds;
        let dst = rng.gen_range(0..n_fabric);
        let display = sc.plan.owns(dst).then(&make_display);
        // One credit gate per control room: every admitted feed
        // registers its own window on it, keyed by delivery VCI.
        let (disp_ep, gate) = sc.attach_consumer(dst, display.clone(), credited);
        let wm = display.map(|d| {
            sc.displays.push((d.clone(), false));
            Rc::new(RefCell::new(WindowManager::new(d, 1)))
        });
        let mut feed_vcis = Vec::new();
        let mut group_t0 = spec.duration;
        for _ in 0..feeds {
            let src = rng.gen_range(0..n_fabric);
            let (t0, scene) = timing(&mut rng);
            let cam_ep = sc.sys.device(src, HostNic::shared());
            let req = sc.request(SessionClass::Tv, cam_ep, disp_ep);
            let Some(grant) = sc.install(&req, (src, dst), gate.as_ref(), scene, t0) else {
                continue;
            };
            let vc_dst = grant.vcs[0].dst_vci;
            group_t0 = group_t0.min(t0);
            if let Some(wm) = &wm {
                wm.borrow_mut().create(vc_dst, Rect::new(0, 0, 176, 144));
            }
            feed_vcis.push(vc_dst);
        }
        // The director cuts round-robin through the admitted feeds: one
        // window raise per cut, pure control, run where the control
        // room's display lives. A room whose every feed was rejected
        // has nothing to cut between.
        if let Some(wm) = wm.filter(|_| !feed_vcis.is_empty()) {
            let mut cut_no = 0usize;
            let mut t = group_t0 + spec.tv_cut_period;
            while t < spec.duration {
                let wm = wm.clone();
                let vci = feed_vcis[cut_no % feed_vcis.len()];
                sc.sim.schedule_at(t, move |_| wm.borrow_mut().raise(vci));
                cut_no += 1;
                t += spec.tv_cut_period;
            }
        }
    }

    // ---- Fault schedule: network incidents armed on the engine. ----
    // `SwitchDeath` and `DiskFail` are not armed here: the first needs
    // the (exclusively owned) `Network` for signalling repair, so the
    // epoch driver applies it between engine segments at the fault
    // time; the second lands on the post-hoc CM replay.
    for fault in &spec.faults {
        match *fault {
            FaultSpec::SwitchDegrade {
                at,
                switch,
                queue_capacity,
            } => {
                assert!(switch < n_fabric, "fault names a fabric switch");
                // Armed only on the owner: the degradation bites where
                // cells transit the switch, and only the owner's
                // replica carries traffic.
                if sc.plan.owns(switch) {
                    let sw = sc.sys.net.switch(sc.sys.fabric[switch]).clone();
                    sc.sim.schedule_at(at.min(spec.duration), move |_| {
                        sw.borrow_mut().queue_capacity = queue_capacity;
                    });
                }
            }
            FaultSpec::LinkFlap { at, until, switch } => {
                assert!(switch < n_fabric, "fault names a fabric switch");
                assert!(until >= at, "flap must end after it starts");
                // Outage drops happen at send time on the transmitting
                // switch's output links, so the owner arms the flap —
                // including on cut trunks, whose tx side it owns.
                if sc.plan.owns(switch) {
                    let sw = sc.sys.net.switch(sc.sys.fabric[switch]).clone();
                    sc.sim.schedule_at(at.min(spec.duration), move |_| {
                        for link in sw.borrow_mut().output_links_mut() {
                            link.set_outage_until(until);
                        }
                    });
                }
            }
            FaultSpec::BestEffortBlast {
                at,
                until,
                from_switch,
                to_switch,
                rate_bps,
                window,
            } => {
                assert!(
                    from_switch < n_fabric && to_switch < n_fabric,
                    "blast names fabric switches"
                );
                assert!(until >= at, "blast must end after it starts");
                assert!(rate_bps > 0 && window > 0, "blast needs rate and credits");
                // The injector gets its own fat access link so the
                // bottleneck is the shared trunk, not its first hop; the
                // sink end discards, its credit gate returning credits
                // as cells drain — which is exactly what bounds the
                // standing queue the blast builds in the fabric. The
                // pump lives with the source switch's owner, the gate
                // with the sink's; when those are different shards the
                // returns cross as sealed records like any other
                // cut-crossing circuit's.
                let blast_link = LinkConfig {
                    rate_bps,
                    prop_delay: spec.topology.link.prop_delay,
                };
                let src_ep = sc.sys.net.add_endpoint_auto(
                    sc.sys.fabric[from_switch],
                    blast_link,
                    NullSink::shared(),
                );
                let sink = sc.plan.owns(to_switch).then(NullSink::shared);
                let (dst_ep, gate) = sc.attach_consumer(to_switch, sink, true);
                let vc = sc
                    .sys
                    .net
                    .open_vc(src_ep, dst_ep, QosSpec::best_effort(0))
                    .expect("best-effort blast needs only a route");
                let w = sc.wire_credit(window, vc.dst_vci, (from_switch, to_switch), gate.as_ref());
                if sc.plan.owns(from_switch) {
                    let tx = sc.sys.net.endpoint_tx(src_ep);
                    // Offer bursts at the injector's line rate; an empty
                    // window holds the whole burst at the source.
                    const BURST: u64 = 32;
                    let tick: Ns = BURST * CELL_SIZE as u64 * 8 * SEC / rate_bps;
                    let vci = vc.src_vci;
                    let until_t = until.min(spec.duration);
                    let pump_w = w.clone().expect("pump owner holds the window");
                    sc.sim.schedule_at(at.min(spec.duration), move |sim| {
                        sim.schedule_chain(move |sim| {
                            if sim.now() >= until_t {
                                return None;
                            }
                            if pump_w.borrow_mut().try_acquire_at(sim.now(), BURST) {
                                let mut l = tx.borrow_mut();
                                for _ in 0..BURST {
                                    l.send(sim, Cell::new(vci));
                                }
                            }
                            Some(sim.now() + tick.max(1))
                        });
                    });
                }
                sc.blasts.push((vc, w, false));
            }
            FaultSpec::SwitchDeath { switch, .. } => {
                assert!(switch < n_fabric, "fault names a fabric switch");
            }
            FaultSpec::DiskFail { server, disk, .. } => {
                // Validated against the planned server count, not the
                // materialized set — worker shards materialize none.
                let planned = if n_vod > 0 { n_servers } else { 0 };
                assert!(server < planned.max(1), "fault names a VoD server");
                assert!(
                    disk <= pegasus_pfs::raid::DATA_DISKS,
                    "fault names a RAID member"
                );
            }
            FaultSpec::CpuLoadSpike { .. } => {}
        }
    }

    // Sealed credit returns and remote reclaims look windows up by
    // delivery VCI; sort once so application is a binary search.
    sc.credit_windows.sort_by_key(|e| e.0);
    sc
}

impl Scenario {
    /// Attaches a consumer endpoint on fabric switch `dst`. The shard
    /// owning `dst` passes its `sink`, fronted by a credit gate when the
    /// circuit is `credited` (the gate's return path is wired once
    /// admission fixes the delivery VCI). Other shards pass `None` and
    /// get a [`NullSink`]: an unowned endpoint never receives a cell, so
    /// the stand-in keeps endpoint and VCI numbering identical while
    /// heavy device state (framebuffers, jitter buffers) is never built.
    fn attach_consumer<S: CellSink + 'static>(
        &mut self,
        dst: usize,
        sink: Option<Rc<RefCell<S>>>,
        credited: bool,
    ) -> (EndpointId, Option<Rc<RefCell<CreditSink>>>) {
        let sink: Option<SinkRef> = sink.map(|s| s as SinkRef);
        let gate = sink.clone().filter(|_| credited).map(CreditSink::wrap);
        let rx: SinkRef = match (&gate, sink) {
            (Some(g), _) => g.clone(),
            (None, Some(s)) => s,
            (None, None) => NullSink::shared(),
        };
        (self.sys.device(dst, rx), gate)
    }

    /// A session request of `class` with one media flow `src → dst` at
    /// the requested video rate and CPU share (both scaled by the mix's
    /// `load`); the class adds its own fixed flows or file server.
    fn request(&self, class: SessionClass, src: EndpointId, dst: EndpointId) -> SessionRequest {
        let load = self.spec.mix.load;
        SessionRequest {
            class,
            media_flows: vec![FlowRequest {
                src,
                dst,
                bps: (self.spec.video_bps as f64 * load).round() as u64,
            }],
            fixed_flows: Vec::new(),
            cpu_micro: (self.spec.broker.cpu_per_session_micro as f64 * load).round() as u64,
            pfs_server: None,
        }
    }

    /// The one session installer. Admits `req` through the broker and
    /// records the contract; a rejected session is not wired at all
    /// (`None`). An admitted one gets, on the shard owning the producer
    /// switch `src`, a camera at the granted rung on media flow 0's
    /// source endpoint, armed to start at `t0` and stop at the run's
    /// end; with backpressure on, the circuit's credits are wired
    /// between that camera and the consumer's `gate` on `dst`. The
    /// session is booked either way, and its live grant returned.
    fn install(
        &mut self,
        req: &SessionRequest,
        (src, dst): (usize, usize),
        gate: Option<&Rc<RefCell<CreditSink>>>,
        scene: Scene,
        t0: Ns,
    ) -> Option<&SessionGrant> {
        let grant = self.sys.admit_session(&mut self.broker, req);
        self.tally
            .record(&grant, req.class, &self.sys.net, &self.broker);
        self.contracts.push(SessionContract {
            class: req.class,
            outcome: grant.outcome,
            requested: grant.requested,
            granted: grant.granted,
        });
        if !grant.is_admitted() {
            return None;
        }
        let (ep, vc) = (req.media_flows[0].src, &grant.vcs[0]);
        let camera = self.plan.owns(src).then(|| {
            let cfg = camera_for(self.spec.camera, grant.quality_milli);
            self.sys.camera_on(ep, scene, cfg, vc.src_vci)
        });
        let bp = self.spec.backpressure;
        let credit = bp
            .enabled
            .then(|| self.wire_credit(bp.window_cells, vc.dst_vci, (src, dst), gate))
            .flatten();
        if let Some(cam) = &camera {
            if let Some(w) = &credit {
                cam.borrow_mut().set_credit(w.clone());
            }
            let (start, stop) = (cam.clone(), cam.clone());
            self.sim
                .schedule_at(t0, move |sim| Camera::start(&start, sim));
            self.sim
                .schedule_at(self.spec.duration, move |_| stop.borrow_mut().stop());
        }
        self.books.push(SessionBook {
            stranded: vec![false; grant.vcs.len()],
            class: req.class,
            grant,
            camera,
            credit,
        });
        self.books.last().map(|b| &b.grant)
    }

    /// Wires one credited circuit's two halves as this shard sees them.
    ///
    /// The producer half (the window, created iff this shard owns the
    /// source switch) is returned and recorded in the registry so sealed
    /// returns and remote reclaims can find it. The consumer half — how
    /// drained cells' credits travel back — is registered on `gate`
    /// (built iff this shard owns the destination switch) by geometry
    /// and ownership: same switch → immediate; cross-switch with the
    /// window in this address space → delayed by one reverse trunk
    /// crossing; cross-shard → sealed export records addressed to the
    /// producer's shard.
    fn wire_credit(
        &mut self,
        window_cells: u64,
        dst_vci: Vci,
        (src, dst): (usize, usize),
        gate: Option<&Rc<RefCell<CreditSink>>>,
    ) -> Option<CreditRef> {
        // Cross-switch circuits return credits one reverse trunk crossing
        // later: serialization (ceiling division, so never below the
        // executor's floored lookahead) plus propagation. A pure function
        // of the spec — identical at every shard count, and applied on the
        // classic path too, so the physics don't depend on the plan.
        let link = self.spec.topology.link;
        let ret_delay: Ns = tx_time(CELL_SIZE, link.rate_bps) + link.prop_delay;
        let window = self.plan.owns(src).then(|| {
            let w = CreditWindow::shared(window_cells);
            self.credit_windows.push((dst_vci, w.clone()));
            w
        });
        if let Some(cs) = gate {
            let mut cs = cs.borrow_mut();
            if src == dst {
                // Same switch ⇒ same owner: the window is always local and
                // the return is a same-host wire.
                cs.register(dst_vci, window.clone().expect("same switch, same shard"));
            } else if let Some(w) = &window {
                cs.register_delayed(dst_vci, w.clone(), ret_delay);
            } else {
                let producer = self.plan.owner_of(src);
                cs.register_export(dst_vci, ret_delay, self.credit_out[producer].clone());
            }
        }
        window
    }

    /// The shard plan this scenario was compiled under.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The spec this scenario was compiled from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// When the engine stops: the run length plus a drain long enough
    /// for held playback items to present. Every shard computes the
    /// same deadline, so the epoch loops agree on the final boundary.
    pub fn end_time(&self) -> Ns {
        self.spec.duration + self.spec.drain.max(self.spec.vod_target_latency + 20 * MS)
    }

    /// Settles the fabric's per-VCI drop counters against the session
    /// books: every dropped cell on a credited circuit has its credit
    /// reclaimed (the consumer will never see the cell, so it can never
    /// return it), and drops on an *admitted* session's circuits are
    /// attributed by cause. Returns `(admitted overflow, admitted
    /// outage)` for the cells report. Reclaims against windows this
    /// shard owns happen in place; drops on circuits whose window lives
    /// on another shard are appended to `remote` as `(delivery VCI, n)`
    /// reclaim records for the executor to broadcast (a lone shard owns
    /// every window and never produces any). VCIs are allocated from one
    /// network-wide counter, so any hop's label identifies exactly one
    /// circuit — on every shard.
    pub(crate) fn settle_drops(&self, remote: &mut Vec<(Vci, u64)>) -> (u64, u64) {
        let mut table: Vec<(Vci, Target, bool)> = Vec::new();
        for b in &self.books {
            for (i, vc) in b.grant.vcs.iter().enumerate() {
                // Media flow 0 carries the credit window.
                let target = if i == 0 && !b.stranded[i] {
                    match &b.credit {
                        Some(w) => Target::Local(w.clone()),
                        None if self.spec.backpressure.enabled => Target::Remote(vc.dst_vci),
                        None => Target::Skip,
                    }
                } else {
                    Target::Skip
                };
                for vci in vc.vcis() {
                    table.push((vci, target.clone(), true));
                }
            }
        }
        for (vc, w, stranded) in &self.blasts {
            // Blasts are always credited, whatever the backpressure spec.
            let target = if *stranded {
                Target::Skip
            } else {
                match w {
                    Some(w) => Target::Local(w.clone()),
                    None => Target::Remote(vc.dst_vci),
                }
            };
            for vci in vc.vcis() {
                table.push((vci, target.clone(), false));
            }
        }
        table.sort_by_key(|e| e.0);
        let mut acc = (0u64, 0u64);
        for i in 0..self.sys.net.switch_count() {
            let mut sw = self.sys.net.switch(SwitchId(i)).borrow_mut();
            let overflow = sw.take_dropped_by_vci();
            let outage: Vec<(Vci, u64)> = sw
                .output_links_mut()
                .flat_map(|l| l.take_dropped_by_vci())
                .collect();
            for (drops, cause) in [(overflow, &mut acc.0), (outage, &mut acc.1)] {
                for (vci, n) in drops {
                    let Ok(idx) = table.binary_search_by_key(&vci, |e| e.0) else {
                        continue;
                    };
                    let (_, target, admitted) = &table[idx];
                    match target {
                        Target::Local(w) => w.borrow_mut().reclaim(n),
                        Target::Remote(dst_vci) => remote.push((*dst_vci, n)),
                        Target::Skip => {}
                    }
                    if *admitted {
                        *cause += n;
                    }
                }
            }
        }
        acc
    }

    /// Samples this shard's slice of one epoch's congestion evidence:
    /// stalls from the credit windows it owns, the peak backlog of its
    /// switches (unowned replicas are silent and read zero), and slot
    /// pressure from the replicated broker ledgers. Merging every
    /// shard's sample reproduces the single-shard signal exactly.
    pub(crate) fn sample_epoch_signal(&mut self) -> EpochSignal {
        let mut sig = EpochSignal::default();
        for b in &mut self.books {
            if let Some(w) = &b.credit {
                sig.credit_stalls += w.borrow_mut().take_epoch_stalls();
            }
        }
        for i in 0..self.sys.net.switch_count() {
            let sw = self.sys.net.switch(SwitchId(i));
            sig.peak_queue_cells = sig
                .peak_queue_cells
                .max(sw.borrow_mut().stats.take_epoch_peak());
        }
        sig.cm_slot_pressure = self.counts.1 > 0 && self.broker.pfs_headroom_slots() == 0;
        sig
    }

    /// Kills fabric switch `switch` and repairs the circuits that
    /// crossed it. Signalling walks every live circuit — sessions' in
    /// book order, then the blasts: those crossing the corpse are
    /// re-routed with their endpoint VCIs pinned so the attached devices
    /// (and their credit registrations, keyed by delivery VCI) never
    /// notice; circuits that cannot be repaired are stranded, their
    /// reservations released and their slot marked so no later
    /// renegotiation resizes a dead circuit. Runs on every shard's full
    /// `Network` replica — route state is replicated, so the walk is
    /// identical everywhere. Returns `(rerouted, stranded)`.
    pub(crate) fn apply_death(&mut self, switch: usize) -> (u64, u64) {
        let sw = self.sys.fabric[switch];
        self.sys.net.fail_switch(sw);
        let mut tally = (0u64, 0u64);
        let sessions = self
            .books
            .iter_mut()
            .flat_map(|b| b.grant.vcs.iter_mut().zip(b.stranded.iter_mut()));
        let blasts = self.blasts.iter_mut().map(|(vc, _, s)| (vc, s));
        for (vc, stranded) in sessions.chain(blasts) {
            if *stranded || !vc.crosses_switch(sw) {
                continue;
            }
            match self.sys.net.reroute_vc(vc.clone()) {
                Ok(repaired) => {
                    tally.0 += 1;
                    *vc = repaired;
                }
                Err(_) => {
                    tally.1 += 1;
                    *stranded = true;
                }
            }
        }
        tally
    }

    /// Acts on one epoch's hysteresis verdict: one rung down under
    /// sustained pressure, back toward the admitted contract once the
    /// fabric has drained. Every shard calls this with the identical
    /// merged verdict against its replicated broker and network, so
    /// ledgers and grants stay byte-identical everywhere; producers are
    /// retuned only where they exist (the owner's shard).
    pub(crate) fn apply_verdict(&mut self, verdict: Verdict, at: Ns) {
        if verdict == Verdict::Hold {
            return;
        }
        let rung = self.spec.broker.degrade_milli;
        let camera_cfg = self.spec.camera;
        for b in &mut self.books {
            if b.stranded.iter().any(|&s| s) {
                continue;
            }
            let target = match verdict {
                Verdict::Down => (b.grant.quality_milli * rung / 1000).max(1),
                Verdict::Up => b.grant.admitted_milli,
                Verdict::Hold => unreachable!(),
            };
            if self
                .broker
                .renegotiate_live(&mut self.sys.net, &mut b.grant, target, at)
                .is_ok()
            {
                if let Some(cam) = &b.camera {
                    let cfg = camera_for(camera_cfg, b.grant.quality_milli);
                    let mut cam = cam.borrow_mut();
                    cam.set_fps(cfg.fps);
                    cam.set_mode(cfg.mode);
                }
            }
        }
    }

    /// The credit window this shard owns for the circuit delivering on
    /// `dst_vci`, if any — where sealed credit returns and broadcast
    /// drop reclaims land. Exactly one shard owns each window.
    pub(crate) fn credit_window(&self, dst_vci: Vci) -> Option<&CreditRef> {
        let idx = self
            .credit_windows
            .binary_search_by_key(&dst_vci, |e| e.0)
            .ok()?;
        Some(&self.credit_windows[idx].1)
    }

    /// Runs the compiled scenario to completion and reports — the
    /// classic single-threaded path: the epoch driver with no peers. The
    /// driver resumes from wherever the engine's clock
    /// stands, so for a spec without control marks an engine advanced
    /// by hand with `sim.run_until` reports exactly as a fresh one.
    pub fn run(self) -> ScenarioReport {
        assert_eq!(
            self.plan.shards, 1,
            "multi-shard scenarios run under run_sharded"
        );
        let spec = self.spec.clone();
        assemble(&spec, vec![drive(self, Vec::new(), &Default::default())])
    }

    /// Folds this shard's owned devices and switches into a portable
    /// [`ShardOutcome`]. Consumes the scenario: the `Rc`-laden world
    /// stays on its thread, only plain measurements cross. `slice` is
    /// the executor's runtime counters for the `shards` block.
    pub(crate) fn collect(
        mut self,
        vcs_rerouted: u64,
        vcs_stranded: u64,
        admitted_dropped: (u64, u64),
        slice: ShardSlice,
    ) -> ShardOutcome {
        let events = self.sim.events_executed();
        let mut r = ScenarioReport {
            events_executed: events,
            vcs_rerouted,
            vcs_stranded,
            shards: vec![ShardSlice {
                shard: self.plan.shard as u64,
                events,
                ..slice
            }],
            ..ScenarioReport::default()
        };
        let mut hists: [(Histogram, Histogram); 3] = Default::default();
        let [video, audio, vod] = &mut hists;

        // Video class: every owned display (videophone windows + TV
        // stacks). Jitter is a per-stream quantity (latency in excess
        // of the stream's own floor), so only single-stream displays
        // feed it: a TV control room merges feeds with different hop
        // counts, and subtracting one shared floor would read the
        // constant path-delay differences as jitter.
        for (d, single_stream) in &self.displays {
            let d = d.borrow();
            r.tiles_blitted += d.stats.tiles_blitted;
            video.0.merge(&d.stats.latency);
            if *single_stream {
                video.1.merge(&d.stats.latency.jitter_histogram());
            }
        }

        // Audio class: DAC play-out.
        for s in &self.audio_sinks {
            let s = s.borrow();
            r.audio_underruns += s.stats.underruns;
            audio.0.merge(&s.stats.playout_latency);
            audio.1.merge(&s.stats.playout_latency.jitter_histogram());
        }

        // VoD class: synchronized presentations.
        for (ctl, stream) in &self.vod_clients {
            let ctl = ctl.borrow();
            let st = ctl.stats(*stream);
            r.vod_presented += st.presented;
            r.playback_late += ctl.late_total();
            vod.0.merge(&st.latency);
            vod.1.merge(&st.latency.jitter_histogram());
        }

        // Cell accounting and queue depths. Only owned producers and
        // switches carried traffic — remote replicas are silent and
        // consumer endpoints never transmit, so iterating all of them
        // adds zeros and the per-shard numbers sum to the single-shard
        // totals.
        let (net, cells) = (&self.sys.net, &mut r.cells);
        for ep in 0..net.endpoint_count() {
            cells.sent += net.endpoint_tx(EndpointId(ep)).borrow().cells_sent();
        }
        for i in 0..net.switch_count() {
            let sw = net.switch(SwitchId(i)).borrow();
            cells.dropped_overflow += sw.stats.overflowed;
            cells.dropped_unroutable += sw.stats.unroutable;
            cells.dropped_outage += sw.cells_dropped_outage();
            r.peak_queue_cells = r.peak_queue_cells.max(sw.stats.peak_queue_cells);
        }
        cells.admitted_dropped_overflow = admitted_dropped.0;
        cells.admitted_dropped_outage = admitted_dropped.1;

        // The flow-control plane's own ledger: stalls by class, frames
        // held at source, reclaimed credits, renegotiation history and
        // the constructive queue bound.
        let bp = &mut r.backpressure;
        bp.enabled = self.spec.backpressure.enabled;
        for b in &self.books {
            if let Some(w) = &b.credit {
                let w = w.borrow();
                match b.class {
                    SessionClass::Videophone => bp.credit_stalls.0 += w.stalls(),
                    SessionClass::Vod => bp.credit_stalls.1 += w.stalls(),
                    SessionClass::Tv => bp.credit_stalls.2 += w.stalls(),
                }
                bp.credits_reclaimed += w.reclaimed();
                bp.queue_bound_cells += w.window();
            }
            if let Some(cam) = &b.camera {
                bp.frames_skipped += cam.borrow().stats.frames_skipped;
                // Renegotiation replays on every shard's replicated
                // grant; count each session's history exactly once, on
                // the shard owning its producer.
                for h in &b.grant.history {
                    if h.to_milli < h.from_milli {
                        bp.renegotiations_down += 1;
                    } else {
                        bp.renegotiations_up += 1;
                    }
                }
            }
        }
        for (_, w, _) in &self.blasts {
            if let Some(w) = w {
                let w = w.borrow();
                bp.credits_reclaimed += w.reclaimed();
                bp.queue_bound_cells += w.window();
            }
        }

        // Coordinator-only sections: the replays and the
        // replicated-identical ledgers.
        if self.plan.materialize_pfs {
            r.pfs = self.replay_pfs();
            // Read the cache counters only after the replay: the tiers
            // fill during it, not during the live network run.
            r.cache = self.cache_report();
            r.nemesis = self.replay_nemesis();
            r.switches = self.sys.net.switch_count() as u64;
            r.endpoints = self.sys.net.endpoint_count() as u64;
            r.max_link_utilization = self.sys.net.max_reservation_utilization();
            r.broker = std::mem::take(&mut self.tally).into_report();
        }
        ShardOutcome { report: r, hists }
    }

    /// File-server side of VoD: replay the CM schedule. A server
    /// with a scheduled disk incident replays in three spans —
    /// healthy, degraded (one member fail-stopped, reads
    /// reconstructing through parity), healthy again after the
    /// spindle swap and rebuild. `run_periods` keeps no state across
    /// calls except the per-stream offsets, so the split replay is
    /// byte-identical to an unsplit one at the same health.
    fn replay_pfs(&mut self) -> PfsReport {
        let spec = &self.spec;
        let periods = vod_periods(spec.duration);
        let mut pfs = PfsReport::default();
        for (si, server) in self.vod_servers.iter_mut().enumerate() {
            let incident = spec.faults.iter().find_map(|f| match *f {
                FaultSpec::DiskFail {
                    at,
                    server: s,
                    disk,
                    replace_at,
                } if s == si => {
                    let fail_p = at / VOD_PERIOD;
                    // The replacement lands on the next period boundary
                    // at the earliest: every incident spends at least
                    // one period degraded.
                    let rep_p = (replace_at / VOD_PERIOD).max(fail_p + 1);
                    Some((fail_p, rep_p, disk))
                }
                _ => None,
            });
            let VodServer { fs, cm, cache, .. } = server;
            // One replay span, through the tiered cache when the server
            // has one. The cache only changes *where* bytes come from
            // (and so the disk clock), never which bytes a stream gets.
            let mut play = |fs: &mut LogFs, n: u64, why: &str| {
                let r = match cache {
                    Some(c) => cm.run_periods_tiered(fs, c, n),
                    None => cm.run_periods(fs, n),
                }
                .expect(why);
                pfs.periods += r.periods;
                pfs.missed += r.missed;
                pfs.bytes_delivered += r.bytes_delivered;
            };
            let Some((fail_p, rep_p, disk)) = incident.filter(|i| i.0 < periods) else {
                play(fs, periods, "prerecorded file");
                continue;
            };
            let rep_p = rep_p.min(periods);
            play(fs, fail_p, "prerecorded file");
            fs.raid_mut().disk_mut(disk).fail();
            play(
                fs,
                rep_p - fail_p,
                "degraded reads reconstruct through parity",
            );
            // Swap the spindle and rebuild it from the survivors. Rebuild
            // I/O is charged at the RAID layer, not against the log's
            // clock, so the remaining periods' deadline accounting is
            // clean — the array is simply whole again.
            fs.raid_mut().disk_mut(disk).replace();
            let stripes = fs.used_segments() as u64;
            let t = fs
                .raid_mut()
                .rebuild_disk(disk, stripes)
                .expect("single failure is rebuildable");
            play(fs, periods - rep_p, "prerecorded file");
            pfs.rebuilds += 1;
            pfs.rebuild_ns += t;
        }
        // Throughput over the replayed window (which may exceed a short
        // run's duration: at least one full service period is played).
        let replay = periods * VOD_PERIOD;
        pfs.throughput_bps =
            (pfs.bytes_delivered as u128 * 8 * SEC as u128 / replay as u128) as u64;
        pfs
    }

    /// Tiered-cache section: counters summed across servers, ratios
    /// recomputed from the sums so busy servers weigh what they served,
    /// not one vote each. All zeros (enabled false) when the spec left
    /// the cache off.
    fn cache_report(&self) -> CacheReport {
        let mut r = CacheReport {
            enabled: self.spec.cache.enabled,
            ..CacheReport::default()
        };
        let mut bytes_saved = 0u64;
        let mut crowd_hot = 0u64;
        for server in &self.vod_servers {
            if let Some(cache) = &server.cache {
                let s = cache.stats();
                r.hot_hits += s.hot_hits;
                r.warm_hits += s.warm_hits;
                r.cold_misses += s.cold_misses;
                r.prefetched_chunks += s.prefetched_chunks;
                r.crowd_accesses += s.crowd_accesses;
                crowd_hot += s.crowd_hot_hits;
                bytes_saved += s.bytes_saved;
                let a = cache.arena().stats();
                r.shared_attaches += a.shared_attaches;
                r.fresh_allocs += a.fresh_allocs;
            }
        }
        let total = r.hot_hits + r.warm_hits + r.cold_misses;
        if let Some(hot) = (r.hot_hits * 1000).checked_div(total) {
            r.hot_milli = hot;
            r.warm_milli = r.warm_hits * 1000 / total;
            r.cold_milli = 1000 - r.hot_milli - r.warm_milli;
        }
        r.crowded_title_hot_milli = (crowd_hot * 1000)
            .checked_div(r.crowd_accesses)
            .unwrap_or(0);
        r.disk_io_saved_cells = bytes_saved / 48;
        r
    }

    /// Control plane: replay the CPU fault schedule against the QoS
    /// manager. Media demand is exactly what the broker's CPU ledger
    /// granted (plus a control baseline): rejected and degraded
    /// sessions demand less, which is the broker's whole point.
    fn replay_nemesis(&self) -> NemesisReport {
        let spec = &self.spec;
        let mut mgr = QosManager::new(0.9, 1.0);
        let media = mgr.add_app("media-control", 1.0);
        let batch = mgr.add_app("batch", 1.0);
        mgr.observe(batch, 1.0);
        // The default broker capacity (0.35) plus the 0.05 baseline
        // stays below the media app's fair share against the synthetic
        // batch competitor (0.9 capacity split 1:1 = 0.45), so a
        // healthy, fault-free run can never report starvation no matter
        // the session count; only scheduled incidents push it under.
        let media_demand = 0.05 + self.broker.cpu.reserved_fraction();
        let schedule = FaultSchedule {
            faults: spec
                .faults
                .iter()
                .filter_map(|f| match *f {
                    FaultSpec::CpuLoadSpike {
                        at,
                        until,
                        demand,
                        weight,
                    } => Some(Fault::LoadSpike {
                        at,
                        until,
                        demand,
                        weight,
                    }),
                    _ => None,
                })
                .collect(),
        };
        let er = EpochDriver::run(
            &mut mgr,
            media,
            media_demand,
            &schedule,
            10 * MS,
            spec.duration,
        );
        let mut quality = er.quality_milli.clone();
        NemesisReport {
            epochs: er.epochs,
            starved_epochs: er.starved_epochs,
            quality_p50_milli: quality.percentile(50.0).unwrap_or(1000),
            quality_min_milli: quality.min().unwrap_or(1000),
        }
    }
}

/// Merges per-shard outcomes into the final [`ScenarioReport`].
///
/// With one outcome this reproduces the classic report exactly; with
/// several, counters sum onto the coordinator's slice, peaks take the
/// max, and histograms merge in shard order. Summaries are insensitive
/// to that merge order — the percentile pass sorts the samples and the
/// mean is computed over the sorted data — so the canonical JSON is
/// identical at any shard count.
pub fn assemble(spec: &ScenarioSpec, mut outcomes: Vec<ShardOutcome>) -> ScenarioReport {
    outcomes.sort_by_key(|o| o.report.shards[0].shard);
    let mut outcomes = outcomes.into_iter();
    let ShardOutcome {
        report: mut r,
        mut hists,
    } = outcomes.next().expect("the coordinator's outcome");
    for o in outcomes {
        let s = o.report;
        r.events_executed += s.events_executed;
        r.tiles_blitted += s.tiles_blitted;
        r.audio_underruns += s.audio_underruns;
        r.vod_presented += s.vod_presented;
        r.playback_late += s.playback_late;
        r.peak_queue_cells = r.peak_queue_cells.max(s.peak_queue_cells);
        r.vcs_rerouted += s.vcs_rerouted;
        r.vcs_stranded += s.vcs_stranded;
        let (c, sc) = (&mut r.cells, &s.cells);
        c.sent += sc.sent;
        c.dropped_overflow += sc.dropped_overflow;
        c.dropped_unroutable += sc.dropped_unroutable;
        c.dropped_outage += sc.dropped_outage;
        c.admitted_dropped_overflow += sc.admitted_dropped_overflow;
        c.admitted_dropped_outage += sc.admitted_dropped_outage;
        let (b, sb) = (&mut r.backpressure, &s.backpressure);
        b.credit_stalls.0 += sb.credit_stalls.0;
        b.credit_stalls.1 += sb.credit_stalls.1;
        b.credit_stalls.2 += sb.credit_stalls.2;
        b.frames_skipped += sb.frames_skipped;
        b.credits_reclaimed += sb.credits_reclaimed;
        b.renegotiations_down += sb.renegotiations_down;
        b.renegotiations_up += sb.renegotiations_up;
        b.queue_bound_cells += sb.queue_bound_cells;
        r.shards.extend(s.shards);
        for (h, sh) in hists.iter_mut().zip(&o.hists) {
            h.0.merge(&sh.0);
            h.1.merge(&sh.1);
        }
    }
    let counts = spec.mix.counts(spec.sessions);
    let [video, audio, vod] = &mut hists;
    let class = |sessions: usize, (lat, jit): &mut (Histogram, Histogram)| ClassReport {
        sessions: sessions as u64,
        latency: lat.summarize(),
        jitter: jit.summarize(),
    };
    r.video = class(counts.0 + counts.2, video);
    r.audio = class(counts.0, audio);
    r.vod = class(counts.1, vod);
    r.schema_version = SCHEMA_VERSION;
    r.name = spec.name.clone();
    r.seed = spec.seed;
    r.duration = spec.duration;
    r.sessions = (counts.0 as u64, counts.1 as u64, counts.2 as u64);
    let c = &mut r.cells;
    c.delivered = c
        .sent
        .saturating_sub(c.dropped_overflow + c.dropped_unroutable + c.dropped_outage);
    r.deadline_misses = r.total_misses();
    r
}

/// Where a dropped cell's credit goes when the fabric is settled.
#[derive(Clone)]
enum Target {
    /// The circuit's window lives in this address space: reclaim here.
    Local(CreditRef),
    /// The window lives on the shard owning the producer's switch:
    /// emit a reclaim record keyed by delivery VCI for the executor to
    /// broadcast.
    Remote(Vci),
    /// No credit to move — an uncredited flow, or a stranded circuit
    /// whose producer is wedged by design (its credits leak with the
    /// corpse). Attribution still applies.
    Skip,
}

/// Compiles and runs `spec` in one call.
pub fn run(spec: &ScenarioSpec) -> ScenarioReport {
    compile(spec).run()
}

/// Runs the spec once per seed — the multi-seed sweep used by soak
/// jobs. Each run is independent and deterministic for its seed.
pub fn run_seeds(spec: &ScenarioSpec, seeds: &[u64]) -> Vec<ScenarioReport> {
    seeds
        .iter()
        .map(|&s| run(&spec.clone().with_seed(s)))
        .collect()
}
