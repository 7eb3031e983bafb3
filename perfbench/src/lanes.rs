//! Layer lanes: timed calls into one layer's public functions, with
//! inputs shaped like the workload's (QCIF frames at the preset's codec
//! quality, the preset's tiles per AAL5 frame, its VoD rate, stream
//! count and cache tiers, its run length in Nemesis epochs, its engine
//! queue depth). Each lane runs in batches for a fixed wall-time slice
//! and reports the median batch's cost per operation; multiplied by the
//! workload's operation count it estimates the layer's share of a run.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pegasus_atm::aal5::{Reassembler, Segmenter};
use pegasus_atm::cell::Cell;
use pegasus_devices::camera::VideoMode;
use pegasus_devices::codec::encode_tile_into;
use pegasus_devices::tile::{Tile, TileCoding, TileFrameWriter};
use pegasus_devices::video::{Scene, SyntheticVideo};
use pegasus_nemesis::faults::{EpochDriver, FaultSchedule};
use pegasus_nemesis::qosmgr::QosManager;
use pegasus_pfs::cm::CmScheduler;
use pegasus_pfs::disk::DiskConfig;
use pegasus_pfs::log::{FileClass, LogFs, SEGMENT_BYTES};
use pegasus_pfs::tier::{TierConfig, TieredCache};
use pegasus_scenario::ScenarioSpec;
use pegasus_sim::arena::Arena;
use pegasus_sim::engine::Simulator;
use pegasus_sim::time::{MS, SEC};

use crate::trace::Tracer;

/// The scenario crate's CM service period for VoD servers.
const VOD_PERIOD: u64 = 500 * MS;
/// The scenario crate's Nemesis replay epoch.
const NEMESIS_EPOCH: u64 = 10 * MS;
const SCENES: [Scene; 3] = [Scene::MovingGradient, Scene::Noise, Scene::TestCard];

/// What the lanes measured, ns per operation.
#[derive(Debug, Default)]
pub struct LaneCosts {
    /// One `Simulator` schedule plus the step that fires it, at the
    /// workload's queue depth.
    pub schedule_step_ns: f64,
    /// `encode_tile_into` of one QCIF tile at the preset's quality.
    pub encode_tile_ns: f64,
    /// `SyntheticVideo::render` of one QCIF frame.
    pub render_frame_ns: f64,
    /// `Segmenter::segment_frame` of one camera tile frame.
    pub segment_frame_ns: f64,
    /// Cells one camera tile frame segments into, on average.
    pub cells_per_frame: f64,
    /// `Reassembler::push_frame`, per cell.
    pub push_frame_ns_per_cell: f64,
    /// One CM service period of one server (tiered when the preset
    /// turns the cache on), 0 when the workload has no VoD.
    pub cm_period_ns: f64,
    /// One `EpochDriver` epoch.
    pub epoch_driver_ns: f64,
}

/// Wall time of one lane batch: long enough that timer resolution and
/// span bookkeeping are noise, short enough for a median of many.
const BATCH: Duration = Duration::from_millis(5);

/// Runs `op` (which returns the operations it did) in batches of
/// [`BATCH`] for `slice`, recording a span per batch; returns the
/// median batch's ns per operation.
fn lane(tr: &mut Tracer, name: &'static str, slice: Duration, mut op: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut per_op = Vec::new();
    while per_op.len() < 3 || start.elapsed() < slice {
        let span = tr.open(name, None);
        let t = Instant::now();
        let mut ops = 0;
        while ops == 0 || t.elapsed() < BATCH {
            ops += op();
        }
        let ns = t.elapsed().as_nanos() as f64;
        tr.close(span);
        per_op.push(ns / ops as f64);
    }
    crate::median(&mut per_op)
}

/// The preset's Motion-JPEG quality (raw tiles skip the codec).
fn quality(spec: &ScenarioSpec) -> Option<u8> {
    match spec.camera.mode {
        VideoMode::Mjpeg(q) => Some(q),
        VideoMode::Raw => None,
    }
}

/// The tile rows of one QCIF frame of each scene.
fn qcif_rows() -> Vec<Vec<Tile>> {
    let mut rows = Vec::new();
    for scene in SCENES {
        let v = SyntheticVideo::qcif(scene);
        let image = v.frame(7);
        for ty in 0..v.tiles_y() {
            rows.push(
                (0..v.tiles_x())
                    .map(|tx| Tile::from_image(&image, v.width, tx, ty))
                    .collect(),
            );
        }
    }
    rows
}

/// Measures every lane, `slice` each, for the workload `spec` whose
/// compiled engine held `pending` events.
pub fn measure(tr: &mut Tracer, spec: &ScenarioSpec, pending: usize, slice: Duration) -> LaneCosts {
    // The hold model: `pending` events queued, each firing event
    // schedules its successor a pseudo-random delay ahead, so the queue
    // stays at the workload's depth.
    let mut sim = Simulator::new();
    for i in 0..pending.max(1) as u64 {
        hold(&mut sim, i);
    }
    let mut c = LaneCosts {
        schedule_step_ns: lane(tr, "lane.sim.schedule_step", slice, || {
            sim.run_steps(1_000);
            1_000
        }),
        ..LaneCosts::default()
    };
    drop(sim);

    let rows = qcif_rows();
    let tiles: Vec<&Tile> = rows.iter().flatten().collect();
    let q = quality(spec);
    let mut out = Vec::with_capacity(64);
    c.encode_tile_ns = match q {
        Some(q) => lane(tr, "lane.devices.encode_tile", slice, || {
            for t in &tiles {
                out.clear();
                encode_tile_into(black_box(&t.pixels), q, &mut out);
                black_box(&out);
            }
            tiles.len() as u64
        }),
        None => 0.0,
    };

    let videos: Vec<SyntheticVideo> = SCENES.iter().map(|&s| SyntheticVideo::qcif(s)).collect();
    let mut frame = vec![0u8; videos[0].frame_bytes()];
    let mut n = 0u32;
    c.render_frame_ns = lane(tr, "lane.devices.render_frame", slice, || {
        for v in &videos {
            v.render(black_box(n), &mut frame);
            black_box(&frame);
        }
        n = n.wrapping_add(1);
        videos.len() as u64
    });

    // Camera tile frames: each tile row split into frames of at most
    // `tiles_per_frame` tiles, coded as the preset codes them, in leased
    // arena buffers — as the camera emits them.
    let arena = Arena::new();
    let per_frame = spec.camera.tiles_per_frame.max(1);
    let frames: Vec<_> = rows
        .iter()
        .flat_map(|row| row.chunks(per_frame))
        .map(|chunk| {
            let coding = if q.is_some() {
                TileCoding::Compressed
            } else {
                TileCoding::Raw
            };
            let mut w = TileFrameWriter::begin(arena.lease(), coding, q.unwrap_or(0), 1, 0);
            for t in chunk {
                match q {
                    Some(q) => w.push_tile_with(t.x, t.y, |o| encode_tile_into(&t.pixels, q, o)),
                    None => w.push_tile(t.x, t.y, &t.pixels),
                }
            }
            w.finish().freeze()
        })
        .collect();
    let seg = Segmenter::new(7);
    let mut cells: Vec<Cell> = Vec::new();
    let mut total_cells = 0u64;
    for f in &frames {
        seg.segment_frame(&f.view_all(), &mut cells)
            .expect("tile frames are far below the AAL5 maximum");
        total_cells += cells.len() as u64;
        cells.clear();
    }
    c.cells_per_frame = total_cells as f64 / frames.len() as f64;
    c.segment_frame_ns = lane(tr, "lane.atm.segment_frame", slice, || {
        for f in &frames {
            seg.segment_frame(&f.view_all(), &mut cells)
                .expect("tile frames are far below the AAL5 maximum");
            black_box(&cells);
            cells.clear();
        }
        frames.len() as u64
    });
    let mut segmented: Vec<Cell> = Vec::new();
    for f in &frames {
        seg.segment_frame(&f.view_all(), &mut segmented)
            .expect("tile frames are far below the AAL5 maximum");
    }
    let mut reasm = Reassembler::new();
    c.push_frame_ns_per_cell = lane(tr, "lane.atm.push_frame", slice, || {
        for cell in &segmented {
            if let Some(res) = reasm.push_frame(black_box(cell)) {
                black_box(res.expect("clean cells reassemble"));
            }
        }
        segmented.len() as u64
    });

    c.cm_period_ns = cm_period_ns(tr, spec, slice);
    c.epoch_driver_ns = lane(tr, "lane.nemesis.epoch_driver", slice, || {
        let mut mgr = QosManager::new(0.9, 1.0);
        let media = mgr.add_app("media-control", 1.0);
        let batch = mgr.add_app("batch", 1.0);
        mgr.observe(batch, 1.0);
        let r = EpochDriver::run(
            &mut mgr,
            media,
            0.3,
            &FaultSchedule::none(),
            NEMESIS_EPOCH,
            spec.duration,
        );
        black_box(&r);
        r.epochs
    });
    c
}

/// Schedules the next event of a hold-model chain.
fn hold(sim: &mut Simulator, x: u64) {
    let next = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    sim.schedule_in(1 + (next >> 44), move |s| hold(s, next));
}

/// One CM service period over a server laid out as the scenario crate
/// lays out the preset's VoD servers: its titles pre-recorded, its
/// share of the streams admitted at the requested rate, tiered when
/// the preset turns the cache on. Each batch builds a fresh server
/// (untimed) and times the preset's periods. 0 when there is no VoD.
fn cm_period_ns(tr: &mut Tracer, spec: &ScenarioSpec, slice: Duration) -> f64 {
    let n_vod = spec.mix.counts(spec.sessions).1;
    if n_vod == 0 {
        return 0.0;
    }
    let servers = spec.pfs_servers.max(1).min(n_vod);
    let streams = n_vod.div_ceil(servers);
    let rate = (spec.vod_disk_rate as f64 * spec.mix.load).round() as u64;
    let periods = (spec.duration / VOD_PERIOD).max(1);
    let titles = spec.cache.titles_per_server.max(1);
    let need = (rate as u128 * (periods * VOD_PERIOD) as u128 / SEC as u128) as usize;
    let slots = spec.broker.pfs_slots_per_server;
    let start = Instant::now();
    let mut per_period = Vec::new();
    while per_period.len() < 3 || start.elapsed() < slice {
        let mut fs = LogFs::new(DiskConfig::hp_1994());
        fs.raid_mut().set_store(false);
        let files: Vec<_> = (0..titles)
            .map(|_| {
                let file = fs.create(FileClass::Continuous);
                for _ in 0..need.div_ceil(SEGMENT_BYTES).max(1) {
                    fs.append(file, &vec![0u8; SEGMENT_BYTES])
                        .expect("prerecord");
                }
                file
            })
            .collect();
        fs.sync().expect("prerecord sync");
        let mut cm = CmScheduler::new(VOD_PERIOD, rate * slots.max(1) as u64 * 2 + 1_000_000);
        cm.set_max_streams(slots);
        let mut cache = spec.cache.enabled.then(|| {
            let mut c = TieredCache::new(TierConfig {
                hot_chunks: spec.cache.hot_chunks,
                warm_chunks: spec.cache.warm_chunks,
                prefetch_chunks: spec.cache.prefetch_chunks,
                ..TierConfig::default()
            });
            c.set_crowd_file(files[0]);
            c
        });
        // As the scenario crate assigns titles: the flash crowd (the
        // last arrivals) on title 0, the rest spread over the catalogue.
        let admitted = streams.min(slots);
        for i in 0..admitted {
            let crowd = (i as u64) * 1000 >= admitted as u64 * (1000 - spec.cache.crowd_milli);
            let file = if crowd { files[0] } else { files[i % titles] };
            cm.admit(file, rate, 0).expect("within the slot ledger");
            if let Some(c) = &mut cache {
                c.register_stream(file, rate);
            }
        }
        let span = tr.open("lane.pfs.cm_period", None);
        let t = Instant::now();
        let report = match &mut cache {
            Some(c) => cm.run_periods_tiered(&mut fs, c, periods),
            None => cm.run_periods(&mut fs, periods),
        }
        .expect("pre-recorded titles cover every period");
        let ns = t.elapsed().as_nanos() as f64;
        tr.close(span);
        black_box(&report);
        per_period.push(ns / periods as f64);
    }
    crate::median(&mut per_period)
}
