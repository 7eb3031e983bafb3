//! The epoch driver and the channels shards exchange over.
//!
//! Every run — one thread or many — goes through one driver (`drive`):
//! it runs a compiled shard in epochs, pausing at each lookahead
//! boundary and at every *control mark* (switch deaths and
//! congestion-epoch boundaries), and ends with `Scenario::collect`.
//! Shards talk only over point-to-point channels, one
//! `std::sync::mpsc` channel per ordered shard pair, the way Pegasus
//! devices talk only over circuits. [`Scenario::run`] is the zero-peer
//! case: no cut trunks means no lookahead bound (it stops only at marks
//! and at the end), nothing is sent, and its merged congestion signal
//! is its own sample. [`run_sharded`] partitions the fabric into region
//! shards ([`crate::partition::ExecPlan`]) and compiles a full replica
//! of the world per worker thread ([`crate::build::compile_for`]). The
//! epochs are conservative lookahead steps:
//!
//! 1. Every shard runs its engine up to (but not into) the epoch
//!    boundary `t + L`, where the lookahead `L` is the minimum over cut
//!    trunks of cell serialization time plus propagation delay. A cell
//!    sent on a cut trunk at or after `t` cannot arrive before `t + L`,
//!    so nothing a peer does during the epoch can affect this shard
//!    before the boundary — the classic conservative-synchronization
//!    argument, with the trunk itself supplying the lookahead.
//! 2. Cells that crossed a cut during the epoch were captured by the
//!    transmit link's export buffer ([`pegasus_atm::link::Link`]
//!    `set_export`) with their exact arrival times. Each shard seals
//!    them to wire bytes and sends every peer one post, possibly empty.
//!    Credit returns for cut-crossing circuits ride the same posts as
//!    sealed [`CreditReturn`] records: their application time is the
//!    delivery event time plus the circuit's return delay, which is
//!    never below the trunk lookahead, so a record sealed in epoch
//!    `[t, b)` always applies at or after `b` — the conservative bound
//!    covers the control plane for free.
//! 3. Every shard then receives one post from each peer, in shard
//!    order, injecting each sealed cell into its own replica of the
//!    transmitting link (delivery lands on the trunk's own scheduling
//!    lane, reproducing the exact per-lane event order the single-shard
//!    run would have used) and parking each credit record on its
//!    window.
//!
//! Receiving is the synchronization: a shard cannot leave a round
//! before every peer has sent into it, and FIFO channels keep a fast
//! peer's next post behind the current one, so no barrier is needed.
//!
//! At a mark, death repair replays identically on every shard's full
//! `Network` replica; a congestion epoch samples a per-shard
//! [`EpochSignal`], and the shards exchange the samples (and any
//! cross-shard drop reclaims) in one more round, so every replica's
//! controller sees the identical merged signal — renegotiation
//! verdicts, broker ledgers and grants stay byte-identical at any shard
//! count.
//!
//! Determinism: ownership, lane assignment, the lookahead and the mark
//! timeline are pure functions of the spec, arrival times come from the
//! sending link's serialization arithmetic (identical in every mode),
//! and ties at equal timestamps break on compile-time lane ids. The
//! canonical report is therefore byte-identical at any `--shards`; CI
//! diffs it.
//!
//! A shard that panics drops its senders, so a peer waiting on it sees
//! its receive fail and stops too; [`run_sharded`] then panics naming
//! the shard, its epoch and the simulated time.

use std::cell::{Cell as StdCell, RefCell};
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::OnceLock;
use std::thread;

use pegasus::congestion::{CongestionController, EpochSignal};
use pegasus_atm::cell::{Cell, Vci, CELL_SIZE};
use pegasus_atm::credit::{CreditExportBuf, CreditReturn};
use pegasus_atm::link::ExportBuffer;
use pegasus_atm::network::TrunkDir;
use pegasus_sim::time::{Ns, SEC};

use crate::build::{assemble, compile_for, run, Scenario, ShardOutcome};
use crate::partition::ExecPlan;
use crate::report::{ScenarioReport, ShardSlice};
use crate::spec::{FaultSpec, ScenarioSpec};

/// A point on the control-plane timeline where the engine must pause:
/// a switch death (structural — routing state plus signalling repair)
/// or a congestion epoch boundary (sampling, credit reconciliation,
/// renegotiation). Both need the owned `Network`. Pausing at an event
/// boundary preserves determinism: the engine's schedule is identical
/// whether or not it pauses there.
enum ControlMark {
    /// `SwitchDeath` fault on this fabric switch.
    Death(usize),
    /// Backpressure congestion-epoch boundary.
    Epoch,
}

/// The sorted control-plane timeline of `spec`: deaths at their fault
/// times, epoch boundaries on the backpressure grid. Stable by
/// `(time, kind)` with deaths first, so a death at an epoch boundary
/// lands before the sample. Every shard computes the same marks from
/// the spec, so all of them pause at identical instants.
fn control_marks(spec: &ScenarioSpec) -> Vec<(Ns, ControlMark)> {
    let bp = spec.backpressure;
    let mut marks: Vec<(Ns, u8, ControlMark)> = spec
        .faults
        .iter()
        .filter_map(|f| match *f {
            FaultSpec::SwitchDeath { at, switch } => {
                Some((at.min(spec.duration), 0u8, ControlMark::Death(switch)))
            }
            _ => None,
        })
        .collect();
    if bp.enabled {
        let mut t = bp.epoch.max(1);
        while t <= spec.duration {
            marks.push((t, 1, ControlMark::Epoch));
            t += bp.epoch.max(1);
        }
    }
    marks.sort_by_key(|&(t, tag, _)| (t, tag));
    marks.into_iter().map(|(t, _, m)| (t, m)).collect()
}

/// Runs a compiled shard to its end time, exchanging with the peers at
/// the far ends of `links` (none for a lone shard), and collects it.
/// `progress` tracks the epochs closed, for a panic report.
///
/// Each epoch runs the engine strictly before the next boundary — the
/// lookahead step, the next control mark or the end, whichever is
/// first — parks the clock on it, and exchanges. Events parked exactly
/// on a mark (injected arrivals included) then run before the mark
/// acts, so a mark sees the same state as an inclusive `run_until`. An
/// engine already advanced past a boundary simply finds nothing left to
/// run before it.
pub(crate) fn drive(mut sc: Scenario, links: Vec<Link>, progress: &Progress) -> ShardOutcome {
    let mut peers = Peers::new(&sc, links);
    let mut marks = control_marks(sc.spec()).into_iter().peekable();
    let end = sc.end_time();
    let coordinator = sc.plan().materialize_pfs;
    let bp = sc.spec().backpressure;
    let mut controller = CongestionController::new(
        bp.down_after,
        bp.up_after,
        bp.stall_threshold,
        bp.headroom_cells,
    );
    let (mut vcs_rerouted, mut vcs_stranded, mut repairs) = (0u64, 0u64, 0u64);
    let mut admitted_dropped = (0u64, 0u64); // (overflow, outage)
    let mut reclaims: Vec<(Vci, u64)> = Vec::new();
    let mut settle = |sc: &Scenario, reclaims: &mut Vec<(Vci, u64)>| {
        let (ov, ou) = sc.settle_drops(reclaims);
        admitted_dropped.0 += ov;
        admitted_dropped.1 += ou;
    };
    let mut t: Ns = 0;
    while t < end {
        let next_mark = marks.peek().map_or(Ns::MAX, |&(at, _)| at);
        let next = t.saturating_add(peers.lookahead).min(end).min(next_mark);
        // Strictly before the boundary, then park the clock exactly on
        // it, so cells injected by the exchange can never precede it.
        sc.sim.run_before(next);
        peers.exchange(&mut sc, next);
        progress.set((progress.get().0 + 1, next));
        while let Some((_, mark)) = marks.next_if(|&(at, _)| at == next) {
            sc.sim.run_until(next);
            match mark {
                ControlMark::Death(switch) => {
                    // Repair replays identically on every shard's full
                    // replica; the report's totals count it once, on
                    // the coordinator.
                    let (r, s) = sc.apply_death(switch);
                    repairs += r + s;
                    if coordinator {
                        vcs_rerouted += r;
                        vcs_stranded += s;
                    }
                }
                ControlMark::Epoch => {
                    // Sample the epoch's congestion evidence, settle
                    // dropped cells' credits so producers never wedge
                    // on cells that will never arrive, and act on the
                    // verdict every replica reaches from the same
                    // merged signal.
                    let sig = sc.sample_epoch_signal();
                    settle(&sc, &mut reclaims);
                    let merged = peers.control(&sc, sig, &mut reclaims);
                    let verdict = controller.observe(&merged.into_signal());
                    sc.apply_verdict(verdict, next);
                }
            }
        }
        t = next;
    }
    // The final boundary equals `end`: one last pass executes any
    // event parked exactly on it (injected arrivals included).
    sc.sim.run_until(end);
    // Settle drops from the drain window (and, with the monitor off,
    // the whole run) so attribution covers every dropped cell; the
    // reclaims cross once more, since the ledger feeds the report.
    settle(&sc, &mut reclaims);
    peers.control(&sc, EpochSignal::default(), &mut reclaims);
    let slice = peers.slice(repairs);
    sc.collect(vcs_rerouted, vcs_stranded, admitted_dropped, slice)
}

/// Runs `spec` across up to `requested` region shards and reports.
///
/// The effective shard count may be lower (see
/// [`ExecPlan::partition`] for the clamp); at one shard this is exactly
/// the classic [`crate::build::run`]. The report's canonical JSON is
/// byte-identical at every shard count; only its `shards` block
/// differs.
///
/// # Panics
///
/// If any shard panics, after every worker has stopped, with a message
/// naming the shard, the epoch and the simulated time it had reached.
pub fn run_sharded(spec: &ScenarioSpec, requested: usize) -> ScenarioReport {
    let plan = ExecPlan::partition(spec, requested);
    if plan.shards == 1 {
        return run(spec);
    }
    let outcomes = on_threads(mesh(plan.shards), |me, links, progress| {
        drive(compile_for(spec, plan.shard_plan(me)), links, progress)
    });
    assemble(spec, outcomes.unwrap_or_else(|failure| panic!("{failure}")))
}

/// One sealed record crossing an epoch boundary: a data cell on a cut
/// trunk, or a credit return for a circuit whose window lives on the
/// receiving shard.
enum SealedMsg {
    /// A cell sealed to its 53 wire bytes, tagged with the cut trunk it
    /// crossed and the arrival time the sending link's serialization
    /// already fixed.
    Cell {
        trunk: u32,
        arrival: Ns,
        bytes: [u8; CELL_SIZE],
    },
    Credit(CreditReturn),
}

/// What one shard sends one peer in an exchange round: at an epoch
/// boundary, the sealed records addressed to that peer; at a control
/// mark, the sender's congestion sample and the drop reclaims it owes
/// other shards' windows (broadcast: only the window's owner applies
/// them).
#[derive(Default)]
pub(crate) struct Post {
    sealed: Vec<SealedMsg>,
    signal: EpochSignal,
    reclaims: Vec<(Vci, u64)>,
}

/// One shard's end of its channels to one peer: `(peer, to it, from
/// it)`.
pub(crate) type Link = (usize, Sender<Post>, Receiver<Post>);

/// How far a worker has got: epochs closed, and the simulated time of
/// the last boundary. Kept outside the worker so a panic can report it.
pub(crate) type Progress = StdCell<(u64, Ns)>;

/// The links of `k` fully connected shards: entry `i` holds shard `i`'s
/// channel ends to every peer, in shard order.
fn mesh(k: usize) -> Vec<Vec<Link>> {
    let mut links: Vec<Vec<Link>> = (0..k).map(|_| Vec::new()).collect();
    for a in 0..k {
        for b in a + 1..k {
            let (to_b, from_a) = mpsc::channel();
            let (to_a, from_b) = mpsc::channel();
            links[a].push((b, to_b, from_b));
            links[b].push((a, to_a, from_a));
        }
    }
    links
}

/// One exchange round: sends each peer its post from `posts` (indexed
/// by shard), then replaces it with the post received from that peer,
/// receiving in shard order. A peer that panicked has dropped its
/// channel ends: the send to it fails, which is ignored, and the
/// receive from it fails once its earlier posts are read, which
/// unwinds this shard with [`Aborted`].
fn round(links: &[Link], posts: &mut [Post]) {
    for (peer, tx, _) in links {
        let _ = tx.send(mem::take(&mut posts[*peer]));
    }
    for (peer, _, rx) in links {
        posts[*peer] = rx
            .recv()
            .unwrap_or_else(|_| panic::resume_unwind(Box::new(Aborted)));
    }
}

/// One shard's side of the exchange: its links, the outbound cut
/// trunks and credit buffers it seals from, and its counters.
struct Peers {
    links: Vec<Link>,
    trunks: Vec<TrunkDir>,
    /// `(trunk index, export buffer, receiving shard)` per outbound cut
    /// trunk.
    outbound: Vec<(usize, ExportBuffer, usize)>,
    credit_out: Vec<CreditExportBuf>,
    /// One post per shard, this shard's own unused: filled before a
    /// round, holding the peers' posts after it. Received vectors are
    /// drained in place and sent again next round, so record buffers
    /// circulate instead of being reallocated every epoch.
    posts: Vec<Post>,
    /// The longest epoch allowed: unbounded without cut trunks.
    lookahead: Ns,
    slice: ShardSlice,
}

impl Peers {
    fn new(sc: &Scenario, links: Vec<Link>) -> Peers {
        let plan = sc.plan();
        let owner = |s| plan.owner_of(s);
        let trunks: Vec<TrunkDir> = sc.sys.net.trunks().to_vec();
        // Redirect the transmit side of every outbound cut trunk into an
        // export buffer: cells this shard sends to a peer's switch are
        // captured with their arrival times instead of delivered locally.
        // Pre-sized so the steady-state epoch loop never grows them.
        let mut outbound = Vec::new();
        for (ti, t) in trunks.iter().enumerate() {
            if owner(t.from) == plan.shard && owner(t.to) != plan.shard {
                let buf: ExportBuffer = Rc::new(RefCell::new(Vec::with_capacity(256)));
                sc.sys
                    .net
                    .with_switch_output(t.from, t.port, |l| l.set_export(buf.clone()));
                outbound.push((ti, buf, owner(t.to)));
            }
        }
        // Outbound credit-return records, addressed by producer shard.
        // The slot for this shard stays empty by construction (a
        // locally-owned window gets a delayed in-process return).
        let credit_out = sc.credit_out.clone();
        for buf in &credit_out {
            buf.borrow_mut().reserve(64);
        }
        // Conservative lookahead: the global minimum over *all* cut
        // trunks (every shard computes the same value), never the local
        // outbound set — shards must agree on the epoch boundaries.
        let lookahead = trunks
            .iter()
            .filter(|t| owner(t.from) != owner(t.to))
            .map(|t| ((CELL_SIZE as u64 * 8 * SEC / t.rate_bps) + t.prop_delay).max(1))
            .min();
        assert!(
            links.is_empty() || lookahead.is_some(),
            "a multi-shard plan over a connected fabric has cut trunks"
        );
        Peers {
            slice: ShardSlice {
                lookahead_ns: lookahead.unwrap_or(0),
                cut_trunks: outbound.len() as u64,
                ..ShardSlice::default()
            },
            posts: (0..plan.shards).map(|_| Post::default()).collect(),
            lookahead: lookahead.unwrap_or(Ns::MAX),
            links,
            trunks,
            outbound,
            credit_out,
        }
    }

    /// One exchange round over `posts`; only a round with a peer counts.
    fn round(&mut self) {
        self.slice.barrier_waits += u64::from(!self.links.is_empty());
        round(&self.links, &mut self.posts);
    }

    /// Closes the epoch ending at `boundary` (the engine is parked on
    /// it): sends each peer this shard's cut crossings and credit
    /// returns for it, and accepts theirs.
    fn exchange(&mut self, sc: &mut Scenario, boundary: Ns) {
        // Seal this epoch's cut crossings. Trunk order, and send order
        // within a trunk, are deterministic.
        for (ti, buf, dest) in &self.outbound {
            let sealed = &mut self.posts[*dest].sealed;
            for (arrival, cell) in buf.borrow_mut().drain(..) {
                self.slice.cells_exported += 1;
                sealed.push(SealedMsg::Cell {
                    trunk: *ti as u32,
                    arrival,
                    bytes: cell.to_bytes(),
                });
            }
        }
        // Credit returns for windows living on other shards ride the
        // same posts. Their application times already clear the
        // boundary: delivery happened strictly before it, and the
        // return delay is never below the trunk lookahead.
        for (dest, buf) in self.credit_out.iter().enumerate() {
            for r in buf.borrow_mut().drain(..) {
                debug_assert_ne!(dest, sc.plan().shard, "no export path to our own windows");
                debug_assert!(r.apply_at >= boundary, "credit return clears the boundary");
                self.slice.credits_crossed += 1;
                self.posts[dest].sealed.push(SealedMsg::Credit(r));
            }
        }
        self.round();

        // Accept peers' records in shard order. Cells are injected into
        // this shard's replica of the transmitting link — delivery lands
        // on the trunk's own lane, so per-lane order matches the
        // single-shard schedule exactly. Credit records are parked on
        // their windows until their application times.
        for (peer, _, _) in &self.links {
            for msg in self.posts[*peer].sealed.drain(..) {
                match msg {
                    SealedMsg::Cell {
                        trunk,
                        arrival,
                        bytes,
                    } => {
                        self.slice.cells_imported += 1;
                        let cell = Cell::from_bytes(&bytes).expect("sealed cell round-trips");
                        let tr = &self.trunks[trunk as usize];
                        let sim = &mut sc.sim;
                        sc.sys
                            .net
                            .with_switch_output(tr.from, tr.port, |l| l.inject(sim, arrival, cell));
                    }
                    SealedMsg::Credit(r) => sc
                        .credit_window(r.dst_vci)
                        .expect("credit record addressed to the window's owner")
                        .borrow_mut()
                        .release_at(r.apply_at, r.n),
                }
            }
        }
    }

    /// Sends every peer this shard's congestion sample and the drop
    /// reclaims it owes other shards' windows (draining `reclaims`),
    /// applies the peers' reclaims, and returns the merged signal.
    fn control(
        &mut self,
        sc: &Scenario,
        sig: EpochSignal,
        reclaims: &mut Vec<(Vci, u64)>,
    ) -> EpochSignal {
        debug_assert!(
            !self.links.is_empty() || reclaims.is_empty(),
            "one shard owns every window"
        );
        for (peer, _, _) in &self.links {
            let post = &mut self.posts[*peer];
            post.signal = sig;
            post.reclaims.clone_from(reclaims);
        }
        reclaims.clear();
        self.round();
        // Fold the peers' samples into this shard's (the merge is
        // associative and commutative, so the order is immaterial) and
        // apply their reclaims, in shard order, to any window this
        // shard owns.
        let mut merged = sig;
        for (peer, _, _) in &self.links {
            let post = &mut self.posts[*peer];
            merged.merge(&post.signal);
            for (vci, n) in post.reclaims.drain(..) {
                if let Some(w) = sc.credit_window(vci) {
                    w.borrow_mut().reclaim(n);
                }
            }
        }
        merged
    }

    /// This shard's runtime counters for the report's `shards` block,
    /// given the circuits replicated switch-death repair walked. A lone
    /// shard replicates nothing, so its slice stays all-zero.
    fn slice(self, repairs_replicated: u64) -> ShardSlice {
        ShardSlice {
            repairs_replicated: if self.links.is_empty() {
                0
            } else {
                repairs_replicated
            },
            ..self.slice
        }
    }
}

/// The unwind payload of a worker stopped because a peer panicked.
struct Aborted;

/// Runs `f` for participants `0..k`, one per input, participant 0 on
/// this thread. A participant that panics drops its input's senders,
/// so the rest stop at their next receive; once all have stopped, the
/// first panic comes back as an error naming the participant, its
/// epoch and its simulated time.
fn on_threads<L: Send, T: Send>(
    inputs: Vec<L>,
    f: impl Fn(usize, L, &Progress) -> T + Sync,
) -> Result<Vec<T>, String> {
    let failure = OnceLock::new();
    let participant = |me: usize, input: L| {
        let progress = Progress::default();
        let payload = match panic::catch_unwind(AssertUnwindSafe(|| f(me, input, &progress))) {
            Ok(out) => return Some(out),
            Err(payload) => payload,
        };
        if !payload.is::<Aborted>() {
            let (epoch, at) = progress.get();
            let what = (payload.downcast_ref::<String>().map(String::as_str))
                .or(payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            // The first panic is the cause; any later one is a
            // consequence, so a failed `set` is ignored.
            let _ = failure.set(format!(
                "shard {me} panicked in epoch {epoch} (simulated time {at} ns): {what}"
            ));
        }
        None
    };
    let outs: Vec<Option<T>> = thread::scope(|s| {
        let participant = &participant;
        let mut inputs = inputs.into_iter().enumerate();
        let (me, first) = inputs.next().expect("at least one participant");
        let handles: Vec<_> = inputs
            .map(|(i, input)| s.spawn(move || participant(i, input)))
            .collect();
        let mut outs = vec![participant(me, first)];
        outs.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("panics are caught")),
        );
        outs
    });
    match failure.into_inner() {
        Some(msg) => Err(msg),
        None => Ok(outs.into_iter().map(|o| o.expect("no failure")).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use std::sync::mpsc;
    use std::time::Duration;

    /// The tentpole's determinism bar, in-crate: the canonical report
    /// of a small preset is byte-identical at 1, 2 and 4 shards, and
    /// the per-shard event counts sum to the 1-shard total.
    #[test]
    fn preset_is_shard_count_invariant() {
        // videophone-wall: four fabric switches, so four real shards.
        let spec = presets::by_name("videophone-wall").expect("preset");
        let base = run_sharded(&spec, 1);
        let two = run_sharded(&spec, 2);
        let four = run_sharded(&spec, 4);
        assert_eq!(base.to_json_canonical(), two.to_json_canonical());
        assert_eq!(base.to_json_canonical(), four.to_json_canonical());
        assert_eq!(two.shards.len(), 2);
        assert_eq!(four.shards.len(), 4);
        for r in [&two, &four] {
            let sum: u64 = r.shards.iter().map(|s| s.events).sum();
            assert_eq!(sum, base.events_executed, "event count is invariant");
            assert!(r.shards.iter().all(|s| s.barrier_waits > 0));
            assert!(r.shards.iter().all(|s| s.lookahead_ns > 0));
            let exported: u64 = r.shards.iter().map(|s| s.cells_exported).sum();
            let imported: u64 = r.shards.iter().map(|s| s.cells_imported).sum();
            assert_eq!(exported, imported, "no cell lost between shards");
            assert!(exported > 0, "a mesh city must cross the cut");
        }
    }

    /// The control plane shards: a sustained-overload preset — live
    /// backpressure, congestion epochs, renegotiation and a best-effort
    /// blast — runs unclamped at four shards, crosses credits at the
    /// cut, and produces the byte-identical canonical report.
    #[test]
    fn backpressure_preset_shards_without_clamping() {
        let spec = presets::by_name("sustained-3x").expect("preset");
        let plan = ExecPlan::partition(&spec, 4);
        assert_eq!(plan.shards, 4);
        assert!(plan.clamp_reason.is_none(), "no feature clamp remains");
        let base = run_sharded(&spec, 1);
        let four = run_sharded(&spec, 4);
        assert_eq!(base.to_json_canonical(), four.to_json_canonical());
        assert_eq!(four.shards.len(), 4);
        let crossed: u64 = four.shards.iter().map(|s| s.credits_crossed).sum();
        assert!(crossed > 0, "cut-crossing circuits sealed credit returns");
    }

    /// A lone shard is the zero-peer case: its slice counts no exchange
    /// round, no lookahead, no cut trunk, no crossed credit and no
    /// replicated repair — even when a switch dies (nemesis-storm) or
    /// congestion epochs tick (sustained-3x).
    #[test]
    fn lone_shard_slice_is_all_zero() {
        let storm = presets::by_name("nemesis-storm").expect("preset");
        let sustained = presets::by_name("sustained-3x").expect("preset");
        for spec in [storm.scale_sessions(0.5), sustained] {
            let r = run(&spec);
            if spec.name == "nemesis-storm" {
                assert!(r.vcs_rerouted + r.vcs_stranded > 0, "a repair ran");
            }
            let [s] = &r.shards[..] else {
                panic!("{}: one slice per run", spec.name)
            };
            let counters = (
                s.barrier_waits,
                s.lookahead_ns,
                s.cut_trunks,
                s.credits_crossed,
                s.repairs_replicated,
            );
            assert_eq!(counters, (0, 0, 0, 0, 0), "{}", spec.name);
        }
    }

    /// A participant that panics mid-run stops its peers: `k` of them
    /// exchange empty posts over the channel mesh in lockstep epochs
    /// until the last one panics at epoch 5; the run ends well within
    /// the deadline and names the panicking participant, its epoch and
    /// its boundary time.
    #[test]
    fn panicking_participant_stops_its_peers() {
        for k in [2usize, 4] {
            let msg = within_deadline(move || {
                on_threads(mesh(k), move |me, links, progress| {
                    let mut posts: Vec<Post> = (0..k).map(|_| Post::default()).collect();
                    for epoch in 0..1_000_000u64 {
                        if me == k - 1 && epoch == 5 {
                            panic!("injected");
                        }
                        round(&links, &mut posts);
                        progress.set((epoch + 1, (epoch + 1) * 10));
                    }
                })
            });
            let want = format!(
                "shard {} panicked in epoch 5 (simulated time 50 ns): injected",
                k - 1
            );
            assert_eq!(msg, want);
        }
    }

    /// A participant that panics between control exchanges stops its
    /// peers, which are blocked receiving its congestion sample: real
    /// shards of a compiled city run three control rounds, then the
    /// last one panics instead of sending its fourth.
    #[test]
    fn panic_in_control_exchange_stops_its_peers() {
        let spec = presets::by_name("videophone-wall").expect("preset");
        for k in [2usize, 4] {
            let spec = spec.clone();
            let msg = within_deadline(move || {
                let plan = ExecPlan::partition(&spec, k);
                on_threads(mesh(k), |me, links, progress| {
                    let sc = compile_for(&spec, plan.shard_plan(me));
                    let mut peers = Peers::new(&sc, links);
                    for epoch in 0..1_000_000u64 {
                        if me == k - 1 && epoch == 3 {
                            panic!("injected in control");
                        }
                        peers.control(&sc, EpochSignal::default(), &mut Vec::new());
                        progress.set((epoch + 1, epoch + 1));
                    }
                })
            });
            let want = format!(
                "shard {} panicked in epoch 3 (simulated time 3 ns): injected in control",
                k - 1
            );
            assert_eq!(msg, want);
        }
    }

    /// Runs `f` on its own thread and returns the failure it reports,
    /// failing the test if that takes longer than 20 s.
    fn within_deadline(f: impl FnOnce() -> Result<Vec<()>, String> + Send + 'static) -> String {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || tx.send(f().map(|_| ())).unwrap());
        rx.recv_timeout(Duration::from_secs(20))
            .expect("peers of a panicking participant must not hang")
            .expect_err("the panic is reported")
    }
}
