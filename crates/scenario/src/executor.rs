//! The epoch driver and its two transports.
//!
//! Every run — one thread or many — goes through one driver (`drive`):
//! it runs a compiled shard in epochs, pausing at each boundary its
//! transport asks for and at every *control mark* (switch deaths and
//! congestion-epoch boundaries), and ends with `Scenario::collect`. What
//! differs between a lone shard and a threaded one is only how the
//! shard talks to its peers — the transport:
//!
//! * `Solo`, the one-shard transport behind [`Scenario::run`], has no
//!   peers: no lookahead bound (it stops only at marks and at the end),
//!   nothing to publish, no barrier, and its merged congestion signal
//!   is its own sample.
//! * `Threaded`, one worker of [`run_sharded`], holds the mailboxes,
//!   control slots and barrier its peers share. [`run_sharded`]
//!   partitions the fabric into region shards
//!   ([`crate::partition::ExecPlan`]) and compiles a full replica of the
//!   world per worker thread ([`crate::build::compile_for`]). The
//!   epochs are conservative lookahead steps:
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
//!    them to wire bytes and posts them to per-pair mailboxes. Credit
//!    returns for cut-crossing circuits ride the same mailboxes as
//!    sealed [`CreditReturn`] records: their application time is the
//!    delivery event time plus the circuit's return delay, which is
//!    never below the trunk lookahead, so a record sealed in epoch
//!    `[t, b)` always applies at or after `b` — the conservative bound
//!    covers the control plane for free.
//! 3. A barrier; then every shard drains its inbox in sender order,
//!    injecting each sealed cell into its own replica of the
//!    transmitting link (delivery lands on the trunk's own scheduling
//!    lane, reproducing the exact per-lane event order the single-shard
//!    run would have used) and parking each credit record on its
//!    window. A second barrier closes the epoch.
//!
//! At a mark, death repair replays identically on every shard's full
//! `Network` replica; a congestion epoch samples a per-shard
//! [`EpochSignal`], and the threaded transport exchanges the samples
//! (and any cross-shard drop reclaims) through per-shard control slots
//! between two barriers, so every replica's controller sees the
//! identical merged signal — renegotiation verdicts, broker ledgers and
//! grants stay byte-identical at any shard count.
//!
//! Determinism: ownership, lane assignment, the lookahead and the mark
//! timeline are pure functions of the spec, arrival times come from the
//! sending link's serialization arithmetic (identical in every mode),
//! and ties at equal timestamps break on compile-time lane ids. The
//! canonical report is therefore byte-identical at any `--shards`; CI
//! diffs it.
//!
//! A shard that panics aborts the barrier, so its peers stop at their
//! next wait instead of waiting forever; [`run_sharded`] then panics
//! naming the shard, its epoch and the simulated time.

use std::cell::{Cell as StdCell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};
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

/// How one shard's epoch loop talks to its peers.
pub(crate) trait Transport {
    /// The longest epoch the transport allows.
    fn lookahead(&self) -> Ns;
    /// Closes the epoch ending at `boundary` (the engine is parked on
    /// it): publishes this shard's cut crossings and credit returns and
    /// accepts its peers'.
    fn exchange(&mut self, sc: &mut Scenario, boundary: Ns);
    /// Publishes this shard's congestion sample and the drop reclaims
    /// it owes other shards' windows (draining `reclaims`), applies the
    /// peers' reclaims, and returns the merged signal.
    fn control(
        &mut self,
        sc: &Scenario,
        sig: EpochSignal,
        reclaims: &mut Vec<(Vci, u64)>,
    ) -> EpochSignal;
    /// This shard's runtime counters for the report's `shards` block,
    /// given the circuits replicated switch-death repair walked.
    fn slice(&mut self, repairs_replicated: u64) -> ShardSlice;
}

/// Runs a compiled shard to its end time over `tr` and collects it.
///
/// Each epoch runs the engine strictly before the next boundary — the
/// transport's lookahead step, the next control mark or the end,
/// whichever is first — parks the clock on it, and lets the transport
/// exchange. Events parked exactly on a mark (injected arrivals
/// included) then run before the mark acts, so a mark sees the same
/// state as an inclusive `run_until`. An engine already advanced past
/// a boundary simply finds nothing left to run before it.
pub(crate) fn drive(mut sc: Scenario, tr: &mut impl Transport) -> ShardOutcome {
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
        let next = t.saturating_add(tr.lookahead()).min(end).min(next_mark);
        // Strictly before the boundary, then park the clock exactly on
        // it, so cells injected by the exchange can never precede it.
        sc.sim.run_before(next);
        tr.exchange(&mut sc, next);
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
                    let merged = tr.control(&sc, sig, &mut reclaims);
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
    tr.control(&sc, EpochSignal::default(), &mut reclaims);
    let slice = tr.slice(repairs);
    sc.collect(vcs_rerouted, vcs_stranded, admitted_dropped, slice)
}

/// The one-shard transport: no peers, so no lookahead bound, nothing to
/// publish, no barrier, and the merged signal is the shard's own.
pub(crate) struct Solo;

impl Transport for Solo {
    fn lookahead(&self) -> Ns {
        Ns::MAX
    }

    fn exchange(&mut self, _: &mut Scenario, _: Ns) {}

    fn control(
        &mut self,
        _: &Scenario,
        sig: EpochSignal,
        reclaims: &mut Vec<(Vci, u64)>,
    ) -> EpochSignal {
        debug_assert!(reclaims.is_empty(), "one shard owns every window");
        sig
    }

    fn slice(&mut self, _: u64) -> ShardSlice {
        ShardSlice::default()
    }
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
    let k = plan.shards;
    let ex = Exchange {
        mailboxes: (0..k)
            .map(|_| (0..k).map(|_| Mutex::new(Vec::new())).collect())
            .collect(),
        control: (0..k).map(|_| Mutex::new(ControlSlot::default())).collect(),
        barrier: AbortBarrier::new(k),
    };
    let outcomes = on_threads(k, &ex.barrier, |me, progress| {
        let mut sc = compile_for(spec, plan.shard_plan(me));
        let mut tr = Threaded::new(&mut sc, &ex, progress);
        drive(sc, &mut tr)
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

/// One shard's contribution to a control exchange: its slice of the
/// epoch signal and any reclaim records for drops it observed on
/// circuits whose windows live elsewhere. Written by the owner before
/// the exchange barrier, read by everyone after it.
#[derive(Default)]
struct ControlSlot {
    signal: EpochSignal,
    reclaims: Vec<(Vci, u64)>,
}

/// What the workers of one threaded run share.
struct Exchange {
    /// `mailboxes[from][to]` carries sealed records from shard `from`
    /// to shard `to` across one epoch boundary.
    mailboxes: Vec<Vec<Mutex<Vec<SealedMsg>>>>,
    control: Vec<Mutex<ControlSlot>>,
    barrier: AbortBarrier,
}

/// How far a worker has got: epochs closed, and the simulated time of
/// the last boundary. Kept outside the worker so a panic can report it.
type Progress = StdCell<(u64, Ns)>;

/// The threaded transport: one worker's end of an [`Exchange`].
struct Threaded<'a> {
    me: usize,
    ex: &'a Exchange,
    progress: &'a Progress,
    trunks: Vec<TrunkDir>,
    /// `(trunk index, export buffer, receiving shard)` per outbound cut
    /// trunk.
    outbound: Vec<(usize, ExportBuffer, usize)>,
    credit_out: Vec<CreditExportBuf>,
    /// Reusable drain buffer: swap a mailbox's contents out under the
    /// lock, process outside it. `clear` + `append` retains both
    /// vectors' capacities, so the steady-state loop allocates nothing.
    drain_buf: Vec<SealedMsg>,
    slice: ShardSlice,
}

impl<'a> Threaded<'a> {
    fn new(sc: &mut Scenario, ex: &'a Exchange, progress: &'a Progress) -> Threaded<'a> {
        let me = sc.plan().shard;
        let owner = sc.plan().owner.clone();
        let trunks: Vec<TrunkDir> = sc.sys.net.trunks().to_vec();
        // Redirect the transmit side of every outbound cut trunk into an
        // export buffer: cells this shard sends to a peer's switch are
        // captured with their arrival times instead of delivered locally.
        // Pre-sized so the steady-state epoch loop never grows them.
        let mut outbound = Vec::new();
        for (ti, t) in trunks.iter().enumerate() {
            if owner[t.from] == me && owner[t.to] != me {
                let buf: ExportBuffer = Rc::new(RefCell::new(Vec::with_capacity(256)));
                sc.sys
                    .net
                    .with_switch_output(t.from, t.port, |l| l.set_export(buf.clone()));
                outbound.push((ti, buf, owner[t.to]));
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
            .filter(|t| owner[t.from] != owner[t.to])
            .map(|t| (CELL_SIZE as u64 * 8 * SEC / t.rate_bps) + t.prop_delay)
            .min()
            .expect("a multi-shard plan over a connected fabric has cut trunks")
            .max(1);
        Threaded {
            slice: ShardSlice {
                lookahead_ns: lookahead,
                cut_trunks: outbound.len() as u64,
                ..ShardSlice::default()
            },
            me,
            ex,
            progress,
            trunks,
            outbound,
            credit_out,
            drain_buf: Vec::new(),
        }
    }

    fn wait(&mut self) {
        self.ex.barrier.wait();
        self.slice.barrier_waits += 1;
    }
}

impl Transport for Threaded<'_> {
    fn lookahead(&self) -> Ns {
        self.slice.lookahead_ns
    }

    fn exchange(&mut self, sc: &mut Scenario, boundary: Ns) {
        let (me, ex) = (self.me, self.ex);
        // Publish: seal and post this epoch's cut crossings. Trunk
        // order, and send order within a trunk, are deterministic.
        for (ti, buf, dest) in &self.outbound {
            let mut cells = buf.borrow_mut();
            if cells.is_empty() {
                continue;
            }
            let mut mb = ex.mailboxes[me][*dest].lock().expect("mailbox lock");
            for (arrival, cell) in cells.drain(..) {
                self.slice.cells_exported += 1;
                mb.push(SealedMsg::Cell {
                    trunk: *ti as u32,
                    arrival,
                    bytes: cell.to_bytes(),
                });
            }
        }
        // Credit returns for windows living on other shards ride the
        // same mailboxes. Their application times already clear the
        // boundary: delivery happened strictly before it, and the
        // return delay is never below the trunk lookahead.
        for (dest, buf) in self.credit_out.iter().enumerate() {
            let mut records = buf.borrow_mut();
            if records.is_empty() {
                continue;
            }
            debug_assert_ne!(dest, me, "no export path to our own windows");
            let mut mb = ex.mailboxes[me][dest].lock().expect("mailbox lock");
            for r in records.drain(..) {
                debug_assert!(r.apply_at >= boundary, "credit return clears the boundary");
                self.slice.credits_crossed += 1;
                mb.push(SealedMsg::Credit(r));
            }
        }
        self.wait();

        // Drain: accept peers' records in sender order. Cells are
        // injected into this shard's replica of the transmitting link —
        // delivery lands on the trunk's own lane, so per-lane order
        // matches the single-shard schedule exactly. Credit records are
        // parked on their windows until their application times.
        for (sender, from_sender) in ex.mailboxes.iter().enumerate() {
            if sender == me {
                continue;
            }
            {
                let mut mb = from_sender[me].lock().expect("mailbox lock");
                self.drain_buf.clear();
                self.drain_buf.append(&mut mb);
            }
            for msg in self.drain_buf.drain(..) {
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
        // Close the epoch only once every shard has drained: a fast
        // peer must not start publishing the next epoch's cells into a
        // mailbox that is still being read.
        self.wait();
        self.progress.set((self.progress.get().0 + 1, boundary));
    }

    fn control(
        &mut self,
        sc: &Scenario,
        sig: EpochSignal,
        reclaims: &mut Vec<(Vci, u64)>,
    ) -> EpochSignal {
        {
            let mut slot = self.ex.control[self.me].lock().expect("control slot lock");
            slot.signal = sig;
            slot.reclaims.clear();
            slot.reclaims.append(reclaims);
        }
        self.wait();
        // Fold every shard's sample (the merge is associative and
        // commutative, folded in shard order) and apply peers' reclaims
        // to any window this shard owns.
        let mut merged = EpochSignal::default();
        for (i, slot) in self.ex.control.iter().enumerate() {
            let slot = slot.lock().expect("control slot lock");
            merged.merge(&slot.signal);
            if i != self.me {
                for &(vci, n) in &slot.reclaims {
                    if let Some(w) = sc.credit_window(vci) {
                        w.borrow_mut().reclaim(n);
                    }
                }
            }
        }
        // Nobody rewrites a slot until everyone has read it.
        self.wait();
        merged
    }

    fn slice(&mut self, repairs_replicated: u64) -> ShardSlice {
        ShardSlice {
            repairs_replicated,
            ..std::mem::take(&mut self.slice)
        }
    }
}

/// The unwind payload of a worker stopped because a peer panicked.
struct Aborted;

/// A reusable barrier that a panicking participant can abort.
/// `std::sync::Barrier` cannot be: a participant that never arrives
/// leaves the others waiting forever.
struct AbortBarrier {
    n: usize,
    /// `(arrived, generation, aborted)`.
    state: Mutex<(usize, u64, bool)>,
    cv: Condvar,
}

impl AbortBarrier {
    fn new(n: usize) -> AbortBarrier {
        AbortBarrier {
            n,
            state: Mutex::new((0, 0, false)),
            cv: Condvar::new(),
        }
    }

    /// Blocks until all `n` participants have arrived. If the barrier
    /// is aborted — before or during the wait — unwinds with [`Aborted`]
    /// instead.
    fn wait(&self) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if !s.2 {
            s.0 += 1;
            if s.0 == self.n {
                *s = (0, s.1 + 1, false);
                self.cv.notify_all();
                return;
            }
            let generation = s.1;
            s = self
                .cv
                .wait_while(s, |s| s.1 == generation && !s.2)
                .unwrap_or_else(PoisonError::into_inner);
            if s.1 != generation {
                return;
            }
        }
        drop(s);
        panic::resume_unwind(Box::new(Aborted));
    }

    /// Releases every current and future waiter with [`Aborted`].
    fn abort(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).2 = true;
        self.cv.notify_all();
    }
}

/// Runs `f` for participants `0..k`, participant 0 on this thread. A
/// participant that panics aborts `barrier`, so the rest stop at their
/// next wait; once all have stopped, the first panic comes back as an
/// error naming the participant, its epoch and its simulated time.
fn on_threads<T: Send>(
    k: usize,
    barrier: &AbortBarrier,
    f: impl Fn(usize, &Progress) -> T + Sync,
) -> Result<Vec<T>, String> {
    let failure = OnceLock::new();
    let participant = |me: usize| {
        let progress = Progress::default();
        let payload = match panic::catch_unwind(AssertUnwindSafe(|| f(me, &progress))) {
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
        barrier.abort();
        None
    };
    let outs: Vec<Option<T>> = thread::scope(|s| {
        let participant = &participant;
        let handles: Vec<_> = (1..k).map(|i| s.spawn(move || participant(i))).collect();
        let mut outs = vec![participant(0)];
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

    /// A participant that panics mid-run stops its peers: `k` of them
    /// cross the barrier in lockstep epochs until the last one panics
    /// at epoch 5; the run ends well within the deadline and names the
    /// panicking participant, its epoch and its boundary time.
    #[test]
    fn panicking_participant_stops_its_peers() {
        for k in [2usize, 4] {
            let (tx, rx) = mpsc::channel();
            thread::spawn(move || {
                let barrier = AbortBarrier::new(k);
                let result = on_threads(k, &barrier, |me, progress| {
                    for epoch in 0..1_000_000u64 {
                        if me == k - 1 && epoch == 5 {
                            panic!("injected");
                        }
                        barrier.wait();
                        progress.set((epoch + 1, (epoch + 1) * 10));
                    }
                });
                tx.send(result.map(|_| ())).unwrap();
            });
            let result = rx
                .recv_timeout(Duration::from_secs(20))
                .expect("peers of a panicking participant must not hang");
            let msg = result.expect_err("the panic is reported");
            let want = format!(
                "shard {} panicked in epoch 5 (simulated time 50 ns): injected",
                k - 1
            );
            assert_eq!(msg, want);
        }
    }
}
