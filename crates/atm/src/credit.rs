//! Credit-based per-VC flow control.
//!
//! Admission control (the signalling ledgers) bounds *average* rates;
//! it cannot stop a transient burst from growing a switch queue until
//! cells drop. Credits close that gap by construction: the consuming
//! endpoint grants a window of `window` cells, the producer spends one
//! credit per cell **before** it transmits, and the consumer returns
//! each credit as the cell drains off the wire. A producer with an
//! empty window holds its whole cell-train at the source, so the number
//! of this circuit's cells anywhere between producer and consumer —
//! link trains, switch queues, fabric crossings — never exceeds the
//! window. Σ(windows through a queue) is therefore a hard bound on that
//! queue's depth, independent of offered load.
//!
//! Producers acquire at *frame* granularity (a whole AAL5 frame's worth
//! of cells or nothing), so a stall never strands a half-segmented
//! frame in the fabric; see `Camera::send_frame`.
//!
//! Cells dropped in the fabric (outage windows, or overflow on circuits
//! that opted out of credits) never reach the consumer, so their
//! credits would leak and wedge the producer. Drop sites count drops
//! per in-VCI ([`crate::switch::Switch::take_dropped_by_vci`],
//! [`crate::link::Link::take_dropped_by_vci`]) and the control plane
//! returns them via [`CreditWindow::reclaim`] at each congestion epoch.
//! Conservation is then exact and checkable:
//! `consumed == in_flight + returned + reclaimed`.
//!
//! Credits returned across a trunk are not instantaneous: a circuit
//! whose producer and consumer sit on different switches models the
//! reverse crossing as a fixed per-spec delay (one trunk cell time plus
//! propagation). The consumer-side [`CreditSink`] records such returns
//! with [`CreditWindow::release_at`] and the producer drains them with
//! [`CreditWindow::try_acquire_at`] — or, when the producer's window
//! lives on another executor shard, the return becomes a sealed
//! [`CreditReturn`] record for the epoch exchange. Because the delay is
//! never smaller than the sharded executor's trunk lookahead, a record
//! always reaches the producer's shard before its `apply_at` tick, and
//! the single-shard and sharded runs agree byte for byte.

use std::cell::RefCell;
use std::rc::Rc;

use pegasus_sim::engine::Simulator;
use pegasus_sim::time::Ns;

use crate::cell::{Cell, Vci};
use crate::link::{CellSink, SinkRef};

/// A shared handle on one circuit's credit window: the producer holds
/// one clone (to acquire), the consumer-side [`CreditSink`] another (to
/// release), the control plane a third (to reclaim and read stats).
pub type CreditRef = Rc<RefCell<CreditWindow>>;

/// A sealed credit-return record: `n` credits for the circuit delivered
/// under `dst_vci`, applicable at virtual time `apply_at`. Produced by
/// a [`CreditSink`] registration in export mode when the circuit's
/// window lives on another executor shard; the owning shard looks the
/// record up by `dst_vci` and applies it with
/// [`CreditWindow::release_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreditReturn {
    /// The destination VCI the cells arrived under (the producer-side
    /// registry key).
    pub dst_vci: Vci,
    /// Virtual time at which the credits reach the producer.
    pub apply_at: Ns,
    /// Number of credits returned.
    pub n: u64,
}

/// Shared buffer a [`CreditSink`] export registration appends
/// [`CreditReturn`] records to; the executor drains it at each epoch
/// boundary into its post to the producer's shard.
pub type CreditExportBuf = Rc<RefCell<Vec<CreditReturn>>>;

/// One virtual circuit's credit state.
///
/// All counters are cumulative cell counts; the invariant
/// [`CreditWindow::conserved`] ties them together.
#[derive(Debug)]
pub struct CreditWindow {
    /// Credits granted by the consumer: the hard cap on in-flight cells.
    window: u64,
    /// Cells currently between producer and consumer.
    in_flight: u64,
    /// Total credits ever spent ([`CreditWindow::try_acquire`]).
    consumed: u64,
    /// Total credits returned by the consumer ([`CreditWindow::release`]).
    returned: u64,
    /// Credits reclaimed for cells the fabric dropped
    /// ([`CreditWindow::reclaim`]).
    reclaimed: u64,
    /// Failed acquires, cumulative (each is one whole frame held back).
    stalls: u64,
    /// Failed acquires since the last [`CreditWindow::take_epoch_stalls`].
    epoch_stalls: u64,
    /// High-water mark of `in_flight`.
    peak_in_flight: u64,
    /// Returns scheduled but not yet applied: `(apply_at, n)` for
    /// credits still travelling back across a trunk. Entries commute
    /// (each is a pure counter increment), so application order within
    /// a drain does not matter.
    pending: Vec<(Ns, u64)>,
}

impl CreditWindow {
    /// A window of `window` cells, shared and empty of traffic.
    pub fn shared(window: u64) -> CreditRef {
        Rc::new(RefCell::new(CreditWindow {
            window,
            in_flight: 0,
            consumed: 0,
            returned: 0,
            reclaimed: 0,
            stalls: 0,
            epoch_stalls: 0,
            peak_in_flight: 0,
            pending: Vec::new(),
        }))
    }

    /// Spends `n` credits if the window has room for all of them;
    /// otherwise spends nothing and records a stall. All-or-nothing is
    /// what gives frame granularity: a producer asks for a whole AAL5
    /// frame's cells at once.
    pub fn try_acquire(&mut self, n: u64) -> bool {
        if self.in_flight + n <= self.window {
            self.in_flight += n;
            self.consumed += n;
            self.peak_in_flight = self.peak_in_flight.max(self.in_flight);
            true
        } else {
            self.stalls += 1;
            self.epoch_stalls += 1;
            false
        }
    }

    /// Returns `n` credits as cells drain at the consumer.
    pub fn release(&mut self, n: u64) {
        debug_assert!(n <= self.in_flight, "released more credits than in flight");
        self.in_flight = self.in_flight.saturating_sub(n);
        self.returned += n;
    }

    /// Schedules `n` credits to come back at `apply_at`: the consumer
    /// has drained the cells, but the return itself still has a trunk
    /// to cross. The credits count as in flight until
    /// [`CreditWindow::advance_to`] passes `apply_at`.
    pub fn release_at(&mut self, apply_at: Ns, n: u64) {
        self.pending.push((apply_at, n));
    }

    /// Applies every pending return due at or before `now`. The scan is
    /// unordered (`swap_remove`) because pending entries commute.
    pub fn advance_to(&mut self, now: Ns) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].0 <= now {
                let (_, n) = self.pending.swap_remove(i);
                self.release(n);
            } else {
                i += 1;
            }
        }
    }

    /// [`CreditWindow::try_acquire`] with the clock attached: applies
    /// the returns that are due first, so a producer never stalls on
    /// credits that have already arrived.
    pub fn try_acquire_at(&mut self, now: Ns, n: u64) -> bool {
        self.advance_to(now);
        self.try_acquire(n)
    }

    /// Returns `n` credits for cells the fabric dropped (they will never
    /// reach the consumer, so [`CreditWindow::release`] can't).
    pub fn reclaim(&mut self, n: u64) {
        debug_assert!(n <= self.in_flight, "reclaimed more credits than in flight");
        self.in_flight = self.in_flight.saturating_sub(n);
        self.reclaimed += n;
    }

    /// The conservation invariant: every credit ever spent is either
    /// still in flight, returned by the consumer, or reclaimed after a
    /// drop.
    pub fn conserved(&self) -> bool {
        self.consumed == self.in_flight + self.returned + self.reclaimed
    }

    /// The granted window, in cells.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Cells currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Cumulative failed acquires.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Cumulative credits reclaimed after fabric drops.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed
    }

    /// High-water mark of in-flight cells (always `<=` the window).
    pub fn peak_in_flight(&self) -> u64 {
        self.peak_in_flight
    }

    /// Failed acquires since the last call; resets the epoch counter.
    /// This is the congestion signal the QoS control loop samples.
    pub fn take_epoch_stalls(&mut self) -> u64 {
        std::mem::take(&mut self.epoch_stalls)
    }
}

/// How a registered circuit's credits travel back to the producer.
#[derive(Debug)]
enum ReturnPath {
    /// Producer and consumer share a switch: the return is a local
    /// wire, credits come back the instant the cell drains.
    Immediate(CreditRef),
    /// Cross-switch circuit whose window lives in this address space:
    /// credits come back `delay` ns later (one reverse trunk crossing),
    /// parked in the window's pending list until they are due.
    Delayed { window: CreditRef, delay: Ns },
    /// Cross-switch circuit whose producer lives on another executor
    /// shard: the return becomes a [`CreditReturn`] record in `buf`,
    /// shipped through the epoch exchange and applied remotely.
    Export { delay: Ns, buf: CreditExportBuf },
}

/// The consumer side: wraps an endpoint's receive sink and returns one
/// credit per delivered cell on every registered circuit, before
/// forwarding the cell unchanged.
///
/// Registration is by *destination* VCI (the label the cell carries on
/// its final hop). A handful of circuits terminate at any one endpoint,
/// so the table is a linear scan.
pub struct CreditSink {
    inner: SinkRef,
    /// `(dst_vci, return path)` for every credited circuit ending here.
    windows: Vec<(Vci, ReturnPath)>,
}

impl CreditSink {
    /// Wraps `inner`, sharing the result as a [`SinkRef`].
    pub fn wrap(inner: SinkRef) -> Rc<RefCell<CreditSink>> {
        Rc::new(RefCell::new(CreditSink {
            inner,
            windows: Vec::new(),
        }))
    }

    fn push(&mut self, dst_vci: Vci, path: ReturnPath) {
        debug_assert!(
            self.windows.iter().all(|(v, _)| *v != dst_vci),
            "duplicate credit registration for VCI {dst_vci}"
        );
        self.windows.push((dst_vci, path));
    }

    /// Registers `window` for cells arriving with `dst_vci`; credits
    /// return immediately on delivery (same-switch circuits).
    pub fn register(&mut self, dst_vci: Vci, window: CreditRef) {
        self.push(dst_vci, ReturnPath::Immediate(window));
    }

    /// Registers `window` with a fixed return delay (cross-switch
    /// circuits whose producer lives in this address space).
    pub fn register_delayed(&mut self, dst_vci: Vci, window: CreditRef, delay: Ns) {
        self.push(dst_vci, ReturnPath::Delayed { window, delay });
    }

    /// Registers an export-only return path: the producer's window lives
    /// on another shard, so returns become [`CreditReturn`] records in
    /// `buf` for the executor to ship at the next epoch boundary.
    pub fn register_export(&mut self, dst_vci: Vci, delay: Ns, buf: CreditExportBuf) {
        self.push(dst_vci, ReturnPath::Export { delay, buf });
    }

    fn path_for(&self, vci: Vci) -> Option<&ReturnPath> {
        self.windows.iter().find(|(v, _)| *v == vci).map(|(_, p)| p)
    }
}

fn credit_back(path: &ReturnPath, dst_vci: Vci, now: Ns, n: u64) {
    match path {
        ReturnPath::Immediate(w) => w.borrow_mut().release(n),
        ReturnPath::Delayed { window, delay } => window.borrow_mut().release_at(now + delay, n),
        ReturnPath::Export { delay, buf } => buf.borrow_mut().push(CreditReturn {
            dst_vci,
            apply_at: now + delay,
            n,
        }),
    }
}

impl CellSink for CreditSink {
    fn deliver(&mut self, sim: &mut Simulator, cell: Cell) {
        if let Some(path) = self.path_for(cell.vci()) {
            credit_back(path, cell.vci(), sim.now(), 1);
        }
        self.inner.borrow_mut().deliver(sim, cell);
    }

    /// Batch returns coalesce per circuit and stamp the whole train
    /// with the batch's event time (not per-cell arrival times): a
    /// train can span an epoch boundary, and the train-end event time
    /// is the one timestamp both the single-shard and sharded runs
    /// agree on before the next epoch boundary.
    fn deliver_batch(&mut self, sim: &mut Simulator, cells: &mut Vec<(Ns, Cell)>) {
        let now = sim.now();
        for (vci, path) in &self.windows {
            let n = cells.iter().filter(|(_, c)| c.vci() == *vci).count() as u64;
            if n > 0 {
                credit_back(path, *vci, now, n);
            }
        }
        self.inner.borrow_mut().deliver_batch(sim, cells);
    }

    /// Credit bookkeeping reads only the event clock, so batching is
    /// safe exactly when the wrapped sink says it is.
    fn batch_capable(&self) -> bool {
        self.inner.borrow().batch_capable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::CaptureSink;

    #[test]
    fn acquire_is_all_or_nothing_and_bounded() {
        let w = CreditWindow::shared(10);
        assert!(w.borrow_mut().try_acquire(6));
        assert!(!w.borrow_mut().try_acquire(5), "6+5 exceeds the window");
        assert_eq!(w.borrow().in_flight(), 6, "failed acquire spent nothing");
        assert!(w.borrow_mut().try_acquire(4));
        assert_eq!(w.borrow().in_flight(), 10);
        assert_eq!(w.borrow().stalls(), 1);
        assert!(w.borrow().conserved());
    }

    #[test]
    fn release_and_reclaim_conserve() {
        let w = CreditWindow::shared(8);
        assert!(w.borrow_mut().try_acquire(8));
        w.borrow_mut().release(5);
        w.borrow_mut().reclaim(3);
        let w = w.borrow();
        assert_eq!(w.in_flight(), 0);
        assert!(w.conserved());
        assert_eq!(w.peak_in_flight(), 8);
    }

    #[test]
    fn epoch_stalls_reset_but_cumulative_stand() {
        let w = CreditWindow::shared(1);
        assert!(w.borrow_mut().try_acquire(1));
        assert!(!w.borrow_mut().try_acquire(1));
        assert!(!w.borrow_mut().try_acquire(1));
        assert_eq!(w.borrow_mut().take_epoch_stalls(), 2);
        assert_eq!(w.borrow_mut().take_epoch_stalls(), 0);
        assert_eq!(w.borrow().stalls(), 2);
    }

    #[test]
    fn credit_sink_releases_only_registered_vcis() {
        let mut sim = Simulator::new();
        let capture = CaptureSink::shared();
        let sink = CreditSink::wrap(capture.clone());
        let w = CreditWindow::shared(4);
        sink.borrow_mut().register(7, w.clone());
        assert!(w.borrow_mut().try_acquire(2));

        let mine = Cell::new(7);
        let other = Cell::new(9);
        sink.borrow_mut().deliver(&mut sim, mine.clone());
        sink.borrow_mut().deliver(&mut sim, other);
        assert_eq!(w.borrow().in_flight(), 1, "one credit back for VCI 7");

        let mut batch = vec![(0, mine)];
        sink.borrow_mut().deliver_batch(&mut sim, &mut batch);
        assert_eq!(w.borrow().in_flight(), 0);
        assert!(w.borrow().conserved());
        assert_eq!(capture.borrow().arrivals.len(), 3, "all cells forwarded");
    }

    #[test]
    fn delayed_returns_apply_only_when_due() {
        let w = CreditWindow::shared(2);
        assert!(w.borrow_mut().try_acquire_at(0, 2));
        w.borrow_mut().release_at(100, 1);
        w.borrow_mut().release_at(200, 1);
        // At t=50 nothing is due: both credits still count in flight.
        assert!(!w.borrow_mut().try_acquire_at(50, 1));
        // At t=100 the first return lands; conservation holds throughout.
        assert!(w.borrow_mut().try_acquire_at(100, 1));
        assert!(w.borrow().conserved());
        assert!(!w.borrow_mut().try_acquire_at(150, 1));
        assert!(w.borrow_mut().try_acquire_at(200, 1));
        assert_eq!(w.borrow().in_flight(), 2);
        assert!(w.borrow().conserved());
    }

    #[test]
    fn delayed_sink_parks_returns_until_due() {
        let mut sim = Simulator::new();
        let capture = CaptureSink::shared();
        let sink = CreditSink::wrap(capture.clone());
        let w = CreditWindow::shared(4);
        sink.borrow_mut().register_delayed(7, w.clone(), 50);
        assert!(w.borrow_mut().try_acquire(2));

        sink.borrow_mut().deliver(&mut sim, Cell::new(7));
        assert_eq!(w.borrow().in_flight(), 2, "return still crossing the trunk");
        assert!(!w.borrow_mut().try_acquire_at(49, 3));
        assert!(w.borrow_mut().try_acquire_at(50, 3), "due return applied");
        assert!(w.borrow().conserved());
    }

    #[test]
    fn export_sink_seals_coalesced_records() {
        let mut sim = Simulator::new();
        let capture = CaptureSink::shared();
        let sink = CreditSink::wrap(capture.clone());
        let buf: CreditExportBuf = Rc::new(RefCell::new(Vec::new()));
        sink.borrow_mut().register_export(7, 40, buf.clone());

        let mut batch = vec![(0, Cell::new(7)), (1, Cell::new(7)), (2, Cell::new(9))];
        sink.borrow_mut().deliver_batch(&mut sim, &mut batch);
        sink.borrow_mut().deliver(&mut sim, Cell::new(7));
        let records = buf.borrow().clone();
        assert_eq!(
            records,
            vec![
                CreditReturn {
                    dst_vci: 7,
                    apply_at: 40,
                    n: 2
                },
                CreditReturn {
                    dst_vci: 7,
                    apply_at: 40,
                    n: 1
                },
            ],
            "one coalesced record per batch, unregistered VCI ignored"
        );
        assert_eq!(capture.borrow().arrivals.len(), 4, "all cells forwarded");
    }
}
