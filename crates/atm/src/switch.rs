//! An output-queued ATM cell switch in the style of Fairisle.
//!
//! The paper's workstations hang cameras, displays and audio nodes off a
//! local ATM switch that "is under control of the workstation" (§2).
//! A [`Switch`] here forwards cells by looking up the (input port, VCI)
//! pair in a translation table, rewriting the VCI, and queueing the cell
//! on the output port's link after a fixed fabric latency. Output queues
//! have finite capacity; overflowing cells are dropped (counted), with
//! CLP-marked cells dropped first in spirit by being subject to a lower
//! threshold.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use pegasus_sim::time::Ns;
use pegasus_sim::{SharedHandler, Simulator};

use crate::cell::{Cell, Vci};
use crate::link::{CellSink, Link, SinkRef};

/// A routing-table entry: where a cell goes and what VCI it gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Output port index.
    pub out_port: usize,
    /// VCI stamped on the cell for the next hop.
    pub out_vci: Vci,
}

/// Forwarding statistics kept by each switch.
#[derive(Debug, Default, Clone)]
pub struct SwitchStats {
    /// Cells successfully forwarded.
    pub switched: u64,
    /// Cells dropped because no route matched.
    pub unroutable: u64,
    /// Cells dropped because the output queue was full.
    pub overflowed: u64,
    /// Deepest output backlog observed (in cells, including the cell
    /// being accepted) — the high-water mark scenario reports publish.
    pub peak_queue_cells: u64,
    /// Deepest backlog since the last [`SwitchStats::take_epoch_peak`]
    /// — the resettable gauge the congestion control loop samples to
    /// judge headroom, distinct from the run-long high-water mark.
    pub epoch_peak_queue_cells: u64,
}

impl SwitchStats {
    /// The deepest backlog this epoch; resets the epoch gauge.
    pub fn take_epoch_peak(&mut self) -> u64 {
        std::mem::take(&mut self.epoch_peak_queue_cells)
    }
}

/// An output-queued cell switch.
pub struct Switch {
    name: String,
    fabric_latency: Ns,
    outputs: Vec<Option<Link>>,
    routes: HashMap<(usize, Vci), Route>,
    /// Maximum backlog per output, in cells, before tail drop.
    pub queue_capacity: u64,
    /// Forwarding statistics.
    pub stats: SwitchStats,
    /// Overflow drops per *incoming* VCI (the label the cell still
    /// carries at the drop point, before translation). Globally unique
    /// VCIs make this attributable to one circuit; the control plane
    /// drains it to reclaim credits and attribute admitted-session loss.
    dropped_by_vci: HashMap<Vci, u64>,
    next_vci: Vci,
}

impl Switch {
    /// Creates a switch with `ports` ports and the given per-cell fabric
    /// latency, wrapped for sharing.
    pub fn shared(name: &str, ports: usize, fabric_latency: Ns) -> Rc<RefCell<Switch>> {
        Rc::new(RefCell::new(Switch {
            name: name.to_string(),
            fabric_latency,
            outputs: (0..ports).map(|_| None).collect(),
            routes: HashMap::new(),
            queue_capacity: 1024,
            stats: SwitchStats::default(),
            dropped_by_vci: HashMap::new(),
            next_vci: 32, // low VCIs reserved for signalling, as on real ATM
        }))
    }

    /// The switch's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.outputs.len()
    }

    /// Attaches the transmit link of output `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn attach_output(&mut self, port: usize, link: Link) {
        self.outputs[port] = Some(link);
    }

    /// Unwires every output port, dropping its link and the sink the
    /// link feeds — how a dropped [`crate::network::Network`] breaks the
    /// reference cycles its trunks form.
    pub(crate) fn detach_outputs(&mut self) {
        self.outputs.iter_mut().for_each(|o| *o = None);
    }

    /// Grows the switch to at least `ports` ports (new ports start
    /// unwired). Programmatic topology builders size switches to the
    /// scenario rather than a fixed port count.
    pub fn grow_ports(&mut self, ports: usize) {
        while self.outputs.len() < ports {
            self.outputs.push(None);
        }
    }

    /// Allocates a fresh VCI, unique within this switch.
    pub fn alloc_vci(&mut self) -> Vci {
        let v = self.next_vci;
        self.next_vci = self.next_vci.checked_add(1).expect("VCI space exhausted");
        v
    }

    /// Installs a translation-table entry.
    pub fn add_route(&mut self, in_port: usize, in_vci: Vci, out_port: usize, out_vci: Vci) {
        self.routes
            .insert((in_port, in_vci), Route { out_port, out_vci });
    }

    /// Removes a translation-table entry; returns `true` if it existed.
    pub fn remove_route(&mut self, in_port: usize, in_vci: Vci) -> bool {
        self.routes.remove(&(in_port, in_vci)).is_some()
    }

    /// Wipes the whole translation table — a dead switch forwards
    /// nothing; everything arriving afterwards counts as unroutable.
    pub fn clear_routes(&mut self) {
        self.routes.clear();
    }

    /// The wired output links, in port order (line cards of this
    /// switch). Fault injection uses this to cut or inspect lines.
    pub fn output_links_mut(&mut self) -> impl Iterator<Item = &mut Link> {
        self.outputs.iter_mut().filter_map(|l| l.as_mut())
    }

    /// The output link at `port`, if wired — targeted access for the
    /// sharded executor to set export buffers on, or inject into, a
    /// specific trunk line.
    pub fn output_mut(&mut self, port: usize) -> Option<&mut Link> {
        self.outputs.get_mut(port).and_then(|l| l.as_mut())
    }

    /// Cells this switch's output lines lost to outage windows.
    pub fn cells_dropped_outage(&self) -> u64 {
        self.outputs
            .iter()
            .filter_map(|l| l.as_ref())
            .map(Link::cells_dropped)
            .sum()
    }

    /// Overflow drops per incoming VCI since the last call, drained and
    /// sorted by VCI so callers iterate deterministically.
    pub fn take_dropped_by_vci(&mut self) -> Vec<(Vci, u64)> {
        let mut drops: Vec<(Vci, u64)> = self.dropped_by_vci.drain().collect();
        drops.sort_unstable();
        drops
    }

    /// Looks up the route for a cell arriving on `in_port` with `in_vci`.
    pub fn route_for(&self, in_port: usize, in_vci: Vci) -> Option<Route> {
        self.routes.get(&(in_port, in_vci)).copied()
    }

    /// Forwards a cell that has crossed the fabric from `in_port`.
    fn forward(&mut self, sim: &mut Simulator, in_port: usize, mut cell: Cell) {
        let Some(route) = self.route_for(in_port, cell.vci()) else {
            self.stats.unroutable += 1;
            return;
        };
        let Some(link) = self
            .outputs
            .get_mut(route.out_port)
            .and_then(|l| l.as_mut())
        else {
            self.stats.unroutable += 1;
            return;
        };
        let backlog_cells = link.backlog(sim.now()) / link.cell_time().max(1);
        if backlog_cells >= self.queue_capacity {
            self.stats.overflowed += 1;
            // The cell still carries its incoming label here (the VCI
            // rewrite below never ran), so the drop attributes cleanly.
            *self.dropped_by_vci.entry(cell.vci()).or_insert(0) += 1;
            return;
        }
        cell.set_vci(route.out_vci);
        link.send(sim, cell);
        self.stats.switched += 1;
        self.stats.peak_queue_cells = self.stats.peak_queue_cells.max(backlog_cells + 1);
        self.stats.epoch_peak_queue_cells =
            self.stats.epoch_peak_queue_cells.max(backlog_cells + 1);
    }
}

/// An input-port adapter: the [`CellSink`] a neighbour's link feeds.
///
/// Cells crossing the fabric wait in a FIFO shared with a single
/// [`SharedHandler`], so the per-cell fabric hop costs one small heap
/// entry and no allocations.
struct InPort {
    switch: Rc<RefCell<Switch>>,
    port: usize,
    crossing: Rc<RefCell<VecDeque<Cell>>>,
    handler: SharedHandler,
}

impl CellSink for InPort {
    fn deliver(&mut self, sim: &mut Simulator, cell: Cell) {
        let latency = self.switch.borrow().fabric_latency;
        if latency == 0 {
            self.switch.borrow_mut().forward(sim, self.port, cell);
        } else {
            self.crossing.borrow_mut().push_back(cell);
            sim.schedule_shared_in(latency, self.handler.clone());
        }
    }
}

/// Creates the [`SinkRef`] for input `port` of `switch`, to be used as the
/// sink of whatever link feeds that port.
pub fn input_port(switch: &Rc<RefCell<Switch>>, port: usize) -> SinkRef {
    assert!(port < switch.borrow().ports(), "input port out of range");
    let crossing: Rc<RefCell<VecDeque<Cell>>> = Rc::new(RefCell::new(VecDeque::new()));
    let handler: SharedHandler = {
        let switch = switch.clone();
        let crossing = crossing.clone();
        Rc::new(RefCell::new(move |sim: &mut Simulator| -> Option<Ns> {
            let cell = crossing
                .borrow_mut()
                .pop_front()
                .expect("one crossing cell per fabric event");
            switch.borrow_mut().forward(sim, port, cell);
            None
        }))
    };
    Rc::new(RefCell::new(InPort {
        switch: switch.clone(),
        port,
        crossing,
        handler,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::CaptureSink;

    const RATE: u64 = 100_000_000;

    fn one_switch_setup(
        fabric_latency: Ns,
    ) -> (Rc<RefCell<Switch>>, SinkRef, Rc<RefCell<CaptureSink>>) {
        let sw = Switch::shared("t", 4, fabric_latency);
        let out = CaptureSink::shared();
        sw.borrow_mut()
            .attach_output(1, Link::new(RATE, 0, out.clone()));
        let input = input_port(&sw, 0);
        (sw, input, out)
    }

    #[test]
    fn routes_and_rewrites_vci() {
        let (sw, input, out) = one_switch_setup(1_000);
        sw.borrow_mut().add_route(0, 40, 1, 77);
        let mut sim = Simulator::new();
        input.borrow_mut().deliver(&mut sim, Cell::new(40));
        sim.run();
        let arr = &out.borrow().arrivals;
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].1.vci(), 77);
        // Fabric latency 1 µs + serialization 4.24 µs.
        assert_eq!(arr[0].0, 1_000 + 4_240);
        assert_eq!(sw.borrow().stats.switched, 1);
    }

    #[test]
    fn unroutable_cells_counted_and_dropped() {
        let (sw, input, out) = one_switch_setup(0);
        let mut sim = Simulator::new();
        input.borrow_mut().deliver(&mut sim, Cell::new(999));
        sim.run();
        assert!(out.borrow().arrivals.is_empty());
        assert_eq!(sw.borrow().stats.unroutable, 1);
    }

    #[test]
    fn queue_overflow_drops() {
        let (sw, input, out) = one_switch_setup(0);
        sw.borrow_mut().add_route(0, 5, 1, 5);
        sw.borrow_mut().queue_capacity = 4;
        let mut sim = Simulator::new();
        // Burst 10 cells at t=0: capacity 4 means backlog caps out.
        for _ in 0..10 {
            input.borrow_mut().deliver(&mut sim, Cell::new(5));
        }
        sim.run();
        let delivered = out.borrow().arrivals.len() as u64;
        let st = sw.borrow().stats.clone();
        assert_eq!(delivered + st.overflowed, 10);
        assert!(st.overflowed > 0, "expected drops");
        assert_eq!(st.peak_queue_cells, 4, "high-water mark is the capacity");
    }

    #[test]
    fn peak_queue_depth_tracks_bursts() {
        let (sw, input, _out) = one_switch_setup(0);
        sw.borrow_mut().add_route(0, 5, 1, 5);
        let mut sim = Simulator::new();
        for _ in 0..6 {
            input.borrow_mut().deliver(&mut sim, Cell::new(5));
        }
        sim.run();
        assert_eq!(sw.borrow().stats.peak_queue_cells, 6);
        // A later, smaller burst does not lower the mark.
        for _ in 0..2 {
            input.borrow_mut().deliver(&mut sim, Cell::new(5));
        }
        sim.run();
        assert_eq!(sw.borrow().stats.peak_queue_cells, 6);
    }

    #[test]
    fn grow_ports_extends_unwired() {
        let sw = Switch::shared("g", 2, 0);
        sw.borrow_mut().grow_ports(5);
        assert_eq!(sw.borrow().ports(), 5);
        sw.borrow_mut().grow_ports(3); // never shrinks
        assert_eq!(sw.borrow().ports(), 5);
        let out = CaptureSink::shared();
        sw.borrow_mut().attach_output(4, Link::new(RATE, 0, out));
    }

    #[test]
    fn two_flows_interleave_fifo() {
        let (sw, input, out) = one_switch_setup(0);
        sw.borrow_mut().add_route(0, 1, 1, 101);
        sw.borrow_mut().add_route(0, 2, 1, 102);
        let mut sim = Simulator::new();
        for i in 0..6u16 {
            input.borrow_mut().deliver(&mut sim, Cell::new(1 + (i % 2)));
        }
        sim.run();
        let vcis: Vec<Vci> = out.borrow().arrivals.iter().map(|(_, c)| c.vci()).collect();
        assert_eq!(vcis, vec![101, 102, 101, 102, 101, 102]);
    }

    #[test]
    fn remove_route_stops_forwarding() {
        let (sw, input, out) = one_switch_setup(0);
        sw.borrow_mut().add_route(0, 7, 1, 7);
        let mut sim = Simulator::new();
        input.borrow_mut().deliver(&mut sim, Cell::new(7));
        sim.run();
        assert!(sw.borrow_mut().remove_route(0, 7));
        assert!(!sw.borrow_mut().remove_route(0, 7));
        input.borrow_mut().deliver(&mut sim, Cell::new(7));
        sim.run();
        assert_eq!(out.borrow().arrivals.len(), 1);
        assert_eq!(sw.borrow().stats.unroutable, 1);
    }

    #[test]
    fn alloc_vci_is_unique_and_above_signalling_range() {
        let sw = Switch::shared("t", 2, 0);
        let a = sw.borrow_mut().alloc_vci();
        let b = sw.borrow_mut().alloc_vci();
        assert!(a >= 32);
        assert_ne!(a, b);
    }

    #[test]
    fn two_hop_path() {
        let sw1 = Switch::shared("sw1", 2, 500);
        let sw2 = Switch::shared("sw2", 2, 500);
        let out = CaptureSink::shared();
        // sw1 port1 --link--> sw2 port0; sw2 port1 --link--> capture.
        sw1.borrow_mut()
            .attach_output(1, Link::new(RATE, 100, input_port(&sw2, 0)));
        sw2.borrow_mut()
            .attach_output(1, Link::new(RATE, 100, out.clone()));
        sw1.borrow_mut().add_route(0, 50, 1, 60);
        sw2.borrow_mut().add_route(0, 60, 1, 70);
        let input = input_port(&sw1, 0);
        let mut sim = Simulator::new();
        input.borrow_mut().deliver(&mut sim, Cell::new(50));
        sim.run();
        let arr = &out.borrow().arrivals;
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].1.vci(), 70);
        // 2 × (fabric 500 + tx 4240 + prop 100) = 9680.
        assert_eq!(arr[0].0, 9_680);
    }
}
