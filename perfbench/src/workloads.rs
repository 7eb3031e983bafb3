//! The benchmark's workloads: four presets of the scenario crate, each
//! chosen to put a different layer of the system on the critical path.
//! `README.md` in this directory holds the layer-interaction table that
//! says which end-to-end metric each layer metric should move, where.

use pegasus_scenario::{presets, ScenarioSpec};

/// One benchmark workload.
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// Why the workload exists (one line, mirrored in BENCHMARK.json).
    pub why: &'static str,
    /// The preset it runs, before the seed is applied.
    pub spec: fn() -> ScenarioSpec,
    /// Shards the traced run also runs the spec at, to measure the
    /// sharded executor (0: none). Timed runs are single-threaded.
    pub shard_probe: usize,
    /// Scenario seeds derived from one `--seed`. A run sweeps all of
    /// them and sums their per-seed medians, so one run's figure does
    /// not hinge on how much traffic a single seed happens to draw.
    pub sub_seeds: u64,
}

fn city_mix() -> ScenarioSpec {
    presets::metropolis_1k().scale_sessions(0.25)
}

/// Every workload, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "city-mix",
        why: "metropolis-1k at 0.25 (videophone/VoD/TV 50/30/20, 16-switch mesh): camera, codec, display, AAL5 and fabric handlers dominate; cache and control loop idle",
        spec: city_mix,
        shard_probe: 0,
        sub_seeds: 2,
    },
    Workload {
        name: "vod-crowd",
        why: "vod-city: pure VoD with Zipf catalogue, flash crowd and tiered cache, so PFS, tiers and playback work; its traced run adds the 2-shard executor probe",
        spec: presets::vod_city,
        shard_probe: 2,
        sub_seeds: 8,
    },
    Workload {
        name: "blast-3x",
        why: "sustained-3x: credit windows, two 3x blasts across the hub and live renegotiation; the cheapest handlers, so the engine's own cost weighs most",
        spec: presets::sustained_3x,
        shard_probe: 0,
        sub_seeds: 8,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The scenario seeds one `--seed` expands to. Distinct `--seed`s
    /// give disjoint sets.
    pub fn seeds(&self, seed: u64) -> Vec<u64> {
        (0..self.sub_seeds)
            .map(|k| seed.wrapping_mul(self.sub_seeds).wrapping_add(k))
            .collect()
    }

    /// The spec one scenario seed runs.
    pub fn spec_for(&self, scenario_seed: u64) -> ScenarioSpec {
        (self.spec)().with_seed(scenario_seed)
    }

    /// Whether `Scenario::run` stops the engine at control marks
    /// (congestion epochs, switch deaths). Those marks are private to
    /// the scenario crate, so such a run cannot be sliced from outside
    /// and its event loop is timed as one span.
    pub fn has_control_marks(spec: &ScenarioSpec) -> bool {
        spec.backpressure.enabled || !spec.faults.is_empty()
    }
}
