//! Topology partitioning for sharded execution.
//!
//! An [`ExecPlan`] splits the fabric switches of a [`ScenarioSpec`]
//! into contiguous region shards at compile time. Each shard owns a
//! range of fabric switches plus every endpoint attached to them; the
//! only state shards exchange at runtime is sealed cells crossing *cut
//! trunks* (inter-switch links whose two ends land in different
//! shards), exchanged over per-pair channels at conservative-lookahead
//! epoch boundaries by the executor (`crate::executor`).
//!
//! The plan is a pure function of `(spec, requested shards)`, so every
//! shard — and every shard *count* — agrees on who owns what without
//! communicating. Determinism across shard counts rests on that, plus
//! the per-trunk scheduling lanes assigned at wiring time
//! (`pegasus_atm::network::TrunkDir`).
//!
//! The control plane shards too. Credit returns on cut-crossing
//! circuits ride the same sealed posts as data cells (their return
//! delay is never below the trunk lookahead, so the conservative
//! argument covers them); congestion epochs are sampled per shard into
//! a mergeable `EpochSignal` and exchanged at the mark; and switch
//! death repair replays identically on every shard's full `Network`
//! replica at the fault's mark. None of those features clamps the plan
//! any more — the only remaining clamp is geometric: a plan can never
//! have more shards than fabric switches.
//!
//! Clamping is *visible* (the plan records it, and the CLI prints the
//! reason), never an error: a spec that cannot use every requested
//! shard still runs on the clamped count.

use crate::spec::ScenarioSpec;

/// The partition of a scenario into region shards.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    /// Effective shard count after clamping.
    pub shards: usize,
    /// `owner[s]` = the shard owning fabric switch `s`. In the
    /// spec-driven path fabric switch index and network switch index
    /// coincide (the fabric is built first and nothing else adds
    /// switches).
    pub owner: Vec<usize>,
    /// The shard count the caller asked for, before clamping.
    pub requested: usize,
    /// Why the plan clamped to fewer shards than requested, if it did.
    pub clamp_reason: Option<&'static str>,
}

impl ExecPlan {
    /// Partitions `spec`'s fabric into at most `requested` shards.
    pub fn partition(spec: &ScenarioSpec, requested: usize) -> ExecPlan {
        let n = spec.topology.switches.max(1);
        let requested = requested.max(1);
        // Geometric clamp: every shard owns at least one switch.
        let shards = requested.min(n);
        let clamp_reason = (shards < requested).then_some("more shards than fabric switches");
        // Contiguous balanced ranges: switch s goes to shard s·k/n.
        let owner = (0..n).map(|s| s * shards / n).collect();
        ExecPlan {
            shards,
            owner,
            requested,
            clamp_reason,
        }
    }

    /// The view shard `shard` compiles and runs with.
    pub fn shard_plan(&self, shard: usize) -> ShardPlan {
        assert!(shard < self.shards, "shard index within plan");
        ShardPlan {
            shard,
            shards: self.shards,
            owner: self.owner.clone(),
            // Shard 0 is the coordinator: it alone materializes the PFS
            // servers (prerecord + CM replay), replays the Nemesis
            // epoch schedule, and contributes the broker/topology
            // sections every shard computes identically.
            materialize_pfs: shard == 0,
        }
    }
}

/// One shard's compile-time view of an [`ExecPlan`]: which switches it
/// owns and whether it is the coordinator.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// This shard's index.
    pub shard: usize,
    /// Total effective shards.
    pub shards: usize,
    /// Switch index → owning shard.
    pub owner: Vec<usize>,
    /// Whether this shard materializes PFS servers and the post-run
    /// replays (true exactly for the coordinator, shard 0).
    pub materialize_pfs: bool,
}

impl ShardPlan {
    /// The trivial plan: one shard owning everything.
    pub fn single() -> ShardPlan {
        ShardPlan {
            shard: 0,
            shards: 1,
            owner: Vec::new(),
            materialize_pfs: true,
        }
    }

    /// Whether this shard owns fabric switch `s` — and therefore every
    /// endpoint attached to it and every event those endpoints run.
    pub fn owns(&self, s: usize) -> bool {
        self.shards == 1 || self.owner.get(s).copied().unwrap_or(0) == self.shard
    }

    /// The shard owning fabric switch `s` (shard 0 under the trivial
    /// plan). Credit records for a cut-crossing circuit are addressed
    /// to the shard owning the *producer's* switch, which is where the
    /// circuit's window lives.
    pub fn owner_of(&self, s: usize) -> usize {
        if self.shards == 1 {
            0
        } else {
            self.owner.get(s).copied().unwrap_or(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BackpressureSpec, FaultSpec, ScenarioSpec};
    use pegasus_sim::time::MS;

    fn mesh_spec(switches: usize) -> ScenarioSpec {
        let mut spec = ScenarioSpec::base("part");
        spec.topology.switches = switches;
        spec
    }

    #[test]
    fn partition_is_contiguous_and_balanced() {
        let plan = ExecPlan::partition(&mesh_spec(16), 4);
        assert_eq!(plan.shards, 4);
        assert_eq!(plan.owner.len(), 16);
        // Contiguous, non-decreasing, every shard non-empty.
        for w in plan.owner.windows(2) {
            assert!(w[1] == w[0] || w[1] == w[0] + 1);
        }
        for k in 0..4 {
            assert_eq!(plan.owner.iter().filter(|&&o| o == k).count(), 4);
        }
    }

    #[test]
    fn more_shards_than_switches_clamps() {
        let plan = ExecPlan::partition(&mesh_spec(3), 8);
        assert_eq!(plan.shards, 3);
        assert!(plan.clamp_reason.is_some());
        // Every switch still owned by a distinct live shard.
        assert_eq!(plan.owner, vec![0, 1, 2]);
    }

    #[test]
    fn backpressure_no_longer_clamps() {
        let mut spec = mesh_spec(8);
        spec.backpressure = BackpressureSpec {
            enabled: true,
            ..spec.backpressure
        };
        let plan = ExecPlan::partition(&spec, 4);
        assert_eq!(plan.shards, 4, "cut-crossing credits shard");
        assert!(plan.clamp_reason.is_none());
    }

    #[test]
    fn switch_death_and_blasts_no_longer_clamp() {
        let mut spec = mesh_spec(8);
        spec.faults.push(FaultSpec::SwitchDeath {
            at: 10 * MS,
            switch: 2,
        });
        spec.faults.push(FaultSpec::BestEffortBlast {
            at: MS,
            until: 5 * MS,
            from_switch: 1,
            to_switch: 6,
            rate_bps: 100_000_000,
            window: 64,
        });
        let plan = ExecPlan::partition(&spec, 4);
        assert_eq!(plan.shards, 4, "repair replicates, blasts export credits");
        assert!(plan.clamp_reason.is_none());
    }

    #[test]
    fn owner_is_identical_across_shard_views() {
        let plan = ExecPlan::partition(&mesh_spec(10), 3);
        for i in 0..plan.shards {
            let sp = plan.shard_plan(i);
            assert_eq!(sp.owner, plan.owner);
            assert_eq!(sp.materialize_pfs, i == 0);
        }
    }
}
