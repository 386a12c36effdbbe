//! The execution harness: the simulator as fuzz executor.

use ppfts_core::{sim_pressure, SimPressure, SimulatorState, Skno, SknoState};
use ppfts_engine::{
    run_seeds, FullTrace, OneWayFault, OneWayModel, OneWayRunner, RunStats, StatsOnly, Trace,
};
use ppfts_population::{Configuration, Topology};
use ppfts_protocols::Epidemic;
use ppfts_verify::{audit_omission_schedule, ScheduleViolation};

use crate::ScheduleGenome;

/// Batch size for the runner's batched stepping (the schedule adversary
/// is RNG-free, so pairs are drawn in bulk).
const BATCH: u64 = 1024;

/// How bad a found attack is, ordered lexicographically: seeds broken
/// outright, then agents wedged `pending` at budget exhaustion, then
/// the deepest token-queue stall, then steps-to-convergence slowdown.
///
/// "Broken" is conservative: a seed counts only when the *fault-free
/// baseline* converged within the same step budget but the attacked run
/// did not — a schedule cannot take credit for a run that was never
/// going to converge (sparse topologies at tight budgets).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct AttackSeverity {
    /// Seeds where the baseline converged but the attacked run did not.
    pub broken_seeds: u32,
    /// Maximum simultaneous pending-agent count over seeds (final
    /// configuration).
    pub max_pending: u32,
    /// Maximum single-agent token footprint over seeds (final
    /// configuration).
    pub max_stall_depth: u32,
    /// Maximum steps the attacked runs took (budget when exhausted).
    pub max_steps: u64,
}

impl AttackSeverity {
    /// Whether this attack broke at least one seed.
    #[must_use]
    pub fn is_break(&self) -> bool {
        self.broken_seeds > 0
    }
}

/// Fault-free reference outcome for one seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BaselineRun {
    /// The run seed.
    pub seed: u64,
    /// Whether the fault-free run converged within the step budget.
    pub converged: bool,
    /// Steps at convergence (or the budget).
    pub steps: u64,
}

/// One attacked run's measurements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedOutcome {
    /// The run seed.
    pub seed: u64,
    /// Whether the attacked run converged within the step budget.
    pub converged: bool,
    /// Steps at convergence (or the budget).
    pub steps: u64,
    /// Aggregate step statistics (bit-identical across replays).
    pub stats: RunStats,
    /// Progress-pressure diagnostics of the final configuration.
    pub pressure: SimPressure,
    /// Baseline converged but this run did not.
    pub broken: bool,
}

/// A genome's full evaluation: the scalar severity plus the per-seed
/// evidence behind it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Evaluation {
    /// Corpus-ordering score.
    pub severity: AttackSeverity,
    /// Per-seed outcomes, sorted by seed.
    pub seeds: Vec<SeedOutcome>,
}

/// The system under attack: graphical `SKnO` simulating an epidemic on
/// a fixed topology, measured over a fixed seed set.
///
/// `o_sim` provisions the simulator; `o_budget` caps what any compiled
/// schedule may inject. The interesting regimes: `o_sim == o_budget`
/// probes the paper's Theorem 4.1 claim, `o_sim < o_budget`
/// under-provisions the simulator (the seeded-mutant self-test, which
/// the fuzzer must break).
#[derive(Clone, Debug)]
pub struct FuzzTarget {
    topology: Topology,
    o_sim: u32,
    o_budget: u64,
    seeds: Vec<u64>,
    step_budget: u64,
    threads: usize,
    baseline: Vec<BaselineRun>,
}

impl FuzzTarget {
    /// Builds a target and measures its fault-free baselines (one run
    /// per seed, `NoOmissions`).
    #[must_use]
    pub fn new(
        topology: Topology,
        o_sim: u32,
        o_budget: u64,
        seeds: Vec<u64>,
        step_budget: u64,
        threads: usize,
    ) -> Self {
        let mut target = FuzzTarget {
            topology,
            o_sim,
            o_budget,
            seeds,
            step_budget,
            threads,
            baseline: Vec::new(),
        };
        let clean = ScheduleGenome::empty();
        target.baseline = target
            .evaluate(&clean)
            .seeds
            .into_iter()
            .map(|s| BaselineRun {
                seed: s.seed,
                converged: s.converged,
                steps: s.steps,
            })
            .collect();
        target
    }

    /// The fault-free reference outcomes, sorted by seed.
    #[must_use]
    pub fn baseline(&self) -> &[BaselineRun] {
        &self.baseline
    }

    /// The topology under attack.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The adversary-class injection cap.
    #[must_use]
    pub fn o_budget(&self) -> u64 {
        self.o_budget
    }

    /// The simulator's omission provisioning.
    #[must_use]
    pub fn o_sim(&self) -> u32 {
        self.o_sim
    }

    /// The per-run step budget.
    #[must_use]
    pub fn step_budget(&self) -> u64 {
        self.step_budget
    }

    /// Runs the compiled genome over every seed and scores it.
    #[must_use]
    pub fn evaluate(&self, genome: &ScheduleGenome) -> Evaluation {
        let summaries = run_seeds(self.seeds.iter().copied(), self.threads, |seed| {
            self.run_one(genome, seed)
        });
        let mut seeds = Vec::with_capacity(summaries.len());
        let mut severity = AttackSeverity::default();
        for (i, summary) in summaries.into_iter().enumerate() {
            let (converged, steps, stats, pressure) = summary.value;
            let broken = self
                .baseline
                .get(i)
                .is_some_and(|b| b.converged && !converged);
            severity.broken_seeds += u32::from(broken);
            severity.max_pending = severity
                .max_pending
                .max(u32::try_from(pressure.pending_agents).unwrap_or(u32::MAX));
            severity.max_stall_depth = severity
                .max_stall_depth
                .max(u32::try_from(pressure.stall_depth).unwrap_or(u32::MAX));
            severity.max_steps = severity.max_steps.max(steps);
            seeds.push(SeedOutcome {
                seed: summary.seed,
                converged,
                steps,
                stats,
                pressure,
                broken,
            });
        }
        Evaluation { severity, seeds }
    }

    /// One attacked run with a stats-only sink.
    fn run_one(&self, genome: &ScheduleGenome, seed: u64) -> (bool, u64, RunStats, SimPressure) {
        let mut runner = self
            .builder(seed)
            .adversary(genome.compile(Some(self.o_budget)))
            .trace_sink(StatsOnly)
            .build()
            .expect("graphical SKnO assembles on its own topology");
        let out = runner.run_batched_until(self.step_budget, BATCH, all_simulated);
        let pressure = sim_pressure(runner.config().as_slice());
        (out.is_satisfied(), out.steps(), runner.stats(), pressure)
    }

    /// Replays `genome` on one seed with a full trace and audits the
    /// recorded omissions against the genome's own schedule and the
    /// class budget. An empty result certifies the replay faithful.
    #[must_use]
    pub fn audit_replay(&self, genome: &ScheduleGenome, seed: u64) -> Vec<ScheduleViolation> {
        let mut runner = self
            .builder(seed)
            .adversary(genome.compile(Some(self.o_budget)))
            .trace_sink(FullTrace::new())
            .build()
            .expect("graphical SKnO assembles on its own topology");
        let _ = runner.run_batched_until(self.step_budget, BATCH, all_simulated);
        let trace: &Trace<SknoState<bool>, OneWayFault> =
            runner.trace().expect("FullTrace::new() retains the trace");
        let schedule = genome.compile(Some(self.o_budget));
        audit_omission_schedule(
            trace,
            |f| f.is_omissive(),
            |step, interaction| schedule.permits(step, Some(interaction)),
            Some(self.o_budget),
        )
    }

    /// The common runner builder for this target (model I3, graphical
    /// indexed SKnO, agent `i` at vertex `i`, agent 0 infected).
    fn builder(&self, seed: u64) -> TargetBuilder {
        let n = self.topology.len();
        let sims: Vec<bool> = (0..n).map(|v| v == 0).collect();
        let skno = Skno::graphical(Epidemic, self.o_sim, self.topology.clone());
        OneWayRunner::builder(OneWayModel::I3, skno)
            .config(Skno::<Epidemic>::initial(&sims))
            .topology(self.topology.clone())
            .seed(seed)
    }
}

/// The runner-builder type [`FuzzTarget::builder`] assembles: model I3,
/// graphical indexed SKnO over [`Epidemic`], topology-scheduled.
type TargetBuilder = ppfts_engine::OneWayRunnerBuilder<
    Skno<Epidemic>,
    ppfts_engine::TopologyScheduler,
    ppfts_engine::NoOmissions,
    StatsOnly,
    Configuration<SknoState<bool>>,
>;

/// Convergence predicate: every agent's *simulated* state reached
/// `true` (the epidemic fully spread in the simulated protocol).
fn all_simulated(config: &Configuration<SknoState<bool>>) -> bool {
    config.as_slice().iter().all(|s| *s.simulated())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfts_engine::ScheduledEvent;

    fn small_target(o_sim: u32, o_budget: u64) -> FuzzTarget {
        let topology = Topology::complete(8).unwrap();
        FuzzTarget::new(topology, o_sim, o_budget, vec![1, 2], 40_000, 1)
    }

    #[test]
    fn baseline_converges_on_the_complete_graph() {
        let target = small_target(1, 1);
        assert!(target.baseline().iter().all(|b| b.converged));
    }

    #[test]
    fn empty_genome_breaks_nothing() {
        let target = small_target(1, 1);
        let eval = target.evaluate(&ScheduleGenome::empty());
        assert_eq!(eval.severity.broken_seeds, 0);
        assert!(!eval.severity.is_break());
    }

    #[test]
    fn evaluation_is_deterministic() {
        let target = small_target(1, 1);
        let genome = ScheduleGenome {
            events: vec![ScheduledEvent::at(5)],
            segments: vec![],
            salt: 3,
        };
        assert_eq!(target.evaluate(&genome), target.evaluate(&genome));
    }

    #[test]
    fn under_provisioned_simulator_breaks_and_audits_clean() {
        // o_sim = 0 but one omission allowed: the paper's own breaking
        // condition (a single lost token stalls an unprovisioned SKnO).
        let target = small_target(0, 1);
        let genome = ScheduleGenome {
            events: vec![ScheduledEvent {
                from: 0,
                until: 40_000,
                target: Some(0),
            }],
            segments: vec![],
            salt: 0,
        };
        let eval = target.evaluate(&genome);
        assert!(eval.severity.is_break(), "severity: {:?}", eval.severity);
        // The found attack is a faithful member of the class.
        assert!(target.audit_replay(&genome, 1).is_empty());
    }

    #[test]
    fn severity_orders_lexicographically() {
        let a = AttackSeverity {
            broken_seeds: 1,
            ..AttackSeverity::default()
        };
        let b = AttackSeverity {
            broken_seeds: 0,
            max_pending: 500,
            max_stall_depth: 9,
            max_steps: u64::MAX,
        };
        assert!(a > b, "a broken seed outranks any pressure");
    }
}
