//! The four workloads: inputs derived from the workload seed, and one
//! closed-loop run per run seed, bare or with every layer wrapped.
//!
//! Each workload puts one staging path of the runners under load:
//!
//! | workload | staging path |
//! |---|---|
//! | `skno_omissions` | per-step fault draws (the adversary draws from the RNG) |
//! | `sid_sparse` | bulk fault-free arc draws over a CSR topology |
//! | `epidemic_epochs` | batch epochs on the count backend |
//! | `scheduled_attacks` | bulk arc draws with RNG-free targeted `decide_at` |

use std::time::Instant;

use ppfts_core::{Sid, SidState, SimulatorState, Skno, SknoState};
use ppfts_engine::{
    BoundedStrategy, EngineError, NoOmissions, OmissionStrategy, OneWayModel, OneWayProgram,
    OneWayRunner, OneWayRunnerBuilder, RunOutcome, RunStats, Scheduler, StatsOnly,
    TopologyScheduler, TwoWayModel, TwoWayRunner, UniformScheduler,
};
use ppfts_fuzz::{random_genome, MutationCtx, ScheduleGenome};
use ppfts_population::{Configuration, CountConfiguration, Topology};
use ppfts_protocols::Epidemic;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::probe::{
    now_ns, Layer, Probe, ProbeTotals, Sampler, Span, TracedAdversary, TracedProgram,
    TracedScheduler,
};

/// Batch size of the interleaved runs (the workspace harnesses' `BATCH`).
pub const BATCH: u64 = 1024;

/// Omission rate of the `skno_omissions` adversary.
const SKNO_RATE: f64 = 0.02;

/// Omission bound of both `SKnO` workloads (simulator and adversary).
const OMISSION_BOUND: u32 = 1;

/// Degree of the `sid_sparse` random regular graphs.
const SID_DEGREE: usize = 4;

/// Random regular graphs per `sid_sparse` set-up; run `i` runs on graph
/// `i mod SID_GRAPHS`. How many attempts `Topology::random_regular` needs
/// varies widely with the seed, so one graph would make `setup_s` and
/// `wall_s` a property of that seed rather than of the code.
pub const SID_GRAPHS: usize = 16;

/// Full size, or the tiny smoke size of the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper.
    Full,
    /// Tiny populations and run sets: seconds for all four workloads.
    Smoke,
}

/// One of the four benchmark workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Graphical `SKnO`, o = 1, I3, bounded RNG adversary, complete graph.
    SknoOmissions,
    /// Graphical `SID`, IO, random 4-regular graph.
    SidSparse,
    /// Native two-way epidemic on counts through `run_epochs_until`.
    EpidemicEpochs,
    /// Graphical `SKnO`, o = 1, I3, compiled fuzzer genomes as adversary.
    ScheduledAttacks,
}

/// Size and budget of one workload at one scale.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Population size.
    pub n: usize,
    /// Runs in the fixed run set.
    pub runs: usize,
    /// Per-run step budget; at least 10× the slowest run's steps.
    pub budget: u64,
    /// Set-ups timed together for one `setup_s` sample: enough that a
    /// sample is not a handful of clock ticks.
    pub setups: usize,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::SknoOmissions,
        Workload::SidSparse,
        Workload::EpidemicEpochs,
        Workload::ScheduledAttacks,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SknoOmissions => "skno_omissions",
            Workload::SidSparse => "sid_sparse",
            Workload::EpidemicEpochs => "epidemic_epochs",
            Workload::ScheduledAttacks => "scheduled_attacks",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs batch epochs rather than the
    /// interleaved loop of a `core` simulator.
    #[must_use]
    pub fn epochs(self) -> bool {
        self == Workload::EpidemicEpochs
    }

    /// The workload's shape at `scale`.
    #[must_use]
    pub fn shape(self, scale: Scale) -> Shape {
        let full = scale == Scale::Full;
        match self {
            Workload::SknoOmissions => Shape {
                n: if full { 32 } else { 16 },
                runs: if full { 3200 } else { 12 },
                budget: if full { 100_000_000 } else { 4_000_000 },
                setups: if full { 4_000 } else { 10 },
            },
            Workload::SidSparse => Shape {
                n: if full { 32_768 } else { 256 },
                runs: if full { 40 } else { 12 },
                budget: if full { 400_000_000 } else { 4_000_000 },
                setups: 1,
            },
            Workload::EpidemicEpochs => Shape {
                n: if full { 100_000_000 } else { 10_000 },
                runs: if full { 140 } else { 12 },
                budget: if full { 40_000_000_000 } else { 10_000_000 },
                setups: if full { 40_000 } else { 10 },
            },
            Workload::ScheduledAttacks => Shape {
                n: if full { 32 } else { 16 },
                runs: if full { 2400 } else { 12 },
                budget: if full { 100_000_000 } else { 4_000_000 },
                setups: if full { 100 } else { 2 },
            },
        }
    }
}

/// SplitMix64: the benchmark's only source of derived seeds.
#[must_use]
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every input of one workload, derived from the workload seed alone.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Its shape.
    pub shape: Shape,
    /// One run seed per run of the fixed set.
    pub seeds: Vec<u64>,
    /// The interaction graphs of the simulator workloads (none for
    /// `epidemic_epochs`); run `i` runs on graph `i mod len`.
    pub topologies: Vec<Topology>,
    /// Time spent generating the topologies, in ns.
    pub topology_ns: u64,
    /// Initial state of the agents, per workload family.
    pub initial: Initial,
    /// One compiled-adversary genome per run (`scheduled_attacks` only).
    pub genomes: Vec<ScheduleGenome>,
}

/// Initial configuration of one workload family.
pub enum Initial {
    /// `SKnO` agents, agent 0 simulated-infected.
    Skno(Configuration<SknoState<bool>>),
    /// `SID` agents, agent 0 simulated-infected.
    Sid(Configuration<SidState<bool>>),
    /// Epidemic counts, one agent infected.
    Counts(CountConfiguration<bool>),
}

impl Inputs {
    /// Generates the inputs of `workload` at `scale` from `seed`.
    #[must_use]
    pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Inputs {
        let shape = workload.shape(scale);
        let n = shape.n;
        // Per-workload stream, so two workloads at one seed share nothing.
        let mut state = seed ^ (workload as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
        let seeds: Vec<u64> = (0..shape.runs).map(|_| splitmix(&mut state)).collect();
        let topo_seed = splitmix(&mut state);
        let genome_seed = splitmix(&mut state);
        let started = Instant::now();
        let topologies = match workload {
            Workload::SknoOmissions | Workload::ScheduledAttacks => {
                vec![Topology::complete(n).expect("n >= 2")]
            }
            Workload::SidSparse => {
                let mut graph_state = topo_seed;
                (0..SID_GRAPHS)
                    .map(|_| {
                        Topology::random_regular(n, SID_DEGREE, splitmix(&mut graph_state))
                            .expect("a random 4-regular graph exists at every benchmark size")
                    })
                    .collect()
            }
            Workload::EpidemicEpochs => Vec::new(),
        };
        let topology_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);

        let sims = || (0..n).map(|v| v == 0).collect::<Vec<bool>>();
        let initial = match workload {
            Workload::SknoOmissions | Workload::ScheduledAttacks => {
                Initial::Skno(Skno::<Epidemic>::initial(&sims()))
            }
            Workload::SidSparse => Initial::Sid(Sid::<Epidemic>::initial(&sims())),
            Workload::EpidemicEpochs => {
                Initial::Counts(CountConfiguration::from_groups([(true, 1), (false, n - 1)]))
            }
        };

        let genomes = if workload == Workload::ScheduledAttacks {
            let cut = topologies[0].sweep_cut_vertices();
            let ctx = MutationCtx {
                // Events start within the first 100·n steps, long before
                // a run converges (about 3000·n steps at n = 32), so they
                // fire mid-run.
                max_step: (n as u64) * 100,
                cut_vertices: &cut,
                population: n,
                max_events: OMISSION_BOUND as usize,
            };
            let mut rng = SmallRng::seed_from_u64(genome_seed);
            (0..shape.runs)
                .map(|_| random_genome(&ctx, &mut rng))
                .collect()
        } else {
            Vec::new()
        };

        Inputs {
            workload,
            shape,
            seeds,
            topologies,
            topology_ns,
            initial,
            genomes,
        }
    }

    /// `n` · the size of one agent's state plus the explicit arc arrays
    /// (CSR offsets, heads and tails; a complete graph stores none), in
    /// bytes.
    #[must_use]
    pub fn working_set_bytes(&self) -> usize {
        let n = self.shape.n;
        let states = match &self.initial {
            Initial::Skno(_) => n * std::mem::size_of::<SknoState<bool>>(),
            Initial::Sid(_) => n * std::mem::size_of::<SidState<bool>>(),
            // The count backend stores one count per distinct state.
            Initial::Counts(_) => 2 * std::mem::size_of::<(bool, usize)>(),
        };
        // Every graph of one workload has the same size.
        let arcs = match self.topologies.first() {
            Some(t) if !t.is_complete() => {
                (n + 1) * std::mem::size_of::<usize>()
                    + t.arc_count() * 2 * std::mem::size_of::<u32>()
            }
            _ => 0,
        };
        states + arcs
    }
}

/// What a run did: compared exactly between the bare and the traced run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Behaviour {
    /// Whether the predicate held within the budget.
    pub converged: bool,
    /// Engine interactions executed.
    pub steps: u64,
    /// The runner's tallies.
    pub stats: RunStats,
}

/// One run of the set.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// The run seed.
    pub seed: u64,
    /// What the run did.
    pub behaviour: Behaviour,
    /// A converged run's final configuration satisfies the workload
    /// predicate when it is evaluated again at the end (vacuous if not
    /// converged).
    pub recheck_ok: bool,
    /// Σ `commit_count` over the final configuration (simulators only).
    pub commits: u64,
    /// The engine error that ended the run, if any (the run then counts
    /// as not converged).
    pub error: Option<String>,
    /// Wall time from assembling the runner to the outcome, in ns.
    pub run_ns: u64,
    /// `task`, then its children (`compile`, `build`, `run`).
    pub spans: Vec<Span>,
    /// Layer counters of a traced run.
    pub probe: Option<ProbeTotals>,
}

/// Timestamps of one run, turned into spans at its end.
struct Marks {
    task: u64,
    compile: Option<(u64, u64)>,
    build: u64,
    run: u64,
    end: u64,
}

impl Marks {
    fn new() -> Marks {
        let t = now_ns();
        Marks {
            task: t,
            compile: None,
            build: t,
            run: t,
            end: t,
        }
    }

    fn spans(&self, seed: u64) -> Vec<Span> {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            id: seed,
            parent,
            start_ns,
            end_ns,
        };
        let mut spans = vec![span("task", None, self.task, self.end)];
        if let Some((start, end)) = self.compile {
            spans.push(span("compile", Some(0), start, end));
        }
        spans.push(span("build", Some(0), self.build, self.run));
        spans.push(span("run", Some(0), self.run, self.end));
        spans
    }
}

/// Whether every agent's simulated state is infected.
fn all_simulated<S: SimulatorState<Simulated = bool> + ppfts_population::State>(
    config: &Configuration<S>,
) -> bool {
    config.as_slice().iter().all(|s| *s.simulated())
}

/// The predicate as the runner sees it: counted and marked when traced.
fn checked<T>(probe: Option<&Probe>, f: impl FnOnce() -> T) -> T {
    let _in = probe.map(Probe::predicate);
    f()
}

/// Builds and drives one interleaved simulator run to the predicate.
fn drive_one_way<P, S, A>(
    builder: OneWayRunnerBuilder<P, S, A, StatsOnly, Configuration<P::State>>,
    budget: u64,
    probe: Option<&Probe>,
    marks: &mut Marks,
) -> Result<(RunOutcome, RunStats, Configuration<P::State>), EngineError>
where
    P: OneWayProgram,
    P::State: SimulatorState<Simulated = bool> + ppfts_population::State,
    S: Scheduler,
    A: OmissionStrategy,
{
    marks.build = now_ns();
    let mut runner = builder.build()?;
    marks.run = now_ns();
    let in_loop = probe.map(|p| p.enter(Layer::Loop));
    // An engine error inside the loop ends the run `Exhausted` early.
    let out = runner.run_batched_until(budget, BATCH, |c| checked(probe, || all_simulated(c)));
    drop(in_loop);
    marks.end = now_ns();
    Ok((out, runner.stats(), runner.into_config()))
}

/// Builds a one-way runner for `program`, bare or wrapped.
macro_rules! one_way {
    ($model:expr, $program:expr, $config:expr, $scheduler:expr, $adversary:expr, $seed:expr,
     $budget:expr, $probe:expr, $marks:expr) => {
        match $probe {
            None => drive_one_way(
                OneWayRunner::builder($model, $program)
                    .config($config)
                    .scheduler($scheduler)
                    .adversary($adversary)
                    .seed($seed)
                    .trace_sink(StatsOnly),
                $budget,
                None,
                $marks,
            ),
            Some(p) => drive_one_way(
                OneWayRunner::builder($model, TracedProgram::new($program, p))
                    .config($config)
                    .scheduler(TracedScheduler::new($scheduler, p))
                    .adversary(TracedAdversary::new($adversary, p))
                    .seed($seed)
                    .trace_sink(StatsOnly),
                $budget,
                Some(p),
                $marks,
            ),
        }
    };
}

/// A finished run: outcome, tallies, whether the final configuration
/// passes the predicate again, and Σ `commit_count`.
type Finished = (RunOutcome, RunStats, bool, u64);

/// Σ `commit_count` over a simulator's final configuration.
fn commits<S: SimulatorState + ppfts_population::State>(config: &Configuration<S>) -> u64 {
    config
        .as_slice()
        .iter()
        .map(SimulatorState::commit_count)
        .sum()
}

/// Runs run `index` of the set: bare, or traced with every layer wrapped
/// and marked for `sampler`. An engine error ends the run unconverged.
#[must_use]
pub fn run_one(inputs: &Inputs, index: usize, sampler: Option<&Sampler>) -> RunRecord {
    let probe = sampler.map(Probe::new);
    let seed = inputs.seeds[index];
    let mut marks = Marks::new();
    let (behaviour, recheck_ok, commits, error) =
        match drive(inputs, index, probe.as_ref(), &mut marks) {
            Ok((out, stats, recheck_ok, commits)) => {
                let converged = out.is_satisfied();
                let behaviour = Behaviour {
                    converged,
                    steps: out.steps(),
                    stats,
                };
                (behaviour, !converged || recheck_ok, commits, None)
            }
            Err(e) => {
                marks.end = now_ns();
                marks.run = marks.run.max(marks.build);
                let behaviour = Behaviour {
                    converged: false,
                    steps: 0,
                    stats: RunStats::default(),
                };
                (behaviour, true, 0, Some(e.to_string()))
            }
        };
    RunRecord {
        seed,
        behaviour,
        recheck_ok,
        commits,
        error,
        run_ns: marks.end - marks.task,
        spans: marks.spans(seed),
        probe: probe.as_ref().map(Probe::totals),
    }
}

/// Builds and drives run `index` of the set to its outcome.
fn drive(
    inputs: &Inputs,
    index: usize,
    probe: Option<&Probe>,
    marks: &mut Marks,
) -> Result<Finished, EngineError> {
    let seed = inputs.seeds[index];
    let budget = inputs.shape.budget;
    let n = inputs.shape.n;
    match &inputs.initial {
        Initial::Skno(config) => {
            let topology = &inputs.topologies[index % inputs.topologies.len()];
            let program = Skno::graphical(Epidemic, OMISSION_BOUND, topology.clone());
            let scheduler = TopologyScheduler::new(topology.clone());
            let (out, stats, fin) = if inputs.workload == Workload::ScheduledAttacks {
                let start = now_ns();
                let adversary = inputs.genomes[index].compile(Some(u64::from(OMISSION_BOUND)));
                marks.compile = Some((start, now_ns()));
                one_way!(
                    OneWayModel::I3,
                    program,
                    config.clone(),
                    scheduler,
                    adversary,
                    seed,
                    budget,
                    probe,
                    marks
                )?
            } else {
                let adversary = BoundedStrategy::new(SKNO_RATE, u64::from(OMISSION_BOUND));
                one_way!(
                    OneWayModel::I3,
                    program,
                    config.clone(),
                    scheduler,
                    adversary,
                    seed,
                    budget,
                    probe,
                    marks
                )?
            };
            Ok((out, stats, all_simulated(&fin), commits(&fin)))
        }
        Initial::Sid(config) => {
            let topology = &inputs.topologies[index % inputs.topologies.len()];
            let program = Sid::graphical(Epidemic, topology.clone());
            let scheduler = TopologyScheduler::new(topology.clone());
            let (out, stats, fin) = one_way!(
                OneWayModel::Io,
                program,
                config.clone(),
                scheduler,
                NoOmissions,
                seed,
                budget,
                probe,
                marks
            )?;
            Ok((out, stats, all_simulated(&fin), commits(&fin)))
        }
        Initial::Counts(config) => {
            let converged = |c: &CountConfiguration<bool>| c.count_state(&true) == n;
            let (out, stats, fin) = match probe {
                None => {
                    let builder = TwoWayRunner::builder(TwoWayModel::Tw, Epidemic)
                        .population(config.clone())
                        .seed(seed)
                        .trace_sink(StatsOnly);
                    marks.build = now_ns();
                    let mut runner = builder.build()?;
                    marks.run = now_ns();
                    let out = runner.run_epochs_until(budget, converged)?;
                    marks.end = now_ns();
                    (out, runner.stats(), runner.into_config())
                }
                Some(p) => {
                    let builder =
                        TwoWayRunner::builder(TwoWayModel::Tw, TracedProgram::new(Epidemic, p))
                            .population(config.clone())
                            .scheduler(TracedScheduler::new(UniformScheduler::new(), p))
                            .adversary(TracedAdversary::new(NoOmissions, p))
                            .seed(seed)
                            .trace_sink(StatsOnly);
                    marks.build = now_ns();
                    let mut runner = builder.build()?;
                    marks.run = now_ns();
                    let in_loop = p.enter(Layer::Loop);
                    let out =
                        runner.run_epochs_until(budget, |c| checked(Some(p), || converged(c)));
                    drop(in_loop);
                    marks.end = now_ns();
                    (out?, runner.stats(), runner.into_config())
                }
            };
            Ok((out, stats, converged(&fin), 0))
        }
    }
}
