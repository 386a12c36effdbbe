//! The traced run's instruments: forwarding wrappers around every layer
//! trait the runners call, per-run call counters, a sampling profiler
//! that attributes run time to layers, and the span record.
//!
//! The wrappers own no behaviour. Each forwards every trait method —
//! including the capability queries (`uses_rng`, `iid_rate`, `targeted`,
//! `law`, `dealt_topology`, `required_topology`, `shard_safe`) and the
//! bulk `next_interactions_into` — so a wrapped runner takes exactly the
//! staging path the bare one does. The harness checks this: traced and
//! bare runs must agree on `(converged, steps, RunStats)` per seed.
//!
//! Every call is counted. Time is not read per call: a clock read around
//! a call of a few tens of nanoseconds drains the pipeline and costs more
//! than the call, so per-call timings overstate the short layers and
//! leave the loop a negative residue. Instead each wrapper marks which
//! layer its worker is in (two relaxed stores per call) and a
//! [`Sampler`] thread tallies those marks every [`TICK`]. A layer's time
//! is its share of the samples taken inside run spans, times the measured
//! length of those spans, so the layers and the loop's self time add up
//! to the run spans by construction.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use ppfts_engine::{InteractionLaw, OmissionStrategy, OneWayProgram, Scheduler, TwoWayProgram};
use ppfts_population::{Interaction, Topology};
use rand::RngCore;

/// How often the sampler reads every worker's layer mark.
pub const TICK: Duration = Duration::from_micros(100);

/// Where a traced worker is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// Outside the run span (building the runner, re-checking).
    Outside = 0,
    /// Inside the run span but in none of the wrapped layers: the
    /// engine's own loop (staging, state access, `RunStats`, epochs).
    Loop = 1,
    /// `Scheduler` arc draws.
    ArcDraw = 2,
    /// `OmissionStrategy` fault decisions.
    Fault = 3,
    /// `OneWayProgram` hooks (the `core` simulators).
    Hook = 4,
    /// `TwoWayProgram` hooks (the protocol's δ).
    Delta = 5,
    /// The workload's convergence predicate.
    Predicate = 6,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 7;

/// Process-wide time origin of every span.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide span origin.
#[must_use]
pub fn now_ns() -> u64 {
    u64::try_from(origin().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The sampling profiler: every [`TICK`] it reads the layer mark of each
/// live [`Probe`] and counts it.
#[derive(Default)]
pub struct Sampler {
    marks: Mutex<Vec<Arc<AtomicU8>>>,
    tallies: [AtomicU64; LAYERS],
    stop: AtomicBool,
}

impl Sampler {
    /// Runs `f` while a thread of its own samples the workers' marks.
    pub fn sample_while<T>(&self, f: impl FnOnce() -> T) -> T {
        self.stop.store(false, Ordering::Relaxed);
        std::thread::scope(|scope| {
            scope.spawn(|| self.run());
            let out = f();
            self.stop.store(true, Ordering::Relaxed);
            out
        })
    }

    /// Samples until `stop` is set.
    ///
    /// # Panics
    ///
    /// If a worker panicked while registering its probe.
    fn run(&self) {
        while !self.stop.load(Ordering::Relaxed) {
            std::thread::sleep(TICK);
            let mut marks = self
                .marks
                .lock()
                .expect("no worker panics while registering");
            // A mark only the sampler still holds belongs to a finished run.
            marks.retain(|m| Arc::strong_count(m) > 1);
            for mark in marks.iter() {
                let layer = usize::from(mark.load(Ordering::Relaxed));
                self.tallies[layer].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Samples counted per layer, indexed by `Layer as usize`.
    #[must_use]
    pub fn tallies(&self) -> [u64; LAYERS] {
        std::array::from_fn(|i| self.tallies[i].load(Ordering::Relaxed))
    }

    fn register(&self) -> Arc<AtomicU8> {
        let mark = Arc::new(AtomicU8::new(Layer::Outside as u8));
        self.marks
            .lock()
            .expect("the sampler does not panic while holding the lock")
            .push(Arc::clone(&mark));
        mark
    }
}

/// Restores the previous layer mark when dropped.
pub struct InLayer<'p> {
    mark: &'p AtomicU8,
    prev: u8,
}

impl Drop for InLayer<'_> {
    fn drop(&mut self) {
        self.mark.store(self.prev, Ordering::Relaxed);
    }
}

fn bump(cell: &Cell<u64>) {
    cell.set(cell.get() + 1);
}

/// Every counter of one traced run, and its layer mark.
pub struct Probe {
    mark: Arc<AtomicU8>,
    arc_calls: Cell<u64>,
    fault_calls: Cell<u64>,
    hook_calls: Cell<u64>,
    receive_calls: Cell<u64>,
    delta_calls: Cell<u64>,
    predicate_calls: Cell<u64>,
}

/// Plain-number snapshot of a [`Probe`]'s counters, summable across runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeTotals {
    /// Arc-draw calls, per-step (`next_interaction`) and bulk
    /// (`next_interactions_into`).
    pub arc_calls: u64,
    /// Fault decisions (`decide`, `decide_at`).
    pub fault_calls: u64,
    /// `OneWayProgram` hook calls.
    pub hook_calls: u64,
    /// `on_receive` / `on_receive_in_place` calls.
    pub receive_calls: u64,
    /// δ applications (`TwoWayProgram::starter_update` calls).
    pub delta_calls: u64,
    /// Predicate calls.
    pub predicate_calls: u64,
}

impl ProbeTotals {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &ProbeTotals) {
        self.arc_calls += other.arc_calls;
        self.fault_calls += other.fault_calls;
        self.hook_calls += other.hook_calls;
        self.receive_calls += other.receive_calls;
        self.delta_calls += other.delta_calls;
        self.predicate_calls += other.predicate_calls;
    }
}

impl Probe {
    /// A probe whose layer mark `sampler` reads.
    #[must_use]
    pub fn new(sampler: &Sampler) -> Probe {
        Probe {
            mark: sampler.register(),
            arc_calls: Cell::new(0),
            fault_calls: Cell::new(0),
            hook_calls: Cell::new(0),
            receive_calls: Cell::new(0),
            delta_calls: Cell::new(0),
            predicate_calls: Cell::new(0),
        }
    }

    /// Marks the worker as in `layer` until the guard drops.
    #[inline]
    #[must_use]
    pub fn enter(&self, layer: Layer) -> InLayer<'_> {
        let prev = self.mark.load(Ordering::Relaxed);
        self.mark.store(layer as u8, Ordering::Relaxed);
        InLayer {
            mark: &self.mark,
            prev,
        }
    }

    /// Counts one predicate call and marks the worker as in it.
    #[must_use]
    pub fn predicate(&self) -> InLayer<'_> {
        bump(&self.predicate_calls);
        self.enter(Layer::Predicate)
    }

    /// The counters as plain numbers.
    #[must_use]
    pub fn totals(&self) -> ProbeTotals {
        ProbeTotals {
            arc_calls: self.arc_calls.get(),
            fault_calls: self.fault_calls.get(),
            hook_calls: self.hook_calls.get(),
            receive_calls: self.receive_calls.get(),
            delta_calls: self.delta_calls.get(),
            predicate_calls: self.predicate_calls.get(),
        }
    }
}

/// One timed interval of the traced run. Spans of one run share the run
/// seed as `id`; `parent` indexes the enclosing span in the same log.
#[derive(Clone, Debug)]
pub struct Span {
    /// What the interval covers (`run_seeds`, `task`, `compile`, `build`,
    /// `run`).
    pub name: &'static str,
    /// The run seed, or the first run index for a `run_seeds` span.
    pub id: u64,
    /// Index of the parent span in the same log.
    pub parent: Option<usize>,
    /// Start, in ns since the process-wide origin.
    pub start_ns: u64,
    /// End, in ns since the process-wide origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's length in ns.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Forwarding [`Scheduler`] wrapper: counts and marks arc draws.
pub struct TracedScheduler<'p, S> {
    inner: S,
    probe: &'p Probe,
}

impl<'p, S> TracedScheduler<'p, S> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: S, probe: &'p Probe) -> Self {
        TracedScheduler { inner, probe }
    }
}

impl<S: Scheduler> Scheduler for TracedScheduler<'_, S> {
    fn next_interaction(&mut self, n: usize, rng: &mut dyn RngCore) -> Interaction {
        bump(&self.probe.arc_calls);
        let _in = self.probe.enter(Layer::ArcDraw);
        self.inner.next_interaction(n, rng)
    }

    fn law(&self) -> InteractionLaw {
        self.inner.law()
    }

    fn required_population(&self) -> Option<usize> {
        self.inner.required_population()
    }

    fn dealt_topology(&self) -> Option<&Topology> {
        self.inner.dealt_topology()
    }

    fn next_interactions_into<R: RngCore>(
        &mut self,
        out: &mut Vec<Interaction>,
        k: usize,
        n: usize,
        rng: &mut R,
    ) where
        Self: Sized,
    {
        bump(&self.probe.arc_calls);
        let _in = self.probe.enter(Layer::ArcDraw);
        self.inner.next_interactions_into(out, k, n, rng);
    }
}

/// Forwarding [`OmissionStrategy`] wrapper: counts and marks fault
/// decisions.
pub struct TracedAdversary<'p, A> {
    inner: A,
    probe: &'p Probe,
}

impl<'p, A> TracedAdversary<'p, A> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: A, probe: &'p Probe) -> Self {
        TracedAdversary { inner, probe }
    }
}

impl<A: OmissionStrategy> OmissionStrategy for TracedAdversary<'_, A> {
    fn decide(&mut self, step: u64, rng: &mut dyn RngCore) -> bool {
        bump(&self.probe.fault_calls);
        let _in = self.probe.enter(Layer::Fault);
        self.inner.decide(step, rng)
    }

    fn decide_at(
        &mut self,
        step: u64,
        interaction: Option<Interaction>,
        rng: &mut dyn RngCore,
    ) -> bool {
        bump(&self.probe.fault_calls);
        let _in = self.probe.enter(Layer::Fault);
        self.inner.decide_at(step, interaction, rng)
    }

    fn targeted(&self) -> bool {
        self.inner.targeted()
    }

    fn injected(&self) -> u64 {
        self.inner.injected()
    }

    fn budget(&self) -> Option<u64> {
        self.inner.budget()
    }

    fn iid_rate(&self) -> Option<f64> {
        self.inner.iid_rate()
    }

    fn uses_rng(&self) -> bool {
        self.inner.uses_rng()
    }
}

/// Forwarding [`OneWayProgram`] / [`TwoWayProgram`] wrapper: counts and
/// marks the program's hooks.
pub struct TracedProgram<'p, P> {
    inner: P,
    probe: &'p Probe,
}

impl<'p, P> TracedProgram<'p, P> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: P, probe: &'p Probe) -> Self {
        TracedProgram { inner, probe }
    }

    fn hook(&self) -> InLayer<'p> {
        bump(&self.probe.hook_calls);
        self.probe.enter(Layer::Hook)
    }

    fn receive(&self) -> InLayer<'p> {
        bump(&self.probe.receive_calls);
        self.hook()
    }

    fn delta(&self, starter: bool) -> InLayer<'p> {
        if starter {
            bump(&self.probe.delta_calls);
        }
        self.probe.enter(Layer::Delta)
    }
}

impl<P: OneWayProgram> OneWayProgram for TracedProgram<'_, P> {
    type State = P::State;

    fn on_proximity(&self, q: &P::State) -> P::State {
        let _in = self.hook();
        self.inner.on_proximity(q)
    }

    fn on_receive(&self, s: &P::State, r: &P::State) -> P::State {
        let _in = self.receive();
        self.inner.on_receive(s, r)
    }

    fn on_omission_starter(&self, s: &P::State) -> P::State {
        let _in = self.hook();
        self.inner.on_omission_starter(s)
    }

    fn on_omission_reactor(&self, r: &P::State) -> P::State {
        let _in = self.hook();
        self.inner.on_omission_reactor(r)
    }

    fn on_proximity_in_place(&self, q: &mut P::State) -> bool {
        let _in = self.hook();
        self.inner.on_proximity_in_place(q)
    }

    fn on_receive_in_place(&self, s: &P::State, r: &mut P::State) -> bool {
        let _in = self.receive();
        self.inner.on_receive_in_place(s, r)
    }

    fn on_omission_starter_in_place(&self, s: &mut P::State) -> bool {
        let _in = self.hook();
        self.inner.on_omission_starter_in_place(s)
    }

    fn on_omission_reactor_in_place(&self, r: &mut P::State) -> bool {
        let _in = self.hook();
        self.inner.on_omission_reactor_in_place(r)
    }

    fn required_topology(&self) -> Option<&Topology> {
        OneWayProgram::required_topology(&self.inner)
    }

    fn shard_safe(&self) -> bool {
        OneWayProgram::shard_safe(&self.inner)
    }
}

impl<P: TwoWayProgram> TwoWayProgram for TracedProgram<'_, P> {
    type State = P::State;

    fn starter_update(&self, s: &P::State, r: &P::State) -> P::State {
        let _in = self.delta(true);
        self.inner.starter_update(s, r)
    }

    fn reactor_update(&self, s: &P::State, r: &P::State) -> P::State {
        let _in = self.delta(false);
        self.inner.reactor_update(s, r)
    }

    fn starter_omission(&self, s: &P::State) -> P::State {
        let _in = self.delta(false);
        self.inner.starter_omission(s)
    }

    fn reactor_omission(&self, r: &P::State) -> P::State {
        let _in = self.delta(false);
        self.inner.reactor_omission(r)
    }

    fn required_topology(&self) -> Option<&Topology> {
        TwoWayProgram::required_topology(&self.inner)
    }

    fn shard_safe(&self) -> bool {
        TwoWayProgram::shard_safe(&self.inner)
    }
}
