//! One benchmark invocation: set-up, the closed-loop run set, the output
//! checks, and the metrics.

use std::fmt::Write as _;
use std::ops::Range;
use std::time::Instant;

use ppfts_engine::run_seeds;

use crate::metrics::{MetricSpec, END_TO_END, PER_LAYER};
use crate::probe::{now_ns, Layer, ProbeTotals, Sampler, Span, LAYERS};
use crate::workloads::{run_one, Inputs, RunRecord, Scale, Workload};

/// A traced invocation alternates this many bare and traced blocks.
const TRACE_BLOCKS: usize = 4;

/// Set-up is timed in this many chunks of `Shape::setups` set-ups each;
/// `setup_s` is the median of the chunk means.
const SETUP_CHUNKS: usize = 3;

/// A run's budget must be at least this many times its step count.
pub const BUDGET_HEADROOM: u64 = 10;

/// `run_s_tail` is the highest percentile with this many runs beyond it.
pub const TAIL_RUNS: usize = 10;

/// What one invocation measures.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// Measure per-layer metrics through the wrapped layers.
    pub trace: bool,
    /// Full size or smoke size.
    pub scale: Scale,
}

/// The outcome of one invocation.
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Runs attempted, bare and traced.
    pub attempted: u64,
    /// Runs whose predicate did not hold within the budget.
    pub failed: u64,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Vec<(MetricSpec, f64)>,
    /// Why a check failed, one line each.
    pub problems: Vec<String>,
    /// Human-readable summary lines.
    pub summary: Vec<String>,
    /// The invocation's record (runs, digest, spans) as JSON.
    pub record: String,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (spec, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                spec.name,
                json_number(*value),
                spec.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite JSON number (non-finite values print as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// One `run_seeds` call over a range of the run set.
struct SetRun {
    span: Span,
    records: Vec<RunRecord>,
}

/// Runs the runs `range` of the set once, through `run_seeds`.
fn run_set(
    inputs: &Inputs,
    range: Range<usize>,
    sampler: Option<&Sampler>,
    workers: usize,
) -> SetRun {
    let first = range.start as u64;
    let start_ns = now_ns();
    let results = run_seeds(first..range.end as u64, workers, |i| {
        run_one(
            inputs,
            usize::try_from(i).expect("run index fits usize"),
            sampler,
        )
    });
    let end_ns = now_ns();
    SetRun {
        span: Span {
            name: "run_seeds",
            id: first,
            parent: None,
            start_ns,
            end_ns,
        },
        records: results.into_iter().map(|s| s.value).collect(),
    }
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        f64::midpoint(values[mid - 1], values[mid])
    }
}

fn records(sets: &[SetRun]) -> impl Iterator<Item = &RunRecord> {
    sets.iter().flat_map(|s| &s.records)
}

fn wall_ns(sets: &[SetRun]) -> u64 {
    sets.iter().map(|s| s.span.ns()).sum()
}

/// FNV-1a over every run's seed and behaviour, in run order.
#[must_use]
pub fn behaviour_digest<'a>(records: impl IntoIterator<Item = &'a RunRecord>) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for r in records {
        let b = &r.behaviour;
        for word in [
            r.seed,
            u64::from(b.converged),
            b.steps,
            b.stats.steps,
            b.stats.omissive_steps,
            b.stats.changed_steps,
            b.stats.noop_steps,
        ] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01B3);
            }
        }
    }
    format!("{h:016x}")
}

/// Peak resident memory of this process, in MB (10⁶ bytes).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Percentiles `run_s_tail` may report, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest ladder percentile with at least [`TAIL_RUNS`] runs beyond
/// it, over `runs` (seconds): `(value, percentile, run count)`. With too
/// few runs for any rung it is the maximum (percentile 100).
fn tail(runs: &mut [f64]) -> (f64, f64, usize) {
    runs.sort_by(f64::total_cmp);
    let count = runs.len();
    for pct in TAIL_LADDER {
        let beyond = (count as f64 * (1.0 - pct / 100.0)).floor() as usize;
        if beyond >= TAIL_RUNS {
            return (runs[count - beyond - 1], pct, count);
        }
    }
    (runs.last().copied().unwrap_or(0.0), 100.0, count)
}

/// Times the workload's set-up: [`SETUP_CHUNKS`] chunks of the shape's
/// fixed count of set-ups. Returns the last inputs, `setup_s` (the median
/// chunk's mean set-up time) and the median topology build time.
fn measure_setup(workload: Workload, scale: Scale, seed: u64) -> (Inputs, f64, f64) {
    let per_chunk = workload.shape(scale).setups;
    let mut chunk_means = Vec::with_capacity(SETUP_CHUNKS);
    let mut topology_times = Vec::with_capacity(SETUP_CHUNKS * per_chunk);
    let mut last = None;
    for _ in 0..SETUP_CHUNKS {
        let started = Instant::now();
        for _ in 0..per_chunk {
            let inputs = std::hint::black_box(Inputs::generate(workload, scale, seed));
            topology_times.push(inputs.topology_ns as f64 / 1e9);
            last = Some(inputs);
        }
        chunk_means.push(started.elapsed().as_secs_f64() / per_chunk as f64);
    }
    let inputs = last.expect("at least one set-up");
    (
        inputs,
        median(&mut chunk_means),
        median(&mut topology_times),
    )
}

/// Runs the workload of `opts` and checks and measures it.
#[must_use]
pub fn execute(opts: &Options) -> Report {
    let workload = opts.workload;
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (inputs, setup_s, topology_build_s) = measure_setup(workload, opts.scale, opts.seed);

    // A traced invocation runs the first half of the set twice, bare and
    // traced, so it takes about as long as an untraced one.
    let set = inputs.seeds.len();
    let runs = if opts.trace { set.div_ceil(2) } else { set };
    // Untimed warm-up over the first tenth of the set: thread start-up,
    // allocator growth and clock ramp-up stay out of the timed set.
    let _ = run_set(&inputs, 0..set.div_ceil(10), None, workers);
    let sampler = Sampler::default();
    let mut bare = Vec::new();
    let mut traced = Vec::new();
    if opts.trace {
        // Bare and traced blocks alternate, so a drift in the host's speed
        // falls on both alike and `bench.trace_overhead_frac` compares
        // like with like.
        let block = runs.div_ceil(TRACE_BLOCKS);
        for start in (0..runs).step_by(block) {
            let range = start..(start + block).min(runs);
            bare.push(run_set(&inputs, range.clone(), None, workers));
            traced.push(sampler.sample_while(|| run_set(&inputs, range, Some(&sampler), workers)));
        }
    } else {
        bare.push(run_set(&inputs, 0..runs, None, workers));
    }

    // Output checks.
    let mut problems = Vec::new();
    for (b, t) in records(&bare).zip(records(&traced)) {
        if b.behaviour != t.behaviour {
            problems.push(format!(
                "seed {}: traced (converged, steps, RunStats) differ from the bare run",
                b.seed
            ));
        }
    }
    let budget = inputs.shape.budget;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for r in records(&bare).chain(records(&traced)) {
        attempted += 1;
        if let Some(e) = &r.error {
            problems.push(format!("seed {}: engine error: {e}", r.seed));
        } else if !r.behaviour.converged {
            problems.push(format!(
                "seed {}: predicate not satisfied after {} steps (budget {budget})",
                r.seed, r.behaviour.steps
            ));
        }
        failed += u64::from(!r.behaviour.converged);
        if !r.recheck_ok {
            problems.push(format!(
                "seed {}: final configuration fails the predicate",
                r.seed
            ));
        }
        if r.behaviour.steps.saturating_mul(BUDGET_HEADROOM) > budget {
            problems.push(format!(
                "seed {}: {} steps leave less than {BUDGET_HEADROOM}x headroom in the budget of {budget}",
                r.seed, r.behaviour.steps
            ));
        }
    }
    problems.sort();
    problems.dedup();

    let set_steps: u64 = records(&bare).map(|r| r.behaviour.steps).sum();
    let wall_s = wall_ns(&bare) as f64 / 1e9;
    let mut run_times: Vec<f64> = records(&bare).map(|r| r.run_ns as f64 / 1e9).collect();
    let run_s_p50 = median(&mut run_times);
    let (run_s_tail, tail_pct, tail_count) = tail(&mut run_times);
    let digest = behaviour_digest(records(&bare));
    let failed_frac = failed as f64 / attempted as f64;

    let mut summary = vec![
        format!(
            "workload {} seed {} scale {:?}: {runs} of {set} runs{}, {} workers",
            workload.name(),
            opts.seed,
            opts.scale,
            if opts.trace {
                ", bare and traced in alternating blocks"
            } else {
                ""
            },
            workers.min(runs),
        ),
        format!("behaviour_digest {digest} (over the {runs} bare runs)"),
        format!("failed_frac {failed_frac} ({failed} of {attempted})"),
        format!("run_s_tail is p{tail_pct:.2} over {tail_count} runs"),
        format!(
            "setup_s is the median of {SETUP_CHUNKS} chunk means of {} set-ups",
            inputs.shape.setups
        ),
    ];

    let metrics: Vec<(MetricSpec, f64)> = if opts.trace {
        let layer = layer_metrics(
            &inputs,
            &traced,
            &sampler.tallies(),
            wall_s,
            topology_build_s,
            workers,
        );
        PER_LAYER.iter().copied().zip(layer).collect()
    } else {
        let values = [
            setup_s,
            wall_s,
            set_steps as f64 / wall_s,
            run_s_p50,
            run_s_tail,
            peak_rss_mb(),
        ];
        END_TO_END.iter().copied().zip(values).collect()
    };
    for (spec, value) in &metrics {
        summary.push(format!(
            "  {:<38} {:>16} {}",
            spec.name,
            json_number(*value),
            spec.unit
        ));
    }

    let record = record_json(opts, &digest, &bare, &traced, tail_pct, tail_count);
    Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
        summary,
        record,
    }
}

/// The per-layer metrics, in [`PER_LAYER`] order, from the traced sets.
fn layer_metrics(
    inputs: &Inputs,
    traced: &[SetRun],
    tallies: &[u64; LAYERS],
    bare_wall_s: f64,
    topology_build_s: f64,
    workers: usize,
) -> Vec<f64> {
    let workload = inputs.workload;
    let runs = records(traced).count() as f64;
    let mut totals = ProbeTotals::default();
    let (mut steps, mut omissive, mut changed, mut commits) = (0u64, 0u64, 0u64, 0u64);
    let (mut run_span_ns, mut task_ns) = (0f64, 0f64);
    let mut build_ms = Vec::new();
    let mut compile_us = Vec::new();
    for r in records(traced) {
        totals.add(r.probe.as_ref().expect("traced runs carry a probe"));
        steps += r.behaviour.steps;
        omissive += r.behaviour.stats.omissive_steps;
        changed += r.behaviour.stats.changed_steps;
        commits += r.commits;
        for span in &r.spans {
            match span.name {
                "task" => task_ns += span.ns() as f64,
                "run" => run_span_ns += span.ns() as f64,
                "build" => build_ms.push(span.ns() as f64 / 1e6),
                "compile" => compile_us.push(span.ns() as f64 / 1e3),
                _ => {}
            }
        }
    }
    let steps_f = (steps as f64).max(1.0);
    let set_ns = wall_ns(traced) as f64;
    let block = traced.iter().map(|s| s.records.len()).max().unwrap_or(0);
    let busy_workers = workers.min(block) as f64;
    let traced_wall_s = set_ns / 1e9;
    // Each epoch run checks the predicate once up front and once per epoch.
    let epochs = (totals.predicate_calls as f64 - runs).max(1.0);
    let simulator = !workload.epochs();
    let only = |applies: bool, v: f64| if applies { v } else { 0.0 };
    // A layer's time: its share of the samples taken inside run spans,
    // times the length of those spans.
    let in_runs: u64 = tallies[Layer::Loop as usize..].iter().sum();
    let ns_in = |layer: Layer| {
        if in_runs == 0 {
            0.0
        } else {
            run_span_ns * tallies[layer as usize] as f64 / in_runs as f64
        }
    };

    vec![
        ns_in(Layer::ArcDraw) / steps_f,
        totals.arc_calls as f64 * 1000.0 / steps_f,
        topology_build_s,
        inputs.working_set_bytes() as f64 / 1e6,
        ns_in(Layer::Fault) / steps_f,
        totals.fault_calls as f64 / steps_f,
        only(simulator, ns_in(Layer::Loop) / steps_f),
        ns_in(Layer::Predicate) / steps_f,
        totals.predicate_calls as f64 / runs,
        median(&mut build_ms),
        1.0 - task_ns / (busy_workers * set_ns),
        changed as f64 / steps_f,
        omissive as f64 / steps_f,
        only(workload.epochs(), steps_f / epochs),
        only(workload.epochs(), ns_in(Layer::Loop) / epochs / 1e3),
        only(simulator, ns_in(Layer::Hook) / steps_f),
        only(simulator, totals.receive_calls as f64 / steps_f),
        only(simulator, steps_f / (commits as f64 / 2.0).max(1.0)),
        only(workload.epochs(), totals.delta_calls as f64 / epochs),
        only(
            workload.epochs(),
            ns_in(Layer::Delta) / (totals.delta_calls as f64).max(1.0),
        ),
        median(&mut compile_us),
        traced_wall_s / bare_wall_s - 1.0,
    ]
}

fn span_json(out: &mut String, span: &Span, parent: Option<usize>) {
    let parent = parent.map_or_else(|| "null".to_string(), |p| p.to_string());
    let _ = write!(
        out,
        "{{\"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
        span.name, span.id, span.start_ns, span.end_ns
    );
}

/// The invocation's record: settings, digest, every run, and (traced)
/// the span log and per-run layer totals.
fn record_json(
    opts: &Options,
    digest: &str,
    bare: &[SetRun],
    traced: &[SetRun],
    tail_pct: f64,
    tail_count: usize,
) -> String {
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"scale\": \"{:?}\", \"trace\": {}, \
         \"behaviour_digest\": \"{digest}\", \"run_s_tail_percentile\": {tail_pct}, \
         \"run_s_tail_runs\": {tail_count}, \"runs\": [",
        opts.workload.name(),
        opts.seed,
        opts.scale,
        opts.trace
    );
    for (i, r) in records(bare).enumerate() {
        let b = &r.behaviour;
        let _ = write!(
            out,
            "{}{{\"seed\": {}, \"converged\": {}, \"steps\": {}, \"omissive\": {}, \"changed\": {}, \"run_s\": {}}}",
            if i > 0 { ", " } else { "" },
            r.seed,
            b.converged,
            b.steps,
            b.stats.omissive_steps,
            b.stats.changed_steps,
            r.run_ns as f64 / 1e9
        );
    }
    out.push_str("], \"spans\": [");
    let mut index = 0;
    for set in traced {
        if index > 0 {
            out.push_str(", ");
        }
        let set_index = index;
        span_json(&mut out, &set.span, None);
        index += 1;
        for r in &set.records {
            let base = index;
            for span in &r.spans {
                out.push_str(", ");
                let parent = span.parent.map_or(set_index, |p| base + p);
                span_json(&mut out, span, Some(parent));
                index += 1;
            }
        }
    }
    out.push_str("], \"layers\": [");
    for (i, r) in records(traced).enumerate() {
        let p = r.probe.unwrap_or_default();
        let _ = write!(
            out,
            "{}{{\"seed\": {}, \"arc_calls\": {}, \"fault_calls\": {}, \"hook_calls\": {}, \
             \"receive_calls\": {}, \"delta_calls\": {}, \"predicate_calls\": {}}}",
            if i > 0 { ", " } else { "" },
            r.seed,
            p.arc_calls,
            p.fault_calls,
            p.hook_calls,
            p.receive_calls,
            p.delta_calls,
            p.predicate_calls
        );
    }
    out.push_str("]}");
    out
}
