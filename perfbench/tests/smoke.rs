//! Smoke tests of the benchmark at tiny size: every metric named in
//! `BENCHMARK.json` prints with its unit and a valid name, the traced
//! runs agree with the bare ones, and inputs derive from the seed alone.

use std::collections::HashSet;

use ppfts_perfbench::harness::{execute, Options, Report};
use ppfts_perfbench::metrics::{valid_name, valid_unit, MetricSpec, END_TO_END, PER_LAYER};
use ppfts_perfbench::workloads::{Inputs, Scale, Workload};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

fn smoke(workload: Workload, trace: bool) -> Report {
    execute(&Options {
        workload,
        seed: 3,
        trace,
        scale: Scale::Smoke,
    })
}

fn assert_prints(report: &Report, specs: &[MetricSpec]) {
    let names: Vec<&str> = report.metrics.iter().map(|(s, _)| s.name).collect();
    let expected: Vec<&str> = specs.iter().map(|s| s.name).collect();
    assert_eq!(names, expected);
    let line = report.json_line();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    for (spec, value) in &report.metrics {
        assert!(value.is_finite(), "{} = {value}", spec.name);
        let entry = format!("\"{}\": {{\"value\": ", spec.name);
        assert!(line.contains(&entry), "{line} lacks {entry}");
        let unit = format!("\"unit\": \"{}\"}}", spec.unit);
        assert!(line.contains(&unit), "{line} lacks {unit}");
    }
}

#[test]
fn ledger_names_are_valid_unique_and_match_benchmark_json() {
    let json = benchmark_json();
    let mut seen = HashSet::new();
    for spec in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(spec.name), "bad name {}", spec.name);
        assert!(valid_unit(spec.unit), "bad unit {}", spec.unit);
        assert!(matches!(spec.better, "lower" | "higher"), "{}", spec.name);
        assert!(seen.insert(spec.name), "duplicate {}", spec.name);
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            spec.name, spec.unit, spec.better
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists a metric the ledger does not"
    );
    for workload in Workload::ALL {
        let entry = format!("{{\"name\": \"{}\", \"why\": ", workload.name());
        assert!(
            json.contains(&entry),
            "BENCHMARK.json lacks workload {}",
            workload.name()
        );
    }
    assert!(json.contains("{\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\""));
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        let bare = smoke(workload, false);
        assert!(
            bare.problems.is_empty(),
            "{}: {:?}",
            workload.name(),
            bare.problems
        );
        assert_eq!(bare.failed, 0, "{}", workload.name());
        assert_prints(&bare, END_TO_END);
        for (spec, value) in &bare.metrics {
            assert!(
                *value > 0.0,
                "{}: end-to-end {} is {value}",
                workload.name(),
                spec.name
            );
        }

        // The traced run re-checks (converged, steps, RunStats) per seed
        // against the bare run; any divergence lands in `problems`.
        let traced = smoke(workload, true);
        assert!(
            traced.problems.is_empty(),
            "{}: {:?}",
            workload.name(),
            traced.problems
        );
        assert_eq!(traced.failed, 0, "{}", workload.name());
        // The first half of the set, bare and traced.
        assert_eq!(traced.attempted, 2 * bare.attempted.div_ceil(2));
        // Six traced runs in blocks of two: three `run_seeds` spans, each
        // with a task, build and run span per run.
        assert_eq!(traced.record.matches("\"name\": \"run_seeds\"").count(), 3);
        assert_eq!(traced.record.matches("\"name\": \"task\"").count(), 6);
        assert_prints(&traced, PER_LAYER);
    }
}

#[test]
fn layers_report_the_staging_path_each_workload_takes() {
    let metric = |report: &Report, name: &str| {
        report
            .metrics
            .iter()
            .find(|(s, _)| s.name == name)
            .map(|(_, v)| *v)
            .expect("metric printed")
    };
    let skno = smoke(Workload::SknoOmissions, true);
    let sid = smoke(Workload::SidSparse, true);
    let epochs = smoke(Workload::EpidemicEpochs, true);
    let scheduled = smoke(Workload::ScheduledAttacks, true);

    // Per-step path: one arc draw and one fault decision per step.
    assert!((metric(&skno, "population.arc_draw_calls_per_kstep") - 1000.0).abs() < 1e-9);
    assert!((metric(&skno, "engine.fault_calls_per_step") - 1.0).abs() < 1e-9);
    // Bulk paths: one draw call per batch; faults only when omissive.
    assert!(metric(&sid, "population.arc_draw_calls_per_kstep") < 1.0);
    assert!(metric(&scheduled, "population.arc_draw_calls_per_kstep") < 1.0);
    assert_eq!(metric(&sid, "engine.fault_calls_per_step"), 0.0);
    assert!((metric(&scheduled, "engine.fault_calls_per_step") - 1.0).abs() < 1e-9);
    // Epochs bypass the scheduler and the adversary entirely.
    assert_eq!(metric(&epochs, "population.arc_draw_calls_per_kstep"), 0.0);
    assert_eq!(metric(&epochs, "engine.fault_calls_per_step"), 0.0);
    assert!(metric(&epochs, "engine.epoch_len") > 1.0);
    assert!(metric(&epochs, "protocols.delta_calls_per_epoch") > 0.0);
    assert!(metric(&scheduled, "fuzz.compile_us") > 0.0);
}

#[test]
fn inputs_derive_from_the_workload_seed_alone() {
    for workload in Workload::ALL {
        let a = Inputs::generate(workload, Scale::Smoke, 11);
        let b = Inputs::generate(workload, Scale::Smoke, 11);
        let c = Inputs::generate(workload, Scale::Smoke, 12);
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.topologies, b.topologies);
        assert_eq!(a.genomes, b.genomes);
        assert_ne!(a.seeds, c.seeds);
    }
    let first = smoke(Workload::ScheduledAttacks, false);
    let again = smoke(Workload::ScheduledAttacks, false);
    let digest = |r: &Report| {
        r.summary
            .iter()
            .find(|l| l.starts_with("behaviour_digest"))
            .cloned()
    };
    assert!(digest(&first).is_some());
    assert_eq!(digest(&first), digest(&again));
}
