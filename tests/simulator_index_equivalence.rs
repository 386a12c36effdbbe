//! Simulator fast-path equivalence suite.
//!
//! `SKnO`'s reactor checks skip their queue scans when a settled-queue
//! check proves that no run can complete, and `SID` / `SKnO` cache the
//! adjacency-filtering flag; the scan path is kept as the reference
//! semantics (`Skno::scan_reference`). This suite certifies the contract
//! that makes the shortcut an *optimization* rather than a semantic
//! change:
//!
//! 1. **Bit-identity** — for any model, omission bound `o ∈ {0, 1, 2}`,
//!    adversary, complete or restricted graph, and scalar or batched
//!    execution, the shortcut simulator produces the same final
//!    configuration, `RunStats`, step count, and recorded trace as the
//!    scan-path simulator from the same seed. Edge-path cases extend
//!    this to a multi-state protocol, naive joker bookkeeping, the
//!    unaddressed graphical mutant, and I4 under a high omission rate.
//! 2. **RNG position** — after the comparison point both runners are
//!    driven further on their own RNGs and must still agree, which can
//!    only hold if the first phase consumed the shared stream
//!    identically (the shortcut makes no draws of its own).
//! 3. **`SID` / `NamedSid` fast path** — the cached filtering flag keeps
//!    the complete-graph graphical simulators bit-identical to their
//!    anonymous forms, and restricted-graph batched runs bit-identical
//!    to scalar runs.
//!
//! CI runs this suite with `PROPTEST_CASES=32` in debug and 256 in
//! release on every push; debug builds additionally cross-check every
//! skipped reactor check against the scan path's census and a fresh
//! joker count.

use proptest::prelude::*;

use ppfts::core::{JokerBookkeeping, NamedSid, Sid, Skno};
use ppfts::engine::{
    AtMostOneStrategy, BoundedStrategy, FullTrace, OneWayModel, OneWayRunner, RateStrategy,
    ScriptedOmissions, StatsOnly,
};
use ppfts::population::Topology;
use ppfts::protocols::majority_states::{SX, SY, WX, WY};
use ppfts::protocols::{Epidemic, ExactMajority, Pairing, PairingState};

fn one_way_model_strategy() -> impl Strategy<Value = OneWayModel> {
    prop_oneof![
        Just(OneWayModel::It),
        Just(OneWayModel::Io),
        Just(OneWayModel::I1),
        Just(OneWayModel::I2),
        Just(OneWayModel::I3),
        Just(OneWayModel::I4),
    ]
}

/// A restricted (non-complete) topology for the graphical sweep.
fn restricted_topology(n: usize, pick: u8, seed: u64) -> Topology {
    match pick % 3 {
        0 => Topology::ring(n).unwrap(),
        1 => Topology::star(n).unwrap(),
        _ => {
            let d = if n.is_multiple_of(2) { 3 } else { 2 };
            Topology::random_regular(n, d, seed).unwrap()
        }
    }
}

/// Finishes a built `SKnO` runner: executes `steps` scalar (`exec`
/// 0) or batched (`exec` 1), snapshots the phase-1 observables, then
/// runs a scalar coda so the returned phase-2 configuration certifies
/// the phase-1 RNG position.
macro_rules! drive_skno {
    ($builder:expr, $steps:expr, $exec:expr, $batch:expr) => {{
        let mut r = $builder.build().unwrap();
        if $exec == 0 {
            r.run($steps).unwrap();
        } else {
            r.run_batched($steps, $batch).unwrap();
        }
        let phase1 = (r.config().clone(), r.stats(), r.steps(), r.take_trace());
        r.run(67).unwrap();
        (phase1.0, phase1.1, phase1.2, phase1.3, r.config().clone())
    }};
}

/// Adds the sweep's adversary pick to a builder, then drives it.
macro_rules! drive_skno_with_adversary {
    ($builder:expr, $adv:expr, $rate:expr, $o:expr, $at:expr, $steps:expr, $exec:expr, $batch:expr) => {
        match $adv {
            0 => drive_skno!(
                $builder.adversary(BoundedStrategy::new($rate as f64 / 100.0, $o as u64)),
                $steps,
                $exec,
                $batch
            ),
            1 => drive_skno!(
                $builder.adversary(RateStrategy::new($rate as f64 / 100.0)),
                $steps,
                $exec,
                $batch
            ),
            2 => drive_skno!(
                $builder.adversary(AtMostOneStrategy::at_step($at)),
                $steps,
                $exec,
                $batch
            ),
            _ => drive_skno!(
                $builder.adversary(ScriptedOmissions::new([2, 3, 40, 151])),
                $steps,
                $exec,
                $batch
            ),
        }
    };
}

/// Drives one seeded configuration through the shortcut simulator
/// `$skno` and through its scan reference, and asserts the two runs
/// bit-identical: configurations, stats, steps, full traces (so a
/// divergence points at its step) and RNG position.
macro_rules! assert_shortcut_equals_scan {
    ($skno:expr, $config:expr, $model:expr, $topology:expr, $seed:expr,
     $adv:expr, $rate:expr, $o:expr, $at:expr, $steps:expr, $exec:expr, $batch:expr) => {{
        let observe = |skno| {
            let builder = OneWayRunner::builder($model, skno)
                .config($config)
                .seed($seed)
                .trace_sink(FullTrace::new());
            match &$topology {
                Some(t) => drive_skno_with_adversary!(
                    builder.topology(t.clone()),
                    $adv,
                    $rate,
                    $o,
                    $at,
                    $steps,
                    $exec,
                    $batch
                ),
                None => {
                    drive_skno_with_adversary!(builder, $adv, $rate, $o, $at, $steps, $exec, $batch)
                }
            }
        };
        let skno = $skno;
        prop_assert!(skno.is_indexed());
        let fast = observe(skno.clone());
        let scan = observe(skno.scan_reference());
        prop_assert_eq!(fast.0.as_slice(), scan.0.as_slice(), "final configuration");
        prop_assert_eq!(fast.1, scan.1, "RunStats");
        prop_assert_eq!(fast.2, scan.2, "step count");
        prop_assert_eq!(fast.3, scan.3, "traces");
        prop_assert_eq!(
            fast.4.as_slice(),
            scan.4.as_slice(),
            "post-phase configurations diverged: phase 1 left different RNG positions"
        );
    }};
}

/// An anonymous (`None`), complete or restricted topology, per the
/// sweeps' `graphical` pick: 0-1 anonymous, 2 complete, 3-4 restricted.
fn pick_topology(n: usize, graphical: u8, gseed: u64) -> Option<Topology> {
    match graphical {
        0 | 1 => None,
        2 => Some(Topology::complete(n).unwrap()),
        g => Some(restricted_topology(n, g, gseed)),
    }
}

proptest! {
    /// The core contract: indexed `SKnO` ≡ scan-path `SKnO`
    /// bit-for-bit — configurations, stats, steps, traces, and RNG
    /// position — across models, omission bounds, adversaries,
    /// anonymous/graphical instances, and scalar/batched execution. The
    /// adversary sweep covers both RNG-drawing and deterministic
    /// deciders, so batched runs exercise the interleaved *and* the bulk
    /// pair-drawing paths.
    #[test]
    fn indexed_skno_equals_scan_reference_bitwise(
        model in one_way_model_strategy(),
        o in 0u32..=2,
        n in 4usize..12,
        graphical in 0u8..5,
        gseed in 0u64..50,
        adv in 0u8..4,
        rate in 1u32..=20,
        at in 0u64..400,
        seed in 0u64..10_000,
        steps in 0u64..400,
        exec in 0u8..2,
        batch in 1u64..200,
    ) {
        let topology = pick_topology(n, graphical, gseed);
        let n = topology.as_ref().map_or(n, Topology::len);
        let sims: Vec<bool> = (0..n).map(|i| i == 0).collect();
        let skno = match &topology {
            Some(t) => Skno::graphical(Epidemic, o, t.clone()),
            None => Skno::new(Epidemic, o),
        };
        assert_shortcut_equals_scan!(
            skno, Skno::<Epidemic>::initial(&sims), model, topology, seed,
            adv, rate, o, at, steps, exec, batch
        );
    }

    /// `SID` complete-graph graphical ≡ anonymous, bit-for-bit with
    /// traces and RNG continuation — the cached filtering flag takes
    /// the short-circuit on both sides of this comparison, and the
    /// result must still match the pre-cache contract.
    #[test]
    fn sid_complete_graphical_equals_anonymous_bitwise(
        model in one_way_model_strategy(),
        n in 2usize..10,
        rate in 0u32..=30,
        seed in 0u64..10_000,
        steps in 0u64..300,
    ) {
        let sims: Vec<bool> = (0..n).map(|i| i == 0).collect();
        macro_rules! drive_sid {
            ($builder:expr) => {{
                let mut r = $builder
                    .adversary(RateStrategy::new(rate as f64 / 100.0))
                    .seed(seed)
                    .trace_sink(FullTrace::new())
                    .build()
                    .unwrap();
                r.run(steps).unwrap();
                let trace = r.take_trace();
                let phase1 = r.config().clone();
                r.run(53).unwrap();
                (phase1, r.stats(), trace, r.config().clone())
            }};
        }
        let anon = drive_sid!(
            OneWayRunner::builder(model, Sid::new(Epidemic)).config(Sid::<Epidemic>::initial(&sims))
        );
        let graph = drive_sid!(
            OneWayRunner::builder(model, Sid::graphical(Epidemic, Topology::complete(n).unwrap()))
                .config(Sid::<Epidemic>::initial(&sims))
                .topology(Topology::complete(n).unwrap())
        );
        prop_assert_eq!(anon.0.as_slice(), graph.0.as_slice());
        prop_assert_eq!(anon.1, graph.1);
        prop_assert_eq!(anon.2, graph.2, "traces diverged");
        prop_assert_eq!(anon.3.as_slice(), graph.3.as_slice(), "RNG positions diverged");
    }

    /// Restricted-graph `SID` (the filtering == true path) stays
    /// bit-identical between scalar and batched execution.
    #[test]
    fn sid_restricted_batched_equals_scalar(
        pick in 0u8..3,
        n in 4usize..12,
        gseed in 0u64..50,
        rate in 0u32..=30,
        seed in 0u64..10_000,
        steps in 0u64..300,
        batch in 1u64..96,
    ) {
        let topology = restricted_topology(n, pick, gseed);
        let n = topology.len();
        let sims: Vec<bool> = (0..n).map(|i| i == 0).collect();
        let build = || OneWayRunner::builder(OneWayModel::Io, Sid::graphical(Epidemic, topology.clone()))
            .config(Sid::<Epidemic>::initial(&sims))
            .topology(topology.clone())
            .adversary(RateStrategy::new(rate as f64 / 100.0))
            .seed(seed)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let scalar = {
            let mut r = build();
            r.run(steps).unwrap();
            (r.config().clone(), r.stats(), r.steps())
        };
        let mut batched = build();
        batched.run_batched(steps, batch).unwrap();
        prop_assert_eq!((batched.config().clone(), batched.stats(), batched.steps()), scalar);
    }

    /// `NamedSid` keeps its contract too: the graphical complete-graph
    /// instance matches the anonymous one (its inner `SID` is always
    /// topology-free, so both take the cached fast path).
    #[test]
    fn named_sid_complete_graphical_equals_anonymous(
        n in 2usize..8,
        rate in 0u32..=20,
        seed in 0u64..10_000,
        steps in 0u64..300,
    ) {
        let sims: Vec<bool> = (0..n).map(|i| i == 0).collect();
        macro_rules! drive_named {
            ($builder:expr) => {{
                let mut r = $builder
                    .adversary(RateStrategy::new(rate as f64 / 100.0))
                    .seed(seed)
                    .trace_sink(StatsOnly)
                    .build()
                    .unwrap();
                r.run(steps).unwrap();
                (r.config().clone(), r.stats())
            }};
        }
        let anon = drive_named!(
            OneWayRunner::builder(OneWayModel::Io, NamedSid::new(Epidemic, n))
                .config(NamedSid::<Epidemic>::initial(&sims))
        );
        let graph = drive_named!(
            OneWayRunner::builder(
                OneWayModel::Io,
                NamedSid::graphical(Epidemic, Topology::complete(n).unwrap()),
            )
            .config(NamedSid::<Epidemic>::initial(&sims))
            .topology(Topology::complete(n).unwrap())
        );
        prop_assert_eq!(anon.0.as_slice(), graph.0.as_slice());
        prop_assert_eq!(anon.1, graph.1);
    }
    /// A multi-state protocol: `ExactMajority`'s four states put more
    /// distinct run keys in a queue than the bool epidemic, so the
    /// census and the received-run check see competing keys.
    #[test]
    fn shortcut_equals_scan_on_a_multi_state_protocol(
        model in one_way_model_strategy(),
        o in 0u32..=2,
        n in 4usize..12,
        graphical in 0u8..5,
        gseed in 0u64..50,
        adv in 0u8..4,
        rate in 1u32..=20,
        at in 0u64..400,
        seed in 0u64..10_000,
        steps in 0u64..400,
        exec in 0u8..2,
        batch in 1u64..200,
    ) {
        let topology = pick_topology(n, graphical, gseed);
        let n = topology.as_ref().map_or(n, Topology::len);
        let sims: Vec<_> = (0..n).map(|i| [SX, SY, WX, WY, SX][i % 5]).collect();
        let skno = match &topology {
            Some(t) => Skno::graphical(ExactMajority, o, t.clone()),
            None => Skno::new(ExactMajority, o),
        };
        assert_shortcut_equals_scan!(
            skno, Skno::<ExactMajority>::initial(&sims), model, topology, seed,
            adv, rate, o, at, steps, exec, batch
        );
    }

    /// Naive joker bookkeeping: jokers are spent and forgotten, with no
    /// Rummy swap back, so the joker supply evolves differently.
    #[test]
    fn shortcut_equals_scan_under_naive_bookkeeping(
        model in one_way_model_strategy(),
        o in 0u32..=2,
        n in 4usize..12,
        adv in 0u8..4,
        rate in 1u32..=30,
        at in 0u64..400,
        seed in 0u64..10_000,
        steps in 0u64..400,
        exec in 0u8..2,
        batch in 1u64..200,
    ) {
        let sims: Vec<bool> = (0..n).map(|i| i == 0).collect();
        let skno = Skno::with_bookkeeping(Epidemic, o, JokerBookkeeping::Naive);
        let topology: Option<Topology> = None;
        assert_shortcut_equals_scan!(
            skno, Skno::<Epidemic>::initial(&sims), model, topology, seed,
            adv, rate, o, at, steps, exec, batch
        );
    }

    /// The unaddressed graphical mutant: any pending agent in the right
    /// state may complete a change run, so the change filter ignores
    /// the target.
    #[test]
    fn shortcut_equals_scan_on_the_unaddressed_mutant(
        model in one_way_model_strategy(),
        o in 0u32..=2,
        n in 4usize..12,
        pick in 0u8..3,
        gseed in 0u64..50,
        adv in 0u8..4,
        rate in 1u32..=20,
        at in 0u64..400,
        seed in 0u64..10_000,
        steps in 0u64..400,
        exec in 0u8..2,
        batch in 1u64..200,
    ) {
        let topology = restricted_topology(n, pick, gseed);
        let n = topology.len();
        let sims: Vec<_> = (0..n)
            .map(|i| if i % 2 == 0 { PairingState::Consumer } else { PairingState::Producer })
            .collect();
        let skno = Skno::graphical_unaddressed(Pairing, o, topology.clone());
        let topology = Some(topology);
        assert_shortcut_equals_scan!(
            skno, Skno::<Pairing>::initial(&sims), model, topology, seed,
            adv, rate, o, at, steps, exec, batch
        );
    }

    /// I4 under a high omission rate: starter-side joker mints and Rummy
    /// swaps are frequent, and both must clear the settled flag.
    #[test]
    fn shortcut_equals_scan_in_i4_under_a_high_omission_rate(
        o in 0u32..=2,
        n in 4usize..12,
        graphical in 0u8..5,
        gseed in 0u64..50,
        rate in 30u32..=90,
        seed in 0u64..10_000,
        steps in 0u64..1_000,
        exec in 0u8..2,
        batch in 1u64..200,
    ) {
        let topology = pick_topology(n, graphical, gseed);
        let n = topology.as_ref().map_or(n, Topology::len);
        let sims: Vec<bool> = (0..n).map(|i| i == 0).collect();
        let skno = match &topology {
            Some(t) => Skno::graphical(Epidemic, o, t.clone()),
            None => Skno::new(Epidemic, o),
        };
        // Adversary pick 1: `RateStrategy` at `rate` percent.
        assert_shortcut_equals_scan!(
            skno, Skno::<Epidemic>::initial(&sims), OneWayModel::I4, topology, seed,
            1u8, rate, o, 0u64, steps, exec, batch
        );
    }

}

#[test]
fn skno_is_indexed_by_default_and_scan_reference_opts_out() {
    let skno = Skno::new(Epidemic, 1);
    assert!(skno.is_indexed());
    assert!(!skno.scan_reference().is_indexed());
}
