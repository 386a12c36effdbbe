//! Property-based tests (proptest) over the workspace's core invariants.

use proptest::prelude::*;

use ppfts::core::{project, Sid, Skno};
use ppfts::engine::{
    outcome, BoundedStrategy, FullTrace, OneWayFault, OneWayModel, OneWayRunner, TwoWayFault,
    TwoWayModel, TwoWayRunner,
};
use ppfts::population::{Configuration, Multiset, Semantics, TwoWayProtocol};
use ppfts::protocols::{Epidemic, FlockOfBirds, MaxGossip, Pairing, PairingState, Remainder};

fn pairing_state_strategy() -> impl Strategy<Value = PairingState> {
    prop_oneof![
        Just(PairingState::Paired),
        Just(PairingState::Consumer),
        Just(PairingState::Producer),
        Just(PairingState::Spent),
    ]
}

proptest! {
    /// Multisets are permutation-invariant views of configurations.
    #[test]
    fn multiset_ignores_agent_order(mut states in prop::collection::vec(0u8..5, 2..20)) {
        let a: Multiset<u8> = states.iter().cloned().collect();
        states.reverse();
        let b: Multiset<u8> = states.iter().cloned().collect();
        prop_assert_eq!(a, b);
    }

    /// Population size is invariant under any interaction in any model.
    #[test]
    fn interactions_preserve_population(
        states in prop::collection::vec(pairing_state_strategy(), 2..12),
        seed in 0u64..1000,
        steps in 1u64..300,
    ) {
        let n = states.len();
        let mut runner = TwoWayRunner::builder(TwoWayModel::T3, Pairing)
            .config(Configuration::new(states))
            .adversary(BoundedStrategy::new(0.3, 10))
            .seed(seed)
            .build()
            .unwrap();
        runner.run(steps).unwrap();
        prop_assert_eq!(runner.config().len(), n);
    }

    /// Pairing safety is a universal invariant of the native protocol in
    /// the *fault-free* two-way model: no schedule can mint extra `cs`.
    #[test]
    fn pairing_safety_under_any_tw_schedule(
        consumers in 0usize..6,
        producers in 0usize..6,
        seed in 0u64..500,
    ) {
        prop_assume!(consumers + producers >= 2);
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, Pairing)
            .config(Pairing::initial(consumers, producers))
            .seed(seed)
            .build()
            .unwrap();
        for _ in 0..400 {
            runner.step().unwrap();
            prop_assert!(Pairing::paired_count(runner.config()) <= producers);
        }
    }

    /// The flock protocol conserves the total count under every meeting.
    #[test]
    fn flock_conserves_total_count(
        k in 1u32..8,
        u in 0u32..8,
        v in 0u32..8,
        du in any::<bool>(),
        dv in any::<bool>(),
    ) {
        let flock = FlockOfBirds::new(k);
        let a = ppfts::protocols::FlockState { count: u.min(k), detected: du };
        let b = ppfts::protocols::FlockState { count: v.min(k), detected: dv };
        let (a2, b2) = flock.delta(&a, &b);
        prop_assert_eq!(a2.count + b2.count, a.count + b.count);
        prop_assert!(a2.count <= k);
    }

    /// Epidemic computes OR on every input vector (native, sampled
    /// schedules).
    #[test]
    fn epidemic_matches_oracle(
        inputs in prop::collection::vec(any::<bool>(), 2..10),
        seed in 0u64..200,
    ) {
        let expected = Epidemic.expected(&inputs);
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, Epidemic)
            .config(Epidemic.initial_configuration(&inputs))
            .seed(seed)
            .build()
            .unwrap();
        let out = runner.run_until(200_000, |c| {
            ppfts::population::unanimous_output(c, |q| *q) == Some(expected)
        });
        prop_assert!(out.is_satisfied());
    }

    /// Remainder's merge dynamics conserve the sum modulo m.
    #[test]
    fn remainder_conserves_sum_mod_m(
        m in 2u32..9,
        inputs in prop::collection::vec(0u32..40, 2..10),
        seed in 0u64..200,
        steps in 1u64..500,
    ) {
        let p = Remainder::new(m, 0);
        let total: u64 = inputs.iter().map(|&v| v as u64).sum();
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, p)
            .config(p.initial_configuration(&inputs))
            .seed(seed)
            .build()
            .unwrap();
        runner.run(steps).unwrap();
        let sum_now: u64 = runner
            .config()
            .as_slice()
            .iter()
            .map(|q| q.value.unwrap_or(0) as u64)
            .sum();
        prop_assert_eq!(sum_now % m as u64, total % m as u64);
    }

    /// One-way outcomes: omissive or not, the *starter* state in IO is
    /// never modified (the starter is unaware by definition).
    #[test]
    fn io_starter_is_never_touched(s in any::<u64>(), r in any::<u64>()) {
        struct Gossip;
        impl ppfts::engine::OneWayProgram for Gossip {
            type State = u64;
            fn on_proximity(&self, q: &u64) -> u64 { q + 1 } // deliberately non-identity
            fn on_receive(&self, s: &u64, r: &u64) -> u64 { (*s).max(*r) }
        }
        let (s2, _r2) = outcome::one_way(OneWayModel::Io, &Gossip, &s, &r, OneWayFault::None).unwrap();
        prop_assert_eq!(s2, s);
    }

    /// T1 omissions never *invent* information: each side's new state is
    /// either its old state or the fault-free update.
    #[test]
    fn t1_omissions_only_suppress(
        s in pairing_state_strategy(),
        r in pairing_state_strategy(),
    ) {
        let (fs, fr) = Pairing.delta(&s, &r);
        for fault in [TwoWayFault::Starter, TwoWayFault::Reactor] {
            let (s2, r2) = outcome::two_way(TwoWayModel::T1, &Pairing, &s, &r, fault).unwrap();
            prop_assert!(s2 == s || s2 == fs);
            prop_assert!(r2 == r || r2 == fr);
        }
    }

    /// SKnO within its budget preserves the simulated-population multiset
    /// semantics: the number of Paired agents never exceeds producers.
    #[test]
    fn skno_safety_sampled(
        consumers in 1usize..4,
        producers in 1usize..4,
        seed in 0u64..60,
    ) {
        let o = 1;
        let sims: Vec<PairingState> = Pairing::initial(consumers, producers)
            .as_slice()
            .to_vec();
        let mut runner = OneWayRunner::builder(OneWayModel::I3, Skno::new(Pairing, o))
            .config(Skno::<Pairing>::initial(&sims))
            .adversary(BoundedStrategy::new(0.05, o as u64))
            .seed(seed)
            .build()
            .unwrap();
        for _ in 0..2_000 {
            runner.step().unwrap();
            let paired = project(runner.config()).count_state(&PairingState::Paired);
            prop_assert!(paired <= producers);
        }
    }

    /// SID simulated max-gossip never exceeds the true maximum.
    #[test]
    fn sid_gossip_never_overshoots(
        inputs in prop::collection::vec(0u64..1000, 2..8),
        seed in 0u64..60,
    ) {
        let true_max = MaxGossip.expected(&inputs);
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(MaxGossip))
            .config(Sid::<MaxGossip>::initial(&inputs))
            .seed(seed)
            .build()
            .unwrap();
        runner.run(3_000).unwrap();
        let seen_max = project(runner.config())
            .as_slice()
            .iter()
            .copied()
            .max()
            .unwrap();
        prop_assert!(seen_max <= true_max);
    }
}

/// The paper's premise, demonstrated: running the Pairing protocol
/// *natively* on the omissive two-way model T3 violates safety — a
/// reactor-side omission turns a consumer into `cs` without spending the
/// producer. This is why simulators (and their impossibility results)
/// matter at all. Deterministic companion to the proptest suite above.
#[test]
fn native_pairing_on_t3_is_unsafe() {
    use ppfts::engine::{Planned, SidePolicy};
    use ppfts::population::Interaction;

    // One consumer meets one producer; the reactor side omits.
    let mut runner = TwoWayRunner::builder(TwoWayModel::T3, Pairing)
        .config(Pairing::initial(1, 1))
        .side_policy(SidePolicy::Always(TwoWayFault::Reactor))
        .build()
        .unwrap();
    runner
        .apply_planned([Planned::new(
            Interaction::new(0, 1).unwrap(),
            TwoWayFault::Reactor,
        )])
        .unwrap();
    // The consumer is irrevocably paired…
    assert_eq!(Pairing::paired_count(runner.config()), 1);
    // …but the producer was never spent: it can pair a *second* consumer.
    assert_eq!(
        runner.config().as_slice()[1],
        PairingState::Producer,
        "producer survived the omissive pairing"
    );
}

proptest! {
    /// Theorem 4.5 quantifies over *every* two-way protocol. Generate a
    /// random transition table, run SID on it in IO, and verify the
    /// simulation machinery end-to-end: events extract, the matching is
    /// exact, and the derived execution replays.
    #[test]
    fn sid_simulates_random_protocols(
        rules in prop::collection::vec((0u8..4, 0u8..4, 0u8..4, 0u8..4), 0..12),
        initials in prop::collection::vec(0u8..4, 2..6),
        seed in 0u64..50,
    ) {
        use ppfts::core::{build_matching, extract_events, verify_derived_execution, Sid};
        use ppfts::population::TableProtocol;

        let mut builder = TableProtocol::builder(vec![0u8, 1, 2, 3]);
        for (a, b, x, y) in rules {
            builder = builder.rule((a, b), (x, y));
        }
        let protocol = builder.build();

        let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(protocol.clone()))
            .config(Sid::<TableProtocol<u8>>::initial(&initials))
            .trace_sink(FullTrace::new())
            .seed(seed)
            .build()
            .unwrap();
        let initial = project(runner.config());
        runner.run(4_000).unwrap();
        let events = extract_events(&runner.take_trace().unwrap());
        let matching = build_matching(&protocol, &events).unwrap();
        let derived = verify_derived_execution(&protocol, &initial, &events, &matching).unwrap();
        prop_assert_eq!(derived.len(), matching.len());
        // In-flight handshake halves are bounded by the population size.
        prop_assert!(matching.unmatched.len() <= initials.len());
    }

    /// Same property for SKnO under IT (Corollary 1): anonymous matching
    /// and multiset replay must hold for arbitrary protocols too.
    #[test]
    fn skno_simulates_random_protocols(
        rules in prop::collection::vec((0u8..3, 0u8..3, 0u8..3, 0u8..3), 0..8),
        initials in prop::collection::vec(0u8..3, 2..5),
        seed in 0u64..30,
    ) {
        use ppfts::core::{build_matching, extract_events, verify_derived_execution, Skno};
        use ppfts::population::TableProtocol;

        let mut builder = TableProtocol::builder(vec![0u8, 1, 2]);
        for (a, b, x, y) in rules {
            builder = builder.rule((a, b), (x, y));
        }
        let protocol = builder.build();

        let mut runner = OneWayRunner::builder(OneWayModel::It, Skno::new(protocol.clone(), 0))
            .config(Skno::<TableProtocol<u8>>::initial(&initials))
            .trace_sink(FullTrace::new())
            .seed(seed)
            .build()
            .unwrap();
        let initial = project(runner.config());
        runner.run(4_000).unwrap();
        let events = extract_events(&runner.take_trace().unwrap());
        let matching = build_matching(&protocol, &events).unwrap();
        let derived = verify_derived_execution(&protocol, &initial, &events, &matching).unwrap();
        prop_assert_eq!(derived.len(), matching.len());
    }
}
