//! Embedding one-way programs into two-way models.
//!
//! Figure 1's `IT → TW` arrow says the one-way world is a special case of
//! the two-way world: `fs(s, r) := g(s)` (ignore the reactor's state) and
//! `fr := f`. [`EmbedOneWay`] is that specialization as an executable
//! adapter, so any one-way program — including the simulators of
//! `ppfts-core` — can be run under TW, T1, T2 or T3.
//!
//! # Fault mapping caveats
//!
//! Two-way omissions are richer than one-way ones, and the embedding is
//! exact only for the faults that have one-way counterparts:
//!
//! * **reactor-side omission** — the starter→reactor payload was lost:
//!   maps exactly to the one-way omission (`h` fires, as in I3);
//! * **starter-side omission** — only the (unused!) reactor→starter
//!   payload was lost: a no-event for a one-way program. The adapter maps
//!   the starter's `o` hook to `g`, i.e. the program treats the
//!   interaction as a successful send — which it was;
//! * **both-sides omission** — the payload was lost *and* the starter can
//!   detect it: maps `o` to the program's starter-omission hook (as in
//!   I4) and `h` to the reactor-omission hook (as in I3). Note that a
//!   program counting "one joker per omission" (SKnO) will mint **two**
//!   for a both-sides omission; budget accordingly (or restrict the
//!   adversary's [`SidePolicy`](crate::SidePolicy), as the tests do).
//!
//! Because the two-way `o` hook cannot distinguish "starter-side only"
//! from "both sides", the adapter exposes the distinction through
//! [`EmbedOneWay::new`]'s model-agnostic contract rather than hiding it:
//! under T2 (starter detection only, `h = id`) a lost payload is
//! *undetectable* by the program's reactor, so omission-tolerant one-way
//! programs generally lose their guarantees there — which is consistent
//! with the paper's map of results.

use ppfts_population::State;

use crate::{OneWayProgram, TwoWayProgram};

/// Runs a one-way program under a two-way model; see the module docs for
/// the exact fault mapping.
///
/// # Example
///
/// ```
/// use ppfts_engine::{EmbedOneWay, OneWayProgram, TwoWayModel, TwoWayRunner};
/// use ppfts_population::Configuration;
///
/// struct Gossip;
/// impl OneWayProgram for Gossip {
///     type State = u32;
///     fn on_receive(&self, s: &u32, r: &u32) -> u32 { (*s).max(*r) }
/// }
///
/// let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, EmbedOneWay::new(Gossip))
///     .config(Configuration::new(vec![3, 1, 4]))
///     .seed(1)
///     .build()?;
/// let out = runner.run_until(10_000, |c| c.as_slice().iter().all(|&v| v == 4));
/// assert!(out.is_satisfied());
/// # Ok::<(), ppfts_engine::EngineError>(())
/// ```
#[derive(Clone, Debug)]
pub struct EmbedOneWay<P> {
    inner: P,
}

impl<P: OneWayProgram> EmbedOneWay<P> {
    /// Wraps `program` for execution under two-way models.
    pub fn new(program: P) -> Self {
        EmbedOneWay { inner: program }
    }

    /// The wrapped one-way program.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Unwraps the adapter.
    pub fn into_inner(self) -> P {
        self.inner
    }
}

impl<P> TwoWayProgram for EmbedOneWay<P>
where
    P: OneWayProgram,
    P::State: State,
{
    type State = P::State;

    /// `fs(s, r) := g(s)` — the starter ignores the reactor's state.
    fn starter_update(&self, s: &Self::State, _r: &Self::State) -> Self::State {
        self.inner.on_proximity(s)
    }

    /// `fr := f`.
    fn reactor_update(&self, s: &Self::State, r: &Self::State) -> Self::State {
        self.inner.on_receive(s, r)
    }

    /// Starter-side detection: fired for starter-only *and* both-sides
    /// omissions; the adapter forwards the program's starter-omission
    /// hook (which defaults to `g`, the correct no-event behaviour for
    /// programs that never override it).
    fn starter_omission(&self, s: &Self::State) -> Self::State {
        self.inner.on_omission_starter(s)
    }

    /// Reactor-side detection: the payload was lost — exactly the one-way
    /// omission.
    fn reactor_omission(&self, r: &Self::State) -> Self::State {
        self.inner.on_omission_reactor(r)
    }

    /// Graphical one-way programs stay graph-bound under the embedding.
    fn required_topology(&self) -> Option<&ppfts_population::Topology> {
        self.inner.required_topology()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        outcome, OneWayFault, OneWayModel, OneWayRunner, TwoWayFault, TwoWayModel, TwoWayRunner,
    };
    use ppfts_population::Configuration;

    struct Probe;
    impl OneWayProgram for Probe {
        type State = char;
        fn on_proximity(&self, _q: &char) -> char {
            'g'
        }
        fn on_receive(&self, _s: &char, _r: &char) -> char {
            'f'
        }
        fn on_omission_starter(&self, _s: &char) -> char {
            'o'
        }
        fn on_omission_reactor(&self, _r: &char) -> char {
            'h'
        }
    }

    #[test]
    fn fault_free_embedding_equals_it_semantics() {
        let e = EmbedOneWay::new(Probe);
        let two = outcome::two_way(TwoWayModel::Tw, &e, &'i', &'i', TwoWayFault::None).unwrap();
        let one = outcome::one_way(OneWayModel::It, &Probe, &'i', &'i', OneWayFault::None).unwrap();
        assert_eq!(two, one);
    }

    #[test]
    fn reactor_side_omission_matches_i3() {
        let e = EmbedOneWay::new(Probe);
        let two = outcome::two_way(TwoWayModel::T3, &e, &'i', &'i', TwoWayFault::Reactor).unwrap();
        let one =
            outcome::one_way(OneWayModel::I3, &Probe, &'i', &'i', OneWayFault::Omission).unwrap();
        assert_eq!(two, one);
    }

    #[test]
    fn both_sides_omission_fires_both_hooks() {
        let e = EmbedOneWay::new(Probe);
        let (s2, r2) =
            outcome::two_way(TwoWayModel::T3, &e, &'i', &'i', TwoWayFault::Both).unwrap();
        assert_eq!((s2, r2), ('o', 'h'));
    }

    #[test]
    fn same_trajectories_under_tw_and_it() {
        struct Gossip;
        impl OneWayProgram for Gossip {
            type State = u32;
            fn on_receive(&self, s: &u32, r: &u32) -> u32 {
                (*s).max(*r)
            }
        }
        let c0 = Configuration::new(vec![5u32, 2, 9, 1]);
        let mut a = TwoWayRunner::builder(TwoWayModel::Tw, EmbedOneWay::new(Gossip))
            .config(c0.clone())
            .seed(33)
            .build()
            .unwrap();
        let mut b = OneWayRunner::builder(OneWayModel::It, Gossip)
            .config(c0)
            .seed(33)
            .build()
            .unwrap();
        a.run(200).unwrap();
        b.run(200).unwrap();
        assert_eq!(a.config().as_slice(), b.config().as_slice());
    }
}
