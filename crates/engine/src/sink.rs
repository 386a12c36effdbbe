//! Pluggable trace sinks.
//!
//! Runners report every executed step to a [`TraceSink`] instead of an
//! hard-wired optional [`Trace`]. The sink decides, *before* the runner
//! pays for cloning endpoint states into a [`StepRecord`], whether it
//! wants the record at all:
//!
//! * [`FullTrace`] — records every step; certification in `ppfts-core`
//!   (event extraction, matching construction) requires it;
//! * [`SampledTrace`] — records every k-th step plus every omissive or
//!   state-changing step, bounding memory on long quiescent runs while
//!   keeping everything forensically interesting;
//! * [`StatsOnly`] — keeps nothing; the runner's [`RunStats`] counters
//!   (which are maintained unconditionally) are the only output. This is
//!   the builder default and the zero-allocation path the experiment
//!   harnesses run on.
//!
//! [`RunStats`]: crate::RunStats

use ppfts_population::State;

use crate::{StepRecord, Trace};

/// Receives the per-step records of a runner.
///
/// The two-phase protocol ([`wants_record`](TraceSink::wants_record) then
/// [`accept`](TraceSink::accept)) lets the runner skip building — and
/// cloning states into — a [`StepRecord`] entirely whenever the sink
/// declines the step.
pub trait TraceSink<Q: State, F> {
    /// Whether the sink wants the full record of the step about to be
    /// committed: its zero-based `index`, whether its fault is omissive,
    /// and whether it changed at least one endpoint's state.
    fn wants_record(&self, index: u64, omissive: bool, changed: bool) -> bool;

    /// Whether the sink currently declines *every* record. Runners hoist
    /// this out of their batched inner loops; sinks whose
    /// [`wants_record`](TraceSink::wants_record) can ever return `true`
    /// must leave it at the default `false`.
    fn is_passive(&self) -> bool {
        false
    }

    /// Delivers a record the sink asked for.
    fn accept(&mut self, record: StepRecord<Q, F>);

    /// The trace retained so far, for sinks that keep one.
    fn trace(&self) -> Option<&Trace<Q, F>> {
        None
    }

    /// Removes and returns the retained trace, leaving an empty one in
    /// place (recording stays configured as before).
    fn take_trace(&mut self) -> Option<Trace<Q, F>> {
        None
    }
}

/// Keeps no records at all: the zero-allocation sink for measurement
/// runs, where the runner's [`RunStats`](crate::RunStats) suffice. The
/// runner builders' default sink.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsOnly;

impl<Q: State, F> TraceSink<Q, F> for StatsOnly {
    fn wants_record(&self, _index: u64, _omissive: bool, _changed: bool) -> bool {
        false
    }

    fn is_passive(&self) -> bool {
        true
    }

    fn accept(&mut self, _record: StepRecord<Q, F>) {}
}

/// Records every step into a [`Trace`]. Select it with the builder's
/// `trace_sink(FullTrace::new())`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FullTrace<Q: State, F> {
    trace: Trace<Q, F>,
}

impl<Q: State, F> FullTrace<Q, F> {
    /// A sink that records every step.
    pub fn new() -> Self {
        FullTrace {
            trace: Trace::new(),
        }
    }
}

impl<Q: State, F> Default for FullTrace<Q, F> {
    fn default() -> Self {
        FullTrace::new()
    }
}

impl<Q: State, F> TraceSink<Q, F> for FullTrace<Q, F> {
    fn wants_record(&self, _index: u64, _omissive: bool, _changed: bool) -> bool {
        true
    }

    fn accept(&mut self, record: StepRecord<Q, F>) {
        self.trace.push(record);
    }

    fn trace(&self) -> Option<&Trace<Q, F>> {
        Some(&self.trace)
    }

    fn take_trace(&mut self) -> Option<Trace<Q, F>> {
        Some(std::mem::take(&mut self.trace))
    }
}

/// Records every `k`-th step plus every omissive and every
/// state-changing step.
///
/// On long convergence runs the overwhelming majority of steps are
/// post-stabilization no-ops; this sink drops exactly those, keeping the
/// full forensic signal (all faults, all state changes) and a periodic
/// heartbeat at a fraction of the memory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampledTrace<Q: State, F> {
    every: u64,
    trace: Trace<Q, F>,
}

impl<Q: State, F> SampledTrace<Q, F> {
    /// A sink keeping steps whose index is a multiple of `every`, plus
    /// all omissive and all state-changing steps.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn every(every: u64) -> Self {
        assert!(every > 0, "sampling stride must be positive");
        SampledTrace {
            every,
            trace: Trace::new(),
        }
    }

    /// The sampling stride.
    pub fn stride(&self) -> u64 {
        self.every
    }
}

impl<Q: State, F> TraceSink<Q, F> for SampledTrace<Q, F> {
    fn wants_record(&self, index: u64, omissive: bool, changed: bool) -> bool {
        omissive || changed || index.is_multiple_of(self.every)
    }

    fn accept(&mut self, record: StepRecord<Q, F>) {
        self.trace.push(record);
    }

    fn trace(&self) -> Option<&Trace<Q, F>> {
        Some(&self.trace)
    }

    fn take_trace(&mut self) -> Option<Trace<Q, F>> {
        Some(std::mem::take(&mut self.trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OneWayFault;
    use ppfts_population::Interaction;

    fn rec(index: u64, fault: OneWayFault, changed: bool) -> StepRecord<u8, OneWayFault> {
        StepRecord {
            index,
            interaction: Interaction::new(0, 1).unwrap(),
            fault,
            old_starter: 0,
            old_reactor: 0,
            new_starter: 0,
            new_reactor: changed as u8,
        }
    }

    #[test]
    fn stats_only_declines_everything() {
        let sink = StatsOnly;
        assert!(!TraceSink::<u8, OneWayFault>::wants_record(
            &sink, 0, true, true
        ));
        assert!(TraceSink::<u8, OneWayFault>::is_passive(&sink));
        assert!(TraceSink::<u8, OneWayFault>::trace(&sink).is_none());
    }

    #[test]
    fn full_trace_records_every_step() {
        let mut sink: FullTrace<u8, OneWayFault> = FullTrace::new();
        assert!(sink.wants_record(5, false, false));
        assert!(!sink.is_passive());
        sink.accept(rec(5, OneWayFault::None, false));
        assert_eq!(sink.trace().unwrap().len(), 1);
        assert_eq!(sink.take_trace().unwrap().len(), 1);
        assert_eq!(sink.trace().unwrap().len(), 0, "take leaves recording on");
    }

    #[test]
    fn sampled_trace_keeps_strided_and_interesting_steps() {
        let sink: SampledTrace<u8, OneWayFault> = SampledTrace::every(10);
        assert_eq!(sink.stride(), 10);
        assert!(sink.wants_record(0, false, false), "stride hit");
        assert!(sink.wants_record(20, false, false), "stride hit");
        assert!(!sink.wants_record(7, false, false), "quiet off-stride step");
        assert!(sink.wants_record(7, true, false), "omissive step kept");
        assert!(sink.wants_record(7, false, true), "changed step kept");
        assert!(!sink.is_passive());
    }

    #[test]
    #[should_panic(expected = "sampling stride")]
    fn sampled_trace_rejects_zero_stride() {
        let _: SampledTrace<u8, OneWayFault> = SampledTrace::every(0);
    }
}
