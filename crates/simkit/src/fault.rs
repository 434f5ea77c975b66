//! Deterministic fault injection: timed perturbations of link capacities,
//! compute service rates, and node availability.
//!
//! A [`FaultSchedule`] is a seed-stamped list of [`FaultEvent`]s — "at
//! t = 40 s, RoCE drops to 50%", "at t = 10 s, GPU 3 runs at 0.7× speed",
//! "at t = 60 s, node 1 disappears". The engine consumes the schedule
//! through a [`FaultCursor`] while executing a DAG: link events rescale
//! [`crate::flow::FlowNet`] capacities mid-run (in-flight flows re-converge
//! to the new max-min fair allocation), resource events rescale compute
//! service rates at task-launch granularity, and a node loss aborts the run
//! so a higher layer can model checkpoint/restart.
//!
//! Determinism contract: a schedule is plain data — the same seed and the
//! same events replayed against the same simulation produce byte-identical
//! results. [`FaultSchedule::digest`] provides a stable fingerprint that
//! reports can embed so two runs can be compared for equality.

use crate::error::SimError;
use crate::flow::LinkId;
use crate::time::SimTime;

/// Residual capacity factor used for a "down" link during a flap.
///
/// A flapping NIC is modelled as retaining a trickle of capacity rather
/// than exactly zero: with a zero-rate link the max-min allocation of flows
/// pinned to it would be 0 B/s and the network would stop generating
/// events, turning a transient fault into an artificial deadlock. One
/// thousandth of nominal keeps rates well-defined while being slow enough
/// to dominate any realistic makespan.
pub const FLAP_FLOOR: f64 = 1e-3;

/// One kind of perturbation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultKind {
    /// Set a link to an absolute capacity in bytes/second.
    SetLinkCap {
        /// The link to rescale.
        link: LinkId,
        /// New absolute capacity (sustained rate for bucketed links).
        bytes_per_sec: f64,
    },
    /// Scale a link to `factor` × its nominal capacity (absolute w.r.t.
    /// nominal, not cumulative).
    ScaleLink {
        /// The link to rescale.
        link: LinkId,
        /// Fraction of nominal capacity, in `(0, ∞)`.
        factor: f64,
    },
    /// Restore a link to its nominal capacity.
    RestoreLink {
        /// The link to restore.
        link: LinkId,
    },
    /// Slow a compute resource to `factor` × its nominal speed (a
    /// straggler). Applied at task-launch granularity: tasks that start
    /// while the slowdown is active run `1/factor` × longer.
    SlowResource {
        /// Engine resource index (see `ResourceId`).
        resource: usize,
        /// Speed multiplier in `(0, 1]` for a straggler; `> 1` models a
        /// boost.
        factor: f64,
    },
    /// Restore a compute resource to nominal speed.
    RestoreResource {
        /// Engine resource index.
        resource: usize,
    },
    /// A node disappears. The engine aborts the current run at the event
    /// time (cancelling the flows it started); recovery —
    /// restart-from-checkpoint and replay — is modelled by the layer above.
    NodeLoss {
        /// Topology-level node index (opaque to the engine).
        node: usize,
    },
}

/// A [`FaultKind`] pinned to a point on the virtual time axis.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Absolute simulation time at which the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A seed-stamped, ordered collection of timed fault events.
///
/// Events may be pushed in any order; consumption through
/// [`FaultSchedule::cursor`] is stably sorted by time (ties fire in
/// insertion order). The `seed` does not drive any randomness inside the
/// schedule itself — it stamps the scenario so that derived artifacts
/// (jittered compute, reports) can tie their provenance together.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Creates an empty (healthy) schedule stamped with `seed`.
    pub fn new(seed: u64) -> Self {
        FaultSchedule {
            seed,
            events: Vec::new(),
        }
    }

    /// The stamp this schedule was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when no fault ever fires.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The scheduled events in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Schedules `kind` at `secs` seconds and returns the schedule for
    /// chaining.
    ///
    /// # Panics
    /// Panics if `secs` is negative or not finite. Use
    /// [`FaultSchedule::try_at`] when the time comes from external input.
    pub fn at(self, secs: f64, kind: FaultKind) -> Self {
        match self.try_at(secs, kind) {
            Ok(s) => s,
            Err(_) => panic!("FaultSchedule::at: invalid event time {secs}"),
        }
    }

    /// Fallible variant of [`FaultSchedule::at`]: rejects negative, NaN, or
    /// infinite times with [`SimError::BadFaultTime`] instead of panicking.
    pub fn try_at(mut self, secs: f64, kind: FaultKind) -> Result<Self, SimError> {
        let at = SimTime::checked_from_secs(secs).ok_or(SimError::BadFaultTime)?;
        self.push(at, kind);
        Ok(self)
    }

    /// Schedules `kind` at an absolute [`SimTime`].
    pub fn push(&mut self, at: SimTime, kind: FaultKind) {
        self.events.push(FaultEvent { at, kind });
    }

    /// Sugar: a link flap — the link drops to [`FLAP_FLOOR`] × nominal at
    /// `at_secs` and is restored `down_secs` later.
    ///
    /// # Panics
    /// Panics if either time is negative or not finite. Use
    /// [`FaultSchedule::try_flap`] for external input.
    pub fn flap(self, link: LinkId, at_secs: f64, down_secs: f64) -> Self {
        match self.try_flap(link, at_secs, down_secs) {
            Ok(s) => s,
            Err(_) => panic!("FaultSchedule::flap: invalid window [{at_secs}, +{down_secs}]"),
        }
    }

    /// Fallible variant of [`FaultSchedule::flap`].
    pub fn try_flap(self, link: LinkId, at_secs: f64, down_secs: f64) -> Result<Self, SimError> {
        self.try_at(
            at_secs,
            FaultKind::ScaleLink {
                link,
                factor: FLAP_FLOOR,
            },
        )?
        .try_at(at_secs + down_secs, FaultKind::RestoreLink { link })
    }

    /// Sugar: degrade `link` to `factor` × nominal at `at_secs` and restore
    /// it `dur_secs` later.
    ///
    /// # Panics
    /// Panics if either time is negative or not finite. Use
    /// [`FaultSchedule::try_degrade_window`] for external input.
    pub fn degrade_window(self, link: LinkId, at_secs: f64, factor: f64, dur_secs: f64) -> Self {
        match self.try_degrade_window(link, at_secs, factor, dur_secs) {
            Ok(s) => s,
            Err(_) => {
                panic!("FaultSchedule::degrade_window: invalid window [{at_secs}, +{dur_secs}]")
            }
        }
    }

    /// Fallible variant of [`FaultSchedule::degrade_window`].
    pub fn try_degrade_window(
        self,
        link: LinkId,
        at_secs: f64,
        factor: f64,
        dur_secs: f64,
    ) -> Result<Self, SimError> {
        self.try_at(at_secs, FaultKind::ScaleLink { link, factor })?
            .try_at(at_secs + dur_secs, FaultKind::RestoreLink { link })
    }

    /// A stable 64-bit fingerprint of the seed and every event (kind,
    /// parameters, and firing time). Two schedules with equal digests are
    /// behaviourally identical; reports embed the digest so byte-identity
    /// across runs can be asserted cheaply.
    pub fn digest(&self) -> u64 {
        let mut h = mix(0x9e37_79b9_7f4a_7c15, self.seed);
        for ev in &self.events {
            h = mix(h, ev.at.as_nanos());
            h = match &ev.kind {
                FaultKind::SetLinkCap {
                    link,
                    bytes_per_sec,
                } => mix(mix(mix(h, 1), link.index() as u64), bytes_per_sec.to_bits()),
                FaultKind::ScaleLink { link, factor } => {
                    mix(mix(mix(h, 2), link.index() as u64), factor.to_bits())
                }
                FaultKind::RestoreLink { link } => mix(mix(h, 3), link.index() as u64),
                FaultKind::SlowResource { resource, factor } => {
                    mix(mix(mix(h, 4), *resource as u64), factor.to_bits())
                }
                FaultKind::RestoreResource { resource } => mix(mix(h, 5), *resource as u64),
                FaultKind::NodeLoss { node } => mix(mix(h, 6), *node as u64),
            };
        }
        h
    }

    /// A consuming view over the events in firing order (stable by time,
    /// then insertion order). The cursor is independent of the schedule:
    /// one schedule can drive many runs.
    pub fn cursor(&self) -> FaultCursor {
        let mut idx: Vec<usize> = (0..self.events.len()).collect();
        idx.sort_by_key(|&i| (self.events[i].at, i));
        FaultCursor {
            events: idx.into_iter().map(|i| self.events[i].clone()).collect(),
            pos: 0,
        }
    }
}

/// SplitMix64-style mixing step of every digest in the workspace:
/// [`FaultSchedule::digest`] here, and the training, search, serving and
/// fleet digests built on top of it.
pub fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Iteration state over a [`FaultSchedule`], shared across the back-to-back
/// runs of a multi-iteration simulation so the virtual clock and the fault
/// clock stay aligned.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultCursor {
    events: Vec<FaultEvent>,
    pos: usize,
}

impl FaultCursor {
    /// A cursor over no events (the healthy schedule).
    pub fn empty() -> Self {
        FaultCursor::default()
    }

    /// Firing time of the next pending event, if any.
    pub fn peek_at(&self) -> Option<SimTime> {
        self.events.get(self.pos).map(|e| e.at)
    }

    /// Pops the next event if it fires at or before `now`.
    pub fn next_due(&mut self, now: SimTime) -> Option<&FaultEvent> {
        let ev = self.events.get(self.pos)?;
        if ev.at <= now {
            self.pos += 1;
            Some(ev)
        } else {
            None
        }
    }

    /// Number of events not yet consumed.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(i: usize) -> LinkId {
        LinkId(i)
    }

    #[test]
    fn cursor_fires_in_time_order() {
        let s = FaultSchedule::new(7)
            .at(5.0, FaultKind::RestoreLink { link: link(0) })
            .at(
                1.0,
                FaultKind::ScaleLink {
                    link: link(0),
                    factor: 0.5,
                },
            );
        let mut c = s.cursor();
        assert_eq!(c.remaining(), 2);
        assert_eq!(c.peek_at(), Some(SimTime::from_secs(1.0)));
        assert!(c.next_due(SimTime::ZERO).is_none());
        let first = c.next_due(SimTime::from_secs(1.0)).unwrap();
        assert!(matches!(first.kind, FaultKind::ScaleLink { .. }));
        assert_eq!(c.remaining(), 1);
        let second = c.next_due(SimTime::from_secs(10.0)).unwrap();
        assert!(matches!(second.kind, FaultKind::RestoreLink { .. }));
        assert!(c.next_due(SimTime::MAX).is_none());
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let s = FaultSchedule::new(0)
            .at(1.0, FaultKind::RestoreResource { resource: 0 })
            .at(
                1.0,
                FaultKind::SlowResource {
                    resource: 0,
                    factor: 0.7,
                },
            );
        let mut c = s.cursor();
        let t = SimTime::from_secs(1.0);
        assert!(matches!(
            c.next_due(t).unwrap().kind,
            FaultKind::RestoreResource { .. }
        ));
        assert!(matches!(
            c.next_due(t).unwrap().kind,
            FaultKind::SlowResource { .. }
        ));
    }

    #[test]
    fn flap_expands_to_scale_and_restore() {
        let s = FaultSchedule::new(0).flap(link(3), 2.0, 0.5);
        assert_eq!(s.len(), 2);
        assert!(matches!(
            s.events()[0].kind,
            FaultKind::ScaleLink { factor, .. } if factor == FLAP_FLOOR
        ));
        assert_eq!(s.events()[1].at, SimTime::from_secs(2.5));
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = FaultSchedule::new(1).flap(link(0), 1.0, 1.0);
        let b = FaultSchedule::new(1).flap(link(0), 1.0, 1.0);
        assert_eq!(a.digest(), b.digest());
        let c = FaultSchedule::new(2).flap(link(0), 1.0, 1.0);
        assert_ne!(a.digest(), c.digest());
        let d = FaultSchedule::new(1).flap(link(1), 1.0, 1.0);
        assert_ne!(a.digest(), d.digest());
        let e = FaultSchedule::new(1).flap(link(0), 1.0, 2.0);
        assert_ne!(a.digest(), e.digest());
        assert_ne!(FaultSchedule::new(0).digest(), 0);
    }

    #[test]
    fn try_builders_reject_bad_times() {
        let healthy = FaultSchedule::new(0);
        assert_eq!(
            healthy
                .clone()
                .try_at(-1.0, FaultKind::RestoreLink { link: link(0) })
                .unwrap_err(),
            SimError::BadFaultTime
        );
        assert_eq!(
            healthy
                .clone()
                .try_flap(link(0), f64::NAN, 1.0)
                .unwrap_err(),
            SimError::BadFaultTime
        );
        assert_eq!(
            healthy
                .clone()
                .try_degrade_window(link(0), 1.0, 0.5, f64::INFINITY)
                .unwrap_err(),
            SimError::BadFaultTime
        );
        let ok = healthy.try_degrade_window(link(0), 1.0, 0.5, 2.0).unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(
            ok.digest(),
            FaultSchedule::new(0)
                .degrade_window(link(0), 1.0, 0.5, 2.0)
                .digest()
        );
    }

    #[test]
    #[should_panic(expected = "invalid event time")]
    fn at_panics_on_negative_time() {
        let _ = FaultSchedule::new(0).at(-0.5, FaultKind::RestoreLink { link: link(0) });
    }

    #[test]
    fn empty_schedule_is_empty() {
        let s = FaultSchedule::new(9);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.seed(), 9);
        let mut c = s.cursor();
        assert_eq!(c.peek_at(), None);
        assert!(c.next_due(SimTime::MAX).is_none());
        assert_eq!(FaultCursor::empty().remaining(), 0);
    }
}
