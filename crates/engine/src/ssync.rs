//! Activation policies: FSYNC and SSYNC scheduling.
//!
//! In FSYNC every robot executes the full Look-Compute-Move cycle every
//! round ([`FullActivation`]). In SSYNC the adversarial scheduler activates
//! an arbitrary non-empty subset each round; an activated robot performs one
//! full atomic cycle, the others do nothing. Di Luna et al. (ICDCS 2016)
//! proved exploration of dynamic rings impossible under SSYNC — which is why
//! the paper restricts itself to FSYNC; `dynring-adversary` replays that
//! impossibility with these policies.
//!
//! One [`ActivationPolicy`] serves every engine: the round simulator, the
//! ASYNC phase-split simulator (one phase per activated robot per tick)
//! and the lane-parallel batch engine, which applies the round's one
//! activation vector in every lane.

use dynring_graph::Time;

/// Decides which robots are activated each round.
///
/// Returning an all-`false` vector produces a *stutter* round: time and the
/// graph advance but no robot looks, computes or moves. A fair SSYNC
/// scheduler activates every robot infinitely often; policies in this module
/// are all fair.
pub trait ActivationPolicy {
    /// Writes the activation vector for round `time` over `robots` robots
    /// into `out`, replacing its contents: robot `i` acts iff `out[i]`.
    /// The engines call it once per round unless
    /// [`ActivationPolicy::is_full`].
    fn activate_into(&mut self, time: Time, robots: usize, out: &mut Vec<bool>);

    /// A convenience for callers: [`ActivationPolicy::activate_into`] into
    /// a fresh vector. Implementations do not override it.
    fn activate(&mut self, time: Time, robots: usize) -> Vec<bool> {
        let mut out = Vec::with_capacity(robots);
        self.activate_into(time, robots, &mut out);
        out
    }

    /// `true` when this policy activates every robot every round (FSYNC).
    /// The engines use it to skip activation bookkeeping entirely on the
    /// hot path; policies that ever skip a robot must return `false` (the
    /// default).
    fn is_full(&self) -> bool {
        false
    }
}

/// Fills `active` for round `t` over `k` robots unless `policy` activates
/// everyone; returns whether it does. Every engine asks its policy here.
pub(crate) fn fill_activation(
    policy: &mut dyn ActivationPolicy,
    t: Time,
    k: usize,
    active: &mut Vec<bool>,
) -> bool {
    let all = policy.is_full();
    if !all {
        policy.activate_into(t, k, active);
        debug_assert_eq!(active.len(), k);
    }
    all
}

impl<P: ActivationPolicy + ?Sized> ActivationPolicy for Box<P> {
    fn activate_into(&mut self, time: Time, robots: usize, out: &mut Vec<bool>) {
        (**self).activate_into(time, robots, out);
    }

    fn is_full(&self) -> bool {
        (**self).is_full()
    }
}

/// FSYNC: every robot, every round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FullActivation;

impl ActivationPolicy for FullActivation {
    fn activate_into(&mut self, _time: Time, robots: usize, out: &mut Vec<bool>) {
        out.clear();
        out.resize(robots, true);
    }

    fn is_full(&self) -> bool {
        true
    }
}

/// SSYNC round-robin: activates exactly one robot per round, cycling
/// through them in id order. Fair, and the weakest useful scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRobinSingle;

impl ActivationPolicy for RoundRobinSingle {
    fn activate_into(&mut self, time: Time, robots: usize, out: &mut Vec<bool>) {
        out.clear();
        out.resize(robots, false);
        if robots > 0 {
            out[(time % robots as Time) as usize] = true;
        }
    }
}

/// SSYNC partition scheduler: robot `i` is activated at round `t` iff
/// `i ≡ t (mod k)`. With `k = 1` this degenerates to FSYNC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EveryKth {
    k: u64,
}

impl EveryKth {
    /// Creates the partition scheduler with modulus `k ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`.
    pub fn new(k: u64) -> Self {
        assert!(k >= 1, "modulus must be at least 1");
        EveryKth { k }
    }

    /// The modulus.
    pub fn modulus(&self) -> u64 {
        self.k
    }
}

impl ActivationPolicy for EveryKth {
    fn activate_into(&mut self, time: Time, robots: usize, out: &mut Vec<bool>) {
        out.clear();
        out.extend((0..robots).map(|i| (i as Time) % self.k == time % self.k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_activation_activates_everyone() {
        let mut p = FullActivation;
        assert_eq!(p.activate(0, 3), vec![true, true, true]);
        assert_eq!(p.activate(99, 1), vec![true]);
    }

    #[test]
    fn round_robin_cycles() {
        let mut p = RoundRobinSingle;
        assert_eq!(p.activate(0, 3), vec![true, false, false]);
        assert_eq!(p.activate(1, 3), vec![false, true, false]);
        assert_eq!(p.activate(2, 3), vec![false, false, true]);
        assert_eq!(p.activate(3, 3), vec![true, false, false]);
    }

    #[test]
    fn round_robin_is_fair() {
        let mut p = RoundRobinSingle;
        let mut counts = [0u32; 4];
        for t in 0..40 {
            for (i, on) in p.activate(t, 4).into_iter().enumerate() {
                if on {
                    counts[i] += 1;
                }
            }
        }
        assert_eq!(counts, [10, 10, 10, 10]);
    }

    #[test]
    fn every_kth_partitions() {
        let mut p = EveryKth::new(2);
        assert_eq!(p.activate(0, 4), vec![true, false, true, false]);
        assert_eq!(p.activate(1, 4), vec![false, true, false, true]);
        assert_eq!(EveryKth::new(1).activate(7, 3), vec![true, true, true]);
    }

    #[test]
    #[should_panic(expected = "modulus must be at least 1")]
    fn every_kth_rejects_zero() {
        let _ = EveryKth::new(0);
    }
}
