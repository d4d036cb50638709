//! Schedulers: policies for choosing among enabled transitions.
//!
//! The refinement guarantees progress under *no fairness assumption beyond
//! weak fairness of the whole system* (§2.5), so the simulator supports an
//! adversarial spread of policies: uniformly random, rotating round-robin,
//! and a biased scheduler that can starve chosen remotes — used by the §6
//! buffer/fairness experiments.
//!
//! A scheduler sees each enabled transition as the process that would
//! take it: that is all any policy here reads, and it is what the
//! simulator can hand over without copying a label.

use ccr_core::ids::{ProcessId, RemoteId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A scheduling policy over enabled transitions.
pub trait Scheduler {
    /// Picks the index of the transition to fire among the enabled ones,
    /// given as the actor of each (`choices[i]` takes transition `i`), or
    /// `None` to halt (only meaningful for bounded policies).
    fn pick(&mut self, choices: &[ProcessId]) -> Option<usize>;
}

/// Chooses uniformly at random (seeded, reproducible).
#[derive(Debug)]
pub struct RandomSched {
    rng: StdRng,
}

impl RandomSched {
    /// Creates a seeded random scheduler.
    pub fn new(seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed) }
    }
}

impl Scheduler for RandomSched {
    fn pick(&mut self, choices: &[ProcessId]) -> Option<usize> {
        if choices.is_empty() {
            None
        } else {
            Some(self.rng.random_range(0..choices.len()))
        }
    }
}

/// Rotates over actors: each call prefers the next process id in turn, so
/// every process gets regular opportunities.
#[derive(Debug)]
pub struct RoundRobinSched {
    n: u32,
    next: u32,
}

impl RoundRobinSched {
    /// Creates a round-robin scheduler over home + `n` remotes.
    pub fn new(n: u32) -> Self {
        Self { n, next: 0 }
    }

    fn actor_index(&self, a: ProcessId) -> u32 {
        match a {
            ProcessId::Home => 0,
            ProcessId::Remote(RemoteId(i)) => 1 + i,
        }
    }
}

impl Scheduler for RoundRobinSched {
    fn pick(&mut self, choices: &[ProcessId]) -> Option<usize> {
        if choices.is_empty() {
            return None;
        }
        let total = self.n + 1;
        for off in 0..total {
            let want = (self.next + off) % total;
            if let Some(idx) = choices.iter().position(|&a| self.actor_index(a) == want) {
                self.next = (want + 1) % total;
                return Some(idx);
            }
        }
        Some(0)
    }
}

/// An adversarial scheduler that deprioritizes a set of victim remotes:
/// their transitions are only chosen when nothing else is enabled. Used to
/// demonstrate per-remote starvation under weak fairness (§6).
#[derive(Debug)]
pub struct BiasedSched {
    victims: Vec<RemoteId>,
    rng: StdRng,
}

impl BiasedSched {
    /// Creates a biased scheduler that starves `victims` when possible.
    pub fn new(victims: Vec<RemoteId>, seed: u64) -> Self {
        Self { victims, rng: StdRng::seed_from_u64(seed) }
    }
}

impl Scheduler for BiasedSched {
    fn pick(&mut self, choices: &[ProcessId]) -> Option<usize> {
        if choices.is_empty() {
            return None;
        }
        // Count the preferred, draw, and find the drawn one in a second
        // pass: a pick allocates nothing (E4 picks once per step).
        let victims = &self.victims;
        let preferred = |a: &&ProcessId| !matches!(a, ProcessId::Remote(r) if victims.contains(r));
        match choices.iter().filter(preferred).count() {
            0 => Some(self.rng.random_range(0..choices.len())),
            count => {
                let nth = self.rng.random_range(0..count);
                choices.iter().enumerate().filter(|(_, a)| preferred(a)).nth(nth).map(|(i, _)| i)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOME: ProcessId = ProcessId::Home;

    fn remote(i: u32) -> ProcessId {
        ProcessId::Remote(RemoteId(i))
    }

    #[test]
    fn random_sched_is_reproducible_and_in_range() {
        let choices = [HOME, remote(0)];
        let mut a = RandomSched::new(42);
        let mut b = RandomSched::new(42);
        for _ in 0..50 {
            let x = a.pick(&choices).unwrap();
            let y = b.pick(&choices).unwrap();
            assert_eq!(x, y);
            assert!(x < choices.len());
        }
        assert_eq!(a.pick(&[]), None);
    }

    #[test]
    fn round_robin_rotates_actors() {
        let choices = [HOME, remote(0), remote(1)];
        let mut s = RoundRobinSched::new(2);
        let picks: Vec<usize> = (0..3).map(|_| s.pick(&choices).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2]);
        // Wraps around.
        assert_eq!(s.pick(&choices), Some(0));
    }

    #[test]
    fn round_robin_skips_absent_actors() {
        let choices = [remote(1)];
        let mut s = RoundRobinSched::new(2);
        assert_eq!(s.pick(&choices), Some(0));
        assert_eq!(s.pick(&[]), None);
    }

    #[test]
    fn biased_starves_victims_when_alternatives_exist() {
        let choices = [remote(0), remote(1)];
        let mut s = BiasedSched::new(vec![RemoteId(0)], 7);
        for _ in 0..50 {
            assert_eq!(s.pick(&choices), Some(1));
        }
        // Only victim transitions available: must still pick one (weak
        // fairness of the whole system).
        let only_victim = [remote(0)];
        assert_eq!(s.pick(&only_victim), Some(0));
    }
}
