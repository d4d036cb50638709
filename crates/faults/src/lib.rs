//! # ccr-faults — seeded, deterministic wire-fault plans
//!
//! The paper assumes reliable in-order point-to-point links (§2.2). This
//! crate describes the *adversities* we inject to probe that assumption:
//! dropping, duplicating, reordering and delaying individual wire messages.
//!
//! A [`FaultPlan`] is a pure function of `(seed, step, link, salt)` — it
//! holds no mutable RNG state, so the same plan asked the same question
//! twice gives the same answer, draws for different links never interfere,
//! and a run is reproducible from `(spec, schedule seed, fault seed)` alone.
//! The draw is a `splitmix64`-style bit mix, not a stateful generator.
//!
//! The plan only *decides*; the faults themselves are transitions of
//! `ccr-runtime`'s fault closure, and a seeded walk over that closure
//! (`ccr_runtime::faults::fault_walk`) asks the plan which of them to take
//! and keeps the [`FaultStats`] defined here.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use ccr_core::ids::ProcessId;
use serde::Serialize;

/// The fates the plan can draw for a message just sent. (Delay is drawn
/// per link and step instead: [`FaultPlan::delayed`].)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The message vanishes from the link (recovered by retransmission).
    Drop,
    /// A second copy of the message is appended to the link.
    Duplicate,
    /// The message overtakes its immediate predecessor in the queue.
    Reorder,
}

/// Per-kind fault probabilities, each in `[0, 1]`.
///
/// `drop`, `dup` and `reorder` are per-*message* rates drawn once when a
/// message is placed on a link; `delay` is a per-*step*, per-link rate
/// suppressing delivery from that link for the step.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct FaultRates {
    /// Probability a freshly sent message is dropped.
    pub drop: f64,
    /// Probability a freshly sent message is duplicated.
    pub dup: f64,
    /// Probability a freshly sent message overtakes its predecessor.
    pub reorder: f64,
    /// Per-step probability that delivery from a link is held back.
    pub delay: f64,
}

/// Parses a CLI fault spec of the form `drop=0.05,dup=0.02,reorder=0.01,delay=0.1`.
///
/// Keys may appear in any order; missing keys default to zero. Values must
/// parse as floats in `[0, 1]`.
pub fn parse_fault_spec(s: &str) -> Result<FaultRates, String> {
    let mut rates = FaultRates::default();
    for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("fault spec entry '{part}' is not of the form kind=rate"))?;
        let v: f64 =
            value.trim().parse().map_err(|_| format!("fault rate '{value}' is not a number"))?;
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("fault rate '{value}' is outside [0, 1]"));
        }
        match key.trim() {
            "drop" => rates.drop = v,
            "dup" => rates.dup = v,
            "reorder" => rates.reorder = v,
            "delay" => rates.delay = v,
            other => {
                return Err(format!(
                    "unknown fault kind '{other}' (expected drop, dup, reorder or delay)"
                ))
            }
        }
    }
    Ok(rates)
}

/// Counters kept by a seeded fault walk: what it injected, and how much
/// of it was recovered. Drops, dups, reorders, successful retransmissions
/// and absorbed ghosts count fired closure transitions; delays and lost
/// retransmissions count decisions of the walk's policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FaultStats {
    /// Messages dropped from a link, plus retransmissions the plan lost
    /// again (declined by the policy, which backs off).
    pub drops: u64,
    /// Messages duplicated onto a link.
    pub dups: u64,
    /// Adjacent-pair reorders performed.
    pub reorders: u64,
    /// Per-poll delivery delays imposed (policy decisions).
    pub delays: u64,
    /// Retransmissions attempted (successful or lost again).
    pub retransmits: u64,
    /// Dropped messages successfully restored to their link.
    pub recovered: u64,
    /// Duplicate copies absorbed by receiver-side dedup before delivery.
    pub absorbed: u64,
}

impl FaultStats {
    /// Total faults injected (drops + dups + reorders + delays).
    pub fn injected(&self) -> u64 {
        self.drops + self.dups + self.reorders + self.delays
    }

    /// Adds `other`'s counters into `self` (aggregating across runs).
    pub fn merge(&mut self, other: &FaultStats) {
        self.drops += other.drops;
        self.dups += other.dups;
        self.reorders += other.reorders;
        self.delays += other.delays;
        self.retransmits += other.retransmits;
        self.recovered += other.recovered;
        self.absorbed += other.absorbed;
    }
}

/// A seeded, deterministic fault plan: the rates plus the seed that makes
/// them concrete.
///
/// All decision methods are pure — the plan can be shared freely and asked
/// in any order without perturbing the outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    rates: FaultRates,
    seed: u64,
}

/// Salts separating the independent draw families.
const SALT_SEND: u64 = 0x01;
const SALT_DELAY: u64 = 0x02;
const SALT_RETRANSMIT: u64 = 0x100;

impl FaultPlan {
    /// Builds a plan from its rates and a seed.
    pub fn new(rates: FaultRates, seed: u64) -> Self {
        Self { rates, seed }
    }

    /// A plan that never injects anything (every rate zero).
    pub fn inactive() -> Self {
        Self::new(FaultRates::default(), 0)
    }

    /// The rates the plan draws with.
    pub fn rates(&self) -> &FaultRates {
        &self.rates
    }

    /// Decides the fate of a message just sent on `from → to` at `step`:
    /// dropped, duplicated, reordered, or (`None`) untouched. A single
    /// uniform draw partitions `[0, 1)` so the kinds are mutually
    /// exclusive per message.
    pub fn decide_send(&self, step: u64, from: ProcessId, to: ProcessId) -> Option<FaultKind> {
        let r = self.rates;
        if r.drop == 0.0 && r.dup == 0.0 && r.reorder == 0.0 {
            return None;
        }
        let u = self.unit(step, from, to, SALT_SEND);
        if u < r.drop {
            Some(FaultKind::Drop)
        } else if u < r.drop + r.dup {
            Some(FaultKind::Duplicate)
        } else if u < r.drop + r.dup + r.reorder {
            Some(FaultKind::Reorder)
        } else {
            None
        }
    }

    /// Whether delivery from `from → to` is held back for this step.
    pub fn delayed(&self, step: u64, from: ProcessId, to: ProcessId) -> bool {
        let r = self.rates;
        r.delay > 0.0 && self.unit(step, from, to, SALT_DELAY) < r.delay
    }

    /// Whether the `attempt`-th retransmission on `from → to` at `step` is
    /// itself lost. Uses the link's drop rate with an independent salt, so
    /// retransmissions face the same weather as first transmissions.
    pub fn drops_retransmit(
        &self,
        step: u64,
        from: ProcessId,
        to: ProcessId,
        attempt: u32,
    ) -> bool {
        let r = self.rates;
        r.drop > 0.0 && self.unit(step, from, to, SALT_RETRANSMIT + attempt as u64) < r.drop
    }

    fn unit(&self, step: u64, from: ProcessId, to: ProcessId, salt: u64) -> f64 {
        let x = mix(self.seed, step, pid_code(from), pid_code(to), salt);
        // 53 high bits → uniform double in [0, 1).
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn pid_code(p: ProcessId) -> u64 {
    match p {
        ProcessId::Home => 0,
        ProcessId::Remote(r) => 1 + r.0 as u64,
    }
}

/// `splitmix64` finalizer over a keyed combination of the draw coordinates.
fn mix(seed: u64, step: u64, from: u64, to: u64, salt: u64) -> u64 {
    let mut z = seed
        ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ from.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ to.wrapping_mul(0x94D0_49BB_1331_11EB)
        ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_core::ids::RemoteId;

    const H: ProcessId = ProcessId::Home;
    const R0: ProcessId = ProcessId::Remote(RemoteId(0));
    const R1: ProcessId = ProcessId::Remote(RemoteId(1));

    #[test]
    fn parse_accepts_all_keys_in_any_order() {
        let r = parse_fault_spec("dup=0.02, drop=0.05,reorder=0.01,delay=0.5").unwrap();
        assert_eq!(r, FaultRates { drop: 0.05, dup: 0.02, reorder: 0.01, delay: 0.5 });
        assert_eq!(parse_fault_spec("").unwrap(), FaultRates::default());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_fault_spec("drop").is_err());
        assert!(parse_fault_spec("drop=two").is_err());
        assert!(parse_fault_spec("drop=1.5").is_err());
        assert!(parse_fault_spec("lose=0.1").is_err());
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let rates = FaultRates { drop: 0.5, ..FaultRates::default() };
        let a = FaultPlan::new(rates, 7);
        let b = FaultPlan::new(rates, 7);
        let c = FaultPlan::new(rates, 8);
        let seq = |p: &FaultPlan| -> Vec<Option<FaultKind>> {
            (0..64).map(|s| p.decide_send(s, R0, H)).collect()
        };
        assert_eq!(seq(&a), seq(&b));
        assert_ne!(seq(&a), seq(&c), "different seeds give different weather");
        assert!(seq(&a).iter().any(|f| f.is_some()));
        assert!(seq(&a).iter().any(|f| f.is_none()));
    }

    #[test]
    fn links_draw_independently() {
        let p = FaultPlan::new(FaultRates { drop: 0.5, ..FaultRates::default() }, 42);
        let on = |from, to| -> Vec<bool> {
            (0..64).map(|s| p.decide_send(s, from, to).is_some()).collect()
        };
        assert_ne!(on(R0, H), on(R1, H));
        assert_ne!(on(R0, H), on(H, R0));
    }

    #[test]
    fn inactive_plan_never_fires() {
        let p = FaultPlan::inactive();
        for s in 0..256 {
            assert_eq!(p.decide_send(s, R0, H), None);
            assert!(!p.delayed(s, H, R0));
            assert!(!p.drops_retransmit(s, R0, H, 0));
        }
    }

    #[test]
    fn rates_partition_is_exclusive_and_roughly_proportional() {
        let rates = FaultRates { drop: 0.2, dup: 0.2, reorder: 0.2, delay: 0.0 };
        let p = FaultPlan::new(rates, 99);
        let mut counts = [0u32; 4];
        for s in 0..4096 {
            match p.decide_send(s, R0, H) {
                Some(FaultKind::Drop) => counts[0] += 1,
                Some(FaultKind::Duplicate) => counts[1] += 1,
                Some(FaultKind::Reorder) => counts[2] += 1,
                _ => counts[3] += 1,
            }
        }
        // 20% each ± generous slack; none can be empty at these rates.
        for c in &counts[..3] {
            assert!((400..1300).contains(c), "counts skewed: {counts:?}");
        }
        assert!(counts[3] > 1000);
    }
}
