//! Host-speed calibration.
//!
//! The hosts this benchmark runs on are shared: the same op takes 0.56 s
//! or 0.72 s depending on what the neighbours do, and which it gets
//! changes every few seconds to minutes, so a raw median follows the
//! neighbours as much as the program. Between every two timed intervals
//! the driver therefore runs `ccr-benchmark op calib`, a fixed
//! computation that calls nothing of the repository's (so no change to
//! `ccr` can move it), as one more child timed the same way. A timed
//! interval is divided by how slow its two neighbouring calibrations ran
//! against [`REF_S`]: timings are reported in seconds of a host on which
//! the calibration takes exactly that long.

use crate::child::ChildRun;
use std::hint::black_box;

/// Wall (and CPU) seconds the calibration takes on the reference host:
/// what it takes on the host the benchmark was written on when nothing
/// else contends (0.083–0.126 s were seen there).
pub const REF_S: f64 = 0.1;

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The calibration: the three things the ops spend their time on, in
/// about equal parts. Probing inserts over a table far larger than the
/// cache (the state store), a dependent chain of integer mixing (encoding
/// and hashing), and small heap values cloned, grown and dropped
/// (successor generation).
pub fn kernel() -> u64 {
    let mut acc = 0u64;

    let slots = 1usize << 21;
    let mut table = vec![0u64; slots];
    let mut key = 1u64;
    for _ in 0..700_000 {
        key = mix(key);
        let mut at = key as usize & (slots - 1);
        while table[at] != 0 && table[at] != key {
            at = (at + 1) & (slots - 1);
        }
        table[at] = key;
        acc ^= at as u64;
    }
    black_box(&table);

    let mut z = 7u64;
    for _ in 0..12_000_000 {
        z = mix(z);
    }
    acc ^= z;

    let mut pool: Vec<Vec<u8>> = (0..64usize).map(|i| vec![i as u8; 24 + i]).collect();
    let mut pick = 3u64;
    for _ in 0..400_000 {
        pick = mix(pick);
        let mut value = pool[(pick & 63) as usize].clone();
        value.push(pick as u8);
        if value.len() > 96 {
            value.truncate(24);
        }
        acc ^= value.iter().map(|&b| u64::from(b)).sum::<u64>();
        pool[((pick >> 8) & 63) as usize] = value;
    }
    black_box(acc)
}

/// How slow the host ran around one timed interval: the mean of the
/// calibrations just before and just after it, over [`REF_S`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSpeed {
    /// Calibration wall seconds over the reference.
    pub wall: f64,
    /// Calibration CPU seconds over the reference.
    pub cpu: f64,
}

impl HostSpeed {
    /// The host's speed between two calibration children.
    pub fn between(before: &ChildRun, after: &ChildRun) -> HostSpeed {
        HostSpeed {
            wall: (before.wall_s + after.wall_s) / 2.0 / REF_S,
            cpu: (before.cpu_s + after.cpu_s) / 2.0 / REF_S,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calibration(wall_s: f64, cpu_s: f64) -> ChildRun {
        ChildRun { wall_s, cpu_s, peak_rss_mb: 17.0, exit: Some(0), stdout: String::new() }
    }

    #[test]
    fn a_host_twice_as_slow_as_the_reference_halves_what_is_reported() {
        let host = HostSpeed::between(
            &calibration(1.5 * REF_S, 1.8 * REF_S),
            &calibration(2.5 * REF_S, 2.2 * REF_S),
        );
        assert!((host.wall - 2.0).abs() < 1e-12 && (host.cpu - 2.0).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_computes_the_same_thing_every_time() {
        assert_eq!(kernel(), kernel());
    }
}
