//! Host-speed probe: a fixed interpreter loop that shares no code with
//! the program under test, timed between units of a workload's work.
//!
//! Other tenants of a shared host slow every thread on it, by up to 1.6x
//! and for minutes at a time, and on-CPU time slows with wall time. The
//! probe's time tracks that slowdown: a workload's run takes probe
//! samples between its units of work, and its time metrics are scaled
//! by [`REFERENCE_PROBE_S`] / (median probe time of the run), which
//! expresses them in seconds of a host on which one probe takes
//! [`REFERENCE_PROBE_S`]. The probe is compiled into the benchmark, not
//! the library, so a change to the library moves the scaled metrics and
//! a change in host speed does not.

use std::hint::black_box;
use std::time::Instant;

/// Operations one probe executes.
const PROBE_OPS: usize = 2_000_000;

/// The probe time the scaled metrics are expressed against: about one
/// probe's time on an idle 2-vCPU Xeon VM.
pub const REFERENCE_PROBE_S: f64 = 0.005;

/// A small register machine: 16 registers, 4 KiB of words and a fixed
/// pseudo-random program with data-dependent branches, dispatched by
/// `match` like an instruction-set simulator's inner loop.
fn interpret(ops: usize) -> u64 {
    let mut prog = [0u32; 256];
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for op in prog.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *op = x as u32;
    }
    let prog = black_box(prog);
    let mut mem = [0u64; 512];
    let mut reg = [1u64; 16];
    let mut pc = 0usize;
    for _ in 0..ops {
        let op = prog[pc & 255];
        let (d, a, b) =
            ((op >> 8) as usize & 15, (op >> 12) as usize & 15, (op >> 16) as usize & 15);
        match op & 7 {
            0 => reg[d] = reg[a].wrapping_add(reg[b]),
            1 => reg[d] = reg[a] ^ reg[b].rotate_left(5),
            2 => reg[d] = reg[a].wrapping_mul(reg[b] | 1),
            3 => reg[d] = mem[(reg[a] as usize) & 511],
            4 => mem[(reg[a] as usize) & 511] = reg[b],
            5 if reg[a] & 1 == 0 => pc = pc.wrapping_add((op >> 20) as usize & 31),
            6 => reg[d] = reg[a] >> (reg[b] & 31),
            _ => reg[d] = reg[d].wrapping_sub(1),
        }
        pc = pc.wrapping_add(1);
    }
    reg.iter().fold(0, |h, &r| h ^ r) ^ mem[7]
}

/// Time `n` probes, appending each one's seconds to `samples`.
pub fn sample(samples: &mut Vec<f64>, n: usize) {
    for _ in 0..n {
        let t0 = Instant::now();
        black_box(interpret(black_box(PROBE_OPS)));
        samples.push(t0.elapsed().as_secs_f64());
    }
}

/// The factor that scales a run's host seconds to reference-host
/// seconds: [`REFERENCE_PROBE_S`] over the median probe time. 1 when
/// the run took no samples.
pub fn speed_factor(samples: &[f64]) -> f64 {
    match crate::median(samples) {
        m if m > 0.0 => REFERENCE_PROBE_S / m,
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_is_deterministic_and_the_factor_follows_its_median() {
        assert_eq!(interpret(10_000), interpret(10_000));
        assert_eq!(speed_factor(&[]), 1.0);
        assert_eq!(speed_factor(&[0.010, 0.020, 0.004]), 0.5);
        let mut samples = Vec::new();
        sample(&mut samples, 3);
        assert_eq!(samples.len(), 3);
        assert!(samples.iter().all(|&s| s > 0.0));
    }
}
