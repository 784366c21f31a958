//! The introduction's motivating example: multiplying two `√n × √n`
//! matrices.
//!
//! * a `√n × √n` mesh of processors does it in `Θ(√n)` steps, and mesh
//!   steps are unit time even under bounded speed (near-neighbor wires
//!   have length independent of `n`);
//! * a uniprocessor with `O(n)` memory needs `Θ(n^{3/2})` operations;
//!   under bounded speed a *straightforward* implementation pays the
//!   average access distance `Θ(√n)` per operation, while the
//!   locality-careful blocked algorithm of \[AACS87\] pays only
//!   `Θ(log n)`;
//! * hence the mesh's speedup is `Θ(n^{3/2})` (naive serial) or
//!   `Θ(n·log n)` (blocked serial) — *superlinear* in the `n`
//!   processors either way.

use crate::logp2;

/// Mesh time: `Θ(√n)` unit steps.
pub fn mesh_time(n: f64) -> f64 {
    n.sqrt()
}

/// Uniprocessor operation count `Θ(n^{3/2})` (classical three-loop
/// product of `√n × √n` matrices).
pub fn serial_ops(n: f64) -> f64 {
    n.powf(1.5)
}

/// Straightforward uniprocessor time under bounded speed: every
/// operation pays the average memory distance `Θ(√n)`.
pub fn serial_time_naive(n: f64) -> f64 {
    serial_ops(n) * n.sqrt()
}

/// Blocked (hierarchy-aware) uniprocessor time: access overhead
/// `Θ(log n)` per operation \[AACS87\].
pub fn serial_time_blocked(n: f64) -> f64 {
    serial_ops(n) * logp2(n)
}

/// Mesh speedup over the naive uniprocessor: `Θ(n^{3/2})`.
pub fn speedup_over_naive(n: f64) -> f64 {
    serial_time_naive(n) / mesh_time(n)
}

/// Mesh speedup over the blocked uniprocessor: `Θ(n·log n)`.
pub fn speedup_over_blocked(n: f64) -> f64 {
    serial_time_blocked(n) / mesh_time(n)
}

/// Speedup in the instantaneous model: `Θ(n)` — linear, per the
/// Fundamental Principle.
pub fn speedup_instantaneous(n: f64) -> f64 {
    serial_ops(n) / mesh_time(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_speedup_is_n_to_three_halves() {
        let n = 4096.0;
        assert_eq!(speedup_over_naive(n), n.powf(1.5));
    }

    #[test]
    fn blocked_speedup_is_n_log_n() {
        let n = 4096.0;
        assert_eq!(speedup_over_blocked(n), n * logp2(n));
    }

    #[test]
    fn instantaneous_speedup_is_linear() {
        let n = 4096.0;
        assert_eq!(speedup_instantaneous(n), n);
    }

    #[test]
    fn both_bounded_speed_speedups_are_superlinear() {
        for n in [256.0, 4096.0, 65536.0] {
            assert!(speedup_over_naive(n) > n);
            assert!(speedup_over_blocked(n) > n);
        }
    }

    #[test]
    fn blocked_beats_naive_serial() {
        assert!(serial_time_blocked(65536.0) < serial_time_naive(65536.0));
    }
}
