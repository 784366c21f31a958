//! Simulation results: outputs + cost accounting.

use bsmp_faults::FaultStats;
use bsmp_hram::{CostMeter, Word};

use crate::error::SimError;

/// What a simulation engine returns: the guest's outputs as computed by
/// the host, plus the host's model costs.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Final guest memory image (node-major, `n·m` words) as produced by
    /// the host simulation.
    pub mem: Vec<Word>,
    /// Final guest values (one per node).
    pub values: Vec<Word>,
    /// Host parallel model time `T_p` (for `p = 1`, just the H-RAM's
    /// total time).
    pub host_time: f64,
    /// Guest model time `T_n` of the same computation (from the direct
    /// reference run or the engine's own guest-clock).
    pub guest_time: f64,
    /// Aggregate host meter (summed over processors).
    pub meter: CostMeter,
    /// Peak host memory footprint (high-water mark, words) — the space
    /// `S` of Propositions 2–3.  For multiprocessor hosts, the maximum
    /// per-node footprint.
    pub space: usize,
    /// Number of bulk-synchronous stages (1-processor engines: 0).
    pub stages: u64,
    /// Fault accounting (all zeros under `FaultPlan::none()`).
    pub faults: FaultStats,
}

impl SimReport {
    /// The measured slowdown `T_p / T_n` (`NaN` for an empty
    /// zero-time guest, rather than a spurious ±∞).
    pub fn slowdown(&self) -> f64 {
        if self.guest_time == 0.0 {
            return if self.host_time == 0.0 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        self.host_time / self.guest_time
    }

    /// The measured *locality* slowdown: slowdown divided by the
    /// parallelism loss `n/p` (the paper's `A`-term, empirically).
    pub fn locality_slowdown(&self, n: u64, p: u64) -> f64 {
        self.slowdown() / (n as f64 / p as f64)
    }

    /// [`slowdown`](Self::slowdown) that surfaces the degenerate cases
    /// (zero-time guest with a nonzero host, non-finite clocks) as a
    /// typed error instead of silently returning `∞`/`NaN`.
    pub fn try_slowdown(&self) -> Result<f64, SimError> {
        let s = self.slowdown();
        if !s.is_finite() || !self.host_time.is_finite() || !self.guest_time.is_finite() {
            return Err(SimError::DegenerateReport {
                what: "slowdown",
                host_time: self.host_time,
                guest_time: self.guest_time,
            });
        }
        Ok(s)
    }

    /// [`locality_slowdown`](Self::locality_slowdown) with the same
    /// degenerate cases surfaced (including a zero-`p` baseline).
    pub fn try_locality_slowdown(&self, n: u64, p: u64) -> Result<f64, SimError> {
        let brent = n as f64 / p as f64;
        if p == 0 || !brent.is_finite() || brent == 0.0 {
            return Err(SimError::DegenerateReport {
                what: "locality slowdown",
                host_time: self.host_time,
                guest_time: self.guest_time,
            });
        }
        Ok(self.try_slowdown()? / brent)
    }

    /// Check outputs against a reference guest run.
    pub fn check_matches(&self, mem: &[Word], values: &[Word]) -> Result<(), SimError> {
        if self.values != values {
            return Err(SimError::OutputMismatch { what: "values" });
        }
        if self.mem != mem {
            return Err(SimError::OutputMismatch {
                what: "memory image",
            });
        }
        Ok(())
    }

    /// Panic unless outputs match a reference guest run exactly.
    pub fn assert_matches(&self, mem: &[Word], values: &[Word]) {
        assert_eq!(
            self.values, values,
            "simulated values diverge from direct execution"
        );
        assert_eq!(
            self.mem, mem,
            "simulated memory image diverges from direct execution"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(host_time: f64, guest_time: f64) -> SimReport {
        SimReport {
            mem: vec![],
            values: vec![],
            host_time,
            guest_time,
            meter: CostMeter::new(),
            space: 0,
            stages: 0,
            faults: FaultStats::default(),
        }
    }

    #[test]
    fn slowdown_math() {
        let r = report(1000.0, 10.0);
        assert_eq!(r.slowdown(), 100.0);
        assert_eq!(r.locality_slowdown(64, 16), 25.0);
    }

    #[test]
    fn zero_guest_time_is_guarded() {
        assert_eq!(report(0.0, 0.0).slowdown(), 1.0);
        assert_eq!(report(5.0, 0.0).slowdown(), f64::INFINITY);
        assert!(report(0.0, 0.0).locality_slowdown(4, 2).is_finite());
    }

    #[test]
    fn try_slowdown_surfaces_degenerate_reports() {
        // Empty report: both clocks zero — slowdown defined as 1.
        assert_eq!(report(0.0, 0.0).try_slowdown(), Ok(1.0));
        // Zero-baseline with work done: the silent API says ∞, the
        // typed API refuses.
        assert_eq!(
            report(5.0, 0.0).try_slowdown(),
            Err(SimError::DegenerateReport {
                what: "slowdown",
                host_time: 5.0,
                guest_time: 0.0,
            })
        );
        assert!(report(f64::NAN, 1.0).try_slowdown().is_err());
        assert_eq!(report(1000.0, 10.0).try_slowdown(), Ok(100.0));
        // Bit-compatibility: the plain accessor is untouched.
        assert_eq!(report(5.0, 0.0).slowdown(), f64::INFINITY);
    }

    #[test]
    fn try_locality_slowdown_guards_the_brent_term() {
        assert_eq!(report(1000.0, 10.0).try_locality_slowdown(64, 16), Ok(25.0));
        assert!(report(1000.0, 10.0).try_locality_slowdown(64, 0).is_err());
        assert!(report(1000.0, 10.0).try_locality_slowdown(0, 16).is_err());
        assert!(report(5.0, 0.0).try_locality_slowdown(64, 16).is_err());
    }

    #[test]
    fn check_matches_reports_mismatches() {
        let mut r = report(1.0, 1.0);
        r.mem = vec![1];
        r.values = vec![2];
        assert!(r.check_matches(&[1], &[2]).is_ok());
        assert_eq!(
            r.check_matches(&[1], &[3]),
            Err(SimError::OutputMismatch { what: "values" })
        );
        assert_eq!(
            r.check_matches(&[9], &[2]),
            Err(SimError::OutputMismatch {
                what: "memory image"
            })
        );
    }

    #[test]
    #[should_panic(expected = "diverge")]
    fn mismatch_detected() {
        let mut r = report(1.0, 1.0);
        r.mem = vec![1];
        r.values = vec![2];
        r.assert_matches(&[1], &[3]);
    }
}
