//! The engine registry: one row per simulation engine, carrying its
//! name (as stamped into traces and serve requests), its layout
//! dimension, and the upper envelope of the theorem it implements.
//!
//! Every place that needs to know which engines exist — the run
//! dispatch in `bsmp-sim`, the batch server, the CLI, and the
//! certifier below — reads this table instead of matching names.

use bsmp_analytic::lower::BoundError;
use bsmp_analytic::{logp2, theorem1, theorem4};

/// Slack constant applied to the naive engines' upper form
/// `q·((m+2)q)^{1/d}` (per-step constants: six sub-phases per guest
/// step plus tiling overheads).
const SLACK_NAIVE: f64 = 16.0;
/// Slack for the `d = 1` D&C engine.  Its recursion relocates the
/// block private memories at every level (the Section 4.1 variant), so
/// its cost carries both Theorem 3's combined form and an `m·log n`
/// relocation term; calibration at n = 64 puts the worst measured/form
/// ratio near 69 (shrinking with n), so 128 leaves ~2× headroom.
const SLACK_DNC1: f64 = 128.0;
/// Slack for the `d ≥ 2` D&C engines' Theorem 1/5 forms (recursion
/// constants and the leaf-size rounding; worst calibrated ratio ~10).
const SLACK_DNC: f64 = 32.0;
/// Slack for the Theorem 4 strip scheme: the engine picks the closest
/// *admissible* strip (power of two, dividing n, a multiple of p
/// strips) and pays non-amortized relocation constants on top of λ.
/// The measured/`q·λ(s*)` ratio is flat in n (≈187 at m = 1, less for
/// m > 1), so 512 leaves ~2.7× headroom at the worst calibrated point.
const SLACK_MULTI1: f64 = 512.0;
/// Slack for the d = 2 honeycomb scheme (Theorem 1 form plus the
/// naive-priced setup/drain stages).
const SLACK_MULTI2: f64 = 32.0;
/// Slack for the Section 6 pipelined-memory machine (batch constants).
const SLACK_PIPELINED: f64 = 32.0;

/// One of the nine simulation engines of the reproduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Proposition 1 naive simulation, `d = 1`, any `p`.
    Naive1,
    /// Theorem 4 two-regime strip scheme, `d = 1`.
    Multi1,
    /// Section 6 pipelined-memory naive simulation, `d = 1`.
    Pipelined1,
    /// Theorems 2–3 uniprocessor divide-and-conquer, `d = 1`.
    Dnc1,
    /// Proposition 1 naive simulation, `d = 2`, square `p`.
    Naive2,
    /// Theorem 1 `d = 2` block-banded honeycomb scheme.
    Multi2,
    /// Theorem 5 uniprocessor divide-and-conquer, `d = 2`.
    Dnc2,
    /// Proposition 1 naive simulation, `d = 3`, uniprocessor.
    Naive3,
    /// Section 6's conjectured `d = 3` divide-and-conquer, uniprocessor.
    Dnc3,
}

impl EngineKind {
    /// Every engine, in registry order.
    pub const ALL: [EngineKind; 9] = [
        EngineKind::Naive1,
        EngineKind::Multi1,
        EngineKind::Pipelined1,
        EngineKind::Dnc1,
        EngineKind::Naive2,
        EngineKind::Multi2,
        EngineKind::Dnc2,
        EngineKind::Naive3,
        EngineKind::Dnc3,
    ];

    /// The engine's name, as stamped into traces and serve requests.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Naive1 => "naive1",
            EngineKind::Multi1 => "multi1",
            EngineKind::Pipelined1 => "pipelined1",
            EngineKind::Dnc1 => "dnc1",
            EngineKind::Naive2 => "naive2",
            EngineKind::Multi2 => "multi2",
            EngineKind::Dnc2 => "dnc2",
            EngineKind::Naive3 => "naive3",
            EngineKind::Dnc3 => "dnc3",
        }
    }

    /// Layout dimension of the guest and host machines.
    pub fn d(self) -> u8 {
        match self {
            EngineKind::Naive1 | EngineKind::Multi1 | EngineKind::Pipelined1 | EngineKind::Dnc1 => {
                1
            }
            EngineKind::Naive2 | EngineKind::Multi2 | EngineKind::Dnc2 => 2,
            EngineKind::Naive3 | EngineKind::Dnc3 => 3,
        }
    }

    /// Whether the engine runs on one processor (`p = 1`): the
    /// divide-and-conquer engines and `naive3`.
    pub fn uniprocessor(self) -> bool {
        matches!(
            self,
            EngineKind::Dnc1 | EngineKind::Dnc2 | EngineKind::Naive3 | EngineKind::Dnc3
        )
    }

    /// Look an engine up by [`name`](Self::name).
    pub fn parse(name: &str) -> Option<EngineKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The engine-specific upper envelope on measured slowdown, from the
    /// theorem the engine implements (with the documented slack
    /// constant).  Using the per-engine form (rather than the regime's
    /// Theorem 1 form) matters: a naive engine run in Range 1 or the
    /// strip scheme run in Range 4 legitimately exceeds the *optimal*
    /// scheme's bound while staying inside its own.
    pub fn upper_slowdown(self, d: u8, n: f64, m: f64, p: f64) -> Result<f64, BoundError> {
        let q = n / p;
        Ok(match self {
            // Naive simulation: q points per guest step, each access
            // priced up to f((m+2)q) = ((m+2)q)^{1/d} (Proposition 1
            // generalized to m > 1 host cells per node).
            EngineKind::Naive1 | EngineKind::Naive2 | EngineKind::Naive3 => {
                SLACK_NAIVE * q * ((m + 2.0) * q).powf(1.0 / d as f64)
            }
            // Theorem 3's combined form, plus the block-relocation term
            // n·m·log n that the implemented recursion (which relocates
            // whole private memories at every level) actually pays — for
            // m > n/log n the relocation term exceeds the combined
            // form's naive ceiling.
            EngineKind::Dnc1 => {
                let combined = bsmp_analytic::bounds::try_thm3_locality(n, m)?;
                SLACK_DNC1 * n * combined.max(m * logp2(n))
            }
            // Theorem 1's d = 2 uniprocessor form (Theorem 5 at m = 1).
            EngineKind::Dnc2 => SLACK_DNC * n * theorem1::try_locality_slowdown(2, n, m, 1.0)?,
            // The d = 3 analogue of Theorem 2 (Conjecture 1 form); the
            // volume engine only supports m = 1.
            EngineKind::Dnc3 => SLACK_DNC * n * logp2(n),
            // Theorem 4's strip scheme at the optimal strip width.
            EngineKind::Multi1 => {
                let s = theorem4::optimal_s(n, m, p);
                SLACK_MULTI1 * q * theorem4::try_lambda(n, m, p, s)?
            }
            // The d = 2 honeycomb scheme: Theorem 1's A(n, m, p) plus a
            // naive-priced term for the setup/drain stages.
            EngineKind::Multi2 => {
                let a = theorem1::try_locality_slowdown(2, n, m, p)?;
                SLACK_MULTI2 * q * (a + ((m + 2.0) * q).sqrt())
            }
            // Section 6 pipelined-memory machine: one batch of q accesses
            // per guest step, priced f(X) + k ≤ ((m+2)q)^{1/d} + q.
            EngineKind::Pipelined1 => SLACK_PIPELINED * (q + ((m + 2.0) * q).powf(1.0 / d as f64)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for k in EngineKind::ALL {
            assert_eq!(EngineKind::parse(k.name()), Some(k));
        }
        assert_eq!(EngineKind::parse("warp9"), None);
        assert_eq!(EngineKind::parse("Naive1"), None);
    }
}
