//! Plan-time cost tables.
//!
//! Every engine stage touches addresses from a range that is known
//! *before* the stage runs (the per-processor layout is fixed at plan
//! time).  A [`CostTable`] materialises `AccessFn::charge` over that
//! range once, so the stage hot loop replaces a virtual-call-plus-root
//! per access with an indexed load — or, in the *exact-dyadic* regime,
//! with pure integer arithmetic folded back into IEEE doubles only at
//! stage close.
//!
//! # Exact-dyadic charges
//!
//! For `d = 1` under bounded speed, `charge(x) = 1 + x/m = (m + x)/m`.
//! When `m` is a power of two every charge is an integer multiple of the
//! ulp-like unit `u = 1/m`, and a sum of multiples of `u` incurs **no
//! rounding at all** while the running total stays below `2^53 · u`
//! (the mantissa never overflows: each partial sum is an integer in
//! units of `u`).  Consequently *any* re-association of such a sum —
//! including carrying it as a `u64` count of units and converting once —
//! is bit-identical to the sequential `f64` chain the scalar engines
//! execute.  The instantaneous model (`charge ≡ 1`) is the same argument
//! with `u = 1`.  [`CostTable::exact_units`] exposes this regime;
//! [`CostTable::units_budget_ok`] is the plan-time guard on the `2^53`
//! ceiling.  `d ∈ {2, 3}` charges are irrational (square/cube roots), so
//! those tables only serve lookups and the engines keep the sequential
//! chain (in a register) for bit-identity.

use crate::access::{AccessFn, CostModel};

/// Integer-unit view of an exact-dyadic [`CostTable`] (see module docs).
#[derive(Clone, Copy, Debug)]
pub struct ExactUnits {
    /// Units per charge at address `x` are `m + x` (bounded speed) or
    /// `1` (instantaneous); `m_units` is the former's `m`, `None` for
    /// the latter.
    m_units: Option<u64>,
    /// The value of one unit: `1/m` (a power of two) or `1.0`.
    unit: f64,
}

impl ExactUnits {
    /// Units charged for one access to address `x`.
    #[inline]
    pub fn units(&self, x: usize) -> u64 {
        match self.m_units {
            Some(m) => m + x as u64,
            None => 1,
        }
    }

    /// Convert an accumulated unit count to model time.  Exact (and
    /// therefore bit-identical to the sequential chain) while
    /// `units < 2^53`; callers gate with [`CostTable::units_budget_ok`].
    #[inline]
    pub fn time(&self, units: u64) -> f64 {
        debug_assert!(units < (1u64 << 53), "exact-unit budget overflow");
        units as f64 * self.unit
    }

    /// The affine coefficients `(base, slope)` with
    /// `units(x) = base + slope · x` — lets kernels accumulate a plain
    /// address sum and fold the charge once per tile.
    #[inline]
    pub fn affine(&self) -> (u64, u64) {
        match self.m_units {
            Some(m) => (m, 1),
            None => (1, 0),
        }
    }
}

/// Charges for every address in `0..len`, precomputed at plan time.
///
/// Values are produced by [`AccessFn::charge`] itself, so a lookup is
/// bit-identical to the call it replaces by construction.
#[derive(Clone, Debug)]
pub struct CostTable {
    access: AccessFn,
    charges: Vec<f64>,
    exact: Option<ExactUnits>,
}

impl CostTable {
    /// Build the table for addresses `0..len`.
    pub fn new(access: AccessFn, len: usize) -> Self {
        let charges = (0..len).map(|x| access.charge(x)).collect();
        let exact = match access.model {
            CostModel::Instantaneous => Some(ExactUnits {
                m_units: None,
                unit: 1.0,
            }),
            CostModel::BoundedSpeed if access.d == 1 && access.m.is_power_of_two() => {
                Some(ExactUnits {
                    m_units: Some(access.m),
                    unit: 1.0 / access.m as f64,
                })
            }
            CostModel::BoundedSpeed => None,
        };
        CostTable {
            access,
            charges,
            exact,
        }
    }

    /// The access function this table was built from.
    #[inline]
    pub fn access(&self) -> &AccessFn {
        &self.access
    }

    /// Number of addresses covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.charges.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.charges.is_empty()
    }

    /// `charge(x)`, served from the table.  `x` must be `< len()`.
    #[inline]
    pub fn charge(&self, x: usize) -> f64 {
        self.charges[x]
    }

    /// The raw charge slice, for branch-free inner loops that zip it
    /// against memory rows.
    #[inline]
    pub fn charges(&self) -> &[f64] {
        &self.charges
    }

    /// Integer-unit view when every charge is an exact dyadic multiple
    /// (see module docs); `None` for irrational (`d ≥ 2`) charges.
    #[inline]
    pub fn exact_units(&self) -> Option<ExactUnits> {
        self.exact
    }

    /// Plan-time guard for the exact-unit regime: `true` when
    /// `max_accesses` worst-case charges stay below the `2^53`-unit
    /// ceiling, so every intermediate sum is exact.
    pub fn units_budget_ok(&self, max_accesses: u64) -> bool {
        match self.exact {
            Some(e) => {
                let worst = e.units(self.len().saturating_sub(1).max(1)) as u128;
                (max_accesses as u128).saturating_mul(worst) < 1u128 << 53
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_match_access_fn_to_the_bit() {
        for d in [1u8, 2, 3] {
            for m in [1u64, 2, 3, 4, 7, 8, 49, 100, 1024, 12_345] {
                let a = AccessFn::new(d, m);
                let t = CostTable::new(a, 3000);
                for x in 0..3000usize {
                    assert_eq!(
                        t.charge(x).to_bits(),
                        a.charge(x).to_bits(),
                        "d={d} m={m} x={x}"
                    );
                }
            }
        }
    }

    #[test]
    fn instantaneous_lookups_match_too() {
        let a = AccessFn::instantaneous(1, 7);
        let t = CostTable::new(a, 64);
        for x in 0..64usize {
            assert_eq!(t.charge(x).to_bits(), a.charge(x).to_bits());
        }
    }

    #[test]
    fn exactness_detection() {
        assert!(CostTable::new(AccessFn::new(1, 8), 4)
            .exact_units()
            .is_some());
        assert!(CostTable::new(AccessFn::new(1, 1), 4)
            .exact_units()
            .is_some());
        assert!(CostTable::new(AccessFn::new(1, 6), 4)
            .exact_units()
            .is_none());
        assert!(CostTable::new(AccessFn::new(2, 4), 4)
            .exact_units()
            .is_none());
        assert!(CostTable::new(AccessFn::new(3, 1), 4)
            .exact_units()
            .is_none());
        assert!(CostTable::new(AccessFn::instantaneous(2, 5), 4)
            .exact_units()
            .is_some());
    }

    #[test]
    fn unit_sums_match_the_sequential_chain_bitwise() {
        // The whole point: converting an integer unit count once must
        // reproduce the f64 chain bit-for-bit in the exact regime.
        for m in [1u64, 2, 8, 64, 1024] {
            let a = AccessFn::new(1, m);
            let t = CostTable::new(a, 5000);
            let e = t.exact_units().unwrap();
            let mut chain = 0.0f64;
            let mut units = 0u64;
            for x in (0..5000usize).rev().chain(0..5000) {
                chain += a.charge(x);
                units += e.units(x);
            }
            assert_eq!(e.time(units).to_bits(), chain.to_bits(), "m={m}");
        }
    }

    #[test]
    fn budget_guard() {
        let t = CostTable::new(AccessFn::new(1, 1), 1024);
        assert!(t.units_budget_ok(1 << 40));
        assert!(!t.units_budget_ok(u64::MAX));
        let irr = CostTable::new(AccessFn::new(2, 1), 16);
        assert!(!irr.units_budget_ok(1));
    }
}
