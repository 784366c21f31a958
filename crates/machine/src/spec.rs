//! `M_d(n, p, m)` — Definition 2.

use std::error::Error;
use std::fmt;

use bsmp_hram::{AccessFn, CostModel};

/// Rejected machine parameters (Definition 2 preconditions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// Engines support layout dimensions 1, 2 and 3 only.
    UnsupportedDimension { d: u8 },
    /// `n ≥ 1` and `m ≥ 1` are required.
    ZeroExtent { n: u64, m: u64 },
    /// `1 ≤ p ≤ n` is required.
    ProcessorsOutOfRange { n: u64, p: u64 },
    /// `n` must be a perfect `d`-th power (a square mesh, a cube).
    VolumeNotPower { d: u8, n: u64 },
    /// `p` must be a perfect `d`-th power.
    ProcessorsNotPower { d: u8, p: u64 },
}

/// "square" or "cube": the perfect power a `d`-dimensional side needs.
fn power_name(d: u8) -> &'static str {
    if d == 2 {
        "square"
    } else {
        "cube"
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SpecError::UnsupportedDimension { d } => {
                write!(f, "engines support d ∈ {{1, 2, 3}}, got d = {d}")
            }
            SpecError::ZeroExtent { n, m } => {
                write!(f, "need n ≥ 1 and m ≥ 1, got n = {n}, m = {m}")
            }
            SpecError::ProcessorsOutOfRange { n, p } => {
                write!(f, "need 1 ≤ p ≤ n, got p = {p} with n = {n}")
            }
            SpecError::VolumeNotPower { d, n } => {
                let w = power_name(d);
                write!(f, "d = {d} requires n to be a perfect {w}, got n = {n}")
            }
            SpecError::ProcessorsNotPower { d, p } => {
                let w = power_name(d);
                write!(f, "d = {d} requires p to be a perfect {w}, got p = {p}")
            }
        }
    }
}

impl Error for SpecError {}

/// Parameters of a machine `M_d(n, p, m)`: a `d`-dimensional
/// near-neighbor interconnection of `p` `(x/m)^{1/d}`-H-RAMs, each with
/// `n·m/p` memory cells, near neighbors at geometric distance
/// `(n/p)^{1/d}`.
///
/// `n` is the machine's `d`-dimensional volume; `n·m` its total memory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MachineSpec {
    /// Layout dimension (1 = linear array, 2 = square mesh, 3 = cube).
    pub d: u8,
    /// Machine volume (number of guest-scale node slots).
    pub n: u64,
    /// Number of processors (`1 ≤ p ≤ n`).
    pub p: u64,
    /// Memory cells per unit volume.
    pub m: u64,
    /// Cost regime (bounded-speed vs. the instantaneous baseline).
    pub model: CostModel,
}

impl MachineSpec {
    /// A bounded-speed machine, with the Definition 2 preconditions
    /// checked up front.
    pub fn try_new(d: u8, n: u64, p: u64, m: u64) -> Result<Self, SpecError> {
        if !(1..=3).contains(&d) {
            return Err(SpecError::UnsupportedDimension { d });
        }
        if n < 1 || m < 1 {
            return Err(SpecError::ZeroExtent { n, m });
        }
        if p < 1 || p > n {
            return Err(SpecError::ProcessorsOutOfRange { n, p });
        }
        if exact_root(n, d).is_none() {
            return Err(SpecError::VolumeNotPower { d, n });
        }
        if exact_root(p, d).is_none() {
            return Err(SpecError::ProcessorsNotPower { d, p });
        }
        Ok(MachineSpec {
            d,
            n,
            p,
            m,
            model: CostModel::BoundedSpeed,
        })
    }

    /// A bounded-speed machine; panics on invalid parameters (see
    /// [`try_new`](Self::try_new) for the checked variant).
    pub fn new(d: u8, n: u64, p: u64, m: u64) -> Self {
        Self::try_new(d, n, p, m).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The same machine under instantaneous propagation (Brent
    /// baseline), with checked parameters.
    pub fn try_instantaneous(d: u8, n: u64, p: u64, m: u64) -> Result<Self, SpecError> {
        Ok(MachineSpec {
            model: CostModel::Instantaneous,
            ..Self::try_new(d, n, p, m)?
        })
    }

    /// The same machine under instantaneous propagation (Brent baseline).
    pub fn instantaneous(d: u8, n: u64, p: u64, m: u64) -> Self {
        Self::try_instantaneous(d, n, p, m).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The guest configuration `M_d(n, n, m)` this host simulates.
    pub fn guest_of(&self) -> MachineSpec {
        MachineSpec { p: self.n, ..*self }
    }

    /// Memory cells per processor: `n·m/p`.
    pub fn node_mem(&self) -> u64 {
        self.n * self.m / self.p
    }

    /// Guest-scale nodes hosted per processor: `n/p`.
    pub fn nodes_per_proc(&self) -> u64 {
        self.n / self.p
    }

    /// Near-neighbor distance `(n/p)^{1/d}` (0 under the instantaneous
    /// model — propagation is free there).
    pub fn neighbor_distance(&self) -> f64 {
        match self.model {
            CostModel::Instantaneous => 0.0,
            CostModel::BoundedSpeed => {
                let v = (self.n / self.p) as f64;
                match self.d {
                    1 => v,
                    2 => v.sqrt(),
                    _ => v.cbrt(),
                }
            }
        }
    }

    /// The access function of each node's private H-RAM.
    pub fn access_fn(&self) -> AccessFn {
        match self.model {
            CostModel::BoundedSpeed => AccessFn::new(self.d, self.m),
            CostModel::Instantaneous => AccessFn::instantaneous(self.d, self.m),
        }
    }

    /// Communication charge for sending `words` words over `hops`
    /// near-neighbor links: `words × hops × neighbor_distance` (the
    /// paper's items-×-distance accounting, e.g. the `O(s·n/p)` exchanges
    /// of Section 4.2).
    pub fn comm_cost(&self, words: u64, hops: u64) -> f64 {
        words as f64 * hops as f64 * self.neighbor_distance()
    }

    /// Side of the processor grid (`p^{1/d}`).
    pub fn proc_side(&self) -> u64 {
        exact_root(self.p, self.d).expect("checked by try_new")
    }

    /// Side of the guest mesh (`n^{1/d}`).
    pub fn mesh_side(&self) -> u64 {
        exact_root(self.n, self.d).expect("checked by try_new")
    }
}

/// The integer `d`-th root of `x` (`d ≤ 3`), if `x` is a perfect
/// `d`-th power.  `f64::cbrt` is exact on perfect cubes far past any
/// machine this crate builds; the power check catches the rest.
fn exact_root(x: u64, d: u8) -> Option<u64> {
    let r = match d {
        1 => x,
        2 => x.isqrt(),
        _ => (x as f64).cbrt().round() as u64,
    };
    (r.checked_pow(d as u32) == Some(x)).then_some(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definition_2_quantities() {
        let s = MachineSpec::new(1, 1024, 16, 8);
        assert_eq!(s.node_mem(), 512);
        assert_eq!(s.nodes_per_proc(), 64);
        assert_eq!(s.neighbor_distance(), 64.0);
        // Worst private access time equals neighbor distance (Section 2).
        assert_eq!(s.access_fn().f(s.node_mem() as usize), 64.0);
    }

    #[test]
    fn mesh_distances_use_square_roots() {
        let s = MachineSpec::new(2, 1024, 16, 4);
        assert_eq!(s.neighbor_distance(), 8.0);
        assert_eq!(s.mesh_side(), 32);
        assert_eq!(s.proc_side(), 4);
    }

    #[test]
    fn comm_cost_is_words_times_distance() {
        let s = MachineSpec::new(1, 256, 4, 2);
        assert_eq!(s.comm_cost(10, 1), 10.0 * 64.0);
        assert_eq!(s.comm_cost(3, 2), 3.0 * 2.0 * 64.0);
    }

    #[test]
    fn instantaneous_model_flattens() {
        let s = MachineSpec::instantaneous(1, 256, 4, 2);
        assert_eq!(s.neighbor_distance(), 0.0);
        assert_eq!(s.comm_cost(10, 3), 0.0);
        assert_eq!(s.access_fn().f(100), 0.0);
    }

    #[test]
    fn guest_of_has_full_parallelism() {
        let s = MachineSpec::new(1, 64, 4, 2);
        let g = s.guest_of();
        assert_eq!(g.p, 64);
        assert_eq!(g.node_mem(), 2);
        assert_eq!(g.neighbor_distance(), 1.0);
    }

    #[test]
    fn try_new_reports_each_precondition() {
        assert_eq!(
            MachineSpec::try_new(4, 16, 1, 1),
            Err(SpecError::UnsupportedDimension { d: 4 })
        );
        assert_eq!(
            MachineSpec::try_new(1, 0, 1, 1),
            Err(SpecError::ZeroExtent { n: 0, m: 1 })
        );
        assert_eq!(
            MachineSpec::try_new(1, 4, 8, 1),
            Err(SpecError::ProcessorsOutOfRange { n: 4, p: 8 })
        );
        assert_eq!(
            MachineSpec::try_new(2, 1000, 4, 1),
            Err(SpecError::VolumeNotPower { d: 2, n: 1000 })
        );
        assert_eq!(
            MachineSpec::try_new(2, 1024, 8, 1),
            Err(SpecError::ProcessorsNotPower { d: 2, p: 8 })
        );
        let cube = MachineSpec::try_new(3, 64, 1, 1).expect("4³ with p = 1");
        assert_eq!((cube.mesh_side(), cube.neighbor_distance()), (4, 4.0));
        assert_eq!(
            MachineSpec::try_new(3, 512, 8, 1).map(|s| s.proc_side()),
            Ok(2)
        );
        assert_eq!(
            MachineSpec::try_new(3, 65, 1, 1),
            Err(SpecError::VolumeNotPower { d: 3, n: 65 })
        );
        assert_eq!(
            MachineSpec::try_new(3, 64, 4, 1),
            Err(SpecError::ProcessorsNotPower { d: 3, p: 4 })
        );
        assert_eq!(
            MachineSpec::try_new(1, 64, 4, 2),
            Ok(MachineSpec::new(1, 64, 4, 2))
        );
        assert_eq!(
            MachineSpec::try_instantaneous(1, 64, 4, 2),
            Ok(MachineSpec::instantaneous(1, 64, 4, 2))
        );
        assert!(MachineSpec::try_instantaneous(1, 4, 8, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn mesh_requires_square_n() {
        MachineSpec::new(2, 1000, 4, 1);
    }

    #[test]
    #[should_panic(expected = "1 ≤ p ≤ n")]
    fn p_cannot_exceed_n() {
        MachineSpec::new(1, 4, 8, 1);
    }
}
