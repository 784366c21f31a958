//! Integer heat diffusion on the mesh — a numerically flavored `m = 1`
//! mesh workload (fixed-point arithmetic keeps it exact and
//! order-independent within a step).

use bsmp_hram::Word;
use bsmp_machine::MeshProgram;

/// `u' = (4·own + w + e + s + n) / 8` in fixed point (values are
/// temperatures scaled by 256).  The border is held at `ambient`.
#[derive(Clone, Copy, Debug)]
pub struct HeatDiffusion {
    /// Border temperature (scaled).
    pub ambient: Word,
}

impl HeatDiffusion {
    pub fn new(ambient: Word) -> Self {
        HeatDiffusion { ambient }
    }
}

impl MeshProgram for HeatDiffusion {
    #[inline]
    fn m(&self) -> usize {
        1
    }

    #[inline]
    fn boundary(&self) -> Word {
        self.ambient
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn delta(
        &self,
        _i: usize,
        _j: usize,
        _t: i64,
        own: Word,
        _prev: Word,
        w: Word,
        e: Word,
        s: Word,
        n: Word,
    ) -> Word {
        (4 * own + w + e + s + n) / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_machine::{run_guest, MachineSpec};

    #[test]
    fn uniform_field_is_stationary() {
        let spec = MachineSpec::new(2, 16, 16, 1);
        let run = run_guest::<2>(&spec, &HeatDiffusion::new(1024), &[1024; 16], 6);
        assert_eq!(run.values, vec![1024; 16]);
    }

    #[test]
    fn hot_spot_spreads_and_decays() {
        let side = 5usize;
        let mut init = vec![0; side * side];
        init[2 * side + 2] = 80_000;
        let spec = MachineSpec::new(2, 25, 25, 1);
        let r1 = run_guest::<2>(&spec, &HeatDiffusion::new(0), &init, 1);
        assert!(r1.values[2 * side + 2] < 80_000, "center cools");
        assert!(r1.values[2 * side + 1] > 0, "neighbor warms");
        let r5 = run_guest::<2>(&spec, &HeatDiffusion::new(0), &init, 5);
        let total: u64 = r5.values.iter().sum();
        assert!(total < 80_000, "heat leaks through the cold border");
        assert!(
            r5.values[0] < r5.values[2 * side + 2],
            "gradient towards center"
        );
    }
}
