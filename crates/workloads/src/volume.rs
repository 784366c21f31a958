//! 3-D mesh workloads — guests for the Section-6 `d = 3` extension.

use bsmp_hram::Word;
use bsmp_machine::VolumeProgram;

/// Parity (Fredkin-style) rule on the 3-D von Neumann neighborhood:
/// alive iff the 6-neighbor live count is odd — linear over GF(2), so
/// single impulses replicate, giving exactly predictable patterns.
#[derive(Clone, Copy, Debug)]
pub struct Parity3d;

impl VolumeProgram for Parity3d {
    #[inline]
    fn m(&self) -> usize {
        1
    }

    #[inline]
    fn delta(
        &self,
        _x: usize,
        _y: usize,
        _z: usize,
        _t: i64,
        _own: Word,
        _prev: Word,
        nb: [Word; 6],
    ) -> Word {
        nb.iter().fold(0, |a, b| a ^ (b & 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_machine::{run_guest, MachineSpec};

    #[test]
    fn impulse_moves_to_six_neighbors() {
        let side = 5usize;
        let n = side * side * side;
        let spec = MachineSpec::new(3, n as u64, 1, 1);
        let mut init = vec![0; n];
        let idx = |x: usize, y: usize, z: usize| (z * side + y) * side + x;
        init[idx(2, 2, 2)] = 1;
        let run = run_guest::<3>(&spec, &Parity3d, &init, 1);
        let live: usize = run.values.iter().map(|&v| v as usize).sum();
        assert_eq!(live, 6);
        assert_eq!(run.values[idx(1, 2, 2)], 1);
        assert_eq!(run.values[idx(2, 2, 3)], 1);
        assert_eq!(run.values[idx(2, 2, 2)], 0);
    }

    #[test]
    fn linearity_over_gf2() {
        let n = 64usize;
        let spec = MachineSpec::new(3, n as u64, 1, 1);
        let a: Vec<Word> = (0..n as u64).map(|i| (i * 7 + 1) % 2).collect();
        let b: Vec<Word> = (0..n as u64).map(|i| (i * 5 + 2) % 2).collect();
        let ab: Vec<Word> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let ra = run_guest::<3>(&spec, &Parity3d, &a, 3).values;
        let rb = run_guest::<3>(&spec, &Parity3d, &b, 3).values;
        let rab = run_guest::<3>(&spec, &Parity3d, &ab, 3).values;
        let xor: Vec<Word> = ra.iter().zip(&rb).map(|(x, y)| x ^ y).collect();
        assert_eq!(rab, xor);
    }
}
