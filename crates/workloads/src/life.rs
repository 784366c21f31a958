//! A Life-like rule on the von Neumann neighborhood — the `m = 1` mesh
//! guest for Theorem 5.

use bsmp_hram::Word;
use bsmp_machine::MeshProgram;

/// Birth/survival rule over the 4-neighbor count: a dead cell becomes
/// alive if the neighbor count is in `birth`; a live cell stays alive if
/// the count is in `survive` (bit masks over counts 0..=4).
#[derive(Clone, Copy, Debug)]
pub struct VonNeumannLife {
    pub birth: u8,
    pub survive: u8,
}

impl VonNeumannLife {
    /// Birth on exactly 2 neighbors, survival on 1 or 2 — a lively
    /// von Neumann variant.
    pub fn b2s12() -> Self {
        VonNeumannLife {
            birth: 0b00100,
            survive: 0b00110,
        }
    }

    /// Parity rule (Fredkin): alive iff neighbor count is odd — linear,
    /// self-replicating patterns.
    pub fn fredkin() -> Self {
        VonNeumannLife {
            birth: 0b01010,
            survive: 0b01010,
        }
    }
}

impl MeshProgram for VonNeumannLife {
    #[inline]
    fn m(&self) -> usize {
        1
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
        let count = ((w & 1) + (e & 1) + (s & 1) + (n & 1)) as u8;
        let mask = if own & 1 == 1 {
            self.survive
        } else {
            self.birth
        };
        Word::from((mask >> count) & 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_machine::{run_guest, MachineSpec};

    #[test]
    fn fredkin_replicates_single_cell() {
        // A single live cell under the parity rule becomes its 4 neighbors.
        let side = 5usize;
        let mut init = vec![0; side * side];
        init[2 * side + 2] = 1;
        let spec = MachineSpec::new(2, (side * side) as u64, (side * side) as u64, 1);
        let run = run_guest::<2>(&spec, &VonNeumannLife::fredkin(), &init, 1);
        let live: Vec<usize> = run
            .values
            .iter()
            .enumerate()
            .filter(|(_, v)| **v == 1)
            .map(|(i, _)| i)
            .collect();
        let c = |i: usize, j: usize| j * side + i;
        assert_eq!(live, vec![c(2, 1), c(1, 2), c(3, 2), c(2, 3)]);
    }

    #[test]
    fn dead_mesh_stays_dead() {
        let spec = MachineSpec::new(2, 16, 16, 1);
        let run = run_guest::<2>(&spec, &VonNeumannLife::b2s12(), &[0; 16], 5);
        assert!(run.values.iter().all(|&v| v == 0));
    }

    #[test]
    fn rules_differ() {
        let side = 4usize;
        let init: Vec<Word> = (0..16).map(|i| u64::from(i % 3 == 0)).collect();
        let spec = MachineSpec::new(2, 16, 16, 1);
        let a = run_guest::<2>(&spec, &VonNeumannLife::b2s12(), &init, 4);
        let b = run_guest::<2>(&spec, &VonNeumannLife::fredkin(), &init, 4);
        assert_ne!(a.values, b.values);
        let _ = side;
    }
}
