//! An order-`m` space-time recurrence on the mesh — the `m > 1` mesh
//! workload, mirroring [`crate::wave::CyclicWave`] in two dimensions.
//!
//! Cell `(i, j)` keeps a cyclic buffer of its last `m` values; at step
//! `t` it touches cell `t mod m`, whose content is the node's value
//! from `m` steps ago.  The update combines that delayed value with all
//! four fresh neighbor values, so the recurrence genuinely depends on
//! the whole private memory and on the full von Neumann neighborhood.

use bsmp_hram::Word;
use bsmp_machine::MeshProgram;

/// `value(i, j, t) = delayed + w − e + s − n + prev` (wrapping), where
/// `delayed = value(i, j, t − m)`.
#[derive(Clone, Copy, Debug)]
pub struct PlaneWave {
    /// Buffer depth — the machine density `m`.
    pub m: usize,
}

impl PlaneWave {
    pub fn new(m: usize) -> Self {
        assert!(m >= 1);
        PlaneWave { m }
    }
}

impl MeshProgram for PlaneWave {
    #[inline]
    fn m(&self) -> usize {
        self.m
    }

    #[inline]
    fn cell(&self, _i: usize, _j: usize, t: i64) -> usize {
        (t.rem_euclid(self.m as i64)) as usize
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn delta(
        &self,
        _i: usize,
        _j: usize,
        _t: i64,
        own: Word,
        prev: Word,
        w: Word,
        e: Word,
        s: Word,
        n: Word,
    ) -> Word {
        own.wrapping_add(w)
            .wrapping_sub(e)
            .wrapping_add(s)
            .wrapping_sub(n)
            .wrapping_add(prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_machine::{run_guest, MachineSpec};

    /// Oracle: simulate the recurrence directly on a value history.
    fn oracle(init: &[Word], side: usize, m: usize, steps: i64) -> Vec<Word> {
        let n = side * side;
        let mut hist: Vec<Word> = (0..n).map(|v| init[v * m]).collect();
        let mut mem = init.to_vec();
        for t in 1..=steps {
            let c = (t % m as i64) as usize;
            let prev_row = hist.clone();
            let at = |i: isize, j: isize| -> Word {
                if i < 0 || j < 0 || i >= side as isize || j >= side as isize {
                    0
                } else {
                    prev_row[j as usize * side + i as usize]
                }
            };
            for j in 0..side {
                for i in 0..side {
                    let v = j * side + i;
                    let own = mem[v * m + c];
                    let (i, j) = (i as isize, j as isize);
                    let out = own
                        .wrapping_add(at(i - 1, j))
                        .wrapping_sub(at(i + 1, j))
                        .wrapping_add(at(i, j - 1))
                        .wrapping_sub(at(i, j + 1))
                        .wrapping_add(prev_row[v]);
                    hist[v] = out;
                    mem[v * m + c] = out;
                }
            }
        }
        hist
    }

    #[test]
    fn matches_oracle() {
        let (side, m, steps) = (6usize, 3usize, 9i64);
        let n = side * side;
        let init: Vec<Word> = (0..(n * m) as u64).map(|i| i * 7 + 1).collect();
        let spec = MachineSpec::new(2, n as u64, n as u64, m as u64);
        let run = run_guest::<2>(&spec, &PlaneWave::new(m), &init, steps);
        assert_eq!(run.values, oracle(&init, side, m, steps));
    }

    #[test]
    fn touches_every_cell() {
        let w = PlaneWave::new(4);
        let touched: std::collections::HashSet<usize> = (0..8).map(|t| w.cell(0, 0, t)).collect();
        assert_eq!(touched.len(), 4);
    }
}
