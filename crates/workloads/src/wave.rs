//! An order-`m` space-time recurrence exercising all `m` private cells —
//! the `m > 1` workload for Theorems 3 and 4.
//!
//! Node `v` keeps a cyclic buffer of its last `m` values; at step `t` it
//! touches cell `t mod m`, whose content is the node's value from `m`
//! steps ago.  The update combines that delayed value with the fresh
//! neighbor values — a discretized wave/delay equation with genuine
//! dependence on the whole private memory.

use bsmp_hram::Word;
use bsmp_machine::LinearProgram;

/// `value(v, t) = delayed + left − right + prev` (wrapping), where
/// `delayed = value(v, t − m)`.
#[derive(Clone, Copy, Debug)]
pub struct CyclicWave {
    /// Buffer depth — the machine density `m`.
    pub m: usize,
}

impl CyclicWave {
    pub fn new(m: usize) -> Self {
        assert!(m >= 1);
        CyclicWave { m }
    }
}

impl LinearProgram for CyclicWave {
    #[inline]
    fn m(&self) -> usize {
        self.m
    }

    #[inline]
    fn cell(&self, _v: usize, t: i64) -> usize {
        (t.rem_euclid(self.m as i64)) as usize
    }

    #[inline]
    fn delta(&self, _v: usize, _t: i64, own: Word, prev: Word, l: Word, r: Word) -> Word {
        own.wrapping_add(l).wrapping_sub(r).wrapping_add(prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_machine::{run_guest, MachineSpec};

    /// Oracle: simulate the recurrence directly on a value history.
    fn oracle(init: &[Word], n: usize, m: usize, steps: i64) -> Vec<Word> {
        // history[t][v]; t = 0 values are init cell (v, cell(v,0)=0).
        let mut hist: Vec<Vec<Word>> = vec![(0..n).map(|v| init[v * m]).collect()];
        // Private memories.
        let mut mem = init.to_vec();
        for t in 1..=steps {
            let c = (t % m as i64) as usize;
            let prev_row = hist.last().unwrap().clone();
            let mut row = vec![0; n];
            for v in 0..n {
                let own = mem[v * m + c];
                let l = if v > 0 { prev_row[v - 1] } else { 0 };
                let r = if v + 1 < n { prev_row[v + 1] } else { 0 };
                let out = own
                    .wrapping_add(l)
                    .wrapping_sub(r)
                    .wrapping_add(prev_row[v]);
                row[v] = out;
                mem[v * m + c] = out;
            }
            hist.push(row);
        }
        hist.pop().unwrap()
    }

    #[test]
    fn matches_oracle() {
        let (n, m, steps) = (8usize, 3usize, 10i64);
        let init: Vec<Word> = (0..(n * m) as u64).map(|i| i * 7 + 1).collect();
        let spec = MachineSpec::new(1, n as u64, n as u64, m as u64);
        let run = run_guest::<1>(&spec, &CyclicWave::new(m), &init, steps);
        assert_eq!(run.values, oracle(&init, n, m, steps));
    }

    #[test]
    fn delayed_feedback_matters() {
        // With m = 2 vs m = 1 the trajectories differ (the delayed cell
        // really is read).
        let n = 6usize;
        let init1: Vec<Word> = (1..=6).collect();
        let init2: Vec<Word> = (1..=12).collect();
        let s1 = MachineSpec::new(1, 6, 6, 1);
        let s2 = MachineSpec::new(1, 6, 6, 2);
        let r1 = run_guest::<1>(&s1, &CyclicWave::new(1), &init1, 6);
        let r2 = run_guest::<1>(&s2, &CyclicWave::new(2), &init2, 6);
        assert_ne!(r1.values, r2.values);
        let _ = n;
    }

    #[test]
    fn touches_every_cell() {
        let w = CyclicWave::new(4);
        let touched: std::collections::HashSet<usize> = (0..8).map(|t| w.cell(0, t)).collect();
        assert_eq!(touched.len(), 4);
    }
}
