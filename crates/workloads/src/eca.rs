//! Elementary cellular automata — the `m = 1` guests of Theorem 2
//! ("the guest system is either a systolic network or a cellular
//! automaton").

use bsmp_hram::Word;
use bsmp_machine::LinearProgram;

/// A Wolfram elementary cellular automaton.  Cell values are 0/1; the
/// next value is bit `(l·4 + own·2 + r)` of the rule byte.
#[derive(Clone, Copy, Debug)]
pub struct Eca {
    /// Wolfram rule number.
    pub rule: u8,
}

impl Eca {
    pub fn new(rule: u8) -> Self {
        Eca { rule }
    }

    /// Rule 90 — XOR of the neighbors (linear over GF(2), Pascal
    /// triangle mod 2).
    pub fn rule90() -> Self {
        Eca::new(90)
    }

    /// Rule 110 — Turing-complete, thoroughly non-linear.
    pub fn rule110() -> Self {
        Eca::new(110)
    }
}

impl LinearProgram for Eca {
    #[inline]
    fn m(&self) -> usize {
        1
    }

    #[inline]
    fn delta(&self, _v: usize, _t: i64, own: Word, _prev: Word, l: Word, r: Word) -> Word {
        let idx = ((l & 1) << 2) | ((own & 1) << 1) | (r & 1);
        Word::from((self.rule >> idx) & 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_machine::{run_guest, MachineSpec};

    fn run(rule: u8, init: &[Word], steps: i64) -> Vec<Word> {
        let spec = MachineSpec::new(1, init.len() as u64, init.len() as u64, 1);
        run_guest::<1>(&spec, &Eca::new(rule), init, steps).values
    }

    #[test]
    fn rule90_is_neighbor_xor() {
        let out = run(90, &[0, 0, 1, 0, 0], 1);
        assert_eq!(out, vec![0, 1, 0, 1, 0]);
    }

    #[test]
    fn rule110_known_evolution() {
        // One step of 00010011011111 (classic rule-110 test vector).
        let init = [0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 1, 1, 1, 1];
        let out = run(110, &init, 1);
        // Compute expected with an independent oracle.
        let expect: Vec<Word> = (0..init.len())
            .map(|i| {
                let l = if i > 0 { init[i - 1] } else { 0 };
                let c = init[i];
                let r = if i + 1 < init.len() { init[i + 1] } else { 0 };
                Word::from((110u8 >> ((l << 2) | (c << 1) | r)) & 1)
            })
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn rule204_is_identity() {
        // Rule 204 maps every pattern to the center bit.
        let init = [1, 0, 1, 1, 0, 0, 1];
        assert_eq!(run(204, &init, 5), init.to_vec());
    }

    #[test]
    fn rule90_is_linear_over_gf2() {
        // Rule 90 is XOR-linear: evolving a ⊕ b equals evolving a and b
        // separately and XOR-ing the results.
        let a: Vec<Word> = vec![1, 0, 0, 1, 1, 0, 1, 0];
        let b: Vec<Word> = vec![0, 1, 1, 0, 1, 0, 0, 1];
        let ab: Vec<Word> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let ra = run(90, &a, 5);
        let rb = run(90, &b, 5);
        let rab = run(90, &ab, 5);
        let xor: Vec<Word> = ra.iter().zip(&rb).map(|(x, y)| x ^ y).collect();
        assert_eq!(rab, xor);
    }
}
