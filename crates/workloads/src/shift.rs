//! A pure data shift — the simplest fully-dependent workload, with
//! exactly predictable output (used as an engine sanity check: any
//! misordered execution scrambles it immediately).

use bsmp_hram::Word;
use bsmp_machine::LinearProgram;

/// Every step, each node adopts its left neighbor's value (tokens march
/// right); the border injects `fill`.
#[derive(Clone, Copy, Debug)]
pub struct TokenShift {
    /// Value injected at the left border.
    pub fill: Word,
}

impl TokenShift {
    pub fn new(fill: Word) -> Self {
        TokenShift { fill }
    }
}

impl LinearProgram for TokenShift {
    #[inline]
    fn m(&self) -> usize {
        1
    }

    #[inline]
    fn boundary(&self) -> Word {
        self.fill
    }

    #[inline]
    fn delta(&self, _v: usize, _t: i64, _own: Word, _prev: Word, l: Word, _r: Word) -> Word {
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_machine::{run_guest, MachineSpec};

    #[test]
    fn tokens_march_right() {
        let init: Vec<Word> = vec![10, 20, 30, 40, 50];
        let spec = MachineSpec::new(1, 5, 5, 1);
        let run = run_guest::<1>(&spec, &TokenShift::new(99), &init, 2);
        assert_eq!(run.values, vec![99, 99, 10, 20, 30]);
    }

    #[test]
    fn after_n_steps_everything_is_fill() {
        let init: Vec<Word> = (1..=6).collect();
        let spec = MachineSpec::new(1, 6, 6, 1);
        let run = run_guest::<1>(&spec, &TokenShift::new(7), &init, 6);
        assert_eq!(run.values, vec![7; 6]);
    }
}
