//! Odd-even transposition sort as a cellular computation — a classical
//! linear-array workload whose dag has full data dependence.

use bsmp_hram::Word;
use bsmp_machine::LinearProgram;

/// Odd-even transposition sort on an `n`-node array: after `n` steps the
/// values are sorted ascending.  At odd steps, pairs `(0,1), (2,3), …`
/// compare-exchange; at even steps, pairs `(1,2), (3,4), …`.
#[derive(Clone, Copy, Debug)]
pub struct OddEvenSort {
    /// Array length (needed to recognize unpaired border nodes).
    pub n: usize,
}

impl OddEvenSort {
    pub fn new(n: usize) -> Self {
        OddEvenSort { n }
    }
}

impl LinearProgram for OddEvenSort {
    #[inline]
    fn m(&self) -> usize {
        1
    }

    #[inline]
    fn delta(&self, v: usize, t: i64, own: Word, _prev: Word, l: Word, r: Word) -> Word {
        // Pair starts at even v on odd steps, at odd v on even steps.
        let start_parity = if t % 2 == 1 { 0 } else { 1 };
        if v % 2 == start_parity {
            // Left element of its pair; border nodes without a partner
            // keep their value.
            if v + 1 < self.n {
                own.min(r)
            } else {
                own
            }
        } else if v > 0 {
            own.max(l)
        } else {
            own
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_machine::{run_guest, MachineSpec};

    fn sort_with_network(vals: &[Word]) -> Vec<Word> {
        let n = vals.len() as u64;
        let spec = MachineSpec::new(1, n, n, 1);
        run_guest::<1>(
            &spec,
            &OddEvenSort::new(vals.len()),
            vals,
            vals.len() as i64,
        )
        .values
    }

    #[test]
    fn sorts_reverse_order() {
        let input: Vec<Word> = (0..16).rev().collect();
        let mut expect = input.clone();
        expect.sort();
        assert_eq!(sort_with_network(&input), expect);
    }

    #[test]
    fn sorts_random_inputs() {
        use bsmp_faults::rng::Rng64;
        let mut rng = Rng64::new(42);
        for trial in 0..10 {
            let n = 2 * rng.range_u64(2, 20);
            let input: Vec<Word> = (0..n).map(|_| rng.below(1000)).collect();
            let mut expect = input.clone();
            expect.sort();
            assert_eq!(sort_with_network(&input), expect, "trial {trial}");
        }
    }

    #[test]
    fn already_sorted_is_fixed_point() {
        let input: Vec<Word> = (0..8).collect();
        assert_eq!(sort_with_network(&input), input);
    }
}
