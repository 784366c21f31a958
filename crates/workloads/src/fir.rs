//! A systolic FIR filter — a DSP-flavored `m > 1` workload whose private
//! memory holds tap coefficients, exercising the cyclic cell-addressing
//! pattern with *persistent* per-cell data.
//!
//! Node `v` holds `m` coefficients; samples stream in from the left
//! border and march right one node per step.  At step `t` node `v`
//! touches cell `t mod m`; Definition-3 semantics overwrite the touched
//! cell with the produced value, so the coefficient is carried inside
//! the packed word (sample 24 bits | accumulator 24 bits | coefficient
//! 16 bits) — the first touch of a cell reads the raw coefficient laid
//! out by [`FirPipeline::coefficients`], later touches recover it from
//! the packed field.  The accumulator forms
//!
//! ```text
//! acc(v, t) = acc(v-1, t-1) + w_{t mod m}(v) · sample(v-1, t-1)
//! ```
//!
//! so after `v` hops every output carries a genuine weighted pipeline of
//! the input stream, with full dag dependence on both the stream and all
//! touched cells.

use bsmp_hram::Word;
use bsmp_machine::LinearProgram;

/// Field packing: sample 24 high bits, accumulator 24 middle bits,
/// coefficient 16 low bits.
#[inline]
pub fn pack(sample: u64, acc: u64, coef: u64) -> Word {
    debug_assert!(sample < (1 << 24) && acc < (1 << 24) && coef < (1 << 16));
    (sample << 40) | (acc << 16) | coef
}

#[inline]
pub fn sample_of(w: Word) -> u64 {
    w >> 40
}

#[inline]
pub fn acc_of(w: Word) -> u64 {
    (w >> 16) & 0xFF_FFFF
}

#[inline]
pub fn coef_of(w: Word) -> u64 {
    w & 0xFFFF
}

/// The FIR pipeline program.
#[derive(Clone, Debug)]
pub struct FirPipeline {
    /// Taps per node (the machine density `m`).
    pub taps: usize,
    /// The input stream injected at the left border (sample `i` enters
    /// node 0 at step `i + 1`; zeros after the stream ends).
    pub stream: Vec<u64>,
}

impl FirPipeline {
    pub fn new(taps: usize, stream: Vec<u64>) -> Self {
        assert!(taps >= 1);
        assert!(
            stream.iter().all(|&s| s < 1 << 10),
            "samples must stay in range"
        );
        FirPipeline { taps, stream }
    }

    /// The coefficient of node `v`, cell `c`: small, deterministic.
    pub fn weight(&self, v: usize, c: usize) -> u64 {
        ((v + c) % 4 + 1) as u64
    }

    /// Initial memory image: node `v`'s raw coefficients at cells `0..m`.
    pub fn coefficients(&self, n: usize) -> Vec<Word> {
        let mut init = vec![0 as Word; n * self.taps];
        for v in 0..n {
            for c in 0..self.taps {
                init[v * self.taps + c] = self.weight(v, c);
            }
        }
        init
    }

    /// Is step `t`'s touch of its cell the first one (raw coefficient
    /// still in place)?
    #[inline]
    fn first_touch(&self, t: i64) -> bool {
        // Cell c = t mod m is first touched at t = c (c ≥ 1) or t = m (c = 0).
        let m = self.taps as i64;
        (1..=m).contains(&t)
    }

    /// Direct oracle for the expected `(sample, acc)` at node `v` after
    /// step `t` (tests).
    pub fn oracle(&self, n: usize, steps: i64) -> Vec<(u64, u64)> {
        let mut cur: Vec<(u64, u64)> = vec![(0, 0); n];
        for t in 1..=steps {
            let mut nxt = vec![(0, 0); n];
            for v in 0..n {
                let (s_in, a_in) = if v == 0 {
                    (self.stream.get((t - 1) as usize).copied().unwrap_or(0), 0)
                } else {
                    cur[v - 1]
                };
                let c = t.rem_euclid(self.taps as i64) as usize;
                nxt[v] = (s_in, (a_in + self.weight(v, c) * s_in) & 0xFF_FFFF);
            }
            cur = nxt;
        }
        cur
    }
}

impl LinearProgram for FirPipeline {
    #[inline]
    fn m(&self) -> usize {
        self.taps
    }

    #[inline]
    fn cell(&self, _v: usize, t: i64) -> usize {
        t.rem_euclid(self.taps as i64) as usize
    }

    #[inline]
    fn boundary(&self) -> Word {
        0
    }

    #[inline]
    fn delta(&self, v: usize, t: i64, own: Word, _prev: Word, left: Word, _right: Word) -> Word {
        let coef = if self.first_touch(t) {
            own
        } else {
            coef_of(own)
        };
        let inbound = if v == 0 {
            let s = self.stream.get((t - 1) as usize).copied().unwrap_or(0);
            pack(s, 0, 0)
        } else {
            left
        };
        let sample = sample_of(inbound);
        let acc = (acc_of(inbound) + coef * sample) & 0xFF_FFFF;
        pack(sample, acc, coef)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_machine::{run_guest, MachineSpec};

    fn run(prog: &FirPipeline, n: usize, steps: i64) -> Vec<Word> {
        let init = prog.coefficients(n);
        let spec = MachineSpec::new(1, n as u64, n as u64, prog.taps as u64);
        run_guest::<1>(&spec, prog, &init, steps).values
    }

    #[test]
    fn matches_oracle() {
        let prog = FirPipeline::new(3, vec![5, 9, 3, 7, 2, 8]);
        let n = 6usize;
        for steps in [1i64, 3, 6, 10] {
            let vals = run(&prog, n, steps);
            let oracle = prog.oracle(n, steps);
            for v in 0..n {
                assert_eq!(
                    (sample_of(vals[v]), acc_of(vals[v])),
                    oracle[v],
                    "node {v} at T={steps}"
                );
            }
        }
    }

    #[test]
    fn samples_propagate_one_hop_per_step() {
        let prog = FirPipeline::new(2, vec![5, 9, 3]);
        let vals = run(&prog, 4, 4);
        assert_eq!(sample_of(vals[3]), 5);
        assert_eq!(sample_of(vals[2]), 9);
        assert_eq!(sample_of(vals[1]), 3);
        assert_eq!(sample_of(vals[0]), 0, "stream exhausted");
    }

    #[test]
    fn coefficients_survive_cell_reuse() {
        // After t > m, cells are on their second+ touch; the oracle
        // agreement over 3 full cycles proves coefficient persistence.
        let prog = FirPipeline::new(2, (0..12).map(|i| (i % 7) + 1).collect());
        let n = 4usize;
        let vals = run(&prog, n, 12);
        let oracle = prog.oracle(n, 12);
        for v in 0..n {
            assert_eq!((sample_of(vals[v]), acc_of(vals[v])), oracle[v]);
        }
    }
}
