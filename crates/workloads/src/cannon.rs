//! Systolic matrix multiplication on the mesh — the introduction's
//! motivating example ("two `√n × √n` matrices can be multiplied in
//! `Θ(√n)` steps by a `√n × √n` mesh of processors").
//!
//! This is a boundary-fed systolic algorithm in the Kung–Leiserson
//! style, expressed as a pure [`MeshProgram`] (no torus wrap-around
//! needed, matching Definition 2's mesh):
//!
//! * `A`-entries flow east along the rows, `B`-entries flow north-to-…
//!   precisely: along increasing `j`; `C` is stationary;
//! * the west edge (`i = 0`) holds row `r`'s `A`-entries in its private
//!   cells, skewed so `A[r, k]` is emitted at step `k + r + 1`;
//!   the `j = 0` edge holds `B`'s columns, skewed so `B[k, q]` is
//!   emitted at step `k + q + 1`;
//! * every node's communicated value packs `(a, b, c)` into one word
//!   (16 + 16 + 32 bits); node `(q, r)` accumulates
//!   `c += A[r, k] · B[k, q]` at step `k + r + q + 1`, so after
//!   `3·side` steps the `c`-fields hold `C = A·B`.
//!
//! Private memory per node is `m = side + 1` cells (cell 0 is scratch;
//! cells `1 ..= side` stage the boundary entries) — giving the machine a
//! density `m ≈ √n`, squarely in the interesting regimes of Theorem 1.

use bsmp_hram::Word;
use bsmp_machine::MeshProgram;

/// Field packing helpers for the systolic value word.
#[inline]
pub fn pack(a: u64, b: u64, c: u64) -> Word {
    debug_assert!(a < (1 << 16) && b < (1 << 16) && c < (1 << 32));
    (a << 48) | (b << 32) | c
}

#[inline]
pub fn a_field(w: Word) -> u64 {
    w >> 48
}

#[inline]
pub fn b_field(w: Word) -> u64 {
    (w >> 32) & 0xFFFF
}

#[inline]
pub fn c_field(w: Word) -> u64 {
    w & 0xFFFF_FFFF
}

/// The systolic matrix-multiplication program for a `side × side` mesh.
#[derive(Clone, Copy, Debug)]
pub struct SystolicMatmul {
    pub side: usize,
}

impl SystolicMatmul {
    pub fn new(side: usize) -> Self {
        assert!(side >= 1);
        SystolicMatmul { side }
    }

    /// Steps needed for all products to land: the last product
    /// `k = side-1` reaches node `(side-1, side-1)` at step `3·side - 2`.
    pub fn steps(&self) -> i64 {
        (3 * self.side) as i64
    }

    /// Build the initial memory image for multiplying `a × b`
    /// (row-major `side × side` matrices with entries `< 2^16`).
    ///
    /// Layout (node-major, `m = side + 1` cells per node, node index
    /// `j·side + i`): cell 0 is zeroed scratch; for west-edge node
    /// `(0, r)`, cell `k+1` holds `pack(A[r][k], ·, 0)`; for edge
    /// `(q, 0)`, cell `k+1` holds `pack(·, B[k][q], 0)`; the corner holds
    /// both fields.
    pub fn stage_inputs(&self, a: &[Vec<u64>], b: &[Vec<u64>]) -> Vec<Word> {
        let s = self.side;
        assert_eq!(a.len(), s);
        assert_eq!(b.len(), s);
        let m = s + 1;
        let mut init = vec![0 as Word; s * s * m];
        for (r, arow) in a.iter().enumerate() {
            // West edge node (i=0, j=r).
            let base = (r * s) * m;
            for (k, &av) in arow.iter().enumerate() {
                init[base + k + 1] |= pack(av, 0, 0);
            }
        }
        for (k, brow) in b.iter().enumerate() {
            // j = 0 edge node (i=q, j=0).
            for (q, &bv) in brow.iter().enumerate() {
                init[q * m + k + 1] |= pack(0, bv, 0);
            }
        }
        init
    }

    /// Extract `C = A·B` from the final values of a run.
    pub fn extract_c(&self, values: &[Word]) -> Vec<Vec<u64>> {
        let s = self.side;
        (0..s)
            .map(|r| (0..s).map(|q| c_field(values[r * s + q])).collect())
            .collect()
    }
}

impl MeshProgram for SystolicMatmul {
    #[inline]
    fn m(&self) -> usize {
        self.side + 1
    }

    #[inline]
    fn cell(&self, i: usize, j: usize, t: i64) -> usize {
        let s = self.side as i64;
        if i == 0 || j == 0 {
            // The staging index of this step's boundary entry.
            let delay = if i == 0 { j as i64 } else { i as i64 };
            let u = t - 1 - delay;
            if (0..s).contains(&u) {
                return (u + 1) as usize;
            }
        }
        0
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn delta(
        &self,
        i: usize,
        j: usize,
        _t: i64,
        own: Word,
        prev: Word,
        west: Word,
        _east: Word,
        south: Word,
        _north: Word,
    ) -> Word {
        let a = if i == 0 { a_field(own) } else { a_field(west) };
        let b = if j == 0 { b_field(own) } else { b_field(south) };
        let c = (c_field(prev) + a * b) & 0xFFFF_FFFF;
        pack(a, b, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_machine::{run_guest, MachineSpec};

    fn matmul_oracle(a: &[Vec<u64>], b: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let s = a.len();
        (0..s)
            .map(|r| {
                (0..s)
                    .map(|q| (0..s).map(|k| a[r][k] * b[k][q]).sum())
                    .collect()
            })
            .collect()
    }

    fn run_systolic(a: &[Vec<u64>], b: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let s = a.len();
        let prog = SystolicMatmul::new(s);
        let n = (s * s) as u64;
        let spec = MachineSpec::new(2, n, n, (s + 1) as u64);
        let init = prog.stage_inputs(a, b);
        let run = run_guest::<2>(&spec, &prog, &init, prog.steps());
        prog.extract_c(&run.values)
    }

    #[test]
    fn two_by_two() {
        let a = vec![vec![1, 2], vec![3, 4]];
        let b = vec![vec![5, 6], vec![7, 8]];
        assert_eq!(run_systolic(&a, &b), matmul_oracle(&a, &b));
    }

    #[test]
    fn identity_is_neutral() {
        let s = 4;
        let a: Vec<Vec<u64>> = (0..s)
            .map(|r| (0..s).map(|q| (r * s + q + 1) as u64).collect())
            .collect();
        let id: Vec<Vec<u64>> = (0..s)
            .map(|r| (0..s).map(|q| u64::from(r == q)).collect())
            .collect();
        assert_eq!(run_systolic(&a, &id), a);
        assert_eq!(run_systolic(&id, &a), a);
    }

    #[test]
    fn random_matrices_match_oracle() {
        use bsmp_faults::rng::Rng64;
        let mut rng = Rng64::new(7);
        for s in [3usize, 5, 8] {
            let mk = |rng: &mut Rng64| -> Vec<Vec<u64>> {
                (0..s)
                    .map(|_| (0..s).map(|_| rng.below(256)).collect())
                    .collect()
            };
            let a = mk(&mut rng);
            let b = mk(&mut rng);
            assert_eq!(run_systolic(&a, &b), matmul_oracle(&a, &b), "side {s}");
        }
    }

    #[test]
    fn completes_in_linear_steps() {
        // Θ(√n) steps — the introduction's claim.
        assert_eq!(SystolicMatmul::new(16).steps(), 48);
    }
}
