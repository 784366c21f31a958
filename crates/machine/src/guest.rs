//! Direct (reference) execution of guest machines `M_d(n, n, m)`.
//!
//! This is the ground truth the simulation engines are validated against,
//! and the source of the guest model time `T_n` in every slowdown
//! measurement.  One runner serves every dimension: [`run_guest`] walks
//! the `side^D` nodes in node-index order (axis 0 fastest, so node
//! `x` sits at `Σ x_k·side^k`) through the program's [`Guest`] view.
//! One guest step costs, per node: one private-cell read, the receipt
//! of each of the `2D` neighbors' values over a unit-distance link, one
//! `δ` application, and one private-cell write; nodes run in lock-step,
//! so the step's duration is the maximum over nodes ([`guest_time`]).

use std::array::from_fn;

use crate::program::{Guest, LinearProgram, MeshProgram, VolumeProgram};
use crate::spec::MachineSpec;
use bsmp_hram::{AccessFn, Word};

/// Result of a guest run.
#[derive(Clone, Debug)]
pub struct GuestRun {
    /// Final private memories, node-major (`node·m + cell`).
    pub mem: Vec<Word>,
    /// The values produced at the last step (one per node).
    pub values: Vec<Word>,
    /// Guest model time `T_n`.
    pub time: f64,
    /// Number of steps executed.
    pub steps: i64,
}

/// The guest's node count, mesh side and per-node step cost: the guest
/// is the fully parallel configuration of `spec` (its `p` is ignored),
/// and `spec` supplies the cost regime.
struct Layout {
    n: usize,
    side: usize,
    access: AccessFn,
    hop: f64,
}

impl Layout {
    fn of<const D: usize>(spec: &MachineSpec) -> Self {
        assert_eq!(spec.d as usize, D, "program dimension must match machine");
        let guest = spec.guest_of();
        Layout {
            n: spec.n as usize,
            side: spec.mesh_side() as usize,
            access: guest.access_fn(),
            hop: guest.neighbor_distance(),
        }
    }

    /// One node's step touching cell `c`: read own + write own, `2D`
    /// receives, one `δ`.
    #[inline]
    fn cost<const D: usize>(&self, c: usize) -> f64 {
        2.0 * self.access.charge(c) + (2 * D) as f64 * self.hop + 1.0
    }

    /// Call `visit(v, x)` for every node `v` at coordinates `x`, in
    /// node-index order: rows along axis 0, the other axes as an
    /// odometer between rows.
    #[inline]
    fn for_each_node<const D: usize>(&self, mut visit: impl FnMut(usize, [usize; D])) {
        let mut x = [0usize; D];
        for row in (0..self.n).step_by(self.side) {
            for x0 in 0..self.side {
                x[0] = x0;
                visit(row + x0, x);
            }
            for xk in x.iter_mut().skip(1) {
                *xk += 1;
                if *xk < self.side {
                    break;
                }
                *xk = 0;
            }
        }
    }
}

/// Execute `steps` steps of `prog` on the `D`-dimensional guest
/// `M_D(n, n, m)` of `spec` (side `n^{1/D}`), initial image `init`
/// (length `n·m`, node-major).
pub fn run_guest<const D: usize>(
    spec: &MachineSpec,
    prog: &impl Guest<D>,
    init: &[Word],
    steps: i64,
) -> GuestRun {
    let lay = Layout::of::<D>(spec);
    let (n, m, side) = (lay.n, prog.m(), lay.side);
    assert_eq!(m as u64, spec.m, "program density must match machine");
    assert_eq!(init.len(), n * m, "initial image must be n·m words");
    let stride: [usize; D] = from_fn(|k| side.pow(k as u32));
    let b = prog.boundary();

    let mut mem = init.to_vec();
    let mut values = Vec::with_capacity(n);
    lay.for_each_node(|v, x| values.push(mem[v * m + prog.cell(x, 0)]));
    let mut next = vec![0 as Word; n];
    let mut time = 0.0;

    for t in 1..=steps {
        let mut step_max = 0.0f64;
        lay.for_each_node(|v, x| {
            let c = prog.cell(x, t);
            let own = mem[v * m + c];
            let nb = from_fn(|k| {
                [
                    if x[k] > 0 { values[v - stride[k]] } else { b },
                    if x[k] + 1 < side {
                        values[v + stride[k]]
                    } else {
                        b
                    },
                ]
            });
            let out = prog.delta(x, t, own, values[v], nb);
            next[v] = out;
            mem[v * m + c] = out;
            let cost = lay.cost::<D>(c);
            if cost > step_max {
                step_max = cost;
            }
        });
        std::mem::swap(&mut values, &mut next);
        time += step_max;
    }
    GuestRun {
        mem,
        values,
        time,
        steps,
    }
}

/// The guest model time `T_n` of a `steps`-step [`run_guest`], without
/// executing it (costs depend only on the cell-addressing trace).
pub fn guest_time<const D: usize>(spec: &MachineSpec, prog: &impl Guest<D>, steps: i64) -> f64 {
    let lay = Layout::of::<D>(spec);
    let mut time = 0.0;
    for t in 1..=steps {
        let mut mx = 0.0f64;
        lay.for_each_node(|_, x| {
            let cost = lay.cost::<D>(prog.cell(x, t));
            if cost > mx {
                mx = cost;
            }
        });
        time += mx;
    }
    time
}

/// [`run_guest`] on the linear array `M_1(n, n, m)`.
pub fn run_linear(
    spec: &MachineSpec,
    prog: &impl LinearProgram,
    init: &[Word],
    steps: i64,
) -> GuestRun {
    run_guest::<1>(spec, prog, init, steps)
}

/// [`run_guest`] on the mesh `M_2(n, n, m)` (node index `j·side + i`).
pub fn run_mesh(
    spec: &MachineSpec,
    prog: &impl MeshProgram,
    init: &[Word],
    steps: i64,
) -> GuestRun {
    run_guest::<2>(spec, prog, init, steps)
}

/// [`run_guest`] on the 3-D mesh `M_3(n, n, m)` (node index
/// `(z·side + y)·side + x`) — the Section-6 extension.
pub fn run_volume(
    spec: &MachineSpec,
    prog: &impl VolumeProgram,
    init: &[Word],
    steps: i64,
) -> GuestRun {
    run_guest::<3>(spec, prog, init, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rule-90-like XOR automaton (own value ignored for m = 1 parity).
    struct Rule90;
    impl LinearProgram for Rule90 {
        fn m(&self) -> usize {
            1
        }
        fn delta(&self, _v: usize, _t: i64, _own: Word, _p: Word, l: Word, r: Word) -> Word {
            l ^ r
        }
    }

    #[test]
    fn single_impulse_spreads_like_pascal_mod_2() {
        let n = 16u64;
        let spec = MachineSpec::new(1, n, n, 1);
        let mut init = vec![0; n as usize];
        init[8] = 1;
        let run = run_linear(&spec, &Rule90, &init, 4);
        // After 4 steps the impulse sits at distance 4 (rows of Pascal's
        // triangle mod 2: row 4 = 1 0 0 0 1).
        let expect: Vec<Word> = (0..16).map(|x| u64::from(x == 4 || x == 12)).collect();
        assert_eq!(run.values, expect);
    }

    #[test]
    fn guest_time_is_linear_in_steps() {
        let spec = MachineSpec::new(1, 8, 8, 1);
        let r1 = run_linear(&spec, &Rule90, &[1; 8], 10);
        let r2 = run_linear(&spec, &Rule90, &[1; 8], 20);
        assert!((r2.time - 2.0 * r1.time).abs() < 1e-9);
        assert!(r1.time >= 10.0);
    }

    /// m = 2 program: alternates between its two cells.
    struct TwoCell;
    impl LinearProgram for TwoCell {
        fn m(&self) -> usize {
            2
        }
        fn cell(&self, _v: usize, t: i64) -> usize {
            (t % 2) as usize
        }
        fn delta(&self, _v: usize, _t: i64, own: Word, _p: Word, l: Word, r: Word) -> Word {
            own.wrapping_add(l).wrapping_add(r)
        }
    }

    #[test]
    fn multi_cell_memory_is_updated_in_place() {
        let spec = MachineSpec::new(1, 4, 4, 2);
        let init: Vec<Word> = (0..8).collect();
        let run = run_linear(&spec, &TwoCell, &init, 3);
        // Cells not touched at the final step keep their step-2 values;
        // just check the run is deterministic and memory has both cells.
        let run2 = run_linear(&spec, &TwoCell, &init, 3);
        assert_eq!(run.mem, run2.mem);
        assert_eq!(run.mem.len(), 8);
    }

    struct Life;
    impl MeshProgram for Life {
        fn m(&self) -> usize {
            1
        }
        fn delta(
            &self,
            _i: usize,
            _j: usize,
            _t: i64,
            own: Word,
            _p: Word,
            w: Word,
            e: Word,
            s: Word,
            n: Word,
        ) -> Word {
            // von Neumann majority-ish toy rule.
            u64::from(w + e + s + n + own >= 3)
        }
    }

    #[test]
    fn mesh_runs_and_meters() {
        let spec = MachineSpec::new(2, 16, 16, 1);
        let init = vec![1; 16];
        let run = run_mesh(&spec, &Life, &init, 3);
        assert_eq!(run.values, vec![1; 16], "all-ones is a fixed point");
        assert!(run.time >= 3.0);
    }

    /// Parity of the six neighbours, over two cells read in turn.
    struct Parity;
    impl VolumeProgram for Parity {
        fn m(&self) -> usize {
            2
        }
        fn cell(&self, x: usize, _y: usize, _z: usize, t: i64) -> usize {
            (x + t as usize) % 2
        }
        #[allow(clippy::too_many_arguments)]
        fn delta(
            &self,
            _x: usize,
            _y: usize,
            _z: usize,
            _t: i64,
            own: Word,
            _p: Word,
            nb: [Word; 6],
        ) -> Word {
            nb.iter().fold(own, |a, b| a ^ b) & 1
        }
    }

    #[test]
    fn run_time_equals_guest_time_in_every_dimension() {
        let s1 = MachineSpec::new(1, 16, 1, 2);
        let r1 = run_guest::<1>(&s1, &TwoCell, &[1; 32], 7);
        assert_eq!(
            r1.time.to_bits(),
            guest_time::<1>(&s1, &TwoCell, 7).to_bits()
        );
        let s2 = MachineSpec::new(2, 16, 1, 1);
        let r2 = run_guest::<2>(&s2, &Life, &[1; 16], 5);
        assert_eq!(r2.time.to_bits(), guest_time::<2>(&s2, &Life, 5).to_bits());
        let s3 = MachineSpec::new(3, 27, 1, 2);
        let r3 = run_guest::<3>(&s3, &Parity, &[1; 54], 4);
        assert_eq!(
            r3.time.to_bits(),
            guest_time::<3>(&s3, &Parity, 4).to_bits()
        );
        // On the all-ones image the centre reads six neighbours and a
        // corner three (the boundary supplies 0): 1 ^ 0 and 1 ^ 1.
        let values = run_guest::<3>(&s3, &Parity, &[1; 54], 1).values;
        assert_eq!((values[13], values[0]), (1, 0));
    }

    #[test]
    fn instantaneous_guest_is_cheaper() {
        let b = MachineSpec::new(1, 8, 8, 1);
        let i = MachineSpec::instantaneous(1, 8, 8, 1);
        let rb = run_linear(&b, &Rule90, &[1; 8], 5);
        let ri = run_linear(&i, &Rule90, &[1; 8], 5);
        assert!(ri.time < rb.time);
        assert_eq!(ri.values, rb.values, "cost model cannot change values");
    }
}
