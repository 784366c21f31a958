//! Direct (reference) execution of guest machines `M_d(n, n, m)`.
//!
//! This is the ground truth the simulation engines are validated against,
//! and the source of the guest model time `T_n` in every slowdown
//! measurement.  One stepper serves every dimension: [`GuestSteps`]
//! advances the `side^D` nodes (axis 0 fastest, so node `x` sits at
//! `Σ x_k·side^k`) one guest step at a time through the program's
//! [`Guest`] view, a row along axis 0 at a time, and [`run_guest`] loops
//! it.  One guest step costs, per node: one private-cell read, the
//! receipt of each of the `2D` neighbors' values over a unit-distance
//! link, one `δ` application, and one private-cell write; nodes run in
//! lock-step, so the step's duration is the maximum over nodes
//! ([`guest_time`]).  That cost depends only on the touched cell, so it
//! is tabulated once per run.

use std::array::from_fn;

use crate::program::Guest;
use crate::spec::MachineSpec;
use bsmp_hram::Word;

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

/// One node's step cost when it touches cell `c`, for every `c < m`:
/// read own + write own, `2D` receives, one `δ`.  The guest is the fully
/// parallel configuration of `spec` (its `p` is ignored), and `spec`
/// supplies the cost regime.
fn step_costs<const D: usize>(spec: &MachineSpec, m: usize) -> Vec<f64> {
    assert_eq!(spec.d as usize, D, "program dimension must match machine");
    let guest = spec.guest_of();
    let (access, hop) = (guest.access_fn(), guest.neighbor_distance());
    (0..m)
        .map(|c| 2.0 * access.charge(c) + (2 * D) as f64 * hop + 1.0)
        .collect()
}

/// Call `row(r, x)` for each of the `rows` rows along axis 0 (nodes
/// `r·side .. (r+1)·side`) in node-index order; `x` holds the row's
/// coordinates on axes `1..D` (the other axes as an odometer) and
/// `x[0] = 0`.
#[inline]
fn for_each_row<const D: usize>(rows: usize, side: usize, mut row: impl FnMut(usize, [usize; D])) {
    let mut x = [0usize; D];
    for r in 0..rows {
        row(r, x);
        for xk in x.iter_mut().skip(1) {
            *xk += 1;
            if *xk < side {
                break;
            }
            *xk = 0;
        }
    }
}

/// The guest `M_D(n, n, m)` of a spec, stepped one guest step at a time:
/// its memories, its value row, and its model time so far.
///
/// A step walks the mesh a row along axis 0 at a time.  Each row reads
/// its neighbor rows across axes `1..D` as slices (a row of
/// `boundary()` values where a neighbor row is off the mesh), and its
/// two axis-0 end points are peeled, so the row interior runs without
/// branches.  Every cell a program touches must be `< m`.
pub struct GuestSteps<const D: usize> {
    side: usize,
    m: usize,
    /// Per-node step cost by touched cell ([`step_costs`]).
    cost: Vec<f64>,
    /// A row of `boundary()` values.
    edge: Vec<Word>,
    mem: Vec<Word>,
    values: Vec<Word>,
    next: Vec<Word>,
    time: f64,
    steps: i64,
}

impl<const D: usize> GuestSteps<D> {
    /// The guest of `spec` running `prog` from the initial image `init`
    /// (length `n·m`, node-major), before its first step.
    pub fn new(spec: &MachineSpec, prog: &impl Guest<D>, init: &[Word]) -> Self {
        let (n, m, side) = (spec.n as usize, prog.m(), spec.mesh_side() as usize);
        let cost = step_costs::<D>(spec, m);
        assert_eq!(m as u64, spec.m, "program density must match machine");
        assert_eq!(init.len(), n * m, "initial image must be n·m words");
        let mut values = Vec::with_capacity(n);
        for_each_row::<D>(n / side, side, |r, mut x| {
            for x0 in 0..side {
                x[0] = x0;
                let c = prog.cell(x, 0);
                debug_assert!(c < m, "cell({x:?}, 0) = {c} is not below m = {m}");
                values.push(init[(r * side + x0) * m + c]);
            }
        });
        GuestSteps {
            side,
            m,
            cost,
            edge: vec![prog.boundary(); side],
            mem: init.to_vec(),
            values,
            next: vec![0; n],
            time: 0.0,
            steps: 0,
        }
    }

    /// Run guest step `t` of `prog` (the program the stepper was built
    /// with); the step lasts as long as its costliest node.
    pub fn step(&mut self, prog: &impl Guest<D>, t: i64) {
        let (side, m) = (self.side, self.m);
        let (cost, edge, values) = (&self.cost[..], &self.edge[..], &self.values[..]);
        let (mem, next) = (&mut self.mem[..], &mut self.next[..]);
        let b = edge[0];
        let mut mx = 0.0f64;
        for_each_row::<D>(values.len() / side, side, |r, x| {
            let line = |s: usize| &values[s * side..][..side];
            let own = line(r);
            let mut row = Row {
                x,
                t,
                m,
                own,
                nbr: from_fn(|k| match k {
                    0 => [own, own],
                    _ => {
                        let s = side.pow(k as u32 - 1);
                        [
                            if x[k] > 0 { line(r - s) } else { edge },
                            if x[k] + 1 < side { line(r + s) } else { edge },
                        ]
                    }
                }),
                cells: &mut mem[r * side * m..][..side * m],
                out: &mut next[r * side..][..side],
                cost,
                mx,
            };
            if side == 1 {
                row.node(prog, 0, b, b);
            } else {
                row.node(prog, 0, b, own[1]);
                for x0 in 1..side - 1 {
                    row.node(prog, x0, own[x0 - 1], own[x0 + 1]);
                }
                row.node(prog, side - 1, own[side - 2], b);
            }
            mx = row.mx;
        });
        std::mem::swap(&mut self.values, &mut self.next);
        self.time += mx;
        self.steps += 1;
    }

    /// The run so far: memories, last values, model time, steps.
    pub fn into_run(self) -> GuestRun {
        GuestRun {
            mem: self.mem,
            values: self.values,
            time: self.time,
            steps: self.steps,
        }
    }
}

/// One row of a [`GuestSteps::step`]: its coordinates, its own and
/// neighbor value rows, and where its results go.  The node body is a
/// method rather than a closure so that it can be `#[inline(always)]`:
/// as a closure called from three places it stays out of line.
struct Row<'a, const D: usize> {
    x: [usize; D],
    t: i64,
    m: usize,
    own: &'a [Word],
    /// Neighbor rows across axes `1..D`; entry 0 is unused.
    nbr: [[&'a [Word]; 2]; D],
    cells: &'a mut [Word],
    out: &'a mut [Word],
    cost: &'a [f64],
    /// The largest node cost of the step so far.
    mx: f64,
}

impl<const D: usize> Row<'_, D> {
    /// Step node `x0` of the row, whose axis-0 neighbors hold `west`
    /// and `east`.
    #[inline(always)]
    fn node(&mut self, prog: &impl Guest<D>, x0: usize, west: Word, east: Word) {
        let (t, m) = (self.t, self.m);
        self.x[0] = x0;
        let c = prog.cell(self.x, t);
        debug_assert!(c < m, "cell({:?}, {t}) = {c} is not below m = {m}", self.x);
        let nb = from_fn(|k| match k {
            0 => [west, east],
            _ => [self.nbr[k][0][x0], self.nbr[k][1][x0]],
        });
        let v = prog.delta(self.x, t, self.cells[x0 * m + c], self.own[x0], nb);
        self.cells[x0 * m + c] = v;
        self.out[x0] = v;
        if self.cost[c] > self.mx {
            self.mx = self.cost[c];
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
    let mut guest = GuestSteps::<D>::new(spec, prog, init);
    for t in 1..=steps {
        guest.step(prog, t);
    }
    guest.into_run()
}

/// The guest model time `T_n` of a `steps`-step [`run_guest`], without
/// executing it (costs depend only on the cell-addressing trace).  At
/// `m = 1` every step costs the one tabulated cost.
pub fn guest_time<const D: usize>(spec: &MachineSpec, prog: &impl Guest<D>, steps: i64) -> f64 {
    let (m, side) = (prog.m(), spec.mesh_side() as usize);
    let cost = step_costs::<D>(spec, m);
    let mut time = 0.0;
    if let [c0] = cost[..] {
        for _ in 0..steps {
            time += c0;
        }
        return time;
    }
    for t in 1..=steps {
        let mut mx = 0.0f64;
        for_each_row::<D>(spec.n as usize / side, side, |_, mut x| {
            for x0 in 0..side {
                x[0] = x0;
                let c = prog.cell(x, t);
                debug_assert!(c < m, "cell({x:?}, {t}) = {c} is not below m = {m}");
                if cost[c] > mx {
                    mx = cost[c];
                }
            }
        });
        time += mx;
    }
    time
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{LinearProgram, MeshProgram, VolumeProgram};

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
        let run = run_guest::<1>(&spec, &Rule90, &init, 4);
        // After 4 steps the impulse sits at distance 4 (rows of Pascal's
        // triangle mod 2: row 4 = 1 0 0 0 1).
        let expect: Vec<Word> = (0..16).map(|x| u64::from(x == 4 || x == 12)).collect();
        assert_eq!(run.values, expect);
    }

    #[test]
    fn guest_time_is_linear_in_steps() {
        let spec = MachineSpec::new(1, 8, 8, 1);
        let r1 = run_guest::<1>(&spec, &Rule90, &[1; 8], 10);
        let r2 = run_guest::<1>(&spec, &Rule90, &[1; 8], 20);
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
        let run = run_guest::<1>(&spec, &TwoCell, &init, 3);
        // Cells not touched at the final step keep their step-2 values;
        // just check the run is deterministic and memory has both cells.
        let run2 = run_guest::<1>(&spec, &TwoCell, &init, 3);
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
        let run = run_guest::<2>(&spec, &Life, &init, 3);
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
        for make in [MachineSpec::new, MachineSpec::instantaneous] {
            // m = 2 and m = 1 (the tabulated-cost shortcut) at d = 1.
            let s1 = make(1, 16, 1, 2);
            let r1 = run_guest::<1>(&s1, &TwoCell, &[1; 32], 7);
            assert_eq!(
                r1.time.to_bits(),
                guest_time::<1>(&s1, &TwoCell, 7).to_bits()
            );
            let s1 = make(1, 16, 1, 1);
            let r1 = run_guest::<1>(&s1, &Rule90, &[1; 16], 7);
            assert_eq!(
                r1.time.to_bits(),
                guest_time::<1>(&s1, &Rule90, 7).to_bits()
            );
            let s2 = make(2, 16, 1, 1);
            let r2 = run_guest::<2>(&s2, &Life, &[1; 16], 5);
            assert_eq!(r2.time.to_bits(), guest_time::<2>(&s2, &Life, 5).to_bits());
            let s3 = make(3, 27, 1, 2);
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
    }

    /// The per-node guest loop that [`GuestSteps`] replaced, kept as the
    /// oracle for the row-sliced step: every node in node-index order,
    /// each neighbour gated on the mesh border, each cost recomputed.
    fn reference<const D: usize>(
        spec: &MachineSpec,
        prog: &impl Guest<D>,
        init: &[Word],
        steps: i64,
    ) -> GuestRun {
        let (n, m, side) = (spec.n as usize, prog.m(), spec.mesh_side() as usize);
        let guest = spec.guest_of();
        let (access, hop) = (guest.access_fn(), guest.neighbor_distance());
        let stride: [usize; D] = from_fn(|k| side.pow(k as u32));
        let b = prog.boundary();
        let for_each_node = |visit: &mut dyn FnMut(usize, [usize; D])| {
            let mut x = [0usize; D];
            for row in (0..n).step_by(side) {
                for x0 in 0..side {
                    x[0] = x0;
                    visit(row + x0, x);
                }
                for xk in x.iter_mut().skip(1) {
                    *xk += 1;
                    if *xk < side {
                        break;
                    }
                    *xk = 0;
                }
            }
        };
        let mut mem = init.to_vec();
        let mut values = Vec::with_capacity(n);
        for_each_node(&mut |v, x| values.push(mem[v * m + prog.cell(x, 0)]));
        let mut next = vec![0 as Word; n];
        let mut time = 0.0;
        for t in 1..=steps {
            let mut step_max = 0.0f64;
            for_each_node(&mut |v, x| {
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
                let cost = 2.0 * access.charge(c) + (2 * D) as f64 * hop + 1.0;
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

    /// A program in every dimension whose touched cell depends on the
    /// node and the step, whose δ weighs each operand, coordinate and
    /// neighbour side differently, and whose border supplies a non-zero
    /// value.
    struct Mix {
        m: usize,
    }
    impl Mix {
        const EDGE: Word = 0xB0B;
        fn at<const D: usize>(&self, x: [usize; D], t: i64) -> usize {
            (x.iter().sum::<usize>() + t as usize) % self.m
        }
        fn mix<const D: usize>(
            x: [usize; D],
            t: i64,
            own: Word,
            prev: Word,
            nb: [[Word; 2]; D],
        ) -> Word {
            let mut h = own.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ prev.rotate_left(17) ^ t as Word;
            for k in 0..D {
                h = h.rotate_left(5) ^ x[k] as Word;
                h ^= nb[k][0].wrapping_mul(3) ^ nb[k][1].wrapping_mul(7);
            }
            h
        }
    }
    impl LinearProgram for Mix {
        fn m(&self) -> usize {
            self.m
        }
        fn cell(&self, v: usize, t: i64) -> usize {
            self.at([v], t)
        }
        fn boundary(&self) -> Word {
            Mix::EDGE
        }
        fn delta(&self, v: usize, t: i64, own: Word, prev: Word, l: Word, r: Word) -> Word {
            Mix::mix([v], t, own, prev, [[l, r]])
        }
    }
    impl MeshProgram for Mix {
        fn m(&self) -> usize {
            self.m
        }
        fn cell(&self, i: usize, j: usize, t: i64) -> usize {
            self.at([i, j], t)
        }
        fn boundary(&self) -> Word {
            Mix::EDGE
        }
        #[allow(clippy::too_many_arguments)]
        fn delta(
            &self,
            i: usize,
            j: usize,
            t: i64,
            own: Word,
            prev: Word,
            w: Word,
            e: Word,
            s: Word,
            n: Word,
        ) -> Word {
            Mix::mix([i, j], t, own, prev, [[w, e], [s, n]])
        }
    }
    impl VolumeProgram for Mix {
        fn m(&self) -> usize {
            self.m
        }
        fn cell(&self, x: usize, y: usize, z: usize, t: i64) -> usize {
            self.at([x, y, z], t)
        }
        fn boundary(&self) -> Word {
            Mix::EDGE
        }
        #[allow(clippy::too_many_arguments)]
        fn delta(
            &self,
            x: usize,
            y: usize,
            z: usize,
            t: i64,
            own: Word,
            prev: Word,
            nb: [Word; 6],
        ) -> Word {
            let [a, b, c, d, e, f] = nb;
            Mix::mix([x, y, z], t, own, prev, [[a, b], [c, d], [e, f]])
        }
    }

    /// `run_guest` and `guest_time` against [`reference`], bit for bit.
    fn check_against_reference<const D: usize>(spec: &MachineSpec, prog: &impl Guest<D>) {
        let words = (spec.n * spec.m) as usize;
        let init: Vec<Word> = (0..words as Word)
            .map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 7)
            .collect();
        let want = reference::<D>(spec, prog, &init, 6);
        let got = run_guest::<D>(spec, prog, &init, 6);
        assert_eq!(got.mem, want.mem, "{spec:?}");
        assert_eq!(got.values, want.values, "{spec:?}");
        assert_eq!(got.time.to_bits(), want.time.to_bits(), "{spec:?}");
        assert_eq!(got.steps, want.steps);
        let time = guest_time::<D>(spec, prog, 6);
        assert_eq!(time.to_bits(), want.time.to_bits(), "{spec:?}");
    }

    #[test]
    fn guest_steps_match_the_per_node_reference() {
        for make in [MachineSpec::new, MachineSpec::instantaneous] {
            for side in [1u64, 2, 3, 5] {
                for m in 1..=3u64 {
                    let prog = Mix { m: m as usize };
                    check_against_reference::<1>(&make(1, side, 1, m), &prog);
                    check_against_reference::<2>(&make(2, side.pow(2), 1, m), &prog);
                    check_against_reference::<3>(&make(3, side.pow(3), 1, m), &prog);
                }
            }
        }
    }

    /// Touches cell `m`, one past its last, from step 1 on.
    struct PastEnd;
    impl LinearProgram for PastEnd {
        fn m(&self) -> usize {
            2
        }
        fn cell(&self, _v: usize, t: i64) -> usize {
            if t == 0 {
                0
            } else {
                2
            }
        }
        fn delta(&self, _v: usize, _t: i64, own: Word, _p: Word, _l: Word, _r: Word) -> Word {
            own
        }
    }

    /// Without the check, a cell `≥ m` would alias the next node's memory.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "is not below m")]
    fn a_cell_past_m_is_refused() {
        let spec = MachineSpec::new(1, 4, 1, 2);
        run_guest::<1>(&spec, &PastEnd, &[0; 8], 1);
    }

    #[test]
    fn instantaneous_guest_is_cheaper() {
        let b = MachineSpec::new(1, 8, 8, 1);
        let i = MachineSpec::instantaneous(1, 8, 8, 1);
        let rb = run_guest::<1>(&b, &Rule90, &[1; 8], 5);
        let ri = run_guest::<1>(&i, &Rule90, &[1; 8], 5);
        assert!(ri.time < rb.time);
        assert_eq!(ri.values, rb.values, "cost model cannot change values");
    }
}
