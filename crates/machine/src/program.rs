//! Synchronous node programs — the computations whose `T`-step runs are
//! exactly the dags `G_T(H)` of Definition 3.
//!
//! Semantics (fixed for the whole reproduction; see DESIGN.md §2):
//!
//! * every node owns `m` private memory cells;
//! * the *value* of dag vertex `(v, 0)` is the initial content of cell
//!   `cell(v, 0)`;
//! * at step `t ≥ 1`, node `v` reads **one** private cell `cell(v, t)`,
//!   its own value from step `t-1` (the self-arc `(v, t-1) → (v, t)` of
//!   Definition 3), and the values its neighbors produced at step `t-1`;
//!   it applies `δ`, writes the result back into `cell(v, t)`, and makes
//!   it available to its neighbors — matching Definition 3's "the
//!   operands for vertex `(v, t)` are the value of a (unique) memory cell
//!   of `v` and the values supplied by the neighbors of `v` at step
//!   `t-1`";
//! * a missing neighbor (array/mesh border) supplies `boundary()`.
//!
//! For `m = 1` the touched cell *is* the previous value and this
//! degenerates to the classical synchronous cellular-automaton /
//! systolic semantics.
//!
//! The cell-addressing function `cell(v, t)` is data-independent, so host
//! simulations can schedule relocations without peeking at values; `δ`
//! itself is arbitrary.

use bsmp_hram::Word;

/// A synchronous program for the linear array `M_1(n, n, m)`.
pub trait LinearProgram: Sync {
    /// Private memory cells per node (the paper's `m`).
    fn m(&self) -> usize;

    /// Which private cell node `v` touches at step `t` (`< m`).
    /// Step 0 designates the cell whose initial content is the node's
    /// initial value.
    fn cell(&self, _v: usize, _t: i64) -> usize {
        0
    }

    /// Value supplied for a missing neighbor at the array border.
    fn boundary(&self) -> Word {
        0
    }

    /// The operator of vertex `(v, t)`: combines the touched private
    /// cell's current content, the node's own step-`t-1` value, and the
    /// two neighbor values from step `t-1`.
    fn delta(&self, v: usize, t: i64, own: Word, prev: Word, left: Word, right: Word) -> Word;
}

/// A synchronous program for the mesh `M_2(n, n, m)`.
pub trait MeshProgram: Sync {
    /// Private memory cells per node.
    fn m(&self) -> usize;

    /// Which private cell node `(i, j)` touches at step `t`.
    fn cell(&self, _i: usize, _j: usize, _t: i64) -> usize {
        0
    }

    fn boundary(&self) -> Word {
        0
    }

    /// The operator of vertex `((i, j), t)`; neighbor order is
    /// `(west, east, south, north)` = `((i-1,j), (i+1,j), (i,j-1), (i,j+1))`.
    #[allow(clippy::too_many_arguments)]
    fn delta(
        &self,
        i: usize,
        j: usize,
        t: i64,
        own: Word,
        prev: Word,
        west: Word,
        east: Word,
        south: Word,
        north: Word,
    ) -> Word;
}

/// A synchronous program for the 3-D mesh `M_3(n, n, m)` — the
/// Section-6 extension (`d = 3`).
pub trait VolumeProgram: Sync {
    /// Private memory cells per node.
    fn m(&self) -> usize;

    /// Which private cell node `(x, y, z)` touches at step `t`.
    fn cell(&self, _x: usize, _y: usize, _z: usize, _t: i64) -> usize {
        0
    }

    fn boundary(&self) -> Word {
        0
    }

    /// The operator of vertex `((x,y,z), t)`; `nb` holds the six
    /// neighbor values in `(-x, +x, -y, +y, -z, +z)` order.
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
    ) -> Word;
}

/// A guest program of the `D`-dimensional mesh, whichever of the three
/// program traits it was written against: the direct runner
/// ([`crate::guest`]) and the simulation engines call programs through
/// this one view.
pub trait Guest<const D: usize> {
    fn m(&self) -> usize;
    fn boundary(&self) -> Word;
    fn cell(&self, x: [usize; D], t: i64) -> usize;
    /// `nb[i]` holds the neighbours at `x_i − 1` and `x_i + 1`.
    fn delta(&self, x: [usize; D], t: i64, own: Word, prev: Word, nb: [[Word; 2]; D]) -> Word;
}

impl<P: LinearProgram> Guest<1> for P {
    fn m(&self) -> usize {
        LinearProgram::m(self)
    }
    fn boundary(&self) -> Word {
        LinearProgram::boundary(self)
    }
    fn cell(&self, [x]: [usize; 1], t: i64) -> usize {
        LinearProgram::cell(self, x, t)
    }
    fn delta(
        &self,
        [x]: [usize; 1],
        t: i64,
        own: Word,
        prev: Word,
        [[l, r]]: [[Word; 2]; 1],
    ) -> Word {
        LinearProgram::delta(self, x, t, own, prev, l, r)
    }
}

impl<P: MeshProgram> Guest<2> for P {
    fn m(&self) -> usize {
        MeshProgram::m(self)
    }
    fn boundary(&self) -> Word {
        MeshProgram::boundary(self)
    }
    fn cell(&self, [x, y]: [usize; 2], t: i64) -> usize {
        MeshProgram::cell(self, x, y, t)
    }
    fn delta(&self, [x, y]: [usize; 2], t: i64, own: Word, prev: Word, nb: [[Word; 2]; 2]) -> Word {
        let [[west, east], [south, north]] = nb;
        MeshProgram::delta(self, x, y, t, own, prev, west, east, south, north)
    }
}

impl<P: VolumeProgram> Guest<3> for P {
    fn m(&self) -> usize {
        VolumeProgram::m(self)
    }
    fn boundary(&self) -> Word {
        VolumeProgram::boundary(self)
    }
    fn cell(&self, [x, y, z]: [usize; 3], t: i64) -> usize {
        VolumeProgram::cell(self, x, y, z, t)
    }
    fn delta(&self, x: [usize; 3], t: i64, own: Word, prev: Word, nb: [[Word; 2]; 3]) -> Word {
        let [[a, b], [c, d], [e, f]] = nb;
        VolumeProgram::delta(self, x[0], x[1], x[2], t, own, prev, [a, b, c, d, e, f])
    }
}

#[cfg(test)]
mod tests {
    use super::{LinearProgram, Word};

    struct Xor;
    impl LinearProgram for Xor {
        fn m(&self) -> usize {
            1
        }
        fn delta(&self, _v: usize, _t: i64, own: Word, _p: Word, l: Word, r: Word) -> Word {
            own ^ l ^ r
        }
    }

    #[test]
    fn default_cell_is_zero() {
        let p = Xor;
        assert_eq!(p.cell(3, 7), 0);
        assert_eq!(p.boundary(), 0);
        assert_eq!(p.delta(0, 1, 1, 1, 2, 4), 7);
    }
}
