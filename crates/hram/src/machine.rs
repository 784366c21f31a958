//! The executable H-RAM: flat word memory + access function + meter.

use crate::access::AccessFn;
use crate::cost::CostMeter;
use crate::table::CostTable;

/// Machine word.  All guest computations in this reproduction operate on
/// 64-bit words.
pub type Word = u64;

/// An instrumented `f(x)`-H-RAM (Definition 1).
///
/// The memory grows on demand (the model's address space is unbounded;
/// what matters is *which* addresses are touched).  The high-water mark
/// reports the space actually used — the `S(U)`/`σ(|U|)` quantity of
/// Propositions 2–3.
#[derive(Clone, Debug)]
pub struct Hram {
    mem: Vec<Word>,
    /// The access-cost function `f`.
    pub access: AccessFn,
    /// Accumulated model time.
    pub meter: CostMeter,
    high_water: usize,
}

impl Hram {
    /// A fresh H-RAM with the given access function and initial capacity
    /// hint (contents zeroed).
    pub fn new(access: AccessFn, capacity: usize) -> Self {
        Hram {
            mem: vec![0; capacity],
            access,
            meter: CostMeter::new(),
            high_water: 0,
        }
    }

    #[inline]
    fn touch(&mut self, addr: usize) {
        if addr >= self.mem.len() {
            self.mem.resize((addr + 1).next_power_of_two(), 0);
        }
        if addr + 1 > self.high_water {
            self.high_water = addr + 1;
        }
    }

    /// Charged read: `1 + f(addr)` added to the access meter.
    #[inline]
    pub fn read(&mut self, addr: usize) -> Word {
        self.touch(addr);
        self.meter.add_access(self.access.charge(addr));
        self.mem[addr]
    }

    /// Charged write.
    #[inline]
    pub fn write(&mut self, addr: usize, w: Word) {
        self.touch(addr);
        self.meter.add_access(self.access.charge(addr));
        self.mem[addr] = w;
    }

    /// [`Hram::read`] with the charge served from a precomputed
    /// [`CostTable`] when `addr` is inside the table's range (counted in
    /// `table_hits`), falling back to the `AccessFn` evaluation above it.
    /// The table memoizes `AccessFn::charge` verbatim, so the metered
    /// stream is bit-identical to the plain read either way.
    #[inline]
    pub fn read_via(&mut self, table: &CostTable, addr: usize) -> Word {
        self.touch(addr);
        if let Some(&c) = table.charges().get(addr) {
            self.meter.add_access(c);
            self.meter.add_table_hits(1);
        } else {
            self.meter.add_access(self.access.charge(addr));
        }
        self.mem[addr]
    }

    /// [`Hram::write`] with the charge served from a precomputed
    /// [`CostTable`] (see [`Hram::read_via`]).
    #[inline]
    pub fn write_via(&mut self, table: &CostTable, addr: usize, w: Word) {
        self.touch(addr);
        if let Some(&c) = table.charges().get(addr) {
            self.meter.add_access(c);
            self.meter.add_table_hits(1);
        } else {
            self.meter.add_access(self.access.charge(addr));
        }
        self.mem[addr] = w;
    }

    /// Charged data relocation (read at `src`, write at `dst`), metered
    /// under `transfer` — the Proposition-2 preboundary copies.
    #[inline]
    pub fn relocate(&mut self, src: usize, dst: usize) {
        self.touch(src);
        self.touch(dst);
        let c = self.access.charge(src) + self.access.charge(dst);
        self.meter.add_transfer(c);
        self.mem[dst] = self.mem[src];
    }

    /// [`Hram::relocate`] with each charge served from a precomputed
    /// [`CostTable`] when the address is inside the table's range
    /// (counted in `table_hits`).  The same two charges are summed in the
    /// same order, so the metered stream is bit-identical to
    /// [`Hram::relocate`].
    #[inline]
    pub fn relocate_via(&mut self, table: &CostTable, src: usize, dst: usize) {
        self.touch(src);
        self.touch(dst);
        let c = self.charge_via(table, src) + self.charge_via(table, dst);
        self.meter.add_transfer(c);
        self.mem[dst] = self.mem[src];
    }

    #[inline]
    fn charge_via(&mut self, table: &CostTable, addr: usize) -> f64 {
        match table.charges().get(addr) {
            Some(&c) => {
                self.meter.add_table_hits(1);
                c
            }
            None => self.access.charge(addr),
        }
    }

    /// Relocate a block of `len` consecutive words (charged per word —
    /// the model has no block pipelining; see DESIGN.md §5).
    pub fn relocate_block(&mut self, src: usize, dst: usize, len: usize) {
        if src == dst || len == 0 {
            return;
        }
        if dst < src {
            for i in 0..len {
                self.relocate(src + i, dst + i);
            }
        } else {
            for i in (0..len).rev() {
                self.relocate(src + i, dst + i);
            }
        }
    }

    /// One unit of computation time (a `δ` application).
    #[inline]
    pub fn compute(&mut self) {
        self.meter.add_compute(1.0);
    }

    /// Uncharged inspection (assertions, result extraction — not part of
    /// the simulated machine's behaviour).
    #[inline]
    pub fn peek(&self, addr: usize) -> Word {
        self.mem.get(addr).copied().unwrap_or(0)
    }

    /// Uncharged initialization: lay out the guest's initial memory image
    /// before the simulated clock starts (the paper measures *simulation*
    /// time; input placement is the problem statement, not work).
    pub fn poke(&mut self, addr: usize, w: Word) {
        self.touch(addr);
        self.mem[addr] = w;
    }

    /// Prepare this machine for a table-metered kernel: grow memory to
    /// cover every table address and raise the high-water mark to the
    /// table length — the same space a scalar loop touching the table's
    /// top address would report, so tiled and scalar runs agree on `S`.
    pub fn reserve_table(&mut self, table: &CostTable) {
        let len = table.len();
        if len > 0 {
            self.touch(len - 1);
        }
    }

    /// The memory words covered by `table`, uncharged.  Kernel loops
    /// index this slice directly and meter themselves through the
    /// table's charges; call [`Hram::reserve_table`] first (this slices
    /// to the table length and panics if memory is shorter).
    #[inline]
    pub fn mem_table(&mut self, table: &CostTable) -> &mut [Word] {
        &mut self.mem[..table.len()]
    }

    /// Highest address ever touched, plus one — the space usage `S`.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total model time so far.
    pub fn time(&self) -> f64 {
        self.meter.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessFn;

    #[test]
    fn read_write_roundtrip_with_charges() {
        let mut h = Hram::new(AccessFn::new(1, 1), 16);
        h.write(3, 42);
        assert_eq!(h.read(3), 42);
        // write: 1 + 3, read: 1 + 3.
        assert_eq!(h.meter.access, 8.0);
        assert_eq!(h.meter.ops, 2);
    }

    #[test]
    fn memory_grows_on_demand() {
        let mut h = Hram::new(AccessFn::new(1, 1), 2);
        h.write(1000, 7);
        assert_eq!(h.read(1000), 7);
        assert_eq!(h.high_water(), 1001);
    }

    #[test]
    fn relocate_via_is_bit_identical_to_relocate() {
        for d in [1, 2, 3] {
            let access = AccessFn::new(d, 3);
            let table = CostTable::new(access, 40);
            let (mut a, mut b) = (Hram::new(access, 0), Hram::new(access, 0));
            // Pairs inside, straddling and beyond the table.
            for (src, dst) in [(7, 0), (39, 12), (41, 5), (3, 97), (120, 64)] {
                a.poke(src, src as Word);
                b.poke(src, src as Word);
                a.relocate(src, dst);
                b.relocate_via(&table, src, dst);
            }
            assert_eq!(
                a.meter.transfer.to_bits(),
                b.meter.transfer.to_bits(),
                "d = {d}"
            );
            assert_eq!(a.meter.ops, b.meter.ops);
            assert_eq!(b.meter.table_hits, 6);
            assert_eq!(
                (0..128).map(|i| a.peek(i)).collect::<Vec<_>>(),
                (0..128).map(|i| b.peek(i)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn relocate_meters_transfer_not_access() {
        let mut h = Hram::new(AccessFn::new(1, 2), 16);
        h.poke(8, 5);
        h.relocate(8, 0);
        assert_eq!(h.peek(0), 5);
        assert_eq!(h.meter.access, 0.0);
        // 1 + 8/2 (read)  +  1 + 0 (write) = 6.
        assert_eq!(h.meter.transfer, 6.0);
    }

    #[test]
    fn relocate_block_handles_overlap() {
        let mut h = Hram::new(AccessFn::new(1, 1), 16);
        for i in 0..4 {
            h.poke(i, i as Word + 1);
        }
        h.relocate_block(0, 2, 4); // overlapping forward move
        assert_eq!((h.peek(2), h.peek(3), h.peek(4), h.peek(5)), (1, 2, 3, 4));

        let mut g = Hram::new(AccessFn::new(1, 1), 16);
        for i in 4..8 {
            g.poke(i, i as Word);
        }
        g.relocate_block(4, 2, 4); // overlapping backward move
        assert_eq!((g.peek(2), g.peek(3), g.peek(4), g.peek(5)), (4, 5, 6, 7));
    }

    #[test]
    fn poke_and_peek_are_free() {
        let mut h = Hram::new(AccessFn::new(1, 1), 4);
        h.poke(2, 9);
        assert_eq!(h.peek(2), 9);
        assert_eq!(h.time(), 0.0);
    }

    #[test]
    fn high_water_tracks_maximum() {
        let mut h = Hram::new(AccessFn::new(2, 4), 0);
        h.write(10, 1);
        h.write(5, 1);
        assert_eq!(h.high_water(), 11);
    }

    #[test]
    fn naive_step_cost_matches_proposition_1() {
        // Proposition 1: one guest step of H on an f(x)-H-RAM costs
        // O(n · f(nm)).  Touch one cell per node in an n-node, m-cells
        // layout and compare against the bound.
        let (n, m) = (64usize, 4u64);
        let mut h = Hram::new(AccessFn::new(1, m), n * m as usize);
        for v in 0..n {
            h.read(v * m as usize);
        }
        let bound = n as f64 * (1.0 + AccessFn::new(1, m).f(n * m as usize));
        assert!(h.time() <= bound, "{} > {}", h.time(), bound);
        assert!(h.time() >= bound / 4.0, "within a constant of the bound");
    }
}
