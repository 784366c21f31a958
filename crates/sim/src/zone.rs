//! The parking-zone allocator of Proposition 2's memory discipline.
//!
//! `execute(U)` keeps its transit data — incoming preboundary values,
//! inter-child boundary values, column states — in the address band
//! `[max_i S(U_i), S(U))`, while children reuse `[0, S(U_i))` as working
//! space.  A [`ZoneAlloc`] manages one such band: fixed-size single-word
//! slots, bump allocation with a LIFO free list.

/// Single-word slot allocator over a half-open address band.
#[derive(Clone, Debug)]
pub struct ZoneAlloc {
    base: usize,
    cap: usize,
    next: usize,
    free: Vec<usize>,
    /// Free lists for recycled blocks, one per length (a zone sees one
    /// or two block lengths, so a linear scan beats hashing).
    free_blocks: Vec<(usize, Vec<usize>)>,
    /// Peak simultaneous occupancy (diagnostics for the space bounds).
    peak: usize,
    live: usize,
    #[cfg(debug_assertions)]
    outstanding: std::collections::HashSet<usize>,
}

impl ZoneAlloc {
    /// A zone over `[base, base + cap)`.
    pub fn new(base: usize, cap: usize) -> Self {
        ZoneAlloc {
            base,
            cap,
            next: 0,
            free: Vec::new(),
            free_blocks: Vec::new(),
            peak: 0,
            live: 0,
            #[cfg(debug_assertions)]
            outstanding: std::collections::HashSet::new(),
        }
    }

    /// Allocate one word.
    ///
    /// # Panics
    /// If the zone overflows — that indicates a bug in the space
    /// recurrence `S(U)`, so it must be loud.
    pub fn alloc(&mut self) -> usize {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        if let Some(a) = self.free.pop() {
            #[cfg(debug_assertions)]
            assert!(self.outstanding.insert(a), "alloc returned live slot {a}");
            return a;
        }
        assert!(
            self.next < self.cap,
            "zone overflow: cap {} exhausted (S(U) too small)",
            self.cap
        );
        let a = self.base + self.next;
        self.next += 1;
        #[cfg(debug_assertions)]
        assert!(self.outstanding.insert(a), "alloc returned live slot {a}");
        a
    }

    /// Allocate `len` consecutive words (for state blocks).
    pub fn alloc_block(&mut self, len: usize) -> usize {
        if let Some(a) = self.blocks_of(len).and_then(Vec::pop) {
            self.live += len;
            self.peak = self.peak.max(self.live);
            return a;
        }
        assert!(
            self.next + len <= self.cap,
            "zone overflow: block of {len} does not fit in cap {} at {}",
            self.cap,
            self.next
        );
        let a = self.base + self.next;
        self.next += len;
        self.live += len;
        self.peak = self.peak.max(self.live);
        a
    }

    /// Return a single-word slot to the free list.
    pub fn free(&mut self, addr: usize) {
        debug_assert!(addr >= self.base && addr < self.base + self.cap);
        #[cfg(debug_assertions)]
        assert!(self.outstanding.remove(&addr), "double free of slot {addr}");
        self.live -= 1;
        self.free.push(addr);
    }

    /// Release a block for reuse by later same-length allocations.
    pub fn free_block(&mut self, addr: usize, len: usize) {
        self.live -= len;
        match self.blocks_of(len) {
            Some(list) => list.push(addr),
            None => self.free_blocks.push((len, vec![addr])),
        }
    }

    /// The free list of `len`-word blocks, if one was ever started.
    #[inline]
    fn blocks_of(&mut self, len: usize) -> Option<&mut Vec<usize>> {
        self.free_blocks
            .iter_mut()
            .find(|(l, _)| *l == len)
            .map(|(_, list)| list)
    }

    /// Free a slot only if it belongs to this zone (no-op for foreign
    /// addresses, e.g. the one-time guest-image region).
    pub fn free_if_owned(&mut self, addr: usize) {
        if addr >= self.base && addr < self.base + self.cap {
            self.free(addr);
        }
    }

    /// Block variant of [`ZoneAlloc::free_if_owned`].
    pub fn free_block_if_owned(&mut self, addr: usize, len: usize) {
        if addr >= self.base && addr < self.base + self.cap {
            self.free_block(addr, len);
        }
    }

    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_reuse() {
        let mut z = ZoneAlloc::new(100, 4);
        let a = z.alloc();
        let b = z.alloc();
        assert_eq!((a, b), (100, 101));
        z.free(a);
        assert_eq!(z.alloc(), 100, "freed slot reused");
        assert_eq!(z.peak(), 2);
    }

    #[test]
    fn blocks_are_contiguous() {
        let mut z = ZoneAlloc::new(10, 10);
        let b = z.alloc_block(4);
        assert_eq!(b, 10);
        let c = z.alloc();
        assert_eq!(c, 14);
    }

    #[test]
    #[should_panic(expected = "zone overflow")]
    fn overflow_is_loud() {
        let mut z = ZoneAlloc::new(0, 2);
        z.alloc();
        z.alloc();
        z.alloc();
    }
}
