//! Sparse node state and activity frontiers for the event core.
//!
//! For an `m = 1`, time-invariant guest program, a node whose
//! neighborhood produced no new value at step `t - 1` reproduces its own
//! step-`t - 1` value at step `t` (its operands are unchanged and `δ`
//! does not read the clock).  Quiescent regions therefore have a trivial
//! analytic closed form — the last value written, which for a
//! never-touched node is its *initial* value.  [`SparseState`] exploits
//! this: it overlays copy-on-write pages on the borrowed initial image
//! and materialises a page only when a node inside it first changes, so
//! the resident footprint tracks the touched region, not `n`.
//!
//! [`Frontier`] is the activity side: the candidate nodes of the next
//! stage.  A node is marked for stage `t + 1` exactly when one of its
//! neighborhood members changed at stage `t`; everything else is
//! quiescent and is neither visited nor stored.
//!
//! Neither structure touches the cost model: the engines meter stages
//! from input-independent charge streams (DESIGN.md §16), so how values
//! are stored cannot change any meter.

use bsmp_hram::Word;

/// Words per copy-on-write page.
const PAGE_WORDS: usize = 1024;

/// A lazily materialised value array overlaying a borrowed backing
/// image: reads fall through to the backing until the page holding the
/// address is first written.
#[derive(Debug)]
pub struct SparseState<'a> {
    backing: &'a [Word],
    pages: Vec<Option<Box<[Word]>>>,
    resident_pages: usize,
}

impl<'a> SparseState<'a> {
    /// Overlay on `backing` (the initial value image); no pages are
    /// materialised until the first [`SparseState::set`].
    pub fn new(backing: &'a [Word]) -> Self {
        let n_pages = backing.len().div_ceil(PAGE_WORDS);
        SparseState {
            backing,
            pages: (0..n_pages).map(|_| None).collect(),
            resident_pages: 0,
        }
    }

    /// Number of overlaid nodes.
    pub fn len(&self) -> usize {
        self.backing.len()
    }

    pub fn is_empty(&self) -> bool {
        self.backing.is_empty()
    }

    /// Current value of node `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Word {
        match &self.pages[i / PAGE_WORDS] {
            Some(page) => page[i % PAGE_WORDS],
            None => self.backing[i],
        }
    }

    /// Write node `i`, materialising its page from the backing on first
    /// touch.
    #[inline]
    pub fn set(&mut self, i: usize, w: Word) {
        let pi = i / PAGE_WORDS;
        let page = self.pages[pi].get_or_insert_with(|| {
            self.resident_pages += 1;
            let lo = pi * PAGE_WORDS;
            let hi = (lo + PAGE_WORDS).min(self.backing.len());
            let mut page = vec![0 as Word; PAGE_WORDS].into_boxed_slice();
            page[..hi - lo].copy_from_slice(&self.backing[lo..hi]);
            page
        });
        page[i % PAGE_WORDS] = w;
    }

    /// Pages currently materialised.
    pub fn resident_pages(&self) -> usize {
        self.resident_pages
    }

    /// Resident footprint in bytes: materialised pages plus the page
    /// table (the borrowed backing is the problem statement, not state).
    pub fn bytes_resident(&self) -> usize {
        self.resident_pages * PAGE_WORDS * std::mem::size_of::<Word>()
            + self.pages.capacity() * std::mem::size_of::<Option<Box<[Word]>>>()
    }

    /// Full dense snapshot (result extraction).
    pub fn materialize(&self) -> Vec<Word> {
        (0..self.backing.len()).map(|i| self.get(i)).collect()
    }
}

/// Activity frontier: the next stage's candidate nodes, deduplicated
/// at drain.
#[derive(Debug, Default)]
pub struct Frontier {
    next: Vec<usize>,
}

impl Frontier {
    pub fn new() -> Self {
        Frontier::default()
    }

    /// Mark node `v` for re-evaluation at the next stage.  Duplicates
    /// are fine; [`Frontier::drain`] collapses them.
    #[inline]
    pub fn mark(&mut self, v: usize) {
        self.next.push(v);
    }

    /// Take the marked set, ascending and deduplicated (empty when
    /// nothing was marked since the last drain).
    pub fn drain(&mut self) -> Vec<usize> {
        let mut nodes = std::mem::take(&mut self.next);
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Resident footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.next.capacity() * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fall_through_until_first_write() {
        let backing: Vec<Word> = (0..3000).collect();
        let mut s = SparseState::new(&backing);
        assert_eq!(s.get(0), 0);
        assert_eq!(s.get(2999), 2999);
        assert_eq!(s.resident_pages(), 0);
        s.set(1500, 77);
        assert_eq!(s.get(1500), 77);
        assert_eq!(s.get(1499), 1499, "same page, untouched index preserved");
        assert_eq!(s.resident_pages(), 1);
        s.set(1501, 78);
        assert_eq!(s.resident_pages(), 1, "same page reused");
    }

    #[test]
    fn materialize_matches_pointwise_reads() {
        let backing: Vec<Word> = (0..2500).map(|i| i * 3).collect();
        let mut s = SparseState::new(&backing);
        s.set(0, 9);
        s.set(2499, 10);
        let dense = s.materialize();
        assert_eq!(dense.len(), 2500);
        assert_eq!(dense[0], 9);
        assert_eq!(dense[1], 3);
        assert_eq!(dense[2499], 10);
    }

    #[test]
    fn bytes_resident_tracks_touched_pages_not_n() {
        let backing = vec![0 as Word; 1 << 20];
        let mut s = SparseState::new(&backing);
        let table_only = s.bytes_resident();
        s.set(42, 1);
        let one_page = s.bytes_resident();
        assert_eq!(one_page - table_only, PAGE_WORDS * 8);
        assert!(one_page < backing.len()); // far below 8 bytes/node
    }

    #[test]
    fn frontier_dedups_and_sorts() {
        let mut f = Frontier::new();
        f.mark(5);
        f.mark(3);
        f.mark(5);
        f.mark(4);
        assert_eq!(f.drain(), vec![3, 4, 5]);
        f.mark(9);
        assert_eq!(f.drain(), vec![9]);
        assert_eq!(f.drain(), Vec::<usize>::new());
    }
}
