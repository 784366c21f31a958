//! Sorted value directories and sorted-set merges for the recursive
//! executor ([`crate::execd`]).
//!
//! A directory maps each parked dag value (a point of any dimension) to
//! its current address, ordered by point.  It is threaded down the
//! recursion instead of a global hash map: every lookup is a binary
//! search over a small, cache-resident slice, and every update is a
//! linear merge of sorted inputs.  None of this touches the H-RAM, so
//! it is pure host bookkeeping — charges never depend on it.

use std::cmp::Ordering;

/// A sorted value directory: `(point, address)` pairs, strictly
/// increasing by point.
pub type Vals<T> = Vec<(T, usize)>;

/// Address of `q` in the sorted directory `vals`, if present.
#[inline]
pub fn vals_get<T: Ord + Copy>(vals: &[(T, usize)], q: T) -> Option<usize> {
    vals.binary_search_by_key(&q, |e| e.0)
        .ok()
        .map(|i| vals[i].1)
}

/// Remove from the sorted directory `list` every entry whose point is in
/// sorted `rm` (points of `rm` absent from `list` are ignored).  Linear.
pub fn remove_sorted_vals<T: Ord + Copy>(list: &mut Vals<T>, rm: &[T]) {
    if rm.is_empty() || list.is_empty() {
        return;
    }
    let mut w = 0;
    let mut r = 0;
    for i in 0..list.len() {
        let e = list[i];
        while r < rm.len() && rm[r] < e.0 {
            r += 1;
        }
        if r < rm.len() && rm[r] == e.0 {
            continue;
        }
        list[w] = e;
        w += 1;
    }
    list.truncate(w);
}

/// Merge the sorted `(keys, addrs)` pairs into the sorted directory
/// `list`, via `scratch`.  On a key collision the incoming address wins
/// (the value was just re-parked).  Linear.
pub fn merge_vals<T: Ord + Copy>(
    list: &mut Vals<T>,
    keys: &[T],
    addrs: &[usize],
    scratch: &mut Vals<T>,
) {
    debug_assert_eq!(keys.len(), addrs.len());
    if keys.is_empty() {
        return;
    }
    scratch.clear();
    scratch.reserve(list.len() + keys.len());
    let (mut i, mut j) = (0, 0);
    while i < list.len() && j < keys.len() {
        match list[i].0.cmp(&keys[j]) {
            Ordering::Less => {
                scratch.push(list[i]);
                i += 1;
            }
            Ordering::Greater => {
                scratch.push((keys[j], addrs[j]));
                j += 1;
            }
            Ordering::Equal => {
                scratch.push((keys[j], addrs[j]));
                i += 1;
                j += 1;
            }
        }
    }
    scratch.extend_from_slice(&list[i..]);
    scratch.extend(keys[j..].iter().copied().zip(addrs[j..].iter().copied()));
    std::mem::swap(list, scratch);
}

/// Merge sorted `add` into sorted `list`, deduplicating, via `scratch`.
/// Linear — replaces per-element hash-set traffic on the recursion's
/// hot path.
pub fn insert_sorted<T: Ord + Copy>(list: &mut Vec<T>, add: &[T], scratch: &mut Vec<T>) {
    if add.is_empty() {
        return;
    }
    scratch.clear();
    scratch.reserve(list.len() + add.len());
    let (mut i, mut j) = (0, 0);
    while i < list.len() && j < add.len() {
        match list[i].cmp(&add[j]) {
            Ordering::Less => {
                scratch.push(list[i]);
                i += 1;
            }
            Ordering::Greater => {
                scratch.push(add[j]);
                j += 1;
            }
            Ordering::Equal => {
                scratch.push(list[i]);
                i += 1;
                j += 1;
            }
        }
    }
    scratch.extend_from_slice(&list[i..]);
    scratch.extend_from_slice(&add[j..]);
    std::mem::swap(list, scratch);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_finds_present_and_rejects_absent() {
        let v: Vals<i32> = vec![(1, 10), (4, 40), (9, 90)];
        assert_eq!(vals_get(&v, 4), Some(40));
        assert_eq!(vals_get(&v, 5), None);
        assert_eq!(vals_get::<i32>(&[], 1), None);
    }

    #[test]
    fn remove_handles_empty_and_absent_keys() {
        let mut v: Vals<i32> = vec![(1, 10), (4, 40), (9, 90)];
        remove_sorted_vals(&mut v, &[]);
        assert_eq!(v, [(1, 10), (4, 40), (9, 90)]);
        // 0, 5 and 12 are absent: ignored; 4 and 9 go.
        remove_sorted_vals(&mut v, &[0, 4, 5, 9, 12]);
        assert_eq!(v, [(1, 10)]);
        let mut e: Vals<i32> = Vec::new();
        remove_sorted_vals(&mut e, &[1, 2]);
        assert!(e.is_empty());
    }

    #[test]
    fn merge_incoming_address_wins_on_collision() {
        let mut v: Vals<i32> = vec![(1, 10), (4, 40), (9, 90)];
        let mut scratch = Vec::new();
        merge_vals(&mut v, &[0, 4, 12], &[1, 400, 120], &mut scratch);
        assert_eq!(v, [(0, 1), (1, 10), (4, 400), (9, 90), (12, 120)]);
    }

    #[test]
    fn merge_into_and_from_empty() {
        let mut scratch = Vec::new();
        let mut v: Vals<i32> = Vec::new();
        merge_vals(&mut v, &[2, 3], &[20, 30], &mut scratch);
        assert_eq!(v, [(2, 20), (3, 30)]);
        merge_vals(&mut v, &[], &[], &mut scratch);
        assert_eq!(v, [(2, 20), (3, 30)]);
    }

    #[test]
    fn insert_dedups_and_keeps_order() {
        let mut scratch = Vec::new();
        let mut v = vec![1, 4, 9];
        insert_sorted(&mut v, &[0, 4, 9, 10], &mut scratch);
        assert_eq!(v, [0, 1, 4, 9, 10]);
        insert_sorted(&mut v, &[], &mut scratch);
        assert_eq!(v, [0, 1, 4, 9, 10]);
        let mut e: Vec<i32> = Vec::new();
        insert_sorted(&mut e, &[3, 5], &mut scratch);
        assert_eq!(e, [3, 5]);
    }
}
