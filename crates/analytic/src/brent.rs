//! Brent's Principle \[B74\] and the Fundamental Principle of Parallel
//! Computation \[S86\] — the *instantaneous-model* baseline that the
//! limiting technology breaks.

/// Brent's Principle: a `T`-step computation on `n` processors can be
/// emulated in at most `⌈n/p⌉·T` steps on `p ≤ n` processors of the same
/// type — slowdown `⌈n/p⌉`.
pub fn brent_slowdown(n: u64, p: u64) -> u64 {
    assert!(p >= 1 && p <= n);
    n.div_ceil(p)
}

/// The Fundamental Principle corollary: the best parallel algorithm on
/// `p` processors cannot be more than `p` times faster than the best
/// sequential one.  Returns the classical speedup cap.
pub fn classical_speedup_cap(p: u64) -> u64 {
    p
}

/// How much the bounded-speed bound exceeds the classical cap:
/// `A(n, m, p)` is exactly the superlinearity factor.
pub fn superlinearity_factor(d: u8, n: f64, m: f64, p: f64) -> f64 {
    crate::theorem1::slowdown_bound(d, n, m, p) / (n / p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brent_is_ceiling() {
        assert_eq!(brent_slowdown(10, 3), 4);
        assert_eq!(brent_slowdown(8, 4), 2);
        assert_eq!(brent_slowdown(8, 8), 1);
    }

    #[test]
    fn superlinearity_equals_locality_slowdown() {
        let f = superlinearity_factor(1, 65536.0, 16.0, 16.0);
        let a = crate::theorem1::locality_slowdown(1, 65536.0, 16.0, 16.0);
        assert!((f - a).abs() < 1e-9);
        assert!(f > 1.0, "bounded speed ⇒ superlinear potential");
    }

    #[test]
    fn no_superlinearity_in_range4() {
        // m ≥ n: A = (n/p)^{1/d}… which is itself the locality loss of the
        // *host*; the factor is still > 1, but it is achieved by naive
        // simulation — check it equals (n/p)^{1/d} exactly.
        let f = superlinearity_factor(1, 1024.0, 2048.0, 4.0);
        assert_eq!(f, 256.0);
    }
}
