//! Order statistics, hashing and process resource counters.

use std::fmt;

/// A percentile was asked of a sample too small to support it.
#[derive(Clone, Debug, PartialEq)]
pub struct TooFewSamples {
    pub q: f64,
    pub samples: usize,
    pub beyond: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} of {} samples leaves {} beyond it (need {MIN_BEYOND})",
            self.q * 100.0,
            self.samples,
            self.beyond
        )
    }
}

/// A reported percentile must have at least this many samples above it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q ∈ (0, 1)` of `sorted` (ascending).  Refuses
/// when fewer than [`MIN_BEYOND`] samples lie beyond the chosen rank, so
/// every reported tail rests on at least ten observations.
pub fn percentile(sorted: &[f64], q: f64) -> Result<f64, TooFewSamples> {
    assert!(q > 0.0 && q < 1.0, "percentile {q} outside (0, 1)");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(TooFewSamples {
            q,
            samples: n,
            beyond,
        });
    }
    Ok(sorted[rank - 1])
}

/// Sort a sample ascending (total order; the benchmark never produces NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Plain median (midpoint of the two middle values for even counts), for
/// repeated set-up and calibration figures where the tail rule does not
/// apply.  `None` for an empty sample.
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Word-at-a-time multiply-xor hash step over `bytes`, chained from `h`.
/// Used for digests of result lines, so it must be fast on 100 KB traces
/// and identical on every run; it is not a cryptographic hash.
pub fn hash_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    let mut tail = [0u8; 8];
    let rest = chunks.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    h = (h ^ u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56)
        .wrapping_mul(K)
        .rotate_left(29);
    h
}

/// Chain one `u64` into a hash.
pub fn hash_u64(h: u64, x: u64) -> u64 {
    hash_bytes(h, &x.to_le_bytes())
}

/// Seed of every digest.
pub const HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Process CPU time (user + system) and peak resident set size.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    pub cpu_s: f64,
    pub max_rss_kib: u64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// This process's resource usage so far.
pub fn usage() -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the C layout of
    // 64-bit Linux, and RUSAGE_SELF is a valid `who`; getrusage writes only
    // inside the struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        max_rss_kib: ru.maxrss.max(0) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, ten samples beyond.
        assert_eq!(percentile(&v, 0.9), Ok(90.0));
        assert_eq!(percentile(&v, 0.5), Ok(50.0));
        // p90 of 99 samples leaves only nine beyond.
        let err = percentile(&v[..99], 0.9).unwrap_err();
        assert_eq!(err.beyond, 9);
        // p99 of 100 samples leaves one.
        assert!(percentile(&v, 0.99).is_err());
        // The median needs twenty samples.
        assert_eq!(percentile(&v[..20], 0.5), Ok(10.0));
        assert!(percentile(&v[..19], 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn hash_sees_every_byte_and_length() {
        let a = hash_bytes(HASH_SEED, b"host_time: 1.5");
        assert_eq!(a, hash_bytes(HASH_SEED, b"host_time: 1.5"));
        assert_ne!(a, hash_bytes(HASH_SEED, b"host_time: 1.6"));
        assert_ne!(
            hash_bytes(HASH_SEED, b"abc"),
            hash_bytes(HASH_SEED, b"abc\0")
        );
    }

    #[test]
    fn usage_grows_with_work() {
        let a = usage();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let b = usage();
        assert!(b.cpu_s > a.cpu_s);
        assert!(b.max_rss_kib > 0);
    }
}
