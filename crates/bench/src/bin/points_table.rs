//! Points/sec scaling table for the tiled-kernel engines — the source
//! of the before/after rows in EXPERIMENTS.md §"Host throughput".
//!
//! Deliberately self-contained (its own `Instant` timing, no
//! `bsmp_bench::timing` dependency) so the identical source file can be
//! dropped into an older checkout to produce the "before" column with
//! the same measurement code.
//!
//! Usage: `cargo run --release -p bsmp-bench --bin points_table [iters]`

use std::time::Instant;

use bsmp::machine::MachineSpec;
use bsmp::sim::{multi1::simulate_multi1, naive::simulate_naive};
use bsmp::workloads::{inputs, Eca, VonNeumannLife};

fn median(iters: u32, mut f: impl FnMut() -> f64) -> f64 {
    f(); // warm-up
    let mut ts: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    ts.sort_by(|a, b| a.total_cmp(b));
    let mid = ts.len() / 2;
    if ts.len() % 2 == 1 {
        ts[mid]
    } else {
        (ts[mid - 1] + ts[mid]) / 2.0
    }
}

fn row(name: &str, points: u64, iters: u32, f: impl FnMut() -> f64) {
    let med = median(iters, f);
    println!(
        "| {name:<24} | {points:>10} | {med:>12.6} | {:>14.0} |",
        points as f64 / med
    );
}

fn main() {
    let iters: u32 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("iters must be a number"))
        .unwrap_or(3);
    println!("| case                     |     points |     median_s |       points/s |");
    println!("|--------------------------|------------|--------------|----------------|");

    // d = 1: naive1 (p = 16) and multi1 at n ∈ {1024, 4096, 16384}.
    for n in [1024u64, 4096, 16384] {
        let init = inputs::random_bits(11, n as usize);
        let spec = MachineSpec::new(1, n, 16, 1);
        let t = 512i64;
        row(
            &format!("naive1_n{n}_p16_T512"),
            n * t as u64,
            iters,
            || simulate_naive::<1>(&spec, &Eca::rule110(), &init, t).host_time,
        );
    }
    for n in [1024u64, 4096, 16384] {
        let init = inputs::random_bits(11, n as usize);
        let spec = MachineSpec::new(1, n, 16, 1);
        let t = 64i64;
        row(&format!("multi1_n{n}_p16_T64"), n * t as u64, iters, || {
            simulate_multi1(&spec, &Eca::rule110(), &init, t).host_time
        });
    }

    // d = 2: naive2 (p = 16) at side ∈ {32, 64, 128} — the same n.
    for side in [32u64, 64, 128] {
        let n = side * side;
        let init = inputs::random_bits(13, n as usize);
        let spec = MachineSpec::new(2, n, 16, 1);
        let t = 64i64;
        row(
            &format!("naive2_{side}x{side}_p16_T64"),
            n * t as u64,
            iters,
            || simulate_naive::<2>(&spec, &VonNeumannLife::fredkin(), &init, t).host_time,
        );
    }
}
