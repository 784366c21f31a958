//! Property-based tests of the machine model and guest execution,
//! driven by the workspace's deterministic generator.

use bsmp_faults::rng::Rng64;
use bsmp_hram::Word;
use bsmp_machine::{guest_time, run_guest, LinearProgram, MachineSpec, StageClock};

const CASES: usize = 64;

struct Rule(u8);
impl LinearProgram for Rule {
    fn m(&self) -> usize {
        1
    }
    fn delta(&self, _v: usize, _t: i64, own: Word, _p: Word, l: Word, r: Word) -> Word {
        let idx = ((l & 1) << 2) | ((own & 1) << 1) | (r & 1);
        Word::from((self.0 >> idx) & 1)
    }
}

#[test]
fn guest_execution_is_deterministic() {
    let mut rng = Rng64::new(0x6D31);
    for _ in 0..CASES {
        let rule = rng.below(256) as u8;
        let bits = rng.vec_below(12, 2);
        let steps = rng.range_i64(0, 20);
        let spec = MachineSpec::new(1, 12, 12, 1);
        let a = run_guest::<1>(&spec, &Rule(rule), &bits, steps);
        let b = run_guest::<1>(&spec, &Rule(rule), &bits, steps);
        assert_eq!(a.values, b.values);
        assert_eq!(a.mem, b.mem);
        assert!((a.time - b.time).abs() < 1e-12);
    }
}

#[test]
fn guest_time_matches_clock_helper() {
    let mut rng = Rng64::new(0x6D32);
    for _ in 0..CASES {
        let rule = rng.below(256) as u8;
        let bits = rng.vec_below(8, 2);
        let steps = rng.range_i64(0, 16);
        let spec = MachineSpec::new(1, 8, 8, 1);
        let run = run_guest::<1>(&spec, &Rule(rule), &bits, steps);
        assert!((run.time - guest_time::<1>(&spec, &Rule(rule), steps)).abs() < 1e-9);
    }
}

#[test]
fn light_cone_respected() {
    // Flipping one input cell cannot affect values farther than
    // `steps` away — information travels one hop per step.
    let mut rng = Rng64::new(0x6D33);
    for _ in 0..CASES {
        let bits = rng.vec_below(17, 2);
        let flip = rng.below(17) as usize;
        let steps = rng.range_i64(1, 8);
        let spec = MachineSpec::new(1, 17, 17, 1);
        let a = run_guest::<1>(&spec, &Rule(110), &bits, steps);
        let mut bits2 = bits.clone();
        bits2[flip] ^= 1;
        let b = run_guest::<1>(&spec, &Rule(110), &bits2, steps);
        for v in 0..17usize {
            if (v as i64 - flip as i64).abs() > steps {
                assert_eq!(
                    a.values[v], b.values[v],
                    "leak at {v} (flip {flip}, T {steps})"
                );
            }
        }
    }
}

#[test]
fn spec_arithmetic() {
    let mut rng = Rng64::new(0x6D34);
    for _ in 0..CASES {
        let ne = rng.range_u64(4, 16) as u32;
        let pe = (rng.below(5) as u32).min(ne);
        let m = rng.range_u64(1, 16);
        let n = 1u64 << ne;
        let p = 1u64 << pe;
        let s = MachineSpec::new(1, n, p, m);
        assert_eq!(s.node_mem() * s.p, n * m);
        assert_eq!(s.nodes_per_proc() * s.p, n);
        assert!((s.neighbor_distance() - (n / p) as f64).abs() < 1e-9);
        // Section 2 invariant: worst private access = neighbor distance.
        assert!((s.access_fn().f(s.node_mem() as usize) - s.neighbor_distance()).abs() < 1e-9);
    }
}

#[test]
fn stage_clock_bounds() {
    let mut rng = Rng64::new(0x6D35);
    for _ in 0..CASES {
        let stages = rng.range_u64(1, 10) as usize;
        let costs: Vec<Vec<f64>> = (0..stages)
            .map(|_| {
                let width = rng.range_u64(1, 6) as usize;
                (0..width).map(|_| rng.unit_f64() * 100.0).collect()
            })
            .collect();
        let mut c = StageClock::new();
        for stage in &costs {
            c.add_stage(stage);
        }
        let total_busy: f64 = costs.iter().flatten().sum();
        assert!((c.busy_time - total_busy).abs() < 1e-6);
        assert!(c.parallel_time <= total_busy + 1e-6);
        let max_p = costs.iter().map(Vec::len).max().unwrap() as u64;
        assert!(c.efficiency(max_p) <= 1.0 + 1e-9);
    }
}
