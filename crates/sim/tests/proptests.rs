//! Property-based equivalence: random elementary CAs, random machine
//! shapes, random inputs — every engine must match direct execution.
//! Randomized cases are driven by the in-repo seeded [`Rng64`] so the
//! suite needs no external dependencies and is fully reproducible.

use bsmp_faults::rng::Rng64;
use bsmp_faults::FaultPlan;
use bsmp_hram::Word;
use bsmp_machine::{run_guest, LinearProgram, MachineSpec, MeshProgram};
use bsmp_sim::{
    dnc::simulate_dnc, multi1::simulate_multi1, multi1::try_simulate_multi1, naive::simulate_naive,
    naive::try_simulate_naive, RunOpts,
};
use bsmp_trace::Tracer;

const CASES: u64 = 24;

/// An arbitrary elementary CA (any Wolfram rule) over arbitrary words.
struct AnyRule(u8);
impl LinearProgram for AnyRule {
    fn m(&self) -> usize {
        1
    }
    fn delta(&self, _v: usize, _t: i64, own: Word, _p: Word, l: Word, r: Word) -> Word {
        let idx = ((l & 1) << 2) | ((own & 1) << 1) | (r & 1);
        Word::from((self.0 >> idx) & 1)
    }
}

/// An m = 2 program mixing both cells and all operands.
struct Mix2;
impl LinearProgram for Mix2 {
    fn m(&self) -> usize {
        2
    }
    fn cell(&self, v: usize, t: i64) -> usize {
        ((v as i64 + t) % 2) as usize
    }
    fn delta(&self, v: usize, t: i64, own: Word, p: Word, l: Word, r: Word) -> Word {
        own.wrapping_mul(3)
            .wrapping_add(p)
            .wrapping_add(l.rotate_left(1))
            .wrapping_add(r ^ (v as u64 + t as u64))
    }
}

struct MeshMix;
impl MeshProgram for MeshMix {
    fn m(&self) -> usize {
        1
    }
    #[allow(clippy::too_many_arguments)]
    fn delta(
        &self,
        i: usize,
        j: usize,
        t: i64,
        _own: Word,
        p: Word,
        w: Word,
        e: Word,
        s: Word,
        n: Word,
    ) -> Word {
        p.wrapping_add(w)
            .wrapping_sub(e)
            .wrapping_add(s.rotate_left(3))
            .wrapping_add(n ^ ((i + j) as u64 + t as u64))
    }
}

#[test]
fn any_rule_any_input_all_engines() {
    let mut rng = Rng64::new(0xA11E);
    for _ in 0..CASES {
        let rule = rng.below(256) as u8;
        let bits: Vec<Word> = rng.vec_below(16, 2);
        let steps = rng.range_i64(1, 24);
        let p = [1u64, 2, 4][rng.below(3) as usize];
        let n = 16u64;
        let prog = AnyRule(rule);
        let spec = MachineSpec::new(1, n, p, 1);
        let guest = run_guest::<1>(&spec, &prog, &bits, steps);
        simulate_naive::<1>(&spec, &prog, &bits, steps).assert_matches(&guest.mem, &guest.values);
        if p == 1 {
            simulate_dnc::<1>(&spec, &prog, &bits, steps).assert_matches(&guest.mem, &guest.values);
        } else {
            simulate_multi1(&spec, &prog, &bits, steps).assert_matches(&guest.mem, &guest.values);
        }
    }
}

#[test]
fn two_cell_program_random_inputs() {
    let mut rng = Rng64::new(0x2CE1);
    for _ in 0..CASES {
        let words: Vec<Word> = (0..32).map(|_| rng.next_u64()).collect();
        let steps = rng.range_i64(1, 16);
        let n = 16u64;
        let spec = MachineSpec::new(1, n, 1, 2);
        let guest = run_guest::<1>(&spec, &Mix2, &words, steps);
        simulate_dnc::<1>(&spec, &Mix2, &words, steps).assert_matches(&guest.mem, &guest.values);
        let spec4 = MachineSpec::new(1, n, 4, 2);
        simulate_multi1(&spec4, &Mix2, &words, steps).assert_matches(&guest.mem, &guest.values);
    }
}

#[test]
fn mesh_random_inputs() {
    let mut rng = Rng64::new(0x3E5D);
    for _ in 0..CASES {
        let words: Vec<Word> = (0..16).map(|_| rng.next_u64()).collect();
        let steps = rng.range_i64(1, 8);
        let spec = MachineSpec::new(2, 16, 1, 1);
        let guest = run_guest::<2>(&spec, &MeshMix, &words, steps);
        simulate_naive::<2>(&spec, &MeshMix, &words, steps)
            .assert_matches(&guest.mem, &guest.values);
        simulate_dnc::<2>(&spec, &MeshMix, &words, steps).assert_matches(&guest.mem, &guest.values);
    }
}

#[test]
fn cost_is_input_independent() {
    // The cost model charges by address trace, which for these
    // programs is data-independent: two different inputs must cost
    // exactly the same.
    let mut rng = Rng64::new(0xC057);
    for _ in 0..CASES {
        let bits_a: Vec<Word> = rng.vec_below(32, 2);
        let bits_b: Vec<Word> = rng.vec_below(32, 2);
        let spec = MachineSpec::new(1, 32, 1, 1);
        let a = simulate_dnc::<1>(&spec, &AnyRule(110), &bits_a, 16);
        let b = simulate_dnc::<1>(&spec, &AnyRule(110), &bits_b, 16);
        assert!((a.host_time - b.host_time).abs() < 1e-9);
        assert_eq!(a.space, b.space);
    }
}

#[test]
fn determinism() {
    let mut rng = Rng64::new(0xDE7E);
    for _ in 0..CASES {
        let bits: Vec<Word> = rng.vec_below(24, 2);
        let p = [2u64, 4][rng.below(2) as usize];
        let spec = MachineSpec::new(1, 24, p, 1);
        let r1 = simulate_multi1(&spec, &AnyRule(90), &bits, 12);
        let r2 = simulate_multi1(&spec, &AnyRule(90), &bits, 12);
        assert_eq!(r1.values, r2.values);
        assert!((r1.host_time - r2.host_time).abs() < 1e-9);
    }
}

#[test]
fn faulted_runs_are_deterministic() {
    // Same seed + same FaultPlan ⇒ bit-identical values AND costs.
    let mut rng = Rng64::new(0xFA17);
    for _ in 0..CASES {
        let bits: Vec<Word> = rng.vec_below(24, 2);
        let seed = rng.next_u64();
        let plan = FaultPlan::uniform_slowdown(1.5)
            .seed(seed)
            .jitter(1.0, 2.0)
            .loss(50, 3)
            .random_crashes(20);
        for (spec, faulted) in [
            (MachineSpec::new(1, 24, 4, 1), true),
            (MachineSpec::new(1, 24, 2, 1), false),
        ] {
            let run = |plan: &FaultPlan| {
                if faulted {
                    try_simulate_naive::<1>(
                        &spec,
                        &AnyRule(30),
                        &bits,
                        12,
                        RunOpts {
                            plan: *plan,
                            ..RunOpts::default()
                        },
                        &mut Tracer::off(),
                    )
                    .unwrap()
                } else {
                    try_simulate_multi1(
                        &spec,
                        &AnyRule(30),
                        &bits,
                        12,
                        RunOpts {
                            plan: *plan,
                            ..RunOpts::default()
                        },
                        &mut Tracer::off(),
                    )
                    .unwrap()
                }
            };
            let r1 = run(&plan);
            let r2 = run(&plan);
            assert_eq!(r1.values, r2.values);
            assert_eq!(r1.mem, r2.mem);
            assert_eq!(r1.host_time.to_bits(), r2.host_time.to_bits());
            assert_eq!(r1.faults, r2.faults);
        }
    }
}

#[test]
fn empty_plan_reproduces_unfaulted_costs_bitwise() {
    // FaultPlan::none() must leave the accounting bit-identical to the
    // engine run without any fault machinery.
    let mut rng = Rng64::new(0x0F17);
    for _ in 0..CASES {
        let bits: Vec<Word> = rng.vec_below(32, 2);
        let steps = rng.range_i64(1, 16);
        let spec = MachineSpec::new(1, 32, 4, 1);
        let plain = simulate_naive::<1>(&spec, &AnyRule(110), &bits, steps);
        let none = try_simulate_naive::<1>(
            &spec,
            &AnyRule(110),
            &bits,
            steps,
            RunOpts {
                plan: FaultPlan::none(),
                ..RunOpts::default()
            },
            &mut Tracer::off(),
        )
        .unwrap();
        assert_eq!(plain.values, none.values);
        assert_eq!(plain.host_time.to_bits(), none.host_time.to_bits());
        assert_eq!(plain.guest_time.to_bits(), none.guest_time.to_bits());
        assert_eq!(plain.stages, none.stages);
        assert_eq!(none.faults, Default::default());
    }
}
