//! Property-based tests of the workload semantics, driven by the
//! in-repo seeded [`Rng64`] case generator.

use bsmp_faults::rng::Rng64;
use bsmp_machine::{run_guest, MachineSpec};
use bsmp_workloads::{cannon, inputs, OddEvenSort, SystolicMatmul, TokenShift};

const CASES: u64 = 32;

#[test]
fn odd_even_sort_sorts_anything() {
    let mut rng = Rng64::new(0x0E50);
    for _ in 0..CASES {
        let len = rng.range_u64(2, 24) as usize;
        let vals: Vec<u64> = rng.vec_below(len, 10_000);
        let n = vals.len() as u64;
        let spec = MachineSpec::new(1, n, n, 1);
        let run = run_guest::<1>(
            &spec,
            &OddEvenSort::new(vals.len()),
            &vals,
            vals.len() as i64,
        );
        let mut expect = vals.clone();
        expect.sort();
        assert_eq!(run.values, expect);
    }
}

#[test]
fn sort_is_idempotent_after_n_steps() {
    let mut rng = Rng64::new(0x1DE9);
    for _ in 0..CASES {
        let len = rng.range_u64(4, 16) as usize;
        let vals: Vec<u64> = rng.vec_below(len, 100);
        let extra = rng.range_i64(0, 8);
        let n = vals.len() as u64;
        let spec = MachineSpec::new(1, n, n, 1);
        let a = run_guest::<1>(
            &spec,
            &OddEvenSort::new(vals.len()),
            &vals,
            vals.len() as i64,
        );
        let b = run_guest::<1>(
            &spec,
            &OddEvenSort::new(vals.len()),
            &vals,
            vals.len() as i64 + extra,
        );
        assert_eq!(a.values, b.values, "sorted is a fixed point");
    }
}

#[test]
fn token_shift_is_a_shift() {
    let mut rng = Rng64::new(0x70CE);
    for _ in 0..CASES {
        let len = rng.range_u64(3, 20) as usize;
        let vals: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
        let k = rng.range_i64(1, 10);
        let n = vals.len();
        let spec = MachineSpec::new(1, n as u64, n as u64, 1);
        let run = run_guest::<1>(&spec, &TokenShift::new(0), &vals, k);
        for v in 0..n {
            let expect = if (v as i64) < k {
                0
            } else {
                vals[v - k as usize]
            };
            assert_eq!(run.values[v], expect);
        }
    }
}

#[test]
fn systolic_matmul_equals_oracle() {
    let mut rng = Rng64::new(0x5757);
    for _ in 0..CASES {
        let side = rng.range_u64(2, 6) as usize;
        let seed = rng.next_u64();
        let prog = SystolicMatmul::new(side);
        let a = inputs::random_matrix(seed, side, 64);
        let b = inputs::random_matrix(seed.wrapping_add(1), side, 64);
        let init = prog.stage_inputs(&a, &b);
        let n = (side * side) as u64;
        let spec = MachineSpec::new(2, n, n, (side + 1) as u64);
        let run = run_guest::<2>(&spec, &prog, &init, prog.steps());
        let c = prog.extract_c(&run.values);
        for r in 0..side {
            for q in 0..side {
                let expect: u64 = (0..side).map(|k| a[r][k] * b[k][q]).sum();
                assert_eq!(c[r][q], expect, "C[{r}][{q}]");
            }
        }
    }
}

#[test]
fn pack_fields_roundtrip() {
    let mut rng = Rng64::new(0x9AC4);
    for _ in 0..CASES {
        let a = rng.below(65536);
        let b = rng.below(65536);
        let c = rng.below(0x1_0000_0000);
        let w = cannon::pack(a, b, c);
        assert_eq!(cannon::a_field(w), a);
        assert_eq!(cannon::b_field(w), b);
        assert_eq!(cannon::c_field(w), c);
    }
}

#[test]
fn generators_bound_and_deterministic() {
    let mut rng = Rng64::new(0x6E4E);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let count = rng.range_u64(1, 200) as usize;
        let bound = rng.range_u64(1, 1000);
        let v = inputs::random_words(seed, count, bound);
        assert_eq!(v.len(), count);
        assert!(v.iter().all(|&w| w < bound));
        assert_eq!(v, inputs::random_words(seed, count, bound));
    }
}
