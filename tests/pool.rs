//! Integration tests of the persistent host execution layer (DESIGN.md
//! §12): pooled execution must be **bit-identical** to serial execution
//! in every model-visible quantity — memories, values, `T_p`, the cost
//! meter, stage counts, and fault statistics — because each stage task
//! writes its cost to its own slot and the clock folds slots in
//! processor order regardless of claim order.

use bsmp::machine::{ExecPolicy, MachineSpec, StagePool};
use bsmp::sim::{naive1, naive2};
use bsmp::workloads::{inputs, Eca, VonNeumannLife};
use bsmp::{FaultPlan, LinearProgram, RunOpts, SimError, SimReport, Tracer, Word};

/// Run options with fault plan `plan` and host policy `exec`.
fn opts(plan: FaultPlan, exec: ExecPolicy) -> RunOpts {
    RunOpts {
        plan,
        exec,
        ..RunOpts::default()
    }
}

/// Sizes chosen so the naive engines actually take the pooled path
/// (`q = n/p ≥ 256` with more than one resolved thread).
const N1: u64 = 2048;
const P1: u64 = 4;
const N2: u64 = 4096; // 64×64 mesh
const P2: u64 = 4; // 2×2 procs → q = 1024

fn assert_bit_identical(a: &SimReport, b: &SimReport, tag: &str) {
    assert_eq!(a.mem, b.mem, "{tag}: mem");
    assert_eq!(a.values, b.values, "{tag}: values");
    assert_eq!(
        a.host_time.to_bits(),
        b.host_time.to_bits(),
        "{tag}: host_time {} vs {}",
        a.host_time,
        b.host_time
    );
    assert_eq!(
        a.guest_time.to_bits(),
        b.guest_time.to_bits(),
        "{tag}: guest_time"
    );
    assert_eq!(a.meter.ops, b.meter.ops, "{tag}: meter.ops");
    for (x, y, field) in [
        (a.meter.compute, b.meter.compute, "compute"),
        (a.meter.access, b.meter.access, "access"),
        (a.meter.transfer, b.meter.transfer, "transfer"),
        (a.meter.comm, b.meter.comm, "comm"),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{tag}: meter.{field} {x} vs {y}");
    }
    assert_eq!(a.space, b.space, "{tag}: space");
    assert_eq!(a.stages, b.stages, "{tag}: stages");
    assert_eq!(a.faults, b.faults, "{tag}: faults");
}

#[test]
fn naive1_pooled_is_bit_identical_to_serial() {
    let spec = MachineSpec::new(1, N1, P1, 1);
    let init = inputs::random_bits(90, N1 as usize);
    let prog = Eca::rule110();
    let plan = FaultPlan::none();
    let serial = naive1::try_simulate_naive1(
        &spec,
        &prog,
        &init,
        64,
        opts(plan, ExecPolicy::serial()),
        &mut Tracer::off(),
    )
    .unwrap();
    for threads in [2usize, 4, 8] {
        let pooled = naive1::try_simulate_naive1(
            &spec,
            &prog,
            &init,
            64,
            opts(plan, ExecPolicy::threads(threads)),
            &mut Tracer::off(),
        )
        .unwrap();
        assert_bit_identical(&serial, &pooled, &format!("naive1 t={threads}"));
    }
}

#[test]
fn naive1_pooled_is_bit_identical_under_faults() {
    let spec = MachineSpec::new(1, N1, P1, 1);
    let init = inputs::random_bits(91, N1 as usize);
    let prog = Eca::rule110();
    let plan = FaultPlan::uniform_slowdown(1.5)
        .seed(91)
        .loss(50, 3)
        .random_crashes(10);
    let serial = naive1::try_simulate_naive1(
        &spec,
        &prog,
        &init,
        48,
        opts(plan, ExecPolicy::serial()),
        &mut Tracer::off(),
    )
    .unwrap();
    assert!(serial.faults.injected_delay > 0.0, "plan must be active");
    let pooled = naive1::try_simulate_naive1(
        &spec,
        &prog,
        &init,
        48,
        opts(plan, ExecPolicy::threads(4)),
        &mut Tracer::off(),
    )
    .unwrap();
    assert_bit_identical(&serial, &pooled, "naive1 faulted");
}

#[test]
fn naive2_pooled_is_bit_identical_to_serial() {
    let spec = MachineSpec::new(2, N2, P2, 1);
    let init = inputs::random_bits(92, N2 as usize);
    let prog = VonNeumannLife::fredkin();
    let plan = FaultPlan::none();
    let serial = naive2::try_simulate_naive2(
        &spec,
        &prog,
        &init,
        12,
        opts(plan, ExecPolicy::serial()),
        &mut Tracer::off(),
    )
    .unwrap();
    for threads in [2usize, 4] {
        let pooled = naive2::try_simulate_naive2(
            &spec,
            &prog,
            &init,
            12,
            opts(plan, ExecPolicy::threads(threads)),
            &mut Tracer::off(),
        )
        .unwrap();
        assert_bit_identical(&serial, &pooled, &format!("naive2 t={threads}"));
    }
}

#[test]
fn naive2_pooled_is_bit_identical_under_faults() {
    let spec = MachineSpec::new(2, N2, P2, 1);
    let init = inputs::random_bits(93, N2 as usize);
    let prog = VonNeumannLife::fredkin();
    let plan = FaultPlan::uniform_slowdown(2.0).seed(93).loss(40, 2);
    let serial = naive2::try_simulate_naive2(
        &spec,
        &prog,
        &init,
        12,
        opts(plan, ExecPolicy::serial()),
        &mut Tracer::off(),
    )
    .unwrap();
    assert!(serial.faults.injected_delay > 0.0, "plan must be active");
    let pooled = naive2::try_simulate_naive2(
        &spec,
        &prog,
        &init,
        12,
        opts(plan, ExecPolicy::threads(4)),
        &mut Tracer::off(),
    )
    .unwrap();
    assert_bit_identical(&serial, &pooled, "naive2 faulted");
}

/// A guest program that panics at one vertex — drives the
/// panic-propagation path of the pool through a whole engine.
struct PanicAt {
    v: usize,
    t: i64,
}

impl LinearProgram for PanicAt {
    fn m(&self) -> usize {
        1
    }
    fn delta(&self, v: usize, t: i64, _own: Word, prev: Word, left: Word, right: Word) -> Word {
        if v == self.v && t == self.t {
            panic!("injected guest panic at ({v}, {t})");
        }
        prev ^ left ^ right
    }
}

#[test]
fn worker_panic_surfaces_as_sim_error_not_hang() {
    let spec = MachineSpec::new(1, N1, P1, 1);
    let init = inputs::random_bits(94, N1 as usize);
    let prog = PanicAt { v: 700, t: 3 };
    for exec in [ExecPolicy::serial(), ExecPolicy::threads(4)] {
        let err = naive1::try_simulate_naive1(
            &spec,
            &prog,
            &init,
            8,
            opts(FaultPlan::none(), exec),
            &mut Tracer::off(),
        )
        .unwrap_err();
        match err {
            SimError::HostPanic { ref message } => {
                assert!(message.contains("injected guest panic"), "{message}");
            }
            other => panic!("expected HostPanic, got {other:?}"),
        }
    }
}

#[test]
fn pool_handles_more_procs_than_workers_and_single_proc() {
    // p tasks spread over fewer workers…
    let pool = StagePool::new(2);
    let mut out = vec![0.0; 37];
    pool.run_stage(37, &mut out, |i| (i as f64).sin()).unwrap();
    let mut expect = vec![0.0; 37];
    StagePool::new(1)
        .run_stage(37, &mut expect, |i| (i as f64).sin())
        .unwrap();
    assert_eq!(out, expect);

    // …and the degenerate single-item stage on a wide pool.
    let pool = StagePool::new(8);
    let mut one = vec![0.0; 1];
    pool.run_stage(1, &mut one, |i| i as f64 + 2.5).unwrap();
    assert_eq!(one, vec![2.5]);
}

#[test]
fn policy_caps_never_exceed_item_count() {
    for (p, threads) in [(1usize, 16usize), (3, 16), (16, 2)] {
        let pool = StagePool::for_procs(p, ExecPolicy::threads(threads));
        assert!(pool.threads() <= p.max(1));
        assert!(pool.threads() <= threads);
        let mut out = vec![0.0; p];
        pool.run_stage(p, &mut out, |i| i as f64).unwrap();
        assert_eq!(out, (0..p).map(|i| i as f64).collect::<Vec<_>>());
    }
}
