//! Dense/event core equivalence (DESIGN.md §16): the sparse event core
//! of naive1/naive2 must be **bit-identical** to the dense stage loops
//! in every model-visible quantity.  The property is checked *after
//! every stage* by running every prefix length `k = 0..=T` through both
//! cores — the state after stage `k` is exactly the output of the
//! `k`-step run, so prefix equality is stage-by-stage equality — under
//! no-fault and active fault plans and across host thread budgets
//! {1, 2, 8}.

use bsmp::workloads::{inputs, Eca, TokenShift, VonNeumannLife};
use bsmp::{CoreKind, FaultPlan, LinearProgram, SimReport, Simulation, Strategy, Word};

const THREADS: [usize; 3] = [1, 2, 8];

fn plans() -> [FaultPlan; 2] {
    [FaultPlan::none(), FaultPlan::uniform_slowdown(2.0)]
}

/// Everything the model can observe must agree to the bit.
/// (`meter.table_hits` is deliberately excluded: it is an
/// observability counter, and bit-identical engine variants may take
/// different table-metered paths.)
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

/// Run the naive scheme on one core of the linear façade.
#[allow(clippy::too_many_arguments)]
fn run1(
    n: u64,
    p: u64,
    threads: usize,
    plan: &FaultPlan,
    core: CoreKind,
    prog: &impl LinearProgram,
    init: &[Word],
    steps: i64,
) -> SimReport {
    Simulation::linear(n, p, 1)
        .strategy(Strategy::Naive)
        .threads(threads)
        .faults(*plan)
        .core(core)
        .run(prog, init, steps)
        .sim
}

#[test]
fn naive1_event_matches_dense_at_every_prefix() {
    let (n, p, t) = (64u64, 4u64, 32i64);
    for seed in [11u64, 23] {
        let init = inputs::random_bits(seed, n as usize);
        for plan in &plans() {
            for &threads in &THREADS {
                for k in 0..=t {
                    let tag = format!("naive1 seed={seed} threads={threads} k={k}");
                    let dense = run1(
                        n,
                        p,
                        threads,
                        plan,
                        CoreKind::Dense,
                        &Eca::rule110(),
                        &init,
                        k,
                    );
                    let event = run1(
                        n,
                        p,
                        threads,
                        plan,
                        CoreKind::Event,
                        &Eca::rule110(),
                        &init,
                        k,
                    );
                    assert_bit_identical(&dense, &event, &tag);
                }
            }
        }
    }
}

#[test]
fn naive1_event_matches_dense_on_sparse_frontier() {
    // A one-hot token is the event core's best case: almost every node
    // is quiescent at every stage, so the lazily materialised regions
    // and activity frontier carry the whole run.
    let (n, p, t) = (256u64, 4u64, 64i64);
    let mut init = vec![0u64; n as usize];
    init[n as usize / 2] = 1;
    for plan in &plans() {
        for &threads in &THREADS {
            for k in 0..=t {
                let tag = format!("token threads={threads} k={k}");
                let prog = TokenShift::new(0);
                let dense = run1(n, p, threads, plan, CoreKind::Dense, &prog, &init, k);
                let event = run1(n, p, threads, plan, CoreKind::Event, &prog, &init, k);
                assert_bit_identical(&dense, &event, &tag);
            }
        }
    }
}

fn run2(threads: usize, plan: &FaultPlan, core: CoreKind, init: &[Word], steps: i64) -> SimReport {
    Simulation::mesh(256, 16, 1)
        .strategy(Strategy::Naive)
        .threads(threads)
        .faults(*plan)
        .core(core)
        .run_mesh(&VonNeumannLife::fredkin(), init, steps)
        .sim
}

#[test]
fn naive2_event_matches_dense_at_every_prefix() {
    let t = 16i64;
    let init = inputs::random_bits(51, 256);
    for plan in &plans() {
        for &threads in &THREADS {
            for k in 0..=t {
                let tag = format!("naive2 threads={threads} k={k}");
                let dense = run2(threads, plan, CoreKind::Dense, &init, k);
                let event = run2(threads, plan, CoreKind::Event, &init, k);
                assert_bit_identical(&dense, &event, &tag);
            }
        }
    }
}

/// A program that reads the clock (so `time_invariant` stays at its
/// `false` default): the event core must silently delegate to the
/// dense loop, because quiescence-based frontier skipping is unsound
/// when `δ` can change a node's value without any operand changing.
struct Clocked;
impl LinearProgram for Clocked {
    fn m(&self) -> usize {
        1
    }
    fn delta(&self, _v: usize, t: i64, _own: Word, prev: Word, left: Word, right: Word) -> Word {
        prev ^ left ^ right ^ (t as Word & 1)
    }
}

#[test]
fn event_core_delegates_for_time_varying_programs() {
    let (n, p, t) = (64u64, 4u64, 24i64);
    let init = inputs::random_bits(77, n as usize);
    for k in [0i64, 1, t] {
        let dense = run1(
            n,
            p,
            1,
            &FaultPlan::none(),
            CoreKind::Dense,
            &Clocked,
            &init,
            k,
        );
        let event = run1(
            n,
            p,
            1,
            &FaultPlan::none(),
            CoreKind::Event,
            &Clocked,
            &init,
            k,
        );
        assert_bit_identical(&dense, &event, &format!("clocked k={k}"));
    }
}

/// A program whose operator reads the clock: quiescence is unsound for
/// it (a node with unchanged operands can still change value when `t`
/// does), so the event core must refuse to take it — and say why.
struct ClockStripe;

impl LinearProgram for ClockStripe {
    fn m(&self) -> usize {
        1
    }
    fn delta(&self, _v: usize, t: i64, own: Word, _prev: Word, left: Word, right: Word) -> Word {
        own.wrapping_add(left)
            .wrapping_add(right)
            .wrapping_add(t as Word)
    }
    fn time_invariant(&self) -> bool {
        false
    }
}

#[test]
fn clock_reading_program_surfaces_fallback_reason() {
    let (n, p, steps) = (64u64, 4u64, 16i64);
    let init = inputs::random_bits(9, n as usize);

    // The event core refuses a clock-reading program and the report says
    // why — this is the only precondition violated at this scale
    // (steps ≥ 1, m = 1, q = 16 ≥ 3).
    let sim = Simulation::try_linear(n, p, 1)
        .unwrap()
        .strategy(Strategy::Naive)
        .core(CoreKind::Event);
    let rep = sim.try_run(&ClockStripe, &init, steps).unwrap();
    assert_eq!(
        rep.sim.core_fallback,
        Some("clock-reading program (quiescence unsound)")
    );

    // The dense loop never delegates, so it reports no fallback; and a
    // quiescence-sound program on the event core reports none either.
    let dense = Simulation::try_linear(n, p, 1)
        .unwrap()
        .strategy(Strategy::Naive)
        .try_run(&ClockStripe, &init, steps)
        .unwrap();
    assert_eq!(dense.sim.core_fallback, None);
    assert_eq!(dense.sim.mem, rep.sim.mem, "fallback is still bit-exact");
    let sound = Simulation::try_linear(n, p, 1)
        .unwrap()
        .strategy(Strategy::Naive)
        .core(CoreKind::Event)
        .try_run(&Eca::rule110(), &init, steps)
        .unwrap();
    assert_eq!(sound.sim.core_fallback, None);

    // The footprint probe carries the same reason in its stats.
    let spec = bsmp::machine::MachineSpec::new(1, n, p, 1);
    let (_, st) =
        bsmp::sim::event1::naive1_event_footprint(&spec, &ClockStripe, &init, steps).unwrap();
    assert!(!st.used_event_core);
    assert_eq!(
        st.fallback,
        Some("clock-reading program (quiescence unsound)")
    );
}
