//! Event-driven sparse core for the `d = 1` naive simulation.
//!
//! The dense [`crate::naive1`] stage loop visits all `n` guest nodes
//! every stage.  Its *meters*, however, are input-independent: at unit
//! density the tiled kernel charges each processor the same
//! `6·(n/p) - 2` table-served accesses per stage, at addresses fixed by
//! geometry and row parity alone, and its communication ledger depends
//! only on which block edges have neighbors.  This core exploits that
//! split:
//!
//! * **meters** are replicated per *edge class* (west edge / interior /
//!   east edge — at most three distinct per-processor cost streams) in
//!   exact dyadic units, reproducing the dense kernel's
//!   [`bsmp_hram::CostMeter`] trajectories bit-for-bit in O(p) per
//!   stage (see DESIGN.md §16 for the exactness argument);
//! * **values** advance through a [`bsmp_machine::Frontier`]: a node is
//!   re-evaluated at stage `t` only if a neighborhood member changed at
//!   `t - 1`, and quiescent regions stay represented by the initial
//!   image inside a copy-on-write [`bsmp_machine::SparseState`].
//!
//! A stage therefore costs O(active points + p), not O(n), which is
//! what lets `M_1` runs at `n = 2^20` finish in milliseconds.  Runs
//! outside the core's preconditions (multi-cell programs, clock-reading
//! programs, tiny blocks, or an exact-unit budget overflow) fall back
//! to the dense loop, so every caller gets a bit-identical report
//! either way.

use bsmp_faults::{FaultEnv, FaultSession};
use bsmp_hram::{CostMeter, CostTable, Word};
use bsmp_machine::{lease_scratch, Frontier, LinearProgram, MachineSpec, SparseState, StageClock};
use bsmp_trace::{EngineKind, RunMeta, Tracer};

use crate::error::SimError;
use crate::naive1::try_simulate_naive1_impl;
use crate::report::SimReport;
use crate::RunOpts;
use crate::{settle_scenario, stage_totals};

/// Resident-footprint and activity statistics of an event-core run
/// (the `bench --mem` probe).
#[derive(Clone, Copy, Debug, Default)]
pub struct EventCoreStats {
    /// Guest nodes.
    pub nodes: usize,
    /// Peak resident bytes of the core's state (copy-on-write pages +
    /// page table + frontier buffer + write buffer).  The borrowed
    /// initial image and the final report are not core state.
    pub peak_bytes: usize,
    /// Largest per-stage candidate set.
    pub peak_active: usize,
    /// Total candidate evaluations across all stages.
    pub total_active: u64,
    /// False when the run fell back to the dense loop.
    pub used_event_core: bool,
    /// The delegation precondition that forced a dense fallback
    /// (`None` when the event core actually ran).
    pub fallback: Option<&'static str>,
}

impl EventCoreStats {
    /// Peak resident bytes per guest node.
    pub fn bytes_per_node(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.peak_bytes as f64 / self.nodes as f64
        }
    }
}

/// Run the event core fault-free and report its resident footprint
/// alongside the simulation report (the `bench --mem` probe).
pub fn naive1_event_footprint(
    spec: &MachineSpec,
    prog: &impl LinearProgram,
    init: &[Word],
    steps: i64,
) -> Result<(SimReport, EventCoreStats), SimError> {
    let mut stats = EventCoreStats::default();
    let (opts, off) = (RunOpts::default(), &mut Tracer::off());
    let rep = try_simulate_naive1_event(spec, prog, init, steps, opts, off, Some(&mut stats))?;
    Ok((rep, stats))
}

/// Per-edge-class replica of one processor's dense meter trajectory.
struct EdgeClass {
    meter: CostMeter,
    /// Communication hops (= messages) this class's processor charges
    /// per stage: 2 per live block edge.
    hops: u64,
    cost: f64,
    comm_delta: f64,
}

impl EdgeClass {
    fn new(hops: u64) -> Self {
        EdgeClass {
            meter: CostMeter::new(),
            hops,
            cost: 0.0,
            comm_delta: 0.0,
        }
    }
}

/// The dense naive1 stage loop ([`crate::naive1::try_simulate_naive1`])
/// on the event core.  Bit-identical report and trace; falls back to the
/// dense loop when the run does not satisfy the core's preconditions.
/// `stats` receives the core's footprint (the `bench --mem` probe).
pub(crate) fn try_simulate_naive1_event(
    spec: &MachineSpec,
    prog: &impl LinearProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
    mut stats: Option<&mut EventCoreStats>,
) -> Result<SimReport, SimError> {
    let (plan, exec) = (&opts.plan, opts.exec);
    let n = spec.n as usize;
    let p = spec.p as usize;
    let m = prog.m();
    if spec.d != 1 {
        return Err(SimError::DimensionMismatch {
            expected: 1,
            got: spec.d,
        });
    }
    if m as u64 != spec.m {
        return Err(SimError::DensityMismatch {
            spec_m: spec.m,
            prog_m: m as u64,
        });
    }
    if init.len() != n * m {
        return Err(SimError::InitLength {
            expected: n * m,
            got: init.len(),
        });
    }
    if !n.is_multiple_of(p) {
        return Err(SimError::IndivisibleProcessors {
            n: spec.n,
            p: spec.p,
        });
    }
    plan.validate()?;
    let q = n / p;
    let access = spec.access_fn();
    let table = CostTable::new(access, q * m + 2 * q);
    let per_proc_accesses = (steps.max(0) as u64)
        .saturating_mul(6)
        .saturating_mul(q as u64);
    let exact = table
        .exact_units()
        .filter(|_| table.units_budget_ok(per_proc_accesses));
    // The event core needs the dense kernel's m = 1 fast path (so the
    // per-processor charge stream is input-independent and exactly
    // dyadic) and a clock-oblivious program (so quiescence is sound).
    let eligible = steps >= 1 && m == 1 && q >= 3 && prog.time_invariant() && exact.is_some();
    if !eligible {
        let reason = if steps < 1 {
            "no guest steps to schedule"
        } else if m != 1 {
            "multi-cell program (event core needs m = 1)"
        } else if q < 3 {
            "per-processor block too small (q < 3)"
        } else if !prog.time_invariant() {
            "clock-reading program (quiescence unsound)"
        } else {
            "exact-unit budget overflow"
        };
        if let Some(st) = stats.as_deref_mut() {
            st.nodes = n;
            st.used_event_core = false;
            st.fallback = Some(reason);
        }
        let mut rep = try_simulate_naive1_impl(spec, prog, init, steps, opts, tracer, false)?;
        rep.core_fallback = Some(reason);
        return Ok(rep);
    }
    let e = exact.expect("eligibility checked");
    let hop = spec.neighbor_distance();
    let mut session = FaultSession::new(
        plan,
        FaultEnv {
            p,
            hop,
            checkpoint_words: spec.node_mem(),
            proc_side: 1,
        },
    );

    // The dense kernel's per-stage charge stream, in exact units (see
    // naive1::try_simulate_naive1_impl): 2q block touches at addresses
    // summing to q(q-1)/2, plus the parity-selected value-row spans.
    let va = q * m;
    let vb = q * m + q;
    let m1_addr_sum = (q as u64 * (q as u64 - 1)) / 2;
    let row_units = {
        let rows = |rp: usize, rn: usize| {
            let lr = if q >= 2 {
                e.span_units(rp, rp + q - 2) + e.span_units(rp + 1, rp + q - 1)
            } else {
                0
            };
            lr + e.span_units(rp, rp + q - 1) + e.span_units(rn, rn + q - 1)
        };
        [rows(va, vb), rows(vb, va)]
    };
    let block_units = {
        let (base, slope) = e.affine();
        2 * q as u64 * base + 2 * slope * m1_addr_sum
    };
    let accesses = 6 * q as u64 - 2;
    let mut units: u64 = 0;

    // ≤ 3 distinct per-processor meter trajectories: the two block-edge
    // processors charge 2 hops per stage (one inbound edge value, one
    // outbound), interior processors 4; a lone processor charges none.
    let (mut classes, class_of): (Vec<EdgeClass>, fn(usize, usize) -> usize) = if p == 1 {
        (vec![EdgeClass::new(0)], |_pi, _p| 0)
    } else {
        (
            vec![EdgeClass::new(2), EdgeClass::new(4), EdgeClass::new(2)],
            |pi, p| {
                if pi == 0 {
                    0
                } else if pi + 1 == p {
                    2
                } else {
                    1
                }
            },
        )
    };

    // Same worker count the dense path would report in the trace (the
    // event core has no per-stage fan-out to thread).
    let threads = if exec.resolved().min(p) > 1 && q >= 256 {
        exec.resolved().min(p.max(1))
    } else {
        1
    };

    let mut clock = StageClock::new();
    let mut scratch = lease_scratch(p);
    tracer.ensure_procs(p);

    // Sparse value state: copy-on-write pages over the initial image
    // (m = 1, so the image is the step-0 value row), plus the activity
    // frontier.
    let mut state = SparseState::new(init);
    let mut frontier = Frontier::new();
    let mut writes: Vec<(usize, Word)> = Vec::new();
    if let Some(st) = stats.as_deref_mut() {
        st.nodes = n;
        st.used_event_core = true;
    }

    for t in 1..=steps {
        tracer.begin_stage("step");
        let tally = tracer.tally();

        // Meters: replay the dense kernel's per-stage mutations on each
        // class replica.  `units` is processor-independent, so one
        // accumulator serves every class.
        let stage_row_units = row_units[if t % 2 == 1 { 0 } else { 1 }];
        units += block_units + stage_row_units;
        let access_time = e.time(units);
        for class in classes.iter_mut() {
            let comm_before = class.meter.comm;
            let t0 = class.meter.total();
            let mut comm = 0.0;
            for _ in 0..class.hops {
                comm += hop;
            }
            class.meter.access = access_time;
            class.meter.ops += accesses;
            class.meter.add_table_hits(accesses);
            class.meter.add_compute(q as f64);
            class.meter.add_comm(comm);
            class.cost = class.meter.total() - t0;
            class.comm_delta = class.meter.comm - comm_before;
        }

        // Values: evaluate this stage's candidates (all nodes at stage
        // 1, the frontier afterwards), gather-then-write, and schedule
        // the neighborhoods of changed nodes.
        writes.clear();
        let mut active = 0usize;
        {
            let mut eval = |v: usize| {
                let own = state.get(v);
                let left = if v == 0 {
                    prog.boundary()
                } else {
                    state.get(v - 1)
                };
                let right = if v == n - 1 {
                    prog.boundary()
                } else {
                    state.get(v + 1)
                };
                let out = prog.delta(v, t, own, own, left, right);
                if out != own {
                    writes.push((v, out));
                }
            };
            if t == 1 {
                active = n;
                for v in 0..n {
                    eval(v);
                }
            } else {
                for v in frontier.drain() {
                    active += 1;
                    eval(v);
                }
            }
        }
        for &(v, out) in &writes {
            state.set(v, out);
            if v > 0 {
                frontier.mark(v - 1);
            }
            frontier.mark(v);
            if v + 1 < n {
                frontier.mark(v + 1);
            }
        }

        // Expand the class replicas into the per-processor stage shape
        // and close the stage exactly as the dense loop does.
        for pi in 0..p {
            let class = &classes[class_of(pi, p)];
            scratch.per_proc[pi] = class.cost;
            scratch.per_comm[pi] = class.comm_delta;
            if let Some(tl) = tally {
                tl.add(pi, q as u64, class.hops);
            }
        }
        clock.add_stage_faulted(&scratch.per_proc, &scratch.per_comm, &mut session)?;
        tracer.end_stage(stage_totals(&clock, &session.stats), threads);

        if let Some(st) = stats.as_deref_mut() {
            let resident = state.bytes_resident()
                + frontier.bytes()
                + writes.capacity() * std::mem::size_of::<(usize, Word)>();
            st.peak_bytes = st.peak_bytes.max(resident);
            st.peak_active = st.peak_active.max(active);
            st.total_active += active as u64;
        }
    }
    settle_scenario(&mut clock, &mut session, tracer, threads);

    let values = state.materialize();
    let mem = values.clone(); // m = 1: the block row mirrors the values
    let meter = (0..p).fold(CostMeter::new(), |acc, pi| {
        acc.merged(&classes[class_of(pi, p)].meter)
    });
    // Guest model time, replayed in O(steps): at m = 1 every node
    // touches cell 0, so the per-step max over nodes is the (identical)
    // cost of node 0 (see bsmp_machine::linear_guest_time).
    let guest_time = {
        let guest = spec.guest_of();
        let gaccess = guest.access_fn();
        let ghop = guest.neighbor_distance();
        let mut time = 0.0;
        for t in 1..=steps {
            time += 2.0 * gaccess.charge(prog.cell(0, t)) + 2.0 * ghop + 1.0;
        }
        time
    };
    tracer.finish_run(
        RunMeta {
            engine: EngineKind::Naive1,
            d: 1,
            n: spec.n,
            m: spec.m,
            p: spec.p,
            steps: steps.max(0) as u64,
        },
        clock.parallel_time,
        guest_time,
    );
    Ok(SimReport {
        mem,
        values,
        host_time: clock.parallel_time,
        guest_time,
        meter,
        // The dense kernel reserves the full table span on every
        // processor (Hram::reserve_table), so S is the table length.
        space: table.len(),
        stages: clock.stages,
        faults: session.into_stats(),
        core_fallback: None,
    })
}
