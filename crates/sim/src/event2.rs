//! Event-driven sparse core for the `d = 2` naive simulation.
//!
//! The same meters/values split as [`crate::event1`], adapted to the
//! mesh.  The `d = 2` access charges are irrational, so the dense tiled
//! kernel ([`crate::naive2`]) meters through a *register chain*: a
//! single f64 accumulator replaying table lookups in point order.  Two
//! observations make that replicable without touching all processors:
//!
//! * the chain's addend sequence depends only on the block-local
//!   position `(ii, jj)` and the row parity — a missing in-block
//!   neighbor contributes nothing whether the point sits at the mesh
//!   border or at a processor boundary — so **every processor's chain
//!   is the same chain**, and one O(q)-per-stage replay serves all `p`;
//! * communication differs only by the number of adjacent host sides
//!   `s ∈ {0, 2, 3, 4}`, giving ≤ 4 distinct per-processor meter
//!   trajectories (corner / edge / interior / lone), each replayed with
//!   its exact `s·b`-hop chain plus the outbound product term.
//!
//! Values advance through the same copy-on-write
//! [`bsmp_machine::SparseState`] + [`bsmp_machine::Frontier`] pair, on
//! the von Neumann neighborhood.  Ineligible runs (multi-cell or
//! clock-reading programs) fall back to the dense loop.

use bsmp_faults::{FaultEnv, FaultSession};
use bsmp_hram::{CostMeter, CostTable, Word};
use bsmp_machine::{lease_scratch, Frontier, MachineSpec, MeshProgram, SparseState, StageClock};
use bsmp_trace::{EngineKind, RunMeta, Tracer};

use crate::error::SimError;
use crate::event1::EventCoreStats;
use crate::naive2::try_simulate_naive2_impl;
use crate::report::SimReport;
use crate::RunOpts;
use crate::{settle_scenario, stage_totals};

/// Run the event core fault-free and report its resident footprint
/// alongside the simulation report (the `bench --mem` probe).
pub fn naive2_event_footprint(
    spec: &MachineSpec,
    prog: &impl MeshProgram,
    init: &[Word],
    steps: i64,
) -> Result<(SimReport, EventCoreStats), SimError> {
    let mut stats = EventCoreStats::default();
    let (opts, off) = (RunOpts::default(), &mut Tracer::off());
    let rep = try_simulate_naive2_event(spec, prog, init, steps, opts, off, Some(&mut stats))?;
    Ok((rep, stats))
}

/// Per-side-class replica of one processor's dense meter trajectory.
struct SideClass {
    meter: CostMeter,
    /// Adjacent host-grid sides (0, 2, 3, or 4).
    sides: usize,
    cost: f64,
    comm_delta: f64,
}

/// The dense naive2 stage loop ([`crate::naive2::try_simulate_naive2`])
/// on the event core.  Bit-identical report and trace; falls back to the
/// dense loop when the run does not satisfy the core's preconditions.
/// `stats` receives the core's footprint (the `bench --mem` probe).
pub(crate) fn try_simulate_naive2_event(
    spec: &MachineSpec,
    prog: &impl MeshProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
    mut stats: Option<&mut EventCoreStats>,
) -> Result<SimReport, SimError> {
    let (plan, exec) = (&opts.plan, opts.exec);
    if spec.d != 2 {
        return Err(SimError::DimensionMismatch {
            expected: 2,
            got: spec.d,
        });
    }
    let side = spec.mesh_side() as usize;
    let n = side * side;
    let sp = spec.proc_side() as usize;
    let m = prog.m();
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
    if !side.is_multiple_of(sp) {
        return Err(SimError::IndivisibleMeshSide {
            side: side as u64,
            proc_side: sp as u64,
        });
    }
    plan.validate()?;
    let eligible = steps >= 1 && m == 1 && prog.time_invariant();
    if !eligible {
        let reason = if steps < 1 {
            "no guest steps to schedule"
        } else if m != 1 {
            "multi-cell program (event core needs m = 1)"
        } else {
            "clock-reading program (quiescence unsound)"
        };
        if let Some(st) = stats.as_deref_mut() {
            st.nodes = n;
            st.used_event_core = false;
            st.fallback = Some(reason);
        }
        let mut rep = try_simulate_naive2_impl(spec, prog, init, steps, opts, tracer, false)?;
        rep.core_fallback = Some(reason);
        return Ok(rep);
    }
    let b = side / sp;
    let q = b * b;
    let p = sp * sp;
    let access = spec.access_fn();
    let hop = spec.neighbor_distance();
    let mut session = FaultSession::new(
        plan,
        FaultEnv {
            p,
            hop,
            checkpoint_words: spec.node_mem(),
            proc_side: sp,
        },
    );
    let va = q * m;
    let vb = q * m + q;
    let table = CostTable::new(access, q * m + 2 * q);
    let accesses = 8 * q as u64 - 4 * b as u64;

    // ≤ 4 distinct per-processor meter trajectories, keyed by the number
    // of adjacent host sides.
    let sides_of = |pid: usize| {
        let (pi_, pj) = (pid % sp, pid / sp);
        let mut s = 0usize;
        if pi_ > 0 {
            s += 1;
        }
        if pi_ + 1 < sp {
            s += 1;
        }
        if pj > 0 {
            s += 1;
        }
        if pj + 1 < sp {
            s += 1;
        }
        s
    };
    let mut class_idx = [usize::MAX; 5];
    let mut classes: Vec<SideClass> = Vec::new();
    let class_map: Vec<usize> = (0..p)
        .map(|pid| {
            let s = sides_of(pid);
            if class_idx[s] == usize::MAX {
                class_idx[s] = classes.len();
                classes.push(SideClass {
                    meter: CostMeter::new(),
                    sides: s,
                    cost: 0.0,
                    comm_delta: 0.0,
                });
            }
            class_idx[s]
        })
        .collect();

    let threads = if exec.resolved().min(p) > 1 && q >= 256 {
        exec.resolved().min(p.max(1))
    } else {
        1
    };

    let mut clock = StageClock::new();
    let mut scratch = lease_scratch(p);
    tracer.ensure_procs(p);

    // m = 1: the initial value plane is the initial image itself.
    let mut state = SparseState::new(init);
    let mut frontier = Frontier::new();
    let mut writes: Vec<(usize, Word)> = Vec::new();
    if let Some(st) = stats.as_deref_mut() {
        st.nodes = n;
        st.used_event_core = true;
    }

    // The shared access chain: the dense kernel's register accumulator,
    // continued across stages.  At m = 1 the touched block address of
    // local point `l` is `l` itself, so the addend sequence is fixed by
    // (ii, jj, parity) alone.
    let mut acc = 0.0f64;
    let cb = table.charges();

    for t in 1..=steps {
        tracer.begin_stage("step");
        let tally = tracer.tally();

        // Replay the chain for this stage (identical for every
        // processor): border rows in point order, interior rows with the
        // branch-free middle — the same iteration the dense kernel runs.
        let (rp, rn) = if t % 2 == 1 { (va, vb) } else { (vb, va) };
        let cbp = &cb[rp..rp + q];
        let cbn = &cb[rn..rn + q];
        {
            let point_acc = |ii: usize, jj: usize, acc: &mut f64| {
                let l = jj * b + ii;
                *acc += cb[l];
                if ii > 0 {
                    *acc += cbp[l - 1];
                }
                if ii + 1 < b {
                    *acc += cbp[l + 1];
                }
                if jj > 0 {
                    *acc += cbp[l - b];
                }
                if jj + 1 < b {
                    *acc += cbp[l + b];
                }
                *acc += cbp[l];
                *acc += cb[l];
                *acc += cbn[l];
            };
            for jj in 0..b {
                if jj == 0 || jj + 1 == b {
                    for ii in 0..b {
                        point_acc(ii, jj, &mut acc);
                    }
                    continue;
                }
                point_acc(0, jj, &mut acc);
                for ii in 1..b - 1 {
                    let l = jj * b + ii;
                    acc += cb[l];
                    acc += cbp[l - 1];
                    acc += cbp[l + 1];
                    acc += cbp[l - b];
                    acc += cbp[l + b];
                    acc += cbp[l];
                    acc += cb[l];
                    acc += cbn[l];
                }
                point_acc(b - 1, jj, &mut acc);
            }
        }

        for class in classes.iter_mut() {
            let comm_before = class.meter.comm;
            let t0 = class.meter.total();
            // In-loop hops (one per cross-processor fetch, b per
            // adjacent side), then the outbound product term — the
            // dense kernel's exact add sequence.
            let mut comm = 0.0;
            for _ in 0..class.sides * b {
                comm += hop;
            }
            class.meter.access = acc;
            class.meter.ops += accesses;
            class.meter.add_table_hits(accesses);
            class.meter.add_compute(q as f64);
            comm += (class.sides * b) as f64 * hop;
            class.meter.add_comm(comm);
            class.cost = class.meter.total() - t0;
            class.comm_delta = class.meter.comm - comm_before;
        }

        // Values on the von Neumann neighborhood: gather-then-write.
        writes.clear();
        let mut active = 0usize;
        {
            let bd = prog.boundary();
            let mut eval = |v: usize| {
                let (i, j) = (v % side, v / side);
                let own = state.get(v);
                let w = if i > 0 { state.get(v - 1) } else { bd };
                let e = if i + 1 < side { state.get(v + 1) } else { bd };
                let s = if j > 0 { state.get(v - side) } else { bd };
                let nn = if j + 1 < side {
                    state.get(v + side)
                } else {
                    bd
                };
                let out = prog.delta(i, j, t, own, own, w, e, s, nn);
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
                for v in frontier.drain(t) {
                    active += 1;
                    eval(v);
                }
            }
        }
        for &(v, out) in &writes {
            state.set(v, out);
            let (i, j) = (v % side, v / side);
            frontier.mark(t + 1, v);
            if i > 0 {
                frontier.mark(t + 1, v - 1);
            }
            if i + 1 < side {
                frontier.mark(t + 1, v + 1);
            }
            if j > 0 {
                frontier.mark(t + 1, v - side);
            }
            if j + 1 < side {
                frontier.mark(t + 1, v + side);
            }
        }

        for pid in 0..p {
            let class = &classes[class_map[pid]];
            scratch.per_proc[pid] = class.cost;
            scratch.per_comm[pid] = class.comm_delta;
            if let Some(tl) = tally {
                tl.add(pid, q as u64, 2 * (class.sides * b) as u64);
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
    let mem = values.clone(); // m = 1: blocks hold the final values
    let meter = (0..p).fold(CostMeter::new(), |acc_m, pid| {
        acc_m.merged(&classes[class_map[pid]].meter)
    });
    // Guest model time, replayed in O(steps): at m = 1 every node
    // touches cell 0, so the per-step max over nodes is the (identical)
    // cost of node (0, 0) (see bsmp_machine::mesh_guest_time).
    let guest_time = {
        let guest = spec.guest_of();
        let gaccess = guest.access_fn();
        let ghop = guest.neighbor_distance();
        let mut time = 0.0;
        for t in 1..=steps {
            time += 2.0 * gaccess.charge(prog.cell(0, 0, t)) + 4.0 * ghop + 1.0;
        }
        time
    };
    tracer.finish_run(
        RunMeta {
            engine: EngineKind::Naive2,
            d: 2,
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
