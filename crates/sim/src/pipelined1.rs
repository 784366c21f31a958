//! The **pipelined-memory machine** of Section 6: memories that "permit
//! issuing a memory request before all the previous ones have been
//! satisfied".
//!
//! Cost rule: a *batch* of `k` accesses whose maximum address is `X`
//! costs `f(X) + k` (one worst-case latency, then one word per unit
//! time), instead of the non-pipelined `Σ (1 + f(x_i))`.  Under this
//! rule the naive step-by-step simulation incurs **no locality
//! slowdown**: each guest step batches the processor's `n/p` accesses
//! for a cost of `(n/p)^{1/d} + Θ(n/p) = Θ(n/p)` — Brent's principle is
//! restored even under bounded-speed propagation, at the hardware price
//! of `Θ(p·(n/p)^{1/d})` in-flight requests (quantified in
//! `bsmp_analytic::extensions`).

use bsmp_faults::{FaultEnv, FaultSession};
use bsmp_hram::{CostMeter, Word};
use bsmp_machine::{lease_scratch, linear_guest_time, LinearProgram, MachineSpec, StageClock};
use bsmp_trace::{EngineKind, RunMeta, Tracer};

use crate::error::SimError;
use crate::report::SimReport;
use crate::{settle_scenario, stage_totals, RunOpts};

/// Naive simulation of `M_1(n, n, m)` on a pipelined-memory
/// `M_1(n, p, m)` host, with preconditions checked.  Reads `opts.plan`;
/// the tracer observes each stage and the report is bit-identical
/// either way.
pub fn try_simulate_pipelined1(
    spec: &MachineSpec,
    prog: &impl LinearProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
) -> Result<SimReport, SimError> {
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
    let plan = &opts.plan;
    plan.validate()?;
    let q = n / p;
    let access = spec.access_fn();
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

    // Functional state (plain vectors; the pipelined cost is computed
    // per batch, not per access).
    let mut mem = init.to_vec();
    let mut prev: Vec<Word> = (0..n).map(|v| mem[v * m + prog.cell(v, 0)]).collect();
    let mut next = vec![0 as Word; n];
    let mut clock = StageClock::new();
    let mut meter = CostMeter::new();

    let mut scratch = lease_scratch(p);
    tracer.ensure_procs(p);
    for t in 1..=steps {
        tracer.begin_stage("step");
        let tally = tracer.tally();
        for pi in 0..p {
            // The step's batch: one private-cell read + one write per
            // hosted node, plus the value-row traffic (2 reads + 1 write
            // per node) — all pipelined.
            let mut max_addr = 0usize;
            let mut k = 0usize;
            for j in 0..q {
                let v = pi * q + j;
                let c = prog.cell(v, t);
                max_addr = max_addr.max(j * m + c);
                k += 5;
                let left = if v == 0 { prog.boundary() } else { prev[v - 1] };
                let right = if v == n - 1 {
                    prog.boundary()
                } else {
                    prev[v + 1]
                };
                let own = mem[v * m + c];
                let out = prog.delta(v, t, own, prev[v], left, right);
                mem[v * m + c] = out;
                next[v] = out;
            }
            // Batch cost: one worst-case latency + one unit per word,
            // plus the unchanged near-neighbor exchanges.
            let local = access.f(max_addr.max(q * m + 2 * q)) + k as f64 + q as f64;
            let mut comm = 0.0;
            let mut msgs = 0u64;
            if pi > 0 {
                comm += 2.0 * hop;
                msgs += 2;
            }
            if pi + 1 < p {
                comm += 2.0 * hop;
                msgs += 2;
            }
            if let Some(tl) = tally {
                tl.add(pi, q as u64, msgs);
            }
            meter.add_transfer(local);
            meter.add_comm(comm);
            scratch.per_proc[pi] = local + comm;
            scratch.per_comm[pi] = comm;
        }
        clock.add_stage_faulted(&scratch.per_proc, &scratch.per_comm, &mut session)?;
        tracer.end_stage(stage_totals(&clock, &session.stats), 1);
        std::mem::swap(&mut prev, &mut next);
    }
    settle_scenario(&mut clock, &mut session, tracer, 1);

    let guest_time = linear_guest_time(spec, prog, steps);
    tracer.finish_run(
        RunMeta {
            engine: EngineKind::Pipelined1,
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
        values: prev,
        host_time: clock.parallel_time,
        guest_time,
        meter,
        space: n * m / p + 2 * q,
        stages: clock.stages,
        faults: session.into_stats(),
        core_fallback: None,
    })
}

/// [`try_simulate_pipelined1`] with default options; panics on invalid
/// parameters.
pub fn simulate_pipelined1(
    spec: &MachineSpec,
    prog: &impl LinearProgram,
    init: &[Word],
    steps: i64,
) -> SimReport {
    try_simulate_pipelined1(
        spec,
        prog,
        init,
        steps,
        RunOpts::default(),
        &mut Tracer::off(),
    )
    .unwrap_or_else(|e| panic!("pipelined1: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_machine::run_linear;
    use bsmp_workloads::{inputs, Eca};

    #[test]
    fn matches_direct_execution() {
        let n = 64u64;
        let init = inputs::random_bits(80, n as usize);
        for p in [1u64, 4, 16] {
            let spec = MachineSpec::new(1, n, p, 1);
            let guest = run_linear(&spec, &Eca::rule110(), &init, n as i64);
            let rep = simulate_pipelined1(&spec, &Eca::rule110(), &init, n as i64);
            rep.assert_matches(&guest.mem, &guest.values);
        }
    }

    #[test]
    fn no_locality_slowdown() {
        // Section 6's claim: slowdown Θ(n/p), not (n/p)².
        let n = 256u64;
        let init = inputs::random_bits(81, n as usize);
        for p in [2u64, 4, 8, 16] {
            let spec = MachineSpec::new(1, n, p, 1);
            let rep = simulate_pipelined1(&spec, &Eca::rule110(), &init, 64);
            let brent = (n / p) as f64;
            let s = rep.slowdown();
            assert!(
                s > 0.4 * brent && s < 4.0 * brent,
                "p={p}: {s} vs Brent {brent}"
            );
        }
    }

    #[test]
    fn beats_non_pipelined_naive_by_the_locality_factor() {
        let (n, p) = (256u64, 4u64);
        let init = inputs::random_bits(82, n as usize);
        let spec = MachineSpec::new(1, n, p, 1);
        let pip = simulate_pipelined1(&spec, &Eca::rule110(), &init, 64);
        let nav = crate::naive1::simulate_naive1(&spec, &Eca::rule110(), &init, 64);
        let factor = nav.host_time / pip.host_time;
        // The removed locality slowdown is Θ(n/p) = 64.
        assert!(factor > 8.0, "pipelining wins ×{factor}");
    }
}
