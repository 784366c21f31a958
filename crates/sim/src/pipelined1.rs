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

use bsmp_hram::{CostMeter, Word};
use bsmp_machine::{GuestSteps, LinearProgram, MachineSpec};
use bsmp_trace::{EngineKind, Tracer};

use crate::error::SimError;
use crate::procs::StageHost;
use crate::report::SimReport;
use crate::RunOpts;

/// Naive simulation of `M_1(n, n, m)` on a pipelined-memory
/// `M_1(n, p, m)` host, with preconditions checked.  Reads `opts.plan`;
/// the tracer observes each stage and the report is bit-identical
/// either way.
///
/// Each stage is one [`GuestSteps`] step of the guest.  Every cell the
/// program touches is `< m` (the guest step checks it in debug builds),
/// so a batch's top address `j·m + c` stays at most `q·m − 1`, below
/// the value rows' top `q·m + 2q`: every processor's batch costs the
/// same `f(q·m + 2q) + 5q + q` at every step.
pub fn try_simulate_pipelined1(
    spec: &MachineSpec,
    prog: &impl LinearProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
    tracer: &mut Tracer,
) -> Result<SimReport, SimError> {
    let mut host = StageHost::for_spec(
        EngineKind::Pipelined1,
        spec,
        steps,
        prog.m(),
        init.len(),
        &opts.plan,
        tracer,
    )?;
    let p = spec.p as usize;
    let m = prog.m();
    let q = spec.n as usize / p;
    let hop = spec.neighbor_distance();
    // The step's batch: one private-cell read + one write per hosted
    // node, plus the value-row traffic (2 reads + 1 write per node) —
    // all pipelined.  One worst-case latency + one unit per word, plus
    // the unchanged near-neighbor exchanges.
    let local = spec.access_fn().f(q * m + 2 * q) + (5 * q) as f64 + q as f64;

    let mut guest = GuestSteps::<1>::new(spec, prog, init);
    let mut meter = CostMeter::new();
    for t in 1..=steps {
        host.begin_stage("step", []);
        guest.step(prog, t);
        for pi in 0..p {
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
            host.tally(pi, q as u64, msgs);
            meter.add_transfer(local);
            meter.add_comm(comm);
            host.cost[pi] = local + comm;
            host.comm[pi] = comm;
        }
        host.close_stage(1, [])?;
    }

    let run = guest.into_run();
    Ok(host.finish(
        run.mem,
        run.values,
        run.time,
        meter,
        spec.node_mem() as usize + 2 * q,
    ))
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
    use bsmp_machine::run_guest;
    use bsmp_workloads::{inputs, Eca};

    #[test]
    fn matches_direct_execution() {
        let n = 64u64;
        let init = inputs::random_bits(80, n as usize);
        for p in [1u64, 4, 16] {
            let spec = MachineSpec::new(1, n, p, 1);
            let guest = run_guest::<1>(&spec, &Eca::rule110(), &init, n as i64);
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
        let nav = crate::naive::simulate_naive::<1>(&spec, &Eca::rule110(), &init, 64);
        let factor = nav.host_time / pip.host_time;
        // The removed locality slowdown is Θ(n/p) = 64.
        assert!(factor > 8.0, "pipelining wins ×{factor}");
    }
}
