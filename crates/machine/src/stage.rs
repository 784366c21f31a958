//! The bulk-synchronous parallel clock.
//!
//! Every multiprocessor simulation in the paper is organized in
//! *stages* (relocation levels of Regime 1, the `2p-1` diamond stages of
//! Regime 2, …): within a stage the `p` processors work independently,
//! and the machine advances to the next stage when the slowest finishes.
//! Parallel model time is therefore `T_p = Σ_stages max_proc cost`.
//!
//! [`StageClock`] tracks that sum (and the total *busy* work, for
//! efficiency metrics).  [`StageClock::add_stage_faulted`] routes a
//! stage's costs through a [`FaultSession`] first, so fault injection
//! happens at the single point where stage costs enter the clock.  The
//! per-processor work of a stage runs on a persistent
//! [`StagePool`](crate::pool::StagePool); model time stays deterministic
//! because each worker returns its own model cost.

use bsmp_faults::{FaultSession, ScenarioExhausted};

/// Deterministic parallel-time accumulator.
#[derive(Clone, Debug, Default)]
pub struct StageClock {
    /// `Σ_stages max_proc cost` — the parallel model time `T_p`.
    pub parallel_time: f64,
    /// `Σ_stages Σ_proc cost` — aggregate busy time (for efficiency =
    /// busy / (p × parallel)).
    pub busy_time: f64,
    /// `Σ_stages Σ_proc comm` — aggregate distance-weighted communication
    /// delay, as declared to [`add_stage_faulted`](Self::add_stage_faulted)
    /// (fault-free component; observability only, never fed back into
    /// model time).
    pub comm_time: f64,
    /// `Σ_stages Σ_proc` *delivered* communication charge after the
    /// scenario layer: echo-corrected, link-table-scaled, including
    /// storm-queued traffic released on heal.  Equals [`comm_time`](Self::comm_time)
    /// under `FaultPlan::none`.
    pub faulted_comm_time: f64,
    /// Number of stages closed so far.
    pub stages: u64,
}

impl StageClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Close a stage given each processor's cost in it.
    pub fn add_stage(&mut self, per_proc: &[f64]) {
        let mx = per_proc.iter().copied().fold(0.0f64, f64::max);
        self.parallel_time += mx;
        self.busy_time += per_proc.iter().sum::<f64>();
        self.stages += 1;
    }

    /// Close a stage after routing it through a fault session:
    /// `per_proc` are the fault-free costs, `per_comm` the communication
    /// components (`per_comm[i] ≤ per_proc[i]`).  With an empty plan
    /// this is exactly [`add_stage`](Self::add_stage).
    ///
    /// Errs when the scenario's churn retry budget is exhausted; the
    /// clock is left at the last fully-closed stage.
    pub fn add_stage_faulted(
        &mut self,
        per_proc: &[f64],
        per_comm: &[f64],
        session: &mut FaultSession,
    ) -> Result<(), ScenarioExhausted> {
        let outcome = session.try_apply_stage(per_proc, per_comm)?;
        self.comm_time += per_comm.iter().sum::<f64>();
        self.faulted_comm_time += outcome.faulted_comm;
        self.add_stage(&outcome.costs);
        Ok(())
    }

    /// Close the run's settlement stage, if the scenario still owes one
    /// (storm-queued traffic or churn debt outstanding at the end of the
    /// work loop).  Returns whether a stage was added.
    pub fn settle_faulted(&mut self, session: &mut FaultSession) -> bool {
        match session.settle() {
            Some(outcome) => {
                self.faulted_comm_time += outcome.faulted_comm;
                self.add_stage(&outcome.costs);
                true
            }
            None => false,
        }
    }

    /// Parallel efficiency over `p` processors (`≤ 1`).
    pub fn efficiency(&self, p: u64) -> f64 {
        if self.parallel_time == 0.0 {
            return 1.0;
        }
        self.busy_time / (p as f64 * self.parallel_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_faults::{FaultEnv, FaultPlan};

    #[test]
    fn parallel_time_is_sum_of_maxima() {
        let mut c = StageClock::new();
        c.add_stage(&[1.0, 5.0, 2.0]);
        c.add_stage(&[4.0, 4.0, 4.0]);
        assert_eq!(c.parallel_time, 9.0);
        assert_eq!(c.busy_time, 20.0);
        assert_eq!(c.stages, 2);
    }

    #[test]
    fn efficiency_bounded_by_one() {
        let mut c = StageClock::new();
        c.add_stage(&[3.0, 3.0]);
        assert!((c.efficiency(2) - 1.0).abs() < 1e-12);
        c.add_stage(&[6.0, 0.0]);
        assert!(c.efficiency(2) < 1.0);
    }

    #[test]
    fn faulted_stage_with_empty_plan_matches_add_stage() {
        let mut plain = StageClock::new();
        let mut faulted = StageClock::new();
        let mut session = FaultSession::inactive();
        plain.add_stage(&[2.0, 3.0]);
        faulted
            .add_stage_faulted(&[2.0, 3.0], &[1.0, 1.0], &mut session)
            .unwrap();
        assert_eq!(plain.parallel_time, faulted.parallel_time);
        assert_eq!(plain.busy_time, faulted.busy_time);
        assert_eq!(faulted.comm_time, 2.0);
        assert_eq!(faulted.faulted_comm_time, 2.0);
        assert!(!faulted.settle_faulted(&mut session));
    }

    #[test]
    fn faulted_stage_inflates_clock() {
        let plan = FaultPlan::uniform_slowdown(2.0);
        let env = FaultEnv {
            p: 2,
            hop: 1.0,
            checkpoint_words: 0,
            proc_side: 1,
        };
        let mut session = FaultSession::new(&plan, env);
        let mut c = StageClock::new();
        c.add_stage_faulted(&[4.0, 4.0], &[2.0, 2.0], &mut session)
            .unwrap();
        // base = 4 + (2−1)·2 = 6 on both processors.
        assert_eq!(c.parallel_time, 6.0);
        assert_eq!(c.busy_time, 12.0);
        // Delivered comm is the ν-scaled echo-corrected charge: 2·2·2.
        assert_eq!(c.faulted_comm_time, 8.0);
    }

    #[test]
    fn exhausted_churn_surfaces_as_error_not_panic() {
        let plan = FaultPlan::none().churn(1_000, 50, 0, 1.0);
        let env = FaultEnv {
            p: 1,
            hop: 1.0,
            checkpoint_words: 0,
            proc_side: 1,
        };
        let mut session = FaultSession::new(&plan, env);
        let mut c = StageClock::new();
        let err = c
            .add_stage_faulted(&[4.0], &[1.0], &mut session)
            .unwrap_err();
        assert_eq!(err.proc, 0);
        assert_eq!(c.stages, 0, "failed stage must not close the clock");
    }
}
