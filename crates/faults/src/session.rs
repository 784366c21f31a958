//! Per-run fault state: turns a [`FaultPlan`] plus the machine
//! environment into per-stage cost adjustments and accumulated
//! accounting.
//!
//! The session is the single choke point through which every engine's
//! stage costs flow (`StageClock::add_stage_faulted` in
//! `bsmp-machine` calls [`FaultSession::try_apply_stage`]).  All draws
//! are stateless hashes of `(seed, kind, stage, proc)`, so the injected
//! costs are bit-reproducible per seed and independent of host thread
//! count; the churn and storm families additionally keep small
//! per-processor state vectors (down/debt/queue) that are updated in
//! processor order inside the single-threaded stage close.

use std::error::Error;
use std::fmt;

use crate::plan::{
    ChurnModel, CrashModel, FaultPlan, LinkModel, LossModel, OutageModel, SlowdownModel, PARETO_CAP,
};
use crate::rng::{hash4, unit_f64};

/// Tags separating the fault kinds in the stateless hash, so the same
/// `(stage, proc)` coordinate draws independently for each kind.
const KIND_JITTER: u64 = 0x4A49;
const KIND_LOSS: u64 = 0x4C4F;
const KIND_CRASH: u64 = 0x4352;
/// Second, independent uniform for the Box–Muller lognormal draw.
const KIND_GAUSS: u64 = 0x474E;
/// Static per-direction link-asymmetry factors.
const KIND_ASYM: u64 = 0x4153;
/// Churn leave draws.
const KIND_CHURN: u64 = 0x4348;

/// Machine-side facts a session needs to price recovery traffic.
#[derive(Clone, Copy, Debug)]
pub struct FaultEnv {
    /// Number of host processors.
    pub p: usize,
    /// Distance (in the host metric) to the nearest neighbour — the hop
    /// charge used for checkpoint/restore traffic and churn backoff.
    pub hop: f64,
    /// Words per checkpoint image (one processor's memory share).
    pub checkpoint_words: u64,
    /// Side of the processor mesh for `d = 2` hosts (0 or 1 for linear
    /// hosts); keys [`Region::contains`](crate::plan::Region::contains)
    /// for tile-shaped outage regions.
    pub proc_side: usize,
}

impl FaultEnv {
    /// Environment for a run with no fault plan attached; the values
    /// are never read because the empty plan takes the fast path.
    pub fn trivial() -> Self {
        FaultEnv {
            p: 1,
            hop: 1.0,
            checkpoint_words: 0,
            proc_side: 1,
        }
    }
}

/// Fault accounting accumulated over a run, reported in `SimReport`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultStats {
    /// Total message retries charged across all stages and processors.
    pub retries: u64,
    /// Stages replayed due to a crash or churn rejoin (one per event).
    pub recovered_stages: u64,
    /// Crash events injected.
    pub crashes: u64,
    /// Extra parallel time attributable to faults:
    /// `Σ_stages max(faulted stage max − fault-free stage max, 0)`.
    pub injected_delay: f64,
    /// Processor-stages spent inside an active partition storm window.
    pub outage_stages: u64,
    /// Communication charge queued behind a partition (delivered at
    /// heal or settlement).
    pub deferred_comm: f64,
    /// Partition heal events (catch-up deliveries charged).
    pub heals: u64,
    /// Churn leave events.
    pub departures: u64,
    /// Churn rejoin events (deferred work + restore charged).
    pub rejoins: u64,
    /// Redelivery attempts to churned-away processors.
    pub backoff_retries: u64,
    /// Total exponential-backoff delay charged while retrying.
    pub backoff_delay: f64,
}

/// The churn redelivery policy ran out of retries: a processor stayed
/// away longer than the configured `max_retries` redelivery attempts.
/// Carries the partial statistics accumulated up to the failing stage so
/// callers can degrade gracefully instead of panicking.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioExhausted {
    /// Stage at which redelivery gave up.
    pub stage: u64,
    /// The unreachable processor.
    pub proc: usize,
    /// Accounting up to (and including) the failing stage.
    pub stats: FaultStats,
}

impl fmt::Display for ScenarioExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scenario exhausted at stage {}: processor {} unreachable after {} redelivery attempts",
            self.stage, self.proc, self.stats.backoff_retries
        )
    }
}

impl Error for ScenarioExhausted {}

/// The priced result of one stage close.
#[derive(Clone, Debug, PartialEq)]
pub struct StageOutcome {
    /// Faulted per-processor costs, in processor order.
    pub costs: Vec<f64>,
    /// Communication charge actually delivered this stage (slowdown- and
    /// asymmetry-inflated, minus anything queued behind a partition),
    /// for the clock's faulted comm ledger.
    pub faulted_comm: f64,
}

/// Per-processor churn/storm state.
#[derive(Clone, Debug, Default)]
struct ProcState {
    /// Processor is currently churned away.
    down: bool,
    /// First stage at which a down processor may rejoin.
    down_until: u64,
    /// Work deferred while down, repaid on rejoin.
    debt: f64,
    /// Consecutive redelivery attempts while down.
    attempts: u32,
    /// Comm queued behind an active partition, repaid on heal.
    queued_comm: f64,
    /// Processor was inside a storm window and has not healed yet.
    was_out: bool,
}

/// Live fault state for one engine run: the plan, the environment, a
/// global stage counter, per-processor scenario state, and the
/// accumulated statistics.
#[derive(Clone, Debug)]
pub struct FaultSession {
    plan: FaultPlan,
    env: FaultEnv,
    stage: u64,
    procs: Vec<ProcState>,
    /// Static per-processor link-asymmetry multipliers (mean of the two
    /// directions), keyed by the hop distance; all 1 when symmetric.
    asym: Vec<f64>,
    /// Accounting, read out into the report when the run finishes.
    pub stats: FaultStats,
}

impl FaultSession {
    pub fn new(plan: &FaultPlan, env: FaultEnv) -> Self {
        let asym = match plan.link {
            LinkModel::Symmetric => Vec::new(),
            LinkModel::Asymmetric { spread } => (0..env.p)
                .map(|i| {
                    // One independent static factor per link direction,
                    // keyed by the neighbor distance so different-`hop`
                    // machines draw different tables from one seed.
                    let key = plan.seed ^ KIND_ASYM;
                    let out = 1.0 + spread * unit_f64(hash4(key, 0, i as u64, env.hop.to_bits()));
                    let inb = 1.0 + spread * unit_f64(hash4(key, 1, i as u64, env.hop.to_bits()));
                    0.5 * (out + inb)
                })
                .collect(),
        };
        FaultSession {
            plan: *plan,
            env,
            stage: 0,
            procs: vec![ProcState::default(); env.p],
            asym,
            stats: FaultStats::default(),
        }
    }

    /// A session that injects nothing (for engines run without a plan).
    pub fn inactive() -> Self {
        FaultSession::new(&FaultPlan::none(), FaultEnv::trivial())
    }

    /// The static per-processor link table (asymmetry multipliers), all
    /// 1 for symmetric links.
    pub fn link_table(&self) -> &[f64] {
        &self.asym
    }

    /// Static asymmetry multiplier for processor `proc`.
    pub fn asym_factor(&self, proc: usize) -> f64 {
        self.asym.get(proc).copied().unwrap_or(1.0)
    }

    /// Link slowdown factor `ν ≥ 1` for `(stage, proc)`: the slowdown
    /// model's draw times the static per-direction asymmetry factor.
    pub fn link_factor(&self, stage: u64, proc: usize) -> f64 {
        let dist = match self.plan.slowdown {
            SlowdownModel::None => 1.0,
            SlowdownModel::Constant(nu) => nu,
            SlowdownModel::Jitter { lo, hi } => {
                let u = unit_f64(hash4(self.plan.seed, KIND_JITTER, stage, proc as u64));
                lo + u * (hi - lo)
            }
            SlowdownModel::Lognormal { mu, sigma } => {
                // Box–Muller over two independent uniforms; 1 − u1 keeps
                // the log argument in (0, 1].
                let u1 = unit_f64(hash4(self.plan.seed, KIND_JITTER, stage, proc as u64));
                let u2 = unit_f64(hash4(self.plan.seed, KIND_GAUSS, stage, proc as u64));
                let z = (-2.0 * (1.0 - u1).ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (mu + sigma * z).exp().max(1.0)
            }
            SlowdownModel::Pareto { xm, alpha } => {
                let u = unit_f64(hash4(self.plan.seed, KIND_JITTER, stage, proc as u64));
                (xm * (1.0 - u).powf(-1.0 / alpha)).min(PARETO_CAP)
            }
        };
        dist * self.asym_factor(proc)
    }

    /// Number of delivery retries for `(stage, proc)`: consecutive
    /// failed Bernoulli draws, capped at `max_retries`.
    pub fn retries(&self, stage: u64, proc: usize) -> u64 {
        match self.plan.loss {
            LossModel::None => 0,
            LossModel::Bernoulli {
                loss_permille,
                max_retries,
            } => {
                let pr = f64::from(loss_permille) / 1000.0;
                let mut r = 0u64;
                while r < u64::from(max_retries) {
                    let u = unit_f64(hash4(
                        self.plan.seed,
                        KIND_LOSS ^ r.rotate_left(13),
                        stage,
                        proc as u64,
                    ));
                    if u >= pr {
                        break;
                    }
                    r += 1;
                }
                r
            }
        }
    }

    /// Whether processor `proc` crashes at the end of stage `stage`.
    pub fn crashed(&self, stage: u64, proc: usize) -> bool {
        match self.plan.crash {
            CrashModel::None => false,
            CrashModel::AtStage { stage: s, proc: q } => s == stage && q == proc,
            CrashModel::Random { crash_permille } => {
                let pr = f64::from(crash_permille) / 1000.0;
                unit_f64(hash4(self.plan.seed, KIND_CRASH, stage, proc as u64)) < pr
            }
        }
    }

    /// Whether a storm window is active at `stage`.
    fn storm_active(&self, stage: u64) -> bool {
        match self.plan.outage {
            OutageModel::None => false,
            OutageModel::Storm {
                onset,
                duration,
                period,
                ..
            } => {
                if stage < onset {
                    return false;
                }
                let off = stage - onset;
                let phase = if period > 0 { off % period } else { off };
                phase < duration
            }
        }
    }

    fn in_region(&self, proc: usize) -> bool {
        match self.plan.outage {
            OutageModel::None => false,
            OutageModel::Storm { region, .. } => region.contains(proc, self.env.proc_side),
        }
    }

    /// Apply the plan to one bulk-synchronous stage.
    ///
    /// `total[i]` is processor `i`'s full stage cost (computation plus
    /// its half of the communication charge); `comm[i]` is the
    /// communication component alone, so `comm[i] ≤ total[i]`.
    ///
    /// The per-processor pricing, in order:
    ///
    /// ```text
    /// ν_i    = slowdown draw × static asymmetry factor
    /// ec_i   = (1 + r_i)·ν_i·comm_i          (inflated + retried comm)
    /// base_i = total_i − comm_i + ec_i
    /// cost_i = base_i                              (no crash)
    /// cost_i = 2·base_i + checkpoint_words·hop·ν_i (crash)
    /// ```
    ///
    /// then the stateful families adjust it:
    ///
    /// * a churned-away processor defers `cost_i` entirely and charges
    ///   only the exponential redelivery backoff — or ends the run with
    ///   [`ScenarioExhausted`] once `max_retries` attempts have failed;
    /// * a rejoining processor pays its deferred debt plus a checkpoint
    ///   restore;
    /// * a processor inside an active storm window queues `ec_i` for
    ///   later and pays only its local part; the first post-window stage
    ///   charges the queued catch-up delivery.
    ///
    /// Always advances the global stage counter; the empty plan returns
    /// `total` unchanged (bit-identically).
    pub fn try_apply_stage(
        &mut self,
        total: &[f64],
        comm: &[f64],
    ) -> Result<StageOutcome, ScenarioExhausted> {
        let stage = self.stage;
        self.stage += 1;
        if self.plan.is_none() {
            return Ok(StageOutcome {
                costs: total.to_vec(),
                faulted_comm: comm.iter().sum(),
            });
        }
        debug_assert_eq!(total.len(), comm.len());
        if self.procs.len() < total.len() {
            self.procs.resize(total.len(), ProcState::default());
        }
        let churn = match self.plan.churn {
            ChurnModel::None => None,
            ChurnModel::Poisson {
                leave_permille,
                down_stages,
                max_retries,
                backoff_hops,
            } => Some((
                f64::from(leave_permille) / 1000.0,
                down_stages,
                max_retries,
                backoff_hops,
            )),
        };
        let storm_now = self.storm_active(stage);
        let raw_max = total.iter().cloned().fold(0.0, f64::max);
        let mut costs = Vec::with_capacity(total.len());
        let mut faulted_comm = 0.0;
        for (i, (&t, &c)) in total.iter().zip(comm.iter()).enumerate() {
            let nu = self.link_factor(stage, i);
            let r = self.retries(stage, i);
            self.stats.retries += r;
            let eff_comm = (1.0 + r as f64) * nu * c;
            let base = t - c + eff_comm;
            let mut cost = if self.crashed(stage, i) {
                self.stats.crashes += 1;
                self.stats.recovered_stages += 1;
                2.0 * base + self.env.checkpoint_words as f64 * self.env.hop * nu
            } else {
                base
            };

            // Churn: leave draws, redelivery backoff, rejoin catch-up.
            let mut rejoining = false;
            if let Some((p_leave, down_stages, max_retries, backoff_hops)) = churn {
                if self.procs[i].down {
                    if stage >= self.procs[i].down_until {
                        self.procs[i].down = false;
                        rejoining = true;
                    }
                } else {
                    let u = unit_f64(hash4(self.plan.seed, KIND_CHURN, stage, i as u64));
                    if u < p_leave {
                        self.procs[i].down = true;
                        self.procs[i].down_until = stage + down_stages;
                        self.stats.departures += 1;
                    }
                }
                if self.procs[i].down {
                    // Away: defer the work, charge only the redelivery
                    // backoff, and give up once retries are exhausted.
                    self.procs[i].debt += cost;
                    self.procs[i].attempts += 1;
                    if self.procs[i].attempts > max_retries {
                        return Err(ScenarioExhausted {
                            stage,
                            proc: i,
                            stats: self.stats.clone(),
                        });
                    }
                    let backoff = self.env.hop
                        * backoff_hops
                        * f64::exp2(f64::from(self.procs[i].attempts - 1));
                    self.stats.backoff_retries += 1;
                    self.stats.backoff_delay += backoff;
                    costs.push(backoff);
                    continue;
                }
                if rejoining {
                    let restore = self.env.checkpoint_words as f64 * self.env.hop * nu;
                    cost += self.procs[i].debt + restore;
                    self.procs[i].debt = 0.0;
                    self.procs[i].attempts = 0;
                    self.stats.rejoins += 1;
                    self.stats.recovered_stages += 1;
                }
            }

            // Partition storm: queue cross-partition traffic while the
            // window is open, charge the catch-up delivery on heal.
            if self.in_region(i) {
                if storm_now {
                    self.procs[i].queued_comm += eff_comm;
                    cost -= eff_comm;
                    self.procs[i].was_out = true;
                    self.stats.outage_stages += 1;
                    self.stats.deferred_comm += eff_comm;
                    costs.push(cost);
                    continue;
                }
                if self.procs[i].was_out {
                    cost += self.procs[i].queued_comm;
                    faulted_comm += self.procs[i].queued_comm;
                    self.procs[i].queued_comm = 0.0;
                    self.procs[i].was_out = false;
                    self.stats.heals += 1;
                }
            }
            faulted_comm += eff_comm;
            costs.push(cost);
        }
        let faulted_max = costs.iter().cloned().fold(0.0, f64::max);
        // Deferral can make a stage *cheaper* than its fault-free self;
        // injected delay only accumulates genuine extra critical path.
        self.stats.injected_delay += (faulted_max - raw_max).max(0.0);
        Ok(StageOutcome {
            costs,
            faulted_comm,
        })
    }

    /// Whether outstanding scenario state (churn debt, an unfinished
    /// down period, or storm-queued traffic) still needs a settlement
    /// stage before the run can close.
    pub fn needs_settlement(&self) -> bool {
        self.procs
            .iter()
            .any(|ps| ps.down || ps.debt > 0.0 || ps.queued_comm > 0.0 || ps.was_out)
    }

    /// Close out the scenario: deliver all storm-queued traffic and
    /// repay all churn debt (plus restores for still-down processors) in
    /// one final settlement stage.  Returns `None` when nothing is
    /// outstanding.
    pub fn settle(&mut self) -> Option<StageOutcome> {
        if !self.needs_settlement() {
            return None;
        }
        let stage = self.stage;
        self.stage += 1;
        let mut costs = vec![0.0; self.procs.len()];
        let mut faulted_comm = 0.0;
        for (i, cost) in costs.iter_mut().enumerate() {
            let nu = self.link_factor(stage, i);
            let restore = self.env.checkpoint_words as f64 * self.env.hop * nu;
            let ps = &mut self.procs[i];
            if ps.down || ps.debt > 0.0 {
                *cost += ps.debt + restore;
                ps.debt = 0.0;
                ps.attempts = 0;
                ps.down = false;
                self.stats.rejoins += 1;
                self.stats.recovered_stages += 1;
            }
            if ps.queued_comm > 0.0 || ps.was_out {
                *cost += ps.queued_comm;
                faulted_comm += ps.queued_comm;
                ps.queued_comm = 0.0;
                ps.was_out = false;
                self.stats.heals += 1;
            }
        }
        let mx = costs.iter().cloned().fold(0.0, f64::max);
        self.stats.injected_delay += mx;
        Some(StageOutcome {
            costs,
            faulted_comm,
        })
    }

    /// Stages processed so far (the global stage counter).
    pub fn stages_seen(&self) -> u64 {
        self.stage
    }

    /// Take the accumulated statistics out of the session.
    pub fn into_stats(self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Region;

    fn env(p: usize) -> FaultEnv {
        FaultEnv {
            p,
            hop: 1.0,
            checkpoint_words: 8,
            proc_side: 1,
        }
    }

    fn apply(s: &mut FaultSession, total: &[f64], comm: &[f64]) -> Vec<f64> {
        s.try_apply_stage(total, comm).expect("not exhausted").costs
    }

    #[test]
    fn empty_plan_is_identity() {
        let mut s = FaultSession::inactive();
        let total = [3.0, 5.0, 4.0];
        let comm = [1.0, 2.0, 0.0];
        let out = s.try_apply_stage(&total, &comm).unwrap();
        assert_eq!(out.costs, total.to_vec());
        assert_eq!(out.faulted_comm, 3.0);
        assert_eq!(s.stats, FaultStats::default());
        assert_eq!(s.stages_seen(), 1);
        assert!(!s.needs_settlement());
        assert_eq!(s.settle(), None);
    }

    #[test]
    fn constant_slowdown_inflates_only_comm() {
        let plan = FaultPlan::uniform_slowdown(3.0);
        let mut s = FaultSession::new(&plan, env(2));
        let out = apply(&mut s, &[10.0, 10.0], &[4.0, 0.0]);
        // base = total + (ν−1)·comm
        assert_eq!(out, vec![10.0 + 2.0 * 4.0, 10.0]);
        assert!((s.stats.injected_delay - 8.0).abs() < 1e-12);
        assert_eq!(s.stats.retries, 0);
        assert_eq!(s.stats.crashes, 0);
    }

    #[test]
    fn slowdown_bounded_by_nu_times_total() {
        let plan = FaultPlan::uniform_slowdown(4.0);
        let mut s = FaultSession::new(&plan, env(3));
        let total = [7.0, 9.0, 11.0];
        let comm = [7.0, 3.0, 0.5];
        let out = apply(&mut s, &total, &comm);
        for (i, &o) in out.iter().enumerate() {
            assert!(o >= total[i]);
            assert!(o <= 4.0 * total[i] + 1e-12);
        }
    }

    #[test]
    fn jitter_is_deterministic_and_in_range() {
        let plan = FaultPlan::none().seed(42).jitter(1.5, 2.5);
        let a = FaultSession::new(&plan, env(4));
        let b = FaultSession::new(&plan, env(4));
        for stage in 0..10 {
            for proc in 0..4 {
                let fa = a.link_factor(stage, proc);
                assert_eq!(fa, b.link_factor(stage, proc));
                assert!((1.5..2.5).contains(&fa));
            }
        }
        let other = FaultSession::new(&plan.seed(43), env(4));
        assert_ne!(a.link_factor(0, 0), other.link_factor(0, 0));
    }

    #[test]
    fn lognormal_and_pareto_draws_are_valid_and_deterministic() {
        for plan in [
            FaultPlan::none().seed(7).lognormal(0.3, 0.6),
            FaultPlan::none().seed(7).pareto(1.0, 1.5),
        ] {
            plan.validate().unwrap();
            let a = FaultSession::new(&plan, env(4));
            let b = FaultSession::new(&plan, env(4));
            let mut distinct = false;
            for stage in 0..64 {
                for proc in 0..4 {
                    let fa = a.link_factor(stage, proc);
                    assert_eq!(fa.to_bits(), b.link_factor(stage, proc).to_bits());
                    assert!(fa.is_finite() && fa >= 1.0, "factor {fa} out of range");
                    assert!(fa <= PARETO_CAP);
                    if (fa - a.link_factor(0, 0)).abs() > 1e-12 {
                        distinct = true;
                    }
                }
            }
            assert!(distinct, "distribution draws must vary across coordinates");
        }
    }

    #[test]
    fn asymmetric_links_are_static_and_distance_keyed() {
        let plan = FaultPlan::none().seed(11).asymmetric(1.0);
        let s = FaultSession::new(&plan, env(8));
        assert_eq!(s.link_table().len(), 8);
        let mut distinct = false;
        for i in 0..8 {
            let f = s.asym_factor(i);
            assert!((1.0..2.0).contains(&f));
            // Stage-independent: asymmetry is a static link property.
            assert_eq!(s.link_factor(0, i).to_bits(), s.link_factor(9, i).to_bits());
            if (f - s.asym_factor(0)).abs() > 1e-12 {
                distinct = true;
            }
        }
        assert!(distinct, "directions must differ across processors");
        // A different hop distance re-keys the table.
        let far = FaultSession::new(&plan, FaultEnv { hop: 2.0, ..env(8) });
        assert_ne!(s.asym_factor(0), far.asym_factor(0));
    }

    #[test]
    fn retries_capped_and_charged() {
        // Certain loss: every draw fails, so retries hit the cap.
        let plan = FaultPlan::none().loss(1000, 3);
        let mut s = FaultSession::new(&plan, env(1));
        assert_eq!(s.retries(0, 0), 3);
        let out = apply(&mut s, &[10.0], &[2.0]);
        // base = 10 + 0 + 3·1·2 = 16
        assert_eq!(out, vec![16.0]);
        assert_eq!(s.stats.retries, 3);
    }

    #[test]
    fn no_loss_draws_zero_retries() {
        let plan = FaultPlan::none().loss(0, 5);
        let s = FaultSession::new(&plan, env(1));
        for stage in 0..20 {
            assert_eq!(s.retries(stage, 0), 0);
        }
    }

    #[test]
    fn crash_at_stage_replays_and_restores() {
        let plan = FaultPlan::none().crash_at(1, 0);
        let mut s = FaultSession::new(&plan, env(2));
        let first = apply(&mut s, &[5.0, 5.0], &[1.0, 1.0]);
        assert_eq!(first, vec![5.0, 5.0]);
        let second = apply(&mut s, &[5.0, 5.0], &[1.0, 1.0]);
        // crashed proc 0: 2·5 + 8·1·1 = 18; proc 1 untouched.
        assert_eq!(second, vec![18.0, 5.0]);
        assert_eq!(s.stats.crashes, 1);
        assert_eq!(s.stats.recovered_stages, 1);
        let third = apply(&mut s, &[5.0, 5.0], &[1.0, 1.0]);
        assert_eq!(third, vec![5.0, 5.0]);
        assert_eq!(s.stats.crashes, 1);
    }

    #[test]
    fn storm_defers_comm_and_heals_with_catchup() {
        // One-shot storm over proc 0, stages [1, 3).
        let region = Region::Interval { lo: 0, hi: 1 };
        let plan = FaultPlan::none().storm(region, 1, 2, 0);
        let mut s = FaultSession::new(&plan, env(2));
        let total = [10.0, 10.0];
        let comm = [4.0, 4.0];

        let s0 = apply(&mut s, &total, &comm);
        assert_eq!(s0, vec![10.0, 10.0]);

        // Stages 1 and 2: proc 0's comm queues; it pays only local work.
        let s1 = apply(&mut s, &total, &comm);
        assert_eq!(s1, vec![6.0, 10.0]);
        let s2 = apply(&mut s, &total, &comm);
        assert_eq!(s2, vec![6.0, 10.0]);
        assert_eq!(s.stats.outage_stages, 2);
        assert!((s.stats.deferred_comm - 8.0).abs() < 1e-12);

        // Stage 3: heal — catch-up delivery of both queued charges.
        let s3 = apply(&mut s, &total, &comm);
        assert_eq!(s3, vec![10.0 + 8.0, 10.0]);
        assert_eq!(s.stats.heals, 1);
        assert!(!s.needs_settlement());
    }

    #[test]
    fn periodic_storm_repeats() {
        let region = Region::Interval { lo: 0, hi: 1 };
        let plan = FaultPlan::none().storm(region, 0, 1, 3);
        let s = FaultSession::new(&plan, env(1));
        let windows: Vec<bool> = (0..7).map(|st| s.storm_active(st)).collect();
        assert_eq!(windows, vec![true, false, false, true, false, false, true]);
    }

    #[test]
    fn storm_unhealed_at_end_settles() {
        let region = Region::Interval { lo: 0, hi: 1 };
        let plan = FaultPlan::none().storm(region, 0, 10, 0);
        let mut s = FaultSession::new(&plan, env(2));
        apply(&mut s, &[10.0, 10.0], &[4.0, 4.0]);
        assert!(s.needs_settlement());
        let out = s.settle().unwrap();
        assert_eq!(out.costs, vec![4.0, 0.0]);
        assert!((out.faulted_comm - 4.0).abs() < 1e-12);
        assert_eq!(s.stats.heals, 1);
        assert!(!s.needs_settlement());
    }

    #[test]
    fn churn_defers_and_rejoins_with_restore() {
        // Certain departure at stage 0, down for 2 stages, generous cap.
        let plan = FaultPlan::none().churn(1000, 2, 10, 1.0);
        let mut s = FaultSession::new(&plan, env(1));
        let total = [10.0];
        let comm = [2.0];

        // Stage 0: leaves immediately — backoff 1·1·2^0 = 1.
        let s0 = apply(&mut s, &total, &comm);
        assert_eq!(s0, vec![1.0]);
        assert_eq!(s.stats.departures, 1);
        // Stage 1: still down — backoff doubles.
        let s1 = apply(&mut s, &total, &comm);
        assert_eq!(s1, vec![2.0]);
        assert_eq!(s.stats.backoff_retries, 2);
        assert!((s.stats.backoff_delay - 3.0).abs() < 1e-12);
        // Stage 2: rejoin — pays this stage + 20 debt + 8-word restore.
        let s2 = apply(&mut s, &total, &comm);
        assert_eq!(s2, vec![10.0 + 20.0 + 8.0]);
        assert_eq!(s.stats.rejoins, 1);
        assert_eq!(s.stats.recovered_stages, 1);
        assert_eq!(s.stats.departures, 1);
        // Stage 3: up again, so the certain leave draw re-departs it.
        let s3 = apply(&mut s, &total, &comm);
        assert_eq!(s3, vec![1.0]);
        assert_eq!(s.stats.departures, 2);
    }

    #[test]
    fn churn_exhaustion_is_typed_not_a_panic() {
        // Down for 5 stages but only 2 redelivery attempts allowed.
        let plan = FaultPlan::none().churn(1000, 5, 2, 1.0);
        let mut s = FaultSession::new(&plan, env(1));
        let total = [10.0];
        let comm = [2.0];
        assert!(s.try_apply_stage(&total, &comm).is_ok());
        assert!(s.try_apply_stage(&total, &comm).is_ok());
        let err = s.try_apply_stage(&total, &comm).unwrap_err();
        assert_eq!(err.stage, 2);
        assert_eq!(err.proc, 0);
        assert_eq!(err.stats.departures, 1);
        assert_eq!(err.stats.backoff_retries, 2);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn churn_down_at_end_settles() {
        let plan = FaultPlan::none().churn(1000, 50, 100, 1.0);
        let mut s = FaultSession::new(&plan, env(1));
        apply(&mut s, &[10.0], &[2.0]);
        assert!(s.needs_settlement());
        let out = s.settle().unwrap();
        // debt 10 + restore 8.
        assert_eq!(out.costs, vec![18.0]);
        assert_eq!(s.stats.rejoins, 1);
        assert!(!s.needs_settlement());
        assert_eq!(s.settle(), None);
    }

    #[test]
    fn apply_stage_bit_reproducible() {
        let plan = FaultPlan::none()
            .seed(9)
            .lognormal(0.2, 0.4)
            .asymmetric(0.5)
            .loss(250, 4)
            .random_crashes(100)
            .storm(Region::Interval { lo: 1, hi: 3 }, 2, 3, 8)
            .churn(40, 2, 20, 1.0);
        let total = [4.0, 6.5, 3.25, 8.0];
        let comm = [1.0, 2.0, 0.25, 4.0];
        let mut a = FaultSession::new(&plan, env(4));
        let mut b = FaultSession::new(&plan, env(4));
        for _ in 0..50 {
            let xa = a.try_apply_stage(&total, &comm).unwrap();
            let xb = b.try_apply_stage(&total, &comm).unwrap();
            assert_eq!(xa, xb);
        }
        assert_eq!(a.settle(), b.settle());
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn injected_delay_tracks_stage_max_difference() {
        let plan = FaultPlan::uniform_slowdown(2.0);
        let mut s = FaultSession::new(&plan, env(2));
        // raw max = 10; faulted: [10+3, 10] → max 13; delta 3.
        apply(&mut s, &[10.0, 10.0], &[3.0, 0.0]);
        assert!((s.stats.injected_delay - 3.0).abs() < 1e-12);
    }
}
