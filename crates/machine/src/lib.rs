//! # bsmp-machine
//!
//! The machines `M_d(n, p, m)` of Definition 2 and the synchronous
//! computations they run.
//!
//! * [`spec`] — machine parameters: `d`-dimensional near-neighbor
//!   interconnection of `p` `(x/m)^{1/d}`-H-RAMs, `n·m/p` cells each,
//!   near-neighbor distance `(n/p)^{1/d}`;
//! * [`program`] — the synchronous node programs whose `T`-step runs
//!   realize the dags `G_T(H)` of Definition 3, and their one
//!   `D`-generic view [`Guest`];
//! * [`guest`] — direct (reference) execution of a guest machine
//!   `M_d(n, n, m)`, `d ≤ 3`, producing both the answer and the guest's
//!   model time `T_n` ([`run_guest`] loops one row-sliced
//!   [`GuestSteps`] step; [`guest_time`] reads its per-cell cost table);
//! * [`stage`] — the bulk-synchronous parallel clock used by host
//!   simulations (`T_p = Σ_stages max_proc cost`), with a
//!   fault-injection entry point ([`StageClock::add_stage_faulted`]);
//! * [`pool`] — the persistent host execution layer: long-lived
//!   [`StagePool`] workers that execute a stage's independent
//!   per-processor tasks without per-stage thread spawns, plus the
//!   [`ExecPolicy`] thread budget.  Model time is unaffected by host
//!   threading (each task returns its own metered cost into its own
//!   slot);
//! * [`hash`] — the deterministic multiply-xor hasher behind the
//!   executors' hot liveness/placement maps.

pub mod cache;
pub mod guest;
pub mod hash;
pub mod pool;
pub mod program;
pub mod spec;
pub mod stage;

pub use cache::{CacheStats, PlanCache, PlanKey};
pub use guest::{guest_time, run_guest, GuestRun, GuestSteps};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use pool::{
    available_threads, init_shared_pool, set_default_threads, shared_pool, DisjointSlice,
    ExecPolicy, PoolLease, StagePanic, StagePool,
};
pub use program::{Guest, LinearProgram, MeshProgram, VolumeProgram};
pub use spec::{MachineSpec, SpecError};
pub use stage::StageClock;
