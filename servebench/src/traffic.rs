//! Seeded `bsmp-serve/v1` traffic for the three workloads.
//!
//! The program only ever sees the request lines made here.  Each of the
//! two closed-loop clients gets its own job list, built from fixed blocks,
//! so every seed gives the same mix of engines; each engine's shapes come
//! from a catalog fixed by the job count.  The seed changes the order, the
//! split between clients, the input seeds and the fault plans' seeds.  A
//! client's list is never shared: jobs that rely on an earlier job's
//! cached plan (the fault-seed sweep) live on one client, which sends them
//! one at a time, so plan-cache counts repeat exactly for a given seed.

use std::fmt::Write as _;

/// Closed-loop clients (the server runs with `max_inflight` equal to it).
pub const CLIENTS: usize = 2;

/// `examples/chaos_storm.json`, frozen here so a later edit of the example
/// cannot change the benchmark's traffic.  The sweep replaces its seed.
const CHAOS_STORM_REST: &str = "\"slowdown\": {\"model\": \"lognormal\", \"mu\": 0.25, \
     \"sigma\": 0.5}, \"link\": {\"spread\": 0.5}, \"loss\": {\"loss_permille\": 50, \
     \"max_retries\": 4}, \"outage\": {\"region\": {\"lo\": 1, \"hi\": 2}, \"onset\": 4, \
     \"duration\": 3, \"period\": 12}, \"churn\": {\"leave_permille\": 30, \"down_stages\": 2, \
     \"max_retries\": 8, \"backoff_hops\": 1.0}";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdRecursive,
    WarmRepeat,
    TiledTraced,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdRecursive,
        Workload::WarmRepeat,
        Workload::TiledTraced,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdRecursive => "cold-recursive",
            Workload::WarmRepeat => "warm-repeat",
            Workload::TiledTraced => "tiled-traced",
        }
    }

    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Jobs the two clients complete per second on a 2-core x86-64 box at
    /// the commit that introduced this benchmark.  A run sends
    /// `rate × --seconds` jobs (at least [`MIN_JOBS`]), so a run lasts about
    /// `--seconds` there and its job count does not depend on timing.
    fn sizing_rate(self) -> f64 {
        match self {
            Workload::ColdRecursive => 60.0,
            Workload::WarmRepeat => 7_500.0,
            Workload::TiledTraced => 110.0,
        }
    }

    /// Jobs in a run of `seconds` seconds (a multiple of [`CLIENTS`]).
    pub fn jobs_for(self, seconds: u64) -> usize {
        let want = (self.sizing_rate() * seconds as f64).ceil() as usize;
        want.max(MIN_JOBS).div_ceil(CLIENTS) * CLIENTS
    }

    /// Whether every job of this workload should miss the capsule cache.
    pub fn is_cold(self) -> bool {
        self != Workload::WarmRepeat
    }
}

/// Every run has at least this many jobs, so at least ten latencies lie
/// beyond the 90th percentile.
pub const MIN_JOBS: usize = 100;

/// Engine family: which executor a job exercises (names follow `crates/sim`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    Exec1,
    Exec2,
    Exec3,
    Tiled,
}

impl Family {
    pub fn of(engine: &str) -> Family {
        match engine {
            "dnc1" | "multi1" => Family::Exec1,
            "dnc2" | "multi2" => Family::Exec2,
            "dnc3" => Family::Exec3,
            _ => Family::Tiled,
        }
    }
}

/// One request, as the benchmark knows it (the server sees only `line()`).
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    pub id: u64,
    pub engine: &'static str,
    pub n: u64,
    pub m: u64,
    pub p: u64,
    pub steps: i64,
    pub seed: u64,
    /// Fault-plan JSON object.
    pub faults: Option<String>,
    pub trace: bool,
    pub certify: bool,
}

impl Job {
    pub fn d(&self) -> u8 {
        match self.engine.as_bytes().last() {
            Some(b'2') => 2,
            Some(b'3') => 3,
            _ => 1,
        }
    }

    /// What the server's cost capsule is keyed by: shape plus fault plan.
    pub fn capsule_key(&self) -> (&'static str, u64, u64, u64, i64, Option<&str>) {
        (
            self.engine,
            self.n,
            self.m,
            self.p,
            self.steps,
            self.faults.as_deref(),
        )
    }

    /// Whether the server records a trace for this job.
    pub fn traced(&self) -> bool {
        self.trace || self.certify
    }

    /// The `bsmp-serve/v1` request line (no trailing newline).
    pub fn line(&self) -> String {
        let mut s = String::with_capacity(160);
        write!(
            s,
            "{{\"id\": {}, \"engine\": \"{}\", \"n\": {}, \"m\": {}, \"p\": {}, \"steps\": {}, \
             \"seed\": {}",
            self.id, self.engine, self.n, self.m, self.p, self.steps, self.seed
        )
        .expect("write to String");
        if let Some(f) = &self.faults {
            write!(s, ", \"faults\": {f}").expect("write to String");
        }
        if self.trace {
            s.push_str(", \"trace\": true");
        }
        if self.certify {
            s.push_str(", \"certify\": true");
        }
        s.push('}');
        s
    }
}

/// The generated traffic: one job list per client.  Job ids are dense:
/// client `c`'s `k`-th job has id `k · CLIENTS + c`.
pub struct Traffic {
    pub clients: Vec<Vec<Job>>,
    /// Request lines, parallel to `clients`.
    pub lines: Vec<Vec<String>>,
}

impl Traffic {
    pub fn len(&self) -> usize {
        self.clients.iter().map(Vec::len).sum()
    }

    /// The job with id `id`.
    pub fn job(&self, id: u64) -> &Job {
        let c = id as usize % CLIENTS;
        &self.clients[c][id as usize / CLIENTS]
    }

    /// Every job, in id order.
    pub fn jobs_by_id(&self) -> impl Iterator<Item = &Job> {
        (0..self.len() as u64).map(|id| self.job(id))
    }
}

/// splitmix64: the benchmark's own generator, so its traffic does not
/// move when the program's RNG does.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next() as usize % (i + 1);
            xs.swap(i, j);
        }
    }
}

/// A job's shape: engine, n, m, p, steps.
type Shape = (&'static str, u64, u64, u64, i64);

/// The shapes one engine's jobs may take: `n = side^dim` for every side in
/// `sides` (first, last, step), every `m` in `ms`, every `steps` from
/// `t_lo` to `t_hi`.  `steps` runs on past `t_hi` only when a long run
/// needs more distinct shapes than that holds.
struct Space {
    engine: &'static str,
    sides: (u64, u64, u64),
    dim: u32,
    ms: &'static [u64],
    p: u64,
    t_lo: i64,
    t_hi: i64,
}

impl Space {
    /// `k` distinct shapes spread evenly over the space (in lexicographic
    /// order), so a run's total work does not depend on the seed.
    fn catalog(&self, k: usize) -> Vec<Shape> {
        let (first, last, step) = self.sides;
        let ns: Vec<u64> = (first..=last)
            .step_by(step as usize)
            .map(|side| side.pow(self.dim))
            .collect();
        let per_t = ns.len() * self.ms.len();
        let t_hi = self.t_hi.max(self.t_lo + k.div_ceil(per_t) as i64 - 1);
        let all: Vec<Shape> = ns
            .iter()
            .flat_map(|&n| self.ms.iter().map(move |&m| (n, m)))
            .flat_map(|(n, m)| (self.t_lo..=t_hi).map(move |t| (self.engine, n, m, self.p, t)))
            .collect();
        (0..k).map(|i| all[i * all.len() / k]).collect()
    }
}

const DNC1: Space = Space {
    engine: "dnc1",
    sides: (112, 144, 2),
    dim: 1,
    ms: &[8, 16],
    p: 1,
    t_lo: 112,
    t_hi: 144,
};
const MULTI1: Space = Space {
    engine: "multi1",
    sides: (384, 448, 64),
    dim: 1,
    ms: &[4, 16],
    p: 4,
    t_lo: 96,
    t_hi: 150,
};
const DNC2: Space = Space {
    engine: "dnc2",
    sides: (12, 20, 1),
    dim: 2,
    ms: &[1, 2, 3, 4],
    p: 1,
    t_lo: 10,
    t_hi: 22,
};
/// A 2 × 2 processor grid needs an even mesh side.
const MULTI2: Space = Space {
    engine: "multi2",
    sides: (12, 20, 2),
    dim: 2,
    ms: &[1, 2, 3, 4],
    p: 4,
    t_lo: 10,
    t_hi: 22,
};
/// d = 3 engines take only `m = p = 1`.
const DNC3: Space = Space {
    engine: "dnc3",
    sides: (4, 10, 1),
    dim: 3,
    ms: &[1],
    p: 1,
    t_lo: 3,
    t_hi: 20,
};
const NAIVE1: Space = Space {
    engine: "naive1",
    sides: (4096, 8192, 256),
    dim: 1,
    ms: &[1],
    p: 16,
    t_lo: 256,
    t_hi: 512,
};
const PIPELINED1: Space = Space {
    engine: "pipelined1",
    sides: (4096, 8192, 256),
    dim: 1,
    ms: &[1, 2, 4],
    p: 16,
    t_lo: 256,
    t_hi: 512,
};
/// A 4 × 4 processor grid needs a mesh side divisible by 4.
const NAIVE2: Space = Space {
    engine: "naive2",
    sides: (64, 128, 4),
    dim: 2,
    ms: &[1],
    p: 16,
    t_lo: 64,
    t_hi: 192,
};
const NAIVE3: Space = Space {
    engine: "naive3",
    sides: (16, 32, 1),
    dim: 3,
    ms: &[1],
    p: 1,
    t_lo: 16,
    t_hi: 48,
};

/// A cold-recursive block of ten jobs per client: exec1 ×4 (dnc1 ×2,
/// multi1 ×2), exec2 ×3 (dnc2 ×2, multi2), exec3 ×1 (dnc3) and two
/// fault-seed sweep jobs (a fifth of the traffic), which repeat the
/// client's own dnc1 and multi1 sweep shapes.  Entries are indexes into
/// [`COLD_SPACES`]; `None` marks the sweep slots.  dnc1 (with its sweep)
/// and the small multi2 jobs are the fastest third; multi1 (with its
/// sweep) is the next third over a narrow shape range, so the median
/// latency falls inside a dense cluster rather than between clusters.
const COLD_BLOCK: [Option<usize>; 10] = [
    Some(0),
    Some(0),
    Some(1),
    Some(1),
    Some(2),
    Some(2),
    Some(3),
    Some(4),
    None,
    None,
];
const COLD_SPACES: [&Space; 5] = [&DNC1, &MULTI1, &DNC2, &MULTI2, &DNC3];
const TILED_SPACES: [&Space; 4] = [&NAIVE1, &PIPELINED1, &NAIVE2, &NAIVE3];

/// The small shapes `warm-repeat` repeats; their capsules are pre-seeded.
pub const WARM_SHAPES: [(&str, u64, u64, u64, i64); 6] = [
    ("dnc1", 224, 1, 1, 224),
    ("dnc1", 64, 16, 1, 48),
    ("multi1", 256, 4, 4, 48),
    ("dnc2", 400, 1, 1, 40),
    ("multi2", 400, 1, 4, 40),
    ("dnc3", 512, 1, 1, 16),
];

/// One warm job in ten certifies its cached trace, half of those also
/// ship the trace: slots 0 and 1 of a block of twenty.
const WARM_FLAG_BLOCK: usize = 20;

fn job(id: u64, s: Shape, seed: u64) -> Job {
    let (engine, n, m, p, steps) = s;
    Job {
        id,
        engine,
        n,
        m,
        p,
        steps,
        seed,
        faults: None,
        trace: false,
        certify: false,
    }
}

/// The slot of job `k` of client `c` in a block of `len`: every block of
/// every client is a fresh permutation, so each holds the full mix.
fn block_slot(perm_seed: u64, k: usize, c: usize, len: usize) -> usize {
    let block = (k / len) as u64;
    let mut perm: Vec<usize> = (0..len).collect();
    let mut local = Rng(perm_seed ^ block.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ c as u64);
    local.shuffle(&mut perm);
    perm[k % len]
}

/// Generate `jobs` jobs (rounded up to a multiple of [`CLIENTS`]) of
/// `workload` from `seed`.  The seed picks the order of the shapes, their
/// split between clients, the sweep shapes, the input seeds and the fault
/// plans' seeds; the set of shapes depends only on the job count.
pub fn generate(workload: Workload, seed: u64, jobs: usize) -> Traffic {
    let per_client = jobs.div_ceil(CLIENTS);
    let mut rng = Rng(seed ^ 0x5EB5_E4C4_0000_0000);
    let perm_seed = rng.next();
    let (block_len, spaces): (usize, &[&Space]) = match workload {
        Workload::ColdRecursive => (COLD_BLOCK.len(), &COLD_SPACES),
        Workload::WarmRepeat => (WARM_SHAPES.len(), &[]),
        Workload::TiledTraced => (TILED_SPACES.len(), &TILED_SPACES),
    };
    let slot_of = |k: usize, c: usize| block_slot(perm_seed, k, c, block_len);
    let space_of = |slot: usize| match workload {
        Workload::ColdRecursive => COLD_BLOCK[slot],
        _ => Some(slot),
    };
    // Shuffled catalogs; exec1 catalogs carry one extra shape per client
    // for the sweeps (dnc1 and multi1 never share an exec1 plan key: their
    // `n` ranges are disjoint).
    let mut decks: Vec<Vec<Shape>> = spaces
        .iter()
        .enumerate()
        .map(|(i, sp)| {
            let used = (0..CLIENTS)
                .flat_map(|c| (0..per_client).map(move |k| slot_of(k, c)))
                .filter(|&s| space_of(s) == Some(i));
            let extra = if workload == Workload::ColdRecursive && i < 2 {
                CLIENTS
            } else {
                0
            };
            let mut deck = sp.catalog(used.count() + extra);
            rng.shuffle(&mut deck);
            deck
        })
        .collect();
    let sweeps: Vec<[Shape; 2]> = match workload {
        Workload::ColdRecursive => (0..CLIENTS)
            .map(|_| [decks[0].pop(), decks[1].pop()].map(|s| s.expect("sweep shape")))
            .collect(),
        _ => Vec::new(),
    };
    let mut plan_seed = rng.next() % 1_000_000;
    let flag_seed = rng.next();
    let mut clients: Vec<Vec<Job>> = (0..CLIENTS)
        .map(|_| Vec::with_capacity(per_client))
        .collect();
    for k in 0..per_client {
        for (c, list) in clients.iter_mut().enumerate() {
            let id = (k * CLIENTS + c) as u64;
            let input_seed = rng.next() >> 11;
            let slot = slot_of(k, c);
            let mut j = match (workload, space_of(slot)) {
                (Workload::WarmRepeat, _) => job(id, WARM_SHAPES[slot], input_seed),
                (_, Some(i)) => job(id, decks[i].pop().expect("catalog sized"), input_seed),
                (_, None) => {
                    plan_seed += 1;
                    let mut j = job(id, sweeps[c][slot - 8], input_seed);
                    let plan = format!("{{\"seed\": {plan_seed}, {CHAOS_STORM_REST}}}");
                    j.faults = Some(plan);
                    j
                }
            };
            match workload {
                Workload::ColdRecursive => {}
                Workload::WarmRepeat => match block_slot(flag_seed, k, c, WARM_FLAG_BLOCK) {
                    0 => j.certify = true,
                    1 => (j.certify, j.trace) = (true, true),
                    _ => {}
                },
                Workload::TiledTraced => (j.trace, j.certify) = (true, true),
            }
            list.push(j);
        }
    }
    let lines = clients
        .iter()
        .map(|l| l.iter().map(Job::line).collect())
        .collect();
    Traffic { clients, lines }
}

/// Warm-up jobs for set-up: one cold job per engine the workload sends,
/// of the traffic's size.  Cold workloads empty the plan cache after them.
pub fn warmup_jobs(workload: Workload) -> Vec<Job> {
    let shapes: &[Shape] = match workload {
        Workload::ColdRecursive => &[
            ("dnc1", 128, 16, 1, 128),
            ("multi1", 384, 4, 4, 128),
            ("dnc2", 256, 1, 1, 16),
            ("multi2", 256, 1, 4, 16),
            ("dnc3", 512, 1, 1, 8),
        ],
        Workload::WarmRepeat => &WARM_SHAPES,
        Workload::TiledTraced => &[
            ("naive1", 6144, 1, 16, 384),
            ("pipelined1", 6144, 2, 16, 384),
            ("naive2", 9216, 1, 16, 128),
            ("naive3", 13824, 1, 1, 32),
        ],
    };
    shapes
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let mut j = job((1 << 40) + i as u64, s, 1);
            // Pre-seeded warm capsules must carry a trace, so certify
            // jobs hit them too.
            j.certify = workload != Workload::ColdRecursive;
            j.trace = workload == Workload::TiledTraced;
            j
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generator_is_deterministic_per_seed() {
        for w in Workload::ALL {
            let a = generate(w, 7, 400);
            let b = generate(w, 7, 400);
            let c = generate(w, 8, 400);
            assert_eq!(a.lines, b.lines, "{}", w.name());
            assert_ne!(a.lines, c.lines, "{}", w.name());
            assert_eq!(a.len(), 400);
        }
    }

    #[test]
    fn ids_are_dense_and_match_lines() {
        let t = generate(Workload::WarmRepeat, 3, 101);
        assert_eq!(t.len(), 102);
        for (id, j) in t.jobs_by_id().enumerate() {
            assert_eq!(j.id, id as u64);
            let c = id % CLIENTS;
            assert_eq!(t.lines[c][id / CLIENTS], j.line());
        }
    }

    #[test]
    fn cold_workloads_never_repeat_a_capsule_key() {
        for w in [Workload::ColdRecursive, Workload::TiledTraced] {
            for seed in [1, 2, 99] {
                let t = generate(w, seed, w.jobs_for(20));
                let mut keys = HashSet::new();
                for j in t.jobs_by_id() {
                    assert!(keys.insert(j.capsule_key()), "{} repeats {j:?}", w.name());
                }
            }
        }
    }

    #[test]
    fn cold_mix_is_fixed_and_sweeps_stay_on_one_client() {
        let t = generate(Workload::ColdRecursive, 5, 600);
        let count = |f: &dyn Fn(&Job) -> bool| t.jobs_by_id().filter(|j| f(j)).count();
        assert_eq!(count(&|j| j.faults.is_some()), 120);
        assert_eq!(count(&|j| j.engine == "dnc3"), 60);
        assert_eq!(count(&|j| Family::of(j.engine) == Family::Exec2), 180);
        // Exec1 plan keys: non-sweep jobs never share one, and a sweep
        // key is used by one client only.
        let mut owner = std::collections::HashMap::new();
        for (c, list) in t.clients.iter().enumerate() {
            for j in list
                .iter()
                .filter(|j| Family::of(j.engine) == Family::Exec1)
            {
                let prev = owner.insert((j.n, j.m, j.steps), (c, j.faults.is_some()));
                if let Some(prev) = prev {
                    assert_eq!(prev, (c, true), "{j:?}");
                    assert!(j.faults.is_some());
                }
            }
        }
    }

    #[test]
    fn warm_traffic_repeats_few_shapes_with_distinct_seeds() {
        let t = generate(Workload::WarmRepeat, 11, 20_000);
        let shapes: HashSet<_> = t.jobs_by_id().map(Job::capsule_key).collect();
        assert!(shapes.len() <= WARM_SHAPES.len());
        let seeds: HashSet<_> = t.jobs_by_id().map(|j| j.seed).collect();
        assert_eq!(seeds.len(), t.len());
        let certify = t.jobs_by_id().filter(|j| j.certify).count();
        let both = t.jobs_by_id().filter(|j| j.certify && j.trace).count();
        assert_eq!((certify, both), (2_000, 1_000));
    }

    #[test]
    fn lines_parse_as_the_jobs_they_describe() {
        for w in Workload::ALL {
            let t = generate(w, 4, 40);
            for j in t.jobs_by_id() {
                let spec = bsmp::serve_suite::parse_job(&j.line()).expect("valid request");
                assert_eq!(
                    (spec.id, spec.engine, spec.d, spec.n, spec.m, spec.p),
                    (j.id, j.engine, j.d(), j.n, j.m, j.p)
                );
                assert_eq!((spec.steps, spec.seed), (j.steps, j.seed));
                assert_eq!((spec.trace, spec.certify), (j.trace, j.certify));
                assert_eq!(spec.faults.is_some(), j.faults.is_some());
            }
        }
    }
}
