//! Workloads and their seeded, pre-generated operation schedules.
//!
//! `--seed` is the only source of randomness: the binding pools, the order of
//! operations and every inserted row derive from it, the whole schedule is
//! built before the clock starts, and the server sees nothing but these
//! generated inputs.

use iql::{Params, Value};
use proteomics::queries::{Q1_IQL, Q2_IQL, Q3_IQL, Q4_IQL, Q5_IQL, Q6_IQL, Q7_IQL};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Client connections driving every workload. Fixed, not `nproc`: one
/// closed-loop client measures thread wake-up rather than the program (its
/// throughput swings several-fold between runs on this class of machine),
/// while two keep both cores busy and repeat within a few percent.
pub const CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointRead,
    JoinRead,
    JoinSpill,
    MixedRw,
    PushFanout,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PointRead,
        Workload::JoinRead,
        Workload::JoinSpill,
        Workload::MixedRw,
        Workload::PushFanout,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point_read",
            Workload::JoinRead => "join_read",
            Workload::JoinSpill => "join_spill",
            Workload::MixedRw => "mixed_rw",
            Workload::PushFanout => "push_fanout",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Open loop sends on a schedule regardless of replies; every other
    /// workload is a closed loop (dataspace callers wait for their answer).
    pub fn open_loop(self) -> bool {
        self == Workload::PushFanout
    }

    /// Peptide-hit rows per source (the `table1_columnar` `scale_for` shape).
    /// The two workloads that rebuild plans on the hot path run on a 100-row
    /// shape: building the Q4–Q6 plans takes 100–200 ms at 1 600 rows (the
    /// 106 000-pair `uPeptideHitToProteinHit_mm` extent is materialised into
    /// each), which leaves some 20 operations a second — far too few for a
    /// p99 in a ten-second window. At 100 rows a rebuild takes about 5 ms.
    pub fn rows(self) -> usize {
        match self {
            Workload::JoinSpill | Workload::MixedRw => 100,
            _ => 1600,
        }
    }

    /// Indexes into [`TEXTS`] this workload executes (and setup warms).
    pub fn queries(self) -> &'static [usize] {
        match self {
            Workload::PointRead => &[0, 2],
            Workload::JoinRead | Workload::JoinSpill => &[1, 3, 4, 5, 6],
            Workload::MixedRw => &[0, 1, 2, 6, SCAN],
            Workload::PushFanout => &[],
        }
    }

    /// Standing-subscription texts held by the last client connection.
    pub fn subscriptions(self) -> &'static [&'static str] {
        match self {
            Workload::MixedRw => &MIXED_SUBSCRIPTIONS,
            Workload::PushFanout => &FANOUT_SUBSCRIPTIONS,
            _ => &[],
        }
    }
}

/// Index of the chunked-scan text in [`TEXTS`].
pub const SCAN: usize = 7;

/// Every text a client prepares: Q1–Q7, then the static scan (PepSeeker's ion
/// table takes no inserts, so its answer can be checked on every reply).
pub const TEXTS: [&str; 8] = [
    Q1_IQL,
    Q2_IQL,
    Q3_IQL,
    Q4_IQL,
    Q5_IQL,
    Q6_IQL,
    Q7_IQL,
    "[{k, ph} | {k, ph} <- <<PEPSEEKER_iontable, PEPSEEKER_peptidehit>>]",
];

/// Operation kinds, for per-kind latency diagnostics.
pub const KINDS: [&str; 13] = [
    "Q1",
    "Q2",
    "Q3",
    "Q4",
    "Q5",
    "Q6",
    "Q7",
    "scan",
    "adhoc",
    "insert",
    "insert_batch",
    "stats",
    "checkpoint",
];
pub const KIND_CHECKPOINT: u8 = 12;

/// Tables the write workloads insert into — all read by Q1–Q6 through
/// `UProtein`, `UProteinHit` and `UPeptideHit`. None feeds the database-search
/// join behind `uPeptideHitToProteinHit_mm` (PepSeeker rows carry a
/// `fileparameters` no search has), and inserted accessions, organisms and
/// sequences are never bound by a read, so every read keeps a fixed answer
/// the oracle can check while writes go on beside it.
pub const TARGETS: [(&str, &str); 4] = [
    ("pedro", "protein"),
    ("pepseeker", "proteinhit"),
    ("pepseeker", "peptidehit"),
    ("gpmdb", "peptide"),
];

/// Six lead-scheme shapes over the insert targets (maintained O(delta)) and
/// two join shapes (re-executed on every insert that reaches them).
const MIXED_SUBSCRIPTIONS: [&str; 8] = [
    "[k | k <- <<PEDRO_protein>>]",
    "[x | {k, x} <- <<PEDRO_protein, PEDRO_accession_num>>]",
    "[{k, x} | {k, x} <- <<PEDRO_protein, PEDRO_organism>>]",
    "[{k, x} | {k, x} <- <<PEPSEEKER_proteinhit, PEPSEEKER_ProteinID>>]",
    "[{k, x} | {k, x} <- <<PEPSEEKER_peptidehit, PEPSEEKER_pepseq>>]",
    "[{k, x} | {k, x} <- <<GPMDB_peptide, GPMDB_seq>>]",
    "[{s, k, d} | {s, k, x} <- <<UProtein, accession_num>>; x = 'ACC00001'; \
     {s2, k2, d} <- <<UProtein, description>>; s2 = s; k2 = k]",
    "[{s, k, o} | {s, k, x} <- <<UProtein, accession_num>>; x = 'ACC00002'; \
     {s2, k2, o} <- <<UProtein, organism>>; s2 = s; k2 = k]",
];

/// Eight lead-scheme shapes over `pedro.protein`; every insert pushes one
/// delta on each, so an operation waits for the slowest of eight pushes.
const FANOUT_SUBSCRIPTIONS: [&str; 8] = [
    "[k | k <- <<PEDRO_protein>>]",
    "[x | {k, x} <- <<PEDRO_protein, PEDRO_accession_num>>]",
    "[{k, x} | {k, x} <- <<PEDRO_protein, PEDRO_accession_num>>]",
    "[x | {k, x} <- <<PEDRO_protein, PEDRO_description>>]",
    "[{k, x} | {k, x} <- <<PEDRO_protein, PEDRO_description>>]",
    "[x | {k, x} <- <<PEDRO_protein, PEDRO_organism>>]",
    "[{k, x} | {k, x} <- <<PEDRO_protein, PEDRO_organism>>]",
    "[{k, x} | {k, x} <- <<PEDRO_protein, PEDRO_predicted_mass>>]",
];

/// Bindings per query; a read draws uniformly from its query's pool.
pub const POOL: usize = 256;
/// Distinct ad-hoc `Query` texts: four times `iql::eval::DEFAULT_PLAN_CAPACITY`.
pub const ADHOC_TEXTS: usize = 2048;
/// Read-only schedules are this long per client and cycled.
const READ_SCHEDULE_OPS: usize = 1 << 16;
/// `mixed_rw` schedule length per client and second of run — several times
/// what the seed commit completes, because a schedule with inserts cannot be
/// cycled (keys would repeat); running out fails the run loudly.
const MIXED_OPS_PER_CLIENT_S: usize = 8_000;
/// `push_fanout` insert rate. Each tenth of the window must hold 1 000
/// inserts for its p99 to leave ten samples beyond it.
pub const FANOUT_RATE_PER_S: u64 = 1_250;
/// Keys of generated rows: clear of the fixture's and of the seeded log's.
const KEY_BASE: i64 = 100_000_000;
const KEY_STRIDE: i64 = 100_000_000;

#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Prepared execute of `TEXTS[query]` under `pools[query][binding]`.
    Execute {
        query: u8,
        binding: u16,
    },
    /// Chunked execute of the scan text, acking every chunk.
    Scan {
        chunk: u32,
    },
    /// One-shot `Query` of ad-hoc text number `text`.
    AdHoc {
        text: u16,
    },
    Insert {
        target: u8,
        rows: Vec<Vec<Value>>,
    },
    Stats,
}

impl Op {
    pub fn kind(&self) -> u8 {
        match self {
            Op::Execute { query, .. } => *query,
            Op::Scan { .. } => 7,
            Op::AdHoc { .. } => 8,
            Op::Insert { rows, .. } if rows.len() == 1 => 9,
            Op::Insert { .. } => 10,
            Op::Stats => 11,
        }
    }
}

/// The ad-hoc text for pool slot `i`: Q1 with the accession spliced in as a
/// literal, so each distinct text costs the server a parse and a plan.
pub fn adhoc_text(i: usize) -> String {
    format!(
        "[{{s, k}} | {{s, k, x}} <- <<UProtein, accession_num>>; x = '{}']",
        adhoc_accession(i)
    )
}

pub fn adhoc_accession(i: usize) -> String {
    format!("ACC{i:05}")
}

/// A fresh row for `TARGETS[target]` with primary key `key`.
pub fn build_row(target: usize, key: i64, rng: &mut StdRng) -> Vec<Value> {
    let float = |rng: &mut StdRng| Value::Float((rng.gen::<f64>() * 1e5).round() / 100.0);
    match target {
        0 => vec![
            key.into(),
            format!("LG-ACC{key}").into(),
            format!("Loadgen protein {}", rng.gen_range(1..999)).into(),
            "Loadgen organism".into(),
            float(rng),
            format!("LG{}", rng.gen_range(1..500)).into(),
        ],
        1 => vec![
            key.into(),
            format!("LG-ACC{key}").into(),
            rng.gen_range(0i64..100).into(),
            (1_000_000 + key % 1000).into(),
            rng.gen_range(1i64..20).into(),
            float(rng),
        ],
        2 => vec![
            key.into(),
            format!("LGSEQ{key}").into(),
            float(rng),
            Value::Float(rng.gen_range(0.000_01..1.0)),
            rng.gen_range(0i64..4).into(),
            rng.gen_range(1i64..4).into(),
            rng.gen_range(0i64..3).into(),
        ],
        3 => vec![
            key.into(),
            format!("LGSEQ{key}").into(),
            Value::Float(rng.gen_range(0.000_01..1.0)),
            rng.gen_range(0i64..100).into(),
            rng.gen_range(1i64..300).into(),
            rng.gen_range(300i64..600).into(),
        ],
        other => panic!("no insert target {other}"),
    }
}

/// Zipf(0.99) over `n` ranks, sampled by inverting the cumulative weights.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(0.99);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let u = rng.gen::<f64>() * total;
        self.cumulative
            .partition_point(|c| *c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// Per-client operation lists for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    pub clients: Vec<Vec<Op>>,
    /// Read-only schedules restart from the top when a client runs through.
    pub cycle: bool,
}

impl Schedule {
    /// Build the schedule for `workload` under `seed`. `total_s` is warm-up
    /// plus window (it sizes the schedules that cannot cycle) and
    /// `pool_sizes[q]` the number of bindings query `q` has.
    pub fn generate(workload: Workload, seed: u64, total_s: f64, pool_sizes: &[usize; 7]) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_5C4E);
        let read = |rng: &mut StdRng, query: usize| Op::Execute {
            query: query as u8,
            binding: rng.gen_range(0..pool_sizes[query]) as u16,
        };
        let pick = |rng: &mut StdRng, queries: &[usize]| queries[rng.gen_range(0..queries.len())];
        match workload {
            Workload::PointRead | Workload::JoinRead | Workload::JoinSpill => {
                // Three Q1 to one Q3: at one to one the median would sit on
                // the edge between the two queries' latency modes and flip
                // from one to the other between runs.
                let mix: &[usize] = match workload {
                    Workload::PointRead => &[0, 0, 0, 2],
                    _ => workload.queries(),
                };
                Schedule {
                    clients: (0..CLIENTS)
                        .map(|_| {
                            (0..READ_SCHEDULE_OPS)
                                .map(|_| {
                                    let q = pick(&mut rng, mix);
                                    read(&mut rng, q)
                                })
                                .collect()
                        })
                        .collect(),
                    cycle: true,
                }
            }
            Workload::MixedRw => {
                let zipf = Zipf::new(ADHOC_TEXTS);
                let ops = (MIXED_OPS_PER_CLIENT_S as f64 * total_s) as usize;
                let clients = (0..CLIENTS)
                    .map(|client| {
                        let mut next_key = KEY_BASE + client as i64 * KEY_STRIDE;
                        (0..ops)
                            .map(|_| match rng.gen_range(0..100) {
                                0..=64 => {
                                    let q = pick(&mut rng, &[0, 2]);
                                    read(&mut rng, q)
                                }
                                // Q2 and Q7 only: every insert retires every
                                // plan, and rebuilding Q4-Q6's (5-10 ms even
                                // at 100 rows) some 600 times a window made
                                // throughput a noisy count of those rebuilds.
                                65..=84 => {
                                    let q = pick(&mut rng, &[1, 6]);
                                    read(&mut rng, q)
                                }
                                85..=89 => {
                                    let target = rng.gen_range(0..TARGETS.len());
                                    let batch = if rng.gen_range(0..5) == 0 { 8 } else { 1 };
                                    let rows = (0..batch)
                                        .map(|_| {
                                            next_key += 1;
                                            build_row(target, next_key, &mut rng)
                                        })
                                        .collect();
                                    Op::Insert {
                                        target: target as u8,
                                        rows,
                                    }
                                }
                                90..=94 => Op::Scan { chunk: 64 },
                                95..=98 => Op::AdHoc {
                                    text: zipf.sample(&mut rng) as u16,
                                },
                                _ => Op::Stats,
                            })
                            .collect()
                    })
                    .collect();
                Schedule {
                    clients,
                    cycle: false,
                }
            }
            Workload::PushFanout => {
                let ops = (FANOUT_RATE_PER_S as f64 * total_s).ceil() as i64;
                let writer = (1..=ops)
                    .map(|i| Op::Insert {
                        target: 0,
                        rows: vec![build_row(0, KEY_BASE + i, &mut rng)],
                    })
                    .collect();
                Schedule {
                    clients: vec![writer, Vec::new()],
                    cycle: false,
                }
            }
        }
    }

    /// A byte image of the whole schedule: same seed, same bytes.
    #[cfg(test)]
    pub fn to_bytes(&self) -> Vec<u8> {
        use wire::codec::{put_u32, put_u8, put_values};
        let mut out = vec![self.cycle as u8];
        for ops in &self.clients {
            put_u32(&mut out, ops.len() as u32);
            for op in ops {
                put_u8(&mut out, op.kind());
                match op {
                    Op::Execute { query, binding } => {
                        put_u8(&mut out, *query);
                        put_u32(&mut out, *binding as u32);
                    }
                    Op::Scan { chunk } => put_u32(&mut out, *chunk),
                    Op::AdHoc { text } => put_u32(&mut out, *text as u32),
                    Op::Insert { target, rows } => {
                        put_u8(&mut out, *target);
                        put_u32(&mut out, rows.len() as u32);
                        for row in rows {
                            put_values(&mut out, row);
                        }
                    }
                    Op::Stats => {}
                }
            }
        }
        out
    }
}

/// Seeded binding pools: `params[q]` holds the bindings query `q` draws from.
pub struct Pools {
    pub params: [Vec<Params>; 7],
}

impl Pools {
    /// Draw the pools from values that exist in the data: `accessions` and
    /// `sequences` are the distinct accession numbers and peptide sequences
    /// of the integrated extents, `organisms` the organisms, and
    /// `proteins`/`protein_hits` the key ranges of the generated sources.
    pub fn build(
        seed: u64,
        accessions: &[String],
        organisms: &[String],
        sequences: &[String],
        proteins: i64,
        protein_hits: i64,
    ) -> Pools {
        use proteomics::queries::{q1, q2, q3, q4, q5, q6, q7};
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB1D1_4657);
        let draw = |rng: &mut StdRng, from: &[String]| from[rng.gen_range(0..from.len())].clone();
        let mut params: [Vec<Params>; 7] = Default::default();
        for _ in 0..POOL {
            params[0].push(q1(&draw(&mut rng, accessions)));
            let group: Vec<String> = (0..3).map(|_| draw(&mut rng, accessions)).collect();
            params[1].push(q2(&group.iter().map(String::as_str).collect::<Vec<_>>()));
            params[2].push(q3(&draw(&mut rng, organisms)));
            params[3].push(q4(&draw(&mut rng, sequences)));
            let sequence = draw(&mut rng, sequences);
            params[4].push(q5(&sequence, rng.gen_range(0..proteins)));
            let tag = ["PEDRO", "pepSeeker"][rng.gen_range(0..2)];
            params[5].push(q6(tag, rng.gen_range(0..protein_hits)));
        }
        params[6].push(q7());
        Pools { params }
    }

    pub fn sizes(&self) -> [usize; 7] {
        std::array::from_fn(|q| self.params[q].len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZES: [usize; 7] = [POOL, POOL, POOL, POOL, POOL, POOL, 1];

    #[test]
    fn same_seed_gives_a_byte_identical_schedule_and_another_seed_does_not() {
        for workload in Workload::ALL {
            let a = Schedule::generate(workload, 7, 1.5, &SIZES).to_bytes();
            let b = Schedule::generate(workload, 7, 1.5, &SIZES).to_bytes();
            let c = Schedule::generate(workload, 8, 1.5, &SIZES).to_bytes();
            assert_eq!(a, b, "{} is not a function of its seed", workload.name());
            assert_ne!(a, c, "{} ignores its seed", workload.name());
        }
    }

    #[test]
    fn mixed_rw_follows_its_stated_mix_with_disjoint_keys_per_client() {
        let schedule = Schedule::generate(Workload::MixedRw, 1, 2.0, &SIZES);
        assert!(!schedule.cycle);
        let mut keys = std::collections::BTreeSet::new();
        for ops in &schedule.clients {
            let share = |pred: fn(&Op) -> bool| {
                ops.iter().filter(|op| pred(op)).count() as f64 / ops.len() as f64
            };
            assert!(
                (share(|op| matches!(op, Op::Execute { query: 0 | 2, .. })) - 0.65).abs() < 0.02
            );
            assert!((share(|op| matches!(op, Op::Insert { .. })) - 0.05).abs() < 0.01);
            assert!((share(|op| matches!(op, Op::AdHoc { .. })) - 0.04).abs() < 0.01);
            assert!((share(|op| matches!(op, Op::Stats)) - 0.01).abs() < 0.005);
            for op in ops {
                if let Op::Insert { rows, .. } = op {
                    assert!(rows.len() == 1 || rows.len() == 8);
                    for row in rows {
                        assert!(keys.insert(row[0].clone()), "duplicate key {}", row[0]);
                    }
                }
            }
        }
    }

    #[test]
    fn zipf_favours_low_ranks_but_reaches_the_tail() {
        let zipf = Zipf::new(ADHOC_TEXTS);
        let mut rng = StdRng::seed_from_u64(3);
        let draws: Vec<usize> = (0..50_000).map(|_| zipf.sample(&mut rng)).collect();
        let head = draws.iter().filter(|r| **r < 20).count() as f64 / draws.len() as f64;
        assert!(head > 0.35 && head < 0.55, "top-20 share {head}");
        assert!(draws.iter().any(|r| *r > ADHOC_TEXTS / 2));
        assert!(draws.iter().all(|r| *r < ADHOC_TEXTS));
    }

    #[test]
    fn push_fanout_is_one_writer_at_the_stated_rate() {
        let schedule = Schedule::generate(Workload::PushFanout, 1, 2.0, &SIZES);
        assert_eq!(schedule.clients[0].len(), 2 * FANOUT_RATE_PER_S as usize);
        assert!(schedule.clients[1].is_empty());
    }
}
