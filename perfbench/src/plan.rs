//! Seeded inputs: the resident table corpus every workload's server
//! boots with, and the traffic of each workload. Everything here is a
//! pure function of the seed; the service only ever sees the generated
//! queries.
//!
//! Cost is kept independent of the seed: a grid's tick extent and
//! interrupt budget come from its index, and the seed only moves setup
//! charges, popularity ranks and query points. Per-seed spread then comes
//! from the machine, not from some seeds drawing bigger solves.

use cyclesteal_core::time::secs;
use cyclesteal_dp::{CompressedTable, Grid};
use cyclesteal_serve::{GuaranteeAnswer, GuaranteeQuery};
use now_sim::{BatchAdversary, BatchConfig, BatchSim};
use std::collections::HashSet;
use std::sync::Arc;

/// Grids resident on the server before traffic starts.
const CORPUS_GRIDS: usize = 192;
/// Queries per warm request.
const WARM_BATCH: usize = 64;
/// Distinct warm requests the closed-loop clients cycle through.
const WARM_POOL: usize = 256;
/// Queries per cold request: one fresh grid, looked up at this many points.
const COLD_BATCH: usize = 8;
/// Simulated borrower episodes the open-loop schedule cycles through.
const SIM_EPISODES: usize = 4096;
/// Zipf exponent of grid popularity.
const ZIPF_S: f64 = 1.0;

/// SplitMix64: the seeded stream every input is drawn from.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One tenant grid with the extent its table is solved to.
#[derive(Clone, Copy, Debug)]
pub struct GridSpec {
    pub setup: f64,
    pub q: u32,
    pub p: u32,
    pub ticks: i64,
}

impl GridSpec {
    fn grid(&self) -> Grid {
        Grid::new(secs(self.setup), self.q)
    }

    /// The query for `W^(p)` at `ticks` of lifespan on this grid.
    pub fn query(&self, p: u32, ticks: i64) -> GuaranteeQuery {
        GuaranteeQuery {
            setup: secs(self.setup),
            ticks_per_setup: self.q,
            interrupts: p,
            lifespan: self.grid().to_time(ticks),
        }
    }

    /// The query that makes the server solve this grid's whole extent.
    pub fn covering_query(&self) -> GuaranteeQuery {
        self.query(self.p, self.ticks)
    }

    /// The reference table: the tick-walking build, a different
    /// algorithm from the event-driven one the server runs.
    pub fn reference(&self) -> CompressedTable {
        CompressedTable::solve(
            secs(self.setup),
            self.q,
            self.grid().to_time(self.ticks),
            self.p,
        )
    }
}

/// The answer the reference table gives for `query`.
pub fn expected(table: &CompressedTable, query: &GuaranteeQuery) -> GuaranteeAnswer {
    GuaranteeAnswer {
        value: table.value(query.interrupts, query.lifespan),
        value_ticks: table.value_ticks(query.interrupts, table.grid().to_ticks(query.lifespan)),
    }
}

/// True when `got` carries the exact game value of `want` in ticks, and
/// the same interpolated value up to rounding: a table solved past a
/// query's lifespan interpolates there, while one that ends exactly at
/// it reads its last grid point, and the two can differ in the last bit.
pub fn same(got: &GuaranteeAnswer, want: &GuaranteeAnswer) -> bool {
    let (g, w) = (got.value.get(), want.value.get());
    got.value_ticks == want.value_ticks && (g - w).abs() <= 1e-9 * w.abs().max(1.0)
}

/// A request with the answers it must get back.
pub struct Request {
    pub queries: Vec<GuaranteeQuery>,
    pub expected: Vec<GuaranteeAnswer>,
}

/// The resident corpus: grids in index order plus a seeded Zipf
/// popularity over them.
pub struct Corpus {
    grids: Vec<GridSpec>,
    /// Cumulative popularity weights, indexed by rank.
    cumulative: Vec<f64>,
    /// Grid index of each popularity rank.
    by_rank: Vec<usize>,
}

impl Corpus {
    pub fn new(seed: u64) -> Corpus {
        let mut rng = Rng::new(seed ^ 0xC0_4E5E);
        let mut seen = HashSet::new();
        let grids = (0..CORPUS_GRIDS)
            .map(|i| {
                // Setup charges in [0.5, 1.0); cold grids use [1.0, 2.0),
                // so no cold request can land on a resident grid.
                let setup = loop {
                    let c = 0.5 + 0.5 * rng.unit();
                    if seen.insert(c.to_bits()) {
                        break c;
                    }
                };
                GridSpec {
                    setup,
                    q: [4, 8, 16][i % 3],
                    p: 2 + (i / 3 % 3) as u32,
                    ticks: 8000 * (1 + (i / 9 % 8) as i64),
                }
            })
            .collect();
        let mut by_rank: Vec<usize> = (0..CORPUS_GRIDS).collect();
        for i in (1..by_rank.len()).rev() {
            by_rank.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut total = 0.0;
        let cumulative = (0..CORPUS_GRIDS)
            .map(|rank| {
                total += 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
                total
            })
            .collect();
        Corpus {
            grids,
            cumulative,
            by_rank,
        }
    }

    /// A grid index drawn by popularity.
    fn draw(&self, rng: &mut Rng) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        let x = rng.unit() * total;
        let rank = self.cumulative.partition_point(|&c| c <= x);
        self.by_rank[rank.min(self.by_rank.len() - 1)]
    }

    /// Reference tables of every grid, solved on `threads` threads.
    pub fn references(&self, threads: usize) -> Vec<Arc<CompressedTable>> {
        let chunk = self.grids.len().div_ceil(threads.max(1));
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .grids
                .chunks(chunk)
                .map(|grids| {
                    scope.spawn(move || {
                        grids
                            .iter()
                            .map(|g| Arc::new(g.reference()))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference solve panicked"))
                .collect()
        })
    }

    /// The requests that load the whole corpus into the server: every
    /// grid's covering query, 32 grids to a request.
    pub fn warm_up_requests(&self) -> Vec<Vec<GuaranteeQuery>> {
        self.grids
            .chunks(32)
            .map(|chunk| chunk.iter().map(GridSpec::covering_query).collect())
            .collect()
    }
}

/// Warm traffic: batches of queries at random points of popular
/// resident grids.
pub fn warm_requests(corpus: &Corpus, refs: &[Arc<CompressedTable>], seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x3A_6E);
    (0..WARM_POOL)
        .map(|_| {
            let (queries, expected) = (0..WARM_BATCH)
                .map(|_| {
                    let i = corpus.draw(&mut rng);
                    let g = &corpus.grids[i];
                    let p = 1 + rng.below(u64::from(g.p)) as u32;
                    let query = g.query(p, 1 + rng.below(g.ticks as u64) as i64);
                    (query, expected(&refs[i], &query))
                })
                .unzip();
            Request { queries, expected }
        })
        .collect()
}

/// The grid of cold request `n`: a setup charge no other request uses,
/// so every cold request misses the cache and solves.
pub fn cold_grid(seed: u64, n: u64) -> GridSpec {
    let mut rng = Rng::new(seed ^ n.wrapping_mul(0x9E37_79B9));
    // One slot of width 2^-24 in [1, 2) per request: two requests never
    // share a grid, and none lands on a corpus grid. Every solve is the
    // same size, so the tail measures the service, not a seed's draw of
    // large grids; and below 2^14 ticks it stays on one thread, so it
    // does not hinge on a second core being free at that moment.
    GridSpec {
        setup: 1.0 + (n as f64 + 0.9 * rng.unit()) / (1u64 << 24) as f64,
        q: 16,
        p: 6,
        ticks: 12_000,
    }
}

/// The queries of a cold request on `grid`: its covering point first
/// (which fixes the solve size), then seeded lookups.
pub fn cold_queries(grid: &GridSpec, seed: u64) -> Vec<GuaranteeQuery> {
    let mut rng = Rng::new(seed ^ grid.setup.to_bits());
    let mut queries = vec![grid.covering_query()];
    queries.extend((1..COLD_BATCH).map(|_| {
        grid.query(
            1 + rng.below(u64::from(grid.p)) as u32,
            1 + rng.below(grid.ticks as u64) as i64,
        )
    }));
    queries
}

/// Simulated borrowers: each plays one episode of the cycle-stealing
/// game on a popular resident grid, as `now_sim`'s table-driven borrower
/// against a Poisson owner. A borrower asks the service for its
/// guarantee when the contract starts and again after every interrupt,
/// at its residual `(budget, lifespan)` — one single-query request each.
/// Returns the flattened request sequence and the episodes that banked
/// less than their guarantee (must be zero).
pub fn sim_requests(
    corpus: &Corpus,
    refs: &[Arc<CompressedTable>],
    seed: u64,
) -> (Vec<Request>, u64) {
    let mut rng = Rng::new(seed ^ 0x51_3E55);
    let mut episodes_per_grid = vec![0usize; corpus.grids.len()];
    let order: Vec<usize> = (0..SIM_EPISODES).map(|_| corpus.draw(&mut rng)).collect();
    for &g in &order {
        episodes_per_grid[g] += 1;
    }
    let sims: Vec<Option<BatchSim>> = episodes_per_grid
        .iter()
        .enumerate()
        .map(|(i, &episodes)| {
            (episodes > 0).then(|| {
                let g = &corpus.grids[i];
                BatchSim::new(BatchConfig {
                    table: refs[i].clone(),
                    lifespan_ticks: g.ticks,
                    interrupts: g.p,
                    episodes,
                    seed: seed ^ (i as u64) << 20,
                    adversary: BatchAdversary::Poisson {
                        mean_gap_ticks: g.ticks as f64 / f64::from(g.p + 1),
                    },
                    block: 0,
                    threads: 1,
                })
            })
        })
        .collect();
    let violations = sims.iter().flatten().map(|s| s.run().violations).sum();

    let mut next_episode = vec![0usize; corpus.grids.len()];
    let mut requests = Vec::new();
    for &i in &order {
        let g = &corpus.grids[i];
        let sim = sims[i].as_ref().expect("a sim for every drawn grid");
        let interrupts = sim.episode_interrupt_ticks(next_episode[i]);
        next_episode[i] += 1;
        let residuals = std::iter::once((g.p, g.ticks)).chain(
            interrupts
                .iter()
                .enumerate()
                .map(|(k, &at)| (g.p - k as u32 - 1, (g.ticks - at).max(0))),
        );
        for (p, ticks) in residuals {
            let query = g.query(p, ticks);
            requests.push(Request {
                expected: vec![expected(&refs[i], &query)],
                queries: vec![query],
            });
        }
    }
    (requests, violations)
}

/// Open-loop arrival offsets (seconds from the start): a Poisson process
/// at `rate` per second over `horizon` seconds, conditioned on its mean
/// count — that many instants, uniform and sorted — so every seed offers
/// the same load and only the burst pattern varies.
pub fn poisson_arrivals(rate: f64, horizon: f64, seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed ^ 0xA7_7173);
    let mut out: Vec<f64> = (0..(rate * horizon).round() as usize)
        .map(|_| rng.unit() * horizon)
        .collect();
    out.sort_by(f64::total_cmp);
    out
}
