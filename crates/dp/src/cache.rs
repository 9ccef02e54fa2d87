//! Shared solve cache for `(U/c, p)` parameter sweeps.
//!
//! A solved table for lifespan `L_max` answers **every** smaller-lifespan
//! query for free — rows are indexed by lifespan, so `W^(p)(L)` for
//! `L ≤ L_max` is a plain lookup — and every smaller interrupt budget
//! too, since all levels `0..=p_max` are materialized. Sweeps therefore
//! need exactly one solve per distinct `(setup, ticks_per_setup, p_max)`
//! key; [`TableCache`] deduplicates those solves (serving a smaller-`p`
//! request from a larger-`p` table when one already covers the
//! lifespan), grows tables with headroom so a slowly increasing sweep
//! does not re-solve per step, and fans independent configurations out
//! over `cyclesteal-par` workers in [`TableCache::solve_many`].
//!
//! Every cached table is a run-backed [`CompressedTable`] built by the
//! event-driven solve ([`CompressedTable::solve_event_driven`]) — cheap
//! to build *and* cheap to keep resident even at `10^9`-tick lifespans.
//!
//! ## Sharding
//!
//! Under many-tenant serving traffic one map lock is the contention
//! point: every warm hit of every tenant funnels through it. The map is
//! therefore **sharded by grid key** — `(setup, ticks_per_setup)` picks
//! a shard deterministically, so every interrupt budget of one grid
//! lives in one shard (the larger-`p`-serves-smaller fallback scan never
//! crosses shards) while distinct tenant grids spread over independent
//! locks. Recency stamps still come from **one global logical clock**
//! and the memory budget is enforced across all shards at once by
//! always evicting the *globally* least-recently-used entry, so
//! [`CacheStats`] and the eviction victim sequence are bit-identical at
//! any shard count for a given workload order — the shard-clock
//! determinism rule (see `docs/INVARIANTS.md`), pinned by the
//! `shard_determinism` integration suite.
//!
//! ## Memory budget and eviction
//!
//! An unbounded cache grows forever under a long-running server's
//! traffic. [`TableCache::set_memory_budget`] caps the resident bytes
//! (by each table's own `memory_bytes` accounting); when an insert
//! pushes the cache past the budget, least-recently-used entries are
//! **evicted** until it fits again. Every lookup that serves a table —
//! hit or insert — refreshes its recency, so sweep working sets stay
//! resident while stale grids age out. Evicted tables are offered to
//! the optional [`TableCache::set_evict_hook`] callback first (outside
//! the cache locks), which is how `cyclesteal-serve` snapshots them to
//! disk before dropping them. [`CacheStats`] reports `evictions` and
//! `resident_bytes`. The budget is enforced strictly: a table larger
//! than the whole budget is still *served* to its caller (who holds
//! their own `Arc`) but is not retained — so correctness never depends
//! on the budget, only residency does.
//!
//! The persistence layer (`cyclesteal-store`) restores a cache through
//! [`TableCache::admit_compressed`] / [`TableCache::compressed_tables`]:
//! warm-started processes re-admit solved tables from disk instead of
//! paying the solve.
//!
//! The process-wide [`TableCache::global`] instance is what the bench
//! sweeps share.

use crate::compressed::CompressedTable;
use crate::profile::{PhaseRecorder, ProfileSink};
use cyclesteal_core::time::Time;
use cyclesteal_obs::Clock;
use parking_lot::Mutex;
// BTreeMap, not HashMap: map iteration feeds the fallback lookup and
// LRU tie-breaking, so iteration order must be deterministic (the
// `hash-collections` lint rule pins this).
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Cache key: everything that shapes a solve except the lifespan bound.
/// Ordered (for the `BTreeMap`s) by setup bits, then resolution, then
/// interrupt budget — so same-grid keys are adjacent and the fallback
/// scan's "smallest larger budget" is the first match in key order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct TableKey {
    /// `setup.get().to_bits()` — setups are compared exactly.
    setup_bits: u64,
    ticks_per_setup: u32,
    max_interrupts: u32,
}

impl TableKey {
    fn new(setup: Time, ticks_per_setup: u32, max_interrupts: u32) -> TableKey {
        TableKey {
            setup_bits: setup.get().to_bits(),
            ticks_per_setup,
            max_interrupts,
        }
    }
}

/// One cached table plus its LRU recency stamp.
struct Entry {
    table: Arc<CompressedTable>,
    /// Value of the cache's logical clock when the entry last served a
    /// request (or was inserted). Larger = more recently used.
    last_used: u64,
}

/// One shard's entries plus the bytes their tables hold. Every insert,
/// replace and removal goes through the methods below, which keep
/// `bytes` in step; tables are immutable, so the count is exact and the
/// budget check never re-sums the entries.
#[derive(Default)]
struct ShardMap {
    entries: BTreeMap<TableKey, Entry>,
    /// `memory_bytes()` summed over every table in `entries`.
    bytes: usize,
}

impl ShardMap {
    /// Inserts `entry` under `key`, replacing any entry already there.
    fn insert(&mut self, key: TableKey, entry: Entry) {
        self.bytes += entry.table.memory_bytes();
        if let Some(old) = self.entries.insert(key, entry) {
            self.bytes -= old.table.memory_bytes();
        }
    }

    /// Removes and returns the entry under `key`.
    fn remove(&mut self, key: &TableKey) -> Option<Entry> {
        let entry = self.entries.remove(key)?;
        self.bytes -= entry.table.memory_bytes();
        Some(entry)
    }

    /// Drops every entry.
    fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
    }
}

/// One solve request for [`TableCache::solve_many`].
#[derive(Clone, Copy, Debug)]
pub struct SolveConfig {
    /// The setup charge `c`.
    pub setup: Time,
    /// Grid resolution in ticks per setup charge.
    pub ticks_per_setup: u32,
    /// Largest lifespan the caller will query.
    pub max_lifespan: Time,
    /// Largest interrupt budget the caller will query.
    pub max_interrupts: u32,
}

/// Hit/miss/eviction counters for observability in sweeps and servers.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Queries answered from a cached table.
    pub hits: u64,
    /// Queries that triggered (or re-triggered) a solve.
    pub misses: u64,
    /// Entries dropped by the memory budget's LRU eviction.
    pub evictions: u64,
    /// Distinct `(setup, ticks_per_setup, p_max)` entries held.
    pub compressed_entries: usize,
    /// Bytes currently held by all cached tables, by each table's own
    /// accounting.
    pub resident_bytes: usize,
}

/// The callback offered every table the memory budget evicts (see
/// [`TableCache::set_evict_hook`]).
pub type EvictHook = Box<dyn Fn(&Arc<CompressedTable>) + Send + Sync>;

/// Shard count used by [`TableCache::new`]. Semantics are
/// shard-count-invariant (see the module docs), so this is purely a
/// contention knob.
const DEFAULT_SHARDS: usize = 8;

/// One lock domain of the sharded cache: the map for every grid key
/// that hashes here, plus this shard's own hit/miss/eviction counters
/// (the global [`CacheStats`] is the sum of these, so the aggregate and
/// the per-shard view can never drift). Cross-shard operations (stats,
/// budget enforcement, clear) acquire shard locks in index order.
struct Shard {
    map: Mutex<ShardMap>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            map: Mutex::new(ShardMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }
}

/// Per-shard slice of [`CacheStats`]: the same counters, attributed to
/// the lock domain whose grid keys produced them. Summing every field
/// across [`TableCache::shard_stats`] reproduces [`TableCache::stats`]
/// exactly — events are counted once, on their key's shard, never on a
/// separate global counter that could drift.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Index of this shard in the cache's lock-domain array.
    pub shard: usize,
    /// Queries this shard answered from a cached table.
    pub hits: u64,
    /// Queries on this shard's grids that triggered a solve.
    pub misses: u64,
    /// Entries evicted from this shard by the global LRU budget.
    pub evictions: u64,
    /// Entries resident in this shard.
    pub compressed_entries: usize,
    /// Bytes held by this shard's tables, by their own accounting.
    pub resident_bytes: usize,
}

/// A concurrent cache of solved [`CompressedTable`]s keyed by
/// `(setup, ticks_per_setup, p_max)`, serving all smaller-lifespan
/// queries from one solve per key, sharded by grid key, with an
/// optional LRU memory budget enforced globally across shards.
pub struct TableCache {
    /// Lifespan headroom multiplier applied on every (re-)solve, so a
    /// sweep creeping upward in `L` amortizes to `O(log L)` solves.
    growth: f64,
    /// The lock domains. Selection mixes `(setup_bits, ticks_per_setup)`
    /// only — never `max_interrupts` — so all budgets of a grid share a
    /// shard and the fallback scan stays shard-local. Hit/miss/eviction
    /// counters live *on the shards* (see [`Shard`]); the global
    /// aggregate is their sum.
    shards: Vec<Shard>,
    /// Resident-bytes cap; `usize::MAX` means unbounded (the default).
    budget: AtomicUsize,
    /// Logical LRU clock, bumped whenever an entry serves a request.
    /// Global across shards: stamps are unique and totally ordered, so
    /// "globally least recently used" is well defined at any shard
    /// count.
    clock: AtomicU64,
    evict_hook: Mutex<Option<EvictHook>>,
    /// Injected monotonic clock for phase-profiled solves (see
    /// [`Self::set_profiling`]); `None` means solves run unprofiled.
    profile_clock: Mutex<Option<Arc<dyn Clock>>>,
    /// Callback offered each profiled solve's phase timings.
    profile_sink: Mutex<Option<ProfileSink>>,
}

impl Default for TableCache {
    fn default() -> Self {
        TableCache::new()
    }
}

impl TableCache {
    /// A cache with 25% lifespan headroom and the default shard count.
    /// Unbounded until [`Self::set_memory_budget`].
    pub fn new() -> TableCache {
        TableCache::with_shards(DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count. Sharding is a contention
    /// knob, never a semantics knob: stats and the eviction victim
    /// sequence are bit-identical at any `shards ≥ 1` (clamped up from
    /// 0) for a given workload order.
    pub fn with_shards(shards: usize) -> TableCache {
        TableCache {
            growth: 1.25,
            shards: (0..shards.max(1)).map(|_| Shard::new()).collect(),
            budget: AtomicUsize::new(usize::MAX),
            clock: AtomicU64::new(0),
            evict_hook: Mutex::new(None),
            profile_clock: Mutex::new(None),
            profile_sink: Mutex::new(None),
        }
    }

    /// How many lock domains this cache spreads grid keys over.
    #[cfg(test)]
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `key`'s grid. Mixes `(setup_bits,
    /// ticks_per_setup)` only, so every interrupt budget of a grid maps
    /// to the same shard and the larger-`p` fallback scan in
    /// [`Self::peek`] never needs to look elsewhere.
    fn shard(&self, key: &TableKey) -> &Shard {
        &self.shards[self.shard_index(key.setup_bits, key.ticks_per_setup)]
    }

    /// Index of the shard owning the grid `(setup_bits,
    /// ticks_per_setup)` — the attribution point for per-shard
    /// counters when only the grid identity is at hand.
    fn shard_index(&self, setup_bits: u64, ticks_per_setup: u32) -> usize {
        // SplitMix64 finalizer over the grid identity — deterministic,
        // seedless, and uniform enough to spread tenant grids.
        let mut x = setup_bits ^ u64::from(ticks_per_setup).rotate_left(32);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        (x % self.shards.len() as u64) as usize
    }

    /// The process-wide shared cache used by the sweep benches.
    pub fn global() -> &'static TableCache {
        static GLOBAL: OnceLock<TableCache> = OnceLock::new();
        GLOBAL.get_or_init(TableCache::new)
    }

    /// Caps (or, with `None`, unbounds) the bytes the cache may keep
    /// resident, and immediately evicts LRU entries down to the new
    /// budget. The budget bounds *residency*, never correctness: an
    /// oversized solve is still served to its caller, it just doesn't
    /// stay cached.
    pub fn set_memory_budget(&self, budget: Option<usize>) {
        self.budget
            .store(budget.unwrap_or(usize::MAX), Ordering::Relaxed);
        self.enforce_budget();
    }

    /// The current resident-bytes cap, if one is set.
    pub fn memory_budget(&self) -> Option<usize> {
        match self.budget.load(Ordering::Relaxed) {
            usize::MAX => None,
            b => Some(b),
        }
    }

    /// Installs (or, with `None`, removes) the callback offered every
    /// table the memory budget evicts — the snapshot-on-evict hook of
    /// the serving layer. Called outside the cache locks, after the
    /// entry is already gone from the cache.
    pub fn set_evict_hook(&self, hook: Option<EvictHook>) {
        *self.evict_hook.lock() = hook;
    }

    /// Installs (or, with `None`s, removes) the phase-profiling pair:
    /// a monotonic [`Clock`] and a sink offered each cache-triggered
    /// solve's [`crate::PhaseTimings`]. With no clock the solver runs
    /// unprofiled (not even no-op clock reads); with a clock and no
    /// sink phases are timed and discarded. Profiling never changes
    /// solver output — the clock is read only *between* phases — so
    /// instrumented solves stay bit-identical (pinned by the
    /// `profiled_solves_are_bit_identical` test and the crate's
    /// `clippy::disallowed_methods` deny, which keeps `Instant::now` out
    /// of this crate: production clocks are injected by
    /// `cyclesteal-serve`).
    pub fn set_profiling(&self, clock: Option<Arc<dyn Clock>>, sink: Option<ProfileSink>) {
        *self.profile_clock.lock() = clock;
        *self.profile_sink.lock() = sink;
    }

    /// The event-driven solve, with `max_lifespan` grown by the headroom
    /// factor and phase-profiled when a clock is installed.
    fn solve(
        &self,
        setup: Time,
        ticks_per_setup: u32,
        max_lifespan: Time,
        max_interrupts: u32,
    ) -> CompressedTable {
        let lifespan = max_lifespan * self.growth;
        let clock = self.profile_clock.lock().clone();
        let Some(clock) = clock else {
            return CompressedTable::solve_event_driven(
                setup,
                ticks_per_setup,
                lifespan,
                max_interrupts,
            );
        };
        let recorder = PhaseRecorder::new(&*clock);
        let table = CompressedTable::solve_event_driven_profiled(
            setup,
            ticks_per_setup,
            lifespan,
            max_interrupts,
            &recorder,
        );
        if let Some(sink) = self.profile_sink.lock().as_ref() {
            sink(&recorder.timings());
        }
        table
    }

    /// Solves all `configs` with one solve per distinct grid (at the
    /// largest requested lifespan and budget), fanned out over
    /// `cyclesteal-par` workers. Returns one covering table per input
    /// config, in input order.
    ///
    /// The returned tables are the solver's (or the dedup pass's) own
    /// `Arc`s, **not** re-read from the cache afterwards: cache insertion
    /// is best-effort, so a concurrent [`Self::clear`] — or a racing
    /// insert that kept a different table for the key — can never turn
    /// the collection into a panic or change what the caller gets.
    ///
    /// Every config counts exactly once in [`CacheStats`]: a hit when a
    /// cached table already covered it, a hit when it coalesced onto
    /// another config's solve, a miss for each solve actually run.
    ///
    /// ```
    /// use cyclesteal_core::time::secs;
    /// use cyclesteal_dp::{SolveConfig, TableCache};
    ///
    /// let cache = TableCache::new();
    /// // Three sweep cells on one grid: the batch coalesces them into a
    /// // single solve at the largest lifespan and budget.
    /// let configs: Vec<SolveConfig> = [(30.0, 1u32), (80.0, 2), (50.0, 2)]
    ///     .iter()
    ///     .map(|&(u, p)| SolveConfig {
    ///         setup: secs(1.0),
    ///         ticks_per_setup: 8,
    ///         max_lifespan: secs(u),
    ///         max_interrupts: p,
    ///     })
    ///     .collect();
    /// let tables = cache.solve_many(&configs);
    /// assert_eq!(tables.len(), 3);
    /// assert_eq!(cache.stats().misses, 1, "one grid → one solve");
    /// // Every returned table covers its config's full range.
    /// let w = tables[1].value(2, secs(80.0));
    /// assert!(w.get() > 0.0);
    /// ```
    pub fn solve_many(&self, configs: &[SolveConfig]) -> Vec<Arc<CompressedTable>> {
        // Resolution pass: serve what the cache already covers, coalesce
        // the rest — one pending solve per (setup, resolution), at the
        // max interrupt budget and lifespan requested for that grid (a
        // `p_max` solve materializes every smaller budget, so mixed-p
        // batches need only one solve per grid).
        let mut results: Vec<Option<Arc<CompressedTable>>> = vec![None; configs.len()];
        let mut pending: BTreeMap<(u64, u32), SolveConfig> = BTreeMap::new();
        let mut waiting: Vec<(usize, (u64, u32))> = Vec::new();
        for (i, cfg) in configs.iter().enumerate() {
            let key = TableKey::new(cfg.setup, cfg.ticks_per_setup, cfg.max_interrupts);
            if let Some(table) = self.lookup(&key, cfg.max_lifespan) {
                results[i] = Some(table);
                continue;
            }
            let group = (key.setup_bits, key.ticks_per_setup);
            pending
                .entry(group)
                .and_modify(|p| {
                    if cfg.max_lifespan > p.max_lifespan {
                        p.max_lifespan = cfg.max_lifespan;
                    }
                    if cfg.max_interrupts > p.max_interrupts {
                        p.max_interrupts = cfg.max_interrupts;
                    }
                })
                .or_insert(*cfg);
            waiting.push((i, group));
        }

        let jobs: Vec<((u64, u32), SolveConfig)> = pending.into_iter().collect();
        // One miss per solve run, on the solved grid's shard; configs
        // that coalesced onto another config's solve were still served
        // without their own solve, which is a hit on the same shard — so
        // hits + misses always equals the batch size, per shard and in
        // aggregate.
        let mut group_sizes: BTreeMap<(u64, u32), u64> = BTreeMap::new();
        for (_, group) in &waiting {
            *group_sizes.entry(*group).or_insert(0) += 1;
        }
        for ((setup_bits, ticks), members) in group_sizes {
            let shard = &self.shards[self.shard_index(setup_bits, ticks)];
            shard.misses.fetch_add(1, Ordering::Relaxed);
            shard.hits.fetch_add(members - 1, Ordering::Relaxed);
        }

        let solved = cyclesteal_par::par_map(&jobs, |(_, cfg)| {
            self.solve(
                cfg.setup,
                cfg.ticks_per_setup,
                cfg.max_lifespan,
                cfg.max_interrupts,
            )
        });
        let mut by_group: BTreeMap<(u64, u32), Arc<CompressedTable>> = BTreeMap::new();
        for ((group, cfg), table) in jobs.into_iter().zip(solved) {
            let key = TableKey::new(cfg.setup, cfg.ticks_per_setup, cfg.max_interrupts);
            let table = Arc::new(table);
            // Best-effort publication; the batch's answers come from the
            // solver output either way.
            self.insert_if_larger(key, table.clone());
            by_group.insert(group, table);
        }
        self.enforce_budget();
        for (i, group) in waiting {
            results[i] = Some(
                by_group
                    .get(&group)
                    .expect("every waiting config joined a pending group")
                    .clone(),
            );
        }

        results
            .into_iter()
            .map(|t| t.expect("every config resolved to a hit or a solved group"))
            .collect()
    }

    /// Returns a table covering `(setup, ticks_per_setup, ≥max_lifespan,
    /// max_interrupts)`, solving (event-driven, with lifespan headroom)
    /// only when no cached table covers the request — the cache entry
    /// point for sweeps from a few hundred ticks up to `10^9`.
    pub fn get_compressed(
        &self,
        setup: Time,
        ticks_per_setup: u32,
        max_lifespan: Time,
        max_interrupts: u32,
    ) -> Arc<CompressedTable> {
        let key = TableKey::new(setup, ticks_per_setup, max_interrupts);
        if let Some(table) = self.lookup(&key, max_lifespan) {
            return table;
        }
        self.shard(&key).misses.fetch_add(1, Ordering::Relaxed);
        // Solve outside the lock: concurrent callers may duplicate work,
        // but never block each other behind a long solve.
        let table = Arc::new(self.solve(setup, ticks_per_setup, max_lifespan, max_interrupts));
        let table = self.insert_if_larger(key, table);
        self.enforce_budget();
        table
    }

    /// [`Self::get_compressed`]'s lookup half only: returns a covering
    /// cached table (counting a hit and refreshing its recency) or
    /// `None` — **never** solving. This is the serving layer's warm-hit
    /// fast lane: a warm query can be answered without queueing behind
    /// any tenant's cold solve. A miss here counts nothing; the
    /// follow-up [`Self::get_compressed`] does the miss accounting.
    pub fn try_get_compressed(
        &self,
        setup: Time,
        ticks_per_setup: u32,
        max_lifespan: Time,
        max_interrupts: u32,
    ) -> Option<Arc<CompressedTable>> {
        let key = TableKey::new(setup, ticks_per_setup, max_interrupts);
        self.lookup(&key, max_lifespan)
    }

    /// Inserts an externally obtained table — typically one deserialized
    /// from a snapshot — under its own `(setup, resolution, p_max)` key,
    /// so later [`Self::get_compressed`] calls it covers are hits
    /// instead of solves. Follows the normal insert policy (the
    /// larger-coverage table wins a key collision) and the memory
    /// budget; counts neither a hit nor a miss. Returns the entry that
    /// ended up cached for the key (the admitted table, unless a larger
    /// one was already there).
    pub fn admit_compressed(&self, table: Arc<CompressedTable>) -> Arc<CompressedTable> {
        let key = TableKey::new(
            table.grid().setup(),
            table.grid().q() as u32,
            table.max_interrupts(),
        );
        let table = self.insert_if_larger(key, table);
        self.enforce_budget();
        table
    }

    /// A point-in-time snapshot of every cached table — what the
    /// persistence layer writes out in `snapshot_to_dir`-style sweeps.
    /// Does not touch LRU recency or the hit/miss counters. Ordered by
    /// key (shards are visited in index order, keys in map order within
    /// a shard).
    pub fn compressed_tables(&self) -> Vec<Arc<CompressedTable>> {
        let mut tables: Vec<(TableKey, Arc<CompressedTable>)> = Vec::new();
        for shard in &self.shards {
            let map = shard.map.lock();
            tables.extend(map.entries.iter().map(|(k, e)| (*k, e.table.clone())));
        }
        tables.sort_by_key(|(k, _)| *k);
        tables.into_iter().map(|(_, t)| t).collect()
    }

    /// Hit/miss/entry counters since construction (or [`Self::clear`]).
    /// Computed by summing the per-shard counters in one pass — the
    /// aggregate is definitionally the sum of [`Self::shard_stats`].
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in self.shard_stats() {
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.compressed_entries += s.compressed_entries;
            total.resident_bytes += s.resident_bytes;
        }
        total
    }

    /// Per-shard hit/miss/eviction/residency counters, one entry per
    /// lock domain in shard-index order, read in a single pass holding
    /// each shard's lock in turn. Counter events are attributed to the
    /// shard owning the query's grid key, never double-counted globally,
    /// so summing this vector field-by-field reproduces [`Self::stats`]
    /// exactly.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let map = shard.map.lock();
                ShardStats {
                    shard: i,
                    hits: shard.hits.load(Ordering::Relaxed),
                    misses: shard.misses.load(Ordering::Relaxed),
                    evictions: shard.evictions.load(Ordering::Relaxed),
                    compressed_entries: map.entries.len(),
                    resident_bytes: map.bytes,
                }
            })
            .collect()
    }

    /// Drops every cached table and resets the counters (the budget and
    /// evict hook persist).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.map.lock().clear();
            shard.hits.store(0, Ordering::Relaxed);
            shard.misses.store(0, Ordering::Relaxed);
            shard.evictions.store(0, Ordering::Relaxed);
        }
    }

    /// Evicts least-recently-used entries (globally, across every shard)
    /// until the resident bytes fit the budget — strictly: the entry
    /// that triggered the enforcement is the most recently used and goes
    /// last, but even it is dropped when it alone exceeds the budget
    /// (its caller already holds the `Arc`). Victim order is a pure
    /// function of the global clock stamps — never of shard layout —
    /// which is the shard-clock determinism rule. Evicted tables are
    /// offered to the evict hook after the locks are released.
    fn enforce_budget(&self) {
        let budget = self.budget.load(Ordering::Relaxed);
        if budget == usize::MAX {
            return;
        }
        let mut victims: Vec<Arc<CompressedTable>> = Vec::new();
        {
            // Shard index order (matches stats()). All locks are held for
            // the whole enforcement so the global LRU choice cannot race
            // a concurrent stamp refresh.
            let mut guards: Vec<_> = self.shards.iter().map(|s| s.map.lock()).collect();
            // Each shard keeps its own byte count, so the check costs one
            // add per shard, not a pass over every resident table.
            while guards.iter().map(|map| map.bytes).sum::<usize>() > budget {
                // Global minimum: clock stamps are unique (fetch_add), so
                // there is exactly one across all shards.
                let Some((si, key)) = guards
                    .iter()
                    .enumerate()
                    .filter_map(|(si, map)| {
                        map.entries
                            .iter()
                            .min_by_key(|(_, e)| e.last_used)
                            .map(|(k, e)| (si, *k, e.last_used))
                    })
                    .min_by_key(|&(_, _, stamp)| stamp)
                    .map(|(si, key, _)| (si, key))
                else {
                    break;
                };
                if let Some(entry) = guards[si].remove(&key) {
                    victims.push(entry.table);
                }
                self.shards[si].evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        if !victims.is_empty() {
            let hook = self.evict_hook.lock();
            if let Some(hook) = hook.as_ref() {
                for table in &victims {
                    // A panicking hook must not unwind into whichever
                    // cache caller happened to trigger the eviction (and
                    // must not skip the remaining victims): eviction
                    // side effects are best-effort by contract, so the
                    // panic is contained here and merely logged.
                    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hook(table)))
                        .is_err()
                    {
                        eprintln!("cyclesteal-dp: evict hook panicked (contained)");
                    }
                }
            }
        }
    }

    /// [`Self::peek`], counting a hit when a table is found.
    fn lookup(&self, key: &TableKey, max_lifespan: Time) -> Option<Arc<CompressedTable>> {
        let found = self.peek(key, max_lifespan);
        if found.is_some() {
            self.shard(key).hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// The lookup policy: the exact key, or any table for the same
    /// `(setup, resolution)` with a *larger* interrupt budget — levels
    /// are solved bottom-up, so a `p_max` table holds every smaller
    /// budget exactly. Serving an entry refreshes its LRU stamp.
    fn peek(&self, key: &TableKey, max_lifespan: Time) -> Option<Arc<CompressedTable>> {
        let mut map = self.shard(key).map.lock();
        let hit_key = match map.entries.get(key) {
            Some(entry) if entry.table.covers(max_lifespan) => Some(*key),
            _ => map
                .entries
                .iter()
                .filter(|(k, entry)| {
                    k.setup_bits == key.setup_bits
                        && k.ticks_per_setup == key.ticks_per_setup
                        && k.max_interrupts > key.max_interrupts
                        && entry.table.covers(max_lifespan)
                })
                .min_by_key(|(k, _)| k.max_interrupts)
                .map(|(k, _)| *k),
        }?;
        let entry = map.entries.get_mut(&hit_key).expect("key located above");
        entry.last_used = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        Some(entry.table.clone())
    }

    /// The insert policy: keep whichever of the cached and offered table
    /// covers more (a racing solver may have beaten us to the key);
    /// either way the surviving entry becomes most recently used.
    fn insert_if_larger(&self, key: TableKey, table: Arc<CompressedTable>) -> Arc<CompressedTable> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut map = self.shard(&key).map.lock();
        match map.entries.get_mut(&key) {
            Some(existing) if existing.table.max_ticks() >= table.max_ticks() => {
                existing.last_used = stamp;
                existing.table.clone()
            }
            _ => {
                map.insert(
                    key,
                    Entry {
                        table: table.clone(),
                        last_used: stamp,
                    },
                );
                table
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::PhaseTimings;
    use cyclesteal_core::time::secs;

    #[test]
    fn second_smaller_query_is_a_hit() {
        let cache = TableCache::new();
        let a = cache.get_compressed(secs(1.0), 8, secs(100.0), 2);
        let b = cache.get_compressed(secs(1.0), 8, secs(40.0), 2);
        assert!(
            Arc::ptr_eq(&a, &b),
            "smaller lifespan should reuse the solve"
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.compressed_entries), (1, 1, 1));
        // The shared table answers the smaller query exactly.
        assert_eq!(
            a.value_ticks(2, 40 * 8),
            CompressedTable::solve(secs(1.0), 8, secs(40.0), 2).value_ticks(2, 40 * 8)
        );
    }

    #[test]
    fn headroom_absorbs_creeping_sweeps() {
        let cache = TableCache::new();
        let _ = cache.get_compressed(secs(1.0), 4, secs(100.0), 1);
        // 25% headroom: up to 125 is covered without a re-solve.
        let _ = cache.get_compressed(secs(1.0), 4, secs(120.0), 1);
        assert_eq!(cache.stats().misses, 1);
        let _ = cache.get_compressed(secs(1.0), 4, secs(200.0), 1);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = TableCache::new();
        let a = cache.get_compressed(secs(1.0), 8, secs(50.0), 1);
        let b = cache.get_compressed(secs(1.0), 8, secs(50.0), 2);
        let c = cache.get_compressed(secs(1.0), 16, secs(50.0), 1);
        let d = cache.get_compressed(secs(2.0), 8, secs(50.0), 1);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().compressed_entries, 4);
        assert_eq!(b.max_interrupts(), 2);
        assert_eq!(c.grid().q(), 16);
        assert_eq!(d.grid().setup(), secs(2.0));
    }

    #[test]
    fn solve_many_coalesces_and_preserves_order() {
        let cache = TableCache::new();
        let configs: Vec<SolveConfig> = [30.0, 80.0, 50.0]
            .iter()
            .map(|&u| SolveConfig {
                setup: secs(1.0),
                ticks_per_setup: 8,
                max_lifespan: secs(u),
                max_interrupts: 2,
            })
            .collect();
        let tables = cache.solve_many(&configs);
        assert_eq!(tables.len(), 3);
        // One key → one solve → one shared table.
        assert_eq!(cache.stats().misses, 1);
        assert!(Arc::ptr_eq(&tables[0], &tables[1]));
        assert!(Arc::ptr_eq(&tables[1], &tables[2]));
        assert!(tables[0].max_lifespan() >= secs(80.0));
    }

    #[test]
    fn solve_many_mixed_keys() {
        let cache = TableCache::new();
        let configs = vec![
            SolveConfig {
                setup: secs(1.0),
                ticks_per_setup: 8,
                max_lifespan: secs(60.0),
                max_interrupts: 1,
            },
            SolveConfig {
                setup: secs(1.0),
                ticks_per_setup: 8,
                max_lifespan: secs(60.0),
                max_interrupts: 3,
            },
        ];
        let tables = cache.solve_many(&configs);
        // Same grid, different budgets: one p=3 solve serves both.
        assert_eq!(cache.stats().misses, 1);
        assert!(Arc::ptr_eq(&tables[0], &tables[1]));
        assert_eq!(tables[1].max_interrupts(), 3);
        // Values agree with fresh direct solves at both budgets.
        let direct = CompressedTable::solve(secs(1.0), 8, secs(60.0), 3);
        for l in 0..=direct.max_ticks() {
            assert_eq!(tables[0].value_ticks(1, l), direct.value_ticks(1, l));
            assert_eq!(tables[1].value_ticks(3, l), direct.value_ticks(3, l));
        }
    }

    #[test]
    fn smaller_budget_served_from_larger_p_table() {
        let cache = TableCache::new();
        let big = cache.get_compressed(secs(1.0), 8, secs(60.0), 3);
        let small = cache.get_compressed(secs(1.0), 8, secs(60.0), 1);
        assert!(
            Arc::ptr_eq(&big, &small),
            "p=1 request should reuse the p=3 table"
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.compressed_entries), (1, 1, 1));
        // Level 1 of the shared table is the exact p=1 answer.
        let direct = CompressedTable::solve(secs(1.0), 8, secs(60.0), 1);
        for l in 0..=direct.max_ticks() {
            assert_eq!(small.value_ticks(1, l), direct.value_ticks(1, l));
        }
    }

    #[test]
    fn hit_never_returns_a_table_too_small_to_query() {
        // A lifespan a fraction of a tick past the solved range must
        // re-solve, not hand back a table whose value() would panic.
        let cache = TableCache::new();
        let first = cache.get_compressed(secs(1.0), 8, secs(100.0), 1);
        let covered = first.max_lifespan();
        let just_past = covered + secs(0.01);
        let second = cache.get_compressed(secs(1.0), 8, just_past, 1);
        // Either way the contract holds: the returned table answers the
        // requested lifespan without panicking.
        let _ = second.value(1, just_past);
        assert!(second.max_lifespan() >= just_past);
    }

    #[test]
    fn solve_many_accounts_every_config_exactly_once() {
        let cache = TableCache::new();
        let configs: Vec<SolveConfig> = (0..3)
            .map(|_| SolveConfig {
                setup: secs(1.0),
                ticks_per_setup: 8,
                max_lifespan: secs(40.0),
                max_interrupts: 2,
            })
            .collect();
        let _ = cache.solve_many(&configs);
        let s = cache.stats();
        // One solve ran (miss); the two configs that coalesced onto it
        // were served without their own solve (hits). Every config is
        // counted: hits + misses == batch size.
        assert_eq!((s.hits, s.misses), (2, 1));

        // A second identical batch is pure cache hits.
        let _ = cache.solve_many(&configs);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (5, 1));
    }

    #[test]
    fn solve_many_survives_concurrent_clear() {
        // Regression: the collection pass used to re-read the cache after
        // the insert loop and `expect` the key to be present — a racing
        // `clear()` in that window panicked. Results now come straight
        // from the solver, so a clear storm must never break a batch.
        use std::sync::atomic::AtomicBool;

        let cache = TableCache::new();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    cache.clear();
                    std::thread::yield_now();
                }
            });
            for round in 0..40u32 {
                let configs: Vec<SolveConfig> = (0..3u32)
                    .map(|i| SolveConfig {
                        setup: secs(1.0),
                        ticks_per_setup: 4,
                        max_lifespan: secs(20.0 + (round % 5) as f64 + i as f64),
                        max_interrupts: 1 + (i % 2),
                    })
                    .collect();
                let tables = cache.solve_many(&configs);
                for (cfg, table) in configs.iter().zip(&tables) {
                    assert!(table.max_lifespan() >= cfg.max_lifespan);
                    assert!(table.max_interrupts() >= cfg.max_interrupts);
                    // The contract: every returned table answers its
                    // config's full range without panicking.
                    let _ = table.value(cfg.max_interrupts, cfg.max_lifespan);
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn cached_tables_are_event_driven_builds() {
        let cache = TableCache::new();
        let a = cache.get_compressed(secs(1.0), 8, secs(100.0), 2);
        // 25% headroom, solved by the production (event-driven) build.
        let direct = CompressedTable::solve_event_driven(secs(1.0), 8, secs(125.0), 2);
        assert_eq!(*a, direct);
        cache.clear();
        assert_eq!(cache.stats().compressed_entries, 0);
    }

    #[test]
    fn global_is_shared() {
        let a = TableCache::global();
        let b = TableCache::global();
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn resident_bytes_track_cached_tables() {
        let cache = TableCache::new();
        assert_eq!(cache.stats().resident_bytes, 0);
        let a = cache.get_compressed(secs(1.0), 8, secs(60.0), 1);
        let b = cache.get_compressed(secs(2.0), 8, secs(60.0), 1);
        assert_eq!(
            cache.stats().resident_bytes,
            a.memory_bytes() + b.memory_bytes()
        );
        cache.clear();
        assert_eq!(cache.stats().resident_bytes, 0);
    }

    #[test]
    fn budget_evicts_least_recently_used_first() {
        let cache = TableCache::new();
        // Two grids; the first one is then refreshed by a hit,
        // so the *first* grid is the LRU victim when the budget bites.
        let a = cache.get_compressed(secs(1.0), 8, secs(60.0), 1);
        let b = cache.get_compressed(secs(2.0), 8, secs(60.0), 1);
        let _hit = cache.get_compressed(secs(1.0), 8, secs(30.0), 1);
        assert_eq!(cache.stats().compressed_entries, 2);
        let keep = a.memory_bytes() + b.memory_bytes() - 1;
        cache.set_memory_budget(Some(keep));
        let s = cache.stats();
        assert_eq!(s.compressed_entries, 1, "one entry must have been evicted");
        assert_eq!(s.evictions, 1);
        assert!(s.resident_bytes <= keep);
        // The refreshed grid survived; the stale one re-solves.
        let before = cache.stats().misses;
        let _ = cache.get_compressed(secs(1.0), 8, secs(30.0), 1);
        assert_eq!(cache.stats().misses, before, "refreshed entry still hit");
        let _ = cache.get_compressed(secs(2.0), 8, secs(30.0), 1);
        assert_eq!(cache.stats().misses, before + 1, "evicted entry re-solves");
    }

    #[test]
    fn oversized_insert_is_served_but_not_retained() {
        let cache = TableCache::new();
        let small = cache.get_compressed(secs(1.0), 4, secs(30.0), 1);
        cache.set_memory_budget(Some(small.memory_bytes()));
        assert_eq!(
            cache.stats().compressed_entries,
            1,
            "small table fits its budget"
        );
        // A larger solve cannot fit the budget at all: the caller is
        // still served (this Arc), but the budget is enforced strictly —
        // both the old entry and the oversized new one are evicted.
        let big = cache.get_compressed(secs(1.0), 4, secs(300.0), 2);
        assert!(big.memory_bytes() > small.memory_bytes());
        assert!(big.max_lifespan() >= secs(300.0), "caller fully served");
        let s = cache.stats();
        assert_eq!(s.evictions, 2);
        assert_eq!(s.compressed_entries, 0);
        assert!(s.resident_bytes <= small.memory_bytes());
    }

    #[test]
    fn evict_hook_sees_evicted_compressed_tables() {
        use std::sync::Mutex as StdMutex;
        let cache = TableCache::new();
        let seen: Arc<StdMutex<Vec<Arc<CompressedTable>>>> = Arc::new(StdMutex::new(Vec::new()));
        let sink = seen.clone();
        cache.set_evict_hook(Some(Box::new(move |table| {
            sink.lock().unwrap().push(table.clone());
        })));
        let a = cache.get_compressed(secs(1.0), 8, secs(400.0), 2);
        let _b = cache.get_compressed(secs(2.0), 8, secs(400.0), 2);
        cache.set_memory_budget(Some(1));
        let evicted = seen.lock().unwrap();
        assert_eq!(evicted.len(), 2, "both compressed entries evicted");
        assert!(evicted.iter().any(|t| Arc::ptr_eq(t, &a)));
        assert_eq!(cache.stats().compressed_entries, 0);
    }

    #[test]
    fn a_panicking_evict_hook_is_contained() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cache = TableCache::new();
        let calls = Arc::new(AtomicU64::new(0));
        let counter = calls.clone();
        cache.set_evict_hook(Some(Box::new(move |_table| {
            counter.fetch_add(1, Ordering::Relaxed);
            panic!("snapshot disk is gone");
        })));
        let _a = cache.get_compressed(secs(1.0), 8, secs(400.0), 2);
        let _b = cache.get_compressed(secs(2.0), 8, secs(400.0), 2);
        // The evicting call must neither panic nor stop at the first
        // victim, and the cache stays fully usable afterwards.
        cache.set_memory_budget(Some(1));
        assert_eq!(calls.load(Ordering::Relaxed), 2, "hook ran per victim");
        assert_eq!(cache.stats().compressed_entries, 0);
        cache.set_memory_budget(None);
        let again = cache.get_compressed(secs(1.0), 8, secs(400.0), 2);
        assert!(again.covers(secs(400.0)));
    }

    #[test]
    fn admit_compressed_turns_later_gets_into_hits() {
        let source = TableCache::new();
        let table = source.get_compressed(secs(1.0), 8, secs(80.0), 2);

        let fresh = TableCache::new();
        let admitted = fresh.admit_compressed(table.clone());
        assert!(Arc::ptr_eq(&admitted, &table));
        let s = fresh.stats();
        assert_eq!((s.hits, s.misses, s.compressed_entries), (0, 0, 1));
        // The admitted table serves the covered range without a solve.
        let served = fresh.get_compressed(secs(1.0), 8, secs(80.0), 2);
        assert!(Arc::ptr_eq(&served, &table));
        let s = fresh.stats();
        assert_eq!((s.hits, s.misses), (1, 0));
        // And the snapshot listing returns exactly the cached tables.
        let listed = fresh.compressed_tables();
        assert_eq!(listed.len(), 1);
        assert!(Arc::ptr_eq(&listed[0], &table));
    }

    #[test]
    fn shard_count_never_changes_stats_or_victims() {
        use std::sync::Mutex as StdMutex;
        // The same sequential workload against 1, 4 and 16 shards must
        // produce identical CacheStats and an identical eviction victim
        // sequence — the shard-clock determinism rule.
        let run = |shards: usize| {
            let cache = TableCache::with_shards(shards);
            assert_eq!(cache.shard_count(), shards);
            let victims: Arc<StdMutex<Vec<(u64, u32, u32)>>> = Arc::new(StdMutex::new(Vec::new()));
            let sink = victims.clone();
            cache.set_evict_hook(Some(Box::new(move |t| {
                sink.lock().unwrap().push((
                    t.grid().setup().get().to_bits(),
                    t.grid().q() as u32,
                    t.max_interrupts(),
                ));
            })));
            for round in 0..3u32 {
                for grid in 1..=5u64 {
                    let _ = cache.get_compressed(
                        secs(grid as f64),
                        4 << (grid % 2),
                        secs(200.0 + (u64::from(round) * grid) as f64),
                        1 + (grid % 3) as u32,
                    );
                }
                // Halve the (identical-across-runs) resident footprint so
                // the budget genuinely bites every round.
                let resident = cache.stats().resident_bytes;
                cache.set_memory_budget(Some(resident / 2));
                cache.set_memory_budget(None);
            }
            let s = cache.stats();
            let seen = victims.lock().unwrap().clone();
            ((s.hits, s.misses, s.evictions, s.resident_bytes), seen)
        };
        let baseline = run(1);
        assert_eq!(run(4), baseline);
        assert_eq!(run(16), baseline);
        assert!(!baseline.1.is_empty(), "the workload must actually evict");
    }

    #[test]
    fn larger_p_fallback_stays_shard_local_at_any_shard_count() {
        // All budgets of one grid must land in one shard, so the
        // p=1-served-from-p=3 fallback works however many shards exist.
        for shards in [1usize, 3, 16] {
            let cache = TableCache::with_shards(shards);
            let big = cache.get_compressed(secs(1.0), 8, secs(60.0), 3);
            let small = cache.get_compressed(secs(1.0), 8, secs(60.0), 1);
            assert!(Arc::ptr_eq(&big, &small), "{shards} shards");
            assert_eq!(cache.stats().hits, 1);
        }
    }

    #[test]
    fn profiled_solves_are_bit_identical() {
        use crate::profile::{Phase, PhaseRecorder};
        use cyclesteal_obs::LogicalClock;
        // A ticking logical clock: timings are nonzero and deterministic,
        // and the solved tables must not differ by a single bit.
        let clock = LogicalClock::with_step(7);

        let rec = PhaseRecorder::new(&clock);
        let plain = CompressedTable::solve_event_driven(secs(1.0), 8, secs(300.0), 2);
        let profiled =
            CompressedTable::solve_event_driven_profiled(secs(1.0), 8, secs(300.0), 2, &rec);
        assert_eq!(plain, profiled);
        let t = rec.timings();
        assert_eq!(t.calls(Phase::EventLoop), 2, "one event build per level");
        assert!(t.ns(Phase::EventLoop) > 0, "stepped clock ticks");
        assert_eq!(
            t.calls(Phase::RunCompression),
            2,
            "each level's compression is timed apart from its event loop"
        );
        assert!(t.ns(Phase::RunCompression) > 0);
        assert_eq!(t.calls(Phase::SkeletonBuild), 0, "no tick walk ran");

        // The tick-walking build attributes the walk and the run
        // compression separately.
        let rec = PhaseRecorder::new(&clock);
        let plain = CompressedTable::solve(secs(1.0), 8, secs(100.0), 2);
        let walked = CompressedTable::solve_profiled(secs(1.0), 8, secs(100.0), 2, &rec);
        assert_eq!(plain, walked);
        let t = rec.timings();
        assert_eq!(t.calls(Phase::SkeletonBuild), 2);
        assert_eq!(t.calls(Phase::RunCompression), 2);
        assert_eq!(t.calls(Phase::EventLoop), 0);
    }

    #[test]
    fn cache_profiling_sink_receives_phase_timings() {
        use crate::profile::Phase;
        use cyclesteal_obs::LogicalClock;
        use std::sync::Mutex as StdMutex;
        let cache = TableCache::new();
        let seen: Arc<StdMutex<Vec<PhaseTimings>>> = Arc::new(StdMutex::new(Vec::new()));
        let sink = seen.clone();
        cache.set_profiling(
            Some(Arc::new(LogicalClock::with_step(3))),
            Some(Box::new(move |t| sink.lock().unwrap().push(*t))),
        );
        let _ = cache.get_compressed(secs(1.0), 8, secs(200.0), 2);
        let _ = cache.solve_many(&[SolveConfig {
            setup: secs(3.0),
            ticks_per_setup: 8,
            max_lifespan: secs(50.0),
            max_interrupts: 1,
        }]);
        let timings = seen.lock().unwrap().clone();
        assert_eq!(timings.len(), 2, "one timing per cache-triggered solve");
        assert_eq!(timings[0].calls(Phase::EventLoop), 2);
        assert!(timings[0].total_ns() > 0);
        assert_eq!(timings[1].calls(Phase::EventLoop), 1);
        // Warm hits trigger no solve and no timing; removing the pair
        // stops profiling.
        let _ = cache.get_compressed(secs(1.0), 8, secs(200.0), 2);
        assert_eq!(seen.lock().unwrap().len(), 2);
        cache.set_profiling(None, None);
        let _ = cache.get_compressed(secs(2.0), 8, secs(200.0), 2);
        assert_eq!(seen.lock().unwrap().len(), 2);
    }

    /// Each shard's byte count tracks every insert, replacement,
    /// eviction and clear exactly: it always equals a fresh sum over the
    /// shard's tables.
    #[test]
    fn shard_byte_counts_match_a_fresh_sum() {
        let cache = TableCache::with_shards(3);
        let check = |cache: &TableCache| {
            for shard in &cache.shards {
                let map = shard.map.lock();
                let fresh: usize = map.entries.values().map(|e| e.table.memory_bytes()).sum();
                assert_eq!(map.bytes, fresh);
            }
        };
        // Inserts on four grids, then a larger solve replacing one key.
        for (c, u) in [
            (1.0, 40.0),
            (2.0, 40.0),
            (3.0, 40.0),
            (4.0, 60.0),
            (1.0, 200.0),
        ] {
            let _ = cache.get_compressed(secs(c), 8, secs(u), 2);
            check(&cache);
        }
        assert_eq!(cache.stats().compressed_entries, 4);
        // Evictions under a shrinking budget, then inserts under it.
        let resident = cache.stats().resident_bytes;
        cache.set_memory_budget(Some(resident / 2));
        check(&cache);
        assert!(cache.stats().evictions > 0);
        for c in [5.0, 6.0, 2.0] {
            let _ = cache.get_compressed(secs(c), 8, secs(50.0), 1);
            check(&cache);
        }
        assert!(cache.stats().resident_bytes <= resident / 2);
        cache.clear();
        check(&cache);
        assert_eq!(cache.stats().resident_bytes, 0);
    }

    #[test]
    fn shard_stats_sum_to_global_stats() {
        let cache = TableCache::new();
        for grid in 1..=6u64 {
            let _ = cache.get_compressed(secs(grid as f64), 8, secs(150.0), 1 + (grid % 3) as u32);
            let _ = cache.get_compressed(secs(grid as f64), 4, secs(40.0), 1);
        }
        // Re-query half the grids for hits, then shrink the budget so
        // evictions land on some shards too.
        for grid in 1..=3u64 {
            let _ = cache.get_compressed(secs(grid as f64), 8, secs(100.0), 1);
        }
        let resident = cache.stats().resident_bytes;
        cache.set_memory_budget(Some(resident / 3));

        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.len(), cache.shard_count());
        let total = cache.stats();
        assert_eq!(total.hits, per_shard.iter().map(|s| s.hits).sum::<u64>());
        assert_eq!(
            total.misses,
            per_shard.iter().map(|s| s.misses).sum::<u64>()
        );
        assert_eq!(
            total.evictions,
            per_shard.iter().map(|s| s.evictions).sum::<u64>()
        );
        assert_eq!(
            total.compressed_entries,
            per_shard
                .iter()
                .map(|s| s.compressed_entries)
                .sum::<usize>()
        );
        assert_eq!(
            total.resident_bytes,
            per_shard.iter().map(|s| s.resident_bytes).sum::<usize>()
        );
        assert!(total.evictions > 0, "the workload must actually evict");
        assert!(
            per_shard.iter().filter(|s| s.hits + s.misses > 0).count() > 1,
            "six grids must spread over more than one shard"
        );
    }

    #[test]
    fn shard_stats_stay_consistent_under_concurrent_load() {
        // Writers hammer distinct grids while a reader snapshots; after
        // the load quiesces, the per-shard sum must equal the aggregate
        // and the totals must account for every request exactly once.
        let cache = Arc::new(TableCache::new());
        let threads = 4u64;
        let rounds = 25u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = cache.clone();
                scope.spawn(move || {
                    for r in 0..rounds {
                        let grid = 1 + (t * rounds + r) % 5;
                        let _ = cache.get_compressed(secs(grid as f64), 4, secs(60.0), 1);
                    }
                });
            }
            // Concurrent snapshots must never tear structurally: each
            // snapshot's per-shard sum of hits+misses is monotone and
            // bounded by the number of requests issued so far.
            let cache = cache.clone();
            scope.spawn(move || {
                let mut last = 0u64;
                for _ in 0..50 {
                    let seen: u64 = cache.shard_stats().iter().map(|s| s.hits + s.misses).sum();
                    assert!(seen >= last, "per-shard sums must be monotone");
                    assert!(seen <= threads * rounds, "never more events than requests");
                    last = seen;
                    std::thread::yield_now();
                }
            });
        });
        let total = cache.stats();
        let per_shard = cache.shard_stats();
        assert_eq!(total.hits, per_shard.iter().map(|s| s.hits).sum::<u64>());
        assert_eq!(
            total.misses,
            per_shard.iter().map(|s| s.misses).sum::<u64>()
        );
        assert_eq!(
            total.hits + total.misses,
            threads * rounds,
            "every request counted exactly once"
        );
    }

    #[test]
    fn admit_keeps_the_larger_table_on_key_collision() {
        let source = TableCache::new();
        let big = source.get_compressed(secs(1.0), 8, secs(200.0), 2);
        let fresh = TableCache::new();
        let _ = fresh.get_compressed(secs(1.0), 8, secs(40.0), 2);
        let kept = fresh.admit_compressed(big.clone());
        assert!(Arc::ptr_eq(&kept, &big), "larger admitted table wins");
        let small_again = TableCache::new();
        let solved = small_again.get_compressed(secs(1.0), 8, secs(500.0), 2);
        let kept = small_again.admit_compressed(big.clone());
        assert!(
            Arc::ptr_eq(&kept, &solved),
            "existing larger table survives the admit"
        );
    }
}
