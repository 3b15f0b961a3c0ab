//! The cluster-based joining phase (paper §4, Algorithms 1–3).
//!
//! The phase runs as an explicit four-stage pipeline, each stage emitting
//! a [`StageStats`] record:
//!
//! 1. **pair discovery** — the ClusterGrid cell walk, materialising the
//!    unique cluster-slot pairs sharing at least one cell. Each candidate
//!    pair packs into one `u64` key; sorting + dedup of the reused key
//!    buffer replaces the old retained hash table, so the stage holds *no*
//!    cross-round state that could accumulate keys for dissolved clusters;
//! 2. **join-between** (Algorithm 2) — the circle/circle overlap
//!    pre-filter, evaluated as a sweep over the [`ClusterStore`]'s SoA
//!    centroid/radius columns (no per-pair pointer chase). Pairs whose
//!    regions do not overlap are pruned: their members are *guaranteed*
//!    not to join individually (the cluster region covers all member
//!    positions);
//! 3. **join-within** (Algorithm 3) — the exact object×query join over the
//!    members of both clusters. Before any member work, each surviving
//!    pair consults the [`JoinCache`]: if neither cluster has mutated
//!    since the pair's cached result was computed (per the engine's
//!    [`EpochTracker`]), the cached matches are replayed verbatim —
//!    bit-identical, because a clean cluster's materialisation is
//!    bit-identical too. Cache misses materialise members once per epoch
//!    into a flat SoA arena and run the exact join, partitioned across
//!    scoped worker threads (work-stealing over an atomic cursor) when
//!    [`JoinContext::parallelism`] > 1. A computed pair is *admitted* to
//!    the cache only when both clusters were already clean across the
//!    previous round — the one observable sign that it can replay — so a
//!    stream in which every cluster moves every Δ stores nothing and the
//!    empty cache costs two epoch-mark loads per pair;
//! 4. **result merge** — radix sort + dedup of the worker outputs, which
//!    makes the result set independent of thread count, of pair order and
//!    of the replayed/computed split.
//!
//! The per-tick path is hash-free: pairs are slot pairs, the cache is a
//! per-left-slot sorted row table, and the arena index is a dense stamped
//! per-slot table. Slot reuse is safe everywhere the cache is concerned —
//! dissolving forgets the slot's epoch mark (`u64::MAX` = always dirty)
//! and re-occupying it stamps a fresh clock value past any cached
//! `computed_at`, so stale entries can never revalidate (see
//! [`crate::store`]); unused entries are swept at the end of each round.
//!
//! Two engineering notes relative to the paper's pseudo-code:
//!
//! * Algorithm 3 joins the member *union* of both clusters, and Algorithm 1
//!   additionally runs a same-cluster join-within for mixed clusters — with
//!   the union semantics intra-cluster pairs would be compared once per
//!   overlapping partner. We compare *cross* pairs in the pair join and
//!   intra pairs exactly once in the same-cluster join; combined with the
//!   final dedup this produces the identical result set with fewer
//!   comparisons.
//! * Clusters sharing several grid cells would be joined once per shared
//!   cell; the sorted key dedup collapses the duplicates.
//!
//! Load shedding (§5) surfaces here: members whose relative position was
//! discarded are approximated **by their cluster centroid** — "individual
//! locations of the members can be discarded if need be, yet would still be
//! sufficiently approximated from the location of their cluster centroid"
//! (§1). Because every shed member of a cluster shares that single
//! approximate position, one predicate evaluation answers *all* of them at
//! once: a query region is tested against the centroid once and the verdict
//! fans out to the whole shed set, which is exactly why "the fewer relative
//! positions are maintained, the fewer individual joins need to be
//! performed" (§6.6). (§5 also sketches a coarser reading — assume all
//! members of overlapping clusters join — but that cross-product semantics
//! collapses accuracy to ~13 % on the default workload, far below the ~79 %
//! the paper reports at η = 50 %, so the centroid reading is the one
//! consistent with the paper's own measurements; see DESIGN.md.)

use std::sync::atomic::{AtomicUsize, Ordering};

use scuba_motion::{ObjectId, QueryId, QuerySpec};
use scuba_spatial::{Circle, Point, Rect};
use scuba_stream::{QueryMatch, StageStats, Stopwatch};

use crate::index::{DiscoveryScratch, SpatialIndex};
use crate::kernel::{self, pack_pair, KernelKind, PairTile};
use crate::radix;
use crate::shedding::SheddingMode;
use crate::store::{ClusterSlot, ClusterStore, EpochTracker};
use crate::tables::QueriesTable;

/// Stage name: grid cell walk + sorted pair dedup.
pub const STAGE_PAIR_DISCOVERY: &str = "pair-discovery";
/// Stage name: cluster-pair overlap pre-filter (Algorithm 2).
pub const STAGE_JOIN_BETWEEN: &str = "join-between";
/// Stage name: exact member join over surviving pairs (Algorithm 3).
pub const STAGE_JOIN_WITHIN: &str = "join-within";
/// Stage name: sort + dedup of raw matches.
pub const STAGE_RESULT_MERGE: &str = "result-merge";

/// Candidate pair keys the stage-1 buffer holds (1 MiB) before pair
/// discovery folds duplicates away instead of growing it.
const PAIR_COMPACT_MIN: usize = 1 << 17;

/// What one joining phase produced and how much work it did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JoinOutput {
    /// Deduplicated query answers.
    pub results: Vec<QueryMatch>,
    /// Exact object×query pair tests performed (join-within work). Pairs
    /// replayed from the [`JoinCache`] contribute nothing here — the
    /// counter measures work actually done this epoch.
    pub comparisons: u64,
    /// Coarse filter tests performed: cluster-pair overlap tests
    /// (join-between) plus member-vs-cluster reach tests inside
    /// join-within.
    pub prefilter_tests: u64,
    /// Cluster pairs pruned by join-between.
    pub pairs_pruned: u64,
    /// Cluster pairs that proceeded to join-within.
    pub pairs_joined: u64,
    /// Surviving pairs replayed from the [`JoinCache`].
    pub cache_hits: u64,
    /// Surviving pairs computed for lack of a valid cache entry.
    pub cache_misses: u64,
    /// Cache entries invalidated this epoch (inputs mutated, pair
    /// separated, or a cluster dissolved). Zero when caching is off.
    pub cache_invalidations: u64,
    /// Per-stage cost accounting, in pipeline order (pair discovery,
    /// join-between, join-within, result merge).
    pub stages: Vec<StageStats>,
}

/// Borrowed view of everything the joining phase needs. Decoupled from
/// [`crate::clustering::ClusterEngine`] so the K-means extension (§6.4) can
/// drive the identical join over offline-built clusters.
#[derive(Debug, Clone, Copy)]
pub struct JoinContext<'a> {
    /// The cluster store: slab, SoA hot columns and the epoch clock.
    pub store: &'a ClusterStore,
    /// The spatial index driving the candidate-cell loop (uniform grid or
    /// adaptive split/merge grid, behind the trait).
    pub grid: &'a dyn SpatialIndex,
    /// Query attributes (range extents).
    pub queries: &'a QueriesTable,
    /// Active shedding mode. The shed/exact split is carried by the
    /// cluster members themselves; recorded here for diagnostics.
    pub shedding: SheddingMode,
    /// Distance threshold Θ_D (bounds the centroid-approximation error of
    /// shed members; recorded for diagnostics).
    pub theta_d: f64,
    /// Whether to apply the member-vs-cluster reach filter inside
    /// join-within (sound either way; `false` reverts to Algorithm 3's
    /// plain nested loop for ablation).
    pub member_filter: bool,
    /// Worker threads for the join-within stage. 1 runs the serial path;
    /// n > 1 lets n scoped threads steal cache-miss pairs from a shared
    /// atomic cursor. The result set and all work counters are identical
    /// for every value.
    pub parallelism: usize,
    /// Which join-kernel implementation runs the join-between pre-filter
    /// and the join-within inner loops. Results and work counters are
    /// bit-identical for every kind (only the lane counters differ); see
    /// [`crate::kernel`].
    pub kernel: KernelKind,
}

/// Slot-pair-keyed cache of join-within results, carried across epochs.
///
/// Entries live in per-left-slot rows sorted by right slot, so the hot
/// lookup is one indexed load plus a binary search over a short row — no
/// hashing. Each entry stores the raw matches one surviving cluster pair
/// produced plus the [`EpochTracker`] clock value it was computed at. On
/// the next round the pair replays the stored matches iff *both* clusters
/// are still clean (no join-relevant mutation since `computed_at`) — in
/// that case the materialised member state is bit-identical to last
/// round's, so the replay is bit-identical to recomputation.
///
/// Admission is gated: a computed pair is stored only if both clusters
/// have been clean since the *previous* round's clock. A pair that mutated
/// within the last round will almost surely mutate again before the next,
/// and copying its matches would buy nothing (the ledger read a hit ratio
/// of 0.0 on every workload whose entities all report every Δ). The price
/// is one round of latency: a pair that stops moving is computed twice —
/// once dirty, once clean and admitted — and replays from the third round.
///
/// Entries whose pair does not survive a round (separated regions, pruned,
/// or a dissolved cluster) are swept at the end of that round, so the
/// cache never retains entries for clusters that no longer co-occur —
/// its size is bounded by the current surviving-pair population. Slot
/// reuse between rounds cannot revalidate a stale entry: the epoch clock
/// reads reused slots as dirty (see [`crate::store`]).
#[derive(Debug, Default)]
pub struct JoinCache {
    /// `rows[left_slot]` = (right_slot, entry), sorted by right slot.
    rows: Vec<Vec<(u32, CacheEntry)>>,
    live: usize,
    round: u64,
    /// Epoch-clock value the previous round ran at (the admission gate).
    prev_clock: Option<u64>,
}

#[derive(Debug)]
struct CacheEntry {
    matches: Vec<QueryMatch>,
    /// Epoch-clock value the matches were computed at.
    computed_at: u64,
    /// Cache round the entry was last hit or refreshed.
    last_used: u64,
}

impl JoinCache {
    /// An empty cache.
    pub fn new() -> Self {
        JoinCache::default()
    }

    /// Number of cached pair results.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Drops every entry (row allocations are kept).
    pub fn clear(&mut self) {
        for row in &mut self.rows {
            row.clear();
        }
        self.live = 0;
    }

    /// Mutable access to the entry for `(left, right)`, if cached.
    fn entry_mut(&mut self, left: ClusterSlot, right: ClusterSlot) -> Option<&mut CacheEntry> {
        if self.live == 0 {
            return None;
        }
        let row = self.rows.get_mut(left.index())?;
        let i = row.binary_search_by_key(&right.0, |e| e.0).ok()?;
        Some(&mut row[i].1)
    }

    /// Stores the entry for `(left, right)`. A pair already cached is
    /// either replayed (never recomputed) or stale — dirty since the
    /// previous round, hence not admitted — so this normally inserts.
    fn admit(&mut self, left: ClusterSlot, right: ClusterSlot, entry: CacheEntry) {
        if self.rows.len() <= left.index() {
            self.rows.resize_with(left.index() + 1, Vec::new);
        }
        let row = &mut self.rows[left.index()];
        match row.binary_search_by_key(&right.0, |e| e.0) {
            Ok(i) => row[i].1 = entry,
            Err(i) => {
                row.insert(i, (right.0, entry));
                self.live += 1;
            }
        }
    }

    /// Physically drops every cached pair involving `slot` — its own row
    /// and every entry where it appears as the right side — returning how
    /// many entries fell.
    ///
    /// This is the control plane's surgical purge: when a query
    /// deregisters, only the pairs of the cluster that held it are
    /// retired; the rest of the cache keeps replaying. (Epoch validation
    /// alone would already refuse to *replay* those pairs after the
    /// membership `touch`, but the purge also drops the cached rows
    /// mentioning the dead query so they cannot outlive it in memory.)
    pub fn purge_slot(&mut self, slot: ClusterSlot) -> usize {
        if self.live == 0 {
            return 0;
        }
        let mut removed = 0;
        if let Some(row) = self.rows.get_mut(slot.index()) {
            removed += row.len();
            row.clear();
        }
        for (left, row) in self.rows.iter_mut().enumerate() {
            if left == slot.index() {
                continue;
            }
            if let Ok(i) = row.binary_search_by_key(&slot.0, |e| e.0) {
                row.remove(i);
                removed += 1;
            }
        }
        self.live -= removed;
        removed
    }

    /// Drops every entry not used in `round`, returning how many fell.
    fn sweep(&mut self, round: u64) -> usize {
        if self.live == 0 {
            return 0;
        }
        let mut removed = 0;
        for row in &mut self.rows {
            let before = row.len();
            row.retain(|(_, e)| e.last_used == round);
            removed += before - row.len();
        }
        self.live -= removed;
        removed
    }

    /// Estimated heap footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        let row_header = std::mem::size_of::<Vec<(u32, CacheEntry)>>();
        let per_entry = std::mem::size_of::<(u32, CacheEntry)>();
        self.rows.len() * row_header
            + self
                .rows
                .iter()
                .flat_map(|row| row.iter())
                .map(|(_, e)| per_entry + e.matches.capacity() * std::mem::size_of::<QueryMatch>())
                .sum::<usize>()
    }
}

/// Reusable working memory for the joining phase, owned by the operator
/// and handed to [`JoinContext::run_cached`] every epoch.
///
/// Holds the packed pair-key buffer of stage 1, the pair/task lists, the
/// SoA materialisation arena of stage 3 and one scratch block per worker
/// thread. In steady state an epoch performs no allocation: every buffer
/// is cleared (length 0) but keeps its capacity, and nothing here carries
/// per-cluster state across rounds.
#[derive(Debug, Default)]
pub struct JoinScratch {
    /// Stage-1 buffer: packed candidate pair keys, sorted + deduped in
    /// place each round.
    pairs: Vec<u64>,
    /// Radix scatter buffers of stage 1 (pair keys) and stage 4 (matches).
    pairs_tmp: Vec<u64>,
    merge_tmp: Vec<QueryMatch>,
    /// Stage-2 output: pairs surviving join-between.
    tasks: Vec<(ClusterSlot, ClusterSlot)>,
    /// Stage-3 input: surviving pairs without a valid cache entry.
    miss_tasks: Vec<(ClusterSlot, ClusterSlot)>,
    /// Stage-2 gather tile of the wide pre-filter kernel.
    tile: PairTile,
    /// Stage-1 buffers handed to the index's discovery walk (the adaptive
    /// grid's per-leaf membership lists).
    discovery: DiscoveryScratch,
    /// Per-epoch SoA materialisation of member positions.
    arena: MatArena,
    /// One scratch block per join-within worker.
    workers: Vec<WorkerScratch>,
}

impl JoinScratch {
    /// Fresh scratch with no reserved capacity (grows on first use).
    pub fn new() -> Self {
        JoinScratch::default()
    }

    /// Bytes of heap currently reserved across every scratch buffer —
    /// pair keys, radix scatter buffers, task lists, the kernel tile, discovery buffers, the
    /// materialisation arena and all worker blocks.
    ///
    /// The steady-state contract is that this value stops changing once
    /// the workload shape settles: an epoch clears lengths but never
    /// shrinks or grows capacity, so a stable reading across ticks is
    /// evidence the tick path performed no allocation.
    pub fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        let arena = &self.arena;
        let arena_bytes = arena.stamp.capacity() * size_of::<u64>()
            + arena.slot_entry.capacity() * size_of::<u32>()
            + arena.entries.capacity() * size_of::<MatEntry>()
            + (arena.obj_ids.capacity() + arena.shed_obj_ids.capacity()) * size_of::<ObjectId>()
            + (arena.obj_x.capacity() + arena.obj_y.capacity()) * size_of::<f64>()
            + arena.queries.capacity() * size_of::<ExactQuery>()
            + arena.group_regions.capacity() * size_of::<Rect>()
            + arena.group_qid_spans.capacity() * size_of::<(u32, u32)>()
            + arena.group_qids.capacity() * size_of::<QueryId>()
            + arena.pending_groups.capacity() * size_of::<(u32, QueryId)>()
            + arena.group_counts.capacity() * size_of::<u32>();
        let workers: usize = self
            .workers
            .iter()
            .map(|w| {
                w.results.capacity() * size_of::<QueryMatch>()
                    + w.active.capacity() * size_of::<u32>()
                    + w.records.capacity() * size_of::<PairRec>()
            })
            .sum();
        (self.pairs.capacity() + self.pairs_tmp.capacity()) * size_of::<u64>()
            + self.merge_tmp.capacity() * size_of::<QueryMatch>()
            + (self.tasks.capacity() + self.miss_tasks.capacity())
                * size_of::<(ClusterSlot, ClusterSlot)>()
            + self.tile.capacity_bytes()
            + self.discovery.capacity_bytes()
            + arena_bytes
            + workers
    }
}

/// An exact (un-shed) range-query member with its region precomputed.
#[derive(Debug, Clone, Copy)]
struct ExactQuery {
    qid: QueryId,
    pos: Point,
    region: Rect,
    bounding_radius: f64,
}

/// Span-based view of one cluster materialised into the [`MatArena`].
#[derive(Debug, Clone, Copy)]
struct MatEntry {
    slot: ClusterSlot,
    /// Span into `obj_ids`/`obj_x`/`obj_y`.
    objs: (u32, u32),
    /// Span into `shed_obj_ids`.
    shed_objs: (u32, u32),
    /// Span into `queries`.
    queries: (u32, u32),
    /// Span into `group_regions`/`group_qid_spans`.
    groups: (u32, u32),
    /// The centroid (approximate position of every shed member).
    centroid: Point,
    /// The cluster's (tight) circular region.
    region: Circle,
    /// `region` inflated by the widest member query's reach — anything an
    /// object must touch to possibly match one of this cluster's queries.
    reach: Circle,
}

impl MatEntry {
    fn has_objects(&self) -> bool {
        self.objs.0 != self.objs.1 || self.shed_objs.0 != self.shed_objs.1
    }

    fn has_queries(&self) -> bool {
        self.queries.0 != self.queries.1 || self.groups.0 != self.groups.1
    }
}

/// Flat SoA arena holding every materialised cluster of one epoch.
///
/// Member positions live in parallel `x`/`y`/`id` arrays so the inner
/// containment loops stream over contiguous memory; per-cluster views are
/// `(start, end)` spans ([`MatEntry`]) reached through a dense stamped
/// per-slot index (no hashing). All vectors are cleared — not deallocated
/// — between epochs.
#[derive(Debug, Default)]
struct MatArena {
    /// Per-slot epoch stamp: `slot` is materialised this epoch iff
    /// `stamp[slot] == epoch`.
    stamp: Vec<u64>,
    /// Per-slot index into `entries`, valid when stamped.
    slot_entry: Vec<u32>,
    epoch: u64,
    entries: Vec<MatEntry>,
    obj_ids: Vec<ObjectId>,
    obj_x: Vec<f64>,
    obj_y: Vec<f64>,
    shed_obj_ids: Vec<ObjectId>,
    queries: Vec<ExactQuery>,
    /// Shed range queries grouped by identical region (one region per
    /// distinct spec, centred on the centroid): region per group …
    group_regions: Vec<Rect>,
    /// … and the span of `group_qids` holding that group's members.
    group_qid_spans: Vec<(u32, u32)>,
    group_qids: Vec<QueryId>,
    /// Scratch for the two-pass group build (local group index, qid).
    pending_groups: Vec<(u32, QueryId)>,
    /// Scratch: per-local-group member counts, then fill cursors.
    group_counts: Vec<u32>,
}

impl MatArena {
    /// Starts a new epoch covering slots `0..capacity`.
    fn clear(&mut self, capacity: usize) {
        self.epoch += 1;
        if self.stamp.len() < capacity {
            self.stamp.resize(capacity, 0);
            self.slot_entry.resize(capacity, 0);
        }
        self.entries.clear();
        self.obj_ids.clear();
        self.obj_x.clear();
        self.obj_y.clear();
        self.shed_obj_ids.clear();
        self.queries.clear();
        self.group_regions.clear();
        self.group_qid_spans.clear();
        self.group_qids.clear();
    }

    /// The entry for `slot`, if materialised this epoch.
    fn entry(&self, slot: ClusterSlot) -> Option<&MatEntry> {
        if self.stamp.get(slot.index()) == Some(&self.epoch) {
            Some(&self.entries[self.slot_entry[slot.index()] as usize])
        } else {
            None
        }
    }
}

/// Per-worker working memory: raw matches, the active-query index buffer
/// and the per-pair result spans (for cache refresh), plus work counters.
#[derive(Debug, Default)]
struct WorkerScratch {
    results: Vec<QueryMatch>,
    /// Indices into `MatArena::queries` of the partner queries that
    /// survived the reach filter for the current object cluster.
    active: Vec<u32>,
    records: Vec<PairRec>,
    comparisons: u64,
    reach_tests: u64,
    /// Lane slots the wide member kernel processed (padding included);
    /// zero on the scalar path.
    lane_slots: u64,
    /// Lane slots that carried a live object.
    lanes_used: u64,
}

impl WorkerScratch {
    fn reset(&mut self) {
        self.results.clear();
        self.active.clear();
        self.records.clear();
        self.comparisons = 0;
        self.reach_tests = 0;
        self.lane_slots = 0;
        self.lanes_used = 0;
    }
}

/// One computed pair and the span of the worker's `results` it produced.
#[derive(Debug, Clone, Copy)]
struct PairRec {
    left: ClusterSlot,
    right: ClusterSlot,
    start: u32,
    end: u32,
}

impl<'a> JoinContext<'a> {
    /// Runs the full joining phase (Algorithm 1, steps 8–21) as the
    /// four-stage pipeline described in the module docs, from scratch:
    /// no dirty-epoch information, so every surviving pair is computed.
    ///
    /// Convenience wrapper over [`JoinContext::run_cached`] for callers
    /// without cross-epoch state (the K-means extension, one-shot tests).
    pub fn run(&self) -> JoinOutput {
        let mut cache = JoinCache::new();
        let mut scratch = JoinScratch::new();
        self.run_cached(None, &mut cache, &mut scratch)
    }

    /// Runs the joining phase incrementally.
    ///
    /// `epochs` is the store's per-slot mutation clock; `None` disables
    /// caching entirely (every pair is computed, nothing is stored, the
    /// cache counters stay zero). With `Some`, surviving pairs whose two
    /// clusters are both clean since the pair's cached epoch replay their
    /// cached matches; the rest are recomputed and refreshed in `cache`.
    /// `scratch` supplies every reusable buffer, so steady-state epochs
    /// allocate nothing.
    ///
    /// The output — result set *and* every counter except the cache
    /// statistics themselves — is bit-identical to [`JoinContext::run`]
    /// modulo the work counters measuring only work actually performed
    /// (`comparisons`, `prefilter_tests` and the stage `tests` shrink by
    /// exactly the replayed pairs' share).
    pub fn run_cached(
        &self,
        epochs: Option<&EpochTracker>,
        cache: &mut JoinCache,
        scratch: &mut JoinScratch,
    ) -> JoinOutput {
        let mut out = JoinOutput::default();
        let mut sw = Stopwatch::start();

        // Stage 1 — pair discovery: cell walk + sorted pair dedup.
        let (entries_walked, candidates) = self.discover_pairs(scratch);
        let discovered = scratch.pairs.len() as u64;
        out.stages.push(
            StageStats::join(STAGE_PAIR_DISCOVERY)
                .with_wall(sw.lap())
                .with_items(entries_walked, discovered)
                .with_tests(candidates),
        );

        // Stage 2 — join-between: the overlap pre-filter (Algorithm 2),
        // dispatched to the scalar or tiled wide kernel. Same-cluster
        // pairs survive only for mixed clusters (Algorithm 1, step 14);
        // cross pairs survive the joinable-kind check and the
        // region-overlap test. Vacant slots carry zero member counts, so
        // stale grid entries (if any) drop out at the kind check. Both
        // kernels emit identical survivors and counters (see
        // [`crate::kernel`]).
        let pf = {
            let JoinScratch {
                pairs, tasks, tile, ..
            } = &mut *scratch;
            kernel::join_between_filter(&self.store.columns(), pairs, self.kernel, tile, tasks)
        };
        out.prefilter_tests += pf.tests;
        out.pairs_pruned += pf.pruned;
        out.pairs_joined += pf.joined;
        let between_tests = out.prefilter_tests;
        out.stages.push(
            StageStats::join(STAGE_JOIN_BETWEEN)
                .with_wall(sw.lap())
                .with_items(discovered, scratch.tasks.len() as u64)
                .with_tests(between_tests)
                .with_lanes(pf.lane_slots, pf.lanes_used),
        );

        // Stage 3 — join-within: replay clean pairs from the cache, run
        // the exact member join (Algorithm 3) over the misses. A stale
        // entry (its inputs mutated) is left untouched here and falls in
        // this round's sweep.
        cache.round += 1;
        let round = cache.round;
        scratch.miss_tasks.clear();
        for &(left, right) in &scratch.tasks {
            if let Some(ep) = epochs {
                if let Some(entry) = cache.entry_mut(left, right).filter(|e| {
                    ep.clean_since(left, e.computed_at) && ep.clean_since(right, e.computed_at)
                }) {
                    entry.last_used = round;
                    out.results.extend_from_slice(&entry.matches);
                    out.cache_hits += 1;
                    continue;
                }
                out.cache_misses += 1;
            }
            scratch.miss_tasks.push((left, right));
        }

        // Materialise every cluster a miss needs, exactly once, serially,
        // into the shared SoA arena; the workers only read it.
        let used = {
            let JoinScratch {
                miss_tasks,
                arena,
                workers,
                ..
            } = &mut *scratch;
            arena.clear(self.store.capacity());
            for &(left, right) in miss_tasks.iter() {
                self.materialize_into(left, arena);
                if right != left {
                    self.materialize_into(right, arena);
                }
            }
            self.join_misses(miss_tasks, arena, workers)
        };

        // Fold the workers: counters, raw matches, and cache admissions.
        let mut within_lane_slots = 0u64;
        let mut within_lanes_used = 0u64;
        for ws in scratch.workers.iter().take(used) {
            out.comparisons += ws.comparisons;
            out.prefilter_tests += ws.reach_tests;
            within_lane_slots += ws.lane_slots;
            within_lanes_used += ws.lanes_used;
            // Admission gate: store a computed pair only if neither
            // cluster mutated since the previous round's clock.
            if let (Some(ep), Some(gate)) = (epochs, cache.prev_clock) {
                for rec in &ws.records {
                    if ep.clean_since(rec.left, gate) && ep.clean_since(rec.right, gate) {
                        let entry = CacheEntry {
                            matches: ws.results[rec.start as usize..rec.end as usize].to_vec(),
                            computed_at: ep.clock(),
                            last_used: round,
                        };
                        cache.admit(rec.left, rec.right, entry);
                    }
                }
            }
            out.results.extend_from_slice(&ws.results);
        }

        // Sweep entries not used this round: the pair went stale,
        // separated, was pruned, or one of its clusters dissolved.
        if let Some(ep) = epochs {
            out.cache_invalidations += cache.sweep(round) as u64;
            cache.prev_clock = Some(ep.clock());
        }

        let raw = out.results.len() as u64;
        out.stages.push(
            StageStats::join(STAGE_JOIN_WITHIN)
                .with_wall(sw.lap())
                .with_items(scratch.tasks.len() as u64, raw)
                .with_tests(out.comparisons + (out.prefilter_tests - between_tests))
                .with_cache(out.cache_hits, out.cache_misses, out.cache_invalidations)
                .with_lanes(within_lane_slots, within_lanes_used),
        );

        // Stage 4 — result merge: radix sort + dedup, which also erases
        // any worker-interleaving (and the replayed/computed split) of the
        // raw matches.
        radix::sort_dedup(&mut out.results, &mut scratch.merge_tmp);
        out.stages.push(
            StageStats::join(STAGE_RESULT_MERGE)
                .with_wall(sw.lap())
                .with_items(raw, out.results.len() as u64),
        );
        out
    }

    /// Stage 1: walks the index candidate cell by candidate cell (base
    /// cells for the uniform grid, leaves for refined cells of the adaptive
    /// grid), packing each co-resident slot pair (self-pairs included) into
    /// a `u64` key, then radix-sorts + dedups the reused key buffer.
    /// Returns `(entries_walked, candidates)`.
    ///
    /// Two clusters that share k cells are pushed k times, and on a grid
    /// much finer than Θ_D k runs to hundreds. So that the buffer is sized
    /// by the *distinct* pairs and not by that multiple, a full buffer of
    /// at least [`PAIR_COMPACT_MIN`] keys is deduplicated in place before it
    /// may grow; it then doubles only if more than half of it was distinct.
    fn discover_pairs(&self, scratch: &mut JoinScratch) -> (u64, u64) {
        let JoinScratch {
            pairs,
            pairs_tmp,
            discovery,
            ..
        } = &mut *scratch;
        pairs.clear();
        let mut entries_walked = 0u64;
        let mut candidates = 0u64;
        self.grid
            .for_each_candidate_cell_with(discovery, &mut |cell| {
                entries_walked += cell.len() as u64;
                let incoming = cell.len() * (cell.len() + 1) / 2;
                if pairs.capacity() >= PAIR_COMPACT_MIN && pairs.len() + incoming > pairs.capacity()
                {
                    radix::sort_dedup(pairs, pairs_tmp);
                    if pairs.len() > pairs.capacity() / 2 {
                        pairs.reserve(pairs.capacity());
                    }
                }
                for (i, &left) in cell.iter().enumerate() {
                    for &right in &cell[i..] {
                        candidates += 1;
                        pairs.push(pack_pair(left, right));
                    }
                }
            });
        radix::sort_dedup(pairs, pairs_tmp);
        (entries_walked, candidates)
    }

    /// Stage 3 kernel: runs the member join over every cache-miss pair,
    /// serially or across `parallelism` scoped worker threads stealing
    /// tasks from a shared atomic cursor. Returns how many worker scratch
    /// blocks hold output.
    ///
    /// Parallel execution is deterministic in everything the caller can
    /// observe: the miss list is fixed before dispatch, per-pair
    /// comparison and reach-test counts do not depend on which worker
    /// handles the pair (all read the same arena), the counters merge
    /// commutatively, and the raw matches are sorted and deduped by the
    /// merge stage.
    fn join_misses(
        &self,
        miss_tasks: &[(ClusterSlot, ClusterSlot)],
        arena: &MatArena,
        workers: &mut Vec<WorkerScratch>,
    ) -> usize {
        let used = self.parallelism.max(1).min(miss_tasks.len().max(1));
        if workers.len() < used {
            workers.resize_with(used, WorkerScratch::default);
        }
        for ws in workers.iter_mut() {
            ws.reset();
        }
        if used <= 1 {
            let ws = &mut workers[0];
            for &(left, right) in miss_tasks {
                self.join_pair(arena, left, right, ws);
            }
            return 1;
        }

        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for ws in workers.iter_mut().take(used) {
                let ctx = *self;
                let cursor = &cursor;
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&(left, right)) = miss_tasks.get(i) else {
                        break;
                    };
                    ctx.join_pair(arena, left, right, ws);
                });
            }
        });
        used
    }

    /// Joins one cache-miss pair: the same-cluster join for `(c, c)`
    /// tasks, otherwise L-objects × R-queries and R-objects × L-queries.
    /// Records the produced result span for the cache refresh.
    fn join_pair(
        &self,
        arena: &MatArena,
        left: ClusterSlot,
        right: ClusterSlot,
        ws: &mut WorkerScratch,
    ) {
        let start = ws.results.len() as u32;
        if let (Some(&m_l), Some(&m_r)) = (arena.entry(left), arena.entry(right)) {
            if left == right {
                self.join_members(arena, &m_l, &m_l, ws);
            } else {
                self.join_members(arena, &m_l, &m_r, ws);
                self.join_members(arena, &m_r, &m_l, ws);
            }
        }
        ws.records.push(PairRec {
            left,
            right,
            start,
            end: ws.results.len() as u32,
        });
    }

    /// Joins `objects_of`'s objects against `queries_of`'s queries, both
    /// read from the arena.
    ///
    /// For *cross*-cluster pairs a member-level pre-filter (not in the
    /// paper's Algorithm 3, which does the full nested loop) skips objects
    /// outside the partner's query reach and queries whose inflated region
    /// cannot touch the partner's cluster circle. Both checks are sound:
    /// they can only discard pairs the exact predicate would reject, since
    /// every member — shed members sit at the centroid — lies within its
    /// cluster circle.
    ///
    /// Shed members amortise: all shed objects of a cluster share the
    /// centroid position, so one region test answers the whole set, and
    /// likewise for each distinct shed-query spec.
    fn join_members(
        &self,
        arena: &MatArena,
        objects_of: &MatEntry,
        queries_of: &MatEntry,
        ws: &mut WorkerScratch,
    ) {
        if !objects_of.has_objects() || !queries_of.has_queries() {
            return;
        }
        // The reach filters are no-ops within a single cluster (every
        // member is inside its own region by construction), and disabled
        // entirely when ablating.
        let skip_filters = objects_of.slot == queries_of.slot || !self.member_filter;

        // Exact queries that can reach the object cluster at all.
        ws.active.clear();
        for qi in queries_of.queries.0..queries_of.queries.1 {
            let q = &arena.queries[qi as usize];
            if !skip_filters {
                ws.reach_tests += 1;
                let reach = Circle::new(
                    objects_of.region.center,
                    objects_of.region.radius + q.bounding_radius,
                );
                if !reach.contains(&q.pos) {
                    continue;
                }
            }
            ws.active.push(qi);
        }

        // 1. Exact objects × exact queries, streaming the SoA arrays —
        //    either pair-at-a-time or in lane-width chunks over the
        //    arena's x/y columns. Both produce the same match multiset
        //    (the wide path emits query-major within a chunk; the merge
        //    stage sorts) and identical `reach_tests`/`comparisons`.
        if !ws.active.is_empty() {
            match self.kernel.effective() {
                KernelKind::Scalar => {
                    for i in objects_of.objs.0 as usize..objects_of.objs.1 as usize {
                        let p = Point::new(arena.obj_x[i], arena.obj_y[i]);
                        if !skip_filters {
                            ws.reach_tests += 1;
                            if !queries_of.reach.contains(&p) {
                                continue;
                            }
                        }
                        let oid = arena.obj_ids[i];
                        for &qi in &ws.active {
                            let q = &arena.queries[qi as usize];
                            ws.comparisons += 1;
                            if q.region.contains(&p) {
                                ws.results.push(QueryMatch::new(q.qid, oid));
                            }
                        }
                    }
                }
                KernelKind::Simd => {
                    self.join_exact_wide(arena, objects_of, queries_of, skip_filters, ws);
                }
            }
        }

        let shed_objs =
            &arena.shed_obj_ids[objects_of.shed_objs.0 as usize..objects_of.shed_objs.1 as usize];

        // 2. Shed objects (all at the centroid) × exact queries: one test
        //    per query answers every shed object.
        if !shed_objs.is_empty() {
            for &qi in &ws.active {
                let q = &arena.queries[qi as usize];
                ws.comparisons += 1;
                if q.region.contains(&objects_of.centroid) {
                    for &oid in shed_objs {
                        ws.results.push(QueryMatch::new(q.qid, oid));
                    }
                }
            }
        }

        // 3. Shed query groups (regions centred on the query cluster's
        //    centroid).
        for g in queries_of.groups.0 as usize..queries_of.groups.1 as usize {
            let region = &arena.group_regions[g];
            let (qs, qe) = arena.group_qid_spans[g];
            let qids = &arena.group_qids[qs as usize..qe as usize];
            // 3a. Exact objects.
            for i in objects_of.objs.0 as usize..objects_of.objs.1 as usize {
                let p = Point::new(arena.obj_x[i], arena.obj_y[i]);
                ws.comparisons += 1;
                if region.contains(&p) {
                    let oid = arena.obj_ids[i];
                    for &qid in qids {
                        ws.results.push(QueryMatch::new(qid, oid));
                    }
                }
            }
            // 3b. Shed objects: a single centroid-in-region test answers
            //     the full cross product.
            if !shed_objs.is_empty() {
                ws.comparisons += 1;
                if region.contains(&objects_of.centroid) {
                    for &qid in qids {
                        for &oid in shed_objs {
                            ws.results.push(QueryMatch::new(qid, oid));
                        }
                    }
                }
            }
        }
    }

    /// The wide variant of join-within section 1: exact objects stream in
    /// [`kernel::LANES`]-wide chunks over the arena's `obj_x`/`obj_y`
    /// columns. Per chunk, the partner-reach filter computes a pass mask
    /// branch-free (same `distance² ≤ radius²` comparison as
    /// [`Circle::contains`]); then each active query tests its rectangle
    /// against all passing lanes (same inclusive comparisons as
    /// [`Rect::contains`]). Counters match the scalar loop exactly:
    /// one reach test per object, one comparison per (passing object,
    /// active query).
    fn join_exact_wide(
        &self,
        arena: &MatArena,
        objects_of: &MatEntry,
        queries_of: &MatEntry,
        skip_filters: bool,
        ws: &mut WorkerScratch,
    ) {
        let os = objects_of.objs.0 as usize;
        let oe = objects_of.objs.1 as usize;
        let xs = &arena.obj_x[os..oe];
        let ys = &arena.obj_y[os..oe];
        let reach = queries_of.reach;
        let r2 = reach.radius * reach.radius;
        let mut pass = [false; kernel::LANES];
        let mut i = 0;
        while i < xs.len() {
            let lanes = kernel::LANES.min(xs.len() - i);
            let xc = &xs[i..i + lanes];
            let yc = &ys[i..i + lanes];
            if skip_filters {
                pass[..lanes].fill(true);
            } else {
                ws.reach_tests += lanes as u64;
                for k in 0..lanes {
                    let dx = reach.center.x - xc[k];
                    let dy = reach.center.y - yc[k];
                    pass[k] = dx * dx + dy * dy <= r2;
                }
            }
            ws.lane_slots += kernel::LANES as u64;
            ws.lanes_used += lanes as u64;
            let passing = pass[..lanes].iter().filter(|&&b| b).count() as u64;
            ws.comparisons += passing * ws.active.len() as u64;
            if passing > 0 {
                for &qi in &ws.active {
                    let q = &arena.queries[qi as usize];
                    let r = q.region;
                    for k in 0..lanes {
                        if pass[k]
                            && xc[k] >= r.min.x
                            && xc[k] <= r.max.x
                            && yc[k] >= r.min.y
                            && yc[k] <= r.max.y
                        {
                            ws.results
                                .push(QueryMatch::new(q.qid, arena.obj_ids[os + i + k]));
                        }
                    }
                }
            }
            i += lanes;
        }
    }

    /// Applies the lazy transformation to every member of the cluster at
    /// `slot` — "we refrain from constantly updating the relative
    /// positions of the cluster members, as this info is not needed,
    /// unless a join-within is to be performed" (§3.1) — writing flat SoA
    /// spans into the arena. Shed members materialise at the centroid.
    /// Idempotent per epoch.
    fn materialize_into(&self, slot: ClusterSlot, arena: &mut MatArena) {
        if arena.entry(slot).is_some() {
            return;
        }
        let Some(cluster) = self.store.get(slot) else {
            return;
        };
        let centroid = cluster.centroid();
        let objs_start = arena.obj_ids.len() as u32;
        let shed_start = arena.shed_obj_ids.len() as u32;
        let queries_start = arena.queries.len() as u32;
        let groups_start = arena.group_regions.len() as u32;
        arena.pending_groups.clear();
        arena.group_counts.clear();

        for member in cluster.members() {
            let pos = cluster.member_position(member);
            match member.entity {
                scuba_motion::EntityRef::Object(oid) => match pos {
                    Some(p) => {
                        arena.obj_ids.push(oid);
                        arena.obj_x.push(p.x);
                        arena.obj_y.push(p.y);
                    }
                    None => arena.shed_obj_ids.push(oid),
                },
                scuba_motion::EntityRef::Query(qid) => {
                    let Some(attrs) = self.queries.get(qid) else {
                        continue; // query unknown to the table; skip
                    };
                    let QuerySpec::Range { .. } = attrs.spec else {
                        continue; // kNN queries are answered by the knn module
                    };
                    match pos {
                        Some(p) => arena.queries.push(ExactQuery {
                            qid,
                            pos: p,
                            region: attrs
                                .spec
                                .region_at(p)
                                .expect("range spec always has a region"),
                            bounding_radius: attrs.spec.bounding_radius(),
                        }),
                        None => {
                            let region = attrs
                                .spec
                                .region_at(centroid)
                                .expect("range spec always has a region");
                            let local = match arena.group_regions[groups_start as usize..]
                                .iter()
                                .position(|r| *r == region)
                            {
                                Some(i) => i,
                                None => {
                                    arena.group_regions.push(region);
                                    arena.group_counts.push(0);
                                    arena.group_regions.len() - 1 - groups_start as usize
                                }
                            };
                            arena.group_counts[local] += 1;
                            arena.pending_groups.push((local as u32, qid));
                        }
                    }
                }
            }
        }

        // Second pass of the group build: prefix offsets, then fill each
        // group's contiguous qid span in member order (count-then-fill, no
        // per-group vectors).
        let qid_base = arena.group_qids.len() as u32;
        let mut offset = 0u32;
        for &count in &arena.group_counts {
            arena
                .group_qid_spans
                .push((qid_base + offset, qid_base + offset + count));
            offset += count;
        }
        arena
            .group_qids
            .resize((qid_base + offset) as usize, QueryId(0));
        for c in &mut arena.group_counts {
            *c = 0;
        }
        let pending = std::mem::take(&mut arena.pending_groups);
        for &(local, qid) in &pending {
            let span = arena.group_qid_spans[(groups_start + local) as usize];
            let cursor = arena.group_counts[local as usize];
            arena.group_qids[(span.0 + cursor) as usize] = qid;
            arena.group_counts[local as usize] = cursor + 1;
        }
        arena.pending_groups = pending;

        let region = cluster.region();
        arena.stamp[slot.index()] = arena.epoch;
        arena.slot_entry[slot.index()] = arena.entries.len() as u32;
        arena.entries.push(MatEntry {
            slot,
            objs: (objs_start, arena.obj_ids.len() as u32),
            shed_objs: (shed_start, arena.shed_obj_ids.len() as u32),
            queries: (queries_start, arena.queries.len() as u32),
            groups: (groups_start, arena.group_regions.len() as u32),
            centroid,
            region,
            reach: Circle::new(region.center, region.radius + cluster.max_query_radius()),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::ClusterEngine;
    use crate::params::ScubaParams;
    use scuba_motion::{LocationUpdate, ObjectAttrs, QueryAttrs};
    use scuba_spatial::Rect;
    use scuba_stream::PhaseKind;

    const CN_EAST: Point = Point {
        x: 1000.0,
        y: 500.0,
    };
    const CN_WEST: Point = Point { x: 0.0, y: 500.0 };

    fn obj(id: u64, x: f64, y: f64, speed: f64, cn: Point) -> LocationUpdate {
        LocationUpdate::object(
            ObjectId(id),
            Point::new(x, y),
            0,
            speed,
            cn,
            ObjectAttrs::default(),
        )
    }

    fn qry(id: u64, x: f64, y: f64, speed: f64, cn: Point, side: f64) -> LocationUpdate {
        LocationUpdate::query(
            QueryId(id),
            Point::new(x, y),
            0,
            speed,
            cn,
            QueryAttrs {
                spec: QuerySpec::square_range(side),
            },
        )
    }

    fn ctx(engine: &ClusterEngine) -> JoinContext<'_> {
        assert!(engine.index_is_current(), "sync_index() before joining");
        JoinContext {
            store: engine.store(),
            grid: engine.grid(),
            queries: engine.queries(),
            shedding: engine.params().shedding,
            theta_d: engine.params().theta_d,
            member_filter: engine.params().member_filter,
            parallelism: engine.params().parallelism,
            kernel: engine.params().kernel,
        }
    }

    #[test]
    fn same_cluster_match_found() {
        let mut e = ClusterEngine::new(ScubaParams::default(), Rect::square(1000.0));
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        e.process_update(&qry(1, 505.0, 500.0, 30.0, CN_EAST, 20.0)); // covers ±10
        e.sync_index();
        let out = ctx(&e).run();
        assert_eq!(out.results, vec![QueryMatch::new(QueryId(1), ObjectId(1))]);
        assert!(out.comparisons >= 1);
    }

    #[test]
    fn same_cluster_non_match_when_outside_range() {
        let mut e = ClusterEngine::new(ScubaParams::default(), Rect::square(1000.0));
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        e.process_update(&qry(1, 530.0, 500.0, 30.0, CN_EAST, 20.0)); // 30 > 10
        e.sync_index();
        let out = ctx(&e).run();
        assert!(out.results.is_empty());
        assert_eq!(out.comparisons, 1);
    }

    #[test]
    fn pure_clusters_skip_within_join() {
        let mut e = ClusterEngine::new(ScubaParams::default(), Rect::square(1000.0));
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        e.process_update(&obj(2, 505.0, 500.0, 30.0, CN_EAST));
        e.sync_index();
        let out = ctx(&e).run();
        assert_eq!(out.comparisons, 0);
        assert!(out.results.is_empty());
    }

    #[test]
    fn cross_cluster_join_between_and_within() {
        let mut e = ClusterEngine::new(ScubaParams::default(), Rect::square(1000.0));
        // Cluster A: objects heading east; Cluster B: query heading west,
        // close enough that the regions overlap.
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        e.process_update(&obj(2, 506.0, 500.0, 30.0, CN_EAST));
        e.process_update(&qry(1, 503.0, 501.0, 30.0, CN_WEST, 20.0));
        assert_eq!(e.cluster_count(), 2);
        e.sync_index();
        let out = ctx(&e).run();
        // One cluster-pair overlap test plus member-level reach tests.
        assert!(out.prefilter_tests >= 1);
        assert_eq!(out.pairs_joined, 1);
        assert_eq!(out.pairs_pruned, 0);
        // Both objects fall inside the 20-unit query range.
        assert_eq!(
            out.results,
            vec![
                QueryMatch::new(QueryId(1), ObjectId(1)),
                QueryMatch::new(QueryId(1), ObjectId(2)),
            ]
        );
    }

    #[test]
    fn join_between_prunes_distant_clusters_in_same_cell() {
        // Coarse grid (1 cell) so both clusters share the cell, but far
        // apart so the overlap test prunes them.
        let params = ScubaParams::default().with_grid_cells(1);
        let mut e = ClusterEngine::new(params, Rect::square(1000.0));
        e.process_update(&obj(1, 100.0, 100.0, 30.0, CN_EAST));
        e.process_update(&qry(1, 900.0, 900.0, 30.0, CN_WEST, 20.0));
        e.sync_index();
        let out = ctx(&e).run();
        assert_eq!(out.prefilter_tests, 1);
        assert_eq!(out.pairs_pruned, 1);
        assert_eq!(out.comparisons, 0, "join-within skipped");
        assert!(out.results.is_empty());
    }

    #[test]
    fn clusters_in_disjoint_cells_never_tested() {
        let mut e = ClusterEngine::new(ScubaParams::default(), Rect::square(1000.0));
        e.process_update(&obj(1, 100.0, 100.0, 30.0, CN_EAST));
        e.process_update(&qry(1, 900.0, 900.0, 30.0, CN_WEST, 20.0));
        e.sync_index();
        let out = ctx(&e).run();
        assert_eq!(out.prefilter_tests, 0);
        assert_eq!(out.comparisons, 0);
    }

    #[test]
    fn pair_spanning_multiple_cells_joined_once() {
        // Big query range and a coarse-ish grid: both clusters overlap
        // several cells; the sorted key dedup must collapse them.
        let params = ScubaParams::default().with_grid_cells(4);
        let mut e = ClusterEngine::new(params, Rect::square(1000.0));
        for i in 0..5 {
            e.process_update(&obj(i, 450.0 + i as f64 * 20.0, 500.0, 30.0, CN_EAST));
        }
        e.process_update(&qry(1, 510.0, 505.0, 30.0, CN_WEST, 400.0));
        e.sync_index();
        let out = ctx(&e).run();
        // All 5 objects match exactly once.
        assert_eq!(out.results.len(), 5);
        assert_eq!(out.pairs_joined, 1);
    }

    #[test]
    fn full_shedding_matches_by_region() {
        let params = ScubaParams::default().with_shedding(SheddingMode::Full);
        let mut e = ClusterEngine::new(params, Rect::square(1000.0));
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        e.process_update(&qry(1, 505.0, 500.0, 30.0, CN_EAST, 20.0));
        e.sync_index();
        let out = ctx(&e).run();
        // Under full shedding both positions are gone; the nucleus overlap
        // reports the (true) match.
        assert_eq!(out.results, vec![QueryMatch::new(QueryId(1), ObjectId(1))]);
    }

    #[test]
    fn full_shedding_can_produce_false_positives() {
        let params = ScubaParams::default()
            .with_shedding(SheddingMode::Full)
            .with_grid_cells(10);
        let mut e = ClusterEngine::new(params, Rect::square(1000.0));
        // Object and query in the same cluster but 90 units apart — an
        // exact join would not match a 20-unit range.
        e.process_update(&obj(1, 460.0, 500.0, 30.0, CN_EAST));
        e.process_update(&qry(1, 550.0, 500.0, 30.0, CN_EAST, 20.0));
        e.sync_index();
        let out = ctx(&e).run();
        assert_eq!(
            out.results,
            vec![QueryMatch::new(QueryId(1), ObjectId(1))],
            "nucleus approximation over-reports"
        );

        // Ground truth without shedding finds nothing.
        let mut exact = ClusterEngine::new(
            ScubaParams::default().with_grid_cells(10),
            Rect::square(1000.0),
        );
        exact.process_update(&obj(1, 460.0, 500.0, 30.0, CN_EAST));
        exact.process_update(&qry(1, 550.0, 500.0, 30.0, CN_EAST, 20.0));
        exact.sync_index();
        let truth = ctx(&exact).run();
        assert!(truth.results.is_empty());
    }

    #[test]
    fn partial_shedding_mixed_exact_and_approximate() {
        let params = ScubaParams::default().with_shedding(SheddingMode::Partial { eta: 0.2 });
        let mut e = ClusterEngine::new(params, Rect::square(1000.0));
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST)); // founder, shed
        e.process_update(&obj(2, 580.0, 500.0, 30.0, CN_EAST)); // r≈80 kept
        e.process_update(&qry(1, 587.0, 500.0, 30.0, CN_EAST, 20.0)); // kept
        e.sync_index();
        let out = ctx(&e).run();
        // Object 2 (exact, at 580) falls in the query region [577, 597].
        // Object 1 is shed: its nucleus (radius η·Θ_D = 20 around the final
        // centroid x ≈ 555.7) reaches only x ≈ 575.7 < 577, so the
        // approximation correctly rejects it.
        assert_eq!(out.results, vec![QueryMatch::new(QueryId(1), ObjectId(2))]);
    }

    #[test]
    fn knn_specs_are_skipped_by_range_join() {
        let mut e = ClusterEngine::new(ScubaParams::default(), Rect::square(1000.0));
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        let knn_q = LocationUpdate::query(
            QueryId(5),
            Point::new(501.0, 500.0),
            0,
            30.0,
            CN_EAST,
            QueryAttrs {
                spec: QuerySpec::Knn { k: 2 },
            },
        );
        e.process_update(&knn_q);
        e.sync_index();
        let out = ctx(&e).run();
        assert!(out.results.is_empty());
    }

    #[test]
    fn results_are_sorted_and_deduped() {
        let mut e = ClusterEngine::new(
            ScubaParams::default().with_grid_cells(4),
            Rect::square(1000.0),
        );
        for i in 0..3 {
            e.process_update(&obj(i, 500.0 + i as f64, 500.0, 30.0, CN_EAST));
        }
        for q in 0..2 {
            e.process_update(&qry(q, 500.0 + q as f64, 501.0, 30.0, CN_EAST, 50.0));
        }
        e.sync_index();
        let out = ctx(&e).run();
        assert_eq!(out.results.len(), 6);
        let mut sorted = out.results.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, out.results);
    }

    #[test]
    fn stages_are_emitted_in_pipeline_order() {
        let mut e = ClusterEngine::new(ScubaParams::default(), Rect::square(1000.0));
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        e.process_update(&qry(1, 505.0, 500.0, 30.0, CN_EAST, 20.0));
        e.sync_index();
        let out = ctx(&e).run();
        let names: Vec<&str> = out.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                STAGE_PAIR_DISCOVERY,
                STAGE_JOIN_BETWEEN,
                STAGE_JOIN_WITHIN,
                STAGE_RESULT_MERGE,
            ]
        );
        assert!(out.stages.iter().all(|s| s.kind == PhaseKind::Join));
        // Data-flow bookkeeping: the merge stage's output is the final
        // result set, and join-within's unit work matches the counters.
        let merge = &out.stages[3];
        assert_eq!(merge.items_out, out.results.len() as u64);
        let within = &out.stages[2];
        let between = &out.stages[1];
        assert_eq!(
            within.tests + between.tests,
            out.comparisons + out.prefilter_tests
        );
    }

    #[test]
    fn parallel_join_matches_serial() {
        // A dozen object/query convoys scattered along a line: several
        // surviving pairs to partition across workers.
        let params = ScubaParams::default().with_grid_cells(8);
        let mut e = ClusterEngine::new(params, Rect::square(1000.0));
        for i in 0..12u64 {
            let x = 80.0 * i as f64 + 40.0;
            e.process_update(&obj(i, x, 500.0, 30.0, CN_EAST));
            e.process_update(&obj(100 + i, x + 5.0, 505.0, 30.0, CN_EAST));
            e.process_update(&qry(i, x + 2.0, 502.0, 30.0, CN_WEST, 60.0));
        }
        e.sync_index();
        let serial = ctx(&e).run();
        assert!(!serial.results.is_empty());
        for workers in [2usize, 4, 8] {
            let mut parallel_ctx = ctx(&e);
            parallel_ctx.parallelism = workers;
            let parallel = parallel_ctx.run();
            assert_eq!(parallel.results, serial.results, "workers={workers}");
            assert_eq!(parallel.comparisons, serial.comparisons);
            assert_eq!(parallel.prefilter_tests, serial.prefilter_tests);
            assert_eq!(parallel.pairs_joined, serial.pairs_joined);
            assert_eq!(parallel.pairs_pruned, serial.pairs_pruned);
        }
    }

    /// The wide kernel must reproduce the scalar run bit-for-bit: result
    /// set, every work counter, and the survivor bookkeeping.
    #[test]
    fn wide_kernel_run_matches_scalar() {
        let params = ScubaParams::default().with_grid_cells(8);
        let mut e = ClusterEngine::new(params, Rect::square(1000.0));
        for i in 0..12u64 {
            let x = 80.0 * i as f64 + 40.0;
            e.process_update(&obj(i, x, 500.0, 30.0, CN_EAST));
            e.process_update(&obj(100 + i, x + 5.0, 505.0, 30.0, CN_EAST));
            e.process_update(&qry(i, x + 2.0, 502.0, 30.0, CN_WEST, 60.0));
        }
        e.sync_index();
        let mut scalar_ctx = ctx(&e);
        scalar_ctx.kernel = KernelKind::Scalar;
        let scalar = scalar_ctx.run();
        assert!(!scalar.results.is_empty());

        let mut wide_ctx = ctx(&e);
        wide_ctx.kernel = KernelKind::Simd;
        let wide = wide_ctx.run();
        assert_eq!(wide.results, scalar.results);
        assert_eq!(wide.comparisons, scalar.comparisons);
        assert_eq!(wide.prefilter_tests, scalar.prefilter_tests);
        assert_eq!(wide.pairs_joined, scalar.pairs_joined);
        assert_eq!(wide.pairs_pruned, scalar.pairs_pruned);
        assert_eq!(wide.cache_hits, scalar.cache_hits);
        assert_eq!(wide.cache_misses, scalar.cache_misses);
    }

    #[test]
    fn clean_epoch_replays_from_cache_bit_identically() {
        let params = ScubaParams::default().with_grid_cells(8);
        let mut e = ClusterEngine::new(params, Rect::square(1000.0));
        for i in 0..6u64 {
            let x = 120.0 * i as f64 + 60.0;
            e.process_update(&obj(i, x, 500.0, 30.0, CN_EAST));
            e.process_update(&qry(i, x + 2.0, 502.0, 30.0, CN_WEST, 60.0));
        }
        let mut cache = JoinCache::new();
        let mut scratch = JoinScratch::new();

        // Round 1: no previous round to vouch for any cluster — computed,
        // nothing admitted.
        e.sync_index();
        let cold = ctx(&e).run_cached(Some(e.epochs()), &mut cache, &mut scratch);
        assert!(cold.cache_hits == 0 && cold.cache_misses > 0);
        assert!(!cold.results.is_empty());
        assert!(cache.is_empty());

        // Round 2: every cluster was clean across round 1 — computed
        // again and admitted.
        let admitted = ctx(&e).run_cached(Some(e.epochs()), &mut cache, &mut scratch);
        assert_eq!(admitted.results, cold.results);
        assert_eq!(admitted.cache_hits, 0);
        assert_eq!(admitted.cache_misses, cold.cache_misses);
        assert_eq!(cache.len() as u64, cold.cache_misses);

        // Round 3 on: every surviving pair replays.
        let warm = ctx(&e).run_cached(Some(e.epochs()), &mut cache, &mut scratch);
        assert_eq!(warm.results, cold.results);
        assert_eq!(warm.cache_misses, 0);
        assert_eq!(warm.cache_hits, cold.cache_misses);
        assert_eq!(warm.comparisons, 0, "no member work on a clean epoch");
        assert_eq!(warm.cache_invalidations, 0);
        // And a from-scratch run still agrees.
        assert_eq!(ctx(&e).run().results, warm.results);
    }

    #[test]
    fn mutation_invalidates_only_touched_pairs() {
        let params = ScubaParams::default().with_grid_cells(8);
        let mut e = ClusterEngine::new(params, Rect::square(1000.0));
        for i in 0..6u64 {
            let x = 120.0 * i as f64 + 60.0;
            e.process_update(&obj(i, x, 500.0, 30.0, CN_EAST));
            e.process_update(&qry(i, x + 2.0, 502.0, 30.0, CN_WEST, 60.0));
        }
        let mut cache = JoinCache::new();
        let mut scratch = JoinScratch::new();
        e.sync_index();
        let cold = ctx(&e).run_cached(Some(e.epochs()), &mut cache, &mut scratch);
        ctx(&e).run_cached(Some(e.epochs()), &mut cache, &mut scratch);
        let cached = cache.len();

        // Refresh one object: exactly its cluster's pairs recompute, and —
        // dirty since the previous round — are not admitted again.
        e.process_update(&obj(0, 61.0, 500.0, 30.0, CN_EAST));
        e.sync_index();
        let warm = ctx(&e).run_cached(Some(e.epochs()), &mut cache, &mut scratch);
        assert!(warm.cache_hits > 0, "untouched pairs replay");
        assert!(warm.cache_misses > 0, "touched pair recomputes");
        assert!(warm.cache_misses < cold.cache_misses);
        assert_eq!(warm.cache_invalidations, warm.cache_misses);
        assert_eq!(cache.len() as u64, cached as u64 - warm.cache_misses);
        assert_eq!(warm.results, ctx(&e).run().results);

        // Left alone for a round, the pair earns its way back in.
        let again = ctx(&e).run_cached(Some(e.epochs()), &mut cache, &mut scratch);
        assert_eq!(again.cache_misses, warm.cache_misses);
        assert_eq!(cache.len(), cached);
        let settled = ctx(&e).run_cached(Some(e.epochs()), &mut cache, &mut scratch);
        assert_eq!(settled.cache_misses, 0);
        assert_eq!(settled.results, warm.results);
    }

    #[test]
    fn disabled_cache_matches_enabled_results() {
        let params = ScubaParams::default().with_grid_cells(8);
        let mut e = ClusterEngine::new(params, Rect::square(1000.0));
        for i in 0..6u64 {
            let x = 120.0 * i as f64 + 60.0;
            e.process_update(&obj(i, x, 500.0, 30.0, CN_EAST));
            e.process_update(&qry(i, x + 2.0, 502.0, 30.0, CN_WEST, 60.0));
        }
        let mut cache = JoinCache::new();
        let mut scratch = JoinScratch::new();
        e.sync_index();
        ctx(&e).run_cached(Some(e.epochs()), &mut cache, &mut scratch);
        ctx(&e).run_cached(Some(e.epochs()), &mut cache, &mut scratch);
        let cached = ctx(&e).run_cached(Some(e.epochs()), &mut cache, &mut scratch);
        assert!(cached.cache_hits > 0);
        let plain = ctx(&e).run();
        assert_eq!(cached.results, plain.results);
        assert_eq!(plain.cache_hits, 0);
        assert_eq!(plain.cache_misses, 0);
        assert_eq!(plain.cache_invalidations, 0);
    }

    #[test]
    fn cache_stays_bounded_under_cluster_churn() {
        // Clusters dissolve and respawn (reusing slots) every round; the
        // end-of-round sweep must keep the cache proportional to the live
        // surviving-pair population, never accumulating dead entries.
        let params = ScubaParams::default().with_grid_cells(8);
        let mut e = ClusterEngine::new(params, Rect::square(1000.0));
        let mut cache = JoinCache::new();
        let mut scratch = JoinScratch::new();
        let mut max_len = 0usize;
        // A parked bystander pair (zero speed, reported once): the only
        // pair that is ever clean across a round, hence ever admitted.
        e.process_update(&obj(50, 100.0, 100.0, 0.0, CN_EAST));
        e.process_update(&qry(50, 102.0, 101.0, 0.0, CN_WEST, 40.0));
        for round in 0..30u64 {
            // Two co-located convoys that re-form each round after the
            // maintenance pass dissolves whoever reached its destination.
            for i in 0..4u64 {
                let x = 400.0 + i as f64 * 6.0 + (round % 3) as f64;
                let mut o = obj(i, x, 500.0, 30.0, CN_EAST);
                o.time = round;
                e.process_update(&o);
                let mut q = qry(i, x + 2.0, 502.0, 30.0, CN_WEST, 40.0);
                q.time = round;
                e.process_update(&q);
            }
            e.sync_index();
            let out = ctx(&e).run_cached(Some(e.epochs()), &mut cache, &mut scratch);
            assert!(
                cache.len() as u64 <= out.cache_hits + out.cache_misses,
                "round {round}: {} cached entries but only {} surviving pairs",
                cache.len(),
                out.cache_hits + out.cache_misses
            );
            max_len = max_len.max(cache.len());
            e.post_join_maintenance(round);
        }
        assert!(max_len > 0, "the cache did see entries");
    }

    /// The radix scatter buffers are scratch like the rest: counted by
    /// `capacity_bytes`, grown during warm-up, never after.
    #[test]
    fn radix_buffers_are_counted_and_stop_growing() {
        // One cell and one wide query over 400 objects: enough candidate
        // keys and raw matches for both sorts to take the radix path.
        let params = ScubaParams::default().with_grid_cells(1);
        let mut e = ClusterEngine::new(params, Rect::square(1000.0));
        for i in 0..400u64 {
            let (x, y) = (20.0 + (i % 20) as f64 * 48.0, 20.0 + (i / 20) as f64 * 48.0);
            e.process_update(&obj(i, x, y, 30.0, CN_EAST));
        }
        e.process_update(&qry(1, 500.0, 500.0, 30.0, CN_WEST, 2000.0));
        let mut cache = JoinCache::new();
        let mut scratch = JoinScratch::new();
        e.sync_index();
        let first = ctx(&e).run_cached(Some(e.epochs()), &mut cache, &mut scratch);
        assert_eq!(first.results.len(), 400);
        assert!(scratch.pairs_tmp.capacity() >= scratch.pairs.len());
        assert!(scratch.merge_tmp.capacity() >= 400);
        let settled = scratch.capacity_bytes();
        assert!(
            settled >= scratch.pairs_tmp.capacity() * 8 + scratch.merge_tmp.capacity() * 16,
            "the scatter buffers are part of the reported footprint"
        );
        for _ in 0..3 {
            let again = ctx(&e).run(); // fresh scratch: same answer
            let out = ctx(&e).run_cached(None, &mut cache, &mut scratch);
            assert_eq!(out.results, again.results);
            assert_eq!(scratch.capacity_bytes(), settled);
        }
    }

    /// On a grid much finer than the regions on it, one cluster pair is
    /// pushed once per shared cell. The key buffer must follow the distinct
    /// pairs, not that multiple: it is deduplicated in place when full
    /// instead of growing to the raw count.
    #[test]
    fn pair_buffer_is_sized_by_distinct_pairs() {
        // 48 singleton query clusters stacked on one point (speeds > Θ_S
        // apart keep them separate), each registered in the ~700 ten-unit
        // cells its 200-wide range reaches.
        let mut e = ClusterEngine::new(ScubaParams::default(), Rect::square(1000.0));
        for i in 0..48u64 {
            e.process_update(&qry(i, 500.0, 500.0, 20.0 * (i + 1) as f64, CN_EAST, 200.0));
        }
        assert_eq!(e.cluster_count(), 48);
        e.sync_index();
        let mut scratch = JoinScratch::new();
        let (_, raw) = ctx(&e).discover_pairs(&mut scratch);
        assert_eq!(scratch.pairs.len(), 48 * 49 / 2, "every pair, once");
        assert!(raw as usize > 4 * PAIR_COMPACT_MIN, "raw keys: {raw}");
        assert!(
            scratch.pairs.capacity() < 2 * PAIR_COMPACT_MIN,
            "buffer grew to {} keys for {} distinct pairs",
            scratch.pairs.capacity(),
            scratch.pairs.len()
        );
        let settled = scratch.capacity_bytes();
        ctx(&e).discover_pairs(&mut scratch);
        assert_eq!(scratch.capacity_bytes(), settled);
    }

    /// The admission gate on the paper's §6.1 stream shape: every entity
    /// reports every round, so every cluster is dirty every round and the
    /// cache never stores a pair — yet answers match a from-scratch run.
    #[test]
    fn moving_stream_never_populates_the_cache() {
        let params = ScubaParams::default().with_grid_cells(8);
        let mut e = ClusterEngine::new(params, Rect::square(1000.0));
        let mut cache = JoinCache::new();
        let mut scratch = JoinScratch::new();
        for round in 0..12u64 {
            for i in 0..8u64 {
                let x = 100.0 * i as f64 + 60.0 + round as f64;
                let mut o = obj(i, x, 500.0, 30.0, CN_EAST);
                o.time = round;
                e.process_update(&o);
                let mut q = qry(i, x + 2.0, 502.0, 30.0, CN_WEST, 60.0);
                q.time = round;
                e.process_update(&q);
            }
            e.sync_index();
            let out = ctx(&e).run_cached(Some(e.epochs()), &mut cache, &mut scratch);
            assert_eq!(cache.len(), 0, "round {round}");
            assert_eq!(out.cache_hits, 0);
            assert!(out.cache_misses > 0);
            assert_eq!(out.cache_invalidations, 0);
            assert_eq!(out.results, ctx(&e).run().results);
            e.post_join_maintenance(round);
        }
    }
}
