//! The cluster-based joining phase (paper §4, Algorithms 1–3).
//!
//! The phase runs as an explicit four-stage pipeline, each stage emitting
//! a [`StageStats`] record:
//!
//! 1. **pair discovery** — the ClusterGrid cell walk by role
//!    (`ClusterGrid::directed_pairs`): per cell, the clusters listed on
//!    the query side meet the clusters listed on the object side, and each
//!    *directed* pair `(O, Q)`, `O ≠ Q`, whose boxes share a cell is
//!    emitted exactly once, into a reused pair buffer. A pass over the
//!    store then adds the self pair `(m, m)` of every mixed cluster listed
//!    on the query side (Algorithm 1, step 14). The stage holds *no*
//!    cross-round state that could accumulate pairs for dissolved clusters;
//! 2. **join-between** (Algorithm 2) — one directed circle/circle overlap
//!    test per cross pair, reading both clusters from the
//!    [`ClusterStore`] slab: `O` must hold objects and `Q` queries, and
//!    `O`'s region must overlap `Q`'s region inflated by its widest range.
//!    Self pairs pass for mixed clusters untested. Pruned pairs are
//!    *guaranteed* not to join individually (the cluster region covers all
//!    member positions);
//! 3. **join-within** (Algorithm 3) — the exact object×query join over the
//!    members of both clusters. Every surviving pair is computed from
//!    scratch each Δ: the clusters it needs are materialised once into a
//!    flat SoA arena and the exact join runs over them, one pair after
//!    another, as Algorithm 3's full nested loop with no member-level
//!    filter: every exact object meets every exact query, and each
//!    candidate match is written at a cursor that advances only on a hit;
//! 4. **result merge** — radix sort + dedup of the raw matches, which
//!    puts the result set in its canonical `(query, object)` order,
//!    independent of pair order. The dedup finds nothing to remove: each
//!    entity lives in one cluster, so a match `(q, o)` can only come from
//!    the one directed pair `(home(o), home(q))`, which is joined once; no
//!    match is produced twice (debug builds assert it).
//!
//! A stripe of the sharded executor ([`crate::shard`]) runs one more pass
//! after the four stages: it joins its clusters against the ghosts its
//! neighbours shipped, through the same arena, the same join-between
//! predicate and the same member loop.
//!
//! The per-tick path is hash-free: pairs are slot pairs and the arena
//! index is a dense stamped per-slot table. No state survives a round
//! except buffer capacity, so slot reuse needs no care here. Nothing is
//! reused across rounds because in the paper's §6.1 model every entity
//! reports every time unit: no cluster is unchanged across a Δ, so no
//! pair's result could be replayed (DESIGN §4.2).
//!
//! Two engineering notes relative to the paper's pseudo-code:
//!
//! * Algorithm 3 joins the member *union* of both clusters, and Algorithm 1
//!   additionally runs a same-cluster join-within for mixed clusters — with
//!   the union semantics intra-cluster pairs would be compared once per
//!   overlapping partner. We compare *cross* pairs in the pair join — one
//!   direction per pair, `O`'s objects against `Q`'s queries — and intra
//!   pairs exactly once in the same-cluster join, which produces the
//!   identical result set with fewer comparisons. Two mixed clusters form
//!   two directed pairs, `(A, B)` and `(B, A)`, each with its own
//!   join-between test, because `A`'s objects reaching `B`'s queries says
//!   nothing about `B`'s objects reaching `A`'s queries.
//! * Clusters sharing several grid cells would be joined once per shared
//!   cell. Each cluster is listed in the cells of its bounding box on each
//!   side, so an object-side box and a query-side box that share a cell
//!   share a rectangle of cells, and the pair is emitted only in that
//!   rectangle's lowest cell: the cell whose column and row are the larger
//!   of the two boxes' lowest ones (the reference-point method of
//!   Dittrich & Seeger, ICDE 2000). Nothing is emitted twice, so nothing
//!   needs a sort to deduplicate.
//!
//! Load shedding (§5) surfaces here: members whose position was
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

use scuba_motion::{EntityRef, ObjectId, QueryId, QuerySpec};
use scuba_spatial::{Point, Rect};
use scuba_stream::{QueryMatch, StageStats, Stopwatch};

use crate::cluster::MovingCluster;
use crate::grid::{ClusterGrid, Side};
use crate::radix;
use crate::store::{ClusterSlot, ClusterStore};
use crate::tables::QueriesTable;

/// Stage name: grid cell walk emitting each directed object→query pair
/// that shares a cell once.
pub const STAGE_PAIR_DISCOVERY: &str = "pair-discovery";
/// Stage name: cluster-pair overlap pre-filter (Algorithm 2).
pub const STAGE_JOIN_BETWEEN: &str = "join-between";
/// Stage name: exact member join over surviving pairs (Algorithm 3).
pub const STAGE_JOIN_WITHIN: &str = "join-within";
/// Stage name: sort + dedup of raw matches.
pub const STAGE_RESULT_MERGE: &str = "result-merge";

/// What one joining phase produced and how much work it did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JoinOutput {
    /// Deduplicated query answers.
    pub results: Vec<QueryMatch>,
    /// Exact object×query pair tests performed (join-within work).
    pub comparisons: u64,
    /// Cluster-pair overlap tests performed: join-between's, plus, on a
    /// stripe of the sharded executor, the tests of its cross-stripe pass
    /// over received ghosts.
    pub prefilter_tests: u64,
    /// Per-stage cost accounting, in pipeline order (pair discovery,
    /// join-between, join-within, result merge).
    pub stages: Vec<StageStats>,
}

/// Borrowed view of everything the joining phase needs. Decoupled from
/// [`crate::clustering::ClusterEngine`] so the K-means extension (§6.4) can
/// drive the identical join over offline-built clusters.
#[derive(Debug, Clone, Copy)]
pub struct JoinContext<'a> {
    /// The cluster store. The shed/exact split of every member is carried
    /// by the members themselves.
    pub store: &'a ClusterStore,
    /// The region grid driving the candidate-cell loop.
    pub grid: &'a ClusterGrid,
    /// Query attributes (range extents).
    pub queries: &'a QueriesTable,
}

/// Reusable working memory for the joining phase, owned by the operator
/// and handed to [`JoinContext::run`] every epoch.
///
/// Holds the pair and task lists, the radix scatter buffer of the result
/// merge, the SoA materialisation arena of stage 3 and the join-within
/// output block.
/// In steady state an epoch performs no allocation: every buffer
/// is cleared (length 0) but keeps its capacity, and nothing here carries
/// per-cluster state across rounds.
#[derive(Debug, Default)]
pub struct JoinScratch {
    /// Stage-1 output: every directed `(objects, queries)` slot pair that
    /// shares a cell, once, and the self pair of each listed mixed cluster.
    pairs: Vec<(ClusterSlot, ClusterSlot)>,
    /// Stage-1 scratch: one cell's object side, sorted by where each box
    /// starts.
    classed: Vec<ClusterSlot>,
    /// Radix scatter buffer of stage 4 (matches).
    merge_tmp: Vec<QueryMatch>,
    /// Stage-2 output, stage-3 input: pairs surviving join-between.
    tasks: Vec<(ClusterSlot, ClusterSlot)>,
    /// Per-epoch SoA materialisation of member positions.
    arena: MatArena,
    /// Join-within output: raw matches, active queries, work counters.
    within: WithinScratch,
}

impl JoinScratch {
    /// Fresh scratch with no reserved capacity (grows on first use).
    pub fn new() -> Self {
        JoinScratch::default()
    }

    /// Bytes of heap currently reserved across every scratch buffer —
    /// pair, class and task lists, the radix scatter buffer, the
    /// materialisation arena and the join-within block.
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
        (self.pairs.capacity() + self.tasks.capacity()) * size_of::<(ClusterSlot, ClusterSlot)>()
            + self.classed.capacity() * size_of::<ClusterSlot>()
            + (self.merge_tmp.capacity() + self.within.results.capacity()) * size_of::<QueryMatch>()
            + arena_bytes
    }
}

/// An exact (un-shed) range-query member with its region precomputed.
#[derive(Debug, Clone, Copy)]
struct ExactQuery {
    qid: QueryId,
    region: Rect,
}

/// Span-based view of one cluster materialised into the [`MatArena`].
#[derive(Debug, Clone, Copy)]
struct MatEntry {
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
}

/// Flat SoA arena holding every materialised cluster of one epoch.
///
/// Member positions live in parallel `x`/`y`/`id` arrays so the inner
/// containment loops stream over contiguous memory; per-cluster views are
/// `(start, end)` spans ([`MatEntry`]) reached through a dense stamped
/// per-key index (no hashing): a store slot is its own key, and ghosts
/// take the keys past the store's slots. All vectors are cleared — not
/// deallocated — between epochs.
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
    /// Starts a new epoch covering keys `0..capacity`.
    fn clear(&mut self, capacity: usize) {
        self.epoch += 1;
        self.cover(capacity);
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

    /// Extends the current epoch to keys `0..keys`.
    fn cover(&mut self, keys: usize) {
        if self.stamp.len() < keys {
            self.stamp.resize(keys, 0);
            self.slot_entry.resize(keys, 0);
        }
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

/// Join-within working memory: the raw matches and the comparison count.
///
/// `results` keeps its high-water length across rounds and `len` marks
/// its live prefix: the product loop writes every candidate at the cursor
/// and advances it only on a hit, so each slot is a plain store and the
/// buffer grows only when a pair's candidates could run past its end.
#[derive(Debug, Default)]
struct WithinScratch {
    results: Vec<QueryMatch>,
    len: usize,
    comparisons: u64,
}

impl WithinScratch {
    fn reset(&mut self) {
        self.len = 0;
        self.comparisons = 0;
    }

    /// The matches written since the last reset.
    fn matches(&self) -> &[QueryMatch] {
        &self.results[..self.len]
    }

    /// The `extra` slots past the cursor, growing the buffer to reach them.
    fn room(&mut self, extra: usize) -> &mut [QueryMatch] {
        let end = self.len + extra;
        if self.results.len() < end {
            self.results
                .resize(end, QueryMatch::new(QueryId(0), ObjectId(0)));
        }
        &mut self.results[self.len..end]
    }

    /// Writes the match of every query in `qids` with every object in
    /// `oids` at the cursor.
    fn emit(&mut self, qids: &[QueryId], oids: &[ObjectId]) {
        let n = oids.len();
        let dst = self.room(qids.len() * n);
        for (i, &qid) in qids.iter().enumerate() {
            for (slot, &oid) in dst[i * n..(i + 1) * n].iter_mut().zip(oids) {
                *slot = QueryMatch::new(qid, oid);
            }
        }
        self.len += qids.len() * n;
    }
}

/// A ghost: the read-only replica of a cluster that another stripe owns,
/// shipped to a neighbouring stripe each Δ (DESIGN §4.8) — the cluster
/// itself and the specs of its registered query members, sorted by id.
/// That is what join-within materialises, so the receiving stripe joins
/// it with the same code as its own clusters
/// ([`JoinContext::join_ghosts`]).
#[derive(Debug, Clone)]
pub(crate) struct Replica {
    cluster: MovingCluster,
    specs: Vec<(QueryId, QuerySpec)>,
}

impl Replica {
    /// Replicates `cluster`, with the specs `queries` holds for its query
    /// members (a member without a row is skipped, as join-within skips
    /// it).
    pub(crate) fn of(cluster: &MovingCluster, queries: &QueriesTable) -> Self {
        let mut specs: Vec<(QueryId, QuerySpec)> = cluster
            .members()
            .iter()
            .filter_map(|m| m.entity.as_query())
            .filter_map(|qid| queries.get(qid).map(|a| (qid, a.spec)))
            .collect();
        specs.sort_unstable_by_key(|&(qid, _)| qid);
        Replica {
            cluster: cluster.clone(),
            specs,
        }
    }

    fn spec(&self, qid: QueryId) -> Option<QuerySpec> {
        let i = self.specs.binary_search_by_key(&qid, |&(q, _)| q).ok()?;
        Some(self.specs[i].1)
    }
}

/// Algorithm 2's test of a directed cross pair, `o`'s objects against
/// `q`'s queries: `None` when `o` has no objects or `q` no queries (step
/// 18: no test is made), otherwise whether `o`'s region overlaps `q`'s
/// region inflated by its widest range, so a pruned pair really cannot
/// produce results (see [`crate::MovingCluster::effective_region`]).
fn between(o: &MovingCluster, q: &MovingCluster) -> Option<bool> {
    (o.object_count() > 0 && q.query_count() > 0)
        .then(|| o.region().overlaps(&q.effective_region()))
}

impl<'a> JoinContext<'a> {
    /// Runs the full joining phase (Algorithm 1, steps 8–21) as the
    /// four-stage pipeline described in the module docs, computing every
    /// surviving pair. `scratch` supplies every reusable buffer, so
    /// steady-state epochs allocate nothing; a fresh [`JoinScratch`] gives
    /// the same output.
    pub fn run(&self, scratch: &mut JoinScratch) -> JoinOutput {
        let mut out = JoinOutput::default();
        let mut sw = Stopwatch::start();

        // Stage 1 — pair discovery: the cell walk, each pair once.
        let (entries_walked, candidates) =
            self.discover_pairs(&mut scratch.pairs, &mut scratch.classed);
        let discovered = scratch.pairs.len() as u64;
        out.stages.push(
            StageStats::join(STAGE_PAIR_DISCOVERY)
                .with_wall(sw.lap())
                .with_items(entries_walked, discovered)
                .with_tests(candidates),
        );

        // Stage 2 — join-between: the overlap pre-filter (Algorithm 2).
        let between_tests = self.join_between(&scratch.pairs, &mut scratch.tasks);
        out.prefilter_tests += between_tests;
        out.stages.push(
            StageStats::join(STAGE_JOIN_BETWEEN)
                .with_wall(sw.lap())
                .with_items(discovered, scratch.tasks.len() as u64)
                .with_tests(between_tests),
        );

        // Stage 3 — join-within: materialise every cluster a surviving
        // pair needs, exactly once, into the SoA arena, then run the exact
        // member join (Algorithm 3) over every pair.
        let JoinScratch {
            tasks,
            arena,
            within,
            ..
        } = &mut *scratch;
        arena.clear(self.store.capacity());
        for &(o, q) in tasks.iter() {
            self.materialize_slot(o, arena);
            if q != o {
                self.materialize_slot(q, arena);
            }
        }
        within.reset();
        for &(o, q) in tasks.iter() {
            self.join_pair(arena, o, q, within);
        }
        out.comparisons += within.comparisons;
        out.results.extend_from_slice(within.matches());
        let raw = out.results.len() as u64;
        out.stages.push(
            StageStats::join(STAGE_JOIN_WITHIN)
                .with_wall(sw.lap())
                .with_items(scratch.tasks.len() as u64, raw)
                .with_tests(out.comparisons),
        );

        // Stage 4 — result merge: radix sort + dedup into the canonical
        // `(query, object)` order. No match comes from two tasks, so the
        // dedup removes nothing.
        radix::sort_dedup(&mut out.results, &mut scratch.merge_tmp);
        debug_assert_eq!(raw, out.results.len() as u64, "a match was produced twice");
        out.stages.push(
            StageStats::join(STAGE_RESULT_MERGE)
                .with_wall(sw.lap())
                .with_items(raw, out.results.len() as u64),
        );
        out
    }

    /// Stage 1: fills `pairs` with every directed pair `(O, Q)`, `O ≠ Q`,
    /// whose object-side and query-side boxes share a cell, each exactly
    /// once (`ClusterGrid::directed_pairs`), then with the self pair
    /// `(m, m)` of every mixed cluster listed on the query side: one whose
    /// effective box misses the area reaches no object in it, so it gets
    /// no self join. Returns `(entries_walked, candidates)`.
    fn discover_pairs(
        &self,
        pairs: &mut Vec<(ClusterSlot, ClusterSlot)>,
        classed: &mut Vec<ClusterSlot>,
    ) -> (u64, u64) {
        let walked = self.grid.directed_pairs(pairs, classed);
        pairs.extend(
            self.store
                .iter()
                .filter(|&(slot, c)| c.is_mixed() && self.grid.lists(slot, Side::Query))
                .map(|(slot, _)| (slot, slot)),
        );
        walked
    }

    /// Stage 2: filters the discovered pairs down to the pairs join-within
    /// must run, clearing and filling `tasks` with them in input order
    /// (the order join-within consumes them in). Returns the overlap tests
    /// made.
    ///
    /// Same-slot pairs survive only for mixed clusters (Algorithm 1, step
    /// 14). A directed cross pair `(O, Q)` must pass the joinable-kind
    /// check (step 18) and then the circle-overlap test of `O`'s region
    /// against `Q`'s region inflated by its widest range, so a pruned pair
    /// really cannot produce results (see
    /// [`crate::MovingCluster::effective_region`]). A vacant slot is
    /// skipped.
    fn join_between(
        &self,
        pairs: &[(ClusterSlot, ClusterSlot)],
        tasks: &mut Vec<(ClusterSlot, ClusterSlot)>,
    ) -> u64 {
        tasks.clear();
        let mut tests = 0u64;
        for &(o, q) in pairs {
            let (Some(objects), Some(queries)) = (self.store.get(o), self.store.get(q)) else {
                continue;
            };
            if o == q {
                if objects.is_mixed() {
                    tasks.push((o, q));
                }
                continue;
            }
            if let Some(overlap) = between(objects, queries) {
                tests += 1;
                if overlap {
                    tasks.push((o, q));
                }
            }
        }
        tests
    }

    /// The cross-stripe pass, run after [`JoinContext::run`] with the same
    /// scratch in the same epoch: joins every local cluster against every
    /// received ghost, in both directions. Ghosts are materialised into
    /// the same arena under the keys past the store's slots, each directed
    /// pair — local objects against ghost queries, and ghost objects
    /// against local queries — is tested with join-between's predicate,
    /// and a passing pair is joined by [`JoinContext::join_pair`]. Appends
    /// the matches (unsorted) to `out.results`, adds the work to `out`'s
    /// counters, and returns the directed pairs joined.
    pub(crate) fn join_ghosts(
        &self,
        ghosts: &[Replica],
        scratch: &mut JoinScratch,
        out: &mut JoinOutput,
    ) -> u64 {
        let JoinScratch { arena, within, .. } = scratch;
        let base = self.store.capacity();
        arena.cover(base + ghosts.len());
        within.reset();
        let mut tests = 0u64;
        let mut pairs = 0u64;
        for (slot, local) in self.store.iter() {
            for (i, ghost) in ghosts.iter().enumerate() {
                let key = ClusterSlot((base + i) as u32);
                let directions = [
                    (slot, local, key, &ghost.cluster),
                    (key, &ghost.cluster, slot, local),
                ];
                for (o, objects, q, queries) in directions {
                    let Some(overlap) = between(objects, queries) else {
                        continue;
                    };
                    tests += 1;
                    if !overlap {
                        continue;
                    }
                    self.materialize_slot(slot, arena);
                    if arena.entry(key).is_none() {
                        materialize_into(key, &ghost.cluster, |qid| ghost.spec(qid), arena);
                    }
                    self.join_pair(arena, o, q, within);
                    pairs += 1;
                }
            }
        }
        out.comparisons += within.comparisons;
        out.prefilter_tests += tests;
        out.results.extend_from_slice(within.matches());
        pairs
    }

    /// Joins one surviving directed pair, `o`'s objects against `q`'s
    /// queries; for a `(m, m)` task that is the same-cluster join.
    fn join_pair(&self, arena: &MatArena, o: ClusterSlot, q: ClusterSlot, ws: &mut WithinScratch) {
        if let (Some(&m_o), Some(&m_q)) = (arena.entry(o), arena.entry(q)) {
            self.join_members(arena, &m_o, &m_q, ws);
        }
    }

    /// Joins `objects_of`'s objects against `queries_of`'s queries, both
    /// read from the arena, as Algorithm 3's full nested loop.
    ///
    /// Every exact object is tested against every exact query, with no
    /// member-level filter: the clusters are small, so a filter's branches
    /// cost more than the containment tests they would save. Each
    /// candidate match is written at the cursor, which advances by
    /// `hit as usize`, so the loop body has no branch on the answer.
    ///
    /// Shed members amortise: all shed objects of a cluster share the
    /// centroid position, so one region test answers the whole set, and
    /// likewise for each distinct shed-query spec.
    fn join_members(
        &self,
        arena: &MatArena,
        objects_of: &MatEntry,
        queries_of: &MatEntry,
        ws: &mut WithinScratch,
    ) {
        let span = |(start, end): (u32, u32)| start as usize..end as usize;
        let objs = span(objects_of.objs);
        let (xs, ys, oids) = (
            &arena.obj_x[objs.clone()],
            &arena.obj_y[objs.clone()],
            &arena.obj_ids[objs],
        );
        let queries = &arena.queries[span(queries_of.queries)];
        let shed_objs = &arena.shed_obj_ids[span(objects_of.shed_objs)];

        // 1. Exact objects × exact queries: the product loop.
        let candidates = oids.len() * queries.len();
        let dst = ws.room(candidates);
        let mut n = 0;
        for ((&x, &y), &oid) in xs.iter().zip(ys).zip(oids) {
            let p = Point::new(x, y);
            for q in queries {
                dst[n] = QueryMatch::new(q.qid, oid);
                n += q.region.contains(&p) as usize;
            }
        }
        ws.len += n;
        ws.comparisons += candidates as u64;

        // 2. Shed objects (all at the centroid) × exact queries: one test
        //    per query answers every shed object.
        if !shed_objs.is_empty() {
            ws.comparisons += queries.len() as u64;
            for q in queries {
                if q.region.contains(&objects_of.centroid) {
                    ws.emit(&[q.qid], shed_objs);
                }
            }
        }

        // 3. Shed query groups (regions centred on the query cluster's
        //    centroid).
        for g in span(queries_of.groups) {
            let region = &arena.group_regions[g];
            let qids = &arena.group_qids[span(arena.group_qid_spans[g])];
            // 3a. Exact objects.
            ws.comparisons += oids.len() as u64;
            for ((&x, &y), &oid) in xs.iter().zip(ys).zip(oids) {
                if region.contains(&Point::new(x, y)) {
                    ws.emit(qids, &[oid]);
                }
            }
            // 3b. Shed objects: a single centroid-in-region test answers
            //     the full cross product.
            if !shed_objs.is_empty() {
                ws.comparisons += 1;
                if region.contains(&objects_of.centroid) {
                    ws.emit(qids, shed_objs);
                }
            }
        }
    }

    /// Materialises the store's cluster at `slot` under its own key, with
    /// the specs of the query table. Idempotent per epoch; a vacant slot
    /// is skipped.
    fn materialize_slot(&self, slot: ClusterSlot, arena: &mut MatArena) {
        if arena.entry(slot).is_some() {
            return;
        }
        if let Some(cluster) = self.store.get(slot) {
            materialize_into(
                slot,
                cluster,
                |qid| self.queries.get(qid).map(|a| a.spec),
                arena,
            );
        }
    }
}

/// Writes every member of `cluster` into the arena under `key` as flat SoA
/// spans, each at the position it holds.
/// Shed members materialise at the centroid; a query member `spec_of`
/// does not know is skipped. Callers materialise a key once per epoch.
fn materialize_into(
    key: ClusterSlot,
    cluster: &MovingCluster,
    spec_of: impl Fn(QueryId) -> Option<QuerySpec>,
    arena: &mut MatArena,
) {
    let centroid = cluster.centroid();
    let objs_start = arena.obj_ids.len() as u32;
    let shed_start = arena.shed_obj_ids.len() as u32;
    let queries_start = arena.queries.len() as u32;
    let groups_start = arena.group_regions.len() as u32;
    arena.pending_groups.clear();
    arena.group_counts.clear();

    for member in cluster.members() {
        match member.entity {
            EntityRef::Object(oid) => match member.pos {
                Some(p) => {
                    arena.obj_ids.push(oid);
                    arena.obj_x.push(p.x);
                    arena.obj_y.push(p.y);
                }
                None => arena.shed_obj_ids.push(oid),
            },
            EntityRef::Query(qid) => {
                let Some(spec) = spec_of(qid) else {
                    continue; // query unknown to the table; skip
                };
                match member.pos {
                    Some(p) => arena.queries.push(ExactQuery {
                        qid,
                        region: spec.region_at(p).expect("range spec always has a region"),
                    }),
                    None => {
                        let region = spec
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

    arena.stamp[key.index()] = arena.epoch;
    arena.slot_entry[key.index()] = arena.entries.len() as u32;
    arena.entries.push(MatEntry {
        objs: (objs_start, arena.obj_ids.len() as u32),
        shed_objs: (shed_start, arena.shed_obj_ids.len() as u32),
        queries: (queries_start, arena.queries.len() as u32),
        groups: (groups_start, arena.group_regions.len() as u32),
        centroid,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterId, Member, MovingCluster};
    use crate::clustering::ClusterEngine;
    use crate::params::ScubaParams;
    use crate::shedding::SheddingMode;
    use crate::store::ClusterStore;
    use scuba_motion::{LocationUpdate, ObjectAttrs, QueryAttrs};
    use scuba_spatial::{CellIdx, Circle, GridSpec, Rect};
    use scuba_stream::PhaseKind;
    use scuba_testkit::{check, Xoshiro256};

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
        assert_eq!(
            engine.grid().cluster_count(),
            engine.cluster_count(),
            "build_index() before joining"
        );
        JoinContext {
            store: engine.store(),
            grid: engine.grid(),
            queries: engine.queries(),
        }
    }

    fn run(engine: &ClusterEngine) -> JoinOutput {
        ctx(engine).run(&mut JoinScratch::new())
    }

    /// The join-between stage row's `(tests, items_out)`: overlap tests
    /// made and pairs passed on to join-within.
    fn between_row(out: &JoinOutput) -> (u64, u64) {
        let row = &out.stages[1];
        assert_eq!(row.name, STAGE_JOIN_BETWEEN);
        (row.tests, row.items_out)
    }

    fn store_with(clusters: Vec<MovingCluster>) -> ClusterStore {
        let mut s = ClusterStore::new();
        for c in clusters {
            s.insert(c);
        }
        s
    }

    fn found(u: &LocationUpdate) -> MovingCluster {
        MovingCluster::found(ClusterId(u.entity.raw()), u, false)
    }

    /// Runs the join-between stage alone over every directed slot pair of
    /// `store` (self pairs included); returns the surviving pairs and the
    /// overlap tests made.
    fn between_all(store: &ClusterStore) -> (Vec<(ClusterSlot, ClusterSlot)>, u64) {
        let n = store.capacity() as u32;
        let pairs: Vec<_> = (0..n)
            .flat_map(|a| (0..n).map(move |b| (ClusterSlot(a), ClusterSlot(b))))
            .collect();
        let grid = ClusterGrid::new(GridSpec::new(Rect::square(1000.0), 1));
        let queries = QueriesTable::new();
        let ctx = JoinContext {
            store,
            grid: &grid,
            queries: &queries,
        };
        let mut tasks = Vec::new();
        let tests = ctx.join_between(&pairs, &mut tasks);
        (tasks, tests)
    }

    /// Degenerate geometry: zero-radius clusters and coincident centroids
    /// take the inclusive (≤) branch; same-kind pairs are never tested.
    #[test]
    fn zero_radius_and_coincident_centroids_are_inclusive() {
        let store = store_with(vec![
            found(&obj(0, 100.0, 100.0, 10.0, CN_EAST)),
            found(&qry(1, 100.0, 100.0, 10.0, CN_EAST, 0.0)), // coincident, zero reach
            found(&qry(2, 100.0, 130.0, 10.0, CN_EAST, 0.0)), // zero reach, 30 apart
            found(&obj(3, 500.0, 500.0, 10.0, CN_EAST)),
        ]);
        // Only the coincident zero-radius pair survives (distance 0 ≤ 0);
        // the separated zero-reach pair and both far pairs are pruned.
        assert_eq!(
            between_all(&store),
            (vec![(ClusterSlot(0), ClusterSlot(1))], 4)
        );
    }

    /// A pair engineered to sit exactly on the overlap boundary
    /// (d² == (radius + effective radius)²): the inclusive comparison must
    /// admit it.
    #[test]
    fn exact_boundary_pair_is_inclusive() {
        // A square range of side 2s has bounding radius s·√2, which is
        // irrational, so the object cluster (radius 0) is placed at the
        // *computed* effective radius: d equals it bit for bit.
        let q = found(&qry(1, 0.0, 0.0, 10.0, CN_EAST, 16.0));
        let eff = q.effective_region().radius;
        assert_eq!(eff, q.radius() + q.max_query_radius());
        let store = store_with(vec![found(&obj(0, eff, 0.0, 10.0, CN_EAST)), q]);
        // d² = eff² exactly (axis-aligned, dy = 0), so ≤ admits the pair.
        assert_eq!(
            between_all(&store),
            (vec![(ClusterSlot(0), ClusterSlot(1))], 1)
        );
    }

    /// A vacant slot (a dissolved cluster still named by a pair) is
    /// skipped, neither tested nor passed on.
    #[test]
    fn vacant_slots_are_skipped() {
        let mut store = store_with(vec![
            found(&obj(0, 100.0, 100.0, 10.0, CN_EAST)),
            found(&qry(1, 100.0, 100.0, 10.0, CN_EAST, 20.0)),
        ]);
        store.remove(ClusterSlot(1));
        assert_eq!(between_all(&store), (vec![], 0));
    }

    #[test]
    fn same_cluster_match_found() {
        let mut e = ClusterEngine::new(ScubaParams::default(), Rect::square(1000.0));
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        e.process_update(&qry(1, 505.0, 500.0, 30.0, CN_EAST, 20.0)); // covers ±10
        e.build_index();
        let out = run(&e);
        assert_eq!(out.results, vec![QueryMatch::new(QueryId(1), ObjectId(1))]);
        assert!(out.comparisons >= 1);
    }

    #[test]
    fn same_cluster_non_match_when_outside_range() {
        let mut e = ClusterEngine::new(ScubaParams::default(), Rect::square(1000.0));
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        e.process_update(&qry(1, 530.0, 500.0, 30.0, CN_EAST, 20.0)); // 30 > 10
        e.build_index();
        let out = run(&e);
        assert!(out.results.is_empty());
        assert_eq!(out.comparisons, 1);
    }

    #[test]
    fn pure_clusters_skip_within_join() {
        let mut e = ClusterEngine::new(ScubaParams::default(), Rect::square(1000.0));
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        e.process_update(&obj(2, 505.0, 500.0, 30.0, CN_EAST));
        e.build_index();
        let out = run(&e);
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
        e.build_index();
        let out = run(&e);
        // One cluster-pair overlap test, passed; the member join runs
        // unfiltered (two objects × one query).
        assert_eq!(out.prefilter_tests, 1);
        assert_eq!(between_row(&out), (1, 1));
        assert_eq!(out.comparisons, 2);
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
        e.build_index();
        let out = run(&e);
        assert_eq!(out.prefilter_tests, 1);
        assert_eq!(between_row(&out), (1, 0), "one test, pair pruned");
        assert_eq!(out.comparisons, 0, "join-within skipped");
        assert!(out.results.is_empty());
    }

    #[test]
    fn clusters_in_disjoint_cells_never_tested() {
        let mut e = ClusterEngine::new(ScubaParams::default(), Rect::square(1000.0));
        e.process_update(&obj(1, 100.0, 100.0, 30.0, CN_EAST));
        e.process_update(&qry(1, 900.0, 900.0, 30.0, CN_WEST, 20.0));
        e.build_index();
        let out = run(&e);
        assert_eq!(out.prefilter_tests, 0);
        assert_eq!(out.comparisons, 0);
    }

    #[test]
    fn pair_spanning_multiple_cells_joined_once() {
        // Big query range and a coarse-ish grid: both clusters overlap
        // several cells; the pair is emitted in one of them only.
        let params = ScubaParams::default().with_grid_cells(4);
        let mut e = ClusterEngine::new(params, Rect::square(1000.0));
        for i in 0..5 {
            e.process_update(&obj(i, 450.0 + i as f64 * 20.0, 500.0, 30.0, CN_EAST));
        }
        e.process_update(&qry(1, 510.0, 505.0, 30.0, CN_WEST, 400.0));
        e.build_index();
        let out = run(&e);
        // All 5 objects match exactly once.
        assert_eq!(out.results.len(), 5);
        assert_eq!(between_row(&out).1, 1, "one pair survives");
    }

    #[test]
    fn full_shedding_matches_by_region() {
        let params = ScubaParams::default().with_shedding(SheddingMode::Full);
        let mut e = ClusterEngine::new(params, Rect::square(1000.0));
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST));
        e.process_update(&qry(1, 505.0, 500.0, 30.0, CN_EAST, 20.0));
        e.build_index();
        let out = run(&e);
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
        e.build_index();
        let out = run(&e);
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
        exact.build_index();
        let truth = run(&exact);
        assert!(truth.results.is_empty());
    }

    #[test]
    fn partial_shedding_mixed_exact_and_approximate() {
        let params = ScubaParams::default().with_shedding(SheddingMode::Partial { eta: 0.2 });
        let mut e = ClusterEngine::new(params, Rect::square(1000.0));
        e.process_update(&obj(1, 500.0, 500.0, 30.0, CN_EAST)); // founder, shed
        e.process_update(&obj(2, 580.0, 500.0, 30.0, CN_EAST)); // r≈80 kept
        e.process_update(&qry(1, 587.0, 500.0, 30.0, CN_EAST, 20.0)); // kept
        e.build_index();
        let out = run(&e);
        // Object 2 (exact, at 580) falls in the query region [577, 597].
        // Object 1 is shed: its nucleus (radius η·Θ_D = 20 around the final
        // centroid x ≈ 555.7) reaches only x ≈ 575.7 < 577, so the
        // approximation correctly rejects it.
        assert_eq!(out.results, vec![QueryMatch::new(QueryId(1), ObjectId(2))]);
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
        e.build_index();
        let out = run(&e);
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
        e.build_index();
        let out = run(&e);
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
        // result set, and each stage's unit work is its counter.
        let merge = &out.stages[3];
        assert_eq!(merge.items_out, out.results.len() as u64);
        assert_eq!(out.stages[2].tests, out.comparisons);
        assert_eq!(out.stages[1].tests, out.prefilter_tests);
    }

    /// The radix scatter buffer is scratch like the rest: counted by
    /// `capacity_bytes`, grown during warm-up, never after.
    #[test]
    fn radix_buffers_are_counted_and_stop_growing() {
        // One cell and one wide query over 400 objects: enough raw matches
        // for the result merge to take the radix path.
        let params = ScubaParams::default().with_grid_cells(1);
        let mut e = ClusterEngine::new(params, Rect::square(1000.0));
        for i in 0..400u64 {
            let (x, y) = (20.0 + (i % 20) as f64 * 48.0, 20.0 + (i / 20) as f64 * 48.0);
            e.process_update(&obj(i, x, y, 30.0, CN_EAST));
        }
        e.process_update(&qry(1, 500.0, 500.0, 30.0, CN_WEST, 2000.0));
        let mut scratch = JoinScratch::new();
        e.build_index();
        let first = ctx(&e).run(&mut scratch);
        assert_eq!(first.results.len(), 400);
        assert!(scratch.merge_tmp.capacity() >= 400);
        let settled = scratch.capacity_bytes();
        assert!(
            settled >= scratch.merge_tmp.capacity() * 16,
            "the scatter buffer is part of the reported footprint"
        );
        for _ in 0..3 {
            let again = run(&e); // fresh scratch: same answer
            let out = ctx(&e).run(&mut scratch);
            assert_eq!(out.results, again.results);
            assert_eq!(scratch.capacity_bytes(), settled);
        }
    }

    /// Every `(query, object)` match of `store` by brute force: each query
    /// member's region (at its position, or its cluster's centroid when
    /// shed) against each object member (likewise), through
    /// `Rect::contains`. Sorted.
    fn brute_force(store: &ClusterStore, queries: &QueriesTable) -> Vec<QueryMatch> {
        let at = |c: &MovingCluster, m: &Member| m.pos.unwrap_or(c.centroid());
        let mut out = Vec::new();
        for cq in store.values() {
            for mq in cq.members() {
                let EntityRef::Query(qid) = mq.entity else {
                    continue;
                };
                let region = queries
                    .get(qid)
                    .unwrap()
                    .spec
                    .region_at(at(cq, mq))
                    .unwrap();
                for co in store.values() {
                    for mo in co.members() {
                        if let EntityRef::Object(oid) = mo.entity {
                            if region.contains(&at(co, mo)) {
                                out.push(QueryMatch::new(qid, oid));
                            }
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The join-within kernel at the edges of a query rectangle. Objects
    /// sit on each edge and corner of an exact query's region, one ulp
    /// outside each edge and at a NaN coordinate, next to a shed object
    /// set; the query side holds the exact query and two shed query groups
    /// (one with the same region, one wider). Joined as a self pair and as
    /// a cross pair, `run` answers what brute-force `Rect::contains` does
    /// for every (query, object).
    #[test]
    fn kernel_matches_brute_force_on_edges_ulps_and_nan() {
        let (narrow, wide) = (QuerySpec::square_range(20.0), QuerySpec::square_range(40.0));
        let centre = Point::new(500.0, 500.0);
        let r = narrow.region_at(centre).unwrap();
        // One ulp towards −∞ / +∞ (every coordinate here is positive).
        let below = |v: f64| f64::from_bits(v.to_bits() - 1);
        let above = |v: f64| f64::from_bits(v.to_bits() + 1);
        let mut points = Vec::new();
        for x in [r.min.x, centre.x, r.max.x] {
            for y in [r.min.y, centre.y, r.max.y] {
                points.push(Point::new(x, y));
            }
        }
        points.extend([
            Point::new(below(r.min.x), centre.y),
            Point::new(above(r.max.x), centre.y),
            Point::new(centre.x, below(r.min.y)),
            Point::new(centre.x, above(r.max.y)),
            Point::new(f64::NAN, centre.y),
            Point::new(centre.x, f64::NAN),
        ]);
        let member = |entity: EntityRef, pos| Member {
            entity,
            speed: 10.0,
            pos,
            last_seen: 0,
        };
        let objects = points
            .iter()
            .enumerate()
            .map(|(i, &p)| member(ObjectId(i as u64).into(), Some(p)))
            .chain((100..103).map(|i| member(ObjectId(i).into(), None)));
        let specs = [
            (QueryId(0), Some(centre), narrow),
            (QueryId(1), None, narrow),
            (QueryId(2), None, narrow),
            (QueryId(3), None, wide),
        ];
        let query_members = specs.iter().map(|&(qid, pos, _)| member(qid.into(), pos));
        let mut queries = QueriesTable::new();
        for (qid, _, spec) in specs {
            queries.upsert(qid, QueryAttrs { spec });
        }
        let cluster = |cid, centroid, members: Vec<Member>| {
            let reach = wide.bounding_radius();
            MovingCluster::from_parts(
                ClusterId(cid),
                centroid,
                20.0,
                CN_EAST,
                10.0,
                0,
                reach,
                members,
            )
        };
        // Self pair: one mixed cluster whose shed members sit at the
        // query's position, so the narrow group's region is the query's.
        // Cross pair: the objects' centroid, where their shed members sit,
        // is one ulp outside the region's lower-right corner.
        let cases = [
            vec![cluster(
                0,
                centre,
                objects.clone().chain(query_members.clone()).collect(),
            )],
            vec![
                cluster(0, Point::new(above(r.max.x), r.min.y), objects.collect()),
                cluster(1, centre, query_members.collect()),
            ],
        ];
        for (case, clusters) in cases.into_iter().enumerate() {
            let store = store_with(clusters);
            let mut grid = ClusterGrid::new(GridSpec::new(Rect::square(1000.0), 10));
            grid.build(store.iter().map(|(slot, c)| crate::grid::roles(slot, c)));
            let ctx = JoinContext {
                store: &store,
                grid: &grid,
                queries: &queries,
            };
            let out = ctx.run(&mut JoinScratch::new());
            let expected = brute_force(&store, &queries);
            let pairs = specs.len() * (points.len() + 3);
            assert!(
                (1..pairs).contains(&expected.len()),
                "case {case}: some pairs match, some do not"
            );
            assert_eq!(out.results, expected, "case {case}");
        }
    }

    /// One region of a pair-discovery scatter over `area`: hotspot discs, discs whose box touches the border
    /// exactly, zero-radius points on cell corners, regions off the area
    /// (on one axis, both, or NaN), and wide discs spanning many cells.
    /// Radii and coordinates are dyadic, so box edges land exactly.
    fn scatter_region(rng: &mut Xoshiro256, area: Rect, hotspots: &[Point]) -> Circle {
        let (w, h) = (area.width(), area.height());
        let r = [0.0, 0.5, 1.0, 2.5, 4.0][rng.gen_range(0..5usize)];
        match rng.gen_range(0..5u32) {
            0 => {
                let hot = hotspots[rng.gen_range(0..hotspots.len())];
                let d = |rng: &mut Xoshiro256| rng.gen_range(-6.0..6.0);
                Circle::new(Point::new(hot.x + d(rng), hot.y + d(rng)), r)
            }
            1 => {
                let along = rng.gen_range(0.0..1.0);
                let c = match rng.gen_range(0..4u32) {
                    0 => Point::new(area.min.x - r, area.min.y + along * h),
                    1 => Point::new(area.max.x + r, area.min.y + along * h),
                    2 => Point::new(area.min.x + along * w, area.min.y - r),
                    _ => Point::new(area.min.x + along * w, area.max.y + r),
                };
                Circle::new(c, r)
            }
            2 => {
                let n = rng.gen_range(0..=8u64) as f64 / 8.0;
                let m = rng.gen_range(0..=8u64) as f64 / 8.0;
                Circle::new(Point::new(area.min.x + n * w, area.min.y + m * h), 0.0)
            }
            3 => {
                let inside = Point::new(area.min.x + w / 2.0, area.min.y + h / 2.0);
                let off = 2.0 * w + 10.0 * r;
                let c = match rng.gen_range(0..4u32) {
                    0 => Point::new(inside.x, area.max.y + off),
                    1 => Point::new(area.min.x - off, inside.y),
                    2 => Point::new(area.max.x + off, area.min.y - off),
                    _ => Point::new(f64::NAN, inside.y),
                };
                Circle::new(c, r)
            }
            _ => Circle::new(
                Point::new(
                    area.min.x + rng.gen_range(0.0..w),
                    area.min.y + rng.gen_range(0.0..h),
                ),
                rng.gen_range(0.0..w / 3.0),
            ),
        }
    }

    /// The clamped cell box of a region, or `None` when its box misses
    /// the area (NaN included).
    fn cell_box(spec: &GridSpec, region: &Circle) -> Option<(CellIdx, CellIdx)> {
        let (b, a) = (region.bounding_rect(), spec.area());
        let hits =
            b.max.x >= a.min.x && b.min.x <= a.max.x && b.max.y >= a.min.y && b.min.y <= a.max.y;
        hits.then(|| (spec.cell_of(&b.min), spec.cell_of(&b.max)))
    }

    /// Pair discovery emits each directed pair `(O, Q)`, `O ≠ Q`, whose
    /// object-side and query-side clamped boxes share a cell exactly once,
    /// and so every directed pair of overlapping listed circles. Clusters
    /// are objects only, queries only or mixed; a mixed cluster's query
    /// side is its object side inflated, or a region drawn on its own.
    #[test]
    fn pair_discovery_emits_each_box_sharing_pair_once() {
        check(
            "pair_discovery_emits_each_box_sharing_pair_once",
            256,
            |rng| {
                let area = if rng.gen_bool(0.5) {
                    Rect::square(100.0)
                } else {
                    Rect::from_corners(Point::new(-64.0, 16.0), Point::new(96.0, 80.0))
                };
                let spec = GridSpec::new(area, rng.gen_range(1..13u32));
                let hotspots: Vec<Point> = (0..rng.gen_range(1..4usize))
                    .map(|_| {
                        Point::new(
                            area.min.x + rng.gen_range(0.0..area.width()),
                            area.min.y + rng.gen_range(0.0..area.height()),
                        )
                    })
                    .collect();
                let mut next = 0u32;
                let clusters: Vec<(ClusterSlot, Option<Circle>, Option<Circle>)> = (0..rng
                    .gen_range(0..60usize))
                    .map(|_| {
                        next += rng.gen_range(1..4u32);
                        let region = scatter_region(rng, area, &hotspots);
                        let reach = if rng.gen_bool(0.5) {
                            let extra = [0.0, 1.0, 4.0][rng.gen_range(0..3usize)];
                            Circle::new(region.center, region.radius + extra)
                        } else {
                            scatter_region(rng, area, &hotspots)
                        };
                        let (objects, queries) = match rng.gen_range(0..3u32) {
                            0 => (Some(region), None),
                            1 => (None, Some(reach)),
                            _ => (Some(region), Some(reach)),
                        };
                        (ClusterSlot(next), objects, queries)
                    })
                    .collect();
                let mut grid = ClusterGrid::new(spec);
                grid.build(clusters.iter().copied());
                let (store, queries) = (ClusterStore::new(), QueriesTable::new());
                let ctx = JoinContext {
                    store: &store,
                    grid: &grid,
                    queries: &queries,
                };
                let (mut pairs, mut classed) = (Vec::new(), Vec::new());
                let (_, candidates) = ctx.discover_pairs(&mut pairs, &mut classed);

                let mut distinct = pairs.clone();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), pairs.len(), "a pair was emitted twice");

                let mut expected = Vec::new();
                let mut sharing_cells = 0u64;
                for &(o, objects, _) in &clusters {
                    for &(q, _, reach) in &clusters {
                        let (Some(region), Some(reach)) = (objects, reach) else {
                            continue;
                        };
                        let (Some((lo_o, hi_o)), Some((lo_q, hi_q))) =
                            (cell_box(&spec, &region), cell_box(&spec, &reach))
                        else {
                            continue;
                        };
                        let cols = lo_o.col.max(lo_q.col)..=hi_o.col.min(hi_q.col);
                        let rows = lo_o.row.max(lo_q.row)..=hi_o.row.min(hi_q.row);
                        sharing_cells += (cols.clone().count() * rows.clone().count()) as u64;
                        if cols.is_empty() || rows.is_empty() {
                            assert!(
                                !region.overlaps(&reach),
                                "{o:?} → {q:?} overlap, boxes apart"
                            );
                        } else if o != q {
                            expected.push((o, q));
                        }
                    }
                }
                expected.sort_unstable();
                assert_eq!(distinct, expected);
                assert_eq!(candidates, sharing_cells, "n_query × n_object per cell");
            },
        );
    }

    /// A mixed cluster self-joins (Algorithm 1, step 14) when its query
    /// side is listed, even with its plain region off the area; one whose
    /// effective region misses the area too gets no self pair.
    #[test]
    fn off_area_mixed_cluster_gets_no_self_join() {
        let mut e = ClusterEngine::new(ScubaParams::default(), Rect::square(1000.0));
        // Region x ∈ [−30, −25], effective region reaching x ≈ 3: listed on
        // the query side only. The query's range [−45, −5] holds the object.
        e.process_update(&obj(1, -30.0, 500.0, 30.0, CN_WEST));
        e.process_update(&qry(1, -25.0, 500.0, 30.0, CN_WEST, 40.0));
        // Both boxes far off the area: listed nowhere.
        e.process_update(&obj(2, -300.0, 500.0, 30.0, CN_WEST));
        e.process_update(&qry(2, -295.0, 500.0, 30.0, CN_WEST, 40.0));
        assert_eq!(e.cluster_count(), 2);
        assert!(e.store().values().all(MovingCluster::is_mixed));
        e.build_index();
        let home = |id| e.home().cluster_of(ObjectId(id).into()).unwrap();
        let (near, far) = (home(1), home(2));
        assert!(!e.grid().lists(near, Side::Object) && e.grid().lists(near, Side::Query));
        assert!(!e.grid().lists(far, Side::Query));
        let (mut pairs, mut classed) = (Vec::new(), Vec::new());
        ctx(&e).discover_pairs(&mut pairs, &mut classed);
        assert_eq!(pairs, [(near, near)]);
        let out = run(&e);
        assert_eq!(out.results, [QueryMatch::new(QueryId(1), ObjectId(1))]);
    }
}
