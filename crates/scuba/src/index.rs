//! Pluggable spatial index over moving-cluster regions.
//!
//! The paper fixes the cluster index to a uniform N×N grid (§4.1), which
//! degrades under hotspot skew: a few downtown cells accumulate hundreds of
//! clusters while suburb cells sit empty, so the join's per-cell candidate
//! generation is wildly unbalanced. [`SpatialIndex`] abstracts the contract
//! every consumer (join pair-discovery, stripe routing, snapshot restore,
//! k-NN) actually relies on, with two implementations:
//!
//! * [`ClusterGrid`] — the paper's uniform grid, unchanged;
//! * [`AdaptiveGrid`] — the uniform grid plus per-cell quadtree refinement:
//!   hot cells split into subcells past an occupancy threshold and cold
//!   cells merge back, re-balanced incrementally once per Δ.
//!
//! # Bit-identity contract
//!
//! Both implementations must produce **identical query results** and leave
//! **identical cluster state** for every workload (the property suite and
//! the `grid` bench assert this at runtime). Cluster state is identical
//! trivially: clustering never reads this index — its step-1 probe runs on
//! the engine's private centroid index and picks the nearest passing
//! centroid (ties by `ClusterId`), so the index kind cannot influence which
//! cluster absorbs an entity. Results are identical by construction:
//!
//! * all *base-level* state — registrations, liveness, cell membership — is
//!   the unmodified [`ClusterGrid`], and [`SpatialIndex::clusters_near`]
//!   delegates to base cell lists;
//! * refinement only affects [`SpatialIndex::for_each_candidate_cell`], the
//!   join's pair-discovery walk. A refined cell's leaves exactly tile the
//!   cell, and a slot is assigned to every leaf its registered circle
//!   intersects — except that a circle not fully contained in the coverage
//!   area *floods* (joins every leaf). Any object×query result has an
//!   evidence point `p` inside both clusters' effective circles; the leaf
//!   containing `p` (or the flood) lists both clusters, so every
//!   result-producing pair survives refinement. Dropped pairs are exactly
//!   pairs the join would have pruned or joined to no effect — the
//!   downstream sort+dedup and the overlap pre-filter make candidate lists
//!   a *cover*, not a semantic set.
//!
//! Work counters (candidates walked, prefilter tests) legitimately differ
//! between the two indexes; only results and cluster state are identical.

use std::str::FromStr;

use serde::{Deserialize, Serialize};

use scuba_spatial::{Circle, GridSpec, Point, Rect};

use crate::grid::ClusterGrid;
use crate::store::ClusterSlot;

/// Which spatial index implementation the engine builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "lowercase")]
pub enum IndexKind {
    /// The paper's uniform N×N grid (§4.1).
    #[default]
    Uniform,
    /// Uniform grid plus per-cell quadtree refinement for skewed loads.
    Adaptive,
}

impl FromStr for IndexKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "uniform" => Ok(IndexKind::Uniform),
            "adaptive" => Ok(IndexKind::Adaptive),
            other => Err(format!(
                "unknown index kind '{other}' (expected 'uniform' or 'adaptive')"
            )),
        }
    }
}

impl std::fmt::Display for IndexKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexKind::Uniform => f.write_str("uniform"),
            IndexKind::Adaptive => f.write_str("adaptive"),
        }
    }
}

/// Reusable buffers for candidate-cell emission
/// ([`SpatialIndex::for_each_candidate_cell_with`]). Owned by the caller
/// (the join scratch) and handed back on every discovery walk, so index
/// implementations that materialise per-leaf slot lists reuse one buffer
/// across cells and ticks instead of allocating per walk.
#[derive(Debug, Default)]
pub struct DiscoveryScratch {
    /// Per-leaf membership buffer of the adaptive grid's refined cells.
    leaf: Vec<ClusterSlot>,
}

impl DiscoveryScratch {
    /// Creates empty scratch (buffers grow on first use and stick).
    pub fn new() -> Self {
        DiscoveryScratch::default()
    }

    /// Bytes of heap currently reserved by the scratch buffers.
    pub fn capacity_bytes(&self) -> usize {
        self.leaf.capacity() * std::mem::size_of::<ClusterSlot>()
    }
}

/// The contract every consumer of the cluster index relies on.
///
/// `Sync` because [`crate::join::JoinContext`] (which borrows the index)
/// is copied into scoped worker threads; `Debug` because the contexts that
/// embed it derive `Debug`.
///
/// Cell lists are dense [`ClusterSlot`]-keyed vectors that every reader
/// treats as *sets* — their order carries no meaning and removal may
/// reorder them. Registrations track liveness independently of cell
/// membership (a live slot may cover zero cells when its region leaves the
/// area), and candidate enumeration yields lists whose pairwise products
/// *cover* every joinable pair — duplicates are collapsed by the caller's
/// packed-pair dedup.
///
/// The engine brings the index up to date once per Δ
/// ([`crate::clustering::ClusterEngine::sync_index`]), not once per update:
/// between syncs it describes the regions as of the previous sync.
pub trait SpatialIndex: std::fmt::Debug + Sync {
    /// The base partitioning geometry (also the stripe router's classifier).
    fn spec(&self) -> &GridSpec;

    /// Registers a cluster region, replacing any previous registration.
    /// Returns the number of base cells the cluster now overlaps.
    fn insert(&mut self, slot: ClusterSlot, region: &Circle) -> usize;

    /// Removes a cluster's registration. Returns `true` if it was present.
    fn remove(&mut self, slot: ClusterSlot) -> bool;

    /// Number of registered clusters.
    fn cluster_count(&self) -> usize;

    /// Whether no clusters are registered.
    fn is_empty(&self) -> bool {
        self.cluster_count() == 0
    }

    /// The linear base-cell indices a cluster is registered in, or `None`
    /// if it is not registered.
    fn cells_of(&self, slot: ClusterSlot) -> Option<&[u32]>;

    /// The clusters registered in a base cell given by linear index.
    fn cell_linear(&self, linear: u32) -> &[ClusterSlot];

    /// The clusters whose regions overlap the base cell that contains `p`.
    fn clusters_near(&self, p: &Point) -> &[ClusterSlot];

    /// Visits every candidate cell list for join pair discovery
    /// (Algorithm 1, step 8). Lists may overlap; together their pairwise
    /// products cover every pair of clusters whose regions share a point.
    fn for_each_candidate_cell(&self, visit: &mut dyn FnMut(&[ClusterSlot]));

    /// [`SpatialIndex::for_each_candidate_cell`] with caller-provided
    /// scratch. The join's per-tick discovery walk uses this form so
    /// implementations that materialise cell lists (the adaptive grid's
    /// refined leaves) run allocation-free in the steady state; the
    /// scratchless form remains for one-off walks. The default
    /// implementation ignores the scratch and delegates.
    fn for_each_candidate_cell_with(
        &self,
        scratch: &mut DiscoveryScratch,
        visit: &mut dyn FnMut(&[ClusterSlot]),
    ) {
        let _ = scratch;
        self.for_each_candidate_cell(visit);
    }

    /// Re-balances internal refinement against current occupancy. Called
    /// once per evaluation interval Δ; a no-op for the uniform grid.
    fn rebalance(&mut self);

    /// Removes every registration, keeping allocations.
    fn clear(&mut self);

    /// Estimated heap footprint in bytes.
    fn estimated_bytes(&self) -> usize;
}

impl SpatialIndex for ClusterGrid {
    fn spec(&self) -> &GridSpec {
        ClusterGrid::spec(self)
    }

    fn insert(&mut self, slot: ClusterSlot, region: &Circle) -> usize {
        ClusterGrid::insert(self, slot, region)
    }

    fn remove(&mut self, slot: ClusterSlot) -> bool {
        ClusterGrid::remove(self, slot)
    }

    fn cluster_count(&self) -> usize {
        ClusterGrid::cluster_count(self)
    }

    fn cells_of(&self, slot: ClusterSlot) -> Option<&[u32]> {
        ClusterGrid::cells_of(self, slot)
    }

    fn cell_linear(&self, linear: u32) -> &[ClusterSlot] {
        ClusterGrid::cell_linear(self, linear)
    }

    fn clusters_near(&self, p: &Point) -> &[ClusterSlot] {
        ClusterGrid::clusters_near(self, p)
    }

    fn for_each_candidate_cell(&self, visit: &mut dyn FnMut(&[ClusterSlot])) {
        for (_, cell) in self.iter_nonempty() {
            visit(cell);
        }
    }

    fn rebalance(&mut self) {}

    fn clear(&mut self) {
        ClusterGrid::clear(self)
    }

    fn estimated_bytes(&self) -> usize {
        ClusterGrid::estimated_bytes(self)
    }
}

/// Maximum quadtree depth below a base cell (4 levels = up to 256 leaves).
const MAX_DEPTH: u32 = 4;

/// The uniform [`ClusterGrid`] plus per-cell quadtree refinement.
///
/// Base-level behaviour (registration, probes, cell lists) delegates to the
/// embedded uniform grid unchanged. Refinement is a
/// per-base-cell list of leaf rectangles rebuilt
/// by [`AdaptiveGrid::rebalance`] (called once per Δ): a cell at or above
/// `split_threshold` occupants splits quadtree-style while leaves stay
/// crowded, a refined cell at or below `merge_threshold` collapses back,
/// and occupancies in between keep their current refinement (hysteresis —
/// `merge_threshold < split_threshold` keeps a cell oscillating around one
/// threshold from re-splitting every Δ).
///
/// Leaf membership is *materialised at discovery time* — never stored —
/// by filtering the base cell list against each leaf rectangle using the
/// exact registered circles ([`ClusterGrid::region_of`]). A circle not
/// fully inside the coverage area floods every leaf of its cells (see the
/// module docs for why this preserves result identity).
#[derive(Debug, Clone)]
pub struct AdaptiveGrid {
    base: ClusterGrid,
    split_threshold: usize,
    merge_threshold: usize,
    /// Leaf rectangles per base cell, in deterministic pre-order
    /// (SW, SE, NW, NE at every split). Empty = unrefined.
    refined: Vec<Vec<Rect>>,
    /// Number of currently refined base cells.
    refined_cells: usize,
}

impl AdaptiveGrid {
    /// Creates an empty adaptive grid over the given base partitioning.
    ///
    /// `split_threshold` is clamped to at least 2 (splitting a cell of one
    /// occupant is meaningless); `merge_threshold` is clamped below
    /// `split_threshold` so the hysteresis band is never empty.
    pub fn new(spec: GridSpec, split_threshold: u32, merge_threshold: u32) -> Self {
        let split = (split_threshold.max(2)) as usize;
        let merge = (merge_threshold as usize).min(split - 1);
        let cell_count = spec.cell_count();
        AdaptiveGrid {
            base: ClusterGrid::new(spec),
            split_threshold: split,
            merge_threshold: merge,
            refined: vec![Vec::new(); cell_count],
            refined_cells: 0,
        }
    }

    /// The embedded uniform grid (read-only; all mutation goes through the
    /// [`SpatialIndex`] methods so base and refinement stay consistent).
    pub fn base(&self) -> &ClusterGrid {
        &self.base
    }

    /// Number of currently refined base cells.
    pub fn refined_cell_count(&self) -> usize {
        self.refined_cells
    }

    /// Total leaf rectangles across refined cells.
    pub fn leaf_count(&self) -> usize {
        self.refined.iter().map(Vec::len).sum()
    }

    /// The occupancy threshold at or above which a cell splits.
    pub fn split_threshold(&self) -> usize {
        self.split_threshold
    }

    /// The occupancy threshold at or below which a refined cell merges.
    pub fn merge_threshold(&self) -> usize {
        self.merge_threshold
    }

    /// Whether `slot`'s circle must join every leaf of its cells: a region
    /// that leaves the coverage area can produce matches at points the
    /// border-clamped base partitioning cannot attribute to the leaf
    /// geometry, so it is conservatively kept everywhere.
    fn floods(base: &ClusterGrid, slot: ClusterSlot) -> bool {
        match base.region_of(slot) {
            // The bounding box is tight, so box-in-area ⇔ circle-in-area.
            Some(region) => !base.spec().area().contains_rect(&region.bounding_rect()),
            None => true,
        }
    }

    /// Whether `slot` belongs to the leaf (or interior node) `rect`.
    fn assigned(base: &ClusterGrid, slot: ClusterSlot, rect: &Rect) -> bool {
        match base.region_of(slot) {
            Some(region) => {
                !base.spec().area().contains_rect(&region.bounding_rect())
                    || rect.intersects_circle(region)
            }
            None => true,
        }
    }

    /// The four quadrants of a rectangle, in SW, SE, NW, NE order.
    fn quadrants(r: &Rect) -> [Rect; 4] {
        let c = r.center();
        [
            Rect::from_corners(r.min, c),
            Rect::from_corners(Point::new(c.x, r.min.y), Point::new(r.max.x, c.y)),
            Rect::from_corners(Point::new(r.min.x, c.y), Point::new(c.x, r.max.y)),
            Rect::from_corners(c, r.max),
        ]
    }

    /// Recursively collects the leaf rectangles for one base cell: a node
    /// keeps splitting while it holds at least `split` assigned slots, at
    /// least one of which is refinable (non-flooding — flooding slots join
    /// every leaf, so splitting a cell of only flooders gains nothing),
    /// down to [`MAX_DEPTH`].
    fn build_leaves(
        base: &ClusterGrid,
        slots: &[ClusterSlot],
        rect: Rect,
        depth: u32,
        split: usize,
        out: &mut Vec<Rect>,
    ) {
        let mut count = 0usize;
        let mut flooding = 0usize;
        for &slot in slots {
            if Self::assigned(base, slot, &rect) {
                count += 1;
                if Self::floods(base, slot) {
                    flooding += 1;
                }
            }
        }
        if count >= split && count > flooding && depth < MAX_DEPTH {
            for q in Self::quadrants(&rect) {
                Self::build_leaves(base, slots, q, depth + 1, split, out);
            }
        } else {
            out.push(rect);
        }
    }
}

impl SpatialIndex for AdaptiveGrid {
    fn spec(&self) -> &GridSpec {
        self.base.spec()
    }

    fn insert(&mut self, slot: ClusterSlot, region: &Circle) -> usize {
        self.base.insert(slot, region)
    }

    fn remove(&mut self, slot: ClusterSlot) -> bool {
        self.base.remove(slot)
    }

    fn cluster_count(&self) -> usize {
        self.base.cluster_count()
    }

    fn cells_of(&self, slot: ClusterSlot) -> Option<&[u32]> {
        self.base.cells_of(slot)
    }

    fn cell_linear(&self, linear: u32) -> &[ClusterSlot] {
        self.base.cell_linear(linear)
    }

    fn clusters_near(&self, p: &Point) -> &[ClusterSlot] {
        self.base.clusters_near(p)
    }

    /// Unrefined non-empty cells are visited as-is (identical to the
    /// uniform grid); refined cells are visited once per leaf, with the
    /// leaf's membership materialised from the base list.
    fn for_each_candidate_cell(&self, visit: &mut dyn FnMut(&[ClusterSlot])) {
        self.for_each_candidate_cell_with(&mut DiscoveryScratch::default(), visit);
    }

    /// As above, but the leaf membership buffer lives in the caller's
    /// scratch — the hot join path reuses it across every cell and tick
    /// instead of growing a fresh `Vec` per walk.
    fn for_each_candidate_cell_with(
        &self,
        scratch: &mut DiscoveryScratch,
        visit: &mut dyn FnMut(&[ClusterSlot]),
    ) {
        let leaf_buf = &mut scratch.leaf;
        let cell_count = self.base.spec().cell_count();
        for linear in 0..cell_count {
            let cell = self.base.cell_linear(linear as u32);
            if cell.is_empty() {
                continue;
            }
            let leaves = &self.refined[linear];
            if leaves.is_empty() {
                visit(cell);
                continue;
            }
            for leaf in leaves {
                leaf_buf.clear();
                for &slot in cell {
                    if Self::assigned(&self.base, slot, leaf) {
                        leaf_buf.push(slot);
                    }
                }
                if !leaf_buf.is_empty() {
                    visit(leaf_buf);
                }
            }
        }
    }

    /// Incremental split/merge pass, proportional to the number of base
    /// cells plus the occupancy of hot cells — never a full rebuild of
    /// registrations. Deterministic: depends only on current grid contents
    /// and the thresholds, and runs at a fixed point of the tick.
    fn rebalance(&mut self) {
        let spec = *self.base.spec();
        let mut fresh: Vec<Rect> = Vec::new();
        for linear in 0..spec.cell_count() {
            let occ = self.base.cell_linear(linear as u32).len();
            let is_refined = !self.refined[linear].is_empty();
            if occ >= self.split_threshold {
                fresh.clear();
                let rect = spec.cell_rect(spec.from_linear(linear));
                Self::build_leaves(
                    &self.base,
                    self.base.cell_linear(linear as u32),
                    rect,
                    0,
                    self.split_threshold,
                    &mut fresh,
                );
                if fresh.len() > 1 {
                    if !is_refined {
                        self.refined_cells += 1;
                    }
                    std::mem::swap(&mut self.refined[linear], &mut fresh);
                } else if is_refined {
                    // Splitting gained nothing (e.g. every occupant
                    // floods): fall back to the plain cell.
                    self.refined[linear].clear();
                    self.refined_cells -= 1;
                }
            } else if is_refined && occ <= self.merge_threshold {
                self.refined[linear].clear();
                self.refined_cells -= 1;
            }
            // merge_threshold < occ < split_threshold: hysteresis band —
            // keep whatever refinement the cell currently has.
        }
    }

    fn clear(&mut self) {
        self.base.clear();
        for leaves in &mut self.refined {
            leaves.clear();
        }
        self.refined_cells = 0;
    }

    fn estimated_bytes(&self) -> usize {
        let header = std::mem::size_of::<Vec<Rect>>();
        let leaves: usize = self.refined.len() * header
            + self
                .refined
                .iter()
                .map(|v| v.capacity() * std::mem::size_of::<Rect>())
                .sum::<usize>();
        self.base.estimated_bytes() + leaves
    }
}

/// Enum dispatch over the two index implementations.
///
/// Stored by value in the engine (no boxing on the hot path); consumers
/// that only need the contract borrow it as `&dyn SpatialIndex`.
#[derive(Debug, Clone)]
pub enum AnyIndex {
    /// The paper's uniform grid.
    Uniform(ClusterGrid),
    /// Quadtree-refined grid for skewed workloads.
    Adaptive(AdaptiveGrid),
}

impl AnyIndex {
    /// Builds the index selected by `kind` over the given partitioning.
    pub fn new(
        kind: IndexKind,
        spec: GridSpec,
        split_threshold: u32,
        merge_threshold: u32,
    ) -> Self {
        match kind {
            IndexKind::Uniform => AnyIndex::Uniform(ClusterGrid::new(spec)),
            IndexKind::Adaptive => {
                AnyIndex::Adaptive(AdaptiveGrid::new(spec, split_threshold, merge_threshold))
            }
        }
    }

    /// Which implementation this is.
    pub fn kind(&self) -> IndexKind {
        match self {
            AnyIndex::Uniform(_) => IndexKind::Uniform,
            AnyIndex::Adaptive(_) => IndexKind::Adaptive,
        }
    }

    /// Borrows the index through the trait.
    pub fn as_dyn(&self) -> &dyn SpatialIndex {
        match self {
            AnyIndex::Uniform(g) => g,
            AnyIndex::Adaptive(g) => g,
        }
    }

    /// Mutably borrows the index through the trait.
    pub fn as_dyn_mut(&mut self) -> &mut dyn SpatialIndex {
        match self {
            AnyIndex::Uniform(g) => g,
            AnyIndex::Adaptive(g) => g,
        }
    }

    /// The adaptive implementation, if that is what this is.
    pub fn as_adaptive(&self) -> Option<&AdaptiveGrid> {
        match self {
            AnyIndex::Adaptive(g) => Some(g),
            AnyIndex::Uniform(_) => None,
        }
    }
}

impl SpatialIndex for AnyIndex {
    fn spec(&self) -> &GridSpec {
        self.as_dyn().spec()
    }

    fn insert(&mut self, slot: ClusterSlot, region: &Circle) -> usize {
        self.as_dyn_mut().insert(slot, region)
    }

    fn remove(&mut self, slot: ClusterSlot) -> bool {
        self.as_dyn_mut().remove(slot)
    }

    fn cluster_count(&self) -> usize {
        self.as_dyn().cluster_count()
    }

    fn cells_of(&self, slot: ClusterSlot) -> Option<&[u32]> {
        self.as_dyn().cells_of(slot)
    }

    fn cell_linear(&self, linear: u32) -> &[ClusterSlot] {
        self.as_dyn().cell_linear(linear)
    }

    fn clusters_near(&self, p: &Point) -> &[ClusterSlot] {
        self.as_dyn().clusters_near(p)
    }

    fn for_each_candidate_cell(&self, visit: &mut dyn FnMut(&[ClusterSlot])) {
        self.as_dyn().for_each_candidate_cell(visit)
    }

    fn for_each_candidate_cell_with(
        &self,
        scratch: &mut DiscoveryScratch,
        visit: &mut dyn FnMut(&[ClusterSlot]),
    ) {
        self.as_dyn().for_each_candidate_cell_with(scratch, visit)
    }

    fn rebalance(&mut self) {
        self.as_dyn_mut().rebalance()
    }

    fn clear(&mut self) {
        self.as_dyn_mut().clear()
    }

    fn estimated_bytes(&self) -> usize {
        self.as_dyn().estimated_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AREA: f64 = 100.0;

    fn uniform() -> AnyIndex {
        AnyIndex::new(
            IndexKind::Uniform,
            GridSpec::new(Rect::square(AREA), 10),
            8,
            2,
        )
    }

    fn adaptive() -> AnyIndex {
        AnyIndex::new(
            IndexKind::Adaptive,
            GridSpec::new(Rect::square(AREA), 10),
            8,
            2,
        )
    }

    /// SplitMix64 — deterministic pseudo-random placements without
    /// depending on an RNG crate in this module.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn unit(seed: u64) -> f64 {
        (mix(seed) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A deterministic scatter: most circles crowd a hotspot, the rest
    /// spread uniformly; a few leak past the border.
    fn scatter(n: u32) -> Vec<(ClusterSlot, Circle)> {
        (0..n)
            .map(|i| {
                let s = i as u64;
                let (x, y, r) = if i % 4 != 3 {
                    // Hotspot around (20, 20).
                    (
                        15.0 + 10.0 * unit(s * 3 + 1),
                        15.0 + 10.0 * unit(s * 3 + 2),
                        0.3 + 1.2 * unit(s * 3 + 3),
                    )
                } else {
                    // Uniform background, occasionally out of bounds.
                    (
                        -5.0 + 110.0 * unit(s * 5 + 1),
                        -5.0 + 110.0 * unit(s * 5 + 2),
                        0.3 + 2.0 * unit(s * 5 + 3),
                    )
                };
                (ClusterSlot(i), Circle::new(Point::new(x, y), r))
            })
            .collect()
    }

    /// Every slot registered in a base cell overlapping `probe`.
    fn probe(idx: &dyn SpatialIndex, probe: &Circle) -> Vec<ClusterSlot> {
        let spec = *idx.spec();
        spec.cells_overlapping_circle(probe)
            .flat_map(|cell| idx.cell_linear(spec.linear(cell) as u32).to_vec())
            .collect()
    }

    /// Every unordered candidate pair (including self-pairs) an index
    /// yields, deduplicated.
    fn candidate_pairs(idx: &dyn SpatialIndex) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        idx.for_each_candidate_cell(&mut |cell| {
            for (i, &a) in cell.iter().enumerate() {
                for &b in &cell[i..] {
                    let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
                    pairs.push((lo, hi));
                }
            }
        });
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// The trait-level conformance suite, run against both
    /// implementations.
    fn conformance(idx: &mut dyn SpatialIndex) {
        let circles = scatter(64);

        // Registration round-trip.
        for &(slot, c) in &circles {
            let cells = idx.insert(slot, &c);
            assert_eq!(idx.cells_of(slot).map(<[u32]>::len), Some(cells));
        }
        assert_eq!(idx.cluster_count(), circles.len());
        idx.rebalance();

        // Registration / cell-list agreement.
        for &(slot, _) in &circles {
            for &linear in idx.cells_of(slot).expect("registered") {
                assert!(idx.cell_linear(linear).contains(&slot));
            }
        }

        // Probe completeness vs brute force: every in-area circle is found
        // by a probe overlapping it.
        for probe_i in 0..24u64 {
            let region = Circle::new(
                Point::new(
                    AREA * unit(1000 + probe_i * 2),
                    AREA * unit(2000 + probe_i * 2),
                ),
                2.0 + 8.0 * unit(3000 + probe_i),
            );
            let found = probe(idx, &region);
            for &(slot, c) in &circles {
                let inside = idx.spec().area().contains_rect(&c.bounding_rect());
                if inside && c.overlaps(&region) {
                    assert!(
                        found.contains(&slot),
                        "probe {region:?} missed overlapping {slot:?} at {c:?}"
                    );
                }
            }
        }

        // Candidate-pair coverage vs brute force: every pair of in-area
        // circles sharing a point must co-occur in some candidate list.
        let pairs = candidate_pairs(idx);
        for (i, &(a, ca)) in circles.iter().enumerate() {
            assert!(
                pairs.binary_search(&(a.0, a.0)).is_ok() || idx.cells_of(a) == Some(&[][..]),
                "registered {a:?} missing its self-pair"
            );
            for &(b, cb) in &circles[i + 1..] {
                let both_inside = idx.spec().area().contains_rect(&ca.bounding_rect())
                    && idx.spec().area().contains_rect(&cb.bounding_rect());
                if both_inside && ca.overlaps(&cb) {
                    let key = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
                    assert!(
                        pairs.binary_search(&key).is_ok(),
                        "overlapping pair {a:?}/{b:?} not covered"
                    );
                }
            }
        }

        // Unregistration round-trip and slot-reuse safety.
        let (victim, old_region) = circles[5];
        assert!(idx.remove(victim));
        assert!(!idx.remove(victim));
        assert!(idx.cells_of(victim).is_none());
        idx.for_each_candidate_cell(&mut |cell| assert!(!cell.contains(&victim)));
        // Reuse the slot far away: no trace of the old region. (Slot 5 is
        // a hotspot circle near (20, 20); the relocation is near (80, 80),
        // so the old-region probe and the new cells are disjoint.)
        let relocated = Circle::new(Point::new(80.0, 80.0), 1.0);
        idx.insert(victim, &relocated);
        for &linear in idx.cells_of(victim).expect("re-registered") {
            assert!(idx.cell_linear(linear).contains(&victim));
        }
        assert!(
            !probe(idx, &old_region).contains(&victim),
            "reused slot still answers at its old region"
        );

        // Zero-cell out-of-bounds registration.
        let ghost = ClusterSlot(900);
        assert_eq!(
            idx.insert(ghost, &Circle::new(Point::new(500.0, 500.0), 1.0)),
            0
        );
        assert_eq!(idx.cells_of(ghost), Some(&[][..]));
        idx.for_each_candidate_cell(&mut |cell| assert!(!cell.contains(&ghost)));
        assert!(idx.remove(ghost));

        // Clear resets.
        idx.clear();
        assert!(idx.is_empty());
        let mut visited = 0usize;
        idx.for_each_candidate_cell(&mut |_| visited += 1);
        assert_eq!(visited, 0);
    }

    #[test]
    fn uniform_grid_conformance() {
        let mut idx = uniform();
        conformance(idx.as_dyn_mut());
    }

    #[test]
    fn adaptive_grid_conformance() {
        let mut idx = adaptive();
        conformance(idx.as_dyn_mut());
        // And again after a rebalance cycle has split cells.
        conformance(idx.as_dyn_mut());
    }

    #[test]
    fn adaptive_pairs_are_a_subset_of_uniform_pairs() {
        let mut u = uniform();
        let mut a = adaptive();
        for &(slot, c) in &scatter(96) {
            u.insert(slot, &c);
            a.insert(slot, &c);
        }
        a.rebalance();
        let up = candidate_pairs(u.as_dyn());
        let ap = candidate_pairs(a.as_dyn());
        assert!(
            a.as_adaptive().expect("adaptive").refined_cell_count() > 0,
            "hotspot scatter should refine at least one cell"
        );
        for key in &ap {
            assert!(
                up.binary_search(key).is_ok(),
                "adaptive invented pair {key:?}"
            );
        }
        assert!(
            ap.len() < up.len(),
            "refinement should prune some candidate pairs ({} vs {})",
            ap.len(),
            up.len()
        );
    }

    /// The scratch-reusing discovery walk must visit exactly the same
    /// cell lists as the scratchless form, and a second walk with the same
    /// scratch must not grow the buffers (the steady-state zero-allocation
    /// contract the join relies on).
    #[test]
    fn scratch_walk_matches_scratchless_and_stops_growing() {
        let mut a = adaptive();
        for &(slot, c) in &scatter(64) {
            a.insert(slot, &c);
        }
        a.rebalance();
        assert!(
            a.as_adaptive().expect("adaptive").refined_cell_count() > 0,
            "hotspot should refine"
        );

        let mut plain: Vec<Vec<ClusterSlot>> = Vec::new();
        a.for_each_candidate_cell(&mut |cell| plain.push(cell.to_vec()));

        let mut scratch = DiscoveryScratch::new();
        let mut with: Vec<Vec<ClusterSlot>> = Vec::new();
        a.for_each_candidate_cell_with(&mut scratch, &mut |cell| with.push(cell.to_vec()));
        assert_eq!(plain, with, "scratch walk changed the visited lists");

        let settled = scratch.capacity_bytes();
        assert!(settled > 0, "refined leaves should use the scratch buffer");
        for _ in 0..3 {
            a.for_each_candidate_cell_with(&mut scratch, &mut |_| {});
            assert_eq!(
                scratch.capacity_bytes(),
                settled,
                "steady walks must not reallocate"
            );
        }
    }

    #[test]
    fn adaptive_base_state_matches_uniform() {
        // The invariant everything else leans on: base-level cell lists are
        // byte-identical between the two indexes, refined or not.
        let mut u = uniform();
        let mut a = adaptive();
        let circles = scatter(64);
        for &(slot, c) in &circles {
            u.insert(slot, &c);
            a.insert(slot, &c);
        }
        a.rebalance();
        for linear in 0..u.spec().cell_count() as u32 {
            assert_eq!(u.cell_linear(linear), a.cell_linear(linear));
        }
        for &(slot, _) in &circles {
            assert_eq!(u.cells_of(slot), a.cells_of(slot));
        }
    }

    #[test]
    fn adaptive_splits_hot_cell_and_merges_when_cooled() {
        let mut a = AdaptiveGrid::new(GridSpec::new(Rect::square(AREA), 10), 8, 2);
        // 20 tiny circles inside one cell.
        for i in 0..20u32 {
            let p = Point::new(
                42.0 + 6.0 * unit(i as u64 * 7 + 1),
                42.0 + 6.0 * unit(i as u64 * 7 + 2),
            );
            a.insert(ClusterSlot(i), &Circle::new(p, 0.2));
        }
        a.rebalance();
        assert_eq!(a.refined_cell_count(), 1);
        assert!(a.leaf_count() > 1);

        // Leaves bound the per-list occupancy below the raw cell size.
        let mut max_list = 0usize;
        a.for_each_candidate_cell(&mut |cell| max_list = max_list.max(cell.len()));
        assert!(
            max_list < 20,
            "refinement should shrink the largest candidate list, got {max_list}"
        );

        // Hysteresis: drop occupancy into the band (2 < 6 < 8) — the
        // refinement stays as-is.
        for i in 6..20u32 {
            a.remove(ClusterSlot(i));
        }
        a.rebalance();
        assert_eq!(a.refined_cell_count(), 1, "band occupancy keeps the tree");

        // At or below the merge threshold the cell collapses back.
        for i in 2..6u32 {
            a.remove(ClusterSlot(i));
        }
        a.rebalance();
        assert_eq!(a.refined_cell_count(), 0);
        assert_eq!(a.leaf_count(), 0);
    }

    #[test]
    fn flooding_keeps_border_leakers_everywhere() {
        let mut a = AdaptiveGrid::new(GridSpec::new(Rect::square(AREA), 10), 4, 1);
        // A border cell hot enough to split, plus one circle leaking out.
        for i in 0..6u32 {
            a.insert(
                ClusterSlot(i),
                &Circle::new(Point::new(2.0 + 1.0 * i as f64, 5.0), 0.3),
            );
        }
        let leaker = ClusterSlot(9);
        a.insert(leaker, &Circle::new(Point::new(0.5, 5.0), 1.0)); // crosses x=0
        a.rebalance();
        assert_eq!(a.refined_cell_count(), 1);
        let mut lists_with_leaker = 0usize;
        let mut lists = 0usize;
        a.for_each_candidate_cell(&mut |cell| {
            lists += 1;
            if cell.contains(&leaker) {
                lists_with_leaker += 1;
            }
        });
        assert!(lists > 1);
        assert_eq!(
            lists_with_leaker, lists,
            "an out-of-area circle must flood every leaf of its cell"
        );
    }

    #[test]
    fn index_kind_parses_and_displays() {
        assert_eq!("uniform".parse::<IndexKind>(), Ok(IndexKind::Uniform));
        assert_eq!("adaptive".parse::<IndexKind>(), Ok(IndexKind::Adaptive));
        assert!("quadtree".parse::<IndexKind>().is_err());
        assert_eq!(IndexKind::Uniform.to_string(), "uniform");
        assert_eq!(IndexKind::Adaptive.to_string(), "adaptive");
        assert_eq!(IndexKind::default(), IndexKind::Uniform);
    }

    #[test]
    fn any_index_reports_its_kind() {
        assert_eq!(uniform().kind(), IndexKind::Uniform);
        assert_eq!(adaptive().kind(), IndexKind::Adaptive);
        assert!(uniform().as_adaptive().is_none());
        assert!(adaptive().as_adaptive().is_some());
    }
}
