//! The regular grid-based baseline operator (paper §6, "REGULAR").
//!
//! "We compare SCUBA with a traditional grid-based spatio-temporal range
//! algorithm, where objects and queries are hashed based on their locations
//! into an index, say a grid. Then a cell-by-cell join between moving
//! objects and queries is performed. Grid-based execution approach is a
//! common choice for spatio-temporal query execution [9, 24, 27, 39, 29]."
//!
//! Implementation notes:
//!
//! * every entity's **latest update** is kept individually — exactly the
//!   per-entity materialisation SCUBA's clustering avoids;
//! * at evaluation time the grids are rebuilt: objects hash into the cell
//!   containing their point; a query's *range region* registers in every
//!   cell it overlaps (the standard SINA-style shared grid join — hashing
//!   queries by center point alone would miss borderline matches);
//! * the join visits each cell and tests the objects in it against the
//!   queries registered there. An object lives in exactly one cell, so no
//!   result deduplication is needed, but we sort for deterministic output.

use scuba_motion::{EntityAttrs, EntityRef, LocationUpdate, ObjectId, QueryId};
use scuba_spatial::{FxHashMap, GridSpec, Point, Rect, SpatialGrid, Time};
use scuba_stream::{
    ContinuousOperator, EvaluationReport, PhaseBreakdown, QueryMatch, StageStats, Stopwatch,
};

/// Stage name: rebuilding the object/query grids (maintenance bucket).
const STAGE_INDEX_REBUILD: &str = "index-rebuild";
/// Stage name: the cell-by-cell object×query join.
const STAGE_CELL_JOIN: &str = "cell-join";
/// Stage name: sorting the raw matches for deterministic output.
pub const STAGE_RESULT_MERGE: &str = "result-merge";

/// The regular (non-clustered) grid-join operator.
#[derive(Debug)]
pub struct RegularGridOperator {
    /// Latest update per entity — the individually materialised state.
    latest: FxHashMap<EntityRef, LocationUpdate>,
    /// Objects hashed by position (rebuilt each evaluation).
    object_grid: SpatialGrid<(ObjectId, Point)>,
    /// Query regions replicated into overlapped cells (rebuilt each
    /// evaluation).
    query_grid: SpatialGrid<(QueryId, Rect)>,
    evaluations: u64,
}

impl RegularGridOperator {
    /// Creates the operator with an `grid_cells × grid_cells` grid over
    /// `area`.
    pub fn new(grid_cells: u32, area: Rect) -> Self {
        let spec = GridSpec::new(area, grid_cells.max(1));
        RegularGridOperator {
            latest: FxHashMap::default(),
            object_grid: SpatialGrid::new(spec),
            query_grid: SpatialGrid::new(spec),
            evaluations: 0,
        }
    }

    /// Number of evaluations performed.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Rebuilds both grids from the latest updates. Returns the number of
    /// grid insertions (an index-maintenance work measure).
    fn rebuild_grids(&mut self) -> usize {
        self.object_grid.clear();
        self.query_grid.clear();
        let mut insertions = 0;
        for update in self.latest.values() {
            match (update.entity, &update.attrs) {
                (EntityRef::Object(oid), EntityAttrs::Object(_)) => {
                    self.object_grid.insert_at(&update.loc, (oid, update.loc));
                    insertions += 1;
                }
                (EntityRef::Query(qid), EntityAttrs::Query(attrs)) => {
                    let region = attrs
                        .spec
                        .region_at(update.loc)
                        .expect("range spec has a region");
                    insertions += self.query_grid.insert_rect(&region, (qid, region));
                }
                _ => {}
            }
        }
        insertions
    }

    /// Estimated bytes of in-memory state: the per-entity updates plus both
    /// grids with their per-cell entries.
    pub fn estimated_bytes(&self) -> usize {
        let latest = self.latest.capacity()
            * (std::mem::size_of::<EntityRef>() + std::mem::size_of::<LocationUpdate>() + 8);
        latest + self.object_grid.estimated_bytes() + self.query_grid.estimated_bytes()
    }
}

impl ContinuousOperator for RegularGridOperator {
    fn process_update(&mut self, update: &LocationUpdate) {
        self.latest.insert(update.entity, *update);
    }

    fn evaluate(&mut self, now: Time) -> EvaluationReport {
        self.evaluations += 1;
        let mut phases = PhaseBreakdown::new();
        let entities = self.latest.len() as u64;

        // Index maintenance: hash every entity into the grid.
        let mut sw = Stopwatch::start();
        let insertions = self.rebuild_grids();
        phases.push(
            StageStats::maintenance(STAGE_INDEX_REBUILD)
                .with_wall(sw.lap())
                .with_items(entities, insertions as u64),
        );

        // Cell-by-cell join.
        let mut results = Vec::new();
        let mut comparisons = 0u64;
        for (cell, objects) in self.object_grid.iter_nonempty() {
            let queries = self.query_grid.cell(cell);
            if queries.is_empty() {
                continue;
            }
            for &(oid, opos) in objects {
                for &(qid, region) in queries {
                    comparisons += 1;
                    if region.contains(&opos) {
                        results.push(QueryMatch::new(qid, oid));
                    }
                }
            }
        }
        let raw = results.len() as u64;
        phases.push(
            StageStats::join(STAGE_CELL_JOIN)
                .with_wall(sw.lap())
                .with_items(entities, raw)
                .with_tests(comparisons),
        );

        results.sort_unstable();
        phases.push(
            StageStats::join(STAGE_RESULT_MERGE)
                .with_wall(sw.lap())
                .with_items(raw, results.len() as u64),
        );

        EvaluationReport {
            now,
            results,
            phases,
            memory_bytes: self.estimated_bytes(),
            comparisons,
            prefilter_tests: 0,
        }
    }

    fn name(&self) -> &str {
        "REGULAR"
    }

    fn memory_bytes(&self) -> usize {
        self.estimated_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_motion::{ObjectAttrs, QueryAttrs, QuerySpec};

    const CN: Point = Point {
        x: 1000.0,
        y: 500.0,
    };

    fn obj(id: u64, x: f64, y: f64) -> LocationUpdate {
        LocationUpdate::object(
            ObjectId(id),
            Point::new(x, y),
            0,
            30.0,
            CN,
            ObjectAttrs::default(),
        )
    }

    fn qry(id: u64, x: f64, y: f64, side: f64) -> LocationUpdate {
        LocationUpdate::query(
            QueryId(id),
            Point::new(x, y),
            0,
            30.0,
            CN,
            QueryAttrs {
                spec: QuerySpec::square_range(side),
            },
        )
    }

    fn operator() -> RegularGridOperator {
        RegularGridOperator::new(10, Rect::square(1000.0))
    }

    #[test]
    fn finds_matches_in_same_cell() {
        let mut op = operator();
        op.process_update(&obj(1, 500.0, 500.0));
        op.process_update(&qry(1, 505.0, 500.0, 20.0));
        let report = op.evaluate(2);
        assert_eq!(
            report.results,
            vec![QueryMatch::new(QueryId(1), ObjectId(1))]
        );
        assert!(report.comparisons >= 1);
        assert_eq!(report.prefilter_tests, 0);
    }

    #[test]
    fn baseline_reports_stage_breakdown() {
        let mut op = operator();
        op.process_update(&obj(1, 500.0, 500.0));
        op.process_update(&qry(1, 505.0, 500.0, 20.0));
        let report = op.evaluate(2);
        let names: Vec<&str> = report
            .phases
            .stages()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(
            names,
            vec![STAGE_INDEX_REBUILD, STAGE_CELL_JOIN, STAGE_RESULT_MERGE]
        );
        assert_eq!(
            report.phases.get(STAGE_CELL_JOIN).unwrap().tests,
            report.comparisons
        );
        assert_eq!(
            report.total_time(),
            report.join_time() + report.maintenance_time()
        );
    }

    #[test]
    fn finds_matches_across_cell_borders() {
        // Cell size is 100; object at 499 and query centred at 501 are in
        // different columns, but the query region spans both.
        let mut op = operator();
        op.process_update(&obj(1, 499.0, 500.0));
        op.process_update(&qry(1, 501.0, 500.0, 20.0));
        let report = op.evaluate(2);
        assert_eq!(report.results.len(), 1);
    }

    #[test]
    fn no_false_positives() {
        let mut op = operator();
        op.process_update(&obj(1, 500.0, 500.0));
        op.process_update(&qry(1, 530.0, 500.0, 20.0)); // range covers 520..540
        let report = op.evaluate(2);
        assert!(report.results.is_empty());
    }

    #[test]
    fn latest_update_wins() {
        let mut op = operator();
        op.process_update(&obj(1, 500.0, 500.0));
        op.process_update(&qry(1, 505.0, 500.0, 20.0));
        // The object moves far away before evaluation.
        op.process_update(&obj(1, 900.0, 900.0));
        let report = op.evaluate(2);
        assert!(report.results.is_empty());
        assert_eq!(op.latest.len(), 2);
    }

    #[test]
    fn no_duplicate_results_for_spanning_queries() {
        let mut op = operator();
        op.process_update(&obj(1, 500.0, 500.0));
        op.process_update(&qry(1, 500.0, 500.0, 400.0)); // spans many cells
        let report = op.evaluate(2);
        assert_eq!(report.results.len(), 1);
    }

    #[test]
    fn memory_grows_with_population_and_cells() {
        let mut coarse = RegularGridOperator::new(10, Rect::square(1000.0));
        let mut fine = RegularGridOperator::new(100, Rect::square(1000.0));
        for i in 0..200 {
            let u = obj(i, (i % 100) as f64 * 10.0, (i / 10) as f64 * 10.0);
            coarse.process_update(&u);
            fine.process_update(&u);
        }
        coarse.evaluate(2);
        fine.evaluate(2);
        assert!(
            fine.estimated_bytes() > coarse.estimated_bytes(),
            "finer grid should cost more memory: fine={} coarse={}",
            fine.estimated_bytes(),
            coarse.estimated_bytes()
        );
    }

    #[test]
    fn repeated_evaluations_are_stable() {
        let mut op = operator();
        op.process_update(&obj(1, 500.0, 500.0));
        op.process_update(&qry(1, 505.0, 500.0, 20.0));
        let a = op.evaluate(2).results;
        let b = op.evaluate(4).results;
        assert_eq!(a, b);
        assert_eq!(op.evaluations(), 2);
    }

    #[test]
    fn zero_cells_clamped() {
        let op = RegularGridOperator::new(0, Rect::square(10.0));
        assert_eq!(op.object_grid.spec().cells_per_side(), 1);
    }
}
