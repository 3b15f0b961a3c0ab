//! `store` — micro-benchmark of the generational cluster store.
//!
//! Two measurements over the same convoy workload:
//!
//! 1. **Tick latency** — full `evaluate` wall time per Δ-epoch under
//!    moderate churn, join cache on vs off, with a runtime identity
//!    assert that both configurations report the same matches every tick.
//! 2. **Dense sweep vs hash walk** — the join-between circle pre-filter
//!    evaluated two ways over the identical candidate-pair set: reading
//!    the store's SoA centroid/radius columns by slot index (what the
//!    join kernel does) vs looking both clusters up in an
//!    `FxHashMap<ClusterId, MovingCluster>` per pair (what it used to
//!    do). A runtime assert checks both ways reach the same per-pair
//!    decision before the timings are reported.
//!
//! Emits `BENCH_cluster_store.json` at the workspace root (and a text
//! table on stdout).
//!
//! Usage: `store [--objects N] [--queries N] [--duration EPOCHS]
//! [--parallelism N] [--out FILE] [--json]`

use std::time::Instant;

use serde::Serialize;

use scuba::cluster::{ClusterId, MovingCluster};
use scuba::{ScubaOperator, ScubaParams};
use scuba_bench::table::{f1, TextTable};
use scuba_bench::{ExperimentScale, HarnessArgs};
use scuba_motion::{LocationUpdate, ObjectAttrs, ObjectId, QueryAttrs, QueryId, QuerySpec};
use scuba_spatial::{FxHashMap, Point, Rect};
use scuba_stream::ContinuousOperator;

const AREA: f64 = 10_000.0;
const SWEEP_ITERS: u32 = 200;

/// Per-tick evaluate wall times for one cache setting.
#[derive(Debug, Serialize)]
struct TickOut {
    /// Whether the join cache was enabled.
    cached: bool,
    /// Evaluate wall time per tick, microseconds.
    tick_us: Vec<u128>,
    /// Mean over all ticks, microseconds.
    mean_us: u128,
}

/// The pre-filter sweep comparison.
#[derive(Debug, Serialize)]
struct SweepOut {
    /// Live clusters in the store when the sweep ran.
    clusters: usize,
    /// Deduplicated candidate pairs fed to both variants.
    pairs: usize,
    /// Timed iterations over the full pair set.
    iters: u32,
    /// Total microseconds for the SoA column sweep.
    dense_us: u128,
    /// Total microseconds for the per-pair hash-map walk.
    hash_us: u128,
    /// hash_us / dense_us.
    speedup: f64,
    /// Whether both variants reached identical per-pair decisions.
    identical: bool,
}

/// The complete JSON payload.
#[derive(Debug, Serialize)]
struct StoreBenchOut {
    scale: ExperimentScale,
    ticks: u64,
    cached: TickOut,
    uncached: TickOut,
    /// Whether cached and uncached runs reported identical matches on
    /// every tick.
    ticks_identical: bool,
    sweep: SweepOut,
}

/// A stationary convoy: `n_objects` objects ringing a site plus one range
/// query, all sharing a connection node (same shape as the `epochs` bench).
fn convoy_updates(convoy: u64, n_objects: u64, time: u64) -> Vec<LocationUpdate> {
    let side = 20u64;
    let spacing = AREA / (side as f64 + 1.0);
    let cx = ((convoy % side) as f64 + 1.0) * spacing;
    let cy = ((convoy / side) as f64 + 1.0) * spacing;
    let cn = Point::new(cx, cy);
    let mut updates = Vec::with_capacity(n_objects as usize + 1);
    for k in 0..n_objects {
        let angle = k as f64 / n_objects as f64 * std::f64::consts::TAU;
        let p = Point::new(cx + 30.0 * angle.cos(), cy + 30.0 * angle.sin());
        updates.push(LocationUpdate::object(
            ObjectId(convoy * 1_000 + k),
            p,
            time,
            0.0,
            cn,
            ObjectAttrs::default(),
        ));
    }
    updates.push(LocationUpdate::query(
        QueryId(convoy),
        Point::new(cx, cy),
        time,
        0.0,
        cn,
        QueryAttrs {
            spec: QuerySpec::square_range(150.0),
        },
    ));
    updates
}

/// Builds an operator with the full convoy population ingested at t=0.
fn populated(scale: &ExperimentScale, join_cache: bool) -> (ScubaOperator, u64, u64) {
    let convoys = (scale.queries as u64).max(1);
    let per_convoy = ((scale.objects as u64) / convoys).max(1);
    let params = ScubaParams::default()
        .with_parallelism(scale.parallelism)
        .with_join_cache(join_cache);
    let mut op = ScubaOperator::new(params, Rect::square(AREA));
    for c in 0..convoys {
        for u in convoy_updates(c, per_convoy, 0) {
            op.process_update(&u);
        }
    }
    (op, convoys, per_convoy)
}

/// Drives `ticks` epochs at 10 % churn, timing each evaluate call.
fn drive_ticks(
    scale: &ExperimentScale,
    ticks: u64,
    join_cache: bool,
) -> (TickOut, Vec<Vec<scuba_stream::QueryMatch>>) {
    let (mut op, convoys, per_convoy) = populated(scale, join_cache);
    let delta = op.engine().params().delta;
    let mut tick_us = Vec::with_capacity(ticks as usize);
    let mut all_results = Vec::with_capacity(ticks as usize);
    for t in 0..ticks {
        let now = (t + 1) * delta;
        if t > 0 {
            let dirty = ((convoys as f64 * 0.10).ceil() as u64).min(convoys);
            for c in 0..dirty {
                for u in convoy_updates(c, per_convoy, now - 1) {
                    op.process_update(&u);
                }
            }
        }
        let started = Instant::now();
        let report = op.evaluate(now);
        tick_us.push(started.elapsed().as_micros());
        all_results.push(report.results);
    }
    let mean_us = tick_us.iter().sum::<u128>() / tick_us.len().max(1) as u128;
    (
        TickOut {
            cached: join_cache,
            tick_us,
            mean_us,
        },
        all_results,
    )
}

/// The join-between joinability decision for one candidate pair, computed
/// from whole-cluster state — the reference the dense sweep must match.
fn pair_joinable(l: &MovingCluster, r: &MovingCluster, same: bool) -> bool {
    if same {
        return l.object_count() > 0 && l.query_count() > 0;
    }
    let kinds = (l.object_count() > 0 && r.query_count() > 0)
        || (r.object_count() > 0 && l.query_count() > 0);
    kinds
        && (l.region().overlaps(&r.effective_region())
            || r.region().overlaps(&l.effective_region()))
}

/// Times the circle pre-filter over the candidate pairs, dense-column vs
/// hash-walk, and asserts both reach identical decisions.
fn sweep(scale: &ExperimentScale) -> SweepOut {
    let (mut op, _, _) = populated(scale, false);
    let delta = op.engine().params().delta;
    op.evaluate(delta);
    let pairs: Vec<(u32, u32)> = scuba_bench::candidate_keys(&op)
        .iter()
        .map(|&k| ((k >> 32) as u32, k as u32))
        .collect();
    let store = op.engine().store();

    // The old world: durable-id-keyed hash map, one lookup per side per
    // pair. The slot→id translation happens once, outside the timed loop —
    // the old pipeline carried ids end to end.
    let by_id: FxHashMap<ClusterId, MovingCluster> =
        store.iter().map(|(_, c)| (c.cid, c.clone())).collect();
    let id_pairs: Vec<(ClusterId, ClusterId)> = pairs
        .iter()
        .map(|&(l, r)| {
            let lid = store.get(scuba::ClusterSlot(l)).expect("live slot").cid;
            let rid = store.get(scuba::ClusterSlot(r)).expect("live slot").cid;
            (lid, rid)
        })
        .collect();

    let cols = store.columns();
    let mut dense_decisions: Vec<bool> = Vec::with_capacity(pairs.len());
    let started = Instant::now();
    for _ in 0..SWEEP_ITERS {
        dense_decisions.clear();
        for &(l, r) in &pairs {
            let (li, ri) = (l as usize, r as usize);
            let joinable = if li == ri {
                cols.object_count[li] > 0 && cols.query_count[li] > 0
            } else {
                let kinds = (cols.object_count[li] > 0 && cols.query_count[ri] > 0)
                    || (cols.object_count[ri] > 0 && cols.query_count[li] > 0);
                kinds && {
                    let lc = Point::new(cols.cx[li], cols.cy[li]);
                    let rc = Point::new(cols.cx[ri], cols.cy[ri]);
                    scuba_spatial::Circle::new(lc, cols.radius[li])
                        .overlaps(&scuba_spatial::Circle::new(rc, cols.eff_radius[ri]))
                        || scuba_spatial::Circle::new(rc, cols.radius[ri])
                            .overlaps(&scuba_spatial::Circle::new(lc, cols.eff_radius[li]))
                }
            };
            dense_decisions.push(joinable);
        }
    }
    let dense_us = started.elapsed().as_micros();

    let mut hash_decisions: Vec<bool> = Vec::with_capacity(pairs.len());
    let started = Instant::now();
    for _ in 0..SWEEP_ITERS {
        hash_decisions.clear();
        for &(lid, rid) in &id_pairs {
            let l = by_id.get(&lid).expect("live cluster");
            let r = by_id.get(&rid).expect("live cluster");
            hash_decisions.push(pair_joinable(l, r, lid == rid));
        }
    }
    let hash_us = started.elapsed().as_micros();

    let identical = dense_decisions == hash_decisions;
    assert!(
        identical,
        "dense column sweep and hash walk disagreed on a pair decision"
    );
    SweepOut {
        clusters: store.len(),
        pairs: pairs.len(),
        iters: SWEEP_ITERS,
        dense_us,
        hash_us,
        speedup: if dense_us == 0 {
            0.0
        } else {
            hash_us as f64 / dense_us as f64
        },
        identical,
    }
}

fn main() {
    let HarnessArgs {
        scale, ticks, out, ..
    } = HarnessArgs::parse("store", "BENCH_cluster_store.json", (4_000, 400, 8), &[1]);

    eprintln!(
        "store: generational cluster store — {} objects, {} queries, {} ticks, parallelism {}",
        scale.objects, scale.queries, ticks, scale.parallelism
    );

    let (cached, cached_results) = drive_ticks(&scale, ticks, true);
    let (uncached, uncached_results) = drive_ticks(&scale, ticks, false);
    let ticks_identical = cached_results == uncached_results;
    assert!(
        ticks_identical,
        "cache-on and cache-off runs diverged — the store changed results"
    );

    let payload = StoreBenchOut {
        sweep: sweep(&scale),
        scale,
        ticks,
        cached,
        uncached,
        ticks_identical,
    };

    // Table before JSON: the measurements survive even where JSON
    // serialisation is unavailable (offline stub builds).
    if !out.json_stdout {
        let mut table = TextTable::new(vec![
            "measure",
            "cached/dense µs",
            "uncached/hash µs",
            "ratio",
        ]);
        table.row(vec![
            "tick mean".to_string(),
            payload.cached.mean_us.to_string(),
            payload.uncached.mean_us.to_string(),
            f1(if payload.cached.mean_us == 0 {
                0.0
            } else {
                payload.uncached.mean_us as f64 / payload.cached.mean_us as f64
            }),
        ]);
        table.row(vec![
            format!(
                "sweep ×{} ({} pairs)",
                payload.sweep.iters, payload.sweep.pairs
            ),
            payload.sweep.dense_us.to_string(),
            payload.sweep.hash_us.to_string(),
            f1(payload.sweep.speedup),
        ]);
        print!("{}", table.render());
    }

    let json = serde_json::to_string_pretty(&payload).expect("payload serialises");
    out.emit(&json);
}
