//! `simd` — micro-benchmark of the filter-then-refine join kernels.
//!
//! Measures the join-between circle pre-filter two ways over the exact
//! candidate-pair key stream the join's discovery stage produces:
//!
//! 1. **scalar** — the per-pair `Circle::overlaps` loop (the default
//!    `--kernel scalar` path);
//! 2. **wide** — the tiled, lane-parallel kernel (`--kernel simd`):
//!    gather into cache-sized tiles, one 8-wide distance test per lane.
//!
//! Two workloads: **uniform** entities hash-scattered over the whole
//! area (singleton clusters, sparse cells, short key runs — the tile
//! overhead worst case) and a **hotspot** patch where co-located mixed
//! clusters — split apart by destination direction and speed band — pack
//! the cells with candidate pairs whose hash-assigned query ranges give
//! the overlap branch no learnable pattern (the dense case the kernel is
//! built for). Runtime asserts check the two kernels emit the identical
//! survivor list and counters before any timing is reported, and a full
//! tick-replay assert pins `--kernel simd` to the scalar engine's
//! reports under churn.
//!
//! Emits `BENCH_simd_kernel.json` at the workspace root (and a text
//! table on stdout).
//!
//! Usage: `simd [--objects N] [--queries N] [--parallelism N]
//! [--out FILE] [--json]`

use std::time::Instant;

use serde::Serialize;

use scuba::kernel::{self, KernelKind, PairTile, PrefilterStats};
use scuba::{ClusterSlot, ScubaOperator, ScubaParams};
use scuba_bench::table::{f1, TextTable};
use scuba_bench::{BenchOutput, ExperimentScale};
use scuba_motion::{LocationUpdate, ObjectAttrs, ObjectId, QueryAttrs, QueryId, QuerySpec};
use scuba_spatial::{Point, Rect};
use scuba_stream::ContinuousOperator;

const AREA: f64 = 10_000.0;
/// Timed iterations per chunk; the reported rate comes from the fastest
/// chunk, which shrugs off scheduler noise on shared cores.
const CHUNK_ITERS: u32 = 30;
const CHUNKS: u32 = 10;
const TICKS: u64 = 4;

/// One kernel's timing over a workload's candidate-pair stream.
#[derive(Debug, Serialize)]
struct KernelOut {
    /// Total microseconds over all chunks (noise included).
    total_us: u128,
    /// Microseconds of the fastest chunk — the noise-robust estimate the
    /// rate and speedup derive from.
    best_chunk_us: u128,
    /// Pair tests per wall-clock second, from the fastest chunk.
    pairs_filtered_per_sec: f64,
    /// Live-lane occupancy of the wide kernel's tiles (0 for scalar).
    lane_utilization: f64,
}

/// One workload's comparison.
#[derive(Debug, Serialize)]
struct WorkloadOut {
    /// Workload name (`uniform` / `hotspot`).
    name: String,
    /// Live clusters in the store when the keys were harvested.
    clusters: usize,
    /// Deduplicated candidate pairs fed to both kernels per iteration.
    pairs: usize,
    /// Survivors the pre-filter emitted (identical for both kernels).
    survivors: usize,
    /// Timed iterations over the full key stream.
    iters: u32,
    scalar: KernelOut,
    wide: KernelOut,
    /// scalar time / wide time.
    speedup: f64,
    /// Whether both kernels emitted identical survivor lists + counters.
    filter_identical: bool,
    /// Whether `--kernel simd` reproduced the scalar engine's tick
    /// reports (results + work counters) under churn.
    ticks_identical: bool,
}

/// The complete JSON payload.
#[derive(Debug, Serialize)]
struct SimdBenchOut {
    scale: ExperimentScale,
    /// Whether the `simd` cargo feature is active (otherwise the wide
    /// kernel collapses to scalar and speedup reads ~1).
    wide_enabled: bool,
    workloads: Vec<WorkloadOut>,
}

/// SplitMix-style bit mixer: deterministic pseudo-random workload layout
/// without a PRNG dependency.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 32;
    x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^ (x >> 32)
}

/// One of eight far-away compass destinations, so co-located entities
/// with different headings land in different clusters.
fn compass(p: Point, dir: u64) -> Point {
    let angle = (dir % 8) as f64 / 8.0 * std::f64::consts::TAU;
    Point::new(p.x + 40_000.0 * angle.cos(), p.y + 40_000.0 * angle.sin())
}

/// Uniform workload: entities hash-scattered over the whole area —
/// mostly-singleton clusters, sparse cells, short key runs, nearly every
/// tested pair pruned. The tile-overhead worst case for the wide kernel.
fn uniform_updates(scale: &ExperimentScale, time: u64) -> Vec<LocationUpdate> {
    let mut updates = Vec::new();
    let place = |h: u64| -> (Point, Point, f64) {
        let p = Point::new((h % 10_000) as f64, ((h >> 17) % 10_000) as f64);
        (p, compass(p, h >> 8), 5.0 + ((h >> 40) % 25) as f64)
    };
    for o in 0..scale.objects as u64 {
        let h = mix(2 * o + 1);
        let (p, cn, speed) = place(h);
        updates.push(LocationUpdate::object(
            ObjectId(o),
            p,
            time,
            speed,
            cn,
            ObjectAttrs::default(),
        ));
    }
    for q in 0..scale.queries as u64 {
        let h = mix(2 * q);
        let (p, cn, speed) = place(h);
        updates.push(LocationUpdate::query(
            QueryId(q),
            p,
            time,
            speed,
            cn,
            QueryAttrs {
                spec: QuerySpec::square_range(20.0 + (h % 8) as f64 * 20.0),
            },
        ));
    }
    updates
}

/// Hotspot workload: sites on a 150-unit lattice inside one dense patch;
/// each site hosts up to 16 co-located mixed clusters split apart by
/// destination direction (8 compass nodes) × speed band (Θ_S = 10 keeps
/// the bands separate). Query ranges are hash-assigned per query, so
/// neighbouring-site pair outcomes flip pseudo-randomly in slot order —
/// the branch-hostile dense case the wide kernel is built for.
fn hotspot_updates(scale: &ExperimentScale, time: u64) -> Vec<LocationUpdate> {
    // ~5 entities per (site, direction, speed) group → 16 groups ≈ 80
    // entities per site.
    let sites = ((scale.objects + scale.queries) / 80).max(4) as u64;
    let lattice = (sites as f64).sqrt().ceil() as u64;
    let mut updates = Vec::new();
    let (mut oid, mut qid) = (0u64, 0u64);
    for s in 0..sites {
        let site = Point::new(
            1_000.0 + (s % lattice) as f64 * 150.0,
            1_000.0 + (s / lattice) as f64 * 150.0,
        );
        for d in 0..8u64 {
            // Far-away destination in direction `d`: co-located groups
            // with different directions never share a cluster.
            let cn = compass(site, d);
            for band in 0..2u64 {
                let speed = 5.0 + band as f64 * 25.0;
                for k in 0..4u64 {
                    let p = Point::new(site.x + k as f64 * 3.0, site.y + d as f64 * 2.0);
                    if oid < scale.objects as u64 {
                        updates.push(LocationUpdate::object(
                            ObjectId(oid),
                            p,
                            time,
                            speed,
                            cn,
                            ObjectAttrs::default(),
                        ));
                        oid += 1;
                    }
                }
                if qid < scale.queries as u64 {
                    // Hash-assigned range from tiny (prunes) to
                    // site-spanning (joins): overlap outcomes carry no
                    // pattern a branch predictor can latch onto.
                    let range = 10.0 + (mix(qid) % 12) as f64 * 25.0;
                    updates.push(LocationUpdate::query(
                        QueryId(qid),
                        Point::new(site.x + 1.0, site.y + 1.0),
                        time,
                        speed,
                        cn,
                        QueryAttrs {
                            spec: QuerySpec::square_range(range),
                        },
                    ));
                    qid += 1;
                }
            }
        }
    }
    updates
}

/// Builds an operator over one workload with one settling evaluation.
fn populated(scale: &ExperimentScale, updates: &[LocationUpdate]) -> ScubaOperator {
    let params = ScubaParams::default().with_parallelism(scale.parallelism);
    let mut op = ScubaOperator::new(params, Rect::square(AREA));
    for u in updates {
        op.process_update(u);
    }
    op.evaluate(params.delta);
    op
}

/// Times one kernel over the key stream, returning the timing plus the
/// last iteration's survivors and counters for the identity check.
fn time_kernel(
    op: &ScubaOperator,
    keys: &[u64],
    kind: KernelKind,
) -> (KernelOut, Vec<(ClusterSlot, ClusterSlot)>, PrefilterStats) {
    let cols = op.engine().store().columns();
    let mut tile = PairTile::new();
    let mut tasks: Vec<(ClusterSlot, ClusterSlot)> = Vec::new();
    // One untimed pass warms the tile, task list and caches.
    let mut stats = kernel::join_between_filter(&cols, keys, kind, &mut tile, &mut tasks);
    let mut total = std::time::Duration::ZERO;
    let mut best = std::time::Duration::MAX;
    for _ in 0..CHUNKS {
        let started = Instant::now();
        for _ in 0..CHUNK_ITERS {
            stats = kernel::join_between_filter(&cols, keys, kind, &mut tile, &mut tasks);
        }
        let chunk = started.elapsed();
        total += chunk;
        best = best.min(chunk);
    }
    let chunk_tests = stats.tests * u64::from(CHUNK_ITERS);
    let secs = best.as_secs_f64();
    let out = KernelOut {
        total_us: total.as_micros(),
        best_chunk_us: best.as_micros(),
        pairs_filtered_per_sec: if secs > 0.0 {
            chunk_tests as f64 / secs
        } else {
            0.0
        },
        lane_utilization: if stats.lane_slots > 0 {
            stats.lanes_used as f64 / stats.lane_slots as f64
        } else {
            0.0
        },
    };
    (out, tasks, stats)
}

/// Replays the same churn stream through a `--kernel scalar` and a
/// `--kernel simd` engine, asserting identical reports every tick.
fn ticks_identical(
    scale: &ExperimentScale,
    make: &dyn Fn(&ExperimentScale, u64) -> Vec<LocationUpdate>,
) -> bool {
    let base = ScubaParams::default().with_parallelism(scale.parallelism);
    let mut engines: Vec<ScubaOperator> = [KernelKind::Scalar, KernelKind::Simd]
        .iter()
        .map(|&k| ScubaOperator::new(base.with_kernel(k), Rect::square(AREA)))
        .collect();
    for t in 0..TICKS {
        let now = (t + 1) * base.delta;
        let updates = make(scale, t);
        let mut reference = None;
        for op in &mut engines {
            for u in &updates {
                op.process_update(u);
            }
            let report = op.evaluate(now);
            let observed = (report.results, report.comparisons, report.prefilter_tests);
            match &reference {
                None => reference = Some(observed),
                Some(expected) => {
                    assert_eq!(&observed, expected, "tick {t}: simd kernel diverged");
                }
            }
        }
    }
    true
}

/// Runs the full comparison over one workload.
fn run_workload(
    name: &str,
    scale: &ExperimentScale,
    make: &dyn Fn(&ExperimentScale, u64) -> Vec<LocationUpdate>,
) -> WorkloadOut {
    let op = populated(scale, &make(scale, 0));
    let keys = scuba_bench::candidate_keys(&op);
    assert!(!keys.is_empty(), "{name}: workload produced no pairs");

    let (scalar, scalar_tasks, scalar_stats) = time_kernel(&op, &keys, KernelKind::Scalar);
    let (wide, wide_tasks, wide_stats) = time_kernel(&op, &keys, KernelKind::Simd);
    let filter_identical = scalar_tasks == wide_tasks
        && scalar_stats.tests == wide_stats.tests
        && scalar_stats.pruned == wide_stats.pruned
        && scalar_stats.joined == wide_stats.joined;
    assert!(
        filter_identical,
        "{name}: kernels disagreed on survivors or counters"
    );

    WorkloadOut {
        name: name.to_string(),
        clusters: op.engine().store().len(),
        pairs: keys.len(),
        survivors: scalar_tasks.len(),
        iters: CHUNKS * CHUNK_ITERS,
        speedup: if wide.best_chunk_us == 0 {
            0.0
        } else {
            scalar.best_chunk_us as f64 / wide.best_chunk_us as f64
        },
        scalar,
        wide,
        filter_identical,
        ticks_identical: ticks_identical(scale, make),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut scale, rest) = match ExperimentScale::from_args(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // Laptop-friendly defaults for a micro-benchmark; flags still override.
    if !args.iter().any(|a| a == "--objects") {
        scale.objects = 6_000;
    }
    if !args.iter().any(|a| a == "--queries") {
        scale.queries = 1_280;
    }
    let mut rest = rest;
    let out = match BenchOutput::take_from(&mut rest, "BENCH_simd_kernel.json") {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Some(other) = rest.first() {
        eprintln!("error: unknown option '{other}'");
        std::process::exit(2);
    }

    let wide_enabled = KernelKind::Simd.effective() == KernelKind::Simd;
    eprintln!(
        "simd: join kernels — {} objects, {} queries, parallelism {}, wide kernel {}",
        scale.objects,
        scale.queries,
        scale.parallelism,
        if wide_enabled {
            "on"
        } else {
            "off (feature disabled)"
        }
    );

    let workloads = vec![
        run_workload("uniform", &scale, &uniform_updates),
        run_workload("hotspot", &scale, &hotspot_updates),
    ];
    let payload = SimdBenchOut {
        scale,
        wide_enabled,
        workloads,
    };

    // Table before JSON: the measurements survive even where JSON
    // serialisation is unavailable (offline stub builds).
    if !out.json_stdout {
        let mut table = TextTable::new(vec![
            "workload",
            "clusters",
            "pairs",
            "survive %",
            "scalar µs",
            "wide µs",
            "speedup",
            "lane util",
        ]);
        for w in &payload.workloads {
            table.row(vec![
                w.name.clone(),
                w.clusters.to_string(),
                w.pairs.to_string(),
                f1(100.0 * w.survivors as f64 / w.pairs.max(1) as f64),
                w.scalar.best_chunk_us.to_string(),
                w.wide.best_chunk_us.to_string(),
                f1(w.speedup),
                f1(w.wide.lane_utilization),
            ]);
        }
        print!("{}", table.render());
    }

    let json = serde_json::to_string_pretty(&payload).expect("payload serialises");
    out.emit(&json);
}
