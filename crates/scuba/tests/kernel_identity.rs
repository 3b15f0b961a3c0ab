//! Identity tests for the join kernels (ISSUE 7).
//!
//! The wide (SIMD-style) pre-filter kernel is a pure work optimisation:
//! on every tick it must produce bit-identical results *and counters* to
//! the scalar kernel, at every parallelism, with the join cache on or
//! off, over either spatial index. The property below drives the full
//! configuration cross product against one reference stream; the
//! deterministic companion pins the steady-state zero-allocation
//! contract of the reusable join scratch.

use proptest::prelude::*;

use scuba::{IndexKind, KernelKind, ScubaOperator, ScubaParams};
use scuba_motion::{LocationUpdate, ObjectAttrs, ObjectId, QueryAttrs, QueryId, QuerySpec};
use scuba_spatial::{Point, Rect};
use scuba_stream::ContinuousOperator;

const AREA: f64 = 1000.0;

fn area() -> Rect {
    Rect::square(AREA)
}

/// Same compact generator as `tests/properties.rs`: bounded positions,
/// a handful of destination nodes so direction matches occur, mixed
/// objects and queries with varied range sides.
fn arb_updates(max_entities: usize) -> impl Strategy<Value = Vec<LocationUpdate>> {
    let nodes = [
        Point::new(0.0, 500.0),
        Point::new(1000.0, 500.0),
        Point::new(500.0, 0.0),
        Point::new(500.0, 1000.0),
    ];
    prop::collection::vec(
        (
            0u64..40,      // entity id
            any::<bool>(), // object or query
            0.0..AREA,     // x
            0.0..AREA,     // y
            5.0..50.0f64,  // speed
            0usize..4,     // destination node index
            5.0..80.0f64,  // query range side
        ),
        1..max_entities,
    )
    .prop_map(move |rows| {
        rows.into_iter()
            .map(|(id, is_query, x, y, speed, node, side)| {
                let loc = Point::new(x, y);
                let cn = nodes[node];
                if is_query {
                    LocationUpdate::query(
                        QueryId(id),
                        loc,
                        0,
                        speed,
                        cn,
                        QueryAttrs {
                            spec: QuerySpec::square_range(side),
                        },
                    )
                } else {
                    LocationUpdate::object(ObjectId(id), loc, 0, speed, cn, ObjectAttrs::default())
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `--kernel simd` is answer- and counter-invisible: at every tick it
    /// reproduces the scalar kernel's results, member comparisons, and
    /// pre-filter counters across parallelism {1, 2, 4} × join cache
    /// {on, off} × index {uniform, adaptive}. Only wall times and the
    /// lane-occupancy metrics may differ between the two kernels.
    #[test]
    fn simd_kernel_matches_scalar(
        batches in prop::collection::vec(arb_updates(40), 1..3),
    ) {
        let adaptive_base = ScubaParams::default()
            .with_index(IndexKind::Adaptive)
            .with_split_merge(4, 1);
        let configs: Vec<ScubaParams> = [1usize, 2, 4]
            .iter()
            .flat_map(|&p| {
                [true, false].iter().flat_map(move |&cache| {
                    [ScubaParams::default(), adaptive_base]
                        .into_iter()
                        .flat_map(move |base| {
                            [KernelKind::Scalar, KernelKind::Simd].map(|k| {
                                base.with_parallelism(p).with_join_cache(cache).with_kernel(k)
                            })
                        })
                })
            })
            .collect();
        let mut ops: Vec<ScubaOperator> = configs
            .iter()
            .map(|&params| ScubaOperator::new(params, area()))
            .collect();
        for (tick, batch) in batches.iter().enumerate() {
            let now = (tick as u64 + 1) * 2;
            let mut reference: Option<(Vec<scuba_stream::QueryMatch>, u64, u64)> = None;
            for (op, params) in ops.iter_mut().zip(&configs) {
                for u in batch {
                    op.process_update(u);
                }
                let report = op.evaluate(now);
                let observed = (report.results, report.comparisons, report.prefilter_tests);
                match &reference {
                    None => reference = Some(observed),
                    Some(expected) => prop_assert_eq!(
                        &observed,
                        expected,
                        "tick {}: kernel {} index {} parallelism {} cache {} diverged",
                        tick,
                        params.kernel,
                        params.index,
                        params.parallelism,
                        params.join_cache
                    ),
                }
            }
        }
    }
}

/// Steady-state evaluation allocates nothing: once the reusable join
/// scratch (pair keys, kernel tile, discovery buffer, materialisation
/// arena, worker buffers) has warmed up over a few churn ticks, its
/// total reserved capacity must stay byte-stable over many further
/// ticks of the same workload — on both kernels, over the adaptive
/// index whose pair discovery now reuses the per-walk leaf buffer.
#[test]
fn join_scratch_stops_growing_in_steady_state() {
    let nodes = [
        Point::new(0.0, 500.0),
        Point::new(1000.0, 500.0),
        Point::new(500.0, 0.0),
        Point::new(500.0, 1000.0),
    ];
    // Deterministic LCG: identical churn stream on every run.
    let make_updates = |tick: u64| -> Vec<LocationUpdate> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ tick;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        (0..60u64)
            .map(|id| {
                // Clustered sites so real pair batches form each tick.
                let site = Point::new(
                    150.0 + (id % 3) as f64 * 300.0 + next(40) as f64,
                    150.0 + (id / 3 % 3) as f64 * 300.0 + next(40) as f64,
                );
                let cn = nodes[next(4) as usize];
                let speed = 5.0 + next(30) as f64;
                if id % 4 == 0 {
                    LocationUpdate::query(
                        QueryId(id),
                        site,
                        tick,
                        speed,
                        cn,
                        QueryAttrs {
                            spec: QuerySpec::square_range(20.0 + next(60) as f64),
                        },
                    )
                } else {
                    LocationUpdate::object(
                        ObjectId(id),
                        site,
                        tick,
                        speed,
                        cn,
                        ObjectAttrs::default(),
                    )
                }
            })
            .collect()
    };

    for kernel in [KernelKind::Scalar, KernelKind::Simd] {
        let params = ScubaParams::default()
            .with_index(IndexKind::Adaptive)
            .with_split_merge(4, 1)
            .with_kernel(kernel);
        let mut op = ScubaOperator::new(params, area());

        // The churn stream is periodic (period 4): one full period of
        // warm-up drives every buffer to its true high-water mark.
        let phase = |tick: u64| (tick - 1) % 4 + 1;
        for tick in 1..=4u64 {
            for u in make_updates(phase(tick)) {
                op.process_update(&u);
            }
            op.evaluate(tick * 2);
        }
        let settled = op.join_scratch_bytes();
        assert!(settled > 0, "kernel {kernel}: warm scratch holds buffers");

        // Steady state: replaying the same churn pattern must never
        // reallocate.
        for tick in 5..=12u64 {
            for u in make_updates(phase(tick)) {
                op.process_update(&u);
            }
            let report = op.evaluate(tick * 2);
            assert!(!report.results.is_empty(), "tick {tick} finds matches");
            assert_eq!(
                op.join_scratch_bytes(),
                settled,
                "kernel {kernel}: tick {tick} grew the join scratch"
            );
        }
    }
}
