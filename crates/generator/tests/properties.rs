//! Property-based tests for the workload generator.

use std::sync::Arc;

use scuba_generator::{WorkloadConfig, WorkloadGenerator};
use scuba_motion::EntityRef;
use scuba_roadnet::{CityConfig, RoadNetwork, SyntheticCity};
use scuba_testkit::{check, Xoshiro256};

fn city_network() -> Arc<RoadNetwork> {
    Arc::new(SyntheticCity::build(CityConfig::small()).network)
}

/// Cases per property.
const CASES: u32 = 32;

fn config(rng: &mut Xoshiro256) -> WorkloadConfig {
    let period = rng.gen_range(1..4usize); // update period (1/fraction)
    WorkloadConfig {
        num_objects: rng.gen_range(1..80),
        num_queries: rng.gen_range(0..60),
        skew: rng.gen_range(1..30),
        update_fraction: 1.0 / period as f64,
        query_range_side: rng.gen_range(5.0..60.0),
        seed: rng.next_u64(),
        ..WorkloadConfig::default()
    }
}

#[test]
fn population_counts_exact() {
    check("population_counts_exact", CASES, |rng| {
        let config = config(rng);
        let g = WorkloadGenerator::new(city_network(), config);
        let objects = g.entities().iter().filter(|e| e.entity.is_object()).count();
        let queries = g
            .entities()
            .iter()
            .filter(|e| !e.entity.is_object())
            .count();
        assert_eq!(objects, config.num_objects);
        assert_eq!(queries, config.num_queries);
    });
}

#[test]
fn entity_ids_are_dense_and_unique() {
    check("entity_ids_are_dense_and_unique", CASES, |rng| {
        let config = config(rng);
        let g = WorkloadGenerator::new(city_network(), config);
        let mut oids: Vec<u64> = g
            .entities()
            .iter()
            .filter(|e| e.entity.is_object())
            .map(|e| e.entity.raw())
            .collect();
        oids.sort_unstable();
        let expected: Vec<u64> = (0..config.num_objects as u64).collect();
        assert_eq!(oids, expected);
    });
}

#[test]
fn groups_never_mix_kinds() {
    check("groups_never_mix_kinds", CASES, |rng| {
        let config = config(rng);
        let g = WorkloadGenerator::new(city_network(), config);
        let max_group = g.entities().iter().map(|e| e.group).max().unwrap_or(0);
        for group in 0..=max_group {
            let kinds: Vec<bool> = g
                .entities()
                .iter()
                .filter(|e| e.group == group)
                .map(|e| e.entity.is_object())
                .collect();
            assert!(
                kinds.iter().all(|&k| k) || kinds.iter().all(|&k| !k),
                "group {group} mixes kinds"
            );
        }
    });
}

#[test]
fn group_sizes_bounded_by_skew() {
    check("group_sizes_bounded_by_skew", CASES, |rng| {
        let config = config(rng);
        let g = WorkloadGenerator::new(city_network(), config);
        let max_group = g.entities().iter().map(|e| e.group).max().unwrap_or(0);
        for group in 0..=max_group {
            let size = g.entities().iter().filter(|e| e.group == group).count();
            assert!(size <= config.skew as usize);
            assert!(size >= 1);
        }
    });
}

#[test]
fn determinism_across_instances() {
    check("determinism_across_instances", CASES, |rng| {
        let config = config(rng);
        let ticks = rng.gen_range(1..6u64);
        let mut a = WorkloadGenerator::new(city_network(), config);
        let mut b = WorkloadGenerator::new(city_network(), config);
        for _ in 0..ticks {
            assert_eq!(a.tick(), b.tick());
        }
    });
}

#[test]
fn every_entity_reports_once_per_period() {
    check("every_entity_reports_once_per_period", CASES, |rng| {
        let config = config(rng);
        let period = (1.0 / config.update_fraction).round() as u64;
        let mut g = WorkloadGenerator::new(city_network(), config);
        let mut reported: Vec<EntityRef> = Vec::new();
        for _ in 0..period {
            reported.extend(g.tick().into_iter().map(|u| u.entity));
        }
        reported.sort_unstable();
        let before = reported.len();
        reported.dedup();
        assert_eq!(before, reported.len(), "duplicate report within period");
        assert_eq!(reported.len(), config.num_objects + config.num_queries);
    });
}

#[test]
fn updates_carry_consistent_attrs() {
    check("updates_carry_consistent_attrs", CASES, |rng| {
        let config = config(rng);
        let ticks = rng.gen_range(1..4u64);
        let mut g = WorkloadGenerator::new(city_network(), config);
        for _ in 0..ticks {
            for u in g.tick() {
                assert!(u.is_consistent());
                assert!(u.speed >= 1.0);
                if let Some(scuba_motion::QuerySpec::Range { width, height }) = u.query_spec() {
                    assert_eq!(width, config.query_range_side);
                    assert_eq!(height, config.query_range_side);
                }
            }
        }
    });
}

#[test]
fn positions_stay_inside_city() {
    check("positions_stay_inside_city", CASES, |rng| {
        let config = config(rng);
        let ticks = rng.gen_range(1..10u64);
        let network = city_network();
        let extent = network.extent().unwrap().inflate(1.0);
        let mut g = WorkloadGenerator::new(network, config);
        for _ in 0..ticks {
            for u in g.tick() {
                assert!(extent.contains(&u.loc), "{:?} escaped", u.loc);
                assert!(extent.contains(&u.cn_loc));
            }
        }
    });
}

#[test]
fn snapshot_matches_entity_state() {
    check("snapshot_matches_entity_state", CASES, |rng| {
        let config = config(rng);
        let ticks = rng.gen_range(0..5u64);
        let mut g = WorkloadGenerator::new(city_network(), config);
        for _ in 0..ticks {
            g.tick();
        }
        let snapshot = g.snapshot();
        assert_eq!(snapshot.len(), g.entities().len());
        for (u, e) in snapshot.iter().zip(g.entities()) {
            assert_eq!(u.entity, e.entity);
            assert!(u.loc.approx_eq(&e.position()));
            assert_eq!(u.time, g.clock());
        }
    });
}
