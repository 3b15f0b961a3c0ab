//! Property-based tests for the motion model and wire codec.

use scuba_motion::{
    wire, LocationUpdate, ObjectAttrs, ObjectClass, ObjectId, PiecewiseMotion, QueryAttrs, QueryId,
    QuerySpec,
};
use scuba_spatial::Point;
use scuba_testkit::{check, vec, Xoshiro256};

/// Cases per property.
const CASES: u32 = 256;

fn point(rng: &mut Xoshiro256) -> Point {
    Point::new(rng.gen_range(-1e4..1e4), rng.gen_range(-1e4..1e4))
}

/// An object of any class, or a range query: rectangular, or square (the
/// shape every workload registers), each arm equally likely.
fn update(rng: &mut Xoshiro256) -> LocationUpdate {
    let id = rng.next_u64();
    let loc = point(rng);
    let time = rng.next_u64();
    let speed = rng.gen_range(0.0..200.0);
    let cn = point(rng);
    let query = |width, height| QueryAttrs {
        spec: QuerySpec::Range { width, height },
    };
    match rng.gen_range(0..3u32) {
        0 => {
            let class = ObjectClass::ALL[rng.gen_range(0..6usize)];
            LocationUpdate::object(ObjectId(id), loc, time, speed, cn, ObjectAttrs { class })
        }
        1 => {
            let (w, h) = (rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0));
            LocationUpdate::query(QueryId(id), loc, time, speed, cn, query(w, h))
        }
        _ => {
            let side = rng.gen_range(0.0..500.0);
            LocationUpdate::query(QueryId(id), loc, time, speed, cn, query(side, side))
        }
    }
}

fn waypoints(rng: &mut Xoshiro256) -> Vec<Point> {
    vec(rng, 1..12, point)
}

// ---- wire codec ---------------------------------------------------------

fn encode(update: &LocationUpdate) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::encode_into(update, &mut buf);
    buf
}

#[test]
fn wire_roundtrip() {
    check("wire_roundtrip", CASES, |rng| {
        let update = update(rng);
        let bytes = encode(&update);
        let mut buf = &bytes[..];
        let decoded = wire::decode(&mut buf).unwrap();
        assert_eq!(decoded, update);
        assert_eq!(buf.len(), 0, "decoder must consume the record");
    });
}

#[test]
fn wire_roundtrip_batched() {
    check("wire_roundtrip_batched", CASES, |rng| {
        let updates = vec(rng, 0..20, update);
        let mut bytes = Vec::new();
        for u in &updates {
            wire::encode_into(u, &mut bytes);
        }
        let mut buf = &bytes[..];
        for u in &updates {
            assert_eq!(&wire::decode(&mut buf).unwrap(), u);
        }
    });
}

#[test]
fn wire_truncation_always_errors() {
    check("wire_truncation_always_errors", CASES, |rng| {
        let bytes = encode(&update(rng));
        let cut = ((bytes.len() as f64) * rng.gen_range(0.0..1.0)) as usize;
        if cut < bytes.len() {
            assert_eq!(
                wire::decode(&mut &bytes[..cut]),
                Err(wire::DecodeError::Truncated)
            );
        }
    });
}

#[test]
fn updates_from_constructors_are_consistent() {
    check("updates_from_constructors_are_consistent", CASES, |rng| {
        assert!(update(rng).is_consistent());
    });
}

/// Extreme finite coordinates survive the codec bit-exactly: the
/// fixed little-endian f64 layout must not normalise huge magnitudes,
/// subnormals, or negative zero. (Ghost exchange between shard owners
/// rides on this format; a single flipped bit moves an entity to a
/// different stripe.)
#[test]
fn wire_roundtrip_extreme_coords() {
    const EXTREMES: [f64; 7] = [
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324, // smallest subnormal
        -0.0,
        0.0,
        1e308,
    ];
    check("wire_roundtrip_extreme_coords", CASES, |rng| {
        let mut u = update(rng);
        let xi = rng.gen_range(0..7usize);
        let yi = rng.gen_range(0..7usize);
        let ti = match rng.gen_range(0..3u32) {
            0 => 0,
            1 => u64::MAX,
            _ => rng.next_u64(),
        };
        u.loc = Point::new(EXTREMES[xi], EXTREMES[yi]);
        u.cn_loc = Point::new(EXTREMES[yi], EXTREMES[xi]);
        u.time = ti;
        let decoded = wire::decode(&mut &encode(&u)[..]).unwrap();
        // Bit-level equality: `==` on f64 would let -0.0 alias 0.0.
        assert_eq!(decoded.loc.x.to_bits(), u.loc.x.to_bits());
        assert_eq!(decoded.loc.y.to_bits(), u.loc.y.to_bits());
        assert_eq!(decoded.cn_loc.x.to_bits(), u.cn_loc.x.to_bits());
        assert_eq!(decoded.cn_loc.y.to_bits(), u.cn_loc.y.to_bits());
        assert_eq!(decoded.time, u.time);
        assert_eq!(decoded, u);
    });
}

/// Duplicate `(time, entity)` records are legal on the wire — the
/// stream layer resolves them by arrival order, so the codec must
/// deliver every copy, unmerged and in order.
#[test]
fn wire_preserves_duplicate_time_entity_records() {
    check(
        "wire_preserves_duplicate_time_entity_records",
        CASES,
        |rng| {
            let base = update(rng);
            let sides = vec(rng, 2..6, |r| r.gen_range(1.0..300.0));
            // Same entity id, same timestamp, different payloads.
            let copies: Vec<LocationUpdate> = sides
                .iter()
                .map(|&side| {
                    let mut u = base;
                    u.attrs = match u.attrs {
                        scuba_motion::EntityAttrs::Object(_) => u.attrs,
                        scuba_motion::EntityAttrs::Query(_) => {
                            scuba_motion::EntityAttrs::Query(QueryAttrs {
                                spec: QuerySpec::square_range(side),
                            })
                        }
                    };
                    u.loc = Point::new(u.loc.x + side, u.loc.y - side);
                    u
                })
                .collect();
            let mut bytes = Vec::new();
            for u in &copies {
                wire::encode_into(u, &mut bytes);
            }
            let mut buf = &bytes[..];
            for (i, u) in copies.iter().enumerate() {
                let decoded = wire::decode(&mut buf).unwrap();
                assert_eq!(&decoded, u, "copy {i} merged or reordered");
                assert_eq!((decoded.time, decoded.entity), (base.time, base.entity));
            }
            assert_eq!(buf.len(), 0);
        },
    );
}

/// The spec decoder on its own: every strict prefix of an encoded spec is
/// a typed error, every one of the 256 tag bytes but the live one is
/// refused (the retired kNN tag as retired, the rest as unknown), and
/// random bytes never panic.
#[test]
fn spec_decoder_refuses_what_it_cannot_read() {
    check("spec_decoder_refuses_what_it_cannot_read", CASES, |rng| {
        let spec = QuerySpec::Range {
            width: rng.gen_range(0.0..500.0),
            height: rng.gen_range(0.0..500.0),
        };
        let mut bytes = Vec::new();
        wire::encode_spec(&spec, &mut bytes);
        assert_eq!(wire::decode_spec(&mut &bytes[..]), Ok(spec));
        for cut in 0..bytes.len() {
            assert_eq!(
                wire::decode_spec(&mut &bytes[..cut]),
                Err(wire::DecodeError::Truncated),
                "{cut}-byte prefix"
            );
        }

        let live = bytes[0];
        assert_ne!(live, wire::SPEC_RETIRED_KNN);
        for tag in 0..=u8::MAX {
            let mut retagged = bytes.clone();
            retagged[0] = tag;
            let expected = match tag {
                t if t == live => Ok(spec),
                wire::SPEC_RETIRED_KNN => Err(wire::DecodeError::RetiredQueryKind),
                t => Err(wire::DecodeError::BadTag(t)),
            };
            assert_eq!(wire::decode_spec(&mut &retagged[..]), expected, "tag {tag}");
        }

        let noise = vec(rng, 0..40, |r| r.next_u64() as u8);
        let _ = wire::decode_spec(&mut &noise[..]);
        let _ = wire::decode(&mut &noise[..]);
    });
}

// ---- piecewise motion ---------------------------------------------------

#[test]
fn advance_distance_is_bounded_by_speed() {
    check("advance_distance_is_bounded_by_speed", CASES, |rng| {
        let waypoints = waypoints(rng);
        let speed = rng.gen_range(0.0..100.0);
        let dt = rng.gen_range(0.0..10.0);
        let mut m = PiecewiseMotion::new(waypoints, speed).unwrap();
        let before = m.position();
        m.advance(dt);
        // Along the polyline the budget is speed·dt; straight-line
        // displacement can only be shorter.
        assert!(before.distance(&m.position()) <= speed * dt + 1e-6);
    });
}

#[test]
fn split_steps_equal_one_big_step() {
    check("split_steps_equal_one_big_step", CASES, |rng| {
        let waypoints = waypoints(rng);
        let speed = rng.gen_range(0.1..50.0);
        let dt = rng.gen_range(0.1..5.0);
        let pieces = rng.gen_range(1..10usize);
        let mut whole = PiecewiseMotion::new(waypoints.clone(), speed).unwrap();
        let mut split = PiecewiseMotion::new(waypoints, speed).unwrap();
        whole.advance(dt);
        for _ in 0..pieces {
            split.advance(dt / pieces as f64);
        }
        assert!(whole.position().distance(&split.position()) < 1e-6);
    });
}

#[test]
fn eventually_arrives() {
    check("eventually_arrives", CASES, |rng| {
        let waypoints = waypoints(rng);
        let speed = rng.gen_range(1.0..100.0);
        let mut m = PiecewiseMotion::new(waypoints.clone(), speed).unwrap();
        let total: f64 = waypoints.windows(2).map(|w| w[0].distance(&w[1])).sum();
        let arrived = m.advance(total / speed + 1.0);
        assert!(arrived);
        assert!(m.arrived());
        assert!(m.position().distance(waypoints.last().unwrap()) < 1e-6);
    });
}

#[test]
fn cn_loc_is_always_a_waypoint() {
    check("cn_loc_is_always_a_waypoint", CASES, |rng| {
        let waypoints = waypoints(rng);
        let speed = rng.gen_range(0.1..50.0);
        let dt = rng.gen_range(0.0..100.0);
        let mut m = PiecewiseMotion::new(waypoints.clone(), speed).unwrap();
        m.advance(dt);
        let cn = m.cn_loc();
        assert!(
            waypoints.iter().any(|w| w.distance(&cn) < 1e-9),
            "cn_loc {cn:?} not in waypoint list"
        );
    });
}

#[test]
fn position_stays_on_polyline_bbox() {
    check("position_stays_on_polyline_bbox", CASES, |rng| {
        let waypoints = waypoints(rng);
        let speed = rng.gen_range(0.1..50.0);
        let dt = rng.gen_range(0.0..100.0);
        let mut bbox = scuba_spatial::Rect::from_corners(waypoints[0], waypoints[0]);
        for w in &waypoints {
            bbox = bbox.union(&scuba_spatial::Rect::from_corners(*w, *w));
        }
        let mut m = PiecewiseMotion::new(waypoints, speed).unwrap();
        m.advance(dt);
        assert!(bbox.inflate(1e-9).contains(&m.position()));
    });
}
