//! Location updates and entity attributes.
//!
//! Paper §2: "moving objects location updates arrive via data streams and
//! have the following form `(o.oid, o.loc_t, o.t, o.speed, o.cnloc,
//! o.attrs)` … A continuously running query is represented in a similar
//! form `(q.qid, q.loc_t, q.t, q.speed, q.cnloc, q.attrs)`. Unlike for the
//! objects, `q.attrs` represents a set of query-specific attributes (e.g.,
//! size of the range query)."

use scuba_spatial::{Point, Rect, Speed, Time};

use crate::ids::{EntityRef, ObjectId, QueryId};

/// Descriptive class of a moving object (the paper's example attributes:
/// "child, red car").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ObjectClass {
    /// A private car (the default).
    #[default]
    Car,
    /// A truck.
    Truck,
    /// A bus.
    Bus,
    /// A pedestrian.
    Pedestrian,
    /// A child (the paper's safety-monitoring example).
    Child,
    /// Emergency vehicle.
    Emergency,
}

impl ObjectClass {
    /// All classes, for generators and tests.
    pub const ALL: [ObjectClass; 6] = [
        ObjectClass::Car,
        ObjectClass::Truck,
        ObjectClass::Bus,
        ObjectClass::Pedestrian,
        ObjectClass::Child,
        ObjectClass::Emergency,
    ];
}

/// Attributes carried by object updates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ObjectAttrs {
    /// The object's descriptive class.
    pub class: ObjectClass,
}

/// What a continuous query asks for: a range query, the paper's one query
/// kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuerySpec {
    /// A `width × height` rectangle centred on the query's moving
    /// position.
    Range {
        /// Full extent along x, spatial units.
        width: f64,
        /// Full extent along y, spatial units.
        height: f64,
    },
}

impl QuerySpec {
    /// A square range query of the given side.
    pub fn square_range(side: f64) -> Self {
        QuerySpec::Range {
            width: side,
            height: side,
        }
    }

    /// The query region when centred at `center`. Always `Some`: the
    /// `Option` is kept for callers written when not every spec had a
    /// region.
    pub fn region_at(&self, center: Point) -> Option<Rect> {
        let QuerySpec::Range { width, height } = *self;
        Some(Rect::centered(center, width, height))
    }

    /// Radius of the smallest circle containing the query region (half the
    /// rectangle diagonal).
    pub fn bounding_radius(&self) -> f64 {
        let QuerySpec::Range { width, height } = *self;
        0.5 * (width * width + height * height).sqrt()
    }
}

/// Attributes carried by query updates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryAttrs {
    /// The query's specification (its range extent).
    pub spec: QuerySpec,
}

/// Attributes of either entity kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EntityAttrs {
    /// Object attributes.
    Object(ObjectAttrs),
    /// Query attributes.
    Query(QueryAttrs),
}

/// A single location update from a moving object or moving query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocationUpdate {
    /// Which entity reported.
    pub entity: EntityRef,
    /// Position at `time` (`loc_t`).
    pub loc: Point,
    /// Timestamp of the update, in time units (`t`).
    pub time: Time,
    /// Current speed in spatial units per time unit (`speed`).
    pub speed: Speed,
    /// Position of the connection node the entity is heading to
    /// (`cnloc`) — "the position of the connection node in the road network
    /// that \[will\] next be reached by the moving object (its current
    /// destination)". Stable until the node is reached (§2: "the network is
    /// stable").
    pub cn_loc: Point,
    /// Descriptive attributes; kind always matches `entity`.
    pub attrs: EntityAttrs,
}

impl LocationUpdate {
    /// Builds an object update.
    pub fn object(
        id: ObjectId,
        loc: Point,
        time: Time,
        speed: Speed,
        cn_loc: Point,
        attrs: ObjectAttrs,
    ) -> Self {
        LocationUpdate {
            entity: id.into(),
            loc,
            time,
            speed,
            cn_loc,
            attrs: EntityAttrs::Object(attrs),
        }
    }

    /// Builds a query update.
    pub fn query(
        id: QueryId,
        loc: Point,
        time: Time,
        speed: Speed,
        cn_loc: Point,
        attrs: QueryAttrs,
    ) -> Self {
        LocationUpdate {
            entity: id.into(),
            loc,
            time,
            speed,
            cn_loc,
            attrs: EntityAttrs::Query(attrs),
        }
    }

    /// Whether entity kind and attribute kind agree (violations indicate a
    /// construction bug; the constructors above cannot produce them).
    pub fn is_consistent(&self) -> bool {
        matches!(
            (self.entity, &self.attrs),
            (EntityRef::Object(_), EntityAttrs::Object(_))
                | (EntityRef::Query(_), EntityAttrs::Query(_))
        )
    }

    /// The query spec, when this is a query update.
    pub fn query_spec(&self) -> Option<QuerySpec> {
        match self.attrs {
            EntityAttrs::Query(QueryAttrs { spec }) => Some(spec),
            EntityAttrs::Object(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj_update() -> LocationUpdate {
        LocationUpdate::object(
            ObjectId(1),
            Point::new(10.0, 20.0),
            5,
            30.0,
            Point::new(100.0, 20.0),
            ObjectAttrs::default(),
        )
    }

    fn qry_update(side: f64) -> LocationUpdate {
        LocationUpdate::query(
            QueryId(2),
            Point::new(10.0, 20.0),
            5,
            30.0,
            Point::new(100.0, 20.0),
            QueryAttrs {
                spec: QuerySpec::square_range(side),
            },
        )
    }

    #[test]
    fn constructors_are_consistent() {
        assert!(obj_update().is_consistent());
        assert!(qry_update(8.0).is_consistent());
    }

    #[test]
    fn inconsistent_update_detected() {
        let mut u = obj_update();
        u.attrs = EntityAttrs::Query(QueryAttrs {
            spec: QuerySpec::square_range(1.0),
        });
        assert!(!u.is_consistent());
    }

    #[test]
    fn query_region_centred_on_location() {
        let u = qry_update(8.0);
        let r = u.query_spec().unwrap().region_at(u.loc).unwrap();
        assert!(r.center().approx_eq(&u.loc));
        assert_eq!(r.width(), 8.0);
        assert_eq!(r.height(), 8.0);
    }

    #[test]
    fn object_has_no_query_region() {
        assert!(obj_update().query_spec().is_none());
    }

    #[test]
    fn bounding_radius_is_half_diagonal() {
        let spec = QuerySpec::Range {
            width: 6.0,
            height: 8.0,
        };
        assert!((spec.bounding_radius() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn range_region_contains_its_center() {
        let spec = QuerySpec::square_range(10.0);
        let c = Point::new(3.0, -7.0);
        assert!(spec.region_at(c).unwrap().contains(&c));
    }
}
