//! Moving clusters (paper §3.1).
//!
//! A moving cluster abstracts a set of moving objects and queries that
//! travel closely together: it records a centroid, a covering radius, the
//! shared destination connection node, the average speed, and each
//! member's reported position.
//!
//! The paper stores members *relative to the centroid* and applies a lazy
//! per-cluster *transformation vector* whenever absorption pulls the
//! centroid, so that nothing is touched per member until a join-within
//! needs absolute positions. Here a member keeps the point it reported,
//! which needs no transformation at all: absorbing a member moves the
//! centroid and nothing else. The one movement that does carry members is
//! **rigid relocation** (post-join maintenance, §4.2): the whole cluster
//! advances along its velocity vector, and [`MovingCluster::advance`]
//! adds the centroid's displacement to every unshed member. Under the
//! paper's model every member reports again before the next join, so the
//! join reads each member's reported point bit for bit — an object exactly
//! on a query's edge is answered as the inclusive `Rect::contains` says.
//!
//! Invariant maintained throughout: every un-shed member's position lies
//! within `radius` of the centroid (checked by property tests). The radius
//! never shrinks while members remain — a conservative over-approximation
//! that keeps the join-between filter sound.

use scuba_motion::{EntityRef, LocationUpdate};
use scuba_spatial::{Circle, Point, Time, Vector};

/// How far apart two connection nodes may be and still count as the same
/// direction (`o.cnloc == m.cnloc`, §3.2 step 3). Both sides are `f64`
/// positions that come from identical arithmetic on the same network node,
/// so equal nodes agree to the last bit; the tolerance only keeps the test
/// from hinging on exact `f64` equality.
const CNLOC_TOLERANCE: f64 = 1e-6;

/// Identifier of a moving cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub u64);

/// One cluster member.
#[derive(Debug, Clone, PartialEq)]
pub struct Member {
    /// The entity this member represents.
    pub entity: EntityRef,
    /// The entity's reported speed at its last update.
    pub speed: f64,
    /// The entity's reported position, carried along by every relocation
    /// since; `None` when the position was load-shed (§5).
    pub pos: Option<Point>,
    /// Timestamp of the entity's most recent update (drives TTL eviction).
    pub last_seen: Time,
}

impl Member {
    /// Whether this member's position was load-shed.
    #[inline]
    pub fn is_shed(&self) -> bool {
        self.pos.is_none()
    }
}

/// A moving cluster of objects and queries.
#[derive(Debug, Clone, PartialEq)]
pub struct MovingCluster {
    /// Cluster id (`m.cid`).
    pub cid: ClusterId,
    centroid: Point,
    radius: f64,
    cn_loc: Point,
    ave_speed: f64,
    members: Vec<Member>,
    object_count: usize,
    query_count: usize,
    created_at: Time,
    /// Largest bounding radius among query members' range specs. Never
    /// shrinks (conservative under member removal). See
    /// [`MovingCluster::effective_region`].
    max_query_radius: f64,
}

impl MovingCluster {
    /// Creates a single-member cluster from its founding update: "the
    /// object forms its own cluster, with the centroid at the current
    /// location of the object, and the radius = 0" (§3.2 step 2).
    ///
    /// `shed` discards the founder's position immediately (it is at the
    /// centroid, so any active nucleus sheds it).
    pub fn found(cid: ClusterId, founder: &LocationUpdate, shed: bool) -> Self {
        let mut cluster = MovingCluster {
            cid,
            centroid: founder.loc,
            radius: 0.0,
            cn_loc: founder.cn_loc,
            ave_speed: founder.speed,
            members: Vec::with_capacity(4),
            object_count: 0,
            query_count: 0,
            created_at: founder.time,
            max_query_radius: 0.0,
        };
        cluster.note_query_radius(founder);
        cluster.push_member(
            founder.entity,
            founder.speed,
            (!shed).then_some(founder.loc),
            founder.time,
        );
        cluster
    }

    // ---- accessors ---------------------------------------------------------

    /// Current centroid position (`m.loc_t`).
    #[inline]
    pub fn centroid(&self) -> Point {
        self.centroid
    }

    /// Covering radius (`m.r`).
    #[inline]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// The circular region of the cluster.
    #[inline]
    pub fn region(&self) -> Circle {
        Circle::new(self.centroid, self.radius)
    }

    /// Largest bounding radius among query members' ranges.
    #[inline]
    pub fn max_query_radius(&self) -> f64 {
        self.max_query_radius
    }

    /// The cluster region inflated by the reach of its widest range query.
    ///
    /// The paper's Algorithm 2 tests plain region overlap and claims that
    /// pruned pairs "are guaranteed to not join at an individual level" —
    /// but a query's *range* extends beyond the cluster circle that covers
    /// only the query's position, so the plain test can prune real results.
    /// Listing a cluster's query side in the grid by this inflated region
    /// (and using it on the query side of the overlap test) restores the
    /// guarantee; the object side needs only [`MovingCluster::region`].
    #[inline]
    pub fn effective_region(&self) -> Circle {
        Circle::new(self.centroid, self.radius + self.max_query_radius)
    }

    /// The destination connection node (`m.cnloc`).
    #[inline]
    pub fn cn_loc(&self) -> Point {
        self.cn_loc
    }

    /// Average member speed (`m.avespeed`).
    #[inline]
    pub fn ave_speed(&self) -> f64 {
        self.ave_speed
    }

    /// Number of members (`m.n`).
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of object members (`|m.oids|`).
    #[inline]
    pub fn object_count(&self) -> usize {
        self.object_count
    }

    /// Number of query members (`|m.qids|`).
    #[inline]
    pub fn query_count(&self) -> usize {
        self.query_count
    }

    /// Whether the cluster contains both objects and queries — the
    /// precondition for a same-cluster join-within (Algorithm 1, step 14).
    #[inline]
    pub fn is_mixed(&self) -> bool {
        self.object_count > 0 && self.query_count > 0
    }

    /// Creation time of the cluster.
    #[inline]
    pub fn created_at(&self) -> Time {
        self.created_at
    }

    /// The members.
    #[inline]
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// The position of `entity` in [`MovingCluster::members`]. A linear
    /// scan: the cluster keeps no per-entity index — the engine's
    /// [`crate::tables::EntityTable`] rows carry every member's
    /// position, and the remaining callers (tests) are cold.
    pub fn position(&self, entity: EntityRef) -> Option<usize> {
        self.members.iter().position(|m| m.entity == entity)
    }

    /// Whether `entity` is a member (linear scan).
    #[inline]
    pub fn contains(&self, entity: EntityRef) -> bool {
        self.position(entity).is_some()
    }

    /// The member record for `entity` (linear scan).
    pub fn member(&self, entity: EntityRef) -> Option<&Member> {
        self.position(entity).map(|i| &self.members[i])
    }

    /// The cluster's velocity vector: toward its destination node at the
    /// average member speed (zero once the destination is reached).
    fn velocity(&self) -> Vector {
        (self.cn_loc - self.centroid).with_length(self.ave_speed)
    }

    /// Whether advancing by `dt` time units would carry the cluster past
    /// its destination node — the post-join dissolution criterion ("If at
    /// time T+Δ the cluster passes its destination node, the cluster gets
    /// dissolved", §4.2).
    pub fn passes_destination_within(&self, dt: f64) -> bool {
        self.centroid.distance(&self.cn_loc) <= self.ave_speed * dt
    }

    // ---- membership --------------------------------------------------------

    /// Checks the three §3.2 step-3 conditions for absorbing an update:
    /// same direction, within Θ_D of the centroid, speed within Θ_S of the
    /// cluster average.
    pub fn can_absorb(&self, update: &LocationUpdate, theta_d: f64, theta_s: f64) -> bool {
        // 1. Same direction: identical destination connection node.
        if update.cn_loc.distance_sq(&self.cn_loc) > CNLOC_TOLERANCE * CNLOC_TOLERANCE {
            return false;
        }
        // 2. Distance: ||o.loc − m.loc|| ≤ Θ_D.
        if update.loc.distance_sq(&self.centroid) > theta_d * theta_d {
            return false;
        }
        // 3. Speed: |o.speed − m.avespeed| ≤ Θ_S.
        (update.speed - self.ave_speed).abs() <= theta_s
    }

    /// Absorbs an update as a new member (§3.2 step 4): the centroid is
    /// pulled toward the new position, the average speed is recomputed, the
    /// radius grows if needed and the member count increments.
    ///
    /// `shed` discards the new member's position (load shedding at
    /// admission, §5).
    ///
    /// The entity must not already be a member (callers route updates from
    /// existing members through [`MovingCluster::update_member_at`]);
    /// debug builds assert it.
    pub fn absorb(&mut self, update: &LocationUpdate, shed: bool) {
        debug_assert!(
            !self.contains(update.entity),
            "entity {} is already a member of cluster {:?}",
            update.entity,
            self.cid
        );
        let n_new = (self.members.len() + 1) as f64;
        // Incremental centroid: c' = c + (p − c)/n.
        let delta = (update.loc - self.centroid) / n_new;
        self.centroid += delta;
        // Existing members stay where they reported, but their distance to
        // the *new* centroid may have grown by up to |δ|.
        self.radius += delta.norm();
        let dist_new = update.loc.distance(&self.centroid);
        if dist_new > self.radius {
            self.radius = dist_new;
        }
        // Incremental mean speed.
        self.ave_speed += (update.speed - self.ave_speed) / n_new;

        self.note_query_radius(update);
        self.push_member(
            update.entity,
            update.speed,
            (!shed).then_some(update.loc),
            update.time,
        );
    }

    /// Refreshes the member at position `idx` from a new update of the same
    /// entity: records its reported position (or sheds it), updates its
    /// speed contribution to the average, and grows the radius if the
    /// member moved outward.
    pub fn update_member_at(&mut self, idx: usize, update: &LocationUpdate, shed: bool) {
        debug_assert_eq!(
            self.members[idx].entity, update.entity,
            "member position does not hold the updating entity"
        );
        self.note_query_radius(update);
        let n = self.members.len() as f64;
        let member = &mut self.members[idx];
        self.ave_speed += (update.speed - member.speed) / n;
        member.speed = update.speed;
        member.last_seen = update.time;
        if shed {
            member.pos = None;
        } else {
            member.pos = Some(update.loc);
            let dist = update.loc.distance(&self.centroid);
            if dist > self.radius {
                self.radius = dist;
            }
        }
    }

    /// Removes the member at position `idx` ("objects and queries can enter
    /// or leave a moving cluster at any time", §3.1), adjusting counts and
    /// average speed. The radius is left unchanged — a conservative
    /// over-approximation.
    ///
    /// Returns the removed member and, when the swap-remove moved the last
    /// member into position `idx`, that member's entity — whoever tracks
    /// member positions must re-point it.
    pub fn remove_member_at(&mut self, idx: usize) -> (Member, Option<EntityRef>) {
        let member = self.members.swap_remove(idx);
        let moved = self.members.get(idx).map(|m| m.entity);
        match member.entity {
            EntityRef::Object(_) => self.object_count -= 1,
            EntityRef::Query(_) => self.query_count -= 1,
        }
        let n = self.members.len() as f64;
        if n > 0.0 {
            self.ave_speed = (self.ave_speed * (n + 1.0) - member.speed) / n;
        } else {
            self.ave_speed = 0.0;
        }
        (member, moved)
    }

    /// Rigidly translates the cluster along its velocity vector for `dt`
    /// time units (post-join relocation, §4.2 / Fig. 7f). Every unshed
    /// member moves by the centroid's displacement. Movement stops at the
    /// destination node rather than overshooting.
    ///
    /// Returns whether the centroid actually moved (a stationary cluster,
    /// zero average speed, keeps its place in the centroid index).
    pub fn advance(&mut self, dt: f64) -> bool {
        let before = self.centroid;
        let step = self.ave_speed * dt.max(0.0);
        let dist = self.centroid.distance(&self.cn_loc);
        if step >= dist {
            self.centroid = self.cn_loc;
        } else {
            self.centroid += self.velocity() * dt;
        }
        let moved = self.centroid - before;
        if moved == Vector::ZERO {
            return false;
        }
        for pos in self.members.iter_mut().filter_map(|m| m.pos.as_mut()) {
            *pos += moved;
        }
        true
    }

    /// Recomputes the radius exactly as the maximum member distance from
    /// the current centroid, shrinking the conservative bound accumulated
    /// by incremental absorption (each absorb grows the radius by the full
    /// centroid shift |δ| instead of re-measuring every member — cheap on
    /// the per-update hot path, but the slack compounds and would wreck the
    /// join-between pre-filter's selectivity).
    ///
    /// `shed_floor` bounds the unknown positions of shed members: they were
    /// within the nucleus (radius ≤ `shed_floor`) when shed and ride along
    /// rigidly, so the radius never shrinks below it while shed members
    /// remain. Call with the active Θ_N (or 0.0 when shedding is off).
    pub fn tighten(&mut self, shed_floor: f64) {
        let mut max_d_sq: f64 = 0.0;
        let mut any_shed = false;
        for member in &self.members {
            match member.pos {
                Some(pos) => {
                    max_d_sq = max_d_sq.max(pos.distance_sq(&self.centroid));
                }
                None => any_shed = true,
            }
        }
        let mut tight = max_d_sq.sqrt();
        if any_shed {
            tight = tight.max(shed_floor.min(self.radius));
        }
        // Only shrink — growth is already tracked exactly.
        if tight < self.radius {
            self.radius = tight;
        }
    }

    /// Sheds the positions of all members within `nucleus_radius` of the
    /// centroid, returning how many positions were discarded.
    pub fn shed_nucleus(&mut self, nucleus_radius: f64) -> usize {
        let mut shed = 0;
        let centroid = self.centroid;
        for member in &mut self.members {
            if let Some(pos) = member.pos {
                if pos.distance(&centroid) <= nucleus_radius {
                    member.pos = None;
                    shed += 1;
                }
            }
        }
        shed
    }

    /// Estimated heap footprint in bytes. Shed members store no position,
    /// which is where the §5 memory saving shows up.
    pub fn estimated_bytes(&self) -> usize {
        let fixed = std::mem::size_of::<MovingCluster>();
        let per_member = std::mem::size_of::<Member>();
        // `pos` is stored inline in Member for speed; the estimate models a
        // deployment where positional state lives out of line, so a shed
        // member saves its position — only the id and speed (needed for the
        // cluster averages) remain.
        let shed_savings =
            self.members.iter().filter(|m| m.is_shed()).count() * std::mem::size_of::<Point>();
        fixed + self.members.capacity() * per_member - shed_savings
    }

    /// Reconstructs a cluster from raw parts, rebuilding the kind counts.
    /// Counterpart of reading the public accessors plus
    /// [`MovingCluster::members`]; the checkpoint decoder of
    /// [`crate::durability`] reads clusters back through it.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        cid: ClusterId,
        centroid: Point,
        radius: f64,
        cn_loc: Point,
        ave_speed: f64,
        created_at: Time,
        max_query_radius: f64,
        members: Vec<Member>,
    ) -> Self {
        let mut object_count = 0;
        let mut query_count = 0;
        for m in &members {
            match m.entity {
                EntityRef::Object(_) => object_count += 1,
                EntityRef::Query(_) => query_count += 1,
            }
        }
        MovingCluster {
            cid,
            centroid,
            radius: radius.max(0.0),
            cn_loc,
            ave_speed,
            members,
            object_count,
            query_count,
            created_at,
            max_query_radius: max_query_radius.max(0.0),
        }
    }

    /// Records the reach of a query member's range spec.
    fn note_query_radius(&mut self, update: &LocationUpdate) {
        if let scuba_motion::EntityAttrs::Query(attrs) = &update.attrs {
            let r = attrs.spec.bounding_radius();
            if r > self.max_query_radius {
                self.max_query_radius = r;
            }
        }
    }

    fn push_member(&mut self, entity: EntityRef, speed: f64, pos: Option<Point>, seen: Time) {
        match entity {
            EntityRef::Object(_) => self.object_count += 1,
            EntityRef::Query(_) => self.query_count += 1,
        }
        self.members.push(Member {
            entity,
            speed,
            pos,
            last_seen: seen,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_motion::{ObjectAttrs, ObjectId, QueryAttrs, QueryId, QuerySpec};

    fn obj_update(id: u64, loc: Point, speed: f64, cn: Point) -> LocationUpdate {
        LocationUpdate::object(ObjectId(id), loc, 0, speed, cn, ObjectAttrs::default())
    }

    fn qry_update(id: u64, loc: Point, speed: f64, cn: Point) -> LocationUpdate {
        LocationUpdate::query(
            QueryId(id),
            loc,
            0,
            speed,
            cn,
            QueryAttrs {
                spec: QuerySpec::square_range(10.0),
            },
        )
    }

    const CN: Point = Point { x: 1000.0, y: 0.0 };

    /// Entity-keyed conveniences over the positional member API (the
    /// engine resolves positions through its directory instead).
    fn update_member(c: &mut MovingCluster, u: &LocationUpdate, shed: bool) {
        let idx = c.position(u.entity).expect("entity is a member");
        c.update_member_at(idx, u, shed);
    }

    fn remove_member(c: &mut MovingCluster, entity: EntityRef) -> Member {
        let idx = c.position(entity).expect("entity is a member");
        c.remove_member_at(idx).0
    }

    fn founder() -> MovingCluster {
        MovingCluster::found(
            ClusterId(1),
            &obj_update(1, Point::new(0.0, 0.0), 30.0, CN),
            false,
        )
    }

    #[test]
    fn founding_matches_paper_step2() {
        let c = founder();
        assert_eq!(c.len(), 1);
        assert_eq!(c.radius(), 0.0);
        assert!(c.centroid().approx_eq(&Point::new(0.0, 0.0)));
        assert!(c.cn_loc().approx_eq(&CN));
        assert_eq!(c.ave_speed(), 30.0);
        assert_eq!(c.object_count(), 1);
        assert_eq!(c.query_count(), 0);
        assert!(!c.is_mixed());
    }

    #[test]
    fn can_absorb_checks_all_three_conditions() {
        let c = founder();
        let good = obj_update(2, Point::new(50.0, 0.0), 35.0, CN);
        assert!(c.can_absorb(&good, 100.0, 10.0));

        // Wrong direction.
        let wrong_cn = obj_update(2, Point::new(50.0, 0.0), 35.0, Point::new(0.0, 1000.0));
        assert!(!c.can_absorb(&wrong_cn, 100.0, 10.0));

        // Too far.
        let far = obj_update(2, Point::new(150.0, 0.0), 35.0, CN);
        assert!(!c.can_absorb(&far, 100.0, 10.0));

        // Too fast.
        let fast = obj_update(2, Point::new(50.0, 0.0), 45.0, CN);
        assert!(!c.can_absorb(&fast, 100.0, 10.0));

        // Boundary cases are inclusive.
        let at_theta_d = obj_update(2, Point::new(100.0, 0.0), 30.0, CN);
        assert!(c.can_absorb(&at_theta_d, 100.0, 10.0));
        let at_theta_s = obj_update(2, Point::new(50.0, 0.0), 40.0, CN);
        assert!(c.can_absorb(&at_theta_s, 100.0, 10.0));
    }

    #[test]
    fn absorb_adjusts_centroid_speed_radius_count() {
        let mut c = founder();
        c.absorb(&obj_update(2, Point::new(60.0, 0.0), 40.0, CN), false);
        assert_eq!(c.len(), 2);
        // Centroid pulled halfway toward the new member.
        assert!(c.centroid().approx_eq(&Point::new(30.0, 0.0)));
        assert_eq!(c.ave_speed(), 35.0);
        // Radius covers both members (30 each side; plus the |δ| slack).
        assert!(c.radius() >= 30.0);
    }

    #[test]
    fn members_hold_their_reported_points_bit_for_bit() {
        // Decimal coordinates: every absorb rounds the centroid, so a
        // position rebuilt from an offset to it would miss these bits.
        let mut c = founder();
        let mut reported = vec![(EntityRef::Object(ObjectId(1)), Point::new(0.0, 0.0))];
        for k in 2..14u64 {
            let p = Point::new(0.1 * k as f64 + 0.3, 0.7 - 0.13 * k as f64);
            let u = if k % 3 == 0 {
                qry_update(k, p, 30.0, CN)
            } else {
                obj_update(k, p, 30.0, CN)
            };
            c.absorb(&u, false);
            reported.push((u.entity, p));
        }
        for (k, at) in [(3u64, 1.7), (5, 2.9), (8, 0.45), (11, 3.3)] {
            let p = Point::new(at, 0.1 * at);
            let u = if k % 3 == 0 {
                qry_update(k, p, 30.0, CN)
            } else {
                obj_update(k, p, 30.0, CN)
            };
            update_member(&mut c, &u, false);
            reported.iter_mut().find(|(e, _)| *e == u.entity).unwrap().1 = p;
        }
        c.absorb(&obj_update(14, Point::new(0.35, 0.15), 30.0, CN), true);
        c.absorb(&obj_update(15, Point::new(1.05, -0.55), 30.0, CN), false);
        reported.push((EntityRef::Object(ObjectId(15)), Point::new(1.05, -0.55)));

        assert!(c.members().iter().any(Member::is_shed));
        for (entity, p) in reported {
            let pos = c.member(entity).unwrap().pos.unwrap();
            assert_eq!(
                (pos.x.to_bits(), pos.y.to_bits()),
                (p.x.to_bits(), p.y.to_bits()),
                "{entity}: {pos:?} vs reported {p:?}"
            );
        }
    }

    #[test]
    fn radius_covers_all_members() {
        let mut c = founder();
        let points = [
            Point::new(60.0, 0.0),
            Point::new(-40.0, 20.0),
            Point::new(10.0, -70.0),
            Point::new(35.0, 35.0),
        ];
        for (i, p) in points.iter().enumerate() {
            c.absorb(&obj_update(i as u64 + 2, *p, 30.0, CN), false);
        }
        for m in c.members() {
            let pos = m.pos.unwrap();
            assert!(
                pos.distance(&c.centroid()) <= c.radius() + 1e-9,
                "member at {pos:?} outside radius {}",
                c.radius()
            );
        }
    }

    #[test]
    fn mixed_cluster_counts() {
        let mut c = founder();
        c.absorb(&qry_update(7, Point::new(10.0, 0.0), 30.0, CN), false);
        assert!(c.is_mixed());
        assert_eq!(c.object_count(), 1);
        assert_eq!(c.query_count(), 1);
    }

    #[test]
    fn rigid_advance_translates_members() {
        let mut c = founder();
        c.absorb(&obj_update(2, Point::new(60.0, 0.0), 30.0, CN), false);
        let before: Vec<Point> = c.members().iter().map(|m| m.pos.unwrap()).collect();
        let centroid_before = c.centroid();
        c.advance(2.0); // ave speed 30 → moves 60 units toward (1000, 0)
        let moved = c.centroid() - centroid_before;
        assert!((moved.norm() - 60.0).abs() < 1e-9);
        for (m, old) in c.members().iter().zip(before) {
            let new = m.pos.unwrap();
            assert!((new - old).approx_eq(&moved));
        }
    }

    #[test]
    fn advance_does_not_overshoot_destination() {
        let mut c = MovingCluster::found(
            ClusterId(1),
            &obj_update(1, Point::new(990.0, 0.0), 30.0, CN),
            false,
        );
        assert!(c.passes_destination_within(2.0));
        c.advance(2.0);
        assert!(c.centroid().approx_eq(&CN));
    }

    #[test]
    fn velocity_points_at_destination() {
        let c = founder();
        let v = c.velocity();
        assert!((v.norm() - 30.0).abs() < 1e-9);
        assert!(v.dx > 0.0 && v.dy.abs() < 1e-12);
    }

    #[test]
    fn update_member_refreshes_position_and_speed() {
        let mut c = founder();
        c.absorb(&obj_update(2, Point::new(60.0, 0.0), 40.0, CN), false);
        update_member(
            &mut c,
            &obj_update(2, Point::new(80.0, 0.0), 50.0, CN),
            false,
        );
        let m = c.member(EntityRef::Object(ObjectId(2))).unwrap();
        assert!(m.pos.unwrap().distance(&Point::new(80.0, 0.0)) < 1e-9);
        assert_eq!(m.speed, 50.0);
        // ave = (30 + 50) / 2
        assert!((c.ave_speed() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn remove_member_adjusts_counts_and_speed() {
        let mut c = founder();
        c.absorb(&obj_update(2, Point::new(60.0, 0.0), 40.0, CN), false);
        c.absorb(&qry_update(3, Point::new(30.0, 0.0), 35.0, CN), false);
        assert!((c.ave_speed() - 35.0).abs() < 1e-9);

        let removed = remove_member(&mut c, EntityRef::Object(ObjectId(2)));
        assert_eq!(removed.speed, 40.0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.object_count(), 1);
        assert_eq!(c.query_count(), 1);
        assert!((c.ave_speed() - 32.5).abs() < 1e-9);

        // Remaining members still materialise correctly after swap_remove.
        let m3 = c.member(EntityRef::Query(QueryId(3))).unwrap();
        assert!(m3.pos.unwrap().distance(&Point::new(30.0, 0.0)) < 1e-9);

        assert!(!c.contains(EntityRef::Object(ObjectId(2))));
    }

    #[test]
    fn remove_member_at_reports_the_member_it_moved() {
        let mut c = founder();
        c.absorb(&obj_update(2, Point::new(60.0, 0.0), 40.0, CN), false);
        c.absorb(&qry_update(3, Point::new(30.0, 0.0), 35.0, CN), false);
        // Removing the middle member swaps the last one into its place.
        let (gone, moved) = c.remove_member_at(1);
        assert_eq!(gone.entity, EntityRef::Object(ObjectId(2)));
        assert_eq!(moved, Some(EntityRef::Query(QueryId(3))));
        assert_eq!(c.position(EntityRef::Query(QueryId(3))), Some(1));
        // Removing the last member moves nobody.
        let (gone, moved) = c.remove_member_at(1);
        assert_eq!(gone.entity, EntityRef::Query(QueryId(3)));
        assert_eq!(moved, None);
    }

    #[test]
    fn remove_last_member_empties_cluster() {
        let mut c = founder();
        remove_member(&mut c, EntityRef::Object(ObjectId(1)));
        assert!(c.is_empty());
        assert_eq!(c.ave_speed(), 0.0);
        assert_eq!(c.object_count(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already a member")]
    fn double_absorb_panics() {
        let mut c = founder();
        c.absorb(&obj_update(1, Point::new(10.0, 0.0), 30.0, CN), false);
    }

    #[test]
    fn shed_nucleus_discards_inner_positions() {
        let mut c = founder(); // member 1 at centroid
        c.absorb(&obj_update(2, Point::new(80.0, 0.0), 30.0, CN), false);
        c.absorb(&obj_update(3, Point::new(-80.0, 0.0), 30.0, CN), false);
        // Centroid is ~(0, 0); members 2 and 3 are ~80 away, member 1 ~0.
        let shed = c.shed_nucleus(40.0);
        assert_eq!(shed, 1);
        let m1 = c.member(EntityRef::Object(ObjectId(1))).unwrap();
        assert!(m1.is_shed());
        assert!(m1.pos.is_none());
        // Shedding again does nothing.
        assert_eq!(c.shed_nucleus(40.0), 0);
    }

    #[test]
    fn founding_with_shed_true() {
        let c = MovingCluster::found(
            ClusterId(9),
            &obj_update(1, Point::new(0.0, 0.0), 30.0, CN),
            true,
        );
        assert!(c.members()[0].is_shed());
    }

    #[test]
    fn shed_members_reduce_estimated_bytes() {
        let mut kept = founder();
        let mut shed = founder();
        for i in 2..20 {
            let u = obj_update(i, Point::new(i as f64, 0.0), 30.0, CN);
            kept.absorb(&u, false);
            shed.absorb(&u, true);
        }
        assert!(shed.estimated_bytes() < kept.estimated_bytes());
    }

    #[test]
    fn update_member_can_shed() {
        let mut c = founder();
        c.absorb(&obj_update(2, Point::new(10.0, 0.0), 30.0, CN), false);
        update_member(
            &mut c,
            &obj_update(2, Point::new(12.0, 0.0), 30.0, CN),
            true,
        );
        assert!(c.member(EntityRef::Object(ObjectId(2))).unwrap().is_shed());
    }

    #[test]
    fn numeric_stability_over_many_membership_changes() {
        // Thousands of absorb/update/remove cycles keep every member
        // covered by the radius and at a finite position.
        let mut c = founder();
        for round in 0..500u64 {
            let id = 1000 + (round % 40);
            let x = (round % 97) as f64 - 48.0;
            let y = (round % 89) as f64 - 44.0;
            let u = obj_update(id, Point::new(x, y), 30.0, CN);
            if c.contains(EntityRef::Object(ObjectId(id))) {
                if round % 3 == 0 {
                    remove_member(&mut c, EntityRef::Object(ObjectId(id)));
                } else {
                    update_member(&mut c, &u, false);
                }
            } else if u.loc.distance(&c.centroid()) <= 100.0 {
                c.absorb(&u, false);
            }
        }
        // Re-derive each member's position and verify the radius invariant
        // plus positional coherence (within floating error of Θ_D-scale
        // arithmetic).
        for m in c.members() {
            let pos = m.pos.expect("unshed");
            assert!(
                pos.distance(&c.centroid()) <= c.radius() + 1e-6,
                "member escaped the radius"
            );
            assert!(pos.x.is_finite() && pos.y.is_finite());
        }
        // The founder is still exactly reconstructible: it has never moved.
        if let Some(m1) = c.member(EntityRef::Object(ObjectId(1))) {
            let pos = m1.pos.unwrap();
            assert!(
                pos.distance(&Point::new(0.0, 0.0)) < 1e-6,
                "founder drifted to {pos:?}"
            );
        }
    }

    #[test]
    fn tighten_after_churn_shrinks_radius() {
        let mut c = founder();
        for i in 2..40u64 {
            let x = (i % 10) as f64 * 10.0;
            c.absorb(&obj_update(i, Point::new(x, 0.0), 30.0, CN), false);
        }
        // Remove the far members; the conservative radius stays large.
        for i in 2..40u64 {
            let Some(m) = c.member(EntityRef::Object(ObjectId(i))) else {
                continue;
            };
            if m.pos.unwrap().x > 40.0 {
                remove_member(&mut c, EntityRef::Object(ObjectId(i)));
            }
        }
        let before = c.radius();
        c.tighten(0.0);
        assert!(c.radius() <= before);
        // All remaining members covered exactly.
        let max_d = c
            .members()
            .iter()
            .map(|m| m.pos.unwrap().distance(&c.centroid()))
            .fold(0.0f64, f64::max);
        assert!((c.radius() - max_d).abs() < 1e-9);
    }
}
