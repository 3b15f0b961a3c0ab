//! Durable checkpoint/WAL layer and the supervised execution loop.
//!
//! A long-lived SCUBA deployment must survive two failure classes the plain
//! [`Executor`](scuba_stream::Executor) ignores:
//!
//! * **process death** (crash, OOM-kill, power loss) — handled by interval
//!   **checkpoints** (a full [`EngineSnapshot`] per stripe, written with the
//!   atomic temp-file → fsync → rename protocol and a CRC32-guarded header)
//!   plus a **write-ahead journal** of every tick's delivered batch between
//!   checkpoints. [`recover`] loads the newest intact checkpoint and replays
//!   the journal's contiguous prefix; a torn tail (the frame being appended
//!   when the process died) is tolerated and replay simply stops there.
//! * **worker panics** inside the sharded evaluate pipeline — handled by
//!   [`run_supervised`]: the epoch's poisoned in-memory state is discarded
//!   wholesale and the operator is rebuilt from the last checkpoint plus the
//!   in-memory journal of frames since, under a bounded restart budget with
//!   exponential backoff. Budget exhaustion aborts the run (the give-up
//!   path), reported via [`RunReport::aborted`].
//!
//! The checkpoint payload uses a hand-rolled, versioned binary codec — the
//! one on-disk form of engine state — so the format is self-contained,
//! byte-stable and cheap to checksum; journal frames carry the wire encoding from
//! [`scuba_motion::wire`]. Recovery is **identity-preserving**: because
//! ingestion and evaluation are deterministic, a run resumed from durable
//! state produces the same answers and the same final engine state as an
//! uninterrupted run (see DESIGN.md §4.9 for the argument and its
//! replayable-source caveat).

use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use scuba_motion::wire::{self, read_f64, read_u32, read_u64, read_u8, DecodeError};
use scuba_motion::{
    control, ControlOp, EntityRef, LocationUpdate, ObjectAttrs, ObjectClass, ObjectId, QueryAttrs,
    QueryId,
};
use scuba_spatial::{Point, Rect, Time, Vector};
use scuba_stream::{
    ContinuousOperator, EvaluationReport, LatencyTrack, PanicInjector, RunReport, Stopwatch,
    UpdateSource, UpdateValidator, ValidationPolicy,
};

use crate::cluster::{ClusterId, Member, MovingCluster};
use crate::engine::ScubaOperator;
use crate::params::ScubaParams;
use crate::registry::{ControlGauges, QueryRecord, QueryRegistry};
use crate::shard::{ShardedScubaOperator, WorkerFailure};
use crate::shedding::SheddingMode;
use crate::snapshot::{EngineSnapshot, SnapshotError};

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected) — hand-rolled so the durable format has no
// dependency beyond the standard library. Slicing-by-16: sixteen tables
// fold sixteen input bytes per step; the values are those of the byte-wise
// loop.
// ---------------------------------------------------------------------------

const CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    // tables[t][i] is the CRC of byte `i` followed by `t` zero bytes.
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// Incremental IEEE CRC32: feeding the pieces of a byte string through
/// [`Crc32::update`] in order gives [`crc32`] of the whole.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// The state before any input.
    pub fn new() -> Self {
        Crc32(0xffff_ffff)
    }

    /// Folds `data` in.
    pub fn update(&mut self, data: &[u8]) {
        let (t, mut c) = (&CRC_TABLES, self.0);
        let mut chunks = data.chunks_exact(16);
        for ch in &mut chunks {
            let ch: &[u8; 16] = ch.try_into().expect("a 16-byte chunk");
            let lo = (c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]])).to_le_bytes();
            c = t[15][lo[0] as usize]
                ^ t[14][lo[1] as usize]
                ^ t[13][lo[2] as usize]
                ^ t[12][lo[3] as usize]
                ^ t[11][ch[4] as usize]
                ^ t[10][ch[5] as usize]
                ^ t[9][ch[6] as usize]
                ^ t[8][ch[7] as usize]
                ^ t[7][ch[8] as usize]
                ^ t[6][ch[9] as usize]
                ^ t[5][ch[10] as usize]
                ^ t[4][ch[11] as usize]
                ^ t[3][ch[12] as usize]
                ^ t[2][ch[13] as usize]
                ^ t[1][ch[14] as usize]
                ^ t[0][ch[15] as usize];
        }
        for &b in chunks.remainder() {
            c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The checksum of everything fed so far.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xffff_ffff
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// IEEE CRC32 (the `cksum`/zlib polynomial, reflected) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    checksum(&[data])
}

/// CRC32 of the concatenation of `parts`.
fn checksum(parts: &[&[u8]]) -> u32 {
    let mut crc = Crc32::new();
    for part in parts {
        crc.update(part);
    }
    crc.finish()
}

// ---------------------------------------------------------------------------
// Binary snapshot codec.
// ---------------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => put_u8(out, 0),
        Some(x) => {
            put_u8(out, 1);
            put_u64(out, x);
        }
    }
}

fn put_point(out: &mut Vec<u8>, p: Point) {
    put_f64(out, p.x);
    put_f64(out, p.y);
}

fn put_vector(out: &mut Vec<u8>, v: Vector) {
    put_f64(out, v.dx);
    put_f64(out, v.dy);
}

/// Payloads are read with [`scuba_motion::wire`]'s cursor: a short read is
/// [`SnapshotError::Truncated`].
impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => SnapshotError::Truncated,
            DecodeError::BadTag(t) => SnapshotError::Inconsistent(format!("bad tag {t}")),
            DecodeError::RetiredQueryKind => SnapshotError::RetiredQueryKind,
        }
    }
}

// The composite fields read through the same cursor; every invalid enum
// tag is `SnapshotError::Inconsistent`.

fn read_bool(r: &mut &[u8]) -> Result<bool, SnapshotError> {
    match read_u8(r)? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(SnapshotError::Inconsistent(format!("bad bool tag {t}"))),
    }
}

fn read_opt_u64(r: &mut &[u8]) -> Result<Option<u64>, SnapshotError> {
    match read_u8(r)? {
        0 => Ok(None),
        1 => Ok(Some(read_u64(r)?)),
        t => Err(SnapshotError::Inconsistent(format!("bad option tag {t}"))),
    }
}

fn read_point(r: &mut &[u8]) -> Result<Point, SnapshotError> {
    Ok(Point {
        x: read_f64(r)?,
        y: read_f64(r)?,
    })
}

fn read_vector(r: &mut &[u8]) -> Result<Vector, SnapshotError> {
    Ok(Vector {
        dx: read_f64(r)?,
        dy: read_f64(r)?,
    })
}

/// A checked element count: an upper bound derived from the remaining
/// payload keeps a corrupted count from triggering a huge allocation.
fn read_count(r: &mut &[u8], min_elem_bytes: usize) -> Result<usize, SnapshotError> {
    let n = read_u64(r)? as usize;
    if n.saturating_mul(min_elem_bytes.max(1)) > r.len() {
        return Err(SnapshotError::Truncated);
    }
    Ok(n)
}

fn encode_params(out: &mut Vec<u8>, p: &ScubaParams) {
    put_f64(out, p.theta_d);
    put_f64(out, p.theta_s);
    put_u32(out, p.grid_cells);
    put_u64(out, p.delta);
    // Slots of knobs that no longer exist keep their last default values,
    // so the layout (and `FORMAT_VERSION`) is unchanged.
    put_f64(out, 1e-6); // was cnloc_tolerance
    match p.shedding {
        SheddingMode::None => put_u8(out, 0),
        SheddingMode::Partial { eta } => {
            put_u8(out, 1);
            put_f64(out, eta);
        }
        SheddingMode::Full => put_u8(out, 2),
    }
    put_u8(out, 0); // was probe_scope (Θ_D disk)
    put_bool(out, true); // was member_filter
    put_bool(out, true); // was tighten_radii
    put_opt_u64(out, p.entity_ttl);
    put_u64(out, 1); // was parallelism
    put_bool(out, true); // was join_cache
    put_u64(out, 0); // was ingest_shards
    put_bool(out, true); // was batch_ingest
    put_u8(
        out,
        match p.validation {
            ValidationPolicy::Off => 0,
            ValidationPolicy::Reject => 1,
            ValidationPolicy::Clamp => 2,
            ValidationPolicy::Abort => 3,
        },
    );
    put_opt_u64(out, p.deadline_us);
    // Three more retired slots, the adaptive grid's index kind and
    // split/merge thresholds, likewise keep their old defaults.
    put_u8(out, 0); // was index (uniform)
    put_u32(out, 32); // was split_threshold
    put_u32(out, 8); // was merge_threshold
    put_u64(out, p.shards as u64);
    put_u8(out, 0); // was kernel (scalar)
}

fn decode_params(r: &mut &[u8]) -> Result<ScubaParams, SnapshotError> {
    let theta_d = read_f64(r)?;
    let theta_s = read_f64(r)?;
    let grid_cells = read_u32(r)?;
    let delta = read_u64(r)?;
    read_f64(r)?; // the retired direction tolerance
    let shedding = match read_u8(r)? {
        0 => SheddingMode::None,
        1 => SheddingMode::Partial { eta: read_f64(r)? },
        2 => SheddingMode::Full,
        t => return Err(SnapshotError::Inconsistent(format!("bad shedding tag {t}"))),
    };
    // The retired probe scope (0 Θ_D disk, 1 own cell), member-filter
    // and radius-tightening flags: any valid value decodes to the same
    // engine.
    let probe = read_u8(r)?;
    if probe > 1 {
        return Err(SnapshotError::Inconsistent(format!(
            "bad probe-scope tag {probe}"
        )));
    }
    read_bool(r)?;
    read_bool(r)?;
    let entity_ttl = read_opt_u64(r)?;
    // The four retired slots (the join-within worker count, the cache
    // flag, then the two ingest knobs): whatever valid value an older
    // writer put there is skipped.
    read_u64(r)?;
    read_bool(r)?;
    read_u64(r)?;
    read_bool(r)?;
    let validation = match read_u8(r)? {
        0 => ValidationPolicy::Off,
        1 => ValidationPolicy::Reject,
        2 => ValidationPolicy::Clamp,
        3 => ValidationPolicy::Abort,
        t => {
            return Err(SnapshotError::Inconsistent(format!(
                "bad validation tag {t}"
            )))
        }
    };
    let deadline_us = read_opt_u64(r)?;
    // The retired index kind (0 uniform, 1 adaptive) and its two
    // thresholds: any valid value decodes to the same engine.
    let index = read_u8(r)?;
    if index > 1 {
        return Err(SnapshotError::Inconsistent(format!(
            "bad index tag {index}"
        )));
    }
    read_u32(r)?;
    read_u32(r)?;
    let shards = read_u64(r)? as usize;
    // The retired kernel kind (0 scalar, 1 wide): both decode to the same
    // engine.
    let kernel = read_u8(r)?;
    if kernel > 1 {
        return Err(SnapshotError::Inconsistent(format!(
            "bad kernel tag {kernel}"
        )));
    }
    Ok(ScubaParams {
        theta_d,
        theta_s,
        grid_cells,
        delta,
        shedding,
        entity_ttl,
        validation,
        deadline_us,
        shards,
    })
}

fn encode_entity(out: &mut Vec<u8>, e: EntityRef) {
    match e {
        EntityRef::Object(ObjectId(id)) => {
            put_u8(out, 0);
            put_u64(out, id);
        }
        EntityRef::Query(QueryId(id)) => {
            put_u8(out, 1);
            put_u64(out, id);
        }
    }
}

fn decode_entity(r: &mut &[u8]) -> Result<EntityRef, SnapshotError> {
    match read_u8(r)? {
        0 => Ok(EntityRef::Object(ObjectId(read_u64(r)?))),
        1 => Ok(EntityRef::Query(QueryId(read_u64(r)?))),
        t => Err(SnapshotError::Inconsistent(format!("bad entity tag {t}"))),
    }
}

/// Encodes one engine snapshot into `out` with the versioned binary layout.
fn encode_snapshot(out: &mut Vec<u8>, s: &EngineSnapshot) {
    encode_params(out, &s.params);
    put_point(out, s.area.min);
    put_point(out, s.area.max);
    put_u64(out, s.next_cluster_id);
    put_u64(out, s.updates_processed);
    put_u64(out, s.clusters.len() as u64);
    for c in &s.clusters {
        put_u64(out, c.cid.0);
        put_point(out, c.centroid());
        put_f64(out, c.radius());
        put_point(out, c.cn_loc());
        put_f64(out, c.ave_speed());
        put_u64(out, c.created_at());
        put_f64(out, c.max_query_radius());
        // The retired drift slot, like the params' retired ones: read only
        // to migrate member tags 1 and 2.
        put_vector(out, Vector::ZERO);
        put_u64(out, c.len() as u64);
        for m in c.members() {
            encode_entity(out, m.entity);
            put_f64(out, m.speed);
            // Tag 3: the position. Tag 4: shed. Tags 0–2 are read only.
            match m.pos {
                Some(p) => {
                    put_u8(out, 3);
                    put_point(out, p);
                }
                None => put_u8(out, 4),
            }
            put_u64(out, m.last_seen);
        }
    }
    put_u64(out, s.objects.len() as u64);
    for (ObjectId(id), attrs) in &s.objects {
        put_u64(out, *id);
        put_u8(
            out,
            ObjectClass::ALL
                .iter()
                .position(|c| *c == attrs.class)
                .expect("class in ALL") as u8,
        );
    }
    put_u64(out, s.queries.len() as u64);
    for (QueryId(id), attrs) in &s.queries {
        put_u64(out, *id);
        wire::encode_spec(&attrs.spec, out);
    }
}

fn decode_snapshot(r: &mut &[u8]) -> Result<EngineSnapshot, SnapshotError> {
    let params = decode_params(r)?;
    let area = Rect {
        min: read_point(r)?,
        max: read_point(r)?,
    };
    let next_cluster_id = read_u64(r)?;
    let updates_processed = read_u64(r)?;
    let n_clusters = read_count(r, 8 * 8 + 8 + 8)?;
    let mut clusters = Vec::with_capacity(n_clusters);
    for _ in 0..n_clusters {
        let cid = read_u64(r)?;
        let centroid = read_point(r)?;
        let radius = read_f64(r)?;
        let cn_loc = read_point(r)?;
        let ave_speed = read_f64(r)?;
        let created_at = read_u64(r)?;
        let max_query_radius = read_f64(r)?;
        let total_drift = read_vector(r)?;
        let n_members = read_count(r, 9 + 8 + 1 + 8)?;
        let mut members = Vec::with_capacity(n_members);
        for _ in 0..n_members {
            let entity = decode_entity(r)?;
            let speed = read_f64(r)?;
            let (pos, last_seen) = match read_u8(r)? {
                3 => (Some(read_point(r)?), read_u64(r)?),
                4 => (None, read_u64(r)?),
                // Written while members were offsets from the centroid
                // under a drift mark: tag 0 shed, tag 1 `(r, θ)` from the
                // polar form before that, tag 2 the offset. They migrate
                // through the expressions that materialised them then, so
                // each member lands at the same bits.
                tag @ 0..=2 => {
                    let rel = match tag {
                        0 => None,
                        1 => {
                            let (radius, theta) = (read_f64(r)?, read_f64(r)?);
                            Some(Vector {
                                dx: radius * theta.cos(),
                                dy: radius * theta.sin(),
                            })
                        }
                        _ => Some(read_vector(r)?),
                    };
                    let last_seen = read_u64(r)?;
                    let drift_mark = read_vector(r)?;
                    let pos = rel.map(|rel| centroid + rel - (total_drift - drift_mark));
                    (pos, last_seen)
                }
                t => {
                    return Err(SnapshotError::Inconsistent(format!(
                        "bad member position tag {t}"
                    )))
                }
            };
            members.push(Member {
                entity,
                speed,
                pos,
                last_seen,
            });
        }
        clusters.push(MovingCluster::from_parts(
            ClusterId(cid),
            centroid,
            radius,
            cn_loc,
            ave_speed,
            created_at,
            max_query_radius,
            members,
        ));
    }
    let n_objects = read_count(r, 9)?;
    let mut objects = Vec::with_capacity(n_objects);
    for _ in 0..n_objects {
        let id = ObjectId(read_u64(r)?);
        let tag = read_u8(r)? as usize;
        let class = *ObjectClass::ALL
            .get(tag)
            .ok_or_else(|| SnapshotError::Inconsistent(format!("bad class tag {tag}")))?;
        objects.push((id, ObjectAttrs { class }));
    }
    let n_queries = read_count(r, 9)?;
    let mut queries = Vec::with_capacity(n_queries);
    for _ in 0..n_queries {
        let id = QueryId(read_u64(r)?);
        let spec = wire::decode_spec(r)?;
        queries.push((id, QueryAttrs { spec }));
    }
    Ok(EngineSnapshot {
        params,
        area,
        next_cluster_id,
        updates_processed,
        clusters,
        objects,
        queries,
    })
}

/// Encodes the query registry: entry count, the entries in `QueryId`
/// order (id, registration tick, spec, owner stripe), then the three
/// lifetime churn counters.
fn encode_registry(out: &mut Vec<u8>, registry: &QueryRegistry) {
    put_u64(out, registry.len() as u64);
    for (QueryId(id), rec) in registry.sorted_entries() {
        put_u64(out, id);
        put_u64(out, rec.registered_at);
        wire::encode_spec(&rec.spec, out);
        match rec.owner {
            None => put_u8(out, 0),
            Some(s) => {
                put_u8(out, 1);
                put_u32(out, s as u32);
            }
        }
    }
    let g = registry.gauges();
    put_u64(out, g.registered_total);
    put_u64(out, g.deregistered_total);
    put_u64(out, g.unknown_total);
}

fn decode_registry(r: &mut &[u8]) -> Result<QueryRegistry, SnapshotError> {
    let n = read_count(r, 9)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let qid = QueryId(read_u64(r)?);
        let registered_at = read_u64(r)?;
        let spec = wire::decode_spec(r)?;
        let owner = match read_u8(r)? {
            0 => None,
            1 => Some(read_u32(r)? as u16),
            t => return Err(SnapshotError::Inconsistent(format!("bad owner tag {t}"))),
        };
        entries.push((
            qid,
            QueryRecord {
                registered_at,
                spec,
                owner,
            },
        ));
    }
    let registered_total = read_u64(r)?;
    let deregistered_total = read_u64(r)?;
    let unknown_total = read_u64(r)?;
    Ok(QueryRegistry::from_parts(
        entries,
        registered_total,
        deregistered_total,
        unknown_total,
    ))
}

// ---------------------------------------------------------------------------
// Checkpoint files.
// ---------------------------------------------------------------------------

const CKPT_MAGIC: &[u8; 4] = b"SCBC";
const JRNL_MAGIC: &[u8; 4] = b"SCBJ";
/// On-disk format version of checkpoints and journal segments.
const FORMAT_VERSION: u32 = 1;
const CKPT_HEADER: usize = 4 + 4 + 8 + 8 + 4;
const JRNL_HEADER: usize = 4 + 4 + 8;

/// What a checkpoint file holds: the tick it was taken at, one engine
/// snapshot per stripe (a single-store operator is one stripe), and the
/// control-plane query registry at that tick.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// The tick after which the snapshot was captured.
    pub tick: Time,
    /// One snapshot per shard stripe, in shard order.
    pub stripes: Vec<EngineSnapshot>,
    /// The active query set and its churn counters at capture time.
    /// Checkpoints written before the control plane existed decode to an
    /// empty registry (the restore path then seeds it from the engines'
    /// query tables).
    pub registry: QueryRegistry,
}

/// Serialises a checkpoint: `SCBC` magic, format version, tick, payload
/// length, CRC32 of the payload, then the payload (stripe count followed by
/// each stripe's binary snapshot, followed by the query registry).
pub fn encode_checkpoint(
    tick: Time,
    stripes: &[EngineSnapshot],
    registry: &QueryRegistry,
) -> Vec<u8> {
    // One buffer: header first with length and checksum left blank, the
    // payload encoded in place behind it, then the two fields patched.
    let mut out = Vec::new();
    out.extend_from_slice(CKPT_MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u64(&mut out, tick);
    out.resize(CKPT_HEADER, 0);
    put_u64(&mut out, stripes.len() as u64);
    for s in stripes {
        encode_snapshot(&mut out, s);
    }
    encode_registry(&mut out, registry);
    let payload_len = (out.len() - CKPT_HEADER) as u64;
    out[16..24].copy_from_slice(&payload_len.to_le_bytes());
    // The checksum covers tick + declared length + payload, so a flipped
    // bit anywhere past the version field is caught, not just in the body.
    let crc = checksum(&[&out[8..24], &out[CKPT_HEADER..]]);
    out[24..CKPT_HEADER].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Parses and verifies a checkpoint previously produced by
/// [`encode_checkpoint`]: magic, version, declared length and checksum are
/// all checked before the payload is decoded.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointState, SnapshotError> {
    if bytes.len() < 4 {
        return Err(SnapshotError::Truncated);
    }
    if &bytes[..4] != CKPT_MAGIC {
        return Err(SnapshotError::NotACheckpoint);
    }
    if bytes.len() < CKPT_HEADER {
        return Err(SnapshotError::Truncated);
    }
    let mut header = &bytes[4..CKPT_HEADER];
    let version = read_u32(&mut header)?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::VersionMismatch {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let tick = read_u64(&mut header)?;
    let payload_len = read_u64(&mut header)? as usize;
    let stored = read_u32(&mut header)?;
    let payload = CKPT_HEADER
        .checked_add(payload_len)
        .and_then(|end| bytes.get(CKPT_HEADER..end))
        .ok_or(SnapshotError::Truncated)?;
    let computed = checksum(&[&bytes[8..24], payload]);
    if computed != stored {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    let mut r = payload;
    let n = read_count(&mut r, 8)?;
    let mut stripes = Vec::with_capacity(n);
    for _ in 0..n {
        stripes.push(decode_snapshot(&mut r)?);
    }
    // The registry section was appended to the payload after the stripes;
    // its absence (a checkpoint from before the control plane) decodes to
    // an empty registry rather than an error.
    let registry = if !r.is_empty() {
        decode_registry(&mut r)?
    } else {
        QueryRegistry::default()
    };
    Ok(CheckpointState {
        tick,
        stripes,
        registry,
    })
}

fn checkpoint_path(dir: &Path, tick: Time) -> PathBuf {
    dir.join(format!("checkpoint-{tick:012}.ckpt"))
}

fn journal_path(dir: &Path, base_tick: Time) -> PathBuf {
    dir.join(format!("journal-{base_tick:012}.wal"))
}

fn io_err(path: &Path, source: std::io::Error) -> DurabilityError {
    DurabilityError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Writes a checkpoint atomically: the encoding goes to a `.tmp` sibling,
/// is fsynced, then renamed over the final name, so a crash mid-write can
/// never leave a half-written file under the checkpoint name. Returns the
/// bytes written.
pub fn write_checkpoint(
    dir: &Path,
    tick: Time,
    stripes: &[EngineSnapshot],
    registry: &QueryRegistry,
) -> Result<u64, DurabilityError> {
    let bytes = encode_checkpoint(tick, stripes, registry);
    let path = checkpoint_path(dir, tick);
    let tmp = path.with_extension("ckpt.tmp");
    {
        let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        f.write_all(&bytes).map_err(|e| io_err(&tmp, e))?;
        f.sync_all().map_err(|e| io_err(&tmp, e))?;
    }
    fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
    // Durable rename needs the directory entry flushed too; best-effort —
    // not every filesystem lets you fsync a directory handle.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(bytes.len() as u64)
}

/// Reads and verifies one checkpoint file.
pub fn read_checkpoint(path: &Path) -> Result<CheckpointState, DurabilityError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    decode_checkpoint(&bytes).map_err(|e| match e {
        SnapshotError::RetiredQueryKind => DurabilityError::RetiredQueryKind {
            path: path.to_path_buf(),
        },
        source => DurabilityError::Snapshot {
            path: path.to_path_buf(),
            source,
        },
    })
}

// ---------------------------------------------------------------------------
// Write-ahead journal.
// ---------------------------------------------------------------------------

/// One journal frame: the batch of updates delivered at one tick, exactly
/// as the operator ingested them (post fault-injection, pre validation),
/// plus the tick's control ops. Controls are applied **before** the data
/// batch on replay, matching the live ordering contract
/// ([`scuba_motion::control`]).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalFrame {
    /// The tick this batch was delivered at.
    pub tick: Time,
    /// The delivered updates, in delivery order.
    pub updates: Vec<LocationUpdate>,
    /// The tick's control ops, in delivery order. Frames written before
    /// the control plane existed decode to an empty list.
    pub controls: Vec<ControlOp>,
}

/// A parsed journal segment.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalSegment {
    /// The checkpoint tick this segment extends (frames start at
    /// `base_tick + 1`).
    pub base_tick: Time,
    /// The frames whose length and checksum verified, in order.
    pub frames: Vec<JournalFrame>,
    /// Whether the segment ended in a torn or corrupt frame (everything
    /// after the last good frame is discarded).
    pub torn_tail: bool,
}

/// Appends length-prefixed, CRC-guarded frames to one journal segment.
///
/// One segment exists per checkpoint; creating a writer for a base tick
/// truncates any previous segment with the same name (intentional — on
/// resume the supervised loop re-checkpoints and starts a fresh segment, so
/// a stale journal from the killed run must not be mistaken for new
/// frames).
#[derive(Debug)]
pub struct JournalWriter {
    file: fs::File,
    path: PathBuf,
    frames: u64,
    bytes: u64,
    sync: bool,
    /// The frame under construction, reused across appends.
    frame: Vec<u8>,
}

impl JournalWriter {
    /// Creates (truncating) the segment for `base_tick` and writes its
    /// header. `sync` selects whether every append is fdatasync'd — the
    /// durable default — or left to the OS cache (faster, loses the tail
    /// on power failure but not on process death).
    pub fn create(dir: &Path, base_tick: Time, sync: bool) -> Result<Self, DurabilityError> {
        let path = journal_path(dir, base_tick);
        let mut file = fs::File::create(&path).map_err(|e| io_err(&path, e))?;
        let mut header = Vec::with_capacity(JRNL_HEADER);
        header.extend_from_slice(JRNL_MAGIC);
        put_u32(&mut header, FORMAT_VERSION);
        put_u64(&mut header, base_tick);
        file.write_all(&header).map_err(|e| io_err(&path, e))?;
        if sync {
            file.sync_data().map_err(|e| io_err(&path, e))?;
        }
        Ok(JournalWriter {
            file,
            path,
            frames: 0,
            bytes: JRNL_HEADER as u64,
            sync,
            frame: Vec::new(),
        })
    }

    /// Appends one tick's batch as a single control-free frame. See
    /// [`JournalWriter::append_frame`].
    pub fn append(
        &mut self,
        tick: Time,
        updates: &[LocationUpdate],
    ) -> Result<u64, DurabilityError> {
        self.append_frame(tick, updates, &[])
    }

    /// Appends one tick's control ops and batch as a single frame and
    /// returns the bytes written. Called *before* the operator sees
    /// either, making this a write-ahead log; the control section trails
    /// the updates so pre-control-plane readers' frames parse as a prefix
    /// of this layout.
    pub fn append_frame(
        &mut self,
        tick: Time,
        updates: &[LocationUpdate],
        controls: &[ControlOp],
    ) -> Result<u64, DurabilityError> {
        // Encoded straight into the reused frame buffer: the 8-byte
        // header (payload length, CRC32) is reserved up front and patched
        // once the payload behind it is complete.
        let frame = &mut self.frame;
        frame.clear();
        frame.extend_from_slice(&[0; 8]);
        put_u64(frame, tick);
        put_u32(frame, updates.len() as u32);
        for u in updates {
            wire::encode_into(u, frame);
        }
        put_u32(frame, controls.len() as u32);
        for op in controls {
            control::encode_into(op, frame);
        }
        let len = (frame.len() - 8) as u32;
        let crc = crc32(&frame[8..]);
        frame[..4].copy_from_slice(&len.to_le_bytes());
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        self.file
            .write_all(frame)
            .map_err(|e| io_err(&self.path, e))?;
        if self.sync {
            self.file.sync_data().map_err(|e| io_err(&self.path, e))?;
        }
        self.frames += 1;
        self.bytes += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// Frames appended to this segment so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Total bytes written to this segment, header included.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Reads one journal segment, stopping cleanly at the first torn or corrupt
/// frame (short length prefix, short payload, checksum mismatch, or a
/// payload the wire decoder rejects). A bad segment *header* is an error —
/// it means the file is not a journal at all — and so is a frame that
/// verifies but holds a retired query kind: that frame was written whole,
/// and dropping it would silently change the answers.
fn read_journal(path: &Path) -> Result<JournalSegment, DurabilityError> {
    let mut bytes = Vec::new();
    fs::File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err(path, e))?;
    if bytes.len() < JRNL_HEADER || &bytes[..4] != JRNL_MAGIC {
        return Err(DurabilityError::Journal {
            path: path.to_path_buf(),
            detail: "missing or foreign segment header".into(),
        });
    }
    let mut header = &bytes[4..JRNL_HEADER];
    let version = read_u32(&mut header).expect("header length checked");
    if version != FORMAT_VERSION {
        return Err(DurabilityError::Journal {
            path: path.to_path_buf(),
            detail: format!("unsupported segment version {version}"),
        });
    }
    let base_tick = read_u64(&mut header).expect("header length checked");

    let mut frames = Vec::new();
    let mut pos = JRNL_HEADER;
    let mut torn_tail = false;
    while pos < bytes.len() {
        let Some(prefix) = bytes.get(pos..pos + 8) else {
            torn_tail = true;
            break;
        };
        let len = u32::from_le_bytes(prefix[..4].try_into().unwrap()) as usize;
        let stored = u32::from_le_bytes(prefix[4..8].try_into().unwrap());
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            torn_tail = true;
            break;
        };
        if crc32(payload) != stored {
            torn_tail = true;
            break;
        }
        match decode_frame(payload) {
            Ok(frame) => frames.push(frame),
            Err(DecodeError::RetiredQueryKind) => {
                return Err(DurabilityError::RetiredQueryKind {
                    path: path.to_path_buf(),
                })
            }
            Err(_) => {
                torn_tail = true;
                break;
            }
        }
        pos += 8 + len;
    }
    Ok(JournalSegment {
        base_tick,
        frames,
        torn_tail,
    })
}

/// Decodes one verified frame payload. Every record takes at least one
/// byte, so a corrupt count cannot reserve more than the payload holds.
fn decode_frame(mut payload: &[u8]) -> Result<JournalFrame, DecodeError> {
    let tick = read_u64(&mut payload)?;
    let count = read_u32(&mut payload)?;
    let mut updates = Vec::with_capacity((count as usize).min(payload.len()));
    for _ in 0..count {
        updates.push(wire::decode(&mut payload)?);
    }
    // Pre-control-plane frames end with the updates; newer ones append a
    // control count and the encoded ops.
    let mut controls = Vec::new();
    if !payload.is_empty() {
        let n = read_u32(&mut payload)?;
        controls.reserve((n as usize).min(payload.len()));
        for _ in 0..n {
            controls.push(control::decode(&mut payload)?);
        }
    }
    Ok(JournalFrame {
        tick,
        updates,
        controls,
    })
}

// ---------------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------------

/// Why a durability operation failed.
#[derive(Debug)]
pub enum DurabilityError {
    /// An I/O error on a checkpoint or journal file.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A checkpoint file failed verification or decoding.
    Snapshot {
        /// The file involved.
        path: PathBuf,
        /// The typed snapshot defect.
        source: SnapshotError,
    },
    /// A journal segment's header was missing or foreign.
    Journal {
        /// The file involved.
        path: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
    /// A checkpoint or journal frame verified but holds a query of a kind
    /// this engine no longer answers (a k-nearest-neighbour query). The
    /// durable state is refused rather than truncated or skipped.
    RetiredQueryKind {
        /// The file involved.
        path: PathBuf,
    },
    /// Checkpoints exist under the directory but none verified.
    NoValidCheckpoint {
        /// The checkpoint directory.
        dir: PathBuf,
        /// The newest checkpoint's defect.
        detail: String,
    },
    /// Replaying the journal over a restored operator faulted — the
    /// durable state and the journal disagree about what the engine can
    /// ingest, which should be impossible for files this layer wrote.
    ReplayFailed {
        /// The fault reported during replay.
        detail: String,
    },
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Io { path, source } => {
                write!(f, "i/o error on {}: {source}", path.display())
            }
            DurabilityError::Snapshot { path, source } => {
                write!(f, "bad checkpoint {}: {source}", path.display())
            }
            DurabilityError::Journal { path, detail } => {
                write!(f, "bad journal segment {}: {detail}", path.display())
            }
            DurabilityError::RetiredQueryKind { path } => write!(
                f,
                "{} holds a retired query kind (kNN); only range queries are answered",
                path.display()
            ),
            DurabilityError::NoValidCheckpoint { dir, detail } => {
                write!(f, "no valid checkpoint under {}: {detail}", dir.display())
            }
            DurabilityError::ReplayFailed { detail } => {
                write!(f, "journal replay failed: {detail}")
            }
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Io { source, .. } => Some(source),
            DurabilityError::Snapshot { source, .. } => Some(source),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Recovery.
// ---------------------------------------------------------------------------

/// What [`recover`] found on disk: the chosen checkpoint and the contiguous
/// journal suffix extending it.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// Tick of the checkpoint recovery starts from.
    pub checkpoint_tick: Time,
    /// The checkpoint's stripe snapshots.
    pub stripes: Vec<EngineSnapshot>,
    /// The checkpoint's query registry (empty for pre-control-plane
    /// checkpoints; the restore path then seeds from the query tables).
    pub registry: QueryRegistry,
    /// Journal frames after the checkpoint, contiguous from
    /// `checkpoint_tick + 1`.
    pub frames: Vec<JournalFrame>,
    /// Whether replay stopped early at a torn or missing frame.
    pub torn_tail: bool,
    /// Newer checkpoints that existed but failed verification and were
    /// skipped in favour of an older intact one.
    pub checkpoints_skipped: usize,
}

fn numbered_files(dir: &Path, prefix: &str, suffix: &str) -> Vec<(Time, PathBuf)> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(digits) = name
            .strip_prefix(prefix)
            .and_then(|rest| rest.strip_suffix(suffix))
        else {
            continue;
        };
        if let Ok(tick) = digits.parse::<u64>() {
            out.push((tick, entry.path()));
        }
    }
    out.sort_by_key(|(t, _)| *t);
    out
}

/// Loads the newest intact checkpoint under `dir` and the contiguous
/// journal frames extending it.
///
/// * `Ok(None)` — the directory holds no checkpoints at all (a fresh
///   start, not an error).
/// * Corrupt newer checkpoints are *skipped*: recovery falls back to the
///   next older one and replays the longer journal chain instead (journal
///   segment bases coincide with checkpoint ticks, so the chain stays
///   contiguous across the skipped checkpoint).
/// * A torn journal tail, a gap between segments, or an unreadable segment
///   stops replay at the last contiguous frame (`torn_tail = true`);
///   everything after it is intentionally dropped — a deterministic source
///   re-delivers those ticks on resume.
/// * A checkpoint or journal frame that verifies but holds a retired query
///   kind is [`DurabilityError::RetiredQueryKind`]: it is neither skipped
///   nor treated as a torn tail.
pub fn recover(dir: &Path) -> Result<Option<Recovery>, DurabilityError> {
    let mut checkpoints = numbered_files(dir, "checkpoint-", ".ckpt");
    if checkpoints.is_empty() {
        return Ok(None);
    }
    checkpoints.reverse();

    let mut skipped = 0usize;
    let mut first_defect = String::new();
    let mut chosen = None;
    for (tick, path) in &checkpoints {
        match read_checkpoint(path) {
            Ok(state) => {
                chosen = Some((*tick, state));
                break;
            }
            Err(e @ DurabilityError::RetiredQueryKind { .. }) => return Err(e),
            Err(e) => {
                if first_defect.is_empty() {
                    first_defect = e.to_string();
                }
                skipped += 1;
            }
        }
    }
    let Some((checkpoint_tick, state)) = chosen else {
        return Err(DurabilityError::NoValidCheckpoint {
            dir: dir.to_path_buf(),
            detail: first_defect,
        });
    };

    let mut frames = Vec::new();
    let mut torn_tail = false;
    let mut expected = checkpoint_tick + 1;
    for (base, path) in numbered_files(dir, "journal-", ".wal") {
        if base < checkpoint_tick {
            continue;
        }
        let segment = match read_journal(&path) {
            Ok(segment) => segment,
            Err(e @ DurabilityError::RetiredQueryKind { .. }) => return Err(e),
            Err(_) => {
                torn_tail = true;
                break;
            }
        };
        let mut segment_torn = segment.torn_tail;
        for frame in segment.frames {
            if frame.tick != expected {
                segment_torn = true;
                break;
            }
            expected += 1;
            frames.push(frame);
        }
        if segment_torn {
            torn_tail = true;
            break;
        }
    }

    Ok(Some(Recovery {
        checkpoint_tick,
        stripes: state.stripes,
        registry: state.registry,
        frames,
        torn_tail,
        checkpoints_skipped: skipped,
    }))
}

/// Deletes all but the newest `keep` checkpoints, plus every journal
/// segment older than the oldest kept checkpoint. Best-effort: removal
/// errors are ignored (a leftover file only wastes space; the recovery
/// scan tolerates it).
pub fn prune(dir: &Path, keep: usize) {
    let checkpoints = numbered_files(dir, "checkpoint-", ".ckpt");
    let keep = keep.max(1);
    if checkpoints.len() <= keep {
        return;
    }
    let cut = checkpoints.len() - keep;
    let oldest_kept = checkpoints[cut].0;
    for (_, path) in &checkpoints[..cut] {
        let _ = fs::remove_file(path);
    }
    for (base, path) in numbered_files(dir, "journal-", ".wal") {
        if base < oldest_kept {
            let _ = fs::remove_file(&path);
        }
    }
}

// ---------------------------------------------------------------------------
// The durable operator: one store or sharded, restartable from snapshots.
// ---------------------------------------------------------------------------

/// The operator shape the durable layer drives: the single-store
/// [`ScubaOperator`] or the stripe-sharded [`ShardedScubaOperator`], chosen
/// by `params.shards`. Both capture to and restore from the same stripe
/// snapshots, so checkpoints taken at one shard count restore at the same
/// shard count without conversion.
#[derive(Debug)]
pub enum DurableOperator {
    /// One engine, one store (`shards == 1`).
    Single(Box<ScubaOperator>),
    /// The supervised multi-worker executor (`shards > 1`).
    Sharded(Box<ShardedScubaOperator>),
}

/// Why one evaluation tick failed under the durable layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TickFailure {
    /// The operator reported a fatal fault (e.g. `ValidationPolicy::Abort`
    /// tripped); restarting cannot help because replay re-trips it.
    Fatal(String),
    /// A shard worker panicked; the epoch was quarantined and the operator
    /// can be restored from durable state.
    Worker(WorkerFailure),
}

impl std::fmt::Display for TickFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TickFailure::Fatal(m) => write!(f, "fatal operator fault: {m}"),
            TickFailure::Worker(w) => w.fmt(f),
        }
    }
}

impl std::error::Error for TickFailure {}

impl DurableOperator {
    /// Builds a fresh operator of the shape `params.shards` selects.
    pub fn new(params: ScubaParams, area: Rect) -> Self {
        if params.shards > 1 {
            DurableOperator::Sharded(Box::new(ShardedScubaOperator::new(params, area)))
        } else {
            DurableOperator::Single(Box::new(ScubaOperator::new(params, area)))
        }
    }

    /// Restores an operator from checkpoint stripes in the shape
    /// [`DurableOperator::new`] chose: by `params.shards`, not by the
    /// stripe count, which a grid narrower than `shards` clamps to 1.
    pub fn restore(stripes: &[EngineSnapshot]) -> Result<Self, SnapshotError> {
        match stripes {
            [] => Err(SnapshotError::ShardMismatch {
                found: 0,
                expected: 1,
            }),
            [single] if single.params.shards <= 1 => Ok(DurableOperator::Single(Box::new(
                ScubaOperator::from_engine(single.restore()?),
            ))),
            many => Ok(DurableOperator::Sharded(Box::new(
                ShardedScubaOperator::from_stripes(many)?,
            ))),
        }
    }

    /// Attaches (or clears) the worker-panic injector; a no-op for the
    /// single-store shape, which has no workers to panic.
    fn set_injector(&mut self, injector: Option<Arc<PanicInjector>>) {
        if let DurableOperator::Sharded(op) = self {
            op.set_panic_injector(injector);
        }
    }

    /// Applies one tick's control ops; call before
    /// [`DurableOperator::process_batch`] for that tick (the control-plane
    /// ordering contract).
    pub fn apply_control(&mut self, ops: &[ControlOp], now: Time) {
        match self {
            DurableOperator::Single(op) => op.apply_control(ops, now),
            DurableOperator::Sharded(op) => op.apply_control(ops, now),
        }
    }

    /// The control-plane view of the active query set.
    pub fn registry(&self) -> &QueryRegistry {
        match self {
            DurableOperator::Single(op) => op.registry(),
            DurableOperator::Sharded(op) => op.registry(),
        }
    }

    /// Installs a registry restored from a checkpoint, replacing the
    /// engine-seeded one.
    pub fn set_registry(&mut self, registry: QueryRegistry) {
        match self {
            DurableOperator::Single(op) => op.set_registry(registry),
            DurableOperator::Sharded(op) => op.set_registry(registry),
        }
    }

    /// Current control-plane gauges (health lines, event logs).
    pub fn control_gauges(&self) -> ControlGauges {
        self.registry().gauges()
    }

    /// Ingests one tick's batch.
    pub fn process_batch(&mut self, updates: &[LocationUpdate]) {
        match self {
            DurableOperator::Single(op) => op.process_batch(updates),
            DurableOperator::Sharded(op) => op.process_batch(updates),
        }
    }

    /// The operator's current fatal fault, if any.
    pub fn fault(&self) -> Option<String> {
        match self {
            DurableOperator::Single(op) => op.fault(),
            DurableOperator::Sharded(op) => op.fault(),
        }
    }

    /// Runs one evaluation, surfacing worker panics as typed, restartable
    /// failures and operator faults as fatal ones.
    pub fn try_evaluate(&mut self, now: Time) -> Result<EvaluationReport, TickFailure> {
        match self {
            DurableOperator::Single(op) => {
                let report = op.evaluate(now);
                match op.fault() {
                    Some(reason) => Err(TickFailure::Fatal(reason)),
                    None => Ok(report),
                }
            }
            DurableOperator::Sharded(op) => op.try_evaluate(now).map_err(TickFailure::Worker),
        }
    }

    /// Captures the operator's durable state as stripe snapshots.
    pub fn capture(&self) -> Vec<EngineSnapshot> {
        match self {
            DurableOperator::Single(op) => vec![EngineSnapshot::capture(op.engine())],
            DurableOperator::Sharded(op) => op.capture_stripes(),
        }
    }

    /// The parameters the operator runs with.
    pub fn params(&self) -> ScubaParams {
        match self {
            DurableOperator::Single(op) => *op.engine().params(),
            DurableOperator::Sharded(op) => *op.params(),
        }
    }

    /// The operator's display name.
    pub fn name(&self) -> &str {
        match self {
            DurableOperator::Single(op) => op.name(),
            DurableOperator::Sharded(op) => op.name(),
        }
    }

    /// Live cluster count, summed across stripes.
    pub fn clusters_live(&self) -> usize {
        match self {
            DurableOperator::Single(op) => op.clusters_live().unwrap_or(0),
            DurableOperator::Sharded(op) => op.clusters_live().unwrap_or(0),
        }
    }

    /// Estimated resident bytes.
    pub fn memory_bytes(&self) -> usize {
        match self {
            DurableOperator::Single(op) => op.memory_bytes(),
            DurableOperator::Sharded(op) => op.memory_bytes(),
        }
    }

    /// The ingestion validator, when this shape carries one (stripes
    /// refuse validation, so the sharded shape carries none).
    pub fn validator(&self) -> Option<&UpdateValidator> {
        match self {
            DurableOperator::Single(op) => op.validator(),
            DurableOperator::Sharded(_) => None,
        }
    }

    /// Quarantined dead letters currently buffered.
    pub fn dead_letter_len(&self) -> usize {
        self.validator().map_or(0, |v| v.dead_letter_len())
    }

    /// Human-readable label of the shedding mode currently in effect.
    fn shedding_label(&self) -> String {
        match self {
            DurableOperator::Single(op) => format!("{:?}", op.current_shedding()),
            DurableOperator::Sharded(_) => "n/a".to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// The supervised loop.
// ---------------------------------------------------------------------------

/// Knobs of [`run_supervised`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperviseConfig {
    /// Total ticks to run (like `ExecutorConfig::duration`).
    pub duration: Time,
    /// Checkpoint every this many ticks (clamped to ≥ 1).
    pub checkpoint_every: u64,
    /// Worker-panic restarts allowed per evaluation tick before the run is
    /// aborted.
    pub max_restarts: u32,
    /// Base backoff slept before each restart; doubles per attempt.
    pub backoff: Duration,
    /// Upper bound on the backoff.
    pub backoff_cap: Duration,
    /// Checkpoints retained by [`prune`] after each new one.
    pub keep_checkpoints: usize,
    /// Whether journal appends fdatasync (durable against power loss, not
    /// just process death).
    pub sync_journal: bool,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            duration: 10,
            checkpoint_every: 8,
            max_restarts: 3,
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(1),
            keep_checkpoints: 2,
            sync_journal: true,
        }
    }
}

/// Durability-side counters of one supervised run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Total checkpoint bytes written.
    pub checkpoint_bytes: u64,
    /// Wall-clock time spent writing checkpoints.
    pub checkpoint_time: Duration,
    /// Journal frames appended.
    pub journal_frames: u64,
    /// Total journal bytes appended (headers included).
    pub journal_bytes: u64,
    /// Wall-clock time spent appending to the journal.
    pub journal_time: Duration,
    /// Worker restarts performed.
    pub restarts: u32,
    /// Journal frames replayed at startup resume.
    pub replayed_frames: u64,
}

/// One periodic health line of a long-lived run, emitted at every
/// checkpoint boundary.
#[derive(Debug, Clone)]
pub struct HealthSnapshot {
    /// The tick of this health capture.
    pub tick: Time,
    /// Evaluations completed so far (replayed ones included).
    pub evaluations: usize,
    /// 99th-percentile join time across the run so far.
    pub p99_join: Duration,
    /// Live clusters.
    pub clusters: usize,
    /// Estimated resident bytes.
    pub memory_bytes: usize,
    /// Frames in the journal segment just rotated out (the journal lag a
    /// crash at this instant would have had to replay).
    pub journal_frames: u64,
    /// Bytes in that segment.
    pub journal_bytes: u64,
    /// Checkpoints written so far.
    pub checkpoints: u64,
    /// Worker restarts so far.
    pub restarts: u32,
    /// Dead letters currently quarantined.
    pub dead_letters: usize,
    /// Label of the shedding mode in effect.
    pub shedding: String,
    /// Queries currently registered and active.
    pub active_queries: u64,
    /// Lifetime query registrations (explicit and implicit).
    pub registered_total: u64,
    /// Lifetime query deregistrations (explicit and reconciled evictions).
    pub deregistered_total: u64,
}

/// Callbacks a supervised run drives: one per evaluation report (replayed
/// and live) and one per checkpoint-boundary health capture.
pub trait SuperviseObserver {
    /// Called after every completed evaluation, in tick order, with the
    /// control-plane gauges as of that evaluation.
    fn on_evaluation(&mut self, report: &EvaluationReport, gauges: &ControlGauges) {
        let _ = (report, gauges);
    }

    /// Called at every checkpoint boundary with the run's vitals.
    fn on_health(&mut self, health: &HealthSnapshot) {
        let _ = health;
    }
}

/// The do-nothing observer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoObserver;

impl SuperviseObserver for NoObserver {}

/// What [`resume`] reconstructed from durable state.
#[derive(Debug)]
pub struct Resumed {
    /// The restored operator, journal fully replayed.
    pub operator: DurableOperator,
    /// The last tick covered by durable state; the caller continues from
    /// `resume_tick + 1`.
    pub resume_tick: Time,
    /// The evaluation reports the replay re-produced, in tick order.
    pub reports: Vec<EvaluationReport>,
    /// Control-plane gauges as of each replayed evaluation, parallel to
    /// `reports` — so observers see the per-tick active query set, not
    /// the post-replay totals.
    pub report_gauges: Vec<ControlGauges>,
    /// Journal frames replayed.
    pub replayed_frames: u64,
    /// Whether the journal ended in a torn tail (the dropped ticks will be
    /// re-delivered by a deterministic source).
    pub torn_tail: bool,
}

/// Restores the newest durable state under `dir` and replays its journal:
/// ingestion tick by tick, with an evaluation at every Δ boundary so the
/// evaluate pipeline's own state mutations (radius tightening, ghost
/// exchange, post-join maintenance) are reapplied exactly as the original
/// run applied them. `Ok(None)` when the directory holds no checkpoints.
pub fn resume(dir: &Path) -> Result<Option<Resumed>, DurabilityError> {
    let Some(recovery) = recover(dir)? else {
        return Ok(None);
    };
    let mut operator =
        DurableOperator::restore(&recovery.stripes).map_err(|e| DurabilityError::ReplayFailed {
            detail: format!(
                "restoring checkpoint at t={}: {e}",
                recovery.checkpoint_tick
            ),
        })?;
    // The checkpointed registry is authoritative when present: it carries
    // exact registration epochs and lifetime counters the engine-seeded
    // fallback cannot reconstruct.
    if !recovery.registry.is_empty() || recovery.registry.gauges() != ControlGauges::default() {
        operator.set_registry(recovery.registry.clone());
    }
    let mut reports = Vec::new();
    let mut report_gauges = Vec::new();
    replay(&mut operator, &recovery.frames, None, |report, operator| {
        reports.push(report);
        report_gauges.push(operator.control_gauges());
    })
    .map_err(|(tick, e)| DurabilityError::ReplayFailed {
        detail: format!("replay failed at t={tick}: {e}"),
    })?;
    Ok(Some(Resumed {
        operator,
        resume_tick: recovery
            .frames
            .last()
            .map_or(recovery.checkpoint_tick, |f| f.tick),
        reports,
        report_gauges,
        replayed_frames: recovery.frames.len() as u64,
        torn_tail: recovery.torn_tail,
    }))
}

/// Replays journal `frames` into `operator`: each frame's controls, then
/// its batch, then an evaluation at every Δ boundary but `skip_eval_at`,
/// so the evaluate pipeline's own state mutations (radius tightening,
/// ghost exchange, post-join maintenance) are reapplied exactly as the
/// original run applied them. `on_eval` sees each evaluation's report.
/// Stops at the first operator fault or failed evaluation, returning it
/// with the frame's tick.
fn replay(
    operator: &mut DurableOperator,
    frames: &[JournalFrame],
    skip_eval_at: Option<Time>,
    mut on_eval: impl FnMut(EvaluationReport, &DurableOperator),
) -> Result<(), (Time, TickFailure)> {
    let delta = operator.params().delta.max(1);
    for frame in frames {
        operator.apply_control(&frame.controls, frame.tick);
        operator.process_batch(&frame.updates);
        if let Some(fault) = operator.fault() {
            return Err((frame.tick, TickFailure::Fatal(fault)));
        }
        if frame.tick % delta == 0 && Some(frame.tick) != skip_eval_at {
            let report = operator
                .try_evaluate(frame.tick)
                .map_err(|e| (frame.tick, e))?;
            on_eval(report, operator);
        }
    }
    Ok(())
}

/// Outcome of [`run_supervised`].
#[derive(Debug)]
pub struct SupervisedOutcome {
    /// The per-evaluation reports and abort status, shaped like an
    /// [`Executor`](scuba_stream::Executor) run so downstream analysis is
    /// shared. Replayed evaluations appear in tick order alongside live
    /// ones.
    pub report: RunReport,
    /// The operator in its final state.
    pub operator: DurableOperator,
    /// Durability-side counters.
    pub stats: DurabilityStats,
    /// `Some(tick)` when the run resumed from durable state covering up to
    /// that tick.
    pub resumed_at: Option<Time>,
}

fn backoff_delay(cfg: &SuperviseConfig, attempt: u32) -> Duration {
    cfg.backoff
        .saturating_mul(1u32 << attempt.min(16))
        .min(cfg.backoff_cap)
}

/// Restores the operator from the last checkpoint and replays the frames
/// since, with the same registry and panic injector.
fn rebuild(
    stripes: &[EngineSnapshot],
    registry: &QueryRegistry,
    pending: &[JournalFrame],
    injector: Option<&Arc<PanicInjector>>,
    skip_eval_at: Time,
) -> Result<DurableOperator, TickFailure> {
    let mut operator = DurableOperator::restore(stripes)
        .map_err(|e| TickFailure::Fatal(format!("restore from checkpoint failed: {e}")))?;
    operator.set_registry(registry.clone());
    operator.set_injector(injector.cloned());
    // The tick being retried is not evaluated here: the outer loop
    // evaluates it itself once the rebuild succeeds.
    replay(&mut operator, pending, Some(skip_eval_at), |_, _| {}).map_err(|(_, e)| e)?;
    Ok(operator)
}

/// Runs a durable, supervised SCUBA loop: resume from `dir` if durable
/// state exists, checkpoint every `cfg.checkpoint_every` ticks, journal
/// every tick's batch write-ahead, and survive shard-worker panics by
/// restoring from checkpoint + journal under a bounded restart budget.
///
/// The source is expected to be **deterministic from tick 1** (a seeded
/// generator): on resume the loop discards the ticks durable state already
/// covers, so re-delivery reproduces the original stream. A source fault
/// ([`UpdateSource::fault`]), budget exhaustion and fatal operator faults
/// abort the run via
/// [`RunReport::aborted`] rather than returning an error — the partial
/// results are real and the caller decides what to do with them.
pub fn run_supervised<S>(
    source: &mut S,
    params: &ScubaParams,
    area: Rect,
    dir: &Path,
    cfg: &SuperviseConfig,
    injector: Option<&Arc<PanicInjector>>,
    observer: &mut dyn SuperviseObserver,
) -> Result<SupervisedOutcome, DurabilityError>
where
    S: UpdateSource + ?Sized,
{
    fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let checkpoint_every = cfg.checkpoint_every.max(1);
    let mut stats = DurabilityStats::default();
    let mut report = RunReport::default();
    let mut latencies = LatencyTrack::new();
    let mut resumed_at = None;

    let (mut operator, start_tick) = match resume(dir)? {
        Some(resumed) => {
            resumed_at = Some(resumed.resume_tick);
            stats.replayed_frames = resumed.replayed_frames;
            for (rep, gauges) in resumed.reports.iter().zip(&resumed.report_gauges) {
                latencies.record(rep.join_time());
                observer.on_evaluation(rep, gauges);
            }
            report.evaluations.extend(resumed.reports);
            (resumed.operator, resumed.resume_tick)
        }
        None => (DurableOperator::new(*params, area), 0),
    };
    report.operator = operator.name().to_string();
    operator.set_injector(injector.cloned());
    let delta = operator.params().delta.max(1);

    // Re-anchor durable state at the resume point: a fresh checkpoint and
    // a fresh journal segment, so the pre-crash segment (possibly torn)
    // can never be confused with the new run's frames.
    let mut ckpt_stripes = operator.capture();
    let mut ckpt_registry = operator.registry().clone();
    let sw = Stopwatch::start();
    let written = write_checkpoint(dir, start_tick, &ckpt_stripes, &ckpt_registry)?;
    stats.checkpoint_time += sw.elapsed();
    stats.checkpoints += 1;
    stats.checkpoint_bytes += written;
    let mut journal = JournalWriter::create(dir, start_tick, cfg.sync_journal)?;
    let mut pending: Vec<JournalFrame> = Vec::new();
    prune(dir, cfg.keep_checkpoints);

    // A deterministic source re-delivers from tick 1; skip what durable
    // state already covers (controls included, to keep the source's
    // streams aligned).
    for _ in 0..start_tick.min(cfg.duration) {
        let _ = source.next_controls();
        let _ = source.next_tick();
    }

    let mut aborted = None;
    'ticks: for now in (start_tick + 1)..=cfg.duration {
        let controls = source.next_controls();
        let updates = source.next_tick();
        // A tick the source failed to deliver is not the stream: it is not
        // journaled, ingested or checkpointed, so durable state ends at the
        // last whole tick and a rerun over an intact source resumes there.
        if let Some(reason) = source.fault() {
            aborted = Some(reason);
            break 'ticks;
        }

        // Write-ahead: the frame is durable before the operator sees it.
        let sw = Stopwatch::start();
        let appended = journal.append_frame(now, &updates, &controls)?;
        stats.journal_time += sw.elapsed();
        stats.journal_frames += 1;
        stats.journal_bytes += appended;
        pending.push(JournalFrame {
            tick: now,
            updates: updates.clone(),
            controls: controls.clone(),
        });

        let sw = Stopwatch::start();
        if !controls.is_empty() {
            operator.apply_control(&controls, now);
            report.controls_applied += controls.len();
        }
        operator.process_batch(&updates);
        report.ingest_time += sw.elapsed();
        report.updates_ingested += updates.len();
        if let Some(reason) = operator.fault() {
            aborted = Some(reason);
            break 'ticks;
        }

        if now % delta == 0 {
            let mut attempt: u32 = 0;
            loop {
                match operator.try_evaluate(now) {
                    Ok(rep) => {
                        latencies.record(rep.join_time());
                        observer.on_evaluation(&rep, &operator.control_gauges());
                        report.evaluations.push(rep);
                        break;
                    }
                    Err(TickFailure::Fatal(reason)) => {
                        aborted = Some(reason);
                        break 'ticks;
                    }
                    Err(TickFailure::Worker(failure)) => {
                        if attempt >= cfg.max_restarts {
                            aborted = Some(format!(
                                "restart budget exhausted after {attempt} restarts: {failure}"
                            ));
                            break 'ticks;
                        }
                        std::thread::sleep(backoff_delay(cfg, attempt));
                        attempt += 1;
                        stats.restarts += 1;
                        report.restarts += 1;
                        match rebuild(&ckpt_stripes, &ckpt_registry, &pending, injector, now) {
                            Ok(rebuilt) => operator = rebuilt,
                            Err(TickFailure::Fatal(reason)) => {
                                aborted = Some(reason);
                                break 'ticks;
                            }
                            // A panic re-fired during the rebuild's own
                            // replay: keep retrying under the same budget
                            // with the stale operator (the next successful
                            // rebuild replaces it).
                            Err(TickFailure::Worker(_)) => {}
                        }
                    }
                }
            }
        }

        if now % checkpoint_every == 0 {
            let (segment_frames, segment_bytes) = (journal.frames(), journal.bytes());
            ckpt_stripes = operator.capture();
            ckpt_registry = operator.registry().clone();
            let sw = Stopwatch::start();
            let written = write_checkpoint(dir, now, &ckpt_stripes, &ckpt_registry)?;
            stats.checkpoint_time += sw.elapsed();
            stats.checkpoints += 1;
            stats.checkpoint_bytes += written;
            journal = JournalWriter::create(dir, now, cfg.sync_journal)?;
            pending.clear();
            prune(dir, cfg.keep_checkpoints);
            let gauges = operator.control_gauges();
            observer.on_health(&HealthSnapshot {
                tick: now,
                evaluations: report.evaluations.len(),
                p99_join: latencies.percentile(99.0),
                clusters: operator.clusters_live(),
                memory_bytes: operator.memory_bytes(),
                journal_frames: segment_frames,
                journal_bytes: segment_bytes,
                checkpoints: stats.checkpoints,
                restarts: stats.restarts,
                dead_letters: operator.dead_letter_len(),
                shedding: operator.shedding_label(),
                active_queries: gauges.active_queries,
                registered_total: gauges.registered_total,
                deregistered_total: gauges.deregistered_total,
            });
        }
    }
    report.aborted = aborted;
    Ok(SupervisedOutcome {
        report,
        operator,
        stats,
        resumed_at,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_motion::{EntityAttrs, QuerySpec};
    use scuba_spatial::rng::SplitMix64;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("scuba-durability-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    const CN: Point = Point {
        x: 1000.0,
        y: 500.0,
    };

    fn update(i: u64, t: Time) -> LocationUpdate {
        let x = 50.0 + ((i * 37 + t * 11) % 900) as f64;
        let y = 50.0 + ((i * 61 + t * 7) % 900) as f64;
        if i % 4 == 3 {
            LocationUpdate::query(
                QueryId(i),
                Point::new(x, y),
                t,
                20.0 + (i % 3) as f64,
                CN,
                QueryAttrs {
                    spec: QuerySpec::square_range(10.0 + (i % 4) as f64),
                },
            )
        } else {
            LocationUpdate::object(
                ObjectId(i),
                Point::new(x, y),
                t,
                20.0 + (i % 3) as f64,
                CN,
                scuba_motion::ObjectAttrs {
                    class: ObjectClass::ALL[(i % 6) as usize],
                },
            )
        }
    }

    fn busy_snapshot() -> EngineSnapshot {
        let mut op = ScubaOperator::new(ScubaParams::default(), Rect::square(1000.0));
        for t in 1..=4u64 {
            let batch: Vec<_> = (0..40).map(|i| update(i, t)).collect();
            op.process_batch(&batch);
            if t % 2 == 0 {
                op.evaluate(t);
            }
        }
        EngineSnapshot::capture(op.engine())
    }

    #[test]
    fn crc32_matches_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bit-at-a-time definition of the reflected IEEE CRC: shares no
    /// table with the slicing kernel it checks.
    fn crc32_update_bitwise(mut c: u32, data: &[u8]) -> u32 {
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c
    }

    #[test]
    fn sliced_crc32_matches_bitwise_reference() {
        let mut rng = SplitMix64::new(0x5eed);
        let mut next = move || rng.next_u64();
        let pool: Vec<u8> = (0..4096 + 8).map(|_| next() as u8).collect();
        for case in 0..96 {
            // Every length below 24 once (all tail lengths around the
            // 8-byte step), then random ones up to 4 KiB.
            let len = if case < 24 {
                case
            } else {
                next() as usize % 4097
            };
            for align in 0..8 {
                let data = &pool[align..align + len];
                let expected = crc32_update_bitwise(0xffff_ffff, data) ^ 0xffff_ffff;
                assert_eq!(crc32(data), expected, "len {len} align {align}");
                // Chained over an arbitrary split into up to four pieces.
                let mut cuts = [0, 0, 0, len];
                for c in &mut cuts[..3] {
                    *c = next() as usize % (len + 1);
                }
                cuts.sort_unstable();
                let (mut crc, mut from) = (Crc32::new(), 0);
                for to in cuts {
                    crc.update(&data[from..to]);
                    from = to;
                }
                assert_eq!(
                    crc.finish(),
                    expected,
                    "len {len} align {align} cuts {cuts:?}"
                );
            }
        }
    }

    /// `append_frame` encodes in place into one reused buffer; the bytes
    /// on disk must be those of the layout built piecewise.
    #[test]
    fn journal_frame_bytes_match_piecewise_layout() {
        let dir = tmp_dir("frame-bytes");
        let mut w = JournalWriter::create(&dir, 3, false).unwrap();
        let controls = [
            ControlOp::Register(update(7, 4)),
            ControlOp::Deregister(QueryId(9)),
        ];
        let batches: [(Vec<LocationUpdate>, &[ControlOp]); 3] = [
            ((0..5).map(|i| update(i, 4)).collect(), &controls),
            (Vec::new(), &[]),
            ((0..2).map(|i| update(i, 6)).collect(), &controls[1..]),
        ];
        let mut expected = Vec::new();
        expected.extend_from_slice(JRNL_MAGIC);
        put_u32(&mut expected, FORMAT_VERSION);
        put_u64(&mut expected, 3);
        for (i, (updates, controls)) in batches.iter().enumerate() {
            let tick = 4 + i as Time;
            let written = w.append_frame(tick, updates, controls).unwrap();
            let mut payload = Vec::new();
            put_u64(&mut payload, tick);
            put_u32(&mut payload, updates.len() as u32);
            for u in updates {
                wire::encode_into(u, &mut payload);
            }
            put_u32(&mut payload, controls.len() as u32);
            for op in *controls {
                control::encode_into(op, &mut payload);
            }
            assert_eq!(written as usize, 8 + payload.len());
            put_u32(&mut expected, payload.len() as u32);
            put_u32(
                &mut expected,
                crc32_update_bitwise(0xffff_ffff, &payload) ^ 0xffff_ffff,
            );
            expected.extend_from_slice(&payload);
        }
        assert_eq!(w.bytes() as usize, expected.len());
        assert_eq!(fs::read(w.path()).unwrap(), expected);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every strict prefix of a frame payload is a typed truncation, except
    /// the one that ends with the updates: that is a whole frame of the
    /// pre-control-plane layout.
    #[test]
    fn every_strict_prefix_of_a_frame_is_truncated() {
        let updates: Vec<_> = (0..4).map(|i| update(i, 5)).collect();
        let controls = [
            ControlOp::Register(update(7, 5)),
            ControlOp::Deregister(QueryId(9)),
        ];
        let mut payload = Vec::new();
        put_u64(&mut payload, 5);
        put_u32(&mut payload, updates.len() as u32);
        for u in &updates {
            wire::encode_into(u, &mut payload);
        }
        let legacy_end = payload.len();
        put_u32(&mut payload, controls.len() as u32);
        for op in &controls {
            control::encode_into(op, &mut payload);
        }
        assert_eq!(decode_frame(&payload).unwrap().controls, controls);
        for cut in 0..payload.len() {
            match decode_frame(&payload[..cut]) {
                Ok(frame) => {
                    assert_eq!(cut, legacy_end);
                    assert_eq!((frame.updates, frame.controls), (updates.clone(), vec![]));
                }
                Err(e) => assert_eq!(e, DecodeError::Truncated, "{cut}-byte prefix"),
            }
        }
    }

    #[test]
    fn snapshot_codec_roundtrips_nondefault_params() {
        let mut snapshot = busy_snapshot();
        // Exercise every enum arm and option the codec carries, so a field
        // added to ScubaParams without a codec update fails this test.
        snapshot.params = ScubaParams {
            shedding: SheddingMode::Partial { eta: 0.5 },
            entity_ttl: Some(17),
            validation: ValidationPolicy::Reject,
            deadline_us: Some(12_345),
            shards: 2,
            ..ScubaParams::default()
        };
        let mut out = Vec::new();
        encode_snapshot(&mut out, &snapshot);
        let decoded = decode_snapshot(&mut &out[..]).unwrap();
        assert_eq!(decoded, snapshot);
    }

    /// [`golden_checkpoint`]'s bytes as written while members were stored
    /// as offsets from the centroid under drift marks: every member record
    /// is tag 0 (shed) or tag 2 (an offset).
    const OFFSET_CHECKPOINT: &[u8] = include_bytes!("../tests/fixtures/checkpoint-offsets.ckpt");

    /// Where each member of [`OFFSET_CHECKPOINT`] materialised in the
    /// build that wrote it, as `(x, y)` bits, in cluster and member order.
    const OFFSET_POSITIONS: [(EntityRef, Option<(u64, u64)>); 18] = [
        (
            EntityRef::Object(ObjectId(0)),
            Some((0x406b57bd90bab210, 0x4068f56a40d5ba10)),
        ),
        (EntityRef::Object(ObjectId(1)), None),
        (EntityRef::Query(QueryId(2)), None),
        (EntityRef::Object(ObjectId(3)), None),
        (EntityRef::Object(ObjectId(4)), None),
        (
            EntityRef::Query(QueryId(5)),
            Some((0x40725bdec85d5908, 0x406fd56a40d5ba10)),
        ),
        (
            EntityRef::Object(ObjectId(10)),
            Some((0x407d4bdec85d5908, 0x4075dab5206add08)),
        ),
        (EntityRef::Object(ObjectId(11)), None),
        (EntityRef::Query(QueryId(12)), None),
        (EntityRef::Object(ObjectId(13)), None),
        (EntityRef::Object(ObjectId(14)), None),
        (
            EntityRef::Query(QueryId(15)),
            Some((0x4080fdef642eac84, 0x40794ab5206add08)),
        ),
        (
            EntityRef::Object(ObjectId(20)),
            Some((0x408675ef642eac84, 0x407f3ab5206add08)),
        ),
        (EntityRef::Object(ObjectId(21)), None),
        (EntityRef::Query(QueryId(22)), None),
        (EntityRef::Object(ObjectId(23)), None),
        (EntityRef::Object(ObjectId(24)), None),
        (
            EntityRef::Query(QueryId(25)),
            Some((0x4088cdef642eac84, 0x4081555a90356e84)),
        ),
    ];

    /// Recomputes a checkpoint's CRC after a test patched its payload.
    fn reseal(bytes: &mut [u8]) {
        let crc = checksum(&[&bytes[8..24], &bytes[CKPT_HEADER..]]);
        bytes[24..CKPT_HEADER].copy_from_slice(&crc.to_le_bytes());
    }

    /// The start of the one byte pattern `needle` in `bytes`.
    fn unique_at(bytes: &[u8], needle: &[u8]) -> usize {
        let at = bytes.windows(needle.len()).position(|w| w == needle);
        let last = bytes.windows(needle.len()).rposition(|w| w == needle);
        assert!(at.is_some() && at == last, "not a unique pattern");
        at.unwrap()
    }

    /// The start of `m`'s record in `bytes`, found by its entity, speed
    /// and position tag.
    fn member_record_at(bytes: &[u8], m: &Member, tag: u8) -> usize {
        let mut head = Vec::new();
        encode_entity(&mut head, m.entity);
        put_f64(&mut head, m.speed);
        head.push(tag);
        unique_at(bytes, &head)
    }

    #[test]
    fn offset_checkpoint_restores_at_the_bits_it_was_written_with() {
        let state = decode_checkpoint(OFFSET_CHECKPOINT).unwrap();
        assert_eq!(state.tick, 6);
        let positions: Vec<_> = state.stripes[0]
            .clusters
            .iter()
            .flat_map(|c| c.members())
            .map(|m| (m.entity, m.pos.map(|p| (p.x.to_bits(), p.y.to_bits()))))
            .collect();
        assert_eq!(positions, OFFSET_POSITIONS);
        state.stripes[0].restore().unwrap().check_invariants();
        assert!(matches!(
            DurableOperator::restore(&state.stripes),
            Ok(DurableOperator::Single(_))
        ));
    }

    /// Checkpoints written while members were kept in polar form carry
    /// tag-1 `(r, θ)` records. They migrate through the expressions the
    /// polar reader and the drift transformation used, so each member
    /// lands at the bits it materialised at then.
    #[test]
    fn legacy_polar_member_records_materialise_as_before() {
        let mut bytes = OFFSET_CHECKPOINT.to_vec();
        let state = decode_checkpoint(&bytes).unwrap();
        let mut expected = Vec::new();
        for c in &state.stripes[0].clusters {
            // The cluster record opens with its id and centroid; the
            // retired drift slot follows radius, node, speed, creation
            // time and query reach.
            let mut head = Vec::new();
            put_u64(&mut head, c.cid.0);
            put_point(&mut head, c.centroid());
            let drift_at = unique_at(&bytes, &head) + 24 + 8 + 16 + 8 + 8 + 8;
            let drift = read_vector(&mut &bytes[drift_at..]).unwrap();
            for m in c.members().iter().filter(|m| !m.is_shed()) {
                let at = member_record_at(&bytes, m, 2);
                let v = read_vector(&mut &bytes[at + 18..]).unwrap();
                let mark = read_vector(&mut &bytes[at + 18 + 16 + 8..]).unwrap();
                let r = v.norm();
                let theta = (v.dx / r).acos().copysign(v.dy);
                let mut record = vec![1];
                put_f64(&mut record, r);
                put_f64(&mut record, theta);
                bytes[at + 17..at + 34].copy_from_slice(&record);
                // What the polar reader materialised from that record.
                let offset = Vector {
                    dx: r * theta.cos(),
                    dy: r * theta.sin(),
                };
                let then = c.centroid() + offset - (drift - mark);
                expected.push((m.entity, then, m.pos.unwrap()));
            }
        }
        assert_eq!(expected.len(), 6, "every unshed member is patched");
        reseal(&mut bytes);

        let migrated = decode_checkpoint(&bytes).unwrap();
        let restored = migrated.stripes[0].restore().unwrap();
        restored.check_invariants();
        for (entity, then, was) in expected {
            let (slot, idx) = restored.home().entry_of(entity).unwrap();
            let now = restored.store().get(slot).unwrap().members()[idx as usize]
                .pos
                .unwrap();
            assert_eq!(
                (now.x.to_bits(), now.y.to_bits()),
                (then.x.to_bits(), then.y.to_bits()),
                "{entity}"
            );
            // Up to the polar round trip, that is where the member was.
            assert!(now.distance(&was) < 1e-9, "{entity}: {now:?} vs {was:?}");
        }
    }

    #[test]
    fn unknown_member_position_tag_is_refused() {
        let state = decode_checkpoint(OFFSET_CHECKPOINT).unwrap();
        let m = state.stripes[0]
            .clusters
            .iter()
            .flat_map(|c| c.members())
            .find(|m| !m.is_shed())
            .unwrap();
        let at = member_record_at(OFFSET_CHECKPOINT, m, 2) + 17;
        for tag in [5, 6, 0x80, 0xff] {
            let mut bytes = OFFSET_CHECKPOINT.to_vec();
            bytes[at] = tag;
            reseal(&mut bytes);
            assert!(
                matches!(
                    decode_checkpoint(&bytes),
                    Err(SnapshotError::Inconsistent(_))
                ),
                "tag {tag}"
            );
        }
    }

    /// A CRC-valid checkpoint whose params validation refuses fails with
    /// `Inconsistent`; it does not reach a constructor that panics on them.
    #[test]
    fn restore_refuses_params_that_validation_refuses() {
        let mut snapshot = busy_snapshot();
        snapshot.params.shards = 2;
        snapshot.params.shedding = SheddingMode::Partial { eta: 0.5 };
        assert!(matches!(
            DurableOperator::restore(&[snapshot]),
            Err(SnapshotError::Inconsistent(_))
        ));
    }

    /// A small fixed engine whose checkpoint bytes are pinned: non-default
    /// params, convoys that form multi-member mixed clusters under
    /// partial shedding (so some members are shed), and a registry that
    /// saw a query deregistered.
    fn golden_checkpoint() -> Vec<u8> {
        let params = ScubaParams {
            theta_d: 120.0,
            theta_s: 15.0,
            grid_cells: 16,
            delta: 3,
            shedding: SheddingMode::Partial { eta: 0.3 },
            entity_ttl: Some(9),
            validation: ValidationPolicy::Reject,
            ..ScubaParams::default()
        };
        let mut op = ScubaOperator::new(params, Rect::square(1000.0));
        let register = |id: u64, x: f64, t: Time| {
            ControlOp::Register(LocationUpdate::query(
                QueryId(id),
                Point::new(x, 300.0),
                t,
                0.0,
                Point::new(x, 300.0),
                QueryAttrs {
                    spec: QuerySpec::square_range(40.0),
                },
            ))
        };
        for t in 1..=6u64 {
            let mut controls = Vec::new();
            if t == 1 {
                controls = vec![register(900, 250.0, t), register(901, 650.0, t)];
            }
            if t == 4 {
                controls = vec![ControlOp::Deregister(QueryId(901))];
            }
            op.apply_control(&controls, t);
            let mut batch = Vec::new();
            for convoy in 0..3u64 {
                let (cx, cy) = (200.0 + 250.0 * convoy as f64, 200.0 + 150.0 * convoy as f64);
                let cn = Point::new(cx + 600.0, cy);
                for k in 0..6u64 {
                    let at =
                        Point::new(cx + 15.0 * k as f64 + 2.0 * t as f64, cy + 11.0 * k as f64);
                    let speed = 2.0 + 0.1 * k as f64;
                    let id = convoy * 10 + k;
                    batch.push(if k % 3 == 2 {
                        LocationUpdate::query(
                            QueryId(id),
                            at,
                            t,
                            speed,
                            cn,
                            QueryAttrs {
                                spec: QuerySpec::square_range(12.0 + k as f64),
                            },
                        )
                    } else {
                        LocationUpdate::object(
                            ObjectId(id),
                            at,
                            t,
                            speed,
                            cn,
                            scuba_motion::ObjectAttrs {
                                class: ObjectClass::ALL[(id % 6) as usize],
                            },
                        )
                    });
                }
            }
            op.process_batch(&batch);
            if t % 3 == 0 {
                op.evaluate(t);
            }
        }
        let clusters: Vec<_> = op.engine().store().values().collect();
        assert!(clusters.iter().any(|c| c.is_mixed() && c.len() > 2));
        assert!(clusters
            .iter()
            .flat_map(|c| c.members())
            .any(|m| m.is_shed()));
        assert!(clusters
            .iter()
            .flat_map(|c| c.members())
            .any(|m| !m.is_shed()));
        assert_eq!(op.registry().gauges().deregistered_total, 1);
        encode_checkpoint(6, &[EngineSnapshot::capture(op.engine())], op.registry())
    }

    /// The checkpoint bytes of [`golden_checkpoint`] are pinned: a change
    /// to how engine state is captured or encoded that moves one byte fails
    /// here, before it can strand a checkpoint directory written by an
    /// earlier build. The earlier layout's bytes are [`OFFSET_CHECKPOINT`].
    #[test]
    fn checkpoint_bytes_are_pinned() {
        let bytes = golden_checkpoint();
        assert_eq!((bytes.len(), crc32(&bytes)), (1608, 0xF6DE_684F));
    }

    #[test]
    fn checkpoint_roundtrip_and_atomic_write() {
        let dir = tmp_dir("ckpt-roundtrip");
        let stripes = vec![busy_snapshot()];
        let bytes = write_checkpoint(&dir, 42, &stripes, &QueryRegistry::new()).unwrap();
        assert!(bytes > CKPT_HEADER as u64);
        let state = read_checkpoint(&checkpoint_path(&dir, 42)).unwrap();
        assert_eq!(state.tick, 42);
        assert_eq!(state.stripes, stripes);
        // No temp file left behind.
        assert!(!dir.join("checkpoint-000000000042.ckpt.tmp").exists());
        // The restored engine is usable.
        state.stripes[0].restore().unwrap().check_invariants();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_rejects_corruption_with_typed_errors() {
        let stripes = vec![busy_snapshot()];
        let good = encode_checkpoint(7, &stripes, &QueryRegistry::new());

        assert!(matches!(
            decode_checkpoint(b"XX"),
            Err(SnapshotError::Truncated)
        ));
        assert!(matches!(
            decode_checkpoint(b"NOPE-not-a-checkpoint"),
            Err(SnapshotError::NotACheckpoint)
        ));

        let mut wrong_version = good.clone();
        wrong_version[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            decode_checkpoint(&wrong_version),
            Err(SnapshotError::VersionMismatch {
                found: 99,
                supported: FORMAT_VERSION
            })
        ));

        let truncated = &good[..good.len() - 5];
        assert!(matches!(
            decode_checkpoint(truncated),
            Err(SnapshotError::Truncated)
        ));
        // A bare header declaring a payload of u64::MAX bytes: the payload's
        // end overflows, which is a truncation, not a panic.
        let mut endless = good[..CKPT_HEADER].to_vec();
        endless[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_checkpoint(&endless),
            Err(SnapshotError::Truncated)
        ));

        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            decode_checkpoint(&flipped),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        assert_eq!(decode_checkpoint(&good).unwrap().tick, 7);
    }

    #[test]
    fn journal_roundtrips_and_tolerates_torn_tail() {
        let dir = tmp_dir("journal");
        let mut writer = JournalWriter::create(&dir, 4, true).unwrap();
        for t in 5..=8u64 {
            let batch: Vec<_> = (0..6).map(|i| update(i, t)).collect();
            writer.append(t, &batch).unwrap();
        }
        assert_eq!(writer.frames(), 4);
        let path = writer.path().to_path_buf();
        drop(writer);

        let segment = read_journal(&path).unwrap();
        assert_eq!(segment.base_tick, 4);
        assert!(!segment.torn_tail);
        assert_eq!(segment.frames.len(), 4);
        assert_eq!(segment.frames[0].tick, 5);
        assert_eq!(segment.frames[3].updates.len(), 6);
        assert_eq!(segment.frames[2].updates[1], update(1, 7));

        // Tear the tail mid-frame: earlier frames still replay.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 11]).unwrap();
        let torn = read_journal(&path).unwrap();
        assert!(torn.torn_tail);
        assert_eq!(torn.frames.len(), 3);

        // Flip a bit inside the second frame: replay stops before it.
        fs::write(&path, &bytes).unwrap();
        let mut flipped = bytes.clone();
        let second_frame_payload = JRNL_HEADER + 8 + 20;
        flipped[second_frame_payload + 400] ^= 0x01;
        fs::write(&path, &flipped).unwrap();
        let corrupt = read_journal(&path).unwrap();
        assert!(corrupt.torn_tail);
        assert!(corrupt.frames.len() < 4);

        // A foreign header is an error, not a torn tail.
        fs::write(&path, b"garbage").unwrap();
        assert!(matches!(
            read_journal(&path),
            Err(DurabilityError::Journal { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_empty_dir_is_fresh_start() {
        let dir = tmp_dir("recover-empty");
        assert!(recover(&dir).unwrap().is_none());
        assert!(resume(&dir).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_falls_back_past_corrupt_newest_checkpoint() {
        let dir = tmp_dir("recover-fallback");
        let stripes = vec![busy_snapshot()];
        write_checkpoint(&dir, 8, &stripes, &QueryRegistry::new()).unwrap();
        let mut w = JournalWriter::create(&dir, 8, true).unwrap();
        for t in 9..=16u64 {
            w.append(t, &[update(t, t)]).unwrap();
        }
        drop(w);
        write_checkpoint(&dir, 16, &stripes, &QueryRegistry::new()).unwrap();
        let mut w = JournalWriter::create(&dir, 16, true).unwrap();
        for t in 17..=19u64 {
            w.append(t, &[update(t, t)]).unwrap();
        }
        drop(w);

        // Corrupt the newest checkpoint: recovery falls back to t=8 and
        // replays the chained segments 8 → 16 → 19.
        let newest = checkpoint_path(&dir, 16);
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&newest, &bytes).unwrap();

        let rec = recover(&dir).unwrap().unwrap();
        assert_eq!(rec.checkpoint_tick, 8);
        assert_eq!(rec.checkpoints_skipped, 1);
        assert!(!rec.torn_tail);
        assert_eq!(
            rec.frames.iter().map(|f| f.tick).collect::<Vec<_>>(),
            (9..=19).collect::<Vec<_>>()
        );

        // All checkpoints corrupt → a typed error.
        let oldest = checkpoint_path(&dir, 8);
        let mut bytes = fs::read(&oldest).unwrap();
        bytes[10] ^= 0xff;
        fs::write(&oldest, &bytes).unwrap();
        assert!(matches!(
            recover(&dir),
            Err(DurabilityError::NoValidCheckpoint { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_stops_at_noncontiguous_frames() {
        let dir = tmp_dir("recover-gap");
        write_checkpoint(&dir, 4, &[busy_snapshot()], &QueryRegistry::new()).unwrap();
        let mut w = JournalWriter::create(&dir, 4, true).unwrap();
        w.append(5, &[update(1, 5)]).unwrap();
        w.append(7, &[update(1, 7)]).unwrap(); // gap: t=6 missing
        drop(w);
        let rec = recover(&dir).unwrap().unwrap();
        assert!(rec.torn_tail);
        assert_eq!(rec.frames.len(), 1);
        assert_eq!(rec.frames[0].tick, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_newest_and_drops_old_segments() {
        let dir = tmp_dir("prune");
        let stripes = vec![busy_snapshot()];
        for t in [0u64, 8, 16, 24] {
            write_checkpoint(&dir, t, &stripes, &QueryRegistry::new()).unwrap();
            JournalWriter::create(&dir, t, true).unwrap();
        }
        prune(&dir, 2);
        let kept: Vec<_> = numbered_files(&dir, "checkpoint-", ".ckpt")
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        assert_eq!(kept, vec![16, 24]);
        let journals: Vec<_> = numbered_files(&dir, "journal-", ".wal")
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        assert_eq!(journals, vec![16, 24]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A deterministic source: same seed → same stream, from tick 1.
    struct DetSource {
        tick: Time,
        per_tick: u64,
    }

    impl UpdateSource for DetSource {
        fn next_tick(&mut self) -> Vec<LocationUpdate> {
            self.tick += 1;
            let t = self.tick;
            (0..self.per_tick).map(|i| update(i, t)).collect()
        }
    }

    fn det_source() -> DetSource {
        DetSource {
            tick: 0,
            per_tick: 30,
        }
    }

    /// A `shards > 1` run on a grid narrower than `shards` captures one
    /// stripe, and restores in the sharded shape it ran in.
    #[test]
    fn one_stripe_of_a_sharded_run_restores_sharded() {
        let params = ScubaParams::default().with_grid_cells(1).with_shards(4);
        let stripes = DurableOperator::new(params, Rect::square(1000.0)).capture();
        assert_eq!(stripes.len(), 1);
        assert!(matches!(
            DurableOperator::restore(&stripes),
            Ok(DurableOperator::Sharded(_))
        ));
    }

    #[test]
    fn exhausted_restart_budget_aborts() {
        let dir = tmp_dir("supervised-budget");
        let params = ScubaParams::default().with_shards(2);
        let cfg = SuperviseConfig {
            duration: 6,
            checkpoint_every: 4,
            max_restarts: 0,
            ..SuperviseConfig::default()
        };
        // Re-arming sites fire on every attempt, so zero budget gives up
        // at the first evaluation.
        let injector = Arc::new(PanicInjector::new(scuba_stream::PanicPlan {
            seed: 3,
            panic_prob: 1.0,
            rearm: true,
        }));
        let outcome = run_supervised(
            &mut det_source(),
            &params,
            Rect::square(1000.0),
            &dir,
            &cfg,
            Some(&injector),
            &mut NoObserver,
        )
        .unwrap();
        let aborted = outcome.report.aborted.expect("budget exhaustion aborts");
        assert!(
            aborted.contains("restart budget exhausted"),
            "got: {aborted}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn observer_sees_evaluations_and_health() {
        struct Counting {
            evals: usize,
            healths: Vec<HealthSnapshot>,
        }
        impl SuperviseObserver for Counting {
            fn on_evaluation(&mut self, _report: &EvaluationReport, _gauges: &ControlGauges) {
                self.evals += 1;
            }
            fn on_health(&mut self, health: &HealthSnapshot) {
                self.healths.push(health.clone());
            }
        }
        let dir = tmp_dir("supervised-observer");
        let cfg = SuperviseConfig {
            duration: 8,
            checkpoint_every: 4,
            ..SuperviseConfig::default()
        };
        let mut obs = Counting {
            evals: 0,
            healths: Vec::new(),
        };
        let outcome = run_supervised(
            &mut det_source(),
            &ScubaParams::default(),
            Rect::square(1000.0),
            &dir,
            &cfg,
            None,
            &mut obs,
        )
        .unwrap();
        assert_eq!(obs.evals, outcome.report.evaluations.len());
        assert_eq!(obs.healths.len(), 2, "health at t=4 and t=8");
        assert_eq!(obs.healths[0].tick, 4);
        assert_eq!(obs.healths[0].journal_frames, 4);
        assert!(obs.healths[1].checkpoints >= 2);
        assert_eq!(obs.healths[0].shedding, "None");
        assert!(
            obs.healths[0].active_queries > 0,
            "data-plane query updates register implicitly"
        );
        assert_eq!(
            obs.healths[0].registered_total, obs.healths[0].active_queries,
            "no deregistrations in this workload"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    fn churn_query(id: u64, t: Time) -> LocationUpdate {
        let x = 60.0 + ((id * 53 + t * 17) % 880) as f64;
        let y = 60.0 + ((id * 29 + t * 13) % 880) as f64;
        LocationUpdate::query(
            QueryId(id),
            Point::new(x, y),
            t,
            20.0,
            CN,
            QueryAttrs {
                spec: QuerySpec::square_range(15.0),
            },
        )
    }

    #[test]
    fn checkpoint_carries_registry_and_tolerates_its_absence() {
        let stripes = vec![busy_snapshot()];
        let mut registry = QueryRegistry::new();
        registry.observe(QueryId(3), 2, QuerySpec::square_range(11.0), None);
        registry.observe(
            QueryId(9),
            5,
            QuerySpec::Range {
                width: 30.0,
                height: 12.0,
            },
            Some(1),
        );
        registry.deregister(QueryId(3));
        registry.note_unknown();

        let bytes = encode_checkpoint(6, &stripes, &registry);
        let state = decode_checkpoint(&bytes).unwrap();
        assert_eq!(state.registry, registry);
        assert_eq!(state.registry.gauges(), registry.gauges());

        // A pre-control-plane checkpoint (payload ends at the stripes)
        // still decodes, with an empty registry.
        let mut payload = Vec::new();
        put_u64(&mut payload, 1);
        encode_snapshot(&mut payload, &stripes[0]);
        let mut old = Vec::with_capacity(CKPT_HEADER + payload.len());
        old.extend_from_slice(CKPT_MAGIC);
        put_u32(&mut old, FORMAT_VERSION);
        put_u64(&mut old, 6);
        put_u64(&mut old, payload.len() as u64);
        let crc = checksum(&[&old[8..24], &payload]);
        put_u32(&mut old, crc);
        old.extend_from_slice(&payload);
        let state = decode_checkpoint(&old).unwrap();
        assert_eq!(state.stripes, stripes);
        assert_eq!(state.registry, QueryRegistry::default());
    }

    /// Rewrites the 17-byte range spec at `at` as a retired kNN spec (tag
    /// 1, then `k`): the record only the deleted encoder wrote.
    fn retire_spec(bytes: &mut Vec<u8>, at: usize) {
        assert_eq!(bytes[at], 0, "a range spec starts with tag 0");
        let mut knn = vec![wire::SPEC_RETIRED_KNN];
        knn.extend_from_slice(&4u32.to_le_bytes());
        bytes.splice(at..at + 17, knn);
    }

    /// A checkpoint file around `payload`, header and checksum built by
    /// hand so the payload may hold what the encoder no longer writes.
    fn checkpoint_file(tick: Time, payload: &[u8]) -> Vec<u8> {
        let mut out = CKPT_MAGIC.to_vec();
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&tick.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let mut crc = Crc32::new();
        crc.update(&out[8..24]);
        crc.update(payload);
        out.extend_from_slice(&crc.finish().to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn registry_refuses_retired_tag() {
        let mut registry = QueryRegistry::new();
        registry.observe(QueryId(9), 5, QuerySpec::square_range(11.0), Some(1));
        let mut bytes = Vec::new();
        encode_registry(&mut bytes, &registry);
        // Entry count, query id and registration tick precede the spec.
        retire_spec(&mut bytes, 24);
        assert!(matches!(
            decode_registry(&mut &bytes[..]),
            Err(SnapshotError::RetiredQueryKind)
        ));
    }

    #[test]
    fn checkpoint_query_list_refuses_retired_tag_and_resume_does_not_skip_it() {
        let dir = tmp_dir("retired-ckpt");
        let stripes = vec![busy_snapshot()];
        assert!(!stripes[0].queries.is_empty());
        // An older intact checkpoint that skipping would fall back to.
        write_checkpoint(&dir, 4, &stripes, &QueryRegistry::new()).unwrap();
        let mut payload = 1u64.to_le_bytes().to_vec();
        encode_snapshot(&mut payload, &stripes[0]);
        // The query list ends the snapshot: (id, spec) per query.
        let at = payload.len() - 17;
        retire_spec(&mut payload, at);
        assert!(matches!(
            decode_snapshot(&mut &payload[8..]),
            Err(SnapshotError::RetiredQueryKind)
        ));
        let bytes = checkpoint_file(8, &payload);
        let newest = checkpoint_path(&dir, 8);
        fs::write(&newest, &bytes).unwrap();
        match resume(&dir) {
            Err(DurabilityError::RetiredQueryKind { path }) => assert_eq!(path, newest),
            other => panic!("expected a retired-kind refusal, got {other:?}"),
        }
        // Bit rot in the same file is still skipped in favour of t=4.
        let mut rotten = bytes;
        let last = rotten.len() - 1;
        rotten[last] ^= 0x40;
        fs::write(&newest, &rotten).unwrap();
        let rec = recover(&dir).unwrap().unwrap();
        assert_eq!((rec.checkpoint_tick, rec.checkpoints_skipped), (4, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_refuses_a_journal_frame_holding_a_retired_query_kind() {
        let query = update(3, 6);
        assert!(query.entity.as_query().is_some());
        // The retired spec carried by a data-plane update, then by a
        // register op in the control section.
        let mut in_updates = 6u64.to_le_bytes().to_vec();
        in_updates.extend_from_slice(&1u32.to_le_bytes());
        wire::encode_into(&query, &mut in_updates);
        let at = in_updates.len() - 17;
        retire_spec(&mut in_updates, at);
        in_updates.extend_from_slice(&0u32.to_le_bytes());
        let mut in_controls = 6u64.to_le_bytes().to_vec();
        in_controls.extend_from_slice(&0u32.to_le_bytes());
        in_controls.extend_from_slice(&1u32.to_le_bytes());
        control::encode_into(&ControlOp::Register(query), &mut in_controls);
        let at = in_controls.len() - 17;
        retire_spec(&mut in_controls, at);

        for payload in [in_updates, in_controls] {
            assert_eq!(
                decode_frame(&payload).unwrap_err(),
                DecodeError::RetiredQueryKind
            );
            let dir = tmp_dir("retired-frame");
            write_checkpoint(&dir, 4, &[busy_snapshot()], &QueryRegistry::new()).unwrap();
            let mut w = JournalWriter::create(&dir, 4, true).unwrap();
            w.append(5, &[update(1, 5)]).unwrap();
            let path = w.path().to_path_buf();
            drop(w);
            let mut crc = Crc32::new();
            crc.update(&payload);
            let mut bytes = fs::read(&path).unwrap();
            let frame_at = bytes.len();
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc.finish().to_le_bytes());
            bytes.extend_from_slice(&payload);
            fs::write(&path, &bytes).unwrap();

            assert!(matches!(
                read_journal(&path),
                Err(DurabilityError::RetiredQueryKind { .. })
            ));
            match resume(&dir) {
                Err(DurabilityError::RetiredQueryKind { path: p }) => assert_eq!(p, path),
                other => panic!("expected a retired-kind refusal, got {other:?}"),
            }
            // The same frame with a checksum mismatch is a torn tail.
            bytes[frame_at + 4] ^= 0x01;
            fs::write(&path, &bytes).unwrap();
            let segment = read_journal(&path).unwrap();
            assert!(segment.torn_tail);
            assert_eq!(segment.frames.len(), 1);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// The registry is a hash map, so its iteration order depends on its
    /// insertion history; the encoder sorts, so equal registries still
    /// encode byte for byte.
    #[test]
    fn registry_encoding_ignores_observe_order() {
        let build = |ids: Vec<u64>| {
            let mut r = QueryRegistry::new();
            for id in ids {
                let spec = QuerySpec::square_range(1.0 + (id % 7) as f64);
                r.observe(QueryId(id * 7919), id % 5, spec, Some((id % 3) as u16));
            }
            r.deregister(QueryId(7919));
            r.note_unknown();
            r
        };
        let ascending = build((0..300).collect());
        let bytes = encode_checkpoint(3, &[], &ascending);
        for ids in [
            (0..300).map(|i| (i * 173) % 300).collect(),
            (0..300).rev().collect(),
        ] {
            let other = build(ids);
            assert_eq!(other, ascending);
            assert_eq!(encode_checkpoint(3, &[], &other), bytes);
        }
    }

    #[test]
    fn retired_param_slots_decode_to_the_same_engine() {
        // A run with the since-deleted join cache disabled wrote 0 into the
        // retired join_cache slot, one with the since-deleted batch sharder
        // configured wrote 8 / false into the two retired ingest slots, one
        // with the since-deleted adaptive grid wrote (1, 16, 4) into the
        // three retired index slots, one with the since-deleted wide join
        // kernel wrote 1 into the retired kernel slot, and one with the
        // since-deleted own-cell probe and untightened radii wrote 1 / 0
        // into the retired probe-scope and tighten slots, and one with
        // since-deleted join-within threads, member-filter ablation and
        // direction tolerance wrote 8 / 0 / 0.5 into those three slots;
        // such checkpoints must resume as the same engine as one holding
        // today's constants.
        let stripes = vec![busy_snapshot()];
        let new = encode_checkpoint(6, &stripes, &QueryRegistry::new());
        // Default params put 50 bytes ahead of the ingest slots: Θ_D, Θ_S,
        // grid (8+8+4), Δ, tolerance (8+8), four one-byte tags/flags, an
        // absent TTL (1), parallelism (8), join_cache (1). The stripe count
        // (8) precedes the first snapshot.
        let at = CKPT_HEADER + 8 + 50;
        let cache = at - 1;
        assert_eq!(new[cache], 1);
        // The tags/flags are shedding, probe scope, member filter and
        // tighten, in that order, right after the 36 bytes of scalars.
        let probe = CKPT_HEADER + 8 + 37;
        let member_filter = probe + 1;
        let tighten = probe + 2;
        assert_eq!(new[probe..=tighten], [0, 1, 1]);
        // The tolerance is the last of the scalars, the worker count
        // follows the absent TTL.
        let tolerance = probe - 9..probe - 1;
        assert_eq!(new[tolerance.clone()], 1e-6f64.to_le_bytes());
        let parallelism = tighten + 2;
        assert_eq!(new[parallelism..cache], [1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(new[at..at + 9], [0, 0, 0, 0, 0, 0, 0, 0, 1]);
        // Validation (1) and an absent deadline (1) follow; then the index
        // tag and both thresholds, still the old defaults (0, 32, 8).
        let idx = at + 9 + 2;
        assert_eq!(new[idx..idx + 9], [0, 32, 0, 0, 0, 8, 0, 0, 0]);
        // The shard count (8) follows; then the kernel tag, still 0.
        let kernel = idx + 9 + 8;
        assert_eq!(new[kernel], 0);
        let reseal = |mut bytes: Vec<u8>| {
            let crc = checksum(&[&bytes[8..24], &bytes[CKPT_HEADER..]]);
            bytes[24..CKPT_HEADER].copy_from_slice(&crc.to_le_bytes());
            bytes
        };
        let mut uncached = new.clone();
        uncached[cache] = 0;
        let mut sharded = new.clone();
        sharded[at] = 8;
        sharded[at + 8] = 0;
        let mut adaptive = new.clone();
        adaptive[idx..idx + 9].copy_from_slice(&[1, 16, 0, 0, 0, 4, 0, 0, 0]);
        let mut wide = new.clone();
        wide[kernel] = 1;
        let mut own_cell = new.clone();
        own_cell[probe] = 1;
        own_cell[tighten] = 0;
        let mut threaded = new.clone();
        threaded[parallelism] = 8;
        threaded[member_filter] = 0;
        threaded[tolerance].copy_from_slice(&0.5f64.to_le_bytes());
        for at in [cache, idx, kernel, probe] {
            let mut corrupt = new.clone();
            corrupt[at] = 2;
            assert!(matches!(
                decode_checkpoint(&reseal(corrupt)),
                Err(SnapshotError::Inconsistent(_))
            ));
        }
        let new = decode_checkpoint(&new).unwrap();
        let engine =
            |s: &CheckpointState| EngineSnapshot::capture(&s.stripes[0].restore().unwrap());
        for old in [uncached, sharded, adaptive, wide, own_cell, threaded] {
            let old = decode_checkpoint(&reseal(old)).unwrap();
            assert_eq!(old, new);
            assert_eq!(engine(&old), engine(&new));
        }
    }

    #[test]
    fn journal_frames_roundtrip_controls() {
        let dir = tmp_dir("journal-controls");
        let mut w = JournalWriter::create(&dir, 0, false).unwrap();
        let batch = vec![update(0, 1), update(1, 1)];
        let controls = vec![
            ControlOp::Register(churn_query(501, 1)),
            ControlOp::Deregister(QueryId(77)),
        ];
        w.append_frame(1, &batch, &controls).unwrap();
        // The wrapper writes an (empty) control section too.
        w.append(2, &batch).unwrap();
        let path = w.path().to_path_buf();
        drop(w);
        let seg = read_journal(&path).unwrap();
        assert!(!seg.torn_tail);
        assert_eq!(seg.frames[0].updates, batch);
        assert_eq!(seg.frames[0].controls, controls);
        assert_eq!(seg.frames[1].controls, Vec::new());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_replays_wire_attrs_faithfully() {
        // Round-trip through the wire codec inside a frame must preserve
        // attribute payloads, not just positions.
        let dir = tmp_dir("journal-attrs");
        let mut w = JournalWriter::create(&dir, 0, false).unwrap();
        let batch = vec![update(3, 1), update(7, 1)];
        w.append(1, &batch).unwrap();
        let path = w.path().to_path_buf();
        drop(w);
        let seg = read_journal(&path).unwrap();
        assert_eq!(seg.frames[0].updates, batch);
        match &seg.frames[0].updates[1].attrs {
            EntityAttrs::Query(q) => assert_eq!(q.spec, QuerySpec::square_range(13.0)),
            other => panic!("expected query attrs, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
