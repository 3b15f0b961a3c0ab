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
//! The checkpoint payload uses a hand-rolled, versioned binary codec (not
//! `serde_json`) so the on-disk format is self-contained, byte-stable and
//! cheap to checksum; journal frames carry the wire encoding from
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

use bytes::{BufMut as _, BytesMut};

use scuba_motion::{
    control, wire, ControlOp, EntityRef, LocationUpdate, ObjectAttrs, ObjectClass, ObjectId,
    QueryAttrs, QueryId, QuerySpec,
};
use scuba_spatial::{Point, Polar, Rect, Time, Vector};
use scuba_stream::{
    ContinuousOperator, EvaluationReport, LatencyTrack, PanicInjector, RunReport, Stopwatch,
    UpdateSource, UpdateValidator, ValidationPolicy,
};

use crate::engine::ScubaOperator;
use crate::index::IndexKind;
use crate::kernel::KernelKind;
use crate::params::{ProbeScope, ScubaParams};
use crate::registry::{ControlGauges, QueryRecord, QueryRegistry};
use crate::shard::{ShardedScubaOperator, WorkerFailure};
use crate::shedding::SheddingMode;
use crate::snapshot::{ClusterSnapshot, EngineSnapshot, MemberSnapshot, SnapshotError};

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected) — hand-rolled so the durable format has no
// dependency beyond the standard library. Slicing-by-8: eight tables fold
// eight input bytes per step; the values are those of the byte-wise loop.
// ---------------------------------------------------------------------------

const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
    while t < 8 {
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
        let mut chunks = data.chunks_exact(8);
        for ch in &mut chunks {
            let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
            c = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][ch[4] as usize]
                ^ t[2][ch[5] as usize]
                ^ t[1][ch[6] as usize]
                ^ t[0][ch[7] as usize];
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

/// A bounds-checked little-endian cursor over a snapshot payload; every
/// short read is [`SnapshotError::Truncated`], every invalid enum tag is
/// [`SnapshotError::Inconsistent`].
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.data.len() - self.pos < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SnapshotError::Inconsistent(format!("bad bool tag {t}"))),
        }
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            t => Err(SnapshotError::Inconsistent(format!("bad option tag {t}"))),
        }
    }

    fn point(&mut self) -> Result<Point, SnapshotError> {
        Ok(Point {
            x: self.f64()?,
            y: self.f64()?,
        })
    }

    fn vector(&mut self) -> Result<Vector, SnapshotError> {
        Ok(Vector {
            dx: self.f64()?,
            dy: self.f64()?,
        })
    }

    /// A checked element count: an upper bound derived from the remaining
    /// payload keeps a corrupted count from triggering a huge allocation.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.data.len() - self.pos {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }
}

fn encode_params(out: &mut Vec<u8>, p: &ScubaParams) {
    put_f64(out, p.theta_d);
    put_f64(out, p.theta_s);
    put_u32(out, p.grid_cells);
    put_u64(out, p.delta);
    put_f64(out, p.cnloc_tolerance);
    match p.shedding {
        SheddingMode::None => put_u8(out, 0),
        SheddingMode::Partial { eta } => {
            put_u8(out, 1);
            put_f64(out, eta);
        }
        SheddingMode::Full => put_u8(out, 2),
    }
    put_u8(out, matches!(p.probe_scope, ProbeScope::OwnCell) as u8);
    put_bool(out, p.member_filter);
    put_bool(out, p.tighten_radii);
    put_opt_u64(out, p.entity_ttl);
    put_u64(out, p.parallelism as u64);
    put_bool(out, p.join_cache);
    // Two slots of knobs that no longer exist keep their default values,
    // so the layout (and `FORMAT_VERSION`) is unchanged.
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
    put_u8(out, matches!(p.index, IndexKind::Adaptive) as u8);
    put_u32(out, p.split_threshold);
    put_u32(out, p.merge_threshold);
    put_u64(out, p.shards as u64);
    put_u8(out, matches!(p.kernel, KernelKind::Simd) as u8);
}

fn decode_params(r: &mut Reader<'_>) -> Result<ScubaParams, SnapshotError> {
    let theta_d = r.f64()?;
    let theta_s = r.f64()?;
    let grid_cells = r.u32()?;
    let delta = r.u64()?;
    let cnloc_tolerance = r.f64()?;
    let shedding = match r.u8()? {
        0 => SheddingMode::None,
        1 => SheddingMode::Partial { eta: r.f64()? },
        2 => SheddingMode::Full,
        t => return Err(SnapshotError::Inconsistent(format!("bad shedding tag {t}"))),
    };
    let probe_scope = match r.u8()? {
        0 => ProbeScope::ThetaDisk,
        1 => ProbeScope::OwnCell,
        t => {
            return Err(SnapshotError::Inconsistent(format!(
                "bad probe-scope tag {t}"
            )))
        }
    };
    let member_filter = r.bool()?;
    let tighten_radii = r.bool()?;
    let entity_ttl = r.opt_u64()?;
    let parallelism = r.u64()? as usize;
    let join_cache = r.bool()?;
    // The two retired slots: whatever an older writer put there is skipped.
    r.u64()?;
    r.bool()?;
    let validation = match r.u8()? {
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
    let deadline_us = r.opt_u64()?;
    let index = match r.u8()? {
        0 => IndexKind::Uniform,
        1 => IndexKind::Adaptive,
        t => return Err(SnapshotError::Inconsistent(format!("bad index tag {t}"))),
    };
    let split_threshold = r.u32()?;
    let merge_threshold = r.u32()?;
    let shards = r.u64()? as usize;
    let kernel = match r.u8()? {
        0 => KernelKind::Scalar,
        1 => KernelKind::Simd,
        t => return Err(SnapshotError::Inconsistent(format!("bad kernel tag {t}"))),
    };
    Ok(ScubaParams {
        theta_d,
        theta_s,
        grid_cells,
        delta,
        cnloc_tolerance,
        shedding,
        probe_scope,
        member_filter,
        tighten_radii,
        entity_ttl,
        parallelism,
        join_cache,
        validation,
        deadline_us,
        index,
        split_threshold,
        merge_threshold,
        shards,
        kernel,
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

fn decode_entity(r: &mut Reader<'_>) -> Result<EntityRef, SnapshotError> {
    match r.u8()? {
        0 => Ok(EntityRef::Object(ObjectId(r.u64()?))),
        1 => Ok(EntityRef::Query(QueryId(r.u64()?))),
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
        put_u64(out, c.cid);
        put_point(out, c.centroid);
        put_f64(out, c.radius);
        put_point(out, c.cn_loc);
        put_f64(out, c.ave_speed);
        put_u64(out, c.created_at);
        put_f64(out, c.max_query_radius);
        put_vector(out, c.total_drift);
        put_u64(out, c.members.len() as u64);
        for m in &c.members {
            encode_entity(out, m.entity);
            put_f64(out, m.speed);
            match m.rel {
                None => put_u8(out, 0),
                Some(p) => {
                    put_u8(out, 1);
                    put_f64(out, p.r);
                    put_f64(out, p.theta);
                }
            }
            put_u64(out, m.last_seen);
            put_vector(out, m.drift_mark);
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
        match attrs.spec {
            QuerySpec::Range { width, height } => {
                put_u8(out, 0);
                put_f64(out, width);
                put_f64(out, height);
            }
            QuerySpec::Knn { k } => {
                put_u8(out, 1);
                put_u32(out, k);
            }
        }
    }
}

fn decode_snapshot(r: &mut Reader<'_>) -> Result<EngineSnapshot, SnapshotError> {
    let params = decode_params(r)?;
    let area = Rect {
        min: r.point()?,
        max: r.point()?,
    };
    let next_cluster_id = r.u64()?;
    let updates_processed = r.u64()?;
    let n_clusters = r.count(8 * 8 + 8 + 8)?;
    let mut clusters = Vec::with_capacity(n_clusters);
    for _ in 0..n_clusters {
        let cid = r.u64()?;
        let centroid = r.point()?;
        let radius = r.f64()?;
        let cn_loc = r.point()?;
        let ave_speed = r.f64()?;
        let created_at = r.u64()?;
        let max_query_radius = r.f64()?;
        let total_drift = r.vector()?;
        let n_members = r.count(9 + 8 + 1 + 8 + 16)?;
        let mut members = Vec::with_capacity(n_members);
        for _ in 0..n_members {
            let entity = decode_entity(r)?;
            let speed = r.f64()?;
            let rel = match r.u8()? {
                0 => None,
                1 => Some(Polar {
                    r: r.f64()?,
                    theta: r.f64()?,
                }),
                t => return Err(SnapshotError::Inconsistent(format!("bad polar tag {t}"))),
            };
            let last_seen = r.u64()?;
            let drift_mark = r.vector()?;
            members.push(MemberSnapshot {
                entity,
                speed,
                rel,
                last_seen,
                drift_mark,
            });
        }
        clusters.push(ClusterSnapshot {
            cid,
            centroid,
            radius,
            cn_loc,
            ave_speed,
            created_at,
            max_query_radius,
            total_drift,
            members,
        });
    }
    let n_objects = r.count(9)?;
    let mut objects = Vec::with_capacity(n_objects);
    for _ in 0..n_objects {
        let id = ObjectId(r.u64()?);
        let tag = r.u8()? as usize;
        let class = *ObjectClass::ALL
            .get(tag)
            .ok_or_else(|| SnapshotError::Inconsistent(format!("bad class tag {tag}")))?;
        objects.push((id, ObjectAttrs { class }));
    }
    let n_queries = r.count(9)?;
    let mut queries = Vec::with_capacity(n_queries);
    for _ in 0..n_queries {
        let id = QueryId(r.u64()?);
        let spec = match r.u8()? {
            0 => QuerySpec::Range {
                width: r.f64()?,
                height: r.f64()?,
            },
            1 => QuerySpec::Knn { k: r.u32()? },
            t => return Err(SnapshotError::Inconsistent(format!("bad spec tag {t}"))),
        };
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
    for (QueryId(id), rec) in registry.iter() {
        put_u64(out, id);
        put_u64(out, rec.registered_at);
        match rec.spec {
            QuerySpec::Range { width, height } => {
                put_u8(out, 0);
                put_f64(out, width);
                put_f64(out, height);
            }
            QuerySpec::Knn { k } => {
                put_u8(out, 1);
                put_u32(out, k);
            }
        }
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

fn decode_registry(r: &mut Reader<'_>) -> Result<QueryRegistry, SnapshotError> {
    let n = r.count(9)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let qid = QueryId(r.u64()?);
        let registered_at = r.u64()?;
        let spec = match r.u8()? {
            0 => QuerySpec::Range {
                width: r.f64()?,
                height: r.f64()?,
            },
            1 => QuerySpec::Knn { k: r.u32()? },
            t => return Err(SnapshotError::Inconsistent(format!("bad spec tag {t}"))),
        };
        let owner = match r.u8()? {
            0 => None,
            1 => Some(r.u32()? as u16),
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
    let registered_total = r.u64()?;
    let deregistered_total = r.u64()?;
    let unknown_total = r.u64()?;
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
pub const FORMAT_VERSION: u32 = 1;
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
pub fn encode_checkpoint(tick: Time, stripes: &[EngineSnapshot], registry: &QueryRegistry) -> Vec<u8> {
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
    let mut header = Reader::new(&bytes[4..CKPT_HEADER]);
    let version = header.u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::VersionMismatch {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let tick = header.u64()?;
    let payload_len = header.u64()? as usize;
    let stored = header.u32()?;
    let payload = bytes
        .get(CKPT_HEADER..CKPT_HEADER + payload_len)
        .ok_or(SnapshotError::Truncated)?;
    let computed = checksum(&[&bytes[8..24], payload]);
    if computed != stored {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    let mut r = Reader::new(payload);
    let n = r.count(8)?;
    let mut stripes = Vec::with_capacity(n);
    for _ in 0..n {
        stripes.push(decode_snapshot(&mut r)?);
    }
    // The registry section was appended to the payload after the stripes;
    // its absence (a checkpoint from before the control plane) decodes to
    // an empty registry rather than an error.
    let registry = if r.pos < r.data.len() {
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
    decode_checkpoint(&bytes).map_err(|e| DurabilityError::Snapshot {
        path: path.to_path_buf(),
        source: e,
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
    frame: BytesMut,
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
            frame: BytesMut::new(),
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
        frame.put_slice(&[0; 8]);
        frame.put_u64_le(tick);
        frame.put_u32_le(updates.len() as u32);
        for u in updates {
            wire::encode_into(u, frame);
        }
        frame.put_u32_le(controls.len() as u32);
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
/// it means the file is not a journal at all.
pub fn read_journal(path: &Path) -> Result<JournalSegment, DurabilityError> {
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
    let mut header = Reader::new(&bytes[4..JRNL_HEADER]);
    let version = header.u32().expect("header length checked");
    if version != FORMAT_VERSION {
        return Err(DurabilityError::Journal {
            path: path.to_path_buf(),
            detail: format!("unsupported segment version {version}"),
        });
    }
    let base_tick = header.u64().expect("header length checked");

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
            Err(()) => {
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

fn decode_frame(payload: &[u8]) -> Result<JournalFrame, ()> {
    if payload.len() < 12 {
        return Err(());
    }
    let tick = u64::from_le_bytes(payload[..8].try_into().unwrap());
    let count = u32::from_le_bytes(payload[8..12].try_into().unwrap());
    let mut buf = &payload[12..];
    let mut updates = Vec::with_capacity(count.min(1 << 20) as usize);
    for _ in 0..count {
        updates.push(wire::decode(&mut buf).map_err(|_| ())?);
    }
    // Pre-control-plane frames end with the updates; newer ones append a
    // control count and the encoded ops.
    let mut controls = Vec::new();
    if !buf.is_empty() {
        if buf.len() < 4 {
            return Err(());
        }
        let n = u32::from_le_bytes(buf[..4].try_into().unwrap());
        buf = &buf[4..];
        controls.reserve(n.min(1 << 20) as usize);
        for _ in 0..n {
            controls.push(control::decode(&mut buf).map_err(|_| ())?);
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
        let Ok(segment) = read_journal(&path) else {
            torn_tail = true;
            break;
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

    /// Restores an operator from checkpoint stripes: one stripe rebuilds
    /// the single-store operator, several rebuild the sharded executor.
    pub fn restore(stripes: &[EngineSnapshot]) -> Result<Self, SnapshotError> {
        match stripes {
            [] => Err(SnapshotError::ShardMismatch {
                found: 0,
                expected: 1,
            }),
            [single] => Ok(DurableOperator::Single(Box::new(
                ScubaOperator::from_engine(single.restore()?),
            ))),
            many => Ok(DurableOperator::Sharded(Box::new(
                ShardedScubaOperator::from_stripes(many)?,
            ))),
        }
    }

    /// Attaches (or clears) the worker-panic injector; a no-op for the
    /// single-store shape, which has no workers to panic.
    pub fn set_injector(&mut self, injector: Option<Arc<PanicInjector>>) {
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

    /// The ingestion validator, when this shape carries one (the sharded
    /// executor validates per shard and exposes none).
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
    pub fn shedding_label(&self) -> String {
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
    let delta = operator.params().delta.max(1);
    let mut reports = Vec::new();
    let mut report_gauges = Vec::new();
    let mut resume_tick = recovery.checkpoint_tick;
    let replayed_frames = recovery.frames.len() as u64;
    for frame in &recovery.frames {
        operator.apply_control(&frame.controls, frame.tick);
        operator.process_batch(&frame.updates);
        if let Some(fault) = operator.fault() {
            return Err(DurabilityError::ReplayFailed {
                detail: format!("operator faulted at replayed t={}: {fault}", frame.tick),
            });
        }
        if frame.tick % delta == 0 {
            let report =
                operator
                    .try_evaluate(frame.tick)
                    .map_err(|e| DurabilityError::ReplayFailed {
                        detail: format!("evaluation failed at replayed t={}: {e}", frame.tick),
                    })?;
            reports.push(report);
            report_gauges.push(operator.control_gauges());
        }
        resume_tick = frame.tick;
    }
    Ok(Some(Resumed {
        operator,
        resume_tick,
        reports,
        report_gauges,
        replayed_frames,
        torn_tail: recovery.torn_tail,
    }))
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

fn rebuild(
    stripes: &[EngineSnapshot],
    registry: &QueryRegistry,
    pending: &[JournalFrame],
    delta: u64,
    injector: Option<&Arc<PanicInjector>>,
    skip_eval_at: Time,
) -> Result<DurableOperator, TickFailure> {
    let mut operator = DurableOperator::restore(stripes)
        .map_err(|e| TickFailure::Fatal(format!("restore from checkpoint failed: {e}")))?;
    operator.set_registry(registry.clone());
    operator.set_injector(injector.cloned());
    for frame in pending {
        operator.apply_control(&frame.controls, frame.tick);
        operator.process_batch(&frame.updates);
        if let Some(fault) = operator.fault() {
            return Err(TickFailure::Fatal(fault));
        }
        // Re-evaluate at Δ boundaries so evaluate-side state mutations are
        // reapplied — except at the tick being retried, which the outer
        // loop evaluates itself once the rebuild succeeds.
        if frame.tick % delta == 0 && frame.tick != skip_eval_at {
            operator.try_evaluate(frame.tick)?;
        }
    }
    Ok(operator)
}

/// Runs a durable, supervised SCUBA loop: resume from `dir` if durable
/// state exists, checkpoint every `cfg.checkpoint_every` ticks, journal
/// every tick's batch write-ahead, and survive shard-worker panics by
/// restoring from checkpoint + journal under a bounded restart budget.
///
/// The source is expected to be **deterministic from tick 1** (a seeded
/// generator): on resume the loop discards the ticks durable state already
/// covers, so re-delivery reproduces the original stream. Budget
/// exhaustion and fatal operator faults abort the run via
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
                        match rebuild(&ckpt_stripes, &ckpt_registry, &pending, delta, injector, now)
                        {
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
    use scuba_motion::EntityAttrs;

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
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
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
                payload.extend_from_slice(&wire::encode(u));
            }
            put_u32(&mut payload, controls.len() as u32);
            let mut ops = BytesMut::new();
            for op in *controls {
                control::encode_into(op, &mut ops);
            }
            payload.extend_from_slice(&ops);
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

    #[test]
    fn snapshot_codec_roundtrips_nondefault_params() {
        let mut snapshot = busy_snapshot();
        // Exercise every enum arm and option the codec carries, so a field
        // added to ScubaParams without a codec update fails this test.
        snapshot.params = ScubaParams {
            shedding: SheddingMode::Partial { eta: 0.5 },
            probe_scope: ProbeScope::OwnCell,
            entity_ttl: Some(17),
            validation: ValidationPolicy::Reject,
            deadline_us: Some(12_345),
            index: IndexKind::Adaptive,
            kernel: KernelKind::Simd,
            shards: 2,
            member_filter: false,
            ..ScubaParams::default()
        };
        let mut out = Vec::new();
        encode_snapshot(&mut out, &snapshot);
        let decoded = decode_snapshot(&mut Reader::new(&out)).unwrap();
        assert_eq!(decoded, snapshot);
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

    fn results_by_tick(report: &RunReport) -> Vec<(Time, usize)> {
        report
            .evaluations
            .iter()
            .map(|e| (e.now, e.results.len()))
            .collect()
    }

    #[test]
    fn supervised_run_without_failures_matches_plain_executor() {
        let dir = tmp_dir("supervised-plain");
        let params = ScubaParams::default();
        let area = Rect::square(1000.0);
        let cfg = SuperviseConfig {
            duration: 12,
            checkpoint_every: 4,
            ..SuperviseConfig::default()
        };
        let outcome = run_supervised(
            &mut det_source(),
            &params,
            area,
            &dir,
            &cfg,
            None,
            &mut NoObserver,
        )
        .unwrap();
        assert_eq!(outcome.report.aborted, None);
        assert_eq!(outcome.resumed_at, None);
        assert_eq!(outcome.stats.restarts, 0);
        assert_eq!(outcome.stats.journal_frames, 12);
        assert!(outcome.stats.checkpoints >= 4, "t=0 plus every 4 ticks");

        let mut oracle_op = ScubaOperator::new(params, area);
        let oracle = scuba_stream::Executor::new(scuba_stream::ExecutorConfig {
            delta: params.delta,
            duration: 12,
        })
        .run(&mut det_source(), &mut oracle_op);

        let sup: Vec<_> = outcome
            .report
            .evaluations
            .iter()
            .map(|e| (e.now, e.results.clone()))
            .collect();
        let ora: Vec<_> = oracle
            .evaluations
            .iter()
            .map(|e| (e.now, e.results.clone()))
            .collect();
        assert_eq!(sup, ora);
        assert_eq!(
            outcome.operator.capture(),
            vec![EngineSnapshot::capture(oracle_op.engine())]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_after_stop_produces_identical_tail() {
        let dir = tmp_dir("supervised-resume");
        let params = ScubaParams::default();
        let area = Rect::square(1000.0);

        // Oracle: uninterrupted 16-tick run.
        let full = SuperviseConfig {
            duration: 16,
            checkpoint_every: 5,
            ..SuperviseConfig::default()
        };
        let oracle_dir = tmp_dir("supervised-resume-oracle");
        let oracle = run_supervised(
            &mut det_source(),
            &params,
            area,
            &oracle_dir,
            &full,
            None,
            &mut NoObserver,
        )
        .unwrap();

        // Interrupted: stop at t=9 (mid checkpoint interval), then resume.
        let first = SuperviseConfig {
            duration: 9,
            ..full
        };
        let first_outcome = run_supervised(
            &mut det_source(),
            &params,
            area,
            &dir,
            &first,
            None,
            &mut NoObserver,
        )
        .unwrap();
        let second = run_supervised(
            &mut det_source(),
            &params,
            area,
            &dir,
            &full,
            None,
            &mut NoObserver,
        )
        .unwrap();
        assert_eq!(second.resumed_at, Some(9));

        // The resumed run re-reports the evaluations it replayed from the
        // journal; merge both runs keeping the last report per tick and
        // compare against the oracle.
        let mut merged: std::collections::BTreeMap<Time, Vec<_>> = Default::default();
        for e in first_outcome
            .report
            .evaluations
            .iter()
            .chain(&second.report.evaluations)
        {
            merged.insert(e.now, e.results.clone());
        }
        let ora: Vec<_> = oracle
            .report
            .evaluations
            .iter()
            .map(|e| (e.now, e.results.clone()))
            .collect();
        let got: Vec<_> = merged.into_iter().collect();
        assert_eq!(got, ora);
        assert_eq!(second.operator.capture(), oracle.operator.capture());
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&oracle_dir);
    }

    #[test]
    fn injected_panic_is_survived_with_identical_results() {
        let dir = tmp_dir("supervised-panic");
        let params = ScubaParams::default().with_shards(2);
        let area = Rect::square(1000.0);
        let cfg = SuperviseConfig {
            duration: 10,
            checkpoint_every: 4,
            backoff: Duration::from_millis(1),
            ..SuperviseConfig::default()
        };
        let injector = Arc::new(PanicInjector::new(scuba_stream::PanicPlan {
            seed: 11,
            panic_prob: 1.0,
            rearm: false,
        }));
        let outcome = run_supervised(
            &mut det_source(),
            &params,
            area,
            &dir,
            &cfg,
            Some(&injector),
            &mut NoObserver,
        )
        .unwrap();
        assert!(injector.fired() > 0, "panics actually fired");
        assert!(outcome.stats.restarts > 0, "the supervisor restarted");
        assert_eq!(outcome.report.aborted, None, "restarts absorbed the panics");
        assert_eq!(outcome.report.restarts as u32, outcome.stats.restarts);

        // Identical answers to a panic-free supervised run.
        let clean_dir = tmp_dir("supervised-panic-clean");
        let clean = run_supervised(
            &mut det_source(),
            &params,
            area,
            &clean_dir,
            &cfg,
            None,
            &mut NoObserver,
        )
        .unwrap();
        assert_eq!(
            results_by_tick(&outcome.report),
            results_by_tick(&clean.report)
        );
        let survived: Vec<_> = outcome
            .report
            .evaluations
            .iter()
            .map(|e| (e.now, e.results.clone()))
            .collect();
        let reference: Vec<_> = clean
            .report
            .evaluations
            .iter()
            .map(|e| (e.now, e.results.clone()))
            .collect();
        assert_eq!(survived, reference);
        assert_eq!(outcome.operator.capture(), clean.operator.capture());
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&clean_dir);
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
            obs.healths[0].registered_total,
            obs.healths[0].active_queries,
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
        registry.observe(QueryId(9), 5, QuerySpec::Knn { k: 4 }, Some(1));
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

    #[test]
    fn retired_param_slots_decode_to_the_same_engine() {
        // A run with the since-deleted batch sharder configured wrote
        // 8 / false into the two retired params slots; its checkpoint
        // must resume as the same engine as one holding 0 / true.
        let stripes = vec![busy_snapshot()];
        let new = encode_checkpoint(6, &stripes, &QueryRegistry::new());
        // Default params put 50 bytes ahead of the slots: Θ_D, Θ_S, grid
        // (8+8+4), Δ, tolerance (8+8), four one-byte tags/flags, an absent
        // TTL (1), parallelism (8), join_cache (1). The stripe count (8)
        // precedes the first snapshot.
        let at = CKPT_HEADER + 8 + 50;
        assert_eq!(new[at..at + 9], [0, 0, 0, 0, 0, 0, 0, 0, 1]);
        let mut old = new.clone();
        old[at] = 8;
        old[at + 8] = 0;
        let crc = checksum(&[&old[8..24], &old[CKPT_HEADER..]]);
        old[24..CKPT_HEADER].copy_from_slice(&crc.to_le_bytes());
        let (old, new) = (
            decode_checkpoint(&old).unwrap(),
            decode_checkpoint(&new).unwrap(),
        );
        assert_eq!(old, new);
        let engine =
            |s: &CheckpointState| EngineSnapshot::capture(&s.stripes[0].restore().unwrap());
        assert_eq!(engine(&old), engine(&new));
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

    /// Deterministic churn: a register on every odd tick, a deregister of
    /// the previous tick's query on every even tick.
    struct ChurnSource {
        inner: DetSource,
    }

    impl UpdateSource for ChurnSource {
        fn next_tick(&mut self) -> Vec<LocationUpdate> {
            self.inner.next_tick()
        }

        fn next_controls(&mut self) -> Vec<ControlOp> {
            let t = self.inner.tick + 1;
            if t % 2 == 1 {
                vec![ControlOp::Register(churn_query(500 + t, t))]
            } else {
                vec![ControlOp::Deregister(QueryId(500 + t - 1))]
            }
        }
    }

    fn churn_source() -> ChurnSource {
        ChurnSource {
            inner: det_source(),
        }
    }

    #[test]
    fn churned_resume_matches_uninterrupted_run_including_registry() {
        let params = ScubaParams::default();
        let area = Rect::square(1000.0);
        let full = SuperviseConfig {
            duration: 16,
            checkpoint_every: 5,
            ..SuperviseConfig::default()
        };

        let oracle_dir = tmp_dir("churn-resume-oracle");
        let oracle = run_supervised(
            &mut churn_source(),
            &params,
            area,
            &oracle_dir,
            &full,
            None,
            &mut NoObserver,
        )
        .unwrap();
        assert_eq!(oracle.report.aborted, None);
        assert_eq!(oracle.report.controls_applied, 16, "one op per tick");

        // Stop at t=9 — mid checkpoint interval, with explicit register
        // and deregister ops on both sides of the cut — then resume.
        let dir = tmp_dir("churn-resume");
        let first = SuperviseConfig { duration: 9, ..full };
        let first_outcome = run_supervised(
            &mut churn_source(),
            &params,
            area,
            &dir,
            &first,
            None,
            &mut NoObserver,
        )
        .unwrap();
        let second = run_supervised(
            &mut churn_source(),
            &params,
            area,
            &dir,
            &full,
            None,
            &mut NoObserver,
        )
        .unwrap();
        assert_eq!(second.resumed_at, Some(9));

        // Per-tick answers, final engine state, and the registry (active
        // set, registration epochs, lifetime counters) all match the
        // uninterrupted run exactly.
        let mut merged: std::collections::BTreeMap<Time, Vec<_>> = Default::default();
        for e in first_outcome
            .report
            .evaluations
            .iter()
            .chain(&second.report.evaluations)
        {
            merged.insert(e.now, e.results.clone());
        }
        let ora: Vec<_> = oracle
            .report
            .evaluations
            .iter()
            .map(|e| (e.now, e.results.clone()))
            .collect();
        assert_eq!(merged.into_iter().collect::<Vec<_>>(), ora);
        assert_eq!(second.operator.capture(), oracle.operator.capture());
        assert_eq!(second.operator.registry(), oracle.operator.registry());
        assert_eq!(
            second.operator.control_gauges(),
            oracle.operator.control_gauges()
        );
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&oracle_dir);
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
