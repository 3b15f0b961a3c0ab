//! Compact binary encoding of location updates.
//!
//! The stream substrate transports updates between the generator and the
//! query engine; in a deployed system these records would cross a network.
//! The encoding is a fixed little-endian layout:
//!
//! ```text
//! kind:u8  id:u64  x:f64 y:f64  t:u64  speed:f64  cnx:f64 cny:f64  attrs…
//! attrs(object): class:u8
//! attrs(query):  spec
//! spec:          0:u8 width:f64 height:f64    (range)
//!                1:u8                          (retired: refused)
//! ```
//!
//! The `spec` layout is also the one the checkpoint codec writes for every
//! query it holds, through [`encode_spec`] and [`decode_spec`]. Tag 1
//! was a k-nearest-neighbour query; that extension is gone, and a record
//! carrying it decodes to [`DecodeError::RetiredQueryKind`].
//!
//! Writers append to a `Vec<u8>`. Readers consume from the front of a
//! `&mut &[u8]` through the `read_*` functions, the one bounds-checked
//! cursor every binary format in the workspace reads with: a short read
//! is [`DecodeError::Truncated`] and leaves the cursor where it was.

use scuba_spatial::Point;

use crate::ids::{ObjectId, QueryId};
use crate::update::{EntityAttrs, LocationUpdate, ObjectAttrs, ObjectClass, QueryAttrs, QuerySpec};

const KIND_OBJECT: u8 = 0;
const KIND_QUERY: u8 = 1;

const SPEC_RANGE: u8 = 0;
/// The spec tag the retired k-nearest-neighbour query was written with.
/// No encoder writes it; [`decode_spec`] refuses it.
pub const SPEC_RETIRED_KNN: u8 = 1;

/// Errors raised while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than the layout requires.
    Truncated,
    /// An unknown discriminant byte.
    BadTag(u8),
    /// A query spec of a kind this engine no longer answers
    /// ([`SPEC_RETIRED_KNN`]).
    RetiredQueryKind,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated update record"),
            DecodeError::BadTag(t) => write!(f, "unknown tag byte {t}"),
            DecodeError::RetiredQueryKind => write!(
                f,
                "retired query kind (spec tag {SPEC_RETIRED_KNN}): only range queries are answered"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

fn class_to_byte(c: ObjectClass) -> u8 {
    match c {
        ObjectClass::Car => 0,
        ObjectClass::Truck => 1,
        ObjectClass::Bus => 2,
        ObjectClass::Pedestrian => 3,
        ObjectClass::Child => 4,
        ObjectClass::Emergency => 5,
    }
}

fn class_from_byte(b: u8) -> Result<ObjectClass, DecodeError> {
    Ok(match b {
        0 => ObjectClass::Car,
        1 => ObjectClass::Truck,
        2 => ObjectClass::Bus,
        3 => ObjectClass::Pedestrian,
        4 => ObjectClass::Child,
        5 => ObjectClass::Emergency,
        other => return Err(DecodeError::BadTag(other)),
    })
}

/// Encodes one update, appending to `buf`.
pub fn encode_into(update: &LocationUpdate, buf: &mut Vec<u8>) {
    let (kind, id) = match update.entity {
        crate::ids::EntityRef::Object(ObjectId(id)) => (KIND_OBJECT, id),
        crate::ids::EntityRef::Query(QueryId(id)) => (KIND_QUERY, id),
    };
    buf.push(kind);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&update.loc.x.to_le_bytes());
    buf.extend_from_slice(&update.loc.y.to_le_bytes());
    buf.extend_from_slice(&update.time.to_le_bytes());
    buf.extend_from_slice(&update.speed.to_le_bytes());
    buf.extend_from_slice(&update.cn_loc.x.to_le_bytes());
    buf.extend_from_slice(&update.cn_loc.y.to_le_bytes());
    match &update.attrs {
        EntityAttrs::Object(ObjectAttrs { class }) => buf.push(class_to_byte(*class)),
        EntityAttrs::Query(QueryAttrs { spec }) => encode_spec(spec, buf),
    }
}

/// Encodes one query spec (tag byte, then its fields), appending to `buf`.
pub fn encode_spec(spec: &QuerySpec, buf: &mut Vec<u8>) {
    let QuerySpec::Range { width, height } = *spec;
    buf.push(SPEC_RANGE);
    buf.extend_from_slice(&width.to_le_bytes());
    buf.extend_from_slice(&height.to_le_bytes());
}

/// Decodes one query spec from the front of `buf`, consuming its bytes.
pub fn decode_spec(buf: &mut &[u8]) -> Result<QuerySpec, DecodeError> {
    match read_u8(buf)? {
        SPEC_RANGE => Ok(QuerySpec::Range {
            width: read_f64(buf)?,
            height: read_f64(buf)?,
        }),
        SPEC_RETIRED_KNN => Err(DecodeError::RetiredQueryKind),
        other => Err(DecodeError::BadTag(other)),
    }
}

/// Decodes one update from the front of `buf`, consuming its bytes.
pub fn decode(buf: &mut &[u8]) -> Result<LocationUpdate, DecodeError> {
    let kind = read_u8(buf)?;
    let id = read_u64(buf)?;
    let loc = Point::new(read_f64(buf)?, read_f64(buf)?);
    let time = read_u64(buf)?;
    let speed = read_f64(buf)?;
    let cn_loc = Point::new(read_f64(buf)?, read_f64(buf)?);
    match kind {
        KIND_OBJECT => {
            let class = class_from_byte(read_u8(buf)?)?;
            Ok(LocationUpdate::object(
                ObjectId(id),
                loc,
                time,
                speed,
                cn_loc,
                ObjectAttrs { class },
            ))
        }
        KIND_QUERY => {
            let spec = decode_spec(buf)?;
            Ok(LocationUpdate::query(
                QueryId(id),
                loc,
                time,
                speed,
                cn_loc,
                QueryAttrs { spec },
            ))
        }
        other => Err(DecodeError::BadTag(other)),
    }
}

/// Splits the first `N` bytes off the front of `buf`. A buffer shorter
/// than `N` is [`DecodeError::Truncated`] and is left as it was.
fn read_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    if buf.len() < N {
        return Err(DecodeError::Truncated);
    }
    let (head, rest) = buf.split_at(N);
    *buf = rest;
    Ok(head.try_into().expect("split_at returns N bytes"))
}

/// Reads one byte.
pub fn read_u8(buf: &mut &[u8]) -> Result<u8, DecodeError> {
    read_array(buf).map(|[b]| b)
}

/// Reads a little-endian `u32`.
pub fn read_u32(buf: &mut &[u8]) -> Result<u32, DecodeError> {
    read_array(buf).map(u32::from_le_bytes)
}

/// Reads a little-endian `u64`.
pub fn read_u64(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    read_array(buf).map(u64::from_le_bytes)
}

/// Reads a little-endian `f64`.
pub fn read_f64(buf: &mut &[u8]) -> Result<f64, DecodeError> {
    read_array(buf).map(f64::from_le_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(update: &LocationUpdate) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_into(update, &mut buf);
        buf
    }

    fn sample_object() -> LocationUpdate {
        LocationUpdate::object(
            ObjectId(42),
            Point::new(1.5, -2.5),
            100,
            33.25,
            Point::new(500.0, 600.0),
            ObjectAttrs {
                class: ObjectClass::Bus,
            },
        )
    }

    fn sample_range_query() -> LocationUpdate {
        LocationUpdate::query(
            QueryId(7),
            Point::new(9.0, 8.0),
            101,
            15.0,
            Point::new(0.0, 0.0),
            QueryAttrs {
                spec: QuerySpec::Range {
                    width: 20.0,
                    height: 10.0,
                },
            },
        )
    }

    #[test]
    fn roundtrip_object() {
        let u = sample_object();
        let bytes = encode(&u);
        let mut buf = &bytes[..];
        assert_eq!(decode(&mut buf).unwrap(), u);
        assert!(buf.is_empty());
    }

    #[test]
    fn roundtrip_range_query() {
        let u = sample_range_query();
        assert_eq!(decode(&mut &encode(&u)[..]).unwrap(), u);
    }

    #[test]
    fn range_query_bytes_are_pinned() {
        // The spec layout is shared with the checkpoint codec and written
        // to disk: tag 0, then width and height.
        let bytes = encode(&sample_range_query());
        let spec = &bytes[bytes.len() - 17..];
        assert_eq!(spec[0], SPEC_RANGE);
        assert_eq!(spec[1..9], 20.0f64.to_le_bytes());
        assert_eq!(spec[9..], 10.0f64.to_le_bytes());
    }

    #[test]
    fn retired_spec_tag_is_refused() {
        // A kNN query as the retired encoder wrote it: tag 1, then k.
        let mut bytes = encode(&sample_range_query());
        bytes.truncate(bytes.len() - 17);
        bytes.push(SPEC_RETIRED_KNN);
        bytes.extend_from_slice(&3u32.to_le_bytes());
        assert_eq!(decode(&mut &bytes[..]), Err(DecodeError::RetiredQueryKind));
        assert_eq!(
            decode_spec(&mut &[SPEC_RETIRED_KNN][..]),
            Err(DecodeError::RetiredQueryKind)
        );
    }

    #[test]
    fn unknown_spec_tag_is_bad() {
        assert_eq!(decode_spec(&mut &[7u8][..]), Err(DecodeError::BadTag(7)));
    }

    #[test]
    fn stream_of_updates() {
        let updates = [sample_object(), sample_range_query()];
        let mut bytes = Vec::new();
        for u in &updates {
            encode_into(u, &mut bytes);
        }
        let mut buf = &bytes[..];
        for u in &updates {
            assert_eq!(&decode(&mut buf).unwrap(), u);
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn truncated_is_rejected() {
        for u in [sample_object(), sample_range_query()] {
            let bytes = encode(&u);
            for cut in 0..bytes.len() {
                assert_eq!(
                    decode(&mut &bytes[..cut]),
                    Err(DecodeError::Truncated),
                    "{cut}-byte prefix of {u:?}"
                );
            }
        }
    }

    #[test]
    fn short_read_leaves_the_cursor_in_place() {
        let bytes = [1u8, 2, 3];
        let mut buf = &bytes[..];
        assert_eq!(read_u32(&mut buf), Err(DecodeError::Truncated));
        assert_eq!(buf, &bytes[..]);
        assert_eq!(read_u8(&mut buf), Ok(1));
        assert_eq!(read_u8(&mut buf), Ok(2));
        assert_eq!(read_u8(&mut buf), Ok(3));
        assert_eq!(read_u8(&mut buf), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_kind_rejected() {
        let mut bytes = encode(&sample_object());
        bytes[0] = 99;
        assert_eq!(decode(&mut &bytes[..]), Err(DecodeError::BadTag(99)));
    }

    #[test]
    fn bad_class_rejected() {
        let mut bytes = encode(&sample_object());
        let last = bytes.len() - 1;
        bytes[last] = 200;
        assert_eq!(decode(&mut &bytes[..]), Err(DecodeError::BadTag(200)));
    }

    #[test]
    fn all_object_classes_roundtrip() {
        for class in ObjectClass::ALL {
            let mut u = sample_object();
            u.attrs = EntityAttrs::Object(ObjectAttrs { class });
            assert_eq!(decode(&mut &encode(&u)[..]).unwrap(), u);
        }
    }
}
