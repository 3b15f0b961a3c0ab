//! The control plane: typed query-lifecycle operations.
//!
//! Location updates are the *data plane* — a high-volume stream of
//! positions. Query registration and cancellation are a second, much
//! thinner stream of **control operations** flowing beside it:
//!
//! * [`ControlOp::Register`] — a query enters the system, carrying its
//!   first location update (position, speed, destination, spec);
//! * [`ControlOp::Update`] — a registered query changes its spec or
//!   reports out-of-band (the data plane also refreshes positions; this
//!   variant exists so a control channel can drive spec changes without
//!   synthesising data-plane traffic);
//! * [`ControlOp::Deregister`] — a query leaves; its cluster membership
//!   and registry entry must be retired.
//!
//! Ordering contract: every consumer applies a tick's control ops
//! **before** that tick's data batch. The generator, the executor loop,
//! the supervised durable loop and journal replay all follow this rule, so
//! a churned run is reproducible from (controls, updates) alone.
//!
//! The wire encoding reuses the [`crate::wire`] update layout for carried
//! updates, prefixed by a one-byte op tag:
//!
//! ```text
//! register:   0:u8  update…
//! deregister: 1:u8  qid:u64
//! update:     2:u8  update…
//! ```

use crate::ids::QueryId;
use crate::update::LocationUpdate;
use crate::wire::{self, read_u64, read_u8, DecodeError};

const OP_REGISTER: u8 = 0;
const OP_DEREGISTER: u8 = 1;
const OP_UPDATE: u8 = 2;

/// One query-lifecycle operation on the control stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlOp {
    /// Register a query, delivering its initial location update. The
    /// carried update must be a query update (`EntityRef::Query`).
    Register(LocationUpdate),
    /// Deregister a query: retire its membership and registry entry.
    /// Deregistering an unknown query is not an error at this layer
    /// — consumers route it to their dead-letter accounting.
    Deregister(QueryId),
    /// Out-of-band refresh of a registered query (e.g. a spec change).
    Update(LocationUpdate),
}

/// Encodes one control op, appending to `buf`.
pub fn encode_into(op: &ControlOp, buf: &mut Vec<u8>) {
    match op {
        ControlOp::Register(u) => {
            buf.push(OP_REGISTER);
            wire::encode_into(u, buf);
        }
        ControlOp::Deregister(QueryId(id)) => {
            buf.push(OP_DEREGISTER);
            buf.extend_from_slice(&id.to_le_bytes());
        }
        ControlOp::Update(u) => {
            buf.push(OP_UPDATE);
            wire::encode_into(u, buf);
        }
    }
}

/// Decodes one control op from the front of `buf`, consuming its bytes.
pub fn decode(buf: &mut &[u8]) -> Result<ControlOp, DecodeError> {
    match read_u8(buf)? {
        OP_REGISTER => Ok(ControlOp::Register(wire::decode(buf)?)),
        OP_DEREGISTER => Ok(ControlOp::Deregister(QueryId(read_u64(buf)?))),
        OP_UPDATE => Ok(ControlOp::Update(wire::decode(buf)?)),
        other => Err(DecodeError::BadTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::{QueryAttrs, QuerySpec};
    use scuba_spatial::Point;

    fn sample_query() -> LocationUpdate {
        LocationUpdate::query(
            QueryId(11),
            Point::new(3.0, 4.0),
            5,
            12.5,
            Point::new(100.0, 100.0),
            QueryAttrs {
                spec: QuerySpec::square_range(30.0),
            },
        )
    }

    fn sample_register() -> ControlOp {
        ControlOp::Register(sample_query())
    }

    #[test]
    fn roundtrip_all_ops() {
        let ops = [
            sample_register(),
            ControlOp::Deregister(QueryId(7)),
            ControlOp::Update(LocationUpdate::query(
                QueryId(11),
                Point::new(5.0, 6.0),
                6,
                12.5,
                Point::new(100.0, 100.0),
                QueryAttrs {
                    spec: QuerySpec::Range {
                        width: 40.0,
                        height: 25.0,
                    },
                },
            )),
        ];
        let mut bytes = Vec::new();
        for op in &ops {
            encode_into(op, &mut bytes);
        }
        let mut buf = &bytes[..];
        for op in &ops {
            assert_eq!(&decode(&mut buf).unwrap(), op);
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn truncated_is_rejected() {
        for op in [sample_register(), ControlOp::Deregister(QueryId(7))] {
            let mut bytes = Vec::new();
            encode_into(&op, &mut bytes);
            for cut in 0..bytes.len() {
                assert_eq!(
                    decode(&mut &bytes[..cut]),
                    Err(DecodeError::Truncated),
                    "{cut}-byte prefix of {op:?}"
                );
            }
        }
    }

    #[test]
    fn retired_spec_tag_is_refused() {
        for op in [sample_register(), ControlOp::Update(sample_query())] {
            let mut bytes = Vec::new();
            encode_into(&op, &mut bytes);
            // Swap the range spec (tag, width, height) for a retired kNN
            // spec (tag 1, k).
            bytes.truncate(bytes.len() - 17);
            bytes.push(wire::SPEC_RETIRED_KNN);
            bytes.extend_from_slice(&4u32.to_le_bytes());
            assert_eq!(
                decode(&mut &bytes[..]),
                Err(DecodeError::RetiredQueryKind),
                "{op:?}"
            );
        }
    }

    #[test]
    fn bad_op_tag_rejected() {
        let mut bytes = vec![9];
        bytes.extend_from_slice(&1u64.to_le_bytes());
        assert_eq!(decode(&mut &bytes[..]), Err(DecodeError::BadTag(9)));
    }
}
