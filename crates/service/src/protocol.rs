//! The TCP wire protocol (v5): framing and message payloads.
//!
//! Every message is one frame:
//!
//! ```text
//! type    u8       message tag (REQ_* from clients, RESP_* from servers)
//! length  u32 LE   payload size in bytes
//! payload length bytes
//! ```
//!
//! Requests:
//! * [`REQ_INFO`] — empty payload; asks for the server's public facts.
//! * [`REQ_QUERY_DB`] — 64-byte database digest, then a canonical plan
//!   ([`plan_to_bytes`]): names exactly which committed database state the
//!   proof must be against. Every query names its database; there is no
//!   default.
//! * [`REQ_SQL`] — 64-byte database digest, then a u32-length-prefixed
//!   UTF-8 SQL string. The *server* parses and plans the text (fixing the
//!   string-dictionary out-of-band problem: literals intern server-side).
//! * [`REQ_APPEND`] — 64-byte target digest, table name, and
//!   a row batch in the canonical cell encoding (row-major `i64`s, bounded
//!   by [`MAX_APPEND_CELLS`]); asks the server to append the rows and
//!   advance the database's commitment homomorphically.
//! * [`REQ_METRICS`] — empty payload; asks for a snapshot of the server's
//!   metrics registry.
//!
//! Responses:
//! * [`RESP_INFO`] — a [`ServerInfo`] (all hosted databases + counters,
//!   including each lineage's *mutation epoch*, so clients drop stale
//!   verifier sessions).
//! * [`RESP_QUERY`] — one cache-hit byte, then a serialized
//!   [`QueryResponse`].
//! * [`RESP_SQL`] — one cache-hit byte, a u32-length-prefixed canonical
//!   plan, then a serialized response. The echoed plan is what the server
//!   proved; the client verifies against exactly it.
//! * [`RESP_APPEND`] — an [`AppendAck`]: the successor digest now serving
//!   the lineage, its epoch, and the mutation's accounting.
//! * [`RESP_METRICS`] — the registry rendered in the Prometheus text
//!   exposition format (UTF-8), exactly what the server's `GET /metrics`
//!   endpoint would return.
//! * [`RESP_ERR`] — a UTF-8 error message.
//!
//! Frames are bounded by [`MAX_FRAME`]; a peer announcing a larger payload
//! is a protocol error, not an allocation.

use poneglyph_core::{read_schema, write_schema, QueryResponse};
use poneglyph_sql::{
    plan_from_bytes, plan_to_bytes, write_string, ByteReader, Database, Plan, Schema, Table,
    WireError,
};
use std::io::{self, Read, Write};

/// Protocol version, carried in [`ServerInfo`].
pub const PROTOCOL_VERSION: u16 = 5;

/// Hard cap on a frame payload (64 MiB).
pub const MAX_FRAME: usize = 64 << 20;

/// Client request: server info.
pub const REQ_INFO: u8 = 0x01;
/// Client request: prove a plan against a named database
/// (payload = 64-byte digest + canonical plan bytes).
pub const REQ_QUERY_DB: u8 = 0x03;
/// Client request: plan and prove SQL text against a named database
/// (payload = 64-byte digest + u32 length + UTF-8 SQL).
pub const REQ_SQL: u8 = 0x04;
/// Client request: append rows to a named database
/// (payload = 64-byte digest + table name + u32 width + u32 rows +
/// row-major i64 cells).
pub const REQ_APPEND: u8 = 0x05;
/// Client request: a metrics snapshot (empty payload).
pub const REQ_METRICS: u8 = 0x06;
/// Server response to [`REQ_INFO`].
pub const RESP_INFO: u8 = 0x81;
/// Server response to [`REQ_QUERY_DB`] (cache-hit byte + response bytes).
pub const RESP_QUERY: u8 = 0x82;
/// Server response to [`REQ_SQL`]
/// (cache-hit byte + u32 plan length + plan bytes + response bytes).
pub const RESP_SQL: u8 = 0x84;
/// Server response to [`REQ_APPEND`]: an [`AppendAck`].
pub const RESP_APPEND: u8 = 0x85;
/// Server response to [`REQ_METRICS`]: Prometheus text exposition (UTF-8).
pub const RESP_METRICS: u8 = 0x86;
/// Server response: request failed (UTF-8 message payload).
pub const RESP_ERR: u8 = 0xFF;

/// Write one `(type, payload)` frame.
pub fn write_frame(w: &mut impl Write, msg_type: u8, payload: &[u8]) -> io::Result<()> {
    w.write_all(&[msg_type])?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame; `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut head = [0u8; 5];
    match r.read_exact(&mut head[..1]) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    r.read_exact(&mut head[1..])?;
    let mut len_bytes = [0u8; 4];
    len_bytes.copy_from_slice(&head[1..]);
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME} byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some((head[0], payload)))
}

/// Upper bound on an advertised per-table row count. The verifier
/// materializes a zeroed table of this many rows in
/// [`DatabaseInfo::shape_database`], so an unbounded count would let a
/// malicious server drive the client out of memory before any proof is
/// checked.
pub const MAX_ADVERTISED_ROWS: u64 = 1 << 24;

/// Upper bound on the advertised *total* cell count across every hosted
/// database (`Σ rows × width` over all tables, ≤ 512 MiB of zeroed
/// `i64`s). The per-table cap alone would still let a server advertise
/// thousands of maximal tables; this bounds the whole info allocation.
pub const MAX_ADVERTISED_CELLS: u64 = 1 << 26;

/// Upper bound on the number of advertised databases.
pub const MAX_ADVERTISED_DATABASES: usize = 1 << 12;

/// One hosted database as advertised by [`REQ_INFO`]: its commitment
/// digest, public table shapes, and serving counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatabaseInfo {
    /// The committed database's registry digest.
    pub digest: [u8; 64],
    /// The lineage's mutation epoch: how many append batches produced
    /// this digest from the originally attached state. A client holding a
    /// verifier session for a digest that is no longer advertised — or
    /// advertised at a different epoch — should drop it: the session is
    /// bound to a superseded committed state.
    pub epoch: u64,
    /// Public table shapes: `(name, schema, row count)`.
    pub tables: Vec<(String, Schema, u64)>,
    /// Proofs generated for this database so far.
    pub proofs_generated: u64,
    /// Queries served from the proof cache.
    pub cache_hits: u64,
    /// Queries deduplicated against an identical in-flight proof.
    pub inflight_dedups: u64,
}

impl DatabaseInfo {
    /// Rebuild the shape database a verifier session is constructed over:
    /// correct schemas and row counts, zeroed values.
    pub fn shape_database(&self) -> Database {
        let mut db = Database::new();
        for (name, schema, rows) in &self.tables {
            let mut t = Table::empty(schema.clone());
            let zero = vec![0i64; schema.width()];
            for _ in 0..*rows {
                t.push_row(&zero);
            }
            db.add_table(name, t);
        }
        db
    }

    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.digest);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&(self.tables.len() as u32).to_le_bytes());
        for (name, schema, rows) in &self.tables {
            write_string(out, name);
            write_schema(out, schema);
            out.extend_from_slice(&rows.to_le_bytes());
        }
        out.extend_from_slice(&self.proofs_generated.to_le_bytes());
        out.extend_from_slice(&self.cache_hits.to_le_bytes());
        out.extend_from_slice(&self.inflight_dedups.to_le_bytes());
    }

    fn read(r: &mut ByteReader<'_>, total_cells: &mut u64) -> Result<Self, WireError> {
        let digest: [u8; 64] = r.take_arr()?;
        let epoch = r.u64()?;
        let ntables = r.read_len()?;
        let mut tables = Vec::with_capacity(ntables);
        for _ in 0..ntables {
            let name = r.string()?;
            let schema = read_schema(r)?;
            let rows = r.u64()?;
            if rows > MAX_ADVERTISED_ROWS {
                return Err(WireError::LengthOverflow(rows as usize));
            }
            *total_cells = total_cells.saturating_add(rows.saturating_mul(schema.width() as u64));
            if *total_cells > MAX_ADVERTISED_CELLS {
                return Err(WireError::LengthOverflow(*total_cells as usize));
            }
            tables.push((name, schema, rows));
        }
        let proofs_generated = r.u64()?;
        let cache_hits = r.u64()?;
        let inflight_dedups = r.u64()?;
        Ok(Self {
            digest,
            epoch,
            tables,
            proofs_generated,
            cache_hits,
            inflight_dedups,
        })
    }
}

/// The server's public facts: everything a verifier needs that is not the
/// query itself, for every hosted database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerInfo {
    /// Protocol version the server speaks.
    pub protocol: u16,
    /// log2 of the largest circuit the server's parameters support.
    pub max_k: u32,
    /// Every hosted database, in digest order.
    pub databases: Vec<DatabaseInfo>,
}

impl ServerInfo {
    /// Serialize.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.protocol.to_le_bytes());
        out.extend_from_slice(&self.max_k.to_le_bytes());
        out.extend_from_slice(&(self.databases.len() as u32).to_le_bytes());
        for db in &self.databases {
            db.write(&mut out);
        }
        out
    }

    /// Deserialize; clean errors on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(bytes);
        let protocol = r.u16()?;
        if protocol != PROTOCOL_VERSION {
            return Err(WireError::BadVersion(protocol));
        }
        let max_k = r.u32()?;
        let ndbs = r.read_len()?;
        if ndbs > MAX_ADVERTISED_DATABASES {
            return Err(WireError::LengthOverflow(ndbs));
        }
        let mut databases = Vec::with_capacity(ndbs);
        let mut total_cells: u64 = 0;
        for _ in 0..ndbs {
            databases.push(DatabaseInfo::read(&mut r, &mut total_cells)?);
        }
        r.finish()?;
        Ok(Self {
            protocol,
            max_k,
            databases,
        })
    }

    /// Find a hosted database by digest.
    pub fn database(&self, digest: &[u8; 64]) -> Option<&DatabaseInfo> {
        self.databases.iter().find(|d| &d.digest == digest)
    }
}

/// Split a `digest + rest` payload ([`REQ_QUERY_DB`] / [`REQ_SQL`]).
pub fn split_digest(payload: &[u8]) -> Result<([u8; 64], &[u8]), WireError> {
    if payload.len() < 64 {
        return Err(WireError::Truncated);
    }
    let mut digest = [0u8; 64];
    digest.copy_from_slice(&payload[..64]);
    Ok((digest, &payload[64..]))
}

/// Encode a [`REQ_SQL`] payload.
pub fn encode_sql_request(digest: &[u8; 64], sql: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + 4 + sql.len());
    out.extend_from_slice(digest);
    write_string(&mut out, sql);
    out
}

/// Decode the SQL text of a [`REQ_SQL`] payload (after [`split_digest`]).
pub fn decode_sql_text(rest: &[u8]) -> Result<String, WireError> {
    let mut r = ByteReader::new(rest);
    let sql = r.string()?;
    r.finish()?;
    Ok(sql)
}

/// Encode a [`RESP_QUERY`] body: one cache-hit byte, then the serialized
/// response.
pub fn encode_query_response(cache_hit: bool, response: &QueryResponse) -> Vec<u8> {
    let mut out = vec![u8::from(cache_hit)];
    out.extend_from_slice(&response.to_bytes());
    out
}

/// Decode a [`RESP_QUERY`] body into the cache-hit flag and the (still
/// unverified) response.
pub fn decode_query_response(body: &[u8]) -> Result<(bool, QueryResponse), WireError> {
    let mut r = ByteReader::new(body);
    let cache_hit = r.u8()? != 0;
    let response = QueryResponse::from_bytes(r.take(r.remaining())?)?;
    Ok((cache_hit, response))
}

/// Encode a [`RESP_SQL`] body: one cache-hit byte, the u32-length-prefixed
/// canonical plan the server proved, then the serialized response.
pub fn encode_sql_response(cache_hit: bool, plan: &Plan, response: &QueryResponse) -> Vec<u8> {
    let plan_bytes = plan_to_bytes(plan);
    let mut out = vec![u8::from(cache_hit)];
    out.extend_from_slice(&(plan_bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&plan_bytes);
    out.extend_from_slice(&response.to_bytes());
    out
}

/// Decode a [`RESP_SQL`] body into the cache-hit flag, the echoed plan and
/// the (still unverified) response.
pub fn decode_sql_response(body: &[u8]) -> Result<(bool, Plan, QueryResponse), WireError> {
    let mut r = ByteReader::new(body);
    let cache_hit = r.u8()? != 0;
    let plan_len = r.u32()? as usize;
    let plan = plan_from_bytes(r.take(plan_len)?)?;
    let response = QueryResponse::from_bytes(r.take(r.remaining())?)?;
    Ok((cache_hit, plan, response))
}

/// Upper bound on the cells (`rows × width`) of one [`REQ_APPEND`] batch:
/// 2^22 cells = 32 MiB of `i64`s, comfortably inside [`MAX_FRAME`]. A
/// larger append is split into multiple batches by the client.
pub const MAX_APPEND_CELLS: usize = 1 << 22;

/// Encode a [`REQ_APPEND`] payload: target digest, table name, and the
/// row batch in the canonical cell encoding (u32 width, u32 row count,
/// row-major little-endian `i64` cells). Rejects ragged batches and
/// batches beyond [`MAX_APPEND_CELLS`] before anything hits the wire.
pub fn encode_append_request(
    digest: &[u8; 64],
    table: &str,
    rows: &[Vec<i64>],
) -> Result<Vec<u8>, WireError> {
    let width = rows.first().map(Vec::len).unwrap_or(0);
    if rows.iter().any(|r| r.len() != width) {
        return Err(WireError::Invalid("ragged append batch".into()));
    }
    if width == 0 && !rows.is_empty() {
        // Mirror the decoder: zero-width rows are meaningless and would
        // only round-trip into a server-side rejection.
        return Err(WireError::Invalid("zero-width append rows".into()));
    }
    let cells = width.saturating_mul(rows.len());
    if cells > MAX_APPEND_CELLS {
        return Err(WireError::LengthOverflow(cells));
    }
    let mut out = Vec::with_capacity(64 + 4 + table.len() + 8 + cells * 8);
    out.extend_from_slice(digest);
    write_string(&mut out, table);
    out.extend_from_slice(&(width as u32).to_le_bytes());
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for row in rows {
        for v in row {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    Ok(out)
}

/// Decode the table name + rows of a [`REQ_APPEND`] payload (after
/// [`split_digest`]). Bounds the cell count before allocating.
///
/// Width and row count are read as raw `u32`s (not `read_len`, whose
/// 2^20 cap would reject legal batches of up to [`MAX_APPEND_CELLS`]
/// single-column rows); the cell product is the binding bound.
pub fn decode_append_request(rest: &[u8]) -> Result<(String, Vec<Vec<i64>>), WireError> {
    let mut r = ByteReader::new(rest);
    let table = r.string()?;
    let width = r.u32()? as usize;
    let nrows = r.u32()? as usize;
    if width == 0 && nrows > 0 {
        return Err(WireError::Invalid("zero-width append rows".into()));
    }
    let cells = width.saturating_mul(nrows);
    if cells > MAX_APPEND_CELLS {
        return Err(WireError::LengthOverflow(cells));
    }
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(width);
        for _ in 0..width {
            row.push(r.i64()?);
        }
        rows.push(row);
    }
    r.finish()?;
    Ok((table, rows))
}

/// The server's acknowledgement of an applied [`REQ_APPEND`]: which
/// digest now serves the lineage and what the mutation cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppendAck {
    /// Digest of the successor state — the target for follow-up queries.
    pub new_digest: [u8; 64],
    /// The lineage's mutation epoch after the append.
    pub epoch: u64,
    /// Rows appended by this batch.
    pub appended_rows: u64,
    /// Cached proofs invalidated (exactly the old digest's entries).
    pub entries_invalidated: u64,
    /// Microseconds the homomorphic commitment update took server-side.
    pub commit_update_micros: u64,
}

impl AppendAck {
    /// Serialize.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 32);
        out.extend_from_slice(&self.new_digest);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.appended_rows.to_le_bytes());
        out.extend_from_slice(&self.entries_invalidated.to_le_bytes());
        out.extend_from_slice(&self.commit_update_micros.to_le_bytes());
        out
    }

    /// Deserialize; clean errors on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(bytes);
        let new_digest: [u8; 64] = r.take_arr()?;
        let epoch = r.u64()?;
        let appended_rows = r.u64()?;
        let entries_invalidated = r.u64()?;
        let commit_update_micros = r.u64()?;
        r.finish()?;
        Ok(Self {
            new_digest,
            epoch,
            appended_rows,
            entries_invalidated,
            commit_update_micros,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poneglyph_sql::ColumnType;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, REQ_SQL, b"hello").unwrap();
        let mut r = &buf[..];
        let (ty, payload) = read_frame(&mut r).unwrap().expect("frame");
        assert_eq!(ty, REQ_SQL);
        assert_eq!(payload, b"hello");
        assert!(read_frame(&mut r).unwrap().is_none()); // clean EOF
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, REQ_SQL, b"hello").unwrap();
        buf.truncate(buf.len() - 1);
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_frame_rejected_without_allocating() {
        let mut buf = vec![REQ_SQL];
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    fn demo_info() -> ServerInfo {
        ServerInfo {
            protocol: PROTOCOL_VERSION,
            max_k: 12,
            databases: vec![
                DatabaseInfo {
                    digest: [7u8; 64],
                    epoch: 4,
                    tables: vec![(
                        "t".into(),
                        Schema::new(&[("id", ColumnType::Int), ("val", ColumnType::Decimal)]),
                        42,
                    )],
                    proofs_generated: 3,
                    cache_hits: 9,
                    inflight_dedups: 1,
                },
                DatabaseInfo {
                    digest: [9u8; 64],
                    epoch: 0,
                    tables: vec![("u".into(), Schema::new(&[("x", ColumnType::Int)]), 5)],
                    proofs_generated: 0,
                    cache_hits: 0,
                    inflight_dedups: 0,
                },
            ],
        }
    }

    #[test]
    fn server_info_roundtrip() {
        let info = demo_info();
        let back = ServerInfo::from_bytes(&info.to_bytes()).expect("decode");
        assert_eq!(back, info);
        let shape = back.databases[0].shape_database();
        assert_eq!(shape.table("t").unwrap().len(), 42);
        assert_eq!(back.databases[0].epoch, 4, "mutation epoch advertised");
        assert_eq!(back.database(&[9u8; 64]).unwrap().tables[0].2, 5);
        assert!(back.database(&[1u8; 64]).is_none());
    }

    #[test]
    fn absurd_row_count_rejected() {
        let mut info = demo_info();
        info.databases[0].tables[0].2 = u64::MAX;
        assert!(matches!(
            ServerInfo::from_bytes(&info.to_bytes()),
            Err(WireError::LengthOverflow(_))
        ));

        // Many individually-legal tables still trip the aggregate budget —
        // even when spread across databases.
        let mut info = demo_info();
        info.databases[0].tables[0].2 = MAX_ADVERTISED_ROWS;
        let one = info.databases[0].clone();
        for i in 0..8 {
            let mut db = one.clone();
            db.digest[0] = i as u8;
            db.tables[0].0 = format!("t{i}");
            info.databases.push(db);
        }
        assert!(matches!(
            ServerInfo::from_bytes(&info.to_bytes()),
            Err(WireError::LengthOverflow(_))
        ));
    }

    #[test]
    fn v1_info_bytes_rejected() {
        let mut bytes = demo_info().to_bytes();
        bytes[0] = 1; // claim protocol v1
        assert!(matches!(
            ServerInfo::from_bytes(&bytes),
            Err(WireError::BadVersion(1))
        ));
    }

    #[test]
    fn v4_info_bytes_rejected() {
        // The v4 layout: a default-digest option between `max_k` and the
        // database count. Relabelled v5 it must still fail to decode.
        let info = demo_info();
        let v5 = info.to_bytes();
        let mut v4 = v5[..6].to_vec();
        v4.push(1);
        v4.extend_from_slice(&info.databases[0].digest);
        v4.extend_from_slice(&v5[6..]);
        assert!(
            ServerInfo::from_bytes(&v4).is_err(),
            "v4 body under a v5 tag"
        );
        v4[0] = 4;
        assert!(matches!(
            ServerInfo::from_bytes(&v4),
            Err(WireError::BadVersion(4))
        ));
    }

    #[test]
    fn sql_request_roundtrip() {
        let digest = [3u8; 64];
        let payload = encode_sql_request(&digest, "SELECT x FROM u");
        let (d, rest) = split_digest(&payload).expect("split");
        assert_eq!(d, digest);
        assert_eq!(decode_sql_text(rest).expect("sql"), "SELECT x FROM u");

        assert!(split_digest(&payload[..63]).is_err());
        assert!(decode_sql_text(&payload[64..payload.len() - 1]).is_err());
    }

    /// A structurally valid response small enough to truncate at every
    /// byte: a two-row result and an empty proof.
    fn demo_response() -> QueryResponse {
        let mut result = Table::empty(Schema::new(&[("x", ColumnType::Int)]));
        result.push_row(&[41]);
        result.push_row(&[42]);
        QueryResponse {
            result,
            instance: vec![vec![]],
            proof: poneglyph_plonkish::Proof {
                advice_commitments: vec![],
                lookup_permuted: vec![],
                perm_z: vec![],
                lookup_z: vec![],
                shuffle_z: vec![],
                h_pieces: vec![],
                evals: vec![],
                openings: vec![],
            },
            k: 9,
        }
    }

    #[test]
    fn query_response_body_roundtrip_and_truncation() {
        let response = demo_response();
        for hit in [false, true] {
            let body = encode_query_response(hit, &response);
            let (back_hit, back) = decode_query_response(&body).expect("decode");
            assert_eq!((back_hit, &back), (hit, &response));
            for cut in 0..body.len() {
                assert!(decode_query_response(&body[..cut]).is_err(), "cut={cut}");
            }
        }
    }

    #[test]
    fn sql_response_body_roundtrip_and_truncation() {
        let response = demo_response();
        let plan = Plan::Scan { table: "u".into() };
        for hit in [false, true] {
            let body = encode_sql_response(hit, &plan, &response);
            let (back_hit, back_plan, back) = decode_sql_response(&body).expect("decode");
            assert_eq!((back_hit, &back_plan, &back), (hit, &plan, &response));
            for cut in 0..body.len() {
                assert!(decode_sql_response(&body[..cut]).is_err(), "cut={cut}");
            }
        }
        // A plan length pointing past the body is an error, not a slice panic.
        let mut body = encode_sql_response(false, &plan, &response);
        body[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_sql_response(&body),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn append_request_roundtrip() {
        let digest = [5u8; 64];
        let rows = vec![vec![7i64, 8, 9], vec![10, 11, 12]];
        let payload = encode_append_request(&digest, "orders", &rows).expect("encode");
        let (d, rest) = split_digest(&payload).expect("split");
        assert_eq!(d, digest);
        let (table, back) = decode_append_request(rest).expect("decode");
        assert_eq!(table, "orders");
        assert_eq!(back, rows);

        // Empty batches encode (the server treats them as a no-op).
        let payload = encode_append_request(&digest, "orders", &[]).expect("empty");
        let (_, rest) = split_digest(&payload).expect("split");
        let (_, back) = decode_append_request(rest).expect("decode");
        assert!(back.is_empty());

        // Truncated payloads are clean errors.
        assert!(decode_append_request(&payload[64..payload.len() - 1]).is_err());
    }

    #[test]
    fn append_bounds_enforced() {
        let digest = [5u8; 64];
        assert!(matches!(
            encode_append_request(&digest, "t", &[vec![1, 2], vec![3]]),
            Err(WireError::Invalid(_))
        ));
        assert!(
            matches!(
                encode_append_request(&digest, "t", &[vec![], vec![]]),
                Err(WireError::Invalid(_))
            ),
            "zero-width rows rejected before the wire, same as the decoder"
        );

        // A decoded header announcing an absurd cell count is rejected
        // before allocation.
        let mut payload = Vec::new();
        write_string(&mut payload, "t");
        payload.extend_from_slice(&(1u32 << 19).to_le_bytes()); // width
        payload.extend_from_slice(&(1u32 << 19).to_le_bytes()); // rows
        assert!(matches!(
            decode_append_request(&payload),
            Err(WireError::LengthOverflow(_))
        ));

        // Zero-width rows could smuggle an absurd row count past the
        // cell product; rejected outright.
        let mut payload = Vec::new();
        write_string(&mut payload, "t");
        payload.extend_from_slice(&0u32.to_le_bytes()); // width
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // rows
        assert!(matches!(
            decode_append_request(&payload),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn append_request_allows_many_single_column_rows() {
        // MAX_APPEND_CELLS single-column rows exceed ByteReader's generic
        // 2^20 length cap but are legal for appends: the cell product is
        // the binding bound.
        let digest = [5u8; 64];
        let rows: Vec<Vec<i64>> = (0..(1 << 21)).map(|i| vec![i as i64]).collect();
        let payload = encode_append_request(&digest, "t", &rows).expect("encode");
        let (_, rest) = split_digest(&payload).expect("split");
        let (_, back) = decode_append_request(rest).expect("decode");
        assert_eq!(back.len(), 1 << 21);
    }

    #[test]
    fn append_ack_roundtrip() {
        let ack = AppendAck {
            new_digest: [0xCD; 64],
            epoch: 3,
            appended_rows: 128,
            entries_invalidated: 7,
            commit_update_micros: 4242,
        };
        let back = AppendAck::from_bytes(&ack.to_bytes()).expect("decode");
        assert_eq!(back, ack);
        assert!(AppendAck::from_bytes(&ack.to_bytes()[..90]).is_err());
    }
}
