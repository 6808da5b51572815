//! The versioned wire format for [`QueryResponse`] — how a proof leaves the
//! prover's process.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   4 bytes   b"PGQR"
//! version u16       RESPONSE_WIRE_VERSION
//! k       u32       log2 circuit size
//! result  table     schema (column names + type tags), row count,
//!                   column-major i64 values
//! instance           u32 column count; per column u32 length + 32-byte
//!                    canonical field reprs
//! proof   u32 len + Proof::to_bytes payload
//! ```
//!
//! Decoding never panics: every malformed input maps to a
//! [`WireError`](poneglyph_sql::WireError). Non-canonical field elements and
//! off-curve points are rejected by the underlying `from_repr`/`from_bytes`
//! primitives, so a decoded response is structurally valid — its
//! *cryptographic* validity is still established only by
//! [`VerifierSession::verify`](crate::VerifierSession::verify).

use crate::db::QueryResponse;
use poneglyph_arith::{Fq, PrimeField};
use poneglyph_plonkish::Proof;
use poneglyph_sql::{write_string, ByteReader, ColumnType, Schema, Table, WireError};

/// Format version of the response encoding.
pub const RESPONSE_WIRE_VERSION: u16 = 1;

/// Magic prefix of a serialized [`QueryResponse`].
pub const RESPONSE_MAGIC: &[u8; 4] = b"PGQR";

/// The wire tag of a [`ColumnType`] (shared by every format that ships
/// schemas: query responses here, `ServerInfo` in `poneglyph-service`).
pub fn column_type_byte(t: ColumnType) -> u8 {
    match t {
        ColumnType::Int => 0,
        ColumnType::Decimal => 1,
        ColumnType::Date => 2,
        ColumnType::Str => 3,
    }
}

/// Decode a [`column_type_byte`] tag.
pub fn column_type_from_byte(b: u8) -> Result<ColumnType, WireError> {
    Ok(match b {
        0 => ColumnType::Int,
        1 => ColumnType::Decimal,
        2 => ColumnType::Date,
        3 => ColumnType::Str,
        other => return Err(WireError::BadTag(other)),
    })
}

/// Append a schema: `u32` width, then per column a length-prefixed name
/// and a type tag.
pub fn write_schema(out: &mut Vec<u8>, s: &Schema) {
    out.extend_from_slice(&(s.width() as u32).to_le_bytes());
    for (name, ty) in &s.columns {
        write_string(out, name);
        out.push(column_type_byte(*ty));
    }
}

/// Decode a schema written by [`write_schema`].
pub fn read_schema(r: &mut ByteReader<'_>) -> Result<Schema, WireError> {
    let width = r.read_len()?;
    let mut columns = Vec::with_capacity(width);
    for _ in 0..width {
        let name = r.string()?;
        let ty = column_type_from_byte(r.u8()?)?;
        columns.push((name, ty));
    }
    Ok(Schema { columns })
}

/// Append a table (schema + column-major values) to a byte stream.
pub fn write_table(out: &mut Vec<u8>, t: &Table) {
    write_schema(out, &t.schema);
    out.extend_from_slice(&(t.len() as u32).to_le_bytes());
    for col in &t.cols {
        for v in col {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Decode a table written by [`write_table`].
pub fn read_table(r: &mut ByteReader<'_>) -> Result<Table, WireError> {
    let schema = read_schema(r)?;
    let rows = r.read_len()?;
    let mut t = Table::empty(schema);
    for col in t.cols.iter_mut() {
        col.reserve(rows);
        for _ in 0..rows {
            col.push(r.i64()?);
        }
    }
    Ok(t)
}

impl QueryResponse {
    /// Serialize into the versioned wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(RESPONSE_MAGIC);
        out.extend_from_slice(&RESPONSE_WIRE_VERSION.to_le_bytes());
        out.extend_from_slice(&self.k.to_le_bytes());
        write_table(&mut out, &self.result);
        out.extend_from_slice(&(self.instance.len() as u32).to_le_bytes());
        for col in &self.instance {
            out.extend_from_slice(&(col.len() as u32).to_le_bytes());
            for e in col {
                out.extend_from_slice(&e.to_repr());
            }
        }
        let proof = self.proof.to_bytes();
        out.extend_from_slice(&(proof.len() as u32).to_le_bytes());
        out.extend_from_slice(&proof);
        out
    }

    /// Deserialize; rejects malformed input with a clean error, never
    /// panics. The decoded response still needs
    /// [`VerifierSession::verify`](crate::VerifierSession::verify) before
    /// its claims are trusted.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(bytes);
        if r.take(4)? != RESPONSE_MAGIC {
            return Err(WireError::Invalid("bad magic".into()));
        }
        let version = r.u16()?;
        if version != RESPONSE_WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        // Keep k consistent with the decoder's length caps: instance
        // columns hold up to 2^k entries, and ByteReader::read_len rejects
        // lengths beyond 2^20, so a larger k could only produce responses
        // whose own bytes never decode.
        let k = r.u32()?;
        if k > 20 {
            return Err(WireError::Invalid(format!(
                "circuit size 2^{k} exceeds the wire format's 2^20 cap"
            )));
        }
        let result = read_table(&mut r)?;
        let ncols = r.read_len()?;
        let mut instance = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let n = r.read_len()?;
            let mut col = Vec::with_capacity(n);
            for _ in 0..n {
                let repr: [u8; 32] = r.take_arr()?;
                let e = Fq::from_repr(&repr)
                    .ok_or_else(|| WireError::Invalid("non-canonical field element".into()))?;
                col.push(e);
            }
            instance.push(col);
        }
        let plen = r.read_len()?;
        let proof_bytes = r.take(plen)?;
        let proof = Proof::from_bytes(proof_bytes)
            .ok_or_else(|| WireError::Invalid("malformed proof".into()))?;
        r.finish()?;
        Ok(Self {
            result,
            instance,
            proof,
            k,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poneglyph_sql::{ColumnType, Schema};

    #[test]
    fn table_roundtrip() {
        let mut t = Table::empty(Schema::new(&[
            ("a", ColumnType::Int),
            ("b", ColumnType::Decimal),
            ("c", ColumnType::Str),
        ]));
        t.push_row(&[1, 100, 2]);
        t.push_row(&[2, 250, 3]);
        let mut bytes = Vec::new();
        write_table(&mut bytes, &t);
        let mut r = ByteReader::new(&bytes);
        let back = read_table(&mut r).expect("decode");
        r.finish().expect("all consumed");
        assert_eq!(back, t);
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            QueryResponse::from_bytes(b"NOPEaaaaaaaaaaaa"),
            Err(WireError::Invalid(_))
        ));
        assert!(QueryResponse::from_bytes(b"PG").is_err());
    }
}
