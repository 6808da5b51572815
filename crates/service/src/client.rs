//! A blocking TCP client for the proving service.
//!
//! One [`ServiceClient`] owns one connection and may issue any number of
//! sequential requests. The client *transports* responses and — for the
//! `*_verified` paths — checks them against an internal per-database
//! [`VerifierSession`], so verifying a stream of responses compiles and
//! keys each query circuit once.

use crate::protocol::{
    decode_query_response, decode_sql_response, encode_append_request, encode_sql_request,
    read_frame, write_frame, AppendAck, ServerInfo, REQ_APPEND, REQ_INFO, REQ_METRICS,
    REQ_QUERY_DB, REQ_SQL, RESP_APPEND, RESP_ERR, RESP_INFO, RESP_METRICS, RESP_QUERY, RESP_SQL,
};
use crate::registry::digest_hex;
use poneglyph_core::{LruCache, QueryResponse, SessionStats, VerifierSession};
use poneglyph_pcs::IpaParams;
use poneglyph_sql::{plan_to_bytes, Plan, Table, WireError};
use std::collections::HashSet;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;

/// Default bound on a client's per-digest verifier-session map. Mutations
/// mint a new digest per append, so an unbounded map would leak one
/// compiled-circuit cache per superseded state; the LRU keeps the hot
/// lineages and re-derives anything evicted from `REQ_INFO`.
pub const DEFAULT_SESSION_CAPACITY: usize = 16;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server's bytes did not decode.
    Wire(WireError),
    /// The server answered with an error message.
    Server(String),
    /// The server broke the framing protocol.
    Protocol(String),
    /// The response decoded but did not verify.
    Verify(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol violation: {e}"),
            ClientError::Verify(e) => write!(f, "verification failed: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A proof served over the wire, with its transport metadata.
#[derive(Debug)]
pub struct WireResponse {
    /// The decoded response (still unverified).
    pub response: QueryResponse,
    /// True when the server answered from its proof cache.
    pub cache_hit: bool,
}

/// One blocking connection to a [`ServiceServer`](crate::ServiceServer).
pub struct ServiceClient {
    stream: TcpStream,
    /// Server facts, fetched lazily: digests and table shapes are
    /// immutable for a hosted database's lifetime (counters go stale — use
    /// [`info`](Self::info) for a fresh snapshot).
    cached_info: Option<ServerInfo>,
    /// One verifier session per database digest: cached compiled circuits
    /// and verifying keys survive across queries on this connection.
    /// LRU-bounded ([`DEFAULT_SESSION_CAPACITY`]) so digest churn from
    /// server-side mutations cannot grow it without bound.
    sessions: LruCache<[u8; 64], Arc<VerifierSession>>,
}

impl ServiceClient {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with_session_capacity(addr, DEFAULT_SESSION_CAPACITY)
    }

    /// [`connect`](Self::connect) with an explicit bound on the
    /// per-digest verifier-session map.
    pub fn connect_with_session_capacity(
        addr: impl ToSocketAddrs,
        capacity: usize,
    ) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            stream,
            cached_info: None,
            sessions: LruCache::new(capacity),
        })
    }

    fn request(&mut self, msg_type: u8, payload: &[u8]) -> Result<(u8, Vec<u8>), ClientError> {
        write_frame(&mut self.stream, msg_type, payload)?;
        match read_frame(&mut self.stream)? {
            Some((RESP_ERR, body)) => Err(ClientError::Server(
                String::from_utf8_lossy(&body).into_owned(),
            )),
            Some(frame) => Ok(frame),
            None => Err(ClientError::Protocol(
                "connection closed before response".into(),
            )),
        }
    }

    /// Fetch a fresh snapshot of the server's public facts (hosted
    /// databases, shapes, per-database counters).
    pub fn info(&mut self) -> Result<ServerInfo, ClientError> {
        let (ty, body) = self.request(REQ_INFO, &[])?;
        if ty != RESP_INFO {
            return Err(ClientError::Protocol(format!(
                "expected info response, got tag {ty:#04x}"
            )));
        }
        let info = ServerInfo::from_bytes(&body)?;
        self.cached_info = Some(info.clone());
        Ok(info)
    }

    /// Fetch the server's metrics snapshot: the registry rendered in the
    /// Prometheus text exposition format — identical to what the server's
    /// `GET /metrics` HTTP endpoint serves.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let (ty, body) = self.request(REQ_METRICS, &[])?;
        if ty != RESP_METRICS {
            return Err(ClientError::Protocol(format!(
                "expected metrics response, got tag {ty:#04x}"
            )));
        }
        String::from_utf8(body)
            .map_err(|_| ClientError::Protocol("metrics snapshot is not UTF-8".into()))
    }

    /// The cached info, fetching it once if needed.
    fn ensure_info(&mut self) -> Result<&ServerInfo, ClientError> {
        if self.cached_info.is_none() {
            self.info()?;
        }
        Ok(self.cached_info.as_ref().expect("info cached above"))
    }

    /// The verifier session for one hosted database, creating it from the
    /// server-advertised shape on first use (and refreshing the info
    /// snapshot once when the digest is unknown — it may be a mutation
    /// successor attached after the cached snapshot).
    fn session_for(
        &mut self,
        params: &IpaParams,
        digest: &[u8; 64],
    ) -> Result<Arc<VerifierSession>, ClientError> {
        if let Some(session) = self.sessions.get(digest) {
            return Ok(session);
        }
        let info = self.ensure_info()?;
        let shape = match info.database(digest) {
            Some(db) => db.shape_database(),
            None => {
                // The database may have been attached — or appended to —
                // after our cached snapshot; refresh once before giving up.
                let fresh = self.info()?;
                fresh
                    .database(digest)
                    .ok_or_else(|| {
                        ClientError::Server(format!(
                            "server does not host database {}",
                            digest_hex(&digest[..16])
                        ))
                    })?
                    .shape_database()
            }
        };
        let session = Arc::new(VerifierSession::new(params.clone(), shape));
        self.sessions.insert(*digest, Arc::clone(&session));
        Ok(session)
    }

    /// Work counters of the internal verifier session for `digest`
    /// (compiles / keygens / key-cache hits), if one exists yet.
    pub fn verifier_stats(&self, digest: &[u8; 64]) -> Option<SessionStats> {
        self.sessions.peek(digest).map(|s| s.stats())
    }

    /// Number of per-digest verifier sessions currently held.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Drop verifier sessions for digests the server no longer hosts
    /// (superseded by mutation, or detached), based on a fresh
    /// [`info`](Self::info) snapshot — each advertised database carries
    /// its lineage's mutation epoch, so a digest that disappeared has
    /// been superseded. Returns how many sessions were dropped.
    pub fn prune_stale_sessions(&mut self) -> Result<usize, ClientError> {
        let info = self.info()?;
        let live: HashSet<[u8; 64]> = info.databases.iter().map(|d| d.digest).collect();
        let before = self.sessions.len();
        self.sessions.retain(|digest, _| live.contains(digest));
        Ok(before - self.sessions.len())
    }

    /// Ask the server to prove a plan against the database addressed by
    /// `digest`; returns the decoded (unverified) response.
    pub fn query_on(
        &mut self,
        digest: &[u8; 64],
        plan: &Plan,
    ) -> Result<WireResponse, ClientError> {
        let mut payload = Vec::with_capacity(64 + 128);
        payload.extend_from_slice(digest);
        payload.extend_from_slice(&plan_to_bytes(plan));
        let (ty, body) = self.request(REQ_QUERY_DB, &payload)?;
        if ty != RESP_QUERY {
            return Err(ClientError::Protocol(format!(
                "expected query response, got tag {ty:#04x}"
            )));
        }
        let (cache_hit, response) = decode_query_response(&body)?;
        Ok(WireResponse {
            response,
            cache_hit,
        })
    }

    /// Send SQL text to be planned and proven server-side against the
    /// database addressed by `digest`. Returns the canonical plan the
    /// server proved (inspect it — it *is* the proven statement) and the
    /// decoded (unverified) response.
    pub fn query_sql(
        &mut self,
        digest: &[u8; 64],
        sql: &str,
    ) -> Result<(Plan, WireResponse), ClientError> {
        let (ty, body) = self.request(REQ_SQL, &encode_sql_request(digest, sql))?;
        if ty != RESP_SQL {
            return Err(ClientError::Protocol(format!(
                "expected SQL response, got tag {ty:#04x}"
            )));
        }
        let (cache_hit, plan, response) = decode_sql_response(&body)?;
        Ok((
            plan,
            WireResponse {
                response,
                cache_hit,
            },
        ))
    }

    /// Append rows to the database addressed by `digest`.
    ///
    /// On success the server has swapped in the successor state: the
    /// returned [`AppendAck`] carries the **new digest** (the target for
    /// follow-up queries) and the lineage's mutation epoch. The old
    /// digest's verifier session and the cached info snapshot are dropped
    /// locally — both describe a superseded committed state.
    pub fn append_rows(
        &mut self,
        digest: &[u8; 64],
        table: &str,
        rows: &[Vec<i64>],
    ) -> Result<AppendAck, ClientError> {
        let payload = encode_append_request(digest, table, rows)?;
        let (ty, body) = self.request(REQ_APPEND, &payload)?;
        if ty != RESP_APPEND {
            return Err(ClientError::Protocol(format!(
                "expected append ack, got tag {ty:#04x}"
            )));
        }
        let ack = AppendAck::from_bytes(&body)?;
        if ack.new_digest != *digest {
            self.sessions.remove(digest);
            self.cached_info = None;
        }
        Ok(ack)
    }

    /// Query the database addressed by `digest` and verify the response
    /// with this connection's cached verifier session. Returns the
    /// verified result table and whether the proof came from the server's
    /// cache.
    ///
    /// `params` must be (a prefix-compatible copy of) the server's public
    /// parameters — they are publicly derivable, so clients run
    /// [`IpaParams::setup`] themselves rather than trusting served bytes.
    pub fn query_verified_on(
        &mut self,
        params: &IpaParams,
        digest: &[u8; 64],
        plan: &Plan,
    ) -> Result<(Table, bool), ClientError> {
        let wire = self.query_on(digest, plan)?;
        let session = self.session_for(params, digest)?;
        let table = session
            .verify(plan, &wire.response)
            .map_err(|e| ClientError::Verify(e.to_string()))?;
        Ok((table, wire.cache_hit))
    }

    /// Send SQL text, then verify the response against the plan the server
    /// echoed. Returns the verified result table, the canonical plan that
    /// was proven, and whether the proof came from the server's cache.
    ///
    /// Trust model: the proof binds the result to the *echoed plan* over
    /// the committed database shape. The client should inspect (or
    /// re-derive) that plan — the server could plan the SQL differently
    /// than the client meant, but it cannot fake the plan↔result binding.
    pub fn query_verified_sql(
        &mut self,
        params: &IpaParams,
        digest: &[u8; 64],
        sql: &str,
    ) -> Result<(Table, Plan, bool), ClientError> {
        let (plan, wire) = self.query_sql(digest, sql)?;
        let session = self.session_for(params, digest)?;
        let table = session
            .verify(&plan, &wire.response)
            .map_err(|e| ClientError::Verify(e.to_string()))?;
        Ok((table, plan, wire.cache_hit))
    }
}
