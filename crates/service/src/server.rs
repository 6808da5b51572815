//! The TCP front end: accepts connections and speaks the frame protocol on
//! behalf of a [`ProvingService`].

use crate::protocol::{
    decode_append_request, decode_sql_text, encode_query_response, encode_sql_response, read_frame,
    split_digest, write_frame, AppendAck, DatabaseInfo, ServerInfo, REQ_APPEND, REQ_INFO,
    REQ_METRICS, REQ_QUERY_DB, REQ_SQL, RESP_APPEND, RESP_ERR, RESP_INFO, RESP_METRICS, RESP_QUERY,
    RESP_SQL,
};
use crate::service::{ProvingService, ServiceError};
use poneglyph_sql::plan_from_bytes;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running TCP server wrapping a [`ProvingService`].
///
/// Each connection gets its own thread and may pipeline any number of
/// requests; the proving concurrency is still bounded by the service's
/// worker pool and queue. Stop (or drop) the server to unbind the port;
/// the service itself is shared and survives.
pub struct ServiceServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServiceServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start accepting.
    pub fn spawn(service: Arc<ProvingService>, addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("poneglyph-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let service = Arc::clone(&service);
                    // Connection threads are detached: they exit when the
                    // peer hangs up or the stream errors out.
                    let _ = std::thread::Builder::new()
                        .name("poneglyph-conn".into())
                        .spawn(move || {
                            let _ = handle_connection(&service, stream);
                        });
                }
            })?;
        Ok(Self {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(handle) = self.accept_thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for ServiceServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Build the info advertisement from the service's live state: one
/// consistent registry snapshot (metadata only, no row-data clones).
pub fn server_info(service: &ProvingService) -> ServerInfo {
    let databases = service
        .info_snapshot()
        .into_iter()
        .map(|snap| DatabaseInfo {
            digest: snap.stats.digest,
            epoch: snap.stats.epoch,
            tables: snap.tables,
            proofs_generated: snap.stats.proofs_generated,
            cache_hits: snap.stats.cache_hits,
            inflight_dedups: snap.stats.inflight_dedups,
        })
        .collect();
    ServerInfo {
        protocol: crate::protocol::PROTOCOL_VERSION,
        max_k: service.params().k,
        databases,
    }
}

fn write_error(stream: &mut TcpStream, e: &ServiceError) -> io::Result<()> {
    write_frame(stream, RESP_ERR, e.to_string().as_bytes())
}

/// Count one wire request in `poneglyph_requests_total{kind=...}`. Every
/// `REQ_*` handler arm must call this first — enforced by the workspace
/// source linter's `request-counter` rule.
fn record_request(kind: &'static str) {
    poneglyph_obs::global()
        .counter(
            "poneglyph_requests_total",
            &[("kind", kind)],
            "Wire requests handled, by frame kind",
        )
        .inc();
}

fn handle_connection(service: &ProvingService, mut stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    while let Some((msg_type, payload)) = read_frame(&mut stream)? {
        match msg_type {
            REQ_INFO => {
                record_request("info");
                let info = server_info(service);
                write_frame(&mut stream, RESP_INFO, &info.to_bytes())?;
            }
            REQ_QUERY_DB => {
                record_request("query_db");
                match split_digest(&payload)
                    .and_then(|(digest, rest)| Ok((digest, plan_from_bytes(rest)?)))
                {
                    Ok((digest, plan)) => match service.query_on(&digest, plan) {
                        Ok(served) => {
                            let body = encode_query_response(served.cache_hit, &served.response);
                            write_frame(&mut stream, RESP_QUERY, &body)?;
                        }
                        Err(e) => write_error(&mut stream, &e)?,
                    },
                    Err(e) => write_frame(
                        &mut stream,
                        RESP_ERR,
                        format!("bad request: {e}").as_bytes(),
                    )?,
                }
            }
            REQ_APPEND => {
                record_request("append");
                match split_digest(&payload)
                    .and_then(|(digest, rest)| Ok((digest, decode_append_request(rest)?)))
                {
                    Ok((digest, (table, rows))) => {
                        match service.append_rows(&digest, &table, rows) {
                            Ok(stats) => {
                                let ack = AppendAck {
                                    new_digest: stats.new_digest,
                                    epoch: stats.epoch,
                                    appended_rows: stats.appended_rows as u64,
                                    entries_invalidated: stats.entries_invalidated as u64,
                                    commit_update_micros: stats.commit_update.as_micros() as u64,
                                };
                                write_frame(&mut stream, RESP_APPEND, &ack.to_bytes())?;
                            }
                            Err(e) => write_error(&mut stream, &e)?,
                        }
                    }
                    Err(e) => write_frame(
                        &mut stream,
                        RESP_ERR,
                        format!("bad request: {e}").as_bytes(),
                    )?,
                }
            }
            REQ_SQL => {
                record_request("sql");
                match split_digest(&payload)
                    .and_then(|(digest, rest)| Ok((digest, decode_sql_text(rest)?)))
                {
                    Ok((digest, sql)) => match service.query_sql(&digest, &sql) {
                        Ok((plan, served)) => {
                            let body =
                                encode_sql_response(served.cache_hit, &plan, &served.response);
                            write_frame(&mut stream, RESP_SQL, &body)?;
                        }
                        Err(e) => write_error(&mut stream, &e)?,
                    },
                    Err(e) => write_frame(
                        &mut stream,
                        RESP_ERR,
                        format!("bad request: {e}").as_bytes(),
                    )?,
                }
            }
            REQ_METRICS => {
                record_request("metrics");
                write_frame(&mut stream, RESP_METRICS, service.metrics_text().as_bytes())?;
            }
            other => {
                record_request("unknown");
                write_frame(
                    &mut stream,
                    RESP_ERR,
                    format!("unknown request type {other:#04x}").as_bytes(),
                )?;
            }
        }
    }
    Ok(())
}
