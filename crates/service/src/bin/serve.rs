//! `poneglyph-serve` — run a multi-database proving service over TCP.
//!
//! ```sh
//! cargo run --release -p poneglyph-service --bin poneglyph-serve -- \
//!     [--port 7117] [--workers 4] [--prover-threads 0] [--cache 64] \
//!     [--cache-mb 64] [--k 12] [--duration SECS] [--append-every SECS] \
//!     [--metrics-port N]
//! ```
//!
//! `--prover-threads N` caps how many threads a *single* proof may fan out
//! across (0 = auto-detect). Trade it against `--workers`: more workers ×
//! fewer threads maximizes throughput under concurrent load; fewer
//! workers × more threads minimizes cold latency for a lone query.
//!
//! Hosts two small built-in demo databases (the quickstart's employee
//! table and an orders table) so the service is drivable
//! out of the box; a real deployment attaches its own tables. Prints each
//! database digest a client would check against the commitment registry,
//! then serves until shut down.
//!
//! `--append-every SECS` exercises the mutation path: a background
//! thread appends one synthetic order row to the orders lineage every
//! interval, logging each homomorphic commitment update and the successor
//! digest clients should requery against.
//!
//! `--metrics-port N` additionally binds `127.0.0.1:N` and answers
//! `GET /metrics` with the Prometheus text exposition of the process
//! metrics registry — the same snapshot the wire protocol's `REQ_METRICS`
//! frame returns. Logging is leveled and timestamped; filter with
//! `PONEGLYPH_LOG=error|warn|info|debug|off` (default `info`).
//!
//! Shutdown: send `quit` on stdin, or pass `--duration SECS` for a timed
//! run; either path reports the per-database serving counters and the
//! slowest requests from the in-memory slow-query ring. With no usable
//! stdin (daemon/background deployment) the server runs until killed.

use poneglyph_obs::{log_error, log_info, log_warn};
use poneglyph_pcs::IpaParams;
use poneglyph_service::{
    digest_hex, ProvingService, ServiceConfig, ServiceServer, PROTOCOL_VERSION,
};
use poneglyph_sql::{ColumnType, Database, Schema, Table};
use std::sync::Arc;

fn employees_database() -> Database {
    let mut db = Database::new();
    let mut employees = Table::empty(Schema::new(&[
        ("emp_id", ColumnType::Int),
        ("dept", ColumnType::Int),
        ("salary", ColumnType::Decimal),
    ]));
    for (id, dept, salary_cents) in [
        (1, 10, 520_000),
        (2, 10, 610_000),
        (3, 20, 470_000),
        (4, 20, 880_000),
        (5, 20, 730_000),
        (6, 30, 910_000),
    ] {
        employees.push_row(&[id, dept, salary_cents]);
    }
    db.add_table("employees", employees);
    db
}

fn orders_database() -> Database {
    let mut db = Database::new();
    let mut orders = Table::empty(Schema::new(&[
        ("order_id", ColumnType::Int),
        ("region", ColumnType::Int),
        ("amount", ColumnType::Decimal),
    ]));
    for i in 0..16i64 {
        orders.push_row(&[i + 1, i % 4, 10_000 + 731 * i]);
    }
    db.add_table("orders", orders);
    db
}

/// Parse `--name value`; missing flag → default, unparseable value →
/// error exit (silent fallback would bind the wrong port / pool size).
fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match args.iter().position(|a| a == name) {
        None => default,
        Some(i) => match args.get(i + 1).map(|v| v.parse()) {
            Some(Ok(v)) => v,
            _ => {
                log_error!("{name} needs a valid value");
                std::process::exit(2);
            }
        },
    }
}

/// Report the slowest requests retained by the in-memory slow-query ring,
/// with each request's per-stage span breakdown.
fn report_slowest(n: usize) {
    let slowest = poneglyph_obs::ring().slowest(n);
    if slowest.is_empty() {
        return;
    }
    log_info!(
        "slowest {} request(s) of the last {}:",
        slowest.len(),
        poneglyph_obs::ring().len()
    );
    for rec in &slowest {
        let stages: Vec<String> = rec
            .stages
            .iter()
            .map(|(name, nanos)| format!("{name} {:.1}ms", *nanos as f64 / 1e6))
            .collect();
        log_info!(
            "  #{} {} {:.1}ms{}{}",
            rec.id,
            rec.label,
            rec.total_nanos as f64 / 1e6,
            if rec.cache_hit { " (cache hit)" } else { "" },
            if stages.is_empty() {
                String::new()
            } else {
                format!(" [{}]", stages.join(", "))
            }
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: poneglyph-serve [--port N] [--workers N] [--prover-threads N] \
             [--cache N] [--cache-mb N] [--k N] [--duration SECS] [--append-every SECS] \
             [--metrics-port N]"
        );
        return;
    }
    let port: u16 = parse_flag(&args, "--port", 7117);
    let workers: usize = parse_flag(&args, "--workers", 2);
    let prover_threads: usize = parse_flag(&args, "--prover-threads", 0);
    let cache: usize = parse_flag(&args, "--cache", 64);
    let cache_mb: usize = parse_flag(&args, "--cache-mb", 64);
    let k: u32 = parse_flag(&args, "--k", 12);
    let duration: u64 = parse_flag(&args, "--duration", 0);
    let append_every: u64 = parse_flag(&args, "--append-every", 0);
    let metrics_port: u16 = parse_flag(&args, "--metrics-port", 0);

    log_info!("deriving public parameters (k = {k}, no trusted setup)...");
    let params = IpaParams::setup(k);
    let service = Arc::new(ProvingService::empty(
        params,
        ServiceConfig {
            workers,
            prover_threads,
            cache_capacity: cache,
            cache_bytes: cache_mb << 20,
            ..ServiceConfig::default()
        },
    ));
    log_info!(
        "per-proof thread budget: {} (from --prover-threads {prover_threads}; 0 = auto)",
        service.prover_parallelism().threads()
    );
    let d_employees = service.attach_with_pks(employees_database(), &[("employees", "emp_id")]);
    let d_orders = service.attach_with_pks(orders_database(), &[("orders", "order_id")]);
    log_info!(
        "hosting 2 databases: employees {}, orders {}",
        digest_hex(&d_employees[..16]),
        digest_hex(&d_orders[..16]),
    );

    let server =
        ServiceServer::spawn(Arc::clone(&service), ("127.0.0.1", port)).expect("bind service port");
    log_info!(
        "serving protocol v{PROTOCOL_VERSION} on {} with {workers} prover worker(s); \
         'quit' or stdin EOF (or --duration) to stop",
        server.local_addr()
    );

    // The HTTP scrape endpoint is optional; the wire protocol's
    // REQ_METRICS frame serves the same snapshot either way.
    let metrics_server = if metrics_port > 0 {
        let svc = Arc::clone(&service);
        match poneglyph_obs::http::MetricsHttpServer::spawn(
            ("127.0.0.1", metrics_port),
            move || svc.metrics_text(),
        ) {
            Ok(http) => {
                log_info!("metrics: GET http://{}/metrics", http.local_addr());
                Some(http)
            }
            Err(e) => {
                log_warn!("could not bind metrics port {metrics_port}: {e}; continuing without");
                None
            }
        }
    } else {
        None
    };

    if append_every > 0 {
        // Exercise the mutation path: grow the orders lineage by one row
        // per interval. The thread tracks the lineage's moving digest; it
        // is detached and dies with the process.
        let svc = Arc::clone(&service);
        std::thread::Builder::new()
            .name("poneglyph-append".into())
            .spawn(move || {
                let mut digest = d_orders;
                let mut next_id = 17i64;
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(append_every));
                    let row = vec![next_id, next_id % 4, 10_000 + 731 * next_id];
                    match svc.append_rows(&digest, "orders", vec![row]) {
                        Ok(stats) => {
                            log_info!(
                                "append: orders +1 row -> digest {} (epoch {}, \
                                 commitment update {:?}, {} cached proof(s) invalidated)",
                                digest_hex(&stats.new_digest[..16]),
                                stats.epoch,
                                stats.commit_update,
                                stats.entries_invalidated,
                            );
                            digest = stats.new_digest;
                            next_id += 1;
                        }
                        Err(e) => {
                            // The lineage moved under us (a TCP client
                            // appended, or the db was re-attached):
                            // re-resolve the digest currently hosting an
                            // orders table and carry on from its row count.
                            let followed = svc.digests().into_iter().find_map(|d| {
                                let shape = svc.shape_of(&d)?;
                                let rows = shape.table("orders")?.len();
                                Some((d, rows))
                            });
                            match followed {
                                Some((d, rows)) => {
                                    log_warn!(
                                        "append target moved ({e}); following the lineage \
                                         to {}",
                                        digest_hex(&d[..16])
                                    );
                                    digest = d;
                                    next_id = rows as i64 + 1;
                                }
                                None => {
                                    log_error!(
                                        "append failed ({e}) and no orders table is \
                                         hosted; stopping the append loop"
                                    );
                                    break;
                                }
                            }
                        }
                    }
                }
            })
            .expect("spawn append thread");
    }

    if duration > 0 {
        std::thread::sleep(std::time::Duration::from_secs(duration));
    } else {
        // Serve until the operator types `quit`. Immediate EOF (stdin is
        // /dev/null or closed — daemon/background deployment) must NOT
        // shut the server down: fall back to serving until killed, like a
        // daemon. Only an explicit `quit` line reaches the shutdown log.
        let mut saw_input = false;
        let mut line = String::new();
        loop {
            line.clear();
            match std::io::stdin().read_line(&mut line) {
                Ok(0) | Err(_) if saw_input => break, // console closed after use
                Ok(0) | Err(_) => {
                    // No console at all: park forever (killed externally).
                    loop {
                        std::thread::park();
                    }
                }
                Ok(_) if line.trim() == "quit" => break,
                Ok(_) => saw_input = true,
            }
        }
    }

    server.stop();
    if let Some(http) = metrics_server {
        http.stop();
    }
    let stats = service.stats();
    log_info!(
        "shutdown: {} proof(s) generated, {} cache hit(s), {} cache miss(es); \
         {} worker(s) x {} prover thread(s)",
        stats.proofs_generated,
        stats.cache_hits,
        stats.cache_misses,
        workers,
        stats.prover_threads
    );
    if stats.mutations > 0 {
        log_info!(
            "  {} append batch(es) applied, {} row(s) appended",
            stats.mutations,
            stats.rows_appended
        );
    }
    for db in &stats.databases {
        log_info!(
            "  db {} (epoch {}): {} proven, {} cache hit(s), {} in-flight dedup(s), \
             {} cached proof(s)",
            digest_hex(&db.digest[..8]),
            db.epoch,
            db.proofs_generated,
            db.cache_hits,
            db.inflight_dedups,
            db.cached_proofs
        );
    }
    report_slowest(5);
}
