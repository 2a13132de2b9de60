//! The accept loop, worker-pool dispatch, and request routing.

use crate::conn::{handle_connection, ConnCtx};
use crate::http::{write_response_headers, Request};
use crate::pool::{is_transient_accept_error, ConnPool, Dispatch};
use crate::render::render;
use seqdet_query::{lang, QueryEngine, QueryError};
use seqdet_storage::{KvStore, StoreMetrics};
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Serving-layer knobs: pool size, backlog bound, deadlines, drain budget.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads serving connections. `0` means all available cores.
    pub workers: usize,
    /// Bound on accepted-but-unserved connections; beyond it the accept
    /// loop sheds with a 503 instead of queueing invisibly.
    pub queue_depth: usize,
    /// Per-connection read deadline: a client that stays silent (or drips
    /// bytes slower than whole requests) this long is cut off with a 408.
    pub read_timeout: Duration,
    /// Per-connection write deadline.
    pub write_timeout: Duration,
    /// Keep-alive request cap per connection; the final response carries
    /// `Connection: close`.
    pub max_requests_per_conn: usize,
    /// Graceful-shutdown budget: how long to wait for in-flight requests
    /// after the accept loop stops.
    pub drain_deadline: Duration,
    /// Sleep after a transient `accept()` error (EMFILE/ECONNABORTED…).
    pub accept_backoff: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_depth: 256,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_requests_per_conn: 1000,
            drain_deadline: Duration::from_secs(5),
            accept_backoff: Duration::from_millis(20),
        }
    }
}

impl ServeConfig {
    /// The effective worker count (`0` resolved to the core count).
    pub fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
        } else {
            self.workers
        }
    }
}

/// A handle that stops a running [`QueryServer::serve_forever`]: sets the
/// shutdown flag, then pokes the listener so the accept loop observes it
/// immediately instead of after the next organic connection.
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Initiate graceful shutdown: stop accepting, finish in-flight
    /// requests (bounded by the configured drain deadline).
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        // Wake the blocking accept. Failure is fine — any organic
        // connection unblocks the loop too, and the flag is already set.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }
}

/// The query-processor service.
pub struct QueryServer<S: KvStore> {
    listener: TcpListener,
    engine: Arc<QueryEngine<S>>,
    store: Arc<S>,
    metrics: Arc<StoreMetrics>,
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
}

impl<S: KvStore + 'static> QueryServer<S> {
    /// Bind to `addr` with the default [`ServeConfig`].
    /// Use port 0 to let the OS pick (see [`QueryServer::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs, store: Arc<S>) -> io::Result<Self> {
        Self::bind_with(addr, store, ServeConfig::default())
    }

    /// Bind to `addr` and open a query engine over the indexed `store`.
    /// The engine re-checks the store's index generation before every
    /// query and on catalog reads, so a concurrently running indexer's
    /// updates (including brand-new activity names) become visible without
    /// restarting the server.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        store: Arc<S>,
        config: ServeConfig,
    ) -> io::Result<Self> {
        Self::bind_with_metrics(addr, store, config, Arc::new(StoreMetrics::new()))
    }

    /// Like [`QueryServer::bind_with`], but sharing an externally owned
    /// metrics handle — pass the handle given to
    /// [`seqdet_storage::DiskOptions`] so `/stats/server` reports the
    /// store's batch/fsync/degraded counters, not a blank set.
    pub fn bind_with_metrics(
        addr: impl ToSocketAddrs,
        store: Arc<S>,
        config: ServeConfig,
        metrics: Arc<StoreMetrics>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let engine = QueryEngine::new(Arc::clone(&store))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            .with_metrics(Arc::clone(&metrics));
        Ok(Self {
            listener,
            engine: Arc::new(engine),
            store,
            metrics,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            drain: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared metrics handle (`/stats/server` reads the same counters).
    pub fn metrics(&self) -> Arc<StoreMetrics> {
        Arc::clone(&self.metrics)
    }

    /// A handle that gracefully stops [`QueryServer::serve_forever`].
    pub fn shutdown_handle(&self) -> io::Result<ShutdownHandle> {
        let mut addr = self.local_addr()?;
        // The poke must reach the listener even when bound to a wildcard
        // address.
        if addr.ip().is_unspecified() {
            match addr.ip() {
                IpAddr::V4(_) => addr.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST)),
                IpAddr::V6(_) => addr.set_ip(IpAddr::V6(Ipv6Addr::LOCALHOST)),
            }
        }
        Ok(ShutdownHandle { flag: Arc::clone(&self.shutdown), addr })
    }

    fn conn_ctx(&self) -> ConnCtx<S> {
        ConnCtx {
            engine: Arc::clone(&self.engine),
            store: Arc::clone(&self.store),
            metrics: Arc::clone(&self.metrics),
            config: self.config.clone(),
            drain: Arc::clone(&self.drain),
        }
    }

    /// Accept and serve connections until the shutdown handle fires.
    ///
    /// Connections are fed through a bounded queue to a fixed worker pool;
    /// a full queue sheds with an immediate 503. Transient accept errors
    /// (client aborts, fd exhaustion) are survived with a short backoff;
    /// fatal ones (misconfiguration) still return `Err`. On shutdown the
    /// queue closes, in-flight requests finish, and the call returns after
    /// at most the drain deadline.
    pub fn serve_forever(&self) -> io::Result<()> {
        let ctx = Arc::new(self.conn_ctx());
        let pool = ConnPool::spawn(
            self.config.effective_workers(),
            self.config.queue_depth,
            move |stream| {
                let _ = handle_connection(stream, ctx.as_ref());
            },
        );
        let result = loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        break Ok(()); // likely the shutdown poke; stop accepting
                    }
                    match pool.dispatch(stream) {
                        Dispatch::Queued => {}
                        Dispatch::Shed(stream) => {
                            self.metrics.server().record_shed();
                            let _ = stream.set_write_timeout(Some(self.config.write_timeout));
                            // `Retry-After` tells well-behaved clients to
                            // back off instead of hammering the full queue.
                            let _ = write_response_headers(
                                &stream,
                                503,
                                "Service Unavailable",
                                &["Retry-After: 1"],
                                "server overloaded, retry later\n",
                            );
                        }
                        Dispatch::Closed => break Ok(()),
                    }
                }
                Err(e) if is_transient_accept_error(&e) => {
                    self.metrics.server().record_accept_retry();
                    std::thread::sleep(self.config.accept_backoff);
                }
                Err(e) => break Err(e),
            }
        };
        // Graceful drain: no new connections are accepted past this point;
        // workers finish their in-flight requests (the drain flag turns
        // keep-alive responses into `Connection: close`) within the budget.
        self.drain.store(true, Ordering::SeqCst);
        pool.drain(self.config.drain_deadline);
        result
    }

    /// Handle exactly `n` connections sequentially (useful in tests). Each
    /// connection still gets the full keep-alive treatment.
    pub fn serve_n(&self, n: usize) -> io::Result<()> {
        let ctx = self.conn_ctx();
        for _ in 0..n {
            let (stream, _) = self.listener.accept()?;
            handle_connection(stream, &ctx)?;
        }
        Ok(())
    }
}

pub(crate) fn route<S: KvStore>(
    request: &Request,
    engine: &QueryEngine<S>,
    store: &S,
    metrics: &StoreMetrics,
) -> (u16, &'static str, String) {
    match (request.method.as_str(), request.path.as_str()) {
        // Health gates on the store's sticky degraded state: once a write
        // failed, the process keeps answering queries but orchestrators
        // should stop routing ingest at it (and alert). A quarantine
        // (narrowed coverage) stays 200 — reads and ingest both still work
        // — but the body names each unhealthy table so monitors can alert
        // and trigger a repair.
        ("GET", "/health") => match store.degraded() {
            Some(reason) => (503, "Service Unavailable", format!("degraded: {reason}\n")),
            None => match store.coverage() {
                seqdet_storage::Coverage::Full => (200, "OK", "ok\n".to_owned()),
                seqdet_storage::Coverage::Narrowed { quarantined_tables, reason } => {
                    let mut body = format!("narrowed: {reason}\n");
                    for t in &quarantined_tables {
                        use std::fmt::Write as _;
                        let _ = writeln!(body, "table {}: quarantined", t.0);
                    }
                    (200, "OK", body)
                }
            },
        },
        ("GET", "/info") => {
            let catalog = engine.catalog();
            (
                200,
                "OK",
                format!(
                    "traces: {}\nactivities: {}\n",
                    catalog.num_traces(),
                    catalog.num_activities()
                ),
            )
        }
        ("GET", "/stats/cache") => {
            let s = engine.cache_stats();
            (
                200,
                "OK",
                format!(
                    "hits: {}\nmisses: {}\nhit_rate: {:.3}\nevictions: {}\n\
                     invalidations: {}\nentries: {}\ncapacity: {}\n\
                     decoded_bytes: {}\n",
                    s.hits,
                    s.misses,
                    s.hit_rate(),
                    s.evictions,
                    s.invalidations,
                    s.entries,
                    s.capacity,
                    metrics.decoded_bytes()
                ),
            )
        }
        ("GET", "/stats/server") => {
            let s = metrics.server();
            let (c2, c3, c4, c5) = s.status_classes();
            let lat = s.latency();
            (
                200,
                "OK",
                format!(
                    "requests: {}\nin_flight: {}\nshed: {}\naccept_retries: {}\n\
                     catalog_reloads: {}\nstatus_2xx: {c2}\nstatus_3xx: {c3}\n\
                     status_4xx: {c4}\nstatus_5xx: {c5}\nlatency_samples: {}\n\
                     latency_mean_us: {}\nlatency_p50_us: {}\nlatency_p95_us: {}\n\
                     latency_p99_us: {}\ndegraded: {}\nbatch_commits: {}\n\
                     batch_aborts: {}\nfsyncs: {}\nruns_live: {}\n\
                     run_compactions: {}\nruns_written: {}\nrun_bytes_written: {}\n\
                     runs_searched: {}\nruns_pruned: {}\nruns_expired: {}\n\
                     runs_quarantined: {}\nquarantined_live: {}\nruns_repaired: {}\n\
                     scrub_passes: {}\nio_retries: {}\n",
                    s.requests(),
                    s.in_flight(),
                    s.shed(),
                    s.accept_retries(),
                    s.catalog_reloads(),
                    lat.count(),
                    lat.mean_micros(),
                    lat.percentile_micros(0.50),
                    lat.percentile_micros(0.95),
                    lat.percentile_micros(0.99),
                    u8::from(store.degraded().is_some()),
                    metrics.batch_commits(),
                    metrics.batch_aborts(),
                    metrics.fsyncs(),
                    metrics.runs_live(),
                    metrics.run_compactions(),
                    metrics.runs_written(),
                    metrics.run_bytes_written(),
                    metrics.runs_searched(),
                    metrics.runs_pruned(),
                    metrics.runs_expired(),
                    metrics.runs_quarantined(),
                    metrics.quarantined_live(),
                    metrics.runs_repaired(),
                    metrics.scrub_passes(),
                    metrics.io_retries(),
                ),
            )
        }
        ("GET", "/stats/audit") => match seqdet_core::audit_store(store) {
            // A failing audit is a successful *report*; the status code
            // still signals the result so health checks can gate on it.
            Ok(report) if report.ok() => (200, "OK", format!("{}\n", report.to_json())),
            Ok(report) => (409, "Conflict", format!("{}\n", report.to_json())),
            Err(e) => (500, "Internal Server Error", format!("audit failed: {e}\n")),
        },
        ("POST", "/query") | ("GET", "/query") => {
            let statement = if request.method == "POST" {
                request.body.trim().to_owned()
            } else {
                request.param("q").unwrap_or_default().trim().to_owned()
            };
            if statement.is_empty() {
                return (400, "Bad Request", "empty query\n".to_owned());
            }
            match lang::run(engine, &statement) {
                Ok(output) => (200, "OK", render(&engine.catalog(), &output)),
                Err(QueryError::Core(e)) if e.is_degraded() => {
                    (503, "Service Unavailable", format!("{e}\n"))
                }
                Err(QueryError::Core(e)) => (500, "Internal Server Error", format!("{e}\n")),
                Err(e) => (400, "Bad Request", format!("{e}\n")),
            }
        }
        _ => (404, "Not Found", format!("no route for {} {}\n", request.method, request.path)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::percent_encode;
    use seqdet_core::{IndexConfig, Indexer, Policy};
    use seqdet_log::EventLogBuilder;
    use seqdet_storage::MemStore;
    use std::io::{Read, Write};
    use std::net::Shutdown;

    fn spawn_server(n: usize) -> SocketAddr {
        let mut b = EventLogBuilder::new();
        b.add("t1", "go", 1).add("t1", "work", 2).add("t1", "stop", 3);
        b.add("t2", "go", 1).add("t2", "stop", 5);
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        ix.index_log(&b.build()).unwrap();
        let server: QueryServer<MemStore> = QueryServer::bind("127.0.0.1:0", ix.store()).unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.serve_n(n).unwrap());
        addr
    }

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        // Half-close: the server sees EOF after the request and ends the
        // keep-alive loop, so read_to_string terminates.
        stream.shutdown(Shutdown::Write).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn health_info_and_query_roundtrip() {
        let addr = spawn_server(4);
        let r = roundtrip(addr, "GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(r.starts_with("HTTP/1.1 200"));
        assert!(r.ends_with("ok\n"));

        let r = roundtrip(addr, "GET /info HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(r.contains("traces: 2"));
        assert!(r.contains("activities: 3"));

        let body = "DETECT go -> stop";
        let r = roundtrip(
            addr,
            &format!("POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len()),
        );
        assert!(r.starts_with("HTTP/1.1 200"), "{r}");
        assert!(r.contains("2 completions in 2 traces"));

        let q = percent_encode("CONTINUE go USING fast");
        let r = roundtrip(addr, &format!("GET /query?q={q} HTTP/1.1\r\nHost: x\r\n\r\n"));
        assert!(r.contains("propositions"));
    }

    #[test]
    fn cache_stats_endpoint_reports_warm_queries() {
        let addr = spawn_server(3);
        let body = "DETECT go -> stop";
        for _ in 0..2 {
            roundtrip(
                addr,
                &format!("POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len()),
            );
        }
        let r = roundtrip(addr, "GET /stats/cache HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(r.starts_with("HTTP/1.1 200"), "{r}");
        // First DETECT misses the (go, stop) row; the second hits it.
        assert!(r.contains("hits: 1"), "{r}");
        assert!(r.contains("misses: 1"), "{r}");
        assert!(r.contains("entries: 1"), "{r}");
        // Decode volume rides along.
        assert!(r.contains("decoded_bytes:"), "{r}");
    }

    #[test]
    fn server_stats_endpoint_reports_requests() {
        let addr = spawn_server(3);
        roundtrip(addr, "GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
        roundtrip(addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        let r = roundtrip(addr, "GET /stats/server HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(r.starts_with("HTTP/1.1 200"), "{r}");
        // Two finished requests before this one; the /stats/server request
        // itself is in flight while the body renders.
        assert!(r.contains("requests: 3"), "{r}");
        assert!(r.contains("in_flight: 1"), "{r}");
        assert!(r.contains("status_2xx: 1"), "{r}");
        assert!(r.contains("status_4xx: 1"), "{r}");
        assert!(r.contains("shed: 0"), "{r}");
        assert!(r.contains("latency_p50_us:"), "{r}");
        assert!(r.contains("latency_p99_us:"), "{r}");
        // Run-tier counters ride along (zero on a memory-backed server).
        assert!(r.contains("runs_live: 0"), "{r}");
        assert!(r.contains("runs_pruned: 0"), "{r}");
        assert!(r.contains("runs_searched: 0"), "{r}");
        assert!(r.contains("run_compactions: 0"), "{r}");
        assert!(r.contains("runs_expired: 0"), "{r}");
        // Failure-tolerance counters too.
        assert!(r.contains("runs_quarantined: 0"), "{r}");
        assert!(r.contains("quarantined_live: 0"), "{r}");
        assert!(r.contains("runs_repaired: 0"), "{r}");
        assert!(r.contains("scrub_passes: 0"), "{r}");
        assert!(r.contains("io_retries: 0"), "{r}");
    }

    #[test]
    fn quarantined_store_reports_narrowed_health_and_flags_answers() {
        use seqdet_storage::{DiskOptions, DiskStore};
        let dir =
            std::env::temp_dir().join(format!("seqdet-srv-quarantine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = Arc::new(DiskStore::open(&dir).unwrap());
            let mut ix = Indexer::with_store(
                Arc::clone(&store),
                IndexConfig::new(Policy::SkipTillNextMatch),
            )
            .unwrap();
            let mut b = EventLogBuilder::new();
            b.add("t1", "go", 1).add("t1", "stop", 3);
            ix.index_log(&b.build()).unwrap();
            store.compact().unwrap();
        }
        // Rot the Count table's run at rest: the reopen quarantines it
        // instead of refusing to start.
        let count_run = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().into_string().unwrap();
                let (_, t) = seqdet_storage::run::parse_run_file_name(&name)?;
                (t == seqdet_core::tables::COUNT).then(|| dir.join(name))
            })
            .next()
            .expect("Count run exists after compaction");
        let mut bytes = std::fs::read(&count_run).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&count_run, bytes).unwrap();

        let metrics = Arc::new(StoreMetrics::new());
        let store = Arc::new(
            DiskStore::open_with(
                &dir,
                DiskOptions { metrics: Some(metrics.clone()), ..DiskOptions::default() },
            )
            .unwrap(),
        );
        let server = QueryServer::bind_with_metrics(
            "127.0.0.1:0",
            Arc::clone(&store),
            ServeConfig::default(),
            metrics,
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.serve_n(3).unwrap());

        // Health stays 200 (reads and ingest work) but names the table.
        let r = roundtrip(addr, "GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(r.starts_with("HTTP/1.1 200"), "{r}");
        assert!(r.contains("narrowed:"), "{r}");
        assert!(r.contains(&format!("table {}: quarantined", seqdet_core::tables::COUNT.0)), "{r}");
        // Query answers carry the narrowed-coverage warning but still work
        // against the surviving tables.
        let body = "DETECT go -> stop";
        let r = roundtrip(
            addr,
            &format!("POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len()),
        );
        assert!(r.starts_with("HTTP/1.1 200"), "{r}");
        assert!(r.contains("warning: narrowed coverage"), "{r}");
        assert!(r.contains("1 completions in 1 traces"), "{r}");
        // The counters surface the quarantine.
        let r = roundtrip(addr, "GET /stats/server HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(r.contains("runs_quarantined: 1"), "{r}");
        assert!(r.contains("quarantined_live: 1"), "{r}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let addr = spawn_server(1);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        stream.write_all(b"GET /info HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let first = response.find("HTTP/1.1 200").unwrap();
        let second = response[first + 1..].find("HTTP/1.1 200");
        assert!(second.is_some(), "expected two responses on one connection: {response}");
        assert!(response.contains("Connection: keep-alive"), "{response}");
        assert!(response.contains("Connection: close"), "{response}");
        assert!(response.contains("traces: 2"), "{response}");
    }

    #[test]
    fn audit_endpoint_reports_clean_and_corrupt_stores() {
        let addr = spawn_server(1);
        let r = roundtrip(addr, "GET /stats/audit HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(r.starts_with("HTTP/1.1 200"), "{r}");
        assert!(r.contains("\"ok\":true"), "{r}");

        // Same data, but with one Count row inflated behind the engine's
        // back: the endpoint must flag it and flip the status code.
        use seqdet_core::tables::{decode_counts, encode_counts, COUNT};
        let mut b = EventLogBuilder::new();
        b.add("t1", "go", 1).add("t1", "stop", 3);
        let mut ix = Indexer::new(IndexConfig::new(Policy::SkipTillNextMatch));
        ix.index_log(&b.build()).unwrap();
        let store = ix.store();
        let (key, row) = store.scan(COUNT).into_iter().next().expect("Count rows exist");
        let mut entries = decode_counts(&row).unwrap();
        entries[0].total_completions += 1;
        store.put(COUNT, key.as_ref(), &encode_counts(&entries)).unwrap();

        let server: QueryServer<MemStore> = QueryServer::bind("127.0.0.1:0", store).unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.serve_n(1).unwrap());
        let r = roundtrip(addr, "GET /stats/audit HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(r.starts_with("HTTP/1.1 409"), "{r}");
        assert!(r.contains("\"ok\":false"), "{r}");
        assert!(r.contains("count-index"), "{r}");
    }

    #[test]
    fn degraded_store_fails_health_but_keeps_serving_queries() {
        use seqdet_storage::{DiskOptions, DiskStore, FaultFs};
        let dir = std::env::temp_dir().join(format!("seqdet-srv-degraded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = FaultFs::new();
        let store = Arc::new(
            DiskStore::open_with(
                &dir,
                DiskOptions { vfs: Arc::new(fs.clone()), ..DiskOptions::default() },
            )
            .unwrap(),
        );
        let mut ix =
            Indexer::with_store(Arc::clone(&store), IndexConfig::new(Policy::SkipTillNextMatch))
                .unwrap();
        let mut b = EventLogBuilder::new();
        b.add("t1", "go", 1).add("t1", "stop", 3);
        ix.index_log(&b.build()).unwrap();

        // All further writes fail: the next batch degrades the store.
        fs.arm_fail_after_writes(0);
        let mut b = EventLogBuilder::new();
        b.add("t1", "go", 5).add("t1", "stop", 7);
        let err = ix.index_log(&b.build()).unwrap_err();
        assert!(err.to_string().contains("storage error"), "{err}");
        assert!(store.degraded().is_some());

        let server = QueryServer::bind("127.0.0.1:0", Arc::clone(&store)).unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.serve_n(3).unwrap());
        let r = roundtrip(addr, "GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(r.starts_with("HTTP/1.1 503"), "{r}");
        assert!(r.contains("degraded:"), "{r}");
        // Reads are memtable-served and stay up.
        let body = "DETECT go -> stop";
        let r = roundtrip(
            addr,
            &format!("POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len()),
        );
        assert!(r.starts_with("HTTP/1.1 200"), "{r}");
        let r = roundtrip(addr, "GET /stats/server HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(r.contains("degraded: 1"), "{r}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_statuses() {
        let addr = spawn_server(4);
        let r = roundtrip(addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(r.starts_with("HTTP/1.1 404"));

        let body = "DETECT go -> UNKNOWN_ACT";
        let r = roundtrip(
            addr,
            &format!("POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len()),
        );
        assert!(r.starts_with("HTTP/1.1 400"), "{r}");

        let r = roundtrip(addr, "GET /query HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(r.starts_with("HTTP/1.1 400"));
        assert!(r.contains("empty query"));

        let r = roundtrip(
            addr,
            "POST /query HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi",
        );
        assert!(r.starts_with("HTTP/1.1 400"), "duplicate content-length: {r}");
    }
}
