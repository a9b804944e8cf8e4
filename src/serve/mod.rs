//! `kor serve` — a concurrent TCP query service over warm engines.
//!
//! The paper frames KOR as an interactive query ("identify a preferable
//! route" for a traveler), but one-shot CLI runs rebuild the graph,
//! inverted index (§3.1), and pre-processing for every question. This
//! module keeps them warm: datasets are loaded once into a
//! [`registry::Registry`], each with one shared
//! [`kor_core::KorEngine`], and a fixed pool of worker threads answers
//! requests against them over plain TCP.
//!
//! One I/O layer (`conn`) carries bytes: a blocking accept thread, and
//! one blocking reader thread per connection that frames request lines
//! and either runs a lone request itself (when the server is idle) or
//! queues it for the worker pool. The response goes out through the
//! connection's in-order writer.
//! Connections are kept alive and may pipeline; backpressure is per
//! request (`overloaded` in the request's own pipeline slot) plus a cap
//! on open connections.
//!
//! The wire protocol is newline-delimited JSON — one request object per
//! line, one response per line, in order. Supported methods: `query`
//! (algorithm selectable: `os-scaling`, `bucket-bound`, `exact`,
//! `greedy`, with top-k variants), `load_dataset`, `stats`, `health`,
//! and `shutdown`, with per-request deadlines and structured error
//! responses. The full contract, including a live transcript, is in
//! `docs/PROTOCOL.md`; everything here is `std`-only (the environment
//! vendors no async runtime, and this workload — CPU-bound searches on
//! a bounded pool — does not miss one).
//!
//! # Example
//!
//! Start a server on an ephemeral port, ask it the paper's Example 2
//! query, and shut it down:
//!
//! ```
//! use std::io::{BufRead, BufReader, Write};
//! use std::net::TcpStream;
//!
//! use kor::serve::registry::Dataset;
//! use kor::serve::{ServeConfig, Server};
//!
//! let server = Server::bind(ServeConfig {
//!     addr: "127.0.0.1:0".to_string(),
//!     threads: 2,
//!     ..ServeConfig::default()
//! })
//! .unwrap();
//! server
//!     .registry()
//!     .insert(Dataset::from_graph("fig1", kor::graph::fixtures::figure1()));
//! let addr = server.local_addr();
//! let handle = server.start();
//!
//! let mut conn = TcpStream::connect(addr).unwrap();
//! conn.write_all(
//!     b"{\"id\":1,\"method\":\"query\",\"params\":\
//!       {\"from\":0,\"to\":7,\"keywords\":[\"t1\",\"t2\"],\"budget\":10}}\n",
//! )
//! .unwrap();
//! let mut line = String::new();
//! BufReader::new(conn.try_clone().unwrap())
//!     .read_line(&mut line)
//!     .unwrap();
//! assert!(line.contains("\"ok\":true"), "{line}");
//! assert!(line.contains("\"objective\":6"), "{line}");
//! handle.shutdown();
//! ```

mod conn;
mod handler;
pub mod protocol;
pub mod recovery;
pub mod registry;

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

use handler::ServerContext;
use registry::Registry;

/// Configuration for [`Server::bind`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878`; port `0` picks an
    /// ephemeral port (see [`Server::local_addr`]).
    pub addr: String,
    /// Worker pool size; `0` means one worker per available core. It
    /// bounds concurrently *executing* requests (on workers and readers
    /// together), and sets the cap on open connections: 32 per worker.
    pub threads: usize,
    /// Request-queue capacity — admitted request lines waiting for a
    /// worker, past which a line is answered `overloaded`. `0` means
    /// auto: `threads × 16`.
    pub queue_capacity: usize,
    /// Deadline in milliseconds applied to `query` requests that carry
    /// no `deadline_ms` of their own; `0` means unlimited.
    pub default_deadline_ms: u64,
    /// Maximum request-line length in bytes; longer lines are answered
    /// with a `request_too_large` error and the connection is closed.
    pub max_request_bytes: usize,
    /// Directory for per-dataset write-ahead mutation journals (and
    /// their checkpoints). When set, `update_edges` batches are made
    /// durable before they are applied, and dataset loads replay any
    /// surviving journal — see `docs/OPERATIONS.md`. `None` (the
    /// default) serves purely in memory.
    pub journal: Option<PathBuf>,
}

impl Default for ServeConfig {
    /// Localhost port 7878, auto-sized pool and queue, no default
    /// deadline, 1 MiB request cap.
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            threads: 0,
            queue_capacity: 0,
            default_deadline_ms: 0,
            max_request_bytes: 1 << 20,
            journal: None,
        }
    }
}

/// A bound (but not yet serving) server: the listener socket exists, so
/// [`Server::local_addr`] is final, and datasets can be preloaded via
/// [`Server::registry`] before the first connection is accepted.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    ctx: Arc<ServerContext>,
}

impl Server {
    /// Binds the listen socket and prepares the shared state.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let threads = if config.threads > 0 {
            config.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        };
        let mut ctx = ServerContext::new(threads, config.default_deadline_ms);
        ctx.max_request_bytes = config.max_request_bytes;
        ctx.journal_dir = config.journal;
        ctx.queue_capacity = if config.queue_capacity > 0 {
            config.queue_capacity
        } else {
            threads * 16
        };
        ctx.max_connections = threads * conn::CONNECTIONS_PER_WORKER;
        Ok(Server {
            listener,
            addr,
            ctx: Arc::new(ctx),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The dataset registry, for preloading datasets before
    /// [`Server::start`] (requests can also load them later via the
    /// `load_dataset` method).
    pub fn registry(&self) -> &Registry {
        &self.ctx.registry
    }

    /// Loads — or, when journaling is configured, *recovers* — the
    /// dataset at `path` and registers it under `name`: exactly what a
    /// `load_dataset` request does, exposed for CLI preloading before
    /// [`Server::start`]. With a journal directory set, any surviving
    /// journal for `name` is replayed over the file (or its newest
    /// checkpoint) and the result reported; without one this is
    /// [`registry::Dataset::load`] plus an insert.
    pub fn attach_dataset(
        &self,
        name: &str,
        path: &Path,
    ) -> Result<Option<recovery::RecoveryInfo>, String> {
        let _guard = self.ctx.registry.mutation_guard();
        match &self.ctx.journal_dir {
            Some(dir) => {
                let (dataset, state) = recovery::attach(dir, name, path)?;
                let info = state.recovered;
                self.ctx
                    .journals
                    .lock()
                    .unwrap()
                    .insert(name.to_string(), state);
                self.ctx.registry.insert(dataset);
                Ok(Some(info))
            }
            None => {
                self.ctx
                    .registry
                    .insert(registry::Dataset::load(name, path)?);
                Ok(None)
            }
        }
    }

    /// Spawns the accept and worker threads and returns a handle for
    /// shutdown/join.
    pub fn start(self) -> ServerHandle {
        let io = Arc::new(conn::Io::new(Arc::clone(&self.ctx), self.addr));
        let workers = (0..self.ctx.threads)
            .map(|_| {
                let io = Arc::clone(&io);
                std::thread::spawn(move || conn::worker_loop(&io))
            })
            .collect();
        let accept_io = Arc::clone(&io);
        let listener = self.listener;
        let accept_thread = std::thread::spawn(move || conn::accept_loop(&accept_io, listener));
        ServerHandle {
            addr: self.addr,
            ctx: self.ctx,
            io,
            workers,
            accept_thread,
        }
    }

    /// Convenience for the CLI: start and serve until a `shutdown`
    /// request arrives.
    pub fn run(self) {
        self.start().join();
    }
}

/// Handle to a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<ServerContext>,
    io: Arc<conn::Io>,
    workers: Vec<JoinHandle<()>>,
    accept_thread: JoinHandle<()>,
}

impl ServerHandle {
    /// The serving address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and waits until the server stopped: accepting
    /// ends, every admitted request is answered (bounded by a drain
    /// grace period), idle connections are closed, and the workers
    /// exit.
    pub fn shutdown(self) {
        self.io.stop();
        self.join();
    }

    /// Waits until the server stops — either via [`ServerHandle`] (from
    /// another thread: [`ServerHandle::shutdown`]) or a `shutdown`
    /// request over the wire.
    pub fn join(self) {
        let _ = self.accept_thread.join();
        for w in self.workers {
            let _ = w.join();
        }
        // Last act of a graceful stop: every journal fsynced. Appends
        // already sync record by record, so this only matters for
        // surfacing late errors — but a drain that loses acknowledged
        // batches would be a lie, so be explicit.
        self.ctx.sync_journals();
    }
}

#[cfg(test)]
mod tests {
    use super::registry::Dataset;
    use super::*;
    use crate::json::JsonValue;
    use kor_graph::fixtures::figure1;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    fn fixture_server(threads: usize) -> (SocketAddr, ServerHandle) {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads,
            ..ServeConfig::default()
        })
        .unwrap();
        server
            .registry()
            .insert(Dataset::from_graph("fig1", figure1()));
        let addr = server.local_addr();
        (addr, server.start())
    }

    fn roundtrip(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut out = Vec::new();
        for line in lines {
            conn.write_all(line.as_bytes()).unwrap();
            conn.write_all(b"\n").unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            out.push(resp.trim_end().to_string());
        }
        out
    }

    #[test]
    fn concurrent_identical_queries_get_identical_bytes() {
        let (addr, handle) = fixture_server(3);
        let line = r#"{"id":9,"method":"query","params":{"from":0,"to":7,"keywords":["t1","t2"],"budget":10,"algo":"os-scaling"}}"#;
        let mut threads = Vec::new();
        for _ in 0..8 {
            threads.push(std::thread::spawn(move || {
                roundtrip(addr, &[line]).remove(0)
            }));
        }
        let responses: Vec<String> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        for r in &responses {
            assert_eq!(r, &responses[0], "responses must be byte-identical");
        }
        let parsed = JsonValue::parse(&responses[0]).unwrap();
        assert_eq!(parsed.get("ok").and_then(JsonValue::as_bool), Some(true));
        handle.shutdown();
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let (addr, handle) = fixture_server(1);
        let responses = roundtrip(
            addr,
            &[
                r#"{"id":1,"method":"health"}"#,
                r#"{"id":2,"method":"stats"}"#,
                "garbage",
                r#"{"id":4,"method":"query","params":{"from":0,"to":7,"budget":10}}"#,
            ],
        );
        assert!(responses[0].starts_with(r#"{"id":1,"ok":true"#));
        assert!(responses[1].starts_with(r#"{"id":2,"ok":true"#));
        assert!(responses[2].contains("parse_error"));
        assert!(responses[3].starts_with(r#"{"id":4,"ok":true"#));
        handle.shutdown();
    }

    #[test]
    fn deeply_nested_request_is_an_error_not_a_crash() {
        // ~100 KB of '[' fits under the 1 MiB request cap but would
        // overflow a worker stack if the JSON parser recursed per
        // bracket — and a stack overflow aborts the whole process, past
        // any unwind guard. The server must answer parse_error and keep
        // serving.
        let (addr, handle) = fixture_server(1);
        let bomb = "[".repeat(100_000);
        let responses = roundtrip(addr, &[&bomb, r#"{"id":2,"method":"health"}"#]);
        assert!(responses[0].contains("parse_error"), "{}", responses[0]);
        assert!(
            responses[0].contains("nesting too deep"),
            "{}",
            responses[0]
        );
        assert!(responses[1].starts_with(r#"{"id":2,"ok":true"#));
        handle.shutdown();
    }

    #[test]
    fn oversized_request_is_rejected_and_connection_closed() {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            max_request_bytes: 64,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let handle = server.start();

        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let big = format!("{{\"method\":\"health\",\"id\":\"{}\"}}\n", "x".repeat(200));
        conn.write_all(big.as_bytes()).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        assert!(resp.contains("request_too_large"), "{resp}");
        // The server hangs up after the error.
        let mut next = String::new();
        assert_eq!(reader.read_line(&mut next).unwrap(), 0);
        handle.shutdown();
    }

    /// Past the connection cap (32 per worker) a new connection gets one
    /// well-formed `overloaded` line and end of stream; once connections
    /// close, the server serves normally again.
    #[test]
    fn connection_burst_past_queue_capacity_gets_overloaded() {
        let (addr, handle) = fixture_server(1);
        let cap = conn::CONNECTIONS_PER_WORKER;
        // A completed round trip proves each connection is open.
        let open: Vec<(TcpStream, BufReader<TcpStream>)> = (0..cap)
            .map(|i| {
                let mut conn = TcpStream::connect(addr).unwrap();
                conn.set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                let mut reader = BufReader::new(conn.try_clone().unwrap());
                conn.write_all(b"{\"method\":\"health\"}\n").unwrap();
                let mut resp = String::new();
                reader.read_line(&mut resp).unwrap();
                assert!(resp.contains("\"ok\":true"), "connection {i}: {resp}");
                (conn, reader)
            })
            .collect();
        // One more, with the realistic write-then-read pattern: its
        // unread request must not turn the server's close into a reset
        // that discards the `overloaded` response.
        let mut extra = TcpStream::connect(addr).unwrap();
        extra
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        extra.write_all(b"{\"method\":\"health\"}\n").unwrap();
        let mut reader = BufReader::new(extra);
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        let v = JsonValue::parse(resp.trim_end()).expect("well-formed reply");
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(JsonValue::as_str),
            Some("overloaded"),
            "{resp}"
        );
        assert!(matches!(v.get("id"), Some(JsonValue::Null)));
        let mut next = String::new();
        assert_eq!(reader.read_line(&mut next).unwrap(), 0, "then hangs up");

        // Free the slots; a new connection is served as soon as the
        // server has closed them (polled, not slept on).
        drop(open);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let resp = roundtrip(addr, &[r#"{"id":"again","method":"health"}"#]).remove(0);
            if resp.starts_with(r#"{"id":"again","ok":true"#) {
                break;
            }
            assert!(resp.contains("overloaded"), "{resp}");
            assert!(Instant::now() < deadline, "the cap never freed up");
            std::thread::yield_now();
        }
        handle.shutdown();
    }

    #[test]
    fn shutdown_request_terminates_join() {
        let (addr, handle) = fixture_server(2);
        let responses = roundtrip(addr, &[r#"{"id":"bye","method":"shutdown"}"#]);
        assert!(
            responses[0].contains("\"stopping\":true"),
            "{}",
            responses[0]
        );
        // join() returns because the wire request tripped the latch.
        handle.join();
    }

    #[test]
    fn stats_reports_server_io_section() {
        let (addr, handle) = fixture_server(2);
        let responses = roundtrip(addr, &[r#"{"id":1,"method":"stats"}"#]);
        let parsed = JsonValue::parse(&responses[0]).unwrap();
        let server = parsed
            .get("result")
            .and_then(|r| r.get("server"))
            .expect("server section");
        // This connection is open and its stats request is being
        // handled right now (not queued).
        assert_eq!(
            server.get("open_connections").and_then(JsonValue::as_u64),
            Some(1)
        );
        assert_eq!(
            server.get("queued_requests").and_then(JsonValue::as_u64),
            Some(0)
        );
        assert_eq!(
            server.get("overloaded").and_then(JsonValue::as_u64),
            Some(0)
        );
        assert!(server.get("queue_capacity").and_then(JsonValue::as_u64) > Some(0));
        assert_eq!(
            server.get("max_connections").and_then(JsonValue::as_u64),
            Some(2 * conn::CONNECTIONS_PER_WORKER as u64)
        );
        handle.shutdown();
    }
}
