//! The readiness-driven I/O layer: one multiplexing reactor thread
//! feeding the worker pool through a bounded request queue.
//!
//! The blocking layer in [`crate::serve::pool`] parks one worker per
//! connection, so the worker count caps the number of *connections*
//! the server can hold open — the wrong shape for many mostly-idle
//! keep-alive clients. This layer decouples the two: a single reactor
//! thread owns every socket in non-blocking mode, assembles complete
//! newline-delimited request lines, and hands each line to the worker
//! pool as an independent job. Workers never touch a socket; they
//! return the rendered response to the reactor, which writes responses
//! back **in request order per connection** no matter which worker
//! finished first. Connections are kept alive across requests and may
//! pipeline freely (up to [`MAX_PIPELINE`] requests in flight each —
//! past that the reactor simply stops reading the socket, so TCP
//! backpressure does the throttling).
//!
//! Everything is `std`-only. With no `poll(2)` binding available, the
//! reactor's wait primitive is a condition variable that workers signal
//! on completion, bounded by a short timeout ([`ACTIVE_WAIT`]) that
//! doubles as the socket-readiness poll interval; an iteration that
//! made progress loops again immediately, so a busy server never
//! sleeps.
//!
//! Overload is per *request* here, not per connection: when the job
//! queue is full the reactor answers that line with an `overloaded`
//! error in its proper pipeline position and keeps the connection —
//! clients see a well-formed response they can retry, instead of the
//! blocking layer's answer-and-hang-up at accept time.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::json::JsonValue;
use crate::serve::handler::{handle, note_panic, ServerContext};
use crate::serve::protocol::{error_response, ok_response, parse_request, ErrorCode, WireError};

/// Per-connection cap on requests dispatched to workers but not yet
/// answered. A connection that pipelines past this depth stops being
/// read until responses drain, so one client cannot monopolise the
/// request queue or make the server buffer unbounded responses.
pub(crate) const MAX_PIPELINE: usize = 64;

/// Bytes read from one socket per reactor visit.
const SCRATCH: usize = 16 * 1024;

/// Reactor wait when connections are open but nothing was ready: long
/// enough not to burn a core on an idle connection, short enough that
/// socket-readiness polling adds at most a fraction of a millisecond
/// to request latency. Worker completions interrupt the wait.
const ACTIVE_WAIT: Duration = Duration::from_micros(200);

/// Reactor wait when no connection is open (only accepts and the
/// shutdown latch need polling).
const IDLE_WAIT: Duration = Duration::from_millis(2);

/// Methods that change server state. On one connection each is a
/// barrier: it starts only after every earlier request completed, and no
/// later request starts before it completed, so pipelined neighbours see
/// the state strictly before or strictly after it — as on the blocking
/// layer, which answers a connection's requests one at a time.
const WRITE_METHODS: [&str; 4] = [
    "update_edges",
    "load_dataset",
    "poison_shard",
    "revive_shard",
];

/// After shutdown, connections that cannot flush their remaining
/// responses within this grace period are dropped.
const DRAIN_GRACE: Duration = Duration::from_secs(3);

/// One complete request line travelling to the worker pool.
pub(crate) struct Job {
    conn: usize,
    generation: u64,
    seq: u64,
    line: Vec<u8>,
    received: Instant,
}

/// One response travelling back. Always present: a handler panic is
/// caught in the worker and rendered as an `internal_error` response,
/// so the faulty request is the only casualty — the worker, the
/// connection, and every pipelined neighbor keep going.
pub(crate) struct Completion {
    conn: usize,
    generation: u64,
    seq: u64,
    response: String,
}

/// Bounded multi-producer multi-consumer queue of request jobs.
pub(crate) struct JobQueue {
    state: Mutex<JobState>,
    ready: Condvar,
    capacity: usize,
}

struct JobState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    /// A queue holding at most `capacity` waiting jobs.
    pub(crate) fn new(capacity: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(JobState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues a job, or hands it back when the queue is full (the
    /// reactor answers `overloaded`) or closed.
    fn push(&self, job: Job) -> Result<(), Job> {
        let mut state = self.state.lock().unwrap();
        if state.closed || state.jobs.len() >= self.capacity {
            return Err(job);
        }
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed and
    /// drained.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap();
        }
    }

    /// Closes the queue and wakes every blocked worker.
    pub(crate) fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

/// Completed responses flowing back to the reactor. Pushing signals the
/// condition variable the reactor waits on, so a finished request wakes
/// the reactor immediately instead of waiting out the poll interval.
#[derive(Default)]
pub(crate) struct CompletionBus {
    done: Mutex<Vec<Completion>>,
    signal: Condvar,
}

impl CompletionBus {
    /// An empty bus.
    pub(crate) fn new() -> CompletionBus {
        CompletionBus::default()
    }

    fn push(&self, completion: Completion) {
        self.done.lock().unwrap().push(completion);
        self.signal.notify_one();
    }

    /// Takes every pending completion. With `wait`, blocks up to that
    /// long for the first one when none are pending.
    fn drain(&self, wait: Option<Duration>) -> Vec<Completion> {
        let mut guard = self.done.lock().unwrap();
        if guard.is_empty() {
            if let Some(timeout) = wait {
                guard = self.signal.wait_timeout(guard, timeout).unwrap().0;
            }
        }
        std::mem::take(&mut *guard)
    }
}

/// One worker: answer request jobs until the queue closes.
pub(crate) fn worker_loop(queue: &JobQueue, bus: &CompletionBus, ctx: &ServerContext) {
    while let Some(job) = queue.pop() {
        ctx.queued_requests.fetch_sub(1, Ordering::Relaxed);
        let response = respond(ctx, &job);
        bus.push(Completion {
            conn: job.conn,
            generation: job.generation,
            seq: job.seq,
            response,
        });
    }
}

/// Parses and routes one request line — the same pipeline as the
/// blocking layer's per-connection loop, so responses are byte-identical
/// between the two I/O modes. A handler panic is confined to the
/// request that caused it: parsing happens outside the unwind guard so
/// the client's `id` survives into the `internal_error` response.
fn respond(ctx: &ServerContext, job: &Job) -> String {
    let text = String::from_utf8_lossy(&job.line);
    match parse_request(text.trim()) {
        Err(e) => error_response(&JsonValue::Null, &e),
        Ok(req) => {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handle(ctx, &req, job.received)
            })) {
                Ok(Ok(result)) => ok_response(&req.id, result),
                Ok(Err(e)) => error_response(&req.id, &e),
                Err(_) => error_response(&req.id, &note_panic(ctx)),
            }
        }
    }
}

/// Per-connection reactor state.
struct Conn {
    stream: TcpStream,
    /// Distinguishes this connection from earlier users of the same
    /// slot, so a late completion for a dropped connection can never be
    /// delivered to its successor.
    generation: u64,
    /// Bytes received but not yet parsed into lines.
    read_buf: Vec<u8>,
    /// Prefix of `read_buf` already scanned for a newline.
    scanned: usize,
    /// Rendered responses awaiting the socket, in order.
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written.
    write_pos: usize,
    /// Sequence number the next parsed request will get.
    next_seq: u64,
    /// Sequence number the next written response must have.
    next_write: u64,
    /// Requests dispatched to workers and not yet completed.
    in_flight: usize,
    /// Sequence number of the dispatched, not yet completed write
    /// request (see [`WRITE_METHODS`]); nothing is read or dispatched
    /// behind it.
    write_in_flight: Option<u64>,
    /// The next complete line is a write waiting for `in_flight` to
    /// drain; nothing more is read until it is dispatched.
    write_waiting: bool,
    /// Completed responses that arrived out of order.
    pending: BTreeMap<u64, String>,
    /// Peer closed its write side; parse what remains, then close.
    eof: bool,
    /// Stop reading; close once every outstanding response is flushed.
    closing: bool,
    /// Drop now, discarding anything outstanding.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, generation: u64) -> Conn {
        Conn {
            stream,
            generation,
            read_buf: Vec::new(),
            scanned: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            next_seq: 0,
            next_write: 0,
            in_flight: 0,
            write_in_flight: None,
            write_waiting: false,
            pending: BTreeMap::new(),
            eof: false,
            closing: false,
            dead: false,
        }
    }

    /// Whether any accepted request still awaits its response bytes on
    /// the wire.
    fn outstanding(&self) -> bool {
        self.next_write < self.next_seq || self.write_pos < self.write_buf.len()
    }

    /// Records a worker's response to request `seq`.
    fn complete(&mut self, seq: u64, response: String) {
        self.in_flight -= 1;
        if self.write_in_flight == Some(seq) {
            self.write_in_flight = None;
        }
        self.pending.insert(seq, response);
    }

    /// Moves completed in-order responses into the write buffer.
    fn promote(&mut self) {
        while let Some(response) = self.pending.remove(&self.next_write) {
            self.write_buf.extend_from_slice(response.as_bytes());
            self.write_buf.push(b'\n');
            self.next_write += 1;
        }
    }

    /// Queues a `request_too_large` response in pipeline order and
    /// stops reading — same contract as the blocking layer: the error
    /// is answered, then the connection closes.
    fn reject_too_large(&mut self, max: usize) {
        let err = WireError::new(
            ErrorCode::RequestTooLarge,
            format!("request line exceeds {max} bytes"),
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending
            .insert(seq, error_response(&JsonValue::Null, &err));
        self.closing = true;
        self.read_buf.clear();
        self.scanned = 0;
    }

    /// Whether `read_buf` already holds at least one complete line.
    fn has_complete_line(&self) -> bool {
        self.read_buf.contains(&b'\n')
    }
}

/// The reactor: owns the listener and every connection.
struct Reactor {
    listener: TcpListener,
    ctx: Arc<ServerContext>,
    queue: Arc<JobQueue>,
    bus: Arc<CompletionBus>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    generation: u64,
}

/// Runs the reactor until the shutdown latch trips and every
/// connection has drained (or the grace period expires). Closes the
/// job queue on exit so the workers terminate.
pub(crate) fn run(
    listener: TcpListener,
    ctx: Arc<ServerContext>,
    queue: Arc<JobQueue>,
    bus: Arc<CompletionBus>,
) {
    let _ = listener.set_nonblocking(true);
    let mut reactor = Reactor {
        listener,
        ctx,
        queue,
        bus,
        conns: Vec::new(),
        free: Vec::new(),
        generation: 0,
    };
    let mut draining_since: Option<Instant> = None;
    loop {
        let mut progress = false;
        for completion in reactor.bus.drain(None) {
            reactor.apply(completion);
            progress = true;
        }
        if draining_since.is_none() && reactor.ctx.shutdown.load(Ordering::SeqCst) {
            draining_since = Some(Instant::now());
            // Stop reading everywhere: in-flight requests complete and
            // flush, new bytes are ignored.
            for conn in reactor.conns.iter_mut().flatten() {
                conn.closing = true;
            }
        }
        if draining_since.is_none() {
            progress |= reactor.accept_new();
        }
        progress |= reactor.service_conns();
        reactor.reap();
        if let Some(since) = draining_since {
            if reactor.open_count() == 0 {
                break;
            }
            if since.elapsed() > DRAIN_GRACE {
                reactor.drop_all();
                break;
            }
        }
        if !progress {
            let timeout = if reactor.open_count() > 0 {
                ACTIVE_WAIT
            } else {
                IDLE_WAIT
            };
            for completion in reactor.bus.drain(Some(timeout)) {
                reactor.apply(completion);
            }
        }
    }
    reactor.queue.close();
}

impl Reactor {
    fn open_count(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    /// Accepts every pending connection; non-blocking.
    fn accept_new(&mut self) -> bool {
        let mut any = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    self.ctx.connections.fetch_add(1, Ordering::Relaxed);
                    self.ctx.open_connections.fetch_add(1, Ordering::Relaxed);
                    self.generation += 1;
                    let conn = Conn::new(stream, self.generation);
                    match self.free.pop() {
                        Some(slot) => self.conns[slot] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                    any = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // Persistent accept failures (e.g. EMFILE under an fd
                // exhaustion) must not hot-spin; the outer wait paces
                // retries.
                Err(_) => break,
            }
        }
        any
    }

    /// Delivers one worker completion to its connection, unless the
    /// connection is gone or the slot was reused.
    fn apply(&mut self, completion: Completion) {
        let Some(conn) = self.conns.get_mut(completion.conn).and_then(Option::as_mut) else {
            return;
        };
        if conn.generation != completion.generation {
            return;
        }
        conn.complete(completion.seq, completion.response);
    }

    /// Flush + read + parse every connection once.
    fn service_conns(&mut self) -> bool {
        let mut progress = false;
        for slot in 0..self.conns.len() {
            let Some(mut conn) = self.conns[slot].take() else {
                continue;
            };
            progress |= service_conn(&self.ctx, &self.queue, &mut conn, slot);
            self.conns[slot] = Some(conn);
        }
        progress
    }

    /// Drops connections that are dead or fully drained.
    fn reap(&mut self) {
        for slot in 0..self.conns.len() {
            let done = match &self.conns[slot] {
                Some(c) => {
                    c.dead
                        || (c.closing && !c.outstanding())
                        || (c.eof && !c.has_complete_line() && !c.outstanding())
                }
                None => false,
            };
            if done {
                self.conns[slot] = None;
                self.free.push(slot);
                self.ctx.open_connections.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Drops every connection (shutdown grace expired).
    fn drop_all(&mut self) {
        for slot in 0..self.conns.len() {
            if self.conns[slot].take().is_some() {
                self.ctx.open_connections.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// One reactor visit to one connection: promote completed responses,
/// flush, read, parse lines, dispatch jobs.
fn service_conn(ctx: &ServerContext, queue: &JobQueue, conn: &mut Conn, slot: usize) -> bool {
    let mut progress = false;
    conn.promote();

    // Flush as much of the write buffer as the socket accepts.
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.write_pos += n;
                progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.write_pos > 0 && conn.write_pos == conn.write_buf.len() {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }

    // Read once; backpressure by simply not reading when the pipeline
    // is full or held at a write.
    let held = conn.write_in_flight.is_some() || conn.write_waiting;
    if !conn.dead && !conn.closing && !conn.eof && conn.in_flight < MAX_PIPELINE && !held {
        let mut scratch = [0u8; SCRATCH];
        match conn.stream.read(&mut scratch) {
            Ok(0) => {
                conn.eof = true;
                progress = true;
            }
            Ok(n) => {
                conn.read_buf.extend_from_slice(&scratch[..n]);
                progress = true;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => conn.dead = true,
        }
    }

    // Parse complete lines. A line is "committed" only once its newline
    // arrived — identical to the blocking reader — so segment
    // boundaries can never change how a request parses.
    while !conn.dead
        && !conn.closing
        && conn.in_flight < MAX_PIPELINE
        && conn.write_in_flight.is_none()
    {
        let Some(rel) = conn.read_buf[conn.scanned..]
            .iter()
            .position(|&b| b == b'\n')
        else {
            conn.scanned = conn.read_buf.len();
            if conn.read_buf.len() > ctx.max_request_bytes {
                conn.reject_too_large(ctx.max_request_bytes);
            }
            break;
        };
        let pos = conn.scanned + rel;
        if pos > ctx.max_request_bytes {
            conn.reject_too_large(ctx.max_request_bytes);
            break;
        }
        let write = is_write(&conn.read_buf[..pos]);
        conn.write_waiting = write && conn.in_flight > 0;
        if conn.write_waiting {
            break;
        }
        let line: Vec<u8> = conn.read_buf[..pos].to_vec();
        conn.read_buf.drain(..=pos);
        conn.scanned = 0;
        // Blank lines keep interactive nc sessions pleasant (and get no
        // response — same as the blocking layer).
        if String::from_utf8_lossy(&line).trim().is_empty() {
            continue;
        }
        ctx.requests.fetch_add(1, Ordering::Relaxed);
        let seq = conn.next_seq;
        conn.next_seq += 1;
        let job = Job {
            conn: slot,
            generation: conn.generation,
            seq,
            line,
            received: Instant::now(),
        };
        // Count the request as queued *before* the push: the push wakes
        // a worker, and that worker's matching decrement must never be
        // able to run ahead of this increment (stats would transiently
        // read an underflowed counter).
        ctx.queued_requests.fetch_add(1, Ordering::Relaxed);
        match queue.push(job) {
            Ok(()) => {
                conn.in_flight += 1;
                if write {
                    conn.write_in_flight = Some(seq);
                }
                progress = true;
            }
            Err(_refused) => {
                // Backpressure is per request: answer `overloaded` in
                // this request's pipeline slot and keep the connection.
                ctx.queued_requests.fetch_sub(1, Ordering::Relaxed);
                ctx.overloaded.fetch_add(1, Ordering::Relaxed);
                let err =
                    WireError::new(ErrorCode::Overloaded, "request queue is full; retry later");
                conn.pending
                    .insert(seq, error_response(&JsonValue::Null, &err));
                progress = true;
            }
        }
    }

    conn.promote();
    progress
}

/// Whether `line` requests one of the [`WRITE_METHODS`]. Only lines
/// naming one are parsed here; the worker parses every line again.
fn is_write(line: &[u8]) -> bool {
    let text = String::from_utf8_lossy(line);
    WRITE_METHODS.iter().any(|m| text.contains(m))
        && parse_request(text.trim()).is_ok_and(|r| WRITE_METHODS.contains(&r.method.as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(seq: u64) -> Job {
        Job {
            conn: 0,
            generation: 1,
            seq,
            line: Vec::new(),
            received: Instant::now(),
        }
    }

    #[test]
    fn job_queue_bounds_and_closes() {
        let q = JobQueue::new(2);
        assert!(q.push(job(0)).is_ok());
        assert!(q.push(job(1)).is_ok());
        let refused = q.push(job(2));
        assert!(refused.is_err(), "third push must be refused");
        assert_eq!(q.pop().unwrap().seq, 0);
        assert!(q.push(job(2)).is_ok(), "pop frees a slot");
        q.close();
        assert!(q.push(job(3)).is_err(), "closed queue refuses");
        assert_eq!(q.pop().unwrap().seq, 1, "drains after close");
        assert_eq!(q.pop().unwrap().seq, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn completion_bus_wakes_a_waiter() {
        let bus = Arc::new(CompletionBus::new());
        let b2 = Arc::clone(&bus);
        let waiter = std::thread::spawn(move || b2.drain(Some(Duration::from_secs(10))));
        std::thread::sleep(Duration::from_millis(20));
        bus.push(Completion {
            conn: 3,
            generation: 1,
            seq: 7,
            response: "x".into(),
        });
        let got = waiter.join().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 7);
    }

    #[test]
    fn promote_respects_request_order() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Conn::new(stream, 1);
        conn.next_seq = 3;
        // Responses 2 and 0 completed; 1 is still in a worker.
        conn.pending.insert(2, "two".into());
        conn.pending.insert(0, "zero".into());
        conn.promote();
        assert_eq!(conn.write_buf, b"zero\n", "stops at the gap");
        conn.pending.insert(1, "one".into());
        conn.promote();
        assert_eq!(conn.write_buf, b"zero\none\ntwo\n");
        assert!(!conn.pending.is_empty() || conn.next_write == 3);
        assert!(conn.outstanding(), "bytes still unflushed");
    }

    #[test]
    fn a_pipelined_write_runs_alone() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(stream, 1);
        let read = r#"{"id":0,"method":"query","params":{"keywords":["update_edges"]}}"#;
        let write = r#"{"id":1,"method":"update_edges","params":{}}"#;
        assert!(!is_write(read.as_bytes()) && is_write(write.as_bytes()));
        conn.read_buf = format!("{read}\n{write}\n{read}\n").into_bytes();
        let ctx = ServerContext::new(2, 0);
        let queue = JobQueue::new(8);
        // Each visit dispatches exactly one request: the write waits for
        // the read before it, and the read after it waits for the write.
        for seq in 0..3 {
            service_conn(&ctx, &queue, &mut conn, 0);
            assert_eq!(queue.state.lock().unwrap().jobs.len(), 1, "visit {seq}");
            let job = queue.pop().unwrap();
            assert_eq!(job.seq, seq);
            assert_eq!(job.line, [read, write, read][seq as usize].as_bytes());
            service_conn(&ctx, &queue, &mut conn, 0);
            assert!(queue.state.lock().unwrap().jobs.is_empty(), "visit {seq}");
            conn.complete(seq, String::new());
        }
        assert!(!conn.write_waiting && conn.write_in_flight.is_none());
    }

    #[test]
    fn too_large_reply_takes_its_pipeline_slot() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Conn::new(stream, 1);
        conn.read_buf = vec![b'x'; 100];
        conn.reject_too_large(50);
        assert!(conn.closing);
        assert!(conn.read_buf.is_empty());
        conn.promote();
        let text = String::from_utf8(conn.write_buf.clone()).unwrap();
        assert!(text.contains("request_too_large"), "{text}");
        assert!(text.contains("exceeds 50 bytes"), "{text}");
    }
}
