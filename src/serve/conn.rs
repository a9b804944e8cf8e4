//! The serve I/O layer: a blocking accept thread, one blocking reader
//! thread per connection, and workers that write their own replies.
//!
//! A connection's reader assembles newline-delimited lines and stamps
//! each with the next sequence number. On an idle server (nothing
//! running, nothing queued) a line with nothing behind it on its
//! connection runs right on the reader — no handoff at all, the common
//! case at light load. Otherwise the reader pushes it onto the bounded
//! [`JobQueue`] and a worker runs it: one handoff. Requests run in at
//! most `threads` execution slots at once, on readers and workers
//! together. Either way the request is parsed and run under
//! `catch_unwind`, and its response goes to the connection's in-order
//! writer ([`Conn::deliver`]), which puts it on the wire as soon as
//! every earlier response on that connection is out. Nothing waits on a
//! timer: readers block in `read`, workers on the queue, the accept
//! thread in `accept`.
//!
//! Backpressure never polls either:
//!
//! * **Pipelining** — a reader holding [`MAX_PIPELINE`] unanswered
//!   requests stops reading until responses drain, so TCP flow control
//!   throttles the client.
//! * **Writes are barriers** — a line naming one of [`WRITE_METHODS`]
//!   is admitted only once every earlier request on its connection is
//!   answered, and nothing after it is admitted before it is answered.
//! * **Full queue** — the line is answered `overloaded` (id `null`, it
//!   was never parsed) in its own pipeline slot; the connection stays.
//! * **Connection cap** — at most [`CONNECTIONS_PER_WORKER`] × workers
//!   connections are open; past that the accept thread answers
//!   `overloaded`, half-closes and drains briefly so the reply is not
//!   lost to a reset.
//!
//! Shutdown: whoever trips the latch wakes the accept thread with a
//! self-connect. It stops accepting, waits (bounded by [`DRAIN_GRACE`])
//! until every admitted request is answered, releases the readers with
//! `shutdown(Read)`, waits for them to exit, and closes the queue so
//! the workers stop.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::json::JsonValue;
use crate::serve::handler::{handle, note_panic, ServerContext};
use crate::serve::protocol::{error_response, ok_response, parse_request, ErrorCode, WireError};

/// Per-connection cap on requests admitted but not yet answered. A
/// connection that pipelines past this depth is not read until
/// responses drain, so one client cannot monopolise the request queue
/// or make the server hold unbounded responses.
pub(crate) const MAX_PIPELINE: usize = 64;

/// Open connections allowed per worker thread. Each connection parks
/// one reader thread, so the cap bounds the server's thread count.
pub(crate) const CONNECTIONS_PER_WORKER: usize = 32;

/// Methods that change server state. On one connection each is a
/// barrier: it starts only after every earlier request was answered,
/// and no later request starts before it was answered, so pipelined
/// neighbours see the state strictly before or strictly after it.
const WRITE_METHODS: [&str; 4] = [
    "update_edges",
    "load_dataset",
    "poison_shard",
    "revive_shard",
];

/// Bytes asked of the socket per `read`.
const READ_CHUNK: usize = 16 * 1024;

/// After shutdown, requests still unanswered after this long are
/// abandoned and their connections closed.
const DRAIN_GRACE: Duration = Duration::from_secs(3);

/// A worker writing to a peer that stopped reading gives up (and drops
/// the connection) after this long.
const WRITE_STALL: Duration = Duration::from_secs(10);

/// Pause after a failed `accept` (for example EMFILE), so a persistent
/// failure does not spin the accept thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// How long [`linger_close`] waits for each read of the peer's leftover
/// bytes, and how many reads it makes.
const LINGER: Duration = Duration::from_millis(25);
const LINGER_READS: usize = 4;

/// One admitted request line travelling to a worker.
pub(crate) struct Job {
    conn: Arc<Conn>,
    seq: u64,
    line: Vec<u8>,
    received: Instant,
}

/// Bounded multi-producer multi-consumer queue of request jobs, plus
/// the execution slots (one per worker) that cap how many requests run
/// at once, whether on a worker or inline on a reader.
pub(crate) struct JobQueue {
    state: Mutex<JobState>,
    ready: Condvar,
    capacity: usize,
    slots: usize,
}

struct JobState {
    jobs: VecDeque<Job>,
    /// Requests running right now (at most `slots`).
    running: usize,
    /// Workers blocked in [`JobQueue::pop`]; a push wakes one only when
    /// some are.
    idle: usize,
    closed: bool,
}

impl JobQueue {
    /// A queue holding at most `capacity` waiting jobs, running at most
    /// `slots` at once.
    pub(crate) fn new(capacity: usize, slots: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(JobState {
                jobs: VecDeque::new(),
                running: 0,
                idle: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            slots: slots.max(1),
        }
    }

    /// Claims an execution slot for a request the caller runs itself,
    /// only on an idle server: nothing running and nothing queued. Under
    /// load the workers, which loop from one job to the next without a
    /// wake-up, keep every slot. Pair with [`JobQueue::release`].
    fn try_claim(&self) -> bool {
        let mut state = self.state.lock().unwrap();
        let free = state.jobs.is_empty() && state.running == 0;
        if free {
            state.running += 1;
        }
        free
    }

    /// Returns an execution slot, waking a worker if jobs wait for it.
    fn release(&self) {
        let mut state = self.state.lock().unwrap();
        state.running -= 1;
        let wake = !state.jobs.is_empty() && state.idle > 0;
        drop(state);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Enqueues a job, or hands it back when the queue is full or
    /// closed.
    fn push(&self, job: Job) -> Result<(), Job> {
        let mut state = self.state.lock().unwrap();
        if state.closed || state.jobs.len() >= self.capacity {
            return Err(job);
        }
        state.jobs.push_back(job);
        let wake = state.idle > 0;
        drop(state);
        if wake {
            self.ready.notify_one();
        }
        Ok(())
    }

    /// Blocks for the next job and an execution slot to run it in
    /// (release it when done); `None` once the queue is closed and
    /// drained.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap();
        loop {
            if state.running < self.slots {
                if let Some(job) = state.jobs.pop_front() {
                    state.running += 1;
                    return Some(job);
                }
            }
            if state.closed && state.jobs.is_empty() {
                return None;
            }
            state.idle += 1;
            state = self.ready.wait(state).unwrap();
            state.idle -= 1;
        }
    }

    /// Closes the queue and wakes every blocked worker.
    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

/// Decrements `open_connections` when dropped. The last field of
/// [`Conn`], so it runs after the socket is closed and the count never
/// reads lower than the live sockets.
struct OpenGuard(Arc<ServerContext>);

impl Drop for OpenGuard {
    fn drop(&mut self) {
        self.0.open_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One connection, shared by its reader and by the workers answering
/// its requests; the socket closes when the last of them lets go.
pub(crate) struct Conn {
    stream: TcpStream,
    state: Mutex<ConnState>,
    /// Signalled when responses reach the wire or the connection dies,
    /// for a reader waiting on pipeline room and for the shutdown drain.
    changed: Condvar,
    _open: OpenGuard,
}

/// The in-order writer's state plus what admission needs to know.
#[derive(Default)]
struct ConnState {
    /// Sequence numbers handed out so far.
    admitted: u64,
    /// Responses on the wire so far (all sequence numbers below this).
    written: u64,
    /// Rendered responses (newline included) waiting for an earlier one.
    pending: BTreeMap<u64, String>,
    /// A thread is writing this connection's responses right now.
    writing: bool,
    /// Sequence number of the admitted write-method request, until it
    /// is answered.
    barrier: Option<u64>,
    /// A write failed or the drain gave up: further responses are
    /// discarded and the reader stops.
    dead: bool,
    /// Threads waiting on [`Conn::changed`].
    waiters: usize,
}

impl ConnState {
    fn outstanding(&self) -> u64 {
        self.admitted - self.written
    }

    /// Whether a line (a write-method line when `write`) may be
    /// admitted now: below the pipeline cap, behind no write, and — for
    /// a write — behind nothing at all.
    fn admits(&self, write: bool) -> bool {
        let outstanding = self.outstanding();
        self.barrier.is_none() && outstanding < MAX_PIPELINE as u64 && !(write && outstanding > 0)
    }
}

impl Conn {
    fn new(stream: TcpStream, ctx: Arc<ServerContext>) -> Conn {
        ctx.open_connections.fetch_add(1, Ordering::Relaxed);
        Conn {
            stream,
            state: Mutex::new(ConnState::default()),
            changed: Condvar::new(),
            _open: OpenGuard(ctx),
        }
    }

    /// The in-order writer: records the response to request `seq` and,
    /// unless another thread is already writing, writes every response
    /// that is now next in line — one `write` for all of them. The
    /// socket write happens outside the lock, so responses completing
    /// meanwhile are queued and picked up by the same loop.
    fn deliver(&self, seq: u64, mut response: String) {
        response.push('\n');
        let mut st = self.state.lock().unwrap();
        if st.dead {
            return;
        }
        st.pending.insert(seq, response);
        if st.writing {
            return;
        }
        st.writing = true;
        loop {
            let mut upto = st.written;
            let mut bytes: Vec<u8> = Vec::new();
            while let Some(r) = st.pending.remove(&upto) {
                if bytes.is_empty() {
                    bytes = r.into_bytes();
                } else {
                    bytes.extend_from_slice(r.as_bytes());
                }
                upto += 1;
            }
            if upto == st.written {
                st.writing = false;
                return;
            }
            drop(st);
            let sent = (&self.stream).write_all(&bytes);
            st = self.state.lock().unwrap();
            st.written = upto;
            if st.barrier.is_some_and(|b| b < upto) {
                st.barrier = None;
            }
            if sent.is_err() {
                st.dead = true;
                st.pending.clear();
                let _ = self.stream.shutdown(Shutdown::Both);
            }
            if st.waiters > 0 {
                self.changed.notify_all();
            }
            if st.dead {
                st.writing = false;
                return;
            }
        }
    }

    /// Blocks until every admitted request is answered, the connection
    /// died, or `deadline` passed; returns whether it is fully answered.
    fn wait_answered(&self, deadline: Option<Instant>) -> bool {
        let mut st = self.state.lock().unwrap();
        while st.outstanding() > 0 && !st.dead {
            st.waiters += 1;
            st = match deadline {
                None => self.changed.wait(st).unwrap(),
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        st.waiters -= 1;
                        return false;
                    }
                    self.changed.wait_timeout(st, left).unwrap().0
                }
            };
            st.waiters -= 1;
        }
        st.outstanding() == 0
    }

    /// Gives up on the connection: discards unwritten responses, wakes
    /// its waiters and closes both directions.
    fn kill(&self) {
        let mut st = self.state.lock().unwrap();
        st.dead = true;
        st.pending.clear();
        self.changed.notify_all();
        drop(st);
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// State shared by the accept thread, the readers and the workers.
pub(crate) struct Io {
    ctx: Arc<ServerContext>,
    queue: JobQueue,
    /// Where a self-connect reaches the listener.
    wake_addr: SocketAddr,
    /// Set once the accept thread has been woken for shutdown.
    woken: AtomicBool,
    /// Open connections by id, for the shutdown drain.
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    /// Signalled when a reader deregisters.
    conns_changed: Condvar,
    next_conn: AtomicU64,
}

impl Io {
    /// Shared state for a server listening on `addr`.
    pub(crate) fn new(ctx: Arc<ServerContext>, addr: SocketAddr) -> Io {
        let mut wake_addr = addr;
        if addr.ip().is_unspecified() {
            wake_addr.set_ip(match addr {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        Io {
            queue: JobQueue::new(ctx.queue_capacity, ctx.threads),
            ctx,
            wake_addr,
            woken: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            conns_changed: Condvar::new(),
            next_conn: AtomicU64::new(0),
        }
    }

    /// Trips the shutdown latch and wakes the accept thread.
    pub(crate) fn stop(&self) {
        self.ctx.shutdown.store(true, Ordering::SeqCst);
        self.wake_accept();
    }

    /// Wakes the accept thread (once) with a self-connect; it sees the
    /// latch and starts the drain.
    fn wake_accept(&self) {
        if !self.woken.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
        }
    }
}

/// The accept thread: accept until the latch trips, then drain and
/// release every connection, and close the queue.
pub(crate) fn accept_loop(io: &Arc<Io>, listener: TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) if io.ctx.shutdown.load(Ordering::SeqCst) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                continue;
            }
        };
        if io.ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
        io.ctx.connections.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nodelay(true);
        let cap = io.ctx.max_connections;
        if io.ctx.open_connections.load(Ordering::Relaxed) >= cap as u64 {
            io.ctx.overloaded.fetch_add(1, Ordering::Relaxed);
            refuse(stream, cap);
            continue;
        }
        let _ = stream.set_write_timeout(Some(WRITE_STALL));
        let conn = Arc::new(Conn::new(stream, Arc::clone(&io.ctx)));
        let id = io.next_conn.fetch_add(1, Ordering::Relaxed);
        io.conns.lock().unwrap().insert(id, Arc::clone(&conn));
        let reader_io = Arc::clone(io);
        let spawned = std::thread::Builder::new()
            .name("kor-conn".into())
            .spawn(move || {
                read_loop(&reader_io, &conn);
                reader_io.conns.lock().unwrap().remove(&id);
                reader_io.conns_changed.notify_all();
            });
        if spawned.is_err() {
            // Out of threads: the connection closes unanswered.
            io.conns.lock().unwrap().remove(&id);
        }
    }
    drop(listener);
    drain(io);
    io.queue.close();
}

/// Graceful stop: wait (bounded) for every admitted request to be
/// answered, then release the readers and wait until they exit.
fn drain(io: &Io) {
    let deadline = Instant::now() + DRAIN_GRACE;
    let open: Vec<Arc<Conn>> = io.conns.lock().unwrap().values().cloned().collect();
    for conn in &open {
        if !conn.wait_answered(Some(deadline)) {
            conn.kill();
        }
        // A reader blocked in `read` sees end of stream and exits.
        let _ = conn.stream.shutdown(Shutdown::Read);
    }
    drop(open);
    let mut conns = io.conns.lock().unwrap();
    while !conns.is_empty() {
        conns = io.conns_changed.wait(conns).unwrap();
    }
}

/// Answers a connection past the cap with `overloaded` and closes it.
fn refuse(mut stream: TcpStream, cap: usize) {
    let err = WireError::new(
        ErrorCode::Overloaded,
        format!("connection limit ({cap} open connections) reached; retry later"),
    );
    let mut line = error_response(&JsonValue::Null, &err);
    line.push('\n');
    if stream.write_all(line.as_bytes()).is_ok() {
        linger_close(&stream);
    }
}

/// Half-closes `stream` after its last response and briefly drains what
/// the peer already sent. Closing a socket with unread bytes turns the
/// close into a reset, which can discard the response before the peer
/// reads it; the drain makes it an orderly FIN instead. Bounded to
/// [`LINGER_READS`] reads of at most [`LINGER`] each.
fn linger_close(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(LINGER));
    let mut sink = [0u8; 4096];
    for _ in 0..LINGER_READS {
        match (&*stream).read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// What the line framer found next in the bytes received so far.
#[derive(Debug, PartialEq)]
enum Frame {
    /// A complete line (newline stripped).
    Line(Vec<u8>),
    /// No complete line yet; read more.
    Partial,
    /// The current line exceeds the size cap.
    TooLarge,
}

/// Newline framing over the bytes a reader has received. A line is
/// committed only once its newline arrived, so segment boundaries can
/// never change how a request parses.
#[derive(Default)]
struct Lines {
    buf: Vec<u8>,
    /// Start of the first unconsumed byte.
    start: usize,
    /// Prefix of `buf[start..]` already scanned for a newline.
    scanned: usize,
}

impl Lines {
    fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Whether a complete line is already buffered.
    fn has_line(&self) -> bool {
        self.buf[self.start..].contains(&b'\n')
    }

    /// The next complete line of at most `max` bytes.
    fn next(&mut self, max: usize) -> Frame {
        let rest = &self.buf[self.start..];
        match rest[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(rel) => {
                let len = self.scanned + rel;
                if len > max {
                    return Frame::TooLarge;
                }
                let line = rest[..len].to_vec();
                self.start += len + 1;
                self.scanned = 0;
                Frame::Line(line)
            }
            None => {
                self.scanned = rest.len();
                if rest.len() > max {
                    Frame::TooLarge
                } else {
                    Frame::Partial
                }
            }
        }
    }
}

/// One connection's reader: frame lines and admit them until end of
/// stream, an error, an oversized line, or shutdown.
fn read_loop(io: &Io, conn: &Arc<Conn>) {
    let max = io.ctx.max_request_bytes;
    let mut lines = Lines::default();
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        loop {
            match lines.next(max) {
                Frame::Partial => break,
                Frame::TooLarge => {
                    let err = WireError::new(
                        ErrorCode::RequestTooLarge,
                        format!("request line exceeds {max} bytes"),
                    );
                    let seq = {
                        let mut st = conn.state.lock().unwrap();
                        st.admitted += 1;
                        st.admitted - 1
                    };
                    conn.deliver(seq, error_response(&JsonValue::Null, &err));
                    if conn.wait_answered(None) {
                        linger_close(&conn.stream);
                    }
                    return;
                }
                Frame::Line(line) => {
                    // Blank lines keep interactive nc sessions pleasant
                    // and get no response.
                    if line.iter().all(u8::is_ascii_whitespace) {
                        continue;
                    }
                    // A line with nothing queued behind it on this
                    // connection may run right here.
                    if !admit(io, conn, line, !lines.has_line()) {
                        return;
                    }
                }
            }
        }
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => lines.push(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Admits one request line: waits for pipeline room (and barriers) and
/// stamps its sequence number. Then, when `inline` and the server is
/// idle, runs it on the calling reader — no handoff at all; otherwise
/// queues it for a worker, or answers `overloaded` in its slot when the
/// queue is full. Returns `false` when the reader must stop (shutdown,
/// or the connection died).
fn admit(io: &Io, conn: &Arc<Conn>, line: Vec<u8>, inline: bool) -> bool {
    let ctx = &io.ctx;
    let write = is_write(&line);
    let seq = {
        let mut st = conn.state.lock().unwrap();
        loop {
            // Checked under the connection lock: the drain takes this
            // lock after the latch is set, so a line either is admitted
            // before the drain looks or is never admitted.
            if ctx.shutdown.load(Ordering::SeqCst) || st.dead {
                return false;
            }
            if st.admits(write) {
                break;
            }
            st.waiters += 1;
            st = conn.changed.wait(st).unwrap();
            st.waiters -= 1;
        }
        let seq = st.admitted;
        st.admitted += 1;
        if write {
            st.barrier = Some(seq);
        }
        seq
    };
    ctx.requests.fetch_add(1, Ordering::Relaxed);
    let job = Job {
        conn: Arc::clone(conn),
        seq,
        line,
        received: Instant::now(),
    };
    if inline && io.queue.try_claim() {
        run(io, job);
        return true;
    }
    // Counted before the push: the worker's matching decrement must
    // never run ahead of this increment.
    ctx.queued_requests.fetch_add(1, Ordering::Relaxed);
    if io.queue.push(job).is_err() {
        ctx.queued_requests.fetch_sub(1, Ordering::Relaxed);
        ctx.overloaded.fetch_add(1, Ordering::Relaxed);
        let err = WireError::new(ErrorCode::Overloaded, "request queue is full; retry later");
        conn.deliver(seq, error_response(&JsonValue::Null, &err));
    }
    true
}

/// Whether `line` requests one of the [`WRITE_METHODS`]. Only lines
/// naming one are parsed here; the worker parses every line again.
fn is_write(line: &[u8]) -> bool {
    let text = String::from_utf8_lossy(line);
    WRITE_METHODS.iter().any(|m| text.contains(m))
        && parse_request(text.trim()).is_ok_and(|r| WRITE_METHODS.contains(&r.method.as_str()))
}

/// One worker: answer queued jobs until the queue closes.
pub(crate) fn worker_loop(io: &Io) {
    while let Some(job) = io.queue.pop() {
        io.ctx.queued_requests.fetch_sub(1, Ordering::Relaxed);
        run(io, job);
    }
}

/// Answers `job` in the execution slot its caller claimed, then returns
/// the slot. Whoever answers a `shutdown` request wakes the accept
/// thread.
fn run(io: &Io, job: Job) {
    let response = respond(&io.ctx, &job.line, job.received);
    job.conn.deliver(job.seq, response);
    io.queue.release();
    if io.ctx.shutdown.load(Ordering::Relaxed) {
        io.wake_accept();
    }
}

/// Parses and routes one request line. A handler panic is confined to
/// the request that caused it: parsing happens outside the unwind guard
/// so the client's `id` survives into the `internal_error` response.
fn respond(ctx: &ServerContext, line: &[u8], received: Instant) -> String {
    let text = String::from_utf8_lossy(line);
    match parse_request(text.trim()) {
        Err(e) => error_response(&JsonValue::Null, &e),
        Ok(req) => {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handle(ctx, &req, received)
            })) {
                Ok(Ok(result)) => ok_response(&req.id, result),
                Ok(Err(e)) => error_response(&req.id, &e),
                Err(_) => error_response(&req.id, &note_panic(ctx)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// A connection over a real loopback socket pair; returns the
    /// server side and a reader on the client side.
    fn pair() -> (Arc<Conn>, BufReader<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let (stream, _) = listener.accept().unwrap();
        let ctx = Arc::new(ServerContext::new(1, 0));
        (Arc::new(Conn::new(stream, ctx)), BufReader::new(client))
    }

    fn read_line(reader: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    }

    /// Pops the next job and hands its execution slot straight back, as
    /// a worker would once it answered.
    fn take(q: &JobQueue) -> Job {
        let job = q.pop().unwrap();
        q.release();
        job
    }

    fn job(conn: &Arc<Conn>, seq: u64) -> Job {
        Job {
            conn: Arc::clone(conn),
            seq,
            line: Vec::new(),
            received: Instant::now(),
        }
    }

    #[test]
    fn job_queue_bounds_and_closes() {
        let (conn, _client) = pair();
        let q = JobQueue::new(2, 1);
        assert!(q.push(job(&conn, 0)).is_ok());
        assert!(q.push(job(&conn, 1)).is_ok());
        let refused = q.push(job(&conn, 2));
        assert!(refused.is_err(), "third push must be refused");
        assert_eq!(take(&q).seq, 0);
        assert!(q.push(job(&conn, 2)).is_ok(), "pop frees a slot");
        q.close();
        assert!(q.push(job(&conn, 3)).is_err(), "closed queue refuses");
        assert_eq!(take(&q).seq, 1, "drains after close");
        assert_eq!(take(&q).seq, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn execution_slots_cap_inline_and_queued_work() {
        let (conn, _client) = pair();
        let q = Arc::new(JobQueue::new(4, 2));
        assert!(q.try_claim(), "an idle server runs a lone request inline");
        assert!(
            !q.try_claim(),
            "only an idle one: the other slot is the workers'"
        );
        // A worker takes the other slot, and the next one waits for a
        // slot as well as for a job.
        assert!(q.push(job(&conn, 0)).is_ok());
        assert_eq!(q.pop().unwrap().seq, 0);
        assert!(q.push(job(&conn, 1)).is_ok());
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop().unwrap().seq)
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while q.state.lock().unwrap().idle == 0 {
            assert!(Instant::now() < deadline, "worker never parked");
            std::thread::yield_now();
        }
        assert_eq!(
            q.state.lock().unwrap().jobs.len(),
            1,
            "held off by the slots"
        );
        q.release();
        assert_eq!(popper.join().unwrap(), 1);
        q.release();
        q.release();
        // Idle again, but inline work never overtakes a queued job.
        assert!(q.push(job(&conn, 2)).is_ok());
        assert!(!q.try_claim());
        assert_eq!(take(&q).seq, 2);
        assert!(q.try_claim());
    }

    #[test]
    fn promote_respects_request_order() {
        let (conn, mut client) = pair();
        conn.state.lock().unwrap().admitted = 3;
        // Responses 2 and 0 completed; 1 is still in a worker.
        conn.deliver(2, "two".into());
        conn.deliver(0, "zero".into());
        assert_eq!(read_line(&mut client), "zero\n", "stops at the gap");
        assert_eq!(conn.state.lock().unwrap().written, 1);
        conn.deliver(1, "one".into());
        assert_eq!(read_line(&mut client), "one\n");
        assert_eq!(read_line(&mut client), "two\n");
        let st = conn.state.lock().unwrap();
        assert_eq!((st.written, st.outstanding()), (3, 0));
        assert!(st.pending.is_empty() && !st.writing);
    }

    #[test]
    fn read_line_splits_and_caps() {
        let mut lines = Lines::default();
        lines.push(b"abc\nde");
        assert_eq!(lines.next(100), Frame::Line(b"abc".to_vec()));
        assert_eq!(lines.next(100), Frame::Partial);
        lines.push(b"fgh\n");
        assert_eq!(lines.next(100), Frame::Line(b"defgh".to_vec()));
        assert_eq!(lines.next(100), Frame::Partial);

        // Terminated and unterminated lines past the cap.
        let mut lines = Lines::default();
        lines.push(b"0123456789\n");
        assert_eq!(lines.next(4), Frame::TooLarge);
        let mut lines = Lines::default();
        lines.push(b"0123456789");
        assert_eq!(lines.next(4), Frame::TooLarge);

        // A trailing fragment without its newline is never committed.
        let mut lines = Lines::default();
        lines.push(b"tail");
        assert_eq!(lines.next(100), Frame::Partial);
    }

    /// Polls until the connection's reader is parked on its condition
    /// variable (the readiness signal that it is held, not just slow).
    fn await_parked(conn: &Conn) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while conn.state.lock().unwrap().waiters == 0 {
            assert!(Instant::now() < deadline, "reader never parked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_pipelined_write_runs_alone() {
        let (conn, _client) = pair();
        let read = r#"{"id":0,"method":"query","params":{"keywords":["update_edges"]}}"#;
        let write = r#"{"id":1,"method":"update_edges","params":{}}"#;
        assert!(!is_write(read.as_bytes()) && is_write(write.as_bytes()));
        let ctx = Arc::new(ServerContext::new(2, 0));
        let io = Arc::new(Io::new(ctx, "127.0.0.1:1".parse().unwrap()));
        let reader = {
            let (io, conn) = (Arc::clone(&io), Arc::clone(&conn));
            std::thread::spawn(move || {
                for line in [read, write, read] {
                    assert!(admit(&io, &conn, line.as_bytes().to_vec(), false));
                }
            })
        };
        // Each request is queued alone: the write waits for the read
        // before it, and the read after it waits for the write.
        for seq in 0..3u64 {
            let job = take(&io.queue);
            assert_eq!(job.seq, seq);
            assert_eq!(job.line, [read, write, read][seq as usize].as_bytes());
            if seq < 2 {
                await_parked(&conn);
                assert!(io.queue.state.lock().unwrap().jobs.is_empty(), "seq {seq}");
            }
            conn.deliver(seq, String::new());
        }
        reader.join().unwrap();
        let st = conn.state.lock().unwrap();
        assert!(st.barrier.is_none() && st.outstanding() == 0);
    }

    #[test]
    fn a_full_pipeline_holds_the_reader_until_responses_drain() {
        let (conn, mut client) = pair();
        let mut ctx = ServerContext::new(1, 0);
        ctx.queue_capacity = 4 * MAX_PIPELINE;
        let io = Arc::new(Io::new(Arc::new(ctx), "127.0.0.1:1".parse().unwrap()));
        let total = MAX_PIPELINE as u64 + 3;
        let reader = {
            let (io, conn) = (Arc::clone(&io), Arc::clone(&conn));
            std::thread::spawn(move || {
                for _ in 0..total {
                    assert!(admit(
                        &io,
                        &conn,
                        b"{\"method\":\"health\"}".to_vec(),
                        false
                    ));
                }
            })
        };
        // The reader admits exactly MAX_PIPELINE lines, then parks.
        let mut jobs: Vec<Job> = (0..MAX_PIPELINE).map(|_| take(&io.queue)).collect();
        await_parked(&conn);
        assert_eq!(conn.state.lock().unwrap().admitted, MAX_PIPELINE as u64);
        assert!(io.queue.state.lock().unwrap().jobs.is_empty());
        // Answering the oldest request frees one slot, and so on.
        for seq in 0..3u64 {
            let done = jobs.remove(0);
            assert_eq!(done.seq, seq);
            conn.deliver(done.seq, format!("r{seq}"));
            assert_eq!(read_line(&mut client), format!("r{seq}\n"));
            let next = take(&io.queue);
            assert_eq!(next.seq, MAX_PIPELINE as u64 + seq);
            jobs.push(next);
        }
        reader.join().unwrap();
        assert_eq!(conn.state.lock().unwrap().admitted, total);
    }

    #[test]
    fn a_full_queue_answers_overloaded_in_the_line_slot() {
        let (conn, mut client) = pair();
        let mut ctx = ServerContext::new(1, 0);
        ctx.queue_capacity = 1;
        let io = Io::new(Arc::new(ctx), "127.0.0.1:1".parse().unwrap());
        assert!(admit(
            &io,
            &conn,
            b"{\"id\":0,\"method\":\"health\"}".to_vec(),
            false
        ));
        assert!(admit(
            &io,
            &conn,
            b"{\"id\":1,\"method\":\"health\"}".to_vec(),
            false
        ));
        assert_eq!(io.ctx.overloaded.load(Ordering::Relaxed), 1);
        // The refusal waits behind the queued request's answer.
        let queued = take(&io.queue);
        conn.deliver(queued.seq, "first".into());
        assert_eq!(read_line(&mut client), "first\n");
        let refused = read_line(&mut client);
        assert!(refused.starts_with(r#"{"id":null,"ok":false"#), "{refused}");
        assert!(refused.contains("overloaded"), "{refused}");
    }

    #[test]
    fn too_large_reply_takes_its_pipeline_slot() {
        let (conn, mut client) = pair();
        let mut ctx = ServerContext::new(1, 0);
        ctx.max_request_bytes = 50;
        let io = Arc::new(Io::new(Arc::new(ctx), "127.0.0.1:1".parse().unwrap()));
        client
            .get_mut()
            .write_all(format!("{{\"method\":\"health\"}}\n{}\n", "x".repeat(100)).as_bytes())
            .unwrap();
        let reader = {
            let (io, conn) = (Arc::clone(&io), Arc::clone(&conn));
            std::thread::spawn(move || read_loop(&io, &conn))
        };
        let health = take(&io.queue);
        assert_eq!(health.seq, 0);
        conn.deliver(0, "health".into());
        assert_eq!(read_line(&mut client), "health\n");
        let text = read_line(&mut client);
        assert!(text.contains("request_too_large"), "{text}");
        assert!(text.contains("exceeds 50 bytes"), "{text}");
        reader.join().unwrap();
        assert_eq!(read_line(&mut client), "", "then the server hangs up");
    }
}
