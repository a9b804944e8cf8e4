//! The `kor serve` side: spawning and stopping the server, and the
//! open-loop load generator that drives it over TCP.
//!
//! The generator uses exactly two threads and two keep-alive
//! connections. Each thread owns one connection and is its own event
//! loop: it sends every request that is due, then reads responses with
//! a timeout that ends when the next request falls due. Reads
//! alternate between the connections; every `update_edges` batch goes
//! on connection 0 and is held back until the previous batch was
//! acknowledged, so the server applies batches in script order.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::workload::{Event, Op};

/// Connections (and generator threads) the load generator uses.
pub const CONNECTIONS: usize = 2;
/// Worker threads the server runs with.
pub const SERVER_THREADS: usize = 2;
/// How long after its last scheduled send a phase waits for answers
/// before counting the rest as timed out.
const GRACE: Duration = Duration::from_secs(3);

/// A running `kor serve` child; killed and reaped on drop.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Starts `kor serve` on an ephemeral port with `world` as its only
    /// dataset and returns once it announced its address.
    pub fn spawn(kor: &Path, world: &Path) -> Result<Server, String> {
        let mut cmd = Command::new(kor);
        cmd.arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(["--threads", &SERVER_THREADS.to_string()])
            .arg("--dataset")
            .arg(format!("w={}", world.display()));
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", kor.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line.split_whitespace().last().unwrap_or("").to_string(),
            _ => String::new(),
        };
        let server = Server {
            child,
            _stdout: stdout,
            addr,
        };
        if server.addr.is_empty() {
            return Err("kor serve exited before announcing its address".into());
        }
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One request on a fresh connection; returns the response line.
    pub fn call(&self, line: &str) -> Result<String, String> {
        let mut conn = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        conn.set_nodelay(true).ok();
        conn.set_read_timeout(Some(Duration::from_secs(60))).ok();
        conn.write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut reader = BufReader::new(conn);
        let mut resp = String::new();
        reader
            .read_line(&mut resp)
            .map_err(|e| format!("read: {e}"))?;
        if resp.is_empty() {
            return Err("connection closed without a response".into());
        }
        Ok(resp.trim_end().to_string())
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// Graceful stop; falls back to a kill after a few seconds.
    pub fn stop(mut self) {
        let _ = self.call(r#"{"id":"stop","method":"shutdown"}"#);
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills and reaps.
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The `result` of a `stats` request.
pub fn stats(server: &Server) -> Result<kor::json::JsonValue, String> {
    let line = server.call(r#"{"id":"stats","method":"stats"}"#)?;
    kor::json::JsonValue::parse(&line)
        .ok()
        .and_then(|v| v.get("result").cloned())
        .ok_or_else(|| format!("bad stats response: {line}"))
}

/// What happened to one scheduled request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub op: Op,
    /// Seconds after the phase start: when it was due, sent, answered.
    pub due: f64,
    pub sent: f64,
    pub answered: Option<f64>,
    pub response: String,
}

impl Sample {
    /// Latency from the scheduled send, in milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        self.answered.map(|a| (a - self.due) * 1e3)
    }

    /// Round trip from the actual send, in microseconds.
    pub fn rtt_us(&self) -> Option<f64> {
        self.answered.map(|a| (a - self.sent) * 1e6)
    }

    /// How late the generator sent, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        (self.sent - self.due).max(0.0) * 1e3
    }
}

/// Plays `events` against `addr` on [`CONNECTIONS`] connections, one
/// generator thread each. `line(op)` renders a request.
pub fn run_phase(
    addr: &str,
    events: &[Event],
    line: &(dyn Fn(Op) -> String + Sync),
) -> Result<Vec<Sample>, String> {
    let mut per_conn: Vec<Vec<(usize, Event)>> = vec![Vec::new(); CONNECTIONS];
    let mut reads = 0;
    for (i, e) in events.iter().enumerate() {
        let c = match e.op {
            Op::Update(_) => 0,
            Op::Read(_) => {
                reads += 1;
                (reads - 1) % CONNECTIONS
            }
        };
        per_conn[c].push((i, *e));
    }
    let rendered: Vec<Vec<String>> = per_conn
        .iter()
        .map(|evs| {
            evs.iter()
                .map(|(_, e)| format!("{}\n", line(e.op)))
                .collect()
        })
        .collect();
    let conns: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}")))
        .collect::<Result<_, _>>()?;
    let start = Instant::now();
    let results: Vec<Result<Vec<(usize, Sample)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(per_conn.iter().zip(&rendered))
            .map(|(conn, (evs, lines))| s.spawn(move || drive(conn, evs, lines, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut out: Vec<Option<Sample>> = vec![None; events.len()];
    for r in results {
        for (i, s) in r? {
            out[i] = Some(s);
        }
    }
    Ok(out
        .into_iter()
        .map(|s| s.expect("every event sampled"))
        .collect())
}

/// One connection's event loop.
fn drive(
    mut conn: TcpStream,
    events: &[(usize, Event)],
    lines: &[String],
    start: Instant,
) -> Result<Vec<(usize, Sample)>, String> {
    conn.set_nodelay(true).ok();
    conn.set_write_timeout(Some(Duration::from_secs(10))).ok();
    let mut samples: Vec<(usize, Sample)> = events
        .iter()
        .map(|&(i, e)| {
            (
                i,
                Sample {
                    op: e.op,
                    due: e.at,
                    sent: f64::NAN,
                    answered: None,
                    response: String::new(),
                },
            )
        })
        .collect();
    let reads: Vec<usize> = (0..events.len())
        .filter(|&k| matches!(events[k].1.op, Op::Read(_)))
        .collect();
    let updates: Vec<usize> = (0..events.len())
        .filter(|&k| matches!(events[k].1.op, Op::Update(_)))
        .collect();
    let (mut next_read, mut next_update) = (0, 0);
    let mut update_in_flight = false;
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let last_due = events.last().map_or(0.0, |(_, e)| e.at);
    loop {
        // Send whatever is due, oldest first.
        loop {
            let now = start.elapsed().as_secs_f64();
            let r = reads.get(next_read).copied();
            let u = if update_in_flight {
                None
            } else {
                updates.get(next_update).copied()
            };
            let k = match (r, u) {
                (Some(r), Some(u)) => r.min(u),
                (Some(r), None) => r,
                (None, Some(u)) => u,
                (None, None) => break,
            };
            if samples[k].1.due > now {
                break;
            }
            conn.write_all(lines[k].as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            samples[k].1.sent = start.elapsed().as_secs_f64();
            pending.push_back(k);
            if matches!(samples[k].1.op, Op::Update(_)) {
                update_in_flight = true;
                next_update += 1;
            } else {
                next_read += 1;
            }
        }
        let unsent = next_read < reads.len() || next_update < updates.len();
        if !unsent && pending.is_empty() {
            break;
        }
        let now = start.elapsed().as_secs_f64();
        if now > last_due + GRACE.as_secs_f64() {
            break; // what is still pending timed out
        }
        let next_due = [
            reads.get(next_read),
            (!update_in_flight)
                .then(|| updates.get(next_update))
                .flatten(),
        ]
        .into_iter()
        .flatten()
        .map(|&k| samples[k].1.due)
        .fold(f64::INFINITY, f64::min);
        let wait = (next_due - now).clamp(10e-6, 0.05);
        if !readable_within(&conn, Duration::from_secs_f64(wait))? {
            continue;
        }
        match conn.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let at = start.elapsed().as_secs_f64();
                buf.extend_from_slice(&chunk[..n]);
                let mut consumed = 0;
                while let Some(pos) = buf[consumed..].iter().position(|&b| b == b'\n') {
                    let text = String::from_utf8_lossy(&buf[consumed..consumed + pos]).into_owned();
                    consumed += pos + 1;
                    let Some(k) = pending.pop_front() else {
                        return Err(format!("unsolicited response: {text}"));
                    };
                    if matches!(samples[k].1.op, Op::Update(_)) {
                        update_in_flight = false;
                    }
                    samples[k].1.answered = Some(at);
                    samples[k].1.response = text;
                }
                buf.drain(..consumed);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
    }
    Ok(samples)
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits until `conn` has bytes to read or `wait` passes. A socket read
/// timeout would do the same, but the kernel rounds it to scheduler
/// ticks (milliseconds); `ppoll` sleeps on a high-resolution timer, so
/// the generator sends on schedule.
fn readable_within(conn: &TcpStream, wait: Duration) -> Result<bool, String> {
    let mut fd = PollFd {
        fd: conn.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: wait.as_secs() as i64,
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fd` and `timeout` are live, properly initialised
    // `#[repr(C)]` values matching `struct pollfd` and `struct timespec`
    // on 64-bit Linux; `nfds` is 1 for the single entry, and a null
    // sigmask leaves the signal mask unchanged.
    let n = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    if n < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() == ErrorKind::Interrupted {
            return Ok(false);
        }
        return Err(format!("ppoll: {err}"));
    }
    Ok(n > 0)
}
