//! Load generation over loopback TCP, one thread per connection.
//!
//! * [`open_loop`] sends every request at its scheduled time, whatever
//!   the server does, and times each answer from that scheduled time.
//!   The thread sends everything due in one write, reads whatever has
//!   arrived, and sleeps in `ppoll` until the next request is due or a
//!   response arrives.
//! * [`flood`] is closed loop: it keeps `window` requests in flight until
//!   the deadline, then drains.
//!
//! Both check every answer against the schedule.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use clamd::proto::{self, Request, RespBody, Response};

use crate::workload::{Kind, Planned};

/// A connection that makes no progress for this long has failed.
const STALL_LIMIT: Duration = Duration::from_secs(10);

/// What one connection (or a merge of several) observed.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests scheduled (flood: sent).
    pub attempted: u64,
    /// Requests answered with a non-error frame.
    pub completed: u64,
    pub inserts: u64,
    pub lookups: u64,
    pub hits: u64,
    pub misses: u64,
    pub deletes: u64,
    /// `ERROR` frames, dropped connections and timeouts.
    pub failed: u64,
    /// Answers that contradict the schedule.
    pub wrong: u64,
    /// The first wrong answer, for the error message.
    pub first_wrong: Option<String>,
}

impl Tally {
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.inserts += other.inserts;
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.misses += other.misses;
        self.deletes += other.deletes;
        self.failed += other.failed;
        self.wrong += other.wrong;
        if self.first_wrong.is_none() {
            self.first_wrong.clone_from(&other.first_wrong);
        }
    }

    /// Checks one answer against its planned request and counts it.
    pub fn check(&mut self, planned: &Planned, body: &RespBody) {
        let ok = match (planned.kind, body) {
            (_, RespBody::Error { .. }) => {
                self.failed += 1;
                return;
            }
            (Kind::Insert, RespBody::Inserted) => {
                self.inserts += 1;
                true
            }
            (Kind::Delete, RespBody::Deleted) => {
                self.deletes += 1;
                true
            }
            (Kind::Lookup, RespBody::Value { found, value }) => {
                self.lookups += 1;
                if *found {
                    self.hits += 1;
                } else {
                    self.misses += 1;
                }
                *found == planned.hit && (!*found || *value == planned.value())
            }
            _ => false,
        };
        self.completed += 1;
        if !ok {
            self.wrong += 1;
            if self.first_wrong.is_none() {
                self.first_wrong = Some(format!("{planned:?} answered {body:?}"));
            }
        }
    }
}

/// One connection's open-loop result. Times are nanoseconds after the
/// level's start; `u64::MAX` marks a request never answered.
pub struct OpenLoopConn {
    pub tally: Tally,
    pub sent_ns: Vec<u64>,
    pub done_ns: Vec<u64>,
}

/// Runs `plan` open loop over `stream`: request `i` is due `due_ns -
/// base_ns` after `start` and carries id `i + 1`; clamd answers each
/// connection in order.
pub fn open_loop(
    stream: &mut TcpStream,
    plan: &[Planned],
    base_ns: u64,
    start: Instant,
) -> OpenLoopConn {
    let mut out = OpenLoopConn {
        tally: Tally { attempted: plan.len() as u64, ..Tally::default() },
        sent_ns: vec![u64::MAX; plan.len()],
        done_ns: vec![u64::MAX; plan.len()],
    };
    if stream.set_nonblocking(true).is_err() {
        out.tally.failed = plan.len() as u64;
        return out;
    }
    tighten_timer_slack();
    sleep_until(start);
    let now_ns = || start.elapsed().as_nanos() as u64;
    let mut wbuf: Vec<u8> = Vec::with_capacity(64 << 10);
    let mut written = 0usize;
    let mut rbuf: Vec<u8> = Vec::with_capacity(256 << 10);
    let mut next_send = 0usize;
    let mut next_recv = 0usize;
    let mut last_progress = Instant::now();
    while next_recv < plan.len() {
        let now = now_ns();
        while next_send < plan.len() && plan[next_send].due_ns - base_ns <= now {
            let request = Request { id: next_send as u64 + 1, op: plan[next_send].op() };
            proto::encode_request(&request, &mut wbuf);
            out.sent_ns[next_send] = now;
            next_send += 1;
        }
        if written < wbuf.len() {
            match stream.write(&wbuf[written..]) {
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => break,
            }
            if written == wbuf.len() {
                wbuf.clear();
                written = 0;
            }
        }
        match read_available(stream, &mut rbuf) {
            Ok(0) => {}
            Ok(_) => {
                let done = now_ns();
                match drain_responses(&mut rbuf, |resp| {
                    let i = next_recv;
                    if i >= next_send || resp.id != i as u64 + 1 {
                        return false;
                    }
                    out.tally.check(&plan[i], &resp.body);
                    out.done_ns[i] = done;
                    next_recv += 1;
                    true
                }) {
                    Ok(true) => last_progress = Instant::now(),
                    Ok(false) => {}
                    Err(()) => break,
                }
            }
            Err(()) => break,
        }
        if next_recv == next_send {
            last_progress = Instant::now();
        } else if last_progress.elapsed() > STALL_LIMIT {
            break;
        }
        let wait_ns = if next_send < plan.len() {
            (plan[next_send].due_ns - base_ns).saturating_sub(now_ns())
        } else {
            10_000_000
        };
        if wait_ns > 0 {
            wait_io(stream, written < wbuf.len(), wait_ns);
        }
    }
    out.tally.failed += (plan.len() - next_recv) as u64;
    out
}

/// One connection's closed-loop result.
pub struct FloodConn {
    pub tally: Tally,
    /// Nanoseconds after start of the last answer.
    pub end_ns: u64,
    /// Per-request (sent, answered) times when traced.
    pub spans: Vec<(u64, u64)>,
}

/// Runs `plan` closed loop with `window` requests in flight until
/// `deadline` (or the plan runs out), then drains what is in flight.
pub fn flood(
    stream: &mut TcpStream,
    plan: &[Planned],
    window: usize,
    start: Instant,
    deadline: Instant,
    traced: bool,
) -> FloodConn {
    let mut out = FloodConn { tally: Tally::default(), end_ns: 0, spans: Vec::new() };
    if stream.set_nonblocking(false).is_err() {
        out.tally.attempted = 1;
        out.tally.failed = 1;
        return out;
    }
    sleep_until(start);
    let mut sent_ns: Vec<u64> = Vec::new();
    let mut wbuf: Vec<u8> = Vec::with_capacity(64 << 10);
    let mut rbuf: Vec<u8> = Vec::with_capacity(256 << 10);
    let (mut next_send, mut next_recv) = (0usize, 0usize);
    loop {
        if Instant::now() < deadline {
            while next_send < plan.len() && next_send - next_recv < window {
                let request = Request { id: next_send as u64 + 1, op: plan[next_send].op() };
                proto::encode_request(&request, &mut wbuf);
                if traced {
                    sent_ns.push(start.elapsed().as_nanos() as u64);
                }
                next_send += 1;
            }
            if !wbuf.is_empty() {
                if stream.write_all(&wbuf).is_err() {
                    break;
                }
                wbuf.clear();
            }
        }
        if next_recv == next_send {
            break;
        }
        match read_into(stream, &mut rbuf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let done = start.elapsed().as_nanos() as u64;
        let drained = drain_responses(&mut rbuf, |resp| {
            let i = next_recv;
            if i >= next_send || resp.id != i as u64 + 1 {
                return false;
            }
            out.tally.check(&plan[i], &resp.body);
            if traced {
                out.spans.push((sent_ns[i], done));
            }
            next_recv += 1;
            true
        });
        if drained.is_err() {
            break;
        }
        out.end_ns = done;
    }
    out.tally.attempted = next_send as u64;
    out.tally.failed += (next_send - next_recv) as u64;
    out
}

/// Opens a blocking connection with Nagle off and the stall limit as
/// its read timeout.
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(STALL_LIMIT))?;
    Ok(stream)
}

pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Bytes read per `read` call.
const READ_CHUNK: usize = 64 << 10;

/// Appends one `read` worth of bytes from `stream` to `buf`.
fn read_into(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<usize> {
    let mut chunk = [0u8; READ_CHUNK];
    let n = stream.read(&mut chunk)?;
    buf.extend_from_slice(&chunk[..n]);
    Ok(n)
}

/// Reads whatever a non-blocking stream has. `Ok(0)` when nothing was
/// ready, `Err` when the connection closed or broke.
fn read_available(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Result<usize, ()> {
    let mut total = 0;
    loop {
        match read_into(stream, buf) {
            Ok(0) => return Err(()),
            Ok(n) => total += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(total),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
}

/// Decodes every complete response in `buf`, handing each to `on`, and
/// drops the consumed bytes. `Ok(true)` when at least one response was
/// decoded; `Err` on a malformed frame or when `on` rejects a response
/// (out of order or unexpected).
fn drain_responses(buf: &mut Vec<u8>, mut on: impl FnMut(Response) -> bool) -> Result<bool, ()> {
    let mut at = 0;
    loop {
        match proto::decode_response(&buf[at..]) {
            Ok(Some((resp, used))) => {
                if !on(resp) {
                    return Err(());
                }
                at += used;
            }
            Ok(None) => break,
            Err(_) => return Err(()),
        }
    }
    buf.drain(..at);
    Ok(at > 0)
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
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Sleeps until `stream` is readable (or writable, when `want_write`)
/// or `wait_ns` has passed.
fn wait_io(stream: &TcpStream, want_write: bool, wait_ns: u64) {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: (wait_ns / 1_000_000_000) as i64,
        tv_nsec: (wait_ns % 1_000_000_000) as i64,
    };
    // SAFETY: `fd` and `timeout` are valid for the duration of the call,
    // `nfds` is 1 and a null signal mask is allowed. The return value only
    // tells why the wait ended; the caller re-checks the socket either way.
    unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
}

/// Makes this thread's timed sleeps wake within a microsecond of their
/// deadline instead of the kernel's default 50 µs slack.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
    // changes the calling thread's timer slack.
    unsafe { prctl(PR_SET_TIMERSLACK, 1000u64) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use clamd::proto::ErrorCode;

    fn lookup(id: u64, hit: bool) -> Planned {
        Planned { kind: Kind::Lookup, id, hit, due_ns: 0 }
    }

    #[test]
    fn check_counts_right_answers_and_flags_wrong_ones() {
        let mut t = Tally::default();
        let hit = lookup(7, true);
        t.check(&hit, &RespBody::Value { found: true, value: hit.value() });
        t.check(&lookup(8, false), &RespBody::Value { found: false, value: 0 });
        assert_eq!((t.completed, t.hits, t.misses, t.wrong), (2, 1, 1, 0));

        // A hit with the wrong value, a miss that was found, a hit that
        // missed and a mismatched frame are all wrong answers.
        t.check(&hit, &RespBody::Value { found: true, value: hit.value() ^ 1 });
        t.check(&lookup(8, false), &RespBody::Value { found: true, value: 1 });
        t.check(&hit, &RespBody::Value { found: false, value: 0 });
        t.check(&hit, &RespBody::Inserted);
        assert_eq!(t.wrong, 4);
        assert!(t.first_wrong.is_some());

        // An ERROR frame is a failure, not a wrong answer.
        let error = RespBody::Error { code: ErrorCode::Internal, message: "x".into() };
        t.check(&hit, &error);
        assert_eq!((t.failed, t.wrong, t.completed), (1, 4, 6));
    }
}
