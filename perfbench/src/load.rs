//! The load generator: one thread per client connection, each running a
//! non-blocking keep-alive socket with HTTP/1.1 pipelining.
//!
//! The monitor server closes a connection after `max_requests_per_conn`
//! requests, so a client connection is a succession of TCP connections
//! carrying exactly that many requests each. A thread drains one before
//! opening the next, which keeps each project's requests in order. Opens
//! strictly alternate between the threads, so the reactor's round-robin
//! acceptor always spreads the live connections over distinct shards.

use crate::stats;
use crate::sys;
use crate::trace::now_ns;
use crate::workload::{Cursor, Stream, Tokens};
use cm_httpkit::{serialize_request, ConnectionMode};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// How long a phase may wait for answers after its last send before the
/// outstanding requests count as failed.
const ANSWER_GRACE_NS: u64 = 30_000_000_000;

/// How requests are released.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Request `i` (over all connections) is due at `start + i /
    /// rate`; connection `t` sends the `i` with `i % conns == t`.
    Open {
        /// Schedule origin, on [`now_ns`]'s clock.
        start_ns: u64,
        /// Offered rate, requests per second.
        rate: f64,
        /// Requests in the schedule.
        total: u64,
    },
    /// Keep `window` requests outstanding per connection until
    /// `deadline_ns`, or until the connection sent `limit` requests.
    Closed {
        /// Outstanding requests per connection.
        window: usize,
        /// When sending stops, on [`now_ns`]'s clock.
        deadline_ns: u64,
        /// Requests per connection after which sending stops.
        limit: u64,
    },
}

/// What one phase measured, over all connections.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Requests sent (or due and never sent, in an open loop).
    pub attempted: u64,
    /// Responses with the expected status.
    pub ok: u64,
    /// Transport failures plus responses with another status.
    pub failed: u64,
    /// Closed loop: expected responses that arrived before the deadline.
    pub ok_in_window: u64,
    /// Open loop: `(due time ns, latency from the due time µs)`, failures
    /// infinite.
    pub latency: Vec<(u64, f64)>,
    /// Open loop: how late each request was sent, µs.
    pub late_us: Vec<f64>,
    /// `(request id, sent, answered)` in ns, when samples were asked for.
    pub samples: Vec<(u64, u64, u64)>,
    /// One line per wrong status or transport failure.
    pub mismatches: Vec<String>,
}

impl PhaseOut {
    fn merge(&mut self, other: PhaseOut) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.ok_in_window += other.ok_in_window;
        self.latency.extend(other.latency);
        self.late_us.extend(other.late_us);
        self.samples.extend(other.samples);
        self.mismatches.extend(other.mismatches);
    }
}

/// Hands out connection opens in strict rotation between threads.
struct ConnectOrder {
    next: Mutex<u64>,
    turn: Condvar,
    conns: u64,
}

/// Outcome of waiting for a turn to connect.
enum Turn {
    Opened(TcpStream),
    /// The give-up time passed before the turn came.
    GaveUp,
    Failed(std::io::Error),
}

impl ConnectOrder {
    /// Open thread `t`'s `k`-th connection once every earlier open in the
    /// rotation happened, unless `give_up_ns` passes first.
    fn connect(&self, t: usize, k: u64, addr: SocketAddr, give_up_ns: u64) -> Turn {
        let ticket = k * self.conns + t as u64;
        let mut next = self
            .next
            .lock()
            .expect("connect order lock is never poisoned");
        while *next < ticket {
            let now = now_ns();
            if now >= give_up_ns {
                return Turn::GaveUp;
            }
            let wait = Duration::from_nanos((give_up_ns - now).min(10_000_000));
            next = self
                .turn
                .wait_timeout(next, wait)
                .expect("connect order lock is never poisoned")
                .0;
        }
        let opened = TcpStream::connect(addr);
        *next = (*next).max(ticket + 1);
        self.turn.notify_all();
        match opened {
            Ok(stream) => Turn::Opened(stream),
            Err(e) => Turn::Failed(e),
        }
    }
}

/// Run one phase: every stream on its own connection thread.
/// `per_conn` is the server's requests-per-connection limit.
pub fn run(
    addr: SocketAddr,
    streams: &mut [Stream],
    tokens: &Tokens,
    pace: Pace,
    per_conn: usize,
    samples: bool,
    next_ids: &mut [u64],
) -> PhaseOut {
    let conns = streams.len();
    let order = ConnectOrder {
        next: Mutex::new(0),
        turn: Condvar::new(),
        conns: conns as u64,
    };
    let outs: Vec<PhaseOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .zip(next_ids.iter_mut())
            .enumerate()
            .map(|(t, (stream, next_id))| {
                let order = &order;
                scope.spawn(move || {
                    let mut client = Client {
                        t,
                        conns,
                        addr,
                        stream,
                        tokens,
                        pace,
                        per_conn,
                        samples,
                        next_id,
                        sent: 0,
                        out: PhaseOut::default(),
                    };
                    client.run(order);
                    client.out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load generator thread panicked"))
            .collect()
    });
    let mut total = PhaseOut::default();
    for out in outs {
        total.merge(out);
    }
    total
}

/// A request on the wire, awaiting its response.
struct Pending {
    id: u64,
    expected: u16,
    due_ns: u64,
    sent_ns: u64,
    cursor: Cursor,
}

struct Client<'a> {
    t: usize,
    conns: usize,
    addr: SocketAddr,
    stream: &'a mut Stream,
    tokens: &'a Tokens,
    pace: Pace,
    per_conn: usize,
    samples: bool,
    next_id: &'a mut u64,
    /// Requests this thread sent in the phase.
    sent: u64,
    out: PhaseOut,
}

impl Client<'_> {
    fn run(&mut self, order: &ConnectOrder) {
        // Open loop: index of this thread's next request in the schedule.
        let mut next_i = self.t as u64;
        let mut opened = 0u64;
        loop {
            let now = now_ns();
            let give_up = match self.pace {
                Pace::Open {
                    start_ns,
                    rate,
                    total,
                } => {
                    if next_i >= total {
                        return;
                    }
                    due_ns(start_ns, rate, total) + ANSWER_GRACE_NS
                }
                Pace::Closed {
                    deadline_ns, limit, ..
                } => {
                    if now >= deadline_ns || self.sent >= limit {
                        return;
                    }
                    deadline_ns
                }
            };
            let socket = match order.connect(self.t, opened, self.addr, give_up) {
                Turn::Opened(socket) => socket,
                // A closed loop whose deadline passed is simply over.
                Turn::GaveUp if matches!(self.pace, Pace::Closed { .. }) => return,
                Turn::GaveUp => {
                    self.fail_unsent(&mut next_i, "no turn to reconnect within the grace period");
                    return;
                }
                Turn::Failed(e) => {
                    self.fail_unsent(&mut next_i, &format!("connect to the monitor: {e}"));
                    return;
                }
            };
            opened += 1;
            if !self.serve_connection(socket, &mut next_i) {
                self.fail_unsent(&mut next_i, "the monitor connection failed");
                return;
            }
        }
    }

    /// Count every request the open-loop schedule still holds for this
    /// thread (a closed loop: the one it could not send) as attempted
    /// and failed.
    fn fail_unsent(&mut self, next_i: &mut u64, why: &str) {
        match self.pace {
            Pace::Open {
                start_ns,
                rate,
                total,
            } => {
                while *next_i < total {
                    self.out.attempted += 1;
                    self.out.failed += 1;
                    self.out
                        .latency
                        .push((due_ns(start_ns, rate, *next_i), f64::INFINITY));
                    *next_i += self.conns as u64;
                }
            }
            Pace::Closed { .. } => {
                self.out.attempted += 1;
                self.out.failed += 1;
            }
        }
        self.out.mismatches.push(why.to_string());
    }

    /// Send up to `per_conn` requests on `socket` and collect their
    /// responses. Returns `false` on a transport failure.
    fn serve_connection(&mut self, mut socket: TcpStream, next_i: &mut u64) -> bool {
        socket
            .set_nonblocking(true)
            .expect("loopback sockets accept non-blocking mode");
        socket
            .set_nodelay(true)
            .expect("loopback sockets accept TCP_NODELAY");
        let fd = socket.as_raw_fd();
        let mut sent_here = 0usize;
        let mut pending: VecDeque<Pending> = VecDeque::new();
        let mut wire: Vec<u8> = Vec::with_capacity(64 * 1024);
        let mut written = 0usize;
        let mut inbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
        let mut chunk = vec![0u8; 64 * 1024];
        loop {
            let now = now_ns();
            // Release requests.
            let mut next_due = None;
            match self.pace {
                Pace::Open {
                    start_ns,
                    rate,
                    total,
                } => {
                    while sent_here < self.per_conn && *next_i < total {
                        let due = due_ns(start_ns, rate, *next_i);
                        if due > now {
                            next_due = Some(due);
                            break;
                        }
                        self.push(&mut wire, &mut pending, due, now);
                        sent_here += 1;
                        *next_i += self.conns as u64;
                    }
                }
                Pace::Closed {
                    window,
                    deadline_ns,
                    limit,
                } => {
                    while sent_here < self.per_conn
                        && pending.len() < window
                        && now < deadline_ns
                        && self.sent < limit
                    {
                        self.push(&mut wire, &mut pending, now, now);
                        sent_here += 1;
                    }
                }
            }
            // Write what the socket takes.
            while written < wire.len() {
                match socket.write(&wire[written..]) {
                    Ok(0) => {
                        return self.fail_pending(&mut pending, "monitor closed the write side")
                    }
                    Ok(n) => written += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return self.fail_pending(&mut pending, &format!("write: {e}")),
                }
            }
            if written == wire.len() {
                wire.clear();
                written = 0;
            }
            let sending_done = sent_here == self.per_conn
                || match self.pace {
                    Pace::Open { total, .. } => *next_i >= total,
                    Pace::Closed {
                        deadline_ns, limit, ..
                    } => now >= deadline_ns || self.sent >= limit,
                };
            if sending_done && pending.is_empty() {
                return true;
            }
            let timeout = match (next_due, self.pace) {
                (Some(due), _) => Duration::from_nanos(due.saturating_sub(now_ns())),
                // A full window waits for an answer, but wakes at the
                // deadline to stop sending.
                (None, Pace::Closed { deadline_ns, .. }) if !sending_done => {
                    Duration::from_nanos(deadline_ns.saturating_sub(now_ns()))
                }
                _ => Duration::from_millis(100),
            };
            let readable = match sys::wait(fd, !wire.is_empty(), timeout) {
                Ok(ready) => ready,
                Err(e) => return self.fail_pending(&mut pending, &format!("poll: {e}")),
            };
            if !readable {
                if sending_done && !pending.is_empty() {
                    let oldest = pending.front().map_or(0, |p| p.sent_ns);
                    if now_ns().saturating_sub(oldest) > ANSWER_GRACE_NS {
                        return self
                            .fail_pending(&mut pending, "no answer within the grace period");
                    }
                }
                continue;
            }
            // Read everything available, then parse complete responses.
            loop {
                match socket.read(&mut chunk) {
                    Ok(0) => {
                        self.take_responses(&mut inbuf, &mut pending);
                        if pending.is_empty() && sending_done {
                            return true;
                        }
                        return self.fail_pending(&mut pending, "monitor closed the connection");
                    }
                    Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return self.fail_pending(&mut pending, &format!("read: {e}")),
                }
            }
            if !self.take_responses(&mut inbuf, &mut pending) {
                return self.fail_pending(&mut pending, "malformed or unrequested response");
            }
        }
    }

    /// Render the stream's next request into `wire`.
    fn push(&mut self, wire: &mut Vec<u8>, pending: &mut VecDeque<Pending>, due: u64, now: u64) {
        let cursor = self.stream.next();
        let (op, cycle, step) = self.stream.at(cursor);
        *self.next_id += 1;
        self.sent += 1;
        let id = *self.next_id;
        serialize_request(
            wire,
            &op.request(cycle, step, self.tokens, id),
            ConnectionMode::KeepAlive,
        );
        pending.push_back(Pending {
            id,
            expected: op.expected,
            due_ns: due,
            sent_ns: now,
            cursor,
        });
    }

    /// Match complete responses in `inbuf` to pending requests, in order.
    /// Returns `false` on a malformed or unrequested response.
    fn take_responses(&mut self, inbuf: &mut Vec<u8>, pending: &mut VecDeque<Pending>) -> bool {
        let done = now_ns();
        let mut consumed = 0;
        let mut ok = true;
        while consumed < inbuf.len() {
            match parse_response(&inbuf[consumed..]) {
                Ok(Some((status, len))) => {
                    consumed += len;
                    let Some(p) = pending.pop_front() else {
                        ok = false;
                        break;
                    };
                    self.settle(p, Some((status, done)));
                }
                Ok(None) => break,
                Err(()) => {
                    ok = false;
                    break;
                }
            }
        }
        inbuf.drain(..consumed);
        ok
    }

    fn fail_pending(&mut self, pending: &mut VecDeque<Pending>, why: &str) -> bool {
        self.out.mismatches.push(why.to_string());
        while let Some(p) = pending.pop_front() {
            self.settle(p, None);
        }
        false
    }

    /// Account one request: answered with `status` at `done`, or failed.
    fn settle(&mut self, p: Pending, answer: Option<(u16, u64)>) {
        self.out.attempted += 1;
        let good = matches!(answer, Some((status, _)) if status == p.expected);
        if good {
            self.out.ok += 1;
        } else {
            self.out.failed += 1;
            let (op, cycle, step) = self.stream.at(p.cursor);
            let request = op.describe(cycle, step);
            self.out.mismatches.push(match answer {
                Some((status, _)) => format!(
                    "{request} answered {status}, the reference answered {}",
                    p.expected
                ),
                None => format!("{request} got no answer"),
            });
        }
        let done = answer.map(|(_, done)| done);
        match self.pace {
            Pace::Open { .. } => {
                let latency = if good {
                    stats::latency_from_due_us(p.due_ns, done)
                } else {
                    f64::INFINITY
                };
                self.out.latency.push((p.due_ns, latency));
                self.out.late_us.push((p.sent_ns - p.due_ns) as f64 / 1e3);
            }
            Pace::Closed { deadline_ns, .. } => {
                if good && done.is_some_and(|d| d <= deadline_ns) {
                    self.out.ok_in_window += 1;
                }
            }
        }
        if self.samples {
            if let Some(done) = done {
                self.out.samples.push((p.id, p.sent_ns, done));
            }
        }
    }
}

/// Due time of schedule index `i`.
fn due_ns(start_ns: u64, rate: f64, i: u64) -> u64 {
    start_ns + (i as f64 * 1e9 / rate) as u64
}

/// `(status, length)` of the complete response at the front of `buf`,
/// `None` while incomplete.
fn parse_response(buf: &[u8]) -> Result<Option<(u16, usize)>, ()> {
    let Some(head_len) = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4) else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_len]).map_err(|_| ())?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or(())?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(())?;
    let mut body_len = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                body_len = value.trim().parse().map_err(|_| ())?;
            }
        }
    }
    let total = head_len + body_len;
    Ok((buf.len() >= total).then_some((status, total)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses() {
        let two = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n";
        let (status, len) = parse_response(two).unwrap().unwrap();
        assert_eq!((status, len), (200, 40));
        assert_eq!(
            parse_response(&two[len..]).unwrap(),
            Some((404, two.len() - len))
        );
        assert_eq!(parse_response(&two[..30]).unwrap(), None);
        assert_eq!(parse_response(&two[..39]).unwrap(), None);
        assert!(parse_response(b"garbage\r\n\r\n").is_err());
    }

    #[test]
    fn schedule_is_evenly_spaced() {
        assert_eq!(due_ns(1_000, 1000.0, 0), 1_000);
        assert_eq!(due_ns(1_000, 1000.0, 3), 3_001_000);
    }
}
