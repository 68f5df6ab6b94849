//! Spans recorded around the calls the benchmark makes into each layer.
//!
//! Every span carries the id of the client request that caused it (from
//! its `X-Request-Id` header, passed down the serving thread in a
//! thread-local), its start and end on one process-wide monotonic clock,
//! and the allocations its thread made in between. Spans go to a
//! per-thread buffer and are collected after the traced phase.

use crate::alloc::thread_allocs;
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Header carrying the client's request id.
pub const REQUEST_ID: &str = "X-Request-Id";

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The monitor server's handler around `CloudMonitor::call` (core).
    Handler,
    /// One `RemoteService::call` (httpkit client).
    Backend,
    /// One `RemoteService::call_batch` (httpkit client).
    Batch,
    /// The cloud server's handler around `PrivateCloud::call` (cloudsim).
    Cloud,
    /// One `AuditRecorder::record` into the durable log (audit).
    Audit,
    /// One `EventSink::emit` (obs).
    Emit,
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Boundary the span was recorded at.
    pub kind: Kind,
    /// The causing client request, 0 when none (the cloud's threads).
    pub req: u64,
    /// Start, in nanoseconds on [`now_ns`]'s clock.
    pub start: u64,
    /// End, in nanoseconds on [`now_ns`]'s clock.
    pub end: u64,
    /// Allocations made by the span's thread while it was open.
    pub allocs: u64,
    /// Backend requests the span carried (1, or the batch length).
    pub requests: u32,
    /// Of those, responses marked as transport faults.
    pub faults: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Option<Buffer>> = const { RefCell::new(None) };
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds since the first call in this process, on the monotonic
/// clock every thread shares.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The request id the calling thread is serving (0 outside a handler).
pub fn current() -> u64 {
    CURRENT.with(Cell::get)
}

/// The request id in `X-Request-Id`, 0 when absent or malformed.
pub fn request_id(headers: &[(String, String)]) -> u64 {
    headers
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case(REQUEST_ID))
        .and_then(|(_, value)| value.parse().ok())
        .unwrap_or(0)
}

fn record(span: Span) {
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let buffer = local.get_or_insert_with(|| {
            let buffer = Buffer::default();
            BUFFERS
                .lock()
                .expect("span registry lock is never poisoned")
                .push(Arc::clone(&buffer));
            buffer
        });
        buffer
            .lock()
            .expect("a span buffer lock is never poisoned")
            .push(span);
    });
}

/// Remove and return every span recorded so far, from all threads.
pub fn drain() -> Vec<Span> {
    let buffers = BUFFERS
        .lock()
        .expect("span registry lock is never poisoned")
        .clone();
    let mut spans = Vec::new();
    for buffer in buffers {
        spans.append(&mut buffer.lock().expect("a span buffer lock is never poisoned"));
    }
    spans
}

/// An open span; [`Open::close`] records it.
pub struct Open {
    kind: Kind,
    req: u64,
    start: u64,
    allocs: u64,
}

/// Open a span of `kind` for the request the calling thread serves.
pub fn open(kind: Kind) -> Open {
    Open {
        kind,
        req: current(),
        allocs: thread_allocs(),
        start: now_ns(),
    }
}

/// Open the handler span of request `req`, making it the calling
/// thread's current request until the span closes.
pub fn open_request(req: u64) -> Open {
    CURRENT.with(|c| c.set(req));
    Open {
        kind: Kind::Handler,
        req,
        allocs: thread_allocs(),
        start: now_ns(),
    }
}

impl Open {
    /// Close and record the span; `requests` and `faults` count the
    /// backend requests it carried.
    pub fn close(self, requests: u32, faults: u32) {
        let end = now_ns();
        let allocs = thread_allocs() - self.allocs;
        if self.kind == Kind::Handler {
            CURRENT.with(|c| c.set(0));
        }
        record(Span {
            kind: self.kind,
            req: self.req,
            start: self.start,
            end,
            allocs,
            requests,
            faults,
        });
    }
}
