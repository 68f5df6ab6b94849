//! The traced run and the per-layer ledger it yields.
//!
//! Per-request figures join a client request to its spans by request id:
//! the monitor handler span (`core`), the backend calls and batches made
//! inside it (`httpkit` client), and its audit record and event emit
//! (`audit`, `obs`). The cloud's spans run on the cloud server's threads
//! and join to no request, so `cloudsim.call_us` is per call, and
//! `httpkit.backend_self_us` is a mean from run totals.

use crate::stats::{self, percentile, sorted};
use crate::trace::{self, Kind, Span};
use crate::{metric, Metric, Run, OPEN_SHARE};
use std::collections::HashMap;

/// Per-request layer times, ns.
#[derive(Debug, Default, Clone, Copy)]
struct Joined {
    client: u64,
    handler: u64,
    core_self: u64,
    backend: u64,
    audit: u64,
    emit: u64,
    core_allocs: u64,
}

/// The traced run: an untraced closed loop to price tracing, then a
/// traced open loop (the ledger) and a traced closed loop of the same
/// length as the untraced one.
pub fn measure(run: &mut Run) -> Vec<Metric> {
    let closed_s = run.seconds * (1.0 - OPEN_SHARE) / 2.0;

    let (untraced, _) = run.stand_up(false);
    let mut streams = run.streams();
    run.warm_up(&untraced, &mut streams);
    let untraced_rps = run.closed_loop(&untraced, &mut streams, closed_s).rps;
    run.settle_audit(&untraced);
    untraced.tear_down();

    let (traced, _) = run.stand_up(true);
    let mut streams = run.streams();
    run.warm_up(&traced, &mut streams);
    drop(trace::drain());
    let identity_before = identity(&traced);
    let pool_before = (
        traced.client.connections_opened(),
        traced.client.connections_reused(),
    );
    let open = run.open_loop(&traced, &mut streams, run.seconds * OPEN_SHARE, true);
    let spans = trace::drain();
    let identity_after = identity(&traced);
    let pool_after = (
        traced.client.connections_opened(),
        traced.client.connections_reused(),
    );
    let traced_rps = run.closed_loop(&traced, &mut streams, closed_s).rps;
    drop(trace::drain());
    let audit = run.settle_audit(&traced);
    traced.tear_down();

    let late = sorted(open.late_us);
    let ledger = Ledger::build(&spans, &open.samples);
    println!(
        "ledger          : {} of {} answered requests joined to a handler span",
        ledger.joined.len(),
        open.samples.len()
    );
    let unbalanced = ledger.unbalanced();
    if unbalanced > 0 {
        run.failed += unbalanced;
        run.report(format!(
            "{unbalanced} requests whose layer times do not sum to their client latency"
        ));
    }
    if ledger.joined.len() as u64 != open.samples.len() as u64 {
        run.report(format!(
            "{} answered requests have no handler span",
            open.samples.len() - ledger.joined.len()
        ));
    }
    println!("overhead        : traced {traced_rps:.1} req/s vs untraced {untraced_rps:.1} req/s");

    let (hits, misses) = (
        identity_after.0 - identity_before.0,
        identity_after.1 - identity_before.1,
    );
    let (opened, reused) = (pool_after.0 - pool_before.0, pool_after.1 - pool_before.1);
    let (flush_ms, dropped, committed_share) = match audit {
        Some((flush, appended, committed, dropped)) => (
            flush.as_secs_f64() * 1e3,
            dropped as f64,
            if appended == 0 {
                1.0
            } else {
                committed as f64 / appended as f64
            },
        ),
        // No audit log on this workload: nothing to flush, drop or lose.
        None => (0.0, 0.0, 1.0),
    };
    let l = &ledger;
    let handler = l.times(|j| j.handler);
    let core_self = l.times(|j| j.core_self);
    let front = l.times(|j| j.client - j.handler);
    let backend = l.times(|j| j.backend);
    let audit_times = sorted(
        l.joined
            .iter()
            .filter(|j| j.audit > 0)
            .map(|j| j.audit as f64 / 1e3)
            .collect(),
    );
    let emit = l.times(|j| j.emit);
    let cloud_calls = sorted(l.cloud.iter().map(|s| s.ns() as f64 / 1e3).collect());
    let backend_total: u64 = l.backend_spans.iter().map(Span::ns).sum();
    let cloud_total: u64 = l.cloud.iter().map(Span::ns).sum();
    vec![
        metric("core.handler_us.p50", percentile(&handler, 50.0), "us"),
        metric("core.handler_us.p99", percentile(&handler, 99.0), "us"),
        metric("core.self_us.p50", percentile(&core_self, 50.0), "us"),
        metric("core.self_us.p99", percentile(&core_self, 99.0), "us"),
        metric(
            "core.allocs_per_req",
            l.per_req(l.joined.iter().map(|j| j.core_allocs).sum::<u64>() as f64),
            "allocs/req",
        ),
        metric(
            "core.identity_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        ),
        metric("httpkit.front_us.p50", percentile(&front, 50.0), "us"),
        metric("httpkit.front_us.p99", percentile(&front, 99.0), "us"),
        metric("httpkit.backend_us.p50", percentile(&backend, 50.0), "us"),
        metric("httpkit.backend_us.p99", percentile(&backend, 99.0), "us"),
        metric(
            "httpkit.backend_requests_per_req",
            l.per_req(l.backend_spans.iter().map(|s| f64::from(s.requests)).sum()),
            "1/req",
        ),
        metric(
            "httpkit.backend_batches_per_req",
            l.per_req(
                l.backend_spans
                    .iter()
                    .filter(|s| s.kind == Kind::Batch)
                    .count() as f64,
            ),
            "1/req",
        ),
        metric(
            "httpkit.backend_self_us",
            l.per_req(backend_total.saturating_sub(cloud_total) as f64 / 1e3),
            "us",
        ),
        metric(
            "httpkit.conn_reuse_ratio",
            ratio(reused as f64, (opened + reused) as f64),
            "ratio",
        ),
        metric(
            "httpkit.backend_faults",
            l.backend_spans.iter().map(|s| f64::from(s.faults)).sum(),
            "count",
        ),
        metric("cloudsim.call_us.p50", percentile(&cloud_calls, 50.0), "us"),
        metric("cloudsim.call_us.p99", percentile(&cloud_calls, 99.0), "us"),
        metric(
            "cloudsim.calls_per_req",
            l.per_req(l.cloud.len() as f64),
            "1/req",
        ),
        metric(
            "cloudsim.allocs_per_req",
            l.per_req(l.cloud.iter().map(|s| s.allocs).sum::<u64>() as f64),
            "allocs/req",
        ),
        metric("audit.record_us.p50", percentile(&audit_times, 50.0), "us"),
        metric("audit.record_us.p99", percentile(&audit_times, 99.0), "us"),
        metric(
            "audit.records_per_req",
            l.per_req(l.audit_records as f64),
            "1/req",
        ),
        metric("audit.flush_ms", flush_ms, "ms"),
        metric("audit.dropped", dropped, "count"),
        metric("audit.committed_share", committed_share, "ratio"),
        metric("obs.emit_us.p50", percentile(&emit, 50.0), "us"),
        metric("loadgen.late_us.p99", percentile(&late, 99.0), "us"),
        metric("trace.overhead", ratio(traced_rps, untraced_rps), "ratio"),
    ]
}

fn identity(topology: &crate::topo::Topology) -> (u64, u64) {
    let family = &topology.metrics.identity;
    (family.get("hit"), family.get("miss"))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The spans of one traced phase, joined to its client samples.
struct Ledger {
    joined: Vec<Joined>,
    /// Backend calls and batches made inside a handler.
    backend_spans: Vec<Span>,
    cloud: Vec<Span>,
    audit_records: u64,
}

impl Ledger {
    fn build(spans: &[Span], samples: &[(u64, u64, u64)]) -> Ledger {
        let mut by_req: HashMap<u64, Vec<Span>> = HashMap::new();
        let mut cloud = Vec::new();
        let mut backend_spans = Vec::new();
        let mut audit_records = 0;
        for span in spans {
            match span.kind {
                Kind::Cloud => cloud.push(*span),
                kind => {
                    if matches!(kind, Kind::Backend | Kind::Batch) {
                        backend_spans.push(*span);
                    }
                    if kind == Kind::Audit {
                        audit_records += 1;
                    }
                    by_req.entry(span.req).or_default().push(*span);
                }
            }
        }
        let mut joined = Vec::with_capacity(samples.len());
        for &(id, sent, done) in samples {
            let Some(spans) = by_req.get(&id) else {
                continue;
            };
            let Some(h) = spans.iter().find(|s| s.kind == Kind::Handler) else {
                continue;
            };
            let children: Vec<&Span> = spans.iter().filter(|s| s.kind != Kind::Handler).collect();
            let intervals: Vec<(u64, u64)> = children.iter().map(|s| (s.start, s.end)).collect();
            let sum = |kinds: &[Kind]| -> u64 {
                children
                    .iter()
                    .filter(|s| kinds.contains(&s.kind))
                    .map(|s| s.ns())
                    .sum()
            };
            let child_allocs: u64 = children.iter().map(|s| s.allocs).sum();
            joined.push(Joined {
                client: done - sent,
                handler: h.ns(),
                core_self: stats::self_time((h.start, h.end), &intervals),
                backend: sum(&[Kind::Backend, Kind::Batch]),
                audit: sum(&[Kind::Audit]),
                emit: sum(&[Kind::Emit]),
                core_allocs: h.allocs.saturating_sub(child_allocs),
            });
        }
        Ledger {
            joined,
            backend_spans,
            cloud,
            audit_records,
        }
    }

    /// Ascending per-request values of `f`, in µs.
    fn times(&self, f: impl Fn(&Joined) -> u64) -> Vec<f64> {
        sorted(self.joined.iter().map(|j| f(j) as f64 / 1e3).collect())
    }

    /// `total` per joined request.
    fn per_req(&self, total: f64) -> f64 {
        ratio(total, self.joined.len() as f64)
    }

    /// Requests whose layer times (front end, core self time, backend,
    /// audit, emit) do not sum to the client-observed latency within a
    /// microsecond: a child span outside its handler, or children that
    /// overlap, would break the decomposition.
    fn unbalanced(&self) -> u64 {
        self.joined
            .iter()
            .filter(|j| {
                let front = j.client.saturating_sub(j.handler);
                let sum = front + j.core_self + j.backend + j.audit + j.emit;
                j.client < j.handler || sum.abs_diff(j.client) > 1_000
            })
            .count() as u64
    }
}
