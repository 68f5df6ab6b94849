//! The system under test, composed as `cmcli serve` composes it by
//! default: the simulated cloud served over loopback TCP, the generated
//! monitor wrapping it through a pooled `RemoteService`, and the monitor
//! served over loopback TCP behind `AdminRoutes`.
//!
//! A traced topology differs only by timing wrappers at the public trait
//! boundaries: the two server handlers, the backend adapter
//! (`SharedRestService`), the audit recorder and the event sink. The
//! untraced topology has none of them.

use crate::trace::{self, Kind};
use crate::workload::{self, Spec, Tokens};
use cm_audit::{AuditLog, AuditLogOptions, AuditRecord, AuditRecorder};
use cm_core::DEFAULT_EVENT_CAPACITY;
use cm_httpkit::{
    AdminRoutes, ClientConfig, Handler, HttpServer, OverloadConfig, PooledClient, RemoteService,
    ServerConfig, ShedObserver,
};
use cm_obs::{
    BrownoutSignal, EventSink, MetricsRegistry, MonitorEvent, OverloadStats, RingBufferSink,
};
use cm_rest::{RestRequest, RestResponse, SharedRestService};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A running two-hop topology.
pub struct Topology {
    monitor_server: HttpServer,
    cloud_server: HttpServer,
    /// Where clients reach the monitor.
    pub addr: SocketAddr,
    /// Client credentials issued by this topology's cloud.
    pub tokens: Tokens,
    /// The monitor's backend connection pool.
    pub client: Arc<PooledClient>,
    /// The monitor's metrics registry.
    pub metrics: Arc<MetricsRegistry>,
    /// The durable audit log, when the workload keeps one.
    pub audit: Option<Arc<AuditLog>>,
    audit_dir: Option<PathBuf>,
}

/// The monitor server's configuration: `ServerConfig::default()` (the
/// reactor, one shard per core, keep-alive, overload control off) with
/// the overload stats handle `serve` shares with its admin routes.
pub fn monitor_server_config(stats: Arc<OverloadStats>) -> ServerConfig {
    ServerConfig {
        overload: OverloadConfig {
            stats: Some(stats),
            ..OverloadConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// Stand the topology up: seed the cloud, bind both servers, generate
/// the monitor from the models and authenticate it. `audit_dir` must be
/// a fresh directory when the workload keeps an audit log.
pub fn stand_up(spec: &Spec, seed: u64, traced: bool, audit_dir: Option<&Path>) -> Topology {
    let cloud = workload::cloud_fixture(spec, seed);
    let tokens = Tokens::issue(&cloud, spec);
    let cloud = Arc::new(cloud);
    let cloud_handler: Arc<Handler> = if traced {
        Arc::new(move |req: RestRequest| {
            let span = trace::open(Kind::Cloud);
            let response = cloud.call(&req);
            span.close(1, 0);
            response
        })
    } else {
        Arc::new(move |req: RestRequest| cloud.call(&req))
    };
    let cloud_server = HttpServer::bind_with("127.0.0.1:0", cloud_handler, ServerConfig::default())
        .expect("bind the cloud server on loopback");

    let client = Arc::new(PooledClient::new(ClientConfig::default()));
    let remote = RemoteService::with_client(cloud_server.local_addr(), Arc::clone(&client));
    let (monitor_server, metrics, audit) = if traced {
        serve_monitor(spec, TracedRemote(remote), &client, true, audit_dir)
    } else {
        serve_monitor(spec, remote, &client, false, audit_dir)
    };
    Topology {
        addr: monitor_server.local_addr(),
        monitor_server,
        cloud_server,
        tokens,
        client,
        metrics,
        audit,
        audit_dir: audit_dir.map(Path::to_path_buf),
    }
}

type Served = (HttpServer, Arc<MetricsRegistry>, Option<Arc<AuditLog>>);

/// Generate, configure, authenticate and serve the monitor over
/// `remote`, in the order `cmcli serve` does.
fn serve_monitor<S: SharedRestService + 'static>(
    spec: &Spec,
    remote: S,
    client: &Arc<PooledClient>,
    traced: bool,
    audit_dir: Option<&Path>,
) -> Served {
    let overload_stats = Arc::new(OverloadStats::new());
    let brownout = Arc::new(BrownoutSignal::new());
    let mut server_config = monitor_server_config(Arc::clone(&overload_stats));

    let mut monitor = workload::generate(remote).brownout_signal(Arc::clone(&brownout));
    if traced {
        monitor = monitor.event_sink(Arc::new(TracedSink(RingBufferSink::new(
            DEFAULT_EVENT_CAPACITY,
        ))));
    }
    let audit = audit_dir.map(|dir| {
        let (log, _) = AuditLog::open(
            dir,
            AuditLogOptions {
                max_age: None,
                durability_signal: Some(Arc::clone(&brownout)),
                ..AuditLogOptions::default()
            },
            Some(monitor.metrics()),
        )
        .expect("open the audit log in a fresh directory");
        Arc::new(log)
    });
    if let Some(log) = &audit {
        let recorder: Arc<dyn AuditRecorder> = if traced {
            Arc::new(TracedRecorder(Arc::clone(log)))
        } else {
            Arc::clone(log) as Arc<dyn AuditRecorder>
        };
        monitor = monitor.audit_recorder(recorder);
    }
    workload::authenticate(&mut monitor, spec);
    let mut admin = AdminRoutes::new(monitor.metrics(), monitor.events())
        .with_transport(Arc::clone(client))
        .with_overload(overload_stats, brownout);
    if let Some(log) = &audit {
        admin = admin.with_stream(Arc::clone(log) as Arc<dyn cm_obs::TailStream>);
    }
    let metrics = monitor.metrics();
    let monitor = Arc::new(monitor);
    let shed_monitor = Arc::clone(&monitor);
    server_config.shed_observer = Some(ShedObserver::new(move |request, decision| {
        shed_monitor.record_shed(request, decision);
    }));
    let handler: Arc<Handler> = if traced {
        Arc::new(move |req: RestRequest| {
            let span = trace::open_request(trace::request_id(&req.headers));
            let response = monitor.call(&req);
            span.close(0, 0);
            response
        })
    } else {
        Arc::new(move |req: RestRequest| monitor.call(&req))
    };
    let server = HttpServer::bind_with("127.0.0.1:0", admin.wrap(handler), server_config)
        .expect("bind the monitor server on loopback");
    (server, metrics, audit)
}

impl Topology {
    /// Flush the audit log (the durability barrier) and return how long
    /// the flush took; `None` without an audit log.
    pub fn flush_audit(&self) -> Option<Duration> {
        let log = self.audit.as_ref()?;
        let started = Instant::now();
        log.flush()
            .expect("the audit writer is alive until tear-down");
        Some(started.elapsed())
    }

    /// Stop both servers, close the audit log and delete its directory.
    pub fn tear_down(self) {
        self.monitor_server.shutdown();
        self.cloud_server.shutdown();
        drop(self.audit);
        if let Some(dir) = self.audit_dir {
            std::fs::remove_dir_all(&dir)
                .unwrap_or_else(|e| panic!("remove audit directory {}: {e}", dir.display()));
        }
    }
}

/// `RemoteService` with a span around each call and batch.
#[derive(Debug)]
struct TracedRemote(RemoteService);

impl SharedRestService for TracedRemote {
    fn call(&self, request: &RestRequest) -> RestResponse {
        let span = trace::open(Kind::Backend);
        let response = self.0.call(request);
        span.close(1, u32::from(response.is_transport_fault()));
        response
    }

    fn call_batch(&self, requests: &[RestRequest]) -> Vec<RestResponse> {
        let span = trace::open(Kind::Batch);
        let responses = self.0.call_batch(requests);
        let faults = responses.iter().filter(|r| r.is_transport_fault()).count();
        span.close(
            u32::try_from(requests.len()).unwrap_or(u32::MAX),
            u32::try_from(faults).unwrap_or(u32::MAX),
        );
        responses
    }
}

/// The audit log with a span around each record.
#[derive(Debug)]
struct TracedRecorder(Arc<AuditLog>);

impl AuditRecorder for TracedRecorder {
    fn record(&self, record: AuditRecord) {
        let span = trace::open(Kind::Audit);
        self.0.record(record);
        span.close(0, 0);
    }
}

/// The monitor's default event sink with a span around each emit.
#[derive(Debug)]
struct TracedSink(RingBufferSink);

impl EventSink for TracedSink {
    fn emit(&self, event: MonitorEvent) {
        let span = trace::open(Kind::Emit);
        self.0.emit(event);
        span.close(0, 0);
    }

    fn tail(&self, n: usize) -> Vec<MonitorEvent> {
        self.0.tail(n)
    }

    fn dropped(&self) -> u64 {
        self.0.dropped()
    }
}
