//! Concurrency battery for the shared-state monitor.
//!
//! `CloudMonitor::process` takes `&self`: one monitor instance serves
//! many threads at once. Requests for different projects run in
//! parallel; on one project, reads share the project lock and a
//! mutation's forward and post-probes run alone. These tests hammer a
//! shared monitor — over a live TCP server and in-process — and assert
//! that nothing deadlocks, every request is accounted for exactly once,
//! fault verdicts stay attributed to the requests that caused them,
//! reads of one project overlap, mutations stay isolated, and the log's
//! `seq` order is a serial order that reproduces every status.

use cm_cloudsim::{Fault, FaultPlan, PrivateCloud};
use cm_core::{cinder_monitor, CloudMonitor, Mode, MonitorRecord, Verdict};
use cm_httpkit::{ClientConfig, HttpServer, PooledClient, RemoteService, ServerConfig};
use cm_model::{cinder, HttpMethod};
use cm_rest::{Json, RestRequest, RestResponse, SharedRestService};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn volume_body(name: &str) -> Json {
    Json::object(vec![(
        "volume",
        Json::object(vec![
            ("name", Json::Str(name.into())),
            ("size", Json::Int(1)),
        ]),
    )])
}

/// 8 client threads × 200 requests through a live `HttpServer` in front
/// of a shared (un-mutexed) monitor. Every request must come back
/// well-formed, and the monitor's own accounting — log, per-verdict
/// metrics, event sink including its `dropped` counter — must sum to
/// exactly the 1600 requests sent.
///
/// The clients share one `PooledClient`, so the whole soak must ride on
/// a handful of keep-alive connections and the server's bounded worker
/// pool — not 1600 connects or 1600 threads.
#[test]
fn soak_eight_threads_against_live_server() {
    const THREADS: usize = 8;
    const REQUESTS_PER_THREAD: usize = 200;
    const TOTAL: u64 = (THREADS * REQUESTS_PER_THREAD) as u64;

    let cloud = PrivateCloud::my_project();
    let pid = cloud.project_id();
    let alice = cloud.issue_token("alice", "alice-pw").unwrap().token;
    let carol = cloud.issue_token("carol", "carol-pw").unwrap().token;
    cloud
        .state_mut()
        .create_volume(pid, "seed", 1, false)
        .unwrap();

    let mut monitor = cinder_monitor(cloud).unwrap().mode(Mode::Enforce);
    monitor.authenticate("alice", "alice-pw").unwrap();
    // Grab the shared observability handles before sharing the monitor.
    let metrics = monitor.metrics();
    let events = monitor.events();
    let monitor = Arc::new(monitor);

    let handler = Arc::clone(&monitor);
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(move |req| handler.call(&req)))
        .expect("bind monitor server");
    let addr = server.local_addr();
    let client = Arc::new(PooledClient::default());

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let alice = alice.clone();
            let carol = carol.clone();
            let client = Arc::clone(&client);
            std::thread::spawn(move || {
                for i in 0..REQUESTS_PER_THREAD {
                    let req = match (t + i) % 3 {
                        // Authorized read of the seeded volume: pass.
                        0 => RestRequest::new(HttpMethod::Get, format!("/v3/{pid}/volumes/1"))
                            .auth_token(&alice),
                        // Forbidden delete: pre-blocked, volume survives.
                        1 => RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1"))
                            .auth_token(&carol),
                        // Outside the model: transparent proxying.
                        _ => RestRequest::new(HttpMethod::Get, format!("/unmodelled/{t}/{i}")),
                    };
                    let resp = client.request(addr, &req).expect("live response");
                    assert!(resp.status.0 >= 100, "malformed status: {resp:?}");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("no client thread panicked");
    }

    // Keep-alive transport: 1600 requests must not mean 1600 connects,
    // and the server's thread budget — pool workers or reactor shards —
    // stays at its configured bound instead of a thread per connection.
    assert!(
        server.connections_accepted() <= (THREADS as u64) + 2,
        "soak should ride on at most one connection per client thread, got {}",
        server.connections_accepted()
    );
    assert!(
        (1..=ServerConfig::default().workers).contains(&server.worker_count()),
        "dispatch thread budget must stay bounded, got {}",
        server.worker_count()
    );
    server.shutdown();

    // Exactly one log record and one metrics observation per request.
    let log = monitor.log();
    assert_eq!(log.len() as u64, TOTAL);
    assert_eq!(metrics.requests(), TOTAL);
    let verdict_sum: u64 = metrics.verdicts.snapshot().iter().map(|(_, n)| n).sum();
    assert_eq!(verdict_sum, TOTAL, "per-verdict counts must sum to total");

    // The bounded event sink dropped the overflow and kept the rest:
    // retained + dropped covers every request, nothing double-counted.
    let retained = events.tail(usize::MAX).len() as u64;
    assert_eq!(events.dropped() + retained, TOTAL);

    // Global sequence numbers are unique, and the merged log is sorted.
    let seqs: Vec<u64> = log.iter().map(|r| r.seq).collect();
    let mut sorted = seqs.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len() as u64, TOTAL, "seq numbers must be unique");
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "log sorted by seq");

    // The verdict mix is the expected one: no violations on a correct
    // cloud, and the pre-blocked deletes never reached it.
    assert!(
        log.iter().all(|r| !r.verdict.is_violation()),
        "no false positives"
    );
    assert!(monitor
        .cloud()
        .state()
        .project(pid)
        .unwrap()
        .volumes
        .iter()
        .any(|v| v.id == 1));
}

/// Fault injection under concurrency: a lost-update fault on volume
/// creation in one project, while other threads read volumes in other
/// projects. Every post-violation must be attributed to a faulty POST
/// — never to a concurrent read — proving one request's snapshots do
/// not leak into another's post-condition. (That the log's `seq` order
/// is causal is checked by replaying it:
/// `same_project_soak_replays_serially_in_seq_order`.)
#[test]
fn fault_verdicts_stay_attributed_under_concurrency() {
    const WRITERS: usize = 2;
    const READERS: usize = 2;
    const OPS: usize = 30;

    let plan = FaultPlan::single(Fault::DropStateChange {
        action: "volume:post".into(),
    });
    let cloud = PrivateCloud::multi_project(4).with_faults(plan);
    // Seed one readable volume in each reader project (2 and 3).
    for pid in [2u64, 3] {
        cloud
            .state_of(pid)
            .create_volume(pid, "seed", 1, false)
            .unwrap();
    }
    let writer_token = cloud
        .issue_token_scoped("alice", "alice-pw", 1)
        .unwrap()
        .token;
    let reader_tokens: Vec<String> = [2u64, 3]
        .iter()
        .map(|pid| {
            cloud
                .issue_token_scoped("alice", "alice-pw", *pid)
                .unwrap()
                .token
        })
        .collect();

    let mut monitor = CloudMonitor::generate(
        &cinder::resource_model(),
        &cinder::behavioral_model(),
        None,
        cloud,
    )
    .unwrap()
    .mode(Mode::Observe);
    for pid in 1..=3 {
        monitor
            .authenticate_scoped("alice", "alice-pw", pid)
            .unwrap();
    }
    let monitor = Arc::new(monitor);

    let mut workers = Vec::new();
    for w in 0..WRITERS {
        let monitor = Arc::clone(&monitor);
        let token = writer_token.clone();
        workers.push(std::thread::spawn(move || {
            for i in 0..OPS {
                let outcome = monitor.process(
                    &RestRequest::new(HttpMethod::Post, "/v3/1/volumes")
                        .auth_token(&token)
                        .json(volume_body(&format!("lost-{w}-{i}"))),
                );
                // The faulty cloud claims success but drops the write:
                // this exact request must be flagged.
                assert_eq!(outcome.verdict, Verdict::PostViolation, "{outcome:?}");
            }
        }));
    }
    for (r, reader_token) in reader_tokens.iter().enumerate().take(READERS) {
        let monitor = Arc::clone(&monitor);
        let pid = r as u64 + 2;
        let token = reader_token.clone();
        workers.push(std::thread::spawn(move || {
            for _ in 0..OPS {
                let outcome = monitor.process(
                    &RestRequest::new(HttpMethod::Get, format!("/v3/{pid}/volumes/{}", pid))
                        .auth_token(&token),
                );
                // Reads in healthy projects must never inherit the
                // writer project's violation.
                assert_eq!(outcome.verdict, Verdict::Pass, "{outcome:?}");
            }
        }));
    }
    for w in workers {
        w.join().expect("no worker panicked");
    }

    let log = monitor.log();
    assert_eq!(log.len(), WRITERS * OPS + READERS * OPS);
    let posts: Vec<_> = log
        .iter()
        .filter(|r| r.method == HttpMethod::Post)
        .collect();
    assert_eq!(posts.len(), WRITERS * OPS);
    assert!(
        posts
            .iter()
            .all(|r| r.verdict == Verdict::PostViolation && r.path == "/v3/1/volumes"),
        "every post-violation belongs to the faulty project-1 POSTs"
    );
    assert!(
        log.iter()
            .filter(|r| r.method == HttpMethod::Get)
            .all(|r| r.verdict == Verdict::Pass),
        "no violation leaked into a concurrent read"
    );
}

/// Backend flap under concurrency: the cloud dies mid-soak and comes
/// back. While it is down every request must come out `Degraded` —
/// never a violation, never a false pass — and once it is back the very
/// first request must recover through a single half-open breaker probe.
/// The verdict ledger is exact: healthy passes + degraded outage
/// requests + recovery + post-recovery passes account for every request.
#[test]
fn backend_flap_yields_exact_degraded_and_pass_counts() {
    const THREADS: usize = 4;
    const HEALTHY: usize = 3; // requests per thread, phase 1
    const OUTAGE: usize = 3; // requests per thread, phase 2
    const RECOVERED: usize = 3; // requests per thread, phase 4

    let cloud = Arc::new(PrivateCloud::my_project());
    let pid = cloud.project_id();
    let alice = cloud.issue_token("alice", "alice-pw").unwrap().token;
    cloud
        .state_mut()
        .create_volume(pid, "seed", 1, false)
        .unwrap();

    let handle = Arc::clone(&cloud);
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(move |req| handle.call(&req)))
        .expect("bind cloud server");
    let addr = server.local_addr();

    // Fail fast during the outage: no retries, tight deadline, breaker
    // trips after 2 fresh failures and probes again after 150ms.
    let client = Arc::new(PooledClient::new(ClientConfig {
        read_timeout: Duration::from_millis(200),
        request_deadline: Duration::from_millis(500),
        max_retries: 0,
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(150),
        ..ClientConfig::default()
    }));
    let mut monitor = cinder_monitor(RemoteService::with_client(addr, Arc::clone(&client)))
        .unwrap()
        .mode(Mode::Enforce);
    monitor.authenticate("alice", "alice-pw").unwrap();
    let monitor = Arc::new(monitor);

    fn read_req(pid: u64, token: &str) -> RestRequest {
        RestRequest::new(HttpMethod::Get, format!("/v3/{pid}/volumes/1")).auth_token(token)
    }
    let run_phase = |per_thread: usize| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let monitor = Arc::clone(&monitor);
                let token = alice.clone();
                std::thread::spawn(move || {
                    (0..per_thread)
                        .map(|_| monitor.process(&read_req(pid, &token)).verdict)
                        .collect::<Vec<Verdict>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("no worker panicked"))
            .collect::<Vec<Verdict>>()
    };

    // Phase 1 — healthy backend: every authorized read passes.
    let healthy = run_phase(HEALTHY);
    assert!(
        healthy.iter().all(|v| *v == Verdict::Pass),
        "healthy phase: {healthy:?}"
    );

    // Phase 2 — the backend dies. Every request degrades; none may be
    // classified as a contract violation and none may falsely pass.
    server.shutdown();
    let outage = run_phase(OUTAGE);
    assert!(
        outage.iter().all(|v| *v == Verdict::Degraded),
        "outage phase must be uniformly degraded: {outage:?}"
    );
    assert!(
        client
            .stats()
            .breaker_opened
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1,
        "the outage must trip the breaker: {:?}",
        client.stats().snapshot()
    );

    // Phase 3 — the backend comes back on the same address. The OS may
    // have reassigned the port meanwhile; bail out gracefully if so.
    let handle = Arc::clone(&cloud);
    let Ok(revived) = HttpServer::bind(addr, Arc::new(move |req| handle.call(&req))) else {
        eprintln!("skipping recovery phases: could not rebind {addr}");
        return;
    };
    std::thread::sleep(Duration::from_millis(300)); // past the cooldown

    // Recovery happens within ONE half-open probe: the first sequential
    // request after the cooldown must already pass.
    let recovery = monitor.process(&read_req(pid, &alice));
    assert_eq!(recovery.verdict, Verdict::Pass, "{recovery:?}");
    assert!(
        client
            .stats()
            .breaker_half_opened
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
            && client
                .stats()
                .breaker_closed
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 1,
        "recovery must go through a half-open probe: {:?}",
        client.stats().snapshot()
    );

    // Phase 4 — recovered: concurrent reads all pass again.
    let recovered = run_phase(RECOVERED);
    assert!(
        recovered.iter().all(|v| *v == Verdict::Pass),
        "recovered phase: {recovered:?}"
    );

    // Exact ledger: every request is accounted for in the expected bucket.
    let log = monitor.log();
    let total = THREADS * (HEALTHY + OUTAGE + RECOVERED) + 1;
    assert_eq!(log.len(), total);
    let degraded = log
        .iter()
        .filter(|r| r.verdict == Verdict::Degraded)
        .count();
    let passes = log.iter().filter(|r| r.verdict == Verdict::Pass).count();
    assert_eq!(degraded, THREADS * OUTAGE);
    assert_eq!(passes, THREADS * (HEALTHY + RECOVERED) + 1);
    assert!(log.iter().all(|r| !r.verdict.is_violation()));
    revived.shutdown();
}

/// How long a gated backend request waits for its company before it
/// gives up. A monitor that serializes what should overlap makes the
/// test fail after this long instead of hanging.
const GATE_TIMEOUT: Duration = Duration::from_secs(5);

/// A backend that holds the requests `hold` selects until `quorum` of
/// them are at the backend at once, or until the gate is opened, or
/// until [`GATE_TIMEOUT`] passes — which it counts.
struct Gate {
    cloud: PrivateCloud,
    hold: Box<dyn Fn(&RestRequest) -> bool + Send + Sync>,
    quorum: usize,
    state: Mutex<GateState>,
    changed: Condvar,
}

#[derive(Default)]
struct GateState {
    arrived: usize,
    open: bool,
    timeouts: usize,
}

impl Gate {
    fn new(
        cloud: PrivateCloud,
        quorum: usize,
        hold: impl Fn(&RestRequest) -> bool + Send + Sync + 'static,
    ) -> Gate {
        Gate {
            cloud,
            hold: Box::new(hold),
            quorum,
            state: Mutex::new(GateState::default()),
            changed: Condvar::new(),
        }
    }

    /// Release every held request.
    fn open(&self) {
        self.state.lock().unwrap().open = true;
        self.changed.notify_all();
    }

    /// Wait (up to the timeout) until `n` held requests have arrived.
    fn await_arrivals(&self, n: usize) -> bool {
        let state = self.state.lock().unwrap();
        let (state, _) = self
            .changed
            .wait_timeout_while(state, GATE_TIMEOUT, |s| s.arrived < n)
            .unwrap();
        state.arrived >= n
    }

    fn timeouts(&self) -> usize {
        self.state.lock().unwrap().timeouts
    }
}

impl SharedRestService for Gate {
    fn call(&self, request: &RestRequest) -> RestResponse {
        if (self.hold)(request) {
            let mut state = self.state.lock().unwrap();
            state.arrived += 1;
            self.changed.notify_all();
            let quorum = self.quorum;
            let (mut state, waited) = self
                .changed
                .wait_timeout_while(state, GATE_TIMEOUT, |s| s.arrived < quorum && !s.open)
                .unwrap();
            if waited.timed_out() {
                state.timeouts += 1;
            }
        }
        self.cloud.call(request)
    }
}

/// A gated monitor over `my_project` with one seeded volume, plus the
/// user tokens (alice, carol) the cloud issued — distinct from the
/// monitor's own probe token, so `hold` can single out forwards.
fn gated_monitor(
    quorum: usize,
    hold: impl Fn(&RestRequest, &str) -> bool + Send + Sync + 'static,
) -> (Arc<CloudMonitor<Gate>>, u64, String, String) {
    let cloud = PrivateCloud::my_project();
    let pid = cloud.project_id();
    let alice = cloud.issue_token("alice", "alice-pw").unwrap().token;
    let carol = cloud.issue_token("carol", "carol-pw").unwrap().token;
    cloud
        .state_mut()
        .create_volume(pid, "seed", 1, false)
        .unwrap();
    let user = alice.clone();
    let gate = Gate::new(cloud, quorum, move |req| hold(req, &user));
    let mut monitor = cinder_monitor(gate).unwrap().mode(Mode::Enforce);
    monitor.authenticate("alice", "alice-pw").unwrap();
    (Arc::new(monitor), pid, alice, carol)
}

/// Two authorized GETs of one volume: each one's forward waits at the
/// backend for the other's. Reads share the project lock, so both
/// forwards are in flight at once and neither waits out the timeout.
#[test]
fn two_gets_on_one_project_overlap_at_the_backend() {
    // Only alice's own forwards are held, never the monitor's probes.
    let (monitor, pid, alice, _) = gated_monitor(2, |req, alice| {
        req.method == HttpMethod::Get && req.token() == Some(alice)
    });
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let monitor = Arc::clone(&monitor);
            let alice = alice.clone();
            std::thread::spawn(move || {
                monitor
                    .process(
                        &RestRequest::new(HttpMethod::Get, format!("/v3/{pid}/volumes/1"))
                            .auth_token(&alice),
                    )
                    .verdict
            })
        })
        .collect();
    for reader in readers {
        assert_eq!(reader.join().unwrap(), Verdict::Pass);
    }
    assert_eq!(
        monitor.cloud().timeouts(),
        0,
        "the two GETs never overlapped at the backend"
    );
}

/// A forbidden DELETE is pre-blocked without ever forwarding, so it
/// needs the project lock only to observe: it completes while an
/// authorized GET of the same project is still held at the backend.
#[test]
fn pre_blocked_delete_runs_alongside_a_get_on_the_same_project() {
    let (monitor, pid, alice, carol) = gated_monitor(usize::MAX, |req, alice| {
        req.method == HttpMethod::Get && req.token() == Some(alice)
    });
    let reader = {
        let monitor = Arc::clone(&monitor);
        std::thread::spawn(move || {
            monitor
                .process(
                    &RestRequest::new(HttpMethod::Get, format!("/v3/{pid}/volumes/1"))
                        .auth_token(&alice),
                )
                .verdict
        })
    };
    assert!(
        monitor.cloud().await_arrivals(1),
        "the GET never reached the backend"
    );
    let delete = monitor.process(
        &RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1")).auth_token(&carol),
    );
    // Still held: the DELETE was judged while the GET was in flight.
    let overlapped = monitor.cloud().timeouts() == 0;
    monitor.cloud().open();
    assert_eq!(reader.join().unwrap(), Verdict::Pass);
    assert_eq!(delete.verdict, Verdict::PreBlocked);
    assert!(
        overlapped,
        "the pre-blocked DELETE waited for the GET to finish"
    );
}

thread_local! {
    /// Set by [`Tracker`] once the request this thread is processing has
    /// forwarded a mutation: every later backend call of that request
    /// is its forward's post-probe. Cleared before each request.
    static IN_MUTATION: Cell<bool> = const { Cell::new(false) };
}

/// A backend that knows, per call, whether it belongs to a mutation's
/// exclusive phase (its forward and post-probes) and counts every call
/// that is in flight at the same time as another request's exclusive
/// phase. Each call lingers a little so that overlaps, if the lock
/// allowed them, would be caught.
struct Tracker {
    cloud: PrivateCloud,
    exclusive: AtomicUsize,
    other: AtomicUsize,
    overlaps: AtomicUsize,
    exclusive_calls: AtomicUsize,
}

impl SharedRestService for Tracker {
    fn call(&self, request: &RestRequest) -> RestResponse {
        if request.method != HttpMethod::Get {
            IN_MUTATION.with(|m| m.set(true));
        }
        let (mine, theirs) = if IN_MUTATION.with(Cell::get) {
            self.exclusive_calls.fetch_add(1, Ordering::SeqCst);
            (&self.exclusive, &self.other)
        } else {
            (&self.other, &self.exclusive)
        };
        let before = mine.fetch_add(1, Ordering::SeqCst);
        let clash = theirs.load(Ordering::SeqCst) > 0
            || (std::ptr::eq(mine, &self.exclusive) && before > 0);
        if clash {
            self.overlaps.fetch_add(1, Ordering::SeqCst);
        }
        std::thread::sleep(Duration::from_micros(50));
        let response = self.cloud.call(request);
        mine.fetch_sub(1, Ordering::SeqCst);
        response
    }
}

/// Who sends a soak request: a function of its method and volume id, so
/// a replay can rebuild each request from its log record.
fn soak_user(method: HttpMethod, volume: Option<u64>) -> &'static str {
    let vid = volume.unwrap_or(0);
    match method {
        HttpMethod::Get => ["alice", "bob", "carol"][(vid % 3) as usize],
        HttpMethod::Post => "alice",
        HttpMethod::Put => ["bob", "carol"][(vid % 2) as usize],
        HttpMethod::Delete => ["carol", "alice", "alice"][(vid % 3) as usize],
    }
}

/// The soak request for `method` on `path`, as `user` sends it.
fn soak_request(method: HttpMethod, path: &str, token: &str) -> RestRequest {
    let request = RestRequest::new(method, path).auth_token(token);
    if matches!(method, HttpMethod::Post | HttpMethod::Put) {
        request.json(volume_body("soak"))
    } else {
        request
    }
}

/// The volume id a soak path addresses, if any.
fn path_volume(path: &str) -> Option<u64> {
    path.rsplit('/').next().and_then(|s| s.parse().ok())
}

/// The soak's cloud: `my_project` with two seeded volumes, and the three
/// fixture users' tokens.
fn soak_cloud() -> (PrivateCloud, u64, [(&'static str, String); 3]) {
    let cloud = PrivateCloud::my_project();
    let pid = cloud.project_id();
    for name in ["seed-a", "seed-b"] {
        cloud
            .state_mut()
            .create_volume(pid, name, 1, false)
            .unwrap();
    }
    let tokens = ["alice", "bob", "carol"].map(|user| {
        (
            user,
            cloud
                .issue_token(user, &format!("{user}-pw"))
                .unwrap()
                .token,
        )
    });
    (cloud, pid, tokens)
}

fn token_of<'a>(tokens: &'a [(&'static str, String); 3], user: &str) -> &'a str {
    &tokens.iter().find(|(u, _)| *u == user).unwrap().1
}

/// Four threads send a mixed GET/POST/PUT/DELETE stream at one project
/// of a correct cloud, through the [`Tracker`] backend. Volume ids
/// follow the newest volume created, so reads, updates and deletes
/// contend for the same few volumes and creates hit the quota.
fn same_project_soak(mode: Mode) -> Arc<CloudMonitor<Tracker>> {
    const THREADS: u64 = 4;
    const OPS: u64 = 120;
    let (cloud, pid, tokens) = soak_cloud();
    let tracker = Tracker {
        cloud,
        exclusive: AtomicUsize::new(0),
        other: AtomicUsize::new(0),
        overlaps: AtomicUsize::new(0),
        exclusive_calls: AtomicUsize::new(0),
    };
    let mut monitor = cinder_monitor(tracker).unwrap().mode(mode);
    monitor.authenticate("alice", "alice-pw").unwrap();
    let monitor = Arc::new(monitor);
    let tokens = Arc::new(tokens);
    let newest = Arc::new(AtomicU64::new(2));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (monitor, tokens, newest) = (
                Arc::clone(&monitor),
                Arc::clone(&tokens),
                Arc::clone(&newest),
            );
            std::thread::spawn(move || {
                let mut rng = 0x9E37_79B9_7F4A_7C15_u64 ^ (t + 1);
                for _ in 0..OPS {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let method = [
                        HttpMethod::Get,
                        HttpMethod::Get,
                        HttpMethod::Post,
                        HttpMethod::Put,
                        HttpMethod::Delete,
                    ][(rng % 5) as usize];
                    let vid = newest
                        .load(Ordering::Relaxed)
                        .saturating_sub(rng / 5 % 4)
                        .max(1);
                    let (path, volume) = match method {
                        HttpMethod::Post => (format!("/v3/{pid}/volumes"), None),
                        _ => (format!("/v3/{pid}/volumes/{vid}"), Some(vid)),
                    };
                    let token = token_of(&tokens, soak_user(method, volume));
                    IN_MUTATION.with(|m| m.set(false));
                    let outcome = monitor.process(&soak_request(method, &path, token));
                    let created = outcome
                        .response
                        .body
                        .as_ref()
                        .and_then(|b| b.get("volume"))
                        .and_then(|v| v.get("id"))
                        .and_then(Json::as_int);
                    if let (HttpMethod::Post, Some(id)) = (method, created) {
                        newest.fetch_max(id as u64, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("no soak thread panicked");
    }
    assert_eq!(monitor.log().len() as u64, THREADS * OPS);
    monitor
}

/// No backend call of any other request is in flight while a
/// mutation's forward or post-probes are — in both modes, so the
/// Observe-mode forward of a refused mutation is covered too.
#[test]
fn mutation_forward_and_post_probes_run_alone_on_the_project() {
    for mode in [Mode::Enforce, Mode::Observe] {
        let monitor = same_project_soak(mode);
        let tracker = monitor.cloud();
        assert!(
            tracker.exclusive_calls.load(Ordering::SeqCst) > 0,
            "{mode:?}: the soak forwarded no mutation"
        );
        assert_eq!(
            tracker.overlaps.load(Ordering::SeqCst),
            0,
            "{mode:?}: a backend call overlapped a mutation's exclusive phase"
        );
    }
}

/// The same-project soak gives no violation on a correct cloud, and its
/// log is causal: replayed one request at a time in `seq` order through
/// a fresh monitor over a fresh cloud, every request gets the status
/// and verdict it was logged with. A log whose `seq` order differed
/// from the order the requests took effect in would replay a read
/// before or after the mutation it actually saw.
#[test]
fn same_project_soak_replays_serially_in_seq_order() {
    for mode in [Mode::Enforce, Mode::Observe] {
        let log: Vec<MonitorRecord> = same_project_soak(mode).log();
        assert!(
            log.iter().all(|r| !r.verdict.is_violation()),
            "{mode:?}: violation on a correct cloud"
        );
        let statuses: std::collections::BTreeSet<u16> = log.iter().map(|r| r.status.0).collect();
        assert!(
            statuses.len() >= 4,
            "{mode:?}: the soak should mix outcomes, got {statuses:?}"
        );

        let (cloud, _, tokens) = soak_cloud();
        let mut replay = cinder_monitor(cloud).unwrap().mode(mode);
        replay.authenticate("alice", "alice-pw").unwrap();
        for record in &log {
            let user = soak_user(record.method, path_volume(&record.path));
            let request = soak_request(record.method, &record.path, token_of(&tokens, user));
            let outcome = replay.process(&request);
            assert_eq!(
                (outcome.response.status, &outcome.verdict),
                (record.status, &record.verdict),
                "{mode:?}: seq {} {} {} did not reproduce",
                record.seq,
                record.method.as_str(),
                record.path
            );
        }
    }
}
