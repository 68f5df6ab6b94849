//! Differential replay: a recorded monitor session re-evaluated by
//! [`cm_core::ReplayEngine`] against the *same* contract set must
//! reproduce the verdict sequence exactly — every verdict the shared
//! judge can give, including `Degraded`, with its requirement ids — and
//! against a *mutated* contract set must surface diffs, never errors.

use cm_audit::{AuditRecord, AuditRecorder, MemoryRecorder, ReplayContext, VerdictCode};
use cm_cloudsim::{Fault, FaultPlan, PrivateCloud};
use cm_core::{cinder_monitor, CloudMonitor, Mode, ReplayEngine, Verdict};
use cm_model::{cinder, HttpMethod};
use cm_rbac::Rule;
use cm_rest::{Json, RestRequest, RestResponse, SharedRestService, StatusCode};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

#[path = "support/reinterpret.rs"]
mod reinterpret;

/// Clear skies: every request reaches the cloud.
const CLEAR: u8 = 0;
/// Every model-state probe (GET under `/v3`) fails with a transport
/// fault — the source of honest pre-snapshot `Degraded` verdicts.
const PROBES_DARK: u8 = 1;
/// Probes fail only once a mutating call has gone through: the
/// post-snapshot comes back partial.
const POST_DARK: u8 = 2;
/// The cloud itself denies the next volume-item read (403): the
/// monitor's pre-snapshot probe, since it runs before the forward.
const ITEM_DENIED_ONCE: u8 = 3;

/// Pass-through cloud whose weather the test sets between requests.
struct Weathered {
    inner: PrivateCloud,
    weather: AtomicU8,
    mutated: AtomicBool,
}

impl SharedRestService for Weathered {
    fn call(&self, request: &RestRequest) -> RestResponse {
        let probe = request.method == HttpMethod::Get && request.path.starts_with("/v3");
        match self.weather.load(Ordering::Relaxed) {
            PROBES_DARK if probe => {
                RestResponse::transport_fault(StatusCode::BAD_GATEWAY, "probe fault")
            }
            POST_DARK if probe && self.mutated.load(Ordering::Relaxed) => {
                RestResponse::transport_fault(StatusCode::BAD_GATEWAY, "post probe fault")
            }
            ITEM_DENIED_ONCE if probe && request.path.contains("/volumes/") => {
                self.weather.store(CLEAR, Ordering::Relaxed);
                RestResponse::error(StatusCode::FORBIDDEN, "volume read denied")
            }
            weather => {
                if weather == POST_DARK && request.method != HttpMethod::Get {
                    self.mutated.store(true, Ordering::Relaxed);
                }
                self.inner.call(request)
            }
        }
    }
}

fn volume_body(name: &str) -> Json {
    Json::object(vec![(
        "volume",
        Json::object(vec![
            ("name", Json::Str(name.into())),
            ("size", Json::Int(1)),
        ]),
    )])
}

/// One monitor over its own (possibly mutated) cloud, recording into a
/// shared audit trail.
struct Session {
    monitor: CloudMonitor<Weathered>,
    pid: u64,
    admin: String,
    bob: String,
    carol: String,
}

impl Session {
    fn new(mode: Mode, faults: FaultPlan, recorder: &Arc<MemoryRecorder>) -> Session {
        let cloud = PrivateCloud::my_project().with_faults(faults);
        let pid = cloud.project_id();
        let token = |user: &str| {
            cloud
                .issue_token(user, &format!("{user}-pw"))
                .unwrap()
                .token
        };
        let (admin, bob, carol) = (token("alice"), token("bob"), token("carol"));
        let mut monitor = cinder_monitor(Weathered {
            inner: cloud,
            weather: AtomicU8::new(CLEAR),
            mutated: AtomicBool::new(false),
        })
        .unwrap()
        .mode(mode)
        .audit_recorder(Arc::clone(recorder) as Arc<dyn AuditRecorder>);
        monitor.authenticate("alice", "alice-pw").unwrap();
        Session {
            monitor,
            pid,
            admin,
            bob,
            carol,
        }
    }

    /// Seed a volume behind the monitor's back.
    fn volume(&self) -> u64 {
        let cloud = &self.monitor.cloud().inner;
        let id = cloud
            .state_mut()
            .create_volume(self.pid, "seed", 1, false)
            .unwrap()
            .id;
        id
    }

    fn weather(&self, weather: u8) {
        self.monitor
            .cloud()
            .weather
            .store(weather, Ordering::Relaxed);
    }

    fn delete(&self, token: &str, vid: u64) -> Verdict {
        let path = format!("/v3/{}/volumes/{vid}", self.pid);
        self.monitor
            .process(&RestRequest::new(HttpMethod::Delete, path).auth_token(token))
            .verdict
    }
}

/// Run monitor sessions that reach every verdict the shared judge can
/// give — Enforce mode against a correct cloud, Observe mode against
/// mutants and sick transports — with a tee into [`MemoryRecorder`],
/// and return the captured trace plus the verdicts the live monitor
/// actually returned.
fn recorded_session() -> (Vec<AuditRecord>, Vec<Verdict>) {
    let recorder = Arc::new(MemoryRecorder::new());
    let mut verdicts = Vec::new();

    let s = Session::new(Mode::Enforce, FaultPlan::none(), &recorder);
    let (pid, seeded, victim) = (s.pid, s.volume(), s.volume());
    // 1. Modelled create: Pass (201).
    verdicts.push(
        s.monitor
            .process(
                &RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"))
                    .auth_token(&s.admin)
                    .json(volume_body("rec")),
            )
            .verdict,
    );
    // 2. Unauthorized delete: PreBlocked (enforce).
    verdicts.push(s.delete(&s.carol, seeded));
    // 3. Authorized delete: Pass (204).
    verdicts.push(s.delete(&s.admin, seeded));
    // 4. Unmodelled read (no `limits` resource in the model): proxied.
    verdicts.push(
        s.monitor
            .process(
                &RestRequest::new(HttpMethod::Get, format!("/v3/{pid}/limits"))
                    .auth_token(&s.admin),
            )
            .verdict,
    );
    // 5. Probes go dark: authorized delete degrades (fail-closed).
    s.weather(PROBES_DARK);
    verdicts.push(s.delete(&s.admin, victim));

    // 6. Policy mutant lets a member delete: WrongAcceptance.
    let s = Session::new(
        Mode::Observe,
        FaultPlan::single(Fault::PolicyOverride {
            action: "volume:delete".into(),
            rule: Rule::any_role(["admin", "member"]),
        }),
        &recorder,
    );
    verdicts.push(s.delete(&s.bob, s.volume()));
    // 7. Lost update: the delete reports success but the volume stays.
    let s = Session::new(
        Mode::Observe,
        FaultPlan::single(Fault::DropStateChange {
            action: "volume:delete".into(),
        }),
        &recorder,
    );
    verdicts.push(s.delete(&s.admin, s.volume()));
    // 8. 200 instead of 204: WrongStatus.
    let s = Session::new(
        Mode::Observe,
        FaultPlan::single(Fault::WrongStatusCode {
            action: "volume:delete".into(),
            code: 200,
        }),
        &recorder,
    );
    verdicts.push(s.delete(&s.admin, s.volume()));
    // 9. An executed delete masked behind a bare 503: WrongStatus, not
    //    transport weather, because the post-condition holds.
    let s = Session::new(
        Mode::Observe,
        FaultPlan::single(Fault::WrongStatusCode {
            action: "volume:delete".into(),
            code: 503,
        }),
        &recorder,
    );
    verdicts.push(s.delete(&s.admin, s.volume()));
    // 10. The post-snapshot comes back partial: Degraded.
    let s = Session::new(Mode::Observe, FaultPlan::none(), &recorder);
    s.weather(POST_DARK);
    verdicts.push(s.delete(&s.admin, s.volume()));
    // 11. The cloud denies the monitor's item probe: a read that
    //     otherwise passes is a WrongDenial.
    let vid = s.volume();
    s.weather(ITEM_DENIED_ONCE);
    verdicts.push(
        s.monitor
            .process(
                &RestRequest::new(HttpMethod::Get, format!("/v3/{}/volumes/{vid}", s.pid))
                    .auth_token(&s.admin),
            )
            .verdict,
    );

    assert_eq!(
        verdicts,
        vec![
            Verdict::Pass,
            Verdict::PreBlocked,
            Verdict::Pass,
            Verdict::NotModelled,
            Verdict::Degraded,
            Verdict::WrongAcceptance,
            Verdict::PostViolation,
            Verdict::WrongStatus {
                expected: 204,
                actual: 200
            },
            Verdict::WrongStatus {
                expected: 204,
                actual: 503
            },
            Verdict::Degraded,
            Verdict::WrongDenial,
        ],
        "live session did not produce the expected verdict mix"
    );
    let records = recorder.records();
    assert_eq!(
        records.len(),
        verdicts.len(),
        "one audit record per request"
    );
    (records, verdicts)
}

#[test]
fn replay_against_same_contracts_reproduces_the_session() {
    let (records, verdicts) = recorded_session();
    let mut engine = ReplayEngine::from_behaviors(&[&cinder::behavioral_model()], None)
        .expect("contract generation");
    let report = engine.replay(&records);

    assert!(
        report.is_clean(),
        "replay against the unchanged contract set must be diff-free:\n{}",
        report.to_json().to_pretty_string()
    );
    assert_eq!(report.matched(), records.len());
    // Verdict-for-verdict, including Degraded, and requirement ids.
    for (entry, (record, live)) in report.entries.iter().zip(records.iter().zip(&verdicts)) {
        assert_eq!(&entry.recorded, live);
        let replayed = entry.replayed.as_verdict().expect("no indeterminates");
        assert_eq!(replayed, &record.verdict, "seq {}", record.seq);
    }
    // The degraded records carried Table-I requirement ids and replay
    // re-derived the same set (is_clean already compared them; spot-
    // check the traceability id survives the round trip).
    let degraded: Vec<&AuditRecord> = records
        .iter()
        .filter(|r| r.verdict == VerdictCode::Degraded)
        .collect();
    assert_eq!(degraded.len(), 2);
    for record in degraded {
        assert!(record.requirements.contains(&"1.4".to_string()));
    }
    // The partial post-snapshot was recorded as such, and replayed to
    // Degraded from that fact alone.
    assert!(records.iter().any(|r| matches!(
        r.context,
        ReplayContext::Checked {
            post_partial: true,
            ..
        }
    )));
}

#[test]
fn compiled_verdicts_reinterpret_identically_step_by_step() {
    // The monitor evaluates only compiled programs; the interpreter
    // re-evaluates every environment it recorded, request by request.
    let recorder = Arc::new(MemoryRecorder::new());
    let s = Session::new(Mode::Observe, FaultPlan::none(), &recorder);
    let pid = s.pid;
    let volume = |name: &str| {
        Json::object(vec![(
            "volume",
            Json::object(vec![("name", Json::Str(name.into()))]),
        )])
    };
    let script: Vec<RestRequest> = vec![
        RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"))
            .auth_token(&s.admin)
            .json(volume("v")),
        RestRequest::new(HttpMethod::Get, format!("/v3/{pid}/volumes/1")).auth_token(&s.admin),
        RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1")).auth_token(&s.carol),
        RestRequest::new(HttpMethod::Put, format!("/v3/{pid}/volumes/1"))
            .auth_token(&s.admin)
            .json(volume("v2")),
        RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/1")).auth_token(&s.admin),
        RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/999")).auth_token(&s.admin),
    ];
    for req in &script {
        s.monitor.process(req);
    }
    let records = recorder.records();
    assert_eq!(
        reinterpret::reinterpret(s.monitor.contracts(), &records),
        script.len()
    );

    // The same holds across every branch of the judge.
    let (records, _) = recorded_session();
    let contracts = cinder_monitor(PrivateCloud::my_project()).unwrap();
    assert!(reinterpret::reinterpret(contracts.contracts(), &records) > 0);
}

#[test]
fn replay_against_mutated_contracts_surfaces_diffs_not_errors() {
    let (records, _) = recorded_session();

    // Invert every transition guard: authority flips, so recorded
    // PreBlocked/Pass verdicts disagree with the new contract set.
    let mut mutated = cinder::behavioral_model();
    for t in &mut mutated.transitions {
        if let Some(g) = t.guard.take() {
            t.guard = Some(g.negate());
        }
    }
    let mut engine =
        ReplayEngine::from_behaviors(&[&mutated], None).expect("mutated set still compiles");
    let report = engine.replay(&records);

    // Diffs, not errors: every record gets a verdict-or-indeterminate
    // entry, the report renders, and at least the authorization
    // decisions flip.
    assert_eq!(report.entries.len(), records.len());
    assert!(
        report.diff_count() > 0,
        "guard inversion must surface diffs:\n{}",
        report.to_json().to_pretty_string()
    );
    let flipped: Vec<&str> = report.diffs().map(|e| e.method.as_str()).collect();
    assert!(
        flipped.contains(&"DELETE") || flipped.contains(&"POST"),
        "expected an authorization flip among the diffs, got {flipped:?}"
    );
    // Structural entries (NotModelled) replay identically even under
    // mutation — the diff set is precise, not everything-differs.
    assert!(report.matched() > 0, "unmodelled entries must still match");
}

#[test]
fn replay_of_empty_trace_is_clean() {
    let mut engine = ReplayEngine::from_behaviors(&[&cinder::behavioral_model()], None)
        .expect("contract generation");
    let report = engine.replay(&[]);
    assert!(report.is_clean());
    assert_eq!(report.matched(), 0);
    assert_eq!(report.diff_count(), 0);
}
