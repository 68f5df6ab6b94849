//! The monitor's one decision procedure (the paper's Figure 2): check
//! the pre-condition, forward, check the post-condition, and name the
//! verdict with its Table-I requirement ids.
//!
//! [`judge`] serves both the live monitor
//! ([`crate::CloudMonitor::process`]) and audit replay
//! ([`crate::ReplayEngine`]). The two differ only in where the facts
//! after the pre-check come from, so each supplies an [`Observer`]: the
//! live one forwards the request and probes the cloud, the replay one
//! reads what the audit record holds. An audit trail is a system of
//! record only if replay judges with the code that judged the request.

use crate::monitor::{expected_success_status, Mode, MonitorBuildError, Verdict};
use crate::probe::ProbeFault;
use cm_contracts::{
    generate_with, CompiledContractSet, ContractSet, GenerateOptions, MethodContract,
};
use cm_model::BehavioralModel;
use cm_obs::PhaseTimings;
use cm_ocl::{EnvView, EvalScratch, MapNavigator};
use cm_rbac::SecurityRequirementsTable;
use cm_rest::StatusCode;
use std::time::Instant;

/// Generate contracts from one or more behavioural state machines and
/// merge them into one set. The machines must not share triggers: a
/// duplicate (method, resource) pair is an error because the monitor
/// could not tell which contract governs it.
///
/// # Errors
///
/// Contract-generation failures or overlapping triggers.
pub(crate) fn merge_contracts(
    behaviors: &[&BehavioralModel],
    security: Option<&SecurityRequirementsTable>,
) -> Result<ContractSet, MonitorBuildError> {
    let mut merged = ContractSet::default();
    for behavior in behaviors {
        let set = generate_with(
            behavior,
            &GenerateOptions {
                security,
                simplify: false,
            },
        )
        .map_err(|e| MonitorBuildError { message: e.message })?;
        for contract in set.contracts {
            if merged.contract_for(&contract.trigger).is_some() {
                return Err(MonitorBuildError {
                    message: format!(
                        "trigger {} is modelled by more than one state machine",
                        contract.trigger
                    ),
                });
            }
            merged.contracts.push(contract);
        }
        merged.states.extend(set.states);
    }
    Ok(merged)
}

/// A verdict with the requirement ids it is attributed to and the
/// diagnostics that explain it.
#[derive(Debug)]
pub(crate) struct Judgement {
    pub(crate) verdict: Verdict,
    pub(crate) requirements: Vec<String>,
    pub(crate) diagnostics: String,
}

impl Judgement {
    /// The request could not be checked: every requirement of the
    /// contract went untested.
    pub(crate) fn degraded(contract: &MethodContract, diagnostics: String) -> Self {
        Judgement {
            verdict: Verdict::Degraded,
            requirements: contract.security_requirements.clone(),
            diagnostics,
        }
    }
}

/// The state after the forward, as the observer saw it.
#[derive(Debug)]
pub(crate) enum PostState {
    /// Every probe reached the cloud.
    Observed(MapNavigator),
    /// Some probe never reached the cloud; judging the half-observed
    /// state would judge the transport, not the cloud.
    Partial(Vec<ProbeFault>),
}

/// Where the facts after the pre-check come from.
pub(crate) trait Observer {
    /// Why the judgement stopped short of a verdict.
    type Halt;

    /// Send the request on once the pre-check gave `pre_ok` (never
    /// called when Enforce mode blocks the request) and return the
    /// cloud's status.
    fn forward(&mut self, pre_ok: bool) -> Result<StatusCode, Self::Halt>;

    /// The state after the forward. Called at most once, and only when
    /// the status leaves the verdict to the post-condition.
    fn post_state(&mut self) -> Result<PostState, Self::Halt>;

    /// Where the time spent evaluating contracts is added.
    fn timings(&mut self) -> &mut PhaseTimings;
}

/// What is fixed about one checked request before its pre-state is read:
/// the contract that governs it and how the monitor runs.
#[derive(Debug)]
pub(crate) struct Case<'a> {
    pub(crate) contracts: &'a ContractSet,
    pub(crate) compiled: &'a CompiledContractSet,
    /// Index of the governing contract in both sets.
    pub(crate) idx: usize,
    pub(crate) mode: Mode,
    /// Name the model states that hold after a pass (`state: …`).
    pub(crate) report_states: bool,
}

/// Judge one request from its bound pre-state.
///
/// Pre-evaluates the contract and attributes requirements from the
/// enabled clauses; blocks in Enforce mode when the pre-condition
/// fails; otherwise asks `observer` to forward, and classifies the
/// cloud's status against the pre-verdict and, where the status leaves
/// it open, the post-condition. A pass with `probe_denials` becomes a
/// wrong denial; a violation that no enabled clause explains falls back
/// to the contract's own requirements.
///
/// # Errors
///
/// Whatever halt the observer raises.
pub(crate) fn judge<O: Observer>(
    case: &Case<'_>,
    pre_state: &MapNavigator,
    probe_denials: &[String],
    scratch: &mut EvalScratch,
    observer: &mut O,
) -> Result<Judgement, O::Halt> {
    let contract = &case.contracts.contracts[case.idx];
    let compiled = &case.compiled.contracts()[case.idx];
    let syms = case.compiled.symbols();
    let trigger = &contract.trigger;

    let started = Instant::now();
    let pre_view = EnvView::from_navigator(pre_state, syms);
    compiled.begin_pre(scratch);
    let pre_ok = match compiled.evaluate_pre(syms, &pre_view, scratch) {
        Ok(v) => v,
        Err(e) => {
            observer.timings().pre_check += started.elapsed();
            return Ok(Judgement {
                verdict: Verdict::ContractError,
                requirements: Vec::new(),
                diagnostics: format!("pre-condition evaluation failed: {e}"),
            });
        }
    };
    // The clause roots are shared subtrees of the combined pre
    // (hash-consing), so with the memo table still warm from
    // `evaluate_pre` this is nearly free.
    let requirements = compiled
        .enabled_clause_indices(syms, &pre_view, scratch)
        .map(|idxs| {
            let mut out: Vec<String> = Vec::new();
            for i in idxs {
                for r in &contract.clauses[i].security_requirements {
                    if !out.contains(r) {
                        out.push(r.clone());
                    }
                }
            }
            out
        })
        .unwrap_or_default();
    observer.timings().pre_check += started.elapsed();

    if case.mode == Mode::Enforce && !pre_ok {
        return Ok(Judgement {
            verdict: Verdict::PreBlocked,
            requirements: contract.security_requirements.clone(),
            diagnostics: "blocked before reaching the cloud".to_string(),
        });
    }

    let status = observer.forward(pre_ok)?;
    let success = status.is_success();
    let expected = expected_success_status(trigger.method);
    // Evaluate the post-condition over an observed post-state; with
    // `name_states`, also name the model states that hold after a pass.
    let mut evaluate_post = |observer: &mut O, post_state: &MapNavigator, name_states: bool| {
        let started = Instant::now();
        let post_view = EnvView::from_navigator(post_state, syms);
        compiled.begin_post(scratch);
        let holds = compiled.evaluate_post(syms, &post_view, &pre_view, scratch);
        // The paper's stateful view: after a pass, report which model
        // state the system is in. Skipped when state reporting is off —
        // a lean snapshot does not cover the invariants' reads.
        let states = if name_states && matches!(holds, Ok(true)) {
            compiled
                .matching_state_indices_post(syms, &post_view, &pre_view, scratch)
                .map(|idxs| {
                    idxs.iter()
                        .map(|&i| case.compiled.state_names()[i].clone())
                        .collect::<Vec<_>>()
                })
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        observer.timings().post_check += started.elapsed();
        (holds, states)
    };

    let (verdict, diagnostics) = if pre_ok && success {
        if status != expected {
            (
                Verdict::WrongStatus {
                    expected: expected.0,
                    actual: status.0,
                },
                format!("expected {expected}, got {status}"),
            )
        } else {
            match observer.post_state()? {
                // The call already executed; only its *verification* is
                // lost. Report the post-condition as untestable rather
                // than judging a half-observed post-state.
                PostState::Partial(faults) => {
                    let fault_list = faults
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join("; ");
                    return Ok(Judgement::degraded(
                        contract,
                        format!("post-snapshot faults: {fault_list}"),
                    ));
                }
                PostState::Observed(post_state) => {
                    match evaluate_post(observer, &post_state, case.report_states) {
                        (Ok(true), states) if states.is_empty() => (Verdict::Pass, String::new()),
                        (Ok(true), states) => {
                            (Verdict::Pass, format!("state: {}", states.join(", ")))
                        }
                        (Ok(false), _) => (
                            Verdict::PostViolation,
                            format!("post-condition of {trigger} violated"),
                        ),
                        (Err(e), _) => (
                            Verdict::ContractError,
                            format!("post-condition evaluation failed: {e}"),
                        ),
                    }
                }
            }
        }
    } else if pre_ok && status.is_gateway_error() {
        // An authorized request came back with a bare 502/503/504 from
        // the wire. Two indistinguishable-by-status stories: an
        // intermediary answered for a sick backend (transport weather),
        // or the cloud itself masked an executed call behind a 5xx to
        // dodge its post-condition check. The post-state disambiguates:
        // a post-condition that HOLDS means the call ran — a
        // status-lying cloud, a violation. Anything else is
        // indistinguishable from weather and degrades (counted, never a
        // false violation).
        let executed = match observer.post_state()? {
            PostState::Partial(_) => None,
            // An evaluation error cannot convict the cloud: treat it as
            // not-proven-executed and degrade below.
            PostState::Observed(post_state) => Some(
                evaluate_post(observer, &post_state, false)
                    .0
                    .unwrap_or(false),
            ),
        };
        if executed != Some(true) {
            return Ok(Judgement::degraded(
                contract,
                if executed.is_none() {
                    format!("forward answered {status} and the post-state is unobservable")
                } else {
                    format!(
                        "forward answered gateway status {status}; post-state consistent with no execution"
                    )
                },
            ));
        }
        (
            Verdict::WrongStatus {
                expected: expected.0,
                actual: status.0,
            },
            format!(
                "cloud answered {status} yet the post-condition holds: \
                 an executed call behind a masking gateway status"
            ),
        )
    } else if pre_ok {
        (
            Verdict::WrongDenial,
            format!("authorized request denied with {status}"),
        )
    } else if success {
        (
            Verdict::WrongAcceptance,
            format!("unauthorized/disallowed request succeeded with {status}"),
        )
    } else {
        (Verdict::Pass, "correctly denied".to_string())
    };

    // A denied monitor probe means the cloud refused admin-authority
    // reads — report it even when the request itself looked correctly
    // handled (otherwise a read-denying mutant hides from the oracle).
    let (verdict, diagnostics) = if verdict == Verdict::Pass && !probe_denials.is_empty() {
        (
            Verdict::WrongDenial,
            format!("monitor probes denied: {}", probe_denials.join("; ")),
        )
    } else {
        (verdict, diagnostics)
    };

    // A violation with no enabled pre clause (e.g. WrongAcceptance: the
    // request should have been denied outright) would otherwise carry
    // no requirement ids at all. Attribute the trigger contract's
    // requirements so the verdict stays traceable to Table I — the kill
    // matrix keys its cells on exactly this.
    let requirements = if verdict.is_violation() && requirements.is_empty() {
        contract.security_requirements.clone()
    } else {
        requirements
    };
    Ok(Judgement {
        verdict,
        requirements,
        diagnostics,
    })
}
