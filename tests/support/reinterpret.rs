//! Record-then-reinterpret oracle for the compiled contract pipeline.
//!
//! The monitor evaluates contracts only through the compiled programs.
//! The tree-walking interpreter stays the reference: every
//! contract-checked audit record carries the environments the monitor
//! judged, so both evaluators can re-run over them and must agree with
//! each other and with what the monitor recorded.

use cm_audit::{AuditRecord, ReplayContext, VerdictCode};
use cm_contracts::{CompiledContractSet, ContractSet};
use cm_model::{HttpMethod, Trigger};
use cm_ocl::{EnvView, EvalScratch};

/// Re-evaluate every `ReplayContext::Checked` record with the
/// interpreter and with the compiled programs of `contracts`, asserting
/// that the pre-condition, exercised requirements, post-condition and
/// matching states agree, and that they explain the recorded
/// requirement ids and `state:` diagnostics. Returns how many records
/// were checked.
pub fn reinterpret(contracts: &ContractSet, records: &[AuditRecord]) -> usize {
    let compiled = CompiledContractSet::compile(contracts);
    let syms = compiled.symbols();
    let mut scratch = EvalScratch::new();
    let mut checked = 0;
    for record in records {
        let ReplayContext::Checked {
            pre_env, post_env, ..
        } = &record.context
        else {
            continue;
        };
        let seq = record.seq;
        let (method, resource) = record
            .trigger
            .as_ref()
            .expect("checked records name a trigger");
        let method: HttpMethod = method.parse().expect("recorded method parses");
        let idx = compiled
            .index_for(&Trigger::new(method, resource.as_str()))
            .expect("checked trigger is modelled");
        let contract = &contracts.contracts[idx];
        let program = &compiled.contracts()[idx];

        let pre = pre_env.to_navigator();
        let pre_view = EnvView::from_navigator(&pre, syms);
        let interp_pre = contract.evaluate_pre(&pre);
        program.begin_pre(&mut scratch);
        let compiled_pre = program.evaluate_pre(syms, &pre_view, &mut scratch);
        assert_eq!(
            interp_pre.is_ok(),
            compiled_pre.is_ok(),
            "seq {seq}: pre errors"
        );
        assert_eq!(
            interp_pre.as_ref().ok(),
            compiled_pre.as_ref().ok(),
            "seq {seq}: pre"
        );

        let exercised = contract.exercised_requirements(&pre).unwrap_or_default();
        let mut compiled_reqs: Vec<String> = Vec::new();
        for i in program
            .enabled_clause_indices(syms, &pre_view, &mut scratch)
            .unwrap_or_default()
        {
            for r in &contract.clauses[i].security_requirements {
                if !compiled_reqs.contains(r) {
                    compiled_reqs.push(r.clone());
                }
            }
        }
        assert_eq!(
            exercised, compiled_reqs,
            "seq {seq}: exercised requirements"
        );
        // Blocked and unchecked requests, and violations no enabled
        // clause explains, carry the whole contract's requirements.
        let whole_contract = matches!(
            record.verdict,
            VerdictCode::PreBlocked | VerdictCode::Degraded
        ) || (record.verdict.is_violation() && exercised.is_empty());
        let expected_reqs = if whole_contract {
            &contract.security_requirements
        } else if record.verdict == VerdictCode::ContractError && interp_pre.is_err() {
            &Vec::new()
        } else {
            &exercised
        };
        assert_eq!(
            &record.requirements, expected_reqs,
            "seq {seq}: recorded requirements"
        );

        if let Some(post_env) = post_env {
            let post = post_env.to_navigator();
            let post_view = EnvView::from_navigator(&post, syms);
            let interp_post = contract.evaluate_post(&post, &pre);
            program.begin_post(&mut scratch);
            let compiled_post = program.evaluate_post(syms, &post_view, &pre_view, &mut scratch);
            assert_eq!(
                interp_post.as_ref().ok(),
                compiled_post.as_ref().ok(),
                "seq {seq}: post"
            );

            let interp_states = contracts.states_matching(&post).unwrap_or_default();
            let compiled_states: Vec<String> = program
                .matching_state_indices_post(syms, &post_view, &pre_view, &mut scratch)
                .unwrap_or_default()
                .into_iter()
                .map(|i| compiled.state_names()[i].clone())
                .collect();
            assert_eq!(interp_states, compiled_states, "seq {seq}: states");
            // A pass judged on a post-state names the states that hold.
            if record.verdict == VerdictCode::Pass {
                let expected = if interp_states.is_empty() {
                    String::new()
                } else {
                    format!("state: {}", interp_states.join(", "))
                };
                assert_eq!(record.diagnostics, expected, "seq {seq}: state diagnostics");
            }
        }
        checked += 1;
    }
    checked
}
