//! End-to-end tests of the actual CLI binaries (spawned as processes).

use std::path::PathBuf;
use std::process::Command;

fn cmcli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cmcli"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cli-e2e-{}-{name}", std::process::id()))
}

#[test]
fn help_shows_usage_and_exits_zero() {
    let out = cmcli().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("export-cinder"));
}

#[test]
fn unknown_command_fails_with_usage_on_stderr() {
    let out = cmcli().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.contains("USAGE"));
}

#[test]
fn export_validate_contracts_pipeline() {
    let xmi = tmp("pipe.xmi");
    let out = cmcli().arg("export-cinder").arg(&xmi).output().unwrap();
    assert!(out.status.success(), "{out:?}");

    let validate = cmcli().arg("validate").arg(&xmi).output().unwrap();
    assert!(validate.status.success());
    let text = String::from_utf8_lossy(&validate.stdout);
    assert!(text.contains("well-formed"), "{text}");

    let contracts = cmcli().arg("contracts").arg(&xmi).output().unwrap();
    assert!(contracts.status.success());
    let text = String::from_utf8_lossy(&contracts.stdout);
    assert!(text.contains("PreCondition(DELETE"), "{text}");

    std::fs::remove_file(&xmi).unwrap();
}

#[test]
fn slice_and_codegen_via_binaries() {
    let xmi = tmp("s.xmi");
    let sliced = tmp("s-del.xmi");
    let outdir = tmp("s-out");
    assert!(cmcli()
        .arg("export-cinder")
        .arg(&xmi)
        .output()
        .unwrap()
        .status
        .success());
    let slice = cmcli()
        .args([
            "slice",
            xmi.to_str().unwrap(),
            "--method",
            "DELETE",
            sliced.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(slice.status.success(), "{slice:?}");
    assert!(String::from_utf8_lossy(&slice.stdout).contains("kept 3 of 11"));

    let uml2django = Command::new(env!("CARGO_BIN_EXE_uml2django"))
        .args(["GenDemo", xmi.to_str().unwrap()])
        .current_dir(std::env::temp_dir())
        .output()
        .unwrap();
    assert!(uml2django.status.success(), "{uml2django:?}");
    let gen_dir = std::env::temp_dir().join("gendemo");
    assert!(gen_dir.join("gendemo/views.py").exists());

    let codegen = cmcli()
        .args([
            "codegen",
            "CgDemo",
            xmi.to_str().unwrap(),
            outdir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(codegen.status.success(), "{codegen:?}");
    assert!(outdir.join("cgdemo/urls.py").exists());

    std::fs::remove_file(&xmi).unwrap();
    std::fs::remove_file(&sliced).unwrap();
    std::fs::remove_dir_all(&outdir).unwrap();
    std::fs::remove_dir_all(&gen_dir).unwrap();
}

#[test]
fn table1_binary_output() {
    let out = cmcli().arg("table1").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("proj_administrator"));
    assert!(text.contains("\"volume:delete\": \"role:admin\""));
}

/// Run `cmcli serve` with `args`, which must be rejected: exit status 1
/// before the monitor binds (a serve that started would run until
/// killed). Returns stderr.
fn serve_rejects(args: &[&str]) -> String {
    let mut child = cmcli()
        .arg("serve")
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while child.try_wait().unwrap().is_none() {
        if std::time::Instant::now() > deadline {
            child.kill().unwrap();
            panic!("serve {args:?} started instead of failing");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(1), "serve {args:?}: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("cloud monitor"),
        "serve {args:?} bound: {stdout}"
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn serve_rejects_an_unknown_flag_by_name() {
    let err = serve_rejects(&["--port", "0", "--audit-dri", "/tmp/audit"]);
    assert!(err.contains("unknown serve flag `--audit-dri`"), "{err}");
}

#[test]
fn serve_rejects_a_flag_missing_its_value() {
    let err = serve_rejects(&["--audit-dir", "--port", "0"]);
    assert!(err.contains("--audit-dir needs a value"), "{err}");
    let err = serve_rejects(&["--port", "0", "--workers"]);
    assert!(err.contains("--workers needs a value"), "{err}");
}

#[test]
fn serve_rejects_the_removed_minimal_snapshot_policy() {
    let err = serve_rejects(&["--port", "0", "--snapshot-policy", "minimal"]);
    assert!(
        err.contains("unknown snapshot policy `minimal` (expected full | scoped | replica)"),
        "{err}"
    );
}
