//! Integration tests for the command-line tools, driven through the real
//! binaries: `fwdiff` throughout, and the edit surfaces of `fwclass` and
//! `fwfleet`.

use std::process::Command;

fn fwdiff() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fwdiff"))
}

/// Writes the three-edit file both edit surfaces replay, in a directory of
/// its own under the system temp dir, and returns its path.
fn edit_file(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fw-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("edits.txt");
    std::fs::write(
        &path,
        "insert 0 proto=6, dport=23 -> discard\nremove 1\nswap 0 1\n",
    )
    .expect("write edits");
    path
}

fn repo_path(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn diff_mode_reports_discrepancies_and_exits_nonzero() {
    let out = fwdiff()
        .args([
            repo_path("policies/dmz_v1.fw"),
            repo_path("policies/dmz_v2.fw"),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "differing policies exit 1");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("discrepancy region(s)"), "got: {stdout}");
    assert!(
        stdout.contains("dport=5554"),
        "worm rule impact missing: {stdout}"
    );
    assert!(stdout.contains("10.0.0.53"), "DNS change missing: {stdout}");
}

#[test]
fn identical_policies_exit_zero() {
    let p = repo_path("policies/dmz_v1.fw");
    let out = fwdiff().args([&p, &p]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("semantically equivalent"));
}

#[test]
fn lint_mode_flags_anomalies() {
    let out = fwdiff()
        .args(["--lint".to_owned(), repo_path("policies/messy.fw")])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("shadowing"), "got: {stdout}");
    assert!(stdout.contains("correlation"), "got: {stdout}");
    assert!(stdout.contains("redundant"), "got: {stdout}");
}

#[test]
fn bad_usage_exits_2() {
    let out = fwdiff().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = fwdiff()
        .args(["--frobnicate"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = fwdiff()
        .args(["--schema", "nope", "x", "y"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn missing_file_reports_error() {
    let out = fwdiff()
        .args(["/nonexistent/a.fw", "/nonexistent/b.fw"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("fwdiff:"));
}

#[test]
fn paper_schema_flag_works() {
    // Write two tiny paper-schema policies to a temp dir and diff them.
    let dir = std::env::temp_dir().join("fwdiff-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.fw");
    let b = dir.join("b.fw");
    std::fs::write(&a, "iface=0, dport=25 -> accept\n* -> discard\n").unwrap();
    std::fs::write(&b, "* -> discard\n").unwrap();
    let out = fwdiff()
        .args([
            "--schema".to_owned(),
            "paper".to_owned(),
            a.display().to_string(),
            b.display().to_string(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("dport=25"), "got: {stdout}");
}

#[test]
fn iptables_format_diff() {
    let out = fwdiff()
        .args([
            "--format".to_owned(),
            "iptables".to_owned(),
            repo_path("policies/router_v1.rules"),
            repo_path("policies/router_v2.rules"),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("dport=53"),
        "DNS narrowing missing: {stdout}"
    );
    assert!(
        stdout.contains("dport=25"),
        "mail narrowing missing: {stdout}"
    );
}

#[test]
fn non_comprehensive_policy_names_an_unmatched_packet() {
    // The gap is src in 10.0.0.0/8 with dport above 21; dport=22-65535
    // alone would be a false witness, since src=11.0.0.1 matches rule 3.
    let dir = std::env::temp_dir().join("fwdiff-cli-witness");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("gap.fw");
    let b = dir.join("all.fw");
    std::fs::write(
        &a,
        "src=10.0.0.0/8, dport=0-21 -> accept\n\
         src=0.0.0.0/5 -> discard\n\
         src=11.0.0.0-255.255.255.255 -> accept\n\
         src=8.0.0.0-9.255.255.255 -> accept\n",
    )
    .unwrap();
    std::fs::write(&b, "* -> accept\n").unwrap();
    let out = fwdiff()
        .args([a.display().to_string(), b.display().to_string()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("no rule matches src=167772160, dst=0, sport=0, dport=22"),
        "got: {stderr}"
    );
}

#[test]
fn fwclass_replays_an_edit_file_and_verifies_every_image() {
    let edits = edit_file("fwclass");
    let out = Command::new(env!("CARGO_BIN_EXE_fwclass"))
        .args(["--random", "2000", "--edits"])
        .arg(&edits)
        .arg(repo_path("policies/dmz_v1.fw"))
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_dir_all(edits.parent().expect("edit file has a dir"));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("all verified against the trace"),
        "got: {stdout}"
    );
}

#[test]
fn fwfleet_applies_an_edit_file_to_one_tenant() {
    let edits = edit_file("fwfleet");
    let out = Command::new(env!("CARGO_BIN_EXE_fwfleet"))
        .args([
            "--rules",
            "40",
            "--tenants",
            "4",
            "--percent",
            "5",
            "--random",
            "500",
            "--tenant",
            "1",
            "--edits",
        ])
        .arg(&edits)
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_dir_all(edits.parent().expect("edit file has a dir"));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("swapped: true"), "got: {stdout}");
}
