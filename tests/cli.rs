//! Integration tests for the command-line tools, driven through the real
//! binaries: `fwdiff` throughout, the edit surfaces of `fwclass` and
//! `fwfleet`, and `fwclass`'s trace files.

use std::process::Command;

fn fwdiff() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fwdiff"))
}

/// A directory of its own under the system temp dir for one test's files.
fn test_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fw-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Writes the three-edit file both edit surfaces replay, in a directory of
/// its own under the system temp dir, and returns its path.
fn edit_file(tag: &str) -> std::path::PathBuf {
    let path = test_dir(tag).join("edits.txt");
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
    let out = fwdiff()
        .args(["--jobs", "2", "a", "b"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "--jobs is not a flag");
}

/// The whole report, byte for byte, and the exit code of four diffs over
/// the fixture policies and of one lint (pairwise anomalies and
/// redundant rules), against the files in `tests/golden/`.
#[test]
fn diff_reports_match_the_golden_files() {
    let runs: [(&[&str], &str, i32); 5] = [
        (
            &["policies/dmz_v1.fw", "policies/dmz_v2.fw"],
            "fwdiff_dmz_v1_dmz_v2.txt",
            1,
        ),
        (
            &["policies/dmz_v1.fw", "policies/messy.fw"],
            "fwdiff_dmz_v1_messy.txt",
            1,
        ),
        (
            &["policies/dmz_v2.fw", "policies/messy.fw"],
            "fwdiff_dmz_v2_messy.txt",
            1,
        ),
        (
            &[
                "--format",
                "iptables",
                "policies/router_v1.rules",
                "policies/router_v2.rules",
            ],
            "fwdiff_router_v1_router_v2_iptables.txt",
            1,
        ),
        (&["--lint", "policies/messy.fw"], "fwdiff_lint_messy.txt", 0),
    ];
    for (args, golden, code) in runs {
        let out = fwdiff()
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(code), "{golden}: exit code");
        let expect =
            std::fs::read(repo_path(&format!("tests/golden/{golden}"))).expect("golden file");
        assert!(
            out.stdout == expect,
            "{golden}: report differs\n--- got\n{}\n--- expected\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&expect)
        );
    }
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
fn malformed_line_is_reported_by_number() {
    let dir = test_dir("malformed");
    let bad = dir.join("bad.fw");
    std::fs::write(
        &bad,
        "# line 1 is a comment\n\
         dport=22, proto=6 -> discard\n\
         dport=80 proto=6 -> accept\n\
         * -> accept\n",
    )
    .expect("write policy");
    let out = fwdiff()
        .args([bad.display().to_string(), repo_path("policies/dmz_v1.fw")])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("line 3"), "got: {stderr}");
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

/// A fleet of 661-rule tenants saves and reloads. The store compiles each
/// distinct policy from its fast, already reduced diagram, and the load
/// cross-checks one tenant per stored policy.
#[test]
fn fwfleet_saves_and_reloads_a_fleet_of_large_policies() {
    let dir = test_dir("fleet-store").join("fleet");
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_fwfleet"))
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(0),
            "fwfleet {args:?}\nstdout: {}\nstderr: {}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    run(&["--rules", "661", "--tenants", "8", "--save-dir", dir_arg]);
    run(&["--load-dir", dir_arg, "--random", "2000", "--verify"]);
    let _ = std::fs::remove_dir_all(dir.parent().expect("fleet dir has a parent"));
}

/// The sampling profiler and the specialized twin it fed are gone: the
/// lane kernel is the image's one batch form, so `--profile` is an
/// unknown flag.
#[test]
fn fwclass_profile_is_an_unknown_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_fwclass"))
        .args(["--random", "100", "--profile"])
        .arg(repo_path("policies/dmz_v2.fw"))
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "an unknown flag is a usage error"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown flag --profile"), "got: {stderr}");
}

/// `fwclass --threads` prints the workers the lane kernel runs: the
/// request clamped to this machine's cores and to one 32-packet chunk per
/// worker.
#[test]
fn fwclass_prints_the_worker_count_it_runs() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // 64 packets make two chunks, so 8 threads run at most 2 anywhere.
    for (packets, runs) in [(4096, cores.min(8)), (64, cores.min(2))] {
        let out = Command::new(env!("CARGO_BIN_EXE_fwclass"))
            .args(["--random", &packets.to_string(), "--threads", "8"])
            .arg(repo_path("policies/dmz_v2.fw"))
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert_eq!(out.status.code(), Some(0), "got: {stdout}");
        let label = match runs {
            1 => "compiled matcher (lanes)".to_string(),
            n => format!("compiled matcher (lanes, {n} thread(s))"),
        };
        assert!(stdout.contains(&label), "{packets} packets: got {stdout}");
    }
}

fn fwclass_with_trace(extra: &[&str], trace: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fwclass"))
        .args(extra)
        .arg(trace)
        .arg(repo_path("policies/dmz_v2.fw"))
        .output()
        .expect("binary runs")
}

#[test]
fn fwclass_replays_a_saved_trace_file_and_checks_it() {
    let dir = test_dir("trace-round-trip");
    let trace = dir.join("zipf.trace");
    let saved = fwclass_with_trace(&["--zipf", "3000", "--save-trace"], &trace);
    let replayed = fwclass_with_trace(&["--engine", "auto", "--check", "--trace"], &trace);
    let _ = std::fs::remove_dir_all(&dir);
    for out in [&saved, &replayed] {
        assert_eq!(
            out.status.code(),
            Some(0),
            "stdout: {}\nstderr: {}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let saved = String::from_utf8(saved.stdout).unwrap();
    assert!(saved.contains("wrote trace (3000 packets)"), "got: {saved}");
    let replayed = String::from_utf8(replayed.stdout).unwrap();
    assert!(
        replayed.contains("== compiled matcher on all 3000 packets"),
        "got: {replayed}"
    );
}

#[test]
fn fwclass_rejects_a_trace_file_with_trailing_bytes() {
    let dir = test_dir("trace-trailing");
    let trace = dir.join("random.trace");
    let saved = fwclass_with_trace(&["--random", "100", "--save-trace"], &trace);
    assert_eq!(saved.status.code(), Some(0));
    let mut bytes = std::fs::read(&trace).expect("saved trace");
    bytes.extend_from_slice(&[0xAB; 3]);
    std::fs::write(&trace, &bytes).expect("rewrite trace");
    let out = fwclass_with_trace(&["--trace"], &trace);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(1), "a damaged trace exits 1");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("parse error") && stderr.contains("trace body is 4003 bytes"),
        "got: {stderr}"
    );
}
