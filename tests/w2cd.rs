//! Integration tests for the `w2cd` compile-service front end: the
//! stdin line protocol (EOF drain, duplicate-name rejection, breaker
//! reset), argument validation, and the `--listen` socket mode.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Once;

fn w2cd() -> Command {
    static BUILD: Once = Once::new();
    BUILD.call_once(|| {
        let status = Command::new(env!("CARGO"))
            .args(["build", "-p", "warp-compiler", "--bin", "w2cd"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building w2cd failed");
    });
    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.push("target");
    path.push("debug");
    path.push("w2cd");
    Command::new(path)
}

const DOUBLE: &str = "module double (xs in, ys out)\nfloat xs[4];\nfloat ys[4];\n\
    cellprogram (cid : 0 : 0)\nbegin\n  function f\n  begin\n    float v;\n    int i;\n\
    for i := 0 to 3 do begin\n      receive (L, X, v, xs[i]);\n      send (R, X, v + v, ys[i]);\n\
    end;\n  end\n  call f;\nend\n";

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("w2cd-test-{name}-{}.w2", std::process::id()));
    std::fs::write(&p, contents).expect("write temp source");
    p
}

/// Pipes `input` into a stdin-mode session and returns (stdout, ok).
fn session(input: &str) -> (String, bool) {
    session_with(&[], input)
}

/// As [`session`], with extra command-line `args`.
fn session_with(args: &[&str], input: &str) -> (String, bool) {
    let out = w2cd()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .and_then(|mut child| {
            child
                .stdin
                .take()
                .expect("stdin")
                .write_all(input.as_bytes())?;
            child.wait_with_output()
        })
        .expect("w2cd runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    )
}

#[test]
fn eof_drains_outstanding_jobs_exactly_once() {
    // Queue the corpus and hang up without `run`: the daemon must
    // flush the batch exactly once and exit clean.
    let (stdout, ok) = session("corpus all\n");
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("draining 5 outstanding job(s) at EOF"),
        "{stdout}"
    );
    assert_eq!(
        stdout.matches("draining").count(),
        1,
        "drain ran more than once: {stdout}"
    );
    assert_eq!(
        stdout.matches("batch:").count(),
        1,
        "batch summary printed more than once: {stdout}"
    );
    assert!(
        stdout.contains("batch: 5 ok (0 degraded), 0 failed, 0 timed out, 0 quarantined"),
        "{stdout}"
    );
}

#[test]
fn eof_drain_exit_code_reflects_the_drained_batch() {
    // A failing job collected by the EOF drain must still fail the
    // session even though no explicit `run` was issued.
    let src = write_temp(
        "drain-bad",
        "module broken (a in)\nfloat a[4];\nnot w2 at all\n",
    );
    let (stdout, ok) = session(&format!("submit willfail {}\n", src.display()));
    let _ = std::fs::remove_file(src);
    assert!(!ok, "drained failure must be reflected in the exit code");
    assert!(
        stdout.contains("draining 1 outstanding job(s) at EOF"),
        "{stdout}"
    );
    assert!(stdout.contains("1 failed"), "{stdout}");
}

#[test]
fn reset_of_unknown_name_reports_no_history() {
    let (stdout, ok) = session("reset nosuchjob\nquit\n");
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("no breaker history for nosuchjob"),
        "{stdout}"
    );
}

#[test]
fn duplicate_outstanding_name_is_rejected() {
    let src = write_temp("dup", DOUBLE);
    let input = format!(
        "submit samename {p}\nsubmit samename {p}\nrun\nsubmit samename {p}\nrun\nquit\n",
        p = src.display()
    );
    let (stdout, ok) = session(&input);
    let _ = std::fs::remove_file(src);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("error: duplicate name `samename` already outstanding"),
        "{stdout}"
    );
    // Exactly one rejection: the resubmit after `run` collected the
    // first job is fine.
    assert_eq!(stdout.matches("duplicate name").count(), 1, "{stdout}");
    assert_eq!(
        stdout
            .matches("batch: 1 ok (0 degraded), 0 failed, 0 timed out, 0 quarantined")
            .count(),
        2,
        "{stdout}"
    );
}

#[test]
fn workers_flag_rejects_garbage_at_parse_time() {
    let out = w2cd()
        .args(["--workers", "banana"])
        .output()
        .expect("w2cd runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: --workers expects a non-negative integer, got `banana`"),
        "{stderr}"
    );
}

#[test]
fn workers_flag_resolves_zero_to_available_parallelism() {
    let (stdout, ok) = session("health\nquit\n");
    assert!(ok, "{stdout}");
    // `--workers` defaults to 0 = auto; the banner and health line
    // must report the resolved count, never 0.
    let banner = stdout.lines().next().expect("banner");
    assert!(banner.starts_with("w2cd ready ("), "{stdout}");
    assert!(!banner.contains("workers 0"), "{stdout}");
    let health = stdout
        .lines()
        .find(|l| l.starts_with("healthy "))
        .expect("health line");
    assert!(health.contains("workers="), "{stdout}");
    assert!(!health.contains("workers=0"), "{stdout}");
}

#[test]
fn health_reports_degraded_when_the_store_cannot_open() {
    // A store dir that is a regular file cannot be opened: the daemon
    // must come up memory-only and *say so* — in the banner's health
    // line and in `health` — instead of claiming to be healthy.
    let blocker = write_temp("store-blocker", "not a directory");
    let out = w2cd()
        .args(["--store-dir", blocker.to_str().expect("utf-8 path")])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .and_then(|mut child| {
            child
                .stdin
                .take()
                .expect("stdin")
                .write_all(b"health\nquit\n")?;
            child.wait_with_output()
        })
        .expect("w2cd runs");
    let _ = std::fs::remove_file(blocker);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains("health: degraded"),
        "banner must carry the verdict: {stdout}"
    );
    let health = stdout
        .lines()
        .find(|l| l.starts_with("degraded "))
        .unwrap_or_else(|| panic!("no degraded health line in: {stdout}"));
    assert!(health.contains("memory-only"), "{health}");
    assert!(
        !stdout.lines().any(|l| l.starts_with("healthy ")),
        "daemon with a failed store must not claim healthy: {stdout}"
    );
}

#[test]
fn health_reports_degraded_when_the_breaker_quarantines() {
    // Trip the circuit breaker with a deterministic front-end failure;
    // `health` must drop to degraded and name the quarantine.
    let src = write_temp("health-bad", "module broken (a in)\nnot w2\n");
    let input = format!(
        "health\nsubmit willfail {}\nrun\nhealth\nquit\n",
        src.display()
    );
    let out = w2cd()
        .args(["--breaker-threshold", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .and_then(|mut child| {
            child
                .stdin
                .take()
                .expect("stdin")
                .write_all(input.as_bytes())?;
            child.wait_with_output()
        })
        .expect("w2cd runs");
    let _ = std::fs::remove_file(src);
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The failing batch makes the session exit non-zero; that is the
    // point. Health must have moved healthy → degraded across it.
    assert!(!out.status.success(), "{stdout}");
    let levels: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("healthy ") || l.starts_with("degraded "))
        .collect();
    assert_eq!(levels.len(), 2, "{stdout}");
    assert!(levels[0].starts_with("healthy "), "{stdout}");
    assert!(levels[1].starts_with("degraded "), "{stdout}");
    assert!(
        levels[1].contains("quarantined by the circuit breaker"),
        "{stdout}"
    );
}

#[test]
fn health_reports_a_wedge_healed_by_the_background_supervisor() {
    // The background scanner on the real clock: a job that spins
    // without polling its cancel token is wedged after the grace, its
    // worker is replaced, and `health` says so honestly.
    let src = write_temp("health-spin", "");
    let input = format!(
        "health\nsubmit hang!spin {}\nrun\nhealth\nquit\n",
        src.display()
    );
    let (stdout, ok) = session_with(
        &[
            "--supervise-grace-ms",
            "200",
            "--chaos-spin-marker",
            "!spin",
        ],
        &input,
    );
    let _ = std::fs::remove_file(src);
    assert!(!ok, "a wedged batch must fail the session: {stdout}");
    let levels: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("healthy ") || l.starts_with("degraded "))
        .collect();
    assert_eq!(levels.len(), 2, "{stdout}");
    // Before the wedge: honest healthy. After: the batch reports the
    // wedge, the pool heals, and health says degraded — with the
    // respawn count proving zero workers were lost.
    assert!(levels[0].starts_with("healthy "), "{stdout}");
    assert!(stdout.contains(", 1 wedged"), "{stdout}");
    assert!(levels[1].contains("wedged=1 respawned=1"), "{stdout}");
    assert!(stdout.contains("all replaced: 1 respawn(s)"), "{stdout}");
}

#[test]
fn socket_mode_serves_a_client_and_shuts_down() {
    let mut sock = std::env::temp_dir();
    sock.push(format!("w2cd-test-sock-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);

    let mut child = w2cd()
        .args(["--listen", sock.to_str().expect("utf-8 path")])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("w2cd spawns");

    // Wait for the listener to come up.
    let mut tries = 0;
    let stream = loop {
        match std::os::unix::net::UnixStream::connect(&sock) {
            Ok(s) => break s,
            Err(_) if tries < 100 => {
                tries += 1;
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Err(e) => panic!("cannot connect to {}: {e}", sock.display()),
        }
    };

    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("banner");
    assert!(line.starts_with("w2cd ready ("), "{line}");

    writer.write_all(b"corpus polynomial\nrun\n").expect("send");
    let mut saw_batch = false;
    while !saw_batch {
        line.clear();
        assert_ne!(reader.read_line(&mut line).expect("read"), 0, "early EOF");
        if line.starts_with("batch: ") {
            assert!(line.contains("1 ok"), "{line}");
            saw_batch = true;
        }
    }

    writer.write_all(b"shutdown\n").expect("send shutdown");
    let status = child.wait().expect("w2cd exits");
    assert!(status.success(), "socket session must exit clean");
    assert!(!sock.exists(), "socket file must be removed on shutdown");
}

#[test]
fn kill_dash_nine_then_restart_recovers_the_persistent_store() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("w2cd-test-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // First life: compile the corpus into the persistent tier, then
    // die without any shutdown handshake (SIGKILL — no drop glue, no
    // flush, exactly the crash the store must survive).
    let mut child = w2cd()
        .args(["--store-dir", dir.to_str().expect("utf-8 path")])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("w2cd spawns");
    let mut stdin = child.stdin.take().expect("stdin");
    stdin
        .write_all(b"corpus all\nrun\nstore\n")
        .expect("send work");
    stdin.flush().expect("flush");
    // Keep stdin open: EOF would trigger the orderly drain-and-exit
    // path, and this test is about the disorderly one.
    let mut reader = BufReader::new(child.stdout.take().expect("stdout"));
    let mut line = String::new();
    let store_line = loop {
        line.clear();
        assert_ne!(reader.read_line(&mut line).expect("read"), 0, "early EOF");
        if line.starts_with("store: dir=") {
            break line.clone();
        }
    };
    assert!(store_line.contains("puts=5"), "{store_line}");
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");
    drop(stdin);

    // Second life: every artifact recovers, nothing is quarantined,
    // and the same corpus is served from disk without recompiling.
    let out = w2cd()
        .args(["--store-dir", dir.to_str().expect("utf-8 path")])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .and_then(|mut child| {
            child
                .stdin
                .take()
                .expect("stdin")
                .write_all(b"corpus all\nrun\ncache\nquit\n")?;
            child.wait_with_output()
        })
        .expect("w2cd restarts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains("store: 5 artifact(s) recovered, 0 corrupt quarantined"),
        "{stdout}"
    );
    assert!(
        stdout.contains("batch: 5 ok (0 degraded), 0 failed, 0 timed out, 0 quarantined"),
        "{stdout}"
    );
    let disk = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("disk: "))
        .expect("disk stats line");
    assert!(disk.contains("artifacts=5"), "{disk}");
    assert!(disk.contains("hits=5"), "{disk}");
    assert!(disk.contains("quarantined=0"), "{disk}");

    let _ = std::fs::remove_dir_all(&dir);
}
