//! The `fleet` binary while its sweep workers write to stderr: a trace
//! file that cannot be written makes every run's tracer report the
//! failure from a worker thread, and the fleet must still finish.

use std::io::Read;
use std::process::{Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

#[test]
fn workers_writing_to_stderr_do_not_hang_the_fleet() {
    // A path below a regular file: no process can create it.
    let unwritable = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/trace");
    let mut child = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .args(["--threads", "2", "--filter", "chaos"])
        .env("TIGER_TRACE_FILE", unwritable)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("fleet starts");
    let mut stderr = child.stderr.take().expect("piped stderr");
    let reader = thread::spawn(move || {
        let mut text = String::new();
        stderr.read_to_string(&mut text).expect("stderr is UTF-8");
        text
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("fleet can be polled") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().expect("a hung fleet can be killed");
            child.wait().expect("the killed fleet is reaped");
            panic!("fleet had not exited 60 s after it started");
        }
        thread::sleep(Duration::from_millis(50));
    };
    let stderr = reader.join().expect("stderr reader");
    assert!(status.success(), "fleet failed:\n{stderr}");
    assert!(
        stderr.contains("tiger-trace: failed to write"),
        "the workers never reported the unwritable trace file:\n{stderr}"
    );
}
