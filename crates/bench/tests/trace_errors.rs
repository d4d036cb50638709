//! A report binary whose `--trace` file cannot be written prints its
//! tables and then fails, naming the file: `/dev/full` accepts the open
//! and refuses every write.

use std::process::Command;

fn traced_into_a_full_device(bin: &str) {
    let out = Command::new(bin).args(["--trace", "/dev/full"]).output().expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{bin}: {stderr}");
    assert!(stderr.contains("cannot write /dev/full"), "{bin}: {stderr}");
    assert!(!out.stdout.is_empty(), "{bin}: the tables are still printed");
}

#[test]
fn messages_fails_when_its_trace_cannot_be_written() {
    traced_into_a_full_device(env!("CARGO_BIN_EXE_messages"));
}

#[test]
fn buffers_fails_when_its_trace_cannot_be_written() {
    traced_into_a_full_device(env!("CARGO_BIN_EXE_buffers"));
}
