//! One op = one child process, timed spawn to exit, with its CPU time
//! and peak resident set taken from `wait4`'s rusage.

use std::io::Read;
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::time::Instant;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs, of
/// which only `ru_maxrss` (kilobytes) is read here.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    // Declared by hand over the libc that std already links, so the
    // benchmark needs no dependency for it.
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one child did.
#[derive(Debug, Clone)]
pub struct ChildRun {
    /// Wall seconds from just before spawn to just after exit.
    pub wall_s: f64,
    /// User plus system CPU seconds of the child.
    pub cpu_s: f64,
    /// Peak resident set of the child, megabytes.
    pub peak_rss_mb: f64,
    /// Exit code; `None` when a signal ended the child.
    pub exit: Option<i32>,
    /// Everything the child wrote to standard output.
    pub stdout: String,
}

/// Runs `program args…` to completion. Standard error is inherited, so
/// a child's diagnostics reach the person running the benchmark.
pub fn run(program: &Path, args: &[String]) -> std::io::Result<ChildRun> {
    let started = Instant::now();
    let mut child = Command::new(program).args(args).stdout(Stdio::piped()).spawn()?;
    let mut stdout = String::new();
    // Returns at end of file, i.e. once the child has closed its output.
    child.stdout.take().expect("stdout was piped").read_to_string(&mut stdout)?;
    let mut status = 0i32;
    let mut ru = Rusage::default();
    // SAFETY: `status` and `ru` are live, writable and of the layout the
    // kernel fills in (`Rusage` mirrors 64-bit Linux's `struct rusage`);
    // the pid is this process's own unreaped child, and `child.wait()` is
    // never called afterwards, so the pid is reaped exactly once.
    let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
    let wall_s = started.elapsed().as_secs_f64();
    if reaped < 0 {
        return Err(std::io::Error::last_os_error());
    }
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    Ok(ChildRun {
        wall_s,
        cpu_s: secs(&ru.ru_utime) + secs(&ru.ru_stime),
        peak_rss_mb: ru.ru_maxrss as f64 / 1024.0,
        exit: ExitStatus::from_raw(status).code(),
        stdout,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_exit_code_output_and_nonzero_usage() {
        let r = run(Path::new("/bin/sh"), &["-c".into(), "echo hi; exit 3".into()]).unwrap();
        assert_eq!(r.exit, Some(3));
        assert_eq!(r.stdout, "hi\n");
        assert!(r.wall_s > 0.0 && r.peak_rss_mb > 0.0);
    }
}
