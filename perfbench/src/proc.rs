//! Spawning the CLI and timing it from outside: spawn, first stdout byte,
//! exit, and the peak resident set reported by `wait4`.

use std::io::{self, BufRead, BufReader, Read};
use std::os::unix::process::ExitStatusExt;
use std::process::{Child, ChildStderr, Command, ExitStatus, Stdio};
use std::time::Instant;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s
/// of which the first is `ru_maxrss` (KiB).
#[repr(C)]
struct RUsage {
    _utime: [i64; 2],
    _stime: [i64; 2],
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// A spawned child that is killed and reaped if dropped before
/// [`Proc::reap`], so no error path leaves a process behind.
pub struct Proc {
    child: Child,
    reaped: bool,
}

/// How a child ended.
pub struct Exit {
    pub status: ExitStatus,
    /// Largest resident set of the child and of every descendant it
    /// waited for, MiB.
    pub peak_rss_mb: f64,
}

impl Proc {
    pub fn spawn(cmd: &mut Command) -> io::Result<Proc> {
        Ok(Proc {
            child: cmd.spawn()?,
            reaped: false,
        })
    }

    pub fn child(&mut self) -> &mut Child {
        &mut self.child
    }

    /// Waits for the child to exit and reaps it.
    pub fn reap(mut self) -> io::Result<Exit> {
        let exit = wait_pid(self.child.id())?;
        self.reaped = true;
        Ok(exit)
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = wait_pid(self.child.id());
        }
    }
}

fn wait_pid(pid: u32) -> io::Result<Exit> {
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = RUsage {
        _utime: [0; 2],
        _stime: [0; 2],
        maxrss: 0,
        _rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable locals of the
        // types `wait4(2)` writes (`int` and 64-bit Linux `struct rusage`,
        // mirrored field for field by `RUsage`); `pid` is a child of this
        // process that std has not reaped (std never waits on its own).
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(Exit {
        status: ExitStatus::from_raw(status),
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// One timed batch invocation.
pub struct BatchRun {
    /// Spawn to the first stdout byte, seconds (`None`: no output).
    pub setup_s: Option<f64>,
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    pub exit: Exit,
    pub stdout: Vec<u8>,
    pub stderr: String,
}

/// Runs `cmd` to completion, draining stdout into `stdout` (cleared first;
/// its capacity is reused across runs) and stderr on a helper thread.
pub fn run_batch(cmd: &mut Command, mut stdout: Vec<u8>) -> io::Result<BatchRun> {
    stdout.clear();
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let t0 = Instant::now();
    let mut proc = Proc::spawn(cmd)?;
    let mut out = proc.child().stdout.take().expect("stdout is piped");
    let mut err = proc.child().stderr.take().expect("stderr is piped");
    let mut setup_s = None;
    let stderr = std::thread::scope(|s| -> io::Result<String> {
        let errs = s.spawn(move || {
            let mut text = String::new();
            err.read_to_string(&mut text).map(|_| text)
        });
        let mut chunk = vec![0u8; 1 << 20];
        loop {
            let n = match out.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if setup_s.is_none() {
                setup_s = Some(t0.elapsed().as_secs_f64());
            }
            stdout.extend_from_slice(&chunk[..n]);
        }
        errs.join().expect("stderr drain thread panicked")
    })?;
    let exit = proc.reap()?;
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(BatchRun {
        setup_s,
        wall_s,
        exit,
        stdout,
        stderr,
    })
}

/// A running `serve --port 0` daemon.
pub struct Daemon {
    proc: Proc,
    pub addr: String,
    spawned: Instant,
    /// Spawn to the `listening on` line, seconds.
    pub setup_s: f64,
    stderr: BufReader<ChildStderr>,
}

impl Daemon {
    pub fn start(cli: &str) -> io::Result<Daemon> {
        let mut cmd = Command::new(cli);
        cmd.args(["serve", "--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let spawned = Instant::now();
        let mut proc = Proc::spawn(&mut cmd)?;
        let mut stderr = BufReader::new(proc.child().stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            if stderr.read_line(&mut line)? == 0 {
                return Err(io::Error::other("daemon exited before listening"));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                let setup_s = spawned.elapsed().as_secs_f64();
                return Ok(Daemon {
                    addr: addr.to_owned(),
                    proc,
                    spawned,
                    setup_s,
                    stderr,
                });
            }
        }
    }

    /// Waits for the daemon to exit after a shutdown ack, or kills it when
    /// there was none; returns the exit and spawn-to-exit seconds.
    pub fn finish(mut self, acked: bool) -> io::Result<(Exit, f64)> {
        if !acked {
            let _ = self.proc.child().kill();
        }
        io::copy(&mut self.stderr, &mut io::sink())?;
        let exit = self.proc.reap()?;
        Ok((exit, self.spawned.elapsed().as_secs_f64()))
    }
}
