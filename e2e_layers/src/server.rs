//! `qv serve` as a child process: spawn until healthy, probe memory, stop.

use std::io::{self, BufRead as _, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use crate::http;

/// Worker threads every server runs with: the machine's two cores.
pub const WORKERS: usize = 2;

/// A running `qv serve`. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    addr: String,
    /// Held open so the server's shutdown message has a reader.
    _stdout: BufReader<ChildStdout>,
    exited: bool,
}

extern "C" {
    fn kill(pid: i32, signal: i32) -> i32;
}

const SIGTERM: i32 = 15;

impl Server {
    /// Starts `qv serve <args>` on an ephemeral port and returns it with
    /// the time from spawn until `GET /healthz` first answered 200.
    pub fn spawn(qv: &Path, args: &[String]) -> io::Result<(Server, Duration)> {
        let started = Instant::now();
        let mut child = Command::new(qv)
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0", "--workers", &WORKERS.to_string()])
            .args(["--keep-alive-max", "1000000"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let addr = match listening_addr(&mut stdout) {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let status = child.wait()?;
                return Err(io::Error::other(format!("qv serve did not start ({status}): {e}")));
            }
        };
        let server = Server { child, addr, _stdout: stdout, exited: false };
        let deadline = started + Duration::from_secs(30);
        loop {
            if matches!(http::get(&server.addr, "/healthz"), Ok(r) if r.status == 200) {
                return Ok((server, started.elapsed()));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("qv serve never answered /healthz"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) of the server so far, in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        peak_rss_mib(&format!("/proc/{}/status", self.pid()))
    }

    /// SIGTERM, then waits for the drain; the status says whether the
    /// server exited cleanly.
    pub fn terminate(mut self) -> io::Result<ExitStatus> {
        // SAFETY: kill(2) takes two integers and touches no memory of
        // this process; the pid is our own unreaped child, so it cannot
        // name another process.
        if unsafe { kill(self.pid() as i32, SIGTERM) } != 0 {
            return Err(io::Error::last_os_error());
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait()? {
                self.exited = true;
                return Ok(status);
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("qv serve did not drain within 30 s of SIGTERM"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// SIGKILL: the crash a durable acknowledgement must survive.
    pub fn crash(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        self.exited = true;
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.exited {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Reads the banner lines up to `listening on http://<addr> …`.
fn listening_addr(stdout: &mut BufReader<ChildStdout>) -> io::Result<String> {
    let mut line = String::new();
    loop {
        line.clear();
        if stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::other("exited before listening"));
        }
        if let Some(rest) = line.split("listening on http://").nth(1) {
            return Ok(rest.split([' ', '/']).next().unwrap_or_default().to_string());
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mib(status_path: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(status_path)?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other(format!("no VmHWM in {status_path}")))?;
    Ok(kib / 1024.0)
}
