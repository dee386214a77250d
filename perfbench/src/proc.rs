//! Child processes: the simulator CLI (`exp run`) and the `serve`
//! service, both run from this benchmark's own executable through its
//! `sim` subcommand, which is the `mtvp-sim` command line verbatim, and
//! engine phase 1 through its `setup` subcommand.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The stderr line prefix a child reports its peak RSS with.
pub const RSS_TAG: &str = "perfbench-vmhwm-kb:";

/// The stderr line prefix a child reports its own run time with:
/// seconds from entering `main` to having written its output, which
/// leaves out process creation and teardown.
pub const TIME_TAG: &str = "perfbench-run-s:";

/// Peak resident set (VmHWM) of process `pid` in KiB.
pub fn vmhwm_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// A finished child.
#[derive(Debug)]
pub struct SimRun {
    /// Host seconds the child ran its command (see [`TIME_TAG`]).
    pub run_s: f64,
    /// Its peak resident set in MiB.
    pub peak_rss_mb: f64,
}

/// Run `exe <sub> <args>` to completion.
///
/// # Errors
/// Returns the child's stderr when it cannot start or exits non-zero.
pub fn run_child(exe: &Path, sub: &str, args: &[String]) -> Result<SimRun, String> {
    let out = Command::new(exe)
        .arg(sub)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!("`{sub} {}` failed: {stderr}", args.join(" ")));
    }
    let tagged = |tag: &str| {
        stderr
            .lines()
            .find_map(|l| l.strip_prefix(tag))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .ok_or(format!("child reported no `{tag}`"))
    };
    Ok(SimRun {
        run_s: tagged(TIME_TAG)?,
        peak_rss_mb: tagged(RSS_TAG)? / 1024.0,
    })
}

/// A running `serve` child.
pub struct Serve {
    child: Child,
    drain: Option<JoinHandle<()>>,
    /// `host:port` it listens on.
    pub addr: String,
}

impl Serve {
    /// Spawn `exe sim serve` on an ephemeral port with `workers` workers
    /// over the cache at `cache_dir`, and wait until `/health` answers
    /// 200. Returns the server and the seconds that took.
    ///
    /// # Errors
    /// Returns a message if the child cannot start or never gets healthy.
    pub fn start(exe: &Path, cache_dir: &Path, workers: usize) -> Result<(Serve, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(exe)
            .args(["sim", "serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .arg("--cache-dir")
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn serve: {e}"))?;
        let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
        let mut addr = None;
        for line in lines.by_ref() {
            let line = line.map_err(|e| format!("serve stderr: {e}"))?;
            if let Some(rest) = line.split("listening on http://").nth(1) {
                addr = rest.split_whitespace().next().map(str::to_string);
                break;
            }
        }
        // Keep draining stderr so the child can never block on a full pipe.
        let drain = std::thread::spawn(move || for _ in lines {});
        let mut serve = Serve {
            child,
            drain: Some(drain),
            addr: String::new(),
        };
        let Some(addr) = addr else {
            serve.stop();
            return Err("serve exited before listening".to_string());
        };
        serve.addr = addr;
        loop {
            if let Ok((200, _)) =
                mtvp_serve::http_request(&serve.addr, "GET", "/health", None, 1000)
            {
                return Ok((serve, t0.elapsed().as_secs_f64()));
            }
            if t0.elapsed() > Duration::from_secs(30) {
                serve.stop();
                return Err("serve never became healthy".to_string());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// GET `path` and return the body of a 200 response.
    ///
    /// # Errors
    /// Returns the status or transport error otherwise.
    pub fn get(&self, path: &str) -> Result<String, String> {
        match mtvp_serve::http_request(&self.addr, "GET", path, None, 10_000)? {
            (200, body) => Ok(body),
            (status, body) => Err(format!("GET {path}: {status} {body}")),
        }
    }

    /// Kill the child and wait until it and the stderr reader have ended.
    pub fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.stop();
    }
}
