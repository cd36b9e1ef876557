//! Building and running the server under test: the shipped `swebd` binary
//! as a child process, with nothing but `--nodes` and `--docroot`.

use std::io::{self, BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ has a parent").to_path_buf()
}

/// Where this package keeps docroots, traces and results (git-ignored).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Build `swebd` from the repository's sources (a no-op when fresh) and
/// return the binary's path. Honors `CARGO_TARGET_DIR`.
pub fn build() -> io::Result<PathBuf> {
    let root = repo_root();
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()?.join(dir),
        None => root.join("target"),
    };
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(["build", "--release", "--offline", "-p", "sweb-server", "--bin", "swebd"])
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", &target)
        // Cargo's progress goes to stderr; stdout stays ours.
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!("building swebd failed: {status}")));
    }
    Ok(target.join("release").join("swebd"))
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// A running swebd. Dropping it kills and reaps the child, so every exit
/// path of the benchmark, panics included, leaves no server behind.
pub struct Swebd {
    child: Child,
    /// Held open so a late print cannot hit a closed pipe.
    stdout: BufReader<ChildStdout>,
    /// HTTP port of each node, in node order.
    pub ports: Vec<u16>,
}

impl Swebd {
    /// Spawn `swebd --nodes N --docroot DIR` and return once it printed
    /// `loadd mesh converged`. Every `SWEB_*` variable is removed from the
    /// child's environment so the shipped defaults are what runs.
    pub fn spawn(bin: &Path, nodes: usize, docroot: &Path) -> io::Result<Swebd> {
        let mut cmd = Command::new(bin);
        cmd.arg("--nodes").arg(nodes.to_string()).arg("--docroot").arg(docroot);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("SWEB_") {
                cmd.env_remove(key);
            }
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::null());
        // SAFETY: `prctl(PR_SET_PDEATHSIG, SIGKILL)` is async-signal-safe,
        // takes no pointers and only sets a flag on the forked child: the
        // kernel then kills swebd if the benchmark dies without unwinding
        // (SIGKILL, abort), where `Drop` cannot run.
        unsafe {
            cmd.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) != 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let mut child = cmd.spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut swebd = Swebd { child, stdout, ports: Vec::new() };
        let mut line = String::new();
        while swebd.stdout.read_line(&mut line)? > 0 {
            if let Some(port) = node_port(&line) {
                swebd.ports.push(port);
            }
            // Either the converged line or swebd's "did not converge
            // within 10s; serving anyway" warning ends start-up; only the
            // first is a start the benchmark accepts.
            if line.starts_with("loadd mesh converged") {
                if swebd.ports.len() != nodes {
                    break;
                }
                return Ok(swebd);
            }
            if line.starts_with("warning:") {
                break;
            }
            line.clear();
        }
        Err(io::Error::other("swebd did not report a converged loadd mesh on every node"))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Swebd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The port in a `  node 2: http://127.0.0.1:35181  (status: …)` line.
fn node_port(line: &str) -> Option<u16> {
    let rest = line.trim_start().strip_prefix("node ")?;
    let url = rest.split_once(": http://")?.1;
    let authority = url.split_ascii_whitespace().next()?;
    authority.rsplit_once(':')?.1.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_lines_yield_ports() {
        let line = "  node 2: http://127.0.0.1:35181  (status: http://127.0.0.1:35181/sweb-status)";
        assert_eq!(node_port(line), Some(35181));
        assert_eq!(node_port("loadd mesh converged; serving (Ctrl-C to stop)"), None);
        assert_eq!(node_port("swebd: 3-node SWEB cluster, policy Sweb"), None);
    }
}
