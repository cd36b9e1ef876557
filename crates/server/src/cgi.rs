//! Legacy CGI: the closure ABI and the demoted fork-per-request fallback.
//!
//! NCSA httpd executed programs under `/cgi-bin/` by forking a process
//! per request. This server's dynamic path is the in-process
//! [`crate::dynamic::DynamicHandler`] ABI; what remains here is
//!
//! * [`CgiProgram`], the original closure signature, which rides the new
//!   ABI through [`crate::dynamic::FnHandler`] /
//!   [`crate::dynamic::DynamicRegistry::register_fn`];
//! * [`ForkCgiHandler`], the fork-per-request path demoted to *one
//!   handler implementation* behind the same trait — kept for untrusted
//!   external programs and as the paper's NCSA baseline (the fork vs
//!   in-process A/B is in EXPERIMENTS.md). A child still running after
//!   `DEFAULT_FORK_BUDGET` is killed *and reaped*, and the request
//!   fails definitively with 503 + `Retry-After` instead of hanging.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sweb_http::{Request, Response, StatusCode};

use crate::dynamic::{DynamicHandler, HandlerCtx};

/// A CGI program: request (and POST body, empty for GET) in, response out.
pub type CgiProgram = Arc<dyn Fn(&Request, &[u8]) -> Response + Send + Sync>;

/// Budget for every forked child: generous, but bounded — no child
/// outlives the server's patience. (The reactor separately answers 503
/// for a request whose own budget ran out while the child was running.)
const DEFAULT_FORK_BUDGET: Duration = Duration::from_secs(2);

/// How a forked child's run ended.
#[derive(Debug)]
enum ForkOutcome {
    /// Child exited in time; its stdout parsed into a response.
    Done(Response),
    /// Child overran the budget and was killed (and reaped).
    TimedOut,
    /// Child could not be spawned or piped. The error is carried for
    /// `Debug` diagnostics only.
    Failed(#[allow(dead_code)] std::io::Error),
}

/// The fork-per-request CGI path as one [`DynamicHandler`]: spawns the
/// configured program with the standard CGI environment
/// (`QUERY_STRING`, `REQUEST_METHOD`, `CONTENT_LENGTH`, ...), feeds the
/// POST body on stdin, and parses an optional CGI header block
/// (`Content-Type: ...`) off stdout. Responses are never cached — an
/// external program may have side effects the server cannot see.
pub struct ForkCgiHandler {
    program: PathBuf,
}

impl ForkCgiHandler {
    /// A handler that forks `program` per request.
    pub fn new(program: impl Into<PathBuf>) -> Self {
        ForkCgiHandler { program: program.into() }
    }

    /// Spawn the child and wait at most `budget` for it. Split from
    /// [`DynamicHandler::handle`] so the kill-and-reap path is unit
    /// testable without a live node.
    fn run(&self, req: &Request, body: &[u8], budget: Duration) -> ForkOutcome {
        let mut cmd = Command::new(&self.program);
        cmd.env("GATEWAY_INTERFACE", "CGI/1.1")
            .env("SERVER_SOFTWARE", "SWEB/0.1")
            .env("REQUEST_METHOD", crate::handler::method_str(req.method))
            .env("SCRIPT_NAME", req.path().unwrap_or_default())
            .env("QUERY_STRING", req.query().unwrap_or(""))
            .env("CONTENT_LENGTH", body.len().to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = match cmd.spawn() {
            Ok(c) => c,
            Err(e) => return ForkOutcome::Failed(e),
        };
        // Feed the body and close stdin so the child sees EOF. A child
        // ignoring its stdin while we block on a full pipe would deadlock;
        // bodies here are small (requests are bounded upstream), so a
        // single write fits the pipe buffer in practice — and the read
        // side below runs on its own thread regardless.
        if let Some(mut stdin) = child.stdin.take() {
            let _ = stdin.write_all(body);
        }
        // Drain stdout on a separate thread: the parent polls the child's
        // exit below without reading, and a child producing more than a
        // pipe buffer would otherwise block forever (a self-inflicted
        // "hang" the deadline would then kill).
        let mut stdout = child.stdout.take();
        let reader = std::thread::spawn(move || {
            let mut out = Vec::new();
            if let Some(pipe) = stdout.as_mut() {
                let _ = pipe.read_to_end(&mut out);
            }
            out
        });
        let t0 = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    let out = reader.join().unwrap_or_default();
                    if !status.success() {
                        return ForkOutcome::Done(Response::error(StatusCode::InternalServerError));
                    }
                    return ForkOutcome::Done(parse_cgi_output(&out));
                }
                Ok(None) => {
                    if t0.elapsed() >= budget {
                        // Kill and *reap*: `kill()` sends SIGKILL, `wait()`
                        // collects the zombie so the child cannot outlive
                        // the request it was forked for. The reader thread
                        // is NOT joined here: a grandchild (e.g. `sleep`
                        // forked by a shell script) may inherit the stdout
                        // pipe and hold it open past the kill — the
                        // detached thread exits when the pipe finally
                        // closes, and its buffer is discarded either way.
                        let _ = child.kill();
                        let _ = child.wait();
                        drop(reader);
                        return ForkOutcome::TimedOut;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    drop(reader);
                    return ForkOutcome::Failed(e);
                }
            }
        }
    }
}

impl DynamicHandler for ForkCgiHandler {
    fn class(&self) -> &'static str {
        "fork"
    }

    fn handle(&self, _ctx: &HandlerCtx<'_>, req: &Request, body: &[u8]) -> Response {
        match self.run(req, body, DEFAULT_FORK_BUDGET) {
            ForkOutcome::Done(resp) => resp,
            ForkOutcome::TimedOut => {
                let mut resp = Response::error(StatusCode::ServiceUnavailable);
                resp.headers.set("Retry-After", "1");
                resp.headers.set("Connection", "close");
                resp
            }
            ForkOutcome::Failed(_) => Response::error(StatusCode::InternalServerError),
        }
    }
}

/// Parse a CGI program's stdout: an optional header block terminated by a
/// blank line (only `Content-Type` is honored), then the body. Programs
/// that emit no header block get `text/plain`.
fn parse_cgi_output(out: &[u8]) -> Response {
    let (headers, body) = match split_header_block(out) {
        Some((h, b)) => (h, b),
        None => (&[][..], out),
    };
    let mut ctype = "text/plain".to_string();
    for line in headers.split(|&b| b == b'\n') {
        let line = std::str::from_utf8(line).unwrap_or("").trim_end_matches('\r');
        if let Some(v) = line
            .split_once(':')
            .filter(|(k, _)| k.eq_ignore_ascii_case("content-type"))
            .map(|(_, v)| v.trim())
        {
            v.clone_into(&mut ctype);
        }
    }
    Response::ok(body.to_vec(), &ctype)
}

/// Find the CGI header/body split: the first `\n\n` or `\r\n\r\n`,
/// provided the bytes before it look like header lines (contain `:`).
fn split_header_block(out: &[u8]) -> Option<(&[u8], &[u8])> {
    let mut i = 0;
    while i < out.len() {
        if out[i] == b'\n' {
            let (sep_end, header_end) = if out[i + 1..].first() == Some(&b'\r')
                && out.get(i + 2) == Some(&b'\n')
            {
                (i + 3, i)
            } else if out.get(i + 1) == Some(&b'\n') {
                (i + 2, i)
            } else {
                i += 1;
                continue;
            };
            let head = &out[..header_end];
            let looks_like_headers = !head.is_empty()
                && head
                    .split(|&b| b == b'\n')
                    .all(|l| l.is_empty() || l.contains(&b':'));
            return looks_like_headers.then(|| (head, &out[sep_end..]));
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweb_http::{Headers, Method};

    fn req(target: &str) -> Request {
        Request {
            method: Method::Get,
            target: target.into(),
            version: "HTTP/1.0".into(),
            headers: Headers::new(),
        }
    }

    fn script(name: &str, text: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sweb-cgi-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
        }
        path
    }

    #[test]
    fn fork_runs_a_script_with_cgi_env() {
        let sh = script(
            "env.sh",
            "#!/bin/sh\nprintf 'Content-Type: text/html\\n\\nq=%s m=%s' \"$QUERY_STRING\" \"$REQUEST_METHOD\"\n",
        );
        let h = ForkCgiHandler::new(&sh);
        let out = h.run(&req("/cgi-bin/env?x=1"), b"", Duration::from_secs(5));
        match out {
            ForkOutcome::Done(resp) => {
                assert_eq!(resp.status, StatusCode::Ok);
                assert_eq!(std::str::from_utf8(&resp.body).unwrap(), "q=x=1 m=GET");
                assert_eq!(resp.headers.get("content-type"), Some("text/html"));
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn fork_feeds_post_body_on_stdin() {
        let sh = script("cat.sh", "#!/bin/sh\ncat\n");
        let h = ForkCgiHandler::new(&sh);
        match h.run(&req("/cgi-bin/cat"), b"posted-bytes", Duration::from_secs(5)) {
            ForkOutcome::Done(resp) => {
                assert_eq!(&resp.body[..], b"posted-bytes");
                assert_eq!(resp.headers.get("content-type"), Some("text/plain"));
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn hung_child_is_killed_and_reaped_within_budget() {
        let sh = script("hang.sh", "#!/bin/sh\nsleep 30\n");
        let h = ForkCgiHandler::new(&sh);
        let t0 = Instant::now();
        let out = h.run(&req("/cgi-bin/hang"), b"", Duration::from_millis(100));
        assert!(matches!(out, ForkOutcome::TimedOut), "expected timeout, got {out:?}");
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "kill+reap must not wait out the child's sleep"
        );
    }

    #[test]
    fn missing_program_fails_cleanly() {
        let h = ForkCgiHandler::new("/nonexistent/sweb-cgi-test");
        assert!(matches!(
            h.run(&req("/cgi-bin/x"), b"", Duration::from_secs(1)),
            ForkOutcome::Failed(_)
        ));
    }

    #[test]
    fn cgi_output_parsing_handles_headers_and_raw_bodies() {
        let r = parse_cgi_output(b"Content-Type: application/json\r\n\r\n{\"a\":1}");
        assert_eq!(r.headers.get("content-type"), Some("application/json"));
        assert_eq!(&r.body[..], b"{\"a\":1}");
        let r = parse_cgi_output(b"no headers here, just text");
        assert_eq!(r.headers.get("content-type"), Some("text/plain"));
        assert_eq!(&r.body[..], b"no headers here, just text");
        // A blank line whose prefix isn't header-shaped is body, not headers.
        let r = parse_cgi_output(b"hello world\n\nsecond paragraph");
        assert_eq!(&r.body[..], b"hello world\n\nsecond paragraph");
    }
}
