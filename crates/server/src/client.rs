//! A small blocking HTTP/1.0 client that follows SWEB redirects.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use sweb_http::{parse_response, Headers};

/// A fetched response.
#[derive(Debug)]
pub struct FetchedResponse {
    /// Final status code (after following at most one redirect).
    pub status: u16,
    /// Response headers of the final hop.
    pub headers: Headers,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Number of redirects followed (0 or 1).
    pub redirects: u32,
    /// The node that ultimately answered, from `X-SWEB-Node`.
    pub served_by: Option<u32>,
}

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    /// URL was not `http://host:port/path`.
    BadUrl(String),
    /// Socket-level failure.
    Io(std::io::Error),
    /// Response was not parseable HTTP.
    BadResponse(&'static str),
    /// More redirects than SWEB's one-hop contract allows.
    TooManyRedirects,
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::BadUrl(u) => write!(f, "bad url: {u}"),
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::BadResponse(m) => write!(f, "bad response: {m}"),
            ClientError::TooManyRedirects => f.write_str("too many redirects"),
        }
    }
}

impl std::error::Error for ClientError {}

fn split_url(url: &str) -> Result<(&str, &str), ClientError> {
    let rest = url.strip_prefix("http://").ok_or_else(|| ClientError::BadUrl(url.into()))?;
    match rest.find('/') {
        Some(i) => Ok((&rest[..i], &rest[i..])),
        None => Ok((rest, "/")),
    }
}

/// `GET` a URL, following at most one SWEB 302 (the redirect-once rule —
/// a second redirect is a protocol violation and errors out).
pub fn get(url: &str) -> Result<FetchedResponse, ClientError> {
    get_with_timeout(url, Duration::from_secs(30))
}

/// [`get`] with an explicit per-hop socket timeout.
pub fn get_with_timeout(url: &str, timeout: Duration) -> Result<FetchedResponse, ClientError> {
    get_with_headers(url, &[], timeout)
}

/// `POST` a body to a URL. POSTs are served where they land (SWEB never
/// reassigns non-idempotent methods), so no redirect handling is needed.
pub fn post(url: &str, body: &[u8], content_type: &str) -> Result<FetchedResponse, ClientError> {
    let (hostport, path) = split_url(url)?;
    let mut stream = TcpStream::connect(hostport)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "POST {path} HTTP/1.0\r\nHost: {hostport}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let parsed = parse_response(&raw).map_err(|_| ClientError::BadResponse("parse"))?;
    let served_by = parsed.headers.get("x-sweb-node").and_then(|v| v.parse().ok());
    Ok(FetchedResponse {
        status: parsed.status,
        headers: parsed.headers,
        body: parsed.body,
        redirects: 0,
        served_by,
    })
}

/// [`get`] with additional request headers (e.g. `If-Modified-Since`).
pub fn get_with_headers(
    url: &str,
    extra_headers: &[(&str, &str)],
    timeout: Duration,
) -> Result<FetchedResponse, ClientError> {
    let mut target = url.to_string();
    let mut redirects = 0u32;
    loop {
        let (hostport, path) = split_url(&target)?;
        let mut stream = TcpStream::connect(hostport)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let mut request = format!(
            "GET {path} HTTP/1.0\r\nHost: {hostport}\r\nUser-Agent: sweb-client/0.1\r\n"
        );
        for (name, value) in extra_headers {
            request.push_str(&format!("{name}: {value}\r\n"));
        }
        request.push_str("\r\n");
        stream.write_all(request.as_bytes())?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        let parsed = parse_response(&raw).map_err(|_| ClientError::BadResponse("parse"))?;
        let (status, headers, body) = (parsed.status, parsed.headers, parsed.body);
        if status == 302 {
            let location = headers
                .get("location")
                .ok_or(ClientError::BadResponse("302 without Location"))?;
            if redirects >= 1 {
                return Err(ClientError::TooManyRedirects);
            }
            redirects += 1;
            target = location.to_string();
            continue;
        }
        let served_by = headers.get("x-sweb-node").and_then(|v| v.parse().ok());
        return Ok(FetchedResponse { status, headers, body, redirects, served_by });
    }
}

/// A keep-alive session to one node: multiple GETs over a single TCP
/// connection (`Connection: Keep-Alive`, the HTTP/1.0 extension — labelled
/// *extension* here too, the paper's server closes after each response).
///
/// Redirects are returned, not followed — a 302 names a *different* node,
/// so it cannot be served on this connection.
pub struct Session {
    hostport: String,
    stream: Option<TcpStream>,
    timeout: Duration,
    /// Requests served over reused connections (diagnostics).
    pub reused: u32,
}

impl Session {
    /// Open a session to a base URL (`http://host:port`).
    pub fn connect(base_url: &str) -> Result<Session, ClientError> {
        let (hostport, _) = split_url(base_url)?;
        Ok(Session {
            hostport: hostport.to_string(),
            stream: None,
            timeout: Duration::from_secs(30),
            reused: 0,
        })
    }

    /// GET `path` (absolute, starting with `/`) over the session.
    pub fn get(&mut self, path: &str) -> Result<FetchedResponse, ClientError> {
        let reusing = self.stream.is_some();
        let mut stream = match self.stream.take() {
            Some(s) => s,
            None => {
                let s = TcpStream::connect(&self.hostport)?;
                s.set_read_timeout(Some(self.timeout))?;
                s.set_nodelay(true)?;
                s
            }
        };
        let request = format!(
            "GET {path} HTTP/1.0\r\nHost: {}\r\nConnection: Keep-Alive\r\n\r\n",
            self.hostport
        );
        if stream.write_all(request.as_bytes()).is_err() && reusing {
            // Server closed the idle connection; retry on a fresh one.
            return self.get(path);
        }
        let raw = read_one_response(&mut stream)?;
        let parsed = parse_response(&raw).map_err(|_| ClientError::BadResponse("parse"))?;
        if reusing {
            self.reused += 1;
        }
        let keep = parsed
            .headers
            .get("connection")
            .map(|v| v.eq_ignore_ascii_case("keep-alive"))
            .unwrap_or(false);
        if keep {
            self.stream = Some(stream);
        }
        let served_by = parsed.headers.get("x-sweb-node").and_then(|v| v.parse().ok());
        Ok(FetchedResponse {
            status: parsed.status,
            headers: parsed.headers,
            body: parsed.body,
            redirects: 0,
            served_by,
        })
    }
}

/// Read exactly one response off a keep-alive connection: head, then a
/// `Content-Length`-delimited body.
fn read_one_response(mut stream: impl Read) -> Result<Vec<u8>, ClientError> {
    let mut raw = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    // A signal landing on this thread mid-read is not a failed response
    // (`read_to_end`, used by the one-shot paths, retries it inside std).
    let mut read = |chunk: &mut [u8]| loop {
        match stream.read(chunk) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            other => return other,
        }
    };
    // Read until the head terminator is present.
    let head_end = loop {
        if let Some(end) = find_head_terminator(&raw) {
            break end;
        }
        let n = read(&mut chunk)?;
        if n == 0 {
            return Err(ClientError::BadResponse("connection closed mid-head"));
        }
        raw.extend_from_slice(&chunk[..n]);
    };
    // Content-Length tells us how much body to read.
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| ClientError::BadResponse("non-utf8 head"))?;
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.trim().eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())?
        })
        .ok_or(ClientError::BadResponse("keep-alive response without Content-Length"))?;
    let total = head_end + content_length;
    while raw.len() < total {
        let n = read(&mut chunk)?;
        if n == 0 {
            return Err(ClientError::BadResponse("connection closed mid-body"));
        }
        raw.extend_from_slice(&chunk[..n]);
    }
    raw.truncate(total);
    Ok(raw)
}

fn find_head_terminator(raw: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < raw.len() {
        if raw[i] == b'\n' {
            if raw.get(i + 1) == Some(&b'\n') {
                return Some(i + 2);
            }
            if raw.get(i + 1) == Some(&b'\r') && raw.get(i + 2) == Some(&b'\n') {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_splitting() {
        assert_eq!(split_url("http://127.0.0.1:80/a/b").unwrap(), ("127.0.0.1:80", "/a/b"));
        assert_eq!(split_url("http://h:1").unwrap(), ("h:1", "/"));
        assert!(split_url("ftp://x").is_err());
    }

    /// Hands out `chunk`-sized pieces, failing with `Interrupted` before
    /// each one.
    struct Interrupting<'a> {
        rest: &'a [u8],
        chunk: usize,
        interrupted: bool,
    }

    impl Read for Interrupting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.interrupted = !self.interrupted;
            if self.interrupted {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let n = self.chunk.min(buf.len()).min(self.rest.len());
            buf[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            Ok(n)
        }
    }

    #[test]
    fn one_response_survives_interrupted_reads() {
        let first = b"HTTP/1.0 200 OK\r\nContent-Length: 11\r\n\r\nhello world";
        let mut wire = first.to_vec();
        wire.extend_from_slice(b"HTTP/1.0 200 OK\r\n");
        // Chunk sizes that split the head, the terminator and the body.
        for chunk in [1, 7, 19, 4096] {
            let reader = Interrupting { rest: &wire, chunk, interrupted: false };
            let raw = read_one_response(reader).expect("Interrupted must be retried");
            assert_eq!(raw, first, "chunk {chunk}");
        }
        // A real error still surfaces.
        let eof = Interrupting { rest: &first[..30], chunk: 7, interrupted: false };
        assert!(matches!(read_one_response(eof), Err(ClientError::BadResponse(_))));
    }

    #[test]
    fn head_terminator_detection() {
        assert_eq!(find_head_terminator(b"HTTP/1.0 200 OK\r\n\r\nbody"), Some(19));
        assert_eq!(find_head_terminator(b"HTTP/1.0 200 OK\n\nbody"), Some(17));
        assert_eq!(find_head_terminator(b"HTTP/1.0 200 OK\r\n"), None);
    }
}
