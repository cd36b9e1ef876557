//! HTTP status codes used by SWEB.

/// The status codes NCSA-era SWEB emits. (The paper's example "202 — OK.
/// File found." is a typo in the original text for 200; we implement the
/// real registry values.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StatusCode {
    /// 200 — request fulfilled.
    Ok,
    /// 302 — resource moved; SWEB's request-reassignment mechanism.
    Found,
    /// 304 — conditional GET, not modified.
    NotModified,
    /// 400 — malformed request line or headers.
    BadRequest,
    /// 403 — permission check failed.
    Forbidden,
    /// 404 — "File not found." (quoted in §2 of the paper).
    NotFound,
    /// 405 — method not allowed on this resource (POST to a static file).
    MethodNotAllowed,
    /// 500 — server-side failure (e.g. CGI crashed).
    InternalServerError,
    /// 501 — method not implemented (SWEB serves GET/HEAD/POST).
    NotImplemented,
    /// 503 — overloaded; connection would be dropped.
    ServiceUnavailable,
}

impl StatusCode {
    /// How many codes there are.
    pub(crate) const COUNT: usize = 10;

    /// A dense index, `0..COUNT`.
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// The status line, `HTTP/1.0 <code> <reason>\r\n`.
    pub(crate) fn line(self) -> &'static str {
        match self {
            StatusCode::Ok => "HTTP/1.0 200 OK\r\n",
            StatusCode::Found => "HTTP/1.0 302 Found\r\n",
            StatusCode::NotModified => "HTTP/1.0 304 Not Modified\r\n",
            StatusCode::BadRequest => "HTTP/1.0 400 Bad Request\r\n",
            StatusCode::Forbidden => "HTTP/1.0 403 Forbidden\r\n",
            StatusCode::NotFound => "HTTP/1.0 404 Not Found\r\n",
            StatusCode::MethodNotAllowed => "HTTP/1.0 405 Method Not Allowed\r\n",
            StatusCode::InternalServerError => "HTTP/1.0 500 Internal Server Error\r\n",
            StatusCode::NotImplemented => "HTTP/1.0 501 Not Implemented\r\n",
            StatusCode::ServiceUnavailable => "HTTP/1.0 503 Service Unavailable\r\n",
        }
    }

    /// Numeric code on the wire.
    pub fn code(self) -> u16 {
        match self {
            StatusCode::Ok => 200,
            StatusCode::Found => 302,
            StatusCode::NotModified => 304,
            StatusCode::BadRequest => 400,
            StatusCode::Forbidden => 403,
            StatusCode::NotFound => 404,
            StatusCode::MethodNotAllowed => 405,
            StatusCode::InternalServerError => 500,
            StatusCode::NotImplemented => 501,
            StatusCode::ServiceUnavailable => 503,
        }
    }

    /// Canonical reason phrase.
    pub fn reason(self) -> &'static str {
        match self {
            StatusCode::Ok => "OK",
            StatusCode::Found => "Found",
            StatusCode::NotModified => "Not Modified",
            StatusCode::BadRequest => "Bad Request",
            StatusCode::Forbidden => "Forbidden",
            StatusCode::NotFound => "Not Found",
            StatusCode::MethodNotAllowed => "Method Not Allowed",
            StatusCode::InternalServerError => "Internal Server Error",
            StatusCode::NotImplemented => "Not Implemented",
            StatusCode::ServiceUnavailable => "Service Unavailable",
        }
    }

    /// Whether the code indicates success (2xx).
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.code())
    }

    /// Whether the code is a redirect (3xx) carrying a `Location`.
    pub fn is_redirect(self) -> bool {
        self == StatusCode::Found
    }
}

impl std::fmt::Display for StatusCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.code(), self.reason())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_lines_spell_code_and_reason() {
        for (i, s) in [
            StatusCode::Ok,
            StatusCode::Found,
            StatusCode::NotModified,
            StatusCode::BadRequest,
            StatusCode::Forbidden,
            StatusCode::NotFound,
            StatusCode::MethodNotAllowed,
            StatusCode::InternalServerError,
            StatusCode::NotImplemented,
            StatusCode::ServiceUnavailable,
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(s.line(), format!("HTTP/1.0 {s}\r\n"));
            assert_eq!(s.index(), i);
        }
        assert_eq!(StatusCode::COUNT, 10);
    }

    #[test]
    fn codes_and_reasons() {
        assert_eq!(StatusCode::Ok.code(), 200);
        assert_eq!(StatusCode::NotFound.code(), 404);
        assert_eq!(StatusCode::Found.code(), 302);
        assert_eq!(StatusCode::NotFound.reason(), "Not Found");
        assert_eq!(format!("{}", StatusCode::Ok), "200 OK");
    }

    #[test]
    fn classification() {
        assert!(StatusCode::Ok.is_success());
        assert!(!StatusCode::NotFound.is_success());
        assert!(StatusCode::Found.is_redirect());
        assert!(!StatusCode::Ok.is_redirect());
    }
}
