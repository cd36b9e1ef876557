//! # sweb-http — the HTTP/1.0 subset SWEB speaks
//!
//! The 1996 SWEB server is built on NCSA httpd 1.3 and handles `GET` (plus
//! `HEAD`) over HTTP/1.0; scheduling happens through **302 redirects**
//! (`Location:` to a peer node) because request forwarding is impractical in
//! HTTP (§3.1). This crate implements exactly that subset from scratch:
//!
//! * [`Request`] parsing from raw bytes ([`parse_request`]);
//! * [`Response`] construction and wire serialization;
//! * [`StatusCode`]s the paper mentions (200, 302, 404, ...);
//! * URL path normalization with traversal protection ([`sanitize_path`]);
//! * MIME type inference ([`mime_for_path`]);
//! * redirect bookkeeping: SWEB marks redirected requests so a request is
//!   never redirected twice ("ping-pong effect" guard), carried here as the
//!   `?sweb-redirect=1` query marker ([`mark_redirected`] /
//!   [`is_redirected`]).

#![warn(missing_docs)]

mod date;
mod headers;
mod mime;
mod parse;
mod request;
mod response;
mod response_parse;
mod status;
mod url;

pub use date::{format_http_date, parse_http_date};
pub use headers::Headers;
pub use mime::mime_for_path;
pub use parse::{parse_request, try_parse_request, Malformed, ParseError};
pub use request::{Method, Request};
pub use response::{body_copies, Head, Response};
pub use response_parse::{parse_response, ParsedResponse, ResponseParseError};
pub use status::StatusCode;
pub use url::{is_redirected, mark_redirected, mark_trace, sanitize_path, split_query, trace_of};
