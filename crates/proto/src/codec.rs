//! The newline-JSON line codec: one request line in, one response line
//! out, both through the serde representation in [`crate::proto`],
//! which owns acceptance, error wording and the exact bytes written.
//! The binary codec ([`crate::binproto`]) is the performance path; JSON
//! has this one implementation.

use crate::proto::{Request, Response};

/// Parses one request line (without its newline). `None` means serde
/// rejected the line; parse it with [`serde_json::from_str`] for the
/// error.
pub fn parse_request(line: &str) -> Option<Request> {
    serde_json::from_str(line).ok()
}

/// Appends `resp` to `out` exactly as [`serde_json::to_string`] writes
/// it. Always returns `true`: every response kind has a JSON form.
pub fn write_response(resp: &Response, out: &mut String) -> bool {
    serde_json::to_string_into(resp, out);
    true
}
