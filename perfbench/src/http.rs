//! A minimal blocking HTTP/1.1 client for the daemon's one-request-per-
//! connection protocol: connect, send, read to EOF.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response: status code and body text.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// Send one request and read the whole response. Any transport or framing
/// problem is an `Err` with a one-line reason.
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Response, String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(10)).map_err(io)?;
    s.set_read_timeout(Some(Duration::from_secs(30))).map_err(io)?;
    s.set_nodelay(true).map_err(io)?;
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).map_err(io)?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).map_err(io)?;
    let text = String::from_utf8(raw).map_err(|_| format!("{method} {path}: non-UTF-8 reply"))?;
    let (head, body) =
        text.split_once("\r\n\r\n").ok_or_else(|| format!("{method} {path}: no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok(Response { status, body: body.to_string() })
}

/// The string value of `"key":"..."` in a flat JSON document.
pub fn str_field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let at = json.find(&pat)? + pat.len();
    json[at..].split('"').next()
}

/// The boolean value of `"key":true|false` in a flat JSON document.
pub fn bool_field(json: &str, key: &str) -> Option<bool> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = &json[at..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// `(at_ms, phase)` events of a job status document's `"timeline"` array.
pub fn timeline(status: &str) -> Vec<(u64, String)> {
    let Some(at) = status.find("\"timeline\":[") else { return Vec::new() };
    let list = &status[at..];
    let list = &list[..list.find(']').unwrap_or(list.len())];
    list.split("{\"at_ms\":")
        .skip(1)
        .filter_map(|ev| {
            let (ms, rest) = ev.split_once(',')?;
            Some((ms.parse().ok()?, str_field(rest, "phase")?.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "{\"id\":\"job-3\",\"state\":\"completed\",\"cancel_requested\":false,\
        \"resumed\":false,\"from_cache\":true,\"timeline\":[{\"at_ms\":10,\"phase\":\"submitted\"},\
        {\"at_ms\":12,\"phase\":\"dispatched\"},{\"at_ms\":40,\"phase\":\"completed\"}],\
        \"has_result\":true}";

    #[test]
    fn status_fields_and_timeline_parse() {
        assert_eq!(str_field(STATUS, "state"), Some("completed"));
        assert_eq!(str_field(STATUS, "id"), Some("job-3"));
        assert_eq!(bool_field(STATUS, "from_cache"), Some(true));
        assert_eq!(bool_field(STATUS, "resumed"), Some(false));
        assert_eq!(bool_field(STATUS, "nope"), None);
        let t = timeline(STATUS);
        assert_eq!(
            t,
            vec![
                (10, "submitted".to_string()),
                (12, "dispatched".to_string()),
                (40, "completed".to_string())
            ]
        );
        assert!(timeline("{}").is_empty());
    }
}
