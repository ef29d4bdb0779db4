//! A minimal HTTP/1.1 client for the served collector: one request per
//! connection, matching the server's `Connection: close` framing.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Sends `method target` and returns `(status, body)`.
pub fn request(addr: SocketAddr, method: &str, target: &str) -> Result<(u16, Vec<u8>), String> {
    let io = |e: std::io::Error| format!("{method} {target}: {e}");
    let mut conn = TcpStream::connect(addr).map_err(io)?;
    conn.set_read_timeout(Some(Duration::from_secs(60))).map_err(io)?;
    conn.write_all(format!("{method} {target} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
        .map_err(io)?;
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).map_err(io)?;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {target}: no header terminator"))?;
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| format!("{method} {target}: non-ASCII response head"))?;
    let status = head
        .strip_prefix("HTTP/1.1 ")
        .and_then(|h| h.get(..3))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {target}: bad status line"))?;
    raw.drain(..head_end + 4);
    Ok((status, raw))
}

/// `GET target`, which must answer 200.
pub fn expect_ok(addr: SocketAddr, target: &str) -> Result<Vec<u8>, String> {
    match request(addr, "GET", target)? {
        (200, body) => Ok(body),
        (status, body) => {
            Err(format!("GET {target}: {status} {}", String::from_utf8_lossy(&body).trim()))
        }
    }
}

/// The value of an unlabelled Prometheus sample, e.g.
/// `vex_cache_hits_total 12`.
pub fn metric(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

/// Sum over every label set of a labelled Prometheus counter, e.g.
/// `vex_request_errors_total{endpoint="report"} 1`.
pub fn metric_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter_map(|l| {
            let rest = l.strip_prefix(name)?.strip_prefix('{')?;
            let (_, value) = rest.split_once("} ")?;
            value.trim().parse::<f64>().ok()
        })
        .sum()
}
