//! The hand-rolled TCP scrape endpoint (`GRB_METRICS_ADDR=host:port`).
//!
//! One detached acceptor thread serves the Prometheus text exposition
//! (v0.0.4) over minimal HTTP/1.1: read the request head, answer any GET
//! with the current rendering, close. No keep-alive, no routing, no
//! external dependencies — a scraper or `grbtop` polls it, and `curl`
//! works for humans. Binding to port 0 is supported for tests:
//! [`bound_addr`] reports the kernel-assigned port.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

use crate::counters;

static BOUND: OnceLock<Option<SocketAddr>> = OnceLock::new();

/// The address the scrape endpoint actually bound (the kernel-assigned
/// port when `GRB_METRICS_ADDR` named port 0), or `None` when no endpoint
/// is serving.
pub fn bound_addr() -> Option<SocketAddr> {
    BOUND.get().copied().flatten()
}

/// Starts the endpoint if `GRB_METRICS_ADDR` is set (idempotent); returns
/// the bound address. A bind failure is reported to stderr and disables
/// the endpoint rather than aborting the host process.
pub fn start_if_requested() -> Option<SocketAddr> {
    *BOUND.get_or_init(|| {
        let addr = std::env::var("GRB_METRICS_ADDR").ok().filter(|a| !a.is_empty())?;
        match TcpListener::bind(&addr) {
            Ok(listener) => {
                let local = listener.local_addr().ok();
                let spawned = std::thread::Builder::new()
                    .name("grb-metrics".to_string())
                    .spawn(move || accept_loop(listener));
                match spawned {
                    Ok(_) => local,
                    Err(e) => {
                        eprintln!("[grb-obs] failed to spawn metrics endpoint thread: {e}");
                        None
                    }
                }
            }
            Err(e) => {
                eprintln!("[grb-obs] failed to bind GRB_METRICS_ADDR {addr}: {e}");
                None
            }
        }
    })
}

fn accept_loop(listener: TcpListener) {
    for stream in listener.incoming() {
        match stream {
            Ok(s) => {
                // Serve inline: scrapes are rare (seconds apart) and the
                // rendering is milliseconds, so one thread suffices and
                // cannot be wedged open by a slow client thanks to the
                // read/write deadlines.
                let _ = serve_one(s);
            }
            Err(e) => {
                eprintln!("[grb-obs] metrics endpoint accept error: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Reads the request head (bounded, deadline-guarded), then answers with
/// the exposition. Anything that is not recognizably HTTP still gets the
/// exposition — a scraper that just connects and reads is fine too.
fn serve_one(mut stream: TcpStream) -> std::io::Result<()> {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut head = [0u8; 1024];
    let mut filled = 0;
    // Read until the blank line ending the request head, EOF, the buffer
    // cap, or the deadline — whichever comes first.
    while filled < head.len() {
        match stream.read(&mut head[filled..]) {
            Ok(0) => break,
            Ok(n) => {
                filled += n;
                if head[..filled].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    // Count before rendering so the served exposition includes the
    // in-flight scrape (the first scrape already shows 1).
    counters::sampler().scrapes.add(1);
    let body = super::render();
    let header = format!(
        "HTTP/1.1 200 OK\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
