//! Client connections speaking the daemon's two wire formats directly:
//! one `write_all` per request, one reply read back.

use crate::gen::Transport;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

/// Where a daemon listens.
#[derive(Clone, Debug)]
pub struct Endpoints {
    pub socket: PathBuf,
    pub http: SocketAddr,
}

/// Replies slower than this count as timeouts.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Why a round trip produced no usable reply.
#[derive(Debug)]
pub enum WireError {
    Io(io::Error),
    /// An HTTP status other than 200 (a 503 is a shed).
    Status(u16),
    /// A malformed frame header or HTTP head.
    Framing(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) if e.kind() == io::ErrorKind::WouldBlock => write!(f, "timeout"),
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::Status(code) => write!(f, "http status {code}"),
            WireError::Framing(msg) => write!(f, "framing: {msg}"),
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// One connection to the daemon.
pub enum Conn {
    Framed(BufReader<UnixStream>),
    Http(BufReader<TcpStream>),
}

impl Conn {
    pub fn connect(transport: Transport, ep: &Endpoints) -> io::Result<Conn> {
        Ok(match transport {
            Transport::Framed => {
                let s = UnixStream::connect(&ep.socket)?;
                s.set_read_timeout(Some(REPLY_TIMEOUT))?;
                Conn::Framed(BufReader::with_capacity(64 << 10, s))
            }
            Transport::Http => {
                let s = TcpStream::connect(ep.http)?;
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(REPLY_TIMEOUT))?;
                Conn::Http(BufReader::with_capacity(64 << 10, s))
            }
        })
    }

    /// Sends one pre-encoded request and reads its reply body into `reply`
    /// (for frames, the payload without header and terminator).
    pub fn roundtrip(&mut self, request: &[u8], reply: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            Conn::Framed(r) => {
                r.get_mut().write_all(request)?;
                read_frame(r, reply)
            }
            Conn::Http(r) => {
                r.get_mut().write_all(request)?;
                read_http(r, reply)
            }
        }
    }
}

fn read_line<R: BufRead>(r: &mut R, line: &mut Vec<u8>) -> Result<(), WireError> {
    line.clear();
    if r.read_until(b'\n', line)? == 0 {
        return Err(WireError::Io(io::ErrorKind::UnexpectedEof.into()));
    }
    Ok(())
}

/// Reads one `pcp<v> <len>\n<payload>\n` frame.
pub fn read_frame<R: BufRead>(r: &mut R, reply: &mut Vec<u8>) -> Result<(), WireError> {
    let mut head = Vec::with_capacity(32);
    read_line(r, &mut head)?;
    let text = std::str::from_utf8(&head).map_err(|_| WireError::Framing("header".into()))?;
    let len: usize = text
        .trim_end()
        .strip_prefix("pcp")
        .and_then(|rest| rest.split_once(' '))
        .and_then(|(_, len)| len.parse().ok())
        .ok_or_else(|| WireError::Framing(format!("bad header {text:?}")))?;
    reply.resize(len + 1, 0);
    r.read_exact(reply)?;
    if reply.pop() != Some(b'\n') {
        return Err(WireError::Framing("missing frame terminator".into()));
    }
    Ok(())
}

/// Reads one HTTP/1.1 response with a `Content-Length` body. The body is
/// consumed even for a non-200 status, so the connection stays in sync.
pub fn read_http<R: BufRead>(r: &mut R, reply: &mut Vec<u8>) -> Result<(), WireError> {
    let mut line = Vec::with_capacity(64);
    read_line(r, &mut line)?;
    let status: u16 = std::str::from_utf8(&line)
        .ok()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| WireError::Framing("bad status line".into()))?;
    let mut len = 0usize;
    loop {
        read_line(r, &mut line)?;
        let text = String::from_utf8_lossy(&line);
        let text = text.trim_end();
        if text.is_empty() {
            break;
        }
        if let Some((name, value)) = text.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                len = value
                    .trim()
                    .parse()
                    .map_err(|_| WireError::Framing("bad Content-Length".into()))?;
            }
        }
    }
    reply.resize(len, 0);
    r.read_exact(reply)?;
    if status == 200 {
        Ok(())
    } else {
        Err(WireError::Status(status))
    }
}

/// A one-request probe of each listener: a `hello` frame and `GET /healthz`.
pub fn probe(ep: &Endpoints) -> Result<(), WireError> {
    let mut reply = Vec::new();
    let hello = b"{\"type\":\"hello\",\"proto\":1}";
    let mut frame = format!("pcp1 {}\n", hello.len()).into_bytes();
    frame.extend_from_slice(hello);
    frame.push(b'\n');
    Conn::connect(Transport::Framed, ep)?.roundtrip(&frame, &mut reply)?;
    let get = b"GET /healthz HTTP/1.1\r\nHost: pcservice\r\nConnection: close\r\n\r\n";
    Conn::connect(Transport::Http, ep)?.roundtrip(get, &mut reply)
}

/// Asks the daemon to stop over the framed socket.
pub fn shutdown(ep: &Endpoints) -> Result<(), WireError> {
    let body = b"{\"type\":\"shutdown\"}";
    let mut frame = format!("pcp1 {}\n", body.len()).into_bytes();
    frame.extend_from_slice(body);
    frame.push(b'\n');
    Conn::connect(Transport::Framed, ep)?.roundtrip(&frame, &mut Vec::new())
}
