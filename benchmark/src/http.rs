//! The load generator's side of the HTTP path: one keep-alive loopback
//! connection, closed loop (the next request leaves only after the previous
//! response was read in full).

use seqdet_server::http::percent_encode;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response as the client saw it.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// Connections opened so far (the server caps requests per connection
    /// and then answers `Connection: close`).
    pub connects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, conn: None, connects: 0 }
    }

    fn conn(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            // A hung server must fail the request, not the whole run.
            stream.set_read_timeout(Some(Duration::from_secs(20)))?;
            stream.set_write_timeout(Some(Duration::from_secs(20)))?;
            self.connects += 1;
            self.conn = Some(BufReader::new(stream));
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// `GET /query?q=<statement>` and read the whole response.
    pub fn query(&mut self, statement: &str) -> io::Result<Response> {
        let request = format!(
            "GET /query?q={} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n",
            percent_encode(statement)
        );
        let result = self.exchange(&request);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    fn exchange(&mut self, request: &str) -> io::Result<Response> {
        let conn = self.conn()?;
        conn.get_mut().write_all(request.as_bytes())?;
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        let mut line = String::new();
        conn.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let (mut length, mut close) = (None, false);
        loop {
            line.clear();
            if conn.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the response head"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length"))?;
        // The server is this repository's own; still bound what one header
        // can make the client allocate.
        if length > 1 << 30 {
            return Err(bad("Content-Length over 1 GiB"));
        }
        let mut body = vec![0u8; length];
        conn.read_exact(&mut body)?;
        if close {
            self.conn = None;
        }
        Ok(Response { status, body })
    }
}
