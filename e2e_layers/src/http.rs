//! A keep-alive HTTP/1.1 client for `qv serve`.
//!
//! The socket sets `TCP_NODELAY` and every request leaves in one write
//! (head and body together), so the client never holds a segment back for
//! Nagle's algorithm: any coalescing stall a measurement shows is the
//! server's.

use std::io::{self, Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on a response body this client buffers.
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// One keep-alive connection.
pub struct Client {
    stream: TcpStream,
    /// Bytes read past the end of the previous response.
    buf: Vec<u8>,
}

/// A response: status, headers in arrival order, body.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    /// The first header named `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl Client {
    /// Connects with `TCP_NODELAY` set; every read waits at most `timeout`.
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        Ok(Client { stream, buf: Vec::with_capacity(16 * 1024) })
    }

    /// Sends one request (head and body in a single write) and reads the
    /// whole response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut message = Vec::with_capacity(head.len() + body.len());
        message.extend_from_slice(head.as_bytes());
        message.extend_from_slice(body);
        self.stream.write_all(&message)?;
        self.read_response()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("malformed status line {status_line:?}")))?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .collect();
        let length = match headers.iter().find(|(k, _)| k.eq_ignore_ascii_case("content-length")) {
            Some((_, v)) => {
                v.parse::<usize>().map_err(|_| invalid(format!("Content-Length {v:?}")))?
            }
            None => 0,
        };
        if length > MAX_BODY_BYTES {
            return Err(invalid(format!("response body of {length} bytes")));
        }
        self.buf.drain(..head_end + 4);
        while self.buf.len() < length {
            self.fill()?;
        }
        let rest = self.buf.split_off(length);
        let body = std::mem::replace(&mut self.buf, rest);
        Ok(Response { status, headers, body })
    }
}

/// One request on a fresh connection.
pub fn get(addr: &str, path: &str) -> io::Result<Response> {
    Client::connect(addr, Duration::from_secs(10))?.request("GET", path, b"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-connection server answering each request with `responses[i]`,
    /// recording the size of each read it took to receive a request.
    fn serve(responses: Vec<&'static str>) -> (String, std::thread::JoinHandle<Vec<usize>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut first_reads = Vec::new();
            for response in responses {
                let mut buf = [0u8; 4096];
                let n = stream.read(&mut buf).unwrap();
                first_reads.push(n);
                stream.write_all(response.as_bytes()).unwrap();
            }
            first_reads
        });
        (addr, handle)
    }

    #[test]
    fn keep_alive_requests_share_one_connection() {
        let (addr, server) = serve(vec![
            "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-QV-Run-Id: 00aa\r\n\r\nhello",
            "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n",
        ]);
        let mut client = Client::connect(&addr, Duration::from_secs(5)).unwrap();
        let first = client.request("POST", "/run/v", b"id\tx\n").unwrap();
        assert_eq!((first.status, first.text().as_str()), (200, "hello"));
        assert_eq!(first.header("x-qv-run-id"), Some("00aa"));
        let second = client.request("GET", "/nope", b"").unwrap();
        assert_eq!((second.status, second.body.len()), (404, 0));
        server.join().unwrap();
    }

    #[test]
    fn head_and_body_leave_in_one_write() {
        let (addr, server) = serve(vec!["HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"]);
        let mut client = Client::connect(&addr, Duration::from_secs(5)).unwrap();
        let body = vec![b'x'; 1000];
        client.request("POST", "/run/v", &body).unwrap();
        let reads = server.join().unwrap();
        assert!(reads[0] > body.len(), "the first read holds the head and the body: {reads:?}");
    }

    #[test]
    fn truncated_response_is_an_error() {
        let (addr, server) = serve(vec!["HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc"]);
        let mut client = Client::connect(&addr, Duration::from_secs(5)).unwrap();
        assert!(client.request("GET", "/", b"").is_err());
        server.join().unwrap();
    }
}
