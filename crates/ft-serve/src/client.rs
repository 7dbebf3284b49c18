//! A blocking lockstep client: send one frame, await one response.
//!
//! The replay tool, the smoke tests and the `serve_connects_per_sec`
//! bench all speak through this. Lockstep is deliberate — it makes the
//! deterministic mode's byte-identity trivial (one in-flight request ⇒
//! one engine order) and keeps failure handling obvious: any transport
//! error surfaces as the `io::Error` of the call that hit it.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{read_frame, write_frame, Request, Response};

/// A connected lockstep client.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Wraps an already-connected stream (tests that hand-craft the
    /// early bytes and then switch to the typed client).
    pub fn from_stream(stream: TcpStream) -> Client {
        Client { stream }
    }

    /// Sends `req`, awaits its response.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        write_frame(&mut self.stream, &req.encode())?;
        self.read_response()
    }

    /// Sends raw payload bytes as one frame **without** awaiting a
    /// response — the robustness tests use this to deliver malformed
    /// payloads and then collect the typed error.
    pub fn send_raw(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.stream, payload)
    }

    /// Writes raw bytes verbatim — no framing. For tests that forge
    /// bad length prefixes or tear a frame mid-write.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        use io::Write;
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads the next response frame.
    pub fn read_response(&mut self) -> io::Result<Response> {
        let payload = read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        Response::decode(&payload)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed response"))
    }

    /// `CONNECT` under client-chosen id; returns the response.
    pub fn connect_circuit(
        &mut self,
        id: u64,
        src: u32,
        dst: u32,
        deadline_ms: u32,
    ) -> io::Result<Response> {
        self.request(&Request::Connect {
            tag: id,
            src,
            dst,
            deadline_ms,
        })
    }

    /// `DISCONNECT` of circuit `id`.
    pub fn disconnect_circuit(&mut self, id: u64) -> io::Result<Response> {
        self.request(&Request::Disconnect { tag: id })
    }

    /// `FAULT` injection on `switch`.
    pub fn fault(&mut self, tag: u64, switch: u32, open: bool) -> io::Result<Response> {
        self.request(&Request::Fault { tag, switch, open })
    }

    /// `REPAIR` of `switch`.
    pub fn repair(&mut self, tag: u64, switch: u32) -> io::Result<Response> {
        self.request(&Request::Repair { tag, switch })
    }

    /// Live metrics (`KvLine` text).
    pub fn metrics(&mut self, tag: u64) -> io::Result<Response> {
        self.request(&Request::Metrics { tag })
    }

    /// Deterministic JSON report.
    pub fn report(&mut self, tag: u64) -> io::Result<Response> {
        self.request(&Request::Report { tag })
    }

    /// Graceful topology reload onto `spec`.
    pub fn reload(&mut self, tag: u64, spec: &str) -> io::Result<Response> {
        self.request(&Request::Reload {
            tag,
            spec: spec.to_string(),
        })
    }

    /// Force a crash-consistent snapshot now.
    pub fn snapshot(&mut self, tag: u64) -> io::Result<Response> {
        self.request(&Request::Snapshot { tag })
    }

    /// Graceful shutdown.
    pub fn shutdown(&mut self, tag: u64) -> io::Result<Response> {
        self.request(&Request::Shutdown { tag })
    }
}
