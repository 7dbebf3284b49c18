//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message — request or response — is one *frame*: a 4-byte
//! little-endian payload length followed by that many payload bytes.
//! Lengths are capped at `MAX_FRAME` (1 MiB); a peer announcing more is
//! desynchronized or hostile, and the connection is closed after a
//! typed [`Status::BadFrame`] response. All integers are little-endian.
//!
//! Request payloads open with a one-byte opcode, then an 8-byte tag the
//! response echoes (for circuit operations the tag *is* the
//! client-chosen circuit id), then opcode-specific fields:
//!
//! ```text
//! CONNECT    = 0x01  tag:u64  src:u32  dst:u32  deadline_ms:u32
//! DISCONNECT = 0x02  tag:u64
//! FAULT      = 0x03  tag:u64  switch:u32  open:u8
//! REPAIR     = 0x04  tag:u64  switch:u32
//! METRICS    = 0x05  tag:u64
//! RELOAD     = 0x06  tag:u64  spec:utf-8 (rest of frame)
//! SNAPSHOT   = 0x07  tag:u64
//! REPORT     = 0x08  tag:u64
//! SHUTDOWN   = 0x09  tag:u64
//! ```
//!
//! Response payloads are `status:u8  tag:u64  body:…` where the body is
//! status/opcode-specific: `path_len:u32` for a connected circuit,
//! `killed:u32` for an applied fault, `migrated:u32 dropped:u32` for a
//! completed reload, UTF-8 text for metrics and reports, empty
//! otherwise. Unknown opcodes, short payloads, and trailing garbage are
//! answered with [`Status::BadFrame`] *without* reaching the engine
//! thread; see `docs/SERVICE.md` for the full grammar and semantics.

use std::io::{self, Read, Write};

/// Hard cap on a frame's payload length, both directions. Metrics and
/// report bodies are far below this; anything larger is a framing error.
pub(crate) const MAX_FRAME: usize = 1 << 20;

/// A decoded request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Establish a circuit `src → dst` under client-chosen id `tag`.
    Connect {
        /// Client-chosen circuit id (echoed as the response tag).
        tag: u64,
        /// Input terminal index.
        src: u32,
        /// Output terminal index.
        dst: u32,
        /// Admission deadline in milliseconds of *queueing* delay
        /// (0 = none): if the engine dequeues the request later than
        /// this, it answers [`Status::DeadlineExpired`] instead of
        /// routing. Ignored in deterministic mode.
        deadline_ms: u32,
    },
    /// Release circuit `tag`.
    Disconnect {
        /// The circuit id to release.
        tag: u64,
    },
    /// Inject a switch failure.
    Fault {
        /// Response correlation tag.
        tag: u64,
        /// Switch (edge index) to fail.
        switch: u32,
        /// Open failure (`true`) or closed (`false`).
        open: bool,
    },
    /// Repair a failed switch.
    Repair {
        /// Response correlation tag.
        tag: u64,
        /// Switch to restore.
        switch: u32,
    },
    /// Fetch live metrics as `KvLine` text.
    Metrics {
        /// Response correlation tag.
        tag: u64,
    },
    /// Graceful topology reload: drain, swap to `spec`, migrate.
    Reload {
        /// Response correlation tag.
        tag: u64,
        /// Fabric spec (`network =` value grammar, e.g. `clos-strict 4 4`).
        spec: String,
    },
    /// Force a crash-consistent snapshot now.
    Snapshot {
        /// Response correlation tag.
        tag: u64,
    },
    /// Fetch the deterministic JSON report.
    Report {
        /// Response correlation tag.
        tag: u64,
    },
    /// Graceful shutdown: final snapshot + report, then exit 0.
    Shutdown {
        /// Response correlation tag.
        tag: u64,
    },
}

/// Typed response statuses. Every request gets exactly one response;
/// robustness failures are statuses, never dropped connections (except
/// an unrecoverable framing desync, which still answers first).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Request succeeded; body is opcode-specific.
    Ok = 0,
    /// No idle path between the requested terminals.
    Blocked = 1,
    /// A requested terminal is busy (or currently dead).
    Busy = 2,
    /// Disconnect of an id with no live circuit.
    UnknownCircuit = 3,
    /// Admission shed: the engine queue was full (backpressure).
    Shed = 4,
    /// The request waited in queue past its deadline.
    DeadlineExpired = 5,
    /// Malformed frame: unknown opcode, short payload, oversized
    /// length prefix, or trailing garbage.
    BadFrame = 6,
    /// Argument out of range (terminal or switch index).
    BadArg = 7,
    /// Unparseable fabric spec in a reload.
    BadSpec = 8,
    /// Connect under an id that already has a live circuit.
    DuplicateId = 9,
    /// Redundant fault/repair (switch already in that state).
    Noop = 10,
}

impl Status {
    /// Decodes a status byte.
    pub(crate) fn from_u8(b: u8) -> Option<Status> {
        use Status::*;
        Some(match b {
            0 => Ok,
            1 => Blocked,
            2 => Busy,
            3 => UnknownCircuit,
            4 => Shed,
            5 => DeadlineExpired,
            6 => BadFrame,
            7 => BadArg,
            8 => BadSpec,
            9 => DuplicateId,
            10 => Noop,
            _ => return None,
        })
    }

    /// Stable lower-case label (used in replay accounting and docs).
    pub fn label(&self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Blocked => "blocked",
            Status::Busy => "busy",
            Status::UnknownCircuit => "unknown-circuit",
            Status::Shed => "shed",
            Status::DeadlineExpired => "deadline-expired",
            Status::BadFrame => "bad-frame",
            Status::BadArg => "bad-arg",
            Status::BadSpec => "bad-spec",
            Status::DuplicateId => "duplicate-id",
            Status::Noop => "noop",
        }
    }
}

/// A decoded response frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Outcome of the request.
    pub status: Status,
    /// Echo of the request's tag.
    pub tag: u64,
    /// Status/opcode-specific body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A bodyless response.
    pub(crate) fn new(status: Status, tag: u64) -> Response {
        Response {
            status,
            tag,
            body: Vec::new(),
        }
    }

    /// An [`Status::Ok`] response with a body.
    pub fn ok(tag: u64, body: Vec<u8>) -> Response {
        Response {
            status: Status::Ok,
            tag,
            body,
        }
    }

    /// Serializes to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(9 + self.body.len());
        out.push(self.status as u8);
        out.extend_from_slice(&self.tag.to_le_bytes());
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses a frame payload. `None` = malformed.
    pub fn decode(payload: &[u8]) -> Option<Response> {
        if payload.len() < 9 {
            return None;
        }
        Some(Response {
            status: Status::from_u8(payload[0])?,
            tag: u64::from_le_bytes(payload[1..9].try_into().ok()?),
            body: payload[9..].to_vec(),
        })
    }

    /// The body as UTF-8 text (metrics/report responses).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

const OP_CONNECT: u8 = 0x01;
const OP_DISCONNECT: u8 = 0x02;
const OP_FAULT: u8 = 0x03;
const OP_REPAIR: u8 = 0x04;
const OP_METRICS: u8 = 0x05;
const OP_RELOAD: u8 = 0x06;
const OP_SNAPSHOT: u8 = 0x07;
const OP_REPORT: u8 = 0x08;
const OP_SHUTDOWN: u8 = 0x09;

fn u32_at(b: &[u8], i: usize) -> Option<u32> {
    Some(u32::from_le_bytes(b.get(i..i + 4)?.try_into().ok()?))
}

fn u64_at(b: &[u8], i: usize) -> Option<u64> {
    Some(u64::from_le_bytes(b.get(i..i + 8)?.try_into().ok()?))
}

impl Request {
    /// The correlation tag the response will echo.
    pub fn tag(&self) -> u64 {
        match *self {
            Request::Connect { tag, .. }
            | Request::Disconnect { tag }
            | Request::Fault { tag, .. }
            | Request::Repair { tag, .. }
            | Request::Metrics { tag }
            | Request::Reload { tag, .. }
            | Request::Snapshot { tag }
            | Request::Report { tag }
            | Request::Shutdown { tag } => tag,
        }
    }

    /// Serializes to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24);
        match self {
            Request::Connect {
                tag,
                src,
                dst,
                deadline_ms,
            } => {
                out.push(OP_CONNECT);
                out.extend_from_slice(&tag.to_le_bytes());
                out.extend_from_slice(&src.to_le_bytes());
                out.extend_from_slice(&dst.to_le_bytes());
                out.extend_from_slice(&deadline_ms.to_le_bytes());
            }
            Request::Disconnect { tag } => {
                out.push(OP_DISCONNECT);
                out.extend_from_slice(&tag.to_le_bytes());
            }
            Request::Fault { tag, switch, open } => {
                out.push(OP_FAULT);
                out.extend_from_slice(&tag.to_le_bytes());
                out.extend_from_slice(&switch.to_le_bytes());
                out.push(u8::from(*open));
            }
            Request::Repair { tag, switch } => {
                out.push(OP_REPAIR);
                out.extend_from_slice(&tag.to_le_bytes());
                out.extend_from_slice(&switch.to_le_bytes());
            }
            Request::Metrics { tag } => {
                out.push(OP_METRICS);
                out.extend_from_slice(&tag.to_le_bytes());
            }
            Request::Reload { tag, spec } => {
                out.push(OP_RELOAD);
                out.extend_from_slice(&tag.to_le_bytes());
                out.extend_from_slice(spec.as_bytes());
            }
            Request::Snapshot { tag } => {
                out.push(OP_SNAPSHOT);
                out.extend_from_slice(&tag.to_le_bytes());
            }
            Request::Report { tag } => {
                out.push(OP_REPORT);
                out.extend_from_slice(&tag.to_le_bytes());
            }
            Request::Shutdown { tag } => {
                out.push(OP_SHUTDOWN);
                out.extend_from_slice(&tag.to_le_bytes());
            }
        }
        out
    }

    /// Parses a frame payload. `Err(tag)` = malformed, carrying the
    /// best-effort tag (0 if even that is unreadable) so the
    /// [`Status::BadFrame`] response can still correlate.
    pub fn decode(payload: &[u8]) -> Result<Request, u64> {
        let tag = u64_at(payload, 1).unwrap_or(0);
        let op = *payload.first().ok_or(0u64)?;
        if payload.len() < 9 {
            return Err(tag);
        }
        let exact = |want: usize, req: Request| {
            if payload.len() == want {
                Ok(req)
            } else {
                Err(tag)
            }
        };
        match op {
            OP_CONNECT => exact(
                21,
                Request::Connect {
                    tag,
                    src: u32_at(payload, 9).ok_or(tag)?,
                    dst: u32_at(payload, 13).ok_or(tag)?,
                    deadline_ms: u32_at(payload, 17).ok_or(tag)?,
                },
            ),
            OP_DISCONNECT => exact(9, Request::Disconnect { tag }),
            OP_FAULT => exact(
                14,
                Request::Fault {
                    tag,
                    switch: u32_at(payload, 9).ok_or(tag)?,
                    open: payload.get(13).copied().unwrap_or(0) != 0,
                },
            ),
            OP_REPAIR => exact(
                13,
                Request::Repair {
                    tag,
                    switch: u32_at(payload, 9).ok_or(tag)?,
                },
            ),
            OP_METRICS => exact(9, Request::Metrics { tag }),
            OP_RELOAD => Ok(Request::Reload {
                tag,
                spec: std::str::from_utf8(&payload[9..])
                    .map_err(|_| tag)?
                    .to_string(),
            }),
            OP_SNAPSHOT => exact(9, Request::Snapshot { tag }),
            OP_REPORT => exact(9, Request::Report { tag }),
            OP_SHUTDOWN => exact(9, Request::Shutdown { tag }),
            _ => Err(tag),
        }
    }
}

/// Writes one frame: length prefix + payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame. `Ok(None)` = the peer closed cleanly *before* the
/// frame started; EOF mid-frame is an [`io::ErrorKind::UnexpectedEof`]
/// error. A length prefix above `MAX_FRAME` (1 MiB, or zero) is
/// [`io::ErrorKind::InvalidData`] — the caller answers
/// [`Status::BadFrame`] and closes, since the stream position is
/// unrecoverable.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    read_frame_with(r, || false)
}

/// [`read_frame`] with a stop predicate polled whenever a blocking read
/// times out ([`io::ErrorKind::WouldBlock`]/`TimedOut`): the server's
/// frontends set a short read timeout and pass the shutdown flag, so a
/// slow-loris writer ties up only its own connection and a shutdown is
/// never blocked on an idle peer. Partial frames survive timeouts — the
/// accumulated bytes are kept until the frame completes or the stop
/// predicate fires (reported as [`io::ErrorKind::Interrupted`]).
pub(crate) fn read_frame_with(
    r: &mut impl Read,
    should_stop: impl Fn() -> bool,
) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    if !read_exact_with(r, &mut len_buf, true, &should_stop)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside 1..={MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len];
    if !read_exact_with(r, &mut payload, false, &should_stop)? {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(Some(payload))
}

/// Fills `buf`, tolerating read timeouts. Returns `false` on EOF at
/// offset 0 when `eof_ok` (clean close between frames).
fn read_exact_with(
    r: &mut impl Read,
    buf: &mut [u8],
    eof_ok: bool,
    should_stop: &impl Fn() -> bool,
) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && eof_ok {
                    return Ok(false);
                }
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if should_stop() {
                    return Err(io::ErrorKind::Interrupted.into());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Connect {
                tag: 7,
                src: 1,
                dst: 2,
                deadline_ms: 250,
            },
            Request::Disconnect { tag: 7 },
            Request::Fault {
                tag: 9,
                switch: 33,
                open: true,
            },
            Request::Repair {
                tag: 10,
                switch: 33,
            },
            Request::Metrics { tag: 1 },
            Request::Reload {
                tag: 2,
                spec: "clos-strict 4 4".into(),
            },
            Request::Snapshot { tag: 3 },
            Request::Report { tag: 4 },
            Request::Shutdown { tag: 5 },
        ];
        for req in reqs {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes), Ok(req.clone()), "{req:?}");
        }
    }

    #[test]
    fn malformed_requests_decode_to_err_with_best_effort_tag() {
        assert_eq!(Request::decode(&[]), Err(0));
        assert_eq!(Request::decode(&[0xEE]), Err(0), "unknown opcode, no tag");
        // unknown opcode with readable tag
        let mut bad = vec![0xEEu8];
        bad.extend_from_slice(&42u64.to_le_bytes());
        assert_eq!(Request::decode(&bad), Err(42));
        // short connect payload
        let mut short = Request::Connect {
            tag: 3,
            src: 0,
            dst: 0,
            deadline_ms: 0,
        }
        .encode();
        short.truncate(12);
        assert_eq!(Request::decode(&short), Err(3), "short body, tag intact");
        short.truncate(5);
        assert_eq!(Request::decode(&short), Err(0), "tag itself truncated");
        // trailing garbage after a well-formed disconnect
        let mut long = Request::Disconnect { tag: 8 }.encode();
        long.push(0xFF);
        assert_eq!(Request::decode(&long), Err(8));
        // invalid UTF-8 reload spec
        let mut reload = Request::Reload {
            tag: 6,
            spec: String::new(),
        }
        .encode();
        reload.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(Request::decode(&reload), Err(6));
    }

    #[test]
    fn responses_round_trip() {
        let resp = Response::ok(99, b"hello".to_vec());
        assert_eq!(Response::decode(&resp.encode()), Some(resp));
        let err = Response::new(Status::Shed, 7);
        assert_eq!(Response::decode(&err.encode()), Some(err));
        assert_eq!(Response::decode(&[0, 1, 2]), None, "short payload");
        assert_eq!(
            Response::decode(&[200, 0, 0, 0, 0, 0, 0, 0, 0]),
            None,
            "unknown status"
        );
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc").unwrap();
        write_frame(&mut buf, b"defg").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"abc");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"defg");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
        // oversized length prefix
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let mut r = &huge[..];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // zero length prefix
        let zero = 0u32.to_le_bytes();
        let mut r = &zero[..];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // EOF mid-frame
        let mut torn = Vec::new();
        write_frame(&mut torn, b"full frame").unwrap();
        torn.truncate(7);
        let mut r = &torn[..];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn status_labels_are_distinct() {
        let all: Vec<Status> = (0..=10).map(|b| Status::from_u8(b).unwrap()).collect();
        let labels: std::collections::BTreeSet<&str> = all.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), all.len());
        assert!(Status::from_u8(11).is_none());
    }
}
