//! Byte-level framing of the PostgreSQL wire protocol (v3).
//!
//! Two frame shapes exist on the wire:
//!
//! * the **startup packet** — `[len: i32][code: i32][body]`, no tag byte
//!   (the very first frame of a connection; `code` is either the
//!   protocol version or one of the special request codes);
//! * **typed messages** — `[tag: u8][len: i32][body]`, where `len`
//!   counts itself but not the tag. Both directions use this shape after
//!   startup.
//!
//! Every length field read off the wire is validated *before* any
//! allocation: a declared length below the 4-byte minimum or above
//! [`MAX_MESSAGE_LEN`] is a protocol violation ([`FrameError::Malformed`]),
//! not an allocation request — a malicious or broken client cannot make
//! the server reserve gigabytes. A peer that disconnects mid-message
//! surfaces [`FrameError::Disconnected`]; a disconnect **on** a message
//! boundary is a clean end of stream (`Ok(None)`). None of these paths
//! can panic — the malformed-protocol fuzz suite drives each one.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Hard cap on a typed message's declared length (bytes, including the
/// length field itself). Far above any legitimate statement, far below
/// an allocation-of-death.
pub const MAX_MESSAGE_LEN: usize = 16 * 1024 * 1024;

/// Hard cap on the startup packet (PostgreSQL itself enforces 10000).
pub const MAX_STARTUP_LEN: usize = 10_000;

/// The protocol version this front end speaks: 3.0.
pub const PROTOCOL_VERSION: u32 = 196_608;
/// `SSLRequest` magic code — answered with a single `'N'` (no TLS).
pub const SSL_REQUEST: u32 = 80_877_103;
/// `GSSENCRequest` magic code — answered with a single `'N'`.
pub const GSSENC_REQUEST: u32 = 80_877_104;
/// `CancelRequest` magic code — acknowledged by closing the connection.
pub const CANCEL_REQUEST: u32 = 80_877_102;

/// Read-side timeout used while polling for the next frame; short so the
/// session loop can observe the shutdown flag between frames.
pub const POLL_INTERVAL: Duration = Duration::from_millis(50);
/// How long a *mid-message* read may keep stalling after shutdown was
/// requested before the connection is abandoned.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(2);

/// Frame-level failures. `Malformed` means the stream can no longer be
/// trusted (the reader has lost the frame boundaries) — the session must
/// answer with a final `ErrorResponse` and close.
#[derive(Debug)]
pub enum FrameError {
    Io(std::io::Error),
    /// The peer violated the framing rules; human-readable detail.
    Malformed(String),
    /// The peer vanished in the middle of a frame.
    Disconnected,
    /// The server is shutting down and the peer was idle on a frame
    /// boundary (or stalled past the grace period).
    Shutdown,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "wire I/O error: {e}"),
            FrameError::Malformed(d) => write!(f, "malformed protocol message: {d}"),
            FrameError::Disconnected => write!(f, "peer disconnected mid-message"),
            FrameError::Shutdown => write!(f, "server shutting down"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Fill `buf` from the stream, tolerating read timeouts. `stop` is
/// polled on every timeout: once it returns true, a read stalled on a
/// frame *boundary* (nothing consumed yet) aborts immediately with
/// [`FrameError::Shutdown`], while a mid-frame read gets [`SHUTDOWN_GRACE`]
/// to finish before the connection is abandoned.
fn read_exact_polling(
    stream: &mut TcpStream,
    buf: &mut [u8],
    stop: &AtomicBool,
    at_boundary: bool,
) -> Result<usize, FrameError> {
    let mut filled = 0;
    let mut stalled = Duration::ZERO;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(0)
                } else {
                    Err(FrameError::Disconnected)
                }
            }
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                if stop.load(Ordering::Relaxed) {
                    if at_boundary && filled == 0 {
                        return Err(FrameError::Shutdown);
                    }
                    stalled += POLL_INTERVAL;
                    if stalled >= SHUTDOWN_GRACE {
                        return Err(FrameError::Shutdown);
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(filled)
}

/// Read the startup packet: returns `(code, body)` where `body` is the
/// bytes after the 8-byte prelude. `Ok(None)` = the peer connected and
/// left without sending anything.
pub fn read_startup(
    stream: &mut TcpStream,
    stop: &AtomicBool,
) -> Result<Option<(u32, Vec<u8>)>, FrameError> {
    let mut prelude = [0u8; 8];
    if read_exact_polling(stream, &mut prelude, stop, true)? == 0 {
        return Ok(None);
    }
    let len = i32::from_be_bytes(prelude[0..4].try_into().unwrap());
    let code = u32::from_be_bytes(prelude[4..8].try_into().unwrap());
    if len < 8 || len as usize > MAX_STARTUP_LEN {
        return Err(FrameError::Malformed(format!(
            "startup packet declares {len} bytes (allowed: 8..={MAX_STARTUP_LEN})"
        )));
    }
    let mut body = vec![0u8; len as usize - 8];
    if !body.is_empty() && read_exact_polling(stream, &mut body, stop, false)? == 0 {
        return Err(FrameError::Disconnected);
    }
    Ok(Some((code, body)))
}

/// Read one typed message: `Ok(Some((tag, body)))`, or `Ok(None)` if the
/// peer closed the stream cleanly on a message boundary.
pub fn read_message(
    stream: &mut TcpStream,
    stop: &AtomicBool,
) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
    let mut header = [0u8; 5];
    if read_exact_polling(stream, &mut header, stop, true)? == 0 {
        return Ok(None);
    }
    let tag = header[0];
    let len = i32::from_be_bytes(header[1..5].try_into().unwrap());
    if len < 4 || len as usize > MAX_MESSAGE_LEN {
        return Err(FrameError::Malformed(format!(
            "message '{}' declares {len} bytes (allowed: 4..={MAX_MESSAGE_LEN})",
            tag.escape_ascii()
        )));
    }
    let mut body = vec![0u8; len as usize - 4];
    if !body.is_empty() && read_exact_polling(stream, &mut body, stop, false)? == 0 {
        return Err(FrameError::Disconnected);
    }
    Ok(Some((tag, body)))
}

/// Builder for outbound backend messages: frames are accumulated and
/// flushed in one `write_all`, so a response (e.g. RowDescription +
/// DataRows + CommandComplete + ReadyForQuery) reaches the client as one
/// syscall where it fits the buffer.
#[derive(Default)]
pub struct OutBuf {
    buf: Vec<u8>,
    /// Offset of the current frame's length field (set by `begin`).
    frame_start: usize,
}

impl OutBuf {
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a typed frame; every appender below writes into it until
    /// [`OutBuf::end`] patches the length.
    pub fn begin(&mut self, tag: u8) -> &mut Self {
        self.buf.push(tag);
        self.frame_start = self.buf.len();
        self.buf.extend_from_slice(&[0, 0, 0, 0]);
        self
    }

    pub fn end(&mut self) -> &mut Self {
        let len = (self.buf.len() - self.frame_start) as i32;
        self.buf[self.frame_start..self.frame_start + 4].copy_from_slice(&len.to_be_bytes());
        self
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    pub fn i16(&mut self, v: i16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    pub fn i32(&mut self, v: i32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// NUL-terminated string (the protocol's `String` type).
    pub fn cstr(&mut self, s: &str) -> &mut Self {
        self.buf.extend_from_slice(s.as_bytes());
        self.buf.push(0);
        self
    }

    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(b);
        self
    }

    /// Append the complete frames queued in `other`.
    pub fn append(&mut self, other: &OutBuf) -> &mut Self {
        self.buf.extend_from_slice(&other.buf);
        self
    }

    /// A raw single byte *outside* any frame (the one-byte `'N'` answer
    /// to SSLRequest predates the typed-message framing).
    pub fn raw_byte(&mut self, b: u8) -> &mut Self {
        self.buf.push(b);
        self
    }

    pub fn flush_to(&mut self, stream: &mut TcpStream) -> std::io::Result<()> {
        stream.write_all(&self.buf)?;
        stream.flush()?;
        self.buf.clear();
        Ok(())
    }
}

/// Checked big-endian reader over a frontend message body. Every read is
/// bounds-checked; running past the end or failing UTF-8 is a
/// [`FrameError::Malformed`], never a panic.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Malformed(format!(
                "truncated body: {what} needs {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self, what: &str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }

    pub fn i16(&mut self, what: &str) -> Result<i16, FrameError> {
        Ok(i16::from_be_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    pub fn i32(&mut self, what: &str) -> Result<i32, FrameError> {
        Ok(i32::from_be_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// NUL-terminated UTF-8 string.
    pub fn cstr(&mut self, what: &str) -> Result<&'a str, FrameError> {
        let rest = &self.buf[self.pos..];
        let nul = rest.iter().position(|&b| b == 0).ok_or_else(|| {
            FrameError::Malformed(format!("{what}: unterminated string in message body"))
        })?;
        let s = std::str::from_utf8(&rest[..nul])
            .map_err(|_| FrameError::Malformed(format!("{what}: string is not UTF-8")))?;
        self.pos += nul + 1;
        Ok(s)
    }

    pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], FrameError> {
        self.take(n, what)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbuf_patches_frame_lengths() {
        let mut out = OutBuf::new();
        out.begin(b'Z').u8(b'I').end();
        assert_eq!(out.buf, vec![b'Z', 0, 0, 0, 5, b'I']);
    }

    #[test]
    fn cursor_rejects_overruns_and_bad_utf8() {
        let mut c = Cursor::new(&[0, 1]);
        assert!(matches!(c.i32("x"), Err(FrameError::Malformed(_))));
        let mut c = Cursor::new(b"abc"); // no NUL
        assert!(matches!(c.cstr("s"), Err(FrameError::Malformed(_))));
        let mut c = Cursor::new(&[0xff, 0xfe, 0x00]);
        assert!(matches!(c.cstr("s"), Err(FrameError::Malformed(_))));
        let mut c = Cursor::new(b"ok\0rest");
        assert_eq!(c.cstr("s").unwrap(), "ok");
        assert_eq!(c.remaining(), 4);
    }
}
