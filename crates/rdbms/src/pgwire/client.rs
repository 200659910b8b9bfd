//! A minimal blocking wire client, used by the integration tests, the
//! benchmark's wire sessions, and the server binary's `--check`
//! self-smoke.
//!
//! This is deliberately *not* a general PostgreSQL driver: it speaks
//! exactly the subset the front end emits, decodes everything as text,
//! and surfaces server errors as typed [`ClientError::Server`] values
//! carrying the SQLSTATE — which is what the tests assert on.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use super::framing::{MAX_MESSAGE_LEN, PROTOCOL_VERSION};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    /// The server closed the stream where a message was expected.
    Closed,
    /// The server sent bytes this client cannot decode.
    Protocol(String),
    /// The server answered with an `ErrorResponse`.
    Server {
        sqlstate: String,
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client I/O error: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::Protocol(d) => write!(f, "client cannot decode server bytes: {d}"),
            ClientError::Server { sqlstate, message } => {
                write!(f, "server error {sqlstate}: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One statement's decoded result.
#[derive(Debug, Default, Clone)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// The CommandComplete tag, e.g. `SELECT 3`.
    pub tag: String,
}

/// A connected, authenticated session. Reads go through a buffer, so a
/// result's `DataRow`s arrive a socket read at a time rather than two
/// `read` calls per message; writes go straight to the socket.
pub struct WireClient {
    stream: BufReader<TcpStream>,
    /// ParameterStatus values announced at startup (server_version, …).
    pub parameters: Vec<(String, String)>,
}

impl WireClient {
    /// Connect and complete the startup handshake. `params` are startup
    /// parameters beyond `user` (e.g. `("backend", "sql")`).
    pub fn connect(
        addr: &std::net::SocketAddr,
        params: &[(&str, &str)],
    ) -> Result<WireClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        Self::handshake(stream, params)
    }

    /// Like [`WireClient::connect`] with a connect timeout, for tests
    /// that race the listener.
    pub fn connect_timeout(
        addr: &std::net::SocketAddr,
        timeout: Duration,
        params: &[(&str, &str)],
    ) -> Result<WireClient, ClientError> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        Self::handshake(stream, params)
    }

    fn handshake(
        mut stream: TcpStream,
        params: &[(&str, &str)],
    ) -> Result<WireClient, ClientError> {
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(30))).ok();

        let mut body = Vec::new();
        body.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
        for (k, v) in std::iter::once(&("user", "obda")).chain(params.iter()) {
            body.extend_from_slice(k.as_bytes());
            body.push(0);
            body.extend_from_slice(v.as_bytes());
            body.push(0);
        }
        body.push(0);
        let len = (body.len() + 4) as i32;
        stream.write_all(&len.to_be_bytes())?;
        stream.write_all(&body)?;

        let mut client = WireClient {
            stream: BufReader::new(stream),
            parameters: Vec::new(),
        };
        // Drain until ReadyForQuery, collecting ParameterStatus.
        loop {
            let (tag, body) = client.read_message()?;
            match tag {
                b'R' => {
                    let code = be_i32(&body, 0)?;
                    if code != 0 {
                        return Err(ClientError::Protocol(format!(
                            "unsupported authentication request {code}"
                        )));
                    }
                }
                b'S' => {
                    let mut parts = body.split(|&b| b == 0);
                    let name = utf8(parts.next().unwrap_or_default())?;
                    let value = utf8(parts.next().unwrap_or_default())?;
                    client.parameters.push((name, value));
                }
                b'K' => {} // BackendKeyData: cancellation unsupported, ignore.
                b'Z' => return Ok(client),
                b'E' => return Err(decode_error(&body)),
                b'N' => {} // NoticeResponse
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected startup message '{}'",
                        other.escape_ascii()
                    )))
                }
            }
        }
    }

    /// Run a simple-protocol query buffer; returns one [`QueryResult`]
    /// per completed statement. If the server reports an error, results
    /// of earlier statements in the buffer are discarded and the error
    /// is returned (after draining to ReadyForQuery, so the connection
    /// stays usable).
    pub fn simple_query(&mut self, text: &str) -> Result<Vec<QueryResult>, ClientError> {
        let mut frame = Vec::with_capacity(text.len() + 6);
        frame.push(b'Q');
        frame.extend_from_slice(&((text.len() + 5) as i32).to_be_bytes());
        frame.extend_from_slice(text.as_bytes());
        frame.push(0);
        self.stream.get_mut().write_all(&frame)?;

        let mut results = Vec::new();
        let mut current = QueryResult::default();
        let mut error: Option<ClientError> = None;
        let mut body = Vec::new();
        loop {
            let tag = self.read_message_into(&mut body)?;
            match tag {
                b'T' => current.columns = decode_row_description(&body)?,
                b'D' => current.rows.push(decode_data_row(&body)?),
                b'C' => {
                    current.tag = cstr_at(&body, 0)?;
                    results.push(std::mem::take(&mut current));
                }
                b'I' => {} // EmptyQueryResponse
                b'E' => {
                    if error.is_none() {
                        error = Some(decode_error(&body));
                    }
                }
                b'N' => {}
                b'Z' => {
                    return match error {
                        Some(e) => Err(e),
                        None => Ok(results),
                    };
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected message '{}' in simple-query response",
                        other.escape_ascii()
                    )))
                }
            }
        }
    }

    /// Extended protocol: Parse + Bind + Describe(portal) + Execute +
    /// Sync for a single statement, returning its result.
    pub fn extended_query(&mut self, text: &str) -> Result<QueryResult, ClientError> {
        let mut buf = Vec::new();
        // Parse: unnamed statement, no parameter types.
        frame(&mut buf, b'P', |b| {
            b.push(0); // statement name ""
            b.extend_from_slice(text.as_bytes());
            b.push(0);
            b.extend_from_slice(&0i16.to_be_bytes());
        });
        // Bind: unnamed portal <- unnamed statement, no formats/params.
        frame(&mut buf, b'B', |b| {
            b.push(0);
            b.push(0);
            b.extend_from_slice(&0i16.to_be_bytes());
            b.extend_from_slice(&0i16.to_be_bytes());
            b.extend_from_slice(&0i16.to_be_bytes());
        });
        // Describe the unnamed portal.
        frame(&mut buf, b'D', |b| {
            b.push(b'P');
            b.push(0);
        });
        // Execute the unnamed portal, no row limit.
        frame(&mut buf, b'E', |b| {
            b.push(0);
            b.extend_from_slice(&0i32.to_be_bytes());
        });
        frame(&mut buf, b'S', |_| {});
        self.stream.get_mut().write_all(&buf)?;

        let mut result = QueryResult::default();
        let mut error: Option<ClientError> = None;
        let mut body = Vec::new();
        loop {
            let tag = self.read_message_into(&mut body)?;
            match tag {
                b'1' | b'2' | b'3' | b'n' | b't' => {}
                b'T' => result.columns = decode_row_description(&body)?,
                b'D' => result.rows.push(decode_data_row(&body)?),
                b'C' => result.tag = cstr_at(&body, 0)?,
                b'E' => {
                    if error.is_none() {
                        error = Some(decode_error(&body));
                    }
                }
                b'N' => {}
                b'Z' => {
                    return match error {
                        Some(e) => Err(e),
                        None => Ok(result),
                    };
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected message '{}' in extended-query response",
                        other.escape_ascii()
                    )))
                }
            }
        }
    }

    /// Send Terminate and close.
    pub fn terminate(mut self) {
        let stream = self.stream.get_mut();
        let _ = stream.write_all(&[b'X', 0, 0, 0, 4]);
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }

    /// Raw access for protocol-abuse tests: send arbitrary bytes.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.get_mut().write_all(bytes)?;
        Ok(())
    }

    /// Raw access for protocol-abuse tests: read the next message.
    ///
    /// The declared length is validated *before* the body-size
    /// subtraction or any allocation, mirroring the server-side framing
    /// rules: below the 4-byte minimum (including negative — the field is
    /// signed on the wire) or above [`MAX_MESSAGE_LEN`] is a typed
    /// [`ClientError::Protocol`], never an underflow panic or an
    /// allocation-of-death.
    pub fn read_message(&mut self) -> Result<(u8, Vec<u8>), ClientError> {
        let mut body = Vec::new();
        let tag = self.read_message_into(&mut body)?;
        Ok((tag, body))
    }

    /// [`WireClient::read_message`] into a caller-owned body buffer, so
    /// the messages of one result (a `DataRow` each) reuse one allocation.
    /// The declared length is validated before the buffer grows.
    fn read_message_into(&mut self, body: &mut Vec<u8>) -> Result<u8, ClientError> {
        let mut header = [0u8; 5];
        read_full(&mut self.stream, &mut header)?;
        let tag = header[0];
        let len = i32::from_be_bytes(header[1..5].try_into().unwrap());
        if len < 4 || len as usize > MAX_MESSAGE_LEN {
            return Err(ClientError::Protocol(format!(
                "server message '{}' declares {len} bytes (valid: 4..={MAX_MESSAGE_LEN})",
                tag.escape_ascii()
            )));
        }
        body.clear();
        body.resize(len as usize - 4, 0);
        read_full(&mut self.stream, body)?;
        Ok(tag)
    }
}

fn frame(buf: &mut Vec<u8>, tag: u8, fill: impl FnOnce(&mut Vec<u8>)) {
    buf.push(tag);
    let at = buf.len();
    buf.extend_from_slice(&[0, 0, 0, 0]);
    fill(buf);
    let len = (buf.len() - at) as i32;
    buf[at..at + 4].copy_from_slice(&len.to_be_bytes());
}

fn read_full(stream: &mut impl Read, buf: &mut [u8]) -> Result<(), ClientError> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(ClientError::Closed),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

fn be_i32(body: &[u8], at: usize) -> Result<i32, ClientError> {
    body.get(at..at + 4)
        .map(|s| i32::from_be_bytes(s.try_into().unwrap()))
        .ok_or_else(|| ClientError::Protocol("truncated i32".into()))
}

fn be_i16(body: &[u8], at: usize) -> Result<i16, ClientError> {
    body.get(at..at + 2)
        .map(|s| i16::from_be_bytes(s.try_into().unwrap()))
        .ok_or_else(|| ClientError::Protocol("truncated i16".into()))
}

fn utf8(bytes: &[u8]) -> Result<String, ClientError> {
    String::from_utf8(bytes.to_vec())
        .map_err(|_| ClientError::Protocol("non-UTF-8 string from server".into()))
}

fn cstr_at(body: &[u8], at: usize) -> Result<String, ClientError> {
    let rest = body
        .get(at..)
        .ok_or_else(|| ClientError::Protocol("truncated string".into()))?;
    let nul = rest
        .iter()
        .position(|&b| b == 0)
        .ok_or_else(|| ClientError::Protocol("unterminated string from server".into()))?;
    utf8(&rest[..nul])
}

fn decode_row_description(body: &[u8]) -> Result<Vec<String>, ClientError> {
    let ncols = be_i16(body, 0)?;
    let mut columns = Vec::with_capacity(ncols.max(0) as usize);
    let mut at = 2;
    for _ in 0..ncols {
        let name = cstr_at(body, at)?;
        at += name.len() + 1 + 18; // name NUL + 6 fixed fields (18 bytes)
        columns.push(name);
    }
    Ok(columns)
}

fn decode_data_row(body: &[u8]) -> Result<Vec<String>, ClientError> {
    let ncols = be_i16(body, 0)?;
    let mut row = Vec::with_capacity(ncols.max(0) as usize);
    let mut at = 2;
    for _ in 0..ncols {
        let len = be_i32(body, at)?;
        at += 4;
        if len < 0 {
            row.push(String::new());
        } else {
            let bytes = body
                .get(at..at + len as usize)
                .ok_or_else(|| ClientError::Protocol("truncated DataRow value".into()))?;
            row.push(utf8(bytes)?);
            at += len as usize;
        }
    }
    Ok(row)
}

fn decode_error(body: &[u8]) -> ClientError {
    let mut sqlstate = String::new();
    let mut message = String::new();
    let mut at = 0;
    while let Some(&field) = body.get(at) {
        if field == 0 {
            break;
        }
        at += 1;
        let Ok(value) = cstr_at(body, at) else { break };
        at += value.len() + 1;
        match field {
            b'C' => sqlstate = value,
            b'M' => message = value,
            _ => {}
        }
    }
    ClientError::Server { sqlstate, message }
}
