//! Typed PostgreSQL backend messages and frontend-message decoders.
//!
//! The constructors append complete frames to an [`OutBuf`]; the decoders
//! parse frontend bodies with the checked [`Cursor`] so a malformed body
//! is a typed error, never a panic. Only the slice of the protocol this
//! front end speaks is covered — enough for `psql`-style simple queries
//! and the Parse/Bind/Describe/Execute/Close/Sync extended subset.

use super::framing::{Cursor, FrameError, OutBuf};

/// The only column type we emit: everything is rendered as `TEXT`
/// (OID 25), which every driver can decode.
pub const TEXT_OID: i32 = 25;

// ---------------------------------------------------------------------------
// SQLSTATE codes used by this front end.
// ---------------------------------------------------------------------------

/// `too_many_connections` — admission control rejected the session.
pub const SQLSTATE_TOO_MANY_CONNECTIONS: &str = "53300";
/// `admin_shutdown` — the server is draining for shutdown.
pub const SQLSTATE_ADMIN_SHUTDOWN: &str = "57P01";
/// `statement_too_complex` — the engine refused an oversized statement.
pub const SQLSTATE_STATEMENT_TOO_COMPLEX: &str = "54001";
/// `syntax_error` — the wire query text did not parse or resolve.
pub const SQLSTATE_SYNTAX_ERROR: &str = "42601";
/// `protocol_violation` — the peer broke the framing or message rules.
pub const SQLSTATE_PROTOCOL_VIOLATION: &str = "08P01";
/// `internal_error` — a panic or other unexpected failure was contained.
pub const SQLSTATE_INTERNAL_ERROR: &str = "XX000";
/// `invalid_parameter_value` — bad startup parameter (e.g. `backend=`).
pub const SQLSTATE_INVALID_PARAMETER: &str = "22023";
/// `feature_not_supported` — a protocol feature outside our subset.
pub const SQLSTATE_NOT_SUPPORTED: &str = "0A000";
/// `cannot_connect_now` — server still starting or otherwise refusing.
pub const SQLSTATE_CANNOT_CONNECT_NOW: &str = "57P03";
/// `no_active_sql_transaction` — `COMMIT`/`ROLLBACK` with no transaction
/// open.
pub const SQLSTATE_NO_ACTIVE_TRANSACTION: &str = "25P01";
/// `in_failed_sql_transaction` — a statement other than `COMMIT` or
/// `ROLLBACK` inside an aborted transaction.
pub const SQLSTATE_IN_FAILED_TRANSACTION: &str = "25P02";
/// `active_sql_transaction` — `BEGIN` while a transaction is already
/// open.
pub const SQLSTATE_ACTIVE_TRANSACTION: &str = "25001";
/// `serialization_failure` — first-committer-wins aborted the commit;
/// the client should retry the whole transaction.
pub const SQLSTATE_SERIALIZATION_FAILURE: &str = "40001";

// ---------------------------------------------------------------------------
// Backend message constructors.
// ---------------------------------------------------------------------------

pub fn authentication_ok(out: &mut OutBuf) {
    out.begin(b'R').i32(0).end();
}

pub fn parameter_status(out: &mut OutBuf, name: &str, value: &str) {
    out.begin(b'S').cstr(name).cstr(value).end();
}

pub fn backend_key_data(out: &mut OutBuf, pid: i32, secret: i32) {
    out.begin(b'K').i32(pid).i32(secret).end();
}

/// `ReadyForQuery` with the session's transaction status: `'I'` idle,
/// `'T'` in an open transaction, `'E'` in a failed transaction awaiting
/// `ROLLBACK`.
pub fn ready_for_query(out: &mut OutBuf, status: u8) {
    debug_assert!(matches!(status, b'I' | b'T' | b'E'));
    out.begin(b'Z').u8(status).end();
}

/// `RowDescription`: every column is a TEXT attribute with no table
/// origin (`table_oid` 0, `attnum` 0) in the text format.
pub fn row_description(out: &mut OutBuf, columns: &[String]) {
    out.begin(b'T').i16(columns.len() as i16);
    for name in columns {
        out.cstr(name)
            .i32(0) // table oid: not from a table
            .i16(0) // attribute number
            .i32(TEXT_OID)
            .i16(-1) // typlen: variable
            .i32(-1) // typmod: none
            .i16(0); // format: text
    }
    out.end();
}

/// `DataRow` in text format, one value per column, encoded straight from
/// the borrowed strings.
pub fn data_row<'a>(out: &mut OutBuf, values: impl ExactSizeIterator<Item = &'a str>) {
    out.begin(b'D').i16(values.len() as i16);
    for s in values {
        out.i32(s.len() as i32).bytes(s.as_bytes());
    }
    out.end();
}

pub fn command_complete(out: &mut OutBuf, tag: &str) {
    out.begin(b'C').cstr(tag).end();
}

pub fn empty_query_response(out: &mut OutBuf) {
    out.begin(b'I').end();
}

/// `ErrorResponse` with severity `ERROR`, the given SQLSTATE, and a
/// human-readable message.
pub fn error_response(out: &mut OutBuf, sqlstate: &str, message: &str) {
    out.begin(b'E')
        .u8(b'S')
        .cstr("ERROR")
        .u8(b'V')
        .cstr("ERROR")
        .u8(b'C')
        .cstr(sqlstate)
        .u8(b'M')
        .cstr(message)
        .u8(0)
        .end();
}

pub fn parse_complete(out: &mut OutBuf) {
    out.begin(b'1').end();
}

pub fn bind_complete(out: &mut OutBuf) {
    out.begin(b'2').end();
}

pub fn close_complete(out: &mut OutBuf) {
    out.begin(b'3').end();
}

pub fn no_data(out: &mut OutBuf) {
    out.begin(b'n').end();
}

/// `ParameterDescription` — our statements take no parameters, so the
/// count is always zero.
pub fn parameter_description(out: &mut OutBuf) {
    out.begin(b't').i16(0).end();
}

// ---------------------------------------------------------------------------
// Frontend message decoders (extended protocol subset).
// ---------------------------------------------------------------------------

/// Decoded `Parse` message. Declared parameter-type OIDs are read and
/// validated but ignored (we accept only zero parameters at Bind time).
pub struct ParseMsg {
    pub statement: String,
    pub query: String,
}

pub fn decode_parse(body: &[u8]) -> Result<ParseMsg, FrameError> {
    let mut c = Cursor::new(body);
    let statement = c.cstr("Parse.statement")?.to_string();
    let query = c.cstr("Parse.query")?.to_string();
    let nparams = c.i16("Parse.nparams")?;
    if nparams < 0 {
        return Err(FrameError::Malformed(format!(
            "Parse declares {nparams} parameter types"
        )));
    }
    for i in 0..nparams {
        c.i32(&format!("Parse.param_type[{i}]"))?;
    }
    Ok(ParseMsg { statement, query })
}

/// Decoded `Bind` message. Parameter values are decoded (and counted)
/// so the cursor stays aligned, but the session rejects any statement
/// bound with parameters — the wire query language has no placeholders.
pub struct BindMsg {
    pub portal: String,
    pub statement: String,
    pub nparams: i16,
}

pub fn decode_bind(body: &[u8]) -> Result<BindMsg, FrameError> {
    let mut c = Cursor::new(body);
    let portal = c.cstr("Bind.portal")?.to_string();
    let statement = c.cstr("Bind.statement")?.to_string();
    let nformats = c.i16("Bind.nformats")?;
    if nformats < 0 {
        return Err(FrameError::Malformed(format!(
            "Bind declares {nformats} parameter formats"
        )));
    }
    for i in 0..nformats {
        c.i16(&format!("Bind.format[{i}]"))?;
    }
    let nparams = c.i16("Bind.nparams")?;
    if nparams < 0 {
        return Err(FrameError::Malformed(format!(
            "Bind declares {nparams} parameters"
        )));
    }
    for i in 0..nparams {
        let len = c.i32(&format!("Bind.param_len[{i}]"))?;
        if len > 0 {
            c.bytes(len as usize, &format!("Bind.param[{i}]"))?;
        } else if len < -1 {
            return Err(FrameError::Malformed(format!(
                "Bind parameter {i} declares length {len}"
            )));
        }
    }
    let nresult = c.i16("Bind.nresult_formats")?;
    if nresult < 0 {
        return Err(FrameError::Malformed(format!(
            "Bind declares {nresult} result formats"
        )));
    }
    for i in 0..nresult {
        let fmt = c.i16(&format!("Bind.result_format[{i}]"))?;
        if fmt != 0 {
            return Err(FrameError::Malformed(format!(
                "result format {fmt} requested; only text (0) is supported"
            )));
        }
    }
    Ok(BindMsg {
        portal,
        statement,
        nparams,
    })
}

/// Decoded `Describe` / `Close` message: a kind byte (`'S'` statement or
/// `'P'` portal) plus a name.
pub struct TargetMsg {
    pub kind: u8,
    pub name: String,
}

pub fn decode_target(body: &[u8], what: &str) -> Result<TargetMsg, FrameError> {
    let mut c = Cursor::new(body);
    let kind = c.u8(&format!("{what}.kind"))?;
    if kind != b'S' && kind != b'P' {
        return Err(FrameError::Malformed(format!(
            "{what} kind must be 'S' or 'P', got '{}'",
            kind.escape_ascii()
        )));
    }
    let name = c.cstr(&format!("{what}.name"))?.to_string();
    Ok(TargetMsg { kind, name })
}

/// Decoded `Execute` message (row limit is read and ignored — all our
/// result sets are delivered whole).
pub struct ExecuteMsg {
    pub portal: String,
}

pub fn decode_execute(body: &[u8]) -> Result<ExecuteMsg, FrameError> {
    let mut c = Cursor::new(body);
    let portal = c.cstr("Execute.portal")?.to_string();
    c.i32("Execute.max_rows")?;
    Ok(ExecuteMsg { portal })
}

/// Decoded `Query` (simple protocol) body: a single NUL-terminated string.
pub fn decode_query(body: &[u8]) -> Result<String, FrameError> {
    let mut c = Cursor::new(body);
    Ok(c.cstr("Query.text")?.to_string())
}

/// Split the startup body (`key\0value\0...\0`) into parameter pairs.
pub fn decode_startup_params(body: &[u8]) -> Result<Vec<(String, String)>, FrameError> {
    let mut c = Cursor::new(body);
    let mut params = Vec::new();
    loop {
        if c.remaining() <= 1 {
            break;
        }
        let key = c.cstr("startup.key")?.to_string();
        if key.is_empty() {
            break;
        }
        let value = c.cstr("startup.value")?.to_string();
        params.push((key, value));
    }
    Ok(params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_bind_round_trip() {
        // Parse: "stmt\0" "SELECT 1\0" nparams=1 oid=25
        let mut body = Vec::new();
        body.extend_from_slice(b"stmt\0SELECT 1\0");
        body.extend_from_slice(&1i16.to_be_bytes());
        body.extend_from_slice(&25i32.to_be_bytes());
        let p = decode_parse(&body).unwrap();
        assert_eq!(p.statement, "stmt");
        assert_eq!(p.query, "SELECT 1");

        // Bind: portal "" statement "stmt", no formats, one NULL param,
        // no result formats.
        let mut body = Vec::new();
        body.extend_from_slice(b"\0stmt\0");
        body.extend_from_slice(&0i16.to_be_bytes());
        body.extend_from_slice(&1i16.to_be_bytes());
        body.extend_from_slice(&(-1i32).to_be_bytes());
        body.extend_from_slice(&0i16.to_be_bytes());
        let b = decode_bind(&body).unwrap();
        assert_eq!(b.statement, "stmt");
        assert_eq!(b.nparams, 1);
    }

    #[test]
    fn truncated_bodies_are_typed_errors() {
        assert!(decode_parse(b"name\0no-nparams\0").is_err());
        assert!(decode_bind(b"\0stmt\0").is_err());
        assert!(decode_execute(b"portal-without-nul").is_err());
        assert!(decode_target(b"X\0", "Describe").is_err());
    }

    #[test]
    fn startup_params_split_cleanly() {
        let body = b"user\0alice\0backend\0sql\0\0";
        let params = decode_startup_params(body).unwrap();
        assert_eq!(
            params,
            vec![
                ("user".into(), "alice".into()),
                ("backend".into(), "sql".into())
            ]
        );
    }
}
