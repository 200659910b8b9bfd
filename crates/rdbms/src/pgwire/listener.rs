//! The accepting front end: a TCP listener spawning one session thread
//! per connection, with admission control and graceful shutdown.
//!
//! Threading model: the paper's serving regime (many readers over a
//! shared snapshot, §6.4's amortized planning) maps naturally onto an
//! OS thread per connection — queries clone the snapshot `Arc` and run
//! lock-free, so the listener needs no work-stealing machinery, only a
//! bound on how many sessions may exist at once. Beyond that bound a
//! connection is still *accepted* (so the client gets a proper answer),
//! told `53300 too_many_connections` in response to its startup packet,
//! and closed — admission control with a typed refusal, not a SYN queue
//! timeout.
//!
//! Shutdown is cooperative: [`PgListener::shutdown`] flips a shared
//! flag and wakes the accept loop — which blocks in `accept`, so a
//! connect costs no polling interval — with a loopback connection to
//! its own port; the loop stops accepting, idle sessions are told
//! `57P01 admin_shutdown` at their next frame boundary, and statements
//! already executing finish on their pinned snapshots (the frame reader
//! grants mid-message grace). `shutdown` then joins every thread, so
//! when it returns no session thread survives.

use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use super::framing::{read_startup, OutBuf, GSSENC_REQUEST, SSL_REQUEST};
use super::messages as msg;
use super::session::{run_session, SessionConfig, SessionEnd};
use crate::observe::Counter;
use crate::server::Server;
use crate::sqlexec::Backend;

/// Listener configuration.
#[derive(Clone, Debug)]
pub struct PgConfig {
    /// Sessions allowed at once; further connections get `53300`.
    pub max_connections: usize,
    /// Backend for sessions that do not pass `backend=` at startup.
    pub default_backend: Backend,
    /// Honor the chaos `PANIC` statement (test harnesses only).
    pub allow_chaos: bool,
}

impl Default for PgConfig {
    fn default() -> Self {
        PgConfig {
            max_connections: 64,
            default_backend: Backend::Native,
            allow_chaos: false,
        }
    }
}

/// Handle to a running wire listener. Dropping the handle does *not*
/// stop the server — call [`PgListener::shutdown`].
pub struct PgListener {
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<std::thread::JoinHandle<SessionEnd>>>>,
}

impl PgListener {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start accepting connections against `server`.
    pub fn bind(addr: &str, server: Arc<Server>, config: PgConfig) -> std::io::Result<PgListener> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;

        let stop = Arc::new(AtomicBool::new(false));
        let sessions: Arc<Mutex<Vec<std::thread::JoinHandle<SessionEnd>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let active = Arc::new(AtomicUsize::new(0));
        let next_id = Arc::new(AtomicI32::new(1));

        let accept_stop = stop.clone();
        let accept_sessions = sessions.clone();
        let accept_thread = std::thread::Builder::new()
            .name("pgwire-accept".into())
            .spawn(move || {
                accept_loop(
                    listener,
                    server,
                    config,
                    accept_stop,
                    accept_sessions,
                    active,
                    next_id,
                )
            })?;

        Ok(PgListener {
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
            sessions,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Request shutdown and wait for the accept loop and every session
    /// thread to finish. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            // The loop is parked in a blocking `accept`: one throwaway
            // connection makes it return and see the flag. If the
            // connect fails the listener is already gone, and so is the
            // loop.
            let _ = TcpStream::connect_timeout(&wake_addr(self.local_addr), WAKE_TIMEOUT);
            let _ = h.join();
        }
        let handles = {
            let mut guard = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *guard)
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

/// How long `shutdown` waits for its wake-up connection (loopback: a
/// refusal or success is immediate; the bound covers a full backlog).
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Where to reach our own listener: its port, on the loopback address
/// of its family when it is bound to the wildcard address.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let ip = match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, local.port())
}

impl Drop for PgListener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    server: Arc<Server>,
    config: PgConfig,
    stop: Arc<AtomicBool>,
    sessions: Arc<Mutex<Vec<std::thread::JoinHandle<SessionEnd>>>>,
    active: Arc<AtomicUsize>,
    next_id: Arc<AtomicI32>,
) {
    loop {
        let accepted = listener.accept();
        // Checked after every wake-up: the connection that ended the
        // wait may be `shutdown`'s own, and a client racing it is
        // dropped unanswered exactly as one arriving a moment later.
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let stream = match accepted {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                // Transient (EMFILE, aborted handshake): back off so a
                // persistent failure cannot spin the core.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };

        // Admission control: reserve a slot before spawning. The
        // refusal still reads the startup packet so the client gets a
        // protocol-correct ErrorResponse rather than a slammed door.
        let prev = active.fetch_add(1, Ordering::SeqCst);
        if prev >= config.max_connections {
            active.fetch_sub(1, Ordering::SeqCst);
            server.observe().add(Counter::ConnectionsRejected, 1);
            let stop2 = stop.clone();
            let _ = std::thread::Builder::new()
                .name("pgwire-reject".into())
                .spawn(move || reject_saturated(stream, &stop2));
            continue;
        }
        server.observe().add(Counter::ConnectionsAdmitted, 1);

        let server2 = server.clone();
        let stop2 = stop.clone();
        let active2 = active.clone();
        let cfg = SessionConfig {
            default_backend: config.default_backend,
            allow_chaos: config.allow_chaos,
            session_id: next_id.fetch_add(1, Ordering::Relaxed),
        };
        let spawn = std::thread::Builder::new()
            .name(format!("pgwire-session-{}", cfg.session_id))
            .spawn(move || {
                // Decrement on every exit path, including panics the
                // session failed to contain (none are expected).
                struct Slot(Arc<AtomicUsize>);
                impl Drop for Slot {
                    fn drop(&mut self) {
                        self.0.fetch_sub(1, Ordering::SeqCst);
                    }
                }
                let _slot = Slot(active2);
                let end = run_session(&server2, stream, &stop2, &cfg);
                if end == SessionEnd::Panicked {
                    server2.observe().add(Counter::PanicsRecovered, 1);
                }
                end
            });
        match spawn {
            Ok(handle) => {
                let mut guard = sessions.lock().unwrap_or_else(|e| e.into_inner());
                // Reap finished sessions so the handle list stays small
                // on long-lived listeners.
                guard.retain(|h| !h.is_finished());
                guard.push(handle);
            }
            Err(_) => {
                active.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// Complete just enough protocol with an over-limit client to deliver
/// `53300 too_many_connections`, then close.
fn reject_saturated(mut stream: TcpStream, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(super::framing::POLL_INTERVAL));
    let mut out = OutBuf::new();
    // Answer at most a couple of SSL/GSSENC probes, then the startup
    // packet itself, with the refusal.
    for _ in 0..3 {
        match read_startup(&mut stream, stop) {
            Ok(Some((code, _body))) if code == SSL_REQUEST || code == GSSENC_REQUEST => {
                out.raw_byte(b'N');
                if out.flush_to(&mut stream).is_err() {
                    return;
                }
            }
            Ok(Some(_)) => break,
            _ => return,
        }
    }
    msg::error_response(
        &mut out,
        msg::SQLSTATE_TOO_MANY_CONNECTIONS,
        "too many connections; the server is at its session limit",
    );
    let _ = out.flush_to(&mut stream);
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Both);
}
