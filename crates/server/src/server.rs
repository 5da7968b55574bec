//! The TCP server: accept loop, connection threads, worker pools and the
//! idle-session sweeper.
//!
//! ## Threading model
//!
//! One **accept thread** owns the listener (nonblocking, polled so it
//! can observe shutdown). Each accepted connection gets a **connection
//! thread** that parses frames and writes responses — it is the socket's
//! only writer, so responses never interleave. Actual request execution
//! happens on two bounded [`WorkerPool`]s: a **read pool** for read-only
//! traffic (snapshot reads never block on locks, so they stay responsive
//! even when writers saturate) and a **write pool** for everything that
//! can touch the lock manager. A session with an open read-write
//! transaction is pinned to the write pool for *all* its requests — its
//! transaction may hold locks, and executing its reads on the read pool
//! would let lock-holders consume read capacity.
//!
//! ## Admission control
//!
//! Load shedding is explicit and typed at two points: at accept time
//! (session limit ⇒ `OVERLOADED` frame, connection closed) and at
//! enqueue time (pool queue full ⇒ `OVERLOADED` response, request
//! dropped before execution). `PING`/`HEALTH`/`METRICS` are answered on
//! the connection thread itself and are never shed — saturation is
//! exactly when probes must keep answering.
//!
//! ## Idle sessions
//!
//! A **sweeper thread** walks the session table every `sweep_interval`
//! and aborts transactions idle past `idle_timeout`, releasing their
//! locks (the drop-rolls-back contract of `Transaction`). The session
//! itself stays connected and learns of the abort through a typed
//! `IDLE_TIMEOUT` error on its next request.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use graphsi_core::GraphDb;
use parking_lot::Mutex;

use crate::metrics::{ServerMetrics, ServerMetricsSnapshot};
use crate::pool::{SubmitError, WorkerPool};
use crate::protocol::{write_frame, FrameReader, ProtoError, Request, Response};
use crate::session::{request_is_read, Session};

/// Tuning knobs of one [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum concurrently connected sessions; further connects are
    /// rejected with an `OVERLOADED` frame.
    pub max_sessions: usize,
    /// Worker threads executing read-only traffic.
    pub read_workers: usize,
    /// Worker threads executing write traffic (and every request of a
    /// session holding a read-write transaction).
    pub write_workers: usize,
    /// Bounded queue slots per pool; a full queue sheds requests with
    /// `OVERLOADED` instead of queueing them invisibly.
    pub queue_depth: usize,
    /// A session whose transaction sits idle this long is aborted by the
    /// sweeper (its locks release); the session survives and is told via
    /// `IDLE_TIMEOUT` on its next request.
    pub idle_timeout: Duration,
    /// How often the sweeper scans for idle transactions.
    pub sweep_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 1024,
            read_workers: 2,
            write_workers: 2,
            queue_depth: 64,
            idle_timeout: Duration::from_secs(30),
            sweep_interval: Duration::from_millis(250),
        }
    }
}

/// Internal state shared by every server thread.
struct Shared {
    db: GraphDb,
    config: ServerConfig,
    metrics: ServerMetrics,
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    /// Connection-thread handles, joined at shutdown so a stopped server
    /// leaves no thread still touching the database.
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    next_session_id: AtomicU64,
    shutdown: AtomicBool,
}

/// A running graphsi TCP server. Dropping it (or calling
/// [`Server::shutdown`]) stops accepting, disconnects idle machinery and
/// joins every thread.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    sweeper_thread: Option<JoinHandle<()>>,
    read_pool: Arc<WorkerPool>,
    write_pool: Arc<WorkerPool>,
}

impl Server {
    /// Binds `addr` and starts serving `db`. Pass port 0 to let the OS
    /// pick one; the bound address is available via [`Server::local_addr`].
    pub fn bind(db: GraphDb, addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shared = Arc::new(Shared {
            db,
            config: config.clone(),
            metrics: ServerMetrics::new(),
            // Lock-order ranks: see the README's lock-rank map. Server
            // locks rank below every core lock because a session is held
            // across entire database calls.
            sessions: Mutex::with_rank(HashMap::new(), 100, "server.sessions"),
            conn_threads: Mutex::with_rank(Vec::new(), 110, "server.conn_threads"),
            next_session_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
        });
        let read_pool = Arc::new(WorkerPool::new(
            "read",
            config.read_workers.max(1),
            config.queue_depth,
        )?);
        let write_pool = Arc::new(WorkerPool::new(
            "write",
            config.write_workers.max(1),
            config.queue_depth,
        )?);

        let accept_thread = {
            let shared = Arc::clone(&shared);
            let read_pool = Arc::clone(&read_pool);
            let write_pool = Arc::clone(&write_pool);
            std::thread::Builder::new()
                .name("graphsi-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &read_pool, &write_pool))?
        };
        let sweeper_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("graphsi-sweeper".into())
                .spawn(move || sweeper_loop(&shared))?
        };

        Ok(Server {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            sweeper_thread: Some(sweeper_thread),
            read_pool,
            write_pool,
        })
    }

    /// The address the server actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time copy of the server's own counters.
    pub fn metrics(&self) -> ServerMetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Stops accepting connections, asks connection threads to wind
    /// down, and joins the accept and sweeper threads. Live connections
    /// notice the shutdown flag within one read-timeout tick.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.sweeper_thread.take() {
            let _ = t.join();
        }
        // Connection threads observe the flag within one read-timeout
        // tick; joining them guarantees open transactions have rolled
        // back before shutdown returns.
        let handles: Vec<JoinHandle<()>> = self.shared.conn_threads.lock().drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        // Pools shut down when the last Arc drops; connection threads
        // each hold one, so queued jobs still drain.
        let _ = &self.read_pool;
        let _ = &self.write_pool;
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    read_pool: &Arc<WorkerPool>,
    write_pool: &Arc<WorkerPool>,
) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let session_count = shared.sessions.lock().len();
                if session_count >= shared.config.max_sessions {
                    shared.metrics.rejected_sessions.add(1);
                    reject_connection(stream);
                    continue;
                }
                let id = shared.next_session_id.fetch_add(1, Ordering::Relaxed);
                let session = Arc::new(Session::new());
                shared.sessions.lock().insert(id, Arc::clone(&session));
                shared.metrics.session_opened();
                let conn_shared = Arc::clone(shared);
                let read_pool = Arc::clone(read_pool);
                let write_pool = Arc::clone(write_pool);
                let spawned = std::thread::Builder::new()
                    .name(format!("graphsi-conn-{id}"))
                    .spawn(move || {
                        connection_loop(stream, &session, &conn_shared, &read_pool, &write_pool);
                        conn_shared.sessions.lock().remove(&id);
                        conn_shared.metrics.sessions_active.sub(1);
                        // A transaction still open here means the client
                        // vanished mid-transaction: dropping the session
                        // state rolls it back and releases its locks.
                        if session.inner.lock().txn.is_some() {
                            conn_shared.metrics.disconnect_rollbacks.add(1);
                        }
                    });
                match spawned {
                    Ok(handle) => shared.conn_threads.lock().push(handle),
                    Err(_) => {
                        shared.sessions.lock().remove(&id);
                        shared.metrics.sessions_active.sub(1);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Tells an over-limit client it was shed, then closes the socket.
fn reject_connection(mut stream: TcpStream) {
    let payload = Response::Overloaded {
        message: "session limit reached".into(),
    }
    .encode();
    let _ = write_frame(&mut stream, &payload);
}

fn connection_loop(
    mut stream: TcpStream,
    session: &Arc<Session>,
    shared: &Arc<Shared>,
    read_pool: &Arc<WorkerPool>,
    write_pool: &Arc<WorkerPool>,
) {
    // The read timeout doubles as the shutdown poll interval.
    if stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
    {
        return;
    }
    stream.set_nodelay(true).ok();
    let mut reader = FrameReader::new();

    while !shared.shutdown.load(Ordering::SeqCst) {
        let payload = match reader.poll_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => continue,
            // Disconnect or I/O failure: wind the session down. The
            // open-transaction rollback happens via drop in the caller.
            Err(ProtoError::Io(_)) => return,
            Err(ProtoError::Malformed(reason)) => {
                // A desynchronised peer cannot be re-synchronised on a
                // length-prefixed stream; report and hang up.
                let resp = Response::Error {
                    code: crate::protocol::ErrorCode::Protocol,
                    message: reason,
                };
                let _ = write_frame(&mut stream, &resp.encode());
                return;
            }
        };
        let request = match Request::decode(&payload) {
            Ok(request) => request,
            Err(e) => {
                let resp = Response::Error {
                    code: crate::protocol::ErrorCode::Protocol,
                    message: e.to_string(),
                };
                if write_frame(&mut stream, &resp.encode()).is_err() {
                    return;
                }
                continue;
            }
        };

        // Probes answer inline: they must respond even (especially) when
        // every worker is busy.
        let inline = match request {
            Request::Ping => Some(Response::Pong),
            Request::Health => Some(health_response(shared)),
            Request::Metrics => Some(metrics_response(shared)),
            Request::Verify => Some(verify_response(shared)),
            _ => None,
        };
        if let Some(response) = inline {
            shared.metrics.record_request(0);
            if write_frame(&mut stream, &response.encode()).is_err() {
                return;
            }
            continue;
        }

        // Route to a pool: read-only work on the read pool unless the
        // session's open read-write transaction pins it to the write
        // pool (its locks must not occupy read capacity).
        let pool = if request_is_read(&request) && !session.holds_write_txn() {
            read_pool
        } else {
            write_pool
        };

        let (resp_tx, resp_rx) = std::sync::mpsc::sync_channel::<Response>(1);
        let job = {
            let session = Arc::clone(session);
            let shared = Arc::clone(shared);
            Box::new(move || {
                let started = Instant::now();
                let response = session.execute(&shared.db, request);
                shared
                    .metrics
                    .record_request(started.elapsed().as_micros() as u64);
                let _ = resp_tx.send(response);
            })
        };
        let response = match pool.try_submit(job) {
            Ok(depth) => {
                shared.metrics.queue_depth_peak.max(depth);
                // Block until the worker answers; the protocol is
                // strictly one-request-one-response per connection.
                match resp_rx.recv_timeout(Duration::from_secs(600)) {
                    Ok(response) => response,
                    Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                        Response::Error {
                            code: crate::protocol::ErrorCode::Internal,
                            message: "worker did not answer".into(),
                        }
                    }
                }
            }
            Err(SubmitError::QueueFull) => {
                shared.metrics.rejected_overload.add(1);
                Response::Overloaded {
                    message: "admission queue full, retry with backoff".into(),
                }
            }
            Err(SubmitError::Closed) => return,
        };
        if write_frame(&mut stream, &response.encode()).is_err() {
            return;
        }
    }
    // Server shutdown: tell the peer before hanging up.
    let _ = stream.flush();
}

fn health_response(shared: &Shared) -> Response {
    let m = shared.metrics.snapshot();
    Response::Text {
        text: format!(
            "ok\nsessions_active {}\nqueue_depth_peak {}\nrejected_overload {}\n",
            m.sessions_active, m.queue_depth_peak, m.rejected_overload
        ),
    }
}

/// `METRICS` = database counters (core text format, parseable by
/// `DbMetricsSnapshot::from_text`, which skips the `server_*` lines as
/// unknown) + the server's own counters.
fn metrics_response(shared: &Shared) -> Response {
    let mut text = shared.db.metrics().to_text();
    text.push_str(&shared.metrics.snapshot().to_text());
    Response::Text { text }
}

/// `VERIFY` = the online integrity verifier's plaintext report. The
/// verifier takes its own read snapshot and bounds its lock holds, so it
/// is safe to run while sessions keep committing; a failure to even run
/// it (store I/O error) is reported as an `Internal` error frame.
fn verify_response(shared: &Shared) -> Response {
    match shared.db.verify() {
        Ok(report) => Response::Text {
            text: report.to_text(),
        },
        Err(e) => Response::Error {
            code: crate::protocol::ErrorCode::Internal,
            message: format!("verify failed: {e}"),
        },
    }
}

fn sweeper_loop(shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(shared.config.sweep_interval);
        let sessions: Vec<Arc<Session>> = shared.sessions.lock().values().cloned().collect();
        let now = Instant::now();
        for session in sessions {
            // Never stall behind a busy session: a held lock means the
            // session is executing right now, hence not idle.
            let Some(mut inner) = session.inner.try_lock() else {
                continue;
            };
            if inner.txn.is_some()
                && now.duration_since(inner.last_activity) >= shared.config.idle_timeout
            {
                Session::abort_idle(&mut inner);
                shared.metrics.idle_timeout_aborts.add(1);
            }
        }
    }
}
