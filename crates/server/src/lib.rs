//! The serving layer: a concurrent TCP front-end over
//! [`graphsi_core::GraphDb`].
//!
//! The paper evaluates snapshot isolation inside a *server* — many
//! clients, each running transactions over a connection — while the
//! engine below this crate is an embedded library. This crate closes
//! that gap without changing the engine: `GraphDb` is a cheaply cloned
//! handle and `Transaction` is owned, `Send` and rolls back on drop, so
//! a network session can hold one across requests exactly like the
//! paper's client transactions.
//!
//! What lives here:
//!
//! - [`protocol`] — the length-prefixed wire format (hand-rolled
//!   little-endian encoding; no external serialisation).
//! - [`Server`] — accept loop, per-connection threads, bounded
//!   read/write worker pools, idle-session sweeper.
//! - [`Client`] — a minimal blocking client, used by the tests, the
//!   example and the benchmark's `wire_mix` workload.
//! - [`ServerMetrics`] — saturation counters (`sessions_active`,
//!   `rejected_overload`, queue-depth peak, log2 latency histogram)
//!   exposed together with the database counters via the `METRICS`
//!   command.
//!
//! Overload never queues invisibly: both admission points (session
//! limit at accept, bounded pool queue at dispatch) reject with a typed
//! `OVERLOADED` response the client can back off on.

#![warn(missing_docs)]

pub mod client;
pub mod metrics;
mod pool;
pub mod protocol;
mod server;
mod session;

pub use client::{Client, ClientError, ClientResult};
pub use metrics::{ServerMetrics, ServerMetricsSnapshot, LATENCY_BUCKETS};
pub use protocol::{ErrorCode, ProtoError, Request, Response, WireNode, WireRow};
pub use server::{Server, ServerConfig};
