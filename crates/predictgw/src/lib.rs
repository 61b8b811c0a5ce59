//! # predictgw — the federation gateway tier
//!
//! One predictd process cannot serve a fleet of millions of machines;
//! the gateway tier is how the service scales out. A `predictgw`
//! daemon sits in front of N predictd backends, speaks both wire
//! codecs on both sides, and routes every request by a consistent hash
//! of its machine ID over a configurable ring with virtual nodes
//! ([`ring`]). Load reports are journaled ([`journal`]) and broadcast
//! to every backend, so any backend can answer any placement question
//! bit-identically to a monolithic daemon — which is what makes
//! failover, scatter-gather, and warm restarts sound:
//!
//! * backend health is probed with periodic `stats` requests; a dead
//!   backend's traffic fails over to its ring successors, and
//!   idempotent requests are retried ([`backend`], [`gateway`]);
//! * `decide_batch` fans out across healthy backends in task chunks
//!   and the merged decisions are bit-identical to a single node's
//!   answer; `rank` can be hedged across replicas and cross-checked;
//! * a recovered or fresh backend is warm-started by replaying the
//!   append-only load-report journal before it takes traffic again,
//!   so it never answers stale where its peers answer fresh.
//!
//! The daemon serves clients on predictd's reactor
//! ([`predictd::reactor`]): one nonblocking epoll loop per worker with
//! its own `SO_REUSEPORT` listener and its own backend lanes, plugged
//! in through the reactor's `Handler` trait. Gateway metrics are
//! relaxed atomics ([`metrics`]) behind the `gw_stats` wire kind.
//!
//! Backend calls are blocking (bounded by the configured I/O timeout),
//! which is a deliberate trade: the gateway's unit of work is "forward
//! and wait for one answer", its concurrency comes from running one
//! loop per core, and a wedged backend costs at most the timeout before
//! the failover path takes over. Slow *clients* still never pin a
//! worker, backpressure is per-connection, and shutdown drains cleanly.
//!
//! modelcheck: no-panic, lossy-cast, missing-docs, lock-discipline, atomics, float-env, wire-taint, event-loop, lock-order

#![warn(missing_docs)]

pub mod backend;
pub mod gateway;
pub mod journal;
pub mod metrics;
pub mod ring;

pub use gateway::{Gateway, GatewayConfig};
pub use journal::Journal;
pub use metrics::GwMetrics;
pub use ring::Ring;
