//! # proto — the contention-prediction wire surface
//!
//! The shared protocol crate: everything a process needs to *speak*
//! predictd without *being* predictd. The daemon, the gateway tier
//! ([`predictgw`]), the client library, the `loadgen` traffic
//! generator, and the tests all meet here, so a wire change is one
//! diff reviewed in one place — and the `modelcheck` protocol-drift
//! pass (which cross-references [`proto`], [`binproto`], the
//! gateway's dispatch, and the DESIGN.md §8 wire table) follows these
//! files, not the daemon's.
//!
//! Two wire paths, split by cost model:
//!
//! * [`proto`] — the [`proto::Request`]/[`proto::Response`] enums and
//!   their payload structs, with validating serde to and from the
//!   newline-JSON representation. The source of truth for every kind;
//!   [`codec`] is its line-level entry point (parse one request line,
//!   append one response line).
//! * [`binproto`] — the performance path: the length-prefixed binary
//!   codec (`0xBD` preamble, `[u32 LE len][u8 tag][payload]` frames,
//!   raw IEEE-754 `f64`s), hostile-input safe.
//!
//! [`predictgw`]: ../predictgw/index.html
//!
//! modelcheck: no-panic, lossy-cast, missing-docs, lock-discipline, atomics, float-env, wire-taint

#![warn(missing_docs)]

pub mod binproto;
pub mod codec;
pub mod proto;

pub use proto::{Request, Response};
