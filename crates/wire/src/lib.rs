//! Binary wire protocol for the dataspace service.
//!
//! Three layers, bottom-up:
//!
//! - [`frame`] — [`iql::codec`] envelopes on a byte stream, capped at
//!   [`MAX_FRAME_BYTES`], whose payload carries the protocol version, the
//!   client-assigned request id, and an opcode.
//! - [`codec`] — a re-export of [`iql::codec`], the byte format the wire
//!   shares with the commit log: bounds-checked encoding for primitives,
//!   [`iql::Value`] trees and parameter bindings. Malformed input yields
//!   typed errors, never panics.
//! - [`proto`] — the typed [`proto::Request`]/[`proto::Response`] surface:
//!   prepared-statement lifecycle, chunked result streaming with client-acked
//!   backpressure, standing subscriptions with server-push deltas, writes,
//!   and admin ops, plus the [`proto::ErrorCode`] taxonomy.
//!
//! [`client::Client`] is a small blocking client over all three, used by the
//! integration tests, the benches, and `examples/serve_proteomics.rs`. The
//! server side lives in the `server` crate.

pub mod client;
pub mod frame;
pub mod proto;

pub use client::{Client, ClientError};
pub use frame::{
    encode_frame, write_frame, Frame, FrameError, FrameReader, MAX_FRAME_BYTES, SERVER_ORIGIN_ID,
    WIRE_VERSION,
};
pub use iql::codec;
pub use proto::{ErrorCode, PushUpdate, ReqOp, Request, RespOp, Response};
