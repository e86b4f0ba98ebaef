//! Threaded TCP server exposing a [`dataspace_core::dataspace::Dataspace`]
//! over the `wire` protocol — the subsystem that turns the in-process engine
//! into a shared service.
//!
//! Shape:
//!
//! - [`serve`] binds a `std::net` listener and accepts on a background
//!   thread; each admitted connection gets its own session thread (the
//!   connection cap bounds the pool).
//! - A session (internal) re-prepares its held query texts
//!   through the dataspace's parse memo per request and streams bag results
//!   in bounded chunks advanced only by client `NextChunk` acks. Its socket
//!   read blocks; a session that subscribes gets one more thread, which the
//!   commits that update its standing queries wake to write the server-push
//!   frames — no async runtime, no polling.
//! - Admission control: connections over `max_connections` are turned away
//!   with a `ServerBusy` frame; engine work shares `exec_permits` slots and a
//!   request that cannot get one within `request_timeout` is answered
//!   `Timeout`; a session may hold at most `max_session_handles` open
//!   streams + subscriptions.
//! - Everything is counted ([`ServerStats`]) and surfaced to clients through
//!   the `Stats` opcode alongside the dataspace's own counters.
//!
//! The dataspace sits behind one `Arc<RwLock<_>>`: reads (prepare, execute,
//! subscribe, stats) share the lock, writes (insert, checkpoint) take it
//! exclusively, and no lock is held while frames travel — results are
//! materialised into per-session stream state first, with MVCC snapshot pins
//! marking the sources as "being read" for the stream's life.

mod server;
mod session;
mod stats;

pub use server::{serve, ServerConfig, ServerHandle};
pub use stats::ServerStats;
