//! Protocol layer: typed requests, responses and error codes over the frame
//! bytes.
//!
//! Requests and responses occupy disjoint opcode ranges (`0x01..` vs `0x81..`)
//! so a frame's direction is self-describing. The protocol covers the whole
//! engine surface: prepared-statement lifecycle (`Prepare`/`Execute`/
//! `ExecuteValue`), one-shot `Query`, chunked result streaming with
//! client-acked backpressure (`NextChunk`/`CancelStream`), standing
//! subscriptions with server-push delta frames (`Subscribe`/`Unsubscribe` +
//! [`Response::Push`]), writes (`Insert`), and admin (`Checkpoint`/`Stats`).

use crate::codec::{
    get_params, get_rows, get_str, get_u32, get_u64, get_u8, get_value, get_values, put_params,
    put_rows, put_str, put_u32, put_u64, put_u8, put_value, put_values, CodecError, Cursor,
};
use iql::value::Value;
use iql::Params;

/// Request opcodes (client → server).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ReqOp {
    /// Parse a query text, record its placeholder set, return a session handle.
    Prepare = 0x01,
    /// Execute a prepared handle under bindings; bag results stream in chunks.
    Execute = 0x02,
    /// Execute a prepared handle expecting a single (possibly aggregate) value.
    ExecuteValue = 0x03,
    /// One-shot: prepare + execute a placeholder-free text, streaming chunks.
    Query = 0x04,
    /// Acknowledge a chunk and ask for the next one (backpressure credit).
    NextChunk = 0x05,
    /// Discard an open stream without draining it.
    CancelStream = 0x06,
    /// Open a standing subscription on a prepared handle; deltas are pushed.
    Subscribe = 0x07,
    /// Close a standing subscription.
    Unsubscribe = 0x08,
    /// Insert a batch of rows into a wrapped source table.
    Insert = 0x09,
    /// Compact the server's commit log (durability admin).
    Checkpoint = 0x0a,
    /// Snapshot the server's and dataspace's counters.
    Stats = 0x0b,
    /// Graceful session close (the server acks then tears the session down).
    Close = 0x0c,
}

impl ReqOp {
    /// All request opcodes, for per-opcode counter tables.
    pub const ALL: [ReqOp; 12] = [
        ReqOp::Prepare,
        ReqOp::Execute,
        ReqOp::ExecuteValue,
        ReqOp::Query,
        ReqOp::NextChunk,
        ReqOp::CancelStream,
        ReqOp::Subscribe,
        ReqOp::Unsubscribe,
        ReqOp::Insert,
        ReqOp::Checkpoint,
        ReqOp::Stats,
        ReqOp::Close,
    ];

    /// Decode an opcode byte.
    pub fn from_u8(b: u8) -> Option<ReqOp> {
        ReqOp::ALL.into_iter().find(|op| *op as u8 == b)
    }

    /// Stable snake-case name (stats keys, logs).
    pub fn name(self) -> &'static str {
        match self {
            ReqOp::Prepare => "prepare",
            ReqOp::Execute => "execute",
            ReqOp::ExecuteValue => "execute_value",
            ReqOp::Query => "query",
            ReqOp::NextChunk => "next_chunk",
            ReqOp::CancelStream => "cancel_stream",
            ReqOp::Subscribe => "subscribe",
            ReqOp::Unsubscribe => "unsubscribe",
            ReqOp::Insert => "insert",
            ReqOp::Checkpoint => "checkpoint",
            ReqOp::Stats => "stats",
            ReqOp::Close => "close",
        }
    }
}

/// Response opcodes (server → client). `Push` frames are server-originated
/// (request id 0); everything else echoes the request id it answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RespOp {
    Prepared = 0x81,
    Chunk = 0x82,
    ValueResult = 0x83,
    Subscribed = 0x84,
    Unsubscribed = 0x85,
    Inserted = 0x86,
    CheckpointDone = 0x87,
    StatsResult = 0x88,
    Error = 0x89,
    Push = 0x8a,
    Closed = 0x8b,
}

impl RespOp {
    /// Decode an opcode byte.
    pub fn from_u8(b: u8) -> Option<RespOp> {
        [
            RespOp::Prepared,
            RespOp::Chunk,
            RespOp::ValueResult,
            RespOp::Subscribed,
            RespOp::Unsubscribed,
            RespOp::Inserted,
            RespOp::CheckpointDone,
            RespOp::StatsResult,
            RespOp::Error,
            RespOp::Push,
            RespOp::Closed,
        ]
        .into_iter()
        .find(|op| *op as u8 == b)
    }
}

/// Typed error codes carried in [`Response::Error`] frames. The code is the
/// machine-readable half (admission control and retry policies dispatch on
/// it); the message is for humans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The query text failed to parse.
    Parse = 1,
    /// The query failed to plan or evaluate.
    Query = 2,
    /// A `?name` placeholder had no binding.
    UnboundParam = 3,
    /// A binding named no placeholder.
    UnknownParam = 4,
    /// The prepared-handle id is not live in this session.
    BadHandle = 5,
    /// The stream id names no open stream in this session.
    BadStream = 6,
    /// The subscription id names no live subscription in this session.
    BadSubscription = 7,
    /// The frame decoded but its body did not match the opcode's shape.
    MalformedBody = 8,
    /// The opcode byte is not a known request.
    UnknownOpcode = 9,
    /// The declared frame length exceeded the cap.
    FrameTooLarge = 10,
    /// Admission control: connection or per-session request limits hit.
    ServerBusy = 11,
    /// Admission control: the request waited longer than the configured
    /// timeout for an execution slot.
    Timeout = 12,
    /// The durable storage layer failed (or no commit log is attached).
    Storage = 13,
    /// The server is shutting down.
    ShuttingDown = 14,
    /// The insert was rejected by the source (schema/type/key validation).
    Rejected = 15,
    /// The frame carried an unsupported protocol version.
    VersionMismatch = 16,
}

impl ErrorCode {
    /// Decode an error-code byte.
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        [
            ErrorCode::Parse,
            ErrorCode::Query,
            ErrorCode::UnboundParam,
            ErrorCode::UnknownParam,
            ErrorCode::BadHandle,
            ErrorCode::BadStream,
            ErrorCode::BadSubscription,
            ErrorCode::MalformedBody,
            ErrorCode::UnknownOpcode,
            ErrorCode::FrameTooLarge,
            ErrorCode::ServerBusy,
            ErrorCode::Timeout,
            ErrorCode::Storage,
            ErrorCode::ShuttingDown,
            ErrorCode::Rejected,
            ErrorCode::VersionMismatch,
        ]
        .into_iter()
        .find(|code| *code as u8 == b)
    }
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Prepare {
        text: String,
    },
    Execute {
        handle: u64,
        params: Params,
        /// Maximum rows per result chunk the client is willing to receive
        /// (the server clamps it to its own configured ceiling; 0 means "use
        /// the server default").
        chunk_rows: u32,
    },
    ExecuteValue {
        handle: u64,
        params: Params,
    },
    Query {
        text: String,
        chunk_rows: u32,
    },
    NextChunk {
        stream_id: u64,
    },
    CancelStream {
        stream_id: u64,
    },
    Subscribe {
        handle: u64,
        params: Params,
    },
    Unsubscribe {
        sub_id: u64,
    },
    Insert {
        source: String,
        table: String,
        rows: Vec<Vec<Value>>,
    },
    Checkpoint,
    Stats,
    Close,
}

impl Request {
    /// This request's opcode.
    pub fn opcode(&self) -> ReqOp {
        match self {
            Request::Prepare { .. } => ReqOp::Prepare,
            Request::Execute { .. } => ReqOp::Execute,
            Request::ExecuteValue { .. } => ReqOp::ExecuteValue,
            Request::Query { .. } => ReqOp::Query,
            Request::NextChunk { .. } => ReqOp::NextChunk,
            Request::CancelStream { .. } => ReqOp::CancelStream,
            Request::Subscribe { .. } => ReqOp::Subscribe,
            Request::Unsubscribe { .. } => ReqOp::Unsubscribe,
            Request::Insert { .. } => ReqOp::Insert,
            Request::Checkpoint => ReqOp::Checkpoint,
            Request::Stats => ReqOp::Stats,
            Request::Close => ReqOp::Close,
        }
    }

    /// Encode this request's body bytes.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Prepare { text } => put_str(&mut out, text),
            Request::Execute {
                handle,
                params,
                chunk_rows,
            } => {
                put_u64(&mut out, *handle);
                put_u32(&mut out, *chunk_rows);
                put_params(&mut out, params);
            }
            Request::ExecuteValue { handle, params } => {
                put_u64(&mut out, *handle);
                put_params(&mut out, params);
            }
            Request::Query { text, chunk_rows } => {
                put_u32(&mut out, *chunk_rows);
                put_str(&mut out, text);
            }
            Request::NextChunk { stream_id } | Request::CancelStream { stream_id } => {
                put_u64(&mut out, *stream_id)
            }
            Request::Subscribe { handle, params } => {
                put_u64(&mut out, *handle);
                put_params(&mut out, params);
            }
            Request::Unsubscribe { sub_id } => put_u64(&mut out, *sub_id),
            Request::Insert {
                source,
                table,
                rows,
            } => {
                put_str(&mut out, source);
                put_str(&mut out, table);
                put_rows(&mut out, rows);
            }
            Request::Checkpoint | Request::Stats | Request::Close => {}
        }
        out
    }

    /// Decode a request from its opcode byte and body bytes. `Ok(None)` means
    /// the opcode byte is not a known request (the caller answers
    /// [`ErrorCode::UnknownOpcode`] and keeps the session — framing is intact).
    pub fn decode(opcode: u8, body: &[u8]) -> Result<Option<Request>, CodecError> {
        let Some(op) = ReqOp::from_u8(opcode) else {
            return Ok(None);
        };
        let mut c = Cursor::new(body);
        let request = match op {
            ReqOp::Prepare => Request::Prepare {
                text: get_str(&mut c)?,
            },
            ReqOp::Execute => {
                let handle = get_u64(&mut c)?;
                let chunk_rows = get_u32(&mut c)?;
                let params = get_params(&mut c)?;
                Request::Execute {
                    handle,
                    params,
                    chunk_rows,
                }
            }
            ReqOp::ExecuteValue => Request::ExecuteValue {
                handle: get_u64(&mut c)?,
                params: get_params(&mut c)?,
            },
            ReqOp::Query => {
                let chunk_rows = get_u32(&mut c)?;
                let text = get_str(&mut c)?;
                Request::Query { text, chunk_rows }
            }
            ReqOp::NextChunk => Request::NextChunk {
                stream_id: get_u64(&mut c)?,
            },
            ReqOp::CancelStream => Request::CancelStream {
                stream_id: get_u64(&mut c)?,
            },
            ReqOp::Subscribe => Request::Subscribe {
                handle: get_u64(&mut c)?,
                params: get_params(&mut c)?,
            },
            ReqOp::Unsubscribe => Request::Unsubscribe {
                sub_id: get_u64(&mut c)?,
            },
            ReqOp::Insert => Request::Insert {
                source: get_str(&mut c)?,
                table: get_str(&mut c)?,
                rows: get_rows(&mut c)?,
            },
            ReqOp::Checkpoint => Request::Checkpoint,
            ReqOp::Stats => Request::Stats,
            ReqOp::Close => Request::Close,
        };
        c.finish()?;
        Ok(Some(request))
    }
}

/// One pushed subscription update (body of a [`Response::Push`] frame).
#[derive(Debug, Clone, PartialEq)]
pub enum PushUpdate {
    /// Rows appended to the standing result by O(delta) maintenance.
    Delta(Vec<Value>),
    /// The whole result, re-executed (fallback path / schema change).
    Refreshed(Value),
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Prepared {
        handle: u64,
        param_names: Vec<String>,
    },
    /// One slice of a streamed bag result. Stamped with the id of the request
    /// that opened the stream; `done` marks the final slice (the stream is
    /// closed server-side once it is sent).
    Chunk {
        rows: Vec<Value>,
        done: bool,
    },
    ValueResult {
        value: Value,
    },
    Subscribed {
        sub_id: u64,
        /// The standing result at subscribe time (the baseline deltas append to).
        initial: Value,
    },
    Unsubscribed,
    Inserted {
        rows: u64,
    },
    CheckpointDone {
        records_before: u64,
        records_after: u64,
    },
    /// Flat counter snapshot: stable name → value, covering both the server's
    /// own counters (`server_*`) and the dataspace's (`ds_*`).
    StatsResult {
        counters: Vec<(String, u64)>,
    },
    Error {
        code: ErrorCode,
        message: String,
    },
    /// Server-originated subscription update (request id 0 on the wire).
    Push {
        sub_id: u64,
        update: PushUpdate,
    },
    Closed,
}

impl Response {
    /// This response's opcode.
    pub fn opcode(&self) -> RespOp {
        match self {
            Response::Prepared { .. } => RespOp::Prepared,
            Response::Chunk { .. } => RespOp::Chunk,
            Response::ValueResult { .. } => RespOp::ValueResult,
            Response::Subscribed { .. } => RespOp::Subscribed,
            Response::Unsubscribed => RespOp::Unsubscribed,
            Response::Inserted { .. } => RespOp::Inserted,
            Response::CheckpointDone { .. } => RespOp::CheckpointDone,
            Response::StatsResult { .. } => RespOp::StatsResult,
            Response::Error { .. } => RespOp::Error,
            Response::Push { .. } => RespOp::Push,
            Response::Closed => RespOp::Closed,
        }
    }

    /// Encode this response's body bytes.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Prepared {
                handle,
                param_names,
            } => {
                put_u64(&mut out, *handle);
                put_u32(&mut out, param_names.len() as u32);
                for name in param_names {
                    put_str(&mut out, name);
                }
            }
            Response::Chunk { rows, done } => {
                put_u8(&mut out, u8::from(*done));
                put_values(&mut out, rows);
            }
            Response::ValueResult { value } => put_value(&mut out, value),
            Response::Subscribed { sub_id, initial } => {
                put_u64(&mut out, *sub_id);
                put_value(&mut out, initial);
            }
            Response::Unsubscribed | Response::Closed => {}
            Response::Inserted { rows } => put_u64(&mut out, *rows),
            Response::CheckpointDone {
                records_before,
                records_after,
            } => {
                put_u64(&mut out, *records_before);
                put_u64(&mut out, *records_after);
            }
            Response::StatsResult { counters } => {
                put_u32(&mut out, counters.len() as u32);
                for (name, value) in counters {
                    put_str(&mut out, name);
                    put_u64(&mut out, *value);
                }
            }
            Response::Error { code, message } => {
                put_u8(&mut out, *code as u8);
                put_str(&mut out, message);
            }
            Response::Push { sub_id, update } => {
                put_u64(&mut out, *sub_id);
                match update {
                    PushUpdate::Delta(rows) => {
                        put_u8(&mut out, 0);
                        put_values(&mut out, rows);
                    }
                    PushUpdate::Refreshed(value) => {
                        put_u8(&mut out, 1);
                        put_value(&mut out, value);
                    }
                }
            }
        }
        out
    }

    /// Decode a response from its opcode byte and body bytes.
    pub fn decode(opcode: u8, body: &[u8]) -> Result<Response, CodecError> {
        let Some(op) = RespOp::from_u8(opcode) else {
            return Err(CodecError(format!(
                "unknown response opcode 0x{opcode:02x}"
            )));
        };
        let mut c = Cursor::new(body);
        let response = match op {
            RespOp::Prepared => {
                let handle = get_u64(&mut c)?;
                let count = get_u32(&mut c)? as usize;
                if count > c.remaining() {
                    return Err(CodecError(format!(
                        "param-name count {count} exceeds the remaining body"
                    )));
                }
                let mut param_names = Vec::with_capacity(count);
                for _ in 0..count {
                    param_names.push(get_str(&mut c)?);
                }
                Response::Prepared {
                    handle,
                    param_names,
                }
            }
            RespOp::Chunk => {
                let done = get_u8(&mut c)? != 0;
                let rows = get_values(&mut c)?;
                Response::Chunk { rows, done }
            }
            RespOp::ValueResult => Response::ValueResult {
                value: get_value(&mut c)?,
            },
            RespOp::Subscribed => Response::Subscribed {
                sub_id: get_u64(&mut c)?,
                initial: get_value(&mut c)?,
            },
            RespOp::Unsubscribed => Response::Unsubscribed,
            RespOp::Inserted => Response::Inserted {
                rows: get_u64(&mut c)?,
            },
            RespOp::CheckpointDone => Response::CheckpointDone {
                records_before: get_u64(&mut c)?,
                records_after: get_u64(&mut c)?,
            },
            RespOp::StatsResult => {
                let count = get_u32(&mut c)? as usize;
                if count > c.remaining() {
                    return Err(CodecError(format!(
                        "counter count {count} exceeds the remaining body"
                    )));
                }
                let mut counters = Vec::with_capacity(count);
                for _ in 0..count {
                    let name = get_str(&mut c)?;
                    let value = get_u64(&mut c)?;
                    counters.push((name, value));
                }
                Response::StatsResult { counters }
            }
            RespOp::Error => {
                let code_byte = get_u8(&mut c)?;
                let code = ErrorCode::from_u8(code_byte)
                    .ok_or_else(|| CodecError(format!("unknown error code {code_byte}")))?;
                Response::Error {
                    code,
                    message: get_str(&mut c)?,
                }
            }
            RespOp::Push => {
                let sub_id = get_u64(&mut c)?;
                let update = match get_u8(&mut c)? {
                    0 => PushUpdate::Delta(get_values(&mut c)?),
                    1 => PushUpdate::Refreshed(get_value(&mut c)?),
                    tag => {
                        return Err(CodecError(format!("unknown push tag {tag}")));
                    }
                };
                Response::Push { sub_id, update }
            }
            RespOp::Closed => Response::Closed,
        };
        c.finish()?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(request: Request) {
        let body = request.encode_body();
        let back = Request::decode(request.opcode() as u8, &body)
            .expect("decodes")
            .expect("known opcode");
        assert_eq!(back, request);
    }

    fn round_trip_response(response: Response) {
        let body = response.encode_body();
        let back = Response::decode(response.opcode() as u8, &body).expect("decodes");
        assert_eq!(back, response);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Prepare {
            text: "[k | k <- <<P>>; k = ?x]".into(),
        });
        round_trip_request(Request::Execute {
            handle: 7,
            params: Params::new().with("x", 3i64).with("s", "it's"),
            chunk_rows: 128,
        });
        round_trip_request(Request::ExecuteValue {
            handle: 7,
            params: Params::new(),
        });
        round_trip_request(Request::Query {
            text: "count <<P>>".into(),
            chunk_rows: 0,
        });
        round_trip_request(Request::NextChunk { stream_id: 3 });
        round_trip_request(Request::CancelStream { stream_id: 3 });
        round_trip_request(Request::Subscribe {
            handle: 1,
            params: Params::new().with("acc", "A'C✓"),
        });
        round_trip_request(Request::Unsubscribe { sub_id: 9 });
        round_trip_request(Request::Insert {
            source: "pedro".into(),
            table: "protein".into(),
            rows: vec![vec![1.into(), "ACC1".into()], vec![2.into(), Value::Null]],
        });
        round_trip_request(Request::Checkpoint);
        round_trip_request(Request::Stats);
        round_trip_request(Request::Close);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Prepared {
            handle: 4,
            param_names: vec!["acc".into(), "n".into()],
        });
        round_trip_response(Response::Chunk {
            rows: vec![Value::Tuple(vec![1.into(), "a".into()].into())],
            done: false,
        });
        round_trip_response(Response::ValueResult {
            value: Value::Int(42),
        });
        round_trip_response(Response::Subscribed {
            sub_id: 2,
            initial: Value::Bag(iql::value::Bag::from_values(vec![1.into()])),
        });
        round_trip_response(Response::Unsubscribed);
        round_trip_response(Response::Inserted { rows: 3 });
        round_trip_response(Response::CheckpointDone {
            records_before: 10,
            records_after: 2,
        });
        round_trip_response(Response::StatsResult {
            counters: vec![
                ("server_connections".into(), 5),
                ("ds_plan_cache_hits".into(), 9),
            ],
        });
        round_trip_response(Response::Error {
            code: ErrorCode::ServerBusy,
            message: "too many connections".into(),
        });
        round_trip_response(Response::Push {
            sub_id: 1,
            update: PushUpdate::Delta(vec!["ACC3".into()]),
        });
        round_trip_response(Response::Push {
            sub_id: 1,
            update: PushUpdate::Refreshed(Value::Int(4)),
        });
        round_trip_response(Response::Closed);
    }

    #[test]
    fn unknown_request_opcode_is_none_not_error() {
        assert_eq!(Request::decode(0x7f, &[]).unwrap(), None);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = Request::NextChunk { stream_id: 1 }.encode_body();
        body.push(0xaa);
        assert!(Request::decode(ReqOp::NextChunk as u8, &body).is_err());
    }
}
