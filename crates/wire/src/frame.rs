//! Frame layer: [`iql::codec`] envelopes on a byte stream.
//!
//! Every message on the wire — request, response or server push — travels in
//! one frame: an envelope (length, FNV-1a checksum, payload; see
//! [`iql::codec`]) whose payload opens with a protocol version byte, the
//! request id the frame belongs to, and the opcode that selects the body's
//! shape:
//!
//! ```text
//! payload := [u8 version = 1] [u64 LE request id] [u8 opcode] [body]
//! ```
//!
//! Request ids are assigned by the client (monotonically increasing, starting
//! at 1) and echoed by the server on every frame answering that request —
//! including every chunk of a streamed result, which is stamped with the id of
//! the request that *opened* the stream. Id **0 is reserved for frames the
//! server originates**: subscription pushes and pre-session errors (e.g. an
//! admission rejection before any request was read).
//!
//! A frame whose declared length exceeds [`MAX_FRAME_BYTES`] is rejected
//! without buffering it. A checksum mismatch or a malformed payload head
//! means the stream has lost framing — the peer closes the connection,
//! because no later byte boundary can be trusted.

use std::io::{self, Read, Write};

use crate::codec::{self, EnvelopeError};

/// Protocol version carried in every payload head.
pub const WIRE_VERSION: u8 = 1;

/// Hard ceiling on one frame's payload. Large results never need frames near
/// this: the server streams bag results in bounded chunks (see
/// `server::ServerConfig::chunk_rows`), so the cap only stops hostile or
/// corrupt length declarations from driving allocation.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Payload head size: version byte + request id + opcode.
const PAYLOAD_HEAD: usize = 1 + 8 + 1;

/// The request id the server uses for frames it originates (subscription
/// pushes, pre-session admission errors).
pub const SERVER_ORIGIN_ID: u64 = 0;

/// One decoded frame: the request id it belongs to, its opcode, and the
/// opcode-specific body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The request this frame belongs to ([`SERVER_ORIGIN_ID`] for pushes).
    pub request_id: u64,
    /// Raw opcode byte (see `proto::ReqOp` / `proto::RespOp`).
    pub opcode: u8,
    /// Opcode-specific body.
    pub body: Vec<u8>,
}

/// Why a byte stream stopped yielding frames.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// The declared payload length exceeds [`MAX_FRAME_BYTES`].
    TooLarge { declared: usize },
    /// Checksum mismatch, impossible length, or a truncated payload head:
    /// the stream has lost framing and cannot be resynchronised.
    Malformed(String),
    /// The version byte was not [`WIRE_VERSION`].
    Version { got: u8 },
    /// An I/O error other than the non-blocking/timeout kinds.
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::TooLarge { declared } => write!(
                f,
                "declared frame payload of {declared} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
            ),
            FrameError::Malformed(detail) => write!(f, "malformed frame: {detail}"),
            FrameError::Version { got } => {
                write!(
                    f,
                    "unsupported wire version {got} (expected {WIRE_VERSION})"
                )
            }
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<EnvelopeError> for FrameError {
    fn from(e: EnvelopeError) -> Self {
        match e {
            EnvelopeError::TooLarge { declared } => FrameError::TooLarge { declared },
            EnvelopeError::Checksum => FrameError::Malformed(e.to_string()),
        }
    }
}

/// Encode one frame ready for a single `write_all`.
pub fn encode_frame(request_id: u64, opcode: u8, body: &[u8]) -> Vec<u8> {
    codec::seal(PAYLOAD_HEAD + body.len(), |out| {
        out.push(WIRE_VERSION);
        out.extend_from_slice(&request_id.to_le_bytes());
        out.push(opcode);
        out.extend_from_slice(body);
    })
}

/// Write one frame to `w`, returning the bytes put on the wire.
pub fn write_frame(
    w: &mut impl Write,
    request_id: u64,
    opcode: u8,
    body: &[u8],
) -> io::Result<u64> {
    let framed = encode_frame(request_id, opcode, body);
    w.write_all(&framed)?;
    Ok(framed.len() as u64)
}

/// An incremental frame decoder over a blocking `Read`, with or without a
/// read timeout.
///
/// The reader owns a buffer that survives timeouts: a read that returns
/// `WouldBlock`/`TimedOut` mid-frame keeps the partial bytes, and the next
/// [`FrameReader::poll`] resumes where it left off — the caller can interleave
/// other work (a client waits under a deadline in short read slices) without
/// ever losing frame alignment. A server session reads without a timeout and
/// simply blocks until a frame, EOF or shutdown arrives.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Cumulative payload+header bytes consumed off the wire.
    bytes_in: u64,
}

impl FrameReader {
    /// A reader with an empty buffer.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Cumulative bytes consumed as completed frames.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }

    /// Try to produce the next frame. `Ok(None)` means no complete frame is
    /// buffered yet and the underlying read timed out (or would block) — call
    /// again later. `Err(FrameError::Closed)` is a clean EOF **between**
    /// frames; an EOF mid-frame is [`FrameError::Malformed`] (the peer died
    /// mid-write).
    pub fn poll(&mut self, r: &mut impl Read) -> Result<Option<Frame>, FrameError> {
        loop {
            if let Some(frame) = self.try_decode()? {
                return Ok(Some(frame));
            }
            let mut chunk = [0u8; 8192];
            match r.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Err(FrameError::Closed)
                    } else {
                        Err(FrameError::Malformed(format!(
                            "connection closed mid-frame with {} buffered bytes",
                            self.buf.len()
                        )))
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e.to_string())),
            }
        }
    }

    /// Decode one frame from the front of the buffer, if a whole one is there.
    fn try_decode(&mut self) -> Result<Option<Frame>, FrameError> {
        let Some((payload, consumed)) = codec::open(&self.buf, MAX_FRAME_BYTES)? else {
            return Ok(None);
        };
        if payload.len() < PAYLOAD_HEAD {
            return Err(FrameError::Malformed(format!(
                "declared payload of {} bytes is shorter than the {PAYLOAD_HEAD}-byte head",
                payload.len()
            )));
        }
        let version = payload[0];
        if version != WIRE_VERSION {
            return Err(FrameError::Version { got: version });
        }
        let request_id = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
        let opcode = payload[9];
        let body = payload[PAYLOAD_HEAD..].to_vec();
        self.buf.drain(..consumed);
        self.bytes_in += consumed as u64;
        Ok(Some(Frame {
            request_id,
            opcode,
            body,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::fnv1a;

    /// Feed `bytes` to a reader in `chunk`-sized slices, collecting frames.
    fn drip(bytes: &[u8], chunk: usize) -> Result<Vec<Frame>, FrameError> {
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        for piece in bytes.chunks(chunk.max(1)) {
            let mut cursor = io::Cursor::new(piece);
            loop {
                match reader.poll(&mut cursor) {
                    Ok(Some(frame)) => frames.push(frame),
                    // Cursor EOF between frames mirrors a clean close; keep
                    // feeding the next piece.
                    Ok(None) | Err(FrameError::Closed) => break,
                    // Mid-frame EOF on a cursor just means "need more bytes".
                    Err(FrameError::Malformed(m)) if m.contains("mid-frame") => break,
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(frames)
    }

    #[test]
    fn frames_round_trip_at_any_chunking() {
        let mut bytes = encode_frame(1, 0x01, b"hello");
        bytes.extend(encode_frame(2, 0x02, &[]));
        bytes.extend(encode_frame(u64::MAX, 0xff, &vec![7u8; 3000]));
        for chunk in [1, 2, 7, 64, 4096, bytes.len()] {
            let frames = drip(&bytes, chunk).expect("clean frames");
            assert_eq!(frames.len(), 3, "chunk size {chunk}");
            assert_eq!(frames[0].request_id, 1);
            assert_eq!(frames[0].body, b"hello");
            assert_eq!(frames[1].opcode, 0x02);
            assert_eq!(frames[2].body.len(), 3000);
        }
    }

    #[test]
    fn corrupt_checksum_is_malformed() {
        let mut bytes = encode_frame(1, 0x01, b"payload");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let mut reader = FrameReader::new();
        let err = reader
            .poll(&mut io::Cursor::new(&bytes))
            .expect_err("corruption detected");
        assert!(matches!(err, FrameError::Malformed(_)));
    }

    #[test]
    fn oversized_declaration_is_rejected_before_buffering() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let mut reader = FrameReader::new();
        let err = reader
            .poll(&mut io::Cursor::new(&bytes))
            .expect_err("rejected");
        assert!(matches!(err, FrameError::TooLarge { .. }));
    }

    #[test]
    fn undersized_declaration_is_malformed() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&3u32.to_le_bytes()); // < payload head
        bytes.extend_from_slice(&fnv1a(b"abc").to_le_bytes());
        bytes.extend_from_slice(b"abc");
        let mut reader = FrameReader::new();
        let err = reader
            .poll(&mut io::Cursor::new(&bytes))
            .expect_err("rejected");
        assert!(matches!(err, FrameError::Malformed(_)));
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut bytes = encode_frame(9, 0x05, b"x");
        bytes[8] = 42; // version byte sits right after the 8-byte header
                       // Re-stamp the checksum so only the version is wrong.
        let payload_len = bytes.len() - 8;
        let checksum = fnv1a(&bytes[8..8 + payload_len]);
        bytes[4..8].copy_from_slice(&checksum.to_le_bytes());
        let mut reader = FrameReader::new();
        let err = reader
            .poll(&mut io::Cursor::new(&bytes))
            .expect_err("rejected");
        assert_eq!(err, FrameError::Version { got: 42 });
    }

    #[test]
    fn eof_between_frames_is_clean_mid_frame_is_not() {
        let bytes = encode_frame(1, 0x01, b"whole");
        let mut reader = FrameReader::new();
        let mut cursor = io::Cursor::new(&bytes[..]);
        assert!(reader.poll(&mut cursor).unwrap().is_some());
        assert_eq!(reader.poll(&mut cursor), Err(FrameError::Closed));

        let mut reader = FrameReader::new();
        let mut cursor = io::Cursor::new(&bytes[..bytes.len() - 2]);
        assert!(matches!(
            reader.poll(&mut cursor),
            Err(FrameError::Malformed(_))
        ));
    }
}
