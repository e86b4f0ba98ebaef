//! The one byte format: how a [`Value`] and a checksummed record become bytes.
//!
//! Two parts of the system write bytes that someone else must read back — the
//! commit log (`relational::wal`, read by a later life of the process) and the
//! wire protocol (`wire`, read by the peer). Both use this module: one value
//! encoding, one envelope, one checksum. They differ only in what their
//! payload opens with and in the longest envelope they accept.
//!
//! ## Envelope
//!
//! ```text
//! envelope := [u32 LE payload length] [u32 LE FNV-1a checksum of payload] [payload]
//! ```
//!
//! [`seal`] writes one in a single allocation; [`open`] splits one off the
//! front of a buffer. The length is read before the payload and checked
//! against a cap the caller passes, so a hostile 4 GiB declaration costs 8
//! bytes, not 4 GiB. FNV-1a catches torn writes and bit rot: it is corruption
//! *detection* for recovery and framing, not an adversarial integrity check.
//!
//! ## Values
//!
//! ```text
//! value  := 0x00                         -- Null
//!         | 0x01 [u8 0|1]                -- Bool
//!         | 0x02 [i64 LE]                -- Int
//!         | 0x03 [u64 LE float bits]     -- Float
//!         | 0x04 [str]                   -- Str
//!         | 0x05 [u32 LE arity] value*   -- Tuple
//!         | 0x06 [u32 LE len] value*     -- Bag
//!         | 0x07                         -- Void
//!         | 0x08                         -- Any
//! str    := [u32 LE byte length] [UTF-8 bytes]
//! values := [u32 LE count] value*        -- a row
//! rows   := [u32 LE count] values*       -- a batch of rows
//! ```
//!
//! Stored rows hold scalars only (tags `0x00`–`0x04`); query results and
//! parameters use the collection tags too. Every decoder is bounds-checked
//! and returns [`CodecError`] instead of panicking: a declared count is
//! checked against the bytes actually present (garbage cannot pre-allocate),
//! and collections nest at most [`MAX_VALUE_DEPTH`] deep (garbage cannot
//! overflow the stack, which aborts the process where no panic handler can
//! catch it).

use crate::env::Params;
use crate::value::{Bag, Value};

/// How deep tuples and bags may nest inside one decoded value. Far above any
/// shape a query produces; far below what a session thread's stack can hold.
pub const MAX_VALUE_DEPTH: usize = 64;

/// Envelope header size: payload length + checksum.
const ENVELOPE_HEADER: usize = 8;

/// A body failed to decode (truncated, bad tag, bad UTF-8, too deep, trailing
/// bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn fail<T>(detail: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(detail.into()))
}

/// Why [`open`] refused the envelope at the front of a buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The declared payload length exceeds the caller's cap.
    TooLarge { declared: usize },
    /// The payload does not match its checksum.
    Checksum,
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeError::TooLarge { declared } => {
                write!(f, "declared payload of {declared} bytes exceeds the cap")
            }
            EnvelopeError::Checksum => write!(f, "payload checksum mismatch"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// 32-bit FNV-1a: tiny, dependency-free, and plenty to catch torn writes.
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Build one envelope: `write_payload` appends the payload straight after a
/// reserved header, which is then stamped with the length and checksum — one
/// allocation (sized by `payload_hint`), no second copy of the payload.
pub fn seal(payload_hint: usize, write_payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_HEADER + payload_hint);
    out.extend_from_slice(&[0; ENVELOPE_HEADER]);
    write_payload(&mut out);
    let (header, payload) = out.split_at_mut(ENVELOPE_HEADER);
    // A wrapped length would seal a record recovery must discard.
    let len = u32::try_from(payload.len()).expect("an envelope payload is under 4 GiB");
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&fnv1a(payload).to_le_bytes());
    out
}

/// Split the envelope at the front of `buf`: `Ok(None)` while `buf` holds
/// less than a whole one, else its payload and the bytes it spans. A
/// declared length above `max_payload` is refused as soon as the header is
/// in, before any payload is buffered.
pub fn open(buf: &[u8], max_payload: usize) -> Result<Option<(&[u8], usize)>, EnvelopeError> {
    let Some(header) = buf.get(..ENVELOPE_HEADER) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    if len > max_payload {
        return Err(EnvelopeError::TooLarge { declared: len });
    }
    let end = ENVELOPE_HEADER + len;
    let Some(payload) = buf.get(ENVELOPE_HEADER..end) else {
        return Ok(None);
    };
    if fnv1a(payload) != u32::from_le_bytes(header[4..].try_into().expect("4 bytes")) {
        return Err(EnvelopeError::Checksum);
    }
    Ok(Some((payload, end)))
}

/// A cursor over a body slice; all decode functions advance it.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Start decoding `bytes` from the front.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Error unless every byte was consumed — trailing garbage inside a
    /// checksummed envelope still means a protocol bug or corruption.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            fail(format!(
                "{} trailing bytes after a complete body",
                self.bytes.len() - self.pos
            ))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        match self.bytes.get(self.pos..self.pos.saturating_add(n)) {
            Some(slice) => {
                self.pos += n;
                Ok(slice)
            }
            None => fail(format!(
                "truncated body: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            )),
        }
    }

    /// Remaining undecoded bytes.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Read a declared element count, refusing one larger than the bytes left
    /// (every element takes at least one), so garbage cannot pre-allocate.
    fn count(&mut self, what: &str) -> Result<usize, CodecError> {
        let count = get_u32(self)? as usize;
        if count > self.remaining() {
            return fail(format!("{what} {count} exceeds the remaining body"));
        }
        Ok(count)
    }
}

pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

pub fn get_u8(c: &mut Cursor<'_>) -> Result<u8, CodecError> {
    Ok(c.take(1)?[0])
}

pub fn get_u32(c: &mut Cursor<'_>) -> Result<u32, CodecError> {
    Ok(u32::from_le_bytes(c.take(4)?.try_into().expect("4 bytes")))
}

pub fn get_u64(c: &mut Cursor<'_>) -> Result<u64, CodecError> {
    Ok(u64::from_le_bytes(c.take(8)?.try_into().expect("8 bytes")))
}

pub fn get_str(c: &mut Cursor<'_>) -> Result<String, CodecError> {
    let len = get_u32(c)? as usize;
    if len > c.remaining() {
        return fail(format!(
            "string length {len} exceeds the {} remaining body bytes",
            c.remaining()
        ));
    }
    match std::str::from_utf8(c.take(len)?) {
        Ok(s) => Ok(s.to_string()),
        Err(e) => fail(format!("string is not UTF-8: {e}")),
    }
}

/// Encode one value tree.
pub fn put_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => put_u8(out, 0x00),
        Value::Bool(b) => {
            put_u8(out, 0x01);
            put_u8(out, u8::from(*b));
        }
        Value::Int(i) => {
            put_u8(out, 0x02);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            put_u8(out, 0x03);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            put_u8(out, 0x04);
            put_str(out, s);
        }
        Value::Tuple(items) => {
            put_u8(out, 0x05);
            put_u32(out, items.len() as u32);
            for item in items.iter() {
                put_value(out, item);
            }
        }
        Value::Bag(bag) => {
            put_u8(out, 0x06);
            put_u32(out, bag.len() as u32);
            for item in bag.iter() {
                put_value(out, item);
            }
        }
        Value::Void => put_u8(out, 0x07),
        Value::Any => put_u8(out, 0x08),
    }
}

/// Decode one value tree, nested at most [`MAX_VALUE_DEPTH`] deep.
pub fn get_value(c: &mut Cursor<'_>) -> Result<Value, CodecError> {
    get_nested(c, MAX_VALUE_DEPTH)
}

/// Decode one value with `depth` levels of collection nesting left.
fn get_nested(c: &mut Cursor<'_>, depth: usize) -> Result<Value, CodecError> {
    Ok(match get_u8(c)? {
        0x00 => Value::Null,
        0x01 => Value::Bool(get_u8(c)? != 0),
        0x02 => Value::Int(i64::from_le_bytes(c.take(8)?.try_into().expect("8 bytes"))),
        0x03 => Value::Float(f64::from_bits(get_u64(c)?)),
        0x04 => Value::Str(get_str(c)?.into()),
        0x05 => Value::Tuple(get_items(c, depth, "tuple arity")?.into()),
        0x06 => Value::Bag(Bag::from_values(get_items(c, depth, "bag length")?)),
        0x07 => Value::Void,
        0x08 => Value::Any,
        tag => return fail(format!("unknown value tag 0x{tag:02x}")),
    })
}

/// The elements of a tuple or bag, one nesting level below `depth`.
fn get_items(c: &mut Cursor<'_>, depth: usize, what: &str) -> Result<Vec<Value>, CodecError> {
    let Some(depth) = depth.checked_sub(1) else {
        return fail(format!(
            "value nests deeper than {MAX_VALUE_DEPTH} tuples or bags"
        ));
    };
    let len = c.count(what)?;
    let mut items = Vec::with_capacity(len);
    for _ in 0..len {
        items.push(get_nested(c, depth)?);
    }
    Ok(items)
}

/// Encode a list of values (`[u32 count] value*`).
pub fn put_values(out: &mut Vec<u8>, values: &[Value]) {
    put_u32(out, values.len() as u32);
    for v in values {
        put_value(out, v);
    }
}

/// Decode a list of values.
pub fn get_values(c: &mut Cursor<'_>) -> Result<Vec<Value>, CodecError> {
    let count = c.count("value count")?;
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        values.push(get_value(c)?);
    }
    Ok(values)
}

/// Encode a batch of rows (`[u32 count] values*`).
pub fn put_rows(out: &mut Vec<u8>, rows: &[Vec<Value>]) {
    put_u32(out, rows.len() as u32);
    for row in rows {
        put_values(out, row);
    }
}

/// Decode a batch of rows.
pub fn get_rows(c: &mut Cursor<'_>) -> Result<Vec<Vec<Value>>, CodecError> {
    let count = c.count("row count")?;
    let mut rows = Vec::with_capacity(count);
    for _ in 0..count {
        rows.push(get_values(c)?);
    }
    Ok(rows)
}

/// Encode a parameter binding set as sorted `(name, value)` pairs.
pub fn put_params(out: &mut Vec<u8>, params: &Params) {
    let mut names: Vec<&str> = params.names().collect();
    names.sort_unstable();
    put_u32(out, names.len() as u32);
    for name in names {
        put_str(out, name);
        put_value(out, params.get(name).expect("name came from the set"));
    }
}

/// Decode a parameter binding set.
pub fn get_params(c: &mut Cursor<'_>) -> Result<Params, CodecError> {
    let count = c.count("param count")?;
    let mut params = Params::new();
    for _ in 0..count {
        let name = get_str(c)?;
        let value = get_value(c)?;
        params.set(name, value);
    }
    Ok(params)
}

#[cfg(test)]
mod arb_value;

#[cfg(test)]
mod tests {
    use super::arb_value::arb_value;
    use super::*;
    use crate as iql;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn values_round_trip(value in arb_value()) {
            let mut out = Vec::new();
            put_value(&mut out, &value);
            let mut c = Cursor::new(&out);
            let back = get_value(&mut c).expect("decodes");
            c.finish().expect("no trailing bytes");
            prop_assert_eq!(back, value);
        }

        #[test]
        fn truncated_values_error_instead_of_panicking(value in arb_value(), cut in 0usize..64) {
            let mut out = Vec::new();
            put_value(&mut out, &value);
            if cut < out.len() {
                let truncated = &out[..out.len() - 1 - cut.min(out.len() - 1)];
                let mut c = Cursor::new(truncated);
                // Either the decode fails, or it succeeded on a prefix and the
                // finish check flags what's left — never a panic.
                let _ = get_value(&mut c).and_then(|_| c.finish());
            }
        }
    }

    #[test]
    fn params_round_trip() {
        let params = iql::Params::new()
            .with("acc", "AC'C1")
            .with("n", 7i64)
            .with(
                "bag",
                Value::Bag(Bag::from_values(vec![1.into(), 2.into()])),
            );
        let mut out = Vec::new();
        put_params(&mut out, &params);
        let mut c = Cursor::new(&out);
        let back = get_params(&mut c).expect("decodes");
        c.finish().unwrap();
        assert_eq!(back.get("acc"), params.get("acc"));
        assert_eq!(back.get("n"), params.get("n"));
        assert_eq!(back.get("bag"), params.get("bag"));
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn hostile_counts_do_not_preallocate() {
        // A 4-billion-element bag declaration in a 10-byte body must fail
        // fast, not attempt a 4-billion-slot Vec.
        let mut out = Vec::new();
        put_u8(&mut out, 0x06);
        put_u32(&mut out, u32::MAX);
        let mut c = Cursor::new(&out);
        assert!(get_value(&mut c).is_err());
    }

    /// `depth` tuples, each wrapping the next, around one `Null`.
    fn nested_tuples(depth: usize) -> Vec<u8> {
        let mut out = [0x05, 1, 0, 0, 0].repeat(depth);
        out.push(0x00);
        out
    }

    #[test]
    fn nesting_is_bounded_by_the_depth_budget() {
        let at_budget = nested_tuples(MAX_VALUE_DEPTH);
        assert!(
            get_value(&mut Cursor::new(&at_budget)).is_ok(),
            "the budget itself decodes"
        );
        // 20 000 levels — 100 KB, far under any frame cap — used to overflow
        // the decoding thread's stack and abort the process.
        for depth in [MAX_VALUE_DEPTH + 1, 20_000] {
            let err = get_value(&mut Cursor::new(&nested_tuples(depth))).unwrap_err();
            assert!(err.0.contains("nests deeper"), "{err}");
        }
    }

    #[test]
    fn open_waits_for_whole_envelopes_and_checks_them() {
        let sealed = seal(5, |out| out.extend_from_slice(b"hello"));
        assert_eq!(sealed.len(), ENVELOPE_HEADER + 5);
        for cut in 0..sealed.len() {
            assert_eq!(open(&sealed[..cut], 5), Ok(None), "cut at {cut}");
        }
        let mut two = sealed.clone();
        two.extend_from_slice(&sealed);
        assert_eq!(open(&two, 5), Ok(Some((&b"hello"[..], sealed.len()))));
        assert_eq!(
            open(&sealed, 4),
            Err(EnvelopeError::TooLarge { declared: 5 })
        );
        let mut corrupt = sealed;
        corrupt[ENVELOPE_HEADER] ^= 0xff;
        assert_eq!(open(&corrupt, 5), Err(EnvelopeError::Checksum));
    }
}
