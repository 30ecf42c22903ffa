//! Hand-rolled versioned binary codec for durable event logs.
//!
//! The workspace is offline (no serde), so persistence encodes everything
//! with this module: little-endian fixed-width integers, LEB128 varints,
//! zigzag signed varints, and length-prefixed byte strings, written through
//! [`Enc`] and read back through [`Dec`]. Every decode path returns a typed
//! [`CodecError`] — **no decode panics on any byte string**, which is the
//! property the truncation proptests in `cr-store` pin down.
//!
//! On top of the primitives sits the *frame* layer used by the write-ahead
//! log: each record is stored as
//!
//! ```text
//! [len: u32 LE] [payload: len bytes] [crc32(payload): u32 LE]
//! ```
//!
//! and [`FrameScanner`] walks a byte log frame by frame, distinguishing a
//! clean end-of-log ([`Ok(None)`](FrameScanner::next)) from a torn or
//! corrupted tail (`Err(Truncated | BadCrc | FrameTooLarge)`). The scanner
//! tracks [`FrameScanner::valid_len`] — the byte offset just past the last
//! frame whose checksum verified — which is exactly where crash recovery
//! truncates the log. CRC-32 (IEEE polynomial) detects all single-bit flips
//! and all torn writes that do not happen to end precisely on a frame
//! boundary (those are indistinguishable from a clean shorter log, and
//! recovery treats them as such).
//!
//! Payload encodings for the causal types ([`Value`], [`Hlc`], [`SourceId`],
//! [`VectorClock`], [`CausalStamp`]) live here too, so `cr-store` composes
//! record codecs without re-implementing the primitives. Payloads carry
//! their own version byte at the record layer (see `cr-store::event`); the
//! frame layer itself is version-free by design — it must stay decodable
//! forever so that recovery can always find frame boundaries.

use crate::causal::{CausalStamp, Hlc, SourceId, VectorClock};
use crate::entity::TupleId;
use crate::schema::AttrId;
use crate::value::{OrderedF64, Value};

/// Typed decode failure. Every decoding function in this module and in
/// `cr-store` returns one of these instead of panicking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// An enum tag byte did not match any known variant.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A record version byte newer than this build understands.
    UnsupportedVersion {
        /// What was being decoded.
        what: &'static str,
        /// The offending version byte.
        version: u8,
    },
    /// A varint ran past its maximum width (corrupt input).
    BadVarint,
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// A float decoded to NaN (never produced by the encoder).
    BadFloat,
    /// A frame checksum mismatch at the given byte offset into the log.
    BadCrc {
        /// Byte offset of the frame's length prefix.
        offset: usize,
    },
    /// A frame length prefix exceeded [`MAX_FRAME_LEN`] (corrupt prefix).
    FrameTooLarge {
        /// The decoded length.
        len: usize,
    },
    /// Bytes remained after a payload decoded completely.
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "input truncated: needed {needed} bytes, {remaining} remain"
                )
            }
            CodecError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            CodecError::UnsupportedVersion { what, version } => {
                write!(f, "unsupported {what} version {version}")
            }
            CodecError::BadVarint => write!(f, "varint exceeds maximum width"),
            CodecError::BadUtf8 => write!(f, "string payload is not valid UTF-8"),
            CodecError::BadFloat => write!(f, "float payload decodes to NaN"),
            CodecError::BadCrc { offset } => {
                write!(f, "frame checksum mismatch at byte {offset}")
            }
            CodecError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME_LEN}")
            }
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after payload")
            }
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `data` — the frame checksum.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Primitive writer / reader.
// ---------------------------------------------------------------------------

/// Byte-string writer: appends primitives to an owned buffer.
#[derive(Clone, Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Empties the encoder, keeping its allocation for the next bytes.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a LEB128 varint (1–10 bytes).
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends an `i64` as a zigzag varint.
    pub fn put_i64(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends a varint length prefix followed by the raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a UTF-8 string as length-prefixed bytes.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Byte-string reader: consumes primitives from a slice, returning
/// [`CodecError`] on any malformed input — never panicking.
#[derive(Clone, Copy, Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True iff every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails with [`CodecError::TrailingBytes`] unless the input is fully
    /// consumed — record decoders call this last so corrupt oversized
    /// payloads cannot slip through.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a LEB128 varint (max 10 bytes).
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(CodecError::BadVarint);
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::BadVarint);
            }
        }
    }

    /// Reads a zigzag varint `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        let z = self.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Reads length-prefixed bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.varint()?;
        let len = usize::try_from(len).map_err(|_| CodecError::BadVarint)?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CodecError::BadUtf8)
    }
}

// ---------------------------------------------------------------------------
// Frame layer.
// ---------------------------------------------------------------------------

/// Sanity cap on a frame's payload length. A torn or bit-flipped length
/// prefix that decodes to something absurd is classified as corrupt here
/// instead of being chased off the end of the log.
pub const MAX_FRAME_LEN: usize = 1 << 26; // 64 MiB

/// Fixed bytes a frame adds around its payload (length + checksum).
pub const FRAME_OVERHEAD: usize = 8;

/// Appends one `[len][payload][crc32]` frame to `out`.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_FRAME_LEN);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Walks a byte log frame by frame, validating checksums.
///
/// [`FrameScanner::next`] yields `Ok(Some(payload))` for each intact frame,
/// `Ok(None)` at a clean end-of-log, and an error for a torn or corrupt
/// tail. After any outcome, [`FrameScanner::valid_len`] is the byte offset
/// just past the last frame that verified — the truncation point crash
/// recovery restores the log to.
#[derive(Clone, Copy, Debug)]
pub struct FrameScanner<'a> {
    buf: &'a [u8],
    pos: usize,
    frames: usize,
}

impl<'a> FrameScanner<'a> {
    /// A scanner over the raw log bytes.
    pub fn new(buf: &'a [u8]) -> Self {
        FrameScanner {
            buf,
            pos: 0,
            frames: 0,
        }
    }

    /// The next intact frame payload, `Ok(None)` at clean end-of-log, or a
    /// typed error on a torn/corrupt tail. Errors are sticky in the sense
    /// that the position does not advance past a bad frame.
    #[allow(clippy::should_implement_trait)] // fallible, so not Iterator
    pub fn next(&mut self) -> Result<Option<&'a [u8]>, CodecError> {
        let rest = &self.buf[self.pos..];
        if rest.is_empty() {
            return Ok(None);
        }
        if rest.len() < 4 {
            return Err(CodecError::Truncated {
                needed: 4,
                remaining: rest.len(),
            });
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(CodecError::FrameTooLarge { len });
        }
        let total = 4 + len + 4;
        if rest.len() < total {
            return Err(CodecError::Truncated {
                needed: total,
                remaining: rest.len(),
            });
        }
        let payload = &rest[4..4 + len];
        let stored =
            u32::from_le_bytes([rest[4 + len], rest[5 + len], rest[6 + len], rest[7 + len]]);
        if crc32(payload) != stored {
            return Err(CodecError::BadCrc { offset: self.pos });
        }
        self.pos += total;
        self.frames += 1;
        Ok(Some(payload))
    }

    /// Byte offset just past the last frame whose checksum verified.
    pub fn valid_len(&self) -> usize {
        self.pos
    }

    /// Frames validated so far.
    pub fn frames(&self) -> usize {
        self.frames
    }
}

// ---------------------------------------------------------------------------
// Id and length codecs (varints, range-checked on decode).
// ---------------------------------------------------------------------------

/// Encodes an [`AttrId`].
pub fn put_attr(e: &mut Enc, attr: AttrId) {
    e.put_varint(u64::from(attr.0));
}

/// Decodes an [`AttrId`]; a varint past `u16` is [`CodecError::BadVarint`].
pub fn get_attr(d: &mut Dec<'_>) -> Result<AttrId, CodecError> {
    u16::try_from(d.varint()?)
        .map(AttrId)
        .map_err(|_| CodecError::BadVarint)
}

/// Encodes a [`TupleId`].
pub fn put_tuple(e: &mut Enc, t: TupleId) {
    e.put_varint(u64::from(t.0));
}

/// Decodes a [`TupleId`]; a varint past `u32` is [`CodecError::BadVarint`].
pub fn get_tuple(d: &mut Dec<'_>) -> Result<TupleId, CodecError> {
    u32::try_from(d.varint()?)
        .map(TupleId)
        .map_err(|_| CodecError::BadVarint)
}

/// Decodes a count or index written with [`Enc::put_varint`].
pub fn get_usize(d: &mut Dec<'_>) -> Result<usize, CodecError> {
    usize::try_from(d.varint()?).map_err(|_| CodecError::BadVarint)
}

// ---------------------------------------------------------------------------
// Causal-type payload codecs.
// ---------------------------------------------------------------------------

/// Encodes a [`Value`] (tag byte + payload).
pub fn encode_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Null => e.put_u8(0),
        Value::Int(i) => {
            e.put_u8(1);
            e.put_i64(*i);
        }
        Value::Float(f) => {
            e.put_u8(2);
            e.put_u64(f.get().to_bits());
        }
        Value::Str(s) => {
            e.put_u8(3);
            e.put_str(s);
        }
    }
}

/// Decodes a [`Value`]; rejects NaN floats (the encoder never emits them).
pub fn decode_value(d: &mut Dec<'_>) -> Result<Value, CodecError> {
    match d.u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int(d.i64()?)),
        2 => {
            let f = f64::from_bits(d.u64()?);
            OrderedF64::new(f)
                .map(Value::Float)
                .ok_or(CodecError::BadFloat)
        }
        3 => Ok(Value::str(d.str()?)),
        tag => Err(CodecError::BadTag { what: "Value", tag }),
    }
}

/// Encodes an [`Hlc`] (varint physical + varint logical).
pub fn encode_hlc(e: &mut Enc, h: &Hlc) {
    e.put_varint(h.physical);
    e.put_varint(u64::from(h.logical));
}

/// Decodes an [`Hlc`].
pub fn decode_hlc(d: &mut Dec<'_>) -> Result<Hlc, CodecError> {
    let physical = d.varint()?;
    let logical = u32::try_from(d.varint()?).map_err(|_| CodecError::BadVarint)?;
    Ok(Hlc { physical, logical })
}

/// Encodes a [`SourceId`] as a varint.
pub fn encode_source(e: &mut Enc, s: SourceId) {
    e.put_varint(u64::from(s.0));
}

/// Decodes a [`SourceId`].
pub fn decode_source(d: &mut Dec<'_>) -> Result<SourceId, CodecError> {
    Ok(SourceId(
        u32::try_from(d.varint()?).map_err(|_| CodecError::BadVarint)?,
    ))
}

/// Encodes a [`VectorClock`] as `count` + `(source, seq)` pairs. Zero
/// entries are skipped — `get` treats absent as 0, so this is the canonical
/// form and roundtrips compare equal for well-formed clocks.
pub fn encode_vclock(e: &mut Enc, vc: &VectorClock) {
    let entries: Vec<(SourceId, u64)> = vc.iter().filter(|&(_, n)| n > 0).collect();
    e.put_varint(entries.len() as u64);
    for (s, n) in entries {
        encode_source(e, s);
        e.put_varint(n);
    }
}

/// Decodes a [`VectorClock`].
pub fn decode_vclock(d: &mut Dec<'_>) -> Result<VectorClock, CodecError> {
    let count = d.varint()?;
    let mut vc = VectorClock::new();
    for _ in 0..count {
        let s = decode_source(d)?;
        let n = d.varint()?;
        if n > 0 {
            vc.observe(s, n);
        }
    }
    Ok(vc)
}

/// Encodes a [`CausalStamp`].
pub fn encode_stamp(e: &mut Enc, st: &CausalStamp) {
    encode_source(e, st.source);
    encode_hlc(e, &st.hlc);
    encode_vclock(e, &st.vclock);
}

/// Decodes a [`CausalStamp`].
pub fn decode_stamp(d: &mut Dec<'_>) -> Result<CausalStamp, CodecError> {
    let source = decode_source(d)?;
    let hlc = decode_hlc(d)?;
    let vclock = decode_vclock(d)?;
    Ok(CausalStamp {
        source,
        hlc,
        vclock,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::SourceClock;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn primitives_roundtrip() {
        let mut e = Enc::new();
        e.put_u8(0xAB);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX - 3);
        e.put_varint(0);
        e.put_varint(127);
        e.put_varint(128);
        e.put_varint(u64::MAX);
        e.put_i64(i64::MIN);
        e.put_i64(-1);
        e.put_i64(i64::MAX);
        e.put_str("héllo");
        e.put_bytes(&[]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 0xAB);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.varint().unwrap(), 0);
        assert_eq!(d.varint().unwrap(), 127);
        assert_eq!(d.varint().unwrap(), 128);
        assert_eq!(d.varint().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), i64::MIN);
        assert_eq!(d.i64().unwrap(), -1);
        assert_eq!(d.i64().unwrap(), i64::MAX);
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.bytes().unwrap(), &[] as &[u8]);
        d.finish().unwrap();
    }

    #[test]
    fn varint_overflow_is_typed() {
        // 11 continuation bytes can never be a valid u64.
        let bytes = [0xFFu8; 11];
        assert_eq!(Dec::new(&bytes).varint(), Err(CodecError::BadVarint));
        // 10 bytes whose top byte overflows 64 bits.
        let bytes = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        assert_eq!(Dec::new(&bytes).varint(), Err(CodecError::BadVarint));
    }

    #[test]
    fn values_roundtrip() {
        let values = [
            Value::Null,
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::float(-0.0),
            Value::float(3.5),
            Value::float(f64::INFINITY),
            Value::str(""),
            Value::str("conflict ≠ resolution"),
        ];
        for v in &values {
            let mut e = Enc::new();
            encode_value(&mut e, v);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            assert_eq!(&decode_value(&mut d).unwrap(), v);
            d.finish().unwrap();
        }
    }

    #[test]
    fn nan_float_is_rejected_not_panicking() {
        let mut e = Enc::new();
        e.put_u8(2);
        e.put_u64(f64::NAN.to_bits());
        let bytes = e.into_bytes();
        assert_eq!(
            decode_value(&mut Dec::new(&bytes)),
            Err(CodecError::BadFloat)
        );
    }

    #[test]
    fn stamps_roundtrip_through_real_clocks() {
        let mut s1 = SourceClock::new(SourceId(1));
        let mut s2 = SourceClock::new(SourceId(2));
        let a = s1.stamp(10);
        s2.observe(&a);
        let b = s2.stamp(11);
        for st in [&a, &b] {
            let mut e = Enc::new();
            encode_stamp(&mut e, st);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            assert_eq!(&decode_stamp(&mut d).unwrap(), st);
            d.finish().unwrap();
        }
    }

    #[test]
    fn frame_scanner_walks_clean_log() {
        let mut log = Vec::new();
        write_frame(&mut log, b"first");
        write_frame(&mut log, b"");
        write_frame(&mut log, b"third record");
        let mut sc = FrameScanner::new(&log);
        assert_eq!(sc.next().unwrap(), Some(&b"first"[..]));
        assert_eq!(sc.next().unwrap(), Some(&b""[..]));
        assert_eq!(sc.next().unwrap(), Some(&b"third record"[..]));
        assert_eq!(sc.next().unwrap(), None);
        assert_eq!(sc.valid_len(), log.len());
        assert_eq!(sc.frames(), 3);
    }

    #[test]
    fn frame_scanner_reports_torn_tail_at_every_cut() {
        let mut log = Vec::new();
        write_frame(&mut log, b"alpha");
        let keep = log.len();
        write_frame(&mut log, b"beta!");
        // Cut anywhere strictly inside the second frame: the first frame
        // survives, the tail reads as truncated, valid_len = end of frame 1.
        for cut in keep + 1..log.len() {
            let mut sc = FrameScanner::new(&log[..cut]);
            assert_eq!(sc.next().unwrap(), Some(&b"alpha"[..]));
            assert!(matches!(sc.next(), Err(CodecError::Truncated { .. })));
            assert_eq!(sc.valid_len(), keep);
        }
        // A cut exactly at the frame boundary is a clean shorter log.
        let mut sc = FrameScanner::new(&log[..keep]);
        assert_eq!(sc.next().unwrap(), Some(&b"alpha"[..]));
        assert_eq!(sc.next().unwrap(), None);
    }

    #[test]
    fn frame_scanner_detects_every_single_bit_flip() {
        let mut log = Vec::new();
        write_frame(&mut log, b"payload under test");
        for byte in 0..log.len() {
            for bit in 0..8 {
                let mut bad = log.clone();
                bad[byte] ^= 1 << bit;
                let mut sc = FrameScanner::new(&bad);
                let r = sc.next();
                assert!(
                    r.is_err(),
                    "bit flip at byte {byte} bit {bit} went undetected: {r:?}"
                );
                assert_eq!(sc.valid_len(), 0);
            }
        }
    }

    #[test]
    fn absurd_length_prefix_is_too_large_not_a_chase() {
        let mut log = vec![0xFF, 0xFF, 0xFF, 0xFF];
        log.extend_from_slice(&[0u8; 16]);
        let mut sc = FrameScanner::new(&log);
        assert!(matches!(sc.next(), Err(CodecError::FrameTooLarge { .. })));
    }
}
