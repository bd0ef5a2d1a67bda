//! Wire serialization for [`Tensor`]: the byte format boundary tensors
//! travel in between pipeline-stage processes.
//!
//! The encoding is deliberately trivial — `rows: u32 LE`, `cols: u32 LE`,
//! then `rows * cols` little-endian `f32` bit patterns — because the
//! transport layer above it (frame headers, checksums, sequence numbers)
//! owns integrity and ordering. Two properties matter here:
//!
//! 1. **Bit-exactness.** Payloads round-trip through raw bit patterns
//!    (`f32::to_bits`/`from_bits`), so NaN payloads, infinities and
//!    signed zeros survive unchanged and a tensor decoded on another
//!    process is bit-identical to the one encoded. This is what lets the
//!    multi-process runtime reproduce the in-process loss exactly.
//! 2. **Arena-backed decode.** [`Tensor::decode`] allocates its output
//!    through `Tensor::uninit`, so when the decoding thread has a
//!    [`crate::TensorArena`] installed the receive buffer is served from
//!    (and recycled into) the stage's shape-keyed free lists — receiving
//!    a tensor in the steady state allocates nothing. The transport
//!    decodes on the *stage* thread, not its socket-reader threads, for
//!    exactly this reason.
//!
//! Decoding is defensive: short buffers, truncated payloads and
//! implausible shapes are rejected with a typed [`WireError`] instead of
//! panicking, since frame bytes may cross a process boundary.

use std::fmt;

use crate::tensor::Tensor;

/// Upper bound on decoded elements (1 Gi elements = 4 GiB payload):
/// rejects absurd shape headers before they turn into giant allocations.
const MAX_ELEMS: u64 = 1 << 30;

/// Size of the shape header in bytes (`rows: u32` + `cols: u32`).
pub const WIRE_HEADER_BYTES: usize = 8;

/// Decoding failure of a wire-encoded tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the shape header is complete.
    TruncatedHeader,
    /// The buffer ends before `rows * cols` payload elements.
    TruncatedPayload {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The shape header describes an implausibly large tensor.
    ImplausibleShape {
        /// Decoded row count.
        rows: u64,
        /// Decoded column count.
        cols: u64,
    },
    /// A lossy-payload block tag names no known block mode.
    UnknownBlockTag {
        /// The unrecognized tag byte.
        tag: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::TruncatedHeader => write!(f, "tensor frame truncated inside shape header"),
            WireError::TruncatedPayload { expected, got } => {
                write!(
                    f,
                    "tensor frame truncated: payload needs {expected} bytes, got {got}"
                )
            }
            WireError::ImplausibleShape { rows, cols } => {
                write!(f, "tensor frame shape {rows}x{cols} exceeds the wire limit")
            }
            WireError::UnknownBlockTag { tag } => {
                write!(f, "lossy tensor frame block tag {tag:#04x} is unknown")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Floats converted per stack-buffered block during bulk encode/decode,
/// so the hot loops run over fixed-size arrays the compiler can unroll
/// and vectorize without any `unsafe` transmutes.
const BLOCK: usize = 256;

/// Converts an `f32` to bf16 bits (round-to-nearest-even).
///
/// bf16 keeps f32's sign and 8-bit exponent and truncates the mantissa
/// to 7 stored bits, so every normal value round-trips within a relative
/// error of 2^-8 ([`BF16_MAX_REL_ERR`]). NaNs stay NaN (a mantissa bit is
/// forced so rounding cannot quiet one into an infinity), infinities and
/// signed zeros are exact, and finite values whose rounding overflows the
/// largest bf16 normal map to the same-signed infinity.
pub fn f32_to_bf16(v: f32) -> u16 {
    let bits = v.to_bits();
    if v.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    let lsb = (bits >> 16) & 1;
    (bits.wrapping_add(0x7FFF + lsb) >> 16) as u16
}

/// Inverse of [`f32_to_bf16`]: widens bf16 bits back to `f32` exactly
/// (every bf16 value is representable in f32, so this direction is
/// lossless).
pub fn bf16_to_f32(b: u16) -> f32 {
    f32::from_bits(u32::from(b) << 16)
}

/// Relative round-trip error bound of [`f32_to_bf16`] for normal values:
/// half an ULP of bf16's 8-bit effective mantissa. Subnormal values
/// (magnitude below ~1.2e-38) can lose all precision and are bounded
/// only in absolute terms by the smallest bf16 subnormal step.
pub const BF16_MAX_REL_ERR: f32 = 1.0 / 256.0;

/// Elements per block of the lossy encoding: small enough that one
/// outlier only degrades 64 elements to the bf16 fallback, large enough
/// that the two bytes of per-block header stay under 4% overhead.
const LOSSY_BLOCK: usize = 64;

/// Block tag: 8-bit minifloat payload, one byte per element after a
/// shared anchor-exponent byte.
const LOSSY_MODE_MINI: u8 = 0;
/// Block tag: bf16 fallback payload, two bytes per element.
const LOSSY_MODE_BF16: u8 = 1;

/// Relative round-trip error bound of the lossy block encoding for
/// normal values, `2^-4`. The minifloat path rounds a 23-bit mantissa to
/// 3 bits (ties to even), so the error is at most half a mantissa step:
/// `2^-4 · 2^e ≤ 2^-4 · |v|`. The one clamp case — the block maximum
/// rounding up past `2^(anchor+1)` — decodes to `1.875 · 2^anchor` with
/// error `< (2 - 1.875)/2 = 2^-4` relative. The bf16 fallback is far
/// inside the bound (`2^-8`).
pub const LOSSY_MAX_REL_ERR: f32 = 1.0 / 16.0;

/// Decides how one block travels. `Some(anchor)` — the f32 biased
/// exponent of the block's largest magnitude — when every element fits
/// the minifloat form: all finite, no subnormals, and every nonzero
/// magnitude within 14 octaves of the maximum (the 4-bit exponent field
/// spans 15 values, with 0 reserved for zero). `None` sends the block
/// as bf16, whose full 8-bit exponent absorbs any spread and whose
/// NaN/infinity handling is already defined.
fn lossy_block_mode(chunk: &[f32]) -> Option<u8> {
    let mut emax = 0u32;
    let mut emin = u32::MAX;
    for &v in chunk {
        let bits = v.to_bits();
        let e = (bits >> 23) & 0xFF;
        if e == 0xFF {
            return None; // NaN or infinity
        }
        if bits & 0x7FFF_FFFF == 0 {
            continue; // ±0 is exact in every mode
        }
        if e == 0 {
            return None; // subnormal: no 1.m form to round
        }
        emax = emax.max(e);
        emin = emin.min(e);
    }
    if emin == u32::MAX {
        // All-zero block: every code is a signed zero, any anchor works.
        Some(1)
    } else if emax - emin <= 14 {
        Some(emax as u8)
    } else {
        None
    }
}

/// Quantizes one finite, non-subnormal f32 to the 8-bit minifloat form:
/// sign (1) | exponent (4, biased against `anchor`) | mantissa (3,
/// round-to-nearest-even). Callers guarantee `v`'s exponent lies in
/// `[anchor - 14, anchor]` (see [`lossy_block_mode`]).
fn f32_to_mini(v: f32, anchor: u8) -> u8 {
    let bits = v.to_bits();
    let sign = ((bits >> 31) as u8) << 7;
    if bits & 0x7FFF_FFFF == 0 {
        return sign; // exponent field 0 encodes ±0
    }
    let mut e = (bits >> 23) & 0xFF;
    let m = bits & 0x7F_FFFF;
    let mut m3 = (m + 0x7_FFFF + ((m >> 20) & 1)) >> 20;
    if m3 == 8 {
        m3 = 0;
        e += 1;
    }
    let anchor = u32::from(anchor);
    if e > anchor {
        // The block maximum rounded up past 2^(anchor+1): clamp to the
        // top code, still within LOSSY_MAX_REL_ERR (see its docs).
        e = anchor;
        m3 = 7;
    }
    let f = (e + 15 - anchor) as u8; // 1..=15 by block eligibility
    sign | (f << 3) | m3 as u8
}

/// Inverse of [`f32_to_mini`]: exact (every minifloat value is an f32).
/// Defensive about garbage bytes — an out-of-window exponent clamps into
/// the normal f32 range instead of fabricating an infinity or a panic.
fn mini_to_f32(code: u8, anchor: u8) -> f32 {
    let sign = u32::from(code >> 7) << 31;
    let f = u32::from(code >> 3) & 0xF;
    if f == 0 {
        return f32::from_bits(sign); // ±0
    }
    let e = (f as i32 + i32::from(anchor) - 15).clamp(1, 254) as u32;
    let m = (u32::from(code) & 0x7) << 20;
    f32::from_bits(sign | (e << 23) | m)
}

fn decode_shape(bytes: &[u8], elem_bytes: usize) -> Result<(usize, usize, usize), WireError> {
    if bytes.len() < WIRE_HEADER_BYTES {
        return Err(WireError::TruncatedHeader);
    }
    let rows = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as u64;
    let cols = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as u64;
    if rows.saturating_mul(cols) > MAX_ELEMS {
        return Err(WireError::ImplausibleShape { rows, cols });
    }
    let need = (rows * cols) as usize * elem_bytes;
    let payload = &bytes[WIRE_HEADER_BYTES..];
    if payload.len() < need {
        return Err(WireError::TruncatedPayload {
            expected: need,
            got: payload.len(),
        });
    }
    Ok((rows as usize, cols as usize, need))
}

fn push_shape(out: &mut Vec<u8>, t: &Tensor) {
    let rows = u32::try_from(t.rows()).expect("rows fit in u32");
    let cols = u32::try_from(t.cols()).expect("cols fit in u32");
    out.extend_from_slice(&rows.to_le_bytes());
    out.extend_from_slice(&cols.to_le_bytes());
}

impl Tensor {
    /// Number of bytes [`Tensor::encode_into`] appends for this tensor.
    pub fn encoded_len(&self) -> usize {
        WIRE_HEADER_BYTES + self.len() * 4
    }

    /// Number of bytes [`Tensor::encode_bf16_into`] appends.
    pub fn encoded_len_bf16(&self) -> usize {
        WIRE_HEADER_BYTES + self.len() * 2
    }

    /// Appends the wire encoding (`rows u32 LE, cols u32 LE, payload f32
    /// LE bit patterns`) to `out`.
    ///
    /// # Panics
    ///
    /// Panics if a dimension exceeds `u32::MAX` (no real tensor here is
    /// within orders of magnitude of that).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        push_shape(out, self);
        let mut block = [0u8; BLOCK * 4];
        for chunk in self.data().chunks(BLOCK) {
            for (dst, &v) in block.chunks_exact_mut(4).zip(chunk) {
                dst.copy_from_slice(&v.to_bits().to_le_bytes());
            }
            out.extend_from_slice(&block[..chunk.len() * 4]);
        }
    }

    /// Appends the bf16 wire encoding (`rows u32 LE, cols u32 LE, payload
    /// bf16 LE bit patterns`) to `out` — half the payload bytes of
    /// [`Tensor::encode_into`], lossy per [`f32_to_bf16`].
    ///
    /// # Panics
    ///
    /// Panics if a dimension exceeds `u32::MAX`.
    pub fn encode_bf16_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len_bf16());
        push_shape(out, self);
        let mut block = [0u8; BLOCK * 2];
        for chunk in self.data().chunks(BLOCK) {
            for (dst, &v) in block.chunks_exact_mut(2).zip(chunk) {
                dst.copy_from_slice(&f32_to_bf16(v).to_le_bytes());
            }
            out.extend_from_slice(&block[..chunk.len() * 2]);
        }
    }

    /// Decodes one tensor from the front of `bytes`, returning it plus
    /// the number of bytes consumed. The payload is copied bit-exactly;
    /// the output buffer is served by the installed arena, if any.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the buffer is truncated or the shape
    /// header is implausible; `bytes` is never panicked over.
    pub fn decode(bytes: &[u8]) -> Result<(Tensor, usize), WireError> {
        let (rows, cols, need) = decode_shape(bytes, 4)?;
        let payload = &bytes[WIRE_HEADER_BYTES..WIRE_HEADER_BYTES + need];
        let mut t = Tensor::uninit(rows, cols);
        for (dst, src) in t
            .data_mut()
            .chunks_mut(BLOCK)
            .zip(payload.chunks(BLOCK * 4))
        {
            for (d, s) in dst.iter_mut().zip(src.chunks_exact(4)) {
                *d = f32::from_bits(u32::from_le_bytes(s.try_into().unwrap()));
            }
        }
        Ok((t, WIRE_HEADER_BYTES + need))
    }

    /// Decodes a bf16-encoded tensor from the front of `bytes` (the
    /// [`Tensor::encode_bf16_into`] format), widening each element back
    /// to `f32`. The output buffer is served by the installed arena.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::decode`].
    pub fn decode_bf16(bytes: &[u8]) -> Result<(Tensor, usize), WireError> {
        let (rows, cols, need) = decode_shape(bytes, 2)?;
        let payload = &bytes[WIRE_HEADER_BYTES..WIRE_HEADER_BYTES + need];
        let mut t = Tensor::uninit(rows, cols);
        for (dst, src) in t
            .data_mut()
            .chunks_mut(BLOCK)
            .zip(payload.chunks(BLOCK * 2))
        {
            for (d, s) in dst.iter_mut().zip(src.chunks_exact(2)) {
                *d = bf16_to_f32(u16::from_le_bytes(s.try_into().unwrap()));
            }
        }
        Ok((t, WIRE_HEADER_BYTES + need))
    }

    /// Number of bytes [`Tensor::encode_lossy_into`] appends. Scans the
    /// data (block modes are data-dependent), so this is exact, not an
    /// upper bound.
    pub fn encoded_len_lossy(&self) -> usize {
        let mut len = WIRE_HEADER_BYTES;
        for chunk in self.data().chunks(LOSSY_BLOCK) {
            len += 1 + match lossy_block_mode(chunk) {
                Some(_) => 1 + chunk.len(),
                None => 2 * chunk.len(),
            };
        }
        len
    }

    /// Appends the error-bounded lossy wire encoding to `out`: the shape
    /// header, then one block per `LOSSY_BLOCK` elements. A block is a
    /// tag byte plus either an anchor-exponent byte and one minifloat
    /// byte per element (`LOSSY_MODE_MINI`), or two bf16 bytes per
    /// element (`LOSSY_MODE_BF16`) when the block holds nonfinite,
    /// subnormal, or wider-than-14-octave values. Relative error per
    /// normal element is bounded by [`LOSSY_MAX_REL_ERR`]; payloads
    /// always shrink versus f32 (≤ ~0.26x typical, ≤ 0.52x worst case).
    ///
    /// # Panics
    ///
    /// Panics if a dimension exceeds `u32::MAX`.
    pub fn encode_lossy_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len_lossy());
        push_shape(out, self);
        for chunk in self.data().chunks(LOSSY_BLOCK) {
            match lossy_block_mode(chunk) {
                Some(anchor) => {
                    out.push(LOSSY_MODE_MINI);
                    out.push(anchor);
                    for &v in chunk {
                        out.push(f32_to_mini(v, anchor));
                    }
                }
                None => {
                    out.push(LOSSY_MODE_BF16);
                    for &v in chunk {
                        out.extend_from_slice(&f32_to_bf16(v).to_le_bytes());
                    }
                }
            }
        }
    }

    /// Decodes a lossy-encoded tensor from the front of `bytes` (the
    /// [`Tensor::encode_lossy_into`] format). The output buffer is
    /// served by the installed arena.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the buffer is truncated, a block tag
    /// is unknown, or the shape header is implausible.
    pub fn decode_lossy(bytes: &[u8]) -> Result<(Tensor, usize), WireError> {
        if bytes.len() < WIRE_HEADER_BYTES {
            return Err(WireError::TruncatedHeader);
        }
        let rows = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as u64;
        let cols = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as u64;
        if rows.saturating_mul(cols) > MAX_ELEMS {
            return Err(WireError::ImplausibleShape { rows, cols });
        }
        let avail = bytes.len() - WIRE_HEADER_BYTES;
        // Payload length is data-dependent, so "expected" reports the
        // bytes needed through the block that fell off the end.
        let trunc = |need_through: usize| WireError::TruncatedPayload {
            expected: need_through - WIRE_HEADER_BYTES,
            got: avail,
        };
        let mut t = Tensor::uninit(rows as usize, cols as usize);
        let mut pos = WIRE_HEADER_BYTES;
        for dst in t.data_mut().chunks_mut(LOSSY_BLOCK) {
            let tag = *bytes.get(pos).ok_or_else(|| trunc(pos + 1))?;
            pos += 1;
            match tag {
                LOSSY_MODE_MINI => {
                    let end = pos + 1 + dst.len();
                    if bytes.len() < end {
                        return Err(trunc(end));
                    }
                    let anchor = bytes[pos];
                    for (d, &c) in dst.iter_mut().zip(&bytes[pos + 1..end]) {
                        *d = mini_to_f32(c, anchor);
                    }
                    pos = end;
                }
                LOSSY_MODE_BF16 => {
                    let end = pos + 2 * dst.len();
                    if bytes.len() < end {
                        return Err(trunc(end));
                    }
                    for (d, s) in dst.iter_mut().zip(bytes[pos..end].chunks_exact(2)) {
                        *d = bf16_to_f32(u16::from_le_bytes(s.try_into().unwrap()));
                    }
                    pos = end;
                }
                tag => return Err(WireError::UnknownBlockTag { tag }),
            }
        }
        Ok((t, pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_bit_exact() {
        let t = Tensor::from_vec(
            2,
            3,
            vec![1.5, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 3e-39],
        );
        let mut buf = Vec::new();
        t.encode_into(&mut buf);
        assert_eq!(buf.len(), t.encoded_len());
        let (back, used) = Tensor::decode(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!((back.rows(), back.cols()), (2, 3));
        for (a, b) in t.data().iter().zip(back.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn zero_sized_tensors_round_trip() {
        let t = Tensor::zeros(0, 5);
        let mut buf = Vec::new();
        t.encode_into(&mut buf);
        let (back, used) = Tensor::decode(&buf).unwrap();
        assert_eq!(used, WIRE_HEADER_BYTES);
        assert_eq!((back.rows(), back.cols()), (0, 5));
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let t = Tensor::from_vec(3, 4, (0..12).map(|x| x as f32).collect());
        let mut buf = Vec::new();
        t.encode_into(&mut buf);
        for cut in 0..buf.len() {
            assert!(Tensor::decode(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn implausible_shape_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Tensor::decode(&buf),
            Err(WireError::ImplausibleShape { .. })
        ));
    }

    #[test]
    fn bf16_round_trip_is_within_bound() {
        let t = Tensor::from_vec(
            2,
            4,
            vec![
                1.5,
                -0.0,
                f32::NAN,
                f32::INFINITY,
                -3.25e7,
                1e-20,
                0.1,
                -65504.0,
            ],
        );
        let mut buf = Vec::new();
        t.encode_bf16_into(&mut buf);
        assert_eq!(buf.len(), t.encoded_len_bf16());
        let (back, used) = Tensor::decode_bf16(&buf).unwrap();
        assert_eq!(used, buf.len());
        for (&a, &b) in t.data().iter().zip(back.data()) {
            if a.is_nan() {
                assert!(b.is_nan());
            } else if a.is_infinite() || a == 0.0 {
                assert_eq!(a.to_bits(), b.to_bits());
            } else {
                assert!(((a - b) / a).abs() <= BF16_MAX_REL_ERR, "{a} -> {b}");
            }
        }
    }

    #[test]
    fn bf16_rounds_to_nearest_even() {
        // 1.0 + 2^-8 sits exactly halfway between bf16(1.0) and the next
        // bf16 up (ULP 2^-7); ties-to-even keeps the even mantissa (1.0).
        let tie = 1.0f32 + 1.0 / 256.0;
        assert_eq!(bf16_to_f32(f32_to_bf16(tie)), 1.0);
        // Just above the tie rounds up to the next bf16.
        let above_tie = f32::from_bits(tie.to_bits() + 1);
        assert_eq!(bf16_to_f32(f32_to_bf16(above_tie)), 1.0078125);
        // Overflow near f32::MAX saturates to infinity, sign preserved.
        assert_eq!(f32_to_bf16(f32::MAX), f32_to_bf16(f32::INFINITY));
        assert!(bf16_to_f32(f32_to_bf16(-f32::MAX)).is_infinite());
    }

    #[test]
    fn bf16_truncation_is_rejected_at_every_length() {
        let t = Tensor::from_vec(3, 3, (0..9).map(|x| x as f32).collect());
        let mut buf = Vec::new();
        t.encode_bf16_into(&mut buf);
        for cut in 0..buf.len() {
            assert!(Tensor::decode_bf16(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn lossy_round_trip_is_within_bound_and_shrinks() {
        // Well-conditioned block (gradient-like magnitudes): minifloat.
        let n = 3 * LOSSY_BLOCK + 17;
        let data: Vec<f32> = (0..n)
            .map(|i| {
                let mag = 0.5 + (i % 97) as f32 / 50.0;
                if i % 2 == 0 {
                    mag
                } else {
                    -mag
                }
            })
            .collect();
        let t = Tensor::from_vec(1, n, data);
        let mut buf = Vec::new();
        t.encode_lossy_into(&mut buf);
        assert_eq!(buf.len(), t.encoded_len_lossy());
        // All blocks qualify for minifloat: ~1 byte/elem + 2/block.
        assert_eq!(
            buf.len(),
            WIRE_HEADER_BYTES + n + 2 * n.div_ceil(LOSSY_BLOCK)
        );
        // Element bytes roughly halve again versus bf16 (2 -> ~1.03).
        assert!(buf.len() < t.encoded_len_bf16(), "should beat bf16");
        assert!(buf.len() * 3 < t.encoded_len(), "should be < f32/3");
        let (back, used) = Tensor::decode_lossy(&buf).unwrap();
        assert_eq!(used, buf.len());
        for (&a, &b) in t.data().iter().zip(back.data()) {
            assert!(
                (a - b).abs() <= a.abs() * LOSSY_MAX_REL_ERR,
                "lossy error out of bound: {a} -> {b}"
            );
        }
    }

    #[test]
    fn lossy_wide_and_nonfinite_blocks_fall_back_to_bf16() {
        // One block spanning > 14 octaves, one holding a NaN: both must
        // take the bf16 fallback and still round-trip within the bound.
        let mut data = vec![0.25f32; 2 * LOSSY_BLOCK];
        data[3] = 1e-3;
        data[7] = 100.0; // octave spread ~17 in block 0
        data[LOSSY_BLOCK + 5] = f32::NAN;
        data[LOSSY_BLOCK + 6] = f32::INFINITY;
        let t = Tensor::from_vec(2, LOSSY_BLOCK, data);
        let mut buf = Vec::new();
        t.encode_lossy_into(&mut buf);
        assert_eq!(buf.len(), t.encoded_len_lossy());
        assert_eq!(buf.len(), WIRE_HEADER_BYTES + 2 * (1 + 2 * LOSSY_BLOCK));
        let (back, _) = Tensor::decode_lossy(&buf).unwrap();
        for (&a, &b) in t.data().iter().zip(back.data()) {
            if a.is_nan() {
                assert!(b.is_nan());
            } else if a.is_infinite() {
                assert_eq!(a.to_bits(), b.to_bits());
            } else {
                assert!(
                    (a - b).abs() <= a.abs() * BF16_MAX_REL_ERR,
                    "fallback error out of bound: {a} -> {b}"
                );
            }
        }
    }

    #[test]
    fn lossy_preserves_signed_zeros_and_block_maxima() {
        let mut data = vec![0.0f32; LOSSY_BLOCK];
        data[0] = -0.0;
        data[1] = 1.0; // exactly representable
        data[2] = 1.875; // the top minifloat mantissa
        data[3] = 1.99; // rounds up past the top code: clamp case
        let t = Tensor::from_vec(1, LOSSY_BLOCK, data);
        let mut buf = Vec::new();
        t.encode_lossy_into(&mut buf);
        let (back, _) = Tensor::decode_lossy(&buf).unwrap();
        assert_eq!(back.data()[0].to_bits(), (-0.0f32).to_bits());
        assert_eq!(back.data()[1], 1.0);
        assert_eq!(back.data()[2], 1.875);
        assert_eq!(back.data()[3], 1.875, "clamped to the top code");
        assert!((1.99 - back.data()[3]) / 1.99 <= LOSSY_MAX_REL_ERR);
        assert!(back.data()[4..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn lossy_truncation_is_rejected_at_every_length() {
        let mut data: Vec<f32> = (0..LOSSY_BLOCK + 9).map(|i| 1.0 + i as f32).collect();
        data[2] = f32::NAN; // force one bf16 block, one minifloat block
        let t = Tensor::from_vec(1, LOSSY_BLOCK + 9, data);
        let mut buf = Vec::new();
        t.encode_lossy_into(&mut buf);
        for cut in 0..buf.len() {
            assert!(Tensor::decode_lossy(&buf[..cut]).is_err(), "cut at {cut}");
        }
        let (_, used) = Tensor::decode_lossy(&buf).unwrap();
        assert_eq!(used, buf.len());
    }

    #[test]
    fn lossy_unknown_block_tag_is_rejected() {
        let t = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let mut buf = Vec::new();
        t.encode_lossy_into(&mut buf);
        buf[WIRE_HEADER_BYTES] = 0x7E;
        assert!(matches!(
            Tensor::decode_lossy(&buf),
            Err(WireError::UnknownBlockTag { tag: 0x7E })
        ));
    }

    #[test]
    fn decode_reports_consumed_bytes_with_trailing_data() {
        let t = Tensor::from_vec(1, 2, vec![7.0, 8.0]);
        let mut buf = Vec::new();
        t.encode_into(&mut buf);
        let frame_len = buf.len();
        buf.extend_from_slice(&[0xAB; 9]);
        let (back, used) = Tensor::decode(&buf).unwrap();
        assert_eq!(used, frame_len);
        assert_eq!(back.data(), &[7.0, 8.0]);
    }
}
