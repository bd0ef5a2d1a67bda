//! The length-delimited wire frame: header, checksum, tensor payload.
//!
//! Layout (all little-endian, 40-byte header):
//!
//! ```text
//! offset  field        type  meaning
//!      0  magic        u32   0x4D455043 ("MEPC")
//!      4  version      u8    format version, currently 2
//!      5  kind         u8    0 = fwd data, 1 = bwd data, 3 = bye
//!      6  from         u8    sending stage
//!      7  codec        u8    payload codec id (see [`crate::codec`])
//!      8  seq          u64   per-link data sequence number (1-based)
//!     16  mb           u32   micro-batch tag
//!     20  slice        u32   slice tag
//!     24  g            u32   destination global position tag
//!     28  payload_len  u32   tensor payload bytes after the header
//!     32  checksum     u64   lane-parallel word FNV-1a over the payload
//!     40  payload      ...   codec-encoded tensor (control frames: empty)
//! ```
//!
//! Version 2 repurposed the reserved flags byte (offset 7) as the codec
//! id, which is why the version bumped: a v1 receiver would silently
//! misdecode a bf16 payload as f32. Version (or codec) bytes this build
//! does not speak are rejected with the typed [`CommError::Version`] —
//! never a checksum failure, so mixed-version deployments fail with an
//! actionable error.
//!
//! Encoding is scatter-gather in place: [`encode_data_into`] writes the
//! header with a length/checksum placeholder into the caller's buffer,
//! appends the codec-encoded payload directly behind it, then patches
//! the two fields — no intermediate payload vector, no concatenation
//! copy. The socket endpoint lends buffers from its pool and recycles
//! them after the write, so steady-state sends allocate nothing.
//!
//! The checksum covers the payload only; a receiver rejects a mismatch
//! as [`CommError::Corrupt`]. Structural header damage is caught by the
//! magic/version/length validation instead. Kind byte 2 is reserved:
//! older builds sent link-level acks with it under this same `VERSION`,
//! so it is rejected like any unknown kind rather than given a new
//! meaning. On stream transports the frame is preceded by a `u32`
//! length prefix (see [`crate::socket`]).

use crate::codec::{codec_from_wire, WireCodec};
use crate::error::CommError;
use crate::msg::{MsgKind, StageMsg};

/// Frame magic, "MEPC".
pub const MAGIC: u32 = 0x4D45_5043;
/// Current frame format version (2: flags byte became the codec id).
pub const VERSION: u8 = 2;
/// Header length in bytes.
pub const HEADER_BYTES: usize = 40;
/// `kind` byte of a goodbye frame (clean shutdown announcement; data
/// frames use [`MsgKind::to_wire`]).
const KIND_BYE: u8 = 3;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A boundary tensor moving in `MsgKind`'s direction.
    Data(MsgKind),
    /// A clean-shutdown goodbye: the sender finished its schedule.
    Bye,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The payload checksum: FNV-1a run over 8-byte words in four
/// independent lanes, folded together at the end. Byte-serial FNV is a
/// multiply-latency chain per *byte*; four word lanes cut that to ~1/30
/// on multi-KiB payloads, and every payload is hashed twice (sender
/// stamp, receiver verify), putting the hash squarely on the wire hot
/// path. Any single corrupted word still flips its lane (xor then
/// multiply by an odd prime is injective mod 2^64) and therefore the
/// folded sum. The tail word carries a length tag so truncation into
/// the zero padding is not silent.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [
        FNV_BASIS,
        FNV_BASIS ^ 0x9E37_79B9_7F4A_7C15,
        FNV_BASIS ^ 0xC2B2_AE3D_27D4_EB4F,
        FNV_BASIS ^ 0x1656_67B1_9E37_79F9,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in blocks.by_ref() {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane ^= u64::from_le_bytes(word.try_into().expect("8 bytes"));
            *lane = lane.wrapping_mul(FNV_PRIME);
        }
    }
    let mut h = lanes[0];
    for &lane in &lanes[1..] {
        h ^= lane;
        h = h.wrapping_mul(FNV_PRIME);
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for word in words.by_ref() {
        h ^= u64::from_le_bytes(word.try_into().expect("8 bytes"));
        h = h.wrapping_mul(FNV_PRIME);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut t = [0u8; 8];
        t[..tail.len()].copy_from_slice(tail);
        t[7] = tail.len() as u8;
        h ^= u64::from_le_bytes(t);
        h = h.wrapping_mul(FNV_PRIME);
    }
    // Final avalanche so short payloads spread across all 64 bits.
    h ^= h >> 32;
    h.wrapping_mul(FNV_PRIME)
}

/// A decoded frame header (payload still raw).
#[derive(Debug, Clone, Copy)]
pub struct Header {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Sending stage.
    pub from: usize,
    /// Payload codec id byte (resolved lazily by [`decode_payload`] so
    /// control frames never need a known codec).
    pub codec: u8,
    /// Per-link sequence number.
    pub seq: u64,
    /// Micro-batch tag (data frames).
    pub mb: u32,
    /// Slice tag (data frames).
    pub slice: u32,
    /// Global-position tag (data frames).
    pub g: u32,
    /// Payload byte count.
    pub payload_len: usize,
    /// Stored payload checksum.
    pub checksum: u64,
}

/// Encodes a data frame carrying `msg` in place: clears `out`, writes
/// the header, appends the codec-encoded payload directly behind it and
/// patches the length/checksum fields. `out` ends up holding the
/// complete frame, ready for a vectored stream write.
pub fn encode_data_into(
    out: &mut Vec<u8>,
    from: usize,
    seq: u64,
    msg: &StageMsg,
    codec: &dyn WireCodec,
) {
    out.clear();
    out.reserve(HEADER_BYTES + codec.encoded_len(&msg.tensor));
    push_header(
        out,
        msg.kind.to_wire(),
        from,
        codec.id().to_wire(),
        seq,
        msg.mb,
        msg.slice,
        msg.g,
    );
    codec.encode_into(&msg.tensor, out);
    patch_payload_fields(out);
}

/// Encodes a goodbye frame from stage `from` (clean shutdown) into
/// `out` (cleared first).
pub fn encode_bye_into(out: &mut Vec<u8>, from: usize) {
    out.clear();
    push_header(out, KIND_BYE, from, 0, 0, 0, 0, 0);
    patch_payload_fields(out);
}

/// Writes the fixed header with zeroed payload_len/checksum fields;
/// [`patch_payload_fields`] fills them once the payload is in place.
#[allow(clippy::too_many_arguments)]
fn push_header(
    out: &mut Vec<u8>,
    kind: u8,
    from: usize,
    codec: u8,
    seq: u64,
    mb: u32,
    slice: u32,
    g: u32,
) {
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(kind);
    out.push(u8::try_from(from).expect("stage fits in u8"));
    out.push(codec);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&mb.to_le_bytes());
    out.extend_from_slice(&slice.to_le_bytes());
    out.extend_from_slice(&g.to_le_bytes());
    out.extend_from_slice(&[0u8; 12]); // payload_len + checksum, patched
}

/// Stamps the payload length and checksum over the placeholder written
/// by [`push_header`], after the payload has been appended in place.
fn patch_payload_fields(out: &mut [u8]) {
    let payload_len = out.len() - HEADER_BYTES;
    let sum = checksum(&out[HEADER_BYTES..]);
    out[28..32].copy_from_slice(&(payload_len as u32).to_le_bytes());
    out[32..40].copy_from_slice(&sum.to_le_bytes());
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().unwrap())
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().unwrap())
}

/// Validates the structural header of `bytes` (magic, version, length).
///
/// # Errors
///
/// Returns [`CommError::Version`] when the version byte is not ours
/// (e.g. a pre-codec v1 sender), [`CommError::Protocol`] on any other
/// structural mismatch, including an unknown kind byte. Checksum
/// validation is separate ([`payload_intact`]) so a damaged payload can
/// be reported as [`CommError::Corrupt`] for the peer the header names.
pub fn decode_header(bytes: &[u8]) -> Result<Header, CommError> {
    if bytes.len() < HEADER_BYTES {
        return Err(CommError::Protocol(format!(
            "frame shorter than header: {} bytes",
            bytes.len()
        )));
    }
    if le_u32(&bytes[0..4]) != MAGIC {
        return Err(CommError::Protocol("bad frame magic".into()));
    }
    if bytes[4] != VERSION {
        return Err(CommError::Version {
            got: bytes[4],
            want: VERSION,
        });
    }
    let kind = match bytes[5] {
        KIND_BYE => FrameKind::Bye,
        k => FrameKind::Data(
            MsgKind::from_wire(k)
                .ok_or_else(|| CommError::Protocol(format!("unknown frame kind {k}")))?,
        ),
    };
    let payload_len = le_u32(&bytes[28..32]) as usize;
    if bytes.len() != HEADER_BYTES + payload_len {
        return Err(CommError::Protocol(format!(
            "frame length {} disagrees with payload_len {payload_len}",
            bytes.len()
        )));
    }
    Ok(Header {
        kind,
        from: bytes[6] as usize,
        codec: bytes[7],
        seq: le_u64(&bytes[8..16]),
        mb: le_u32(&bytes[16..20]),
        slice: le_u32(&bytes[20..24]),
        g: le_u32(&bytes[24..28]),
        payload_len,
        checksum: le_u64(&bytes[32..40]),
    })
}

/// Whether the payload bytes match the header's stored checksum.
pub fn payload_intact(header: &Header, bytes: &[u8]) -> bool {
    checksum(&bytes[HEADER_BYTES..]) == header.checksum
}

/// Decodes the tensor payload of a validated data frame into a
/// [`StageMsg`], dispatching on the header's codec id. Call on the
/// receiving *stage* thread so the tensor is served by its arena.
///
/// # Errors
///
/// Returns [`CommError::Version`] for an unknown codec id,
/// [`CommError::Protocol`] if the payload is not a well-formed tensor
/// encoding or the frame is a goodbye.
pub fn decode_payload(header: &Header, bytes: &[u8]) -> Result<StageMsg, CommError> {
    let FrameKind::Data(kind) = header.kind else {
        return Err(CommError::Protocol("control frame has no payload".into()));
    };
    let codec = codec_from_wire(header.codec)?;
    let (tensor, used) = codec.decode(&bytes[HEADER_BYTES..])?;
    if used != header.payload_len {
        return Err(CommError::Protocol(format!(
            "payload has {} trailing bytes",
            header.payload_len - used
        )));
    }
    Ok(StageMsg {
        kind,
        mb: header.mb,
        slice: header.slice,
        g: header.g,
        tensor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{codec, CodecId};
    use mepipe_tensor::Tensor;

    fn msg() -> StageMsg {
        StageMsg {
            kind: MsgKind::Fwd,
            mb: 3,
            slice: 1,
            g: 2,
            tensor: Tensor::from_vec(2, 2, vec![1.0, -2.0, f32::NAN, 0.5]),
        }
    }

    fn data_frame(codec_id: CodecId) -> Vec<u8> {
        let mut out = Vec::new();
        encode_data_into(&mut out, 1, 7, &msg(), codec(codec_id));
        out
    }

    #[test]
    fn data_frame_round_trips() {
        let bytes = data_frame(CodecId::F32);
        let h = decode_header(&bytes).unwrap();
        assert_eq!((h.from, h.seq, h.mb, h.slice, h.g), (1, 7, 3, 1, 2));
        assert_eq!(h.codec, CodecId::F32.to_wire());
        assert!(payload_intact(&h, &bytes));
        let back = decode_payload(&h, &bytes).unwrap();
        assert_eq!(back.kind, MsgKind::Fwd);
        assert_eq!(back.tensor.data()[0], 1.0);
        assert!(back.tensor.data()[2].is_nan());
    }

    #[test]
    fn bf16_frame_is_smaller_and_decodes_via_header_codec() {
        let f32_frame = data_frame(CodecId::F32);
        let bf16_frame = data_frame(CodecId::Bf16);
        assert!(bf16_frame.len() < f32_frame.len());
        let h = decode_header(&bf16_frame).unwrap();
        assert_eq!(h.codec, CodecId::Bf16.to_wire());
        let back = decode_payload(&h, &bf16_frame).unwrap();
        assert_eq!(back.tensor.data()[0], 1.0);
        assert!(back.tensor.data()[2].is_nan());
    }

    #[test]
    fn encode_into_reuses_the_buffer_without_reallocating() {
        let mut buf = Vec::new();
        encode_data_into(&mut buf, 0, 1, &msg(), codec(CodecId::F32));
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        encode_data_into(&mut buf, 0, 2, &msg(), codec(CodecId::F32));
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.as_ptr(), ptr, "second encode reused the allocation");
    }

    #[test]
    fn bye_frames_round_trip() {
        let mut bytes = Vec::new();
        encode_bye_into(&mut bytes, 3);
        let bye = decode_header(&bytes).unwrap();
        assert_eq!(bye.kind, FrameKind::Bye);
        assert_eq!(bye.from, 3);
        assert!(payload_intact(&bye, &bytes));
    }

    #[test]
    fn unknown_kind_bytes_are_protocol_errors() {
        for kind in [2u8, 4, 0xFF] {
            let mut bytes = data_frame(CodecId::F32);
            bytes[5] = kind;
            assert!(matches!(decode_header(&bytes), Err(CommError::Protocol(_))));
        }
    }

    #[test]
    fn corrupt_payload_fails_checksum_not_header() {
        for codec_id in [CodecId::F32, CodecId::Bf16] {
            let mut bytes = data_frame(codec_id);
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            let h = decode_header(&bytes).unwrap();
            assert!(!payload_intact(&h, &bytes));
        }
    }

    #[test]
    fn structural_damage_is_a_protocol_error() {
        let bytes = data_frame(CodecId::F32);
        assert!(decode_header(&bytes[..HEADER_BYTES - 1]).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 1;
        assert!(decode_header(&bad_magic).is_err());
        let mut bad_len = bytes;
        bad_len.pop();
        assert!(decode_header(&bad_len).is_err());
    }

    #[test]
    fn old_version_frames_are_rejected_typed() {
        let mut bytes = data_frame(CodecId::F32);
        bytes[4] = 1; // a v1 sender
        assert!(matches!(
            decode_header(&bytes),
            Err(CommError::Version {
                got: 1,
                want: VERSION
            })
        ));
    }

    #[test]
    fn unknown_codec_is_rejected_typed_at_decode() {
        let mut bytes = data_frame(CodecId::F32);
        bytes[7] = 0x7E; // unknown codec id; header still parses
        let h = decode_header(&bytes).unwrap();
        assert!(matches!(
            decode_payload(&h, &bytes),
            Err(CommError::Version { got: 0x7E, .. })
        ));
    }
}
