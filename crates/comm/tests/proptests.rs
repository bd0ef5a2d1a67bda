//! Property tests for the wire path: codec parity bounds, frame
//! robustness against truncation and corruption, bit-exact f32 frames.

use proptest::prelude::*;

use mepipe_comm::frame::{self, HEADER_BYTES};
use mepipe_comm::{codec, CodecId, MsgKind, StageMsg};
use mepipe_tensor::{Tensor, BF16_MAX_REL_ERR};

/// splitmix64 — deterministic value streams from a seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tensor of arbitrary f32 *bit patterns* (may contain NaN/inf/denormals).
fn raw_bits_tensor(seed: u64, rows: usize, cols: usize) -> Tensor {
    let mut s = seed;
    let data = (0..rows * cols)
        .map(|_| f32::from_bits(splitmix(&mut s) as u32))
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// A tensor of finite normal-range values (what gradients look like).
fn normal_tensor(seed: u64, rows: usize, cols: usize) -> Tensor {
    let mut s = seed;
    let data = (0..rows * cols)
        .map(|_| {
            let u = splitmix(&mut s);
            let mag = ((u >> 11) as f64 / (1u64 << 53) as f64) as f32 * 100.0 + 1e-3;
            if u & 1 == 0 {
                mag
            } else {
                -mag
            }
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

fn data_frame(t: Tensor, id: CodecId) -> Vec<u8> {
    let msg = StageMsg {
        kind: MsgKind::Fwd,
        mb: 1,
        slice: 2,
        g: 3,
        tensor: t,
    };
    let mut out = Vec::new();
    frame::encode_data_into(&mut out, 0, 1, &msg, codec(id));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The f32 codec is bit-identical through a full frame round trip,
    /// including NaN payloads, infinities and denormals — the property
    /// that makes multi-process training losses match in-process ones
    /// to the last bit.
    #[test]
    fn f32_frames_round_trip_bit_identical(
        seed in 0u64..u64::MAX,
        rows in 1usize..6,
        cols in 1usize..65,
    ) {
        let t = raw_bits_tensor(seed, rows, cols);
        let want: Vec<u32> = t.data().iter().map(|v| v.to_bits()).collect();
        let bytes = data_frame(t, CodecId::F32);
        let h = frame::decode_header(&bytes).unwrap();
        prop_assert!(frame::payload_intact(&h, &bytes));
        let back = frame::decode_payload(&h, &bytes).unwrap();
        let got: Vec<u32> = back.tensor.data().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!((back.mb, back.slice, back.g), (1, 2, 3));
    }

    /// The bf16 codec halves the payload and its per-element relative
    /// error stays within the documented bound for normal values.
    #[test]
    fn bf16_frames_halve_bytes_within_error_bound(
        seed in 0u64..u64::MAX,
        rows in 1usize..6,
        cols in 1usize..65,
    ) {
        let t = normal_tensor(seed, rows, cols);
        let want: Vec<f32> = t.data().to_vec();
        let f32_len = data_frame(t.clone(), CodecId::F32).len();
        let bytes = data_frame(t, CodecId::Bf16);
        // Payload = 8-byte tensor header + element bytes; bf16 halves
        // only the element bytes.
        prop_assert_eq!(
            bytes.len() - HEADER_BYTES,
            8 + (f32_len - HEADER_BYTES - 8) / 2,
            "bf16 payload is half the f32 element bytes"
        );
        let h = frame::decode_header(&bytes).unwrap();
        prop_assert!(frame::payload_intact(&h, &bytes));
        let back = frame::decode_payload(&h, &bytes).unwrap();
        for (&got, &want) in back.tensor.data().iter().zip(&want) {
            prop_assert!(
                (got - want).abs() <= want.abs() * BF16_MAX_REL_ERR,
                "bf16 error out of bound: {got} vs {want}"
            );
        }
    }

    /// Every lossy codec honours the error bound it advertises.
    #[test]
    fn lossy_codecs_respect_their_advertised_bound(
        seed in 0u64..u64::MAX,
        cols in 1usize..65,
        id in prop::sample::select(vec![CodecId::Bf16, CodecId::Lossy]),
    ) {
        let c = codec(id);
        let bound = c.max_rel_err();
        prop_assert!(bound > 0.0, "lossy codecs advertise a nonzero bound");
        let t = normal_tensor(seed, 2, cols);
        let want: Vec<f32> = t.data().to_vec();
        let mut enc = Vec::new();
        c.encode_into(&t, &mut enc);
        let (back, used) = c.decode(&enc).unwrap();
        prop_assert_eq!(used, enc.len());
        for (&got, &want) in back.data().iter().zip(&want) {
            prop_assert!((got - want).abs() <= want.abs() * bound);
        }
    }

    /// Truncating a frame anywhere — mid-header or mid-payload — is
    /// rejected structurally, never misdecoded, for every codec.
    #[test]
    fn truncated_frames_are_rejected(
        seed in 0u64..u64::MAX,
        cols in 1usize..33,
        cut_frac in 0.0f64..1.0,
        id in prop::sample::select(vec![CodecId::F32, CodecId::Bf16, CodecId::Lossy]),
    ) {
        let bytes = data_frame(normal_tensor(seed, 2, cols), id);
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(frame::decode_header(&bytes[..cut]).is_err());
    }

    /// Any single corrupted payload byte fails the checksum for every
    /// codec (a receiver rejects such a frame as `CommError::Corrupt`).
    #[test]
    fn corrupt_payload_bytes_are_detected(
        seed in 0u64..u64::MAX,
        cols in 1usize..33,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
        id in prop::sample::select(vec![CodecId::F32, CodecId::Bf16, CodecId::Lossy]),
    ) {
        let mut bytes = data_frame(normal_tensor(seed, 2, cols), id);
        let payload_len = bytes.len() - HEADER_BYTES;
        let pos = HEADER_BYTES + ((payload_len - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        let h = frame::decode_header(&bytes).unwrap();
        prop_assert!(!frame::payload_intact(&h, &bytes));
    }
}
