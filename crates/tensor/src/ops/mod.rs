//! Tensor operations with explicit forward and backward functions.
//!
//! Each module pairs a forward with the backward(s) it needs. Matmul
//! deliberately exposes its input-gradient and weight-gradient halves as
//! separate functions — the decomposition MEPipe schedules independently.

pub mod activation;
pub mod attention;
pub mod embedding;
pub mod loss;
pub mod matmul;
pub mod naive;
pub mod norm;
mod vecops;

pub use activation::{silu, silu_backward};
pub use attention::{
    causal_attention, causal_attention_backward, causal_attention_backward_in, causal_attention_in,
    multi_head_attention_backward_in, multi_head_attention_in, AttentionSaved,
};
pub use embedding::{embedding, embedding_backward};
pub use loss::{cross_entropy, cross_entropy_in, CrossEntropyOut};
pub use matmul::{
    matmul, matmul_dgrad, matmul_dgrad_in, matmul_in, matmul_packed_in, matmul_wgrad,
    matmul_wgrad_acc_in, matmul_wgrad_in, PackedB,
};
pub use norm::{rmsnorm, rmsnorm_backward, rmsnorm_backward_in, rmsnorm_in, RmsNormSaved};
