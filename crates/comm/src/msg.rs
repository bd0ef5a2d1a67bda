//! The message type moved between stage endpoints: [`StageMsg`], a
//! boundary tensor plus the `(direction, micro_batch, slice,
//! global_pos)` tag the runtime routes on. The in-process backend moves
//! it by value; the socket backend serializes it into a
//! [`crate::frame`].

use mepipe_tensor::Tensor;

/// Direction of a boundary tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// Forward activation, moving to the next global position.
    Fwd,
    /// Output gradient, moving to the previous global position.
    Bwd,
}

impl MsgKind {
    /// Wire tag byte.
    pub(crate) fn to_wire(self) -> u8 {
        match self {
            MsgKind::Fwd => 0,
            MsgKind::Bwd => 1,
        }
    }

    /// Inverse of [`MsgKind::to_wire`].
    pub(crate) fn from_wire(b: u8) -> Option<Self> {
        match b {
            0 => Some(MsgKind::Fwd),
            1 => Some(MsgKind::Bwd),
            _ => None,
        }
    }
}

/// One boundary tensor in flight between pipeline stages.
#[derive(Debug)]
pub struct StageMsg {
    /// Forward activation or backward gradient.
    pub kind: MsgKind,
    /// Micro-batch index.
    pub mb: u32,
    /// Sequence-slice index.
    pub slice: u32,
    /// Destination global chunk position along the forward chain.
    pub g: u32,
    /// The boundary tensor itself.
    pub tensor: Tensor,
}
