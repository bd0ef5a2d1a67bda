//! A stage's link to its peers: the [`Endpoint`] plus the stash of
//! boundary tensors that arrived ahead of the op that consumes them.
//!
//! A stage receives in arrival order but consumes in schedule order, so
//! a tensor that arrives early waits in the stash under its
//! `(kind, micro_batch, slice, g)` tag. A link may outlive one
//! iteration: a multi-iteration job keeps one link (and one mesh) per
//! attempt, and a peer that finishes iteration `k` first may already
//! send its iteration-`k+1` tensors, which the stash carries into the
//! next iteration. That needs no iteration epoch on the wire. Each tag
//! has exactly one sender and per-peer delivery is FIFO, so a tag's
//! next-iteration tensor arrives after its current-iteration one:
//! either that one was already consumed, and the early tensor waits for
//! its iteration, or it is still stashed, and [`StageLink::stash`]
//! rejects the duplicate instead of overwriting it. Closing a link that
//! still holds tensors fails the same way, so a tensor is never dropped
//! or handed to the wrong iteration silently.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use mepipe_tensor::Tensor;

use crate::error::CommError;
use crate::msg::{MsgKind, StageMsg};
use crate::stats::CommStats;
use crate::Endpoint;

/// Tag of a stashed tensor: `(kind, micro_batch, slice, g)`.
type Tag = (MsgKind, u32, u32, u32);

/// One stage's endpoint plus its stash of early boundary tensors.
///
/// Open one per stage with [`StageLink::new`], run any number of
/// iterations over it, and end it with [`StageLink::close`]. Dropping a
/// link without closing it drops the endpoint dirty, which fails every
/// peer fast — the error path.
pub struct StageLink {
    ep: Box<dyn Endpoint>,
    stash: HashMap<Tag, Tensor>,
}

impl StageLink {
    /// Wraps a claimed endpoint with an empty stash.
    pub fn new(ep: Box<dyn Endpoint>) -> Self {
        Self {
            ep,
            stash: HashMap::new(),
        }
    }

    /// Sends `msg` to stage `to` over the endpoint.
    ///
    /// # Errors
    ///
    /// The endpoint's send errors ([`Endpoint::send`]).
    pub fn send(&mut self, to: usize, msg: StageMsg) -> Result<(), CommError> {
        self.ep.send(to, msg)
    }

    /// Takes the stashed tensor tagged `(kind, mb, slice, g)`, if it has
    /// arrived.
    pub fn take(&mut self, kind: MsgKind, mb: usize, slice: usize, g: usize) -> Option<Tensor> {
        self.stash
            .remove(&(kind, mb as u32, slice as u32, g as u32))
    }

    /// Stashes `msg` until its op takes it.
    ///
    /// # Errors
    ///
    /// [`CommError::Protocol`] if a tensor with the same tag is already
    /// stashed; the stashed one is kept.
    pub fn stash(&mut self, msg: StageMsg) -> Result<(), CommError> {
        let tag = (msg.kind, msg.mb, msg.slice, msg.g);
        match self.stash.entry(tag) {
            Entry::Occupied(_) => Err(CommError::Protocol(format!(
                "stage {} already holds {:?} mb {} slice {} g {}",
                self.ep.stage(),
                tag.0,
                tag.1,
                tag.2,
                tag.3
            ))),
            Entry::Vacant(slot) => {
                slot.insert(msg.tensor);
                Ok(())
            }
        }
    }

    /// Blocks until one message arrives and stashes it.
    ///
    /// # Errors
    ///
    /// The endpoint's receive errors ([`Endpoint::recv`]), or a
    /// duplicate tag ([`StageLink::stash`]).
    pub fn recv(&mut self) -> Result<(), CommError> {
        let msg = self.ep.recv()?;
        self.stash(msg)
    }

    /// Stashes one message if one is waiting; `Ok(false)` when none is.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StageLink::recv`].
    pub fn try_recv(&mut self) -> Result<bool, CommError> {
        match self.ep.try_recv()? {
            Some(msg) => self.stash(msg).map(|()| true),
            None => Ok(false),
        }
    }

    /// Snapshot of the endpoint's cumulative counters.
    pub fn stats(&self) -> CommStats {
        self.ep.stats()
    }

    /// Cleanly closes the endpoint ([`Endpoint::close`]).
    ///
    /// # Errors
    ///
    /// [`CommError::Protocol`] if the stash still holds tensors; the
    /// endpoint is then dropped without a clean close, so peers fail
    /// fast instead of finishing against a stage that lost data.
    pub fn close(mut self) -> Result<(), CommError> {
        if !self.stash.is_empty() {
            return Err(CommError::Protocol(format!(
                "stage {} closed its link holding {} unconsumed tensor(s)",
                self.ep.stage(),
                self.stash.len()
            )));
        }
        self.ep.close();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inproc::InProcTransport;
    use crate::Transport;

    fn msg(v: f32, mb: u32) -> StageMsg {
        StageMsg {
            kind: MsgKind::Fwd,
            mb,
            slice: 0,
            g: 1,
            tensor: Tensor::from_vec(1, 1, vec![v]),
        }
    }

    fn pair() -> (StageLink, StageLink) {
        let t = InProcTransport::new(2, 4);
        (
            StageLink::new(t.endpoint(0).unwrap()),
            StageLink::new(t.endpoint(1).unwrap()),
        )
    }

    #[test]
    fn early_tensors_wait_for_their_op() {
        let (mut a, mut b) = pair();
        a.send(1, msg(1.0, 0)).unwrap();
        a.send(1, msg(2.0, 1)).unwrap();
        b.recv().unwrap();
        assert!(b.try_recv().unwrap());
        assert!(!b.try_recv().unwrap());
        // Consumed in schedule order, not arrival order.
        assert_eq!(b.take(MsgKind::Fwd, 1, 0, 1).unwrap().data(), &[2.0]);
        assert_eq!(b.take(MsgKind::Fwd, 0, 0, 1).unwrap().data(), &[1.0]);
        assert!(b.take(MsgKind::Fwd, 0, 0, 1).is_none());
        a.close().unwrap();
        b.close().unwrap();
    }

    #[test]
    fn a_duplicate_tag_is_a_protocol_error_and_keeps_the_first() {
        let (a, mut b) = pair();
        b.stash(msg(1.0, 0)).unwrap();
        let err = b.stash(msg(9.0, 0)).unwrap_err();
        assert!(matches!(err, CommError::Protocol(_)), "{err}");
        assert_eq!(b.take(MsgKind::Fwd, 0, 0, 1).unwrap().data(), &[1.0]);
        a.close().unwrap();
        b.close().unwrap();
    }

    #[test]
    fn closing_a_link_that_holds_a_tensor_is_an_error() {
        let (a, mut b) = pair();
        b.stash(msg(1.0, 0)).unwrap();
        let err = b.close().unwrap_err();
        assert!(matches!(err, CommError::Protocol(_)), "{err}");
        a.close().unwrap();
    }
}
