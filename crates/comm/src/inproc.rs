//! The in-process backend: bounded, credit-flow-controlled queues
//! between stage threads.
//!
//! This preserves the original runtime's semantics — tensors move
//! between threads by value, no serialization, bit-identical results —
//! while replacing its unbounded channels with *bounded* per-link
//! credits: each sender may have at most `capacity` unconsumed
//! messages in a receiver's inbox and blocks (accumulating
//! `send_stall_ns`) until the receiver dequeues one.
//!
//! Shutdown is cooperative: a cleanly closed endpoint flips its inbox
//! shut (late senders get [`CommError::Closed`]); an endpoint dropped
//! *without* closing — a worker that hit an error — raises the shared
//! abort flag, which wakes and fails every blocked send/recv in the
//! transport. That cascade is what replaced the old
//! `expect("channel closed")` panics.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::codec::{codec, CodecId, WireCodec};
use crate::config::CommConfig;
use crate::error::CommError;
use crate::frame::HEADER_BYTES;
use crate::msg::StageMsg;
use crate::stats::CommStats;
use crate::{Endpoint, Transport};

/// Condvar re-check period while blocked (bounds reaction time to the
/// abort flag and peer closures).
const POLL: Duration = Duration::from_millis(50);

struct Slot {
    /// `(enqueued at, sending stage, message)` in arrival order.
    queue: VecDeque<(Instant, usize, StageMsg)>,
    /// Outstanding messages per sending stage (the used credits).
    credits_used: Vec<usize>,
    open: bool,
}

struct Inbox {
    slot: Mutex<Slot>,
    recv_cv: Condvar,
    send_cv: Condvar,
}

struct Shared {
    inboxes: Vec<Arc<Inbox>>,
    /// Raised by an endpoint dropped mid-run; fails every blocked wait.
    abort: AtomicBool,
    /// Per-stage clean-close flags (recv gives up when all peers closed).
    closed: Vec<AtomicBool>,
    capacity: usize,
}

impl Shared {
    fn all_peers_closed(&self, me: usize) -> bool {
        self.closed
            .iter()
            .enumerate()
            .all(|(s, c)| s == me || c.load(Ordering::Acquire))
    }
}

/// The in-process transport: one bounded inbox per stage.
pub struct InProcTransport {
    shared: Arc<Shared>,
    config: CommConfig,
    taken: Mutex<Vec<bool>>,
}

impl InProcTransport {
    /// Creates a transport for `stages` endpoints with `capacity` data
    /// credits per directed link (clamped to at least 1), default knobs.
    pub fn new(stages: usize, capacity: usize) -> Self {
        Self::with_config(stages, capacity, CommConfig::default())
    }

    /// Like [`InProcTransport::new`] with explicit tuning knobs: the
    /// codec (applied as an in-memory round trip so results match the
    /// serializing backends bit-for-bit under lossy codecs) and the send
    /// deadline.
    pub fn with_config(stages: usize, capacity: usize, config: CommConfig) -> Self {
        let inboxes = (0..stages)
            .map(|_| {
                Arc::new(Inbox {
                    slot: Mutex::new(Slot {
                        queue: VecDeque::new(),
                        credits_used: vec![0; stages],
                        open: true,
                    }),
                    recv_cv: Condvar::new(),
                    send_cv: Condvar::new(),
                })
            })
            .collect();
        Self {
            shared: Arc::new(Shared {
                inboxes,
                abort: AtomicBool::new(false),
                closed: (0..stages).map(|_| AtomicBool::new(false)).collect(),
                capacity: capacity.max(1),
            }),
            config,
            taken: Mutex::new(vec![false; stages]),
        }
    }

    /// Per-link data credit capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

impl Transport for InProcTransport {
    fn stages(&self) -> usize {
        self.shared.inboxes.len()
    }

    fn endpoint(&self, stage: usize) -> Result<Box<dyn Endpoint>, CommError> {
        let mut taken = self.taken.lock().expect("transport lock");
        if stage >= taken.len() {
            return Err(CommError::Protocol(format!(
                "stage {stage} out of range for {} stages",
                taken.len()
            )));
        }
        if std::mem::replace(&mut taken[stage], true) {
            return Err(CommError::Protocol(format!(
                "endpoint for stage {stage} already taken"
            )));
        }
        Ok(Box::new(InProcEndpoint {
            stage,
            shared: Arc::clone(&self.shared),
            codec: self.config.codec,
            send_deadline: self.config.send_deadline,
            scratch: Vec::new(),
            stats: CommStats::new(stage, self.shared.inboxes.len()),
            closed: false,
        }))
    }
}

/// One stage's handle onto the in-process transport.
pub struct InProcEndpoint {
    stage: usize,
    shared: Arc<Shared>,
    codec: CodecId,
    send_deadline: Duration,
    /// Reused encode buffer for the lossy-codec round trip.
    scratch: Vec<u8>,
    stats: CommStats,
    closed: bool,
}

impl InProcEndpoint {
    fn err_if_aborted(&self) -> Result<(), CommError> {
        if self.shared.abort.load(Ordering::Acquire) {
            Err(CommError::Closed { stage: self.stage })
        } else {
            Ok(())
        }
    }

    fn wire_codec(&self) -> &'static dyn WireCodec {
        codec(self.codec)
    }

    /// Approximate wire size of a typed message under this endpoint's
    /// codec, so in-process byte counters are comparable with the
    /// serializing backends.
    fn msg_wire_bytes(&self, msg: &StageMsg) -> u64 {
        (HEADER_BYTES + self.wire_codec().encoded_len(&msg.tensor)) as u64
    }

    /// Applies the codec's loss to `msg` in memory (encode + decode) so
    /// typed in-process delivery matches what a serializing backend
    /// would hand the receiver bit-for-bit. The f32 codec is lossless,
    /// so its round trip is skipped entirely.
    fn apply_codec(&mut self, msg: &mut StageMsg) -> Result<(), CommError> {
        if self.codec == CodecId::F32 {
            return Ok(());
        }
        let c = self.wire_codec();
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        c.encode_into(&msg.tensor, &mut scratch);
        let (tensor, _) = c.decode(&scratch)?;
        msg.tensor = tensor;
        self.scratch = scratch;
        Ok(())
    }

    /// Puts `msg` into stage `to`'s inbox, blocking while this stage has
    /// used up its credits there.
    fn enqueue(&mut self, to: usize, msg: StageMsg) -> Result<(), CommError> {
        self.err_if_aborted()?;
        let inbox = &self.shared.inboxes[to];
        let mut slot = inbox.slot.lock().expect("inbox lock");
        let start = Instant::now();
        while slot.open
            && slot.credits_used[self.stage] >= self.shared.capacity
            && !self.shared.abort.load(Ordering::Acquire)
        {
            if start.elapsed() > self.send_deadline {
                self.stats.links[to].send_stall_ns += start.elapsed().as_nanos() as u64;
                return Err(CommError::Backpressure { peer: to });
            }
            slot = inbox
                .send_cv
                .wait_timeout(slot, POLL)
                .expect("inbox lock")
                .0;
        }
        self.stats.links[to].send_stall_ns += start.elapsed().as_nanos() as u64;
        if self.shared.abort.load(Ordering::Acquire) || !slot.open {
            return Err(CommError::Closed { stage: self.stage });
        }
        slot.credits_used[self.stage] += 1;
        slot.queue.push_back((Instant::now(), self.stage, msg));
        inbox.recv_cv.notify_all();
        Ok(())
    }

    /// Takes the oldest message from this stage's inbox, returning its
    /// credit to the sender. Waits for one when `block` is set; otherwise
    /// returns `Ok(None)` on an empty inbox.
    fn dequeue(&mut self, block: bool) -> Result<Option<StageMsg>, CommError> {
        let inbox = Arc::clone(&self.shared.inboxes[self.stage]);
        let mut slot = inbox.slot.lock().expect("inbox lock");
        loop {
            if let Some((enqueued, from, msg)) = slot.queue.pop_front() {
                slot.credits_used[from] -= 1;
                inbox.send_cv.notify_all();
                drop(slot);
                let bytes = self.msg_wire_bytes(&msg);
                let link = &mut self.stats.links[from];
                link.queue_wait_ns += enqueued.elapsed().as_nanos() as u64;
                link.rx_messages += 1;
                link.rx_bytes += bytes;
                return Ok(Some(msg));
            }
            if self.shared.abort.load(Ordering::Acquire) {
                return Err(CommError::Closed { stage: self.stage });
            }
            if self.shared.all_peers_closed(self.stage) {
                return Err(CommError::Closed { stage: self.stage });
            }
            if !block {
                return Ok(None);
            }
            slot = inbox
                .recv_cv
                .wait_timeout(slot, POLL)
                .expect("inbox lock")
                .0;
        }
    }
}

impl Endpoint for InProcEndpoint {
    fn stage(&self) -> usize {
        self.stage
    }

    fn stages(&self) -> usize {
        self.shared.inboxes.len()
    }

    fn send(&mut self, to: usize, msg: StageMsg) -> Result<(), CommError> {
        let mut msg = msg;
        let precodec = msg.tensor.encoded_len() as u64;
        let t0 = Instant::now();
        self.apply_codec(&mut msg)?;
        let codec_ns = t0.elapsed().as_nanos() as u64;
        let bytes = self.msg_wire_bytes(&msg);
        self.enqueue(to, msg)?;
        let link = &mut self.stats.links[to];
        link.tx_messages += 1;
        link.tx_bytes += bytes;
        link.serialize_ns += codec_ns;
        link.payload_bytes_precodec += precodec;
        link.payload_bytes_postcodec += bytes - HEADER_BYTES as u64;
        Ok(())
    }

    fn recv(&mut self) -> Result<StageMsg, CommError> {
        let t0 = Instant::now();
        let msg = self
            .dequeue(true)?
            .expect("a blocking dequeue returns a message or an error");
        self.stats.recv_wait_ns += t0.elapsed().as_nanos() as u64;
        Ok(msg)
    }

    fn try_recv(&mut self) -> Result<Option<StageMsg>, CommError> {
        self.dequeue(false)
    }

    fn stats(&self) -> CommStats {
        self.stats.clone()
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.shared.closed[self.stage].store(true, Ordering::Release);
        let inbox = &self.shared.inboxes[self.stage];
        let mut slot = inbox.slot.lock().expect("inbox lock");
        slot.open = false;
        drop(slot);
        inbox.send_cv.notify_all();
        // Wake everyone blocked in recv so they re-check peer closures.
        for other in &self.shared.inboxes {
            other.recv_cv.notify_all();
        }
    }
}

impl Drop for InProcEndpoint {
    fn drop(&mut self) {
        if !self.closed {
            // Dropped without a clean close: a worker died mid-run. Fail
            // the whole transport so no peer blocks forever.
            self.shared.abort.store(true, Ordering::Release);
            for inbox in &self.shared.inboxes {
                inbox.recv_cv.notify_all();
                inbox.send_cv.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgKind;
    use mepipe_tensor::Tensor;

    fn msg(v: f32) -> StageMsg {
        StageMsg {
            kind: MsgKind::Fwd,
            mb: 0,
            slice: 0,
            g: 1,
            tensor: Tensor::from_vec(1, 1, vec![v]),
        }
    }

    #[test]
    fn round_trip_between_threads() {
        let t = InProcTransport::new(2, 4);
        let mut a = t.endpoint(0).unwrap();
        let mut b = t.endpoint(1).unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                a.send(1, msg(42.0)).unwrap();
                a.close();
            });
            let got = b.recv().unwrap();
            assert_eq!(got.tensor.data(), &[42.0]);
            assert_eq!(b.stats().links[0].rx_messages, 1);
            b.close();
        });
    }

    #[test]
    fn credits_block_and_release() {
        let t = InProcTransport::new(2, 1);
        let mut a = t.endpoint(0).unwrap();
        let mut b = t.endpoint(1).unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                // Second send must stall until the receiver dequeues.
                a.send(1, msg(1.0)).unwrap();
                a.send(1, msg(2.0)).unwrap();
                let stalled = a.stats().links[1].send_stall_ns;
                assert!(
                    stalled > 10_000_000,
                    "expected a visible stall, got {stalled}ns"
                );
                a.close();
            });
            std::thread::sleep(Duration::from_millis(60));
            assert_eq!(b.recv().unwrap().tensor.data(), &[1.0]);
            assert_eq!(b.recv().unwrap().tensor.data(), &[2.0]);
            b.close();
        });
    }

    #[test]
    fn dirty_drop_aborts_peers() {
        let t = InProcTransport::new(2, 2);
        let a = t.endpoint(0).unwrap();
        let mut b = t.endpoint(1).unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                drop(a); // no close(): simulated worker death
            });
            let err = b.recv().unwrap_err();
            assert!(matches!(err, CommError::Closed { .. }));
        });
    }

    #[test]
    fn clean_close_ends_idle_recv() {
        let t = InProcTransport::new(2, 2);
        let mut a = t.endpoint(0).unwrap();
        let mut b = t.endpoint(1).unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                a.close();
            });
            let err = b.recv().unwrap_err();
            assert!(matches!(err, CommError::Closed { .. }));
            b.close();
        });
    }

    #[test]
    fn endpoints_are_exclusive() {
        let t = InProcTransport::new(2, 2);
        let _a = t.endpoint(0).unwrap();
        assert!(t.endpoint(0).is_err());
        assert!(t.endpoint(5).is_err());
    }

    #[test]
    fn try_recv_is_non_blocking() {
        let t = InProcTransport::new(2, 2);
        let mut a = t.endpoint(0).unwrap();
        let mut b = t.endpoint(1).unwrap();
        assert!(b.try_recv().unwrap().is_none());
        a.send(1, msg(7.0)).unwrap();
        assert!(b.try_recv().unwrap().is_some());
        a.close();
        b.close();
    }
}
