//! Per-link observability counters.
//!
//! Every endpoint keeps one [`LinkStats`] per peer plus an endpoint-wide
//! receive-wait counter, rolled up into a [`CommStats`]. The runtime
//! surfaces these through `RunStats`, the bench writes them into
//! `BENCH_comm.json`, and `mepipe-sim`'s measured-vs-modeled report
//! validates the emulated wire time against the link cost model.

/// Counters for one directed link (this endpoint ↔ one peer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages sent to the peer.
    pub tx_messages: u64,
    /// Payload + header bytes sent (typed in-process messages count their
    /// would-be wire size so backends are comparable).
    pub tx_bytes: u64,
    /// Messages received from the peer.
    pub rx_messages: u64,
    /// Bytes received from the peer.
    pub rx_bytes: u64,
    /// Time spent serializing tensors for this link, nanoseconds.
    pub serialize_ns: u64,
    /// Time spent deserializing tensors from this link, nanoseconds.
    pub deserialize_ns: u64,
    /// Time sends stalled on flow-control credits or socket writes.
    pub send_stall_ns: u64,
    /// Time messages from this peer sat in the inbox before the stage
    /// dequeued them.
    pub queue_wait_ns: u64,
    /// Emulated wire occupancy: the bandwidth/latency holds alone, so
    /// the counter is directly comparable to the alpha–beta link model.
    pub wire_ns: u64,
    /// Sends the emulated link's seeded jitter delayed.
    pub injected_delays: u64,
    /// Frames rejected because their payload checksum failed.
    pub rejected_checksums: u64,
    /// Tensor payload bytes before the wire codec ran (raw f32 size).
    pub payload_bytes_precodec: u64,
    /// Tensor payload bytes after the wire codec ran (what actually hit
    /// the wire). Equal to `payload_bytes_precodec` under the f32 codec;
    /// roughly half under bf16.
    pub payload_bytes_postcodec: u64,
    /// Serialization time that overlapped an in-flight wire write
    /// (double-buffered sends encoding frame k+1 while frame k is on the
    /// wire), nanoseconds. A subset of `serialize_ns`.
    pub encode_overlap_ns: u64,
}

impl LinkStats {
    /// Element-wise sum.
    #[must_use]
    pub fn merged(&self, o: &LinkStats) -> LinkStats {
        self.zip(o, |a, b| a + b)
    }

    /// Element-wise difference from an earlier snapshot of the same link.
    #[must_use]
    pub fn since(&self, earlier: &LinkStats) -> LinkStats {
        self.zip(earlier, u64::saturating_sub)
    }

    fn zip(&self, o: &LinkStats, f: impl Fn(u64, u64) -> u64) -> LinkStats {
        LinkStats {
            tx_messages: f(self.tx_messages, o.tx_messages),
            tx_bytes: f(self.tx_bytes, o.tx_bytes),
            rx_messages: f(self.rx_messages, o.rx_messages),
            rx_bytes: f(self.rx_bytes, o.rx_bytes),
            serialize_ns: f(self.serialize_ns, o.serialize_ns),
            deserialize_ns: f(self.deserialize_ns, o.deserialize_ns),
            send_stall_ns: f(self.send_stall_ns, o.send_stall_ns),
            queue_wait_ns: f(self.queue_wait_ns, o.queue_wait_ns),
            wire_ns: f(self.wire_ns, o.wire_ns),
            injected_delays: f(self.injected_delays, o.injected_delays),
            rejected_checksums: f(self.rejected_checksums, o.rejected_checksums),
            payload_bytes_precodec: f(self.payload_bytes_precodec, o.payload_bytes_precodec),
            payload_bytes_postcodec: f(self.payload_bytes_postcodec, o.payload_bytes_postcodec),
            encode_overlap_ns: f(self.encode_overlap_ns, o.encode_overlap_ns),
        }
    }
}

/// All counters of one endpoint: per-peer links plus endpoint-wide waits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommStats {
    /// The stage this endpoint belongs to.
    pub stage: usize,
    /// Per-peer counters, indexed by peer stage (`links[stage]` unused).
    pub links: Vec<LinkStats>,
    /// Time the stage spent blocked in `recv`/`try_recv` waiting for any
    /// message, nanoseconds (not attributable to a single peer).
    pub recv_wait_ns: u64,
}

impl CommStats {
    /// Zeroed counters for a `stages`-wide endpoint on `stage`.
    pub fn new(stage: usize, stages: usize) -> Self {
        Self {
            stage,
            links: vec![LinkStats::default(); stages],
            recv_wait_ns: 0,
        }
    }

    /// All links folded into one aggregate.
    pub fn total(&self) -> LinkStats {
        self.links
            .iter()
            .fold(LinkStats::default(), |a, l| a.merged(l))
    }

    /// Element-wise sum with another endpoint's counters (layered
    /// backends merge their own counters over the inner backend's).
    #[must_use]
    pub fn merged(&self, o: &CommStats) -> CommStats {
        let n = self.links.len().max(o.links.len());
        let mut links = vec![LinkStats::default(); n];
        for (i, l) in links.iter_mut().enumerate() {
            if let Some(a) = self.links.get(i) {
                *l = l.merged(a);
            }
            if let Some(b) = o.links.get(i) {
                *l = l.merged(b);
            }
        }
        CommStats {
            stage: self.stage,
            links,
            recv_wait_ns: self.recv_wait_ns + o.recv_wait_ns,
        }
    }

    /// Element-wise difference from an earlier snapshot of the same
    /// endpoint: the traffic of one run over a link that outlives it.
    #[must_use]
    pub fn since(&self, earlier: &CommStats) -> CommStats {
        CommStats {
            stage: self.stage,
            links: self
                .links
                .iter()
                .zip(&earlier.links)
                .map(|(l, e)| l.since(e))
                .collect(),
            recv_wait_ns: self.recv_wait_ns.saturating_sub(earlier.recv_wait_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_element_wise() {
        let mut a = CommStats::new(0, 2);
        a.links[1].tx_messages = 3;
        a.recv_wait_ns = 10;
        let mut b = CommStats::new(0, 2);
        b.links[1].tx_messages = 4;
        b.links[1].injected_delays = 2;
        let m = a.merged(&b);
        assert_eq!(m.links[1].tx_messages, 7);
        assert_eq!(m.links[1].injected_delays, 2);
        assert_eq!(m.recv_wait_ns, 10);
        assert_eq!(m.total().tx_messages, 7);
        assert_eq!(m.since(&a), b);
    }
}
