//! The socket backend: length-prefixed frames over Unix-domain sockets
//! or localhost TCP, one duplex stream per stage pair.
//!
//! This is the backend that lets each pipeline stage run as a separate
//! OS process (`mepipe-worker`): all state crossing a stage boundary is
//! explicit bytes. The mesh is rendezvoused deterministically — stage
//! `i` binds its listener first, then *connects* to every stage `j < i`
//! (with retry, since peers race to bind) and *accepts* from every
//! `j > i`; a one-byte hello identifies the connecting stage.
//!
//! The wire path is zero-copy in both directions and involves no relay
//! threads on the hot path:
//!
//! * **Sends** lend a recycled buffer from the endpoint's transmit
//!   pool, encode the frame in place, and put it on the wire with one
//!   vectored write (length prefix + frame, no concatenation copy).
//!   Frames up to `CommConfig::inline_max_bytes` are written
//!   synchronously on the sending thread while the writer is idle —
//!   the kernel socket buffer absorbs them and delivers asynchronously,
//!   so a thread handoff would only add a context switch. Larger
//!   frames go to a single writer thread through a bounded queue
//!   (depth `CommConfig::tx_depth`): encoding microbatch `k+1` then
//!   overlaps the wire time of microbatch `k`, and the overlapped
//!   portion is counted in `LinkStats::encode_overlap_ns`.
//! * **Receives** happen directly on the stage thread: `recv` performs
//!   timed reads over the peer streams, reassembling length-prefixed
//!   frames into pooled buffers (frames may straddle read boundaries)
//!   that go back to the endpoint's receive pool after decode.
//!   Decoding runs where the stage's `TensorArena` is installed, so
//!   receive tensors are pooled like every other tensor (see
//!   `mepipe_tensor::wire`). Compared to the previous per-peer reader
//!   threads this removes two scheduler hops per message — on a busy
//!   machine a frame otherwise waits in the kernel buffer for the
//!   reader thread, then in its inbox for the stage thread.
//!
//! Shutdown: a clean close puts a goodbye frame behind any in-flight
//! data, joins the writer, then closes the streams. A receiver hitting
//! EOF *without* having seen the goodbye reports the peer as dead,
//! which fails the local stage fast instead of leaving it blocked on a
//! message that will never arrive. A data frame whose payload fails its
//! checksum is rejected with [`CommError::Corrupt`]: a stream socket
//! does not corrupt bytes on its own, so there is nothing to retry.

use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::codec::{codec, CodecId};
use crate::config::CommConfig;
use crate::error::CommError;
use crate::frame::{self, FrameKind};
use crate::msg::StageMsg;
use crate::stats::CommStats;
use crate::{Endpoint, Transport};

/// Upper bound for one blocking read when a single peer is live (also
/// bounds the reaction time to closure checks).
const POLL: Duration = Duration::from_millis(50);

/// Nap bounds between non-blocking sweeps while multiplexing several
/// live peers on the stage thread. Without `poll(2)` (no libc) there is
/// no way to block on "any of these streams", so the thread sweeps all
/// peers non-blockingly and naps between empty sweeps, doubling from
/// `RX_NAP_MIN` to `RX_NAP_MAX` — short enough that a frame is noticed
/// promptly, long enough that an idle wait cedes the core to the peer
/// stages actually producing the data.
const RX_NAP_MIN: Duration = Duration::from_micros(20);
const RX_NAP_MAX: Duration = Duration::from_micros(250);

/// Empty multi-peer sweeps that merely yield the core before the sweep
/// loop starts napping (a yield is free when nothing else is runnable
/// and exactly right when a peer stage is).
const RX_YIELD_SWEEPS: usize = 4;

/// Speculative read size: one read may pull several small frames.
const READ_CHUNK: usize = 16 * 1024;

/// Where the mesh lives.
#[derive(Debug, Clone)]
pub enum SocketMode {
    /// Unix-domain sockets `<dir>/mepipe-stage-<i>.sock`.
    Uds(PathBuf),
    /// Localhost TCP, stage `i` listening on `127.0.0.1:(base + i)`.
    Tcp(u16),
}

/// The socket transport: stage processes (or threads) rendezvous into a
/// full mesh of framed streams.
#[derive(Debug, Clone)]
pub struct SocketTransport {
    mode: SocketMode,
    stages: usize,
    config: CommConfig,
}

impl SocketTransport {
    /// Creates a transport description with default knobs (no sockets
    /// opened yet; each [`SocketTransport::endpoint`] call performs its
    /// stage's side of the rendezvous).
    pub fn new(mode: SocketMode, stages: usize) -> Self {
        Self::with_config(mode, stages, CommConfig::default())
    }

    /// Like [`SocketTransport::new`] with explicit tuning knobs: wire
    /// codec, writer-queue depth, inline-write cutoff, receive-buffer
    /// pool size, and the rendezvous/send deadlines.
    pub fn with_config(mode: SocketMode, stages: usize, config: CommConfig) -> Self {
        Self {
            mode,
            stages,
            config,
        }
    }

    fn uds_path(dir: &std::path::Path, stage: usize) -> PathBuf {
        dir.join(format!("mepipe-stage-{stage}.sock"))
    }
}

/// One duplex byte stream of either flavour.
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_nonblocking(nb),
            Stream::Tcp(s) => s.set_nonblocking(nb),
        }
    }

    fn shutdown(&self) {
        match self {
            Stream::Unix(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
            Stream::Tcp(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write_vectored(bufs),
            Stream::Tcp(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Writer-thread state: the bounded frame queue plus the tx buffer pool.
struct TxState {
    q: VecDeque<(usize, Vec<u8>)>,
    /// Frames queued or currently on the writer's wire.
    in_flight: usize,
    err: Option<CommError>,
    shutdown: bool,
    pool: Vec<Vec<u8>>,
    pool_cap: usize,
}

struct TxShared {
    state: Mutex<TxState>,
    /// Writer waits here for work (or shutdown).
    cv_send: Condvar,
    /// Senders wait here for queue room (or error).
    cv_room: Condvar,
}

impl SocketTransport {
    /// Performs `stage`'s side of the mesh rendezvous.
    fn open(&self, stage: usize) -> Result<SocketEndpoint, CommError> {
        if stage >= self.stages {
            return Err(CommError::Protocol(format!(
                "stage {stage} out of range for {} stages",
                self.stages
            )));
        }
        let p = self.stages;
        // 1. Bind my listener before connecting anywhere, so peers can
        // reach me no matter the startup order.
        let (listener, uds_path) = match &self.mode {
            SocketMode::Uds(dir) => {
                let path = Self::uds_path(dir, stage);
                let _ = std::fs::remove_file(&path);
                std::fs::create_dir_all(dir)?;
                (Listener::Unix(UnixListener::bind(&path)?), Some(path))
            }
            SocketMode::Tcp(base) => (
                Listener::Tcp(TcpListener::bind((
                    "127.0.0.1",
                    base + u16::try_from(stage).expect("stage fits in u16"),
                ))?),
                None,
            ),
        };

        let mut streams: Vec<Option<Stream>> = (0..p).map(|_| None).collect();
        // 2. Connect to every lower stage, retrying until it has bound.
        // Backoff starts tiny: losing the startup race by a hair must
        // not cost milliseconds (endpoints are also rebuilt per
        // benchmark iteration, where a long retry sleep would dominate).
        for (peer, slot) in streams.iter_mut().enumerate().take(stage) {
            let deadline = Instant::now() + self.config.connect_timeout;
            let mut backoff = Duration::from_micros(100);
            let mut s = loop {
                let attempt = match &self.mode {
                    SocketMode::Uds(dir) => {
                        UnixStream::connect(Self::uds_path(dir, peer)).map(Stream::Unix)
                    }
                    SocketMode::Tcp(base) => TcpStream::connect((
                        "127.0.0.1",
                        base + u16::try_from(peer).expect("stage fits in u16"),
                    ))
                    .map(Stream::Tcp),
                };
                match attempt {
                    Ok(s) => break s,
                    Err(e) => {
                        if Instant::now() > deadline {
                            return Err(CommError::Io(format!(
                                "stage {stage} could not reach stage {peer}: {e}"
                            )));
                        }
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(Duration::from_millis(2));
                    }
                }
            };
            if let Stream::Tcp(t) = &s {
                let _ = t.set_nodelay(true);
            }
            s.write_all(&[u8::try_from(stage).expect("stage fits in u8")])?;
            *slot = Some(s);
        }
        // 3. Accept one connection from every higher stage.
        for _ in stage + 1..p {
            let mut s = listener.accept()?;
            if let Stream::Tcp(t) = &s {
                let _ = t.set_nodelay(true);
            }
            let mut hello = [0u8; 1];
            s.read_exact(&mut hello)?;
            let peer = hello[0] as usize;
            if peer <= stage || peer >= p || streams[peer].is_some() {
                return Err(CommError::Protocol(format!(
                    "unexpected hello from stage {peer}"
                )));
            }
            streams[peer] = Some(s);
        }

        // 4. Split each stream: the stage thread keeps the read half
        // (frames are reassembled in `recv` itself), the writer thread
        // shares the write half, and a shutdown handle lets close/drop
        // cut the stream even while a read or write is blocked on it.
        let mut writers: Vec<Option<Arc<Mutex<Stream>>>> = (0..p).map(|_| None).collect();
        let mut shut: Vec<Option<Stream>> = (0..p).map(|_| None).collect();
        let mut rx: Vec<Option<PeerRx>> = (0..p).map(|_| None).collect();
        for (peer, slot) in streams.into_iter().enumerate() {
            let Some(s) = slot else { continue };
            rx[peer] = Some(PeerRx::new(s.try_clone()?));
            shut[peer] = Some(s.try_clone()?);
            writers[peer] = Some(Arc::new(Mutex::new(s)));
        }
        let tx = Arc::new(TxShared {
            state: Mutex::new(TxState {
                q: VecDeque::new(),
                in_flight: 0,
                err: None,
                shutdown: false,
                pool: Vec::new(),
                pool_cap: self.config.rx_pool,
            }),
            cv_send: Condvar::new(),
            cv_room: Condvar::new(),
        });
        Ok(SocketEndpoint {
            stage,
            stages: p,
            codec: self.config.codec,
            tx_depth: self.config.tx_depth.max(1),
            inline_max: self.config.inline_max_bytes,
            send_deadline: self.config.send_deadline,
            tx,
            writers,
            writer: None,
            shut,
            rx,
            rx_cursor: 0,
            rx_pool: Vec::new(),
            rx_pool_cap: self.config.rx_pool,
            peer_closed: vec![false; p],
            next_seq: vec![0; p],
            stats: CommStats::new(stage, p),
            closed: false,
            uds_path,
        })
    }
}

impl Transport for SocketTransport {
    fn stages(&self) -> usize {
        self.stages
    }

    fn endpoint(&self, stage: usize) -> Result<Box<dyn Endpoint>, CommError> {
        Ok(Box::new(self.open(stage)?))
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Listener::Unix(l) => Stream::Unix(l.accept()?.0),
            Listener::Tcp(l) => Stream::Tcp(l.accept()?.0),
        })
    }
}

/// One vectored write for the length prefix plus the frame body, with a
/// manual continuation loop for partial writes. Replaces the old
/// concatenate-into-a-fresh-`Vec` path: no per-send allocation.
fn write_frame(w: &mut Stream, body: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(body.len())
        .expect("frame fits u32")
        .to_le_bytes();
    let mut prefix_done = 0usize;
    let mut body_done = 0usize;
    while prefix_done < len.len() || body_done < body.len() {
        let n = if prefix_done < len.len() {
            w.write_vectored(&[IoSlice::new(&len[prefix_done..]), IoSlice::new(body)])?
        } else {
            w.write(&body[body_done..])?
        };
        if n == 0 {
            return Err(std::io::ErrorKind::WriteZero.into());
        }
        let p = n.min(len.len() - prefix_done);
        prefix_done += p;
        body_done += n - p;
    }
    Ok(())
}

/// The endpoint's writer thread: drains the bounded frame queue in
/// order (frames above the inline cutoff, and everything queued behind
/// them) and recycles frame buffers afterwards.
fn write_loop(writers: &[Option<Arc<Mutex<Stream>>>], tx: &TxShared) {
    loop {
        let (to, buf, failed) = {
            let mut st = tx.state.lock().expect("tx lock");
            loop {
                if let Some((to, buf)) = st.q.pop_front() {
                    break (to, buf, st.err.is_some());
                }
                if st.shutdown || st.err.is_some() {
                    return;
                }
                st = tx.cv_send.wait(st).expect("tx lock");
            }
        };
        let res = if failed {
            // Sink the remaining queue after a wire error; senders see
            // the stored error, not a hang.
            Ok(())
        } else {
            match &writers[to] {
                Some(w) => write_frame(&mut w.lock().expect("stream lock"), &buf),
                None => Err(std::io::Error::new(
                    std::io::ErrorKind::NotConnected,
                    format!("no stream to stage {to}"),
                )),
            }
        };
        let mut st = tx.state.lock().expect("tx lock");
        st.in_flight -= 1;
        match res {
            Ok(()) => {
                if st.pool.len() < st.pool_cap {
                    let mut b = buf;
                    b.clear();
                    st.pool.push(b);
                }
            }
            Err(e) => {
                st.err = Some(CommError::Io(e.to_string()));
            }
        }
        drop(st);
        tx.cv_room.notify_all();
    }
}

/// What one pump of a peer stream produced.
enum Pump {
    /// A complete frame (pooled buffer, no length prefix).
    Frame(Vec<u8>),
    /// The read timed out before a complete frame arrived.
    Idle,
    /// EOF — classified against the goodbye by the caller.
    Eof,
}

/// The read half of one peer stream plus its reassembly buffer: frames
/// straddle read boundaries, so unconsumed bytes persist here between
/// `recv` calls.
struct PeerRx {
    stream: Stream,
    /// Raw inbound bytes not yet parsed into frames.
    acc: Vec<u8>,
    /// Parse cursor into `acc` (consumed prefix, compacted lazily).
    pos: usize,
    /// The read mode currently set on the socket (cached to avoid a
    /// setsockopt per read).
    mode: Option<RxMode>,
}

/// How the next read on a peer stream waits. A zero-budget probe must
/// be a *nonblocking* read, not a micro-timeout one: timed reads are
/// subject to kernel timer slack (~50µs by default), which would turn
/// every `try_recv` poll in the W-drain loop into a sleep.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RxMode {
    NonBlocking,
    Timed(Duration),
}

impl PeerRx {
    fn new(stream: Stream) -> Self {
        Self {
            stream,
            acc: Vec::new(),
            pos: 0,
            mode: None,
        }
    }

    fn set_mode(&mut self, mode: RxMode) -> std::io::Result<()> {
        if self.mode == Some(mode) {
            return Ok(());
        }
        match mode {
            RxMode::NonBlocking => self.stream.set_nonblocking(true)?,
            RxMode::Timed(t) => {
                if !matches!(self.mode, Some(RxMode::Timed(_))) {
                    self.stream.set_nonblocking(false)?;
                }
                self.stream.set_read_timeout(Some(t))?;
            }
        }
        self.mode = Some(mode);
        Ok(())
    }

    /// Extracts the next complete frame from `acc` into a pooled
    /// buffer, if one is fully buffered.
    fn buffered_frame(&mut self, pool: &mut Vec<Vec<u8>>) -> Option<Vec<u8>> {
        let avail = self.acc.len() - self.pos;
        if avail < 4 {
            return None;
        }
        let len = u32::from_le_bytes(
            self.acc[self.pos..self.pos + 4]
                .try_into()
                .expect("4 bytes"),
        ) as usize;
        if avail < 4 + len {
            return None;
        }
        let mut buf = pool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(&self.acc[self.pos + 4..self.pos + 4 + len]);
        self.pos += 4 + len;
        if self.pos == self.acc.len() {
            self.acc.clear();
            self.pos = 0;
        }
        Some(buf)
    }

    /// Pumps the stream until a complete frame is buffered, the wait
    /// budget runs out, or the peer goes away.
    fn pump(&mut self, mode: RxMode, pool: &mut Vec<Vec<u8>>) -> std::io::Result<Pump> {
        loop {
            if let Some(frame) = self.buffered_frame(pool) {
                return Ok(Pump::Frame(frame));
            }
            // Keep the parse cursor from pinning consumed bytes.
            if self.pos > 0 {
                self.acc.drain(..self.pos);
                self.pos = 0;
            }
            self.set_mode(mode)?;
            let old = self.acc.len();
            self.acc.resize(old + READ_CHUNK, 0);
            match self.stream.read(&mut self.acc[old..]) {
                Ok(0) => {
                    self.acc.truncate(old);
                    return Ok(Pump::Eof);
                }
                Ok(n) => {
                    self.acc.truncate(old + n);
                    // Loop: the read may have completed a frame.
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    self.acc.truncate(old);
                    return Ok(Pump::Idle);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                    self.acc.truncate(old);
                }
                Err(e) => {
                    self.acc.truncate(old);
                    return Err(e);
                }
            }
        }
    }
}

/// One stage's endpoint on the socket mesh.
pub struct SocketEndpoint {
    stage: usize,
    stages: usize,
    codec: CodecId,
    tx_depth: usize,
    inline_max: usize,
    send_deadline: Duration,
    tx: Arc<TxShared>,
    /// Write halves, shared with the writer thread. The stream mutex is
    /// uncontended on the inline path: the writer only locks a stream
    /// while draining its queue, and the inline path runs only when
    /// that queue is empty.
    writers: Vec<Option<Arc<Mutex<Stream>>>>,
    /// Async writer, spawned lazily by the first above-inline-size
    /// frame; `None` until then.
    writer: Option<std::thread::JoinHandle<()>>,
    /// Shutdown handles (stream clones) so close/drop can cut every
    /// stream even while a read or write is blocked on it.
    shut: Vec<Option<Stream>>,
    /// Read halves + reassembly state, polled by the stage thread.
    rx: Vec<Option<PeerRx>>,
    /// Round-robin start position over live peers.
    rx_cursor: usize,
    /// Recycled receive-frame buffers.
    rx_pool: Vec<Vec<u8>>,
    rx_pool_cap: usize,
    peer_closed: Vec<bool>,
    next_seq: Vec<u64>,
    stats: CommStats,
    closed: bool,
    uds_path: Option<PathBuf>,
}

impl SocketEndpoint {
    /// Puts an encoded frame on the wire: written synchronously right
    /// here when it is small and the async writer is idle (no handoff,
    /// no context switch — the kernel socket buffer already overlaps
    /// delivery with the caller), handed to the writer thread otherwise
    /// (blocking while the bounded queue is full; that wait is the
    /// backpressure the double buffer exerts and lands in
    /// `send_stall_ns`).
    fn dispatch_frame(&mut self, to: usize, buf: Vec<u8>) -> Result<(), CommError> {
        if self.writers[to].is_none() {
            return Err(CommError::Closed { stage: to });
        }
        let start = Instant::now();
        let mut st = self.tx.state.lock().expect("tx lock");
        while st.err.is_none() && !st.shutdown && st.in_flight >= self.tx_depth {
            if start.elapsed() > self.send_deadline {
                drop(st);
                self.stats.links[to].send_stall_ns += start.elapsed().as_nanos() as u64;
                return Err(CommError::Backpressure { peer: to });
            }
            st = self.tx.cv_room.wait_timeout(st, POLL).expect("tx lock").0;
        }
        if let Some(e) = &st.err {
            return Err(e.clone());
        }
        if st.shutdown {
            return Err(CommError::Closed { stage: self.stage });
        }
        if st.in_flight == 0 && buf.len() <= self.inline_max {
            // Inline fast path. The queue is empty and this thread is
            // the only enqueuer, so the writer stays parked and frame
            // order is preserved.
            drop(st);
            let w = Arc::clone(self.writers[to].as_ref().expect("connected stream"));
            let res = write_frame(&mut w.lock().expect("stream lock"), &buf);
            let mut st = self.tx.state.lock().expect("tx lock");
            if st.pool.len() < st.pool_cap {
                let mut b = buf;
                b.clear();
                st.pool.push(b);
            }
            if let Err(e) = res {
                let err = CommError::Io(e.to_string());
                st.err = Some(err.clone());
                return Err(err);
            }
            drop(st);
            self.stats.links[to].send_stall_ns += start.elapsed().as_nanos() as u64;
            return Ok(());
        }
        st.in_flight += 1;
        st.q.push_back((to, buf));
        drop(st);
        // The writer thread exists only once a frame actually needs it
        // (a workload of inline-sized frames never spawns one).
        if self.writer.is_none() {
            let tx2 = Arc::clone(&self.tx);
            let writers2 = self.writers.clone();
            self.writer = Some(
                std::thread::Builder::new()
                    .name(format!("mepipe-comm-tx-{}", self.stage))
                    .spawn(move || write_loop(&writers2, &tx2))
                    .expect("spawn writer thread"),
            );
        }
        self.tx.cv_send.notify_all();
        self.stats.links[to].send_stall_ns += start.elapsed().as_nanos() as u64;
        Ok(())
    }

    /// True while the writer has frames queued or on the wire — i.e.
    /// encoding now would overlap wire time.
    fn wire_busy(&self) -> bool {
        self.tx.state.lock().expect("tx lock").in_flight > 0
    }

    fn all_peers_closed(&self) -> bool {
        self.peer_closed
            .iter()
            .enumerate()
            .all(|(s, &c)| s == self.stage || c)
    }

    /// Lends a cleared transmit buffer: one the writer recycled after a
    /// previous send when the pool has one (so steady-state sends
    /// allocate nothing), a fresh one otherwise.
    fn lend_tx_buf(&self) -> Vec<u8> {
        self.tx
            .state
            .lock()
            .expect("tx lock")
            .pool
            .pop()
            .unwrap_or_default()
    }

    /// Returns a consumed receive buffer to the receive pool.
    fn recycle_rx_buf(&mut self, mut buf: Vec<u8>) {
        if self.rx_pool.len() < self.rx_pool_cap {
            buf.clear();
            self.rx_pool.push(buf);
        }
    }

    /// Handles a data frame on the stage thread: checksum + decode,
    /// then the frame buffer goes back to the receive pool.
    fn open_frame(
        &mut self,
        from: usize,
        h: &frame::Header,
        bytes: Vec<u8>,
    ) -> Result<StageMsg, CommError> {
        if !frame::payload_intact(h, &bytes) {
            self.stats.links[from].rejected_checksums += 1;
            return Err(CommError::Corrupt { peer: from });
        }
        let t0 = Instant::now();
        let msg = frame::decode_payload(h, &bytes)?;
        let n = bytes.len() as u64;
        self.recycle_rx_buf(bytes);
        let link = &mut self.stats.links[from];
        link.deserialize_ns += t0.elapsed().as_nanos() as u64;
        link.rx_messages += 1;
        link.rx_bytes += n;
        Ok(msg)
    }

    /// Reads the next data frame from any live peer, consuming goodbyes
    /// on the way. Waits for one when `block` is set; otherwise makes one
    /// nonblocking sweep (so kernel-buffered frames are seen, not just
    /// already-reassembled ones) and returns `Ok(None)` if it found none.
    fn next_frame(
        &mut self,
        block: bool,
    ) -> Result<Option<(usize, frame::Header, Vec<u8>)>, CommError> {
        let mut nap = RX_NAP_MIN;
        let mut sweeps = 0usize;
        loop {
            if self.all_peers_closed() {
                return Err(CommError::Closed { stage: self.stage });
            }
            let live = (0..self.stages)
                .filter(|&p| self.rx[p].is_some() && !self.peer_closed[p])
                .count();
            // With one live peer, blocking on its stream is exactly
            // right. With several there is nothing to block *on* (no
            // poll without libc): parking a timed read on peer A while
            // peer B's frame sits in the kernel buffer convoys the whole
            // pipeline, so sweep every peer non-blockingly and nap
            // between empty sweeps instead.
            let single = live == 1;
            let mode = if single && block {
                RxMode::Timed(POLL)
            } else {
                RxMode::NonBlocking
            };
            self.rx_cursor = self.rx_cursor.wrapping_add(1);
            'peers: for idx in 0..self.stages {
                let peer = (self.rx_cursor + idx) % self.stages;
                if self.rx[peer].is_none() || self.peer_closed[peer] {
                    continue 'peers;
                }
                let rx = self.rx[peer].as_mut().expect("live peer stream");
                let pumped = rx
                    .pump(mode, &mut self.rx_pool)
                    .map_err(|e| CommError::Io(e.to_string()))?;
                match pumped {
                    Pump::Frame(bytes) => {
                        let h = frame::decode_header(&bytes).inspect_err(|_| {
                            // A structurally broken stream has no
                            // recovery path: treat the peer as dead.
                            self.peer_closed[peer] = true;
                        })?;
                        match h.kind {
                            FrameKind::Bye => {
                                self.recycle_rx_buf(bytes);
                                self.peer_closed[peer] = true;
                                break; // live set changed: recompute
                            }
                            FrameKind::Data(_) => return Ok(Some((peer, h, bytes))),
                        }
                    }
                    Pump::Idle => {}
                    Pump::Eof => {
                        // EOF without a goodbye: the peer died dirty.
                        self.peer_closed[peer] = true;
                        return Err(CommError::Closed { stage: peer });
                    }
                }
            }
            if !block {
                return Ok(None);
            }
            if !single {
                // Empty sweep: cede the core (2-CPU boxes run several
                // stages per core). The first few empty sweeps only
                // yield — if a peer stage is runnable it gets the core
                // and its frame arrives by the next sweep — then fall
                // back to naps with doubling backoff, which survive the
                // kernel's ~50us timer slack without busy-spinning.
                sweeps += 1;
                if sweeps <= RX_YIELD_SWEEPS {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(nap);
                    nap = (nap * 2).min(RX_NAP_MAX);
                }
            }
        }
    }
}

impl Endpoint for SocketEndpoint {
    fn stage(&self) -> usize {
        self.stage
    }

    fn stages(&self) -> usize {
        self.stages
    }

    fn send(&mut self, to: usize, msg: StageMsg) -> Result<(), CommError> {
        let overlapped = self.wire_busy();
        let mut buf = self.lend_tx_buf();
        let c = codec(self.codec);
        let t0 = Instant::now();
        self.next_seq[to] += 1;
        frame::encode_data_into(&mut buf, self.stage, self.next_seq[to], &msg, c);
        let ser_ns = t0.elapsed().as_nanos() as u64;
        let n = buf.len() as u64;
        let precodec = msg.tensor.encoded_len() as u64;
        self.dispatch_frame(to, buf)?;
        let link = &mut self.stats.links[to];
        link.serialize_ns += ser_ns;
        if overlapped {
            link.encode_overlap_ns += ser_ns;
        }
        link.tx_messages += 1;
        link.tx_bytes += n;
        link.payload_bytes_precodec += precodec;
        link.payload_bytes_postcodec += n - frame::HEADER_BYTES as u64;
        Ok(())
    }

    fn recv(&mut self) -> Result<StageMsg, CommError> {
        let t0 = Instant::now();
        let (from, h, bytes) = self
            .next_frame(true)?
            .expect("a blocking read returns a frame or an error");
        self.stats.recv_wait_ns += t0.elapsed().as_nanos() as u64;
        self.open_frame(from, &h, bytes)
    }

    fn try_recv(&mut self) -> Result<Option<StageMsg>, CommError> {
        match self.next_frame(false)? {
            Some((from, h, bytes)) => self.open_frame(from, &h, bytes).map(Some),
            None => Ok(None),
        }
    }

    fn stats(&self) -> CommStats {
        self.stats.clone()
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        // Let the writer drain every data frame still in flight, then
        // take the tx machinery down before the goodbyes go out.
        {
            let start = Instant::now();
            let mut st = self.tx.state.lock().expect("tx lock");
            while st.err.is_none() && st.in_flight > 0 && start.elapsed() < self.send_deadline {
                st = self.tx.cv_room.wait_timeout(st, POLL).expect("tx lock").0;
            }
            st.shutdown = true;
        }
        self.tx.cv_send.notify_all();
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
        // Goodbyes go straight onto each stream, best-effort *per peer*:
        // routing them through the shared tx queue would let one
        // already-departed peer poison the queue's error state and
        // suppress the goodbyes to peers still listening. That matters
        // under bidirectional schedules, where the middle stages finish
        // and close first — the end stages outlive some of their peers
        // and must still say goodbye to each other.
        for to in 0..self.stages {
            if let Some(w) = &self.writers[to] {
                let mut buf = Vec::new();
                frame::encode_bye_into(&mut buf, self.stage);
                let _ = write_frame(&mut w.lock().expect("stream lock"), &buf);
            }
        }
        for s in self.shut.iter().flatten() {
            s.shutdown();
        }
        if let Some(p) = &self.uds_path {
            let _ = std::fs::remove_file(p);
        }
    }
}

impl Drop for SocketEndpoint {
    fn drop(&mut self) {
        if !self.closed {
            // Dirty death: cut the streams without a goodbye so peers
            // see a fault and fail fast. The shutdown unblocks the
            // writer (its writes fail), so the join cannot hang.
            {
                let mut st = self.tx.state.lock().expect("tx lock");
                st.shutdown = true;
            }
            self.tx.cv_send.notify_all();
            for s in self.shut.iter().flatten() {
                s.shutdown();
            }
            if let Some(w) = self.writer.take() {
                let _ = w.join();
            }
            if let Some(p) = &self.uds_path {
                let _ = std::fs::remove_file(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgKind;
    use mepipe_tensor::Tensor;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mepipe-comm-test-{}-{tag}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        dir
    }

    fn msg(v: f32, g: u32) -> StageMsg {
        StageMsg {
            kind: MsgKind::Fwd,
            mb: 0,
            slice: 0,
            g,
            tensor: Tensor::from_vec(1, 2, vec![v, -v]),
        }
    }

    #[test]
    fn uds_mesh_round_trips_in_threads() {
        let dir = tmp_dir("rt");
        let t = SocketTransport::new(SocketMode::Uds(dir.clone()), 3);
        std::thread::scope(|s| {
            let t0 = &t;
            s.spawn(move || {
                let mut e = t0.endpoint(0).unwrap();
                e.send(1, msg(1.5, 1)).unwrap();
                e.send(2, msg(2.5, 2)).unwrap();
                e.close();
            });
            s.spawn(move || {
                let mut e = t0.endpoint(1).unwrap();
                let m = e.recv().unwrap();
                assert_eq!(m.tensor.data(), &[1.5, -1.5]);
                e.send(2, msg(9.0, 2)).unwrap();
                e.close();
            });
            let mut e = t0.endpoint(2).unwrap();
            let mut seen = Vec::new();
            for _ in 0..2 {
                seen.push(e.recv().unwrap().tensor.data()[0]);
            }
            seen.sort_by(f32::total_cmp);
            assert_eq!(seen, vec![2.5, 9.0]);
            assert!(e.stats().total().rx_messages == 2);
            e.close();
        });
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn tcp_mode_round_trips() {
        let t = SocketTransport::new(SocketMode::Tcp(38731), 2);
        std::thread::scope(|s| {
            let t0 = &t;
            s.spawn(move || {
                let mut e = t0.endpoint(1).unwrap();
                let m = e.recv().unwrap();
                assert_eq!(m.tensor.data()[0], 3.0);
                e.close();
            });
            let mut e = t0.endpoint(0).unwrap();
            e.send(1, msg(3.0, 1)).unwrap();
            e.close();
        });
    }

    #[test]
    fn bf16_codec_halves_payload_bytes() {
        let dir = tmp_dir("bf16");
        let t = SocketTransport::with_config(
            SocketMode::Uds(dir.clone()),
            2,
            CommConfig::new().with_codec(CodecId::Bf16),
        );
        std::thread::scope(|s| {
            let t0 = &t;
            s.spawn(move || {
                let mut e = t0.endpoint(0).unwrap();
                let big = StageMsg {
                    kind: MsgKind::Fwd,
                    mb: 0,
                    slice: 0,
                    g: 1,
                    tensor: Tensor::from_vec(4, 64, (0..256).map(|i| i as f32 * 0.37).collect()),
                };
                e.send(1, big).unwrap();
                let link = e.stats().links[1];
                assert_eq!(link.payload_bytes_precodec, 8 + 4 * 256);
                assert_eq!(link.payload_bytes_postcodec, 8 + 2 * 256);
                e.close();
            });
            let mut e = t0.endpoint(1).unwrap();
            let m = e.recv().unwrap();
            assert_eq!(m.tensor.rows(), 4);
            for (i, &v) in m.tensor.data().iter().enumerate() {
                let want = i as f32 * 0.37;
                assert!((v - want).abs() <= want.abs() * mepipe_tensor::BF16_MAX_REL_ERR);
            }
            e.close();
        });
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn large_frames_take_the_async_writer() {
        // Frames above the inline cutoff must flow through the writer
        // thread; back-to-back sends then overlap encode with wire
        // time, which the stats witness.
        let dir = tmp_dir("async");
        let t = SocketTransport::with_config(
            SocketMode::Uds(dir.clone()),
            2,
            CommConfig::new().with_inline_max_bytes(0).with_tx_depth(4),
        );
        std::thread::scope(|s| {
            let t0 = &t;
            s.spawn(move || {
                let mut e = t0.endpoint(0).unwrap();
                for i in 0..16 {
                    e.send(1, msg(i as f32, 1)).unwrap();
                }
                e.close();
            });
            let mut e = t0.endpoint(1).unwrap();
            for i in 0..16 {
                assert_eq!(e.recv().unwrap().tensor.data()[0], i as f32);
            }
            e.close();
        });
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn recycled_buffers_circulate() {
        let dir = tmp_dir("pool");
        let t = SocketTransport::new(SocketMode::Uds(dir.clone()), 2);
        std::thread::scope(|s| {
            let t0 = &t;
            s.spawn(move || {
                let mut e = t0.open(0).unwrap();
                for i in 0..8 {
                    e.send(1, msg(i as f32, 1)).unwrap();
                }
                // Inline writes recycle synchronously, so the pool must
                // already hold a buffer with real capacity.
                assert!(
                    e.lend_tx_buf().capacity() > 0,
                    "tx pool never recycled a buffer"
                );
                e.close();
            });
            let mut e = t0.endpoint(1).unwrap();
            for _ in 0..8 {
                e.recv().unwrap();
            }
            // All frames arrived through the pooled rx path.
            assert_eq!(e.stats().total().rx_messages, 8);
            e.close();
        });
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_payload_is_rejected_as_a_typed_error() {
        // Stage 1's side of the mesh is a raw stream: connect to stage
        // 0's listener, say hello, then write one length-prefixed data
        // frame whose last payload byte is flipped after the checksum
        // was stamped.
        let dir = tmp_dir("corrupt");
        let t = SocketTransport::new(SocketMode::Uds(dir.clone()), 2);
        let path = SocketTransport::uds_path(&dir, 0);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut raw = loop {
                    match UnixStream::connect(&path) {
                        Ok(raw) => break raw,
                        Err(_) => std::thread::sleep(Duration::from_millis(1)),
                    }
                };
                raw.write_all(&[1]).unwrap();
                let mut bytes = Vec::new();
                frame::encode_data_into(&mut bytes, 1, 1, &msg(4.0, 0), codec(CodecId::F32));
                let last = bytes.len() - 1;
                bytes[last] ^= 0x01;
                raw.write_all(&(bytes.len() as u32).to_le_bytes()).unwrap();
                raw.write_all(&bytes).unwrap();
                // Hold the stream open until stage 0 has read the frame.
                let mut rest = Vec::new();
                let _ = raw.read_to_end(&mut rest);
            });
            let mut e = t.endpoint(0).unwrap();
            let err = e.recv().unwrap_err();
            assert_eq!(err, CommError::Corrupt { peer: 1 });
            assert_eq!(e.stats().links[1].rejected_checksums, 1);
            assert_eq!(e.stats().links[1].rx_messages, 0);
            e.close();
        });
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn dirty_peer_death_is_a_fault() {
        let dir = tmp_dir("fault");
        let t = SocketTransport::new(SocketMode::Uds(dir.clone()), 2);
        std::thread::scope(|s| {
            let t0 = &t;
            s.spawn(move || {
                let e = t0.endpoint(0).unwrap();
                std::thread::sleep(Duration::from_millis(30));
                drop(e); // no close, no goodbye
            });
            let mut e = t0.endpoint(1).unwrap();
            let err = e.recv().unwrap_err();
            assert!(matches!(err, CommError::Closed { .. }));
        });
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn clean_close_ends_idle_recv() {
        let dir = tmp_dir("clean");
        let t = SocketTransport::new(SocketMode::Uds(dir.clone()), 2);
        std::thread::scope(|s| {
            let t0 = &t;
            s.spawn(move || {
                let mut e = t0.endpoint(0).unwrap();
                e.close();
            });
            let mut e = t0.endpoint(1).unwrap();
            let err = e.recv().unwrap_err();
            assert!(matches!(err, CommError::Closed { .. }));
            e.close();
        });
        let _ = std::fs::remove_dir_all(dir);
    }
}
