//! The load generator: exactly two connections to the gateway — one
//! `Producer`, one `Subscriber` — driven by two threads.
//!
//! * The **sender** writes frames on the producer socket. Open loop: every
//!   frame has a due time on a fixed tick and is timed from it, so a
//!   stalled system (or a late generator) shows up as latency. Closed
//!   loop: a frame is due the moment the unacked window lets it go. Burst:
//!   every frame of a burst is due at the burst's start.
//! * The **receiver** blocks in one [`Poller`] over both sockets and wakes
//!   only on readiness (never on a short `recv` timeout, which the kernel
//!   rounds up to a jiffy). It counts `FrameAck`s on the producer socket,
//!   timestamps verdicts on the subscriber socket, and checks each verdict
//!   against the interpreter oracle as it arrives.
//!
//! Per-thread CPU snapshots bracket the timed window: the first is taken
//! just before the first timed frame is due, the last once the final
//! verdict is in.

use crate::schedstat::Snapshot;
use crate::workload::{FramePool, Oracle, Pacing, Workload};
use reads_net::{encode_msg, fd_of, FrameDecoder, Interest, Msg, Poller, Ready, Role};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Untimed load before the timed window (threads, caches and queues
/// settle; these frames are still checked).
pub const WARMUP: Duration = Duration::from_millis(250);
/// How long to wait for outstanding verdicts after the last send.
const DRAIN: Duration = Duration::from_secs(5);
/// Closed-loop and burst frame-rate ceiling used only to reserve the per-frame
/// arrays up front: growing them by doubling mid-run would copy them while
/// both copies are resident and make peak RSS jump between runs.
const MAX_FPS: f64 = 100_000.0;
/// Marks a timestamp that never happened.
pub const MISSING: u64 = u64::MAX;

const PRODUCER: u64 = 0;
const SUBSCRIBER: u64 = 1;

/// Everything one live run observed. Frame `i` is `(tick i / chains,
/// chain i % chains)`; times are nanoseconds since the run's base instant.
#[derive(Debug)]
pub struct LiveRun {
    /// Frames before the timed window.
    pub warm_frames: usize,
    /// When each frame was due.
    pub due: Vec<u64>,
    /// When each frame's write returned.
    pub written: Vec<u64>,
    /// When each frame's `FrameAck` was read (traced runs only).
    pub ack: Vec<u64>,
    /// When each frame's verdict was read.
    pub verdict: Vec<u64>,
    /// Whether each frame's verdict matched the oracle bit for bit.
    pub good: Vec<bool>,
    /// Verdicts that differed from the oracle.
    pub mismatched: u64,
    /// Verdicts received twice, or for frames never sent.
    pub unexpected: u64,
    /// CPU snapshot at the start of the timed window.
    pub s0: Snapshot,
    /// CPU snapshot after the last verdict.
    pub s1: Snapshot,
    /// Base instant of every timestamp.
    pub base: Instant,
}

impl LiveRun {
    /// Frames sent in total (warm-up included).
    #[must_use]
    pub fn sent(&self) -> usize {
        self.due.len()
    }

    /// Nanoseconds from `base` to `at`.
    #[must_use]
    pub fn ns_at(&self, at: Instant) -> u64 {
        ns(self.base, at)
    }
}

fn ns(base: Instant, at: Instant) -> u64 {
    u64::try_from(at.saturating_duration_since(base).as_nanos()).unwrap_or(MISSING - 1)
}

/// State the two threads share.
struct Shared {
    sent: AtomicU64,
    acks: AtomicU64,
    verdicts: AtomicU64,
    done: AtomicBool,
    abort: AtomicBool,
    /// `true` while the sender waits for [`may_send`].
    waiting: Mutex<bool>,
    window_open: Condvar,
}

/// Whether a sender held back by `pacing` may write again.
fn may_send(pacing: Pacing, shared: &Shared) -> bool {
    let sent = shared.sent.load(Ordering::SeqCst);
    match pacing {
        Pacing::Open { .. } => true,
        // Refill to half the window in one go, as `reads_net::run_load`
        // does: ack-per-frame ping-pong would cost a context switch each.
        Pacing::Closed { window } => {
            sent - shared.acks.load(Ordering::SeqCst) <= (window / 2) as u64
        }
        Pacing::Burst { .. } => shared.verdicts.load(Ordering::SeqCst) >= sent,
    }
}

/// Blocks the sender until [`may_send`] holds. Returns `false` when the
/// run aborted or nothing moved for [`DRAIN`], so a lost frame ends the
/// run (and shows as missing) instead of hanging it.
fn wait_to_send(pacing: Pacing, shared: &Shared) -> bool {
    let deadline = Instant::now() + DRAIN;
    let mut waiting = shared.waiting.lock().expect("window lock");
    while !may_send(pacing, shared) {
        if shared.abort.load(Ordering::SeqCst) || Instant::now() >= deadline {
            *waiting = false;
            return false;
        }
        *waiting = true;
        waiting = shared
            .window_open
            .wait_timeout(waiting, Duration::from_millis(50))
            .expect("window lock")
            .0;
    }
    *waiting = false;
    true
}

/// Opens one connection and completes the `Hello` → `Welcome` handshake,
/// so the gateway has attached the session before any frame flows.
fn connect(addr: SocketAddr, role: Role) -> io::Result<(TcpStream, FrameDecoder)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(&encode_msg(&Msg::Hello { role }))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    loop {
        match decoder.next_msg() {
            Ok(Some(Msg::Welcome { .. })) => break,
            Ok(Some(_)) => continue,
            Ok(None) => {}
            Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        decoder.push(&buf[..n]);
    }
    stream.set_read_timeout(None)?;
    Ok((stream, decoder))
}

/// The seven `HubData` messages of one frame, as one burst.
#[must_use]
pub fn encode_frame(pool: &FramePool, tick: u32, chain: u32) -> Vec<u8> {
    let frame = pool.frame(tick, chain);
    let mut burst = Vec::with_capacity(8 * 192);
    for packet in frame.packets {
        burst.extend_from_slice(&encode_msg(&Msg::HubData { chain, packet }));
    }
    burst
}

/// Sleeps until `at` (no-op when already past).
pub fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

struct SenderOut {
    warm_frames: usize,
    due: Vec<u64>,
    written: Vec<u64>,
    s0: Option<Snapshot>,
}

fn send_loop(
    mut stream: TcpStream,
    wl: &Workload,
    pool: &FramePool,
    seconds: f64,
    capacity: usize,
    base: Instant,
    shared: &Shared,
) -> io::Result<SenderOut> {
    let chains = wl.chains as u32;
    let start = base + Duration::from_millis(5);
    let timed = Duration::from_secs_f64(seconds);
    let mut due = Vec::with_capacity(capacity);
    let mut written = Vec::with_capacity(capacity);
    let mut s0 = None;
    let mut warm_frames = 0;
    let mut send = |tick: u32, chain: u32, due_at: Instant| -> io::Result<()> {
        let burst = encode_frame(pool, tick, chain);
        // Counted before the write: the verdict can race back before
        // `write_all` returns, and the receiver rejects frames not yet sent.
        shared.sent.fetch_add(1, Ordering::SeqCst);
        stream.write_all(&burst)?;
        due.push(ns(base, due_at));
        written.push(ns(base, Instant::now()));
        Ok(())
    };
    match wl.pacing {
        Pacing::Open { period } => {
            let warm_ticks = WARMUP.as_nanos().div_ceil(period.as_nanos()) as u32;
            let timed_ticks = (timed.as_nanos() / period.as_nanos()).max(1) as u32;
            for tick in 0..warm_ticks + timed_ticks {
                let due_at = start + period * tick;
                if tick == warm_ticks {
                    warm_frames = (tick * chains) as usize;
                    s0 = Some(Snapshot::take());
                }
                sleep_until(due_at);
                for chain in 0..chains {
                    send(tick, chain, due_at)?;
                }
                if shared.abort.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
        Pacing::Closed { window } => {
            let warm_end = start + WARMUP;
            let end = warm_end + timed;
            sleep_until(start);
            let mut tick = 0u32;
            'run: loop {
                let now = Instant::now();
                if s0.is_none() && now >= warm_end {
                    warm_frames = (tick * chains) as usize;
                    s0 = Some(Snapshot::take());
                }
                if now >= end || shared.abort.load(Ordering::SeqCst) {
                    break;
                }
                for chain in 0..chains {
                    let sent = shared.sent.load(Ordering::SeqCst);
                    if sent - shared.acks.load(Ordering::SeqCst) >= window as u64
                        && !wait_to_send(wl.pacing, shared)
                    {
                        break 'run;
                    }
                    send(tick, chain, Instant::now())?;
                }
                tick += 1;
            }
        }
        Pacing::Burst { ticks } => {
            sleep_until(start);
            let mut tick = 0u32;
            let mut end = None;
            // Each burst starts on an idle system: every verdict of the
            // previous one is in.
            while wait_to_send(wl.pacing, shared) && !shared.abort.load(Ordering::SeqCst) {
                if end.is_none() && Instant::now() >= start + WARMUP {
                    warm_frames = (tick * chains) as usize;
                    s0 = Some(Snapshot::take());
                    end = Some(Instant::now() + timed);
                }
                let due_at = Instant::now();
                if end.is_some_and(|e| due_at >= e) {
                    break;
                }
                for _ in 0..ticks {
                    for chain in 0..chains {
                        send(tick, chain, due_at)?;
                    }
                    tick += 1;
                }
            }
        }
    }
    Ok(SenderOut {
        warm_frames,
        due,
        written,
        s0,
    })
}

struct ReceiverOut {
    ack: Vec<u64>,
    verdict: Vec<u64>,
    good: Vec<bool>,
    mismatched: u64,
    unexpected: u64,
    s1: Snapshot,
}

#[allow(clippy::too_many_arguments)]
fn receive_loop(
    mut producer: (TcpStream, FrameDecoder),
    mut subscriber: (TcpStream, FrameDecoder),
    pool: &FramePool,
    oracle: &Oracle,
    trace: bool,
    pacing: Pacing,
    capacity: usize,
    base: Instant,
    shared: &Shared,
) -> io::Result<ReceiverOut> {
    let chains = pool.chains();
    let mut poller = Poller::new()?;
    poller.register(fd_of(&producer.0), PRODUCER, Interest::READ)?;
    poller.register(fd_of(&subscriber.0), SUBSCRIBER, Interest::READ)?;
    let mut out = ReceiverOut {
        ack: Vec::with_capacity(if trace { capacity } else { 0 }),
        verdict: Vec::with_capacity(capacity),
        good: Vec::with_capacity(capacity),
        mismatched: 0,
        unexpected: 0,
        s1: Snapshot::take(),
    };
    let mut received = 0u64;
    let mut events: Vec<Ready> = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut done_at: Option<Instant> = None;
    loop {
        events.clear();
        poller.wait(&mut events, Some(Duration::from_millis(20)))?;
        // Acks before verdicts: a frame's ack is queued before its
        // verdict exists, so reading them in that order keeps spans
        // causal when both sockets turn ready together.
        events.sort_by_key(|e| e.token);
        for ev in &events {
            if !(ev.readable || ev.hangup) {
                continue;
            }
            let (stream, decoder) = if ev.token == PRODUCER {
                (&mut producer.0, &mut producer.1)
            } else {
                (&mut subscriber.0, &mut subscriber.1)
            };
            // Readiness guarantees this read does not block; a level-
            // triggered poller reports any remainder next round.
            let n = stream.read(&mut buf)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "gateway closed a connection mid-run",
                ));
            }
            let now = ns(base, Instant::now());
            decoder.push(&buf[..n]);
            while let Some(msg) = decoder
                .next_msg()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            {
                match msg {
                    Msg::FrameAck { chain, sequence } => {
                        shared.acks.fetch_add(1, Ordering::SeqCst);
                        if trace && (chain as usize) < chains {
                            let i = sequence as usize * chains + chain as usize;
                            if out.ack.len() <= i {
                                out.ack.resize(i + 1, MISSING);
                            }
                            out.ack[i] = now;
                        }
                    }
                    Msg::Verdict(v) => {
                        let i = v.verdict.sequence as usize * chains + v.chain as usize;
                        let sent = shared.sent.load(Ordering::SeqCst) as usize;
                        if v.chain as usize >= chains || i >= sent {
                            out.unexpected += 1;
                            continue;
                        }
                        if out.verdict.len() <= i {
                            out.verdict.resize(i + 1, MISSING);
                            out.good.resize(i + 1, false);
                        }
                        if out.verdict[i] != MISSING {
                            out.unexpected += 1;
                            continue;
                        }
                        out.verdict[i] = now;
                        out.good[i] = oracle.matches(pool, v.chain, &v.verdict);
                        if !out.good[i] {
                            out.mismatched += 1;
                        }
                        received += 1;
                        shared.verdicts.fetch_add(1, Ordering::SeqCst);
                    }
                    _ => out.unexpected += 1,
                }
            }
        }
        if !matches!(pacing, Pacing::Open { .. }) && may_send(pacing, shared) {
            let waiting = shared.waiting.lock().expect("window lock");
            if *waiting {
                shared.window_open.notify_one();
            }
        }
        if shared.done.load(Ordering::SeqCst) {
            let sent = shared.sent.load(Ordering::SeqCst);
            if received >= sent && shared.acks.load(Ordering::SeqCst) >= sent {
                break;
            }
            let since = *done_at.get_or_insert_with(Instant::now);
            if since.elapsed() > DRAIN {
                break;
            }
        }
    }
    out.s1 = Snapshot::take();
    Ok(out)
}

/// Drives `wl` against the gateway at `addr` for a warm-up plus `seconds`
/// of timed load, then waits for the outstanding verdicts.
///
/// # Errors
/// Connection, write and read failures, a decode error on either
/// socket, or the gateway closing a connection mid-run.
pub fn run(
    addr: SocketAddr,
    wl: &Workload,
    pool: &FramePool,
    oracle: &Oracle,
    seconds: f64,
    trace: bool,
) -> io::Result<LiveRun> {
    // Subscriber first: verdicts fan out only to attached sessions.
    let subscriber = connect(addr, Role::Subscriber)?;
    let producer = connect(addr, Role::Producer)?;
    let producer_w = producer.0.try_clone()?;
    let shared = Shared {
        sent: AtomicU64::new(0),
        acks: AtomicU64::new(0),
        verdicts: AtomicU64::new(0),
        done: AtomicBool::new(false),
        abort: AtomicBool::new(false),
        waiting: Mutex::new(false),
        window_open: Condvar::new(),
    };
    let run_s = WARMUP.as_secs_f64() + seconds;
    let capacity = match wl.pacing {
        Pacing::Open { period } => (run_s / period.as_secs_f64()).ceil() as usize * wl.chains,
        Pacing::Closed { .. } | Pacing::Burst { .. } => (run_s * MAX_FPS) as usize,
    };
    let base = Instant::now();
    let (sent, recv) = std::thread::scope(|s| {
        let shared = &shared;
        let receiver = std::thread::Builder::new()
            .name("servebench-recv".into())
            .spawn_scoped(s, move || {
                let r = receive_loop(
                    producer, subscriber, pool, oracle, trace, wl.pacing, capacity, base, shared,
                );
                if r.is_err() {
                    shared.abort.store(true, Ordering::SeqCst);
                }
                r
            })
            .expect("spawn receiver");
        let sent = send_loop(producer_w, wl, pool, seconds, capacity, base, shared);
        if sent.is_err() {
            shared.abort.store(true, Ordering::SeqCst);
        }
        shared.done.store(true, Ordering::SeqCst);
        (sent, receiver.join().expect("receiver thread"))
    });
    let sent = sent?;
    let mut recv = recv?;
    let n = sent.due.len();
    recv.verdict.resize(n, MISSING);
    recv.good.resize(n, false);
    if trace {
        recv.ack.resize(n, MISSING);
    }
    Ok(LiveRun {
        warm_frames: sent.warm_frames,
        due: sent.due,
        written: sent.written,
        ack: recv.ack,
        verdict: recv.verdict,
        good: recv.good,
        mismatched: recv.mismatched,
        unexpected: recv.unexpected,
        // Aborted before the timed window began: an empty window.
        s0: sent.s0.unwrap_or_else(|| recv.s1.clone()),
        s1: recv.s1,
        base,
    })
}
