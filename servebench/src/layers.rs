//! Per-layer probes for the traced run, all from outside the program:
//! isolated calls into each layer's public functions over the workload's
//! own frames, and the engine driven in-process (no sockets) on the same
//! schedule the live run used.

use crate::load::{sleep_until, WARMUP};
use crate::system::engine_config;
use crate::trace::{Span, Trace};
use crate::workload::{FramePool, Pacing, Workload};
use reads_blm::hubs::{assemble_frame, HubPacket};
use reads_blm::Standardizer;
use reads_core::engine::ShardedEngine;
use reads_core::resilience::NetCounters;
use reads_hls4ml::{CompiledFirmware, Firmware};
use reads_net::{encode_msg, FrameAssembler, FrameDecoder, Msg};
use reads_soc::HpsModel;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Passes per isolated probe: at least this many...
const MIN_PASSES: u32 = 5;
/// ...and more until this much time has been spent, up to `MAX_PASSES`.
const MIN_PROBE_TIME: Duration = Duration::from_millis(200);
const MAX_PASSES: u32 = 200;
/// Frames per pass of the cheap probes (wire, assembler, blm).
const PROBE_FRAMES: usize = 1024;
/// Frames per pass of the kernel probes.
const KERNEL_FRAMES: usize = 64;
/// Sleep between empty `poll_results` calls in the in-process engine run;
/// with timer slack this bounds the measurement granularity near 0.1 ms.
const ENGINE_POLL: Duration = Duration::from_micros(20);
/// The assembler window the gateway runs with (`GatewayConfig` default).
const ASSEMBLY_WINDOW: usize = 64;

/// Times `run` over per-pass inputs from `setup` (untimed), records one
/// span per pass, and returns the fastest pass in nanoseconds per call.
fn time_passes<S>(
    trace: &mut Trace,
    base: Instant,
    name: &'static str,
    calls: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S),
) -> f64 {
    let began = Instant::now();
    let mut best = f64::INFINITY;
    let mut pass = 0;
    while pass < MIN_PASSES || (began.elapsed() < MIN_PROBE_TIME && pass < MAX_PASSES) {
        let input = setup();
        let start = Instant::now();
        run(input);
        let end = Instant::now();
        trace.push(Span {
            name,
            id: (0, 0, pass),
            parent: None,
            start_ns: u64::try_from(start.duration_since(base).as_nanos()).unwrap_or(0),
            end_ns: u64::try_from(end.duration_since(base).as_nanos()).unwrap_or(0),
            calls: calls as u64,
        });
        best = best.min((end - start).as_nanos() as f64 / calls.max(1) as f64);
        pass += 1;
    }
    best
}

/// Isolated per-frame costs of the layers on the serving path.
#[derive(Debug, Clone, Copy)]
pub struct LayerCosts {
    /// `encode_msg` of a frame's seven `HubData` messages.
    pub encode_ns: f64,
    /// `FrameDecoder::push` + `next_msg` over those bytes.
    pub decode_ns: f64,
    /// Wire bytes per frame.
    pub bytes_per_frame: f64,
    /// `FrameAssembler::offer` of a frame's seven packets.
    pub offer_ns: f64,
    /// `assemble_frame`.
    pub assemble_ns: f64,
    /// `Standardizer::apply_frame`.
    pub standardize_ns: f64,
    /// `CompiledFirmware::infer_batch_into` at batch 1.
    pub compiled_b1_ns: f64,
    /// The same at the live run's mean batch.
    pub compiled_bmean_ns: f64,
    /// Batch size used for `compiled_bmean_ns`.
    pub bmean: usize,
    /// MACs per frame (`total_macs`).
    pub macs: u64,
    /// Weight and bias bytes the kernels read per pass over the model,
    /// computed from the dense-like node shapes as 8-byte `i64` quanta.
    pub weight_bytes: u64,
}

/// Probes every isolated layer over the pool's frames. `mean_batch` is
/// the live run's `processed / batches`.
#[must_use]
pub fn probe_layers(
    trace: &mut Trace,
    base: Instant,
    pool: &FramePool,
    firmware: &Firmware,
    standardizer: &Standardizer,
    mean_batch: f64,
) -> LayerCosts {
    let chains = pool.chains() as u32;
    let n = pool.len().min(PROBE_FRAMES);
    let frames: Vec<_> = (0..n as u32)
        .map(|i| pool.frame(i / chains, i % chains))
        .collect();

    let encode_ns = time_passes(
        trace,
        base,
        "wire.encode",
        n,
        || (),
        |()| {
            for f in &frames {
                for p in &f.packets {
                    black_box(encode_msg(&Msg::HubData {
                        chain: f.chain,
                        packet: p.clone(),
                    }));
                }
            }
        },
    );

    let bursts: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| crate::load::encode_frame(pool, f.sequence, f.chain))
        .collect();
    let bytes_per_frame = bursts.iter().map(Vec::len).sum::<usize>() as f64 / n as f64;
    let decode_ns = time_passes(
        trace,
        base,
        "wire.decode",
        n,
        FrameDecoder::new,
        |mut decoder| {
            for b in &bursts {
                decoder.push(b);
                while let Ok(Some(msg)) = decoder.next_msg() {
                    black_box(msg);
                }
            }
        },
    );

    let offer_ns = time_passes(
        trace,
        base,
        "assembler.offer",
        n,
        || {
            let packets: Vec<(u32, HubPacket)> = frames
                .iter()
                .flat_map(|f| f.packets.iter().map(|p| (f.chain, p.clone())))
                .collect();
            (FrameAssembler::new(ASSEMBLY_WINDOW), packets)
        },
        |(mut assembler, packets)| {
            let mut counters = NetCounters::default();
            for (chain, p) in packets {
                black_box(assembler.offer(chain, p, &mut counters));
            }
        },
    );

    let assemble_ns = time_passes(
        trace,
        base,
        "blm.assemble",
        n,
        || (),
        |()| {
            for f in &frames {
                black_box(assemble_frame(&f.packets).expect("pool frames are complete"));
            }
        },
    );

    let n_in = firmware.input_len * firmware.input_channels;
    let readings: Vec<Vec<f64>> = frames
        .iter()
        .map(|f| assemble_frame(&f.packets).expect("pool frames are complete"))
        .collect();
    let standardize_ns = time_passes(
        trace,
        base,
        "blm.standardize",
        n,
        || (),
        |()| {
            for r in &readings {
                black_box(standardizer.apply_frame(&r[..n_in.min(r.len())]));
            }
        },
    );

    let compiled = CompiledFirmware::lower(firmware);
    let mut scratch = compiled.scratch();
    let ol = compiled.output_len();
    let inputs: Vec<Vec<f64>> = readings
        .iter()
        .take(KERNEL_FRAMES)
        .map(|r| standardizer.apply_frame(&r[..n_in.min(r.len())]))
        .collect();
    let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
    let mut out = vec![0.0; refs.len() * ol];
    let compiled_b1_ns = time_passes(
        trace,
        base,
        "compiled.b1",
        refs.len(),
        || (),
        |()| {
            for x in &refs {
                black_box(compiled.infer_batch_into(
                    std::slice::from_ref(x),
                    &mut scratch,
                    &mut out[..ol],
                ));
            }
        },
    );
    let bmean = (mean_batch.round() as usize).clamp(1, engine_config().batch);
    let whole = refs.len() / bmean * bmean;
    let compiled_bmean_ns = time_passes(
        trace,
        base,
        "compiled.bmean",
        whole,
        || (),
        |()| {
            for chunk in refs[..whole].chunks_exact(bmean) {
                black_box(compiled.infer_batch_into(chunk, &mut scratch, &mut out[..bmean * ol]));
            }
        },
    );

    let weight_bytes = firmware
        .nodes
        .iter()
        .filter_map(reads_hls4ml::firmware::FwNode::dense)
        .map(|d| (d.weights.len() + d.bias.len()) as u64 * 8)
        .sum();
    LayerCosts {
        encode_ns,
        decode_ns,
        bytes_per_frame,
        offer_ns,
        assemble_ns,
        standardize_ns,
        compiled_b1_ns,
        compiled_bmean_ns,
        bmean,
        macs: compiled.total_macs(),
        weight_bytes,
    }
}

/// The engine alone: same frames, schedule and `EngineConfig` as the live
/// run, frames handed to `submit`, results picked up with `poll_results`.
#[derive(Debug)]
pub struct EngineRun {
    /// Submit-due → result-seen latency of each timed frame, in ms.
    pub latencies_ms: Vec<f64>,
    /// Timed frames whose result never appeared.
    pub missing: usize,
}

/// Marks every result the engine has finished as seen now; returns
/// whether there were any.
fn collect(
    engine: &ShardedEngine,
    chains: u32,
    due: &[u64],
    seen: &mut Vec<u64>,
    received: &mut usize,
    base: Instant,
) -> bool {
    let results = engine.poll_results();
    if results.is_empty() {
        return false;
    }
    let at = Instant::now().saturating_duration_since(base).as_nanos() as u64;
    seen.resize(due.len(), u64::MAX);
    for r in results {
        let i = r.sequence as usize * chains as usize + r.chain as usize;
        if i < seen.len() && seen[i] == u64::MAX {
            seen[i] = at;
            *received += 1;
        }
    }
    true
}

/// Runs the engine in-process for the warm-up plus `seconds`.
#[must_use]
pub fn engine_in_process(
    wl: &Workload,
    pool: &FramePool,
    firmware: &Firmware,
    standardizer: &Standardizer,
    seconds: f64,
) -> EngineRun {
    const DRAIN: Duration = Duration::from_secs(5);
    let mut engine = ShardedEngine::native(
        &engine_config(),
        firmware,
        &HpsModel::default(),
        standardizer,
    );
    let chains = wl.chains as u32;
    let base = Instant::now();
    let start = base + Duration::from_millis(5);
    let ns = |at: Instant| at.saturating_duration_since(base).as_nanos() as u64;
    let timed = Duration::from_secs_f64(seconds);
    let mut due: Vec<u64> = Vec::new();
    let mut seen: Vec<u64> = Vec::new();
    let mut received = 0usize;
    let mut warm_frames = None;
    let mut tick = 0u32;
    let mut finished_at: Option<Instant> = None;
    loop {
        let now = Instant::now();
        let mut busy = false;
        match wl.pacing {
            Pacing::Open { period } => {
                let warm_ticks = WARMUP.as_nanos().div_ceil(period.as_nanos()) as u32;
                let total = warm_ticks + (timed.as_nanos() / period.as_nanos()).max(1) as u32;
                while tick < total && start + period * tick <= now {
                    if tick == warm_ticks {
                        warm_frames = Some(due.len());
                    }
                    for chain in 0..chains {
                        engine.submit(pool.frame(tick, chain));
                        due.push(ns(start + period * tick));
                    }
                    tick += 1;
                    busy = true;
                }
                if tick == total {
                    finished_at.get_or_insert(now);
                }
            }
            Pacing::Closed { window } => {
                if now < start + WARMUP + timed {
                    if warm_frames.is_none() && now >= start + WARMUP {
                        warm_frames = Some(due.len());
                    }
                    while due.len() - received + chains as usize <= window {
                        for chain in 0..chains {
                            engine.submit(pool.frame(tick, chain));
                            due.push(ns(Instant::now()));
                        }
                        tick += 1;
                        busy = true;
                    }
                } else {
                    finished_at.get_or_insert(now);
                }
            }
            Pacing::Burst { ticks } => {
                if received < due.len() {
                    // The previous burst is still in flight.
                } else if now < start + WARMUP + timed {
                    if warm_frames.is_none() && now >= start + WARMUP {
                        warm_frames = Some(due.len());
                    }
                    let at = ns(now);
                    for _ in 0..ticks {
                        for chain in 0..chains {
                            engine.submit(pool.frame(tick, chain));
                            due.push(at);
                        }
                        tick += 1;
                        // `submit` blocks on a full queue; collect what is
                        // done meanwhile so it is not timestamped late.
                        collect(&engine, chains, &due, &mut seen, &mut received, base);
                    }
                    busy = true;
                } else {
                    finished_at.get_or_insert(now);
                }
            }
        }
        busy |= collect(&engine, chains, &due, &mut seen, &mut received, base);
        if let Some(t) = finished_at {
            if received >= due.len() || t.elapsed() > DRAIN {
                break;
            }
        }
        if !busy {
            let mut wake = Instant::now() + ENGINE_POLL;
            if let Pacing::Open { period } = wl.pacing {
                wake = wake.min(start + period * tick);
            }
            sleep_until(wake);
        }
    }
    let _ = engine.finish();
    seen.resize(due.len(), u64::MAX);
    let warm = warm_frames.unwrap_or(due.len());
    let mut latencies_ms = Vec::with_capacity(due.len() - warm);
    let mut missing = 0;
    for i in warm..due.len() {
        if seen[i] == u64::MAX {
            missing += 1;
        } else {
            latencies_ms.push(seen[i].saturating_sub(due[i]) as f64 / 1e6);
        }
    }
    EngineRun {
        latencies_ms,
        missing,
    }
}
