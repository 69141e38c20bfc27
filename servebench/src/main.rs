//! `servebench` — the serving benchmark.
//!
//! Runs one named workload through the real loopback serving path
//! (`reads_net::HubGateway` → `reads_core::engine::ShardedEngine` →
//! `reads_hls4ml::compiled`), checks every verdict bit for bit against the
//! firmware interpreter, prints every metric by name with its unit, and
//! ends with one JSON line. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` is a separate traced run that reports the per-layer ones.
//!
//! ```sh
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload paper_cadence_mlp --seed 1 --seconds 10 --trace 0
//! ```
//!
//! README.md beside this crate explains the workloads and metrics.

mod layers;
mod load;
mod schedstat;
mod stats;
mod system;
mod trace;
mod workload;

use load::{LiveRun, MISSING};
use reads_net::GatewayReport;
use stats::Summary;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use system::{json_str, Fingerprint};
use trace::Trace;
use workload::{FramePool, Model, Oracle, Workload, DEADLINE};

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
const END_TO_END: [(&str, &str); 7] = [
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("deadline_miss_frac", "ratio"),
    ("delivered_fps", "frames/s"),
    ("cpu_us_per_frame", "us"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`.
const PER_LAYER: [(&str, &str); 32] = [
    ("client.late_p99_ms", "ms"),
    ("client.late_max_ms", "ms"),
    ("wire.encode_ns_per_frame", "ns"),
    ("wire.decode_ns_per_frame", "ns"),
    ("wire.bytes_per_frame", "bytes"),
    ("wire.decode_errors", "count"),
    ("assembler.offer_ns_per_frame", "ns"),
    ("assembler.sequence_gaps", "count"),
    ("gateway.ingest_p50_ms", "ms"),
    ("gateway.ingest_p99_ms", "ms"),
    ("gateway.egress_p50_ms", "ms"),
    ("gateway.egress_p99_ms", "ms"),
    ("gateway.hub_busy_frac", "ratio"),
    ("gateway.io_busy_frac", "ratio"),
    ("gateway.hub_runq_frac", "ratio"),
    ("gateway.hub_wakeups_per_frame", "1/frame"),
    ("gateway.drops", "count"),
    ("engine.latency_p50_ms", "ms"),
    ("engine.latency_p99_ms", "ms"),
    ("engine.mean_batch", "frames"),
    ("engine.max_batch", "frames"),
    ("engine.shard_busy_frac", "ratio"),
    ("engine.shard_runq_frac", "ratio"),
    ("engine.max_shard_share", "ratio"),
    ("engine.lost", "count"),
    ("blm.assemble_ns_per_frame", "ns"),
    ("blm.standardize_ns_per_frame", "ns"),
    ("compiled.ns_per_frame_b1", "ns"),
    ("compiled.ns_per_frame_bmean", "ns"),
    ("compiled.macs_per_frame", "MAC"),
    ("compiled.weight_bytes", "bytes"),
    ("compiled.gmac_per_s", "GMAC/s"),
];

/// Timed seconds per trial. A run of `--seconds s` is `round(s)`
/// independent trials, each on a freshly set-up system; every metric is
/// the median over trials, so one trial that lands in a slow regime (or a
/// host stall) does not set the run's figure, and `setup_s` is the median
/// of that many set-ups.
const TRIAL_SECONDS: f64 = 0.75;

const USAGE: &str = "usage: servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
workloads: saturate_mlp, burst_mlp, paper_cadence_mlp, unet_cadence";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    /// Untimed child process: train and cache one model's bundle.
    WarmCache(Model),
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--warm-cache" => {
                return match value.as_str() {
                    "mlp" => Ok(Command::WarmCache(Model::Mlp)),
                    "unet" => Ok(Command::WarmCache(Model::UNet)),
                    _ => Err(format!("--warm-cache takes mlp or unet, got {value:?}")),
                };
            }
            "--workload" => {
                workload = Some(
                    workload::find(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Err(msg) => {
            eprintln!("servebench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Command::WarmCache(model)) => {
            let t = Instant::now();
            let _ = system::bundle(model);
            println!("{model:?} {}", t.elapsed().as_secs_f64());
            ExitCode::SUCCESS
        }
        Ok(Command::Run(args)) => match run(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("servebench: {e}");
                ExitCode::from(1)
            }
        },
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Trains `model`'s Full-tier bundle in a child process when it is not
/// cached, so training never lands in a timed set-up or in this process's
/// peak RSS. Returns the child's wall time when it had to run.
fn warm_cache(model: Model) -> Result<Option<f64>, String> {
    if system::cached_bundle_path(model).exists() {
        return Ok(None);
    }
    let t = Instant::now();
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("--warm-cache")
        .arg(match model {
            Model::Mlp => "mlp",
            Model::UNet => "unet",
        })
        .output()
        .map_err(|e| format!("spawn warm-cache child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "warm-cache child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        println!("training: {line} s");
    }
    Ok(Some(t.elapsed().as_secs_f64()))
}

/// Median of the finite values (NaN when there are none).
fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    stats::percentile(&v, 0.5).unwrap_or(f64::NAN)
}

/// Collected metrics, printed in table order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64, table: &[(&'static str, &'static str)]) {
        let unit = table
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("metric is declared in its table");
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                // JSON has no NaN; a metric that could not be measured
                // is reported as null and makes the run fail.
                let v = if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".into()
                };
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json_str(n),
                    json_str(u)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }
}

fn summarize_ns(pairs: impl Iterator<Item = (u64, u64)>) -> Option<Summary> {
    let mut v: Vec<f64> = pairs
        .filter(|(a, b)| *a != MISSING && *b != MISSING)
        .map(|(a, b)| (b as f64 - a as f64) / 1e6)
        .collect();
    stats::summarize(&mut v)
}

fn describe(s: Option<&Summary>) -> String {
    s.map_or_else(
        || "too few samples".into(),
        |s| {
            format!(
                "p50 {:.3} p{:.2} {:.3} max {:.3} ms ({} samples, {} beyond)",
                s.p50,
                s.tail_q * 100.0,
                s.tail,
                s.max,
                s.n,
                s.beyond
            )
        },
    )
}

/// What the traced run derives from one trial's live run.
struct TrialLayers {
    late: Option<Summary>,
    ingest: Option<Summary>,
    egress: Option<Summary>,
    hub_busy: f64,
    io_busy: f64,
    hub_runq: f64,
    hub_wakeups: f64,
    mean_batch: f64,
    max_batch: f64,
    shard_busy: f64,
    shard_runq: f64,
    max_share: f64,
    lost: f64,
}

/// One trial: a fresh system, a warm-up, a timed window.
struct Trial {
    setup_s: f64,
    peak_rss_mb: f64,
    sent: usize,
    failed: usize,
    missing: usize,
    mismatched: u64,
    unexpected: u64,
    decode_errors: u64,
    sequence_gaps: u64,
    drops: u64,
    latency: Option<Summary>,
    miss_frac: f64,
    fps: f64,
    cpu_us: f64,
    layers: Option<TrialLayers>,
}

impl Trial {
    fn measure(
        index: u32,
        wl: &Workload,
        live: &LiveRun,
        report: &GatewayReport,
        setup_s: f64,
        trace: Option<&mut Trace>,
    ) -> Self {
        let sent = live.sent();
        let timed = live.warm_frames..sent;
        let latency = summarize_ns(timed.clone().map(|i| (live.due[i], live.verdict[i])));
        let deadline_ns = DEADLINE.as_nanos() as u64;
        let misses = timed
            .clone()
            .filter(|&i| live.verdict[i] == MISSING || live.verdict[i] - live.due[i] > deadline_ns)
            .count();
        let delivered: Vec<u64> = timed
            .clone()
            .map(|i| live.verdict[i])
            .filter(|v| *v != MISSING)
            .collect();
        let first_due = live.due.get(live.warm_frames).copied().unwrap_or(0);
        let span_s = delivered
            .iter()
            .max()
            .map_or(0, |last| last.saturating_sub(first_due)) as f64
            / 1e9;

        // CPU of the system's own threads over the window, per verdict
        // delivered inside it.
        let (w0, w1) = (live.ns_at(live.s0.at), live.ns_at(live.s1.at));
        let in_window = live
            .verdict
            .iter()
            .filter(|v| **v != MISSING && **v > w0 && **v <= w1)
            .count()
            .max(1) as f64;
        let (net, _) = live.s1.delta(&live.s0, "reads-net-");
        let (shards, n_shards) = live.s1.delta(&live.s0, "reads-shard-");

        let layers = trace.map(|trace| {
            let chains = wl.chains;
            for i in 0..sent {
                if live.verdict[i] != MISSING && live.ack[i] != MISSING {
                    trace.frame(
                        (index, (i % chains) as u32, (i / chains) as u32),
                        live.due[i],
                        live.written[i],
                        live.ack[i],
                        live.verdict[i],
                    );
                }
            }
            let (hub, _) = live.s1.delta(&live.s0, "reads-net-hub");
            let (io, _) = live.s1.delta(&live.s0, "reads-net-io");
            let wall = live.s1.wall_ns(&live.s0).max(1) as f64;
            let shard_wall = wall * n_shards.max(1) as f64;
            let fleet = &report.fleet;
            let processed = fleet.processed().max(1) as f64;
            let batches: u64 = fleet.shards.iter().map(|s| s.batches).sum();
            TrialLayers {
                late: summarize_ns(timed.clone().map(|i| (live.due[i], live.written[i]))),
                ingest: summarize_ns(timed.clone().map(|i| (live.written[i], live.ack[i]))),
                egress: summarize_ns(timed.clone().map(|i| (live.ack[i], live.verdict[i]))),
                hub_busy: hub.run_ns as f64 / wall,
                io_busy: io.run_ns as f64 / wall,
                hub_runq: hub.wait_ns as f64 / wall,
                hub_wakeups: hub.slices as f64 / in_window,
                mean_batch: processed / batches.max(1) as f64,
                max_batch: fleet.shards.iter().map(|s| s.max_batch).max().unwrap_or(0) as f64,
                shard_busy: shards.run_ns as f64 / shard_wall,
                shard_runq: shards.wait_ns as f64 / shard_wall,
                max_share: fleet.shards.iter().map(|s| s.processed).max().unwrap_or(0) as f64
                    / processed,
                lost: fleet
                    .shards
                    .iter()
                    .map(|s| s.lost + s.dropped_deadline + s.assembly_errors)
                    .sum::<u64>() as f64,
            }
        });

        Trial {
            setup_s,
            peak_rss_mb: schedstat::peak_rss_mib().unwrap_or(f64::NAN),
            sent,
            failed: live.good.iter().filter(|g| !**g).count(),
            missing: live.verdict.iter().filter(|v| **v == MISSING).count(),
            mismatched: live.mismatched,
            unexpected: live.unexpected,
            decode_errors: report.net.decode_errors,
            sequence_gaps: report.net.sequence_gaps,
            drops: report.net.backpressure_drops + report.net.slow_consumer_drops,
            latency,
            miss_frac: misses as f64 / timed.len().max(1) as f64,
            fps: delivered.len() as f64 / span_s,
            cpu_us: (net.run_ns + shards.run_ns) as f64 / 1e3 / in_window,
            layers,
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let wl = args.workload;
    let trials = ((args.seconds / TRIAL_SECONDS).round() as u32).max(1);
    let trial_seconds = args.seconds / f64::from(trials);
    println!(
        "servebench: workload {} seed {} seconds {} trace {} ({trials} trials of {trial_seconds} s)",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let training_s = warm_cache(wl.model)?;
    match training_s {
        Some(s) => println!("training_s {s:.3} (cold cache; untimed, not part of setup_s)"),
        None => println!("training_s 0 (trained-bundle cache warm)"),
    }

    let pool = FramePool::generate(wl, args.seed);
    let mut trace = Trace::default();
    let mut first: Option<(
        reads_hls4ml::Firmware,
        reads_blm::Standardizer,
        Oracle,
        Fingerprint,
    )> = None;
    let mut results: Vec<Trial> = Vec::new();
    for k in 0..trials {
        if !schedstat::reset_peak_rss() && k == 0 {
            println!("peak RSS cannot be reset here: peak_rss_mb is the whole process's");
        }
        let t = Instant::now();
        let system = system::set_up(wl.model);
        let setup_s = t.elapsed().as_secs_f64();
        let (firmware, _, oracle, _) = first.get_or_insert_with(|| {
            let fingerprint = Fingerprint::collect(&system.firmware);
            println!("fingerprint {}", fingerprint.to_json());
            let t = Instant::now();
            let oracle = Oracle::build(
                &pool,
                &system.firmware,
                &system.standardizer,
                system::logical_cores(),
            );
            println!(
                "oracle: {} distinct frames interpreted in {:.2} s",
                pool.len(),
                t.elapsed().as_secs_f64()
            );
            (
                system.firmware.clone(),
                system.standardizer.clone(),
                oracle,
                fingerprint,
            )
        });
        if system.firmware.content_digest() != firmware.content_digest() {
            let _ = system.gateway.shutdown();
            return Err("set-up produced a different firmware between trials".into());
        }
        let live = load::run(
            system.gateway.local_addr(),
            wl,
            &pool,
            oracle,
            trial_seconds,
            args.trace,
        );
        let report = system.gateway.shutdown();
        let live = live.map_err(|e| format!("trial {k}: {e}"))?;
        let trial = Trial::measure(
            k,
            wl,
            &live,
            &report,
            setup_s,
            args.trace.then_some(&mut trace),
        );
        println!(
            "trial {k}: setup {:.4} s; latency {}; miss {:.4}; {:.1} frames/s; \
             {:.2} us cpu/frame; peak RSS {:.1} MiB",
            trial.setup_s,
            describe(trial.latency.as_ref()),
            trial.miss_frac,
            trial.fps,
            trial.cpu_us,
            trial.peak_rss_mb
        );
        results.push(trial);
    }
    let (firmware, standardizer, _, fingerprint) = first.expect("at least one trial");

    // ---- correctness -------------------------------------------------
    let sum = |f: fn(&Trial) -> u64| results.iter().map(f).sum::<u64>();
    let sent = sum(|t| t.sent as u64);
    let failed = sum(|t| t.failed as u64);
    let drops = sum(|t| t.drops);
    let decode_errors = sum(|t| t.decode_errors);
    let (mismatched, unexpected) = (sum(|t| t.mismatched), sum(|t| t.unexpected));
    println!(
        "correctness: {sent} frames sent, {} verdicts bit-identical to the interpreter, \
         {} missing, {mismatched} mismatched, {unexpected} unexpected; failed_frac {}; \
         decode errors {decode_errors}, drops {drops}",
        sent - failed,
        sum(|t| t.missing as u64),
        failed as f64 / sent.max(1) as f64,
    );
    let mut correct = sent > 0
        && failed == 0
        && mismatched == 0
        && unexpected == 0
        && decode_errors == 0
        && drops == 0;

    // ---- end-to-end: medians over trials ------------------------------
    let over = |f: fn(&Trial) -> f64| median(results.iter().map(f));
    let mut e2e = Metrics::default();
    e2e.set(
        "latency_p50_ms",
        over(|t| t.latency.map_or(f64::NAN, |s| s.p50)),
        &END_TO_END,
    );
    e2e.set(
        "latency_p99_ms",
        over(|t| t.latency.map_or(f64::NAN, |s| s.tail)),
        &END_TO_END,
    );
    e2e.set("deadline_miss_frac", over(|t| t.miss_frac), &END_TO_END);
    e2e.set("delivered_fps", over(|t| t.fps), &END_TO_END);
    e2e.set("cpu_us_per_frame", over(|t| t.cpu_us), &END_TO_END);
    e2e.set("peak_rss_mb", over(|t| t.peak_rss_mb), &END_TO_END);
    e2e.set("setup_s", over(|t| t.setup_s), &END_TO_END);

    // ---- traced run: per-layer ---------------------------------------
    let mut layer = Metrics::default();
    if args.trace {
        correct &= per_layer(
            args,
            &results,
            &mut trace,
            &pool,
            &firmware,
            &standardizer,
            &fingerprint,
            e2e.0[0].1,
            &mut layer,
        )?;
    }

    let metrics = if args.trace { &layer } else { &e2e };
    correct &= metrics.all_finite();
    for (name, value, unit) in &metrics.0 {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    let _ = std::fs::create_dir_all(out_dir());
    let setups: Vec<f64> = results.iter().map(|t| t.setup_s).collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trials\": {trials}, \"trace\": {}, \
         \"correct\": {correct}, \"fingerprint\": {}, \"training_s\": {}, \
         \"setup_s_samples\": {setups:?}, \"frames_sent\": {sent}, \"failed\": {failed}, \
         \"metrics\": {}}}\n",
        json_str(wl.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fingerprint.to_json(),
        training_s.map_or("null".into(), |s| format!("{s}")),
        metrics.json(),
    );
    let kind = if args.trace { "traced" } else { "untraced" };
    let path = out_dir().join(format!("{}.{kind}.json", wl.name));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("servebench: could not write {}: {e}", path.display());
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {sent}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
    Ok(correct)
}

/// The raw value after `"key": ` in a record written by [`run`]: up to
/// the next `,` or `}`.
fn record_field<'a>(record: &'a str, key: &str) -> Option<&'a str> {
    let key = format!("{}: ", json_str(key));
    let rest = &record[record.find(&key)? + key.len()..];
    Some(rest[..rest.find([',', '}'])?].trim())
}

/// `latency_p50_ms` of the untraced record of this workload, if one was
/// made with the same seed by the same code (source digest).
fn untraced_p50(record: &str, seed: u64, fingerprint: &Fingerprint) -> Option<f64> {
    let same_seed = record_field(record, "seed")? == seed.to_string();
    let same_code = record_field(record, "source_digest")? == json_str(&fingerprint.source_digest);
    if !(same_seed && same_code) {
        return None;
    }
    record_field(record, "latency_p50_ms")?
        .strip_prefix("{\"value\": ")?
        .parse()
        .ok()
}

/// Fills the per-layer metrics of a traced run; returns whether every
/// traced frame reconciled.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    args: &Args,
    results: &[Trial],
    trace: &mut Trace,
    pool: &FramePool,
    firmware: &reads_hls4ml::Firmware,
    standardizer: &reads_blm::Standardizer,
    fingerprint: &Fingerprint,
    traced_p50: f64,
    m: &mut Metrics,
) -> Result<bool, String> {
    let wl = args.workload;
    let sent: usize = results.iter().map(|t| t.sent).sum();
    let rec = trace.reconcile();
    println!(
        "reconciliation: {}/{} frames have client.send + gateway.ingest + gateway.egress \
         == frame latency with no negative child ({} of {sent} sent frames traced); \
         {} not reconciled because their ack was read after their verdict",
        rec.reconciled, rec.frames, rec.frames, rec.out_of_order
    );
    // Every sent frame must be traced, and every traced frame must tile
    // its root. A frame whose ack came after its verdict is the gateway's
    // write order, not a harness fault: it is counted above, not failed.
    let reconciled = rec.frames == sent && rec.reconciled + rec.out_of_order == rec.frames;

    let layers: Vec<&TrialLayers> = results.iter().filter_map(|t| t.layers.as_ref()).collect();
    let over = |f: &dyn Fn(&TrialLayers) -> f64| median(layers.iter().map(|l| f(l)));
    let tail = |s: Option<Summary>, f: fn(&Summary) -> f64| s.as_ref().map_or(f64::NAN, f);
    for (k, l) in layers.iter().enumerate() {
        println!(
            "trial {k}: client.send (late) {}; gateway.ingest {}; gateway.egress {}",
            describe(l.late.as_ref()),
            describe(l.ingest.as_ref()),
            describe(l.egress.as_ref())
        );
    }

    println!("engine in-process run (no sockets, same frames and schedule)...");
    let mut engine = layers::engine_in_process(wl, pool, firmware, standardizer, args.seconds);
    let engine_lat = stats::summarize(&mut engine.latencies_ms);
    println!("engine (in-process): {}", describe(engine_lat.as_ref()));
    if engine.missing > 0 {
        println!(
            "engine in-process run: {} results never seen",
            engine.missing
        );
    }
    let mean_batch = over(&|l| l.mean_batch);
    let costs = layers::probe_layers(
        trace,
        Instant::now(),
        pool,
        firmware,
        standardizer,
        mean_batch,
    );

    // Counters are totals over the trials; everything else is a median.
    let total = |f: fn(&Trial) -> u64| results.iter().map(f).sum::<u64>() as f64;
    let gaps = total(|t| t.sequence_gaps);
    let errors = total(|t| t.decode_errors);
    let drops = total(|t| t.drops);
    m.set(
        "client.late_p99_ms",
        over(&|l| tail(l.late, |s| s.tail)),
        &PER_LAYER,
    );
    m.set(
        "client.late_max_ms",
        over(&|l| tail(l.late, |s| s.max)),
        &PER_LAYER,
    );
    m.set("wire.encode_ns_per_frame", costs.encode_ns, &PER_LAYER);
    m.set("wire.decode_ns_per_frame", costs.decode_ns, &PER_LAYER);
    m.set("wire.bytes_per_frame", costs.bytes_per_frame, &PER_LAYER);
    m.set("wire.decode_errors", errors, &PER_LAYER);
    m.set("assembler.offer_ns_per_frame", costs.offer_ns, &PER_LAYER);
    m.set("assembler.sequence_gaps", gaps, &PER_LAYER);
    m.set(
        "gateway.ingest_p50_ms",
        over(&|l| tail(l.ingest, |s| s.p50)),
        &PER_LAYER,
    );
    m.set(
        "gateway.ingest_p99_ms",
        over(&|l| tail(l.ingest, |s| s.tail)),
        &PER_LAYER,
    );
    m.set(
        "gateway.egress_p50_ms",
        over(&|l| tail(l.egress, |s| s.p50)),
        &PER_LAYER,
    );
    m.set(
        "gateway.egress_p99_ms",
        over(&|l| tail(l.egress, |s| s.tail)),
        &PER_LAYER,
    );
    m.set("gateway.hub_busy_frac", over(&|l| l.hub_busy), &PER_LAYER);
    m.set("gateway.io_busy_frac", over(&|l| l.io_busy), &PER_LAYER);
    m.set("gateway.hub_runq_frac", over(&|l| l.hub_runq), &PER_LAYER);
    m.set(
        "gateway.hub_wakeups_per_frame",
        over(&|l| l.hub_wakeups),
        &PER_LAYER,
    );
    m.set("gateway.drops", drops, &PER_LAYER);
    m.set(
        "engine.latency_p50_ms",
        tail(engine_lat, |s| s.p50),
        &PER_LAYER,
    );
    m.set(
        "engine.latency_p99_ms",
        tail(engine_lat, |s| s.tail),
        &PER_LAYER,
    );
    m.set("engine.mean_batch", mean_batch, &PER_LAYER);
    m.set("engine.max_batch", over(&|l| l.max_batch), &PER_LAYER);
    m.set(
        "engine.shard_busy_frac",
        over(&|l| l.shard_busy),
        &PER_LAYER,
    );
    m.set(
        "engine.shard_runq_frac",
        over(&|l| l.shard_runq),
        &PER_LAYER,
    );
    m.set("engine.max_shard_share", over(&|l| l.max_share), &PER_LAYER);
    m.set(
        "engine.lost",
        layers.iter().map(|l| l.lost).sum::<f64>(),
        &PER_LAYER,
    );
    m.set("blm.assemble_ns_per_frame", costs.assemble_ns, &PER_LAYER);
    m.set(
        "blm.standardize_ns_per_frame",
        costs.standardize_ns,
        &PER_LAYER,
    );
    m.set("compiled.ns_per_frame_b1", costs.compiled_b1_ns, &PER_LAYER);
    m.set(
        "compiled.ns_per_frame_bmean",
        costs.compiled_bmean_ns,
        &PER_LAYER,
    );
    m.set("compiled.macs_per_frame", costs.macs as f64, &PER_LAYER);
    m.set(
        "compiled.weight_bytes",
        costs.weight_bytes as f64,
        &PER_LAYER,
    );
    m.set(
        "compiled.gmac_per_s",
        costs.macs as f64 / costs.compiled_b1_ns,
        &PER_LAYER,
    );

    println!("self time per span (median per call, over every span of that name):");
    for (name, mut v) in trace.self_times() {
        v.sort_by(f64::total_cmp);
        let med = stats::percentile(&v, 0.5).unwrap_or(f64::NAN);
        println!("  {name:<18} {med:>14.1} ns  ({} spans)", v.len());
    }
    println!(
        "compiled.ns_per_frame_bmean measured at batch {} (live mean {mean_batch:.2}); \
         compiled.weight_bytes counts 8-byte i64 weight and bias quanta of every dense-like node",
        costs.bmean
    );
    let untraced = std::fs::read_to_string(out_dir().join(format!("{}.untraced.json", wl.name)))
        .ok()
        .and_then(|record| untraced_p50(&record, args.seed, fingerprint));
    match untraced {
        Some(p50) => println!(
            "tracing overhead: latency_p50_ms traced {traced_p50:.4} - untraced {p50:.4} = {:+.4} ms",
            traced_p50 - p50
        ),
        None => println!(
            "tracing overhead: no untraced record of {} with seed {} and this source digest \
             (run --trace 0 with the same seed first); traced latency_p50_ms {traced_p50:.4}",
            wl.name, args.seed
        ),
    }
    let spans_path = out_dir().join(format!("{}.spans.tsv", wl.name));
    let _ = std::fs::create_dir_all(out_dir());
    trace
        .write_tsv(&spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    println!(
        "spans: {} written to {}",
        trace.spans().len(),
        spans_path.display()
    );
    Ok(reconciled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Command, String> {
        parse_args(v.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let Ok(Command::Run(a)) = args(&[
            "--workload",
            "saturate_mlp",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]) else {
            panic!("should parse");
        };
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("saturate_mlp", 7, 10.0, true)
        );
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "unet_cadence",
            "--seed",
            "1",
            "--seconds",
            "1"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "unet_cadence",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(matches!(
            args(&["--warm-cache", "unet"]),
            Ok(Command::WarmCache(Model::UNet))
        ));
        assert!(args(&["--warm-cache"]).is_err());
        assert!(args(&["--warm-cache", "cnn"]).is_err());
    }

    #[test]
    fn tracing_overhead_uses_only_a_matching_untraced_record() {
        let fp = Fingerprint {
            cpu_model: "cpu".into(),
            logical_cores: 2,
            simd_level: "avx2".into(),
            rustc: "rustc".into(),
            git_rev: "unavailable".into(),
            source_digest: "abc".into(),
        };
        let record = |seed: u64, digest: &str| {
            format!(
                "{{\"workload\": \"saturate_mlp\", \"seed\": {seed}, \"fingerprint\": \
                 {{\"cpu_model\": \"cpu\", \"source_digest\": \"{digest}\"}}, \
                 \"metrics\": {{\"latency_p50_ms\": {{\"value\": 39.5, \"unit\": \"ms\"}}}}}}"
            )
        };
        assert_eq!(untraced_p50(&record(7, "abc"), 7, &fp), Some(39.5));
        assert_eq!(untraced_p50(&record(8, "abc"), 7, &fp), None);
        assert_eq!(untraced_p50(&record(7, "def"), 7, &fp), None);
        assert_eq!(untraced_p50("{}", 7, &fp), None);
    }

    #[test]
    fn benchmark_json_declares_every_metric_and_only_known_workloads() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&decl), "BENCHMARK.json lacks {decl}");
        }
        let start = text.find("\"workloads\"").expect("workloads key");
        let section = &text[start..start + text[start..].find(']').expect("workloads list")];
        let names: Vec<&str> = section
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("closing quote")])
            .collect();
        for name in names {
            assert!(workload::find(name).is_some(), "unknown workload {name}");
        }
    }
}
