//! Chaos conformance for the serving plane: session resume, frame
//! replay, and shard supervision under deterministic connection cuts.
//!
//! A supervised gateway (one shard born fully wedged, restarted by the
//! supervisor on its first batch) serves the digest-pinned golden
//! firmware behind a [`ChaosProxy`]. Resilient clients stream frames
//! through the proxy while the test severs every connection at fixed
//! points in the stream — at least four disconnect/reconnect cycles. The
//! delivered verdict stream must come out **bit-identical** to an
//! uninterrupted in-process run, every frame must be acked, no acked
//! frame may be lost, and replayed duplicates must be re-acked at most
//! once per connection.

use reads::blm::acnet::DeblendVerdict;
use reads::blm::dataset::Standardizer;
use reads::blm::hubs::{assemble_frame, ChainFrame, MultiChainSource};
use reads::central::engine::{DropPolicy, EngineConfig, ShardedEngine, SocExecutor};
use reads::central::resilience::{HealthState, SupervisorPolicy, WatchdogPolicy};
use reads::hls4ml::{convert, profile_model, Firmware, HlsConfig};
use reads::net::chaos::{ChaosConfig, ChaosProxy};
use reads::net::resilient::{ResilienceConfig, ResilientClient};
use reads::net::wire::{Msg, Role};
use reads::net::{GatewayClient, GatewayConfig, HubGateway, SlowConsumerPolicy};
use reads::nn::models;
use reads::soc::HpsModel;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn synth_frame(len: usize, frame: usize) -> Vec<f64> {
    (0..len)
        .map(|j| {
            let phase = (j as f64).mul_add(0.173, frame as f64 * 1.37);
            2.5 * phase.sin() + 0.25 * ((j % 17) as f64 - 8.0) / 8.0
        })
        .collect()
}

fn build_firmware() -> Firmware {
    let m = models::reads_mlp(3);
    let (input_len, _) = m.input_shape();
    let calib: Vec<Vec<f64>> = (0..6).map(|f| synth_frame(input_len, f + 100)).collect();
    let profile = profile_model(&m, &calib);
    convert(&m, &profile, &HlsConfig::paper_default())
}

fn standardizer() -> Standardizer {
    Standardizer {
        mean: 112_000.0,
        std: 3_500.0,
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// In-process golden run of `frames` — the bit-exact reference.
fn golden(
    fw: &Firmware,
    std: &Standardizer,
    frames: &[ChainFrame],
) -> BTreeMap<(u32, u32), Vec<f64>> {
    let n_in = fw.input_len * fw.input_channels;
    let mut expect = BTreeMap::new();
    for cf in frames {
        let readings = assemble_frame(&cf.packets).expect("synthetic frame assembles");
        let (out, _) = fw.infer(&std.apply_frame(&readings[..n_in]));
        let verdict = if out.len() == 2 * reads::blm::N_BLM {
            DeblendVerdict::from_interleaved(cf.sequence, &out)
        } else {
            DeblendVerdict::from_split_halves(cf.sequence, &out)
        };
        let mut flat = verdict.mi.clone();
        flat.extend_from_slice(&verdict.rr);
        expect.insert((cf.chain, cf.sequence), flat);
    }
    expect
}

/// Drains whatever the producer has queued, folding acks into
/// `ack_counts`. Transport faults reconnect inside the client.
fn pump_producer(
    producer: &mut ResilientClient,
    ack_counts: &mut BTreeMap<(u32, u32), u32>,
    budget: Duration,
) {
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline {
        match producer.recv(Duration::from_millis(25)) {
            Ok(Some(Msg::FrameAck { chain, sequence })) => {
                *ack_counts.entry((chain, sequence)).or_insert(0) += 1;
            }
            Ok(Some(_)) => {}
            Ok(None) => {
                if producer.unacked_len() == 0 {
                    return;
                }
            }
            Err(e) => panic!("producer pump failed: {e}"),
        }
    }
}

/// Collects verdicts from the subscriber into `got`.
fn pump_subscriber(
    subscriber: &mut ResilientClient,
    got: &mut BTreeMap<(u32, u32), Vec<f64>>,
    want: usize,
    budget: Duration,
) {
    let deadline = Instant::now() + budget;
    while got.len() < want && Instant::now() < deadline {
        match subscriber.recv(Duration::from_millis(25)) {
            Ok(Some(Msg::Verdict(v))) => {
                let mut flat = Vec::with_capacity(v.verdict.mi.len() + v.verdict.rr.len());
                flat.extend_from_slice(&v.verdict.mi);
                flat.extend_from_slice(&v.verdict.rr);
                got.insert((v.chain, v.verdict.sequence), flat);
            }
            Ok(_) => {}
            Err(e) => panic!("subscriber pump failed: {e}"),
        }
    }
}

#[test]
fn resumed_sessions_survive_forced_cuts_bit_identically() {
    let fw = build_firmware();
    let std = standardizer();
    let hps = HpsModel::default();
    let chains = 4usize;
    let ticks = 10usize;
    let frames = MultiChainSource::new(chains, 3).ticks(ticks);
    let total = frames.len();
    let expect = golden(&fw, &std, &frames);

    // Supervised engine: shard 1's first incarnation is born with every
    // replica wedged, so its first batch forces a supervised restart and
    // the requeued frames are re-served by the clean respawn.
    let fw_engine = fw.clone();
    let mut first_build_of_shard_1 = true;
    let engine = ShardedEngine::start(
        &EngineConfig {
            workers: 2,
            drop_policy: DropPolicy::Block,
            ..EngineConfig::default()
        },
        &std,
        move |shard| {
            let mut exec = SocExecutor::new(
                fw_engine.clone(),
                &hps,
                2,
                WatchdogPolicy::default(),
                11 ^ shard as u64,
            );
            if shard == 1 && first_build_of_shard_1 {
                first_build_of_shard_1 = false;
                exec.array_mut().mark_wedged(0);
                exec.array_mut().mark_wedged(1);
            }
            Box::new(exec)
        },
        Some(SupervisorPolicy {
            max_restarts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
        }),
    );
    let gw_cfg = GatewayConfig {
        outbound_queue: 8192,
        slow_consumer: SlowConsumerPolicy::DropNewest,
        ..GatewayConfig::default()
    };
    let handle = HubGateway::start("127.0.0.1:0", gw_cfg, engine).expect("bind gateway");

    // All traffic rides through the chaos proxy; random rates stay zero
    // so every cut is a deterministic `cut_now` at a fixed stream point.
    let proxy =
        ChaosProxy::start(handle.local_addr(), ChaosConfig::default()).expect("bind chaos proxy");
    let addr = proxy.local_addr();

    let client_cfg = |seed: u64| ResilienceConfig {
        max_reconnect_attempts: 20,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(100),
        seed,
        ..ResilienceConfig::default()
    };
    let mut subscriber = ResilientClient::connect(addr, Role::Subscriber, client_cfg(202))
        .expect("subscriber connects");
    while handle.sessions() < 1 {
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(25));
    let mut producer =
        ResilientClient::connect(addr, Role::Producer, client_cfg(101)).expect("producer connects");

    let mut ack_counts: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    let mut got: BTreeMap<(u32, u32), Vec<f64>> = BTreeMap::new();

    // Five phases of two ticks each; a forced cut of every connection
    // after each of the first four phases = four disconnect/reconnect
    // cycles at deterministic stream positions.
    for (phase, tick_pair) in frames.chunks(2 * chains).enumerate() {
        for frame in tick_pair {
            producer.send_frame(frame).expect("send survives chaos");
        }
        pump_producer(&mut producer, &mut ack_counts, Duration::from_millis(400));
        pump_subscriber(&mut subscriber, &mut got, total, Duration::from_millis(150));
        if phase < 4 {
            proxy.cut_now();
            std::thread::sleep(Duration::from_millis(30));
        }
    }

    // Final drain: keep pumping (and nudging unacked replays) until every
    // verdict arrived and every frame acked.
    let deadline = Instant::now() + Duration::from_secs(30);
    while (got.len() < total || producer.unacked_len() > 0) && Instant::now() < deadline {
        pump_producer(&mut producer, &mut ack_counts, Duration::from_millis(200));
        if producer.unacked_len() > 0 {
            let _ = producer.replay_unacked().expect("replay nudge");
        }
        pump_subscriber(&mut subscriber, &mut got, total, Duration::from_millis(300));
    }

    let producer_stats = producer.stats();
    let subscriber_stats = subscriber.stats();
    let producer_unacked = producer.unacked_len();
    drop(producer);
    drop(subscriber);
    let chaos = proxy.shutdown();
    let report = handle.shutdown();

    // ≥ 4 forced cut cycles actually happened and both clients resumed
    // through them (never falling back to a fresh session).
    assert!(chaos.cuts >= 4, "forced cuts landed: {chaos:?}");
    assert!(
        producer_stats.resumed >= 3,
        "producer resumed through ≥ 3 cuts: {producer_stats:?}"
    );
    assert!(
        subscriber_stats.resumed >= 3,
        "subscriber resumed through ≥ 3 cuts: {subscriber_stats:?}"
    );
    assert_eq!(
        producer_stats.fresh_sessions + subscriber_stats.fresh_sessions,
        0,
        "every reconnect resumed its session"
    );
    assert!(report.net.resumes >= 6, "gateway resumed both sessions");

    // Zero frame loss, zero acked-frame loss, bit-identical verdicts.
    assert_eq!(producer_unacked, 0, "every frame was acked before shutdown");
    assert_eq!(got.len(), total, "every verdict was delivered");
    assert_eq!(report.fleet.processed() as usize, total);
    for (key, count) in &ack_counts {
        assert!(
            *count as u64 <= 1 + producer_stats.resumed,
            "frame {key:?} over-acked ({count})"
        );
    }
    assert_eq!(ack_counts.len(), total, "every frame was acked");
    for key in ack_counts.keys() {
        assert!(
            got.contains_key(key),
            "acked frame {key:?} lost its verdict"
        );
    }
    for (key, want) in &expect {
        let served = got.get(key).unwrap_or_else(|| panic!("missing {key:?}"));
        assert_eq!(
            bits(served),
            bits(want),
            "verdict for chain {} seq {} drifted across chaos",
            key.0,
            key.1
        );
    }

    // The supervised restart happened and is visible fleet-wide.
    let merged = report.fleet.merged_counters();
    assert_eq!(merged.shard_restarts, 1, "exactly one supervised restart");
    assert_eq!(merged.restarts_denied, 0);
    assert_eq!(
        report.fleet.worst_health(),
        HealthState::Degraded,
        "the restarted shard reports Degraded, the rest stay healthy"
    );
    assert_eq!(
        report.fleet.shards.iter().map(|s| s.lost).sum::<u64>(),
        0,
        "supervision re-serves, never loses"
    );
}

/// The re-ack path is exactly-once per connection: replaying an already
/// accepted-and-acked frame any number of times on one connection earns
/// exactly one further ack.
#[test]
fn replayed_frames_are_reacked_exactly_once_per_connection() {
    let fw = build_firmware();
    let std = standardizer();
    let engine = ShardedEngine::native(&EngineConfig::default(), &fw, &HpsModel::default(), &std);
    let handle =
        HubGateway::start("127.0.0.1:0", GatewayConfig::default(), engine).expect("bind gateway");
    let addr = handle.local_addr();

    let mut producer = GatewayClient::connect(addr, Role::Producer).expect("producer connects");
    let frames = MultiChainSource::new(1, 9).ticks(1);
    let frame = &frames[0];
    producer.send_frame(frame).expect("first send");

    let mut acks = 0u32;
    let deadline = Instant::now() + Duration::from_secs(5);
    while acks < 1 && Instant::now() < deadline {
        if let Some(Msg::FrameAck { .. }) = producer.recv(Duration::from_millis(50)).expect("recv")
        {
            acks += 1;
        }
    }
    assert_eq!(acks, 1, "the original frame acks once");

    // Replay the identical frame three times on the SAME connection: its
    // 21 hub packets all land behind the watermark (stale), and the
    // re-ack dedupe pays out exactly one more ack.
    for _ in 0..3 {
        producer.send_frame(frame).expect("replay send");
    }
    let deadline = Instant::now() + Duration::from_millis(1500);
    while Instant::now() < deadline {
        if let Some(Msg::FrameAck { .. }) = producer.recv(Duration::from_millis(50)).expect("recv")
        {
            acks += 1;
        }
    }
    assert_eq!(acks, 2, "replays on one connection re-ack exactly once");

    drop(producer);
    let report = handle.shutdown();
    assert_eq!(report.net.replayed_frames, 1);
    assert_eq!(report.net.stale_drops, 21, "three replays × seven hubs");
    assert_eq!(report.fleet.processed(), 1, "the frame ran exactly once");
}
