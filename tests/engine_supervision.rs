//! Shard-supervision contracts.
//!
//! The watchdog ladder recovers inside one SoC, and an unsupervised wedged
//! shard degrades only itself. Supervision closes the loop: a shard whose
//! *every* replica wedges restarts in place with a fresh executor built
//! from the same digest-pinned firmware, its in-flight frames are
//! re-served in order, and the episode is visible in the counters — while
//! a shard that keeps wedging past its restart budget **trips** (it never
//! panics, and it never stalls a `Block`-policy submitter).

use reads::blm::acnet::DeblendVerdict;
use reads::blm::hubs::assemble_frame;
use reads::blm::hubs::MultiChainSource;
use reads::blm::Standardizer;
use reads::central::engine::{
    BatchOutcome, DropPolicy, EngineConfig, NativeExecutor, ShardExecutor, ShardedEngine,
    SocExecutor,
};
use reads::central::resilience::{HealthState, SupervisorPolicy, WatchdogPolicy};
use reads::hls4ml::{convert, profile_model, Firmware, HlsConfig};
use reads::nn::models;
use reads::soc::faults::FaultPlan;
use reads::soc::node::FrameTiming;
use reads::soc::HpsModel;
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn mlp_firmware(seed: u64) -> Firmware {
    let m = models::reads_mlp(seed);
    let calib = vec![vec![0.3; 259], vec![-0.4; 259]];
    let profile = profile_model(&m, &calib);
    convert(&m, &profile, &HlsConfig::paper_default())
}

fn standardizer() -> Standardizer {
    Standardizer {
        mean: 112_000.0,
        std: 3_500.0,
    }
}

fn fast_policy(max_restarts: u32) -> SupervisorPolicy {
    SupervisorPolicy {
        max_restarts,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
    }
}

/// A stuck-FSM fault plan wedges every replica of the shard; the
/// supervisor restarts it within budget with a clean executor and the
/// in-flight frames are re-served — nothing lost, restart visible in the
/// counters, shard health lands on Degraded (it *did* wedge once).
#[test]
fn supervisor_restarts_wedged_shard_and_reserves_in_flight_frames() {
    let fw = mlp_firmware(44);
    let hps = HpsModel::default();
    let std = standardizer();
    let stream = MultiChainSource::new(2, 91).ticks(6);
    let total = stream.len();

    // Reference: the same stream through a never-faulted native engine.
    let fw_reference = fw.clone();
    let (want, _) = ShardedEngine::run_stream(
        &EngineConfig::default(),
        &std,
        move |_| {
            Box::new(NativeExecutor::compiled(
                &fw_reference,
                &HpsModel::default(),
            ))
        },
        stream.clone(),
    );

    let mut incarnation = 0u32;
    let fw_factory = fw.clone();
    let mut engine = ShardedEngine::start(
        &EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        &std,
        move |shard| {
            let mut exec = SocExecutor::new(
                fw_factory.clone(),
                &hps,
                2,
                WatchdogPolicy::default(),
                7 ^ shard as u64,
            );
            if incarnation == 0 {
                // First incarnation: every replica runs a stuck-FSM plan
                // that defeats the whole watchdog ladder, wedging the
                // array on the first batch.
                for ip in 0..2 {
                    exec.array_mut()
                        .set_fault_plan_on(ip, Some(FaultPlan::stuck_fsm(1.0, 5)));
                }
            }
            incarnation += 1;
            Box::new(exec)
        },
        Some(fast_policy(3)),
    );
    for f in stream {
        engine.submit(f);
    }
    let (results, report) = engine.finish();

    assert_eq!(results.len(), total, "every in-flight frame was re-served");
    assert_eq!(report.processed() as usize, total);
    let shard = &report.shards[0];
    assert_eq!(shard.lost, 0, "restart means re-serve, not loss");
    assert_eq!(shard.counters.shard_restarts, 1, "exactly one restart");
    assert_eq!(shard.counters.restarts_denied, 0);
    assert_eq!(
        shard.health,
        HealthState::Degraded,
        "a restarted shard is degraded, not healthy and not tripped"
    );
    // The re-served verdicts are bit-identical to the unfaulted run.
    assert_eq!(want.len(), results.len());
    for (a, b) in want.iter().zip(&results) {
        assert_eq!((a.chain, a.sequence), (b.chain, b.sequence));
        assert_eq!(
            a.verdict, b.verdict,
            "chain {} seq {} drifted across the restart",
            a.chain, a.sequence
        );
    }
}

/// A shard that wedges on every incarnation exhausts its budget and
/// trips. `finish` still returns (no panic, no stall — the `Block`
/// policy would deadlock here if the dead shard stopped draining), all
/// frames are accounted lost, and the denial is counted.
#[test]
fn shard_exceeding_restart_budget_trips_without_stalling() {
    let fw = mlp_firmware(44);
    let hps = HpsModel::default();
    let std = standardizer();
    let stream = MultiChainSource::new(1, 13).ticks(8);
    let total = stream.len();

    let fw_factory = fw.clone();
    let mut engine = ShardedEngine::start(
        &EngineConfig {
            workers: 1,
            queue_depth: 4, // small queue: Block backpressure is exercised
            drop_policy: DropPolicy::Block,
            ..EngineConfig::default()
        },
        &std,
        move |shard| {
            let mut exec = SocExecutor::new(
                fw_factory.clone(),
                &hps,
                2,
                WatchdogPolicy::default(),
                3 ^ shard as u64,
            );
            // Every incarnation is born wedged — the fault is persistent,
            // so no restart budget can save this shard.
            exec.array_mut().mark_wedged(0);
            exec.array_mut().mark_wedged(1);
            Box::new(exec)
        },
        Some(fast_policy(2)),
    );
    for f in stream {
        engine.submit(f); // Block policy: this would deadlock on a stall
    }
    let (results, report) = engine.finish();

    assert!(results.is_empty(), "a tripped shard produces nothing");
    let shard = &report.shards[0];
    assert_eq!(shard.processed, 0);
    assert_eq!(shard.lost as usize, total, "every frame is accounted lost");
    assert_eq!(shard.counters.shard_restarts, 2, "budget fully spent");
    assert_eq!(shard.counters.restarts_denied, 1, "the denial is counted");
    assert_eq!(
        shard.health,
        HealthState::Tripped,
        "past-budget shard trips loudly"
    );
    assert_eq!(report.worst_health(), HealthState::Tripped);
}

/// Compiled native executor that serves `serve` batches, then wedges
/// partway through the next one: it answers that batch's first frame and
/// returns `None` for the rest. The first batch waits on `gate`, so the
/// test can queue its whole stream before anything runs.
struct WedgesAfter {
    inner: NativeExecutor,
    gate: Option<Arc<Barrier>>,
    serve: usize,
    wedged: bool,
}

impl ShardExecutor for WedgesAfter {
    fn input_len(&self) -> usize {
        self.inner.input_len()
    }

    fn run_batch(&mut self, inputs: &[Vec<f64>]) -> BatchOutcome {
        if let Some(gate) = self.gate.take() {
            gate.wait();
        }
        if self.serve > 0 {
            self.serve -= 1;
            return self.inner.run_batch(inputs);
        }
        self.wedged = true;
        let mut outcome = self.inner.run_batch(&inputs[..1]);
        outcome.outputs.resize(inputs.len(), None);
        outcome.timings.resize(inputs.len(), FrameTiming::default());
        outcome
    }

    fn wedged(&self) -> bool {
        self.wedged
    }
}

/// A shard that wedges mid-stream, with a backlog queued behind the
/// failing batch, restarts in place: the frames it dropped are re-served
/// ahead of the backlog, every verdict is bit-identical to the
/// interpreter, and each chain's results arrive in ascending sequence.
#[test]
fn restart_mid_stream_with_backlog_reserves_in_arrival_order() {
    let fw = mlp_firmware(44);
    let std = standardizer();
    let stream = MultiChainSource::new(3, 57).ticks(10);
    let total = stream.len();

    // Oracle: the interpreter, one frame at a time.
    let n_in = fw.input_len * fw.input_channels;
    let expect: BTreeMap<(u32, u32), DeblendVerdict> = stream
        .iter()
        .map(|cf| {
            let readings = assemble_frame(&cf.packets).unwrap();
            let (out, _) = fw.infer(&std.apply_frame(&readings[..n_in]));
            let verdict = DeblendVerdict::from_split_halves(cf.sequence, &out);
            ((cf.chain, cf.sequence), verdict)
        })
        .collect();

    let gate = Arc::new(Barrier::new(2));
    let worker_gate = Arc::clone(&gate);
    let fw_factory = fw.clone();
    let mut builds = 0u32;
    let mut engine = ShardedEngine::start(
        &EngineConfig {
            workers: 1,
            batch: 2,
            queue_depth: 256,
            drop_policy: DropPolicy::Block,
            ..EngineConfig::default()
        },
        &std,
        move |_| {
            let inner = NativeExecutor::compiled(&fw_factory, &HpsModel::default());
            builds += 1;
            if builds == 1 {
                Box::new(WedgesAfter {
                    inner,
                    gate: Some(Arc::clone(&worker_gate)),
                    serve: 3,
                    wedged: false,
                })
            } else {
                Box::new(inner)
            }
        },
        Some(fast_policy(3)),
    );
    for f in stream {
        assert!(engine.submit(f));
    }
    gate.wait(); // the whole stream is queued; let the first batch run

    let mut arrived = Vec::with_capacity(total);
    let give_up = Instant::now() + Duration::from_secs(30);
    while arrived.len() < total && Instant::now() < give_up {
        arrived.extend(engine.poll_results());
        std::thread::sleep(Duration::from_millis(1));
    }
    let (rest, report) = engine.finish();
    arrived.extend(rest);

    assert_eq!(arrived.len(), total, "every frame was served exactly once");
    let mut last: BTreeMap<u32, u32> = BTreeMap::new();
    for r in &arrived {
        assert_eq!(
            r.verdict,
            expect[&(r.chain, r.sequence)],
            "chain {} seq {} drifted across the restart",
            r.chain,
            r.sequence
        );
        if let Some(prev) = last.insert(r.chain, r.sequence) {
            assert!(
                r.sequence > prev,
                "chain {} delivered seq {} after {prev}",
                r.chain,
                r.sequence
            );
        }
    }
    let shard = &report.shards[0];
    assert_eq!(shard.processed as usize, total);
    assert_eq!(shard.lost, 0, "restart means re-serve, not loss");
    assert_eq!(shard.counters.shard_restarts, 1, "exactly one restart");
    assert_eq!(shard.counters.restarts_denied, 0);
    assert_eq!(shard.health, HealthState::Degraded);
}
