//! The system under test, built exactly as `netserve_throughput` builds
//! it, plus the machine fingerprint every record carries.

use crate::workload::Model;
use reads_blm::Standardizer;
use reads_core::engine::{DropPolicy, EngineConfig, ShardedEngine};
use reads_core::trained::{TrainedBundle, TrainingTier};
use reads_hls4ml::{convert, profile_model, CompiledFirmware, Firmware, HlsConfig};
use reads_net::{GatewayConfig, GatewayHandle, HubGateway, SlowConsumerPolicy};
use reads_nn::ModelSpec;
use reads_soc::HpsModel;
use std::path::PathBuf;

/// Training seed of the shared Full-tier bundles (the repository's
/// `REPRO_SEED`).
pub const TRAINING_SEED: u64 = 2024;

/// Calibration frames for the hls4ml profiling pass, as the serving
/// benches use.
const CALIBRATION_FRAMES: usize = 50;

/// Host parallelism (the engine runs one shard per logical core).
#[must_use]
pub fn logical_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn spec(model: Model) -> ModelSpec {
    match model {
        Model::Mlp => ModelSpec::Mlp,
        Model::UNet => ModelSpec::UNet,
    }
}

/// Loads the model's trained bundle, training and caching it first if
/// the cache is cold.
#[must_use]
pub fn bundle(model: Model) -> TrainedBundle {
    TrainedBundle::get_or_train(spec(model), TrainingTier::Full, TRAINING_SEED)
}

/// Where `reads_core::trained` caches the bundle (same naming), used only
/// to decide whether the untimed warm-up must train.
#[must_use]
pub fn cached_bundle_path(model: Model) -> PathBuf {
    let stem = match model {
        Model::Mlp => "mlp",
        Model::UNet => "unet",
    };
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../target/reads-artifacts")
        .join(format!("{stem}-full-seed{TRAINING_SEED}.json"))
}

/// Engine settings of `netserve_throughput`: one shard per core, batch
/// 16, 256-deep lossless queues.
#[must_use]
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: logical_cores(),
        batch: 16,
        queue_depth: 256,
        drop_policy: DropPolicy::Block,
        ..EngineConfig::default()
    }
}

fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        reactors: 1,
        outbound_queue: 16 * 1024,
        slow_consumer: SlowConsumerPolicy::DropNewest,
        ..GatewayConfig::default()
    }
}

/// A running gateway plus what the oracle and the layer probes need.
pub struct System {
    /// The converted firmware the engine lowered.
    pub firmware: Firmware,
    /// The bundle's input standardizer.
    pub standardizer: Standardizer,
    /// The serving gateway, bound on loopback.
    pub gateway: GatewayHandle,
}

/// Builds and starts the system: load bundle → profile → convert →
/// lower (inside the engine, per shard) → start engine → bind gateway.
/// Returns once the gateway accepts connections.
///
/// # Panics
/// Panics if the loopback bind fails.
#[must_use]
pub fn set_up(model: Model) -> System {
    let bundle = bundle(model);
    let calib = bundle.calibration_inputs(CALIBRATION_FRAMES);
    let profile = profile_model(&bundle.model, &calib);
    let firmware = convert(&bundle.model, &profile, &HlsConfig::paper_default());
    let engine = ShardedEngine::native(
        &engine_config(),
        &firmware,
        &HpsModel::default(),
        &bundle.standardizer,
    );
    let gateway =
        HubGateway::start("127.0.0.1:0", gateway_config(), engine).expect("bind loopback gateway");
    System {
        firmware,
        standardizer: bundle.standardizer,
        gateway,
    }
}

/// Identifies the machine and build a record came from.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Logical cores available to this process.
    pub logical_cores: usize,
    /// SIMD level the compiled engine picked for the served firmware.
    pub simd_level: String,
    /// `rustc --version` of the build.
    pub rustc: String,
    /// `git rev-parse HEAD` at build time, when built from a git checkout.
    pub git_rev: String,
    /// Digest of the repository sources the build compiled.
    pub source_digest: String,
}

impl Fingerprint {
    /// Collects the fingerprint for `firmware` on this host.
    #[must_use]
    pub fn collect(firmware: &Firmware) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            cpu_model,
            logical_cores: logical_cores(),
            simd_level: format!("{:?}", CompiledFirmware::lower(firmware).simd_level()),
            rustc: env!("SERVEBENCH_RUSTC").into(),
            git_rev: env!("SERVEBENCH_GIT_REV").into(),
            source_digest: env!("SERVEBENCH_SOURCE_DIGEST").into(),
        }
    }

    /// The fingerprint as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu_model\": {}, \"logical_cores\": {}, \"simd_level\": {}, \"rustc\": {}, \
             \"git_rev\": {}, \"source_digest\": {}}}",
            json_str(&self.cpu_model),
            self.logical_cores,
            json_str(&self.simd_level),
            json_str(&self.rustc),
            json_str(&self.git_rev),
            json_str(&self.source_digest),
        )
    }
}

/// A JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_str("Intel(R) Xeon"), "\"Intel(R) Xeon\"");
    }
}
