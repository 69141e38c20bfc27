//! The named workloads, the seeded frame pool they draw from, and the
//! interpreter oracle every verdict is checked against.

use reads_blm::acnet::DeblendVerdict;
use reads_blm::hubs::{assemble_frame, ChainFrame, MultiChainSource};
use reads_blm::{Standardizer, N_BLM};
use reads_hls4ml::Firmware;
use std::time::Duration;

/// The paper's frame period: a verdict later than this after its frame
/// was due missed the control tick.
pub const DEADLINE: Duration = Duration::from_millis(3);

/// Which trained model the gateway serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// The 100k-parameter MLP.
    Mlp,
    /// The paper's deployed U-Net, dense as converted.
    UNet,
}

/// How the generator paces frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// One frame per chain every `period`, whatever the system does.
    Open {
        /// Tick period.
        period: Duration,
    },
    /// As fast as acks return, never more than `window` unacked frames.
    Closed {
        /// Unacked-frame window.
        window: usize,
    },
    /// `ticks` ticks of every chain written back to back, all due at the
    /// burst's start, with no ack pacing; the next burst starts once every
    /// verdict of this one is in.
    Burst {
        /// Ticks per burst.
        ticks: usize,
    },
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Model served.
    pub model: Model,
    /// Hub chains (one frame per chain per tick).
    pub chains: usize,
    /// Load discipline.
    pub pacing: Pacing,
    /// Distinct ticks in the frame pool; longer runs cycle through it
    /// with fresh sequence numbers. Bounded so the oracle can check every
    /// verdict without the interpreter running for minutes.
    pub pool_ticks: usize,
}

/// Every workload the benchmark runs. Why each exists is in README.md.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_cadence_mlp",
        model: Model::Mlp,
        chains: 8,
        pacing: Pacing::Open {
            period: Duration::from_millis(3),
        },
        pool_ticks: 512,
    },
    Workload {
        name: "saturate_mlp",
        model: Model::Mlp,
        chains: 8,
        pacing: Pacing::Closed { window: 512 },
        pool_ticks: 512,
    },
    Workload {
        name: "burst_mlp",
        model: Model::Mlp,
        chains: 8,
        pacing: Pacing::Burst { ticks: 600 },
        pool_ticks: 512,
    },
    Workload {
        name: "unet_cadence",
        model: Model::UNet,
        chains: 1,
        pacing: Pacing::Open {
            period: Duration::from_millis(8),
        },
        pool_ticks: 96,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seeded frames a run sends: `pool_ticks × chains` distinct chain
/// frames from [`MultiChainSource`], replayed cyclically under the run's
/// own increasing sequence numbers.
#[derive(Debug)]
pub struct FramePool {
    chains: usize,
    frames: Vec<ChainFrame>,
}

impl FramePool {
    /// Generates the pool for `workload` from `seed`.
    #[must_use]
    pub fn generate(workload: &Workload, seed: u64) -> Self {
        let mut source = MultiChainSource::new(workload.chains, seed);
        Self {
            chains: workload.chains,
            frames: source.ticks(workload.pool_ticks),
        }
    }

    /// Distinct frames in the pool.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Chains per tick.
    #[must_use]
    pub fn chains(&self) -> usize {
        self.chains
    }

    /// Pool slot that frame `(tick, chain)` replays.
    #[must_use]
    pub fn slot(&self, tick: u32, chain: u32) -> usize {
        (tick as usize * self.chains + chain as usize) % self.frames.len()
    }

    /// Frame `(tick, chain)`: the slot's readings stamped with sequence
    /// `tick`.
    #[must_use]
    pub fn frame(&self, tick: u32, chain: u32) -> ChainFrame {
        let mut frame = self.frames[self.slot(tick, chain)].clone();
        frame.sequence = tick;
        for p in &mut frame.packets {
            p.sequence = tick;
        }
        frame
    }
}

/// Expected verdict of every pool slot, computed by the firmware
/// interpreter ([`Firmware::infer`]) — never by the compiled engine the
/// gateway serves.
#[derive(Debug)]
pub struct Oracle {
    verdicts: Vec<DeblendVerdict>,
}

/// The interpreter's verdict for one frame, built the way a shard builds
/// it: assemble, standardize, infer, split into the two machines.
fn interpret(
    frame: &ChainFrame,
    firmware: &Firmware,
    standardizer: &Standardizer,
) -> DeblendVerdict {
    let readings = assemble_frame(&frame.packets).expect("pool frames are complete");
    let n_in = (firmware.input_len * firmware.input_channels).min(readings.len());
    let (out, _) = firmware.infer(&standardizer.apply_frame(&readings[..n_in]));
    if out.len() == 2 * N_BLM {
        DeblendVerdict::from_interleaved(frame.sequence, &out)
    } else {
        DeblendVerdict::from_split_halves(frame.sequence, &out)
    }
}

impl Oracle {
    /// Interprets every pool slot, split over `threads` threads.
    #[must_use]
    pub fn build(
        pool: &FramePool,
        firmware: &Firmware,
        standardizer: &Standardizer,
        threads: usize,
    ) -> Self {
        let per = pool.frames.len().div_ceil(threads.max(1));
        let verdicts = std::thread::scope(|s| {
            let workers: Vec<_> = pool
                .frames
                .chunks(per.max(1))
                .map(|chunk| {
                    s.spawn(move || {
                        chunk
                            .iter()
                            .map(|f| interpret(f, firmware, standardizer))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("oracle worker"))
                .collect()
        });
        Self { verdicts }
    }

    /// Whether `got`, the verdict delivered for frame `(tick, chain)`, is
    /// bit-identical to the interpreter's.
    #[must_use]
    pub fn matches(&self, pool: &FramePool, chain: u32, got: &DeblendVerdict) -> bool {
        let want = &self.verdicts[pool.slot(got.sequence, chain)];
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        same(&want.mi, &got.mi) && same(&want.rr, &got.rr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn pool_replays_slots_under_fresh_sequences() {
        let wl = Workload {
            pool_ticks: 3,
            chains: 2,
            ..WORKLOADS[0]
        };
        let pool = FramePool::generate(&wl, 7);
        assert_eq!(pool.len(), 6);
        let first = pool.frame(1, 1);
        let again = pool.frame(4, 1);
        assert_eq!(pool.slot(1, 1), pool.slot(4, 1));
        assert_eq!((first.chain, first.sequence, again.sequence), (1, 1, 4));
        assert!(again.packets.iter().all(|p| p.sequence == 4));
        assert_eq!(
            assemble_frame(&first.packets).expect("complete"),
            assemble_frame(&again.packets).expect("complete")
        );
        assert_eq!(pool.frame(1, 1), FramePool::generate(&wl, 7).frame(1, 1));
        assert_ne!(
            assemble_frame(&pool.frame(0, 0).packets).expect("complete"),
            assemble_frame(&FramePool::generate(&wl, 8).frame(0, 0).packets).expect("complete")
        );
    }
}
