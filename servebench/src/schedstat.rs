//! Per-thread CPU accounting read from `/proc/self/task/*/schedstat`.
//!
//! Each task's `schedstat` holds three numbers: nanoseconds on CPU,
//! nanoseconds waiting on a run queue, and timeslices run. Together with
//! the task's `comm` (its thread name) this attributes CPU to the
//! system's own threads — `reads-net-*` (gateway hub and reactors) and
//! `reads-shard-*` (engine workers) — without touching their code.

use std::collections::BTreeMap;
use std::fs;
use std::time::Instant;

/// One thread's cumulative scheduler counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskStat {
    /// Nanoseconds spent on a CPU.
    pub run_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub wait_ns: u64,
    /// Timeslices run (one per time the thread was switched in).
    pub slices: u64,
}

impl TaskStat {
    fn saturating_sub(self, earlier: Self) -> Self {
        Self {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            slices: self.slices.saturating_sub(earlier.slices),
        }
    }

    fn add(&mut self, other: Self) {
        self.run_ns += other.run_ns;
        self.wait_ns += other.wait_ns;
        self.slices += other.slices;
    }
}

/// Parses one `schedstat` line (`"<run_ns> <wait_ns> <slices>"`).
#[must_use]
pub fn parse_schedstat(text: &str) -> Option<TaskStat> {
    let mut it = text.split_ascii_whitespace().map(str::parse::<u64>);
    let stat = TaskStat {
        run_ns: it.next()?.ok()?,
        wait_ns: it.next()?.ok()?,
        slices: it.next()?.ok()?,
    };
    it.next().is_none().then_some(stat)
}

/// Every thread of this process at one instant, keyed by thread id.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// When the snapshot was taken.
    pub at: Instant,
    /// `tid → (comm, counters)`.
    pub tasks: BTreeMap<u64, (String, TaskStat)>,
}

impl Snapshot {
    /// Reads `/proc/self/task/*/{comm,schedstat}`. Threads that exit
    /// while the directory is walked are skipped.
    #[must_use]
    pub fn take() -> Self {
        let mut tasks = BTreeMap::new();
        if let Ok(dir) = fs::read_dir("/proc/self/task") {
            for entry in dir.flatten() {
                let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                    continue;
                };
                let path = entry.path();
                let (Ok(comm), Ok(stat)) = (
                    fs::read_to_string(path.join("comm")),
                    fs::read_to_string(path.join("schedstat")),
                ) else {
                    continue;
                };
                if let Some(stat) = parse_schedstat(&stat) {
                    tasks.insert(tid, (comm.trim_end().to_string(), stat));
                }
            }
        }
        Self {
            at: Instant::now(),
            tasks,
        }
    }

    /// Counter growth since `earlier`, summed over threads whose name
    /// starts with `prefix`, plus how many such threads there were. A
    /// thread born after `earlier` counts from zero.
    #[must_use]
    pub fn delta(&self, earlier: &Snapshot, prefix: &str) -> (TaskStat, usize) {
        let mut sum = TaskStat::default();
        let mut threads = 0;
        for (tid, (comm, now)) in &self.tasks {
            if !comm.starts_with(prefix) {
                continue;
            }
            let before = earlier.tasks.get(tid).map_or(TaskStat::default(), |t| t.1);
            sum.add(now.saturating_sub(before));
            threads += 1;
        }
        (sum, threads)
    }

    /// Wall time from `earlier` to this snapshot, in nanoseconds.
    #[must_use]
    pub fn wall_ns(&self, earlier: &Snapshot) -> u64 {
        u64::try_from(self.at.duration_since(earlier.at).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Resets this process's `VmHWM` to its current RSS (writes `5` to
/// `/proc/self/clear_refs`), so the next [`peak_rss_mib`] covers only what
/// ran since. Free heap pages are handed back to the kernel first, so the
/// new baseline is the live heap and not whatever earlier runs left cached
/// in the allocator. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    release_free_heap();
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers; it only returns
    // free pages of the heap to the kernel.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(at: Instant, tasks: &[(u64, &str, u64, u64, u64)]) -> Snapshot {
        Snapshot {
            at,
            tasks: tasks
                .iter()
                .map(|&(tid, comm, run_ns, wait_ns, slices)| {
                    (
                        tid,
                        (
                            comm.to_string(),
                            TaskStat {
                                run_ns,
                                wait_ns,
                                slices,
                            },
                        ),
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn parses_schedstat_lines() {
        assert_eq!(
            parse_schedstat("108052 2000 7\n"),
            Some(TaskStat {
                run_ns: 108_052,
                wait_ns: 2_000,
                slices: 7
            })
        );
        assert_eq!(parse_schedstat("1 2"), None);
        assert_eq!(parse_schedstat("1 2 x"), None);
        assert_eq!(parse_schedstat("1 2 3 4"), None);
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn deltas_group_threads_by_name_prefix() {
        let t0 = Instant::now();
        let before = snap(
            t0,
            &[
                (10, "reads-net-hub", 1_000, 100, 5),
                (11, "reads-net-io0", 500, 0, 2),
                (20, "reads-shard-0r0", 7_000, 70, 9),
                (30, "servebench", 50, 0, 1),
            ],
        );
        let after = snap(
            t0 + std::time::Duration::from_millis(4),
            &[
                (10, "reads-net-hub", 3_000, 400, 15),
                (11, "reads-net-io0", 900, 10, 6),
                (20, "reads-shard-0r0", 9_000, 70, 10),
                // Born between the snapshots: counts from zero.
                (21, "reads-shard-1r0", 1_000, 30, 3),
                (30, "servebench", 99_999, 0, 100),
            ],
        );
        let (hub, n) = after.delta(&before, "reads-net-hub");
        assert_eq!(n, 1);
        assert_eq!(
            hub,
            TaskStat {
                run_ns: 2_000,
                wait_ns: 300,
                slices: 10
            }
        );
        let (net, n) = after.delta(&before, "reads-net-");
        assert_eq!((net.run_ns, n), (2_400, 2));
        let (shards, n) = after.delta(&before, "reads-shard-");
        assert_eq!(
            (shards.run_ns, shards.wait_ns, shards.slices, n),
            (3_000, 30, 4, 2)
        );
        assert_eq!(after.wall_ns(&before), 4_000_000);
    }

    #[test]
    fn live_snapshot_sees_named_threads() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::Builder::new()
            .name("reads-shard-9t".into())
            .spawn(move || {
                ready_tx.send(()).expect("signal ready");
                rx.recv().expect("release");
            })
            .expect("spawn");
        ready_rx.recv().expect("worker ready");
        let snap = Snapshot::take();
        assert!(snap
            .tasks
            .values()
            .any(|(comm, _)| comm == "reads-shard-9t"));
        tx.send(()).expect("release worker");
        worker.join().expect("worker");
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }

    #[test]
    fn peak_rss_resets_to_current() {
        let big = vec![1u8; 64 << 20];
        let with_big = peak_rss_mib().expect("VmHWM");
        drop(std::hint::black_box(big));
        if reset_peak_rss() {
            assert!(peak_rss_mib().expect("VmHWM") < with_big - 32.0);
        }
    }
}
