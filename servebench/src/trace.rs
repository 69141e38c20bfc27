//! In-memory spans for the traced run, written out when the run ends.
//!
//! Every frame gets a root `frame` span (due → verdict read) and three
//! children that tile it: `client.send` (due → write returned),
//! `gateway.ingest` (write returned → `FrameAck` read) and
//! `gateway.egress` (`FrameAck` read → verdict read). Spans of one frame
//! share the id `(trial, chain, sequence)`. Isolated layer calls get one
//! span per timed pass, carrying the number of calls in it.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

/// Children of a `frame` span, in causal order.
pub const FRAME_CHILDREN: [&str; 3] = ["client.send", "gateway.ingest", "gateway.egress"];

/// One span. Times are nanoseconds since the run's base instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span name (`frame`, a [`FRAME_CHILDREN`] entry, or a layer call).
    pub name: &'static str,
    /// Frame spans: `(trial, chain, sequence)`; layer spans: `(0, 0, pass)`.
    pub id: (u32, u32, u32),
    /// Name of the parent span with the same id, if any.
    pub parent: Option<&'static str>,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Calls covered (1 for frame spans).
    pub calls: u64,
}

impl Span {
    /// Signed duration (a child read out of order can be negative).
    #[must_use]
    pub fn duration_ns(&self) -> i64 {
        self.end_ns as i64 - self.start_ns as i64
    }
}

/// The outcome of checking that each frame's children tile its root.
///
/// [`Trace::frame`] cuts the three children from the same four
/// timestamps as the root, so for a recorded frame their sum equals the
/// root by construction. What the check catches is a frame with a child
/// missing or of negative duration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reconciliation {
    /// Root `frame` spans seen.
    pub frames: usize,
    /// Frames whose three children are present, none negative, and sum
    /// exactly to the root's duration.
    pub reconciled: usize,
    /// Frames with a child of negative duration (an ack read after its
    /// verdict): not reconciled, since their split is not causal.
    pub out_of_order: usize,
}

/// Spans kept in memory for one traced run.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Records one frame's root and its three children.
    pub fn frame(&mut self, id: (u32, u32, u32), due: u64, sent: u64, ack: u64, verdict: u64) {
        self.spans.push(Span {
            name: "frame",
            id,
            parent: None,
            start_ns: due,
            end_ns: verdict,
            calls: 1,
        });
        let edges = [due, sent, ack, verdict];
        for (k, name) in FRAME_CHILDREN.iter().enumerate() {
            self.spans.push(Span {
                name,
                id,
                parent: Some("frame"),
                start_ns: edges[k],
                end_ns: edges[k + 1],
                calls: 1,
            });
        }
    }

    /// Records any span (used for isolated layer-call passes, and by
    /// tests to build incomplete frames).
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// All spans, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Checks, per frame, that `client.send + gateway.ingest +
    /// gateway.egress` equals the frame's end-to-end latency.
    #[must_use]
    pub fn reconcile(&self) -> Reconciliation {
        #[derive(Default)]
        struct Tally {
            root: Option<i64>,
            children: usize,
            sum: i64,
            negative: bool,
        }
        let mut frames: BTreeMap<(u32, u32, u32), Tally> = BTreeMap::new();
        for s in &self.spans {
            if s.name == "frame" {
                frames.entry(s.id).or_default().root = Some(s.duration_ns());
            } else if s.parent == Some("frame") && FRAME_CHILDREN.contains(&s.name) {
                let t = frames.entry(s.id).or_default();
                t.children += 1;
                t.sum += s.duration_ns();
                t.negative |= s.duration_ns() < 0;
            }
        }
        let mut r = Reconciliation::default();
        for t in frames.into_values() {
            let Some(root) = t.root else { continue };
            r.frames += 1;
            if t.negative {
                r.out_of_order += 1;
            } else if t.children == FRAME_CHILDREN.len() && t.sum == root {
                r.reconciled += 1;
            }
        }
        r
    }

    /// Self time per span name, in nanoseconds per call: a span's duration
    /// minus what its children cover, divided by the calls it spans.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_sum: BTreeMap<(&'static str, (u32, u32, u32)), i64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                *child_sum.entry((parent, s.id)).or_default() += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            let covered = child_sum.get(&(s.name, s.id)).copied().unwrap_or(0);
            let own = (s.duration_ns() - covered) as f64 / s.calls.max(1) as f64;
            out.entry(s.name).or_default().push(own);
        }
        out
    }

    /// Writes every span as one tab-separated line.
    ///
    /// # Errors
    /// Propagates file creation and write failures.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "name\ttrial\tchain\tsequence\tparent\tstart_ns\tend_ns\tcalls"
        )?;
        for s in &self.spans {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.id.0,
                s.id.1,
                s.id.2,
                s.parent.unwrap_or("-"),
                s.start_ns,
                s.end_ns,
                s.calls
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_frames_reconcile() {
        let mut t = Trace::default();
        t.frame((0, 0, 1), 1_000, 1_040, 1_500, 4_200);
        // Same chain and sequence in another trial: a different frame.
        t.frame((1, 0, 1), 1_000, 1_090, 1_700, 3_900);
        let r = t.reconcile();
        assert_eq!(
            r,
            Reconciliation {
                frames: 2,
                reconciled: 2,
                out_of_order: 0
            }
        );
        let self_times = t.self_times();
        // Children tile the root exactly: the root has no self time.
        assert_eq!(self_times["frame"], vec![0.0, 0.0]);
        assert_eq!(self_times["client.send"], vec![40.0, 90.0]);
        assert_eq!(self_times["gateway.egress"], vec![2_700.0, 2_200.0]);
    }

    #[test]
    fn an_ack_read_after_its_verdict_does_not_reconcile() {
        let mut t = Trace::default();
        t.frame((0, 3, 9), 0, 10, 600, 500);
        t.frame((0, 3, 10), 0, 10, 400, 500);
        let r = t.reconcile();
        assert_eq!((r.frames, r.reconciled, r.out_of_order), (2, 1, 1));
    }

    fn push_all(t: &mut Trace, id: (u32, u32, u32), spans: &[(&'static str, u64, u64)]) {
        for &(name, start_ns, end_ns) in spans {
            t.push(Span {
                name,
                id,
                parent: (name != "frame").then_some("frame"),
                start_ns,
                end_ns,
                calls: 1,
            });
        }
    }

    #[test]
    fn missing_or_misplaced_children_do_not_reconcile() {
        let mut t = Trace::default();
        // The ack never arrived: only two children.
        push_all(
            &mut t,
            (0, 0, 2),
            &[
                ("frame", 0, 100),
                ("client.send", 0, 10),
                ("gateway.egress", 10, 100),
            ],
        );
        // Three children that leave a gap before the verdict.
        push_all(
            &mut t,
            (0, 0, 3),
            &[
                ("frame", 0, 31),
                ("client.send", 0, 10),
                ("gateway.ingest", 10, 20),
                ("gateway.egress", 20, 30),
            ],
        );
        // A layer-call span is not a frame and is ignored here.
        t.push(Span {
            name: "wire.encode",
            id: (0, 0, 0),
            parent: None,
            start_ns: 0,
            end_ns: 5_000,
            calls: 100,
        });
        let r = t.reconcile();
        assert_eq!((r.frames, r.reconciled), (2, 0));
        assert_eq!(t.self_times()["frame"], vec![0.0, 1.0]);
        assert_eq!(t.self_times()["wire.encode"], vec![50.0]);
    }

    #[test]
    fn writes_one_line_per_span() {
        let mut t = Trace::default();
        t.frame((4, 2, 7), 0, 1, 2, 3);
        let dir = std::env::temp_dir().join(format!("servebench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("spans.tsv");
        t.write_tsv(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_dir_all(&dir).expect("clean up");
        assert_eq!(text.lines().count(), 1 + 4);
        assert!(text.contains("gateway.ingest\t4\t2\t7\tframe\t1\t2\t1"));
    }
}
