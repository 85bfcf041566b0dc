//! In-memory span recorder for the traced (`--trace 1`) run.
//!
//! The benchmark wraps each call into a public layer of the library in a
//! [`span`]; spans nest through a stack, so each one knows the span that
//! caused it. Recording is per thread and only the main thread records:
//! the library's own threads (rank workers, server workers) run inside a
//! span of the main thread. Spans stay in memory until [`take`], and the run
//! writes them out when it ends. With recording off a span is one
//! thread-local flag check.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One closed span: name, the enclosing span, and its interval in
/// nanoseconds since recording was enabled.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    t0: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs a recorder on this thread, initially paused.
pub fn install() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            t0: Instant::now(),
            on: false,
            spans: Vec::new(),
            stack: Vec::new(),
        })
    });
}

/// Pauses or resumes recording; spans recorded so far are kept. Call it
/// only with no span open.
pub fn set_recording(on: bool) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            assert!(rec.stack.is_empty(), "recording toggled inside a span");
            rec.on = on;
        }
    });
}

/// A copy of every span recorded so far.
pub fn spans() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow()
            .as_ref()
            .map(|rec| rec.spans.clone())
            .unwrap_or_default()
    })
}

/// Removes the recorder and returns every span it recorded.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard drops"]
pub struct Guard(Option<usize>);

/// Opens a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut().filter(|rec| rec.on) else {
            return Guard(None);
        };
        let id = rec.spans.len();
        let now = rec.t0.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            parent: rec.stack.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        rec.stack.push(id);
        Guard(Some(id))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[id].end_ns = rec.t0.elapsed().as_nanos() as u64;
                rec.stack.pop();
            }
        });
    }
}

/// Self time of every span, in nanoseconds: its duration minus the part
/// of its interval that the union of its direct children covers.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total self time per span name, in seconds.
pub fn self_secs_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
    }
    out
}

/// Seconds of layer time: the time inside root spans, less the self time
/// of `containers` (spans that only group layer calls, such as a pass).
pub fn layer_secs(spans: &[Span], containers: &[&str]) -> f64 {
    let root_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    let container_ns: u64 = spans
        .iter()
        .zip(self_times_ns(spans))
        .filter(|(s, _)| containers.contains(&s.name))
        .map(|(_, ns)| ns)
        .sum();
    (root_ns - container_ns) as f64 / 1e9
}

/// Writes `header` and then one JSON object per span, one per line.
pub fn write_jsonl(path: &Path, header: &str, spans: &[Span]) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{header}")?;
    for (i, (s, self_ns)) in spans.iter().zip(self_times_ns(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            r#"{{"id":{i},"name":"{}","parent":{parent},"start_ns":{},"end_ns":{},"self_ns":{self_ns}}}"#,
            s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            sp("pass", None, 0, 100),
            sp("a", Some(0), 10, 30),
            // Overlaps `a`; the overlap must count once.
            sp("b", Some(0), 20, 50),
            sp("c", Some(0), 60, 70),
            // A grandchild is subtracted from `c`, not from `pass`.
            sp("d", Some(3), 62, 66),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 30, 6, 4]);
    }

    #[test]
    fn children_are_clamped_to_the_parent_interval() {
        let spans = vec![sp("p", None, 10, 20), sp("late", Some(0), 15, 40)];
        assert_eq!(self_times_ns(&spans), vec![5, 25]);
    }

    #[test]
    fn layer_time_leaves_out_container_self_time() {
        let spans = vec![
            sp("setup", None, 0, 10),
            sp("inputs", Some(0), 0, 4),
            sp("pass", None, 20, 100),
            sp("a", Some(2), 30, 50),
            // A layer call inside a layer call counts once.
            sp("b", Some(3), 35, 40),
            // A root span that is no container counts whole.
            sp("check", None, 100, 110),
        ];
        let secs = layer_secs(&spans, &["setup", "pass"]);
        assert!((secs - 34e-9).abs() < 1e-15, "{secs}");
    }

    #[test]
    fn recorder_nests_spans_and_sums_self_time_by_name() {
        install();
        {
            let _ignored = span("paused");
        }
        set_recording(true);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        {
            let _inner = span("inner");
        }
        let spans = take();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("outer", None), ("inner", Some(0)), ("inner", None)]
        );
        let by_name = self_secs_by_name(&spans);
        let total: f64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum();
        assert!((by_name["outer"] + by_name["inner"] - total).abs() < 1e-9);
        // Nothing is recorded once the recorder is gone.
        let _after = span("after");
        assert!(take().is_empty());
    }
}
