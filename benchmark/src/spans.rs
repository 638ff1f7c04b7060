//! In-memory span recorder for the traced iteration.
//!
//! A span is `(name, start_ns, end_ns, parent)`; spans of one thread live in
//! that thread's preallocated buffer and `parent` indexes the same buffer, so
//! recording takes no cross-thread traffic beyond an uncontended lock. A
//! layer's **self time** is its span's duration minus the part its child
//! spans cover — a HEAD issued inside `decide` is a child of the `decide`
//! span and is subtracted from it.
//!
//! Recording is off unless [`start`] was called: the untraced iterations
//! never construct a wrapper, so they never reach this module at all.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Spans preallocated per recording thread (32 B each).
const PREALLOC: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's buffer.
    pub parent: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Buffer {
    spans: Vec<Span>,
    /// Indexes of the spans currently open on this thread, innermost last.
    open: Vec<u32>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Every thread that ever recorded a span, in first-span order.
static BUFFERS: Mutex<Vec<Arc<Mutex<Buffer>>>> = Mutex::new(Vec::new());

/// The recorder is process-wide; tests that record take this first.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    static LOCAL: RefCell<Option<Arc<Mutex<Buffer>>>> = const { RefCell::new(None) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn with_local<R>(f: impl FnOnce(&mut Buffer) -> R) -> R {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let buf = Arc::new(Mutex::new(Buffer {
                spans: Vec::with_capacity(PREALLOC),
                open: Vec::with_capacity(16),
            }));
            BUFFERS
                .lock()
                .expect("span registry poisoned")
                .push(Arc::clone(&buf));
            buf
        });
        let mut guard = buf.lock().expect("span buffer poisoned");
        f(&mut guard)
    })
}

/// Turns recording on. Spans left over from an earlier recording are dropped.
pub fn start() {
    let _ = now_ns();
    for buf in BUFFERS.lock().expect("span registry poisoned").iter() {
        let mut buf = buf.lock().expect("span buffer poisoned");
        buf.spans.clear();
        buf.open.clear();
    }
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording off and returns every thread's spans (threads in
/// first-span order). Buffers of threads that have exited are released.
pub fn finish() -> Vec<Vec<Span>> {
    ENABLED.store(false, Ordering::SeqCst);
    let mut registry = BUFFERS.lock().expect("span registry poisoned");
    let threads = registry
        .iter()
        .map(|buf| {
            let mut buf = buf.lock().expect("span buffer poisoned");
            debug_assert!(buf.open.is_empty(), "finish() with open spans");
            let taken = buf.spans.clone();
            buf.spans.clear();
            taken
        })
        .filter(|spans| !spans.is_empty())
        .collect();
    // A buffer only the registry still holds belongs to a thread that ended.
    registry.retain(|buf| Arc::strong_count(buf) > 1);
    threads
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct SpanGuard(Option<u32>);

/// Opens a span named `name` under the innermost open span of this thread.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard(None);
    }
    let start_ns = now_ns();
    SpanGuard(Some(with_local(|buf| {
        let index = buf.spans.len() as u32;
        let parent = buf.open.last().copied().unwrap_or(NO_PARENT);
        buf.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        buf.open.push(index);
        index
    })))
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        let Some(index) = self.0 else { return };
        let end_ns = now_ns();
        with_local(|buf| {
            // Guards drop in LIFO order, so `index` is the innermost open span.
            let top = buf.open.pop();
            debug_assert_eq!(top, Some(index), "span guards dropped out of order");
            if let Some(span) = buf.spans.get_mut(index as usize) {
                span.end_ns = end_ns;
            }
        });
    }
}

/// Self time of every span of one thread: duration minus direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let p = span.parent as usize;
            own[p] = own[p].saturating_sub(span.dur_ns());
        }
    }
    own
}

/// Calls, total time and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals over every thread.
pub fn aggregate(threads: &[Vec<Span>]) -> BTreeMap<&'static str, Agg> {
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for spans in threads {
        let own = self_times(spans);
        for (span, self_ns) in spans.iter().zip(own) {
            let agg = out.entry(span.name).or_default();
            agg.calls += 1;
            agg.total_ns += span.dur_ns();
            agg.self_ns += self_ns;
        }
    }
    out
}

/// Writes `thread,id,parent,name,start_ns,end_ns` rows (`parent` is `-1` for
/// a root span; `id`/`parent` index the spans of the same `thread`).
pub fn write_csv(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread,id,parent,name,start_ns,end_ns")?;
    for (thread, spans) in threads.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{thread},{id},{parent},{},{},{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    /// The nested case the ledger depends on: a HEAD inside `decide` inside a
    /// step. The HEAD's time leaves `decide`'s self time, and `decide`'s
    /// whole duration (HEAD included) leaves the step's.
    #[test]
    fn head_inside_decide_is_subtracted_from_its_parent_only() {
        let spans = vec![
            s("core.session.step", 0, 1_000, NO_PARENT),
            s("core.strategy.decide", 100, 600, 0),
            s("httpsim.transport.head", 200, 500, 1),
            s("httpsim.server.head", 250, 350, 2),
            s("core.strategy.next", 700, 750, 0),
        ];
        assert_eq!(
            self_times(&spans),
            vec![1_000 - 500 - 50, 500 - 300, 300 - 100, 100, 50]
        );

        let agg = aggregate(&[spans]);
        assert_eq!(
            agg["core.strategy.decide"],
            Agg {
                calls: 1,
                total_ns: 500,
                self_ns: 200
            }
        );
        assert_eq!(agg["httpsim.transport.head"].self_ns, 200);
        // Self times partition the root: nothing is counted twice or lost.
        assert_eq!(agg.values().map(|a| a.self_ns).sum::<u64>(), 1_000);
    }

    #[test]
    fn aggregate_sums_calls_across_threads() {
        let a = vec![s("x", 0, 10, NO_PARENT), s("y", 2, 5, 0)];
        let b = vec![s("x", 0, 7, NO_PARENT)];
        let agg = aggregate(&[a, b]);
        assert_eq!(
            agg["x"],
            Agg {
                calls: 2,
                total_ns: 17,
                self_ns: 14
            }
        );
        assert_eq!(
            agg["y"],
            Agg {
                calls: 1,
                total_ns: 3,
                self_ns: 3
            }
        );
    }

    #[test]
    fn recorder_nests_by_guard_scope_and_collects_other_threads() {
        let _recorder = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        {
            let _ignored = span("before-start");
        }
        start();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            let _sibling = span("sibling");
        }
        std::thread::spawn(|| {
            let _g = span("worker");
        })
        .join()
        .expect("worker thread");
        let threads = finish();
        assert_eq!(threads.len(), 2, "main thread and worker");
        let main: Vec<(&str, u32)> = threads[0].iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            main,
            vec![("outer", NO_PARENT), ("inner", 0), ("sibling", 0)]
        );
        assert_eq!(threads[1].len(), 1);
        assert_eq!(threads[1][0].name, "worker");
        assert!(threads[0][0].end_ns >= threads[0][1].end_ns);

        {
            let _ignored = span("after-finish");
        }
        start();
        assert!(
            finish().is_empty(),
            "spans recorded while off, or not cleared"
        );
    }
}
