//! The traced run's span ledger and the allocation counter.
//!
//! A span is recorded around each call the benchmark makes into a layer:
//! name, start, end, parent and operation id. Spans stay in memory and
//! are written out as JSONL when the run ends. A span's self time is its
//! duration minus its children's; children of one span never overlap
//! (every span is opened and closed on the benchmark's own thread).
//!
//! Some layers run inside a call the benchmark cannot open (the daemon
//! answers a request in another thread). Such a call is decomposed by
//! *shadow* spans: the same work is timed again, in-process, right after
//! the opaque call, and recorded as children of it. Shadow spans count
//! toward their parent's decomposition but not toward the wall time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Counts heap allocations made by the current thread while enabled.
/// Disabled, an allocation costs one relaxed load and a branch more.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    if COUNTING.load(Ordering::Relaxed) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to the system allocator with the
// caller's arguments unchanged; counting touches only a thread-local
// `Cell<u64>` (const-initialized, no destructor, never allocates).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns allocation counting on or off (process-wide).
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations (including reallocations) counted on this thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Operation id of spans that belong to set-up, not to an operation.
pub const SETUP: usize = usize::MAX;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub op: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub shadow: bool,
    /// Allocations made inside the span, children included.
    pub allocs: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<(usize, u64)>,
    op: usize,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            // Reserved so that growing the ledger never allocates inside
            // a span and pollutes its allocation count.
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            op: SETUP,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the operation id of the spans opened from now on.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, shadow: bool) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent,
            op: self.op,
            start_ns: 0,
            end_ns: 0,
            shadow,
            allocs: 0,
        });
        self.open.push((id, allocs()));
        self.spans[id].start_ns = self.now_ns();
        id
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let parent = self.open.last().map(|&(id, _)| id);
        let shadow = parent.is_some_and(|p| self.spans[p].shadow);
        self.open(name, parent, shadow)
    }

    /// Opens a shadow span decomposing the (closed) span `of`.
    pub fn begin_shadow(&mut self, name: &'static str, of: usize) -> usize {
        self.open(name, Some(of), true)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let end = self.now_ns();
        let (top, allocs_at_open) = self.open.pop().expect("a span is open");
        assert_eq!(top, id, "spans close in reverse opening order");
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.allocs = allocs() - allocs_at_open;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Self time of every span: duration minus children's durations.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.dur_ns() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_ns() as i64;
            }
        }
        own
    }

    /// Total self time per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut by = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *by.entry(s.name).or_insert(0.0) += ns as f64;
        }
        by
    }

    /// Wall time covered by the non-shadow root spans.
    pub fn wall_ns(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && !s.shadow)
            .map(|s| s.dur_ns() as f64)
            .sum()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = if s.op == SETUP {
                "\"setup\"".to_string()
            } else {
                s.op.to_string()
            };
            writeln!(
                f,
                "{{\"id\":{id},\"parent\":{parent},\"op\":{op},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"shadow\":{},\"allocs\":{}}}",
                s.name, s.start_ns, s.end_ns, s.shadow, s.allocs
            )?;
        }
        f.flush()
    }
}
