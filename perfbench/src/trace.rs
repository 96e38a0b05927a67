//! Spans recorded by the harness around its calls into each layer, kept in
//! memory and written out when the run ends.
//!
//! Layers that see a million calls are aggregated (count, total,
//! log₂-nanosecond histogram) and keep only a sample of raw spans: the
//! first [`KEEP_FIRST`] per layer, then one in [`KEEP_EVERY`].

use std::io::Write;
use std::time::Instant;

pub const KEEP_FIRST: u64 = 1024;
pub const KEEP_EVERY: u64 = 4096;
const HIST_BUCKETS: usize = 48;

/// Index of a registered layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerId(usize);

/// One raw span, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub layer: LayerId,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Clone)]
struct Layer {
    name: &'static str,
    count: u64,
    total_ns: u64,
    /// `hist[b]` counts spans of `[2^b, 2^(b+1))` ns (bucket 0 also holds 0).
    hist: [u64; HIST_BUCKETS],
}

/// Span recorder. A disabled tracer runs the timed closures and records
/// nothing, so the same code gives the untraced baseline.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    layers: Vec<Layer>,
    kept: Vec<Span>,
    next_id: u64,
    /// Open spans; the innermost is the parent of the next one recorded.
    stack: Vec<u64>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            layers: Vec::new(),
            kept: Vec::new(),
            next_id: 0,
            stack: Vec::new(),
        }
    }

    /// Registers a layer (idempotent by name).
    pub fn layer(&mut self, name: &'static str) -> LayerId {
        if let Some(i) = self.layers.iter().position(|l| l.name == name) {
            return LayerId(i);
        }
        self.layers.push(Layer {
            name,
            count: 0,
            total_ns: 0,
            hist: [0; HIST_BUCKETS],
        });
        LayerId(self.layers.len() - 1)
    }

    /// Nanoseconds since the epoch; 0 without reading the clock when
    /// disabled.
    pub fn now_ns(&self) -> u64 {
        if self.enabled {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Runs `f` inside a leaf span of `layer`.
    pub fn time<T>(&mut self, layer: LayerId, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(layer, start, end);
        out
    }

    /// Runs `f` inside a span of `layer` that is the parent of every span
    /// recorded while `f` runs.
    pub fn scope<T>(&mut self, layer: LayerId, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let start = self.now_ns();
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end = self.now_ns();
        self.push(id, layer, start, end);
        out
    }

    /// Records an already-measured span of `layer`.
    pub fn record(&mut self, layer: LayerId, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.push(id, layer, start_ns, end_ns);
    }

    fn push(&mut self, id: u64, layer: LayerId, start_ns: u64, end_ns: u64) {
        let l = &mut self.layers[layer.0];
        let dur = end_ns.saturating_sub(start_ns);
        l.count += 1;
        l.total_ns += dur;
        let bucket = (64 - dur.leading_zeros() as usize).saturating_sub(1);
        l.hist[bucket.min(HIST_BUCKETS - 1)] += 1;
        let seq = l.count - 1;
        if seq < KEEP_FIRST || seq.is_multiple_of(KEEP_EVERY) {
            self.kept.push(Span {
                id,
                parent: self.stack.last().copied(),
                layer,
                start_ns,
                end_ns,
            });
        }
    }

    /// Total span time of `name`, seconds (0 when the layer never ran).
    pub fn total_s(&self, name: &str) -> f64 {
        self.find(name).map_or(0.0, |l| l.total_ns as f64 * 1e-9)
    }

    /// Spans recorded for `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.find(name).map_or(0, |l| l.count)
    }

    fn find(&self, name: &str) -> Option<&Layer> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// Raw kept spans of `name` as `(start, end)` pairs.
    pub fn kept_intervals(&self, name: &str) -> Vec<(u64, u64)> {
        let Some(i) = self.layers.iter().position(|l| l.name == name) else {
            return Vec::new();
        };
        self.kept
            .iter()
            .filter(|s| s.layer.0 == i)
            .map(|s| (s.start_ns, s.end_ns))
            .collect()
    }

    /// Folds another tracer with the same epoch (a worker thread's) into
    /// this one. Layers match by name; span ids are renumbered.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.next_id;
        let map: Vec<LayerId> = other.layers.iter().map(|l| self.layer(l.name)).collect();
        for (l, &to) in other.layers.iter().zip(&map) {
            let mine = &mut self.layers[to.0];
            mine.count += l.count;
            mine.total_ns += l.total_ns;
            for (a, b) in mine.hist.iter_mut().zip(&l.hist) {
                *a += b;
            }
        }
        for s in other.kept {
            self.kept.push(Span {
                id: base + s.id,
                parent: s.parent.map(|p| base + p),
                layer: map[s.layer.0],
                start_ns: s.start_ns,
                end_ns: s.end_ns,
            });
        }
        self.next_id = base + other.next_id;
    }

    /// Writes every layer's aggregate and every kept span as line-delimited
    /// JSON. A kept span's `self_ns` discounts its kept children, which
    /// are all of them unless the children's layer was sampled.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        for l in &self.layers {
            let hist: Vec<String> = l.hist.iter().map(u64::to_string).collect();
            writeln!(
                w,
                "{{\"event\":\"layer\",\"layer\":\"{}\",\"count\":{},\"total_ns\":{},\"log2_ns_hist\":[{}]}}",
                l.name,
                l.count,
                l.total_ns,
                hist.join(",")
            )?;
        }
        let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
        for s in &self.kept {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let own = self_time(
                (s.start_ns, s.end_ns),
                children.get(&s.id).map_or(&[][..], Vec::as_slice),
            );
            writeln!(
                w,
                "{{\"event\":\"span\",\"id\":{},\"parent\":{parent},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.id, self.layers[s.layer.0].name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Length of the union of `intervals` clipped to `within`: how much of
/// that window at least one interval covers. Intervals may nest and
/// overlap (concurrent children).
pub fn coverage(within: (u64, u64), intervals: &[(u64, u64)]) -> u64 {
    let (lo, hi) = within;
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    covered + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of a span: its duration minus the part its children cover.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    (span.1 - span.0) - coverage(span, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_of_disjoint_children() {
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        assert_eq!(self_time((0, 100), &[]), 100);
    }

    #[test]
    fn nested_children_count_once() {
        // A grandchild inside a child covers nothing new.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
        // Identical intervals count once.
        assert_eq!(self_time((0, 100), &[(10, 60), (10, 60)]), 50);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two concurrent children: union is 10..70.
        assert_eq!(self_time((0, 100), &[(10, 50), (30, 70)]), 40);
        // Chain of overlaps plus a touching interval.
        assert_eq!(
            self_time((0, 100), &[(40, 60), (10, 30), (25, 45), (60, 65)]),
            45
        );
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200)]), 30);
        assert_eq!(self_time((50, 100), &[(0, 40), (120, 200)]), 50);
        assert_eq!(self_time((50, 100), &[(0, 500)]), 0);
    }

    #[test]
    fn scopes_parent_their_spans_and_aggregate() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.layer("root");
        let leaf = t.layer("leaf");
        t.scope(root, |t| {
            for _ in 0..3 {
                t.time(leaf, || std::hint::black_box(1 + 1));
            }
        });
        assert_eq!(t.count("leaf"), 3);
        assert_eq!(t.count("root"), 1);
        let root_span = t.kept.iter().find(|s| s.layer == root).copied();
        let root_span = root_span.expect("root span kept");
        assert!(t
            .kept
            .iter()
            .filter(|s| s.layer == leaf)
            .all(|s| s.parent == Some(root_span.id)));
        let children = t.kept_intervals("leaf");
        let own = self_time((root_span.start_ns, root_span.end_ns), &children);
        assert!(own <= root_span.end_ns - root_span.start_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let l = t.layer("x");
        assert_eq!(t.time(l, || 7), 7);
        assert_eq!(t.count("x"), 0);
        assert!(t.kept.is_empty());
    }

    #[test]
    fn absorb_sums_layers_by_name() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        let la = a.layer("x");
        a.record(la, 0, 10);
        let mut b = Tracer::new(true, epoch);
        b.layer("y");
        let lb = b.layer("x");
        b.record(lb, 5, 25);
        a.absorb(b);
        assert_eq!(a.count("x"), 2);
        assert_eq!((a.total_s("x") * 1e9).round(), 30.0);
        assert_eq!(a.kept_intervals("x"), vec![(0, 10), (5, 25)]);
        assert_eq!(coverage((0, 100), &a.kept_intervals("x")), 25);
    }
}
