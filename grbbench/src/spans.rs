//! The benchmark's own spans, recorded around each public call it makes
//! into a layer. Spans are kept in memory and written out at the end.
//!
//! A span's self time is its duration minus the part of it its children
//! cover; the self times of a span tree therefore sum to the root's
//! duration. [`check`] verifies that, and that spans nest.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Layer the called function belongs to (`io`, `core`, `sparse`,
    /// `exec`, `algo`, `obs`), `ref` for the references, `bench` for the
    /// harness itself.
    pub layer: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Repetition (or setup/probe round) the span belongs to.
    pub rep: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// Span recorder. When off, `begin`/`end` record nothing.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: &'static str, rep: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            rep,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        rep: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, layer, rep);
        let r = f();
        self.end(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Children of every span, in start order.
fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut ch = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            ch[p].push(i);
        }
    }
    for c in &mut ch {
        c.sort_by_key(|&i| spans[i].start_ns);
    }
    ch
}

/// Self time of every span in nanoseconds: duration minus the union of
/// its children's intervals (clipped to the span).
pub fn self_ns(spans: &[Span]) -> Vec<i64> {
    let ch = children(spans);
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &c in &ch[i] {
                let (a, b) = (spans[c].start_ns.max(cursor), spans[c].end_ns.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() as i64 - covered as i64
        })
        .collect()
}

/// Self seconds per layer over the trees rooted at spans named `root`.
pub fn layer_self_s(spans: &[Span], root: &str) -> BTreeMap<&'static str, f64> {
    let selfs = self_ns(spans);
    let mut in_tree = vec![false; spans.len()];
    let mut out = BTreeMap::new();
    // Parents precede children, so one forward pass marks whole trees.
    for (i, s) in spans.iter().enumerate() {
        in_tree[i] = match s.parent {
            None => s.name == root,
            Some(p) => in_tree[p],
        };
        if in_tree[i] {
            *out.entry(s.layer).or_insert(0.0) += selfs[i] as f64 / 1e9;
        }
    }
    out
}

/// Verifies a finished trace: every span closed, children inside their
/// parent and of the same repetition, siblings disjoint, every self time
/// non-negative, and per root the layer self times summing to the root's
/// duration within rounding.
pub fn check(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let ps = &spans[p];
            if p >= i || s.start_ns < ps.start_ns || s.end_ns > ps.end_ns || s.rep != ps.rep {
                return Err(format!(
                    "span {i} ({}) does not nest in span {p} ({})",
                    s.name, ps.name
                ));
            }
        }
    }
    for (p, c) in children(spans).iter().enumerate() {
        if c.windows(2)
            .any(|w| spans[w[0]].end_ns > spans[w[1]].start_ns)
        {
            return Err(format!("children of span {p} ({}) overlap", spans[p].name));
        }
    }
    let selfs = self_ns(spans);
    if let Some(i) = selfs.iter().position(|&x| x < 0) {
        return Err(format!(
            "span {i} ({}) has negative self time",
            spans[i].name
        ));
    }
    // Sum self seconds per layer for each root's tree, then across layers.
    let mut root_of = vec![0usize; spans.len()];
    let mut per_root: BTreeMap<usize, BTreeMap<&str, f64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        root_of[i] = s.parent.map_or(i, |p| root_of[p]);
        *per_root
            .entry(root_of[i])
            .or_default()
            .entry(s.layer)
            .or_insert(0.0) += selfs[i] as f64 / 1e9;
    }
    for (r, layers) in per_root {
        let sum: f64 = layers.values().sum();
        let dur = spans[r].dur_ns() as f64 / 1e9;
        if (sum - dur).abs() > 1e-9 * (1.0 + layers.len() as f64) {
            return Err(format!(
                "layer self times of root {r} ({}) sum to {sum} s, root lasts {dur} s",
                spans[r].name
            ));
        }
    }
    Ok(())
}

/// The span file: environment header lines as JSON strings, then one
/// object per span with its self time.
pub fn to_json(spans: &[Span], header: &[(&str, String)]) -> String {
    let selfs = self_ns(spans);
    let mut out = String::from("{\n");
    for (k, v) in header {
        out.push_str(&format!(
            "  \"{k}\": \"{}\",\n",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        ));
    }
    out.push_str("  \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "    {{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"rep\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"self_ns\": {}}}{}\n",
            s.name,
            s.layer,
            s.rep,
            s.start_ns,
            s.end_ns,
            selfs[i],
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
