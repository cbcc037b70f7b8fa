//! The four workloads: their set-up, one repetition, and the check of a
//! repetition's output against the references.

use graphblas_core::{
    global_context, BinaryOp, Context, ContextOptions, GrbResult, Matrix, Mode, Vector, WaitMode,
};
use graphblas_exec::rng::StdRng;
use graphblas_io::EdgeList;

use crate::inputs::{self, sub_seed};
use crate::oracle::{self, Adj, DynAdj, Neighbors};
use crate::spans::Tracer;

pub const DAMPING: f64 = 0.85;
pub const PAGERANK_ITERS: usize = 10;
pub const PAGERANK_L1_TOL: f64 = 1e-9;
pub const BFS_SOURCES: usize = 8;
/// Undirected edges inserted per `stream` repetition (both directions).
pub const STREAM_BATCH: usize = 1024;
pub const STREAM_HOLD_PERCENT: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PageRank,
    Bfs,
    Triangles,
    Stream,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::PageRank, Kind::Bfs, Kind::Triangles, Kind::Stream];

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::PageRank => "pagerank",
            Kind::Bfs => "bfs",
            Kind::Triangles => "triangles",
            Kind::Stream => "stream",
        }
    }

    /// RMAT scale of the workload graph.
    pub fn scale(self) -> u32 {
        match self {
            Kind::PageRank => 17,
            Kind::Bfs => 16,
            Kind::Triangles | Kind::Stream => 15,
        }
    }

    /// Percentile `run_s_tail` reports. It is fixed per workload, so that
    /// runs with different sample counts report the same percentile, and
    /// leaves at least ten samples beyond it in a 45-second run on a slow
    /// host. `stream` uses p90 although its runs would allow p95: its p95
    /// follows host CPU steal and moved too much between runs.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Kind::PageRank => 75.0,
            Kind::Bfs | Kind::Triangles | Kind::Stream => 90.0,
        }
    }

    pub fn mode(self) -> Mode {
        match self {
            Kind::PageRank | Kind::Bfs => Mode::NonBlocking,
            Kind::Triangles | Kind::Stream => Mode::Blocking,
        }
    }
}

/// What one repetition returned.
pub enum Output {
    Ranks(Vector<f64>),
    Levels(Vec<Vector<i64>>),
    Count(u64),
}

/// Writes beside reads: held-back edges and the insertion cursor.
struct Stream {
    held: Vec<(usize, usize)>,
    next: usize,
    rng: StdRng,
    /// `(first held-back edge, source)` of the last repetition.
    last: Option<(usize, usize)>,
    /// Reference adjacency tracking the matrix (set by `prepare_reference`).
    adj: Option<DynAdj>,
}

/// Reference answers and work counts, computed once per set-up.
struct Reference {
    adj: Adj,
    ranks: Vec<f64>,
    levels: Vec<Vec<i64>>,
    triangles: u64,
}

/// A set-up workload: the graph in its context plus everything needed to
/// run and check repetitions.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub ctx: Context,
    pub a: Matrix<bool>,
    /// Edges `a` was built from (for `stream`, the base graph).
    pub edges: EdgeList,
    /// Fingerprint of the generated edge list.
    pub fingerprint: u64,
    /// Non-isolated BFS sources (one for the workloads that need none, as
    /// the anchor for `algo.levels`).
    pub sources: Vec<usize>,
    /// Out-degree in `edges` (stream sources are drawn from it).
    degree: Vec<usize>,
    stream: Option<Stream>,
    reference: Option<Reference>,
}

fn build_matrix(
    tr: &mut Tracer,
    ctx: &Context,
    e: &EdgeList,
    round: u64,
) -> GrbResult<Matrix<bool>> {
    let a = tr.span(
        "core.build",
        "core",
        round,
        || -> GrbResult<Matrix<bool>> {
            let a = Matrix::<bool>::new_in(ctx, e.n, e.n)?;
            a.build(&e.src, &e.dst, &vec![true; e.len()], Some(&BinaryOp::lor()))?;
            Ok(a)
        },
    )?;
    tr.span("core.wait", "core", round, || a.wait(WaitMode::Materialize))?;
    Ok(a)
}

impl Workload {
    /// Set-up as `setup_s` times it: generate, build, `wait(Materialize)`
    /// and one warm-up repetition.
    pub fn setup(kind: Kind, seed: u64, tr: &mut Tracer, round: u64) -> GrbResult<Workload> {
        Self::setup_at(kind, kind.scale(), seed, tr, round)
    }

    /// [`Workload::setup`] on a graph of another scale (for tests).
    pub fn setup_at(
        kind: Kind,
        scale: u32,
        seed: u64,
        tr: &mut Tracer,
        round: u64,
    ) -> GrbResult<Workload> {
        let root = tr.begin("setup", "bench", round);
        let w = Self::setup_inner(kind, scale, seed, tr, round);
        tr.end(root);
        w
    }

    fn setup_inner(
        kind: Kind,
        scale: u32,
        seed: u64,
        tr: &mut Tracer,
        round: u64,
    ) -> GrbResult<Workload> {
        let g = tr.span("io.generate", "io", round, || inputs::graph(scale, seed));
        let fingerprint = inputs::fingerprint(&g);
        let (edges, stream) = if kind == Kind::Stream {
            let hb = tr.span("bench.hold_back", "bench", round, || {
                inputs::hold_back(&g, STREAM_HOLD_PERCENT, seed)
            });
            let stream = Stream {
                held: hb.held,
                next: 0,
                rng: StdRng::seed_from_u64(sub_seed(seed, 2)),
                last: None,
                adj: None,
            };
            (hb.base, Some(stream))
        } else {
            (g, None)
        };
        let ctx = Context::new(
            &global_context(),
            kind.mode(),
            ContextOptions {
                name: Some(format!("bench-{}", kind.name())),
                ..Default::default()
            },
        );
        let a = build_matrix(tr, &ctx, &edges, round)?;
        let mut degree = vec![0usize; edges.n];
        for &s in &edges.src {
            degree[s] += 1;
        }
        let k = if kind == Kind::Bfs { BFS_SOURCES } else { 1 };
        let sources = inputs::pick_vertices(edges.n, k, sub_seed(seed, 3), |v| degree[v] > 0);
        let mut w = Workload {
            kind,
            seed,
            ctx,
            a,
            edges,
            fingerprint,
            sources,
            degree,
            stream,
            reference: None,
        };
        let warm = tr.begin("warmup", "bench", round);
        let r = w.rep(tr, round);
        tr.end(warm);
        r?;
        Ok(w)
    }

    /// For `stream`: rebuilds the base graph once the held-back edges run
    /// out. Called outside the timed region, before each repetition.
    pub fn before_rep(&mut self, tr: &mut Tracer, round: u64) -> GrbResult<()> {
        let Some(st) = &self.stream else {
            return Ok(());
        };
        if st.next + STREAM_BATCH <= st.held.len() {
            return Ok(());
        }
        let root = tr.begin("rebuild", "bench", round);
        let a = build_matrix(tr, &self.ctx, &self.edges, round);
        tr.end(root);
        self.a = a?;
        let st = self.stream.as_mut().expect("stream state");
        st.next = 0;
        if let Some(r) = &self.reference {
            st.adj = Some(DynAdj::from_adj(&r.adj));
        }
        Ok(())
    }

    /// One repetition: the timed work, ending when its result is complete.
    pub fn rep(&mut self, tr: &mut Tracer, id: u64) -> GrbResult<Output> {
        let a = &self.a;
        match self.kind {
            Kind::PageRank => {
                let r = tr.span("algo.pagerank", "algo", id, || {
                    graphblas_algo::pagerank(a, DAMPING, 0.0, PAGERANK_ITERS)
                })?;
                tr.span("core.wait", "core", id, || r.wait(WaitMode::Complete))?;
                Ok(Output::Ranks(r))
            }
            Kind::Bfs => {
                let mut out = Vec::with_capacity(self.sources.len());
                for &s in &self.sources {
                    let l = tr.span("algo.bfs_levels", "algo", id, || {
                        graphblas_algo::bfs_levels(a, s)
                    })?;
                    tr.span("core.wait", "core", id, || l.wait(WaitMode::Complete))?;
                    out.push(l);
                }
                Ok(Output::Levels(out))
            }
            Kind::Triangles => {
                let c = tr.span("algo.triangle_count", "algo", id, || {
                    graphblas_algo::triangle_count(a)
                })?;
                Ok(Output::Count(c))
            }
            Kind::Stream => {
                let st = self.stream.as_mut().expect("stream state");
                let start = st.next;
                st.next += STREAM_BATCH;
                let degree = &self.degree;
                let src =
                    inputs::pick_vertices(degree.len(), 1, st.rng.next_u64(), |v| degree[v] > 0)[0];
                st.last = Some((start, src));
                let batch = &st.held[start..start + STREAM_BATCH];
                tr.span("core.set_element_batch", "core", id, || -> GrbResult<()> {
                    for &(u, v) in batch {
                        a.set_element(true, u, v)?;
                        a.set_element(true, v, u)?;
                    }
                    Ok(())
                })?;
                let l = tr.span("algo.bfs_levels", "algo", id, || {
                    graphblas_algo::bfs_levels(a, src)
                })?;
                Ok(Output::Levels(vec![l]))
            }
        }
    }

    /// Computes the reference answers for the current graph. For
    /// `stream` the reference then follows every repetition's inserts.
    pub fn prepare_reference(&mut self) {
        let adj = Adj::from_edges(self.edges.n, &self.edges.src, &self.edges.dst);
        let mut r = Reference {
            adj,
            ranks: Vec::new(),
            levels: Vec::new(),
            triangles: 0,
        };
        match self.kind {
            Kind::PageRank => r.ranks = oracle::pagerank(&r.adj, DAMPING, PAGERANK_ITERS),
            Kind::Bfs => {
                r.levels = self
                    .sources
                    .iter()
                    .map(|&s| oracle::bfs_levels(&r.adj, s))
                    .collect()
            }
            Kind::Triangles => r.triangles = oracle::triangles(&r.adj),
            Kind::Stream => {
                let st = self.stream.as_mut().expect("stream state");
                let mut d = DynAdj::from_adj(&r.adj);
                for &(u, v) in &st.held[..st.next] {
                    d.insert(u, v);
                    d.insert(v, u);
                }
                st.adj = Some(d);
            }
        }
        self.reference = Some(r);
    }

    /// Runs the reference algorithm of one repetition once, untimed here
    /// (the caller times it as `algo.ref_s_p50`).
    pub fn run_reference(&self) -> u64 {
        let r = self.reference.as_ref().expect("reference prepared");
        match self.kind {
            Kind::PageRank => oracle::pagerank(&r.adj, DAMPING, PAGERANK_ITERS).len() as u64,
            Kind::Bfs => self
                .sources
                .iter()
                .map(|&s| oracle::bfs_levels(&r.adj, s)[s] as u64)
                .sum(),
            Kind::Triangles => oracle::triangles(&r.adj),
            Kind::Stream => {
                let st = self.stream.as_ref().expect("stream state");
                let src = st.last.map_or(self.sources[0], |l| l.1);
                oracle::bfs_levels(st.adj.as_ref().expect("stream reference"), src)[src] as u64
            }
        }
    }

    /// Checks a repetition's output against the reference. For `stream`
    /// this also applies the repetition's inserts to the reference.
    pub fn check(&mut self, out: &Output) -> GrbResult<bool> {
        let r = self.reference.as_ref().expect("reference prepared");
        Ok(match (self.kind, out) {
            (Kind::PageRank, Output::Ranks(v)) => {
                let (i, x) = v.extract_tuples()?;
                oracle::l1_distance(&i, &x, &r.ranks) <= PAGERANK_L1_TOL
            }
            (Kind::Bfs, Output::Levels(ls)) => {
                let mut ok = ls.len() == r.levels.len();
                for (l, want) in ls.iter().zip(&r.levels) {
                    let (i, x) = l.extract_tuples()?;
                    ok &= oracle::levels_match(&i, &x, want);
                }
                ok
            }
            (Kind::Triangles, Output::Count(c)) => *c == r.triangles,
            (Kind::Stream, Output::Levels(ls)) => {
                let st = self.stream.as_mut().expect("stream state");
                let (start, src) = st.last.expect("a stream repetition ran");
                let d = st.adj.as_mut().expect("stream reference");
                for &(u, v) in &st.held[start..start + STREAM_BATCH] {
                    d.insert(u, v);
                    d.insert(v, u);
                }
                let want = oracle::bfs_levels(d, src);
                let (i, x) = ls[0].extract_tuples()?;
                oracle::levels_match(&i, &x, &want)
            }
            _ => false,
        })
    }

    /// Work of one repetition for `edges_per_s`: stored entries × 10 for
    /// `pagerank`, stored entries in the rows of reached vertices summed
    /// over the sources for `bfs`, stored entries for `triangles`, and
    /// stored entries inserted (both directions) for `stream`.
    pub fn work_per_rep(&self) -> f64 {
        let r = self.reference.as_ref().expect("reference prepared");
        match self.kind {
            Kind::PageRank => (r.adj.nnz() * PAGERANK_ITERS) as f64,
            Kind::Bfs => r
                .levels
                .iter()
                .map(|l| oracle::bfs_work(&r.adj, l).0)
                .sum::<u64>() as f64,
            Kind::Triangles => r.adj.nnz() as f64,
            Kind::Stream => (2 * STREAM_BATCH) as f64,
        }
    }

    /// Mean BFS depth from the workload's sources on the set-up graph.
    pub fn levels(&self) -> f64 {
        let r = self.reference.as_ref().expect("reference prepared");
        let depth = |s: usize| oracle::bfs_work(&r.adj, &oracle::bfs_levels(&r.adj, s)).1 as f64;
        self.sources.iter().map(|&s| depth(s)).sum::<f64>() / self.sources.len() as f64
    }

    /// The set-up graph's reference adjacency.
    pub fn adj(&self) -> &Adj {
        &self.reference.as_ref().expect("reference prepared").adj
    }

    /// The next batch a `stream` repetition would insert, or `None`.
    pub fn next_batch(&self) -> Option<&[(usize, usize)]> {
        let st = self.stream.as_ref()?;
        st.held.get(st.next..st.next + STREAM_BATCH)
    }

    /// Expected triangle count, when the workload is `triangles`.
    pub fn expected_triangles(&self) -> Option<u64> {
        (self.kind == Kind::Triangles)
            .then(|| self.reference.as_ref().map(|r| r.triangles))
            .flatten()
    }

    /// Vertex count.
    pub fn n(&self) -> usize {
        self.adj().n()
    }
}
