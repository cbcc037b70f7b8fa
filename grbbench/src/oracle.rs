//! Plain single-threaded references every repetition is checked against,
//! written without the GraphBLAS crates: a power iteration with the same
//! dangling handling as `algo::pagerank`, a queue BFS, and a
//! merge-intersection triangle count.

use std::collections::VecDeque;

/// Read access to a graph's out-neighbour lists.
pub trait Neighbors {
    fn n(&self) -> usize;
    fn row(&self, v: usize) -> &[usize];
}

/// Compressed adjacency with sorted, duplicate-free rows.
#[derive(Debug, Clone)]
pub struct Adj {
    offsets: Vec<usize>,
    nbrs: Vec<usize>,
}

impl Adj {
    /// Builds from a directed edge list; duplicate edges collapse.
    pub fn from_edges(n: usize, src: &[usize], dst: &[usize]) -> Adj {
        let mut offsets = vec![0usize; n + 1];
        for &s in src {
            offsets[s + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut nbrs = vec![0usize; src.len()];
        for (&s, &d) in src.iter().zip(dst) {
            nbrs[cursor[s]] = d;
            cursor[s] += 1;
        }
        // Sort and dedup each row, compacting in place.
        let mut out = 0;
        let mut start = 0;
        for i in 0..n {
            let end = offsets[i + 1];
            nbrs[start..end].sort_unstable();
            let row_start = out;
            for k in start..end {
                if out == row_start || nbrs[out - 1] != nbrs[k] {
                    nbrs[out] = nbrs[k];
                    out += 1;
                }
            }
            start = end;
            offsets[i + 1] = out;
        }
        nbrs.truncate(out);
        Adj { offsets, nbrs }
    }

    /// Stored entries.
    pub fn nnz(&self) -> usize {
        self.nbrs.len()
    }

    /// The CSR arrays (`indptr`, `indices`).
    pub fn csr_parts(&self) -> (&[usize], &[usize]) {
        (&self.offsets, &self.nbrs)
    }
}

impl Neighbors for Adj {
    fn n(&self) -> usize {
        self.offsets.len() - 1
    }
    fn row(&self, v: usize) -> &[usize] {
        &self.nbrs[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// Adjacency lists that accept inserted edges (the `stream` reference).
#[derive(Debug, Clone)]
pub struct DynAdj {
    rows: Vec<Vec<usize>>,
}

impl DynAdj {
    pub fn from_adj(a: &Adj) -> DynAdj {
        DynAdj {
            rows: (0..a.n()).map(|v| a.row(v).to_vec()).collect(),
        }
    }

    /// Adds `u → v` unless present.
    pub fn insert(&mut self, u: usize, v: usize) {
        if let Err(p) = self.rows[u].binary_search(&v) {
            self.rows[u].insert(p, v);
        }
    }
}

impl Neighbors for DynAdj {
    fn n(&self) -> usize {
        self.rows.len()
    }
    fn row(&self, v: usize) -> &[usize] {
        &self.rows[v]
    }
}

/// PageRank by power iteration, `iters` steps from the uniform vector,
/// with the rank of vertices without out-edges spread uniformly — the
/// arithmetic of `algo::pagerank` with `tol = 0`.
pub fn pagerank(g: &impl Neighbors, damping: f64, iters: usize) -> Vec<f64> {
    let n = g.n();
    let nf = n as f64;
    let mut rank = vec![1.0 / nf; n];
    let mut next = vec![0.0; n];
    for _ in 0..iters {
        let dangling: f64 = (0..n)
            .filter(|&v| g.row(v).is_empty())
            .map(|v| rank[v])
            .sum();
        let base = (1.0 - damping) / nf + damping * dangling / nf;
        next.fill(base);
        for (u, &r) in rank.iter().enumerate() {
            let row = g.row(u);
            if !row.is_empty() {
                let share = damping * (r / row.len() as f64);
                for &v in row {
                    next[v] += share;
                }
            }
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// BFS levels from `source` (`-1` for unreached vertices).
pub fn bfs_levels(g: &impl Neighbors, source: usize) -> Vec<i64> {
    let mut level = vec![-1i64; g.n()];
    let mut queue = VecDeque::from([source]);
    level[source] = 0;
    while let Some(u) = queue.pop_front() {
        for &v in g.row(u) {
            if level[v] < 0 {
                level[v] = level[u] + 1;
                queue.push_back(v);
            }
        }
    }
    level
}

/// Stored entries in the rows of the vertices a BFS reached (its TEPS
/// numerator) and the number of levels it took.
pub fn bfs_work(g: &impl Neighbors, levels: &[i64]) -> (u64, u64) {
    let edges = (0..g.n())
        .filter(|&v| levels[v] >= 0)
        .map(|v| g.row(v).len() as u64)
        .sum();
    let depth = levels.iter().copied().max().unwrap_or(-1) + 1;
    (edges, depth as u64)
}

/// Triangles of a symmetric graph without self-loops: for each edge
/// `v < u`, the common neighbours `w < v`, by merging sorted rows.
pub fn triangles(g: &impl Neighbors) -> u64 {
    let mut count = 0u64;
    for u in 0..g.n() {
        let ru = g.row(u);
        for &v in ru.iter().take_while(|&&v| v < u) {
            let rv = g.row(v);
            let (mut i, mut j) = (0, 0);
            while i < ru.len() && j < rv.len() && ru[i] < v && rv[j] < v {
                match ru[i].cmp(&rv[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        count += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    count
}

/// Whether sparse `(indices, values)` BFS output equals `want` exactly:
/// an entry for every reached vertex and none for the others.
pub fn levels_match(indices: &[usize], values: &[i64], want: &[i64]) -> bool {
    let reached = want.iter().filter(|&&l| l >= 0).count();
    indices.len() == reached
        && indices
            .iter()
            .zip(values)
            .all(|(&i, &l)| want.get(i).is_some_and(|&w| w == l))
}

/// L1 distance between sparse `(indices, values)` and dense `want`,
/// absent entries counting as 0.
pub fn l1_distance(indices: &[usize], values: &[f64], want: &[f64]) -> f64 {
    let mut got = vec![0.0; want.len()];
    for (&i, &x) in indices.iter().zip(values) {
        if i >= want.len() {
            return f64::INFINITY;
        }
        got[i] = x;
    }
    got.iter().zip(want).map(|(a, b)| (a - b).abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(n: usize, edges: &[(usize, usize)]) -> Adj {
        let (s, d): (Vec<_>, Vec<_>) = edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).unzip();
        Adj::from_edges(n, &s, &d)
    }

    #[test]
    fn adjacency_dedups_and_sorts() {
        let a = Adj::from_edges(3, &[2, 0, 0, 0], &[1, 2, 1, 2]);
        assert_eq!(a.row(0), &[1, 2]);
        assert_eq!(a.row(1), &[] as &[usize]);
        assert_eq!(a.row(2), &[1]);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn small_graph_references() {
        // K4 minus one edge, plus an isolated vertex: 2 triangles.
        let g = sym(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]);
        assert_eq!(triangles(&g), 2);
        assert_eq!(bfs_levels(&g, 1), vec![1, 0, 1, 2, -1]);
        let ranks = pagerank(&g, 0.85, 50);
        assert!((ranks.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let mut d = DynAdj::from_adj(&g);
        d.insert(3, 4);
        d.insert(4, 3);
        d.insert(4, 3);
        assert_eq!(bfs_levels(&d, 1), vec![1, 0, 1, 2, 3]);
        assert_eq!(d.row(4), &[3]);
    }

    #[test]
    fn comparisons() {
        assert!(levels_match(&[0, 2], &[0, 1], &[0, -1, 1]));
        assert!(!levels_match(&[0], &[0], &[0, -1, 1]));
        assert!(!levels_match(&[0, 2], &[0, 2], &[0, -1, 1]));
        assert_eq!(l1_distance(&[1], &[0.5], &[0.25, 0.5]), 0.25);
    }
}
