//! Seeded inputs. Everything the program receives is derived from the
//! benchmark's `--seed`; the same seed gives byte-identical inputs.

use graphblas_exec::rng::{SliceRandom, StdRng};
use graphblas_io::EdgeList;

/// RMAT edges generated per vertex.
pub const EDGE_FACTOR: usize = 16;

/// Independent sub-seed for one use of the run seed (splitmix64 finalizer).
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The workload graph: RMAT at `scale` with edge factor 16, self-loops
/// removed, symmetrised. Duplicates remain; `build` collapses them.
pub fn graph(scale: u32, seed: u64) -> EdgeList {
    graphblas_io::rmat(scale, EDGE_FACTOR, seed)
        .without_self_loops()
        .undirected()
}

/// FNV-1a over the vertex count and both endpoint arrays (as `u64` LE).
pub fn fingerprint(e: &EdgeList) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(e.n as u64);
    for (&s, &d) in e.src.iter().zip(&e.dst) {
        eat(s as u64);
        eat(d as u64);
    }
    h
}

/// The `stream` split: a base graph and the undirected edges held back
/// from it, in the seeded order they will be inserted.
pub struct Holdback {
    /// Symmetric base graph without the held-back edges, no duplicates.
    pub base: EdgeList,
    /// Held-back undirected edges `(u, v)` with `u < v`.
    pub held: Vec<(usize, usize)>,
}

/// Holds back `percent`% of the distinct undirected edges of `e`.
pub fn hold_back(e: &EdgeList, percent: usize, seed: u64) -> Holdback {
    let mut pairs: Vec<(usize, usize)> = e
        .src
        .iter()
        .zip(&e.dst)
        .map(|(&s, &d)| (s.min(d), s.max(d)))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs.shuffle(&mut StdRng::seed_from_u64(sub_seed(seed, 1)));
    let held = pairs.split_off(pairs.len() - pairs.len() * percent / 100);
    let (src, dst) = pairs.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).unzip();
    Holdback {
        base: EdgeList { n: e.n, src, dst },
        held,
    }
}

/// `k` seeded vertices for which `keep` holds (e.g. non-isolated ones).
pub fn pick_vertices(n: usize, k: usize, seed: u64, keep: impl Fn(usize) -> bool) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let v = rng.gen_range(0..n);
        if keep(v) {
            out.push(v);
        }
    }
    out
}

/// `k` seeded vertex pairs `(u, v)` with `u != v`.
pub fn random_pairs(n: usize, k: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            out.push((u, v));
        }
    }
    out
}
