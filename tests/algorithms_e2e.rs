//! End-to-end cross-validation of the algorithm layer on generated
//! graphs: different algorithms constrain each other (BFS vs unit-weight
//! SSSP, components vs BFS floods, triangles vs clustering coefficients).

use std::collections::BTreeSet;

use graphblas::algo::{
    bfs_levels, bfs_parents, connected_components, k_core, k_truss,
    local_clustering_coefficient, maximal_independent_set, sssp_bellman_ford, triangle_count,
};
use graphblas::io::{erdos_renyi, grid, rmat};
use graphblas::operations::apply;
use graphblas::{no_mask, Descriptor, Matrix, UnaryOp};

fn symmetric_rmat(scale: u32, seed: u64) -> Matrix<bool> {
    rmat(scale, 6, seed)
        .without_self_loops()
        .undirected()
        .to_bool_matrix()
        .unwrap()
}

#[test]
fn bfs_levels_equal_unit_weight_sssp() {
    let a = symmetric_rmat(7, 11);
    let w = Matrix::<f64>::new(a.nrows(), a.ncols()).unwrap();
    apply(
        &w,
        no_mask(),
        None,
        &UnaryOp::<bool, f64>::new("unit", |_| 1.0),
        &a,
        &Descriptor::default(),
    )
    .unwrap();
    let levels = bfs_levels(&a, 0).unwrap();
    let dist = sssp_bellman_ford(&w, 0).unwrap();
    assert_eq!(levels.nvals().unwrap(), dist.nvals().unwrap());
    for v in 0..a.nrows() {
        let l = levels.extract_element(v).unwrap();
        let d = dist.extract_element(v).unwrap();
        match (l, d) {
            (Some(l), Some(d)) => assert_eq!(l as f64, d, "vertex {v}"),
            (None, None) => {}
            other => panic!("vertex {v} reachability disagrees: {other:?}"),
        }
    }
}

#[test]
fn bfs_flood_size_matches_component_size() {
    let a = erdos_renyi(120, 150, 5)
        .without_self_loops()
        .undirected()
        .to_bool_matrix()
        .unwrap();
    let comp = connected_components(&a).unwrap();
    let label0 = comp.extract_element(0).unwrap().unwrap();
    let component_size = (0..120)
        .filter(|&v| comp.extract_element(v).unwrap().unwrap() == label0)
        .count();
    let levels = bfs_levels(&a, 0).unwrap();
    assert_eq!(levels.nvals().unwrap(), component_size);
}

#[test]
fn parents_and_levels_are_consistent_on_rmat() {
    let a = symmetric_rmat(6, 3);
    let levels = bfs_levels(&a, 1).unwrap();
    let parents = bfs_parents(&a, 1).unwrap();
    assert_eq!(levels.nvals().unwrap(), parents.nvals().unwrap());
    for v in 0..a.nrows() {
        if v == 1 {
            continue;
        }
        if let Some(p) = parents.extract_element(v).unwrap() {
            let lv = levels.extract_element(v).unwrap().unwrap();
            let lp = levels.extract_element(p as usize).unwrap().unwrap();
            assert_eq!(lv, lp + 1, "vertex {v}: parent edge must drop one level");
            assert!(a.extract_element(p as usize, v).unwrap().is_some());
        }
    }
}

#[test]
fn grid_has_no_triangles_and_known_structure() {
    let g = grid(6, 7).to_bool_matrix().unwrap();
    assert_eq!(triangle_count(&g).unwrap(), 0);
    // A grid is connected: one component.
    let comp = connected_components(&g).unwrap();
    for v in 0..g.nrows() {
        assert_eq!(comp.extract_element(v).unwrap(), Some(0));
    }
    // Interior of a grid is a 2-core; the whole grid survives k = 2.
    let core2 = k_core(&g, 2).unwrap();
    assert_eq!(core2.nvals().unwrap(), g.nrows());
    // Nothing survives k = 3 in a grid (corners peel, then everything).
    let core3 = k_core(&g, 3).unwrap();
    assert_eq!(core3.nvals().unwrap(), 0);
}

#[test]
fn mis_is_independent_and_maximal_on_rmat() {
    let a = symmetric_rmat(6, 21);
    let n = a.nrows();
    let mis = maximal_independent_set(&a, 123).unwrap();
    let member: Vec<bool> = (0..n)
        .map(|i| mis.extract_element(i).unwrap().unwrap_or(false))
        .collect();
    for i in 0..n {
        for j in 0..n {
            if member[i] && member[j] {
                assert!(
                    a.extract_element(i, j).unwrap().is_none(),
                    "MIS members {i},{j} adjacent"
                );
            }
        }
    }
    for v in 0..n {
        if !member[v] {
            let covered =
                (0..n).any(|u| member[u] && a.extract_element(v, u).unwrap().is_some());
            assert!(covered, "vertex {v} uncovered — MIS not maximal");
        }
    }
}

#[test]
fn triangle_count_scales_with_known_construction() {
    // Two K4 blocks joined by one edge: 2 · C(4,3) = 8 triangles.
    let mut edges = Vec::new();
    for base in [0usize, 4] {
        for i in 0..4 {
            for j in (i + 1)..4 {
                edges.push((base + i, base + j));
            }
        }
    }
    edges.push((3, 4));
    let a = Matrix::<bool>::new(8, 8).unwrap();
    let mut rows = Vec::new();
    let mut cols = Vec::new();
    for &(u, v) in &edges {
        rows.push(u);
        cols.push(v);
        rows.push(v);
        cols.push(u);
    }
    a.build(
        &rows,
        &cols,
        &vec![true; rows.len()],
        Some(&graphblas::BinaryOp::lor()),
    )
    .unwrap();
    assert_eq!(triangle_count(&a).unwrap(), 8);
}

#[test]
fn algorithms_run_inside_thread_limited_context() {
    use graphblas::{global_context, Context, ContextOptions, Mode};
    let ctx = Context::new(
        &global_context(),
        Mode::Blocking,
        ContextOptions {
            nthreads: Some(1),
            ..Default::default()
        },
    );
    let a = symmetric_rmat(6, 2);
    a.switch_context(&ctx).unwrap();
    // The whole pipeline must work single-threaded with identical results.
    let t1 = triangle_count(&a).unwrap();
    a.switch_context(&global_context()).unwrap();
    let t2 = triangle_count(&a).unwrap();
    assert_eq!(t1, t2);
}

/// Sorted adjacency lists of a symmetric boolean matrix.
fn adjacency(a: &Matrix<bool>) -> Vec<Vec<usize>> {
    let (rows, cols, _) = a.extract_tuples().unwrap();
    let mut adj = vec![Vec::new(); a.nrows()];
    for (i, j) in rows.into_iter().zip(cols) {
        adj[i].push(j);
    }
    for row in &mut adj {
        row.sort_unstable();
    }
    adj
}

/// Size of the intersection of two sorted lists.
fn common(x: &[usize], y: &[usize]) -> u64 {
    let (mut p, mut q, mut n) = (0, 0, 0);
    while p < x.len() && q < y.len() {
        match x[p].cmp(&y[q]) {
            std::cmp::Ordering::Less => p += 1,
            std::cmp::Ordering::Greater => q += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                p += 1;
                q += 1;
            }
        }
    }
    n
}

/// Naive k-truss: drop every edge in fewer than `k − 2` triangles of
/// the surviving graph until none is dropped. Returns the ordered edges.
fn naive_k_truss(adj: &[Vec<usize>], k: u64) -> BTreeSet<(usize, usize)> {
    let mut adj = adj.to_vec();
    loop {
        let weak: Vec<(usize, usize)> = (0..adj.len())
            .flat_map(|u| adj[u].iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| common(&adj[u], &adj[v]) < k - 2)
            .collect();
        if weak.is_empty() {
            return (0..adj.len())
                .flat_map(|u| adj[u].iter().map(move |&v| (u, v)))
                .collect();
        }
        for (u, v) in weak {
            adj[u].retain(|&w| w != v);
        }
    }
}

#[test]
fn triangle_truss_and_lcc_match_naive_intersection_counts() {
    for seed in [5, 17] {
        let a = symmetric_rmat(10, seed);
        let adj = adjacency(&a);
        let n = adj.len();

        // Each triangle is seen once from each of its three edges u < v.
        let support: u64 = (0..n)
            .flat_map(|u| adj[u].iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
            .map(|(u, v)| common(&adj[u], &adj[v]))
            .sum();
        assert!(support > 0, "seed {seed}: graph has no triangles");
        assert_eq!(triangle_count(&a).unwrap(), support / 3, "seed {seed}");

        for k in [3, 4] {
            let (rows, cols, _) = k_truss(&a, k).unwrap().extract_tuples().unwrap();
            let got: BTreeSet<(usize, usize)> = rows.into_iter().zip(cols).collect();
            assert_eq!(got, naive_k_truss(&adj, k), "seed {seed}, k = {k}");
        }

        let lcc = local_clustering_coefficient(&a).unwrap();
        for v in 0..n {
            let closed: u64 = adj[v].iter().map(|&u| common(&adj[u], &adj[v])).sum();
            let deg = adj[v].len() as u64;
            let expect = (closed > 0).then(|| closed as f64 / (deg * (deg - 1)) as f64);
            assert_eq!(lcc.extract_element(v).unwrap(), expect, "seed {seed}, vertex {v}");
        }
    }
}
