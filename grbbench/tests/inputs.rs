//! The same seed yields byte-identical inputs; another seed other inputs.

use grbbench::inputs::{fingerprint, graph, hold_back};

fn held_hash(seed: u64) -> u64 {
    let hb = hold_back(&graph(10, seed), 10, seed);
    let flat = graphblas_io::EdgeList {
        n: hb.base.n,
        src: hb.held.iter().map(|e| e.0).collect(),
        dst: hb.held.iter().map(|e| e.1).collect(),
    };
    fingerprint(&hb.base) ^ fingerprint(&flat).rotate_left(1)
}

#[test]
fn seeded_inputs_hash_identically() {
    for seed in [1u64, 2] {
        assert_eq!(fingerprint(&graph(10, seed)), fingerprint(&graph(10, seed)));
        assert_eq!(held_hash(seed), held_hash(seed));
    }
    assert_ne!(fingerprint(&graph(10, 1)), fingerprint(&graph(10, 2)));
    assert_ne!(held_hash(1), held_hash(2));
}

#[test]
fn pinned_input_hashes() {
    // Changing the generator changes every workload's inputs, and results
    // measured before and after the change stop being comparable.
    let got: Vec<String> = [1u64, 2]
        .iter()
        .map(|&s| format!("{:016x}/{:016x}", fingerprint(&graph(10, s)), held_hash(s)))
        .collect();
    assert_eq!(
        got,
        [
            "2944ac071863b135/096c04d587bff921",
            "ed291226b3fb36a1/044b5af4807bb399"
        ]
    );
}
