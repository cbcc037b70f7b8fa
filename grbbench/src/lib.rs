//! `grbbench` — the repository benchmark.
//!
//! Four graph workloads (`pagerank`, `bfs`, `triangles`, `stream`) drive
//! the public API of the workspace crates in a closed loop: one process,
//! one caller thread, the next repetition starting when the previous one
//! returns. Every repetition's output is checked against a plain
//! single-threaded reference in [`oracle`].
//!
//! * `--trace 0` measures the end-to-end metrics with telemetry off.
//! * `--trace 1` is the separate traced run: the benchmark's own spans
//!   around each public call ([`spans`]), the counters
//!   `graphblas_obs::snapshot()` exports, isolated layer probes
//!   ([`probes`]) and the observation-cost arms.
//!
//! The layers are the workspace crates: `io` (generators), `core`
//! (containers, operations, the pending/DAG engine, dispatch, format and
//! transpose-cache state), `sparse` (storage and kernels), `exec` (pool
//! and workspace), `algo` and `obs`. Spans are recorded only here, around
//! calls into those crates; the program itself is not instrumented.

pub mod inputs;
pub mod machine;
pub mod oracle;
pub mod probes;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;
