//! Async-drain knobs of the nonblocking op DAG (paper §III).
//!
//! In a nonblocking context the pending engine (see [`crate::pending`])
//! queues operations as [`Stage::Node`] stages whose numeric kernels can
//! absorb neighbouring map stages (the cross-*operation* fusion latitude
//! §III grants a nonblocking implementation); a blocking context runs
//! every operation at its call. The two modes are the paper's; this
//! module only tunes when a nonblocking queue drains in the background:
//!
//! * `GRB_ASYNC_DRAIN=0` — keep deferral lazy but never hand a drain to
//!   the worker pool; drains happen only when a read/wait forces them.
//! * `GRB_ASYNC_DRAIN_DEPTH=<n>` — queue depth at which a container
//!   offers its drain to `exec::pool` (default 8). The threshold keeps
//!   short op chains intact so node stages still find trailing maps to
//!   fuse; only long backlogs drain eagerly in the background.
//!
//! Each knob also has a programmatic override (`set_async_drain`,
//! `set_async_drain_depth`) because the environment is read once per
//! process — tests flip them many times in one run.
//!
//! [`Stage::Node`]: crate::pending::Stage::Node

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Tri-state programmatic override: 0 = follow env, 1 = forced off,
/// 2 = forced on.
// grbsa: protocol=config-flag — independently published mode flag; no
// other memory is ordered against it.
static ASYNC_FORCE: AtomicU8 = AtomicU8::new(0);
/// Programmatic drain-depth override; `usize::MAX` means "follow env".
// grbsa: protocol=config-flag — tuning knob read at enqueue time only.
static DEPTH_FORCE: AtomicUsize = AtomicUsize::new(usize::MAX);

fn env_async_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| std::env::var("GRB_ASYNC_DRAIN").map_or(true, |v| v != "0"))
}

fn env_async_depth() -> usize {
    static DEPTH: OnceLock<usize> = OnceLock::new();
    *DEPTH.get_or_init(|| {
        std::env::var("GRB_ASYNC_DRAIN_DEPTH")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(8)
    })
}

/// Whether deep pending queues may drain asynchronously on the pool.
pub fn async_drain_enabled() -> bool {
    match ASYNC_FORCE.load(Ordering::SeqCst) {
        1 => false,
        2 => true,
        _ => env_async_enabled(),
    }
}

/// Forces async drains on/off (`None` follows `GRB_ASYNC_DRAIN`).
pub fn set_async_drain(mode: Option<bool>) {
    ASYNC_FORCE.store(
        mode.map_or(0, |on| if on { 2 } else { 1 }),
        Ordering::SeqCst,
    );
}

/// Queue depth at which a container offers its backlog to the pool.
pub fn async_drain_depth() -> usize {
    let forced = DEPTH_FORCE.load(Ordering::SeqCst);
    if forced != usize::MAX {
        forced
    } else {
        env_async_depth()
    }
}

/// Overrides the async-drain depth threshold (`None` follows
/// `GRB_ASYNC_DRAIN_DEPTH`).
pub fn set_async_drain_depth(depth: Option<usize>) {
    DEPTH_FORCE.store(depth.unwrap_or(usize::MAX), Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_modes_override_env() {
        set_async_drain(Some(false));
        assert!(!async_drain_enabled());
        set_async_drain(None);

        set_async_drain_depth(Some(3));
        assert_eq!(async_drain_depth(), 3);
        set_async_drain_depth(None);
    }
}
