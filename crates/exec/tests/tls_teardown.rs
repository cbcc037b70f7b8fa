//! Thread-local teardown safety: a thread that exits while it still holds
//! cached workspaces, with decision events on, must exit cleanly.
//!
//! The workspace cache's destructor records a `workspace-trim` event, and
//! thread-local destructors run in an unspecified order, so the event
//! ring it records into may already be gone by then. A telemetry access
//! that panics there aborts the whole process ("thread local panicked on
//! drop"), so a regression here kills this test binary instead of
//! failing one assertion.
//!
//! Runs as its own integration-test binary because the telemetry flags
//! are process-global.

use graphblas_exec::workspace::{checkout, force_reuse, BitSet, MarkTable};
use graphblas_obs::events::{self, Reason};

#[test]
fn thread_exit_with_cached_workspaces_and_events_on() {
    graphblas_obs::set_enabled(true);
    events::set_events(true);
    force_reuse(Some(true));
    let trims_before = events::count(Reason::WorkspaceTrim);
    for _ in 0..4 {
        std::thread::spawn(|| {
            // The first checkout creates the thread's workspace cache
            // before its event ring, so at thread exit the ring is torn
            // down first and the cache's trim event finds it gone.
            drop(checkout::<MarkTable>(64));
            drop(checkout::<BitSet>(64));
        })
        .join()
        .expect("a worker thread must exit cleanly");
    }
    // Every exit still reached its trim decision (the lifetime count is
    // kept outside the ring); only the ring record may be dropped.
    assert!(
        events::count(Reason::WorkspaceTrim) >= trims_before + 4,
        "each exiting thread must trim its cached workspaces"
    );
    force_reuse(None);
    events::set_events(false);
    graphblas_obs::set_enabled(false);
}
