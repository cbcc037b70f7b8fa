//! Per-thread, generation-stamped kernel workspaces.
//!
//! The hot kernels (`spgemm`'s sparse accumulator, `vxm`'s per-task dense
//! accumulator, `spmv`'s input densification table) all need O(n) scratch
//! that used to be `vec![...; n]`-allocated on every call — a 19-iteration
//! PageRank paid 19×k accumulator allocations. This module lets kernels
//! *check out* scratch from a per-thread cache and return it on drop, so an
//! iterative algorithm allocates its scratch once per worker thread.
//!
//! Correctness rests on generation stamping: a slot's contents are only
//! observable when its mark equals the workspace's current generation, and
//! every checkout (and every [`DenseAcc::begin_pass`]) bumps the
//! generation. Stale data from a previous kernel can therefore never leak
//! into a later one, and clearing stays O(touched), not O(n).
//!
//! Checkout *removes* the workspace from the thread's cache, so two
//! kernels interleaved on one thread get distinct workspaces — the second
//! checkout simply allocates fresh. Reuse statistics report into
//! `graphblas-obs` (`workspace.checkouts` / `hits` / `bytes_reused`) when
//! telemetry is enabled.
//!
//! Reuse can be disabled with `GRB_WORKSPACE=0` (kernels then allocate
//! fresh scratch per checkout, the pre-cache behavior) or overridden
//! programmatically via [`force_reuse`] — the ablation knob the bench
//! harness uses to measure the cache's payoff.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A scratch structure that can live in the per-thread cache.
pub trait Reusable: Sized + 'static {
    /// A zero-capacity instance (grown on first [`Reusable::prepare`]).
    fn fresh() -> Self;
    /// Sizes the workspace for a problem of size `n` and starts a new
    /// generation, invalidating all previously visible entries.
    fn prepare(&mut self, n: usize);
    /// Currently allocated buffer bytes (reuse accounting).
    fn reusable_bytes(&self) -> u64;
}

// Reuse-mode override: 0 = follow GRB_WORKSPACE, 1 = forced on, 2 = off.
//
// Atomics audit (grbsa): this is the crate's lone atomic and it is a
// `mode-flag` under the protocol table — an advisory toggle that guards
// no dependent data, flipped only at bench/test boundaries. Both sites
// use `SeqCst`, which is stronger than the protocol requires (the flag
// is cold: one load per checkout), so no protocol annotation is needed —
// only relaxed sites must declare their protocol.
static REUSE_OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn env_default() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| std::env::var("GRB_WORKSPACE").map_or(true, |v| v != "0"))
}

/// Whether checkouts may be served from (and returned to) the cache.
pub fn reuse_enabled() -> bool {
    match REUSE_OVERRIDE.load(Ordering::SeqCst) {
        1 => true,
        2 => false,
        _ => env_default(),
    }
}

/// Overrides the `GRB_WORKSPACE` setting (`None` restores it) — the
/// ablation hook for benches and tests.
pub fn force_reuse(on: Option<bool>) {
    let v = match on {
        None => 0,
        Some(true) => 1,
        Some(false) => 2,
    };
    REUSE_OVERRIDE.store(v, Ordering::SeqCst);
}

/// The per-thread cache. Each entry remembers the buffer bytes it
/// reported to the obs workspace memory gauge at insert time (0 when
/// telemetry was off), so removals subtract exactly what was added —
/// the gauge cannot drift across telemetry toggles.
#[derive(Default)]
struct ThreadCache {
    map: HashMap<TypeId, (Box<dyn Any>, u64)>,
    /// Monotonic checkout ordinal for this thread: decision events carry
    /// it so an explain log shows each checkout's position in the
    /// thread's reuse history.
    generation: u64,
}

impl ThreadCache {
    fn release_all(&mut self) {
        let recorded: u64 = self.map.values().map(|(_, b)| b).sum();
        graphblas_obs::mem::workspace().sub(recorded);
        if !self.map.is_empty() && graphblas_obs::events::on() {
            let entries = self.map.len() as u64;
            let trim = graphblas_obs::Decision::WorkspaceTrim {
                entries,
                bytes: recorded,
            };
            graphblas_obs::decide("workspace", 0, trim);
        }
        self.map.clear();
    }
}

impl Drop for ThreadCache {
    fn drop(&mut self) {
        self.release_all();
    }
}

thread_local! {
    static CACHE: RefCell<ThreadCache> = RefCell::new(ThreadCache::default());
}

/// Drops every workspace cached by the current thread (test isolation).
pub fn clear_thread_cache() {
    CACHE.with(|c| c.borrow_mut().release_all());
}

/// RAII handle to a checked-out workspace; returns it to the thread's
/// cache on drop.
pub struct Checkout<T: Reusable> {
    inner: Option<T>,
}

impl<T: Reusable> Deref for Checkout<T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("live checkout holds a workspace")
    }
}

impl<T: Reusable> DerefMut for Checkout<T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("live checkout holds a workspace")
    }
}

impl<T: Reusable> Drop for Checkout<T> {
    fn drop(&mut self) {
        if let Some(ws) = self.inner.take() {
            if reuse_enabled() {
                // During thread-local teardown the cache may be gone; the
                // workspace is then simply freed.
                let _ = CACHE.try_with(|c| {
                    let recorded = if graphblas_obs::enabled() {
                        let b = ws.reusable_bytes();
                        graphblas_obs::mem::workspace().add(b);
                        b
                    } else {
                        0
                    };
                    let replaced = c
                        .borrow_mut()
                        .map
                        .insert(TypeId::of::<T>(), (Box::new(ws), recorded));
                    if let Some((_, old)) = replaced {
                        graphblas_obs::mem::workspace().sub(old);
                    }
                });
            }
        }
    }
}

/// Checks a workspace of type `T` out of the current thread's cache (or
/// allocates a fresh one), prepared for a problem of size `n`.
pub fn checkout<T: Reusable>(n: usize) -> Checkout<T> {
    let cached: Option<T> = if reuse_enabled() {
        CACHE
            .with(|c| c.borrow_mut().map.remove(&TypeId::of::<T>()))
            .and_then(|(b, recorded)| {
                graphblas_obs::mem::workspace().sub(recorded);
                b.downcast::<T>().ok()
            })
            .map(|b| *b)
    } else {
        None
    };
    let hit = cached.is_some();
    let mut ws = cached.unwrap_or_else(T::fresh);
    if graphblas_obs::enabled() {
        // The checkout ordinal only feeds the event: skip the TLS bump
        // when events are off.
        let generation = if graphblas_obs::events::on() {
            CACHE.with(|c| {
                let mut c = c.borrow_mut();
                c.generation += 1;
                c.generation
            })
        } else {
            0
        };
        let checkout = graphblas_obs::Decision::Workspace {
            ty: std::any::type_name::<T>(),
            hit,
            n: n as u64,
            bytes: if hit { ws.reusable_bytes() } else { 0 },
            generation,
        };
        graphblas_obs::decide("workspace", 0, checkout);
    }
    ws.prepare(n);
    Checkout { inner: Some(ws) }
}

/// Generation-stamped dense accumulator: the SPA of Gustavson-style
/// kernels. Entry `j` is visible iff `mark[j]` equals the current
/// generation; `touched` lists the visible slots in insertion order.
pub struct DenseAcc<Z: 'static> {
    mark: Vec<u32>,
    gen: u32,
    vals: Vec<Option<Z>>,
    touched: Vec<usize>,
}

impl<Z: 'static> DenseAcc<Z> {
    /// Starts a new accumulation pass: all entries become invisible, in
    /// O(1) (O(n) only once per 2^32 passes, at generation wraparound).
    pub fn begin_pass(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Wrapped: the stamp array is stale; reset it once per 2^32
            // passes so an ancient mark can never alias the new gen.
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.gen = 1;
        }
        self.touched.clear();
    }

    /// Inserts `v` at `j`, or combines it with the entry already visible
    /// there.
    pub fn upsert(&mut self, j: usize, v: Z, combine: impl FnOnce(Z, Z) -> Z) {
        if self.mark[j] == self.gen {
            let merged = match self.vals[j].take() {
                Some(cur) => combine(cur, v),
                None => v,
            };
            self.vals[j] = Some(merged);
        } else {
            self.mark[j] = self.gen;
            self.vals[j] = Some(v);
            self.touched.push(j);
        }
    }

    /// The entry visible at `j` this pass, if any.
    pub fn get(&self, j: usize) -> Option<&Z> {
        if self.mark[j] == self.gen {
            self.vals[j].as_ref()
        } else {
            None
        }
    }

    /// Number of slots touched this pass.
    pub fn touched_len(&self) -> usize {
        self.touched.len()
    }

    /// Sorts the touched list (for kernels emitting sorted output).
    pub fn sort_touched(&mut self) {
        self.touched.sort_unstable();
    }

    /// Moves every visible entry out, calling `f(j, v)` in touched order,
    /// and ends the pass. Pair with [`Self::sort_touched`] for sorted
    /// emission.
    pub fn drain_pass(&mut self, mut f: impl FnMut(usize, Z)) {
        let touched = std::mem::take(&mut self.touched);
        for &j in &touched {
            if let Some(v) = self.vals[j].take() {
                f(j, v);
            }
        }
        // Keep the allocation; begin_pass will clear it.
        self.touched = touched;
        self.touched.clear();
    }
}

impl<Z: 'static> Reusable for DenseAcc<Z> {
    fn fresh() -> Self {
        DenseAcc {
            mark: Vec::new(),
            gen: 0,
            vals: Vec::new(),
            touched: Vec::new(),
        }
    }

    fn prepare(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
            self.vals.resize_with(n, || None);
        }
        self.begin_pass();
    }

    fn reusable_bytes(&self) -> u64 {
        (self.mark.capacity() * std::mem::size_of::<u32>()
            + self.vals.capacity() * std::mem::size_of::<Option<Z>>()
            + self.touched.capacity() * std::mem::size_of::<usize>()) as u64
    }
}

/// Generation-stamped index table: maps a column index to a position in
/// some external array (the `spmv` input-densification table, without the
/// borrowed references that would pin a lifetime).
pub struct MarkTable {
    mark: Vec<u32>,
    pos: Vec<usize>,
    gen: u32,
}

impl MarkTable {
    /// Records position `p` for index `j` in the current pass.
    pub fn set(&mut self, j: usize, p: usize) {
        self.mark[j] = self.gen;
        self.pos[j] = p;
    }

    /// The position recorded for `j` this pass, if any.
    #[inline]
    pub fn get(&self, j: usize) -> Option<usize> {
        if self.mark[j] == self.gen {
            Some(self.pos[j])
        } else {
            None
        }
    }
}

impl Reusable for MarkTable {
    fn fresh() -> Self {
        MarkTable {
            mark: Vec::new(),
            pos: Vec::new(),
            gen: 0,
        }
    }

    fn prepare(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
            self.pos.resize(n, 0);
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.gen = 1;
        }
    }

    fn reusable_bytes(&self) -> u64 {
        (self.mark.capacity() * std::mem::size_of::<u32>()
            + self.pos.capacity() * std::mem::size_of::<usize>()) as u64
    }
}

/// Generation-stamped index set (the mask-allowed columns of masked
/// SpGEMM). Like [`MarkTable`] without the positions.
pub struct MarkSet {
    mark: Vec<u32>,
    gen: u32,
}

impl MarkSet {
    /// Starts a new pass: the set becomes empty in O(1).
    pub fn begin_pass(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.gen = 1;
        }
    }

    /// Adds `j` to the set for the current pass.
    pub fn insert(&mut self, j: usize) {
        self.mark[j] = self.gen;
    }

    /// Whether `j` is in the set this pass.
    #[inline]
    pub fn contains(&self, j: usize) -> bool {
        self.mark[j] == self.gen
    }
}

impl Reusable for MarkSet {
    fn fresh() -> Self {
        MarkSet {
            mark: Vec::new(),
            gen: 0,
        }
    }

    fn prepare(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        self.begin_pass();
    }

    fn reusable_bytes(&self) -> u64 {
        (self.mark.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

/// Word-packed bit set with a touched-word list: membership is one load
/// plus a mask, and clearing between passes costs O(words touched)
/// rather than O(n). Eight entries per byte — 32× denser than
/// [`MarkSet`]'s u32 generation stamps — so the mask-allowed column set
/// of masked SpGEMM stays cache-resident across the inner flop loop.
pub struct BitSet {
    words: Vec<u64>,
    touched: Vec<usize>,
}

impl BitSet {
    /// Starts a new pass: clears only the words the last pass touched.
    pub fn begin_pass(&mut self) {
        for &w in &self.touched {
            self.words[w] = 0;
        }
        self.touched.clear();
    }

    /// Adds `j` to the set for the current pass.
    #[inline]
    pub fn insert(&mut self, j: usize) {
        let w = j / 64;
        // `words[w] != 0` implies `w` is already on the touched list, so
        // `begin_pass` never misses a set bit.
        if self.words[w] == 0 {
            self.touched.push(w);
        }
        self.words[w] |= 1u64 << (j % 64);
    }

    /// Whether `j` is in the set this pass.
    #[inline]
    pub fn contains(&self, j: usize) -> bool {
        self.words[j / 64] & (1u64 << (j % 64)) != 0
    }
}

impl Reusable for BitSet {
    fn fresh() -> Self {
        BitSet {
            words: Vec::new(),
            touched: Vec::new(),
        }
    }

    fn prepare(&mut self, n: usize) {
        let nw = n.div_ceil(64);
        if self.words.len() < nw {
            self.words.resize(nw, 0);
        }
        self.begin_pass();
    }

    fn reusable_bytes(&self) -> u64 {
        (self.words.capacity() * std::mem::size_of::<u64>()
            + self.touched.capacity() * std::mem::size_of::<usize>()) as u64
    }
}

/// Dense `u32` slot table that is all-zero whenever it is checked out: a
/// kernel sets the slots it needs and zeroes them again before calling
/// [`SlotTable::finish`], so no access pays a generation-stamp test. A
/// table given back unfinished (a panic mid-kernel) is zeroed in full by
/// the next `prepare`.
pub struct SlotTable {
    slots: Vec<u32>,
    clean: bool,
}

impl SlotTable {
    /// The slots, all zero on entry. The caller must zero every slot it
    /// sets and then call [`Self::finish`].
    pub fn slots(&mut self) -> &mut [u32] {
        self.clean = false;
        &mut self.slots
    }

    /// Declares every slot zero again.
    pub fn finish(&mut self) {
        debug_assert!(self.slots.iter().all(|&s| s == 0), "slot left set");
        self.clean = true;
    }
}

impl Reusable for SlotTable {
    fn fresh() -> Self {
        SlotTable {
            slots: Vec::new(),
            clean: true,
        }
    }

    fn prepare(&mut self, n: usize) {
        if !self.clean {
            self.slots.iter_mut().for_each(|s| *s = 0);
            self.clean = true;
        }
        if self.slots.len() < n {
            self.slots.resize(n, 0);
        }
    }

    fn reusable_bytes(&self) -> u64 {
        (self.slots.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the global reuse override or inspect
    /// the thread cache.
    fn serialize() -> std::sync::MutexGuard<'static, ()> {
        static M: std::sync::Mutex<()> = std::sync::Mutex::new(());
        M.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn checkout_reuses_and_restamps() {
        let _g = serialize();
        force_reuse(Some(true));
        clear_thread_cache();
        {
            let mut acc = checkout::<DenseAcc<u64>>(8);
            acc.upsert(2, 10, |a, b| a + b);
            acc.upsert(2, 5, |a, b| a + b);
            assert_eq!(acc.get(2), Some(&15));
            assert_eq!(acc.touched_len(), 1);
        }
        // Second checkout gets the cached workspace back, but the new
        // generation hides every entry from the previous kernel.
        {
            let acc = checkout::<DenseAcc<u64>>(8);
            assert_eq!(acc.get(2), None);
            assert_eq!(acc.touched_len(), 0);
        }
        force_reuse(None);
    }

    #[test]
    fn interleaved_checkouts_are_distinct() {
        let _g = serialize();
        force_reuse(Some(true));
        clear_thread_cache();
        // Two kernels interleaved on one thread: the second checkout
        // must not alias (or see the stamps of) the first.
        let mut a = checkout::<DenseAcc<u32>>(4);
        a.upsert(1, 100, |x, y| x + y);
        let mut b = checkout::<DenseAcc<u32>>(4);
        assert_eq!(b.get(1), None, "second kernel saw the first's stamps");
        b.upsert(1, 7, |x, y| x + y);
        b.upsert(3, 9, |x, y| x + y);
        assert_eq!(a.get(1), Some(&100), "first kernel's entry was clobbered");
        assert_eq!(a.get(3), None);
        let mut got_a = Vec::new();
        a.drain_pass(|j, v| got_a.push((j, v)));
        let mut got_b = Vec::new();
        b.sort_touched();
        b.drain_pass(|j, v| got_b.push((j, v)));
        assert_eq!(got_a, vec![(1, 100)]);
        assert_eq!(got_b, vec![(1, 7), (3, 9)]);
        force_reuse(None);
    }

    #[test]
    fn begin_pass_isolates_rows() {
        let _g = serialize();
        let mut acc = DenseAcc::<i64>::fresh();
        acc.prepare(6);
        acc.upsert(0, 1, |a, b| a + b);
        acc.upsert(5, 2, |a, b| a + b);
        let mut row0 = Vec::new();
        acc.drain_pass(|j, v| row0.push((j, v)));
        assert_eq!(row0, vec![(0, 1), (5, 2)]);
        acc.begin_pass();
        assert_eq!(acc.get(0), None);
        assert_eq!(acc.get(5), None);
        acc.upsert(5, 9, |a, b| a + b);
        assert_eq!(acc.get(5), Some(&9));
        assert_eq!(acc.touched_len(), 1);
    }

    #[test]
    fn mark_table_roundtrip_and_restamp() {
        let _g = serialize();
        let mut t = MarkTable::fresh();
        t.prepare(5);
        t.set(3, 42);
        assert_eq!(t.get(3), Some(42));
        assert_eq!(t.get(0), None);
        t.prepare(5);
        assert_eq!(t.get(3), None, "stale entry survived a new pass");
    }

    #[test]
    fn mark_set_membership() {
        let _g = serialize();
        let mut s = MarkSet::fresh();
        s.prepare(4);
        s.insert(2);
        assert!(s.contains(2));
        assert!(!s.contains(1));
        s.begin_pass();
        assert!(!s.contains(2));
    }

    #[test]
    fn bit_set_membership_and_touched_clear() {
        let _g = serialize();
        let mut s = BitSet::fresh();
        s.prepare(200);
        for &j in &[0usize, 63, 64, 65, 199] {
            s.insert(j);
            assert!(s.contains(j));
        }
        assert!(!s.contains(1));
        assert!(!s.contains(128));
        // Double insert must not duplicate the touched-word entry.
        s.insert(63);
        s.begin_pass();
        for &j in &[0usize, 63, 64, 65, 199] {
            assert!(!s.contains(j), "bit {j} survived a new pass");
        }
        // A fresh pass after growth still starts empty.
        s.insert(7);
        s.prepare(512);
        assert!(!s.contains(7));
        s.insert(511);
        assert!(s.contains(511));
    }

    #[test]
    fn slot_table_is_zero_on_checkout() {
        let _g = serialize();
        let mut t = SlotTable::fresh();
        t.prepare(4);
        t.slots()[2] = 7;
        t.slots()[2] = 0;
        t.finish();
        t.prepare(8);
        assert!(t.slots().iter().all(|&s| s == 0));
        // Given back unfinished with a slot still set: the next prepare
        // zeroes the whole table.
        t.slots()[5] = 3;
        t.prepare(8);
        assert!(t.slots().iter().all(|&s| s == 0));
        t.finish();
    }

    #[test]
    fn prepare_grows_for_larger_problems() {
        let _g = serialize();
        force_reuse(Some(true));
        clear_thread_cache();
        {
            let mut acc = checkout::<DenseAcc<u8>>(4);
            acc.upsert(3, 1, |a, b| a + b);
        }
        {
            let mut acc = checkout::<DenseAcc<u8>>(16);
            acc.upsert(15, 2, |a, b| a + b);
            assert_eq!(acc.get(15), Some(&2));
            assert_eq!(acc.get(3), None);
        }
        force_reuse(None);
    }

    #[test]
    fn disabled_reuse_always_allocates_fresh() {
        let _g = serialize();
        force_reuse(Some(false));
        clear_thread_cache();
        {
            let mut acc = checkout::<DenseAcc<u16>>(4);
            acc.upsert(0, 3, |a, b| a + b);
        }
        // Nothing was returned to the cache.
        let cached = CACHE.with(|c| c.borrow().map.len());
        assert_eq!(cached, 0);
        force_reuse(None);
    }

    #[test]
    fn cached_bytes_report_to_mem_gauge() {
        let _g = serialize();
        let _obs = crate::obs_test_guard();
        force_reuse(Some(true));
        clear_thread_cache();
        graphblas_obs::set_enabled(true);
        let before = graphblas_obs::mem::workspace().live();
        {
            let _a = checkout::<DenseAcc<u64>>(64);
        }
        let parked = graphblas_obs::mem::workspace().live();
        assert!(parked > before, "returned workspace reported no bytes");
        // Checking it back out removes it from the cache — and its bytes
        // from the gauge.
        {
            let _a = checkout::<DenseAcc<u64>>(64);
            assert_eq!(graphblas_obs::mem::workspace().live(), before);
        }
        clear_thread_cache();
        assert_eq!(graphblas_obs::mem::workspace().live(), before);
        // Bytes recorded while enabled are released even if telemetry is
        // toggled off in between (per-entry recorded figure, not a guess).
        {
            let _a = checkout::<DenseAcc<u64>>(64);
        }
        graphblas_obs::set_enabled(false);
        clear_thread_cache();
        assert_eq!(graphblas_obs::mem::workspace().live(), before);
        force_reuse(None);
    }

    #[test]
    fn checkout_counters_report_hits() {
        let _g = serialize();
        let _obs = crate::obs_test_guard();
        force_reuse(Some(true));
        clear_thread_cache();
        graphblas_obs::set_enabled(true);
        let before = graphblas_obs::snapshot().workspace;
        {
            let _a = checkout::<DenseAcc<f64>>(32);
        }
        {
            let _b = checkout::<DenseAcc<f64>>(32);
        }
        let after = graphblas_obs::snapshot().workspace;
        graphblas_obs::set_enabled(false);
        assert_eq!(after.checkouts - before.checkouts, 2);
        assert_eq!(after.misses - before.misses, 1);
        assert_eq!(after.hits - before.hits, 1);
        assert!(after.bytes_reused > before.bytes_reused);
        force_reuse(None);
    }
}
