//! Thread-safe CLAM wrappers.
//!
//! The systems the paper targets (WAN optimizers, dedup servers, content
//! directories) serve many connections at once. [`SharedClam`] wraps a
//! [`Clam`] in a [`parking_lot::Mutex`] behind an [`Arc`] so worker threads
//! can share one index, and [`StripedClam`] stripes the key space across
//! several independent CLAMs (each typically on its own SSD, as §5.2
//! suggests) so operations on different stripes proceed in parallel.
//!
//! Both wrappers expose two locking regimes. The per-op methods
//! ([`StripedClam::insert`], [`StripedClam::lookup`], …) take the stripe
//! lock once *per operation* — coarse, simple, and fine when each call does
//! real flash work. High-throughput callers should prefer the batched path
//! ([`SharedClam::insert_batch`], [`StripedClam::insert_batch`],
//! [`StripedClam::lookup_batch`]): a batch is partitioned by stripe and
//! each stripe's lock is taken **once per stripe-batch**, with the whole
//! sub-batch applied under that single acquisition via the underlying
//! [`Clam::insert_batch`] pipeline (amortized dispatch overhead plus
//! coalesced flush writes).
//!
//! Stripe sub-batches are **dispatched concurrently**: each stripe models
//! an independent device (one SSD per stripe, §5.2), so
//! [`StripedClam::insert_batch`] runs the stripes on their own threads and
//! reports the batch latency as the *maximum over stripes* rather than the
//! sum — the same max-over-lanes accounting the
//! [`flashsim` submission queues](flashsim::queue) use below it.
//! [`StripedClam::lookup_batch`] composes both levels of overlap: stripes
//! run concurrently, and within each stripe the queued probe pipeline
//! ([`Clam::lookup_batch`]) overlaps flash page reads on the device's
//! submission-queue lanes.
//!
//! ## Intra-stripe read concurrency
//!
//! Since PR 9 the stripe lock is a [`parking_lot::RwLock`] guarded by a
//! seqlock-style **write epoch**, and lookups take a lock-free-style fast
//! path first: load the epoch (odd means a writer is pending — fall back),
//! `try_read` the stripe (contended — fall back), probe DRAM state only
//! ([`Clam::probe_memory`]: cuckoo buffer, delete list, Bloom filters),
//! then re-validate the epoch (changed — discard and fall back). Keys
//! whose verdict needs flash, and every fallback, go through the exclusive
//! write-locked pipeline exactly as before, so outcomes are identical to
//! the coarse path — only contention changes. Fast-path statistics land in
//! a side ledger merged into [`SharedClam::stats`];
//! [`SharedClam::set_coarse_locks`] restores the strict
//! everything-exclusive baseline for A/B runs and equivalence tests.
//!
//! ## Intra-stripe write concurrency
//!
//! Writes use the same shared/exclusive split. [`Clam`] has one write
//! path ([`Clam::insert`], [`Clam::insert_batch`], [`Clam::delete`], all
//! `&self`), which serializes per super table on the table's op lock.
//! By default inserts and deletes hold the stripe's **read** lock for the
//! whole logical op, so two writers whose keys land on different tables
//! of one stripe commit in parallel, coordinated only through the short
//! core critical section that orders allocator grants and ring
//! admissions. The global write epoch stays even while these writers
//! run — the read fast path instead validates against the **per-table**
//! seqlock epochs via [`Clam::try_probe_memory`], so a fast read
//! conflicts exactly with writers on *its* table, not with every writer
//! on the stripe. Exclusive entry points ([`SharedClam::with`],
//! `flush_all`, recovery) still take the write lock, which drains every
//! writer first. Coarse mode runs the same write calls under the write
//! lock, with batch inserts capped at one chunk — the strict
//! stripe-global baseline.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use flashsim::{Device, SimDuration};

use crate::clam::{
    batch_dispatch, BatchInsertOutcome, BatchLookupOutcome, Clam, InsertOutcome, LookupOutcome,
    MemoryProbe,
};
use crate::config::ClamConfig;
use crate::error::Result;
use crate::recovery::RecoveryReport;
use crate::stats::ClamStats;
use crate::types::{hash_with_seed, Key, Value};

/// A cloneable, thread-safe handle to a single CLAM.
pub struct SharedClam<D: Device> {
    inner: Arc<SharedInner<D>>,
}

/// Shared state behind one stripe: the CLAM under a reader-writer lock,
/// the seqlock-style write epoch (odd while a writer is pending or
/// active), the coarse-mode switch, and the side ledger where fast-path
/// reads record their statistics (they cannot touch the CLAM's own
/// ledger, which sits behind the write lock).
struct SharedInner<D: Device> {
    clam: RwLock<Clam<D>>,
    write_epoch: AtomicU64,
    coarse: AtomicBool,
    fast_ledger: Mutex<ClamStats>,
}

impl<D: Device> Clone for SharedClam<D> {
    fn clone(&self) -> Self {
        SharedClam { inner: Arc::clone(&self.inner) }
    }
}

impl<D: Device> SharedClam<D> {
    /// Wraps a CLAM for shared use.
    pub fn new(clam: Clam<D>) -> Self {
        SharedClam {
            inner: Arc::new(SharedInner {
                clam: RwLock::new(clam),
                write_epoch: AtomicU64::new(0),
                coarse: AtomicBool::new(false),
                fast_ledger: Mutex::new(ClamStats::new()),
            }),
        }
    }

    /// Recovers a CLAM from the flash contents of `device` (see
    /// [`Clam::recover`]) and wraps it for shared use, returning the
    /// recovery scan's report alongside the handle.
    pub fn recover(device: D, config: ClamConfig) -> Result<(Self, RecoveryReport)> {
        let (clam, report) = Clam::recover(device, config)?;
        Ok((SharedClam::new(clam), report))
    }

    /// Runs `f` under the exclusive write lock, bracketing it with the
    /// seqlock protocol: the epoch goes odd before the lock is requested
    /// (so fast readers yield immediately instead of racing `try_read`
    /// against a blocked writer) and even again after the guard drops.
    fn with_write<R>(&self, f: impl FnOnce(&mut Clam<D>) -> R) -> R {
        self.inner.write_epoch.fetch_add(1, Ordering::SeqCst);
        let result = {
            let mut guard = self.inner.clam.write();
            f(&mut guard)
        };
        self.inner.write_epoch.fetch_add(1, Ordering::SeqCst);
        result
    }

    /// Counts one lost fast-path race in the side ledger.
    fn note_conflict(&self) {
        self.inner.fast_ledger.lock().fast_read_conflicts += 1;
    }

    /// Switches between the default — epoch-validated read fast path,
    /// writes under the shared stripe lock — and the coarse
    /// everything-exclusive baseline, where every op takes the stripe's
    /// write lock and batch inserts run as one chunk. Both modes run the
    /// same write code; coarse mode is kept for A/B comparisons and the
    /// equivalence property tests, and outcomes are identical in both.
    pub fn set_coarse_locks(&self, coarse: bool) {
        self.inner.coarse.store(coarse, Ordering::SeqCst);
    }

    /// `true` when the coarse everything-exclusive baseline is active.
    pub fn coarse_locks(&self) -> bool {
        self.inner.coarse.load(Ordering::SeqCst)
    }

    /// Forwards [`Clam::set_batch_parallelism`]: overrides the chunk count
    /// of batch inserts (`None` = `available_parallelism`). Coarse mode
    /// still runs every batch as one chunk.
    pub fn set_batch_parallelism(&self, chunks: Option<usize>) {
        self.inner.clam.read().set_batch_parallelism(chunks);
    }

    /// Attempts to resolve `key` on the read fast path: no write lock, no
    /// queue, memory state only. Returns `None` — with the locked pipeline
    /// as the caller's fallback — when coarse mode is on, when the key
    /// needs a flash probe, or when the epoch/`try_read` race is lost to a
    /// writer (counted in [`ClamStats::fast_read_conflicts`]).
    pub fn try_fast_lookup(&self, key: Key) -> Option<LookupOutcome> {
        let outcome = self.fast_probe(key, crate::clam::BASE_OP_OVERHEAD)?;
        let mut ledger = self.inner.fast_ledger.lock();
        record_fast_outcome(&mut ledger, &outcome, false);
        Some(outcome)
    }

    /// The epoch-validated memory probe shared by the scalar and batched
    /// fast paths. Returns the would-be outcome without recording any
    /// statistics.
    fn fast_probe(&self, key: Key, dispatch: SimDuration) -> Option<LookupOutcome> {
        if self.inner.coarse.load(Ordering::SeqCst) {
            return None;
        }
        let before = self.inner.write_epoch.load(Ordering::SeqCst);
        if before % 2 == 1 {
            self.note_conflict();
            return None;
        }
        let probe = {
            let Some(guard) = self.inner.clam.try_read() else {
                self.note_conflict();
                return None;
            };
            // Per-table seqlock validation: a fine-grained writer on the
            // key's table (which holds the *read* lock, so `try_read`
            // cannot see it) makes the probe return `None`.
            let Some(probe) = guard.try_probe_memory(key, dispatch) else {
                self.note_conflict();
                return None;
            };
            probe
        };
        let outcome = match probe {
            MemoryProbe::Resolved(outcome) => outcome,
            MemoryProbe::NeedsFlash => return None,
        };
        if self.inner.write_epoch.load(Ordering::SeqCst) != before {
            self.note_conflict();
            return None;
        }
        Some(outcome)
    }

    /// Runs a write under the stripe lock the current mode calls for, and
    /// passes it the chunk cap for batch inserts. By default that is the
    /// shared (read) lock: the [`Clam`]'s per-table op locks serialize
    /// writers per super table, so writes to different tables of this
    /// stripe commit in parallel, and batches use every chunk
    /// [`Clam::set_batch_parallelism`] allows. Coarse mode runs the same
    /// code under the exclusive lock, with batches capped at one chunk.
    fn with_writer<R>(&self, f: impl FnOnce(&Clam<D>, usize) -> R) -> R {
        if self.coarse_locks() {
            self.with_write(|c| f(c, 1))
        } else {
            f(&self.inner.clam.read(), usize::MAX)
        }
    }

    /// Inserts (or updates) a key through [`Clam::insert`] under the
    /// mode's stripe lock (see [`set_coarse_locks`](Self::set_coarse_locks)).
    pub fn insert(&self, key: Key, value: Value) -> Result<InsertOutcome> {
        self.with_writer(|c, _| c.insert(key, value))
    }

    /// Looks up a key: the epoch-validated fast path first (see
    /// [`try_fast_lookup`](Self::try_fast_lookup)), the exclusive pipeline
    /// when the key needs flash or the race is lost. Outcomes are
    /// identical either way.
    pub fn lookup(&self, key: Key) -> Result<LookupOutcome> {
        if let Some(outcome) = self.try_fast_lookup(key) {
            return Ok(outcome);
        }
        self.with_write(|c| c.lookup(key))
    }

    /// Inserts a batch of key/value pairs through [`Clam::insert_batch`]:
    /// by default the stripe lock is held shared and the batch's
    /// per-super-table groups run on scoped threads, one chunk per core
    /// at any batch size; in coarse mode the whole batch runs as one
    /// chunk under the exclusive lock. Results, flash traffic and ledgers
    /// are identical either way.
    pub fn insert_batch(&self, ops: &[(Key, Value)]) -> Result<BatchInsertOutcome> {
        self.with_writer(|c, max_chunks| c.insert_batch_chunked(ops, max_chunks, 1))
    }

    /// Looks up a batch of keys through the streaming ring pipeline,
    /// returning one outcome per key in input order plus the batch's
    /// makespan-accounted latency (see [`Clam::lookup_batch`]).
    ///
    /// With the fast path enabled, memory-resolved keys are answered under
    /// one shared (`try_read`) acquisition and only the flash-bound
    /// remainder takes the write lock; every key is still charged the full
    /// batch's amortized dispatch, so outcomes and per-op accounting match
    /// the coarse path exactly (the batch latency adds the fast keys' host
    /// time to the locked remainder's makespan, just as the all-locked
    /// plan would).
    pub fn lookup_batch(&self, keys: &[Key]) -> Result<BatchLookupOutcome> {
        if self.inner.coarse.load(Ordering::SeqCst) {
            return self.with_write(|c| c.lookup_batch(keys));
        }
        let dispatch = batch_dispatch(keys.len());
        let mut resolved: Vec<Option<LookupOutcome>> = vec![None; keys.len()];
        let fast_pass_valid = {
            let before = self.inner.write_epoch.load(Ordering::SeqCst);
            if before % 2 == 1 {
                false
            } else if let Some(guard) = self.inner.clam.try_read() {
                for (slot, &key) in keys.iter().enumerate() {
                    // `None` (a fine-grained writer is active on the key's
                    // table) leaves the key unresolved; it joins the
                    // flash-bound remainder and resolves under the write
                    // lock, which drains that writer first.
                    if let Some(MemoryProbe::Resolved(outcome)) =
                        guard.try_probe_memory(key, dispatch)
                    {
                        resolved[slot] = Some(outcome);
                    }
                }
                drop(guard);
                self.inner.write_epoch.load(Ordering::SeqCst) == before
            } else {
                false
            }
        };
        if !fast_pass_valid {
            // One counted conflict for the whole batch; the entire batch
            // re-runs on the locked reference path.
            self.note_conflict();
            return self.with_write(|c| c.lookup_batch(keys));
        }
        let mut rem_keys = Vec::new();
        let mut rem_pos = Vec::new();
        let mut fast_host_time = SimDuration::ZERO;
        {
            let mut ledger = self.inner.fast_ledger.lock();
            for (slot, entry) in resolved.iter().enumerate() {
                match entry {
                    Some(outcome) => {
                        record_fast_outcome(&mut ledger, outcome, true);
                        fast_host_time += outcome.latency;
                    }
                    None => {
                        rem_keys.push(keys[slot]);
                        rem_pos.push(slot);
                    }
                }
            }
        }
        let mut batch = if rem_keys.is_empty() {
            BatchLookupOutcome::default()
        } else {
            self.with_write(|c| c.lookup_batch_amortized(&rem_keys, dispatch))?
        };
        let locked_outcomes = std::mem::take(&mut batch.outcomes);
        for (outcome, &pos) in locked_outcomes.into_iter().zip(&rem_pos) {
            resolved[pos] = Some(outcome);
        }
        batch.outcomes = resolved.into_iter().map(|o| o.expect("every key resolved")).collect();
        batch.latency += fast_host_time;
        Ok(batch)
    }

    /// The barrier wave reference path for
    /// [`lookup_batch`](Self::lookup_batch) (see
    /// [`Clam::lookup_batch_waves`]): identical outcomes, per-round
    /// barrier timing. Always runs under the exclusive lock.
    pub fn lookup_batch_waves(&self, keys: &[Key]) -> Result<BatchLookupOutcome> {
        self.with_write(|c| c.lookup_batch_waves(keys))
    }

    /// Deletes a key through [`Clam::delete`] under the mode's stripe
    /// lock.
    pub fn delete(&self, key: Key) -> Result<()> {
        self.with_writer(|c, _| c.delete(key))?;
        Ok(())
    }

    /// Updates a key (alias for [`insert`](Self::insert), like
    /// [`Clam::update`]).
    pub fn update(&self, key: Key, value: Value) -> Result<InsertOutcome> {
        self.insert(key, value)
    }

    /// Returns `true` if `key` currently maps to a value.
    pub fn contains(&self, key: Key) -> Result<bool> {
        Ok(self.lookup(key)?.value.is_some())
    }

    /// Flushes every non-empty buffer to flash under one lock acquisition
    /// (see [`Clam::flush_all`]). Returns the total simulated latency.
    pub fn flush_all(&self) -> Result<SimDuration> {
        self.with_write(|c| c.flush_all())
    }

    /// Declares `idle` simulated time to the underlying device (see
    /// [`Clam::idle`]).
    pub fn idle(&self, idle: SimDuration) {
        self.with_write(|c| c.idle(idle))
    }

    /// Snapshot of the operation statistics: the CLAM's own ledger merged
    /// with the fast-path side ledger (so per-lookup invariants — one
    /// latency sample and one read-histogram entry per lookup — hold
    /// regardless of which path served it).
    pub fn stats(&self) -> ClamStats {
        let mut total = self.inner.clam.read().stats();
        total.merge(&self.inner.fast_ledger.lock());
        total
    }

    /// Returns `true` while a write may be in flight for `key`'s super
    /// table: the stripe-global epoch is odd (an exclusive writer is
    /// pending or active), the stripe is write-locked, or a fine-grained
    /// writer's logical op on that table is in progress (its seqlock
    /// epoch is odd; see [`Clam::table_writer_active`]). The `clamd`
    /// engine's idle-shard bypass consults this so a bypassed scalar
    /// LOOKUP never races a half-applied mutation.
    pub fn table_writer_active(&self, key: Key) -> bool {
        if self.inner.write_epoch.load(Ordering::SeqCst) % 2 == 1 {
            return true;
        }
        let Some(guard) = self.inner.clam.try_read() else {
            return true;
        };
        guard.table_writer_active(key)
    }

    /// Switches the write path between the ring-driven default and the
    /// blocking barrier reference (see [`Clam::set_barrier_writes`]).
    pub fn set_barrier_writes(&self, barrier: bool) {
        self.with_write(|c| c.set_barrier_writes(barrier));
    }

    /// Runs `f` with exclusive access to the underlying CLAM (e.g. for
    /// `flush_all` or configuration inspection). Bracketed by the write
    /// epoch like every other exclusive entry point.
    pub fn with<R>(&self, f: impl FnOnce(&mut Clam<D>) -> R) -> R {
        self.with_write(f)
    }

    /// Unwraps the sole handle back into the CLAM (for crash-simulation
    /// tests that keep only the device). Panics if other clones exist.
    /// The fast-path side ledger is discarded.
    pub fn into_clam(self) -> Clam<D> {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => inner.clam.into_inner(),
            Err(_) => panic!("SharedClam::into_clam requires sole ownership"),
        }
    }
}

/// Records one fast-path-resolved lookup into the side ledger, mirroring
/// exactly what the locked pipeline's `plan_lookups`/`resolve_probe` would
/// have recorded (fast-resolved keys never touch flash, hence zero reads).
fn record_fast_outcome(ledger: &mut ClamStats, outcome: &LookupOutcome, batched: bool) {
    if outcome.value.is_some() {
        ledger.lookup_hits += 1;
    } else {
        ledger.lookup_misses += 1;
    }
    ledger.lookups.record(outcome.latency);
    ledger.record_lookup_reads(0);
    ledger.fast_lookups += 1;
    if batched {
        ledger.batched_lookups += 1;
    }
}

/// A CLAM striped over several devices: stripe `i` holds the keys that hash
/// to it, so lookups and inserts for different stripes contend on different
/// locks (and, conceptually, different SSDs).
pub struct StripedClam<D: Device> {
    stripes: Vec<SharedClam<D>>,
}

impl<D: Device> StripedClam<D> {
    /// Builds a striped CLAM from per-stripe CLAMs (one per device).
    ///
    /// Returns an error-free constructor; an empty stripe list is rejected
    /// by panicking early because it is a static misconfiguration.
    pub fn new(stripes: Vec<Clam<D>>) -> Self {
        assert!(!stripes.is_empty(), "StripedClam needs at least one stripe");
        StripedClam { stripes: stripes.into_iter().map(SharedClam::new).collect() }
    }

    /// Recovers every stripe from its device's flash contents (see
    /// [`Clam::recover`]) and assembles the striped CLAM, returning one
    /// [`RecoveryReport`] per stripe in input order. Stripe routing is
    /// deterministic, so recovering each device independently restores
    /// exactly the keys each stripe owned.
    pub fn recover(stripes: Vec<(D, ClamConfig)>) -> Result<(Self, Vec<RecoveryReport>)> {
        assert!(!stripes.is_empty(), "StripedClam needs at least one stripe");
        let mut recovered = Vec::with_capacity(stripes.len());
        let mut reports = Vec::with_capacity(stripes.len());
        for (device, config) in stripes {
            let (clam, report) = Clam::recover(device, config)?;
            recovered.push(clam);
            reports.push(report);
        }
        Ok((StripedClam::new(recovered), reports))
    }

    /// Number of stripes.
    pub fn num_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// Stripe owning `key`. Routing is deterministic and public so upper
    /// layers (the `clamd` sharded batcher) can key their own partitioning
    /// off the same function — same key, same stripe, same shard.
    pub fn stripe_index(&self, key: Key) -> usize {
        (hash_with_seed(key, 0x57_e19e) % self.stripes.len() as u64) as usize
    }

    fn stripe_of(&self, key: Key) -> &SharedClam<D> {
        &self.stripes[self.stripe_index(key)]
    }

    /// Inserts (or updates) a key on its stripe.
    pub fn insert(&self, key: Key, value: Value) -> Result<InsertOutcome> {
        self.stripe_of(key).insert(key, value)
    }

    /// Looks up a key on its stripe.
    pub fn lookup(&self, key: Key) -> Result<LookupOutcome> {
        self.stripe_of(key).lookup(key)
    }

    /// Deletes a key on its stripe.
    pub fn delete(&self, key: Key) -> Result<()> {
        self.stripe_of(key).delete(key)
    }

    /// Inserts a batch of key/value pairs, partitioned by stripe and
    /// **dispatched to the stripes concurrently**.
    ///
    /// Each stripe's lock is acquired **once** for its whole sub-batch
    /// (instead of once per op), the sub-batch runs through the underlying
    /// [`Clam::insert_batch`] pipeline, and every non-empty stripe executes
    /// on its own thread — stripes model independent devices (one SSD per
    /// stripe), so their flash work genuinely overlaps. The reported
    /// latency is therefore the **maximum over stripes** (the batch is done
    /// when the slowest stripe is), while the event counters (`flushed_ops`,
    /// `evictions`, `coalesced_writes`) sum across stripes. Results and
    /// per-stripe state are identical to running the stripes one after
    /// another: stripes share no state, so dispatch order cannot change
    /// any outcome.
    ///
    /// ```
    /// use bufferhash::{Clam, ClamConfig, StripedClam};
    /// use flashsim::Ssd;
    ///
    /// let clam = |_| {
    ///     let cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
    ///     Clam::new(Ssd::intel(4 << 20).unwrap(), cfg).unwrap()
    /// };
    /// let striped = StripedClam::new((0..3).map(clam).collect());
    ///
    /// let ops: Vec<(u64, u64)> = (0..256).map(|i| (i * 11 + 1, i)).collect();
    /// let out = striped.insert_batch(&ops).unwrap();
    /// assert_eq!(out.ops, 256);
    /// assert_eq!(striped.lookup(12).unwrap().value, Some(1));
    /// ```
    pub fn insert_batch(&self, ops: &[(Key, Value)]) -> Result<BatchInsertOutcome> {
        let groups = self.partition(ops);
        let occupied: Vec<usize> = (0..groups.len()).filter(|&i| !groups[i].is_empty()).collect();
        let results =
            self.dispatch_stripes(&occupied, |idx| self.stripes[idx].insert_batch(&groups[idx]));
        let mut total = BatchInsertOutcome { ops: ops.len(), ..Default::default() };
        for result in results.into_iter().flatten() {
            let out = result?;
            total.latency = total.latency.max(out.latency);
            total.flushed_ops += out.flushed_ops;
            total.evictions += out.evictions;
            total.coalesced_writes += out.coalesced_writes;
        }
        Ok(total)
    }

    /// Runs `job(stripe_index)` for every index in `indices` — on scoped
    /// threads when more than one stripe participates, inline otherwise —
    /// and returns one result slot per stripe (`None` for stripes that
    /// were not dispatched). The shared fan-out engine behind
    /// [`insert_batch`](Self::insert_batch),
    /// [`lookup_batch`](Self::lookup_batch) and
    /// [`flush_all`](Self::flush_all).
    fn dispatch_stripes<R, F>(&self, indices: &[usize], job: F) -> Vec<Option<Result<R>>>
    where
        R: Send,
        F: Fn(usize) -> Result<R> + Sync,
    {
        let mut results: Vec<Option<Result<R>>> = Vec::new();
        results.resize_with(self.stripes.len(), || None);
        match indices {
            [] => {}
            // One stripe: no point paying a thread spawn.
            [only] => results[*only] = Some(job(*only)),
            _ => std::thread::scope(|scope| {
                let job = &job;
                let handles: Vec<_> =
                    indices.iter().map(|&idx| (idx, scope.spawn(move || job(idx)))).collect();
                for (idx, handle) in handles {
                    results[idx] = Some(handle.join().expect("stripe worker panicked"));
                }
            }),
        }
        results
    }

    /// Groups `ops` by owning stripe, preserving input order within each
    /// stripe (which is what makes batched execution observationally
    /// equivalent to per-op calls).
    fn partition(&self, ops: &[(Key, Value)]) -> Vec<Vec<(Key, Value)>> {
        let mut groups: Vec<Vec<(Key, Value)>> = vec![Vec::new(); self.stripes.len()];
        for &(key, value) in ops {
            groups[self.stripe_index(key)].push((key, value));
        }
        groups
    }

    /// Flushes every stripe's buffers (see [`Clam::flush_all`]), running
    /// the stripes concurrently; returns the max-over-stripes latency.
    pub fn flush_all(&self) -> Result<SimDuration> {
        let all: Vec<usize> = (0..self.stripes.len()).collect();
        let results = self.dispatch_stripes(&all, |idx| self.stripes[idx].flush_all());
        let mut max = SimDuration::ZERO;
        for r in results.into_iter().flatten() {
            max = max.max(r?);
        }
        Ok(max)
    }

    /// Updates a key on its stripe (alias for [`insert`](Self::insert)).
    pub fn update(&self, key: Key, value: Value) -> Result<InsertOutcome> {
        self.stripe_of(key).update(key, value)
    }

    /// Returns `true` if `key` currently maps to a value.
    pub fn contains(&self, key: Key) -> Result<bool> {
        self.stripe_of(key).contains(key)
    }

    /// Looks up a batch of keys, partitioned by stripe, with one lock
    /// acquisition per stripe-batch and the stripe sub-batches dispatched
    /// concurrently (independent devices, like
    /// [`insert_batch`](Self::insert_batch)). Each stripe resolves its
    /// sub-batch through the queued probe pipeline
    /// ([`Clam::lookup_batch`]), so the reported batch latency is the
    /// **maximum over stripes** of each stripe's wave-makespan time —
    /// stripes overlap on their own devices *and* each stripe's probes
    /// overlap on its device's queue lanes. Outcomes are returned in input
    /// order and are identical to per-op lookups; probe-read counts sum
    /// across stripes, while `waves` reports the deepest (slowest) stripe's
    /// wave count, consistent with the max-over-stripes latency.
    pub fn lookup_batch(&self, keys: &[Key]) -> Result<BatchLookupOutcome> {
        let mut groups: Vec<(Vec<Key>, Vec<usize>)> =
            vec![(Vec::new(), Vec::new()); self.stripes.len()];
        for (pos, &key) in keys.iter().enumerate() {
            let idx = self.stripe_index(key);
            groups[idx].0.push(key);
            groups[idx].1.push(pos);
        }
        let occupied: Vec<usize> = (0..groups.len()).filter(|&i| !groups[i].0.is_empty()).collect();
        let results =
            self.dispatch_stripes(&occupied, |idx| self.stripes[idx].lookup_batch(&groups[idx].0));
        let mut out: Vec<Option<LookupOutcome>> = vec![None; keys.len()];
        let mut total = BatchLookupOutcome::default();
        for (idx, result) in results.into_iter().enumerate() {
            let Some(result) = result else { continue };
            let stripe_batch = result?;
            total.latency = total.latency.max(stripe_batch.latency);
            total.probe_latency = total.probe_latency.max(stripe_batch.probe_latency);
            total.waves = total.waves.max(stripe_batch.waves);
            total.probe_reads += stripe_batch.probe_reads;
            total.reaps += stripe_batch.reaps;
            total.ring_depth_high_water =
                total.ring_depth_high_water.max(stripe_batch.ring_depth_high_water);
            for (outcome, &pos) in stripe_batch.into_iter().zip(&groups[idx].1) {
                out[pos] = Some(outcome);
            }
        }
        total.outcomes = out.into_iter().map(|o| o.expect("every key routed")).collect();
        Ok(total)
    }

    /// Aggregated statistics across all stripes (every counter, recorder
    /// and histogram merged; see [`ClamStats::merge`]).
    pub fn stats(&self) -> ClamStats {
        let mut total = ClamStats::new();
        for stripe in &self.stripes {
            total.merge(&stripe.stats());
        }
        total
    }

    /// A cloneable handle to stripe `i` (for per-thread pinning).
    pub fn stripe(&self, i: usize) -> Option<SharedClam<D>> {
        self.stripes.get(i).cloned()
    }

    /// Switches every stripe's write path between the ring-driven default
    /// and the blocking barrier reference (see
    /// [`Clam::set_barrier_writes`]).
    pub fn set_barrier_writes(&self, barrier: bool) {
        for stripe in &self.stripes {
            stripe.set_barrier_writes(barrier);
        }
    }

    /// Switches every stripe between the epoch-validated read fast path
    /// (default) and the coarse everything-exclusive baseline (see
    /// [`SharedClam::set_coarse_locks`]).
    pub fn set_coarse_locks(&self, coarse: bool) {
        for stripe in &self.stripes {
            stripe.set_coarse_locks(coarse);
        }
    }

    /// Overrides the fine-batch chunk count on every stripe (see
    /// [`SharedClam::set_batch_parallelism`]).
    pub fn set_batch_parallelism(&self, chunks: Option<usize>) {
        for stripe in &self.stripes {
            stripe.set_batch_parallelism(chunks);
        }
    }

    /// Attempts to resolve `key` on its stripe's read fast path (see
    /// [`SharedClam::try_fast_lookup`]); `None` means the caller must use
    /// the locked path.
    pub fn try_fast_lookup(&self, key: Key) -> Option<LookupOutcome> {
        self.stripe_of(key).try_fast_lookup(key)
    }

    /// Returns `true` while a write may be in flight for `key`'s super
    /// table on its stripe (see [`SharedClam::table_writer_active`]).
    pub fn table_writer_active(&self, key: Key) -> bool {
        self.stripe_of(key).table_writer_active(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClamConfig;
    use flashsim::Ssd;
    use std::thread;

    fn clam() -> Clam<Ssd> {
        let cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
        Clam::new(Ssd::intel(4 << 20).unwrap(), cfg).unwrap()
    }

    fn key(i: u64) -> Key {
        hash_with_seed(i, 42)
    }

    #[test]
    fn shared_clam_is_usable_from_multiple_threads() {
        let shared = SharedClam::new(clam());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let handle = shared.clone();
            handles.push(thread::spawn(move || {
                for i in 0..5_000u64 {
                    let k = key(t * 1_000_000 + i);
                    handle.insert(k, i).unwrap();
                    assert_eq!(handle.lookup(k).unwrap().value, Some(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.stats().inserts.len(), 20_000);
        assert!(shared.stats().lookup_hits >= 20_000);
    }

    #[test]
    fn shared_clam_with_gives_exclusive_access() {
        let shared = SharedClam::new(clam());
        shared.insert(key(1), 1).unwrap();
        let flushes = shared.with(|c| {
            c.flush_all().unwrap();
            c.stats().flushes
        });
        assert!(flushes >= 1);
    }

    #[test]
    fn striped_clam_routes_keys_consistently() {
        let striped = StripedClam::new(vec![clam(), clam(), clam()]);
        assert_eq!(striped.num_stripes(), 3);
        for i in 0..10_000u64 {
            striped.insert(key(i), i).unwrap();
        }
        for i in (0..10_000u64).step_by(37) {
            assert_eq!(striped.lookup(key(i)).unwrap().value, Some(i), "key {i}");
        }
        striped.delete(key(0)).unwrap();
        assert_eq!(striped.lookup(key(0)).unwrap().value, None);
        // Work is spread across stripes.
        let stats = striped.stats();
        assert_eq!(stats.inserts.len(), 10_000);
        for s in 0..3 {
            let stripe_inserts = striped.stripe(s).unwrap().stats().inserts.len();
            assert!(
                stripe_inserts > 1_000,
                "stripe {s} got only {stripe_inserts} inserts; routing is unbalanced"
            );
        }
    }

    #[test]
    fn striped_clam_parallel_threads() {
        let striped = std::sync::Arc::new(StripedClam::new(vec![clam(), clam()]));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = std::sync::Arc::clone(&striped);
            handles.push(thread::spawn(move || {
                for i in 0..3_000u64 {
                    let k = key(t * 10_000_000 + i);
                    s.insert(k, i).unwrap();
                    assert_eq!(s.lookup(k).unwrap().value, Some(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(striped.stats().inserts.len(), 12_000);
    }

    #[test]
    fn shared_clam_batch_round_trips() {
        let shared = SharedClam::new(clam());
        let ops: Vec<(u64, u64)> = (0..5_000u64).map(|i| (key(i), i * 2)).collect();
        let out = shared.insert_batch(&ops).unwrap();
        assert_eq!(out.ops, 5_000);
        let keys: Vec<u64> = ops.iter().map(|(k, _)| *k).collect();
        let found = shared.lookup_batch(&keys).unwrap();
        for (i, outcome) in found.outcomes.iter().enumerate() {
            assert_eq!(outcome.value, Some(i as u64 * 2), "key {i}");
        }
        assert_eq!(shared.stats().batched_inserts, 5_000);
        assert_eq!(shared.stats().batched_lookups, 5_000);
    }

    #[test]
    fn striped_clam_batches_route_like_per_op() {
        let striped = StripedClam::new(vec![clam(), clam(), clam()]);
        let ops: Vec<(u64, u64)> = (0..9_000u64).map(|i| (key(i), i)).collect();
        let out = striped.insert_batch(&ops).unwrap();
        assert_eq!(out.ops, 9_000);
        // Batched lookups agree with per-op lookups in input order.
        let keys: Vec<u64> =
            (0..2_000u64).map(|i| if i % 4 == 0 { key(500_000 + i) } else { key(i) }).collect();
        let batched = striped.lookup_batch(&keys).unwrap();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(batched[i].value, striped.lookup(*k).unwrap().value, "index {i}");
        }
        // Every stripe saw batched traffic through its own lock.
        let stats = striped.stats();
        assert_eq!(stats.batched_inserts, 9_000);
        assert_eq!(stats.inserts.len(), 9_000);
        // Aggregation keeps the per-lookup read histogram (one bucket entry
        // per lookup), so Table-2-style breakdowns work on striped CLAMs.
        let histogram_total: u64 = stats.flash_reads_histogram.iter().sum();
        assert_eq!(histogram_total, stats.lookups.len() as u64);
        for s in 0..3 {
            assert!(striped.stripe(s).unwrap().stats().batched_inserts > 1_000);
        }
    }

    #[test]
    fn striped_batches_from_multiple_threads() {
        let striped = std::sync::Arc::new(StripedClam::new(vec![clam(), clam()]));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = std::sync::Arc::clone(&striped);
            handles.push(thread::spawn(move || {
                let ops: Vec<(u64, u64)> =
                    (0..3_000u64).map(|i| (key(t * 10_000_000 + i), i)).collect();
                for chunk in ops.chunks(128) {
                    s.insert_batch(chunk).unwrap();
                }
                let keys: Vec<u64> = ops.iter().map(|(k, _)| *k).collect();
                for (i, out) in s.lookup_batch(&keys).unwrap().into_iter().enumerate() {
                    assert_eq!(out.value, Some(i as u64));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(striped.stats().inserts.len(), 12_000);
        assert_eq!(striped.stats().batched_inserts, 12_000);
    }

    #[test]
    fn striped_queued_lookups_report_max_over_stripes() {
        let striped = StripedClam::new(vec![clam(), clam(), clam()]);
        let ops: Vec<(u64, u64)> = (0..60_000u64).map(|i| (key(i), i)).collect();
        for chunk in ops.chunks(1024) {
            striped.insert_batch(chunk).unwrap();
        }
        // Miss-heavy probe traffic so each stripe submits real waves.
        let keys: Vec<u64> =
            (0..1_500u64).map(|i| if i % 3 == 0 { key(i) } else { key(900_000 + i) }).collect();
        let batch = striped.lookup_batch(&keys).unwrap();
        assert_eq!(batch.ops(), keys.len());
        // Max-over-stripes: the batch cannot be cheaper than any stripe's
        // own makespan, and the merged counters describe all stripes.
        let stats = striped.stats();
        if stats.lookup_probe_requests > 0 {
            assert_eq!(batch.probe_reads as u64, stats.lookup_probe_requests);
            assert!(batch.waves as u64 <= stats.lookup_probe_waves);
        }
        // Values agree with per-op lookups.
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(batch[i].value, striped.lookup(k).unwrap().value, "key index {i}");
        }
    }

    #[test]
    fn stripes_can_share_one_device_and_its_ring() {
        use flashsim::SharedDevice;
        // Two stripes over *partitions of one SSD*: their queued probe
        // traffic funnels through the same device queue (one controller's
        // ring timeline), which is what makes cross-batch contention and
        // overlap real instead of per-stripe-device fiction.
        let shared = SharedDevice::new(flashsim::Ssd::intel(8 << 20).unwrap());
        let stripe = |base: u64| {
            let cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
            Clam::new(shared.partition(base, 4 << 20).unwrap(), cfg).unwrap()
        };
        let striped = StripedClam::new(vec![stripe(0), stripe(4 << 20)]);
        let ops: Vec<(u64, u64)> = (0..30_000u64).map(|i| (key(i), i)).collect();
        for chunk in ops.chunks(512) {
            striped.insert_batch(chunk).unwrap();
        }
        // Concurrent stripe lookups (miss-heavy so both stripes probe)
        // interleave their ring admissions on the one device.
        let keys: Vec<u64> =
            (0..1_000u64).map(|i| if i % 3 == 0 { key(i) } else { key(700_000 + i) }).collect();
        let batch = striped.lookup_batch(&keys).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(batch[i].value, striped.lookup(k).unwrap().value, "key index {i}");
        }
        // The single underlying device saw both stripes' traffic.
        let device_stats = shared.with(|d| d.stats());
        assert!(device_stats.requests_reaped > 0, "ring probes must flow through the device");
        let stats = striped.stats();
        assert!(stats.lookup_ring_reaps >= device_stats.requests_reaped / 2);
        // The write path rode the same ring: every stripe's flush traffic
        // was admitted through the shared device's submission queue, not
        // through blocking submits.
        assert!(stats.flushes > 0, "the workload must have flushed");
        assert!(
            stats.flush_ring_reaps > 0,
            "flush writes must be reaped off the shared ring: {stats}"
        );
        assert_eq!(
            device_stats.requests_reaped,
            stats.lookup_ring_reaps + stats.flush_ring_reaps,
            "every reap on the shared device belongs to one of the two ledgers"
        );
    }

    #[test]
    fn ring_and_wave_lookup_batches_agree_on_shared_clams() {
        let shared = SharedClam::new(clam());
        let ops: Vec<(u64, u64)> = (0..30_000u64).map(|i| (key(i), i)).collect();
        for chunk in ops.chunks(512) {
            shared.insert_batch(chunk).unwrap();
        }
        let keys: Vec<u64> =
            (0..800u64).map(|i| if i % 2 == 0 { key(i) } else { key(600_000 + i) }).collect();
        let ring = shared.lookup_batch(&keys).unwrap();
        let wave = shared.lookup_batch_waves(&keys).unwrap();
        assert_eq!(ring.ops(), wave.ops());
        for i in 0..keys.len() {
            assert_eq!(ring[i].value, wave[i].value, "key index {i}");
            assert_eq!(ring[i].source, wave[i].source, "key index {i}");
            assert_eq!(ring[i].flash_reads, wave[i].flash_reads, "key index {i}");
        }
        assert_eq!(ring.waves, wave.waves, "ring rounds match the wave count");
        assert!(ring.reaps > 0 && wave.reaps == 0, "only the ring pipeline reaps");
    }

    /// Runs `ops` through `striped` one stripe after another (routing with
    /// `stripe_index`, then each stripe's own `insert_batch`) and sums the
    /// latency, as a single-device deployment would observe it.
    fn insert_stripes_serially(
        striped: &StripedClam<Ssd>,
        ops: &[(u64, u64)],
    ) -> BatchInsertOutcome {
        let mut groups = vec![Vec::new(); striped.num_stripes()];
        for &(k, v) in ops {
            groups[striped.stripe_index(k)].push((k, v));
        }
        let mut total = BatchInsertOutcome { ops: ops.len(), ..Default::default() };
        for (i, group) in groups.iter().enumerate().filter(|(_, g)| !g.is_empty()) {
            let out = striped.stripe(i).unwrap().insert_batch(group).unwrap();
            total.latency += out.latency;
            total.flushed_ops += out.flushed_ops;
            total.evictions += out.evictions;
            total.coalesced_writes += out.coalesced_writes;
        }
        total
    }

    #[test]
    fn parallel_dispatch_matches_the_serial_path() {
        let parallel = StripedClam::new(vec![clam(), clam(), clam()]);
        let serial = StripedClam::new(vec![clam(), clam(), clam()]);
        let ops: Vec<(u64, u64)> = (0..60_000u64).map(|i| (key(i), i * 3)).collect();
        let mut max_total = flashsim::SimDuration::ZERO;
        let mut sum_total = flashsim::SimDuration::ZERO;
        for chunk in ops.chunks(512) {
            let p = parallel.insert_batch(chunk).unwrap();
            let s = insert_stripes_serially(&serial, chunk);
            // Same outcomes, event for event; only the latency accounting
            // differs (max-over-stripes vs. sum-over-stripes).
            assert_eq!(p.ops, s.ops);
            assert_eq!(p.flushed_ops, s.flushed_ops);
            assert_eq!(p.evictions, s.evictions);
            assert_eq!(p.coalesced_writes, s.coalesced_writes);
            assert!(p.latency <= s.latency);
            max_total += p.latency;
            sum_total += s.latency;
        }
        assert!(
            max_total < sum_total,
            "max-over-stripes ({max_total}) must undercut summed dispatch ({sum_total})"
        );
        // Identical end state: same per-stripe counters, same lookups.
        let (ps, ss) = (parallel.stats(), serial.stats());
        assert_eq!(ps.flushes, ss.flushes);
        assert_eq!(ps.inserts.len(), ss.inserts.len());
        assert_eq!(ps.batched_inserts, ss.batched_inserts);
        for i in (0..60_000u64).step_by(271) {
            assert_eq!(
                parallel.lookup(key(i)).unwrap().value,
                serial.lookup(key(i)).unwrap().value,
                "key {i}"
            );
        }
    }

    #[test]
    fn wrappers_expose_the_full_clam_surface() {
        let shared = SharedClam::new(clam());
        shared.insert(key(1), 1).unwrap();
        shared.update(key(1), 2).unwrap();
        assert!(shared.contains(key(1)).unwrap());
        let flushed = shared.flush_all().unwrap();
        assert!(flushed > flashsim::SimDuration::ZERO);
        shared.idle(flashsim::SimDuration::from_millis(1));
        shared.delete(key(1)).unwrap();
        assert!(!shared.contains(key(1)).unwrap());

        let striped = StripedClam::new(vec![clam(), clam()]);
        for i in 0..500u64 {
            striped.update(key(i), i).unwrap();
        }
        assert!(striped.contains(key(7)).unwrap());
        let flushes_before = striped.stats().flushes;
        striped.flush_all().unwrap();
        assert!(striped.stats().flushes > flushes_before);
        striped.delete(key(7)).unwrap();
        assert!(!striped.contains(key(7)).unwrap());
        // Buffered entries survive the flush.
        assert_eq!(striped.lookup(key(8)).unwrap().value, Some(8));
    }

    #[test]
    fn wrappers_recover_from_flash_contents() {
        // Fill a striped CLAM, flush, lose the DRAM, and recover each
        // stripe from its device image alone.
        let striped = StripedClam::new(vec![clam(), clam()]);
        let ops: Vec<(u64, u64)> = (0..20_000u64).map(|i| (key(i), i)).collect();
        for chunk in ops.chunks(512) {
            striped.insert_batch(chunk).unwrap();
        }
        striped.flush_all().unwrap();
        // Simulate the crash: drop every wrapper, keeping only the flash.
        let cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
        let pairs: Vec<(Ssd, ClamConfig)> = striped
            .stripes
            .into_iter()
            .map(|stripe| (stripe.into_clam().into_device(), cfg.clone()))
            .collect();
        let (recovered, reports) = StripedClam::recover(pairs).unwrap();
        assert_eq!(reports.len(), 2);
        for report in &reports {
            assert!(report.accepted > 0, "{report}");
            assert_eq!(report.torn, 0, "{report}");
        }
        for (k, v) in &ops {
            assert_eq!(recovered.lookup(*k).unwrap().value, Some(*v), "key {k:#x}");
        }
        assert_eq!(recovered.stats().recoveries, 2);
    }

    #[test]
    fn fast_reads_resolve_buffered_keys_without_the_write_lock() {
        let shared = SharedClam::new(clam());
        shared.insert(key(1), 10).unwrap();
        // Buffered key: resolves on the fast path, from DRAM, zero reads.
        let outcome = shared.try_fast_lookup(key(1)).expect("buffered key resolves fast");
        assert_eq!(outcome.value, Some(10));
        assert_eq!(outcome.source, crate::clam::LookupSource::Buffer);
        assert_eq!(outcome.flash_reads, 0);
        // A key with no live candidate anywhere is a fast miss.
        let miss = shared.try_fast_lookup(key(999_999)).expect("bloom-negative key is a fast miss");
        assert_eq!(miss.value, None);
        assert_eq!(miss.source, crate::clam::LookupSource::Miss);
        let stats = shared.stats();
        assert_eq!(stats.fast_lookups, 2);
        assert_eq!(stats.lookup_hits, 1);
        assert_eq!(stats.lookup_misses, 1);
        // The per-lookup invariants hold across the merged ledgers.
        assert_eq!(stats.flash_reads_histogram.iter().sum::<u64>(), stats.lookups.len() as u64);
        // Coarse mode disables the fast path entirely.
        shared.set_coarse_locks(true);
        assert!(shared.coarse_locks());
        assert!(shared.try_fast_lookup(key(1)).is_none());
        assert_eq!(shared.lookup(key(1)).unwrap().value, Some(10), "locked path still serves");
    }

    #[test]
    fn fast_reads_yield_to_writers_and_count_the_conflict() {
        let shared = SharedClam::new(clam());
        shared.insert(key(1), 1).unwrap();
        let reader = shared.clone();
        // While `with` holds the write lock the epoch is odd, so a
        // concurrent fast read must fall back (and count the conflict).
        shared.with(|_| {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    assert!(reader.try_fast_lookup(key(1)).is_none());
                });
            });
        });
        let stats = shared.stats();
        assert!(stats.fast_read_conflicts >= 1, "{stats}");
        assert_eq!(shared.lookup(key(1)).unwrap().value, Some(1));
    }

    #[test]
    fn fast_and_coarse_lookups_agree_after_flushes() {
        // Same op sequence against a fast-path CLAM and a coarse baseline:
        // identical values, sources and flash-read counts, per key.
        let fast = SharedClam::new(clam());
        let coarse = SharedClam::new(clam());
        coarse.set_coarse_locks(true);
        let ops: Vec<(u64, u64)> = (0..20_000u64).map(|i| (key(i), i)).collect();
        for chunk in ops.chunks(512) {
            fast.insert_batch(chunk).unwrap();
            coarse.insert_batch(chunk).unwrap();
        }
        for i in (0..20_000u64).step_by(501) {
            fast.delete(key(i)).unwrap();
            coarse.delete(key(i)).unwrap();
        }
        let keys: Vec<u64> =
            (0..3_000u64).map(|i| if i % 3 == 0 { key(i) } else { key(800_000 + i) }).collect();
        let f = fast.lookup_batch(&keys).unwrap();
        let c = coarse.lookup_batch(&keys).unwrap();
        for i in 0..keys.len() {
            assert_eq!(f[i].value, c[i].value, "key index {i}");
            assert_eq!(f[i].source, c[i].source, "key index {i}");
            assert_eq!(f[i].flash_reads, c[i].flash_reads, "key index {i}");
        }
        // Both ledgers saw every lookup, whichever path served it.
        let (fs, cs) = (fast.stats(), coarse.stats());
        assert_eq!(fs.lookups.len(), cs.lookups.len());
        assert_eq!(fs.lookup_hits, cs.lookup_hits);
        assert_eq!(fs.lookup_misses, cs.lookup_misses);
        assert_eq!(fs.batched_lookups, cs.batched_lookups);
        assert!(fs.fast_lookups > 0, "the fast path must have served the memory-resolved keys");
        assert_eq!(cs.fast_lookups, 0, "coarse mode never uses the fast path");
    }

    #[test]
    fn fine_and_coarse_writes_agree_and_fill_the_lock_ledger() {
        let fine = SharedClam::new(clam());
        let coarse = SharedClam::new(clam());
        coarse.set_coarse_locks(true);
        for i in 0..8_000u64 {
            fine.insert(key(i), i).unwrap();
            coarse.insert(key(i), i).unwrap();
        }
        for i in (0..8_000u64).step_by(97) {
            fine.delete(key(i)).unwrap();
            coarse.delete(key(i)).unwrap();
        }
        for i in (0..8_000u64).step_by(53) {
            assert_eq!(
                fine.lookup(key(i)).unwrap().value,
                coarse.lookup(key(i)).unwrap().value,
                "key {i}"
            );
        }
        let (fs, cs) = (fine.stats(), coarse.stats());
        assert_eq!(fs.flushes, cs.flushes);
        assert_eq!(fs.inserts.len(), cs.inserts.len());
        assert_eq!(fs.deletes.len(), cs.deletes.len());
        assert_eq!(fs.forced_evictions, cs.forced_evictions);
        assert_eq!(fs.coalesced_flush_writes, cs.coalesced_flush_writes);
        // Both modes run the same write code and take the table op locks;
        // the coarse baseline writes one table at a time under the
        // exclusive stripe lock, so its writes never overlap.
        assert!(fs.table_write_acquisitions >= 8_000, "{fs}");
        assert!(cs.table_write_acquisitions > 0, "{cs}");
        assert_eq!(cs.table_lock_high_water, 1, "{cs}");
    }

    #[test]
    fn table_writer_active_tracks_exclusive_and_fine_writers() {
        let shared = SharedClam::new(clam());
        shared.insert(key(1), 1).unwrap();
        assert!(!shared.table_writer_active(key(1)), "idle stripe has no writer");
        // An exclusive section makes every table's writer flag trip
        // (stripe-global epoch is odd while `with` runs).
        let probe = shared.clone();
        shared.with(|_| {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    assert!(probe.table_writer_active(key(1)));
                });
            });
        });
        assert!(!shared.table_writer_active(key(1)));
    }

    #[test]
    #[should_panic(expected = "at least one stripe")]
    fn empty_stripe_list_is_rejected() {
        let _ = StripedClam::<Ssd>::new(Vec::new());
    }

    #[test]
    fn missing_stripe_handle_is_none() {
        let striped = StripedClam::new(vec![clam()]);
        assert!(striped.stripe(0).is_some());
        assert!(striped.stripe(5).is_none());
    }
}
