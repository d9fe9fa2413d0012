//! Queue-depth sweep over the `Device` submission queues.
//!
//! Companion to ROADMAP's "async / io_uring-style device backend",
//! "true parallel stripe dispatch", "drive lookups through the
//! submission queue", "completion ring", "ring-driven write path" and
//! "crash consistency" and "intra-stripe write concurrency" items, in
//! eight parts:
//!
//! 1. **Real overlapped I/O** — flush-sized writes are submitted to a
//!    [`flashsim::FileDevice`] at several queue depths. The device spreads
//!    each batch over its worker pool (positioned I/O on the shared file)
//!    and the batch completes in max-over-lanes time; the acceptance bar is
//!    throughput improving monotonically with depth and **>= 2x at depth 8
//!    vs depth 1**.
//! 2. **Simulated SSD cross-check** — the same sweep against `Ssd` models
//!    with varying queue depth, compared with the closed-form
//!    `FlashCostModel::submit_makespan` term.
//! 3. **Parallel stripe dispatch** — `StripedClam::insert_batch` (stripes
//!    on their own threads, max-over-stripes latency) against running the
//!    stripes' sub-batches one after another (summed latency), with
//!    identical outcomes.
//! 4. **Queued lookups** — the read path: a miss-heavy `Clam::lookup_batch`
//!    sweep on the real file backend (probe waves overlap on the worker
//!    pool; acceptance bar **>= 2x lookup throughput at depth 8 vs
//!    depth 1**), plus an exact cross-check of the simulated SSD against
//!    `FlashCostModel::lookup_batch_makespan`.
//! 5. **Ring vs barrier** — miss-heavy lookups driven through the
//!    streaming completion ring (`Clam::lookup_batch`, submit-without-wait
//!    on the persistent pool) against the barrier wave reference
//!    (`Clam::lookup_batch_waves`), on *small batches over deep probe
//!    chains*, where the barrier's round tax is heaviest: every round it
//!    waits for the wave straggler and strands the queue's tail lanes
//!    (`batch mod depth` slots), while the ring re-arms each key the
//!    moment its previous read retires and keeps the lanes packed.
//!    Acceptance bar: **>= 1.2x at depth 8** (identical outcomes
//!    asserted; the closed-form `ring_over_waves_speedup` is printed
//!    alongside).
//! 6. **Mixed flush + lookup traffic** — the write path rides the same
//!    completion ring as the read path. First an exact cross-check of the
//!    simulated SSD against `FlashCostModel::mixed_ring_makespan`
//!    (flush-write phase then probe-chain phase through one shared ring),
//!    then a steady-state FileDevice sweep: each batch evicts + flushes an
//!    incarnation and then probes deep miss chains, on the default
//!    ring-driven CLAM vs the blocking barrier reference
//!    (`set_barrier_writes(true)` + `lookup_batch_waves`). Acceptance
//!    bar: **>= 1.2x ring over barrier at depth 8** (identical outcomes
//!    asserted).
//! 7. **Recovery scan** — a power cut (with a torn trailing write) lands
//!    at ~70% of an insert run, then `Clam::recover` ring-scans every log
//!    slot of the surviving image. The reported `scan_makespan` must match
//!    `FlashCostModel::recovery_scan_makespan` **exactly** at every queue
//!    depth, and scan throughput must scale with depth (>= 2x at the
//!    deepest queue vs depth 1).
//! 8. **Intra-stripe write concurrency** — `StripedClam::insert_batch` on
//!    a single stripe through the per-super-table write locks vs the
//!    `set_coarse_locks(true)` stripe-global baseline, over several batch
//!    sizes, with the fine arm forced through multi-chunk scoped-thread
//!    dispatch. Wall clock is informational (overlap needs spare cores);
//!    the acceptance is **exact cross-arm ledger sums**: identical
//!    per-batch outcomes, identical summed ledgers (flushes, forced
//!    evictions, coalesced runs, insert/delete recorder sums) and
//!    identical flash traffic. Both arms run the same write code, so both
//!    fill the table-lock ledger; the fine arm must hold two or more
//!    table locks at once, the coarse arm never more than one.
//!
//! `--smoke` runs a reduced sweep for CI.

use bench::{ms, print_header, print_row, workload_key};
use bufferhash::analysis::FlashCostModel;
use bufferhash::{Clam, ClamConfig, EvictionPolicy, FilterMode, FlashLayoutMode, StripedClam};
use flashsim::queue::batch_latency;
use flashsim::{Device, DeviceProfile, FileDevice, IoRequest, QueueCapabilities, SimDuration, Ssd};

struct Scale {
    /// Write requests per submission (one per coalesced flush run).
    requests: usize,
    /// Bytes per write request (one incarnation-sized flush run).
    request_bytes: usize,
    /// Measurement trials per depth (best trial wins, to shed scheduler
    /// noise on loaded hosts).
    trials: usize,
    /// Queue depths to sweep.
    depths: &'static [usize],
    /// Ops for the striped-dispatch comparison.
    striped_ops: u64,
    /// Keys loaded into the file-backed CLAM before the lookup sweep.
    lookup_load: u64,
    /// Keys per miss-heavy `lookup_batch` call in the lookup sweep.
    lookup_batch: usize,
    /// `lookup_batch` calls per trial in the lookup sweep.
    lookup_batches: usize,
    /// Keys per call in the ring-vs-barrier comparison (smaller batches
    /// accentuate the barrier's per-round straggler tax).
    ring_batch: usize,
    /// Calls per trial in the ring-vs-barrier comparison.
    ring_batches: usize,
}

const FULL: Scale = Scale {
    requests: 512,
    request_bytes: 64 * 1024,
    trials: 5,
    depths: &[1, 2, 4, 8],
    striped_ops: 60_000,
    lookup_load: 60_000,
    lookup_batch: 512,
    lookup_batches: 4,
    ring_batch: 10,
    ring_batches: 48,
};
const SMOKE: Scale = Scale {
    requests: 128,
    request_bytes: 16 * 1024,
    trials: 3,
    depths: &[1, 2, 8],
    striped_ops: 12_000,
    lookup_load: 60_000,
    lookup_batch: 256,
    lookup_batches: 2,
    ring_batch: 10,
    ring_batches: 24,
};

fn flush_batch(scale: &Scale) -> Vec<IoRequest> {
    (0..scale.requests)
        .map(|i| {
            IoRequest::write((i * scale.request_bytes) as u64, vec![i as u8; scale.request_bytes])
        })
        .collect()
}

fn mb_per_sec(bytes: usize, elapsed: SimDuration) -> f64 {
    bytes as f64 / (1 << 20) as f64 / elapsed.as_secs_f64().max(1e-12)
}

/// Host wall-clock cell for a table row. Wall time only reflects genuine
/// overlap when the host has spare cores for the worker pool (and the
/// stripe threads), so single-core hosts print `n/a` instead of a number
/// that cannot improve with depth.
fn wall_cell(wall_ms: f64) -> String {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
        format!("{wall_ms:.3}")
    } else {
        "n/a".into()
    }
}

/// Part 1: real overlapped file I/O. Returns PASS/FAIL.
fn file_device_sweep(scale: &Scale) -> bool {
    let capacity = (scale.requests * scale.request_bytes) as u64;
    let path = std::env::temp_dir().join(format!("clam-io-queue-depth-{}", std::process::id()));
    println!(
        "[1/8] FileDevice: {} flush writes x {} KiB per submission, best of {} trials",
        scale.requests,
        scale.request_bytes >> 10,
        scale.trials
    );
    let widths = [8, 14, 12, 14, 10, 22];
    print_header(
        &["depth", "elapsed (ms)", "wall (ms)", "MiB/s", "speedup", "overlapped/submitted"],
        &widths,
    );

    // "elapsed" is the queue's completion latency (max over lanes of
    // measured per-request times — the issue-prescribed accounting, which
    // the PASS bar gates on); "wall" is the host wall clock around the
    // whole submission, shown for transparency (on hosts with fewer cores
    // than the queue depth the pool is capped and wall time cannot shrink
    // with depth, which is exactly why the queue model exists).
    let mut throughputs: Vec<f64> = Vec::new();
    let mut base = 0.0f64;
    for &depth in scale.depths {
        let mut best = SimDuration::from_secs(3600);
        let mut best_wall = f64::MAX;
        let mut last_stats = String::new();
        for _ in 0..scale.trials {
            let mut dev = FileDevice::with_queue_depth(&path, capacity, depth).expect("file dev");
            let mut requests = flush_batch(scale);
            let wall_start = std::time::Instant::now();
            let completions = dev.submit(&mut requests).expect("submit");
            let wall = wall_start.elapsed().as_secs_f64() * 1e3;
            assert!(completions.iter().all(|c| c.result.is_ok()), "file I/O failed");
            best = best.min(batch_latency(&completions));
            best_wall = best_wall.min(wall);
            let s = dev.stats();
            last_stats = format!("{}/{}", s.requests_overlapped, s.requests_submitted);
        }
        let thr = mb_per_sec(scale.requests * scale.request_bytes, best);
        if depth == scale.depths[0] {
            base = thr;
        }
        throughputs.push(thr);
        print_row(
            &[
                format!("{depth}"),
                ms(best),
                format!("{best_wall:.3}"),
                format!("{thr:.0}"),
                format!("{:.2}x", thr / base.max(1e-12)),
                last_stats,
            ],
            &widths,
        );
    }
    std::fs::remove_file(&path).ok();
    println!(
        "(\"elapsed\" = device-queue completion accounting, the swept metric; \"wall\" = host\n\
         wall clock, bounded by this machine's {} core(s) regardless of queue depth)",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // 3% tolerance absorbs wall-clock measurement noise (per-depth steps
    // are ~2x, so this cannot mask a real regression).
    let monotone = throughputs.windows(2).all(|w| w[1] >= w[0] * 0.97);
    let speedup = throughputs.last().unwrap() / base.max(1e-12);
    let pass = monotone && speedup >= 2.0;
    if pass {
        println!(
            "PASS: throughput improves monotonically and is {speedup:.2}x at depth {} vs depth {}\n",
            scale.depths.last().unwrap(),
            scale.depths[0]
        );
    } else {
        println!(
            "FAIL: monotone = {monotone}, depth-{} speedup = {speedup:.2}x (target: monotone, >= 2x)\n",
            scale.depths.last().unwrap()
        );
    }
    pass
}

/// Part 2: simulated SSD sweep against the closed-form queue model.
fn simulated_sweep(scale: &Scale) {
    const PAGES: usize = 64;
    println!("[2/8] Simulated Intel-class SSD: {PAGES} page writes per submission vs model");
    let widths = [8, 16, 16, 10];
    print_header(&["depth", "measured (ms)", "model (ms)", "speedup"], &widths);
    let mut base = SimDuration::ZERO;
    for &depth in scale.depths {
        let profile = DeviceProfile {
            queue: QueueCapabilities::overlapped(depth),
            ..DeviceProfile::intel_x18m()
        };
        let mut ssd = Ssd::with_profile(16 << 20, profile.clone()).expect("ssd");
        let mut requests: Vec<IoRequest> =
            (0..PAGES).map(|i| IoRequest::write((i * 4096) as u64, vec![7u8; 4096])).collect();
        let completions = ssd.submit(&mut requests).expect("submit");
        let measured = batch_latency(&completions);
        let model = FlashCostModel::from_profile(&profile).submit_makespan(
            PAGES,
            profile.write_cost.cost(4096),
            depth,
        );
        assert_eq!(
            measured, model,
            "simulator and closed-form queue model must agree at depth {depth}"
        );
        if depth == scale.depths[0] {
            base = measured;
        }
        print_row(
            &[
                format!("{depth}"),
                ms(measured),
                ms(model),
                format!("{:.2}x", base.as_nanos() as f64 / measured.as_nanos().max(1) as f64),
            ],
            &widths,
        );
    }
    println!("simulator == closed-form model at every depth\n");
}

/// The serial arm of part 3: routes `ops` with `stripe_index`, then runs
/// each stripe's sub-batch in turn and sums the latency, as a one-device
/// deployment would observe it. Returns `(flushed ops, evictions,
/// summed latency)`.
fn insert_stripes_serially<D: Device>(
    striped: &StripedClam<D>,
    ops: &[(u64, u64)],
) -> (usize, usize, SimDuration) {
    let mut groups = vec![Vec::new(); striped.num_stripes()];
    for &(key, value) in ops {
        groups[striped.stripe_index(key)].push((key, value));
    }
    let mut total = (0, 0, SimDuration::ZERO);
    for (i, group) in groups.iter().enumerate().filter(|(_, g)| !g.is_empty()) {
        let out = striped.stripe(i).expect("stripe").insert_batch(group).expect("serial");
        total = (total.0 + out.flushed_ops, total.1 + out.evictions, total.2 + out.latency);
    }
    total
}

/// Part 3: parallel stripe dispatch vs a serial stripe-by-stripe arm.
fn striped_dispatch(scale: &Scale) {
    const STRIPES: usize = 4;
    let stripe = || {
        let cfg = ClamConfig::small_test(8 << 20, 2 << 20).expect("cfg");
        Clam::new(Ssd::intel(8 << 20).expect("ssd"), cfg).expect("clam")
    };
    let parallel = StripedClam::new((0..STRIPES).map(|_| stripe()).collect());
    let serial = StripedClam::new((0..STRIPES).map(|_| stripe()).collect());
    let ops: Vec<(u64, u64)> = (0..scale.striped_ops).map(|i| (workload_key(i), i)).collect();
    let mut par_total = SimDuration::ZERO;
    let mut ser_total = SimDuration::ZERO;
    let mut par_wall = 0.0f64;
    let mut ser_wall = 0.0f64;
    for chunk in ops.chunks(1024) {
        let t = std::time::Instant::now();
        let p = parallel.insert_batch(chunk).expect("parallel");
        par_wall += t.elapsed().as_secs_f64() * 1e3;
        let t = std::time::Instant::now();
        let s = insert_stripes_serially(&serial, chunk);
        ser_wall += t.elapsed().as_secs_f64() * 1e3;
        assert_eq!((p.flushed_ops, p.evictions), (s.0, s.1));
        par_total += p.latency;
        ser_total += s.2;
    }
    assert_eq!(parallel.stats().flushes, serial.stats().flushes, "outcomes must not change");
    println!(
        "[3/8] StripedClam ({STRIPES} stripes, {} inserts): parallel dispatch {} \
         (max-over-stripes) vs serial {} (summed) -> {:.2}x",
        scale.striped_ops,
        ms(par_total),
        ms(ser_total),
        ser_total.as_nanos() as f64 / par_total.as_nanos().max(1) as f64
    );
    println!(
        "wall clock: parallel {} ms vs serial {} ms (stripe threads need spare cores)",
        wall_cell(par_wall),
        wall_cell(ser_wall)
    );
    // Flush every stripe concurrently (max-over-stripes latency) so the
    // device counters below show the queued incarnation writes.
    let flush_latency = parallel.flush_all().expect("flush_all");
    println!("flush_all across stripes: {} (max-over-stripes)", ms(flush_latency));
    let stats = parallel.stripe(0).expect("stripe").with(|c| c.device().stats());
    println!("stripe-0 device counters: {stats}");
}

/// A single-super-table CLAM with `rounds` incarnations of a few entries
/// each and Bloom filters disabled: every miss probes every incarnation,
/// one page per wave, with no overflow chains — a deterministic probe
/// pattern for the exact model cross-check.
fn deterministic_probe_clam<D: Device>(device: D, rounds: usize) -> Clam<D> {
    let cfg = ClamConfig {
        flash_capacity: 8 << 20,
        dram_bytes: 1 << 20,
        buffer_bytes_total: 32 * 1024,
        buffer_bytes_per_table: 32 * 1024,
        entry_size: 16,
        max_buffer_utilization: 0.5,
        eviction: EvictionPolicy::Fifo,
        filter_mode: FilterMode::Disabled,
        layout: FlashLayoutMode::GlobalLog,
        enable_buffering: true,
    };
    cfg.validate().expect("valid probe config");
    let mut clam = Clam::new(device, cfg).expect("clam");
    for round in 0..rounds as u64 {
        for i in 0..8u64 {
            clam.insert(workload_key(round * 100 + i), i).expect("insert");
        }
        clam.flush_all().expect("flush");
    }
    clam
}

/// Part 4: the queued lookup pipeline. Returns PASS/FAIL.
fn queued_lookup_sweep(scale: &Scale) -> bool {
    // ------------------------------------------------------------------
    // 4a. Simulated SSD vs the closed-form queued-lookup model (exact).
    // ------------------------------------------------------------------
    const KEYS: usize = 64;
    const ROUNDS: usize = 4;
    println!(
        "[4/8] Queued lookups: {KEYS} misses x {ROUNDS} probes each on the simulated SSD vs model"
    );
    let widths = [8, 16, 16, 10];
    print_header(&["depth", "measured (ms)", "model (ms)", "speedup"], &widths);
    let mut base = SimDuration::ZERO;
    for &depth in scale.depths {
        let profile = DeviceProfile {
            queue: QueueCapabilities::overlapped(depth),
            ..DeviceProfile::intel_x18m()
        };
        let mut clam = deterministic_probe_clam(
            Ssd::with_profile(8 << 20, profile.clone()).expect("ssd"),
            ROUNDS,
        );
        let keys: Vec<u64> = (0..KEYS as u64).map(|i| workload_key(7_000_000 + i)).collect();
        let batch = clam.lookup_batch(&keys).expect("lookup_batch");
        assert_eq!(batch.waves, ROUNDS, "every miss probes every incarnation");
        assert_eq!(batch.probe_reads, ROUNDS * KEYS);
        let model = FlashCostModel::from_profile(&profile);
        let predicted = model.lookup_batch_makespan(KEYS, ROUNDS, depth);
        assert_eq!(
            batch.probe_latency, predicted,
            "simulator and closed-form queued-lookup model must agree at depth {depth}"
        );
        if depth == scale.depths[0] {
            base = batch.probe_latency;
        }
        print_row(
            &[
                format!("{depth}"),
                ms(batch.probe_latency),
                ms(predicted),
                format!(
                    "{:.2}x",
                    base.as_nanos() as f64 / batch.probe_latency.as_nanos().max(1) as f64
                ),
            ],
            &widths,
        );
    }
    println!("simulator == closed-form queued-lookup model at every depth\n");

    // ------------------------------------------------------------------
    // 4b. Miss-heavy lookup_batch sweep on the real file backend.
    // ------------------------------------------------------------------
    let path = std::env::temp_dir().join(format!("clam-lookup-queue-{}", std::process::id()));
    println!(
        "miss-heavy Clam::lookup_batch on FileDevice: {} batches x {} absent keys \
         (Bloom filters disabled), best of {} trials",
        scale.lookup_batches, scale.lookup_batch, scale.trials
    );
    let widths = [8, 14, 14, 12, 10];
    print_header(&["depth", "elapsed (ms)", "klookups/s", "probe reads", "speedup"], &widths);
    let mut throughputs: Vec<f64> = Vec::new();
    let mut base = 0.0f64;
    for &depth in scale.depths {
        // Build and load once per depth: the sweep keys all miss and the
        // policy is FIFO, so lookups mutate nothing — trials can reuse the
        // loaded CLAM and only re-measure the lookup phase.
        let device = FileDevice::with_queue_depth(&path, 8 << 20, depth).expect("file device");
        let mut cfg = ClamConfig::small_test(8 << 20, 2 << 20).expect("cfg");
        cfg.filter_mode = FilterMode::Disabled;
        let mut clam = Clam::new(device, cfg).expect("clam");
        let load: Vec<(u64, u64)> = (0..scale.lookup_load).map(|i| (workload_key(i), i)).collect();
        for chunk in load.chunks(1024) {
            clam.insert_batch(chunk).expect("load");
        }
        let mut best = SimDuration::from_secs(3600);
        let mut probe_reads = 0usize;
        for _ in 0..scale.trials {
            let mut elapsed = SimDuration::ZERO;
            probe_reads = 0;
            for b in 0..scale.lookup_batches {
                let keys: Vec<u64> = (0..scale.lookup_batch as u64)
                    .map(|i| workload_key(9_000_000 + b as u64 * 100_000 + i))
                    .collect();
                let batch = clam.lookup_batch(&keys).expect("lookup_batch");
                assert_eq!(batch.hits(), 0, "sweep keys must miss");
                elapsed += batch.latency;
                probe_reads += batch.probe_reads;
            }
            best = best.min(elapsed);
        }
        let lookups = (scale.lookup_batches * scale.lookup_batch) as f64;
        let thr = lookups / best.as_millis_f64().max(1e-12);
        if depth == scale.depths[0] {
            base = thr;
        }
        throughputs.push(thr);
        print_row(
            &[
                format!("{depth}"),
                ms(best),
                format!("{thr:.1}"),
                format!("{probe_reads}"),
                format!("{:.2}x", thr / base.max(1e-12)),
            ],
            &widths,
        );
    }
    std::fs::remove_file(&path).ok();

    // Same tolerance story as part 1: queue-completion accounting, with a
    // 3% allowance for wall-clock noise in the measured per-read times.
    let monotone = throughputs.windows(2).all(|w| w[1] >= w[0] * 0.97);
    let speedup = throughputs.last().unwrap() / base.max(1e-12);
    let pass = monotone && speedup >= 2.0;
    if pass {
        println!(
            "PASS: miss-heavy lookup throughput is {speedup:.2}x at depth {} vs depth {}\n",
            scale.depths.last().unwrap(),
            scale.depths[0]
        );
    } else {
        println!(
            "FAIL: monotone = {monotone}, depth-{} lookup speedup = {speedup:.2}x \
             (target: monotone, >= 2x)\n",
            scale.depths.last().unwrap()
        );
    }
    pass
}

/// Part 5: streaming ring vs barrier waves on the real file backend.
/// Returns PASS/FAIL.
fn ring_vs_barrier_sweep(scale: &Scale) -> bool {
    const ROUNDS: usize = 16;
    let path = std::env::temp_dir().join(format!("clam-ring-barrier-{}", std::process::id()));
    println!(
        "[5/8] Ring vs barrier on FileDevice: {} batches x {} absent keys probing {ROUNDS} \
         incarnations each, best of {} trials",
        scale.ring_batches, scale.ring_batch, scale.trials
    );
    let widths = [8, 14, 14, 13, 13, 10, 12, 11, 11];
    print_header(
        &[
            "depth",
            "barrier (ms)",
            "ring (ms)",
            "barrier wall",
            "ring wall",
            "reaps",
            "depth hwm",
            "ring gain",
            "model gain",
        ],
        &widths,
    );
    let mut final_gain = 0.0f64;
    for &depth in scale.depths {
        // Build and load once per depth: sweep keys all miss under FIFO,
        // so both pipelines observe identical state and trials can reuse
        // the loaded CLAM.
        let device = FileDevice::with_queue_depth(&path, 8 << 20, depth).expect("file device");
        let mut clam = deterministic_probe_clam(device, ROUNDS);
        let model_gain = FlashCostModel::from_profile(clam.device().profile())
            .ring_over_waves_speedup(scale.ring_batch, ROUNDS, depth);
        let mut best_barrier = SimDuration::from_secs(3600);
        let mut best_ring = SimDuration::from_secs(3600);
        let mut best_barrier_wall = f64::MAX;
        let mut best_ring_wall = f64::MAX;
        let mut reaps = 0usize;
        let mut depth_hwm = 0usize;
        for _ in 0..scale.trials {
            let mut barrier = SimDuration::ZERO;
            let mut ring = SimDuration::ZERO;
            let mut barrier_wall = 0.0f64;
            let mut ring_wall = 0.0f64;
            for b in 0..scale.ring_batches {
                let keys: Vec<u64> = (0..scale.ring_batch as u64)
                    .map(|i| workload_key(9_500_000 + b as u64 * 100_000 + i))
                    .collect();
                // Alternate call order so neither pipeline systematically
                // benefits from the other having warmed the page cache.
                let (w, r) = if b % 2 == 0 {
                    let t = std::time::Instant::now();
                    let w = clam.lookup_batch_waves(&keys).expect("lookup_batch_waves");
                    barrier_wall += t.elapsed().as_secs_f64() * 1e3;
                    let t = std::time::Instant::now();
                    let r = clam.lookup_batch(&keys).expect("lookup_batch");
                    ring_wall += t.elapsed().as_secs_f64() * 1e3;
                    (w, r)
                } else {
                    let t = std::time::Instant::now();
                    let r = clam.lookup_batch(&keys).expect("lookup_batch");
                    ring_wall += t.elapsed().as_secs_f64() * 1e3;
                    let t = std::time::Instant::now();
                    let w = clam.lookup_batch_waves(&keys).expect("lookup_batch_waves");
                    barrier_wall += t.elapsed().as_secs_f64() * 1e3;
                    (w, r)
                };
                assert_eq!(w.hits(), 0, "sweep keys must miss");
                assert_eq!(w.waves, ROUNDS, "every miss probes every incarnation");
                // The streaming pipeline must produce identical outcomes.
                assert_eq!(r.values(), w.values(), "ring and barrier outcomes diverge");
                assert_eq!(r.probe_reads, w.probe_reads);
                barrier += w.probe_latency;
                ring += r.probe_latency;
                reaps = r.reaps;
                depth_hwm = r.ring_depth_high_water;
            }
            best_barrier = best_barrier.min(barrier);
            best_ring = best_ring.min(ring);
            best_barrier_wall = best_barrier_wall.min(barrier_wall);
            best_ring_wall = best_ring_wall.min(ring_wall);
        }
        let gain = best_barrier.as_nanos() as f64 / best_ring.as_nanos().max(1) as f64;
        final_gain = gain;
        print_row(
            &[
                format!("{depth}"),
                ms(best_barrier),
                ms(best_ring),
                wall_cell(best_barrier_wall),
                wall_cell(best_ring_wall),
                format!("{reaps}"),
                format!("{depth_hwm}"),
                format!("{gain:.2}x"),
                format!("{model_gain:.2}x"),
            ],
            &widths,
        );
    }
    std::fs::remove_file(&path).ok();
    println!(
        "(barrier = Clam::lookup_batch_waves, one Device::submit per round, which strands\n\
         the tail lanes of every round; ring = Clam::lookup_batch, submit-without-wait +\n\
         reap, which re-arms each key the moment its previous read retires)"
    );
    let pass = final_gain >= 1.2;
    if pass {
        println!(
            "PASS: streaming ring is {final_gain:.2}x over the barrier wave pipeline at depth {}\n",
            scale.depths.last().unwrap()
        );
    } else {
        println!(
            "FAIL: ring gain at depth {} is {final_gain:.2}x (target: >= 1.2x)\n",
            scale.depths.last().unwrap()
        );
    }
    pass
}

/// A single-super-table CLAM whose global log holds exactly `rounds`
/// incarnations: once the build fills the log, every further `flush_all`
/// wraps — forced FIFO eviction (trim) plus a fresh incarnation write —
/// so the measured loop runs in steady state (constant incarnation count,
/// constant probe depth) with real write traffic in every batch.
/// Incarnation size for the steady-state sweep: small relative to the
/// probe traffic (each batch reads `ring_batch x rounds` pages but writes
/// only one incarnation), so the sweep measures the *mixed* pipeline
/// rather than being dominated by a large sequential write that neither
/// arm can overlap (a single coalesced run occupies one lane either way).
const STEADY_BUFFER: u64 = 4 * 1024;

fn steady_state_clam<D: Device>(device: D, rounds: usize) -> Clam<D> {
    let cfg = ClamConfig {
        flash_capacity: rounds as u64 * STEADY_BUFFER,
        dram_bytes: 1 << 20,
        buffer_bytes_total: STEADY_BUFFER,
        buffer_bytes_per_table: STEADY_BUFFER,
        entry_size: 16,
        max_buffer_utilization: 0.5,
        eviction: EvictionPolicy::Fifo,
        filter_mode: FilterMode::Disabled,
        layout: FlashLayoutMode::GlobalLog,
        enable_buffering: true,
    };
    cfg.validate().expect("valid steady-state config");
    let mut clam = Clam::new(device, cfg).expect("clam");
    for round in 0..rounds as u64 {
        for i in 0..8u64 {
            clam.insert(workload_key(round * 100 + i), i).expect("insert");
        }
        clam.flush_all().expect("flush");
    }
    clam
}

/// Part 6: mixed flush + lookup traffic through the one shared ring.
/// Returns PASS/FAIL.
fn mixed_ring_sweep(scale: &Scale) -> bool {
    use flashsim::{CompletionRing, RingRequest};
    use std::collections::HashMap;

    // ------------------------------------------------------------------
    // 6a. Simulated SSD vs the closed-form mixed-ring model (exact).
    // ------------------------------------------------------------------
    const BUFFER: usize = 32 << 10;
    const FLUSHES: usize = 8;
    const KEYS: usize = 48;
    const PROBES: usize = 4;
    println!(
        "[6/8] Mixed ring: {FLUSHES} flush writes then {KEYS} misses x {PROBES} probes \
         through one ring on the simulated SSD vs model"
    );
    let widths = [8, 16, 16, 10];
    print_header(&["depth", "measured (ms)", "model (ms)", "speedup"], &widths);
    let mut base = SimDuration::ZERO;
    for &depth in scale.depths {
        let profile = DeviceProfile {
            queue: QueueCapabilities::overlapped(depth),
            ..DeviceProfile::intel_x18m()
        };
        let mut dev = Ssd::with_profile(64 << 20, profile.clone()).expect("ssd");
        let page = profile.page_size as usize;
        let model = FlashCostModel::from_profile(&profile);
        let mut ring = CompletionRing::new(model.lanes_at_depth(depth));
        // Write phase: incarnation-sized flush writes to disjoint log
        // slots, admitted without waiting.
        let writes: Vec<RingRequest> = (0..FLUSHES)
            .map(|i| RingRequest::new(IoRequest::write((i * BUFFER) as u64, vec![0xAA; BUFFER])))
            .collect();
        dev.submit_nowait(writes, &mut ring).expect("write phase");
        dev.reap(&mut ring, 1).expect("reap");
        // Read phase: probe chains, each re-armed as its previous read
        // retires — behind every write's conflict floor.
        let read_base = (FLUSHES * BUFFER) as u64;
        let first: Vec<RingRequest> = (0..KEYS)
            .map(|i| RingRequest::new(IoRequest::read(read_base + (i * page) as u64, page)))
            .collect();
        let tickets = dev.submit_nowait(first, &mut ring).expect("read phase");
        let mut rounds: HashMap<u64, usize> = tickets.iter().map(|t| (t.id(), 1)).collect();
        while ring.in_flight() > 0 {
            for c in dev.reap(&mut ring, 1).expect("reap") {
                let done = rounds.remove(&c.ticket.id()).expect("armed ticket");
                if done < PROBES {
                    let next = RingRequest::after(IoRequest::read(read_base, page), c.completed_at);
                    let t = dev.submit_nowait(vec![next], &mut ring).expect("re-arm");
                    rounds.insert(t[0].id(), done + 1);
                }
            }
        }
        let measured = ring.makespan();
        let predicted = model.mixed_ring_makespan(KEYS, PROBES, FLUSHES, BUFFER, depth);
        assert_eq!(
            measured, predicted,
            "simulator and closed-form mixed-ring model must agree at depth {depth}"
        );
        if depth == scale.depths[0] {
            base = measured;
        }
        print_row(
            &[
                format!("{depth}"),
                ms(measured),
                ms(predicted),
                format!("{:.2}x", base.as_nanos() as f64 / measured.as_nanos().max(1) as f64),
            ],
            &widths,
        );
    }
    println!("simulator == closed-form mixed-ring model at every depth\n");

    // ------------------------------------------------------------------
    // 6b. Steady-state flush + lookup sweep on the real file backend.
    // ------------------------------------------------------------------
    const ROUNDS: usize = 24;
    let dir = std::env::temp_dir();
    let ring_path = dir.join(format!("clam-mixed-ring-{}", std::process::id()));
    let barrier_path = dir.join(format!("clam-mixed-barrier-{}", std::process::id()));
    println!(
        "steady-state FileDevice sweep: per batch, one wrap flush (evict + incarnation \
         write) then {} absent keys probing {ROUNDS} incarnations, {} batches, best of {} \
         trials",
        scale.ring_batch, scale.ring_batches, scale.trials
    );
    let widths = [8, 14, 14, 13, 13, 9, 10];
    print_header(
        &["depth", "barrier (ms)", "ring (ms)", "barrier wall", "ring wall", "writes", "ring gain"],
        &widths,
    );
    let mut final_gain = 0.0f64;
    for &depth in scale.depths {
        let capacity = ROUNDS as u64 * STEADY_BUFFER;
        let ring_dev = FileDevice::with_queue_depth(&ring_path, capacity, depth).expect("file dev");
        let barrier_dev =
            FileDevice::with_queue_depth(&barrier_path, capacity, depth).expect("file dev");
        let mut ring_clam = steady_state_clam(ring_dev, ROUNDS);
        let mut barrier_clam = steady_state_clam(barrier_dev, ROUNDS);
        barrier_clam.set_barrier_writes(true);
        let mut best_ring = SimDuration::from_secs(3600);
        let mut best_barrier = SimDuration::from_secs(3600);
        let mut best_ring_wall = f64::MAX;
        let mut best_barrier_wall = f64::MAX;
        for trial in 0..scale.trials {
            let mut ring_elapsed = SimDuration::ZERO;
            let mut barrier_elapsed = SimDuration::ZERO;
            let mut ring_wall = 0.0f64;
            let mut barrier_wall = 0.0f64;
            for b in 0..scale.ring_batches {
                let tag = (trial * scale.ring_batches + b) as u64;
                let inserts: Vec<(u64, u64)> =
                    (0..8u64).map(|i| (workload_key(3_000_000 + tag * 100 + i), i)).collect();
                let misses: Vec<u64> = (0..scale.ring_batch as u64)
                    .map(|i| workload_key(9_700_000 + tag * 100_000 + i))
                    .collect();
                // Ring arm: streaming flush writes + streaming lookups.
                let t = std::time::Instant::now();
                let ins = ring_clam.insert_batch(&inserts).expect("ring insert");
                let flush = ring_clam.flush_all().expect("ring flush");
                let looked = ring_clam.lookup_batch(&misses).expect("ring lookup");
                ring_wall += t.elapsed().as_secs_f64() * 1e3;
                ring_elapsed += ins.latency + flush + looked.probe_latency;
                // Barrier arm: blocking writes + wave lookups.
                let t = std::time::Instant::now();
                let b_ins = barrier_clam.insert_batch(&inserts).expect("barrier insert");
                let b_flush = barrier_clam.flush_all().expect("barrier flush");
                let b_looked = barrier_clam.lookup_batch_waves(&misses).expect("barrier lookup");
                barrier_wall += t.elapsed().as_secs_f64() * 1e3;
                barrier_elapsed += b_ins.latency + b_flush + b_looked.probe_latency;
                // Both arms must observe the identical steady state.
                assert_eq!(looked.hits(), 0, "sweep keys must miss");
                assert_eq!(looked.values(), b_looked.values(), "mixed outcomes diverge");
                assert_eq!(looked.probe_reads, b_looked.probe_reads);
                assert_eq!((ins.flushed_ops, ins.evictions), (b_ins.flushed_ops, b_ins.evictions));
            }
            best_ring = best_ring.min(ring_elapsed);
            best_barrier = best_barrier.min(barrier_elapsed);
            best_ring_wall = best_ring_wall.min(ring_wall);
            best_barrier_wall = best_barrier_wall.min(barrier_wall);
        }
        let ring_stats = ring_clam.device().stats();
        let barrier_stats = barrier_clam.device().stats();
        assert_eq!(ring_stats.writes, barrier_stats.writes, "flash write traffic diverges");
        assert_eq!(ring_stats.trims, barrier_stats.trims, "eviction trim traffic diverges");
        let gain = best_barrier.as_nanos() as f64 / best_ring.as_nanos().max(1) as f64;
        final_gain = gain;
        print_row(
            &[
                format!("{depth}"),
                ms(best_barrier),
                ms(best_ring),
                wall_cell(best_barrier_wall),
                wall_cell(best_ring_wall),
                format!("{}", ring_stats.writes),
                format!("{gain:.2}x"),
            ],
            &widths,
        );
    }
    std::fs::remove_file(&ring_path).ok();
    std::fs::remove_file(&barrier_path).ok();
    println!(
        "(barrier = set_barrier_writes(true) + lookup_batch_waves: every flush write and\n\
         eviction trim blocks in Device::submit and every probe round waits for its wave\n\
         straggler; ring = the default path: writes and reads admitted to one shared\n\
         completion ring, submit-without-wait + reap)"
    );
    let pass = final_gain >= 1.2;
    if pass {
        println!(
            "PASS: ring-driven mixed traffic is {final_gain:.2}x over the barrier path at depth {}\n",
            scale.depths.last().unwrap()
        );
    } else {
        println!(
            "FAIL: mixed ring gain at depth {} is {final_gain:.2}x (target: >= 1.2x)\n",
            scale.depths.last().unwrap()
        );
    }
    pass
}

/// Part 7: recovery scan after a power cut vs the closed-form model.
/// Returns PASS/FAIL.
fn recovery_sweep(scale: &Scale) -> bool {
    use flashsim::CrashDevice;
    // 8 MiB flash under `small_test` = 256 log slots of 32 KiB each.
    const FLASH: u64 = 8 << 20;
    const SLOTS: usize = 256;
    const SLOT_BYTES: usize = 32 << 10;
    const LOAD: u64 = 40_000;
    println!(
        "[7/8] Recovery scan: power cut + torn write at ~70% of a {LOAD}-insert run, then \
         Clam::recover ring-scans all {SLOTS} slots vs FlashCostModel::recovery_scan_makespan"
    );
    let widths = [8, 12, 14, 14, 10, 12, 10];
    print_header(
        &["depth", "accepted", "measured (ms)", "model (ms)", "MiB/s", "entries", "speedup"],
        &widths,
    );
    let mut all_exact = true;
    let mut throughputs: Vec<f64> = Vec::new();
    let mut base = 0.0f64;
    for &depth in scale.depths {
        let profile = DeviceProfile {
            queue: QueueCapabilities::overlapped(depth),
            ..DeviceProfile::intel_x18m()
        };
        let cfg = ClamConfig::small_test(FLASH, 2 << 20).expect("cfg");
        // Twin run: total data-effect device ops for the workload, so the
        // cut can land at a fixed fraction of the real schedule.
        let mut twin = Clam::new(
            CrashDevice::new(Ssd::with_profile(FLASH, profile.clone()).expect("ssd")),
            cfg.clone(),
        )
        .expect("clam");
        for i in 0..LOAD {
            twin.insert(workload_key(i), i).expect("insert");
        }
        twin.flush_all().expect("flush");
        let total = twin.device().crash_stats().ops_applied;
        // Victim run: power cut at 70% of that schedule, torn final write.
        let mut crash = CrashDevice::cut_after(
            Ssd::with_profile(FLASH, profile.clone()).expect("ssd"),
            total * 7 / 10,
        );
        crash.set_torn_write_bytes(1_500);
        let victim = Clam::new(crash, cfg.clone()).expect("clam");
        for i in 0..LOAD {
            if victim.insert(workload_key(i), i).is_err() {
                break;
            }
        }
        let image = victim.into_device().into_inner();
        let (_, report) = Clam::recover(image, cfg).expect("recover");
        let model =
            FlashCostModel::from_profile(&profile).recovery_scan_makespan(SLOTS, SLOT_BYTES, depth);
        let exact = report.scan_makespan == model;
        all_exact &= exact;
        let thr = mb_per_sec(report.bytes_scanned as usize, report.scan_makespan);
        if depth == scale.depths[0] {
            base = thr;
        }
        throughputs.push(thr);
        print_row(
            &[
                format!("{depth}"),
                format!("{}+{}t", report.accepted, report.torn),
                ms(report.scan_makespan),
                format!("{}{}", ms(model), if exact { "" } else { " !" }),
                format!("{thr:.0}"),
                format!("{}", report.entries_recovered),
                format!("{:.2}x", thr / base.max(1e-12)),
            ],
            &widths,
        );
    }
    println!(
        "(measured = RecoveryReport::scan_makespan, the completion-ring makespan of the\n\
         whole-log slot scan; model = recovery_scan_makespan(slots, slot_bytes, depth))"
    );
    let monotone = throughputs.windows(2).all(|w| w[1] >= w[0]);
    let speedup = throughputs.last().unwrap() / base.max(1e-12);
    let pass = all_exact && monotone && speedup >= 2.0;
    if pass {
        println!(
            "PASS: scan == model at every depth; recovery throughput is {speedup:.2}x at \
             depth {} vs depth {}\n",
            scale.depths.last().unwrap(),
            scale.depths[0]
        );
    } else {
        println!(
            "FAIL: exact = {all_exact}, monotone = {monotone}, depth-{} speedup = \
             {speedup:.2}x (target: exact, monotone, >= 2x)\n",
            scale.depths.last().unwrap()
        );
    }
    pass
}

/// Part 8: per-super-table write concurrency inside one stripe — the
/// fine-grained write-lock path vs the `set_coarse_locks(true)`
/// stripe-global baseline, over several batch sizes. The fine arm is
/// forced through multi-chunk scoped-thread dispatch so the gate +
/// rendezvous machinery runs regardless of this host's core count; wall
/// clock is informational (overlap needs spare cores). Acceptance is
/// exactness, asserted batch by batch and again over the summed
/// ledgers: the fine path must replay the coarse baseline's write
/// history — flushes, forced evictions, coalesced runs, recorder sums
/// and raw flash traffic — while filling the table-lock ledger the
/// coarse arm must leave empty.
fn write_concurrency_sweep(scale: &Scale) {
    const CHUNK_SIZES: &[usize] = &[512, 4096, 16384];
    // Small enough that the insert volume overruns the buffers: the sweep
    // must drive flush chains (and their allocator grants) through the
    // batch gate, not just buffer-resident commits.
    let stripe = || {
        let cfg = ClamConfig::small_test(4 << 20, 1 << 20).expect("cfg");
        Clam::new(Ssd::intel(4 << 20).expect("ssd"), cfg).expect("clam")
    };
    println!(
        "[8/8] Intra-stripe write concurrency: {} inserts on one stripe, per-table write \
         locks (4 forced chunks) vs set_coarse_locks(true), per batch size",
        scale.striped_ops
    );
    let widths = [8, 11, 13, 10, 14, 11, 9];
    print_header(
        &["batch", "fine wall", "coarse wall", "lock hwm", "acquisitions", "contended", "flushes"],
        &widths,
    );
    for &chunk_size in CHUNK_SIZES {
        let fine = StripedClam::new(vec![stripe()]);
        let coarse = StripedClam::new(vec![stripe()]);
        fine.set_batch_parallelism(Some(4));
        coarse.set_coarse_locks(true);
        let ops: Vec<(u64, u64)> = (0..scale.striped_ops).map(|i| (workload_key(i), i)).collect();
        let mut fine_wall = 0.0f64;
        let mut coarse_wall = 0.0f64;
        for chunk in ops.chunks(chunk_size) {
            let t = std::time::Instant::now();
            let f = fine.insert_batch(chunk).expect("fine batch");
            fine_wall += t.elapsed().as_secs_f64() * 1e3;
            let t = std::time::Instant::now();
            let c = coarse.insert_batch(chunk).expect("coarse batch");
            coarse_wall += t.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                (f.flushed_ops, f.evictions, f.coalesced_writes, f.latency),
                (c.flushed_ops, c.evictions, c.coalesced_writes, c.latency),
                "fine and coarse batch outcomes diverge at batch size {chunk_size}"
            );
            // A scalar delete + re-insert per batch keeps the per-table
            // delete path in the measured mix.
            let (key, value) = chunk[0];
            fine.delete(key).expect("fine delete");
            coarse.delete(key).expect("coarse delete");
            fine.insert(key, value).expect("fine re-insert");
            coarse.insert(key, value).expect("coarse re-insert");
        }
        let fs = fine.stats();
        let cs = coarse.stats();
        assert_eq!(fs.flushes, cs.flushes, "flush ledger sums diverge");
        assert_eq!(fs.forced_evictions, cs.forced_evictions, "eviction ledger sums diverge");
        assert_eq!(
            fs.coalesced_flush_writes, cs.coalesced_flush_writes,
            "coalesced-run ledger sums diverge"
        );
        assert_eq!(fs.batched_inserts, cs.batched_inserts, "batched-insert ledger sums diverge");
        assert_eq!(
            (fs.inserts.len(), fs.inserts.total()),
            (cs.inserts.len(), cs.inserts.total()),
            "insert recorder sums diverge"
        );
        assert_eq!(
            (fs.deletes.len(), fs.deletes.total()),
            (cs.deletes.len(), cs.deletes.total()),
            "delete recorder sums diverge"
        );
        let f_dev = fine.stripe(0).expect("stripe").with(|c| c.device().stats());
        let c_dev = coarse.stripe(0).expect("stripe").with(|c| c.device().stats());
        assert_eq!(
            (f_dev.writes, f_dev.bytes_written, f_dev.trims, f_dev.erases),
            (c_dev.writes, c_dev.bytes_written, c_dev.trims, c_dev.erases),
            "flash traffic diverges"
        );
        assert!(fs.table_write_acquisitions > 0, "fine arm must take table locks");
        assert!(fs.table_lock_high_water >= 2, "forced chunks must overlap: {fs}");
        // The coarse arm runs the same write code one table at a time
        // under the exclusive stripe lock: no intra-stripe overlap.
        assert!(cs.table_write_acquisitions > 0, "coarse arm writes through table locks");
        assert_eq!(cs.table_lock_high_water, 1, "coarse arm writes must not overlap: {cs}");
        print_row(
            &[
                format!("{chunk_size}"),
                wall_cell(fine_wall),
                wall_cell(coarse_wall),
                format!("{}", fs.table_lock_high_water),
                format!("{}", fs.table_write_acquisitions),
                format!("{}", fs.table_write_contended),
                format!("{}", fs.flushes),
            ],
            &widths,
        );
    }
    println!(
        "exact: per-batch outcomes, summed ledgers and flash traffic matched across arms at\n\
         every batch size (wall clock informational — overlap needs spare cores)\n"
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { &SMOKE } else { &FULL };
    println!("Submission-queue depth sweep ({} mode)\n", if smoke { "smoke" } else { "full" });
    let write_pass = file_device_sweep(scale);
    simulated_sweep(scale);
    striped_dispatch(scale);
    let lookup_pass = queued_lookup_sweep(scale);
    let ring_pass = ring_vs_barrier_sweep(scale);
    let mixed_pass = mixed_ring_sweep(scale);
    let recovery_pass = recovery_sweep(scale);
    write_concurrency_sweep(scale);
    if !write_pass || !lookup_pass || !ring_pass || !mixed_pass || !recovery_pass {
        println!(
            "\noverall: FAIL (write scaling: {}, queued lookup scaling: {}, ring vs barrier: {}, \
             mixed ring: {}, recovery scan: {})",
            if write_pass { "ok" } else { "below target" },
            if lookup_pass { "ok" } else { "below target" },
            if ring_pass { "ok" } else { "below target" },
            if mixed_pass { "ok" } else { "below target" },
            if recovery_pass { "ok" } else { "below target" }
        );
        std::process::exit(1);
    }
    println!("\noverall: PASS");
}
