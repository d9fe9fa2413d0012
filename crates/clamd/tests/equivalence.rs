//! Sharded group commit and the seqlock read fast path must be
//! invisible except for speed: every outcome a client (or a store
//! caller) observes has to be identical to the single-gather,
//! coarse-locked baseline. Three angles:
//!
//! * store level — the same op sequence through a fine-grained
//!   [`StripedClam`] (per-table write locks + seqlock read fast path)
//!   and a coarse one over **all five** flashsim backends, comparing
//!   per-key values, sources, flash reads, the stores' flush/eviction
//!   ledgers and the devices' raw write/trim/erase traffic;
//! * wire level — two real `clamd` servers (shards=1 + coarse locks vs
//!   shards=4 + fast path) answering identical per-connection scripts
//!   with identical response streams;
//! * starvation — one stripe hammered with inserts while lookups run on
//!   the other stripes, with a bounded tail as the liveness check.

use std::time::{Duration, Instant};

use bufferhash::{hash_with_seed, Clam, ClamConfig, StripedClam};
use clamd::batcher::BatcherConfig;
use clamd::client::ClamdClient;
use clamd::proto::{Op, RespBody};
use clamd::server::{boot_sim, ephemeral_sim_server_sharded, ClamdServer, ServerConfig};
use flashsim::{Device, DramDevice, FileDevice, FlashChip, MagneticDisk, SharedDevice, Ssd};
use proptest::collection::vec;
use proptest::prelude::*;

const STRIPES: usize = 4;
const FLASH: u64 = 8 << 20;
const DRAM: u64 = 2 << 20;
/// Seed of [`StripedClam::stripe_index`]'s routing hash; the starvation
/// test uses it to aim keys at specific stripes.
const STRIPE_SEED: u64 = 0x57_e19e;

/// Stripes `device` exactly the way the server boot path does, keeping a
/// handle on the underlying device so tests can audit its I/O ledger.
fn striped<D: Device>(device: D) -> (StripedClam<SharedDevice<D>>, SharedDevice<D>) {
    let cfg = ClamConfig::small_test(FLASH / STRIPES as u64, DRAM / STRIPES as u64).unwrap();
    let shared = SharedDevice::new(device);
    let stripes = shared
        .split(STRIPES)
        .unwrap()
        .into_iter()
        .map(|partition| Clam::new(partition, cfg.clone()).unwrap())
        .collect();
    (StripedClam::new(stripes), shared)
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("clamd-equiv-{}-{}", std::process::id(), name));
    p
}

/// Drives the sampled op sequence through both stores and asserts every
/// observable outcome matches, then audits the whole keyspace, the two
/// stores' ledgers, and the raw flash traffic on the backing devices.
fn assert_stores_agree<A: Device, B: Device>(
    (fast, fast_dev): &(StripedClam<SharedDevice<A>>, SharedDevice<A>),
    (coarse, coarse_dev): &(StripedClam<SharedDevice<B>>, SharedDevice<B>),
    ops: &[(u8, u64)],
    seed: u64,
    label: &str,
) {
    coarse.set_coarse_locks(true);
    // Force the fine store's batches through the multi-chunk scoped-thread
    // dispatch (gate + rendezvous) even on single-core hosts, so the
    // identity claim is tested against the genuinely concurrent path. The
    // same override on the coarse store must not matter: coarse mode runs
    // every batch as one chunk.
    fast.set_batch_parallelism(Some(3));
    coarse.set_batch_parallelism(Some(3));
    let key = |raw: u64| hash_with_seed(raw % 192, seed);
    for (i, &(kind, raw)) in ops.iter().enumerate() {
        match kind % 10 {
            0..=2 => {
                fast.insert(key(raw), raw).unwrap();
                coarse.insert(key(raw), raw).unwrap();
            }
            3 => {
                fast.delete(key(raw)).unwrap();
                coarse.delete(key(raw)).unwrap();
            }
            4 => {
                let pairs: Vec<(u64, u64)> =
                    (0..32).map(|j| (key(raw.wrapping_add(j)), raw ^ j)).collect();
                fast.insert_batch(&pairs).unwrap();
                coarse.insert_batch(&pairs).unwrap();
            }
            5 => {
                let keys: Vec<u64> = (0..24).map(|j| key(raw.wrapping_add(j * 3))).collect();
                let f = fast.lookup_batch(&keys).unwrap();
                let c = coarse.lookup_batch(&keys).unwrap();
                for (j, (fo, co)) in f.outcomes.iter().zip(c.outcomes.iter()).enumerate() {
                    assert_eq!(fo.value, co.value, "{label}: op {i} batch slot {j}");
                    assert_eq!(fo.source, co.source, "{label}: op {i} batch slot {j}");
                    assert_eq!(fo.flash_reads, co.flash_reads, "{label}: op {i} batch slot {j}");
                }
            }
            6 => {
                fast.flush_all().unwrap();
                coarse.flush_all().unwrap();
            }
            _ => {
                let f = fast.lookup(key(raw)).unwrap();
                let c = coarse.lookup(key(raw)).unwrap();
                assert_eq!(f.value, c.value, "{label}: op {i}");
                assert_eq!(f.source, c.source, "{label}: op {i}");
                assert_eq!(f.flash_reads, c.flash_reads, "{label}: op {i}");
            }
        }
    }
    // Full-keyspace audit: both stores hold exactly the same map.
    let keys: Vec<u64> = (0..192).map(key).collect();
    let f = fast.lookup_batch(&keys).unwrap();
    let c = coarse.lookup_batch(&keys).unwrap();
    for (j, (fo, co)) in f.outcomes.iter().zip(c.outcomes.iter()).enumerate() {
        assert_eq!(fo.value, co.value, "{label}: audit slot {j}");
        assert_eq!(fo.source, co.source, "{label}: audit slot {j}");
    }
    // Both ledgers counted every lookup; only the fast store used the
    // epoch-validated path, and only when writes left it room to.
    let (fs, cs) = (fast.stats(), coarse.stats());
    assert_eq!(fs.lookup_hits, cs.lookup_hits, "{label}");
    assert_eq!(fs.lookup_misses, cs.lookup_misses, "{label}");
    assert_eq!(cs.fast_lookups, 0, "{label}: coarse mode must never take the fast path");
    // Write-side identity: the one write body, run at three chunks under
    // the shared stripe lock and at one chunk under the exclusive lock,
    // must produce the same flush/eviction history exactly (the flush
    // gate's claim) — same flush count and sequence effects, same forced
    // evictions, same coalesced write runs, same cuckoo cascade shape,
    // and the same per-op latency totals (simulated time is
    // deterministic).
    assert_eq!(fs.flushes, cs.flushes, "{label}: flush count");
    assert_eq!(fs.forced_evictions, cs.forced_evictions, "{label}: forced evictions");
    assert_eq!(fs.coalesced_flush_writes, cs.coalesced_flush_writes, "{label}: coalesced runs");
    assert_eq!(fs.cascade_histogram, cs.cascade_histogram, "{label}: cascade shape");
    assert_eq!(fs.inserts.len(), cs.inserts.len(), "{label}: insert count");
    assert_eq!(fs.inserts.total(), cs.inserts.total(), "{label}: summed insert latency");
    assert_eq!(fs.deletes.len(), cs.deletes.len(), "{label}: delete count");
    assert_eq!(fs.deletes.total(), cs.deletes.total(), "{label}: summed delete latency");
    // Both stores write through the table locks; the coarse one (exclusive
    // stripe lock, one-chunk batches) never holds two at once.
    assert!(fs.table_write_acquisitions > 0, "{label}: fine writes must take table locks");
    assert!(cs.table_write_acquisitions > 0, "{label}: coarse writes take table locks too");
    assert_eq!(cs.table_lock_high_water, 1, "{label}: coarse writes must not overlap");
    // Device-level identity: byte-for-byte the same flash write, trim
    // and erase traffic (reads too — lookup outcomes already matched).
    let (fio, cio) = (fast_dev.with(|d| d.stats()), coarse_dev.with(|d| d.stats()));
    assert_eq!(fio.writes, cio.writes, "{label}: flash writes");
    assert_eq!(fio.bytes_written, cio.bytes_written, "{label}: flash bytes written");
    assert_eq!(fio.trims, cio.trims, "{label}: trims");
    assert_eq!(fio.erases, cio.erases, "{label}: erases");
    assert_eq!(fio.reads, cio.reads, "{label}: flash reads");
    assert_eq!(fio.bytes_read, cio.bytes_read, "{label}: flash bytes read");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The fast-path store and the coarse-locked baseline are
    /// indistinguishable — per value, per source, per flash read — on
    /// every one of the five flashsim backends.
    #[test]
    fn fast_and_coarse_stores_agree_on_every_backend(
        seed in any::<u64>(),
        ops in vec((0u8..10, any::<u64>()), 150..300),
    ) {
        assert_stores_agree(
            &striped(Ssd::intel(FLASH).unwrap()),
            &striped(Ssd::intel(FLASH).unwrap()),
            &ops, seed, "ssd",
        );
        assert_stores_agree(
            &striped(DramDevice::new(FLASH).unwrap()),
            &striped(DramDevice::new(FLASH).unwrap()),
            &ops, seed, "dram",
        );
        assert_stores_agree(
            &striped(FlashChip::new(FLASH).unwrap()),
            &striped(FlashChip::new(FLASH).unwrap()),
            &ops, seed, "flash-chip",
        );
        assert_stores_agree(
            &striped(MagneticDisk::new(FLASH).unwrap()),
            &striped(MagneticDisk::new(FLASH).unwrap()),
            &ops, seed, "disk",
        );
        let (pf, pc) = (temp_path(&format!("f-{seed:x}")), temp_path(&format!("c-{seed:x}")));
        let _ = std::fs::remove_file(&pf);
        let _ = std::fs::remove_file(&pc);
        assert_stores_agree(
            &striped(FileDevice::with_queue_depth(&pf, FLASH, 4).unwrap()),
            &striped(FileDevice::with_queue_depth(&pc, FLASH, 4).unwrap()),
            &ops, seed, "file",
        );
        let _ = std::fs::remove_file(&pf);
        let _ = std::fs::remove_file(&pc);
    }
}

/// Two tables of **one stripe** must hold their write locks at the same
/// time during a fine-grained batch: the per-stripe concurrency
/// high-water ledger proves the commits overlapped instead of
/// serializing behind a stripe-global lock. The forced chunk count makes
/// this deterministic on any host — the chunks rendezvous on a barrier
/// with their first table lock held, so all of them demonstrably hold a
/// lock at one instant even when the OS time-slices them on one core.
#[test]
fn fine_batch_write_locks_overlap_within_one_stripe() {
    let cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
    let store = StripedClam::new(vec![Clam::new(Ssd::intel(4 << 20).unwrap(), cfg).unwrap()]);
    store.set_batch_parallelism(Some(4));
    // Enough keys to populate several super tables of the single stripe.
    let ops: Vec<(u64, u64)> = (0..4_000u64).map(|i| (hash_with_seed(i, 0x5eed), i)).collect();
    store.insert_batch(&ops).unwrap();
    let stats = store.stats();
    assert!(
        stats.table_lock_high_water >= 2,
        "a fine batch over one stripe must write-lock >= 2 tables concurrently: {stats}"
    );
    assert!(stats.table_write_acquisitions > 0, "{stats}");
    // The batch's effects are intact despite the concurrent commits.
    for (k, v) in ops.iter().rev().take(500) {
        assert_eq!(store.lookup(*k).unwrap().value, Some(*v), "key {k:#x}");
    }
}

/// A deterministic per-connection op script over a keyspace disjoint
/// from every other connection's, so the response stream is a pure
/// function of the script — whatever the server's shard count.
fn script(conn: u64) -> Vec<Op> {
    let key = |r: u64| hash_with_seed(conn * 10_000 + r % 90, 7);
    (0..180u64)
        .map(|i| match i % 10 {
            0..=3 => Op::Insert { key: key(i), value: conn * 1_000_000 + i },
            4 => Op::Delete { key: key(i * 7) },
            5 => Op::InsertBatch(
                (0..16).map(|j| (key(i + j), conn * 1_000_000 + i * 100 + j)).collect(),
            ),
            6 => Op::LookupBatch((0..24).map(|j| key(i * 3 + j)).collect()),
            7 => Op::Flush,
            _ => Op::Lookup { key: key(i * 5) },
        })
        .collect()
}

/// Runs the three connection scripts against `server`: on concurrent
/// connections, or one connection after another.
fn run_scripts<D: Device + 'static>(
    server: &ClamdServer<D>,
    concurrent: bool,
) -> Vec<Vec<RespBody>> {
    let addr = server.local_addr();
    let run = move |conn: u64| -> Vec<RespBody> {
        let mut client = ClamdClient::connect(addr).unwrap();
        script(conn).into_iter().map(|op| client.call(op).unwrap()).collect()
    };
    if !concurrent {
        return (0..3u64).map(run).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3u64).map(|conn| scope.spawn(move || run(conn))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Runs the scripts against a sharded fast-path server and against the
/// single-gather, coarse-locked baseline, both over `flash_bytes` of
/// flash, and asserts byte-identical response streams and ledgers.
/// Returns each store's `(device trims, forced evictions)`, baseline
/// first: every eviction trims its slot, and the stripes share one
/// device, so one stripe's handle sees all trims.
fn assert_server_matches_baseline(flash_bytes: u64, concurrent: bool) -> [(u64, u64); 2] {
    let config = |shards| ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        stripes: STRIPES,
        flash_bytes,
        dram_bytes: 4 << 20,
        batcher: BatcherConfig { shards, ..BatcherConfig::default() },
    };
    let baseline_store = boot_sim(&config(1)).unwrap();
    baseline_store.set_coarse_locks(true);
    let baseline_stripe = baseline_store.stripe(0).unwrap();
    let baseline = ClamdServer::start(baseline_store, Vec::new(), config(1)).unwrap();
    let sharded_store = boot_sim(&config(STRIPES)).unwrap();
    let sharded_stripe = sharded_store.stripe(0).unwrap();
    let sharded = ClamdServer::start(sharded_store, Vec::new(), config(STRIPES)).unwrap();
    assert_eq!(sharded.num_shards(), STRIPES);

    let base_streams = run_scripts(&baseline, concurrent);
    let shard_streams = run_scripts(&sharded, concurrent);
    for (conn, (b, s)) in base_streams.iter().zip(shard_streams.iter()).enumerate() {
        assert_eq!(b.len(), s.len(), "conn {conn}");
        for (i, (bb, ss)) in b.iter().zip(s.iter()).enumerate() {
            assert_eq!(bb, ss, "conn {conn} response {i}");
        }
    }
    // Same work, counted identically, whichever engine did it.
    let (bs, ss) = (baseline.stats(), sharded.stats());
    assert_eq!(bs.inserts, ss.inserts);
    assert_eq!(bs.lookups, ss.lookups);
    assert_eq!(bs.lookup_hits, ss.lookup_hits);
    assert_eq!(bs.lookup_misses, ss.lookup_misses);
    assert_eq!(bs.deletes, ss.deletes);
    assert_eq!(bs.flushes, ss.flushes);
    // Only the sharded server's store ever took the epoch-validated path.
    assert_eq!(baseline.clam_stats().fast_lookups, 0);
    assert!(sharded.clam_stats().fast_lookups > 0, "{:?}", sharded.stats());
    [(&baseline_stripe, &baseline), (&sharded_stripe, &sharded)].map(|(stripe, server)| {
        (stripe.with(|c| c.device().stats().trims), server.clam_stats().forced_evictions)
    })
}

/// The sharded fast-path server answers every connection with exactly
/// the byte-identical response stream of the single-gather,
/// coarse-locked baseline, with the three connections running at once.
#[test]
fn sharded_server_matches_coarse_single_gather_baseline_over_tcp() {
    // Every FLUSH, from any connection, adds an incarnation to each
    // non-empty table, so how many incarnations a table holds at a given
    // op depends on how the connections interleave. The response streams
    // are a pure function of the scripts only while nothing is evicted:
    // 64 MiB over four stripes leaves room for 63 incarnations per table,
    // more than the scripts' 54 FLUSHes can create.
    let evictions = assert_server_matches_baseline(64 << 20, true);
    assert_eq!(evictions, [(0, 0); 2], "(trims, forced evictions): an incarnation was evicted");
}

/// The same comparison through FIFO eviction: at 16 MiB a table holds
/// only 15 incarnations, so the scripts' FLUSHes evict. Running the
/// connections one after another keeps the op order, and so the
/// evictions, a function of the scripts alone.
#[test]
fn sharded_server_matches_coarse_baseline_through_eviction_over_tcp() {
    let [baseline, sharded] = assert_server_matches_baseline(16 << 20, false);
    assert!(baseline.0 > 0, "the scripts should evict at 16 MiB: {baseline:?}");
    assert_eq!(baseline, sharded, "(trims, forced evictions)");
}

/// Hammering one stripe with inserts must not starve lookups on the
/// other stripes: with per-stripe shards the readers' p99 stays bounded
/// (the bound is liveness-grade generous — the point is that readers
/// are not serialized behind the writer's stripe).
#[test]
fn insert_hammer_on_one_stripe_does_not_starve_reads_on_others() {
    let server = ephemeral_sim_server_sharded(STRIPES, STRIPES, 32 << 20, 8 << 20).unwrap();
    let addr = server.local_addr();
    let stripe_of = |key: u64| (hash_with_seed(key, STRIPE_SEED) % STRIPES as u64) as usize;

    // Preload read targets on stripes 1..4 only.
    let read_keys: Vec<u64> = (0..).filter(|&k| stripe_of(k) != 0).take(2_000).collect();
    let mut loader = ClamdClient::connect(addr).unwrap();
    loader.insert_batch(read_keys.iter().map(|&k| (k, k + 1)).collect()).unwrap();

    let p99 = std::thread::scope(|scope| {
        // Hammer stripe 0 with inserts for the whole measurement window.
        let hammer = scope.spawn(move || {
            let mut client = ClamdClient::connect(addr).unwrap();
            let keys: Vec<u64> = (1 << 32..).filter(|&k| stripe_of(k) == 0).take(512).collect();
            for i in 0..6_000u64 {
                let key = keys[(i % keys.len() as u64) as usize];
                client.insert(key, i).unwrap();
            }
        });
        let readers: Vec<_> = (0..2)
            .map(|r| {
                let read_keys = &read_keys;
                scope.spawn(move || {
                    let mut client = ClamdClient::connect(addr).unwrap();
                    let mut lat = Vec::with_capacity(2_000);
                    for i in 0..2_000usize {
                        let key = read_keys[(i * 7 + r * 13) % read_keys.len()];
                        let start = Instant::now();
                        assert_eq!(client.lookup(key).unwrap(), Some(key + 1));
                        lat.push(start.elapsed());
                    }
                    lat
                })
            })
            .collect();
        let mut lat: Vec<Duration> = readers.into_iter().flat_map(|h| h.join().unwrap()).collect();
        hammer.join().unwrap();
        lat.sort_unstable();
        lat[lat.len() * 99 / 100]
    });
    assert!(p99 < Duration::from_millis(250), "reader p99 {p99:?} under insert hammer");

    // The hammer really was confined to one shard's ledger.
    let per_shard = server.per_shard_stats();
    let hammered: Vec<usize> =
        (0..per_shard.len()).filter(|&i| per_shard[i].inserts >= 6_000).collect();
    assert_eq!(hammered.len(), 1, "exactly one shard absorbed the hammer: {per_shard:?}");
}
