//! `clamd-loadgen` — open-loop load generator and smoke harness for
//! `clamd`.
//!
//! Default mode runs a **load sweep**: calibrate the server's saturation
//! throughput with a closed-loop flood, then offer open-loop arrival
//! rates at several multiples of it (under-load through past-saturation)
//! and report, per level, the sustained throughput, the client-observed
//! p50/p99/p999 latency and the server's group-commit shape over that
//! window. Unless `--addr` points at a running server, an in-process
//! sim-backed server is spawned on an ephemeral loopback port.
//!
//! The in-process server can be sharded (`--shards`) and file-backed
//! (`--flash-file`; an existing image is recovered in place before the
//! run). `--connect HOST:PORT` (alias: `--addr`) skips the in-process
//! server entirely and drives an already-running `clamd` — start one
//! `clamd` process and point several `clamd-loadgen --connect` processes
//! at it for a multi-process load test.
//!
//! `--smoke` runs the CI loopback check instead: a deterministic
//! preload / mixed-pipeline / verify sequence with **exact** count
//! assertions against the server's ledger — once over the single-shard
//! baseline, once over a four-shard batcher (whose per-shard ledgers
//! must sum to the baseline's totals and whose read-heavy verify phase
//! must take the batcher bypass) — and, when this host has at least 4
//! cores, two saturation bars: the sharded server must sustain >= 1.2x
//! the single-shard flood throughput, and a single-stripe store's
//! per-super-table write locks must sustain >= 1.2x the
//! `set_coarse_locks(true)` insert-heavy flood.
//!
//! ```text
//! clamd-loadgen [--connect HOST:PORT] [--connections 4] [--ops 20000]
//!               [--key-space 20000] [--zipf-s 0.99]
//!               [--lookup-fraction 0.8] [--hit-fraction 0.5]
//!               [--stripes 4] [--shards N] [--flash-bytes 67108864]
//!               [--dram-bytes 8388608] [--flash-file PATH] [--queue-depth N]
//!               [--multiples 0.5,0.9,1.5] [--seed N] [--smoke]
//! ```

use std::net::SocketAddr;

use bench::{ms, print_cdf, print_header, print_row, TailSummary};
use bufferhash::{hash_with_seed, Clam, ClamConfig, StripedClam};
use clamd::batcher::BatcherConfig;
use clamd::client::ClamdClient;
use clamd::loadgen::{self, key_for, value_for, LoadgenConfig};
use clamd::proto::{Op, RespBody, StatsFields};
use clamd::server::{
    boot_file, ephemeral_sim_server_sharded, BootError, ClamdServer, ServerConfig,
};
use clamd::stats::ServerStats;
use flashsim::{FileDevice, LatencyRecorder, SharedDevice, SimDuration, Ssd};

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag_value(args, name) {
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("clamd-loadgen: invalid value {raw:?} for {name}");
            std::process::exit(2);
        }),
        None => default,
    }
}

/// An in-process server of either backing, kept alive for the run.
enum SpawnedServer {
    Sim(ClamdServer<SharedDevice<Ssd>>),
    File(ClamdServer<SharedDevice<FileDevice>>),
}

impl SpawnedServer {
    fn local_addr(&self) -> SocketAddr {
        match self {
            SpawnedServer::Sim(s) => s.local_addr(),
            SpawnedServer::File(s) => s.local_addr(),
        }
    }

    fn num_shards(&self) -> usize {
        match self {
            SpawnedServer::Sim(s) => s.num_shards(),
            SpawnedServer::File(s) => s.num_shards(),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        match smoke() {
            Ok(()) => println!("SMOKE PASS"),
            Err(e) => {
                eprintln!("SMOKE FAIL: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Err(e) = sweep_main(&args) {
        eprintln!("clamd-loadgen: {e}");
        std::process::exit(1);
    }
}

fn sweep_main(args: &[String]) -> Result<(), BootError> {
    let config = LoadgenConfig {
        connections: parse(args, "--connections", 4),
        ops: parse(args, "--ops", 20_000),
        rate: f64::INFINITY,
        lookup_fraction: parse(args, "--lookup-fraction", 0.8),
        hit_fraction: parse(args, "--hit-fraction", 0.5),
        key_space: parse(args, "--key-space", 20_000),
        zipf_s: parse(args, "--zipf-s", 0.99),
        seed: parse(args, "--seed", 0x10ad),
    };
    let multiples: Vec<f64> = flag_value(args, "--multiples")
        .unwrap_or_else(|| "0.5,0.9,1.5".to_string())
        .split(',')
        .map(|s| s.trim().parse().expect("--multiples takes comma-separated floats"))
        .collect();
    assert!(multiples.len() >= 3, "a sweep needs at least 3 load levels to span saturation");

    // Either aim at a running server (multi-process client mode) or
    // spawn one in-process — sim-backed by default, file-backed (with
    // in-place recovery of an existing image) under --flash-file.
    let connect = flag_value(args, "--connect").or_else(|| flag_value(args, "--addr"));
    let (addr, server): (SocketAddr, Option<SpawnedServer>) = match connect {
        Some(addr) => (addr.parse()?, None),
        None => {
            let stripes = parse(args, "--stripes", 4);
            let server_config = ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                stripes,
                flash_bytes: parse(args, "--flash-bytes", 64u64 << 20),
                dram_bytes: parse(args, "--dram-bytes", 8u64 << 20),
                batcher: BatcherConfig {
                    shards: parse(args, "--shards", stripes),
                    ..BatcherConfig::default()
                },
            };
            let server = match flag_value(args, "--flash-file") {
                Some(path) => {
                    let path = std::path::PathBuf::from(path);
                    let existed = path.exists();
                    let queue_depth =
                        parse(args, "--queue-depth", flashsim::DEFAULT_FILE_QUEUE_DEPTH);
                    let (store, reports) = boot_file(&path, &server_config, queue_depth)?;
                    if existed {
                        println!("recovered {} stripes from {}", reports.len(), path.display());
                        for (i, report) in reports.iter().enumerate() {
                            println!("  stripe {i}: {report}");
                        }
                    } else {
                        println!("created fresh store at {}", path.display());
                    }
                    SpawnedServer::File(ClamdServer::start(store, reports, server_config)?)
                }
                None => SpawnedServer::Sim(ClamdServer::start_sim(server_config)?),
            };
            println!(
                "spawned in-process clamd on {} ({} batcher shards)",
                server.local_addr(),
                server.num_shards()
            );
            (server.local_addr(), Some(server))
        }
    };

    println!(
        "preloading {} keys ({} connections, zipf s={}, {:.0}% lookups / {:.0}% hits)…",
        config.key_space,
        config.connections,
        config.zipf_s,
        config.lookup_fraction * 100.0,
        config.hit_fraction * 100.0
    );
    let preloaded = loadgen::preload(addr, config.key_space)?;
    assert_eq!(preloaded, config.key_space, "every preload insert must be acknowledged");

    let (flood, levels) = loadgen::sweep(addr, &config, &multiples)?;
    println!(
        "\ncalibration (closed-loop flood): {:.0} ops/s sustained over {} ops\n",
        flood.achieved, flood.completed
    );

    let widths = [12usize, 12, 12, 11, 11, 11, 11, 12];
    print_header(
        &[
            "offered/s",
            "achieved/s",
            "completed",
            "p50 ms",
            "p99 ms",
            "p999 ms",
            "mean batch",
            "lingered",
        ],
        &widths,
    );
    for level in &levels {
        let r = &level.report;
        print_row(
            &[
                format!("{:.0}", r.offered),
                format!("{:.0}", r.achieved),
                format!("{}", r.completed),
                ms(r.tail.p50),
                ms(r.tail.p99),
                ms(r.tail.p999),
                format!("{:.1}", level.server.mean_batch()),
                format!("{}", level.server.group_commit_waits),
            ],
            &widths,
        );
    }
    println!();
    for level in &mut levels.into_iter() {
        let label = format!("client-observed latency @ {:.0} ops/s offered", level.report.offered);
        let mut latencies = level.report.latencies;
        print_cdf(&label, &mut latencies, 16);
        println!(
            "  tail: {}   (hits {} / misses {} / inserts {} / errors {})",
            level.report.tail,
            level.report.hits,
            level.report.misses,
            level.report.inserts,
            level.report.errors
        );
        println!(
            "  server window: {} gathers (hwm {}), {} insert + {} lookup admissions\n",
            level.server.batches,
            level.server.batch_high_water,
            level.server.insert_admissions,
            level.server.lookup_admissions
        );
    }
    println!(
        "Reading the sweep: below saturation the offered and achieved rates agree and\n\
         the tail tracks device latency; past saturation the achieved rate pins at the\n\
         calibrated capacity while open-loop queueing delay blows up p99/p999 — and the\n\
         mean group-commit gather grows with load, coalescing more requests per ring\n\
         admission exactly when admissions are the scarce resource."
    );
    drop(server);
    Ok(())
}

/// Smoke workload shape, shared by both arms.
const PRELOAD: u64 = 2_000;
const CONNS: u64 = 4;
const PER_CONN: u64 = 500;
/// Key-id base for smoke-phase misses (disjoint from every other range).
const SMOKE_MISS_BASE: u64 = 1 << 50;
/// Key-id base for smoke-phase inserts.
const SMOKE_INSERT_BASE: u64 = 1 << 51;
/// Stripes both smoke arms run over (so `--shards 4` is not clamped).
const SMOKE_STRIPES: usize = 4;

/// The CI loopback smoke check: the full deterministic sequence over the
/// single-shard baseline, the same sequence over a four-shard batcher
/// (per-shard ledgers must sum to the baseline's totals and the serial
/// verify phase must take the bypass), then — on hosts with enough
/// cores — the sharded-vs-single saturation bar.
fn smoke() -> Result<(), BootError> {
    let baseline = smoke_arm(1)?;
    let sharded = smoke_arm(4)?;

    // Both arms served the identical op sequence, so the merged service
    // counts must agree exactly — sharding changes who commits, not what.
    assert_eq!(sharded.fields.inserts, baseline.fields.inserts, "arm insert totals");
    assert_eq!(sharded.fields.lookups, baseline.fields.lookups, "arm lookup totals");
    assert_eq!(sharded.fields.lookup_hits, baseline.fields.lookup_hits, "arm hit totals");
    assert_eq!(sharded.fields.lookup_misses, baseline.fields.lookup_misses, "arm miss totals");

    // The sharded arm's per-shard gather ledgers must sum back to its
    // merged totals (which equal the single-shard arm's).
    assert_eq!(sharded.per_shard.len(), 4, "four shard ledgers");
    let shard_inserts: u64 = sharded.per_shard.iter().map(|s| s.inserts).sum();
    let shard_lookups: u64 = sharded.per_shard.iter().map(|s| s.lookups).sum();
    assert_eq!(shard_inserts, baseline.fields.inserts, "shard insert ledgers sum to baseline");
    assert_eq!(shard_lookups, baseline.fields.lookups, "shard lookup ledgers sum to baseline");
    assert!(
        sharded.per_shard.iter().filter(|s| s.inserts > 0).count() > 1,
        "the key space must spread over more than one shard"
    );

    // The serial verify phase is read-heavy over an idle server: the
    // four-shard arm must have answered some of it on the bypass.
    assert!(
        sharded.fields.bypass_hits > 0,
        "read-heavy phase should take the batcher bypass: {:?}",
        sharded.fields
    );

    saturation_bar()?;
    write_concurrency_bar()
}

/// What one smoke arm observed.
struct SmokeArm {
    fields: StatsFields,
    per_shard: Vec<ServerStats>,
}

/// One full preload / mixed-pipeline / verify sequence against a fresh
/// server with `shards` batcher shards. Every count asserted here is
/// exact: the key-id ranges are disjoint by construction, so hits,
/// misses and inserts are fully determined.
fn smoke_arm(shards: usize) -> Result<SmokeArm, BootError> {
    let server = ephemeral_sim_server_sharded(SMOKE_STRIPES, shards, 16 << 20, 4 << 20)?;
    let addr = server.local_addr();

    // Preload over the wire, in batch frames.
    let acked = loadgen::preload(addr, PRELOAD)?;
    assert_eq!(acked, PRELOAD, "preload acknowledgments");

    // Mixed pipelined phase: each connection interleaves guaranteed hits,
    // guaranteed misses and fresh inserts, pipelined in chunks so group
    // commit sees concurrent arrivals from all connections.
    let mut recorder = LatencyRecorder::new();
    let tallies: Vec<Result<LatencyRecorder, BootError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                scope.spawn(move || -> Result<LatencyRecorder, BootError> {
                    let mut client = ClamdClient::connect(addr)?;
                    let mut recorder = LatencyRecorder::new();
                    let mut pending: Vec<std::time::Instant> = Vec::new();
                    for i in 0..PER_CONN {
                        let hit_id = 1 + (c * PER_CONN + i) % PRELOAD;
                        let miss_id = SMOKE_MISS_BASE + c * PER_CONN + i;
                        let insert_id = SMOKE_INSERT_BASE + c * PER_CONN + i;
                        let ops = [
                            Op::Lookup { key: key_for(hit_id) },
                            Op::Lookup { key: key_for(miss_id) },
                            Op::Insert { key: key_for(insert_id), value: value_for(insert_id) },
                        ];
                        let _ = hit_id;
                        for op in ops {
                            client.send(op)?;
                            pending.push(std::time::Instant::now());
                        }
                        // Drain in chunks to keep ~30 requests in flight.
                        if pending.len() >= 30 {
                            for sent in pending.drain(..15) {
                                let response = client.recv()?;
                                recorder.record(SimDuration::from_nanos(
                                    sent.elapsed().as_nanos() as u64
                                ));
                                if let RespBody::Error { code, message } = response.body {
                                    return Err(format!("server error {code:?}: {message}").into());
                                }
                            }
                        }
                    }
                    for sent in pending.drain(..) {
                        let response = client.recv()?;
                        recorder.record(SimDuration::from_nanos(sent.elapsed().as_nanos() as u64));
                        if let RespBody::Error { code, message } = response.body {
                            return Err(format!("server error {code:?}: {message}").into());
                        }
                    }
                    Ok(recorder)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("smoke conn panicked")).collect()
    });
    for tally in tallies {
        recorder.merge(&tally?);
    }

    // Every acknowledged insert must now be served, with the right value,
    // over the wire — preloaded and smoke-phase keys alike.
    let mut verifier = ClamdClient::connect(addr)?;
    let mut verify_lookups = 0u64;
    for id in 1..=PRELOAD {
        let got = verifier.lookup(key_for(id))?;
        verify_lookups += 1;
        if got != Some(value_for(id)) {
            return Err(format!("preloaded id {id}: got {got:?}").into());
        }
    }
    for c in 0..CONNS {
        for i in 0..PER_CONN {
            let id = SMOKE_INSERT_BASE + c * PER_CONN + i;
            let got = verifier.lookup(key_for(id))?;
            verify_lookups += 1;
            if got != Some(value_for(id)) {
                return Err(format!("acked insert id {id:#x} not served: got {got:?}").into());
            }
        }
    }

    // Exact ledger check.
    let (fields, text) = verifier.stats()?;
    let expected_inserts = PRELOAD + CONNS * PER_CONN;
    let expected_phase_lookups = CONNS * PER_CONN * 2; // one hit + one miss per step
    let expected_hits = CONNS * PER_CONN + verify_lookups;
    let expected_misses = CONNS * PER_CONN;
    assert_eq!(fields.inserts, expected_inserts, "ledger inserts\n{text}");
    assert_eq!(fields.lookups, expected_phase_lookups + verify_lookups, "ledger lookups\n{text}");
    assert_eq!(fields.lookup_hits, expected_hits, "ledger hits\n{text}");
    assert_eq!(fields.lookup_misses, expected_misses, "ledger misses\n{text}");
    assert_eq!(fields.wire_errors, 0, "ledger wire errors\n{text}");
    assert!(fields.batches > 0, "group commit must have gathered\n{text}");
    assert!(
        fields.insert_admissions < fields.inserts,
        "inserts must coalesce into fewer ring admissions\n{text}"
    );

    // Non-degenerate latency tail from the pipelined phase.
    let tail = TailSummary::from_recorder(&mut recorder);
    assert!(tail.is_nondegenerate(), "degenerate latency tail: {tail}");
    assert_eq!(tail.samples as u64, CONNS * PER_CONN * 3, "every pipelined op measured");

    println!(
        "smoke [{} shard{}]: {} inserts, {} lookups ({} hits / {} misses), {} gathers \
         (mean {:.1}), {} bypassed, tail {}",
        shards,
        if shards == 1 { "" } else { "s" },
        fields.inserts,
        fields.lookups,
        fields.lookup_hits,
        fields.lookup_misses,
        fields.batches,
        fields.mean_batch(),
        fields.bypass_hits,
        tail
    );
    let per_shard = server.per_shard_stats();
    drop(server);
    Ok(SmokeArm { fields, per_shard })
}

/// Floods a fresh server at the given shard count with a read-heavy
/// closed-loop workload and returns the sustained throughput.
fn flood_throughput(shards: usize) -> Result<f64, BootError> {
    let server = ephemeral_sim_server_sharded(SMOKE_STRIPES, shards, 64 << 20, 8 << 20)?;
    let addr = server.local_addr();
    let config = LoadgenConfig {
        connections: 4,
        ops: 24_000,
        rate: f64::INFINITY,
        lookup_fraction: 0.9,
        hit_fraction: 0.8,
        key_space: 8_000,
        zipf_s: 0.99,
        seed: 0x5a7b,
    };
    let preloaded = loadgen::preload(addr, config.key_space)?;
    assert_eq!(preloaded, config.key_space, "saturation-bar preload");
    // Warm-up flood absorbs thread spin-up and first-touch costs, then
    // the measured flood.
    let _ = loadgen::run(addr, &LoadgenConfig { ops: 4_000, ..config.clone() })?;
    let report = loadgen::run(addr, &config)?;
    assert_eq!(report.errors, 0, "flood must not provoke server errors");
    drop(server);
    Ok(report.achieved)
}

/// The sharded-vs-single saturation bar: on hosts with at least 4 cores
/// (one per shard, so the gather threads can actually run concurrently),
/// a 4-shard server must sustain >= 1.2x the single-shard flood
/// throughput. Fewer cores cannot express the concurrency, so the bar
/// is skipped there rather than asserting a number the host cannot hit.
fn saturation_bar() -> Result<(), BootError> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        println!(
            "saturation bar: skipped ({cores} core(s); needs >= 4 to run shards concurrently)"
        );
        return Ok(());
    }
    let single = flood_throughput(1)?;
    let sharded = flood_throughput(4)?;
    let speedup = sharded / single.max(1e-9);
    println!("saturation: 1 shard {single:.0} ops/s, 4 shards {sharded:.0} ops/s ({speedup:.2}x)");
    if speedup >= 1.2 {
        println!("PASS: sharded group commit sustains {speedup:.2}x the single-shard flood (target >= 1.2x)");
        Ok(())
    } else {
        Err(format!(
            "FAIL: 4-shard flood only {speedup:.2}x the single-shard flood (target >= 1.2x)"
        )
        .into())
    }
}

/// Key space of the write-concurrency flood: ~750 keys per super table
/// of the single stripe, comfortably under the per-table flush
/// threshold, so the measured passes are buffer-resident. That isolates
/// exactly the work the per-table locks parallelize (cuckoo + Bloom
/// commits) — flushes deliberately replay coarse order through the
/// batch gate, and flush-churn identity is what `tests/equivalence.rs`
/// covers.
const WRITE_BAR_KEYS: u64 = 100_000;
/// Measured update passes over the key space, per arm.
const WRITE_BAR_PASSES: u64 = 3;
/// Insert-batch size of the write flood: big enough that the per-table
/// scoped-thread dispatch amortizes its spawn cost.
const WRITE_BAR_CHUNK: usize = 20_000;

/// Floods one single-stripe store with an insert-heavy batch workload
/// (a scalar delete sprinkled in every 512th op, re-inserted by the
/// next pass) and returns the sustained write throughput. `coarse`
/// selects the stripe-global baseline via
/// [`StripedClam::set_coarse_locks`]; otherwise batches commit through
/// the per-super-table write locks.
fn write_flood(coarse: bool) -> f64 {
    let cfg = ClamConfig::small_test(64 << 20, 16 << 20).expect("write-bar config");
    let device = Ssd::intel(64 << 20).expect("write-bar ssd");
    let store = StripedClam::new(vec![Clam::new(device, cfg).expect("write-bar clam")]);
    store.set_coarse_locks(coarse);
    let ops: Vec<(u64, u64)> =
        (0..WRITE_BAR_KEYS).map(|i| (hash_with_seed(i, 0x10ad), i)).collect();
    // Warm-up pass populates the buffers and absorbs thread spin-up and
    // first-touch costs; the measured passes update the same keys in
    // place.
    for chunk in ops.chunks(WRITE_BAR_CHUNK) {
        store.insert_batch(chunk).expect("write-bar warmup");
    }
    let mut deletes = 0u64;
    let start = std::time::Instant::now();
    for _ in 0..WRITE_BAR_PASSES {
        for chunk in ops.chunks(WRITE_BAR_CHUNK) {
            store.insert_batch(chunk).expect("write-bar insert");
            for (key, _) in chunk.iter().step_by(512) {
                store.delete(*key).expect("write-bar delete");
                deletes += 1;
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = store.stats();
    if coarse {
        // Same write code, one table at a time under the exclusive stripe
        // lock: the table locks are taken but never overlap.
        assert!(stats.table_write_acquisitions > 0, "coarse arm writes through table locks");
        assert_eq!(stats.table_lock_high_water, 1, "coarse arm writes must not overlap: {stats}");
    } else {
        assert!(stats.table_write_acquisitions > 0, "fine arm must take table locks");
        assert!(stats.table_lock_high_water >= 2, "fine arm commits must overlap: {stats}");
    }
    (WRITE_BAR_KEYS * WRITE_BAR_PASSES + deletes) as f64 / elapsed
}

/// The fine-vs-coarse write-concurrency bar: on hosts with at least 4
/// cores (so the per-table batch chunks can actually run concurrently),
/// the per-super-table write locks must sustain >= 1.2x the
/// `set_coarse_locks(true)` insert-heavy throughput over one stripe.
/// Fewer cores cannot express the concurrency, so the bar is skipped
/// there rather than asserting a number the host cannot hit.
fn write_concurrency_bar() -> Result<(), BootError> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        println!(
            "write-concurrency bar: skipped ({cores} core(s); needs >= 4 to overlap table commits)"
        );
        return Ok(());
    }
    let coarse = write_flood(true);
    let fine = write_flood(false);
    let speedup = fine / coarse.max(1e-9);
    println!(
        "write concurrency: coarse locks {coarse:.0} ops/s, per-table locks {fine:.0} ops/s \
         ({speedup:.2}x)"
    );
    if speedup >= 1.2 {
        println!(
            "PASS: per-table write locks sustain {speedup:.2}x the coarse-lock insert flood \
             (target >= 1.2x)"
        );
        Ok(())
    } else {
        Err(format!(
            "FAIL: per-table write locks only {speedup:.2}x the coarse-lock insert flood \
             (target >= 1.2x)"
        )
        .into())
    }
}
