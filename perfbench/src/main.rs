//! The repository benchmark: `clamd` over a file-backed store.
//!
//! ```text
//! perfbench --workload <dram-hot|flash-lookup|insert-churn> --seed N
//!           --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. A wrong answer or
//! a failed precondition exits non-zero. See README.md.

mod gen;
mod layers;
mod measure;
mod report;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bufferhash::StripedClam;
use clamd::batcher::{BatcherConfig, Engine};
use clamd::server::{boot_file, BootError, ClamdServer, ServerConfig};
use clamd::ClamdClient;
use flashsim::Device;

use crate::gen::{OpenLoopConn, Tally};
use crate::measure::{
    flood_block, level_block, ClamWindow, Level, CONNS, FLOOD_BLOCK_SECS, FLOOD_WINDOW,
    LEVEL_BLOCK_SECS,
};
use crate::report::Metrics;
use crate::trace::{boot_traced, Span, Tracer};
use crate::workload::{Kind, Mix, Phase, Planned, Spec};

/// `FileDevice` worker queue depth (the `clamd` binary's default).
const QUEUE_DEPTH: usize = flashsim::DEFAULT_FILE_QUEUE_DEPTH;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Recoveries per end-to-end run; `recover_s` is their median. A run
/// recovers at least `MIN_RECOVERIES` times and goes on, up to
/// `MAX_RECOVERIES`, until `RECOVERY_SECS` have been spent recovering, so
/// a fast recovery is sampled as often as a slow one needs.
const MIN_RECOVERIES: usize = 7;
const MAX_RECOVERIES: usize = 41;
const RECOVERY_SECS: f64 = 3.0;
/// Preloaded keys read back after recovery.
const RECOVERY_SAMPLE: usize = 2000;
/// Preloaded ids sampled to show FIFO eviction.
const EVICTION_PROBE: usize = 4096;
/// Closed-loop workload operations run after the preload, as part of
/// set-up.
const WARMUP_OPS: usize = 40_000;
/// `proto` replay repetitions.
const PROTO_REPS: usize = 5;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == name).ok_or(format!("missing {name}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{name} needs a value"))
    };
    let workload = value("--workload")?;
    let spec = workload::spec(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args { spec, seed, seconds, trace })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = Workdir::create(args.spec.name).unwrap_or_else(|e| {
        eprintln!("perfbench: cannot create the work directory: {e}");
        std::process::exit(1);
    });
    println!("{}", report::provenance(args.spec, &server_config(args.spec), args.seed, args.trace));
    let outcome = if args.trace { traced_run(&args, &work) } else { end_to_end_run(&args, &work) };
    drop(work);
    match outcome {
        Ok(result) => {
            result.metrics.print_table();
            println!("{}", result.json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

type Error = Box<dyn std::error::Error + Send + Sync>;

/// A scratch directory for store images, removed when dropped.
struct Workdir {
    dir: PathBuf,
}

impl Workdir {
    fn create(workload: &str) -> std::io::Result<Self> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Workdir { dir })
    }

    /// A fresh (absent) image path.
    fn image(&self, name: &str) -> PathBuf {
        let path = self.dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn spans_path(&self, workload: &str) -> PathBuf {
        self.dir.parent().expect("work dir has a parent").join(format!("spans-{workload}.tsv"))
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The `clamd` binary's defaults at the workload's sizes.
fn server_config(spec: &Spec) -> ServerConfig {
    let stripes = 4;
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        stripes,
        flash_bytes: spec.flash_bytes,
        dram_bytes: spec.dram_bytes,
        batcher: BatcherConfig {
            max_batch: 512,
            linger: Duration::from_micros(100),
            shards: stripes,
        },
    }
}

/// Every schedule a run uses, generated before any clock starts.
struct Plans {
    warmup: Vec<Vec<Planned>>,
    flood: Vec<Vec<Planned>>,
    traced_flood: Vec<Vec<Planned>>,
    low: Vec<Vec<Planned>>,
    high: Vec<Vec<Planned>>,
    rounds: usize,
}

impl Plans {
    fn build(args: &Args) -> Plans {
        let spec = args.spec;
        let round_secs = FLOOD_BLOCK_SECS + 2.0 * LEVEL_BLOCK_SECS;
        let rounds = ((args.seconds / round_secs).round() as usize).max(1);
        let flood_ops = (spec.flood_cap_rate * FLOOD_BLOCK_SECS * rounds as f64) as usize / CONNS;
        let level = |phase, rate: f64| {
            let ops = (rate * LEVEL_BLOCK_SECS * rounds as f64) as usize / CONNS;
            workload::schedules(spec, args.seed, phase, CONNS, ops, Some(rate))
        };
        let closed = |phase, ops| workload::schedules(spec, args.seed, phase, CONNS, ops, None);
        Plans {
            warmup: closed(Phase::Warmup, WARMUP_OPS / CONNS),
            flood: closed(Phase::Flood, flood_ops),
            traced_flood: if args.trace { closed(Phase::TracedFlood, flood_ops) } else { vec![] },
            low: level(Phase::Low, spec.low_rate),
            high: level(Phase::High, spec.high_rate),
            rounds,
        }
    }
}

/// What the measured rounds produced.
struct Measured<'a> {
    floods: Vec<f64>,
    traced_floods: Vec<f64>,
    flood_tally: Tally,
    low: Level<'a>,
    high: Level<'a>,
    /// Store counters over every round.
    window: ClamWindow,
    /// Store counters over the `low` and `high` blocks only (traced run).
    level_window: ClamWindow,
    present_before: usize,
    present_after: usize,
    probed: usize,
}

/// Runs the rounds: flood, (traced flood,) `low`, `high`, over two
/// persistent connections. With a tracer, the traced flood and the
/// level blocks record spans.
fn measure<'a, D: Device + 'static>(
    server: &ClamdServer<D>,
    spec: &Spec,
    seed: u64,
    plans: &'a Plans,
    tracer: Option<&Tracer>,
) -> Result<Measured<'a>, Error> {
    let probe = eviction_probe(spec, seed);
    let present_before = count_present(server, &probe)?;
    let mut streams = measure::connect_all(server)?;
    let mut m = Measured {
        floods: Vec::new(),
        traced_floods: Vec::new(),
        flood_tally: Tally::default(),
        low: Level { rate: spec.low_rate, plans: &plans.low, blocks: Vec::new() },
        high: Level { rate: spec.high_rate, plans: &plans.high, blocks: Vec::new() },
        window: ClamWindow::default(),
        level_window: ClamWindow::default(),
        present_before,
        present_after: 0,
        probed: probe.len(),
    };
    let clam_before = ClamWindow::of(&server.clam_stats());
    let mut pos = vec![0; CONNS];
    let mut traced_pos = vec![0; CONNS];
    for round in 0..plans.rounds {
        let flood =
            flood_block(server, &mut streams, &plans.flood, &mut pos, FLOOD_BLOCK_SECS, None)?;
        m.floods.push(flood.rate);
        m.flood_tally.absorb(&flood.tally);
        if let Some(tracer) = tracer {
            tracer.enable(Phase::TracedFlood);
            let traced = flood_block(
                server,
                &mut streams,
                &plans.traced_flood,
                &mut traced_pos,
                FLOOD_BLOCK_SECS,
                Some(tracer),
            );
            tracer.disable();
            let traced = traced?;
            m.traced_floods.push(traced.rate);
            m.flood_tally.absorb(&traced.tally);
            tracer.extend(traced.spans);
        }
        for (phase, level) in [(Phase::Low, &mut m.low), (Phase::High, &mut m.high)] {
            let before = tracer.map(|_| ClamWindow::of(&server.clam_stats()));
            if let Some(tracer) = tracer {
                tracer.enable(phase);
            }
            let block = level_block(server, &mut streams, level.plans, round, level.rate);
            if let Some(tracer) = tracer {
                tracer.disable();
            }
            level.blocks.push(block?);
            if let Some(before) = before {
                m.level_window.add(&ClamWindow::of(&server.clam_stats()).since(&before));
            }
        }
    }
    drop(streams);
    m.window = ClamWindow::of(&server.clam_stats()).since(&clam_before);
    m.present_after = count_present(server, &probe)?;
    eprintln!("perfbench: store counters over the measured window: {:?}", m.window);
    for level in [&m.low, &m.high] {
        eprintln!(
            "perfbench: level {:.0} ops/s: {} blocks, {} invalid ({}), send lag p99 {:.3} ms, \
             achieved {:.3}",
            level.rate,
            level.blocks.len(),
            level.invalid_blocks(),
            if level.counts() { "counts" } else { "does not count: reported as failed" },
            level.send_lag_p99_ms(),
            level.achieved_frac()
        );
    }
    eprintln!(
        "perfbench: flood blocks (kops/s): {:?}",
        m.floods.iter().map(|f| (*f / 1000.0).round()).collect::<Vec<_>>()
    );
    check_preconditions(spec, &m)?;
    Ok(m)
}

/// Boots a fresh file store and serves it (untraced set-up).
fn start_server(
    spec: &Spec,
    image: &Path,
) -> Result<ClamdServer<flashsim::SharedDevice<flashsim::FileDevice>>, BootError> {
    let config = server_config(spec);
    let (store, reports) = boot_file(image, &config, QUEUE_DEPTH)?;
    ClamdServer::start(store, reports, config)
}

/// Preloads the workload's keys over the wire and runs the warm-up.
fn preload_and_warm<D: Device + 'static>(
    server: &ClamdServer<D>,
    plans: &Plans,
    spec: &Spec,
) -> Result<(), Error> {
    let acked = clamd::loadgen::preload(server.local_addr(), spec.preload)?;
    if acked != spec.preload {
        return Err(format!("preload acked {acked} of {} keys", spec.preload).into());
    }
    let mut streams = measure::connect_all(server)?;
    let mut pos = vec![0; CONNS];
    flood_block(server, &mut streams, &plans.warmup, &mut pos, 3600.0, None)?;
    Ok(())
}

/// The keys read back after recovery: a seeded sample of the preload
/// (when FIFO cannot have evicted it) plus the newest surviving inserts
/// of the `high` schedule. Deleted keys are left out: delete lists live
/// in DRAM only.
fn recovery_sample(spec: &Spec, seed: u64, high: &[Vec<Planned>]) -> Vec<u64> {
    use rand::{Rng, SeedableRng, StdRng};
    let mut ids = Vec::new();
    if spec.mix != Mix::InsertChurn {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_4ec0);
        ids.extend((0..RECOVERY_SAMPLE).map(|_| rng.gen_range(1..=spec.preload)));
    }
    for plan in high {
        let live = workload::live_inserts(plan);
        ids.extend(live.iter().rev().take(RECOVERY_SAMPLE / 2));
    }
    ids
}

/// Reads `ids` back from `store`; every one must hold its value.
fn verify_recovered<D: Device>(store: &StripedClam<D>, ids: &[u64]) -> Result<(), Error> {
    for &id in ids {
        let got = store.lookup(clamd::loadgen::key_for(id))?.value;
        if got != Some(clamd::loadgen::value_for(id)) {
            return Err(format!("after recovery id {id} reads {got:?}").into());
        }
    }
    Ok(())
}

/// A seeded sample of preloaded ids whose presence shows FIFO eviction.
fn eviction_probe(spec: &Spec, seed: u64) -> Vec<u64> {
    use rand::{Rng, SeedableRng, StdRng};
    let mut rng = StdRng::seed_from_u64(seed ^ 0xe71c_7000);
    (0..EVICTION_PROBE).map(|_| rng.gen_range(1..=spec.preload)).collect()
}

/// How many of `ids` the server finds, asked over the wire in
/// `LOOKUP_BATCH` frames. A found key must hold its value.
fn count_present<D: Device + 'static>(
    server: &ClamdServer<D>,
    ids: &[u64],
) -> Result<usize, Error> {
    let mut client = ClamdClient::connect(server.local_addr())?;
    let mut present = 0;
    for chunk in ids.chunks(1024) {
        let keys = chunk.iter().map(|&id| clamd::loadgen::key_for(id)).collect();
        for (id, value) in chunk.iter().zip(client.lookup_batch(keys)?) {
            match value {
                Some(v) if v == clamd::loadgen::value_for(*id) => present += 1,
                None => {}
                Some(v) => return Err(format!("id {id} reads {v}, not its value").into()),
            }
        }
    }
    Ok(present)
}

/// FLUSHes over the wire and shuts the server down.
fn flush_and_stop<D: Device + 'static>(mut server: ClamdServer<D>) -> Result<(), Error> {
    ClamdClient::connect(server.local_addr())?.flush()?;
    server.shutdown();
    Ok(())
}

/// Checks the workload's preconditions over the measured window. The
/// eviction probe counts how many sampled preloaded keys were readable
/// before and after the rounds: FIFO eviction is the only way one can
/// disappear.
fn check_preconditions(spec: &Spec, m: &Measured) -> Result<(), Error> {
    let fail = |what: String| Err(format!("{} precondition failed: {what}", spec.name).into());
    let (w, before, after, probed) = (&m.window, m.present_before, m.present_after, m.probed);
    let evicted = after < before;
    match spec.mix {
        Mix::DramHot if w.flash_reads != 0 || w.flushes != 0 => fail(format!(
            "{} flash reads and {} flushes in the window (need 0 and 0)",
            w.flash_reads, w.flushes
        )),
        Mix::FlashLookup if (w.flash_reads as f64) < 0.4 * w.lookups as f64 => fail(format!(
            "{} flash reads for {} lookups (need >= 0.4 per lookup)",
            w.flash_reads, w.lookups
        )),
        Mix::DramHot | Mix::FlashLookup if before != probed || evicted => fail(format!(
            "{before} then {after} of {probed} sampled preloaded keys readable \
             (the preload must stay resident)"
        )),
        Mix::InsertChurn if !evicted => fail(format!(
            "no eviction in the window ({before} then {after} of {probed} sampled preloaded \
             keys readable)"
        )),
        _ => Ok(()),
    }
}

/// A finished run.
pub struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl RunResult {
    /// The result line. Wrong answers end the run with an error before
    /// it gets here, so a printed result is always correct.
    fn json(&self) -> String {
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.attempted.max(1),
            self.failed,
            self.metrics.json()
        )
    }
}

/// The untraced run: set-ups, rounds, recoveries.
fn end_to_end_run(args: &Args, work: &Workdir) -> Result<RunResult, Error> {
    let spec = args.spec;
    let plans = Plans::build(args);
    let mut setup_s = Vec::new();
    let mut live = None;
    for k in 0..SETUPS {
        let image = work.image(&format!("store-{k}.img"));
        let t0 = Instant::now();
        let server = start_server(spec, &image)?;
        preload_and_warm(&server, &plans, spec)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if k + 1 == SETUPS {
            live = Some((server, image));
        } else {
            drop(server);
            std::fs::remove_file(&image)?;
        }
    }
    let (server, image) = live.expect("at least one set-up");
    let m = measure(&server, spec, args.seed, &plans, None)?;
    flush_and_stop(server)?;

    let config = server_config(spec);
    let mut recover_s = Vec::new();
    let mut recovered = None;
    while recover_s.len() < MIN_RECOVERIES
        || (recover_s.len() < MAX_RECOVERIES && recover_s.iter().sum::<f64>() < RECOVERY_SECS)
    {
        let t0 = Instant::now();
        let (store, _) = boot_file(&image, &config, QUEUE_DEPTH)?;
        recover_s.push(t0.elapsed().as_secs_f64());
        recovered = Some(store);
    }
    eprintln!(
        "perfbench: recoveries (ms): {:?}",
        recover_s.iter().map(|r| (r * 1e4).round() / 10.0).collect::<Vec<_>>()
    );
    let store = recovered.expect("at least one recovery");
    verify_recovered(&store, &recovery_sample(spec, args.seed, &plans.high))?;
    drop(store);

    let attempted = m.flood_tally.attempted + m.low.tally().attempted + m.high.tally().attempted;
    let failed = m.flood_tally.failed + m.low.failed() + m.high.failed();
    let (low_p50, low_p99) = m.low.reported_ms();
    let (high_p50, high_p99) = m.high.reported_ms();
    let mut floods = m.floods.clone();
    let mut out = Metrics::default();
    out.push("setup_s", report::median(&mut setup_s), "s");
    out.push("flood_ops_s", report::median(&mut floods), "ops/s");
    out.push("low.p50_ms", low_p50, "ms");
    out.push("high.p50_ms", high_p50, "ms");
    out.push("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64, "frac");
    out.push("recover_s", report::median(&mut recover_s), "s");
    out.push("peak_rss_mb", report::peak_rss_mb(), "MB");
    // The tails are printed but not reported: their run-to-run spread on a
    // shared 2-core host is several times any usable bound (README.md).
    // The traced run reports them among its diagnostics.
    println!("not gated: low.p99_ms {low_p99:.6} ms, high.p99_ms {high_p99:.6} ms");
    Ok(RunResult { attempted, failed, metrics: out })
}

/// The traced run: an `Engine`-direct pass over its own store, then the
/// rounds with spans on, then the `proto` replay. Reports the per-layer
/// metrics.
fn traced_run(args: &Args, work: &Workdir) -> Result<RunResult, Error> {
    let spec = args.spec;
    let plans = Plans::build(args);
    let config = server_config(spec);
    let tracer = Tracer::new();

    // Engine-direct: the whole `low` schedule submitted straight to the
    // batcher, over a store set up the same way.
    let image = work.image("direct.img");
    let (store, reports) = boot_traced(&image, &config, QUEUE_DEPTH, &tracer)?;
    let engine = Engine::start(store, reports, config.batcher.clone());
    let acked = layers::engine_preload(&engine, 1, spec.preload);
    if acked != spec.preload {
        return Err(format!("Engine-direct preload acked {acked} of {}", spec.preload).into());
    }
    for (c, plan) in plans.warmup.iter().enumerate() {
        let tally = layers::engine_closed_loop(&engine, 10 + c as u64, plan, FLOOD_WINDOW);
        measure::check_tally("Engine-direct warm-up", &tally)?;
    }
    tracer.enable(Phase::Direct);
    let start = Instant::now() + Duration::from_millis(1);
    let direct: Vec<OpenLoopConn> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .low
            .iter()
            .enumerate()
            .map(|(c, plan)| {
                let engine = &engine;
                s.spawn(move || layers::engine_open_loop(engine, 100 + c as u64, plan, start))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("engine-direct thread panicked")).collect()
    });
    tracer.disable();
    engine.shutdown();
    drop(engine);
    std::fs::remove_file(&image)?;
    let direct = measure::whole_level(spec.low_rate, &plans.low, start, direct);
    measure::check_tally("Engine-direct", &direct.tally())?;
    tracer.extend(direct.spans("engine.request", Phase::Direct, &tracer));

    // TCP: the end-to-end rounds on a traced store.
    let image = work.image("traced.img");
    let (store, reports) = boot_traced(&image, &config, QUEUE_DEPTH, &tracer)?;
    let server = ClamdServer::start(store, reports, config.clone())?;
    preload_and_warm(&server, &plans, spec)?;
    let m = measure(&server, spec, args.seed, &plans, Some(&tracer))?;
    tracer.extend(m.low.spans("client.request", Phase::Low, &tracer));
    tracer.extend(m.high.spans("client.request", Phase::High, &tracer));
    flush_and_stop(server)?;

    let (store, _) = boot_traced(&image, &config, QUEUE_DEPTH, &tracer)?;
    verify_recovered(&store, &recovery_sample(spec, args.seed, &plans.high))?;
    let dram_bytes: usize = (0..store.num_stripes())
        .filter_map(|i| store.stripe(i))
        .map(|s| s.with(|clam| clam.memory_usage().total()))
        .sum();
    drop(store);

    let proto = layers::proto_replay(&plans.low, PROTO_REPS, tracer.epoch());
    tracer.extend(
        proto
            .spans
            .iter()
            .map(|&(name, start_ns, end_ns)| Span::client(name, Phase::Low, start_ns, end_ns, 0)),
    );

    // Distinct keys the store has been given: the preload, the warm-up's
    // fresh inserts and every acked insert of a mix that inserts fresh ids.
    let warm_fresh = plans
        .warmup
        .iter()
        .flatten()
        .filter(|p| p.kind == Kind::Insert && p.id >= workload::FRESH_BASE)
        .count() as u64;
    let (low, high) = (m.low.tally(), m.high.tally());
    let measured_inserts = m.flood_tally.inserts + low.inserts + high.inserts;
    let keys_written =
        spec.preload + warm_fresh + if spec.mix == Mix::DramHot { 0 } else { measured_inserts };
    let mut untraced = m.floods.clone();
    let mut traced = m.traced_floods.clone();
    let spans = tracer.take_spans();
    let inputs = report::LayerInputs {
        low: &m.low,
        high: &m.high,
        direct: &direct,
        window: m.level_window,
        spans: &spans,
        proto: &proto,
        dram_bytes: dram_bytes as u64,
        keys_written,
        untraced_flood: report::median(&mut untraced),
        traced_flood: report::median(&mut traced),
    };
    let mut metrics = report::per_layer(&inputs);
    let ((_, low_p99), (_, high_p99)) = (m.low.reported_ms(), m.high.reported_ms());
    metrics.push("low.p99_ms", low_p99, "ms");
    metrics.push("high.p99_ms", high_p99, "ms");
    tracer.write_tsv(&spans, &work.spans_path(spec.name))?;

    let attempted =
        m.flood_tally.attempted + low.attempted + high.attempted + direct.tally().attempted;
    // The Engine-direct pass is a diagnostic: its lag shows in its spans,
    // and only requests that failed count here.
    let failed = m.flood_tally.failed + m.low.failed() + m.high.failed() + direct.tally().failed;
    Ok(RunResult { attempted, failed, metrics })
}
