//! Batched vs per-op pipeline throughput on the simulated Intel SSD.
//!
//! Companion to ROADMAP's "batched inserts" item: the same key stream is
//! driven through `Clam::insert` one op at a time and through
//! `Clam::insert_batch` at several batch sizes, and the resulting
//! *simulated* throughputs are compared (host CPU time of the simulation
//! is what `cargo bench batch_ops` measures instead). A lookup phase does
//! the same for `Clam::lookup_batch`, and the §6.1-style closed-form batch
//! model from `bufferhash::analysis` is cross-checked against the
//! simulator.
//!
//! The acceptance bar for the batching work: ≥ 2x insert throughput at
//! batch size 64.
//!
//! `--smoke` runs a reduced op count so CI can keep the harness honest.

use bench::{ms, print_header, print_row, standard_config, workload_key};
use bufferhash::analysis::FlashCostModel;
use bufferhash::{Clam, ClamConfig};
use flashsim::{DeviceProfile, SimDuration, Ssd};

const FULL_INSERTS: u64 = 1_500_000;
const FULL_LOOKUPS: u64 = 200_000;
const SMOKE_INSERTS: u64 = 150_000;
const SMOKE_LOOKUPS: u64 = 20_000;
const BATCH_SIZES: [usize; 4] = [8, 64, 256, 1024];

fn fresh_clam() -> Clam<Ssd> {
    let cfg: ClamConfig = standard_config(bench::FLASH_BYTES, bench::DRAM_BYTES);
    Clam::new(Ssd::intel(bench::FLASH_BYTES).expect("ssd"), cfg).expect("clam")
}

fn kops_per_sec(ops: u64, total: SimDuration) -> f64 {
    ops as f64 / total.as_millis_f64()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (inserts, lookups) =
        if smoke { (SMOKE_INSERTS, SMOKE_LOOKUPS) } else { (FULL_INSERTS, FULL_LOOKUPS) };
    println!(
        "Batched vs per-op CLAM pipeline (Intel SSD, 1/64 scale: {} MiB flash, {} MiB DRAM{})\n",
        bench::FLASH_BYTES >> 20,
        bench::DRAM_BYTES >> 20,
        if smoke { ", smoke mode" } else { "" }
    );

    // ------------------------------------------------------------------
    // Insert phase.
    // ------------------------------------------------------------------
    let per_op = fresh_clam();
    let mut per_op_total = SimDuration::ZERO;
    for i in 0..inserts {
        per_op_total += per_op.insert(workload_key(i), i).expect("insert").latency;
    }
    let per_op_rate = kops_per_sec(inserts, per_op_total);

    let widths = [12, 14, 14, 10, 12, 12];
    println!("{inserts} inserts:");
    print_header(
        &["batch", "sim total (ms)", "kops/sim-sec", "speedup", "flushes", "merged wr"],
        &widths,
    );
    print_row(
        &[
            "per-op".into(),
            ms(per_op_total),
            format!("{per_op_rate:.0}"),
            "1.00x".into(),
            format!("{}", per_op.stats().flushes),
            "-".into(),
        ],
        &widths,
    );

    let mut speedup_at_64 = 0.0f64;
    for batch in BATCH_SIZES {
        let clam = fresh_clam();
        let ops: Vec<(u64, u64)> = (0..inserts).map(|i| (workload_key(i), i)).collect();
        let mut total = SimDuration::ZERO;
        for chunk in ops.chunks(batch) {
            total += clam.insert_batch(chunk).expect("insert_batch").latency;
        }
        let speedup = per_op_total.as_nanos() as f64 / total.as_nanos().max(1) as f64;
        if batch == 64 {
            speedup_at_64 = speedup;
        }
        print_row(
            &[
                format!("{batch}"),
                ms(total),
                format!("{:.0}", kops_per_sec(inserts, total)),
                format!("{speedup:.2}x"),
                format!("{}", clam.stats().flushes),
                format!("{}", clam.stats().coalesced_flush_writes),
            ],
            &widths,
        );
    }

    // ------------------------------------------------------------------
    // Lookup phase: 50% hits against a batch-loaded index.
    // ------------------------------------------------------------------
    let mut clam = fresh_clam();
    let load: Vec<(u64, u64)> = (0..inserts).map(|i| (workload_key(i), i)).collect();
    for chunk in load.chunks(1024) {
        clam.insert_batch(chunk).expect("load");
    }
    let keys: Vec<u64> = (0..lookups)
        .map(|i| {
            if i % 2 == 0 {
                workload_key((i * 7) % inserts)
            } else {
                bufferhash::hash_with_seed(i, 0xab5e_0171)
            }
        })
        .collect();
    let mut solo_total = SimDuration::ZERO;
    for &k in &keys {
        solo_total += clam.lookup(k).expect("lookup").latency;
    }
    println!("\n{lookups} lookups (~50% hit rate):");
    let widths = [12, 14, 14, 10];
    print_header(&["batch", "sim total (ms)", "kops/sim-sec", "speedup"], &widths);
    print_row(
        &[
            "per-op".into(),
            ms(solo_total),
            format!("{:.0}", kops_per_sec(lookups, solo_total)),
            "1.00x".into(),
        ],
        &widths,
    );
    for batch in BATCH_SIZES {
        let mut total = SimDuration::ZERO;
        for chunk in keys.chunks(batch) {
            total += clam.lookup_batch(chunk).expect("lookup_batch").latency;
        }
        let speedup = solo_total.as_nanos() as f64 / total.as_nanos().max(1) as f64;
        print_row(
            &[
                format!("{batch}"),
                ms(total),
                format!("{:.0}", kops_per_sec(lookups, total)),
                format!("{speedup:.2}x"),
            ],
            &widths,
        );
    }

    println!(
        "(Lookups batch twice over: host dispatch amortizes across the batch, and the\n\
         queued probe pipeline overlaps flash page reads on the SSD's queue lanes, so\n\
         flash-hit batches beat per-op lookups well beyond the dispatch saving alone.)"
    );

    // ------------------------------------------------------------------
    // Closed-form cross-check.
    // ------------------------------------------------------------------
    let model = FlashCostModel::from_profile(&DeviceProfile::intel_x18m());
    let cfg = standard_config(bench::FLASH_BYTES, bench::DRAM_BYTES);
    let buf = cfg.buffer_bytes_per_table as usize;
    let s_eff = (cfg.entry_size as f64 / cfg.max_buffer_utilization) as usize;
    println!(
        "\nClosed-form model (§6.1 extended): predicted insert speedup at batch 64 = {:.2}x, \
         measured {:.2}x",
        model.batch_insert_speedup(buf, s_eff, 64),
        speedup_at_64
    );
    if speedup_at_64 >= 2.0 {
        println!("PASS: batch-64 insert throughput is >= 2x the per-op pipeline");
    } else {
        println!("FAIL: batch-64 insert speedup {speedup_at_64:.2}x is below the 2x target");
    }
}
