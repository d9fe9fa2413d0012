//! Metric arithmetic and output: percentiles, the per-layer summary, the
//! provenance line and the result JSON.

use clamd::server::ServerConfig;

use crate::layers::ProtoReplay;
use crate::measure::{ClamWindow, Level};
use crate::trace::Span;
use crate::workload::{Phase, Spec};

/// Metrics in the order they were pushed.
#[derive(Default)]
pub struct Metrics {
    items: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.items.push((name, value, unit));
    }

    pub fn print_table(&self) {
        for (name, value, unit) in &self.items {
            println!("{name:<40} {value:>16.6} {unit}");
        }
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .items
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The `q` quantile (nearest rank) of `v`, 0 when empty. Sorts `v`.
pub fn percentile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// The median of `v` (mean of the middle two for even lengths).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the benchmark's sources come from, read from `.git` when
/// the checkout has one.
fn git_rev() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l[..40.min(l.len())].to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One line recording what produced a result.
pub fn provenance(spec: &Spec, config: &ServerConfig, seed: u64, traced: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "provenance: rev={} nproc={nproc} workload={} seed={seed} trace={} stripes={} shards={} \
         linger_us={} max_batch={} queue_depth={} flash_bytes={} dram_bytes={} preload={} \
         low_ops_s={} high_ops_s={}",
        git_rev(),
        spec.name,
        u8::from(traced),
        config.stripes,
        config.batcher.shards,
        config.batcher.linger.as_micros(),
        config.batcher.max_batch,
        flashsim::DEFAULT_FILE_QUEUE_DEPTH,
        config.flash_bytes,
        config.dram_bytes,
        spec.preload,
        spec.low_rate,
        spec.high_rate,
    )
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    pub low: &'a Level<'a>,
    pub high: &'a Level<'a>,
    pub direct: &'a Level<'a>,
    /// Store counters over the traced `low` and `high` levels.
    pub window: ClamWindow,
    pub spans: &'a [Span],
    pub proto: &'a ProtoReplay,
    /// DRAM the recovered store uses.
    pub dram_bytes: u64,
    /// Distinct keys written to the store over its life.
    pub keys_written: u64,
    pub untraced_flood: f64,
    pub traced_flood: f64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Computes every per-layer metric.
pub fn per_layer(x: &LayerInputs) -> Metrics {
    let mut m = Metrics::default();
    let high = x.high;
    m.push("loadgen.send_lag_p99_ms", high.send_lag_p99_ms(), "ms");
    m.push("loadgen.achieved_frac", high.achieved_frac(), "frac");

    m.push("proto.decode_ns_per_req", x.proto.decode_ns_per_req, "ns");
    m.push("proto.encode_ns_per_resp", x.proto.encode_ns_per_resp, "ns");
    m.push("proto.wire_bytes_per_op", x.proto.wire_bytes_per_op, "B");

    // Server overhead: the TCP `low` level minus the Engine-direct pass on
    // the same schedule, both timed from the scheduled send.
    let mut tcp = x.low.latencies();
    let mut direct = x.direct.latencies();
    let tcp50 = percentile(&mut tcp, 0.50);
    let tcp99 = percentile(&mut tcp, 0.99);
    let dir50 = percentile(&mut direct, 0.50);
    let dir99 = percentile(&mut direct, 0.99);
    m.push("server.overhead_p50_us", (tcp50 - dir50) / 1e3, "us");
    m.push("server.overhead_p99_us", (tcp99 - dir99) / 1e3, "us");

    let s = high.ledger();
    m.push("batcher.engine_p50_us", dir50 / 1e3, "us");
    m.push("batcher.engine_p99_us", dir99 / 1e3, "us");
    m.push("batcher.mean_gather", ratio(s.batched_requests as f64, s.batches as f64), "reqs");
    m.push("batcher.linger_frac", ratio(s.group_commit_waits as f64, s.batches as f64), "frac");
    m.push("batcher.bypass_frac", ratio(s.bypass_hits as f64, s.lookups as f64), "frac");
    m.push(
        "batcher.inserts_per_admission",
        ratio(s.inserts as f64, s.insert_admissions as f64),
        "ops",
    );
    m.push(
        "batcher.lookups_per_admission",
        ratio((s.lookups - s.bypass_hits.min(s.lookups)) as f64, s.lookup_admissions as f64),
        "ops",
    );

    // Device calls made while the traced `low` and `high` levels ran.
    let device: Vec<&Span> = x
        .spans
        .iter()
        .filter(|s| {
            s.name.starts_with("device.")
                && (s.phase == Phase::Low as u8 || s.phase == Phase::High as u8)
        })
        .collect();
    // ClamStats counts only log-wrap evictions; FIFO evictions at a
    // table's incarnation limit show as the TRIM reclaiming each slot.
    let trims: u64 = device.iter().map(|s| s.trims as u64).sum();

    let mut both = x.low.tally();
    both.absorb(&high.tally());
    let w = &x.window;
    let kinserts = both.inserts as f64 / 1e3;
    m.push(
        "bufferhash.flash_reads_per_lookup",
        ratio(w.flash_reads as f64, w.lookups as f64),
        "reads",
    );
    m.push(
        "bufferhash.spurious_reads_per_lookup",
        ratio(w.spurious_reads as f64, w.lookups as f64),
        "reads",
    );
    m.push("bufferhash.fast_lookup_frac", ratio(w.fast_lookups as f64, w.lookups as f64), "frac");
    m.push(
        "bufferhash.fast_conflict_frac",
        ratio(w.fast_conflicts as f64, (w.fast_lookups + w.fast_conflicts) as f64),
        "frac",
    );
    m.push("bufferhash.flushes_per_kinsert", ratio(w.flushes as f64, kinserts), "count");
    m.push("bufferhash.evictions_per_kinsert", ratio(trims as f64, kinserts), "count");
    m.push(
        "bufferhash.coalesced_writes_per_flush",
        ratio(w.coalesced_writes as f64, w.flushes as f64),
        "count",
    );
    m.push(
        "bufferhash.table_contended_frac",
        ratio(w.table_contended as f64, w.table_acquisitions as f64),
        "frac",
    );
    m.push(
        "bufferhash.write_ring_stalls_per_flush",
        ratio(w.write_ring_stalls as f64, w.flushes as f64),
        "count",
    );
    m.push("bufferhash.dram_bytes_per_key", ratio(x.dram_bytes as f64, x.keys_written as f64), "B");

    let kops = both.completed as f64 / 1e3;
    let busy_ns: u64 = device.iter().map(|s| s.dur_ns()).sum();
    let reads: u64 = device.iter().map(|s| s.reads as u64).sum();
    let write_bytes: u64 = device.iter().map(|s| s.write_bytes).sum();
    let submits: Vec<&&Span> = device
        .iter()
        .filter(|s| s.name == "device.submit" || s.name == "device.submit_nowait")
        .collect();
    let submit_reqs: u64 = submits.iter().map(|s| s.reqs as u64).sum();
    let mut submit_ns: Vec<u64> = submits.iter().map(|s| s.dur_ns()).collect();
    let mut reap_ns: Vec<u64> =
        device.iter().filter(|s| s.name == "device.reap").map(|s| s.dur_ns()).collect();
    let blocking = device.iter().filter(|s| s.name == "device.submit").count();
    m.push("flashsim.busy_ms_per_kop", ratio(busy_ns as f64 / 1e6, kops), "ms");
    m.push("flashsim.read_reqs_per_lookup", ratio(reads as f64, both.lookups as f64), "reqs");
    m.push(
        "flashsim.write_bytes_per_user_byte",
        ratio(write_bytes as f64, (both.inserts * bufferhash::ENTRY_SIZE as u64) as f64),
        "B/B",
    );
    m.push("flashsim.reqs_per_submit", ratio(submit_reqs as f64, submits.len() as f64), "reqs");
    m.push("flashsim.submit_p50_us", percentile(&mut submit_ns, 0.50) / 1e3, "us");
    m.push("flashsim.reap_p50_us", percentile(&mut reap_ns, 0.50) / 1e3, "us");
    m.push("flashsim.reap_p99_us", percentile(&mut reap_ns, 0.99) / 1e3, "us");
    m.push("flashsim.blocking_submits_per_kop", ratio(blocking as f64, kops), "count");

    m.push("trace.flood_overhead_frac", 1.0 - ratio(x.traced_flood, x.untraced_flood), "frac");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_median_averages_the_middle() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.50), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut [], 0.99), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metrics_json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.push("a", 0.123456789012, "s");
        m.push("b", f64::NAN, "ms");
        assert_eq!(
            m.json(),
            "{\"a\": {\"value\": 0.123456789012, \"unit\": \"s\"}, \
             \"b\": {\"value\": 0.0, \"unit\": \"ms\"}}"
        );
    }
}
