//! The measured part of a run: rounds of blocks over two persistent
//! connections.
//!
//! A run is `rounds` repetitions of one round: a closed-loop flood block,
//! a `low` block and a `high` block (the traced run adds a traced flood
//! block). Each metric is the median over its blocks, so every metric
//! samples the whole run and a burst of host noise moves one block, not
//! the result.

use std::net::TcpStream;
use std::ops::Range;
use std::time::{Duration, Instant};

use bufferhash::ClamStats;
use clamd::server::ClamdServer;
use clamd::ServerStats;
use flashsim::Device;

use crate::gen::{self, OpenLoopConn, Tally};
use crate::report::{median, percentile};
use crate::trace::{Span, Tracer};
use crate::workload::{Phase, Planned};
use crate::Error;

/// Client connections, each driven by its own generator thread.
pub const CONNS: usize = 2;
/// Requests in flight per connection during a flood (as `clamd-loadgen`).
pub const FLOOD_WINDOW: usize = 64;
/// Length of a flood block and of an open-loop block.
pub const FLOOD_BLOCK_SECS: f64 = 0.1;
pub const LEVEL_BLOCK_SECS: f64 = 0.25;
/// Validity bounds of an open-loop block: the generator's p99 send lag
/// and the completed/offered rate.
pub const MAX_SEND_LAG_P99_MS: f64 = 10.0;
pub const MIN_ACHIEVED_FRAC: f64 = 0.9;
/// Share of a level's blocks that must meet the validity bounds for the
/// level to count. A block that misses them (a burst of host noise
/// stalled its generator) is left out of the latency medians; a level
/// with too few valid blocks is reported as failed.
pub const MIN_VALID_BLOCK_FRAC: f64 = 0.5;
/// Latency reported for a level that does not count.
pub const FAILED_LEVEL_MS: f64 = 1000.0;

/// The request counters of a `ServerStats` snapshot or window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    pub inserts: u64,
    pub lookups: u64,
    pub hits: u64,
    pub misses: u64,
    pub deletes: u64,
    pub batches: u64,
    pub batched_requests: u64,
    pub group_commit_waits: u64,
    pub insert_admissions: u64,
    pub lookup_admissions: u64,
    pub bypass_hits: u64,
}

impl Ledger {
    pub fn of(s: &ServerStats) -> Ledger {
        Ledger {
            inserts: s.inserts,
            lookups: s.lookups,
            hits: s.lookup_hits,
            misses: s.lookup_misses,
            deletes: s.deletes,
            batches: s.batches,
            batched_requests: s.batched_requests,
            group_commit_waits: s.group_commit_waits,
            insert_admissions: s.insert_admissions,
            lookup_admissions: s.lookup_admissions,
            bypass_hits: s.bypass_hits,
        }
    }

    fn zip(&self, other: &Ledger, f: impl Fn(u64, u64) -> u64) -> Ledger {
        Ledger {
            inserts: f(self.inserts, other.inserts),
            lookups: f(self.lookups, other.lookups),
            hits: f(self.hits, other.hits),
            misses: f(self.misses, other.misses),
            deletes: f(self.deletes, other.deletes),
            batches: f(self.batches, other.batches),
            batched_requests: f(self.batched_requests, other.batched_requests),
            group_commit_waits: f(self.group_commit_waits, other.group_commit_waits),
            insert_admissions: f(self.insert_admissions, other.insert_admissions),
            lookup_admissions: f(self.lookup_admissions, other.lookup_admissions),
            bypass_hits: f(self.bypass_hits, other.bypass_hits),
        }
    }

    pub fn since(&self, earlier: &Ledger) -> Ledger {
        self.zip(earlier, u64::saturating_sub)
    }

    pub fn add(&mut self, other: &Ledger) {
        *self = self.zip(other, u64::saturating_add);
    }
}

/// The store counters of a `ClamStats` snapshot or window.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClamWindow {
    pub lookups: u64,
    pub flash_reads: u64,
    pub spurious_reads: u64,
    pub fast_lookups: u64,
    pub fast_conflicts: u64,
    pub flushes: u64,
    pub coalesced_writes: u64,
    pub table_acquisitions: u64,
    pub table_contended: u64,
    pub write_ring_stalls: u64,
}

impl ClamWindow {
    pub fn of(s: &ClamStats) -> Self {
        ClamWindow {
            lookups: s.lookup_hits + s.lookup_misses,
            flash_reads: s.lookup_flash_reads,
            spurious_reads: s.spurious_flash_reads,
            fast_lookups: s.fast_lookups,
            fast_conflicts: s.fast_read_conflicts,
            flushes: s.flushes,
            coalesced_writes: s.coalesced_flush_writes,
            table_acquisitions: s.table_write_acquisitions,
            table_contended: s.table_write_contended,
            write_ring_stalls: s.write_ring_admission_stalls,
        }
    }

    fn zip(&self, other: &ClamWindow, f: impl Fn(u64, u64) -> u64) -> ClamWindow {
        ClamWindow {
            lookups: f(self.lookups, other.lookups),
            flash_reads: f(self.flash_reads, other.flash_reads),
            spurious_reads: f(self.spurious_reads, other.spurious_reads),
            fast_lookups: f(self.fast_lookups, other.fast_lookups),
            fast_conflicts: f(self.fast_conflicts, other.fast_conflicts),
            flushes: f(self.flushes, other.flushes),
            coalesced_writes: f(self.coalesced_writes, other.coalesced_writes),
            table_acquisitions: f(self.table_acquisitions, other.table_acquisitions),
            table_contended: f(self.table_contended, other.table_contended),
            write_ring_stalls: f(self.write_ring_stalls, other.write_ring_stalls),
        }
    }

    pub fn since(&self, earlier: &ClamWindow) -> ClamWindow {
        self.zip(earlier, u64::saturating_sub)
    }

    pub fn add(&mut self, other: &ClamWindow) {
        *self = self.zip(other, u64::saturating_add);
    }
}

/// One open-loop block: a slice of each connection's level schedule.
pub struct Block {
    start: Instant,
    /// Scheduled time (within the level) the block starts at.
    base_ns: u64,
    conns: Vec<OpenLoopConn>,
    /// Each connection's slice of its level schedule.
    ranges: Vec<Range<usize>>,
    pub tally: Tally,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub lags_ns: Vec<u64>,
    pub achieved_frac: f64,
    pub valid: bool,
    pub ledger: Ledger,
}

impl Block {
    fn new(
        start: Instant,
        base_ns: u64,
        rate: f64,
        plans: &[Vec<Planned>],
        ranges: Vec<Range<usize>>,
        conns: Vec<OpenLoopConn>,
        ledger: Ledger,
    ) -> Block {
        let mut tally = Tally::default();
        let mut lags_ns = Vec::new();
        let mut lat = Vec::new();
        let mut last_done = 0u64;
        let mut last_due = 0u64;
        for ((plan, range), conn) in plans.iter().zip(&ranges).zip(&conns) {
            tally.absorb(&conn.tally);
            for (k, p) in plan[range.clone()].iter().enumerate() {
                let due = p.due_ns - base_ns;
                last_due = last_due.max(due);
                if conn.sent_ns[k] != u64::MAX {
                    lags_ns.push(conn.sent_ns[k].saturating_sub(due));
                }
                if conn.done_ns[k] != u64::MAX {
                    lat.push(conn.done_ns[k] - due);
                    last_done = last_done.max(conn.done_ns[k]);
                }
            }
        }
        let ops = tally.attempted as f64;
        let offered = ops / (last_due as f64 / 1e9 + 1.0 / rate);
        let achieved = lat.len() as f64 / (last_done as f64 / 1e9).max(1e-9);
        let achieved_frac = achieved / offered;
        let p50_ms = percentile(&mut lat, 0.50) / 1e6;
        let p99_ms = percentile(&mut lat, 0.99) / 1e6;
        let lag_p99_ms = percentile(&mut lags_ns, 0.99) / 1e6;
        let valid = lag_p99_ms <= MAX_SEND_LAG_P99_MS
            && achieved_frac >= MIN_ACHIEVED_FRAC
            && tally.failed == 0;
        Block {
            start,
            base_ns,
            conns,
            ranges,
            tally,
            p50_ms,
            p99_ms,
            lags_ns,
            achieved_frac,
            valid,
            ledger,
        }
    }

    /// Every latency (ns) of the block, timed from the scheduled send.
    fn latencies(&self, plans: &[Vec<Planned>], out: &mut Vec<u64>) {
        for ((plan, range), conn) in plans.iter().zip(&self.ranges).zip(&self.conns) {
            for (k, p) in plan[range.clone()].iter().enumerate() {
                if conn.done_ns[k] != u64::MAX {
                    out.push(conn.done_ns[k] - (p.due_ns - self.base_ns));
                }
            }
        }
    }

    /// Client request spans, from each request's scheduled send to its
    /// answer, in `tracer` time.
    fn spans(
        &self,
        plans: &[Vec<Planned>],
        name: &'static str,
        phase: Phase,
        tracer: &Tracer,
    ) -> Vec<Span> {
        let offset = self.start.saturating_duration_since(tracer.epoch()).as_nanos() as u64;
        let mut spans = Vec::new();
        for (c, ((plan, range), conn)) in
            plans.iter().zip(&self.ranges).zip(&self.conns).enumerate()
        {
            for (k, p) in plan[range.clone()].iter().enumerate() {
                if conn.done_ns[k] == u64::MAX {
                    continue;
                }
                spans.push(Span::client(
                    name,
                    phase,
                    offset + p.due_ns - self.base_ns,
                    offset + conn.done_ns[k],
                    ((c as u64) << 32) | (range.start + k + 1) as u64,
                ));
            }
        }
        spans
    }
}

/// The blocks of one open-loop level, with the schedule they came from.
pub struct Level<'a> {
    pub rate: f64,
    pub plans: &'a [Vec<Planned>],
    pub blocks: Vec<Block>,
}

impl Level<'_> {
    pub fn tally(&self) -> Tally {
        let mut t = Tally::default();
        self.blocks.iter().for_each(|b| t.absorb(&b.tally));
        t
    }

    /// Whether enough blocks met the validity bounds for the level to
    /// count (see [`MIN_VALID_BLOCK_FRAC`]).
    pub fn counts(&self) -> bool {
        let valid = self.blocks.len() - self.invalid_blocks();
        valid > 0 && valid as f64 >= MIN_VALID_BLOCK_FRAC * self.blocks.len() as f64
    }

    /// Requests reported as failed: those that failed, or all of them
    /// when the level does not count.
    pub fn failed(&self) -> u64 {
        let tally = self.tally();
        if self.counts() {
            tally.failed
        } else {
            tally.attempted
        }
    }

    /// Median over valid blocks of each block's p50 and p99 (ms). An
    /// invalid block is left out; a level that does not count is
    /// reported as failed requests and [`FAILED_LEVEL_MS`], not as a
    /// latency.
    pub fn reported_ms(&self) -> (f64, f64) {
        let pick = |f: fn(&Block) -> f64| {
            let mut v: Vec<f64> = self.blocks.iter().filter(|b| b.valid).map(f).collect();
            if !self.counts() {
                FAILED_LEVEL_MS
            } else {
                median(&mut v)
            }
        };
        (pick(|b| b.p50_ms), pick(|b| b.p99_ms))
    }

    pub fn invalid_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| !b.valid).count()
    }

    /// Every latency of the level (ns), pooled over blocks.
    pub fn latencies(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.blocks.iter().for_each(|b| b.latencies(self.plans, &mut out));
        out
    }

    /// The generator's p99 send lag over all blocks (ms).
    pub fn send_lag_p99_ms(&self) -> f64 {
        let mut lags: Vec<u64> =
            self.blocks.iter().flat_map(|b| b.lags_ns.iter().copied()).collect();
        percentile(&mut lags, 0.99) / 1e6
    }

    pub fn achieved_frac(&self) -> f64 {
        let mut v: Vec<f64> = self.blocks.iter().map(|b| b.achieved_frac).collect();
        median(&mut v)
    }

    pub fn ledger(&self) -> Ledger {
        let mut l = Ledger::default();
        self.blocks.iter().for_each(|b| l.add(&b.ledger));
        l
    }

    pub fn spans(&self, name: &'static str, phase: Phase, tracer: &Tracer) -> Vec<Span> {
        self.blocks.iter().flat_map(|b| b.spans(self.plans, name, phase, tracer)).collect()
    }
}

/// Connects `CONNS` clients and waits until the server has accepted
/// them, so no request waits in the listen backlog.
pub fn connect_all<D: Device + 'static>(server: &ClamdServer<D>) -> Result<Vec<TcpStream>, Error> {
    let before = server.stats().connections_opened;
    let streams = (0..CONNS)
        .map(|_| gen::connect(server.local_addr()))
        .collect::<std::io::Result<Vec<_>>>()?;
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().connections_opened < before + CONNS as u64 {
        if Instant::now() > deadline {
            return Err("server did not accept the benchmark connections".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(streams)
}

/// The server ledger's delta since `before`, once its request counters
/// match the client's own tallies. Counters are bumped around the
/// response send, so the ledger may trail the last answer briefly.
pub fn ledger_window<D: Device + 'static>(
    server: &ClamdServer<D>,
    before: &Ledger,
    tally: &Tally,
) -> Result<Ledger, Error> {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let window = Ledger::of(&server.stats()).since(before);
        let got = [window.inserts, window.lookups, window.hits, window.misses, window.deletes];
        let want = [tally.inserts, tally.lookups, tally.hits, tally.misses, tally.deletes];
        if got == want {
            return Ok(window);
        }
        if Instant::now() > deadline {
            return Err(format!(
                "server ledger (inserts, lookups, hits, misses, deletes) {got:?} \
                 does not match the client tallies {want:?}"
            )
            .into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

pub fn check_tally(what: &str, tally: &Tally) -> Result<(), Error> {
    if tally.wrong > 0 {
        return Err(format!(
            "{what}: {} wrong answers, first: {}",
            tally.wrong,
            tally.first_wrong.as_deref().unwrap_or("?")
        )
        .into());
    }
    Ok(())
}

/// One closed-loop flood block.
pub struct FloodBlock {
    pub rate: f64,
    pub tally: Tally,
    /// With `trace`: client spans of every request.
    pub spans: Vec<Span>,
}

/// Floods `streams` for `secs`, continuing each connection's schedule
/// from `pos` (advanced past what was sent). Checks the server ledger.
pub fn flood_block<D: Device + 'static>(
    server: &ClamdServer<D>,
    streams: &mut [TcpStream],
    plans: &[Vec<Planned>],
    pos: &mut [usize],
    secs: f64,
    trace: Option<&Tracer>,
) -> Result<FloodBlock, Error> {
    let before = Ledger::of(&server.stats());
    let start = Instant::now() + Duration::from_micros(500);
    let deadline = start + Duration::from_secs_f64(secs);
    let results: Vec<gen::FloodConn> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter_mut()
            .zip(plans)
            .zip(pos.iter())
            .map(|((stream, plan), &at)| {
                let traced = trace.is_some();
                s.spawn(move || {
                    gen::flood(stream, &plan[at..], FLOOD_WINDOW, start, deadline, traced)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("flood thread panicked")).collect()
    });
    let mut tally = Tally::default();
    let mut end_ns = 0;
    let mut spans = Vec::new();
    for (c, r) in results.into_iter().enumerate() {
        tally.absorb(&r.tally);
        end_ns = end_ns.max(r.end_ns);
        if let Some(tracer) = trace {
            let offset = start.saturating_duration_since(tracer.epoch()).as_nanos() as u64;
            spans.extend(r.spans.iter().enumerate().map(|(k, &(sent, done))| {
                let req = ((c as u64) << 32) | (pos[c] + k + 1) as u64;
                Span::client(
                    "client.flood_request",
                    Phase::TracedFlood,
                    offset + sent,
                    offset + done,
                    req,
                )
            }));
        }
        pos[c] += r.tally.attempted as usize;
    }
    check_tally("flood", &tally)?;
    ledger_window(server, &before, &tally)?;
    let rate = tally.completed as f64 / (end_ns as f64 / 1e9).max(1e-9);
    Ok(FloodBlock { rate, tally, spans })
}

/// Runs block `round` of an open-loop level: the requests of each
/// connection's schedule due in `[round, round + 1) * block`.
pub fn level_block<D: Device + 'static>(
    server: &ClamdServer<D>,
    streams: &mut [TcpStream],
    plans: &[Vec<Planned>],
    round: usize,
    rate: f64,
) -> Result<Block, Error> {
    let block_ns = (LEVEL_BLOCK_SECS * 1e9) as u64;
    let base_ns = round as u64 * block_ns;
    let ranges: Vec<Range<usize>> = plans
        .iter()
        .map(|p| {
            let lo = p.partition_point(|x| x.due_ns < base_ns);
            let hi = p.partition_point(|x| x.due_ns < base_ns + block_ns);
            lo..hi
        })
        .collect();
    let before = Ledger::of(&server.stats());
    let start = Instant::now() + Duration::from_micros(500);
    let conns: Vec<OpenLoopConn> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter_mut()
            .zip(plans)
            .zip(&ranges)
            .map(|((stream, plan), range)| {
                s.spawn(move || gen::open_loop(stream, &plan[range.clone()], base_ns, start))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
    });
    let mut tally = Tally::default();
    conns.iter().for_each(|c| tally.absorb(&c.tally));
    check_tally("open-loop block", &tally)?;
    let ledger = ledger_window(server, &before, &tally)?;
    Ok(Block::new(start, base_ns, rate, plans, ranges, conns, ledger))
}

/// Builds a one-block level from a pass that ran a whole schedule (the
/// `Engine`-direct pass).
pub fn whole_level<'a>(
    rate: f64,
    plans: &'a [Vec<Planned>],
    start: Instant,
    conns: Vec<OpenLoopConn>,
) -> Level<'a> {
    let ranges = plans.iter().map(|p| 0..p.len()).collect();
    let block = Block::new(start, 0, rate, plans, ranges, conns, Ledger::default());
    Level { rate, plans, blocks: vec![block] }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(valid: bool, attempted: u64, failed: u64) -> Block {
        let tally = Tally { attempted, completed: attempted - failed, failed, ..Tally::default() };
        Block {
            start: Instant::now(),
            base_ns: 0,
            conns: Vec::new(),
            ranges: Vec::new(),
            tally,
            p50_ms: if valid { 0.1 } else { 50.0 },
            p99_ms: if valid { 0.2 } else { 90.0 },
            lags_ns: Vec::new(),
            achieved_frac: if valid { 1.0 } else { 0.5 },
            valid,
            ledger: Ledger::default(),
        }
    }

    fn level(blocks: Vec<Block>) -> Level<'static> {
        Level { rate: 1000.0, plans: &[], blocks }
    }

    #[test]
    fn an_invalid_block_is_left_out_of_latency_but_not_failed() {
        let l = level(vec![block(true, 100, 0), block(false, 100, 0), block(true, 100, 0)]);
        assert!(l.counts());
        assert_eq!(l.failed(), 0);
        assert_eq!(l.reported_ms(), (0.1, 0.2));
    }

    #[test]
    fn a_level_with_too_few_valid_blocks_fails_every_request() {
        let l = level(vec![block(false, 100, 0), block(false, 100, 0), block(true, 100, 0)]);
        assert!(!l.counts());
        assert_eq!(l.failed(), 300);
        assert_eq!(l.reported_ms(), (FAILED_LEVEL_MS, FAILED_LEVEL_MS));
    }

    #[test]
    fn failed_requests_count_in_a_level_that_counts() {
        let l = level(vec![block(true, 100, 0), block(false, 100, 3)]);
        assert!(l.counts());
        assert_eq!(l.failed(), 3);
    }
}
