//! The three workloads and their seeded request schedules.
//!
//! Every key comes from one of three disjoint id ranges, mapped to wire
//! keys through `clamd::loadgen::key_for` (a bijection), so every answer
//! is known in advance:
//!
//! * preloaded ids `1..=preload` hold `value_for(id)`;
//! * miss ids `MISS_BASE..` are never inserted;
//! * fresh ids `FRESH_BASE..` are inserted during a run, each phase and
//!   connection drawing from its own sub-range.
//!
//! Schedules are built in full before any clock starts: the same seed,
//! phase and connection always give the same request stream.

use std::collections::HashSet;

use bufferhash::{mix64, Key, Value};
use clamd::loadgen::{key_for, value_for};
use clamd::proto::Op;
use rand::distributions::Zipf;
use rand::{Rng, SeedableRng, StdRng};

/// First id of the never-inserted range.
pub const MISS_BASE: u64 = 1 << 40;
/// Width of the miss range.
pub const MISS_SPAN: u64 = 1 << 36;
/// First id of the inserted-during-run range.
pub const FRESH_BASE: u64 = 1 << 41;
const _: () = assert!(MISS_BASE + MISS_SPAN <= FRESH_BASE, "miss and fresh ranges overlap");
/// Fresh ids per (phase, connection) sub-range.
const FRESH_PER_CONN: u64 = 1 << 30;
/// Connections per phase the fresh range is partitioned for.
const MAX_CONNS: u64 = 16;

/// Read-your-writes window of `insert-churn`: lookups pick one of the
/// connection's last `RECENT` inserts.
const RECENT: usize = 2048;
/// Deletes pick an insert at least this many inserts old (and inside
/// the `RECENT` window, so later lookups can see the delete).
const DELETE_MIN_AGE: usize = 256;

/// The traffic mix a workload draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// 95% lookups (Zipf 0.99 over the preload; 80% hits), 5% rewrites
    /// of preloaded keys with their canonical value.
    DramHot,
    /// 90% lookups (uniform over the preload; 50% hits), 10% fresh
    /// inserts.
    FlashLookup,
    /// 88% fresh inserts, 10% lookups of the connection's own recent
    /// inserts, 2% deletes of its own older inserts.
    InsertChurn,
}

/// One workload: sizes, preload and its two frozen open-loop rates.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub mix: Mix,
    pub flash_bytes: u64,
    pub dram_bytes: u64,
    /// Keys `1..=preload` loaded over the wire during set-up.
    pub preload: u64,
    /// Fixed `low` and `high` open-loop rates in ops/s, frozen so that
    /// every commit is offered the same load (README.md says how they
    /// were chosen).
    pub low_rate: f64,
    pub high_rate: f64,
    /// Upper bound on flood throughput used to size the pre-generated
    /// flood schedule.
    pub flood_cap_rate: f64,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "dram-hot",
        mix: Mix::DramHot,
        flash_bytes: 64 << 20,
        dram_bytes: 8 << 20,
        preload: 20_000,
        low_rate: 20_000.0,
        high_rate: 30_000.0,
        flood_cap_rate: 600_000.0,
    },
    Spec {
        name: "flash-lookup",
        mix: Mix::FlashLookup,
        flash_bytes: 64 << 20,
        dram_bytes: 8 << 20,
        preload: 1_000_000,
        low_rate: 15_000.0,
        high_rate: 22_500.0,
        flood_cap_rate: 200_000.0,
    },
    Spec {
        name: "insert-churn",
        mix: Mix::InsertChurn,
        flash_bytes: 16 << 20,
        dram_bytes: 4 << 20,
        preload: 600_000,
        low_rate: 8_000.0,
        high_rate: 12_000.0,
        flood_cap_rate: 150_000.0,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// A run phase. Each phase draws its fresh ids from its own range, so
/// phases never depend on which of another phase's requests ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Warmup = 0,
    Flood = 1,
    Low = 2,
    High = 3,
    TracedFlood = 4,
    Direct = 5,
}

/// What a request does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Insert,
    Lookup,
    Delete,
}

/// One scheduled request. Key and value derive from `id`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Planned {
    pub kind: Kind,
    pub id: u64,
    /// For lookups: whether the key must be found (with `value_for(id)`).
    pub hit: bool,
    /// Nanoseconds after the level's start this request is due (0 for
    /// closed-loop phases).
    pub due_ns: u64,
}

impl Planned {
    pub fn key(&self) -> Key {
        key_for(self.id)
    }

    pub fn value(&self) -> Value {
        value_for(self.id)
    }

    pub fn op(&self) -> Op {
        match self.kind {
            Kind::Insert => Op::Insert { key: self.key(), value: self.value() },
            Kind::Lookup => Op::Lookup { key: self.key() },
            Kind::Delete => Op::Delete { key: self.key() },
        }
    }
}

/// First fresh id of `(phase, conn)`.
pub fn fresh_base(phase: Phase, conn: usize) -> u64 {
    assert!((conn as u64) < MAX_CONNS, "fresh range is partitioned for {MAX_CONNS} connections");
    FRESH_BASE + (phase as u64 * MAX_CONNS + conn as u64) * FRESH_PER_CONN
}

/// Builds connection `conn`'s schedule of `ops` requests. With a `rate`
/// (total over `conns` connections), request `i` is due at
/// `(i * conns + conn) / rate` seconds; without one every request is
/// due at once (closed loop).
pub fn schedule(
    spec: &Spec,
    seed: u64,
    phase: Phase,
    conn: usize,
    conns: usize,
    ops: usize,
    rate: Option<f64>,
) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(mix64(seed ^ mix64(((phase as u64) << 8) | conn as u64)));
    let zipf = Zipf::new(spec.preload.max(1), 0.99);
    let mut fresh = fresh_base(phase, conn);
    let mut inserted: Vec<u64> = Vec::new();
    let mut deleted: HashSet<u64> = HashSet::new();
    let mut out = Vec::with_capacity(ops);
    for i in 0..ops {
        let due_ns = match rate {
            Some(rate) => (((i * conns + conn) as f64) * 1e9 / rate) as u64,
            None => 0,
        };
        let u: f64 = rng.gen();
        let (kind, id, hit) = match spec.mix {
            Mix::DramHot => {
                if u < 0.95 {
                    if rng.gen::<f64>() < 0.8 {
                        (Kind::Lookup, zipf.sample(&mut rng), true)
                    } else {
                        (Kind::Lookup, MISS_BASE + rng.gen_range(0..MISS_SPAN), false)
                    }
                } else {
                    (Kind::Insert, zipf.sample(&mut rng), false)
                }
            }
            Mix::FlashLookup => {
                if u < 0.9 {
                    if rng.gen::<f64>() < 0.5 {
                        (Kind::Lookup, rng.gen_range(1..=spec.preload), true)
                    } else {
                        (Kind::Lookup, MISS_BASE + rng.gen_range(0..MISS_SPAN), false)
                    }
                } else {
                    fresh += 1;
                    (Kind::Insert, fresh, false)
                }
            }
            Mix::InsertChurn => {
                let n = inserted.len();
                if u < 0.88 || n <= DELETE_MIN_AGE {
                    fresh += 1;
                    inserted.push(fresh);
                    (Kind::Insert, fresh, false)
                } else if u < 0.98 {
                    let id = inserted[rng.gen_range(n.saturating_sub(RECENT)..n)];
                    (Kind::Lookup, id, !deleted.contains(&id))
                } else {
                    let id = inserted[rng.gen_range(n.saturating_sub(RECENT)..n - DELETE_MIN_AGE)];
                    deleted.insert(id);
                    (Kind::Delete, id, false)
                }
            }
        };
        out.push(Planned { kind, id, hit, due_ns });
    }
    out
}

/// Schedules for every connection of one phase.
pub fn schedules(
    spec: &Spec,
    seed: u64,
    phase: Phase,
    conns: usize,
    ops_per_conn: usize,
    rate: Option<f64>,
) -> Vec<Vec<Planned>> {
    (0..conns).map(|c| schedule(spec, seed, phase, c, conns, ops_per_conn, rate)).collect()
}

/// Ids a schedule leaves present with their canonical value if every
/// request ran: inserted and not deleted afterwards. Used to pick the
/// post-recovery sample.
pub fn live_inserts(plan: &[Planned]) -> Vec<u64> {
    let mut deleted = HashSet::new();
    let mut live = Vec::new();
    for p in plan.iter().rev() {
        match p.kind {
            Kind::Delete => {
                deleted.insert(p.id);
            }
            Kind::Insert if p.id >= FRESH_BASE && !deleted.contains(&p.id) => live.push(p.id),
            _ => {}
        }
    }
    live.reverse();
    live
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(name: &str, seed: u64, phase: Phase, conn: usize) -> Vec<Planned> {
        schedule(spec(name).unwrap(), seed, phase, conn, 2, 20_000, Some(10_000.0))
    }

    #[test]
    fn one_seed_gives_one_request_stream() {
        for s in &WORKLOADS {
            for phase in [Phase::Flood, Phase::Low, Phase::High] {
                assert_eq!(plan(s.name, 7, phase, 0), plan(s.name, 7, phase, 0), "{}", s.name);
            }
            assert_ne!(plan(s.name, 7, Phase::Low, 0), plan(s.name, 8, Phase::Low, 0));
            assert_ne!(plan(s.name, 7, Phase::Low, 0), plan(s.name, 7, Phase::Low, 1));
        }
    }

    #[test]
    fn id_ranges_stay_disjoint() {
        for s in &WORKLOADS {
            assert!(s.preload < MISS_BASE);
            let mut fresh_ranges = Vec::new();
            for phase in [Phase::Warmup, Phase::Flood, Phase::Low, Phase::High] {
                for conn in 0..2 {
                    let base = fresh_base(phase, conn);
                    fresh_ranges.push(base..base + FRESH_PER_CONN);
                    for p in plan(s.name, 3, phase, conn) {
                        let preloaded = (1..=s.preload).contains(&p.id);
                        let missing = (MISS_BASE..MISS_BASE + MISS_SPAN).contains(&p.id);
                        let own_fresh = (base + 1..base + FRESH_PER_CONN).contains(&p.id);
                        match p.kind {
                            Kind::Lookup if p.hit => assert!(preloaded || own_fresh),
                            Kind::Lookup => assert!(missing || own_fresh),
                            Kind::Insert => assert!(preloaded || own_fresh),
                            Kind::Delete => assert!(own_fresh),
                        }
                    }
                }
            }
            for (i, a) in fresh_ranges.iter().enumerate() {
                for b in &fresh_ranges[i + 1..] {
                    assert!(a.end <= b.start || b.end <= a.start);
                }
            }
        }
        // The wire keys of the three ranges never collide.
        let mut keys = HashSet::new();
        for id in
            (1..5_000).chain(MISS_BASE..MISS_BASE + 5_000).chain(FRESH_BASE..FRESH_BASE + 5_000)
        {
            assert!(keys.insert(key_for(id)));
        }
    }

    #[test]
    fn churn_lookups_expect_deletes_and_hit_otherwise() {
        let plan = plan("insert-churn", 11, Phase::Low, 0);
        let mut deleted = HashSet::new();
        let mut inserted = HashSet::new();
        for p in &plan {
            match p.kind {
                Kind::Insert => assert!(inserted.insert(p.id), "fresh ids are never reused"),
                Kind::Delete => {
                    assert!(inserted.contains(&p.id));
                    deleted.insert(p.id);
                }
                Kind::Lookup => {
                    assert!(inserted.contains(&p.id), "lookups read the connection's own writes");
                    assert_eq!(p.hit, !deleted.contains(&p.id));
                }
            }
        }
        assert!(!deleted.is_empty());
        let live = live_inserts(&plan);
        assert!(live.iter().all(|id| !deleted.contains(id)));
        assert_eq!(live.len(), inserted.len() - deleted.len());
    }

    #[test]
    fn open_loop_due_times_interleave_connections() {
        let a = plan("dram-hot", 1, Phase::Low, 0);
        let b = plan("dram-hot", 1, Phase::Low, 1);
        assert_eq!(a[0].due_ns, 0);
        assert_eq!(b[0].due_ns, 100_000);
        assert_eq!(a[1].due_ns, 200_000);
        assert!(a.windows(2).all(|w| w[0].due_ns < w[1].due_ns));
    }
}
