//! Measurements that bypass layers: the `Engine`-direct pass (the
//! batcher and store without TCP or the wire format) and the `proto`
//! replay (the wire format alone).

use std::hint::black_box;
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

use bufferhash::{Key, Value};
use clamd::batcher::Engine;
use clamd::loadgen::{key_for, value_for};
use clamd::proto::{self, Op, Request, RespBody, Response};
use flashsim::Device;

use crate::gen::{self, OpenLoopConn, Tally};
use crate::workload::{Kind, Planned};

/// No answer within this long fails the pass.
const STALL_LIMIT: Duration = Duration::from_secs(10);

/// Runs `plan` open loop straight into `engine` as connection `conn`:
/// each request is submitted at its scheduled time and timed from it to
/// its response on the connection's channel.
pub fn engine_open_loop<D: Device + 'static>(
    engine: &Engine<D>,
    conn: u64,
    plan: &[Planned],
    start: Instant,
) -> OpenLoopConn {
    let rx = engine.register_conn(conn);
    let mut out = OpenLoopConn {
        tally: Tally { attempted: plan.len() as u64, ..Tally::default() },
        sent_ns: vec![u64::MAX; plan.len()],
        done_ns: vec![u64::MAX; plan.len()],
    };
    gen::tighten_timer_slack();
    gen::sleep_until(start);
    let now_ns = || start.elapsed().as_nanos() as u64;
    let (mut next_send, mut next_recv) = (0usize, 0usize);
    while next_recv < plan.len() {
        let now = now_ns();
        while next_send < plan.len() && plan[next_send].due_ns <= now {
            engine.submit(conn, Request { id: next_send as u64 + 1, op: plan[next_send].op() });
            out.sent_ns[next_send] = now;
            next_send += 1;
        }
        let wait = if next_send < plan.len() {
            Duration::from_nanos(plan[next_send].due_ns.saturating_sub(now_ns()))
        } else {
            STALL_LIMIT
        };
        let first = if next_recv < next_send {
            match rx.recv_timeout(wait) {
                Ok(resp) => Some(resp),
                Err(RecvTimeoutError::Timeout) if next_send < plan.len() => None,
                Err(_) => break,
            }
        } else {
            gen::sleep_until(start + Duration::from_nanos(plan[next_send].due_ns));
            None
        };
        let done = now_ns();
        for resp in first.into_iter().chain(rx.try_iter()) {
            let i = next_recv;
            if i >= next_send || resp.id != i as u64 + 1 {
                out.tally.wrong += 1;
                out.tally.first_wrong.get_or_insert_with(|| format!("out-of-order {resp:?}"));
                break;
            }
            out.tally.check(&plan[i], &resp.body);
            out.done_ns[i] = done;
            next_recv += 1;
        }
        if out.tally.wrong > 0 {
            break;
        }
    }
    out.tally.failed += (plan.len() - next_recv) as u64;
    engine.unregister_conn(conn);
    out
}

/// Runs `plan` closed loop into `engine` with `window` requests in
/// flight (the `Engine`-direct store's warm-up).
pub fn engine_closed_loop<D: Device + 'static>(
    engine: &Engine<D>,
    conn: u64,
    plan: &[Planned],
    window: usize,
) -> Tally {
    let rx = engine.register_conn(conn);
    let mut tally = Tally { attempted: plan.len() as u64, ..Tally::default() };
    let (mut next_send, mut next_recv) = (0usize, 0usize);
    while next_recv < plan.len() {
        while next_send < plan.len() && next_send - next_recv < window {
            engine.submit(conn, Request { id: next_send as u64 + 1, op: plan[next_send].op() });
            next_send += 1;
        }
        match rx.recv_timeout(STALL_LIMIT) {
            Ok(resp) if resp.id == next_recv as u64 + 1 => {
                tally.check(&plan[next_recv], &resp.body);
                next_recv += 1;
            }
            _ => break,
        }
    }
    tally.failed += (plan.len() - next_recv) as u64;
    engine.unregister_conn(conn);
    tally
}

/// Loads ids `1..=keys` through `engine` in `INSERT_BATCH` frames, like
/// `clamd::loadgen::preload` does over the wire. Returns the acked count.
pub fn engine_preload<D: Device + 'static>(engine: &Engine<D>, conn: u64, keys: u64) -> u64 {
    let rx = engine.register_conn(conn);
    let mut acked = 0u64;
    let mut id = 1u64;
    let mut req = 0u64;
    while id <= keys {
        let end = (id + 1023).min(keys);
        let batch: Vec<(Key, Value)> = (id..=end).map(|i| (key_for(i), value_for(i))).collect();
        req += 1;
        engine.submit(conn, Request { id: req, op: Op::InsertBatch(batch) });
        match rx.recv_timeout(STALL_LIMIT) {
            Ok(Response { body: RespBody::InsertedBatch { count }, .. }) => acked += count as u64,
            _ => break,
        }
        id = end + 1;
    }
    engine.unregister_conn(conn);
    acked
}

/// What the wire format costs for a workload's own requests.
pub struct ProtoReplay {
    pub decode_ns_per_req: f64,
    pub encode_ns_per_resp: f64,
    pub wire_bytes_per_op: f64,
    /// (start, end) of each timed repetition, nanoseconds after `epoch`.
    pub spans: Vec<(&'static str, u64, u64)>,
}

/// Encodes every request of `plans` into one buffer and the answer each
/// should get into another, then times `decode_request` over the
/// requests and `encode_response` over the answers, `reps` times each.
/// Reports the median repetition.
pub fn proto_replay(plans: &[Vec<Planned>], reps: usize, epoch: Instant) -> ProtoReplay {
    let mut frames = Vec::new();
    let mut responses = Vec::new();
    for (c, plan) in plans.iter().enumerate() {
        for (i, p) in plan.iter().enumerate() {
            let id = ((c as u64) << 32) | (i as u64 + 1);
            proto::encode_request(&Request { id, op: p.op() }, &mut frames);
            let body = match p.kind {
                Kind::Insert => RespBody::Inserted,
                Kind::Delete => RespBody::Deleted,
                Kind::Lookup => {
                    RespBody::Value { found: p.hit, value: if p.hit { p.value() } else { 0 } }
                }
            };
            responses.push(Response { id, body });
        }
    }
    let n = responses.len();
    let mut out_buf = Vec::with_capacity(frames.len() * 2);
    let mut spans = Vec::new();
    let mut decode = Vec::with_capacity(reps);
    let mut encode = Vec::with_capacity(reps);
    let now = || epoch.elapsed().as_nanos() as u64;
    for _ in 0..reps {
        let t0 = now();
        let mut at = 0;
        let mut decoded = 0usize;
        while let Ok(Some((request, used))) = proto::decode_request(&frames[at..]) {
            black_box(&request);
            at += used;
            decoded += 1;
        }
        assert_eq!(decoded, n, "the replay decodes every request it encoded");
        let t1 = now();
        out_buf.clear();
        for resp in &responses {
            proto::encode_response(black_box(resp), &mut out_buf);
        }
        black_box(&out_buf);
        let t2 = now();
        decode.push(t1 - t0);
        encode.push(t2 - t1);
        spans.push(("proto.decode", t0, t1));
        spans.push(("proto.encode", t1, t2));
    }
    ProtoReplay {
        decode_ns_per_req: median_u64(&mut decode) / n.max(1) as f64,
        encode_ns_per_resp: median_u64(&mut encode) / n.max(1) as f64,
        wire_bytes_per_op: (frames.len() + out_buf.len()) as f64 / n.max(1) as f64,
        spans,
    }
}

fn median_u64(v: &mut [u64]) -> f64 {
    v.sort_unstable();
    v.get(v.len() / 2).copied().unwrap_or(0) as f64
}
