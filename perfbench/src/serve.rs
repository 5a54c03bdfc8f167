//! `serve-durable`: the durable server on loopback under an open-loop
//! rate ladder.
//!
//! `serve_seeded` with `ServerConfig::default()` (one SOU thread, fsynced
//! commits, batch 64, 2 ms linger, checkpoint every 64 batches) and a
//! fresh on-disk data directory. The tree holds 16k of a 2^15 space of
//! scrambled 8-byte keys; the mix is 55% get / 20% insert / 20% remove /
//! 5% scan over Zipf(0.99) keys, so its size stays level. One connection;
//! a sender thread paces the seeded `Arrivals` schedule through segments
//! of 2.5 s that cycle through three rungs (1k, 2k, 4k QPS) and a receiver
//! thread collects answers. Latency runs from each request's scheduled
//! slot; its p50 and p99 are taken per segment and reported as the median
//! over segments.
//!
//! Gates: the drained server's tree digest equals a sequential `Art`
//! model of the preload plus every acked write in send order; every acked
//! get returned the model's value at that point; every reopen of the
//! drained data directory recovers the same tree.

use std::io::ErrorKind;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dcart::durable::encode_ops;
use dcart::{
    read_checkpoint, tree_digest, write_checkpoint, CrashInjector, CttSession, ExecOpts,
    PersistStats, TraverseMode,
};
use dcart_art::{Art, Key};
use dcart_engine::time::Clock;
use dcart_engine::WalWriter;
use dcart_server::{
    decode_request, decode_response, encode_request, encode_response, read_frame, serve_seeded,
    write_frame, AdmissionConfig, CoreReport, Request, RequestKind, Response, ServerConfig,
    ServerCore, ServerShared, ServerStats, Status, WireError,
};
use dcart_workloads::{ArrivalPattern, Arrivals, Op, OpKind, Zipfian};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::stats::{median, percentile, windowed_percentile, Outcome, Tally, Timing};
use crate::trace::{Recorder, ROOT};
use crate::{Args, E2e, Gate, Phase, TempDir};

/// The ladder: each rung offers a fixed rate for one segment, in turn,
/// cycle after cycle, so every rung is sampled across the whole run.
/// `checkpoint_every` counts batches, so the low rung checkpoints most
/// often per op. The high rung fills the 1024-slot admission queue only
/// in a stall of over 250 ms: a full queue trips the shed latches, which
/// never re-arm, so the rest of a run sheds its reads. At 8k and 12k QPS,
/// host stalls on a busy machine did that.
const RUNGS: [(&str, u64); 3] = [("low", 1_000), ("mid", 2_000), ("high", 4_000)];
const HIGH: usize = 2;
/// Schedule length of one segment: at the low rung, 2500 requests, so
/// each segment's p99 has 25 samples beyond it.
const SEGMENT_NS: u64 = 2_500_000_000;

const KEY_SPACE: u64 = 1 << 15;
const PRELOAD: usize = 1 << 14;
const SCAN_LIMIT: u64 = 16;
/// The latency limit goodput counts against: the server's default budget.
const LIMIT_NS: u64 = 50_000_000;
/// The deadline every request asks for: the most the server grants. With
/// the 50 ms default, requests queued behind a checkpoint expired and
/// dropped out of the latency sample; with this budget they are answered
/// late, so a stall shows in `p99_ms` and goodput instead of as refusals.
const BUDGET_NS: u64 = 1_000_000_000;
/// Reopens of the drained data directory that `setup_s` is the median of.
const REOPENS: usize = 25;
/// Batches each traced in-process probe replays at most.
const PROBE_BATCHES: usize = 1500;
/// How long the receiver waits for stragglers after the last send.
const GRACE: Duration = Duration::from_secs(5);

/// Monotonic wall clock for the server's deadlines.
struct WallClock(Instant);

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Key ids scrambled over the whole u64 space (a bijection), so the
/// executor's combining prefix spreads them over every bucket.
fn key_of(id: u64) -> u64 {
    splitmix64(id)
}

struct Inputs {
    preload: Vec<(Key, u64)>,
    reqs: Vec<Request>,
    /// Scheduled send offsets, ns from the start of the ladder.
    slots: Vec<u64>,
    /// Segments in the schedule, a whole number of ladder cycles.
    segments: usize,
}

impl Inputs {
    /// The segment request `i` was scheduled in.
    fn segment(&self, i: usize) -> usize {
        usize::try_from(self.slots[i] / SEGMENT_NS)
            .map_or(self.segments - 1, |s| s.min(self.segments - 1))
    }

    /// The rung request `i` was scheduled in.
    fn rung(&self, i: usize) -> usize {
        self.segment(i) % RUNGS.len()
    }

    /// Schedule length of one rung over the whole run, s.
    fn rung_s(&self) -> f64 {
        (self.segments / RUNGS.len()) as f64 * SEGMENT_NS as f64 / 1e9
    }
}

fn inputs(seed: u64, seconds: u64) -> Inputs {
    let mut data_rng = StdRng::seed_from_u64(crate::DATA_SEED);
    let mut ids: Vec<u64> = (0..KEY_SPACE).collect();
    ids.shuffle(&mut data_rng);
    let preload = ids[..PRELOAD]
        .iter()
        .map(|&id| (Key::from_u64(key_of(id)), splitmix64(crate::DATA_SEED ^ id)))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e12_7e00);
    // Hotness order, independent of which ids are preloaded.
    let mut by_rank: Vec<u64> = (0..KEY_SPACE).collect();
    by_rank.shuffle(&mut rng);
    let zipf = Zipfian::new(KEY_SPACE, 0.99);
    // Whole ladder cycles filling the run length, at least one.
    let cycle_ns = SEGMENT_NS * RUNGS.len() as u64;
    let segments =
        RUNGS.len() * usize::try_from((seconds * 1_000_000_000 / cycle_ns).max(1)).unwrap_or(1);
    let mut slots = Vec::new();
    let mut reqs = Vec::new();
    for seg in 0..segments {
        let qps = RUNGS[seg % RUNGS.len()].1;
        let mut arrivals =
            Arrivals::new(seed.wrapping_add(seg as u64), qps, ArrivalPattern::Uniform);
        loop {
            let at = arrivals.next_ns();
            if at >= SEGMENT_NS {
                break;
            }
            slots.push(seg as u64 * SEGMENT_NS + at);
        }
    }
    for i in 0..slots.len() as u64 {
        let key = key_of(by_rank[zipf.sample(&mut rng) as usize]);
        let (kind, value) = match rng.gen_range(0..100u32) {
            0..=54 => (RequestKind::Get, 0),
            55..=74 => (RequestKind::Insert, splitmix64(seed ^ (i << 1))),
            75..=94 => (RequestKind::Remove, 0),
            _ => (RequestKind::Scan, SCAN_LIMIT),
        };
        reqs.push(Request { req_id: i + 1, kind, budget_ns: BUDGET_NS, key, value });
    }
    Inputs { preload, reqs, slots, segments }
}

fn config(dir: &TempDir) -> ServerConfig {
    ServerConfig { data_dir: Some(dir.0.clone()), ..ServerConfig::default() }
}

fn op_of(r: &Request) -> Op {
    let kind = match r.kind {
        RequestKind::Insert => OpKind::Insert,
        RequestKind::Remove => OpKind::Remove,
        RequestKind::Scan => OpKind::Scan,
        _ => OpKind::Read,
    };
    Op { kind, key: Key::from_u64(r.key), value: r.value }
}

/// What the live ladder produced. Times are ns on the recorder's clock.
struct Live {
    start_ns: u64,
    sent: Vec<u64>,
    answers: Vec<Option<(u64, Response)>>,
    /// Server stats when each segment began, then after the last answer.
    snaps: Vec<ServerStats>,
    report: CoreReport,
    total_s: f64,
}

fn live(inp: &Inputs, dir: &TempDir, rec: &Recorder) -> Result<Live, String> {
    let clock: Arc<dyn Clock> = Arc::new(WallClock(Instant::now()));
    let handle = serve_seeded(config(dir), "127.0.0.1:0", clock, &inp.preload)
        .map_err(|e| format!("serve_seeded: {e}"))?;
    let mut stream =
        TcpStream::connect(handle.local_addr()).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    let mut read_half = stream.try_clone().map_err(|e| format!("clone socket: {e}"))?;
    read_half
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| format!("read timeout: {e}"))?;

    let n = inp.reqs.len();
    let done = AtomicBool::new(false);
    let start_ns = rec.now() + 20_000_000;
    let mut sent = vec![0u64; n];
    let mut snaps = Vec::with_capacity(inp.segments + 1);
    let (answers, send_result) = std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut answers: Vec<Option<(u64, Response)>> = vec![None; n];
            let mut got = 0usize;
            let mut give_up = u64::MAX;
            while got < n {
                match read_frame(&mut read_half) {
                    Ok(Some(body)) => {
                        let now = rec.now();
                        let resp = decode_response(&body).map_err(|e| format!("decode: {e:?}"))?;
                        let slot = usize::try_from(resp.req_id.wrapping_sub(1))
                            .ok()
                            .and_then(|i| answers.get_mut(i))
                            .ok_or_else(|| format!("answer to unknown request {}", resp.req_id))?;
                        if slot.is_none() {
                            got += 1;
                        }
                        *slot = Some((now, resp));
                    }
                    Ok(None) => break,
                    Err(WireError::Io(k))
                        if k == ErrorKind::WouldBlock || k == ErrorKind::TimedOut =>
                    {
                        if done.load(Ordering::Acquire) {
                            let now = rec.now();
                            if give_up == u64::MAX {
                                give_up = now + GRACE.as_nanos() as u64;
                            } else if now >= give_up {
                                break;
                            }
                        }
                    }
                    Err(e) => return Err(format!("read: {e:?}")),
                }
            }
            Ok(answers)
        });
        let mut send = || -> Result<(), String> {
            for (i, req) in inp.reqs.iter().enumerate() {
                if i == 0 || inp.segment(i) != inp.segment(i - 1) {
                    snaps.push(handle.shared().stats());
                }
                let due = start_ns + inp.slots[i];
                loop {
                    let now = rec.now();
                    if now >= due {
                        break;
                    }
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                sent[i] = rec.now();
                write_frame(&mut stream, &encode_request(req))
                    .map_err(|e| format!("send: {e:?}"))?;
            }
            Ok(())
        };
        let r = send();
        done.store(true, Ordering::Release);
        (receiver.join(), r)
    });
    send_result?;
    let answers = answers.map_err(|_| "receiver thread panicked".to_string())??;
    snaps.push(handle.shared().stats());
    if snaps.len() != inp.segments + 1 {
        return Err(format!("a segment of the ladder is empty ({} snapshots)", snaps.len()));
    }
    let _ = stream.shutdown(Shutdown::Both);
    let report = handle.shutdown_and_join().map_err(|e| format!("drain: {e}"))?;
    let total_s = (rec.now() - start_ns) as f64 / 1e9;
    Ok(Live { start_ns, sent, answers, snaps, report, total_s })
}

/// The sequential model: preload, then every acked write in send order.
/// Returns the model's tree digest and the acked gets whose value differs.
fn model(inp: &Inputs, live: &Live) -> Result<(u64, u64), String> {
    let mut art: Art<u64> = Art::new();
    for (k, v) in &inp.preload {
        art.insert(k.clone(), *v).map_err(|e| format!("model insert: {e}"))?;
    }
    let mut wrong_gets = 0u64;
    for (req, ans) in inp.reqs.iter().zip(&live.answers) {
        let Some((_, resp)) = ans else { continue };
        if resp.status != Status::Ok {
            continue;
        }
        let key = Key::from_u64(req.key);
        match req.kind {
            RequestKind::Get if art.get(&key).copied() != resp.value => wrong_gets += 1,
            RequestKind::Insert => {
                art.insert(key, req.value).map_err(|e| format!("model insert: {e}"))?;
            }
            RequestKind::Remove => {
                art.remove(&key);
            }
            _ => {}
        }
    }
    Ok((tree_digest(&art), wrong_gets))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Per-rung layer metrics, named `<metric>.<rung>` in `RUNGS` order:
/// live ops per batch, flush p50 / p99 and WAL commit in the in-process
/// replays at that rung's live mean batch, and live checkpoints per 1000
/// ops.
const RUNG_LAYERS: [[&str; 5]; 3] = [
    [
        "core.ops_per_batch.low",
        "core.flush_ms_p50.low",
        "core.flush_ms_p99.low",
        "wal.commit_us_p50.low",
        "durable.checkpoints_per_kop.low",
    ],
    [
        "core.ops_per_batch.mid",
        "core.flush_ms_p50.mid",
        "core.flush_ms_p99.mid",
        "wal.commit_us_p50.mid",
        "durable.checkpoints_per_kop.mid",
    ],
    [
        "core.ops_per_batch.high",
        "core.flush_ms_p50.high",
        "core.flush_ms_p99.high",
        "wal.commit_us_p50.high",
        "durable.checkpoints_per_kop.high",
    ],
];

/// The requests scheduled in one rung: outcomes, acked latencies and
/// generator lateness, in ms.
#[derive(Default)]
struct RungResult {
    tally: Tally,
    latencies: Vec<f64>,
    lateness: Vec<f64>,
}

pub fn run(args: &Args, rec: &mut Recorder) -> Result<Phase, String> {
    let inp = inputs(args.seed, args.seconds);
    let dir = TempDir::new("serve")?;
    let live = live(&inp, &dir, rec)?;

    let mut total = Tally::default();
    let mut rungs: Vec<RungResult> = RUNGS.iter().map(|_| RungResult::default()).collect();
    // Acked latencies per segment, in ms: the percentile windows.
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); inp.segments];
    for (i, ans) in live.answers.iter().enumerate() {
        let rung = &mut rungs[inp.rung(i)];
        let slot_ns = live.start_ns + inp.slots[i];
        let sent_ns = live.sent[i];
        rung.lateness.push(ms(Timing { slot_ns, sent_ns, answered_ns: sent_ns }.lateness_ns()));
        let outcome = match ans {
            None => Outcome::Unanswered,
            Some((answered_ns, resp)) => {
                let t = Timing { slot_ns, sent_ns, answered_ns: *answered_ns };
                let root = rec.record("e2e.request", slot_ns, *answered_ns, ROOT, resp.req_id);
                rec.record("loadgen.lag", slot_ns, sent_ns, root, resp.req_id);
                match resp.status {
                    Status::Ok => {
                        rung.latencies.push(ms(t.latency_ns()));
                        windows[inp.segment(i)].push(ms(t.latency_ns()));
                        Outcome::Acked { latency_ns: t.latency_ns() }
                    }
                    Status::Rejected => Outcome::Rejected(resp.reject.map_or(0, |r| r.code())),
                    Status::Error => Outcome::Error,
                }
            }
        };
        rung.tally.count(outcome, LIMIT_NS);
        total.count(outcome, LIMIT_NS);
    }
    let lateness: Vec<f64> = rungs.iter().flat_map(|r| r.lateness.iter().copied()).collect();
    let rung_s = inp.rung_s();
    let window_pct = |p: f64| windowed_percentile(windows.iter().map(Vec::as_slice), p);
    let p50 = window_pct(50.0).ok_or("too few acked requests in a segment for a p50")?;
    let p99 = window_pct(99.0).ok_or("too few acked requests in a segment for a p99")?;
    let lag_p99 = percentile(&lateness, 99.0).unwrap_or(0.0);
    let rung_pct = |r: usize, p: f64| percentile(&rungs[r].latencies, p).unwrap_or(f64::NAN);

    // Set-up: reopen the drained data directory (checkpoint read, shard
    // load, WAL open), several times.
    let mut reopen_s = Vec::new();
    let mut reopen_ok = true;
    for i in 0..REOPENS {
        let clock: Arc<dyn Clock> = Arc::new(WallClock(Instant::now()));
        let t0 = rec.now();
        let h = serve_seeded(config(&dir), "127.0.0.1:0", clock, &[])
            .map_err(|e| format!("reopen: {e}"))?;
        let t1 = rec.now();
        rec.record("durable.reopen", t0, t1, ROOT, i as u64);
        reopen_s.push((t1 - t0) as f64 / 1e9);
        let r = h.shutdown_and_join().map_err(|e| format!("reopen drain: {e}"))?;
        reopen_ok &= r.tree_digest == live.report.tree_digest;
    }

    let e2e = E2e {
        setup_s: median(&reopen_s).unwrap_or(0.0),
        total_s: live.total_s,
        ops_per_s: rungs[HIGH].tally.goodput(rung_s),
        p50_ms: p50,
        p99_ms: p99,
    };

    let (model_digest, wrong_gets) = model(&inp, &live)?;
    let gates = vec![
        Gate {
            name: "tree_digest",
            ok: model_digest == live.report.tree_digest,
            detail: format!(
                "server {:#018x} vs sequential model {model_digest:#018x}",
                live.report.tree_digest
            ),
        },
        Gate {
            name: "acked_gets",
            ok: wrong_gets == 0,
            detail: format!("{wrong_gets} acked gets disagree with the model"),
        },
        Gate {
            name: "reopen_recovers",
            ok: reopen_ok,
            detail: format!("{REOPENS} reopens of the drained data dir"),
        },
    ];

    // Live server counters per rung: over the rung's segments, the
    // difference of the snapshots taken when the segment began and when
    // the next one did.
    let per_rung = |r: usize| {
        let (mut batches, mut ops, mut checkpoints) = (0u64, 0u64, 0u64);
        for seg in (r..inp.segments).step_by(RUNGS.len()) {
            let (a, b) = (&live.snaps[seg].core, &live.snaps[seg + 1].core);
            batches += b.batches.saturating_sub(a.batches);
            ops += b.ops.saturating_sub(a.ops);
            checkpoints += b.persist.checkpoints.saturating_sub(a.persist.checkpoints);
        }
        (ops as f64 / batches.max(1) as f64, checkpoints as f64 * 1e3 / ops.max(1) as f64)
    };
    let last = &live.snaps[inp.segments];
    let failed_ratio = total.failed() as f64 / total.offered.max(1) as f64;
    let mut lines = vec![
        format!(
            "serve-durable: open loop (uniform), rungs {} QPS in turn for {:.1} s each, {} segments ({rung_s:.1} s per rung), {} requests, {PRELOAD} preloaded keys of {KEY_SPACE}, {} SOU thread(s), request budget {} ms",
            RUNGS.map(|(n, q)| format!("{n} {q}")).join(" / "),
            SEGMENT_NS as f64 / 1e9,
            inp.segments,
            total.offered,
            ServerConfig::default().threads,
            BUDGET_NS / 1_000_000
        ),
        format!(
            "acked {} (within 50 ms {}), rejected [overloaded, deadline, shed scan, shed read, draining] {:?}, errors {}, unanswered {}",
            total.acked, total.within_limit, total.rejected, total.errors, total.unanswered
        ),
        format!(
            "generator lateness p50 {:.3} ms, p99 {lag_p99:.3} ms, max {:.3} ms",
            percentile(&lateness, 50.0).unwrap_or(0.0),
            lateness.iter().copied().fold(0.0, f64::max)
        ),
        format!(
            "server: {} batches, {:.2} ops/batch, {} checkpoints, {} expired in queue",
            last.core.batches,
            last.core.ops as f64 / last.core.batches.max(1) as f64,
            last.core.persist.checkpoints,
            last.core.expired_in_queue
        ),
    ];
    for (r, (name, qps)) in RUNGS.iter().enumerate() {
        let t = &rungs[r].tally;
        let (ops_per_batch, ckpt_per_kop) = per_rung(r);
        lines.push(format!(
            "rung {name} ({qps} QPS): {} offered, {} acked ({} within 50 ms), {} failed; p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms, goodput {:.1} 1/s; lateness p99 {:.3} ms; {ops_per_batch:.2} ops/batch, {ckpt_per_kop:.3} checkpoints per 1000 ops",
            t.offered,
            t.acked,
            t.within_limit,
            t.failed(),
            rung_pct(r, 50.0),
            rung_pct(r, 99.0),
            rungs[r].latencies.iter().copied().fold(0.0, f64::max),
            t.goodput(rung_s),
            percentile(&rungs[r].lateness, 99.0).unwrap_or(f64::NAN),
        ));
    }
    for p in [50.0, 99.0] {
        let per: Vec<String> = windows
            .iter()
            .map(|w| percentile(w, p).map_or("-".into(), |v| format!("{v:.3}")))
            .collect();
        lines.push(format!("p{p} per segment (ms, median reported): {}", per.join(" ")));
    }
    lines.push(format!(
        "also as: p50_ms_low = {:.4} ms, p99_ms_low = {:.4} ms, p50_ms_mid = {:.4} ms, p99_ms_mid = {:.4} ms, p99_ms_high = {:.4} ms, goodput_high = {:.2} 1/s, failed_ratio = {failed_ratio:.6}",
        rung_pct(0, 50.0),
        rung_pct(0, 99.0),
        rung_pct(1, 50.0),
        rung_pct(1, 99.0),
        rung_pct(HIGH, 99.0),
        e2e.ops_per_s
    ));

    let mut layers = Vec::new();
    if rec.enabled() {
        let core = &last.core;
        let adm = &last.admission;
        let ops = core.ops.max(1) as f64;
        layers.extend([
            ("loadgen.lag_ms_p99", lag_p99),
            ("admission.rejected_overloaded", adm.overloaded as f64),
            ("admission.rejected_deadline", adm.deadline_exceeded as f64),
            ("admission.shed_scans", adm.shed_scans as f64),
            ("admission.shed_reads", adm.shed_reads as f64),
            ("admission.rejected_draining", adm.draining as f64),
            ("core.expired_in_queue", core.expired_in_queue as f64),
            ("wal.bytes_per_op", core.persist.wal_bytes as f64 / ops),
            ("durable.checkpoint_bytes_per_op", core.persist.checkpoint_bytes as f64 / ops),
            ("wire.frame_ns", wire_probe(&inp, rec)),
        ]);
        let probe = checkpoint_probe(&dir, rec)?;
        layers.extend(probe);
        let get = |name: &str| probe.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
        let mut submit_us = Vec::new();
        for (r, names) in RUNG_LAYERS.iter().enumerate() {
            let (ops_per_batch, ckpt_per_kop) = per_rung(r);
            let mean_batch = (ops_per_batch.round() as usize).max(1);
            let replay = replay_probe(&inp, mean_batch, rec)?;
            submit_us.extend(replay.submit_us);
            let values = [
                ops_per_batch,
                replay.flush_ms_p50,
                replay.flush_ms_p99,
                wal_probe(&inp, mean_batch, rec)?,
                ckpt_per_kop,
            ];
            layers.extend(names.iter().copied().zip(values));
            lines.push(format!(
                "p99 tail, rung {}: p99_ms {:.3} vs checkpoint {:.3} ms (write_checkpoint) + {:.3} ms (CttSession::tree merge), {ckpt_per_kop:.3} checkpoints per 1000 ops, flush p99 {:.3} ms at the live mean batch of {mean_batch} ops",
                RUNGS[r].0,
                rung_pct(r, 99.0),
                get("durable.checkpoint_ms"),
                get("ctt.tree_ms"),
                replay.flush_ms_p99
            ));
        }
        layers.push(("admission.submit_us_p50", percentile(&submit_us, 50.0).unwrap_or(0.0)));
        lines.push(format!("probes replay at most {PROBE_BATCHES} batches each"));
    }
    Ok(Phase { e2e, attempted: total.offered, failed: total.failed(), gates, lines, layers })
}

/// Request + response encode/decode per request, ns (median of 3).
fn wire_probe(inp: &Inputs, rec: &mut Recorder) -> f64 {
    let mut per = Vec::new();
    for i in 0..3 {
        let t0 = rec.now();
        for r in &inp.reqs {
            let req = decode_request(&encode_request(r)).ok();
            let resp = Response::ok(r.req_id, Some(r.key));
            std::hint::black_box((req, decode_response(&encode_response(&resp)).ok()));
        }
        let t1 = rec.now();
        rec.record("wire.codec", t0, t1, ROOT, i);
        per.push((t1 - t0) as f64 / inp.reqs.len().max(1) as f64);
    }
    median(&per).unwrap_or(0.0)
}

/// What one in-process replay measured.
struct Replay {
    submit_us: Vec<f64>,
    flush_ms_p50: f64,
    flush_ms_p99: f64,
}

/// An in-process server core fed the ladder's stream through
/// `ServerShared::submit`, flushed with `ServerCore::flush_now` after
/// every `mean_batch` requests.
fn replay_probe(inp: &Inputs, mean_batch: usize, rec: &mut Recorder) -> Result<Replay, String> {
    let dir = TempDir::new("replay")?;
    let clock: Arc<dyn Clock> = Arc::new(WallClock(Instant::now()));
    let shared = ServerShared::new(AdmissionConfig::default(), clock);
    let mut core = ServerCore::open(config(&dir), Arc::clone(&shared), &inp.preload)
        .map_err(|e| format!("ServerCore::open: {e}"))?;
    let (tx, rx) = mpsc::channel();
    let (mut submit_us, mut flush_ms) = (Vec::new(), Vec::new());
    for (b, chunk) in inp.reqs.chunks(mean_batch).take(PROBE_BATCHES).enumerate() {
        for r in chunk {
            let t0 = rec.now();
            let immediate = shared.submit(*r, &tx);
            let t1 = rec.now();
            rec.record("admission.submit", t0, t1, ROOT, r.req_id);
            submit_us.push((t1 - t0) as f64 / 1e3);
            if let Some(resp) = immediate {
                return Err(format!("replay request {} refused: {:?}", r.req_id, resp.reject));
            }
        }
        let t0 = rec.now();
        core.flush_now();
        let t1 = rec.now();
        rec.record("core.flush", t0, t1, ROOT, b as u64);
        flush_ms.push((t1 - t0) as f64 / 1e6);
        for resp in rx.try_iter() {
            if resp.status != Status::Ok {
                return Err(format!("replay request {} failed: {:?}", resp.req_id, resp.status));
            }
        }
    }
    Ok(Replay {
        flush_ms_p50: percentile(&flush_ms, 50.0).unwrap_or(0.0),
        flush_ms_p99: percentile(&flush_ms, 99.0).unwrap_or(0.0),
        submit_us,
    })
}

/// `WalWriter::append_batch` + fsynced `commit` per batch, µs (median).
fn wal_probe(inp: &Inputs, mean_batch: usize, rec: &mut Recorder) -> Result<f64, String> {
    let dir = TempDir::new("wal")?;
    let batch = u32::try_from(mean_batch).map_err(|_| "batch too large")?;
    let mut w =
        WalWriter::create(&dir.0.join("probe.wal"), batch).map_err(|e| format!("wal: {e}"))?;
    let mut crash = CrashInjector::counting();
    let mut us = Vec::new();
    for (seq, chunk) in inp.reqs.chunks(mean_batch).take(PROBE_BATCHES).enumerate() {
        let ops: Vec<Op> = chunk.iter().map(op_of).collect();
        let payload = encode_ops(&ops);
        let t0 = rec.now();
        w.append_batch(seq as u64, &payload, &mut crash).map_err(|e| format!("append: {e}"))?;
        w.commit(seq as u64, 0, ops.len() as u32, true, &mut crash)
            .map_err(|e| format!("commit: {e}"))?;
        let t1 = rec.now();
        rec.record("wal.commit", t0, t1, ROOT, seq as u64);
        us.push((t1 - t0) as f64 / 1e3);
    }
    median(&us).ok_or_else(|| "no WAL samples".into())
}

/// Checkpoint read/write of the drained tree, and the executor's load and
/// merge of it (`CttSession::from_pairs` / `tree`).
fn checkpoint_probe(dir: &TempDir, rec: &mut Recorder) -> Result<[(&'static str, f64); 4], String> {
    let mut read_s = Vec::new();
    let mut state = None;
    for i in 0..3 {
        let t0 = rec.now();
        let s = read_checkpoint(&dir.0).map_err(|e| format!("read_checkpoint: {e}"))?;
        let t1 = rec.now();
        rec.record("durable.read_checkpoint", t0, t1, ROOT, i);
        read_s.push((t1 - t0) as f64 / 1e9);
        state = s;
    }
    let (seq, digest, tree) = state.ok_or("drained data dir holds no checkpoint")?;

    let out = TempDir::new("ckpt")?;
    let mut crash = CrashInjector::counting();
    let mut persist = PersistStats::default();
    let mut write_ms = Vec::new();
    for i in 0..5 {
        let t0 = rec.now();
        write_checkpoint(&out.0, seq, digest, &tree, &mut crash, &mut persist)
            .map_err(|e| format!("write_checkpoint: {e}"))?;
        let t1 = rec.now();
        rec.record("durable.write_checkpoint", t0, t1, ROOT, i);
        write_ms.push((t1 - t0) as f64 / 1e6);
    }

    let pairs: Vec<(Key, u64)> = tree.iter().map(|(k, &v)| (k.clone(), v)).collect();
    let cfg = ServerConfig::default();
    let opts = ExecOpts { threads: cfg.threads, mode: TraverseMode::LevelWise, steal: cfg.steal };
    let mut load_s = Vec::new();
    let mut session = None;
    for i in 0..3 {
        let t0 = rec.now();
        let s = CttSession::from_pairs(&pairs, &cfg.dcart, &opts, cfg.batch_size, digest)
            .map_err(|e| format!("from_pairs: {e}"))?;
        let t1 = rec.now();
        rec.record("ctt.load", t0, t1, ROOT, i);
        load_s.push((t1 - t0) as f64 / 1e9);
        session = Some(s);
    }
    let session = session.ok_or("no session")?;
    let mut tree_ms = Vec::new();
    for i in 0..5 {
        let t0 = rec.now();
        let t = session.tree().map_err(|e| format!("tree: {e}"))?;
        let t1 = rec.now();
        std::hint::black_box(t);
        rec.record("ctt.tree", t0, t1, ROOT, i);
        tree_ms.push((t1 - t0) as f64 / 1e6);
    }
    Ok([
        ("durable.recover_s", median(&read_s).unwrap_or(0.0)),
        ("durable.checkpoint_ms", median(&write_ms).unwrap_or(0.0)),
        ("ctt.load_s", median(&load_s).unwrap_or(0.0)),
        ("ctt.tree_ms", median(&tree_ms).unwrap_or(0.0)),
    ])
}
