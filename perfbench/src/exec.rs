//! `exec-*`: the CTT batch executor driven through `CttSession`, against
//! a plain per-op `Art` on the same op stream.
//!
//! One pass = `CttSession::from_pairs` + one `execute_batch` per 4096-op
//! slice + `finish`. After one untimed pass, passes repeat until the run
//! length is spent. Batch latency percentiles are taken per window of
//! consecutive passes holding at least 1000 batches (enough for a p99) and
//! reported as the median over windows.
//!
//! Gates: the CTT final tree digest equals the per-op `Art` final tree
//! digest; the answer digest is identical in every pass and equals the
//! value recorded for the seed (where one is recorded).

use std::hint::black_box;
use std::time::Instant;

use dcart::{tree_digest, BatchEvent, CttConsumer, CttSession, CttStats, DcartConfig, ExecOpts};
use dcart_art::{Art, Key};
use dcart_workloads::{generate_ops, KeySet, Mix, Op, OpKind, OpStreamConfig, Workload};

use crate::stats::{median, windowed_percentile};
use crate::trace::{Recorder, ROOT};
use crate::{expected, Args, E2e, Gate, Phase};

/// One executor workload.
pub struct Spec {
    pub name: &'static str,
    pub workload: Workload,
    pub keys: usize,
    pub ops: usize,
    pub mix: Mix,
    pub threads: usize,
}

/// 1M IPGEO keys (~65 MB tree, far beyond L2), 2M ops (500 batches) of
/// mix C, two SOU threads: load and final merge dominate, and the pool
/// pays.
pub const IPGEO_1M: Spec = Spec {
    name: "exec-ipgeo-1m",
    workload: Workload::Ipgeo,
    keys: 1_000_000,
    ops: 500 * BATCH,
    mix: Mix::C,
    threads: 2,
};

const BATCH: usize = 4096;
const MIN_PASSES: usize = 3;

/// Batch samples in one percentile window, so its p99 has ten samples
/// beyond it.
const MIN_BATCHES: usize = 1000;

/// `setup_s` samples a run aims for: one load per pass, topped up with
/// standalone loads while they have cost under [`SETUP_TOPUP_S`].
const SETUP_SAMPLES: usize = 61;
const SETUP_TOPUP_S: f64 = 0.5;

struct Inputs {
    keys: KeySet,
    ops: Vec<Op>,
    pairs: Vec<(Key, u64)>,
    config: DcartConfig,
}

fn inputs(spec: &Spec, seed: u64) -> Inputs {
    let keys = spec.workload.generate(spec.keys, crate::DATA_SEED);
    let ops =
        generate_ops(&keys, &OpStreamConfig { count: spec.ops, mix: spec.mix, theta: 0.99, seed });
    // The same (key, rank) pairs `Art::load_indexed` assigns.
    let pairs = keys.keys.iter().enumerate().map(|(i, k)| (k.clone(), i as u64)).collect();
    let config = DcartConfig::default().scaled_for_keys(keys.len()).with_auto_prefix_skip(&keys);
    Inputs { keys, ops, pairs, config }
}

/// Untraced sink: every hook is the default no-op.
struct Sink;
impl CttConsumer for Sink {}

/// Traced sink: when the executor reached the replay and finished it.
struct StageClock {
    start: Option<Instant>,
    end: Option<Instant>,
}

impl CttConsumer for StageClock {
    fn batch_start(&mut self, _ev: &BatchEvent<'_>) {
        self.start = Some(Instant::now());
    }
    fn batch_end(&mut self, _index: usize) {
        self.end = Some(Instant::now());
    }
}

struct Pass {
    load_s: f64,
    exec_s: f64,
    finish_s: f64,
    total_s: f64,
    parallel_s: f64,
    replay_s: f64,
    batch_s: Vec<f64>,
    stats: CttStats,
    tree_digest: Option<u64>,
}

fn secs(a: u64, b: u64) -> f64 {
    b.saturating_sub(a) as f64 / 1e9
}

fn pass(
    inp: &Inputs,
    threads: usize,
    rec: &mut Recorder,
    id: u64,
    digest: bool,
) -> Result<Pass, String> {
    let opts = ExecOpts { threads, ..Default::default() };
    let traced = rec.enabled();
    let mut clock = StageClock { start: None, end: None };
    let mut batch_spans = Vec::new();
    let t0 = rec.now();
    let mut session = CttSession::from_pairs(&inp.pairs, &inp.config, &opts, BATCH, 0)
        .map_err(|e| format!("from_pairs: {e}"))?;
    let t_loaded = rec.now();
    let mut batch_s = Vec::with_capacity(inp.ops.len() / BATCH + 1);
    let (mut parallel_s, mut replay_s) = (0.0, 0.0);
    for batch in inp.ops.chunks(BATCH) {
        let b0 = rec.now();
        let r = if traced {
            session.execute_batch(batch, &mut clock)
        } else {
            session.execute_batch(batch, &mut Sink)
        };
        let b1 = rec.now();
        r.map_err(|e| format!("execute_batch: {e}"))?;
        batch_s.push(secs(b0, b1));
        if traced {
            let (s, e) = match (clock.start.take(), clock.end.take()) {
                (Some(s), Some(e)) => (rec.at(s), rec.at(e)),
                _ => return Err("executor skipped the batch_start/batch_end hooks".into()),
            };
            parallel_s += secs(b0, s);
            replay_s += secs(s, e);
            batch_spans.push((b0, s, e, b1));
        }
    }
    let t_exec = rec.now();
    let (art, stats, _load) = session.finish().map_err(|e| format!("finish: {e}"))?;
    let t_end = rec.now();
    let tree_digest = digest.then(|| tree_digest(&art));
    drop(black_box(art));

    if traced {
        let root = rec.record("e2e.pass", t0, t_end, ROOT, id);
        rec.record("ctt.load", t0, t_loaded, root, id);
        for (i, &(b0, s, e, b1)) in batch_spans.iter().enumerate() {
            let span = rec.record("ctt.execute", b0, b1, root, i as u64);
            rec.record("ctt.parallel", b0, s, span, i as u64);
            rec.record("ctt.replay", s, e, span, i as u64);
        }
        rec.record("ctt.finish", t_exec, t_end, root, id);
    }
    Ok(Pass {
        load_s: secs(t0, t_loaded),
        exec_s: batch_s.iter().sum(),
        finish_s: secs(t_exec, t_end),
        total_s: secs(t0, t_end),
        parallel_s,
        replay_s,
        batch_s,
        stats,
        tree_digest,
    })
}

/// Batch times of consecutive passes, grouped into windows of at least
/// [`MIN_BATCHES`] samples; a shorter tail joins the last window.
fn batch_windows(passes: &[Pass]) -> Vec<Vec<f64>> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let mut current = Vec::new();
    for p in passes {
        current.extend_from_slice(&p.batch_s);
        if current.len() >= MIN_BATCHES {
            windows.push(std::mem::take(&mut current));
        }
    }
    match windows.last_mut() {
        Some(last) => last.extend(current),
        None => windows.push(current),
    }
    windows
}

/// The per-op reference: bulk load, then every op in stream order.
struct ArtRun {
    load_s: f64,
    exec_s: f64,
    memory_bytes: u64,
    tree_digest: u64,
}

fn art_run(inp: &Inputs, rec: &mut Recorder) -> Result<ArtRun, String> {
    let t0 = rec.now();
    let mut art: Art<u64> = Art::new();
    art.load_indexed(&inp.keys.keys).map_err(|e| format!("Art::load_indexed: {e}"))?;
    let t1 = rec.now();
    for op in &inp.ops {
        match op.kind {
            OpKind::Read => {
                black_box(art.get(&op.key));
            }
            OpKind::Update | OpKind::Insert => {
                art.insert(op.key.clone(), op.value).map_err(|e| format!("Art::insert: {e}"))?;
            }
            OpKind::Remove => {
                black_box(art.remove(&op.key));
            }
            OpKind::Scan => {
                let n = art.range(op.key.as_bytes(), None).take(op.value as usize).count();
                black_box(n);
            }
        }
    }
    let t2 = rec.now();
    let root = rec.record("art.reference", t0, t2, ROOT, 0);
    rec.record("art.load", t0, t1, root, 0);
    Ok(ArtRun {
        load_s: secs(t0, t1),
        exec_s: secs(t1, t2),
        memory_bytes: art.memory_footprint(),
        tree_digest: tree_digest(&art),
    })
}

/// `CttSession::tree` (the checkpoint merge) on a freshly loaded session.
fn tree_ms(inp: &Inputs, threads: usize, rec: &mut Recorder) -> Result<f64, String> {
    let opts = ExecOpts { threads, ..Default::default() };
    let session = CttSession::from_pairs(&inp.pairs, &inp.config, &opts, BATCH, 0)
        .map_err(|e| format!("from_pairs: {e}"))?;
    let reps = if inp.pairs.len() > 100_000 { 1 } else { 5 };
    let mut ms = Vec::new();
    for i in 0..reps {
        let t0 = rec.now();
        let tree = session.tree().map_err(|e| format!("tree: {e}"))?;
        let t1 = rec.now();
        drop(black_box(tree));
        rec.record("ctt.tree", t0, t1, ROOT, i);
        ms.push(secs(t0, t1) * 1e3);
    }
    median(&ms).ok_or_else(|| "no tree samples".into())
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The answer digest of one pass over the stream of `seed`, for the table
/// in `expected.rs`.
pub fn record(spec: &Spec, seed: u64) -> Result<u64, String> {
    let inp = inputs(spec, seed);
    Ok(pass(&inp, spec.threads, &mut Recorder::new(false), 0, false)?.stats.answer_digest)
}

pub fn run(spec: &Spec, args: &Args, rec: &mut Recorder) -> Result<Phase, String> {
    let inp = inputs(spec, args.seed);
    let mut lines = vec![format!(
        "{}: {} {} keys, {} ops, mix r={} scans={} theta=0.99, batch {BATCH}, {} thread(s)",
        spec.name,
        spec.workload,
        inp.keys.len(),
        inp.ops.len(),
        spec.mix.read_fraction,
        spec.mix.scan_fraction_of_reads,
        spec.threads
    )];

    // An untimed first pass: it pays the page faults of the tree's first
    // allocation (later passes reuse the freed memory) and keeps the final
    // tree's digest for the gate.
    let warmup = pass(&inp, spec.threads, &mut Recorder::new(false), 0, true)?;
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES
        || start.elapsed().as_secs() < args.seconds
        || passes.iter().map(|p: &Pass| p.batch_s.len()).sum::<usize>() < MIN_BATCHES
    {
        passes.push(pass(&inp, spec.threads, rec, passes.len() as u64, false)?);
    }

    let mut loads: Vec<f64> = passes.iter().map(|p| p.load_s).collect();
    let topup = Instant::now();
    let opts = ExecOpts { threads: spec.threads, ..Default::default() };
    while loads.len() < SETUP_SAMPLES && topup.elapsed().as_secs_f64() < SETUP_TOPUP_S {
        let t0 = Instant::now();
        let session = CttSession::from_pairs(&inp.pairs, &inp.config, &opts, BATCH, 0)
            .map_err(|e| format!("from_pairs: {e}"))?;
        loads.push(t0.elapsed().as_secs_f64());
        drop(black_box(session));
    }

    let windows = batch_windows(&passes);
    let batch_samples: usize = windows.iter().map(Vec::len).sum();
    let pick =
        |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    let ops_total = (inp.ops.len() * passes.len()) as u64;
    let per_pass_ops = inp.ops.len() as f64;
    let window_pct = |p: f64| windowed_percentile(windows.iter().map(Vec::as_slice), p);
    let p50 = window_pct(50.0).ok_or("too few batches for a p50")?;
    let p99 = window_pct(99.0).ok_or("too few batches for a p99")?;
    let e2e = E2e {
        setup_s: median(&loads).unwrap_or(0.0),
        total_s: pick(|p| p.total_s),
        ops_per_s: median(&passes.iter().map(|p| per_pass_ops / p.exec_s).collect::<Vec<_>>())
            .unwrap_or(0.0),
        p50_ms: p50 * 1e3,
        p99_ms: p99 * 1e3,
    };
    lines.push(format!(
        "{} passes, {batch_samples} batch samples in {} windows; load {:.4} s (median of {}), per pass median: execute {:.4} s, finish {:.4} s",
        passes.len(),
        windows.len(),
        e2e.setup_s,
        loads.len(),
        pick(|p| p.exec_s),
        pick(|p| p.finish_s)
    ));
    lines.push(format!(
        "execute Mops/s per pass: {}",
        passes
            .iter()
            .map(|p| format!("{:.4}", per_pass_ops / p.exec_s / 1e6))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    lines.push(format!(
        "also as: exec_mops = {:.4} Mops/s, total_s = {:.4} s, setup_s = {:.4} s",
        e2e.ops_per_s / 1e6,
        e2e.total_s,
        e2e.setup_s
    ));

    // Correctness: the per-op reference tree, and the answer digest.
    let art = art_run(&inp, rec)?;
    let ctt_tree = warmup.tree_digest.ok_or("first pass kept no tree digest")?;
    let mut gates = vec![Gate {
        name: "tree_digest",
        ok: ctt_tree == art.tree_digest,
        detail: format!("CTT {ctt_tree:#018x} vs per-op Art {:#018x}", art.tree_digest),
    }];
    let answer = warmup.stats.answer_digest;
    let stable = passes.iter().all(|p| p.stats.answer_digest == answer);
    gates.push(Gate {
        name: "answer_digest_repeats",
        ok: stable,
        detail: format!("{answer:#018x} in all {} passes", passes.len() + 1),
    });
    gates.push(match expected::answer_digest(spec.name, args.seed) {
        Some(want) => Gate {
            name: "answer_digest_recorded",
            ok: answer == want,
            detail: format!("{answer:#018x} vs recorded {want:#018x} for seed {}", args.seed),
        },
        None => Gate {
            name: "answer_digest_recorded",
            ok: true,
            detail: format!("no value recorded for seed {}; checked pass-to-pass only", args.seed),
        },
    });
    let ops_ok =
        std::iter::once(&warmup).chain(&passes).all(|p| p.stats.ops == inp.ops.len() as u64);
    gates.push(Gate {
        name: "ops_executed",
        ok: ops_ok,
        detail: format!("{} ops per pass", inp.ops.len()),
    });

    let mut layers = Vec::new();
    if rec.enabled() {
        let stats = &passes[0].stats;
        let sc = &stats.shortcut;
        // Untraced, so the extra pass stays out of the e2e attribution.
        let other_threads = if spec.threads == 1 { 2 } else { 1 };
        let other = pass(&inp, other_threads, &mut Recorder::new(false), 0, false)?;
        let (t1, t2) = if spec.threads == 1 {
            (pick(|p| p.exec_s), other.exec_s)
        } else {
            (other.exec_s, pick(|p| p.exec_s))
        };
        let art_mops = inp.ops.len() as f64 / art.exec_s / 1e6;
        layers.extend([
            ("art.load_s", art.load_s),
            ("art.exec_mops", art_mops),
            ("art.memory_bytes", art.memory_bytes as f64),
            ("ctt.vs_art", e2e.ops_per_s / 1e6 / art_mops),
            ("ctt.load_s", e2e.setup_s),
            ("ctt.batch_ms_p50", p50 * 1e3),
            ("ctt.batch_ms_p99", p99 * 1e3),
            ("ctt.parallel_s", pick(|p| p.parallel_s)),
            ("ctt.replay_s", pick(|p| p.replay_s)),
            ("ctt.finish_s", pick(|p| p.finish_s)),
            ("ctt.tree_ms", tree_ms(&inp, spec.threads, rec)?),
            ("ctt.shortcut_hit_ratio", ratio(sc.hits, sc.hits + sc.misses)),
            ("ctt.nodes_per_advance", ratio(sc.nodes_visited, sc.ops_advanced)),
            ("ctt.lock_groups_per_op", ratio(stats.lock_groups, stats.ops)),
            ("pool.speedup_2t", t1 / t2),
        ]);
        lines.push(format!(
            "execute at 1 thread {t1:.4} s vs 2 threads {t2:.4} s; per-op Art {art_mops:.4} Mops/s"
        ));
    }

    Ok(Phase { e2e, attempted: ops_total, failed: 0, gates, lines, layers })
}
