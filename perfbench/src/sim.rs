//! `sim-fig9`: the paper's Fig. 9 cell through the timing models — 100k
//! IPGEO keys, 1M ops of mix C, 65,536 in flight, `IndexEngine::run` for
//! ART, SMART, CuART, DCART-C and DCART.
//!
//! One pass = set up the five engines + run each once. Simulated results
//! are deterministic; only host time is measured.
//!
//! Gates: DCART's speedups over ART, SMART and CuART sit inside the
//! widened Fig. 9 bands; every `RunReport` repeats exactly in every pass
//! and matches the digest recorded for the seed (where one is recorded).

use std::hint::black_box;
use std::time::Instant;

use dcart::{
    fold_digest, CttConsumer, CttSession, DcartAccel, DcartConfig, DcartSoftware, ExecOpts,
};
use dcart_baselines::{
    CpuBaseline, CpuConfig, CuArt, GpuConfig, IndexEngine, RunConfig, RunReport,
};
use dcart_workloads::{generate_ops, KeySet, Mix, Op, OpStreamConfig, Workload};

use crate::stats::median;
use crate::trace::{Recorder, ROOT};
use crate::{expected, Args, E2e, Gate, Phase};

const KEYS: usize = 100_000;
const OPS: usize = 1_000_000;
const CONCURRENCY: usize = 65_536;
const MIN_PASSES: usize = 3;
/// Extra engine set-ups per run, so `setup_s` is a median of many.
const SETUP_REPS: usize = 100;

/// Engine names in run order, with their span names.
const ENGINES: [(&str, &str); 5] = [
    ("ART", "sim.art"),
    ("SMART", "sim.smart"),
    ("CuART", "sim.cuart"),
    ("DCART-C", "sim.dcart_c"),
    ("DCART", "sim.dcart"),
];

/// Fig. 9 speedup bands of DCART over (ART, SMART, CuART), as
/// `tests/paper_bands.rs` checks them: the paper's range widened by 20%.
const BANDS: [(&str, f64, f64); 3] =
    [("ART", 123.8, 151.7), ("SMART", 35.9, 44.2), ("CuART", 21.1, 31.2)];

/// The engines of the cell, configured as the `repro` matrix builds them.
fn engines(keys: &KeySet) -> Vec<Box<dyn IndexEngine>> {
    let n = keys.len();
    let cpu = CpuConfig::xeon_8468().scaled_for_keys(n);
    let cfg = DcartConfig::default().scaled_for_keys(n).with_auto_prefix_skip(keys);
    vec![
        Box::new(CpuBaseline::art(cpu)),
        Box::new(CpuBaseline::smart(cpu)),
        Box::new(CuArt::new(GpuConfig::a100().scaled_for_keys(n))),
        Box::new(DcartSoftware::new(cfg, cpu)),
        Box::new(DcartAccel::new(cfg)),
    ]
}

/// Digest of every counter and modelled figure of one report.
fn report_digest(r: &RunReport) -> u64 {
    let c = &r.counters;
    let ints = [
        c.ops,
        c.reads,
        c.writes,
        c.nodes_traversed,
        c.redundant_node_visits,
        c.partial_key_matches,
        c.lock_acquisitions,
        c.lock_contentions,
        c.offchip_bytes,
        c.offchip_accesses,
        c.useful_bytes,
        c.fetched_bytes,
        c.shortcut_hits,
        c.shortcut_misses,
        c.cache_hits,
        c.cache_misses,
    ];
    let b = &r.breakdown;
    let floats = [
        r.time_s,
        r.energy_j,
        r.latency_mean_us,
        r.latency_p99_us,
        b.traversal_s,
        b.sync_s,
        b.combine_s,
        b.other_s,
    ];
    let mut h = 0u64;
    for x in ints.into_iter().chain(floats.iter().map(|f| f.to_bits())) {
        h = fold_digest(h, x);
    }
    h
}

struct Pass {
    setup_s: f64,
    run_s: [f64; 5],
    total_s: f64,
    reports: Vec<RunReport>,
}

fn pass(keys: &KeySet, ops: &[Op], rec: &mut Recorder, id: u64) -> Pass {
    let t0 = rec.now();
    let mut list = engines(keys);
    let t_setup = rec.now();
    let mut run_s = [0.0; 5];
    let mut reports = Vec::with_capacity(5);
    let mut spans = Vec::with_capacity(5);
    for (i, e) in list.iter_mut().enumerate() {
        let a = rec.now();
        let r = e.run(keys, ops, &RunConfig { concurrency: CONCURRENCY });
        let b = rec.now();
        run_s[i] = (b - a) as f64 / 1e9;
        spans.push((a, b));
        reports.push(r);
    }
    let t_end = rec.now();
    let root = rec.record("e2e.pass", t0, t_end, ROOT, id);
    rec.record("sim.setup", t0, t_setup, root, id);
    for (&(a, b), (_, span)) in spans.iter().zip(ENGINES) {
        rec.record(span, a, b, root, id);
    }
    Pass {
        setup_s: (t_setup - t0) as f64 / 1e9,
        run_s,
        total_s: (t_end - t0) as f64 / 1e9,
        reports,
    }
}

struct Sink;
impl CttConsumer for Sink {}

/// The executor alone on the cell's stream: the DCART engine's functional
/// work without its timing models.
fn executor_only(keys: &KeySet, ops: &[Op], rec: &mut Recorder) -> Result<f64, String> {
    let cfg = DcartConfig::default().scaled_for_keys(keys.len()).with_auto_prefix_skip(keys);
    let pairs: Vec<_> = keys.keys.iter().enumerate().map(|(i, k)| (k.clone(), i as u64)).collect();
    let t0 = rec.now();
    let mut s = CttSession::from_pairs(&pairs, &cfg, &ExecOpts::default(), CONCURRENCY, 0)
        .map_err(|e| format!("from_pairs: {e}"))?;
    for batch in ops.chunks(CONCURRENCY) {
        s.execute_batch(batch, &mut Sink).map_err(|e| format!("execute_batch: {e}"))?;
    }
    black_box(s.finish().map_err(|e| format!("finish: {e}"))?);
    let t1 = rec.now();
    rec.record("ctt.sim_stream", t0, t1, ROOT, 0);
    Ok((t1 - t0) as f64 / 1e9)
}

fn inputs(seed: u64) -> (KeySet, Vec<Op>) {
    let keys = Workload::Ipgeo.generate(KEYS, crate::DATA_SEED);
    let ops = generate_ops(&keys, &OpStreamConfig { count: OPS, mix: Mix::C, theta: 0.99, seed });
    (keys, ops)
}

/// Digest of the five reports of the cell.
fn reports_digest(reports: &[RunReport]) -> u64 {
    reports.iter().map(report_digest).fold(0u64, fold_digest)
}

/// The reports digest of one pass over the stream of `seed`, for the table
/// in `expected.rs`.
pub fn record(seed: u64) -> u64 {
    let (keys, ops) = inputs(seed);
    reports_digest(&pass(&keys, &ops, &mut Recorder::new(false), 0).reports)
}

pub fn run(args: &Args, rec: &mut Recorder) -> Result<Phase, String> {
    let (keys, ops) = inputs(args.seed);
    let mut lines = vec![format!(
        "sim-fig9: IPGEO {} keys, {} ops, mix C, theta 0.99, concurrency {CONCURRENCY}",
        keys.len(),
        ops.len()
    )];

    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs() < args.seconds {
        passes.push(pass(&keys, &ops, rec, passes.len() as u64));
    }

    let mut setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        black_box(engines(&keys));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let pick =
        |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    let runs: Vec<f64> = passes.iter().flat_map(|p| p.run_s).collect();
    let total_s = pick(&|p| p.total_s);
    let e2e = E2e {
        setup_s: median(&setups).unwrap_or(0.0),
        total_s,
        ops_per_s: (ENGINES.len() * OPS) as f64 / total_s,
        // Five runs per pass support no percentile above the median: the
        // tail is the slowest engine's run, which bounds the cell's wall
        // time when the engines run in parallel.
        p50_ms: median(&runs).unwrap_or(0.0) * 1e3,
        p99_ms: pick(&|p| p.run_s.iter().copied().fold(0.0, f64::max)) * 1e3,
    };
    lines.push(format!("{} passes; also as: sim_s = {total_s:.4} s", passes.len()));

    let first = &passes[0].reports;
    let digests: Vec<u64> = first.iter().map(report_digest).collect();
    let mut gates = Vec::new();
    let dcart = &first[4];
    for (name, lo, hi) in BANDS {
        let other = first.iter().find(|r| r.engine == name).ok_or("engine missing")?;
        let x = dcart.speedup_vs(other);
        gates.push(Gate {
            name: "fig9_band",
            ok: x >= lo * 0.8 && x <= hi * 1.2,
            detail: format!("DCART/{name} = {x:.2}x, band [{lo}, {hi}] widened 20%"),
        });
    }
    let repeat =
        passes.iter().all(|p| p.reports.iter().map(report_digest).eq(digests.iter().copied()));
    gates.push(Gate {
        name: "reports_repeat",
        ok: repeat,
        detail: format!("{} passes", passes.len()),
    });
    let all = reports_digest(first);
    gates.push(match expected::sim_reports(args.seed) {
        Some(want) => Gate {
            name: "reports_recorded",
            ok: all == want,
            detail: format!("{all:#018x} vs recorded {want:#018x} for seed {}", args.seed),
        },
        None => Gate {
            name: "reports_recorded",
            ok: true,
            detail: format!("{all:#018x}; no value recorded for seed {}", args.seed),
        },
    });
    let ops_ok = first.iter().all(|r| r.counters.ops == OPS as u64);
    gates.push(Gate { name: "ops_simulated", ok: ops_ok, detail: format!("{OPS} per engine") });

    let mut layers = Vec::new();
    if rec.enabled() {
        let per_engine = |i: usize| pick(&|p| p.run_s[i]);
        let exec_s = executor_only(&keys, &ops, rec)?;
        let events: u64 = first.iter().map(|r| r.counters.nodes_traversed).sum();
        layers.extend([
            ("sim.art_s", per_engine(0)),
            ("sim.smart_s", per_engine(1)),
            ("sim.cuart_s", per_engine(2)),
            ("sim.dcart_c_s", per_engine(3)),
            ("sim.dcart_s", per_engine(4)),
            ("sim.exec_share", exec_s / per_engine(4)),
            ("sim.ns_per_event", total_s * 1e9 / events as f64),
        ]);
    }
    Ok(Phase {
        e2e,
        attempted: (passes.len() * ENGINES.len()) as u64,
        failed: 0,
        gates,
        lines,
        layers,
    })
}
