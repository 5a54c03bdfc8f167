//! DCART benchmark: one command, three workloads, end-to-end metrics on
//! every run and per-layer metrics on a traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload exec-ipgeo-1m --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Inputs are generated from `--seed` before any timing. Every run checks
//! the program's outputs (see the workload modules) and exits non-zero on
//! a mismatch. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! are the human-readable record (environment, per-workload detail).
//! See `perfbench/README.md` for the metric → layer → workload table.

mod exec;
mod expected;
mod serve;
mod sim;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use trace::Recorder;

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["exec-ipgeo-1m", "serve-durable", "sim-fig9"];

/// Seed of every workload's data set. Key sets stand in for the paper's
/// fixed real data sets, so they stay the same on every run; `--seed`
/// drives what varies between runs: the operation streams and arrivals.
pub const DATA_SEED: u64 = 42;

/// Where spans and scratch data directories go, relative to the checkout.
const OUT_DIR: &str = ".bench_build/perfbench";

/// End-to-end metrics every workload measures. The first
/// [`E2e::BOUNDED`] are the bounded metrics of an untraced run (`--trace
/// 0`); the latencies follow them into the traced run's metrics as
/// `latency.*`. On a shared 2-vCPU host a contended stretch raised them by
/// 50–100% (throughput moved 10–30%), more than a 0.25 bound can hold.
#[derive(Clone, Copy, Debug, Default)]
pub struct E2e {
    /// Time to make the index ready from its inputs (median of several).
    pub setup_s: f64,
    /// One complete pass of the workload's work (median of passes).
    pub total_s: f64,
    /// Useful operations completed per second.
    pub ops_per_s: f64,
    /// Median latency of one unit of work.
    pub p50_ms: f64,
    /// 99th-percentile latency of one unit of work.
    pub p99_ms: f64,
}

impl E2e {
    const NAMES: [(&'static str, &'static str); 5] = [
        ("setup_s", "s"),
        ("total_s", "s"),
        ("ops_per_s", "1/s"),
        ("p50_ms", "ms"),
        ("p99_ms", "ms"),
    ];
    const BOUNDED: usize = 3;

    fn values(&self) -> [f64; 5] {
        [self.setup_s, self.total_s, self.ops_per_s, self.p50_ms, self.p99_ms]
    }
}

/// Per-layer metrics of the traced run (`--trace 1`), with units. A
/// workload reports 0 for a layer it does not drive, and names those
/// layers in its human-readable output.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("art.load_s", "s"),
    ("art.exec_mops", "Mops/s"),
    ("art.memory_bytes", "bytes"),
    ("ctt.vs_art", "ratio"),
    ("ctt.load_s", "s"),
    ("ctt.batch_ms_p50", "ms"),
    ("ctt.batch_ms_p99", "ms"),
    ("ctt.parallel_s", "s"),
    ("ctt.replay_s", "s"),
    ("ctt.finish_s", "s"),
    ("ctt.tree_ms", "ms"),
    ("ctt.shortcut_hit_ratio", "ratio"),
    ("ctt.nodes_per_advance", "ratio"),
    ("ctt.lock_groups_per_op", "ratio"),
    ("pool.speedup_2t", "ratio"),
    ("wire.frame_ns", "ns"),
    ("admission.submit_us_p50", "us"),
    ("admission.rejected_overloaded", "count"),
    ("admission.rejected_deadline", "count"),
    ("admission.shed_scans", "count"),
    ("admission.shed_reads", "count"),
    ("admission.rejected_draining", "count"),
    ("core.ops_per_batch.low", "ops"),
    ("core.ops_per_batch.mid", "ops"),
    ("core.ops_per_batch.high", "ops"),
    ("core.flush_ms_p50.low", "ms"),
    ("core.flush_ms_p50.mid", "ms"),
    ("core.flush_ms_p50.high", "ms"),
    ("core.flush_ms_p99.low", "ms"),
    ("core.flush_ms_p99.mid", "ms"),
    ("core.flush_ms_p99.high", "ms"),
    ("core.expired_in_queue", "count"),
    ("wal.commit_us_p50.low", "us"),
    ("wal.commit_us_p50.mid", "us"),
    ("wal.commit_us_p50.high", "us"),
    ("wal.bytes_per_op", "bytes"),
    ("durable.checkpoint_ms", "ms"),
    ("durable.checkpoints_per_kop.low", "1/kop"),
    ("durable.checkpoints_per_kop.mid", "1/kop"),
    ("durable.checkpoints_per_kop.high", "1/kop"),
    ("durable.checkpoint_bytes_per_op", "bytes"),
    ("durable.recover_s", "s"),
    ("sim.dcart_s", "s"),
    ("sim.dcart_c_s", "s"),
    ("sim.art_s", "s"),
    ("sim.smart_s", "s"),
    ("sim.cuart_s", "s"),
    ("sim.exec_share", "ratio"),
    ("sim.ns_per_event", "ns"),
    ("loadgen.lag_ms_p99", "ms"),
    ("latency.p50_ms", "ms"),
    ("latency.p99_ms", "ms"),
    ("self.art_s", "s"),
    ("self.ctt_s", "s"),
    ("self.wire_s", "s"),
    ("self.admission_s", "s"),
    ("self.core_s", "s"),
    ("self.wal_s", "s"),
    ("self.durable_s", "s"),
    ("self.sim_s", "s"),
    ("self.loadgen_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead.setup_s", "s"),
    ("trace.overhead.total_s", "s"),
    ("trace.overhead.ops_per_s", "1/s"),
    ("trace.overhead.p50_ms", "ms"),
    ("trace.overhead.p99_ms", "ms"),
];

/// One correctness gate's verdict.
pub struct Gate {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// What one measurement phase of a workload produced.
pub struct Phase {
    pub e2e: E2e,
    pub attempted: u64,
    pub failed: u64,
    pub gates: Vec<Gate>,
    /// Human-readable detail lines.
    pub lines: Vec<String>,
    /// Per-layer metrics the phase measured (traced phase only).
    pub layers: Vec<(&'static str, f64)>,
}

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

/// The directory for spans and scratch data, created on demand.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A scratch directory removed when dropped, also on early return.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Result<TempDir, String> {
        let dir = out_dir()?.join(format!("data-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// FNV-1a over the sorted sources under `crates/` and `perfbench/`: the
/// code a result was measured on, also in a checkout without git.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            if name == "target" || name.to_string_lossy().starts_with('.') {
                continue;
            }
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    walk(std::path::Path::new("perfbench"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

/// The git commit when the checkout has one (read from `.git`, no
/// subprocess).
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    if let Some(r) = head.strip_prefix("ref: ") {
        if let Ok(id) = std::fs::read_to_string(format!(".git/{r}")) {
            return id.trim().to_string();
        }
    } else if !head.is_empty() {
        return head.to_string();
    }
    "none (not a git checkout)".to_string()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn run_phase(args: &Args, rec: &mut Recorder) -> Result<Phase, String> {
    match args.workload.as_str() {
        "exec-ipgeo-1m" => exec::run(&exec::IPGEO_1M, args, rec),
        "serve-durable" => serve::run(args, rec),
        "sim-fig9" => sim::run(args, rec),
        other => Err(format!("unknown workload {other}")),
    }
}

/// `record <workload> <first> <last>`: prints the `expected.rs` table rows
/// for a seed range (one untimed pass per seed).
fn record(argv: &[String]) -> Result<(), String> {
    let [workload, first, last] = argv else {
        return Err("usage: perfbench record <exec-ipgeo-1m|sim-fig9> <first> <last>".into());
    };
    let num = |s: &String| s.parse::<u64>().map_err(|_| format!("not a number: {s}"));
    for seed in num(first)?..=num(last)? {
        let digest = match workload.as_str() {
            "exec-ipgeo-1m" => exec::record(&exec::IPGEO_1M, seed)?,
            "sim-fig9" => sim::record(seed),
            other => return Err(format!("nothing recorded for {other}")),
        };
        println!("    ({seed}, {digest:#018x}),");
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "record") {
        return match record(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <1..60> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "env: {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"cpu\":\"{}\",\"commit\":\"{}\",\"source\":\"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_escape(&cpu_model()),
        json_escape(&commit()),
        source_digest()
    );

    // The untraced phase gives the end-to-end metrics; a traced run adds
    // a second, traced phase whose difference is the tracing overhead.
    let mut untraced_rec = Recorder::new(false);
    let untraced = match run_phase(&args, &mut untraced_rec) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut phases = vec![("untraced", &untraced)];
    let mut rec = Recorder::new(true);
    let traced = if args.trace {
        match run_phase(&args, &mut rec) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    if let Some(t) = &traced {
        phases.push(("traced", t));
    }

    let mut correct = true;
    for (label, phase) in &phases {
        for line in &phase.lines {
            println!("{label}: {line}");
        }
        for g in &phase.gates {
            println!(
                "{label}: gate {} {}: {}",
                g.name,
                if g.ok { "ok" } else { "FAILED" },
                g.detail
            );
            correct &= g.ok;
        }
        let share = phase.failed as f64 / phase.attempted.max(1) as f64;
        println!(
            "{label}: attempted {} failed {} (failed share {share:.6})",
            phase.attempted, phase.failed
        );
        for ((name, unit), v) in E2e::NAMES.iter().zip(phase.e2e.values()) {
            println!("{label}: {name} = {v:.6} {unit}");
        }
    }

    let mut metrics = String::new();
    match &traced {
        None => {
            let bounded = E2e::NAMES.iter().zip(untraced.e2e.values()).take(E2e::BOUNDED);
            for ((name, unit), v) in bounded {
                let _ = write!(metrics, "\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}},");
            }
        }
        Some(t) => {
            let mut values: std::collections::BTreeMap<String, f64> =
                t.layers.iter().map(|&(n, v)| (n.to_string(), v)).collect();
            for (layer, s) in trace::self_times(rec.spans()) {
                let key = match layer {
                    "e2e" => "trace.unattributed_s".to_string(),
                    l => format!("self.{l}_s"),
                };
                values.insert(key, s);
            }
            for (i, (name, _)) in E2e::NAMES.iter().enumerate() {
                let over = t.e2e.values()[i] - untraced.e2e.values()[i];
                values.insert(format!("trace.overhead.{name}"), over);
                if i >= E2e::BOUNDED {
                    values.insert(format!("latency.{name}"), untraced.e2e.values()[i]);
                }
            }
            let mut missing = Vec::new();
            for (name, unit) in PER_LAYER {
                let v = values.get(*name).copied().unwrap_or_else(|| {
                    missing.push(*name);
                    0.0
                });
                println!("layer: {name} = {v:.6} {unit}");
                let _ = write!(metrics, "\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}},");
            }
            println!(
                "layer: not driven by {} (reported as 0): {}",
                args.workload,
                missing.join(" ")
            );
            let path = match out_dir() {
                Ok(d) => d.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed)),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = std::fs::write(&path, rec.to_json_lines()) {
                eprintln!("perfbench: write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("layer: {} spans written to {}", rec.spans().len(), path.display());
        }
    }
    metrics.pop();
    let (attempted, failed) = match &traced {
        Some(t) => (untraced.attempted + t.attempted, untraced.failed + t.failed),
        None => (untraced.attempted, untraced.failed),
    };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
        attempted.max(1)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
