//! `vexbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path vexbench/Cargo.toml -- \
//!     --workload collect|replay|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! A run generates its inputs from the seed, sets up (records a corpus,
//! renders reference reports from live profiles, starts an in-process
//! `vex serve`) several times and reports the median set-up time, then
//! measures for `--seconds`. Every workload runs all three phases —
//! `collect` (profiling at run time), `replay` (the offline CLI loop)
//! and `serve` (a closed-loop fleet collector) — and gives the phase it
//! is named after half of the measured time, so every end-to-end metric
//! is measured on every workload while each workload loads its own
//! layers hardest. Every op's output is checked; a mismatch is a failed
//! op and makes the run exit 1.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` records a span
//! around every call into a layer in every second round and prints the
//! per-layer metrics, the share of the traced rounds' wall time the spans
//! cover, and the tracing overhead: the traced rounds' median end-to-end
//! op time minus the untraced rounds', per input. Times are host
//! wall-clock times. The last line of standard output is the JSON
//! result.

mod collect;
mod fixture;
mod gen;
mod http;
mod layers;
mod replay;
mod serve;
mod session;
mod spans;
mod stats;

use fixture::Fixture;
use gen::Plan;
use serve::ENDPOINTS;
use session::Session;
use spans::{SpanLog, Tracer};
use stats::{median, percentile, PerInput};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: vexbench --workload collect|replay|serve --seed N --seconds S --trace 0|1";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Replays per corpus trace and pass behind the coarse/fine split in the
/// base counts.
const PASS_SPLIT_REPEATS: usize = 3;
/// Stands in for the latency of a failed request: over any limit.
const FAILED_MS: f64 = 1e12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Collect,
    Replay,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "collect" => Some(Workload::Collect),
            "replay" => Some(Workload::Replay),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    /// Shares of the measured time for the collect, replay and serve
    /// phases.
    fn shares(self) -> [f64; 3] {
        match self {
            Workload::Collect => [0.5, 0.25, 0.25],
            Workload::Replay => [0.25, 0.5, 0.25],
            Workload::Serve => [0.25, 0.25, 0.5],
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("invalid {flag} '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or_else(bad)?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The run's scratch directory inside the checkout, removed on exit.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = Path::new(".bench_tmp").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run uses the parent.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vexbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if std::env::var_os("VEX_FAILPOINTS").is_some() {
        eprintln!(
            "vexbench: refusing to run while VEX_FAILPOINTS is set (faults would be measured)"
        );
        return ExitCode::from(2);
    }
    let manifest = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|text| layers::check_manifest(&text));
    if let Err(e) = manifest {
        eprintln!("vexbench: BENCHMARK.json does not match the metric tables: {e}");
        return ExitCode::from(2);
    }
    let outcome = WorkDir::create().and_then(|work| run(&args, &work.0));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("vexbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Samples the process's resident set every few milliseconds.
struct RssSampler {
    stop: Arc<AtomicBool>,
    max_kb: Arc<AtomicU64>,
    thread: std::thread::JoinHandle<()>,
}

fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

impl RssSampler {
    fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let max_kb = Arc::new(AtomicU64::new(rss_kb()));
        let thread = {
            let (stop, max_kb) = (stop.clone(), max_kb.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    max_kb.fetch_max(rss_kb(), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        RssSampler { stop, max_kb, thread }
    }

    /// Peak resident set seen, MB.
    fn stop(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("RSS sampler panicked");
        self.max_kb.fetch_max(rss_kb(), Ordering::Relaxed);
        self.max_kb.load(Ordering::Relaxed) as f64 / 1024.0
    }
}

fn ms(secs: f64) -> f64 {
    if secs.is_finite() {
        secs * 1e3
    } else {
        FAILED_MS
    }
}

/// Metrics of one run, in output order, plus measurement problems.
#[derive(Default)]
struct Out {
    metrics: Vec<(&'static str, f64, &'static str)>,
    problems: Vec<String>,
}

impl Out {
    /// Records metric `name` with its unit from the metric tables.
    fn put(&mut self, name: &'static str, value: f64) {
        let unit = layers::END_TO_END
            .iter()
            .find(|m| m.0 == name)
            .map(|m| m.1)
            .or_else(|| layers::PER_LAYER.iter().find(|l| l.name == name).map(|l| l.unit))
            .unwrap_or_else(|| unreachable!("metric {name} is not in the metric tables"));
        self.metrics.push((name, value, unit));
    }

    /// `num / den`, flagging a rate that had nothing to measure.
    fn rate(&mut self, what: &str, num: f64, den: f64) -> f64 {
        if den > 0.0 && num > 0.0 {
            num / den
        } else {
            self.problems.push(format!("no {what} measured"));
            0.0
        }
    }

    fn json(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { FAILED_MS };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

/// Everything measured in one run.
struct Measured {
    session: Session,
    spans: SpanLog,
    /// Traced run: epoch-relative bounds of the traced slices.
    traced_slices: Vec<(f64, f64)>,
}

fn run(args: &Args, work: &Path) -> Result<bool, String> {
    let nproc = fixture::nproc();
    let plan = Plan::generate(args.seed, nproc);
    println!(
        "vexbench: workload={:?} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "host: nproc={nproc} build={}",
        if cfg!(debug_assertions) { "debug" } else { "release" }
    );
    println!(
        "inputs: fingerprint={} collect_ops={} corpus_traces={} replay_ops={} serve_ops={}x{}",
        plan.fingerprint(),
        plan.collect.len(),
        plan.corpus.len(),
        plan.replay.len(),
        plan.serve.len(),
        plan.serve.first().map_or(0, Vec::len)
    );

    let mut setups = Vec::new();
    let mut fx: Option<Fixture> = None;
    for k in 0..SETUP_REPEATS {
        if let Some(old) = fx.take() {
            let dir = old.serve_dir.parent().map(Path::to_path_buf);
            drop(old);
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        let t0 = Instant::now();
        fx = Some(Fixture::build(&plan, &work.join(format!("setup{k}")))?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let fx = fx.expect("at least one set-up");
    println!("setup: runs={SETUP_REPEATS} seconds={setups:?}");
    let split = replay::pass_split(&fx, PASS_SPLIT_REPEATS)?;

    let epoch = Instant::now();
    let rss = RssSampler::start();
    let shares = args.workload.shares();
    let mut tr = Tracer::new(false, epoch, 0);
    let session = Session::run(&fx, &plan, shares, args.seconds, args.trace, &mut tr, epoch)?;
    let mut m = Measured { traced_slices: Vec::new(), spans: SpanLog::default(), session };
    if args.trace {
        let start = epoch.elapsed().as_secs_f64();
        tr.set_enabled(true);
        probe(&fx, nproc, &mut tr);
        m.traced_slices =
            m.session.slices.iter().filter(|s| s.2).map(|&(a, b, _)| (a, b)).collect();
        m.traced_slices.push((start, epoch.elapsed().as_secs_f64()));
        for t in m.session.client_tracers.drain(..) {
            m.spans.add(t);
        }
    }
    let peak_rss_mb = rss.stop();
    m.spans.add(tr);

    let failures: Vec<&String> = m.session.failures().collect();
    let attempted = m.session.attempted();

    print_base_counts(&fx, &m, &setups, &split);
    let mut out = Out::default();
    if args.trace {
        per_layer(&fx, &m, &mut out);
        for (name, value, unit) in &out.metrics {
            let l = layers::PER_LAYER.iter().find(|l| l.name == *name).expect("listed metric");
            let moves = if l.moves.is_empty() {
                "reported only".to_owned()
            } else {
                format!("should move {} on {}", l.moves, l.on)
            };
            println!("layer: {name} = {value:.6} {unit} ({} is better; {moves})", l.better);
        }
        let path = Path::new(".bench_out")
            .join(format!("spans-{:?}-seed{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, m.spans.to_jsonl()));
        match written {
            Ok(()) => println!(
                "spans: {} written to {}",
                m.spans.groups.iter().map(Vec::len).sum::<usize>(),
                path.display()
            ),
            Err(e) => out.problems.push(format!("cannot write {}: {e}", path.display())),
        }
    } else {
        end_to_end(&fx, &m, median(&setups), peak_rss_mb, &mut out);
    }
    for f in failures.iter().take(20) {
        eprintln!("FAILED: {f}");
    }
    for p in &out.problems {
        eprintln!("PROBLEM: {p}");
    }
    let failed = failures.len() + out.problems.len();
    println!(
        "errors: failed={failed} attempted={attempted} error_rate={}",
        failed as f64 / attempted.max(1) as f64
    );
    let correct = failed == 0;
    println!("{}", out.json(correct, attempted.max(1), failed));
    Ok(correct)
}

/// The traced run's library probe of the serve corpus: skip-scan, full
/// decode, sharded replay, and a store load of the served directory.
fn probe(fx: &Fixture, nproc: usize, tr: &mut Tracer) {
    use vex_trace::container::{read_trace_with, DecodeOptions};
    for (i, t) in fx.corpus.iter().enumerate() {
        tr.set_op(i as u64);
        tr.span("probe.op", "bench", |tr| {
            let (idx, _) = tr.span("trace.scan", "vex-trace", |_| {
                vex_trace::index::index_trace(t.bytes.as_slice())
            });
            std::hint::black_box(idx.map(|i| i.frames.len()).unwrap_or(0));
            let (trace, _) = tr.span("trace.decode_full", "vex-trace", |_| {
                read_trace_with(&t.bytes, &DecodeOptions::default())
            });
            if let Ok(trace) = trace {
                let b = vex_core::prelude::ValueExpert::builder()
                    .coarse(true)
                    .fine(true)
                    .analysis_shards(nproc);
                std::hint::black_box(
                    tr.span("core.sharded", "vex-core", |_| b.replay(&trace)).0.is_ok(),
                );
            }
        });
    }
    let opts =
        vex_serve::StoreOptions { memory_budget: Some(fx.memory_budget), ..Default::default() };
    for k in 0..3 {
        tr.set_op(k);
        let (store, _) = tr.span("serve.load", "vex-serve", |_| {
            vex_serve::ProfileStore::load_dir_with(&fx.serve_dir, &opts)
        });
        std::hint::black_box(store.map(|s| s.len()).unwrap_or(0));
    }
}

fn end_to_end(fx: &Fixture, m: &Measured, setup_s: f64, peak_rss_mb: f64, out: &mut Out) {
    let s = &m.session;
    let (c, r) = (&s.collect, &s.replay);
    let mega = |n: u64| n as f64 / 1e6;
    out.put("setup_s", setup_s);
    out.put("peak_rss_mb", peak_rss_mb);
    let (n, secs) = c.record.one_pass();
    let v = out.rate("collect record ops", mega(n), secs);
    out.put("record_mrec_s", v);
    let (n, secs) = c.profile.one_pass();
    let v = out.rate("collect profile ops", mega(n), secs);
    out.put("profile_mrec_s", v);
    let (n, secs) = r.coarse.one_pass();
    let v = out.rate("`vex replay` ops", mega(n), secs);
    out.put("coarse_report_mb_s", v);
    let (n, secs) = r.fine.one_pass();
    let v = out.rate("`vex replay --fine` ops", mega(n), secs);
    out.put("full_report_mrec_s", v);
    let (n, secs) = r.diff.one_pass();
    let v = out.rate("`vex diff` ops", mega(n), secs);
    out.put("diff_mrec_s", v);
    let all = s.latencies(None);
    let completed = all.iter().filter(|l| l.is_finite()).count();
    let v = out.rate("served requests", completed as f64, s.serve_s);
    out.put("serve_rps", v);
    out.put("serve_p50_ms", ms(percentile(&all, 0.5)));
    out.put("serve_p99_ms", ms(percentile(&all, 0.99)));
    let (n, secs) = s.pushes(fx).one_pass();
    let v = out.rate("pushes", mega(n), secs);
    out.put("ingest_mb_s", v);
}

fn per_layer(fx: &Fixture, m: &Measured, out: &mut Out) {
    let sp = &m.spans;
    let s = &m.session;
    let (c, r) = (&s.collect, &s.replay);
    let sum = |name: &str| sp.durations(name).iter().sum::<f64>();
    // Mean duration of a span, flagging a layer the traced rounds missed.
    let mean = |out: &mut Out, span: &str| {
        if sp.durations(span).is_empty() {
            out.problems.push(format!("no {span} spans recorded"));
        }
        sp.mean_ms(span)
    };

    let v = mean(out, "gpu.run");
    out.put("gpu.run_ms", v);
    let v = mean(out, "trace.record") - sp.mean_ms("gpu.run");
    out.put("trace.collect_ms", v);
    let v = out.rate("gpu runs", c.record.total_secs(), c.gpu.total_secs());
    out.put("trace.record_overhead_x", v);
    let v = out.rate("corpus records", fx.corpus_bytes() as f64, fx.corpus_records() as f64);
    out.put("trace.bytes_per_record", v);
    let v = mean(out, "trace.scan");
    out.put("trace.scan_ms", v);
    let v = out.rate("scans", fx.corpus_bytes() as f64 / 1e6, sum("trace.scan"));
    out.put("trace.scan_mb_s", v);
    let v = mean(out, "trace.decode_none");
    out.put("trace.decode_none_ms", v);
    let v = mean(out, "trace.decode_fine");
    out.put("trace.decode_fine_ms", v);
    let v = mean(out, "trace.decode_full");
    out.put("trace.decode_full_ms", v);
    let v =
        out.rate("full decodes", fx.corpus_records() as f64 / 1e6, sum("trace.decode_full"));
    out.put("trace.decode_mrec_s", v);
    let v = mean(out, "core.coarse");
    out.put("core.coarse_ms", v);
    let v = mean(out, "core.fine");
    out.put("core.fine_ms", v);
    let v = out.rate("fine-only replays", r.fine_only_records as f64 / 1e6, sum("core.fine"));
    out.put("core.fine_mrec_s", v);
    let v = mean(out, "core.full");
    out.put("core.full_ms", v);
    let v = mean(out, "core.sharded");
    out.put("core.sharded_ms", v);
    let v = mean(out, "core.live");
    out.put("core.live_ms", v);
    let v = out.rate("gpu runs", c.profile.total_secs(), c.gpu.total_secs());
    out.put("core.profile_overhead_x", v);
    let v = mean(out, "core.render");
    out.put("core.render_ms", v);
    let v = mean(out, "core.diff");
    out.put("core.diff_ms", v);
    // A mean, not a rate: the CLI can come out a hair faster than its
    // library steps.
    if r.cli_overhead.is_empty() {
        out.problems.push("no CLI overheads measured".into());
    }
    let cli = out_ratio(r.cli_overhead.iter().sum::<f64>(), r.cli_overhead.len() as f64);
    out.put("cli.overhead_ms", cli * 1e3);

    const LATENCY: [[&str; 2]; 6] = [
        ["serve.index_ms_p50", "serve.index_ms_p99"],
        ["serve.report_ms_p50", "serve.report_ms_p99"],
        ["serve.flowgraph_ms_p50", "serve.flowgraph_ms_p99"],
        ["serve.diff_ms_p50", "serve.diff_ms_p99"],
        ["serve.ingest_ms_p50", "serve.ingest_ms_p99"],
        ["serve.delete_ms_p50", "serve.delete_ms_p99"],
    ];
    for (endpoint, [p50, p99]) in ENDPOINTS.iter().zip(LATENCY) {
        let lat = s.latencies(Some(endpoint));
        if lat.is_empty() {
            out.problems.push(format!("no {endpoint} requests measured"));
        }
        out.put(p50, ms(percentile(&lat, 0.5)));
        out.put(p99, ms(percentile(&lat, 0.99)));
    }
    let k = s.counters;
    out.put("serve.cache_hit_ratio", out_ratio(k.cache_hits, k.cache_hits + k.cache_misses));
    out.put("serve.store_decodes", k.store_decodes);
    out.put("serve.store_evictions", k.store_evictions);
    let resident = s.clients.iter().map(|c| c.resident_max).max().unwrap_or(0);
    out.put("serve.resident_bytes_max", resident as f64);
    out.put("serve.shed", k.shed);
    out.put("serve.request_errors", k.request_errors);
    out.put("serve.load_ms", sp.mean_ms("serve.load"));

    let wall: f64 = m.traced_slices.iter().map(|(a, b)| b - a).sum();
    let covered: f64 = m.traced_slices.iter().map(|&(a, b)| sp.covered(a, b)).sum();
    out.put("spans.coverage", out_ratio(covered, wall));
    let (over, base) = tracing_overhead(m);
    out.put("spans.overhead_ms", over * 1e3);
    out.put("spans.overhead_pct", out_ratio(over, base) * 100.0);
    let self_time = sp.self_time_by_layer();
    for layer in layers::SPAN_LAYERS {
        let name = layers::PER_LAYER
            .iter()
            .find(|l| l.name.strip_prefix("self_ms.") == Some(layer))
            .map(|l| l.name)
            .expect("a self_ms metric per span layer");
        out.put(name, self_time.get(layer).copied().unwrap_or(0.0) * 1e3);
    }
}

fn out_ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Traced minus untraced end-to-end time: per input, the median op of
/// the traced rounds minus the median op of the untraced rounds, summed
/// over every input of the three phases; and the untraced sum as base.
fn tracing_overhead(m: &Measured) -> (f64, f64) {
    let s = &m.session;
    let mut serve: [PerInput<&str>; 2] = Default::default();
    for x in s.samples().filter(|x| x.ok) {
        serve[usize::from(x.traced)].add(x.group, 0, x.secs);
    }
    let parts = [
        s.collect.e2e[0].slowdown(&s.collect.e2e[1]),
        s.replay.e2e[0].slowdown(&s.replay.e2e[1]),
        serve[0].slowdown(&serve[1]),
    ];
    parts.iter().fold((0.0, 0.0), |(d, b), p| (d + p.0, b + p.1))
}

fn print_base_counts(fx: &Fixture, m: &Measured, setups: &[f64], split: &[(f64, f64)]) {
    let s = &m.session;
    let (c, r) = (&s.collect, &s.replay);
    println!("base: setup_runs={} setup_s_median={:.4}", setups.len(), median(setups));
    println!(
        "host: reference_ms median={:.3} over {} rounds (SHA-256 of 1 MiB; drift between runs, not a metric)",
        median(&s.host_reference) * 1e3,
        s.host_reference.len()
    );
    println!(
        "base: collect ops={} apps={} records={} trace_mb={:.3}",
        c.ops,
        gen::APPS.len(),
        c.records,
        c.trace_bytes as f64 / 1e6
    );
    println!("base: collect unprofiled: {}", c.gpu.summary("rec"));
    println!("base: collect record: {}", c.record.summary("rec"));
    println!("base: collect profile: {}", c.profile.summary("rec"));
    println!(
        "base: collect total seconds: unprofiled={:.4} record={:.4} profile={:.4}",
        c.gpu.total_secs(),
        c.record.total_secs(),
        c.profile.total_secs()
    );
    println!(
        "base: corpus traces={} records={} trace_mb={:.3} decoded_mb_estimate={:.3} memory_budget_mb={:.3}",
        fx.corpus.len(),
        fx.corpus_records(),
        fx.corpus_bytes() as f64 / 1e6,
        fx.corpus_decoded_bytes as f64 / 1e6,
        fx.memory_budget as f64 / 1e6
    );
    for (t, &(coarse, fine)) in fx.corpus.iter().zip(split) {
        println!(
            "base: corpus {} scale_permille={} records={} bytes={} coarse_pass_ms={:.3} fine_pass_ms={:.3} {}-heavy: {}",
            t.id,
            t.spec.app.scale,
            t.records,
            t.bytes.len(),
            coarse * 1e3,
            fine * 1e3,
            if coarse > fine { "coarse" } else { "fine" },
            t.spec.app.describe()
        );
    }
    println!("base: replay ops={}", r.ops);
    println!("base: replay `vex replay`: {}", r.coarse.summary("B"));
    println!("base: replay `vex replay --fine`: {}", r.fine.summary("rec"));
    println!("base: replay `vex diff`: {}", r.diff.summary("rec"));
    let mut per: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for cl in &s.clients {
        for e in ENDPOINTS {
            let p = per.entry(e).or_default();
            p.0 += cl.attempted(e);
            p.1 += cl.completed(e);
        }
    }
    let line: Vec<String> = per.iter().map(|(e, (a, d))| format!("{e}={d}/{a}")).collect();
    println!(
        "base: serve clients={} wall_s={:.4} completed/attempted {}",
        s.clients.len(),
        s.serve_s,
        line.join(" ")
    );
    let k = s.counters;
    println!(
        "base: serve /metrics deltas cache_hits={} cache_misses={} store_decodes={} store_evictions={} shed={} request_errors={}",
        k.cache_hits, k.cache_misses, k.store_decodes, k.store_evictions, k.shed, k.request_errors
    );
    println!("base: serve pushes: {}", s.pushes(fx).summary("B"));
}
