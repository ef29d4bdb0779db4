//! `replay`: the offline and CI loop on files. Each op is one
//! `vex replay t.vex`, `vex replay t.vex --fine` or
//! `vex diff base.vex opt.vex`, issued through `vex_cli::parse_args` +
//! `vex_cli::run` into a buffer and compared byte for byte with the
//! report rendered from a live profile at set-up.
//!
//! In the traced run each op is paired with the same work done through
//! the library's public steps (file read, projected decode, analysis,
//! render), so the CLI's own overhead is the op minus those steps. The
//! steps run before the CLI op on every second traced op and after it on
//! the others, so neither side always finds the caches warmed by the
//! other.

use crate::fixture::Fixture;
use crate::gen::ReplayOp;
use crate::spans::Tracer;
use crate::stats::PerInput;
use std::time::Instant;
use vex_core::prelude::*;
use vex_trace::container::{read_trace_with, RecordedTrace};

#[derive(Debug, Default)]
pub struct ReplayStats {
    pub ops: usize,
    /// `vex replay` per trace, with the trace's bytes as the work.
    pub coarse: PerInput<usize>,
    /// `vex replay --fine` per trace, with its records as the work.
    pub fine: PerInput<usize>,
    /// `vex diff` per pair, with both traces' records as the work.
    pub diff: PerInput<usize>,
    /// Traced run: records of the fine-only replays.
    pub fine_only_records: u64,
    /// Per op input, the `vex_cli::run` time in untraced (`[0]`) and
    /// traced (`[1]`) rounds.
    pub e2e: [PerInput<ReplayOp>; 2],
    /// Traced run, per op: the CLI time minus its library steps.
    pub cli_overhead: Vec<f64>,
    /// Traced ops so far; their parity decides whether the library steps
    /// run before or after the CLI op.
    pub traced_ops: usize,
    pub failures: Vec<String>,
}

fn builder(fine: bool) -> ProfilerBuilder {
    ValueExpert::builder().coarse(true).fine(fine)
}

/// Runs `ops[*next..]` in order, advancing `next`, until `deadline` and
/// at least up to op `min_next`. The list wraps around.
pub fn run(
    fx: &Fixture,
    ops: &[ReplayOp],
    next: &mut usize,
    deadline: Instant,
    min_next: usize,
    tr: &mut Tracer,
    st: &mut ReplayStats,
) {
    while *next < min_next || Instant::now() < deadline {
        let op = ops[*next % ops.len()];
        tr.set_op(*next as u64);
        if let Err(e) = tr.span("replay.op", "bench", |tr| one(fx, op, tr, st)).0 {
            st.failures.push(format!("replay {op:?}: {e}"));
        }
        st.ops += 1;
        *next += 1;
    }
}

fn path(fx: &Fixture, i: usize) -> &str {
    fx.corpus[i].path.to_str().expect("UTF-8 work directory")
}

fn one(
    fx: &Fixture,
    op: ReplayOp,
    tr: &mut Tracer,
    st: &mut ReplayStats,
) -> Result<(), String> {
    let (args, expected): (Vec<&str>, &str) = match op {
        ReplayOp::Coarse(i) => (vec!["replay", path(fx, i)], &fx.corpus[i].refs.coarse_text),
        ReplayOp::Fine(i) => {
            (vec!["replay", path(fx, i), "--fine"], &fx.corpus[i].refs.full_text)
        }
        ReplayOp::Diff { base, opt } => {
            (vec!["diff", path(fx, base), path(fx, opt)], &fx.diffs[&(base, opt)])
        }
    };
    let traced = tr.enabled();
    let lib_first = traced && st.traced_ops.is_multiple_of(2);
    let lib = if lib_first { Some(library_steps(fx, op, tr)) } else { None };
    let (res, cli_s) = tr.span("cli.run", "vex-cli", |_| {
        let cmd = vex_cli::parse_args(args.iter().copied()).map_err(|e| e.0)?;
        let mut out = Vec::new();
        let code = vex_cli::run(&cmd, &mut out).map_err(|e| e.0)?;
        Ok::<_, String>((code, out))
    });
    st.e2e[usize::from(traced)].add(op, 0, cli_s);
    match op {
        ReplayOp::Coarse(i) => st.coarse.add(i, fx.corpus[i].bytes.len() as u64, cli_s),
        ReplayOp::Fine(i) => st.fine.add(i, fx.corpus[i].records, cli_s),
        ReplayOp::Diff { base, opt } => {
            st.diff.add(base, fx.corpus[base].records + fx.corpus[opt].records, cli_s)
        }
    }
    let (code, out) = res?;
    tr.span("check", "bench", |_| {
        if code != 0 {
            return Err(format!("exit code {code}"));
        }
        if out != expected.as_bytes() {
            return Err("output differs from the live profile's render".into());
        }
        Ok(())
    })
    .0?;
    if traced {
        let (lib, lib_s) = match lib {
            Some(done) => done,
            None => library_steps(fx, op, tr),
        };
        st.traced_ops += 1;
        if let ReplayOp::Fine(i) = op {
            st.fine_only_records += fx.corpus[i].records;
        }
        st.cli_overhead.push(cli_s - lib_s);
        if lib? != expected {
            return Err("library steps render differently from the live profile".into());
        }
    }
    Ok(())
}

/// Per corpus trace, the median time of the coarse pass alone and of the
/// fine pass alone over `repeats` replays of one full decode, seconds:
/// which pass dominates the trace's analysis at its seeded size.
pub fn pass_split(fx: &Fixture, repeats: usize) -> Result<Vec<(f64, f64)>, String> {
    use crate::stats::median;
    use vex_trace::container::DecodeOptions;
    // One pass alone: the coarse or the fine analysis, not both.
    let timed = |fine: bool, trace: &RecordedTrace| -> Result<f64, String> {
        let b = ValueExpert::builder().coarse(!fine).fine(fine);
        let t0 = Instant::now();
        std::hint::black_box(b.replay(trace).map_err(|e| e.to_string())?);
        Ok(t0.elapsed().as_secs_f64())
    };
    let mut out = Vec::with_capacity(fx.corpus.len());
    for t in &fx.corpus {
        let trace = read_trace_with(&t.bytes, &DecodeOptions::default())
            .map_err(|e| format!("{}: {e}", t.id))?;
        let (mut c, mut f) = (Vec::new(), Vec::new());
        for _ in 0..repeats {
            c.push(timed(false, &trace)?);
            f.push(timed(true, &trace)?);
        }
        out.push((median(&c), median(&f)));
    }
    Ok(out)
}

/// Reads and decodes trace `i` the way a replay with `fine` does.
fn load(
    fx: &Fixture,
    i: usize,
    fine: bool,
    tr: &mut Tracer,
) -> Result<(RecordedTrace, f64), String> {
    let (bytes, read_s) = tr.span("io.read", "io", |_| std::fs::read(&fx.corpus[i].path));
    let bytes = bytes.map_err(|e| e.to_string())?;
    let name = if fine { "trace.decode_fine" } else { "trace.decode_none" };
    let opts = builder(fine).decode_options();
    let (trace, decode_s) = tr.span(name, "vex-trace", |_| read_trace_with(&bytes, &opts));
    Ok((trace.map_err(|e| e.to_string())?, read_s + decode_s))
}

/// Replays trace `i` through the library: read, decode, analysis.
/// Returns the profile and the time of those steps.
fn profile(
    fx: &Fixture,
    i: usize,
    fine: bool,
    tr: &mut Tracer,
) -> Result<(Profile, f64), String> {
    let (trace, load_s) = load(fx, i, fine, tr)?;
    let name = if fine { "core.full" } else { "core.coarse" };
    let (p, s) = tr.span(name, "vex-core", |_| builder(fine).replay(&trace));
    if fine {
        // The fine pass alone, on the same decode; not a step of the CLI.
        let fine_only = ValueExpert::builder().coarse(false).fine(true);
        let (r, _) = tr.span("core.fine", "vex-core", |_| fine_only.replay(&trace));
        r.map_err(|e| e.to_string())?;
    }
    Ok((p.map_err(|e| e.to_string())?, load_s + s))
}

/// The op's work through the library's public steps; returns the render
/// and the time of the steps the CLI also takes.
fn library_steps(fx: &Fixture, op: ReplayOp, tr: &mut Tracer) -> (Result<String, String>, f64) {
    match op {
        ReplayOp::Coarse(i) | ReplayOp::Fine(i) => {
            match profile(fx, i, matches!(op, ReplayOp::Fine(_)), tr) {
                Ok((p, steps_s)) => {
                    let (text, s) =
                        tr.span("core.render_text", "vex-core", |_| p.render_text_document());
                    (Ok(text), steps_s + s)
                }
                Err(e) => (Err(e), 0.0),
            }
        }
        ReplayOp::Diff { base, opt } => {
            let sides = profile(fx, base, false, tr)
                .and_then(|a| Ok((a, profile(fx, opt, false, tr)?)));
            match sides {
                Ok(((a, a_s), (b, b_s))) => {
                    let (text, s) = tr.span("core.diff", "vex-core", |_| {
                        diff_profiles(&a, &b, &DiffOptions::default()).render_text_document()
                    });
                    (Ok(text), a_s + b_s + s)
                }
                Err(e) => (Err(e), 0.0),
            }
        }
    }
}
