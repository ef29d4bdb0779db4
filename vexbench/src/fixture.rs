//! Set-up: the recorded corpus, its reference renders, and the server.
//!
//! Every reference is rendered from a *live* profile of the same app at
//! the same size, so the replay and serve phases check live ≡ replay and
//! CLI/server ≡ library on every op.

use crate::gen::{CorpusSpec, Plan};
use crate::http;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vex_core::prelude::*;
use vex_gpu::runtime::Runtime;
use vex_gpu::timing::DeviceSpec;
use vex_serve::Server;
use vex_workloads::AppOutput;

/// Reference renders of one trace, from live profiles.
#[derive(Debug)]
pub struct Refs {
    /// `vex replay t.vex` / default served report.
    pub coarse_text: String,
    /// `vex replay t.vex --fine` / `?fine=1` report.
    pub full_text: String,
    /// Default served flowgraph (DOT).
    pub coarse_dot: String,
    /// `?fine=1` flowgraph.
    pub full_dot: String,
    /// `GET /traces/{id}/objects` and `/kernels` bodies, fetched once at
    /// set-up; a pushed copy of the trace must serve the same rows.
    pub objects: Vec<u8>,
    pub kernels: Vec<u8>,
}

#[derive(Debug)]
pub struct CorpusTrace {
    pub spec: CorpusSpec,
    pub id: String,
    pub path: PathBuf,
    pub bytes: Arc<Vec<u8>>,
    /// Fine-grained access records in the trace.
    pub records: u64,
    pub refs: Refs,
}

pub struct Fixture {
    pub corpus: Vec<CorpusTrace>,
    /// `vex diff base opt` text per (base, opt) corpus pair.
    pub diffs: BTreeMap<(usize, usize), String>,
    pub serve_dir: PathBuf,
    pub server: Server,
    pub memory_budget: u64,
    /// Sum of the corpus traces' decoded-size estimates.
    pub corpus_decoded_bytes: u64,
}

/// Workers and load connections: the host's core count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Report-cache entries of the served collector: small next to the ~60
/// distinct report/flowgraph/diff keys of the mix, so misses are common.
pub const CACHE_ENTRIES: usize = 8;

/// The memory budget as a share of the corpus's decoded size.
const BUDGET_PERMILLE: u64 = 400;

fn builder(fine: bool) -> ProfilerBuilder {
    ValueExpert::builder().coarse(true).fine(fine)
}

fn live_profile(spec: &CorpusSpec, fine: bool) -> Result<(Profile, AppOutput), String> {
    let app = spec.app.build();
    let mut rt = Runtime::new(DeviceSpec::rtx2080ti());
    let vex = builder(fine).attach(&mut rt);
    let out = app.run(&mut rt, spec.variant).map_err(|e| format!("{}: {e}", spec.id()))?;
    Ok((vex.report(&rt), out))
}

fn record(spec: &CorpusSpec) -> Result<(Vec<u8>, u64, AppOutput), String> {
    let app = spec.app.build();
    let mut rt = Runtime::new(DeviceSpec::rtx2080ti());
    let rec = builder(true).record(&mut rt, Vec::new()).map_err(|e| e.to_string())?;
    let out = app.run(&mut rt, spec.variant).map_err(|e| format!("{}: {e}", spec.id()))?;
    let records = rec.stats().events;
    let bytes = rec.finish(&mut rt).map_err(|e| e.to_string())?;
    Ok((bytes, records, out))
}

impl Fixture {
    /// Records the corpus into `root`, renders its references and starts
    /// the server.
    pub fn build(plan: &Plan, root: &Path) -> Result<Fixture, String> {
        let replay_dir = root.join("replay");
        let serve_dir = root.join("serve");
        for d in [&replay_dir, &serve_dir] {
            std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
        }
        let mut corpus = Vec::new();
        let mut coarse_profiles = Vec::new();
        let mut corpus_decoded_bytes = 0;
        for spec in &plan.corpus {
            let id = spec.id();
            let (bytes, records, out) = record(spec)?;
            let (coarse, out_c) = live_profile(spec, false)?;
            let (full, out_f) = live_profile(spec, true)?;
            if !out.matches(&out_c) || !out.matches(&out_f) {
                return Err(format!("{id}: app output differs between recorder and profiler"));
            }
            corpus_decoded_bytes += vex_trace::index::index_trace(bytes.as_slice())
                .map_err(|e| format!("{id}: {e}"))?
                .decoded_bytes_estimate();
            let path = replay_dir.join(format!("{id}.vex"));
            for p in [&path, &serve_dir.join(format!("{id}.vex"))] {
                std::fs::write(p, &bytes).map_err(|e| format!("{}: {e}", p.display()))?;
            }
            corpus.push(CorpusTrace {
                spec: *spec,
                id,
                path,
                bytes: Arc::new(bytes),
                records,
                refs: Refs {
                    coarse_text: coarse.render_text_document(),
                    full_text: full.render_text_document(),
                    coarse_dot: coarse.render_dot_document(None),
                    full_dot: full.render_dot_document(None),
                    objects: Vec::new(),
                    kernels: Vec::new(),
                },
            });
            coarse_profiles.push(coarse);
        }
        let mut diffs = BTreeMap::new();
        for base in (0..corpus.len()).step_by(2) {
            let d = diff_profiles(
                &coarse_profiles[base],
                &coarse_profiles[base + 1],
                &DiffOptions::default(),
            );
            diffs.insert((base, base + 1), d.render_text_document());
        }

        let memory_budget = corpus_decoded_bytes * BUDGET_PERMILLE / 1000;
        let server = start_server(&serve_dir, memory_budget)?;
        for t in &mut corpus {
            t.refs.objects =
                http::expect_ok(server.addr(), &format!("/traces/{}/objects", t.id))?;
            t.refs.kernels =
                http::expect_ok(server.addr(), &format!("/traces/{}/kernels", t.id))?;
        }
        Ok(Fixture { corpus, diffs, serve_dir, server, memory_budget, corpus_decoded_bytes })
    }

    pub fn corpus_bytes(&self) -> u64 {
        self.corpus.iter().map(|t| t.bytes.len() as u64).sum()
    }

    pub fn corpus_records(&self) -> u64 {
        self.corpus.iter().map(|t| t.records).sum()
    }
}

/// `vex serve DIR --ingest` in process, through the CLI's front door.
pub fn start_server(dir: &Path, memory_budget: u64) -> Result<Server, String> {
    let dir = dir.to_str().ok_or("non-UTF-8 work directory")?;
    let workers = nproc().to_string();
    let cache = CACHE_ENTRIES.to_string();
    let budget = memory_budget.to_string();
    let args = [
        "serve",
        dir,
        "--addr",
        "127.0.0.1:0",
        "--workers",
        &workers,
        "--cache-entries",
        &cache,
        "--memory-budget",
        &budget,
        "--ingest",
    ];
    match vex_cli::parse_args(args).map_err(|e| e.0)? {
        vex_cli::Command::Serve(a) => vex_cli::start_server(&a).map_err(|e| e.0),
        other => Err(format!("`vex serve` parsed as {other:?}")),
    }
}
