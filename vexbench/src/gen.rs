//! Seeded input generation.
//!
//! The seed decides three things and nothing else: each bundled app's
//! size (through the public size fields of its `vex-workloads` struct),
//! the order of every phase's operations, and the serve request mix.
//! The program under test only ever sees the generated traces and
//! requests. [`Plan::fingerprint`] hashes the complete generated op
//! lists, so two runs on one seed provably ran the same inputs.

use std::fmt::Write as _;
use vex_workloads::apps::{
    barracuda::Barracuda, bert::Bert, castro::Castro, darknet::Darknet, deepwave::Deepwave,
    lammps::Lammps, namd::Namd, qmcpack::Qmcpack, resnet50::Resnet50,
};
use vex_workloads::rodinia::{
    backprop::Backprop, bfs::Bfs, cfd::Cfd, hotspot::Hotspot, hotspot3d::Hotspot3D,
    huffman::Huffman, lavamd::LavaMd, pathfinder::Pathfinder, sradv1::SradV1,
    streamcluster::StreamCluster,
};
use vex_workloads::{GpuApp, Variant};

/// SplitMix64: a full-period generator whose streams for neighbouring
/// seeds are unrelated.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Every bundled app, by its `GpuApp::name`.
pub const APPS: [&str; 19] = [
    "bfs",
    "backprop",
    "sradv1",
    "hotspot",
    "pathfinder",
    "cfd",
    "huffman",
    "lavaMD",
    "hotspot3D",
    "streamcluster",
    "Darknet",
    "QMCPACK",
    "Castro",
    "BarraCUDA",
    "PyTorch-Deepwave",
    "PyTorch-Bert",
    "PyTorch-Resnet50",
    "NAMD",
    "LAMMPS",
];

/// The replay/serve corpus: both coarse-heavy apps (backprop, LAMMPS)
/// and both fine-heavy apps (Darknet, PyTorch-Resnet50), each recorded
/// as baseline and optimized so `vex diff` has a pair per app.
pub const CORPUS_APPS: [&str; 4] = ["backprop", "LAMMPS", "Darknet", "PyTorch-Resnet50"];

/// The range a collect app's seeded size is drawn from, permille of its
/// default size. Small enough that a run repeats every app several times
/// (one collect cycle of all 19 apps takes about a second on a 2-core
/// host); narrow enough that the seed moves the per-record rates less
/// than the host's own run-to-run noise does. Size steps are fine enough
/// that every app takes at least three sizes over the range.
const SCALE: (u64, u64) = (100, 120);

/// The range of a corpus trace's seeded size. LAMMPS is the corpus's
/// coarse-heavy trace; its coarse pass outweighs its fine pass by about
/// 3.5× at its default size but by only about 1.3× at the collect range,
/// where the per-kernel fixed cost of the fine pass dominates, so it is
/// recorded at 40–50% of its default size (about 2.5×). Larger sizes
/// make every cold LAMMPS report hold a server worker for 100 ms and
/// leave the serve figures to how often a run happens to draw one. The fine-heavy traces (Darknet,
/// PyTorch-Resnet50; fine pass ≥ 20× coarse at every size) and backprop
/// (fine pass ≈ 2× coarse at every size) stay small. The base counts
/// print every trace's coarse- and fine-pass time.
fn corpus_scale(name: &str) -> (u64, u64) {
    match name {
        "LAMMPS" => (400, 500),
        _ => SCALE,
    }
}

/// One bundled app at a seeded size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppSpec {
    pub name: &'static str,
    /// Size relative to the app's default, permille.
    pub scale: u64,
}

/// `n` scaled by `permille`, rounded to a multiple of `step`, at least
/// `step`.
fn scaled(n: usize, permille: u64, step: usize) -> usize {
    let v = (n as u64 * permille / 1000) as usize;
    (v / step).max(1) * step
}

/// A side length scaled so the element count (`side^dims`) scales by
/// `permille`.
fn scaled_side(side: usize, permille: u64, dims: i32, step: usize) -> usize {
    let f = (permille as f64 / 1000.0).powf(1.0 / f64::from(dims));
    ((side as f64 * f / step as f64).round() as usize).max(1) * step
}

impl AppSpec {
    /// The app's `vex-workloads` struct with its seeded size fields.
    pub fn build(&self) -> Box<dyn GpuApp> {
        self.make().0
    }

    /// The app's struct as `Debug` prints it, e.g.
    /// `Lammps { atoms: 232, neigh_slots: 256, steps: 4, modules: 24 }`.
    pub fn describe(&self) -> String {
        self.make().1
    }

    fn make(&self) -> (Box<dyn GpuApp>, String) {
        fn boxed<A: GpuApp + std::fmt::Debug + 'static>(a: A) -> (Box<dyn GpuApp>, String) {
            let d = format!("{a:?}");
            (Box::new(a), d)
        }
        let s = self.scale;
        match self.name {
            "bfs" => {
                let d = Bfs::default();
                boxed(Bfs { nodes: scaled(d.nodes, s, 32), ..d })
            }
            "backprop" => {
                let d = Backprop::default();
                boxed(Backprop { weights: scaled(d.weights, s, 32), ..d })
            }
            "sradv1" => {
                let d = SradV1::default();
                boxed(SradV1 { rows: scaled(d.rows, s, 1), ..d })
            }
            "hotspot" => {
                let d = Hotspot::default();
                boxed(Hotspot { side: scaled_side(d.side, s, 2, 2), ..d })
            }
            "pathfinder" => {
                let d = Pathfinder::default();
                boxed(Pathfinder { cols: scaled(d.cols, s, 32), ..d })
            }
            "cfd" => {
                let d = Cfd::default();
                boxed(Cfd { elements: scaled(d.elements, s, 32), ..d })
            }
            "huffman" => {
                let d = Huffman::default();
                boxed(Huffman { symbols: scaled(d.symbols, s, 32), ..d })
            }
            "lavaMD" => {
                let d = LavaMd::default();
                boxed(LavaMd { particles: scaled(d.particles, s, 32), ..d })
            }
            "hotspot3D" => {
                let d = Hotspot3D::default();
                boxed(Hotspot3D { side: scaled_side(d.side, s, 3, 1), ..d })
            }
            "streamcluster" => {
                let d = StreamCluster::default();
                boxed(StreamCluster { points: scaled(d.points, s, 32), ..d })
            }
            "Darknet" => {
                let d = Darknet::default();
                boxed(Darknet { outputs: scaled(d.outputs, s, 32), ..d })
            }
            "QMCPACK" => {
                let d = Qmcpack::default();
                boxed(Qmcpack { walkers: scaled(d.walkers, s, 32), ..d })
            }
            "Castro" => {
                let d = Castro::default();
                boxed(Castro { cells: scaled(d.cells, s, 32), ..d })
            }
            "BarraCUDA" => {
                let d = Barracuda::default();
                boxed(Barracuda {
                    batch_reads: scaled(d.batch_reads, s, 32),
                    aln_slots: scaled(d.aln_slots, s, 32),
                    ..d
                })
            }
            "PyTorch-Deepwave" => {
                let d = Deepwave::default();
                boxed(Deepwave { elements: scaled(d.elements, s, 32), ..d })
            }
            "PyTorch-Bert" => {
                let d = Bert::default();
                boxed(Bert { tokens: scaled(d.tokens, s, 8), ..d })
            }
            "PyTorch-Resnet50" => {
                let d = Resnet50::default();
                boxed(Resnet50 { elements: scaled(d.elements, s, 32), ..d })
            }
            "NAMD" => {
                let d = Namd::default();
                boxed(Namd { atoms: scaled(d.atoms, s, 32), ..d })
            }
            "LAMMPS" => {
                let d = Lammps::default();
                boxed(Lammps { atoms: scaled(d.atoms, s, 8), ..d })
            }
            other => unreachable!("unknown bundled app {other}"),
        }
    }

    /// File-name-safe identity, e.g. `lammps`.
    pub fn slug(&self) -> String {
        self.name.to_ascii_lowercase().replace("pytorch-", "")
    }
}

/// One trace of the replay/serve corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusSpec {
    pub app: AppSpec,
    pub variant: Variant,
}

impl CorpusSpec {
    /// Trace id and file stem, e.g. `darknet-baseline`.
    pub fn id(&self) -> String {
        format!("{}-{}", self.app.slug(), self.variant)
    }
}

/// One `vex_cli::run` invocation of the replay phase. Indices point into
/// [`Plan::corpus`]; a diff names the app's baseline/optimized pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReplayOp {
    /// `vex replay t.vex` (coarse report).
    Coarse(usize),
    /// `vex replay t.vex --fine` (coarse + fine report).
    Fine(usize),
    /// `vex diff base.vex opt.vex`.
    Diff { base: usize, opt: usize },
}

/// Analysis parameters of a served report or flowgraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Params {
    Default,
    Fine,
    /// `shards=2`: byte-identical to the default, cached separately.
    Shards2,
}

impl Params {
    pub fn query(self) -> &'static str {
        match self {
            Params::Default => "",
            Params::Fine => "?fine=1",
            Params::Shards2 => "?shards=2",
        }
    }
}

/// A served trace: a corpus trace or a pushed copy of one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Target {
    pub id: String,
    /// Corpus index of the trace's contents.
    pub source: usize,
}

/// One request of a serve client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeOp {
    /// `GET /traces`; the client's live pushed traces must be listed.
    List {
        live: Vec<Target>,
    },
    Objects(Target),
    Kernels(Target),
    Report(Target, Params),
    Flowgraph(Target, Params),
    Diff {
        base: usize,
        opt: usize,
    },
    /// Push a fresh trace through `vex_serve::client`.
    Push(Target),
    /// `DELETE` the client's oldest pushed trace.
    Delete(Target),
}

/// The serve mix, per deck of 100 requests: index-only reads (60),
/// reports and flowgraphs (25), diffs (5), writes (10). Each client deals
/// its requests from freshly shuffled decks, so every 100 requests hold
/// the mix exactly.
const SERVE_MIX: [(&str, u32); 12] = [
    ("list", 20),
    ("objects", 20),
    ("kernels", 20),
    ("report", 13),
    ("report-fine", 3),
    ("report-shards", 3),
    ("flowgraph", 4),
    ("flowgraph-fine", 1),
    ("flowgraph-shards", 1),
    ("diff", 5),
    ("push", 5),
    ("delete", 5),
];

/// Pushed traces a client keeps alive; a push beyond this deletes first.
const MAX_LIVE_PUSHES: usize = 2;

const COLLECT_CYCLES: usize = 200;
const REPLAY_ROUNDS: usize = 200;
const SERVE_DECKS_PER_CLIENT: usize = 600;

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Collect phase: all bundled apps, once per cycle, each cycle in a
    /// fresh seeded order.
    pub collect: Vec<AppSpec>,
    pub corpus: Vec<CorpusSpec>,
    /// Replay phase: rounds of every distinct op — each trace's coarse
    /// and fine replay, each pair's diff — each round in a fresh seeded
    /// order.
    pub replay: Vec<ReplayOp>,
    /// One request list per serve client.
    pub serve: Vec<Vec<ServeOp>>,
}

impl Plan {
    pub fn generate(seed: u64, clients: usize) -> Plan {
        let mut sizes = Rng::new(seed, 1);
        let apps: Vec<AppSpec> = APPS
            .iter()
            .map(|&name| AppSpec { name, scale: sizes.range(SCALE.0, SCALE.1) })
            .collect();
        let mut order = Rng::new(seed, 2);
        let mut collect = Vec::with_capacity(COLLECT_CYCLES * apps.len());
        for _ in 0..COLLECT_CYCLES {
            let mut cycle = apps.clone();
            order.shuffle(&mut cycle);
            collect.extend(cycle);
        }

        let mut corpus = Vec::new();
        for name in CORPUS_APPS {
            let (lo, hi) = corpus_scale(name);
            let app = AppSpec { name, scale: sizes.range(lo, hi) };
            corpus.push(CorpusSpec { app, variant: Variant::Baseline });
            corpus.push(CorpusSpec { app, variant: Variant::Optimized });
        }

        let pairs = corpus.len() / 2;
        let round: Vec<ReplayOp> = (0..corpus.len())
            .map(ReplayOp::Coarse)
            .chain((0..corpus.len()).map(ReplayOp::Fine))
            .chain((0..pairs).map(|p| ReplayOp::Diff { base: 2 * p, opt: 2 * p + 1 }))
            .collect();
        let mut order = Rng::new(seed, 3);
        let mut replay = Vec::with_capacity(REPLAY_ROUNDS * round.len());
        for _ in 0..REPLAY_ROUNDS {
            let mut r = round.clone();
            order.shuffle(&mut r);
            replay.extend(r);
        }

        let serve = (0..clients)
            .map(|c| serve_ops(&mut Rng::new(seed, 100 + c as u64), c, &corpus))
            .collect();
        Plan { collect, corpus, replay, serve }
    }

    /// Ops in one replay round.
    pub fn replay_round(&self) -> usize {
        self.corpus.len() * 2 + self.corpus.len() / 2
    }

    /// SHA-256 over a canonical rendering of every generated op list.
    pub fn fingerprint(&self) -> String {
        let mut s = String::new();
        for a in &self.collect {
            let _ = writeln!(s, "collect {} {}", a.name, a.scale);
        }
        for c in &self.corpus {
            let _ = writeln!(s, "corpus {} {} {}", c.app.name, c.app.scale, c.variant);
        }
        for op in &self.replay {
            let _ = writeln!(s, "replay {op:?}");
        }
        for (c, ops) in self.serve.iter().enumerate() {
            for op in ops {
                let _ = writeln!(s, "serve {c} {op:?}");
            }
        }
        vex_core::sha256::sha256(s.as_bytes()).to_hex()
    }
}

/// A client's request list. Each client owns the ids it pushes
/// (`c{client}-{n}`) and is the only one that reads or deletes them, so
/// every request is valid whatever the interleaving of the clients.
fn serve_ops(rng: &mut Rng, client: usize, corpus: &[CorpusSpec]) -> Vec<ServeOp> {
    let deck: Vec<&str> =
        SERVE_MIX.iter().flat_map(|&(name, n)| std::iter::repeat_n(name, n as usize)).collect();
    let base: Vec<Target> =
        corpus.iter().enumerate().map(|(i, c)| Target { id: c.id(), source: i }).collect();
    let mut live: std::collections::VecDeque<Target> = Default::default();
    let mut bags: std::collections::HashMap<&str, Vec<Target>> = Default::default();
    let (mut pairs, mut sources): (Vec<usize>, Vec<usize>) = Default::default();
    let mut pushed = 0usize;
    let mut out = Vec::with_capacity(SERVE_DECKS_PER_CLIENT * deck.len());
    for _ in 0..SERVE_DECKS_PER_CLIENT {
        let mut hand = deck.clone();
        rng.shuffle(&mut hand);
        for kind in hand {
            // Each kind of read deals its targets from a shuffled bag of
            // the corpus and the client's live pushes, refilled once
            // empty, so every trace is read about equally often whatever
            // the seed; a pushed trace deleted since is skipped. Diffed
            // pairs and pushed traces are dealt the same way.
            let mut pick = |rng: &mut Rng, live: &std::collections::VecDeque<Target>| loop {
                let bag = bags.entry(kind).or_default();
                if bag.is_empty() {
                    bag.extend(base.iter().chain(live).cloned());
                    rng.shuffle(bag);
                }
                let t = bag.pop().expect("a refilled bag");
                if t.id == base[t.source].id || live.contains(&t) {
                    return t;
                }
            };
            let op = match kind {
                "list" => ServeOp::List { live: live.iter().cloned().collect() },
                "objects" => ServeOp::Objects(pick(rng, &live)),
                "kernels" => ServeOp::Kernels(pick(rng, &live)),
                "report" => ServeOp::Report(pick(rng, &live), Params::Default),
                "report-fine" => ServeOp::Report(pick(rng, &live), Params::Fine),
                "report-shards" => ServeOp::Report(pick(rng, &live), Params::Shards2),
                "flowgraph" => ServeOp::Flowgraph(pick(rng, &live), Params::Default),
                "flowgraph-fine" => ServeOp::Flowgraph(pick(rng, &live), Params::Fine),
                "flowgraph-shards" => ServeOp::Flowgraph(pick(rng, &live), Params::Shards2),
                "diff" => {
                    if pairs.is_empty() {
                        pairs.extend(0..corpus.len() / 2);
                        rng.shuffle(&mut pairs);
                    }
                    let p = pairs.pop().expect("a refilled bag");
                    ServeOp::Diff { base: 2 * p, opt: 2 * p + 1 }
                }
                write => {
                    if (write == "delete" && !live.is_empty()) || live.len() >= MAX_LIVE_PUSHES
                    {
                        ServeOp::Delete(live.pop_front().expect("a live pushed trace"))
                    } else {
                        if sources.is_empty() {
                            sources.extend(0..corpus.len());
                            rng.shuffle(&mut sources);
                        }
                        let source = sources.pop().expect("a refilled bag");
                        let t = Target { id: format!("c{client}-{pushed}"), source };
                        pushed += 1;
                        live.push_back(t.clone());
                        ServeOp::Push(t)
                    }
                }
            };
            out.push(op);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed really chooses every app's size: over its range each app
    /// takes at least three distinct sizes.
    #[test]
    fn every_app_size_varies_with_the_seed() {
        for name in APPS {
            for (lo, hi) in [SCALE, corpus_scale(name)] {
                let mut seen: Vec<String> =
                    (lo..=hi).map(|scale| AppSpec { name, scale }.describe()).collect();
                seen.dedup();
                assert!(seen.len() >= 3, "{name} over {lo}..={hi}‰: {seen:?}");
            }
        }
    }
}
