//! Every metric the benchmark reports: name, unit, better direction, and
//! for a per-layer metric the end-to-end metric it should move on which
//! workload. This is the one place the mapping lives; the traced run
//! prints it beside every value. `BENCHMARK.json` at the repository root
//! lists the same metrics, and every run checks at start-up that the two
//! agree ([`check_manifest`]).

/// `(name, unit, better)` of an end-to-end metric.
pub type EndToEnd = (&'static str, &'static str, &'static str);

pub const END_TO_END: [EndToEnd; 11] = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("record_mrec_s", "Mrec/s", "higher"),
    ("profile_mrec_s", "Mrec/s", "higher"),
    ("coarse_report_mb_s", "MB/s", "higher"),
    ("full_report_mrec_s", "Mrec/s", "higher"),
    ("diff_mrec_s", "Mrec/s", "higher"),
    ("serve_rps", "req/s", "higher"),
    ("serve_p50_ms", "ms", "lower"),
    ("serve_p99_ms", "ms", "lower"),
    ("ingest_mb_s", "MB/s", "higher"),
];

/// A per-layer metric and the end-to-end figure it should move.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metrics it should move (empty: reported only).
    pub moves: &'static str,
    /// Workload on which it should move them.
    pub on: &'static str,
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Layer {
    Layer { name, unit, better, moves, on }
}

pub const PER_LAYER: [Layer; 49] = [
    l("gpu.run_ms", "ms", "lower", "record_mrec_s profile_mrec_s", "collect"),
    l("trace.collect_ms", "ms", "lower", "record_mrec_s", "collect"),
    l("trace.record_overhead_x", "x", "lower", "", "collect"),
    l(
        "trace.bytes_per_record",
        "B/rec",
        "lower",
        "ingest_mb_s coarse_report_mb_s",
        "serve replay",
    ),
    l("trace.scan_ms", "ms", "lower", "ingest_mb_s setup_s", "serve"),
    l("trace.scan_mb_s", "MB/s", "higher", "ingest_mb_s setup_s", "serve"),
    l("trace.decode_none_ms", "ms", "lower", "coarse_report_mb_s", "replay"),
    l("trace.decode_fine_ms", "ms", "lower", "full_report_mrec_s diff_mrec_s", "replay"),
    l("trace.decode_full_ms", "ms", "lower", "serve_p99_ms", "serve"),
    l("trace.decode_mrec_s", "Mrec/s", "higher", "serve_p99_ms", "serve"),
    l("core.coarse_ms", "ms", "lower", "coarse_report_mb_s serve_p99_ms", "replay serve"),
    l("core.fine_ms", "ms", "lower", "full_report_mrec_s", "replay"),
    l("core.fine_mrec_s", "Mrec/s", "higher", "full_report_mrec_s", "replay"),
    l("core.full_ms", "ms", "lower", "full_report_mrec_s diff_mrec_s", "replay"),
    l("core.sharded_ms", "ms", "lower", "serve_p99_ms", "serve"),
    l("core.live_ms", "ms", "lower", "profile_mrec_s", "collect"),
    l("core.profile_overhead_x", "x", "lower", "", "collect"),
    l(
        "core.render_ms",
        "ms",
        "lower",
        "coarse_report_mb_s full_report_mrec_s serve_p99_ms",
        "replay serve",
    ),
    l("core.diff_ms", "ms", "lower", "diff_mrec_s", "replay"),
    l(
        "cli.overhead_ms",
        "ms",
        "lower",
        "coarse_report_mb_s full_report_mrec_s diff_mrec_s",
        "replay",
    ),
    l("serve.index_ms_p50", "ms", "lower", "serve_p50_ms serve_rps", "serve"),
    l("serve.index_ms_p99", "ms", "lower", "serve_p99_ms", "serve"),
    l("serve.report_ms_p50", "ms", "lower", "serve_p50_ms serve_rps", "serve"),
    l("serve.report_ms_p99", "ms", "lower", "serve_p99_ms", "serve"),
    l("serve.flowgraph_ms_p50", "ms", "lower", "serve_p50_ms serve_rps", "serve"),
    l("serve.flowgraph_ms_p99", "ms", "lower", "serve_p99_ms", "serve"),
    l("serve.diff_ms_p50", "ms", "lower", "serve_p50_ms serve_rps", "serve"),
    l("serve.diff_ms_p99", "ms", "lower", "serve_p99_ms", "serve"),
    l("serve.ingest_ms_p50", "ms", "lower", "ingest_mb_s", "serve"),
    l("serve.ingest_ms_p99", "ms", "lower", "ingest_mb_s serve_p99_ms", "serve"),
    l("serve.delete_ms_p50", "ms", "lower", "serve_p50_ms", "serve"),
    l("serve.delete_ms_p99", "ms", "lower", "serve_p99_ms", "serve"),
    l("serve.cache_hit_ratio", "ratio", "higher", "serve_p50_ms serve_rps", "serve"),
    l("serve.store_decodes", "count", "lower", "serve_p99_ms", "serve"),
    l("serve.store_evictions", "count", "lower", "serve_p99_ms", "serve"),
    l("serve.resident_bytes_max", "B", "lower", "peak_rss_mb", "serve"),
    l("serve.shed", "count", "lower", "serve_rps", "serve"),
    l("serve.request_errors", "count", "lower", "serve_rps", "serve"),
    l("serve.load_ms", "ms", "lower", "setup_s", "serve"),
    l("spans.coverage", "ratio", "higher", "", ""),
    l("spans.overhead_ms", "ms", "lower", "", ""),
    l("spans.overhead_pct", "%", "lower", "", ""),
    l("self_ms.bench", "ms", "lower", "", ""),
    l("self_ms.io", "ms", "lower", "coarse_report_mb_s full_report_mrec_s", "replay"),
    l("self_ms.vex-gpu", "ms", "lower", "record_mrec_s profile_mrec_s", "collect"),
    l("self_ms.vex-trace", "ms", "lower", "record_mrec_s coarse_report_mb_s", "collect replay"),
    l("self_ms.vex-core", "ms", "lower", "profile_mrec_s full_report_mrec_s", "collect replay"),
    l(
        "self_ms.vex-cli",
        "ms",
        "lower",
        "coarse_report_mb_s full_report_mrec_s diff_mrec_s",
        "replay",
    ),
    l("self_ms.vex-serve", "ms", "lower", "serve_rps serve_p50_ms serve_p99_ms", "serve"),
];

/// The layers spans are attributed to.
pub const SPAN_LAYERS: [&str; 7] =
    ["bench", "io", "vex-gpu", "vex-trace", "vex-core", "vex-cli", "vex-serve"];

/// Checks that the `end_to_end` and `per_layer` lists of `BENCHMARK.json`
/// (its text in `manifest`) hold exactly the metrics above, in the same
/// order, with the same units and better-directions.
pub fn check_manifest(manifest: &str) -> Result<(), String> {
    let doc = serde_json::value_from_str(manifest).map_err(|e| e.to_string())?;
    let field = |obj: &serde_json::Value, key: &str| {
        obj.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v.clone())
            .ok_or_else(|| format!("no \"{key}\""))
    };
    let listed = |key: &str| -> Result<Vec<[String; 3]>, String> {
        let list = field(&doc, key)?;
        let items = list.as_array().ok_or_else(|| format!("\"{key}\" is not a list"))?;
        items
            .iter()
            .map(|m| {
                let text = |k: &str| {
                    field(m, k)?.as_str().map(str::to_owned).ok_or_else(|| format!("bad {k}"))
                };
                Ok([text("name")?, text("unit")?, text("better")?])
            })
            .collect()
    };
    let own = |m: [&str; 3]| m.map(str::to_owned);
    let tables = [
        ("end_to_end", END_TO_END.iter().map(|&(n, u, b)| own([n, u, b])).collect::<Vec<_>>()),
        ("per_layer", PER_LAYER.iter().map(|l| own([l.name, l.unit, l.better])).collect()),
    ];
    for (key, want) in tables {
        let got = listed(key)?;
        if got != want {
            let first = (0..got.len().max(want.len()))
                .find(|&i| got.get(i) != want.get(i))
                .unwrap_or(0);
            return Err(format!(
                "\"{key}\" differs from src/layers.rs at entry {first}: {:?} vs {:?}",
                got.get(first),
                want.get(first)
            ));
        }
    }
    Ok(())
}
