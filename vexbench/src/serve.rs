//! `serve`: a fleet collector under a closed loop. One client thread per
//! core keeps exactly one request in flight — dashboards and CI callers
//! wait for each reply — against an in-process `vex serve --ingest` with
//! a small report cache and a memory budget below the corpus's decoded
//! size. Every report, flowgraph and diff body must equal the library
//! render of the same trace and params; every push must be listed with
//! its record count.

use crate::fixture::Fixture;
use crate::gen::{Params, ServeOp, Target};
use crate::http;
use crate::spans::Tracer;
use std::net::SocketAddr;
use std::time::Instant;

/// Endpoint groups whose latency is reported separately.
pub const ENDPOINTS: [&str; 6] = ["index", "report", "flowgraph", "diff", "ingest", "delete"];

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub group: &'static str,
    /// Latency, seconds.
    pub secs: f64,
    /// Completed with a correct body.
    pub ok: bool,
    /// Corpus index of the trace an ingest request pushed.
    pub pushed: Option<usize>,
    /// Sent while tracing was on.
    pub traced: bool,
}

impl Sample {
    /// The latency a failed or refused request counts with: over any
    /// limit.
    pub fn latency(&self) -> f64 {
        if self.ok {
            self.secs
        } else {
            f64::INFINITY
        }
    }
}

#[derive(Debug, Default)]
pub struct ClientStats {
    pub samples: Vec<Sample>,
    pub failures: Vec<String>,
    /// Pushed traces still on the server when the client stopped.
    pub live: Vec<String>,
    /// Most decoded bytes the store held after any of the client's
    /// requests (the gauge `/metrics` renders as
    /// `vex_store_resident_bytes`).
    pub resident_max: u64,
}

impl ClientStats {
    pub fn attempted(&self, group: &str) -> usize {
        self.samples.iter().filter(|s| s.group == group).count()
    }

    pub fn completed(&self, group: &str) -> usize {
        self.samples.iter().filter(|s| s.group == group && s.ok).count()
    }
}

fn endpoint(op: &ServeOp) -> (&'static str, &'static str) {
    match op {
        ServeOp::List { .. } | ServeOp::Objects(_) | ServeOp::Kernels(_) => {
            ("index", "serve.index")
        }
        ServeOp::Report(..) => ("report", "serve.report"),
        ServeOp::Flowgraph(..) => ("flowgraph", "serve.flowgraph"),
        ServeOp::Diff { .. } => ("diff", "serve.diff"),
        ServeOp::Push(_) => ("ingest", "serve.ingest"),
        ServeOp::Delete(_) => ("delete", "serve.delete"),
    }
}

/// One client's closed loop over `ops[*next..]`, advancing `next`,
/// until `deadline`. The client's requests are valid in list order, so
/// a later slice resumes where this one stopped.
pub fn client(
    fx: &Fixture,
    addr: SocketAddr,
    ops: &[ServeOp],
    next: &mut usize,
    deadline: Instant,
    tr: &mut Tracer,
    st: &mut ClientStats,
) {
    while Instant::now() < deadline && *next < ops.len() {
        let op = &ops[*next];
        tr.set_op(*next as u64);
        *next += 1;
        let (group, span) = endpoint(op);
        let (res, secs) = tr.span(span, "vex-serve", |_| send(fx, addr, op));
        let checked =
            res.and_then(|body| tr.span("check", "bench", |_| check(fx, op, &body)).0);
        let mut pushed = None;
        match op {
            ServeOp::Push(t) => {
                st.live.push(t.id.clone());
                pushed = Some(t.source);
            }
            ServeOp::Delete(t) => st.live.retain(|id| *id != t.id),
            _ => {}
        }
        if let Err(e) = &checked {
            st.failures.push(format!("serve {op:?}: {e}"));
        }
        st.samples.push(Sample {
            group,
            secs,
            ok: checked.is_ok(),
            pushed,
            traced: tr.enabled(),
        });
        st.resident_max = st.resident_max.max(fx.server.state().store().resident_bytes());
    }
}

fn target(t: &Target, what: &str, p: Params) -> String {
    format!("/traces/{}/{what}{}", t.id, p.query())
}

/// Issues `op`; returns the response body of a successful request.
fn send(fx: &Fixture, addr: SocketAddr, op: &ServeOp) -> Result<Vec<u8>, String> {
    let get = |path: String| http::expect_ok(addr, &path);
    match op {
        ServeOp::List { .. } => get("/traces".into()),
        ServeOp::Objects(t) => get(format!("/traces/{}/objects", t.id)),
        ServeOp::Kernels(t) => get(format!("/traces/{}/kernels", t.id)),
        ServeOp::Report(t, p) => get(target(t, "report", *p)),
        ServeOp::Flowgraph(t, p) => get(target(t, "flowgraph", *p)),
        ServeOp::Diff { base, opt } => {
            get(format!("/traces/{}/diff/{}", fx.corpus[*base].id, fx.corpus[*opt].id))
        }
        ServeOp::Push(t) => {
            // One attempt: a refused push is a failed request, not a
            // retried one.
            let opts =
                vex_serve::PushOptions { attempts: 1, ..vex_serve::PushOptions::default() };
            vex_serve::push_trace_with(
                &format!("http://{addr}"),
                &t.id,
                &fx.corpus[t.source].bytes,
                &opts,
            )
            .map(String::into_bytes)
            .map_err(|e| e.to_string())
        }
        ServeOp::Delete(t) => {
            match http::request(addr, "DELETE", &format!("/traces/{}", t.id))? {
                (200, body) => Ok(body),
                (status, body) => {
                    Err(format!("DELETE: {status} {}", String::from_utf8_lossy(&body).trim()))
                }
            }
        }
    }
}

/// The `"records": N` value following `"id": "{id}"` in a listing.
fn listed_records(listing: &str, id: &str) -> Option<u64> {
    let at = listing.find(&format!("\"id\": \"{id}\""))?;
    let rest = &listing[at..];
    let rest = &rest[rest.find("\"records\":")? + "\"records\":".len()..];
    let digits: String = rest.trim_start().chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn check(fx: &Fixture, op: &ServeOp, body: &[u8]) -> Result<(), String> {
    let same = |want: &[u8], what: &str| {
        if body == want {
            Ok(())
        } else {
            Err(format!("{what} body differs from the library render"))
        }
    };
    let refs = |t: &Target| &fx.corpus[t.source].refs;
    match op {
        ServeOp::List { live } => {
            let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 listing")?;
            let base = fx.corpus.iter().map(|c| (c.id.clone(), c.records));
            let pushed = live.iter().map(|t| (t.id.clone(), fx.corpus[t.source].records));
            for (id, records) in base.chain(pushed) {
                match listed_records(text, &id) {
                    Some(n) if n == records => {}
                    Some(n) => {
                        return Err(format!("{id} listed with {n} records, want {records}"))
                    }
                    None => return Err(format!("{id} missing from the listing")),
                }
            }
            Ok(())
        }
        ServeOp::Objects(t) => same(&refs(t).objects, "objects"),
        ServeOp::Kernels(t) => same(&refs(t).kernels, "kernels"),
        ServeOp::Report(t, Params::Fine) => same(refs(t).full_text.as_bytes(), "report"),
        ServeOp::Report(t, _) => same(refs(t).coarse_text.as_bytes(), "report"),
        ServeOp::Flowgraph(t, Params::Fine) => same(refs(t).full_dot.as_bytes(), "flowgraph"),
        ServeOp::Flowgraph(t, _) => same(refs(t).coarse_dot.as_bytes(), "flowgraph"),
        ServeOp::Diff { base, opt } => same(fx.diffs[&(*base, *opt)].as_bytes(), "diff"),
        ServeOp::Push(t) => {
            let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 push reply")?;
            let want = fx.corpus[t.source].records;
            match listed_records(text, &t.id) {
                Some(n) if n == want => Ok(()),
                other => Err(format!("push reply lists {other:?} records, want {want}")),
            }
        }
        ServeOp::Delete(_) => Ok(()),
    }
}

/// The `/metrics` counters the benchmark reports as deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub store_decodes: f64,
    pub store_evictions: f64,
    pub shed: f64,
    pub request_errors: f64,
}

impl Counters {
    pub fn scrape(addr: SocketAddr) -> Result<Counters, String> {
        let body = http::expect_ok(addr, "/metrics")?;
        let text = String::from_utf8_lossy(&body);
        let get =
            |name: &str| http::metric(&text, name).ok_or(format!("/metrics lacks {name}"));
        Ok(Counters {
            cache_hits: get("vex_cache_hits_total")?,
            cache_misses: get("vex_cache_misses_total")?,
            store_decodes: get("vex_store_decodes_total")?,
            store_evictions: get("vex_store_evictions_total")?,
            shed: get("vex_requests_shed_total")?,
            request_errors: http::metric_sum(&text, "vex_request_errors_total"),
        })
    }

    pub fn delta(&self, before: &Counters) -> Counters {
        Counters {
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            store_decodes: self.store_decodes - before.store_decodes,
            store_evictions: self.store_evictions - before.store_evictions,
            shed: self.shed - before.shed,
            request_errors: self.request_errors - before.request_errors,
        }
    }
}

/// Deletes the traces a session left pushed, so the served directory
/// holds the corpus alone again.
pub fn cleanup(addr: SocketAddr, ids: &[String]) -> Result<(), String> {
    for id in ids {
        match http::request(addr, "DELETE", &format!("/traces/{id}"))? {
            (200, _) => {}
            (status, _) => return Err(format!("cleanup DELETE {id}: {status}")),
        }
    }
    Ok(())
}
