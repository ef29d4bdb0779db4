//! `collect`: profiling at run time. Each op takes one bundled app, at
//! its seeded size, through an unprofiled run, `vex record --fine` into
//! memory, and a live coarse+fine profile with its report rendered.

use crate::gen::AppSpec;
use crate::spans::Tracer;
use crate::stats::PerInput;
use std::time::Instant;
use vex_core::prelude::*;
use vex_gpu::runtime::Runtime;
use vex_gpu::timing::DeviceSpec;
use vex_workloads::Variant;

#[derive(Debug, Default)]
pub struct CollectStats {
    pub ops: usize,
    /// Access records collected, counted once per op.
    pub records: u64,
    pub trace_bytes: u64,
    /// Per app, with its records as the work: the unprofiled run, the
    /// record op, and the live profile op.
    pub gpu: PerInput<&'static str>,
    pub record: PerInput<&'static str>,
    pub profile: PerInput<&'static str>,
    /// Per app, record plus profile time — the op's end-to-end part —
    /// in untraced (`[0]`) and traced (`[1]`) rounds.
    pub e2e: [PerInput<&'static str>; 2],
    pub failures: Vec<String>,
}

fn builder() -> ProfilerBuilder {
    ValueExpert::builder().coarse(true).fine(true)
}

/// Runs `apps[*next..]` in order, advancing `next`, until `deadline`
/// and at least up to op `min_next`. The list wraps around.
pub fn run(
    apps: &[AppSpec],
    next: &mut usize,
    deadline: Instant,
    min_next: usize,
    tr: &mut Tracer,
    st: &mut CollectStats,
) {
    while *next < min_next || Instant::now() < deadline {
        let spec = &apps[*next % apps.len()];
        tr.set_op(*next as u64);
        if let Err(e) = tr.span("collect.op", "bench", |tr| one(spec, tr, st)).0 {
            st.failures.push(format!("collect {}: {e}", spec.name));
        }
        st.ops += 1;
        *next += 1;
    }
}

fn one(spec: &AppSpec, tr: &mut Tracer, st: &mut CollectStats) -> Result<(), String> {
    let app = spec.build();
    let spec_dev = DeviceSpec::rtx2080ti();
    let (plain, gpu_s) = tr.span("gpu.run", "vex-gpu", |_| {
        let mut rt = Runtime::new(spec_dev.clone());
        app.run(&mut rt, Variant::Baseline)
    });
    let plain = plain.map_err(|e| e.to_string())?;

    let (recorded, record_s) = tr.span("trace.record", "vex-trace", |_| {
        let mut rt = Runtime::new(spec_dev.clone());
        let rec = builder().record(&mut rt, Vec::new()).map_err(|e| e.to_string())?;
        let out = app.run(&mut rt, Variant::Baseline).map_err(|e| e.to_string())?;
        let records = rec.stats().events;
        let bytes = rec.finish(&mut rt).map_err(|e| e.to_string())?;
        Ok::<_, String>((out, records, bytes.len() as u64))
    });
    let (rec_out, records, bytes) = recorded?;

    let (live, live_s) = tr.span("core.live", "vex-core", |_| {
        let mut rt = Runtime::new(spec_dev.clone());
        let vex = builder().attach(&mut rt);
        let out = app.run(&mut rt, Variant::Baseline).map_err(|e| e.to_string())?;
        let records = vex.collector_stats().events;
        Ok::<_, String>((out, records, vex.report(&rt)))
    });
    let (live_out, live_records, profile) = live?;
    let traced = tr.enabled();
    let mut text_s = 0.0;
    tr.span("core.render", "vex-core", |tr| {
        let (text, s) =
            tr.span("core.render_text", "vex-core", |_| profile.render_text_document());
        text_s = s;
        std::hint::black_box(text.len());
        if traced {
            std::hint::black_box(profile.to_json().map(|j| j.len()).unwrap_or(0));
            std::hint::black_box(profile.render_dot_document(None).len());
        }
    });

    st.gpu.add(spec.name, records, gpu_s);
    st.record.add(spec.name, records, record_s);
    st.profile.add(spec.name, records, live_s + text_s);
    st.records += records;
    st.trace_bytes += bytes;
    st.e2e[usize::from(traced)].add(spec.name, records, record_s + live_s + text_s);

    tr.span("check", "bench", |_| {
        if !rec_out.matches(&plain) {
            return Err(format!(
                "output under the recorder {rec_out:?} != unprofiled {plain:?}"
            ));
        }
        if !live_out.matches(&plain) {
            return Err(format!(
                "output under the profiler {live_out:?} != unprofiled {plain:?}"
            ));
        }
        if live_records != records {
            return Err(format!("profiler saw {live_records} records, recorder {records}"));
        }
        Ok(())
    })
    .0
}
