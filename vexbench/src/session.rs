//! One measured session: the three phases interleaved in short rounds.
//!
//! Each round gives collect, replay and serve their workload's share of
//! the round, and each phase resumes its op list where its last slice
//! stopped. Interleaving spreads every phase's samples over the whole
//! measured time, so a phase is not timed in one stretch that a busy
//! neighbour on a shared host happens to slow down.

use crate::collect::{self, CollectStats};
use crate::fixture::Fixture;
use crate::gen::{self, Plan};
use crate::replay::{self, ReplayStats};
use crate::serve::{self, ClientStats, Counters};
use crate::spans::Tracer;
use crate::stats::PerInput;
use std::time::{Duration, Instant};

/// Length of one round of the three phases, seconds.
const ROUND_S: f64 = 2.5;

pub struct Session {
    pub collect: CollectStats,
    pub replay: ReplayStats,
    /// One per load connection.
    pub clients: Vec<ClientStats>,
    /// The serve clients' spans, one tracer per client.
    pub client_tracers: Vec<Tracer>,
    /// Wall time of the serve slices, seconds.
    pub serve_s: f64,
    /// `/metrics` deltas over the session.
    pub counters: Counters,
    /// Epoch-relative bounds of every slice, and whether it was traced.
    pub slices: Vec<(f64, f64, bool)>,
    /// Per round, seconds to hash a fixed buffer: how fast the host ran
    /// the round, to read drift between runs by. Not a metric.
    pub host_reference: Vec<f64>,
}

/// Bytes the host reference hashes.
const REFERENCE_BYTES: usize = 1 << 20;

impl Session {
    /// Runs `seconds` of rounds split by `shares` (collect, replay,
    /// serve), then completes one pass of the collect and replay inputs
    /// if the rounds did not. `tr` times the collect and replay ops. With
    /// `traced`, every second round records spans, so traced and
    /// untraced ops alternate through the session and their difference
    /// is the tracing overhead.
    pub fn run(
        fx: &Fixture,
        plan: &Plan,
        shares: [f64; 3],
        seconds: f64,
        traced: bool,
        tr: &mut Tracer,
        epoch: Instant,
    ) -> Result<Session, String> {
        let addr = fx.server.addr();
        let before = Counters::scrape(addr)?;
        let clients = plan.serve.len();
        let mut s = Session {
            collect: CollectStats::default(),
            replay: ReplayStats::default(),
            clients: (0..clients).map(|_| ClientStats::default()).collect(),
            client_tracers: (0..clients).map(|c| Tracer::new(false, epoch, c + 1)).collect(),
            serve_s: 0.0,
            counters: Counters::default(),
            slices: Vec::new(),
            host_reference: Vec::new(),
        };
        let reference = vec![0x5au8; REFERENCE_BYTES];
        let (mut next_collect, mut next_replay) = (0, 0);
        let mut next_serve = vec![0; clients];
        let rounds = (seconds / ROUND_S).ceil().max(1.0) as usize;
        let end = Instant::now() + Duration::from_secs_f64(seconds);
        let now = || epoch.elapsed().as_secs_f64();
        for round in 0..rounds {
            // Each round gets an equal part of the time left, so ops that
            // run past a slice's deadline do not stretch the session.
            let left = end.saturating_duration_since(Instant::now());
            let slice = |share: f64| left.mul_f64(share / (rounds - round) as f64);
            let on = traced && round % 2 == 1;
            tr.set_enabled(on);
            for t in &mut s.client_tracers {
                t.set_enabled(on);
            }
            let t0 = Instant::now();
            std::hint::black_box(vex_core::sha256::sha256(std::hint::black_box(&reference)));
            s.host_reference.push(t0.elapsed().as_secs_f64());
            let start = now();
            let deadline = Instant::now() + slice(shares[0]);
            collect::run(&plan.collect, &mut next_collect, deadline, 0, tr, &mut s.collect);
            let mid = now();
            let deadline = Instant::now() + slice(shares[1]);
            replay::run(fx, &plan.replay, &mut next_replay, deadline, 0, tr, &mut s.replay);
            s.slices.extend([(start, mid, on), (mid, now(), on)]);

            let start = now();
            let t0 = Instant::now();
            let deadline = t0 + slice(shares[2]);
            std::thread::scope(|scope| {
                let each = s.clients.iter_mut().zip(&mut s.client_tracers).zip(&mut next_serve);
                for (((st, ctr), next), ops) in each.zip(&plan.serve) {
                    scope.spawn(move || serve::client(fx, addr, ops, next, deadline, ctr, st));
                }
            });
            s.serve_s += t0.elapsed().as_secs_f64();
            s.slices.push((start, now(), on));
        }
        tr.set_enabled(false);
        let start = now();
        let past = Instant::now();
        collect::run(
            &plan.collect,
            &mut next_collect,
            past,
            gen::APPS.len(),
            tr,
            &mut s.collect,
        );
        replay::run(
            fx,
            &plan.replay,
            &mut next_replay,
            past,
            plan.replay_round(),
            tr,
            &mut s.replay,
        );
        s.slices.push((start, now(), false));

        s.counters = Counters::scrape(addr)?.delta(&before);
        for c in &s.clients {
            serve::cleanup(addr, &c.live)?;
        }
        Ok(s)
    }

    pub fn samples(&self) -> impl Iterator<Item = &serve::Sample> {
        self.clients.iter().flat_map(|c| &c.samples)
    }

    /// Latency of every request in `group` (all requests for `None`).
    pub fn latencies(&self, group: Option<&str>) -> Vec<f64> {
        self.samples()
            .filter(|s| group.is_none_or(|want| s.group == want))
            .map(serve::Sample::latency)
            .collect()
    }

    /// Successful pushes per corpus trace, with the trace's bytes as the
    /// work.
    pub fn pushes(&self, fx: &Fixture) -> PerInput<usize> {
        let mut p = PerInput::default();
        for x in self.samples().filter(|x| x.ok) {
            if let Some(i) = x.pushed {
                p.add(i, fx.corpus[i].bytes.len() as u64, x.secs);
            }
        }
        p
    }

    pub fn requests(&self) -> usize {
        self.clients.iter().map(|c| c.samples.len()).sum()
    }

    pub fn attempted(&self) -> usize {
        self.collect.ops + self.replay.ops + self.requests()
    }

    pub fn failures(&self) -> impl Iterator<Item = &String> {
        self.collect
            .failures
            .iter()
            .chain(&self.replay.failures)
            .chain(self.clients.iter().flat_map(|c| &c.failures))
    }
}
