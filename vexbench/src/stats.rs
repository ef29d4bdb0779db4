//! Order statistics and per-input rates.

use std::collections::BTreeMap;

/// Nearest-rank percentile; `INFINITY` entries (failed requests) sort
/// last. 0 for an empty sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Timed samples of one kind of op, per input. The rate over one pass of
/// every input — total work ÷ the sum of each input's median time — does
/// not depend on how often the run happened to draw each input, and one
/// slow sample cannot move it.
#[derive(Debug)]
pub struct PerInput<K> {
    inputs: BTreeMap<K, (u64, Vec<f64>)>,
}

impl<K> Default for PerInput<K> {
    fn default() -> Self {
        PerInput { inputs: BTreeMap::new() }
    }
}

impl<K: Ord> PerInput<K> {
    /// One op on `input`, which does `work` units in `secs`.
    pub fn add(&mut self, input: K, work: u64, secs: f64) {
        let e = self.inputs.entry(input).or_insert((work, Vec::new()));
        e.0 = work;
        e.1.push(secs);
    }

    /// One pass of every input: total work units and the sum of the
    /// inputs' median times, seconds.
    pub fn one_pass(&self) -> (u64, f64) {
        let work = self.inputs.values().map(|(w, _)| w).sum();
        let secs = self.inputs.values().map(|(_, t)| median(t)).sum();
        (work, secs)
    }

    pub fn ops(&self) -> usize {
        self.inputs.values().map(|(_, t)| t.len()).sum()
    }

    pub fn total_secs(&self) -> f64 {
        self.inputs.values().flat_map(|(_, t)| t).sum()
    }

    /// How much longer the median op of each input took in `traced` than
    /// here, summed over the inputs both saw, with the sum of this side's
    /// medians as the base: `(difference, base)`, seconds.
    pub fn slowdown(&self, traced: &PerInput<K>) -> (f64, f64) {
        let (mut diff, mut base) = (0.0, 0.0);
        for (k, (_, plain)) in &self.inputs {
            if let Some((_, t)) = traced.inputs.get(k) {
                diff += median(t) - median(plain);
                base += median(plain);
            }
        }
        (diff, base)
    }

    /// Base counts: ops, inputs, and one pass's work and time.
    pub fn summary(&self, unit: &str) -> String {
        let (work, secs) = self.one_pass();
        format!(
            "{} ops over {} inputs, one pass {work} {unit} in {secs:.4} s",
            self.ops(),
            self.inputs.len()
        )
    }
}
