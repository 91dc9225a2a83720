//! Untimed ground truth: true cardinalities for q-error, and the in-process reference
//! estimate every served estimate must match bit for bit.

use nc_schema::{JoinSchema, Query};
use nc_storage::Database;
use neurocard::{EstimatorCore, SamplerScratch};

use crate::loadgen::Reply;

/// True cardinality of each query (floored at one row).
pub fn truths(db: &Database, schema: &JoinSchema, queries: &[Query]) -> Vec<f64> {
    queries
        .iter()
        .map(|q| (nc_exec::true_cardinality(db, schema, q) as f64).max(1.0))
        .collect()
}

/// The core's Exact estimate of each query at its default budget, as raw bits.
pub fn references(core: &EstimatorCore, queries: &[Query]) -> Vec<u64> {
    let mut scratch = SamplerScratch::new();
    let samples = core.config().progressive_samples;
    queries
        .iter()
        .map(|q| {
            core.try_estimate_with_samples_scratch(q, samples, &mut scratch)
                .unwrap_or_else(|e| panic!("reference estimate of {q}: {e}"))
                .to_bits()
        })
        .collect()
}

/// Checks of served replies against the references.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Replies that carried an estimate.
    pub estimates: u64,
    /// Estimates that were not finite, negative, degraded, from an unknown version, or
    /// not bit-identical to the reference.
    pub wrong: u64,
}

impl Verdict {
    /// Checks one reply for pool entry `pick`; `reference(version)` gives the reference
    /// bits of that version, if the version is known.
    pub fn check(&mut self, pick: usize, reply: Reply, reference: impl Fn(u64) -> Option<u64>) {
        let Reply::Estimate {
            version,
            bits,
            degraded,
        } = reply
        else {
            return;
        };
        self.estimates += 1;
        let value = f64::from_bits(bits);
        let ok = !degraded && value.is_finite() && value >= 0.0 && reference(version) == Some(bits);
        if !ok {
            self.wrong += 1;
            eprintln!("wrong estimate for pool entry {pick} from version {version}: {value}");
        }
    }
}
