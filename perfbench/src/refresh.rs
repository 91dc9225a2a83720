//! The refresh path: an append stream of year partitions feeding `nc_pipeline::Pipeline`,
//! with every milestone timestamped from the pipeline's observer.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nc_pipeline::{Pipeline, PipelineConfig, PipelineEvent, UpdateBatch, UpdateSource};
use nc_schema::JoinSchema;
use nc_serve::{ModelKey, ModelRegistry, RegistryJournal, SharedJournal};
use nc_storage::{Database, Value};
use neurocard::{EstimatorCore, ModelArtifact};

use crate::stack::{model_config, DATA_SEED};

/// Drift fires when a profile moves this far (standardised); each appended year
/// partition of the refresh stream moves a column by well over this (0.25 or more), so
/// every batch fires and is retrained.
pub const SHIFT_THRESHOLD: f64 = 0.1;
/// Promotion gate: a candidate trained on the fresh snapshot is promoted unless its
/// median shadow q-error is over four times the stale incumbent's.  The workload
/// measures the refresh path, so the gate rejects only clearly broken candidates; at
/// this training budget two models of one snapshot differ by up to about 2x.
pub const PROMOTE_MARGIN: f64 = 0.25;

/// Rows of snapshot `k + 1` not in snapshot `k`, per table (multiset difference), for
/// each consecutive pair.  Snapshots are cumulative, so applying the batches in order
/// to the first snapshot reproduces the last one's rows.
pub fn partition_batches(snapshots: &[Arc<Database>]) -> Vec<UpdateBatch> {
    snapshots
        .windows(2)
        .enumerate()
        .map(|(k, pair)| {
            let mut names = pair[1].table_names();
            names.sort_unstable();
            let mut rows = Vec::new();
            for name in names {
                let (old, new) = (pair[0].expect_table(name), pair[1].expect_table(name));
                let mut seen: BTreeMap<String, usize> = BTreeMap::new();
                for r in 0..old.num_rows() {
                    *seen.entry(row_key(&row(old, r))).or_default() += 1;
                }
                for r in 0..new.num_rows() {
                    let values = row(new, r);
                    match seen.get_mut(&row_key(&values)) {
                        Some(n) if *n > 0 => *n -= 1,
                        _ => rows.push((name.to_string(), values)),
                    }
                }
            }
            UpdateBatch {
                step: k as u64 + 1,
                rows,
            }
        })
        .collect()
}

fn row(table: &nc_storage::Table, r: usize) -> Vec<Value> {
    table.columns().iter().map(|c| c.value(r)).collect()
}

fn row_key(values: &[Value]) -> String {
    format!("{values:?}")
}

/// Hands out the partition batches in order, noting when each was handed out.
pub struct PartitionSource {
    batches: std::collections::VecDeque<UpdateBatch>,
    handed: Arc<Mutex<Vec<Instant>>>,
}

impl UpdateSource for PartitionSource {
    fn next_batch(&mut self) -> Option<UpdateBatch> {
        let batch = self.batches.pop_front()?;
        self.handed
            .lock()
            .expect("no thread panics holding the hand-out log")
            .push(Instant::now());
        Some(batch)
    }
}

/// Milestones of one refresh, from the batch arriving to the old model draining.
#[derive(Debug, Clone)]
pub struct StepTimes {
    pub handed: Instant,
    pub started: Instant,
    pub drift_checked: Instant,
    pub shadow_compared: Option<Instant>,
    pub journaled: Option<Instant>,
    pub promoted: Option<Instant>,
    pub drained: Option<Instant>,
    pub retrain_s: f64,
    /// The promoted version, when the step promoted.
    pub version: Option<u64>,
}

impl StepTimes {
    fn ms(a: Instant, b: Option<Instant>) -> Option<f64> {
        b.map(|b| b.saturating_duration_since(a).as_secs_f64() * 1e3)
    }

    /// Ingest plus drift check (the pipeline reports no milestone in between).
    pub fn ingest_detect_ms(&self) -> f64 {
        (self.drift_checked - self.started).as_secs_f64() * 1e3
    }

    /// Drift check to shadow verdict, minus the retrain.
    pub fn shadow_ms(&self) -> Option<f64> {
        Self::ms(self.drift_checked, self.shadow_compared).map(|ms| ms - self.retrain_s * 1e3)
    }

    /// Shadow verdict to swap done: artifact write and fsync, journal append, swap.
    pub fn promote_ms(&self) -> Option<f64> {
        Self::ms(self.shadow_compared?, self.promoted)
    }

    pub fn swap_us(&self) -> Option<f64> {
        Self::ms(self.journaled?, self.promoted).map(|ms| ms * 1e3)
    }

    pub fn drain_ms(&self) -> Option<f64> {
        Self::ms(self.promoted?, self.drained)
    }
}

/// A pipeline over a served model plus the hand-out log of its update stream.
pub struct Refresher {
    pub pipeline: Pipeline<PartitionSource>,
    handed: Arc<Mutex<Vec<Instant>>>,
    registry: Arc<ModelRegistry>,
    fingerprint: u64,
    model: String,
    pub artifact_dir: PathBuf,
    pub batches: Vec<UpdateBatch>,
}

impl Refresher {
    /// Builds the control plane for `model` (already registered) over `base`, to be fed
    /// `batches`; artifacts and the journal go under `dir`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        registry: Arc<ModelRegistry>,
        fingerprint: u64,
        model: &str,
        schema: Arc<JoinSchema>,
        base: Arc<Database>,
        batches: Vec<UpdateBatch>,
        dir: &Path,
    ) -> Self {
        let artifact_dir = dir.join(format!("artifacts-{model}"));
        std::fs::create_dir_all(&artifact_dir).expect("create the artifact directory");
        let (journal, _) = RegistryJournal::open(dir.join(format!("journal-{model}.jsonl")))
            .expect("open the registry journal");
        let mut config = PipelineConfig::new(DATA_SEED, &artifact_dir).with_model_name(model);
        config.model = model_config();
        config.shift_threshold = SHIFT_THRESHOLD;
        config.mirror_per_mille = 1000;
        config.promote_margin = PROMOTE_MARGIN;
        let handed = Arc::new(Mutex::new(Vec::new()));
        let source = PartitionSource {
            batches: batches.clone().into(),
            handed: handed.clone(),
        };
        let pipeline = Pipeline::new(
            config,
            registry.clone(),
            Some(SharedJournal::new(journal)),
            schema,
            base,
            source,
        )
        .expect("the incumbent is registered");
        Refresher {
            pipeline,
            handed,
            registry,
            fingerprint,
            model: model.to_string(),
            artifact_dir,
            batches,
        }
    }

    /// Runs one refresh, then waits for the superseded version to drain.
    pub fn step(&mut self) -> StepTimes {
        let started = Instant::now();
        let mut drift_checked = None;
        let mut shadow_compared = None;
        let mut journaled = None;
        let mut promoted = None;
        let mut version = None;
        let report = self
            .pipeline
            .step_with(&mut |event| {
                let now = Instant::now();
                match event {
                    PipelineEvent::DriftChecked { .. } => drift_checked = Some(now),
                    PipelineEvent::ShadowCompared(_) => shadow_compared = Some(now),
                    PipelineEvent::PromotionJournaled(_) => journaled = Some(now),
                    PipelineEvent::Promoted(key) => {
                        promoted = Some(now);
                        version = Some(key.version);
                    }
                    _ => {}
                }
            })
            .expect("a refresh step completes");
        eprintln!(
            "refresh step {}: +{} rows, drift {} (median q-error {:.3} vs baseline {:.3}, shift {:.3}), {}",
            report.step,
            report.ingested_rows,
            if report.drift_fired { "fired" } else { "quiet" },
            report.median_qerr,
            report.baseline_qerr,
            report.shift,
            report
                .promoted
                .as_deref()
                .map(|k| format!("promoted {k}"))
                .or_else(|| report.retired.clone())
                .unwrap_or_else(|| "no candidate".into())
        );
        let drained = version.map(|v| {
            let old = ModelKey::new(self.fingerprint, self.model.as_str(), v - 1);
            assert!(
                self.registry.wait_drained(&old, Duration::from_secs(30)),
                "the superseded version drains"
            );
            Instant::now()
        });
        let handed = *self
            .handed
            .lock()
            .expect("no thread panics holding the hand-out log")
            .last()
            .expect("every step takes a batch");
        StepTimes {
            handed,
            started,
            drift_checked: drift_checked.expect("every step checks drift"),
            shadow_compared,
            journaled,
            promoted,
            drained,
            retrain_s: report.retrain_wall_us as f64 / 1e6,
            version,
        }
    }

    /// Path of the artifact the pipeline promoted as `version`.
    pub fn promoted_artifact(&self, version: u64) -> PathBuf {
        self.artifact_dir
            .join(format!("{}-v{version}.ncar", self.model))
    }

    /// Loads the promoted `version` back from disk, with its bytes and the tuples its
    /// retrain trained on.
    pub fn promoted_core(&self, version: u64) -> (EstimatorCore, Vec<u8>, usize) {
        let bytes =
            std::fs::read(self.promoted_artifact(version)).expect("read a promoted artifact");
        let artifact = ModelArtifact::from_bytes(&bytes).expect("a promoted artifact loads");
        let core = artifact.to_core().expect("a promoted artifact loads");
        (core, bytes, artifact.manifest().tuples_trained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{setup, TrainOn, MODEL};
    use crate::workloads::REFRESHES;

    /// The refresh workload's stream, as the benchmark runs it: every batch fires drift
    /// and every candidate is promoted, and the batches rebuild the full database.
    #[test]
    fn every_refresh_promotes() {
        let dir = std::env::temp_dir().join(format!("perfbench-refresh-{}", std::process::id()));
        let stack = setup(TrainOn::FirstOf(REFRESHES + 1), Instant::now(), None);
        let batches = partition_batches(&stack.snapshots);
        assert_eq!(batches.len(), REFRESHES);
        let mut db: Option<Database> = None;
        for b in &batches {
            db = Some(nc_pipeline::apply_batch(
                db.as_ref().unwrap_or(&stack.trained_on),
                b,
            ));
        }
        let db = db.expect("at least one batch");
        for name in stack.db.table_names() {
            assert_eq!(
                db.expect_table(name).num_rows(),
                stack.db.expect_table(name).num_rows(),
                "{name}"
            );
        }
        let mut refresher = Refresher::new(
            stack.registry.clone(),
            stack.fingerprint,
            MODEL,
            stack.schema.clone(),
            stack.trained_on.clone(),
            batches,
            &dir,
        );
        for k in 0..REFRESHES {
            let step = refresher.step();
            assert_eq!(step.version, Some(k as u64 + 2), "refresh {k} promotes");
            assert!(step.drained.is_some());
            // The promoted artifact is on disk and loads.
            refresher.promoted_core(k as u64 + 2);
        }
        stack.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
