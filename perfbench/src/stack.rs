//! The served stack, built the way a deployment builds it: generate the data, train,
//! round-trip the artifact through bytes, register it, start the TCP front-end, and
//! answer a first request.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use nc_datagen::{job_light_database, job_light_schema, partitioned_snapshots, DataGenConfig};
use nc_schema::{JoinSchema, Query};
use nc_serve::{encode_request, ModelRegistry, ModelSelector, ServeRequest, TcpServer};
use nc_storage::Database;
use neurocard::{schema_fingerprint, EstimatorCore, ModelArtifact, NeuroCard, NeuroCardConfig};

use crate::loadgen::{connect, frames, roundtrip};
use crate::trace::Tracer;

/// Seed of the data, the model and the update stream.  Fixed, so that accuracy metrics
/// and model size repeat exactly across workload seeds; `--seed` drives the requests.
pub const DATA_SEED: u64 = 42;
/// Rows of the synthetic `title` table.
pub const TITLE_ROWS: usize = 800;
/// Training tuples of every model build (set-up and retrains): enough that the set-ups
/// and the refreshes, and the reads timed beside them, average the host's speed over
/// several seconds each.
pub const TRAIN_TUPLES: usize = 16_000;
/// The model's default progressive-sample budget (requests carry none).
pub const SAMPLES: usize = 64;
/// Name the model is served under.
pub const MODEL: &str = "neurocard";
/// Year partitions of `title` for the refresh stream.
pub const PARTITION_COLUMN: &str = "production_year";

pub fn model_config() -> NeuroCardConfig {
    NeuroCardConfig {
        training_tuples: TRAIN_TUPLES,
        progressive_samples: SAMPLES,
        // One sampler thread keeps up with the trainer (the stall share stays near 0),
        // so a retrain takes about one core and leaves the other to serving.
        sampler_threads: 1,
        prefetch_depth: 1,
        seed: DATA_SEED,
        ..NeuroCardConfig::default()
    }
}

pub fn datagen_config() -> DataGenConfig {
    DataGenConfig {
        seed: DATA_SEED,
        title_rows: TITLE_ROWS,
        ..DataGenConfig::default()
    }
}

/// What the model is trained on at set-up.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum TrainOn {
    /// The whole database.
    Full,
    /// The first of `n` cumulative year partitions (the refresh stream appends the rest).
    FirstOf(usize),
}

/// Wall times of one set-up, in seconds.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Start of the set-up to the first answered request.
    pub total_s: f64,
    pub tuples: usize,
    /// Training critical path: waiting for sampled batches, and computing on them.
    pub sampling_s: f64,
    pub training_s: f64,
}

impl SetupTimes {
    /// Share of the training critical path spent waiting for sampled batches.
    pub fn stall_share(&self) -> f64 {
        self.sampling_s / (self.sampling_s + self.training_s)
    }
}

/// Training throughput of several set-ups: their tuples over their training critical
/// path (waiting for sampled batches plus computing on them), without the builds'
/// preparation.  Pooled, so the host's speed is averaged over every set-up.
pub fn train_tuples_per_s(times: &[SetupTimes]) -> f64 {
    let tuples: usize = times.iter().map(|t| t.tuples).sum();
    let seconds: f64 = times.iter().map(|t| t.sampling_s + t.training_s).sum();
    tuples as f64 / seconds
}

/// A running served stack.
pub struct Stack {
    /// The full database (the last snapshot when partitioned).
    pub db: Arc<Database>,
    pub schema: Arc<JoinSchema>,
    /// Cumulative snapshots when set up with [`TrainOn::FirstOf`].
    pub snapshots: Vec<Arc<Database>>,
    /// The database the served model was trained on.
    pub trained_on: Arc<Database>,
    pub artifact_bytes: Vec<u8>,
    pub core: Arc<EstimatorCore>,
    pub registry: Arc<ModelRegistry>,
    pub server: TcpServer,
    pub fingerprint: u64,
    pub times: SetupTimes,
}

impl Stack {
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    pub fn selector(&self) -> ModelSelector {
        ModelSelector::latest(self.fingerprint, MODEL)
    }

    /// A request as the workloads send it: Exact tier, the model's default budget.
    pub fn request(&self, query: &Query) -> ServeRequest {
        ServeRequest::new(self.selector(), query.clone())
    }

    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Builds the stack.  `started` is when this set-up began (process start for the first
/// one).  With a tracer, each phase is also recorded as a span under a `setup` root.
pub fn setup(train_on: TrainOn, started: Instant, mut tracer: Option<&mut Tracer>) -> Stack {
    let root = tracer.as_deref_mut().map(|t| t.open("setup", 0, None));
    let mut span = |name: &'static str, t0: Instant, t1: Instant| {
        if let Some(t) = tracer.as_deref_mut() {
            t.record(name, 0, root, t0, t1);
        }
        (t1 - t0).as_secs_f64()
    };

    let t0 = Instant::now();
    let db = Arc::new(job_light_database(&datagen_config()));
    let schema = Arc::new(job_light_schema());
    let (snapshots, trained_on) = match train_on {
        TrainOn::Full => (Vec::new(), db.clone()),
        TrainOn::FirstOf(n) => {
            let snaps: Vec<Arc<Database>> =
                partitioned_snapshots(&db, &schema, PARTITION_COLUMN, n)
                    .into_iter()
                    .map(Arc::new)
                    .collect();
            let first = snaps[0].clone();
            (snaps, first)
        }
    };
    span("datagen.build", t0, Instant::now());

    let t0 = Instant::now();
    let model = NeuroCard::build(trained_on.clone(), schema.clone(), &model_config());
    span("model.build", t0, Instant::now());
    let stats = model.stats().clone();

    let t0 = Instant::now();
    let artifact_bytes = model.to_artifact().to_bytes().to_vec();
    span("artifact.encode", t0, Instant::now());
    drop(model);

    let t0 = Instant::now();
    let core = Arc::new(
        ModelArtifact::from_bytes(&artifact_bytes)
            .and_then(|a| a.to_core())
            .expect("the just-written artifact loads"),
    );
    span("artifact.decode", t0, Instant::now());

    let t0 = Instant::now();
    let registry = Arc::new(ModelRegistry::new());
    registry
        .register_core(MODEL, core.clone())
        .expect("a fresh registry accepts the model");
    let server = TcpServer::bind(registry.clone(), "127.0.0.1:0").expect("bind loopback");
    span("serve.start", t0, Instant::now());

    let t0 = Instant::now();
    let fingerprint = schema_fingerprint(&schema);
    let probe = frames(&[encode_request(&ServeRequest::new(
        ModelSelector::latest(fingerprint, MODEL),
        Query::join(&["title"]),
    ))]);
    let first = connect(server.local_addr())
        .and_then(|mut s: TcpStream| roundtrip(&mut s, &probe[0]))
        .expect("the server answers its first request");
    assert!(
        matches!(nc_serve::decode_result(&first), Ok(Ok(_))),
        "the first request is answered with an estimate"
    );
    span("serve.first_request", t0, Instant::now());
    let total_s = started.elapsed().as_secs_f64();
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root);
    }

    Stack {
        db,
        schema,
        snapshots,
        trained_on,
        artifact_bytes,
        core,
        registry,
        server,
        fingerprint,
        times: SetupTimes {
            total_s,
            tuples: stats.tuples_trained,
            sampling_s: stats.sampling_time.as_secs_f64(),
            training_s: stats.training_time.as_secs_f64(),
        },
    }
}
