//! Per-layer metrics of the traced run, each taken by timing calls to that layer's
//! public functions from the benchmark's own code.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nc_datagen::{job_light_database, partitioned_snapshots};
use nc_nn::InferenceScratch;
use nc_pipeline::apply_batch;
use nc_sampler::{JoinCounts, JoinSampler, WideLayout};
use nc_schema::SubsetPlan;
use nc_serve::{
    decode_request, encode_request, encode_result, JournalEvent, ModelKey, RegistryJournal,
    ServeRequest,
};
use nc_storage::Database;
use neurocard::{
    EncodedLayout, EstimatorCore, ModelArtifact, NeuroCard, Precision, SamplerScratch,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::loadgen;
use crate::oracle::Verdict;
use crate::refresh::{partition_batches, Refresher, StepTimes};
use crate::report::Outcome;
use crate::stack::{
    datagen_config, model_config, SetupTimes, Stack, DATA_SEED, PARTITION_COLUMN, SAMPLES,
};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::workloads::{Ctx, REFRESHES};

/// Requests replayed one at a time for the request-path layers (enough for a p99).
const REPLAYS: usize = 1000;
/// Repetitions of each model-layer measurement (the median is reported).
const REPS: usize = 9;
/// Tuples per sampler measurement.
const SAMPLED: usize = 1024;

/// Reactor gauges sampled while load runs.
pub struct Gauges {
    queue_depth_max: usize,
    overloaded0: u64,
    served0: u64,
}

impl Gauges {
    pub fn new(stack: &Stack) -> Self {
        let s = stack.server.stats();
        Gauges {
            queue_depth_max: 0,
            overloaded0: s.overloaded,
            served0: s.served,
        }
    }

    pub fn sample(&mut self, stack: &Stack) {
        self.queue_depth_max = self.queue_depth_max.max(stack.server.stats().queue_depth);
    }

    pub fn report(&self, stack: &Stack, out: &mut Outcome) {
        let s = stack.server.stats();
        out.metric(
            "reactor.queue_depth_max",
            self.queue_depth_max as f64,
            "count",
        );
        out.metric(
            "reactor.overloaded",
            (s.overloaded - self.overloaded0) as f64,
            "count",
        );
        out.metric("reactor.served", (s.served - self.served0) as f64, "count");
    }
}

/// p99 of the generator's lateness, in microseconds.
pub fn lag_p99(out: &mut Outcome, lag_us: &[f64]) {
    let s = Summary::of(lag_us.to_vec()).expect("the traced phase ran");
    out.metric("loadgen.lag_p99_us", s.p99, "us");
}

/// Traced minus untraced median of the same unit of work, as a share of the untraced
/// (the mean of the untraced phases run before and after the traced one).
pub fn overhead_pct(out: &mut Outcome, plain_p50: f64, traced_p50: f64) {
    out.metric(
        "trace.overhead_pct",
        (traced_p50 - plain_p50) / plain_p50 * 100.0,
        "%",
    );
}

/// The model serving when the traced run replays requests, with the bytes and the
/// data it was built from.
pub struct Served {
    pub core: Arc<EstimatorCore>,
    pub artifact: Vec<u8>,
    pub db: Arc<Database>,
}

impl Served {
    /// The model a stack was set up with.
    pub fn of(stack: &Stack) -> Self {
        Served {
            core: stack.core.clone(),
            artifact: stack.artifact_bytes.clone(),
            db: stack.trained_on.clone(),
        }
    }
}

/// Model sub-columns `request` constrains: its filter columns, one indicator per joined
/// table and one fanout column per omitted table, each counted by its sub-columns.  An
/// upper bound on the forward calls of one estimate.
fn constrained_subcolumns(served: &Served, request: &ServeRequest) -> usize {
    let encoded = served.core.encoded();
    let layout = encoded.layout();
    let plan = SubsetPlan::build(served.core.schema(), &request.query);
    let mut wide: Vec<usize> = request
        .query
        .filters
        .iter()
        .filter_map(|f| layout.index_of(&f.table, &f.column))
        .chain(
            plan.joined_tables
                .iter()
                .filter_map(|t| layout.indicator_index(t)),
        )
        .chain(
            plan.downscales()
                .filter_map(|(_, key)| layout.fanout_index(key)),
        )
        .collect();
    wide.sort_unstable();
    wide.dedup();
    wide.iter().map(|&i| encoded.subcolumns_of(i).len()).sum()
}

/// Protocol, registry, inference and reactor: each workload request replayed alone,
/// over TCP and then layer by layer in process.
fn request_layers(
    stack: &Stack,
    served: &Served,
    requests: &[ServeRequest],
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let mut conn = loadgen::connect(stack.addr()).expect("connect for the replay");
    let mut scratch = SamplerScratch::new();
    let mut rtt_overhead_us = Vec::with_capacity(REPLAYS);
    let base = 1u64 << 32;
    for k in 0..REPLAYS {
        let req = &requests[k % requests.len()];
        let id = base + k as u64;
        let client = tracer.open("request", id, None);
        let (payload, _) = tracer.time("protocol.encode_request", id, Some(client), || {
            encode_request(req)
        });
        let frame = &loadgen::frames(std::slice::from_ref(&payload))[0];
        let (reply, rtt) = tracer.time("reactor.roundtrip", id, Some(client), || {
            loadgen::roundtrip(&mut conn, frame).expect("replayed request answered")
        });
        tracer.time("protocol.decode_result", id, Some(client), || {
            loadgen::classify(&reply)
        });
        tracer.close(client);

        // The same request through the server's layers in process; the round trip
        // minus these is the reactor's share, by construction.
        let server = tracer.open("server", id, None);
        let (decoded, d1) = tracer.time("protocol.decode_request", id, Some(server), || {
            decode_request(&payload).expect("the request decodes")
        });
        let (result, d2) = tracer.time("registry.handle", id, Some(server), || {
            stack.registry.handle(&decoded, &mut scratch)
        });
        let (_, d3) = tracer.time("protocol.encode_result", id, Some(server), || {
            encode_result(&result)
        });
        tracer.close(server);
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        rtt_overhead_us.push(us(rtt) - us(d1) - us(d2) - us(d3));

        tracer.time("registry.acquire", id, None, || {
            drop(
                stack
                    .registry
                    .acquire(&req.selector)
                    .expect("the model is registered"),
            )
        });
        tracer.time("infer.estimate", id, None, || {
            served
                .core
                .try_estimate_with_samples_scratch_precision(
                    &req.query,
                    SAMPLES,
                    &mut scratch,
                    Precision::Exact,
                )
                .expect("workload queries estimate")
        });
    }
    let by_name = tracer.self_us_by_name();
    let self_us = |name: &str| by_name.get(name).cloned().expect("span recorded");
    out.metric(
        "protocol.encode_request_us",
        median(self_us("protocol.encode_request")),
        "us",
    );
    out.metric(
        "protocol.decode_request_us",
        median(self_us("protocol.decode_request")),
        "us",
    );
    out.metric(
        "protocol.encode_result_us",
        median(self_us("protocol.encode_result")),
        "us",
    );
    out.metric(
        "registry.acquire_us",
        median(self_us("registry.acquire")),
        "us",
    );
    let handle = Summary::of(self_us("registry.handle")).expect("replays ran");
    out.metric("registry.handle_us_p50", handle.p50, "us");
    out.metric("registry.handle_us_p99", handle.p99, "us");
    let infer = Summary::of(self_us("infer.estimate")).expect("replays ran");
    out.metric("infer.estimate_us_p50", infer.p50, "us");
    out.metric("infer.estimate_us_p99", infer.p99, "us");
    out.metric("reactor.rtt_overhead_us", median(rtt_overhead_us), "us");
    let sub: usize = requests
        .iter()
        .map(|r| constrained_subcolumns(served, r))
        .sum();
    out.metric(
        "infer.constrained_subcolumns",
        sub as f64 / requests.len() as f64,
        "count",
    );
    out.note("replays", REPLAYS as f64);
}

/// Records `REPS` spans called `name` around `f`; returns their median in microseconds.
fn repeat(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    for _ in 0..REPS {
        tracer.time(name, 0, None, &mut f);
    }
    median(
        tracer
            .self_us_by_name()
            .remove(name)
            .expect("spans recorded"),
    )
}

/// Neural network, sampler, artifact, journal and data generation, each timed alone.
fn model_layers(
    ctx: &Ctx,
    stack: &Stack,
    served: &Served,
    times: &[SetupTimes],
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let model = served.core.model();
    let cols = model.num_columns();
    let mask: Vec<u32> = (0..cols).map(|j| model.mask_token(j)).collect();
    let mut nn = InferenceScratch::new();
    for (name, rows) in [
        ("nn.forward_us_rows1", 1usize),
        ("nn.forward_us_rowsN", SAMPLES),
    ] {
        let tokens: Vec<u32> = mask.iter().copied().cycle().take(cols * rows).collect();
        // One span is a pass over every model column; the metric is per column.
        let pass_us = repeat(tracer, name, || {
            for col in 0..cols {
                std::hint::black_box(model.conditional_probs_into(&tokens, col, &mut nn));
            }
        });
        out.metric(name, pass_us / cols as f64, "us");
    }

    let db = &served.db;
    let us = repeat(tracer, "sampler.join_counts", || {
        std::hint::black_box(JoinCounts::compute(db, &stack.schema));
    });
    out.metric("sampler.join_counts_ms", us / 1e3, "ms");

    let sampler = JoinSampler::new(db.clone(), stack.schema.clone());
    // The served layout came from artifact metadata and cannot materialise rows; the
    // trainer's own layout is rebuilt from the database the same way.
    let config = model_config();
    let encoded = EncodedLayout::build(
        db,
        &stack.schema,
        WideLayout::without_join_keys(db, &stack.schema),
        config.fact_bits,
    );
    let mut rng = StdRng::seed_from_u64(DATA_SEED);
    let mut targets = Vec::new();
    let us = repeat(tracer, "sampler.sample_encode", || {
        let samples = sampler.sample_many(&mut rng, SAMPLED);
        let rows = encoded.layout().materialize_batch(db, &samples);
        targets = encoded.encode_batch(&rows);
    });
    out.metric(
        "sampler.tuples_per_s",
        SAMPLED as f64 / (us / 1e6),
        "tuples/s",
    );

    let mut trainable = model.clone();
    targets.truncate(config.batch_size);
    let us = repeat(tracer, "nn.train_step", || {
        std::hint::black_box(trainable.forward_backward(&targets, &targets));
    });
    out.metric("nn.train_step_ms", us / 1e3, "ms");

    let artifact = ModelArtifact::from_bytes(&served.artifact).expect("the artifact loads");
    let us = repeat(tracer, "artifact.encode", || {
        std::hint::black_box(artifact.to_bytes());
    });
    out.metric("artifact.encode_ms", us / 1e3, "ms");
    let us = repeat(tracer, "artifact.decode", || {
        let core = ModelArtifact::from_bytes(&served.artifact)
            .and_then(|a| a.to_core())
            .expect("the artifact loads");
        std::hint::black_box(core);
    });
    out.metric("artifact.decode_ms", us / 1e3, "ms");
    out.metric("artifact.bytes", served.artifact.len() as f64, "B");

    let (mut journal, _) =
        RegistryJournal::open(ctx.work.join("journal-probe.jsonl")).expect("open the journal");
    let key = ModelKey::new(stack.fingerprint, "probe", 2);
    let us = repeat(tracer, "journal.append", || {
        journal
            .append(&JournalEvent::promote(&key, "probe.ncar"))
            .expect("append to the journal");
    });
    out.metric("journal.append_ms", us / 1e3, "ms");

    let us = repeat(tracer, "datagen.build", || {
        std::hint::black_box(job_light_database(&datagen_config()));
    });
    out.metric("datagen.build_ms", us / 1e3, "ms");
    out.metric(
        "train.stall_share",
        median(times.iter().map(|t| t.stall_share())),
        "ratio",
    );
}

/// Pipeline and swap metrics from refresh steps (medians over the steps).
pub fn pipeline_metrics(
    out: &mut Outcome,
    steps: &[StepTimes],
    first_batch: &nc_pipeline::UpdateBatch,
    base: &Database,
) {
    let ingest_ms = median((0..REPS).map(|_| {
        let t0 = Instant::now();
        std::hint::black_box(apply_batch(base, first_batch));
        t0.elapsed().as_secs_f64() * 1e3
    }));
    let promoted: Vec<&StepTimes> = steps.iter().filter(|s| s.version.is_some()).collect();
    // With no promoted step these read NaN, which makes the run invalid.
    let over = |f: &dyn Fn(&StepTimes) -> Option<f64>| {
        let v: Vec<f64> = promoted.iter().filter_map(|s| f(s)).collect();
        if v.is_empty() {
            f64::NAN
        } else {
            median(v)
        }
    };
    out.metric("pipeline.ingest_ms", ingest_ms, "ms");
    out.metric(
        "pipeline.detect_ms",
        median(steps.iter().map(|s| s.ingest_detect_ms() - ingest_ms)),
        "ms",
    );
    out.metric(
        "pipeline.retrain_s",
        median(steps.iter().map(|s| s.retrain_s)),
        "s",
    );
    out.metric("pipeline.shadow_ms", over(&|s| s.shadow_ms()), "ms");
    out.metric("pipeline.promote_ms", over(&|s| s.promote_ms()), "ms");
    out.metric("registry.swap_us", over(&|s| s.swap_us()), "us");
    out.metric("registry.drain_ms", over(&|s| s.drain_ms()), "ms");
}

/// One refresh on a side model: the first refresh of the `refresh` workload's stream,
/// served from the same registry under another name.
fn refresh_probe(ctx: &Ctx, stack: &Stack, out: &mut Outcome) -> bool {
    let snapshots: Vec<Arc<Database>> =
        partitioned_snapshots(&stack.db, &stack.schema, PARTITION_COLUMN, REFRESHES + 1)
            .into_iter()
            .take(2)
            .map(Arc::new)
            .collect();
    let incumbent =
        NeuroCard::build(snapshots[0].clone(), stack.schema.clone(), &model_config()).core();
    stack
        .registry
        .register_core("probe", incumbent)
        .expect("register the side model");
    let batches = partition_batches(&snapshots);
    let mut refresher = Refresher::new(
        stack.registry.clone(),
        stack.fingerprint,
        "probe",
        stack.schema.clone(),
        snapshots[0].clone(),
        batches.clone(),
        &ctx.work,
    );
    let step = refresher.step();
    let promoted = step.version.is_some();
    pipeline_metrics(out, &[step], &batches[0], &snapshots[0]);
    promoted
}

/// Finishes a traced run: the layer replays, and one refresh unless the workload ran
/// its own.  Writes the spans out and returns the per-layer result.
#[allow(clippy::too_many_arguments)]
pub fn finish(
    ctx: &Ctx,
    stack: Stack,
    served: Served,
    times: &[SetupTimes],
    requests: &[ServeRequest],
    mut tracer: Tracer,
    mut out: Outcome,
    verdict: Verdict,
    mut attempted: u64,
    mut failed: u64,
    refreshed: bool,
) -> Outcome {
    request_layers(&stack, &served, requests, &mut tracer, &mut out);
    model_layers(ctx, &stack, &served, times, &mut tracer, &mut out);
    if !refreshed {
        attempted += 1;
        if !refresh_probe(ctx, &stack, &mut out) {
            failed += 1;
        }
    }
    out.attempted = attempted;
    out.failed = failed;
    out.finish(&verdict);
    tracer.write_jsonl(&ctx.spans).expect("write the spans");
    out.note("spans", tracer.spans().len() as f64);
    stack.shutdown();
    out
}
