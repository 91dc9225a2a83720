//! The two workloads.  Each builds the stack, runs its timed phase, checks every
//! reply, and returns its metrics (end-to-end, or per layer when traced).
//!
//! Latency is the nearest-rank p50 and p99 over every sample of a timed phase, which
//! must hold at least [`MIN_SAMPLES`] samples.  Pooling the whole phase averages the
//! host's speed over the run, where a median of windows would pick one window's.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nc_schema::Query;
use nc_serve::{encode_request, JournalEvent, ModelKey, RegistryJournal, ServeRequest};
use nc_workloads::job_light_queries;
use neurocard::ModelArtifact;

use crate::layers;
use crate::loadgen::{self, read_loop, Burst, BurstClient, ReadLoop, Reply, Sample};
use crate::oracle::{references, truths, Verdict};
use crate::refresh::{partition_batches, Refresher, StepTimes};
use crate::report::Outcome;
use crate::schedule::mix;
use crate::stack::{setup, train_tuples_per_s, SetupTimes, Stack, TrainOn, DATA_SEED, MODEL};
use crate::stats::{median, q_error, Summary};
use crate::trace::Tracer;

/// JOB-light queries in the pool every workload draws from.
pub const POOL_QUERIES: usize = 40;
/// Minimum samples of a timed phase, so its p99 has 10 samples beyond it.
pub const MIN_SAMPLES: usize = 1000;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Untimed reads before the first refresh.
const WARMUP_S: f64 = 0.4;
/// A reply later than this after its send is a timeout.
const DEADLINE: Duration = Duration::from_secs(2);
/// Hot swaps timed for `refresh_s` on the workloads that do not retrain.
const SWAPS: usize = 25;

/// Run parameters shared by the workloads.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub started: Instant,
    /// Scratch directory of this run (journals, artifacts), removed at exit.
    pub work: PathBuf,
    /// Where a traced run writes its spans.
    pub spans: PathBuf,
}

/// Sets up [`SETUP_REPS`] times and keeps the last stack; the first set-up is timed from
/// process start.
fn setups(ctx: &Ctx, train_on: TrainOn, tracer: &mut Tracer) -> (Stack, Vec<SetupTimes>) {
    let mut times = Vec::new();
    let mut last: Option<Stack> = None;
    for rep in 0..SETUP_REPS {
        if let Some(stack) = last.take() {
            stack.shutdown();
        }
        let started = if rep == 0 {
            ctx.started
        } else {
            Instant::now()
        };
        let stack = setup(train_on, started, ctx.trace.then_some(&mut *tracer));
        times.push(stack.times.clone());
        last = Some(stack);
    }
    (last.expect("at least one set-up"), times)
}

/// The query pool, drawn from the data the served model was set up on.  For `refresh`
/// that is the first year partition, so every version answers the same queries with
/// the same work and read latency does not drift as the data grows.
fn pool(stack: &Stack) -> Vec<Query> {
    job_light_queries(&stack.trained_on, &stack.schema, POOL_QUERIES, DATA_SEED)
}

fn encode_all(stack: &Stack, queries: &[Query]) -> (Vec<ServeRequest>, Vec<Vec<u8>>) {
    let requests: Vec<ServeRequest> = queries.iter().map(|q| stack.request(q)).collect();
    let frames = loadgen::frames(&requests.iter().map(encode_request).collect::<Vec<_>>());
    (requests, frames)
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Latency of a timed phase; a phase too short for a supported p99 makes the run
/// invalid.
fn latency(out: &mut Outcome, phase: &str, latencies: &[f64]) -> Summary {
    let s = Summary::of(latencies.to_vec()).unwrap_or(Summary {
        n: 0,
        p50: f64::NAN,
        p99: f64::NAN,
        max: f64::NAN,
    });
    if !s.p99_supported() {
        out.invalid(format!("{phase}: {} samples, under {MIN_SAMPLES}", s.n));
    }
    s
}

/// Hot swaps of the served artifact: bytes arrive, are written and fsynced, decoded,
/// journaled as a promotion, swapped in, the old version drains, and a read is answered
/// by the new version.  Returns each swap's seconds.
fn hot_swaps(
    stack: &Stack,
    ctx: &Ctx,
    frames: &[Vec<u8>],
    verdict: &mut Verdict,
    refs: &[u64],
) -> Vec<f64> {
    let (mut journal, _) =
        RegistryJournal::open(ctx.work.join("journal-swaps.jsonl")).expect("open the journal");
    let mut conn = loadgen::connect(stack.addr()).expect("connect for the swap probe");
    (0..SWAPS)
        .map(|k| {
            let pick = k % frames.len();
            let t0 = Instant::now();
            let path = ctx.work.join(format!("swap-{k}.ncar"));
            {
                use std::io::Write;
                let mut f = std::fs::File::create(&path).expect("create the swap artifact");
                f.write_all(&stack.artifact_bytes)
                    .expect("write the swap artifact");
                f.sync_all().expect("fsync the swap artifact");
            }
            let core = ModelArtifact::from_bytes(&stack.artifact_bytes)
                .and_then(|a| a.to_core())
                .expect("the served artifact loads");
            let current = stack
                .registry
                .latest(stack.fingerprint, MODEL)
                .expect("the model is registered");
            let next = ModelKey::new(stack.fingerprint, MODEL, current.version + 1);
            journal
                .append(&JournalEvent::promote(
                    &next,
                    path.to_string_lossy().as_ref(),
                ))
                .expect("journal the promotion");
            let receipt = stack
                .registry
                .swap(stack.fingerprint, MODEL, Arc::new(core))
                .expect("swap the model");
            assert!(stack
                .registry
                .wait_drained(&receipt.old, Duration::from_secs(30)));
            let reply = loadgen::roundtrip(&mut conn, &frames[pick]).expect("read after the swap");
            let elapsed = t0.elapsed().as_secs_f64();
            let reply = loadgen::classify(&reply);
            assert!(
                matches!(reply, Reply::Estimate { version, .. } if version == receipt.new.version),
                "the read after a swap is served by the new version"
            );
            // Every swapped-in version carries the same weights as the first.
            verdict.check(pick, reply, |_| Some(refs[pick]));
            elapsed
        })
        .collect()
}

/// Q-errors of reference estimates against truths.
fn q_errors<'a>(pairs: impl Iterator<Item = (&'a u64, &'a f64)>) -> Summary {
    Summary::of(
        pairs
            .map(|(&bits, &t)| q_error(f64::from_bits(bits), t))
            .collect(),
    )
    .expect("a non-empty pool")
}

/// Metrics every workload reports the same way.
fn common(out: &mut Outcome, times: &[SetupTimes], model_bytes: usize, q: &Summary) {
    out.metric("setup_s", median(times.iter().map(|t| t.total_s)), "s");
    out.metric("qerror_p50", q.p50, "x");
    out.metric("qerror_p99", q.p99, "x");
    out.metric("qerror_max", q.max, "x");
    out.metric("model_bytes", model_bytes as f64, "B");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.note("setup_samples", times.len() as f64);
    out.note("qerror_samples", q.n as f64);
}

/// The timed reads of a phase, their failures and wall time.
struct Phase {
    timed: Vec<Sample>,
    failed: u64,
    wall_s: f64,
}

impl Phase {
    fn throughput(&self) -> f64 {
        self.timed.iter().filter(|s| s.ok()).count() as f64 / self.wall_s
    }
}

/// `timed` samples of a phase starting at `from_ns`: failures and wall time.
fn phase_of(timed: Vec<Sample>, from_ns: u64) -> Phase {
    let failed = timed.iter().filter(|s| !s.ok()).count() as u64;
    let last = timed.iter().map(|s| s.recv_ns).max().unwrap_or(from_ns);
    let wall_s = ((last.saturating_sub(from_ns)) as f64 / 1e9).max(1e-9);
    Phase {
        timed,
        failed,
        wall_s,
    }
}

/// The pool of distinct sub-plans and, per query, the sub-plans of its burst.
fn bursts_of(stack: &Stack, queries: &[Query]) -> (Vec<Query>, Vec<Vec<usize>>) {
    let mut plans: Vec<Query> = Vec::new();
    let mut index: BTreeMap<String, usize> = BTreeMap::new();
    let bursts = queries
        .iter()
        .map(|q| {
            crate::subplans::connected_subplans(q, &stack.schema)
                .into_iter()
                .map(|p| {
                    *index.entry(format!("{p:?}")).or_insert_with(|| {
                        plans.push(p);
                        plans.len() - 1
                    })
                })
                .collect()
        })
        .collect();
    (plans, bursts)
}

fn burst_ok(b: &Burst) -> bool {
    b.replies
        .iter()
        .all(|r| matches!(r, Reply::Estimate { .. }))
}

fn burst_ms(b: &Burst) -> f64 {
    if burst_ok(b) {
        (b.end - b.start).as_secs_f64() * 1e3
    } else {
        f64::INFINITY
    }
}

/// Runs `warm` untimed bursts, then timed ones until both `min_bursts` and `seconds`
/// are reached; returns the timed bursts and their wall time.
#[allow(clippy::too_many_arguments)]
fn run_bursts(
    stack: &Stack,
    frames: &[Vec<u8>],
    bursts: &[Vec<usize>],
    order: &[usize],
    warm: usize,
    min_bursts: usize,
    seconds: f64,
    verdict: &mut Verdict,
    refs: &[u64],
    mut on_burst: impl FnMut(&Burst),
) -> (Vec<Burst>, f64) {
    let mut client = BurstClient::connect(stack.addr(), DEADLINE).expect("connect");
    let mut scratch = Vec::new();
    let mut timed = Vec::new();
    let mut t0 = Instant::now();
    for (k, &q) in order.iter().enumerate() {
        if k == warm {
            t0 = Instant::now();
        }
        let picks = &bursts[q];
        let burst = client.burst(frames, picks, &mut scratch);
        for (&p, &r) in picks.iter().zip(&burst.replies) {
            verdict.check(p, r, |v| (v == 1).then(|| refs[p]));
        }
        if !burst_ok(&burst) {
            // The stream may hold stale replies now; start a clean connection.
            client = BurstClient::connect(stack.addr(), DEADLINE).expect("reconnect");
        }
        if k >= warm {
            on_burst(&burst);
            timed.push(burst);
            if timed.len() >= min_bursts && t0.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    }
    (timed, t0.elapsed().as_secs_f64())
}

/// `plan_burst`: one connection pipelining every connected sub-plan of a query, closed
/// loop.
pub fn plan_burst(ctx: &Ctx) -> Outcome {
    let mut tracer = Tracer::new(ctx.started);
    let (stack, times) = setups(ctx, TrainOn::Full, &mut tracer);
    let queries = pool(&stack);
    let (plans, bursts) = bursts_of(&stack, &queries);
    let truth = truths(&stack.db, &stack.schema, &plans);
    let refs = references(&stack.core, &plans);
    let (requests, frames) = encode_all(&stack, &plans);
    let mut verdict = Verdict::default();
    let mut out = Outcome::default();
    let q = q_errors(refs.iter().zip(&truth));
    let warm = 40;
    let min_bursts = MIN_SAMPLES;
    // Enough cycles of the pool for any run length; the run stops on time.
    let order = mix(ctx.seed, bursts.len(), 1_000_000);

    if ctx.trace {
        // One phase untraced, traced, and untraced again: the untraced phases on both
        // sides cancel the warm-up's order effect.
        let order = &order[..warm + MIN_SAMPLES];
        let plain = |verdict: &mut Verdict| {
            let none = |_: &Burst| {};
            run_bursts(
                &stack,
                &frames,
                &bursts,
                order,
                warm,
                MIN_SAMPLES,
                0.0,
                verdict,
                &refs,
                none,
            )
            .0
        };
        let before = plain(&mut verdict);
        let mut gauges = layers::Gauges::new(&stack);
        let mut spans = Tracer::new(ctx.started);
        let mut prev_end: Option<Instant> = None;
        let mut lag_us = Vec::new();
        let (traced, _) = run_bursts(
            &stack,
            &frames,
            &bursts,
            order,
            warm,
            MIN_SAMPLES,
            0.0,
            &mut verdict,
            &refs,
            |b| {
                let id = spans.spans().len() as u64;
                spans.record("loadgen.burst", id, None, b.start, b.end);
                // The closed loop's lateness: from the last reply to the next burst's send.
                if let Some(p) = prev_end {
                    lag_us.push(b.start.saturating_duration_since(p).as_secs_f64() * 1e6);
                }
                prev_end = Some(b.end);
                gauges.sample(&stack);
            },
        );
        let after = plain(&mut verdict);
        tracer.absorb(spans);
        gauges.report(&stack, &mut out);
        let p50 = |v: &[Burst]| median(v.iter().map(burst_ms));
        layers::lag_p99(&mut out, &lag_us);
        layers::overhead_pct(&mut out, (p50(&before) + p50(&after)) / 2.0, p50(&traced));
        let phases = [&before, &traced, &after];
        let failed = phases
            .iter()
            .flat_map(|p| p.iter())
            .filter(|b| !burst_ok(b))
            .count() as u64;
        let attempted = phases.iter().map(|p| p.len() as u64).sum();
        let served = layers::Served::of(&stack);
        return layers::finish(
            ctx, stack, served, &times, &requests, tracer, out, verdict, attempted, failed, false,
        );
    }

    let (timed, wall) = run_bursts(
        &stack,
        &frames,
        &bursts,
        &order,
        warm,
        min_bursts,
        ctx.seconds,
        &mut verdict,
        &refs,
        |_| {},
    );
    let swaps = hot_swaps(&stack, ctx, &frames, &mut verdict, &refs);
    let lat = latency(
        &mut out,
        "plan_burst",
        &timed.iter().map(burst_ms).collect::<Vec<_>>(),
    );
    let estimates: usize = timed
        .iter()
        .map(|b| {
            b.replies
                .iter()
                .filter(|r| matches!(r, Reply::Estimate { .. }))
                .count()
        })
        .sum();
    let failed = timed.iter().filter(|b| !burst_ok(b)).count() as u64;
    eprintln!(
        "plan_burst: {} bursts ({estimates} estimates) in {wall:.2} s: p50={:.3} ms p99={:.3} ms",
        lat.n, lat.p50, lat.p99
    );
    common(&mut out, &times, stack.artifact_bytes.len(), &q);
    out.metric("latency_p50_ms", lat.p50, "ms");
    out.metric("latency_p99_ms", lat.p99, "ms");
    out.metric("throughput_eps", estimates as f64 / wall, "est/s");
    out.metric("train_tuples_per_s", train_tuples_per_s(&times), "tuples/s");
    out.metric("refresh_s", median(swaps.iter().copied()), "s");
    out.note("latency_samples", lat.n as f64);
    out.note("subplans", plans.len() as f64);
    out.note("refresh_samples", swaps.len() as f64);
    out.attempted = timed.len() as u64;
    out.failed = failed;
    out.finish(&verdict);
    stack.shutdown();
    out
}

/// Refreshes per run (year partitions after the first).
pub const REFRESHES: usize = 6;

/// `refresh`: a year-partition append stream through the retraining pipeline, with a
/// closed-loop reader alongside.
pub fn refresh(ctx: &Ctx) -> Outcome {
    let n_refresh = REFRESHES;
    let mut tracer = Tracer::new(ctx.started);
    let (stack, times) = setups(ctx, TrainOn::FirstOf(n_refresh + 1), &mut tracer);
    let queries = pool(&stack);
    // Truth per snapshot: version `v` is trained on snapshot `v - 1`.
    let truth: Vec<Vec<f64>> = stack
        .snapshots
        .iter()
        .map(|s| truths(s, &stack.schema, &queries))
        .collect();
    let mut refs: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    refs.insert(1, references(&stack.core, &queries));
    let (requests, frames) = encode_all(&stack, &queries);
    let mut refresher = Refresher::new(
        stack.registry.clone(),
        stack.fingerprint,
        MODEL,
        stack.schema.clone(),
        stack.trained_on.clone(),
        partition_batches(&stack.snapshots),
        &ctx.work,
    );
    let mut out = Outcome::default();
    let mut verdict = Verdict::default();

    // One reader client, closed loop: it never queues behind itself whatever the
    // retrain takes from the cores, and it keeps the core it shares with serving busy
    // (a core left idle between reads would time the host's wake-up).  Traced runs
    // first replay it without refreshes, untraced, traced and untraced again, for the
    // tracing overhead.
    let picks = mix(ctx.seed, queries.len(), 1_000_000);
    let addr = stack.addr();
    let max_version = AtomicU64::new(1);
    let reader = |picks: &[usize], stop: &AtomicBool, trace: bool| {
        read_loop(&ReadLoop {
            addr,
            frames: &frames,
            picks,
            deadline: DEADLINE,
            stop,
            max_version: &max_version,
            trace,
        })
    };
    let overhead = ctx.trace.then(|| {
        let never = AtomicBool::new(false);
        let mut p50 = |trace| {
            let (reads, _, _) = reader(&picks[..MIN_SAMPLES], &never, trace);
            for r in &reads {
                verdict.check(r.pick, r.reply, |v| (v == 1).then(|| refs[&1][r.pick]));
            }
            median(reads.iter().map(|r| r.latency_ms()))
        };
        let (before, traced, after) = (p50(false), p50(true), p50(false));
        ((before + after) / 2.0, traced)
    });

    // Reads run from before the first refresh until the last promoted model answers.
    let stop = AtomicBool::new(false);
    let mut gauges = layers::Gauges::new(&stack);
    let (first_step, steps, (samples, spans, start)) = std::thread::scope(|scope| {
        let reads = scope.spawn(|| reader(&picks, &stop, ctx.trace));
        std::thread::sleep(Duration::from_secs_f64(WARMUP_S));
        let first_step = Instant::now();
        let steps: Vec<StepTimes> = (0..n_refresh)
            .map(|_| {
                let step = refresher.step();
                gauges.sample(&stack);
                step
            })
            .collect();
        let last = steps.iter().filter_map(|s| s.version).max().unwrap_or(1);
        let wait = Instant::now();
        while max_version.load(Ordering::SeqCst) < last && wait.elapsed() < DEADLINE * 5 {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::SeqCst);
        let reads = reads.join().expect("the reader thread panicked");
        (first_step, steps, reads)
    });
    let timed_from = first_step.saturating_duration_since(start).as_nanos() as u64;

    // References of every promoted version, loaded back from the promoted artifacts.
    let mut served = layers::Served::of(&stack);
    // Retrain throughput, pooled over the retrains.  The pipeline reports only each
    // retrain's wall time, so this includes its preparation (join counts, layout), well
    // under 1% of it.
    let (mut retrained, mut retrain_s) = (0usize, 0.0f64);
    for st in &steps {
        let Some(v) = st.version else { continue };
        let (core, artifact, tuples) = refresher.promoted_core(v);
        retrained += tuples;
        retrain_s += st.retrain_s;
        refs.insert(v, references(&core, &queries));
        served = layers::Served {
            core: Arc::new(core),
            artifact,
            db: stack.snapshots[(v - 1) as usize].clone(),
        };
    }
    for s in &samples {
        verdict.check(s.pick, s.reply, |v| refs.get(&v).map(|r| r[s.pick]));
    }
    let phase = phase_of(
        samples
            .iter()
            .filter(|s| s.sent_ns >= timed_from)
            .copied()
            .collect(),
        timed_from,
    );
    let not_promoted = steps.iter().filter(|s| s.version.is_none()).count() as u64;

    // Batch arrival to the first read answered by the promoted version.
    let at = |ns: u64| start + Duration::from_nanos(ns);
    let refresh_s: Vec<f64> = steps
        .iter()
        .filter_map(|st| {
            let v = st.version?;
            let first = samples
                .iter()
                .filter(|s| matches!(s.reply, Reply::Estimate { version, .. } if version == v))
                .map(|s| at(s.recv_ns))
                .min()?;
            Some(first.saturating_duration_since(st.handed).as_secs_f64())
        })
        .collect();
    if refresh_s.len() != steps.len() {
        out.invalid(format!(
            "{} of {} refreshes were never seen answering reads",
            steps.len() - refresh_s.len(),
            steps.len()
        ));
    }

    // Q-error of every version that served reads, against the data it was trained on.
    let versions: BTreeSet<u64> = samples
        .iter()
        .filter_map(|s| match s.reply {
            Reply::Estimate { version, .. } => Some(version),
            _ => None,
        })
        .collect();
    let q = q_errors(
        versions
            .iter()
            .filter_map(|v| Some((refs.get(v)?, truth.get((v - 1) as usize)?)))
            .flat_map(|(r, t)| r.iter().zip(t)),
    );

    if let Some((plain_p50, traced_p50)) = overhead {
        tracer.absorb(spans);
        gauges.report(&stack, &mut out);
        let lag_us = tracer
            .self_us_by_name()
            .remove("loadgen.lag")
            .unwrap_or_default();
        layers::lag_p99(&mut out, &lag_us);
        layers::overhead_pct(&mut out, plain_p50, traced_p50);
        layers::pipeline_metrics(&mut out, &steps, &refresher.batches[0], &stack.trained_on);
        let attempted = phase.timed.len() as u64 + steps.len() as u64;
        let failed = phase.failed + not_promoted;
        return layers::finish(
            ctx, stack, served, &times, &requests, tracer, out, verdict, attempted, failed, true,
        );
    }

    let latencies: Vec<f64> = phase.timed.iter().map(Sample::latency_ms).collect();
    let lat = latency(&mut out, "refresh reads", &latencies);
    eprintln!(
        "refresh: {} refreshes ({} promoted), {} reads: p50={:.3} ms p99={:.3} ms, refresh_s={:?}",
        steps.len(),
        steps.len() as u64 - not_promoted,
        lat.n,
        lat.p50,
        lat.p99,
        refresh_s
    );
    common(&mut out, &times, served.artifact.len(), &q);
    out.metric("latency_p50_ms", lat.p50, "ms");
    out.metric("latency_p99_ms", lat.p99, "ms");
    out.metric("throughput_eps", phase.throughput(), "est/s");
    out.metric(
        "train_tuples_per_s",
        retrained as f64 / retrain_s,
        "tuples/s",
    );
    out.metric("refresh_s", median(refresh_s.iter().copied()), "s");
    out.note("latency_samples", lat.n as f64);
    out.note("refreshes", steps.len() as f64);
    out.note("refresh_samples", refresh_s.len() as f64);
    out.attempted = phase.timed.len() as u64 + steps.len() as u64;
    out.failed = phase.failed + not_promoted;
    out.finish(&verdict);
    stack.shutdown();
    out
}
