//! One end-to-end benchmark for served NeuroCard.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <plan_burst|refresh> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root.  The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.  The line before it is the
//! run's record: the environment stamp, the frozen workload constants and the sample
//! counts.  The exit code is 0 only when every served estimate was correct.

mod layers;
mod loadgen;
mod oracle;
mod refresh;
mod report;
mod schedule;
mod stack;
mod stats;
mod subplans;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use report::{json_number, Outcome, END_TO_END, PER_LAYER};
use workloads::Ctx;

const WORKLOADS: [&str; 2] = ["plan_burst", "refresh"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace is 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// The commit of the checkout, when it is a git repository.
fn git_commit() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&Path::new(".git").join(r))
            .or_else(|| {
                read(Path::new(".git/packed-refs"))?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split(' ').next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The record line: environment stamp, frozen constants, and the run's sample counts.
fn record(args: &Args, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fields = [
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("kernel_isa", json_str(nc_nn::kernel::isa_name())),
        ("simd_feature", cfg!(feature = "simd").to_string()),
        (
            "profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_commit", json_str(&git_commit())),
        ("title_rows", stack::TITLE_ROWS.to_string()),
        ("train_tuples", stack::TRAIN_TUPLES.to_string()),
        ("progressive_samples", stack::SAMPLES.to_string()),
        ("pool_queries", workloads::POOL_QUERIES.to_string()),
        ("refreshes", workloads::REFRESHES.to_string()),
    ];
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .chain(out.notes.iter().map(|(k, v)| (k.clone(), json_number(*v))))
        .map(|(k, v)| format!("{}: {v}", json_str(&k)))
        .collect();
    format!("{{\"record\": {{{}}}}}", body.join(", "))
}

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let work =
        PathBuf::from(".perfbench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let out_dir = PathBuf::from(".perfbench_out");
    for dir in [&work, &out_dir] {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("perfbench: cannot create {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        started,
        work: work.clone(),
        spans: out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed)),
    };
    let mut out = match args.workload.as_str() {
        "plan_burst" => workloads::plan_burst(&ctx),
        _ => workloads::refresh(&ctx),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");

    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let problems = out.problems(expected);
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    if !problems.is_empty() {
        out.correct = false;
    }
    if !out.correct {
        eprintln!("perfbench: the run is not correct (see above and the record)");
    }
    println!("{}", record(&args, &out));
    println!("{}", out.result_line(expected));
    std::process::exit(if out.correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&args("--workload refresh --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("refresh", 7, 12, true)
        );
        assert!(parse_args(&args("--workload nope --seed 7 --seconds 12 --trace 0")).is_err());
        assert!(parse_args(&args("--workload refresh --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload refresh --seed 7 --seconds 3 --trace 2")).is_err());
        assert!(parse_args(&args("--workload refresh --seconds 3 --trace 0")).is_err());
    }
}
