//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload attack-stream|audit-stream|sweep-timed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload builds its inputs from `--seed`, repeats one fixed unit
//! of work (a *pass*) for `--seconds`, checks every pass's outputs, and
//! prints the medians over passes. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced and traced passes and
//! reports the per-layer metrics. The last line of standard output is
//! the result object; the line before it is the run record (host, seed,
//! budget, build profile, output digests). The process exits 1 when any
//! correctness check fails and 2 on bad arguments. See `README.md` for
//! the workloads and what each metric should move.

mod attack_stream;
mod audit_stream;
mod common;
mod report;
mod sweep_timed;
mod trace;

use common::Ctx;
use rcoal_bench::PeakAlloc;
use rcoal_scenario::json::{ObjBuilder, Value};
use report::{layer_table, result_line, Metrics, Tally};
use std::path::{Path, PathBuf};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

const USAGE: &str = "usage: perfbench --workload attack-stream|audit-stream|sweep-timed \
                     --seed N --seconds S --trace 0|1";

/// Scratch directory (relative to the working directory) for stores and
/// span dumps.
const WORK_DIR: &str = ".perfbench";

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    common::WORKLOADS
                        .iter()
                        .copied()
                        .find(|w| w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed must be a whole number, got {value:?}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("--seconds must be a number, got {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Ctx {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
        threads: rcoal_parallel::resolve_threads(None),
        work_dir: PathBuf::from(WORK_DIR),
    })
}

/// The commit the working directory is checked out at, read from
/// `.git` without spawning git; `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&git.join(refname)) {
        return rev.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(refname).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut record = common::Record::default();
    let mut tracer = trace::Tracer::new(ctx.traced);
    let run = match ctx.workload {
        "attack-stream" => attack_stream::run,
        "audit-stream" => audit_stream::run,
        _ => sweep_timed::run,
    };
    if let Err(msg) = run(&ctx, &mut tally, &mut metrics, &mut record, &mut tracer) {
        tally.error(msg);
    }

    if ctx.traced {
        print!("{}", layer_table(&metrics));
        let path = ctx
            .work_dir
            .join(format!("trace-{}-seed{}.json", ctx.workload, ctx.seed));
        let written = std::fs::create_dir_all(&ctx.work_dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json()));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let host = ObjBuilder::new()
        .field("workload", Value::str(ctx.workload))
        .field("seed", Value::u64(ctx.seed))
        .field("traced", Value::Bool(ctx.traced))
        .field("nproc", Value::usize(nproc))
        .field("threads", Value::usize(ctx.threads))
        .field("git_rev", Value::str(git_rev()))
        .field(
            "profile",
            Value::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        )
        .build();
    println!("record {}", record.finish(host).to_json());
    for failure in &tally.failures {
        eprintln!("perfbench: FAILED: {failure}");
    }
    println!("{}", result_line(&tally, &metrics, ctx.traced));
    std::process::exit(i32::from(tally.failed > 0));
}
