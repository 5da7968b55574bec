//! The standing macro benchmark of graphsi. See `benchmark/README.md`.
//!
//! ```text
//! run.sh                       all four workloads, results to out/results.json
//! run.sh --trace               the same, then a traced run of each: per-layer metrics
//! run.sh --smoke               tiny graph, short windows, every path, under a minute
//! run.sh compare <a> <b>       verdict per (end-to-end metric, workload)
//! run.sh spec                  BENCHMARK.json, from the tables in spec.rs
//! run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                              one run; the last stdout line is the result object
//! ```

mod checks;
mod compare;
mod driver;
mod embedded;
mod gen;
mod json;
mod metrics;
mod probes;
mod spec;
mod stats;
mod trace;
mod wire;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use checks::Check;
use driver::Pace;
use json::Json;
use spec::{Metric, RUN_SECONDS, SMOKE_PERSONS, WORKLOADS};
use workload::{RunConfig, RunResult};

struct Args {
    bench_dir: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    /// `compare` / `spec` and their operands.
    command: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bench_dir: PathBuf::from("benchmark"),
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        out: None,
        command: Vec::new(),
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--bench-dir" => args.bench_dir = PathBuf::from(value("--bench-dir")?),
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 600")?;
                seconds_given = true;
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => args.smoke = true,
            // Bare `--trace` asks for the traced runs; the builder's driver
            // passes `--trace 0` or `--trace 1`.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "compare" | "spec" if args.command.is_empty() => {
                args.command.push(arg);
                args.command.extend(it.by_ref());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.smoke && !seconds_given {
        args.seconds = 2;
    }
    // The smoke run exists to exercise every path, the traced one included.
    if args.smoke && args.workload.is_none() {
        args.trace = true;
    }
    Ok(args)
}

fn metric_json(values: &[(&'static Metric, f64)]) -> Json {
    Json::obj(values.iter().map(|(m, value)| {
        (
            m.name,
            Json::obj([("value", Json::from(*value)), ("unit", Json::from(m.unit))]),
        )
    }))
}

fn check_json(c: &Check) -> Json {
    Json::obj([
        ("name", Json::from(c.name)),
        ("ok", Json::from(c.ok)),
        ("detail", Json::from(c.detail.as_str())),
    ])
}

/// Everything one run measured, for `results.json`.
fn detail_json(r: &RunResult) -> Json {
    let e = &r.end_to_end;
    let mut pairs = vec![
        ("valid", Json::from(r.valid())),
        ("attempted", Json::from(e.attempted)),
        ("failed", Json::from(e.failed)),
        (
            "failed_frac",
            Json::from(e.failed as f64 / e.attempted.max(1) as f64),
        ),
        ("crash_recovery", check_json(&r.crash_recovery)),
        ("end_to_end", metric_json(&e.values)),
        (
            "samples",
            Json::obj([
                ("reads", Json::from(e.reads.sorted_ns.len() as u64)),
                ("writes", Json::from(e.writes.sorted_ns.len() as u64)),
                ("read_tail_percentile", Json::from(e.reads.tail)),
                ("write_tail_percentile", Json::from(e.writes.tail)),
                (
                    "committed_by_second",
                    Json::arr(e.committed_by_second.iter().copied()),
                ),
                ("setup_s", Json::arr(r.setup_s.iter().copied())),
                ("reopen_s", Json::arr(r.reopen_s.iter().copied())),
                ("gc_runs", Json::from(r.gc_runs as u64)),
                ("checkpoints", Json::from(r.checkpoints as u64)),
            ]),
        ),
        ("checks", Json::arr(r.checks.iter().map(check_json))),
    ];
    if let Some(layers) = &r.per_layer {
        pairs.push(("per_layer", metric_json(layers)));
        pairs.push((
            "self_time_share",
            Json::obj(r.self_time.iter().map(|(n, s)| (*n, Json::from(*s)))),
        ));
        pairs.push(("spans_dropped", Json::from(r.spans_dropped)));
    }
    Json::obj(pairs)
}

/// `name unit value` for every metric, then sample counts and checks.
fn print_run(name: &str, args: &Args, r: &RunResult) {
    let e = &r.end_to_end;
    println!(
        "# {name} seed={} window={}s trace={} smoke={}",
        args.seed, args.seconds, args.trace as u8, args.smoke
    );
    let print = |prefix: &str, values: &[(&'static Metric, f64)]| {
        for (m, value) in values {
            println!("{prefix}{} {} {value}", m.name, m.unit);
        }
    };
    match &r.per_layer {
        None => print("", &e.values),
        Some(layers) => {
            print("", layers);
            // End-to-end numbers always come from the untraced run; these
            // are shown only to see what tracing costs.
            print("traced.", &e.values);
            for (span, share) in &r.self_time {
                println!("self_time_share.{span} frac {share:.4}");
            }
            if r.spans_dropped > 0 {
                println!("spans_dropped count {}", r.spans_dropped);
            }
        }
    }
    let pct = |p: f64| format!("p{}", (p * 100.0).round());
    println!(
        "samples attempted={} failed={} reads={} writes={} read_tail={} write_tail={} setups={} reopens={} gc_runs={} checkpoints={}",
        e.attempted,
        e.failed,
        e.reads.sorted_ns.len(),
        e.writes.sorted_ns.len(),
        pct(e.reads.tail),
        pct(e.writes.tail),
        r.setup_s.len(),
        r.reopen_s.len(),
        r.gc_runs,
        r.checkpoints
    );
    for c in &r.checks {
        println!(
            "check {} {} {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    let c = &r.crash_recovery;
    println!(
        "probe {} {} {}",
        c.name,
        if c.ok {
            "ok"
        } else {
            "FAILED (reported, not gating: see benchmark/README.md)"
        },
        c.detail
    );
}

fn detail_path(out_dir: &Path, workload: &str, trace: bool) -> PathBuf {
    out_dir.join(format!(
        "run-{workload}{}.json",
        if trace { "-traced" } else { "" }
    ))
}

/// One workload in this process; the last stdout line is the result object.
fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    let workload = spec::workload(name).ok_or_else(|| {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; there are {}", known.join(", "))
    })?;
    let out_dir = args.bench_dir.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let window = Duration::from_secs(args.seconds);
    let result = workload::run(&RunConfig {
        workload,
        persons: if args.smoke {
            SMOKE_PERSONS
        } else {
            workload.persons
        },
        seed: args.seed,
        pace: if args.smoke {
            Pace::smoke(window)
        } else {
            Pace::standard(window)
        },
        trace: args.trace,
        out_dir: out_dir.clone(),
    })?;
    print_run(name, args, &result);
    std::fs::write(
        detail_path(&out_dir, name, args.trace),
        format!("{:#}\n", detail_json(&result)),
    )
    .map_err(|e| format!("writing the run's detail: {e}"))?;
    let e = &result.end_to_end;
    let metrics = metric_json(result.per_layer.as_ref().unwrap_or(&e.values));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::from(result.valid())),
            ("attempted", Json::from(e.attempted.max(1))),
            ("failed", Json::from(e.failed)),
            ("metrics", metrics),
        ])
    );
    Ok(result.valid())
}

fn shell(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn meta_json(args: &Args) -> Json {
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::from(nproc as u64)),
        (
            "loadavg_1m_at_start",
            loadavg.map_or(Json::Null, Json::from),
        ),
        ("window_s", Json::from(args.seconds)),
        ("seed", Json::from(args.seed)),
        ("smoke", Json::from(args.smoke)),
        (
            "git_commit",
            shell(
                "git",
                &["-C", &args.bench_dir.to_string_lossy(), "rev-parse", "HEAD"],
            )
            .map_or(Json::Null, Json::from),
        ),
    ])
}

/// Every workload, each run in a fresh child process; with `--trace`, a
/// second, traced child per workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out_dir = args.bench_dir.join("out");
    let meta = meta_json(args);
    let mut all_valid = true;
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        let mut detail = None;
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            let mut child = Command::new(&exe);
            child
                .arg("--bench-dir")
                .arg(&args.bench_dir)
                .args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.smoke {
                child.arg("--smoke");
            }
            // The child's lines are passed on, bar the closing result
            // object; its detail file carries the numbers back.
            let output = child
                .output()
                .map_err(|e| format!("starting {}: {e}", w.name))?;
            for line in String::from_utf8_lossy(&output.stdout).lines() {
                if !line.starts_with('{') {
                    println!("{line}");
                }
            }
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            all_valid &= output.status.success();
            let path = detail_path(&out_dir, w.name, trace);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let run = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            match &mut detail {
                None => detail = Some(run),
                Some(untraced) => merge_traced(w.name, untraced, &run),
            }
        }
        workloads.push((w.name, detail.expect("the untraced run always happens")));
    }
    let results = Json::obj([("meta", meta), ("workloads", Json::obj(workloads))]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join("results.json"));
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(&path, format!("{results:#}\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# results written to {}", path.display());
    Ok(all_valid)
}

/// Folds a traced run into its workload's entry: the per-layer metrics,
/// the self-time shares, and what tracing cost.
fn merge_traced(name: &str, untraced: &mut Json, traced: &Json) {
    let tput = |run: &Json| {
        run.get("end_to_end")?
            .get("tput_tps")?
            .get("value")?
            .as_f64()
    };
    let overhead = match (tput(untraced), tput(traced)) {
        (Some(u), Some(t)) if u > 0.0 => 1.0 - t / u,
        _ => f64::NAN,
    };
    println!("# {name}: trace.overhead_frac frac {overhead:.4}");
    let Json::Obj(pairs) = untraced else { return };
    for key in ["per_layer", "self_time_share", "spans_dropped"] {
        if let Some(v) = traced.get(key) {
            pairs.push((key.to_owned(), v.clone()));
        }
    }
    pairs.push(("trace.overhead_frac".to_owned(), Json::from(overhead)));
    let valid = traced.get("valid") == Some(&Json::Bool(true));
    if !valid {
        for (k, v) in pairs.iter_mut() {
            if k == "valid" {
                *v = Json::Bool(false);
            }
        }
        if let Some(checks) = traced.get("checks") {
            pairs.push(("traced_checks".to_owned(), checks.clone()));
        }
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match args.command.first().map(String::as_str) {
        Some("spec") => {
            println!("{:#}", spec::benchmark_json());
            Ok(true)
        }
        Some("compare") => match &args.command[1..] {
            [a, b] => compare::compare(
                &args.bench_dir.join("..").join("BENCHMARK.json"),
                Path::new(a),
                Path::new(b),
            )
            .map(|rows| compare::print(&rows)),
            _ => Err("usage: run.sh compare <a.json|dir> <b.json|dir>".into()),
        },
        _ => match &args.workload {
            Some(name) => run_one(&args, name),
            None => run_all(&args),
        },
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("graphsi-macrobench: {message}");
            ExitCode::from(2)
        }
    }
}
