//! Command line of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <replay|live|sockets|all> --seed N --seconds S --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The exit code is non-zero when any check failed.

use std::process::{Command, ExitCode};
use std::time::Duration;

use dtrack_benchmark::{
    live, peak_rss_mib, per_layer_metrics, replay, sockets, write_spans, Args, Report, END_TO_END,
};

/// A run that has not finished by then counts as hung.
const HANG_LIMIT: Duration = Duration::from_secs(170);

const WORKLOADS: &[&str] = &["replay", "live", "sockets"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// `nproc`, the CPU model and the source commit, for the record.
fn machine() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("machine: nproc {nproc}, cpu {cpu}; commit {}", commit())
}

fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({r})")),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".into(),
    }
}

fn run_one(args: &Args) -> ExitCode {
    std::thread::spawn(|| {
        std::thread::sleep(HANG_LIMIT);
        println!(
            "hang: the run did not finish within {} s",
            HANG_LIMIT.as_secs()
        );
        println!("{}", result_line(false, 1, 1, &[]));
        std::process::exit(3);
    });
    let mut r = Report::default();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        match args.workload.as_str() {
            "replay" => replay::run(args.seed, args.seconds, args.trace, &mut r),
            "live" => live::run(args.seed, args.seconds, args.trace, &mut r),
            "sockets" => sockets::run(args.seed, args.seconds, args.trace, &mut r),
            _ => unreachable!("validated"),
        }
        r
    }));
    let mut r = match run {
        Ok(r) => r,
        Err(_) => {
            println!("panic: the {} workload panicked", args.workload);
            println!("{}", result_line(false, 1, 1, &[]));
            return ExitCode::from(4);
        }
    };
    // Set by the workload after its first rounds; a run that stopped
    // before them reads it now.
    if !r.metrics.contains_key("peak_rss_mib") {
        r.set("peak_rss_mib", peak_rss_mib());
    }
    let share = r.checks.failed as f64 / r.checks.attempted.max(1) as f64;
    r.set("failed_share", share);

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("{}", machine());
    for n in &r.notes {
        println!("{n}");
    }
    if args.trace {
        if let Some(note) = write_spans(&args.workload, args.seed) {
            println!("{note}");
        }
    }
    let printed: Vec<(String, f64, &str)> = if args.trace {
        per_layer_metrics()
            .into_iter()
            .map(|(n, u)| {
                let v = r.metrics.get(&n).copied().unwrap_or(0.0);
                (n, v, u)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| {
                (
                    n.to_string(),
                    r.metrics.get(n).copied().unwrap_or(f64::NAN),
                    u,
                )
            })
            .collect()
    };
    println!("metrics:");
    for (n, v, u) in &printed {
        println!("  {n:<40} {v:>16.6} {u}");
    }
    if !args.trace {
        for (n, u) in [
            ("drain_ms", "ms"),
            ("max_err_ratio", "ratio"),
            ("failed_share", "ratio"),
        ] {
            println!(
                "  {n:<40} {:>16.6} {u}",
                r.metrics.get(n).copied().unwrap_or(0.0)
            );
        }
    }
    for m in &r.checks.messages {
        println!("FAILED: {m}");
    }
    let correct = r.checks.failed == 0;
    println!(
        "{}",
        result_line(
            correct,
            r.checks.attempted.max(1),
            r.checks.failed,
            &printed
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--workload all`: each workload in its own process (so `VmHWM` is
/// per workload), then one combined result.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("spawn a workload process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        correct &= out.status.success();
        let last = stdout.lines().last().unwrap_or("");
        attempted += field(last, "\"attempted\": ").unwrap_or(0.0) as u64;
        failed += field(last, "\"failed\": ").unwrap_or(1.0) as u64;
        metrics.push((
            format!("{w}.exit_code"),
            out.status.code().unwrap_or(-1) as f64,
            "code",
        ));
    }
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn field(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
