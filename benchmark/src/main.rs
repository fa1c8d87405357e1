//! The MUVE benchmark: how long a spoken query waits for its multiplot,
//! and where that time goes.
//!
//! ```text
//! muve-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! muve-benchmark [--seed N] [--seconds S | --quick] [--out FILE]
//! muve-benchmark --list
//! muve-benchmark compare BASE.json CANDIDATE.json
//! ```
//!
//! With `--workload` it runs that workload once in this process and prints
//! each metric by name, then one JSON object on the last line (the form
//! `BENCHMARK.json` describes). Without it, it runs every workload - both
//! `--trace` modes, each in a fresh child process so `peak_rss_mb` is the
//! workload's own - and writes one result file. It claims no gain; it is
//! the ruler.

mod client;
mod oracle;
mod par;
mod report;
mod run;
mod spec;
mod stats;
mod system;
mod trace;
mod workload;

use spec::{QUICK_WINDOW_S, WINDOW_S, WORKLOADS};
use std::process::{Command, ExitCode};
use std::time::Duration;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "{problem}\nusage: muve-benchmark [--workload NAME] [--seed N] [--seconds S | --quick] \
         [--trace 0|1] [--out FILE]\n       muve-benchmark --list\n       \
         muve-benchmark compare BASE.json CANDIDATE.json"
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: WINDOW_S,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.seconds = QUICK_WINDOW_S;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => parsed.trace = number()? != 0,
            "--out" => parsed.out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

fn read_json(path: &str) -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// One workload, one mode, in a child process of this command: its result
/// line and whether it exited cleanly. Its output is passed through.
fn run_child(
    args: &Args,
    workload: &str,
    trace: &str,
) -> Result<(serde_json::Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", trace])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let result = serde_json::from_str(stdout.lines().last().unwrap_or_default())
        .map_err(|e| format!("{workload} --trace {trace}: no result line: {e}"))?;
    Ok((result, output.status.success()))
}

/// Run every workload, both modes, each in a fresh child process; collect
/// their result lines into one file.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let mut runs = Vec::new();
    let mut correct = true;
    for w in WORKLOADS {
        let (end_to_end, clean) = run_child(args, w.name, "0")?;
        let (per_layer, also_clean) = run_child(args, w.name, "1")?;
        correct &= clean && also_clean;
        runs.push((end_to_end, per_layer));
    }
    let file = report::result_file(report::meta(args.seed, args.seconds), &runs);
    let path = match &args.out {
        Some(path) => std::path::PathBuf::from(path),
        None => {
            std::fs::create_dir_all(run::out_dir()).map_err(|e| e.to_string())?;
            run::out_dir().join(format!("result-seed{}.json", args.seed))
        }
    };
    let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--list") => {
            print!("{}", report::list());
            return ExitCode::SUCCESS;
        }
        Some("compare") => {
            let [_, base, candidate] = args.as_slice() else {
                return usage("compare takes two result files");
            };
            return match (read_json(base), read_json(candidate)) {
                (Ok(base), Ok(candidate)) => match report::compare(&base, &candidate) {
                    Ok((table, regressed)) => {
                        print!("{table}");
                        if regressed {
                            ExitCode::FAILURE
                        } else {
                            ExitCode::SUCCESS
                        }
                    }
                    Err(problem) => usage(&problem),
                },
                (Err(e), _) | (_, Err(e)) => usage(&e),
            };
        }
        _ => {}
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    let Some(name) = &args.workload else {
        return match run_all(&args) {
            Ok(code) => code,
            Err(problem) => {
                eprintln!("{problem}");
                ExitCode::FAILURE
            }
        };
    };
    let Some(w) = spec::workload(name) else {
        return usage(&format!("unknown workload {name}; see --list"));
    };
    let result = run::run(w, args.seed, Duration::from_secs(args.seconds), args.trace);
    print!("{}", report::render(&result));
    println!("{}", result.to_json());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
