//! `expt` — regenerate the paper's tables and figures.
//!
//! ```text
//! expt <experiment>... [--quick] [--json DIR] [--markdown FILE]
//! expt all [--quick]
//! ```
//!
//! Experiments: table1, fig3, fig6, fig7, fig8, fig9, fig10, fig11,
//! fig12, fig13 (fig3 runs with table1; fig10/fig11 run with fig9),
//! ablation, and serve (the network stack's shed/latency curve).
//!
//! A usage error (no experiment named, an unknown id, or `--json` /
//! `--markdown` without a path) prints the usage and exits with code 2
//! before anything runs.

use muve_bench::experiments::{self, ResultTable, EXPERIMENTS};
use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut quick = false;
    let mut json_dir: Option<PathBuf> = None;
    let mut markdown: Option<PathBuf> = None;
    let mut ids: Vec<String> = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--help" | "-h" => {
                usage();
                return;
            }
            "--quick" => quick = true,
            "--json" => json_dir = Some(flag_value(&a, args.next())),
            "--markdown" => markdown = Some(flag_value(&a, args.next())),
            "all" => ids.extend(EXPERIMENTS.iter().map(|s| s.to_string())),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!("no experiment named");
        usage_error();
    }

    // Dedup by run group (table1+fig3 together, fig9-11 together).
    let mut groups: BTreeSet<&'static str> = BTreeSet::new();
    for id in &ids {
        match id.as_str() {
            "table1" | "fig3" => {
                groups.insert("table1");
            }
            "fig9" | "fig10" | "fig11" => {
                groups.insert("fig9");
            }
            other if EXPERIMENTS.contains(&other) => {
                groups.insert(EXPERIMENTS.iter().find(|e| **e == other).unwrap());
            }
            other => {
                eprintln!("unknown experiment {other:?}");
                usage_error();
            }
        }
    }

    let mut all_tables: Vec<ResultTable> = Vec::new();
    for id in groups {
        let start = Instant::now();
        eprintln!(">> running {id}{}", if quick { " (quick)" } else { "" });
        let tables = experiments::run(id, quick).expect("known id");
        eprintln!("<< {id} done in {:.1}s", start.elapsed().as_secs_f64());
        for t in &tables {
            println!("{}", t.to_text());
        }
        all_tables.extend(tables);
    }

    if let Some(dir) = json_dir {
        fs::create_dir_all(&dir).expect("create json dir");
        for t in &all_tables {
            let path = dir.join(format!("{}.json", t.id));
            fs::write(&path, serde_json::to_string_pretty(&t.to_json()).unwrap())
                .expect("write json");
            eprintln!("wrote {}", path.display());
        }
    }
    if let Some(path) = markdown {
        let mut md = String::new();
        for t in &all_tables {
            md.push_str(&format!(
                "### {} — {}\n\n{}\n",
                t.id,
                t.caption,
                t.to_markdown()
            ));
        }
        fs::write(&path, md).expect("write markdown");
        eprintln!("wrote {}", path.display());
    }
}

/// The path after `flag`; a missing one (or another flag in its place)
/// is a usage error, never a silently skipped output.
fn flag_value(flag: &str, value: Option<String>) -> PathBuf {
    match value {
        Some(v) if !v.starts_with("--") => PathBuf::from(v),
        _ => {
            eprintln!("{flag} needs a path");
            usage_error();
        }
    }
}

fn usage() {
    eprintln!(
        "usage: expt <experiment|all>... [--quick] [--json DIR] [--markdown FILE]\n\
         experiments: {}",
        EXPERIMENTS.join(", ")
    );
}

fn usage_error() -> ! {
    usage();
    std::process::exit(2);
}
