//! `muve-netd` — the MUVE network service daemon.
//!
//! Binds a [`muve::net::NetServer`] over a generated (or CSV-loaded)
//! table and serves `POST /query`, `GET /healthz`, `GET /metrics`, and
//! `GET /trace/<id>` until SIGTERM/SIGINT, then drains gracefully:
//! in-flight requests finish, queued ones flush as typed `ShuttingDown`
//! sheds, and the final stats line proves exact reconciliation
//! (`submitted == served + degraded + shed`). Exit code 0 means the
//! books balanced.
//!
//! ```text
//! muve-netd --addr 127.0.0.1:7774 --rows 50000 --workers 4 \
//!           --tenant acme:secret:3:25 --tenant free:guest:1:5
//! ```

use muve::data::Dataset;
use muve::net::{signal, NetConfig, NetServer, TenantConfig};
use muve::pipeline::SessionConfig;
use muve::serve::ServerConfig;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: muve-netd [--addr HOST:PORT] [--csv PATH] [--rows N] [--seed N]\n\
         \x20                [--workers N] [--queue-depth N] [--max-conns N]\n\
         \x20                [--deadline-ms MS] [--max-deadline-ms MS] [--greedy]\n\
         \x20                [--mem-cap-mb MB]\n\
         \x20                [--tenant name:key:weight:rate[:burst]]..."
    );
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    match v.and_then(|v| v.parse().ok()) {
        Some(n) => n,
        None => {
            eprintln!("{flag} expects a number");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut addr = "127.0.0.1:7774".to_string();
    let mut csv: Option<String> = None;
    let mut rows = 50_000usize;
    let mut seed = 7u64;
    let mut serve_cfg = ServerConfig::default();
    let mut net_cfg = NetConfig::default();
    let mut session = SessionConfig::default();
    let mut greedy = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().unwrap_or_else(|| usage()),
            "--csv" => csv = Some(args.next().unwrap_or_else(|| usage())),
            "--rows" => rows = parse_num("--rows", args.next()),
            "--seed" => seed = parse_num("--seed", args.next()),
            "--workers" => serve_cfg.workers = parse_num("--workers", args.next()),
            "--queue-depth" => serve_cfg.queue_depth = parse_num("--queue-depth", args.next()),
            "--mem-cap-mb" => serve_cfg.mem_cap_mb = parse_num("--mem-cap-mb", args.next()),
            "--max-conns" => net_cfg.max_conns = parse_num("--max-conns", args.next()),
            "--deadline-ms" => {
                net_cfg.default_deadline =
                    Duration::from_millis(parse_num("--deadline-ms", args.next()));
            }
            "--max-deadline-ms" => {
                net_cfg.max_deadline =
                    Duration::from_millis(parse_num("--max-deadline-ms", args.next()));
            }
            "--greedy" => greedy = true,
            "--tenant" => match args.next().as_deref().map(TenantConfig::parse) {
                Some(Ok(t)) => net_cfg.tenants.push(t),
                Some(Err(e)) => {
                    eprintln!("--tenant: {e}");
                    std::process::exit(2);
                }
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    net_cfg.addr = addr;
    session.deadline = net_cfg.default_deadline;
    if greedy {
        session.planner = muve::core::Planner::Greedy;
    }

    let table = match &csv {
        Some(path) => match muve::dbms::table_from_csv_path("served", path) {
            Ok(t) => Arc::new(t),
            Err(e) => {
                eprintln!("--csv {path}: {e}");
                std::process::exit(2);
            }
        },
        None => Arc::new(Dataset::Flights.generate(rows, seed)),
    };

    signal::install();
    let tenants = net_cfg.tenants.len();
    let server = match NetServer::start(table, serve_cfg, session, net_cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "muve-netd listening on {} ({} tenant{} configured{})",
        server.local_addr(),
        tenants,
        if tenants == 1 { "" } else { "s" },
        if tenants == 0 { "; open serving" } else { "" },
    );

    while !signal::requested() {
        std::thread::sleep(Duration::from_millis(50));
    }

    println!("muve-netd: shutdown signal received, draining");
    let report = server.shutdown();
    let s = &report.stats;
    println!(
        "muve-netd: drained — submitted={} served={} degraded={} shed={} \
         reconciled={} stragglers={}",
        s.submitted, s.served, s.degraded, s.shed, report.reconciled, report.stragglers
    );
    std::process::exit(if report.reconciled && report.stragglers == 0 {
        0
    } else {
        1
    });
}
