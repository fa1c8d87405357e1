//! `muve-cli` — interactive MUVE shell.
//!
//! ```text
//! cargo run --release --bin muve-cli -- [--deadline-ms N] [--inject-fault SPEC]
//! ```
//!
//! Type a natural-language question (or a SQL `select ...`) and get the
//! planned multiplot with executed results, exactly like the paper's demo
//! interface (minus the microphone). Every question runs through the
//! deadline-enforced `muve-pipeline` session: a total interactivity budget
//! bounds the whole transcript→render path, and failures degrade the
//! output (ILP → incumbent → greedy → headline-only → text) instead of
//! crashing the shell. Commands:
//!
//! ```text
//! \dataset <ads|dob|nyc311|flights> [rows]   load a synthetic dataset
//! \csv <path> [name]                         load a CSV file
//! \screen <iphone|tablet|desktop> [rows]     set the output geometry
//! \planner <greedy|ilp>                      choose the planner
//! \k <n>                                     number of candidates
//! \noise <rate>                              simulate ASR noise on input
//! \deadline <ms>                             interactivity budget per question
//! \memcap <mb|off>                           memory cap on result materialization
//! \inject <spec|off>                         plant faults (e.g. plan:panic)
//! \svg <path>                                save the last multiplot
//! \serve [workers] [queue]                   route questions through a worker pool
//! \drain                                     gracefully drain the worker pool
//! \index [status | build | on | off]         secondary-index registry
//! \cache [clear | <mb>]                      cache stats, clear, or resize (0 off)
//! \stats                                     print process-wide metrics
//! \trace <path|off>                          append per-query JSON traces
//! \schema                                    show the loaded schema
//! \help, \quit
//! ```
//!
//! `--trace-out <file>` does the same as `\trace <file>` from the command
//! line: every answered question appends one JSON line with its complete
//! per-stage [`SessionTrace`](muve::obs::SessionTrace). `--serve`
//! (optionally with `--workers N` and `--queue-depth M`) starts the shell
//! in serving mode: questions go through a `muve-serve` worker pool with
//! deadline-aware admission control, so an overloaded or draining pool
//! sheds typed rejections instead of queueing forever. `--cache-mb N`
//! sizes the cross-request cache (candidates, results, plan warm starts);
//! `--cache-mb 0` disables it entirely and is bit-identical to caching
//! never having existed. `--mem-cap-mb N` caps result materialization per
//! question (and sizes the serve-wide memory pool at N × workers);
//! exceeding the cap degrades that question to sample fidelity instead of
//! growing without bound. `--watchdog off` disables the serve-side monitor
//! that cancels stuck workers and respawns crashed ones.

use muve::core::{render_svg, IlpConfig, Planner, ScreenConfig, UserCostModel};
use muve::data::Dataset;
use muve::dbms::{table_from_csv_path, ColumnType, Table};
use muve::nlq::{Lexicon, SpeechChannel};
use muve::pipeline::{
    FaultInjector, Session, SessionCaches, SessionConfig, SessionOutcome, Visualization,
};
use muve::serve::{Request, ServeOutcome, Server, ServerConfig};
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

struct Shell {
    table: Arc<Table>,
    /// The loaded table's lookup structures, kept across questions and
    /// replaced with the table.
    lexicon: Arc<Lexicon>,
    screen: ScreenConfig,
    planner: Planner,
    model: UserCostModel,
    k: usize,
    noise: f64,
    noise_seed: u64,
    deadline: Duration,
    mem_cap_mb: usize,
    injector: FaultInjector,
    last_svg: Option<String>,
    trace_out: Option<String>,
    serve_cfg: ServerConfig,
    server: Option<Server>,
    caches: Option<Arc<SessionCaches>>,
}

/// Default cross-request cache budget (`--cache-mb`).
const DEFAULT_CACHE_MB: usize = 64;

impl Shell {
    fn new(table: Table) -> Shell {
        let caches = Arc::new(SessionCaches::new(DEFAULT_CACHE_MB << 20));
        caches.set_table(&table);
        Shell {
            lexicon: Arc::new(Lexicon::new(&table)),
            table: Arc::new(table),
            screen: ScreenConfig::desktop(2),
            planner: Planner::Greedy,
            model: UserCostModel::default(),
            k: 10,
            noise: 0.0,
            noise_seed: 0,
            deadline: Duration::from_secs(1),
            mem_cap_mb: 0,
            injector: FaultInjector::none(),
            last_svg: None,
            trace_out: None,
            serve_cfg: ServerConfig::default(),
            server: None,
            caches: Some(caches),
        }
    }

    /// Stamp the cache epoch with the loaded table's fingerprint.
    fn stamp_caches(&self) {
        if let Some(caches) = &self.caches {
            caches.set_table(&self.table);
        }
    }

    fn index_status(&self) {
        use muve::dbms::CostParams;

        let reg = muve::dbms::index_registry();
        println!(
            "secondary indexes {}: {:.1} MB held of a {:.0} MB cap",
            if reg.enabled() { "on" } else { "off" },
            reg.total_bytes() as f64 / (1 << 20) as f64,
            reg.cap_bytes() as f64 / (1 << 20) as f64,
        );
        let snap = muve::obs::metrics().snapshot();
        println!(
            "  builds {}, hits {}, residual rows {}, intersections {}, \
             stale drops {}, evictions {}, mem fallbacks {}",
            snap.counter("index.builds"),
            snap.counter("index.hits"),
            snap.counter("index.residual_rows"),
            snap.counter("index.intersections"),
            snap.counter("index.stale_drops"),
            snap.counter("index.evictions"),
            snap.counter("index.mem_fallbacks"),
        );
        for st in reg.status() {
            println!("  table {:?} ({} rows):", st.table, st.rows);
            for (col, bytes) in &st.columns {
                println!("    {col:<24} {:>9} bytes", bytes);
            }
        }
        // Per-column planner preview: would a single equality lookup take
        // the index path? (sel = 1/distinct vs the P=1 cost threshold.)
        let p = CostParams::default();
        let threshold = (p.cpu_tuple_cost + p.cpu_operator_cost)
            / (p.index_tuple_cost + p.cpu_tuple_cost + p.cpu_operator_cost);
        println!(
            "  planner preview for {:?} (index iff selectivity < {:.2}%):",
            self.table.name(),
            threshold * 100.0
        );
        for (i, def) in self.table.schema().columns().iter().enumerate() {
            if def.ty != ColumnType::Str {
                continue;
            }
            let distinct = self.table.column(i).distinct_estimate().max(1);
            let sel = 1.0 / distinct as f64;
            println!(
                "    {:<24} {:>6} distinct, eq lookup ~{:.3}% -> {}",
                def.name,
                distinct,
                sel * 100.0,
                if sel < threshold { "index" } else { "scan" }
            );
        }
    }

    fn index_build(&self) {
        use muve::dbms::{build_indexes, ExecOptions};

        let reg = muve::dbms::index_registry();
        if !reg.enabled() {
            println!("secondary indexes are off; \\index on first");
            return;
        }
        let t = &self.table;
        match build_indexes(t, &ExecOptions::default()) {
            Ok(built) if built.is_empty() => {
                println!("table {:?}: no string columns to index", t.name());
            }
            Ok(built) => {
                let total: usize = built.iter().map(|(_, b)| *b).sum();
                println!(
                    "table {:?}: built {} column indexes, {:.1} MB",
                    t.name(),
                    built.len(),
                    total as f64 / (1 << 20) as f64
                );
            }
            Err(e) => println!("table {:?}: {e}", t.name()),
        }
    }

    fn set_cache_budget(&mut self, mb: usize) {
        if mb == 0 {
            self.caches = None;
            println!("cache disabled");
        } else {
            self.caches = Some(Arc::new(SessionCaches::new(mb << 20)));
            self.stamp_caches();
            println!("cache budget: {mb} MB");
        }
        // A live worker pool holds the old bundle; rebuild it.
        if self.server.is_some() {
            self.start_serve();
        }
    }

    fn set_table(&mut self, table: Table) {
        println!(
            "loaded table {:?}: {} rows, {} columns",
            table.name(),
            table.num_rows(),
            table.schema().len()
        );
        self.lexicon = Arc::new(Lexicon::new(&table));
        self.table = Arc::new(table);
        // The cache epoch moves with the table fingerprint, so entries
        // computed against the old data are lazily dropped on lookup.
        self.stamp_caches();
        // A live worker pool serves the old table; rebuild it over the new
        // one (draining first so in-flight questions finish cleanly).
        if self.server.is_some() {
            self.start_serve();
        }
    }

    fn start_serve(&mut self) {
        if let Some(server) = self.server.take() {
            let report = server.drain();
            println!("{report}");
        }
        self.serve_cfg.caches = self.caches.clone();
        self.serve_cfg.mem_cap_mb = self.mem_cap_mb;
        self.server = Some(Server::new(Arc::clone(&self.table), self.serve_cfg.clone()));
        println!(
            "serving: {} workers, queue depth {}{}{}",
            self.serve_cfg.workers,
            self.serve_cfg.queue_depth,
            if self.mem_cap_mb > 0 {
                format!(", {} MB/worker mem cap", self.mem_cap_mb)
            } else {
                String::new()
            },
            if self.serve_cfg.watchdog {
                ""
            } else {
                ", watchdog off"
            },
        );
    }

    fn drain_serve(&mut self) {
        match self.server.take() {
            Some(server) => println!("{}", server.drain()),
            None => println!("not serving; \\serve to start a worker pool"),
        }
    }

    fn vocabulary(&self) -> Vec<String> {
        let mut v: Vec<String> = Vec::new();
        for (i, def) in self.table.schema().columns().iter().enumerate() {
            v.extend(def.name.split('_').map(str::to_owned));
            if def.ty == ColumnType::Str {
                if let Some(dict) = self.table.column(i).dictionary() {
                    v.extend(dict.entries().iter().cloned());
                }
            }
        }
        v
    }

    fn ask(&mut self, input: &str) {
        let mut text = input.to_owned();
        if self.noise > 0.0 {
            self.noise_seed += 1;
            let mut ch = SpeechChannel::new(self.vocabulary(), self.noise, self.noise_seed);
            text = ch.transmit(input);
            if text != input {
                println!("(ASR heard: {text})");
            }
        }
        let config = SessionConfig {
            deadline: self.deadline,
            screen: self.screen,
            model: self.model,
            planner: self.planner.clone(),
            k: 20,
            max_candidates: self.k,
            mem_cap_bytes: self.mem_cap_mb << 20,
            ..SessionConfig::default()
        };
        if let Some(server) = &self.server {
            let req = Request::new(text)
                .with_config(config)
                .with_injector(self.injector.clone());
            match server.submit(req) {
                Err(reason) => println!("shed at admission: {reason}"),
                Ok(ticket) => match ticket.wait() {
                    ServeOutcome::Shed { reason, .. } => println!("shed: {reason}"),
                    ServeOutcome::Completed {
                        outcome,
                        attempts,
                        queue_wait,
                        ..
                    } => {
                        if attempts > 1 {
                            println!("({attempts} attempts)");
                        }
                        println!(
                            "(queued {:.1} ms before a worker picked it up)",
                            queue_wait.as_secs_f64() * 1000.0
                        );
                        self.report_outcome(*outcome);
                    }
                },
            }
            return;
        }
        let mut session = Session::new(&self.table, config)
            .with_lexicon(Arc::clone(&self.lexicon))
            .with_injector(self.injector.clone());
        if let Some(caches) = &self.caches {
            session = session.with_caches(Arc::clone(caches));
        }
        let outcome = session.run(&text);
        self.report_outcome(outcome);
    }

    fn report_outcome(&mut self, outcome: SessionOutcome) {
        if let Some(base) = &outcome.interpretation {
            println!("top interpretation: {}", base.to_sql());
        }
        if outcome.candidates.len() > 1 {
            println!("{} candidate interpretations", outcome.candidates.len());
        }
        for e in &outcome.errors {
            println!("  ! {e}");
        }
        if outcome.degraded() {
            println!(
                "degraded: {} -> {} rung",
                outcome.trace.planned_rung, outcome.trace.final_rung
            );
        }
        match &outcome.visualization {
            Visualization::Multiplot {
                multiplot,
                headline,
                results,
                rendered,
                approximate,
            } => {
                if !headline.is_empty() && outcome.candidates.len() > 1 {
                    println!("headline: {headline}");
                }
                if *approximate {
                    println!("(values are sample estimates)");
                }
                println!("{rendered}");
                self.last_svg = Some(render_svg(multiplot, results, self.screen.width_px));
            }
            Visualization::Text { message } => println!("{message}"),
        }
        println!(
            "answered in {:.1} ms of a {:.0} ms budget ({} rung)",
            outcome.elapsed.as_secs_f64() * 1000.0,
            outcome.deadline.as_secs_f64() * 1000.0,
            outcome.trace.final_rung
        );
        if let Some(path) = &self.trace_out {
            let line = serde_json::to_string(&outcome.stage_trace.to_json())
                .unwrap_or_else(|e| format!("{{\"error\":{:?}}}", e.to_string()));
            let write = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{line}"));
            if let Err(e) = write {
                println!("could not append trace to {path:?}: {e}");
            }
        }
    }

    fn command(&mut self, line: &str) -> bool {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.first().copied() {
            Some("\\quit") | Some("\\q") | Some("\\exit") => return false,
            Some("\\help") => print_help(),
            Some("\\schema") => {
                println!(
                    "table {:?} ({} rows):",
                    self.table.name(),
                    self.table.num_rows()
                );
                for c in self.table.schema().columns() {
                    println!("  {:<24} {:?}", c.name, c.ty);
                }
            }
            Some("\\dataset") => {
                let name = parts.get(1).copied().unwrap_or("nyc311");
                let rows: usize = parts.get(2).and_then(|s| s.parse().ok()).unwrap_or(20_000);
                let ds = match name {
                    "ads" => Dataset::Ads,
                    "dob" => Dataset::Dob,
                    "nyc311" | "311" => Dataset::Nyc311,
                    "flights" => Dataset::Flights,
                    other => {
                        println!("unknown dataset {other:?} (ads|dob|nyc311|flights)");
                        return true;
                    }
                };
                self.set_table(ds.generate(rows, 42));
            }
            Some("\\csv") => match parts.get(1) {
                Some(path) => {
                    let name = parts.get(2).copied().unwrap_or("data").to_owned();
                    match table_from_csv_path(&name, path) {
                        Ok(t) => self.set_table(t),
                        Err(e) => println!("{e}"),
                    }
                }
                None => println!("usage: \\csv <path> [name]"),
            },
            Some("\\screen") => {
                let rows: usize = parts.get(2).and_then(|s| s.parse().ok()).unwrap_or(2);
                self.screen = match parts.get(1).copied() {
                    Some("iphone") => ScreenConfig::iphone(rows),
                    Some("tablet") => ScreenConfig::tablet(rows),
                    Some("desktop") | None => ScreenConfig::desktop(rows),
                    Some(px) => match px.parse::<u32>() {
                        Ok(px) => ScreenConfig::with_width(px, rows),
                        Err(_) => {
                            println!("usage: \\screen <iphone|tablet|desktop|PIXELS> [rows]");
                            return true;
                        }
                    },
                };
                println!(
                    "screen: {} px, {} rows",
                    self.screen.width_px, self.screen.rows
                );
            }
            Some("\\planner") => {
                self.planner = match parts.get(1).copied() {
                    Some("greedy") | None => Planner::Greedy,
                    Some("ilp") => Planner::Ilp(IlpConfig {
                        time_budget: Some(Duration::from_secs(1)),
                        warm_start: true,
                        ..IlpConfig::default()
                    }),
                    Some(other) => {
                        println!("unknown planner {other:?} (greedy|ilp)");
                        return true;
                    }
                };
                println!("planner set");
            }
            Some("\\k") => match parts.get(1).and_then(|s| s.parse::<usize>().ok()) {
                Some(k) if k >= 1 => {
                    self.k = k;
                    println!("candidates: {k}");
                }
                _ => println!("usage: \\k <n>"),
            },
            Some("\\noise") => match parts.get(1).and_then(|s| s.parse::<f64>().ok()) {
                Some(r) if (0.0..=1.0).contains(&r) => {
                    self.noise = r;
                    println!("ASR noise rate: {r}");
                }
                _ => println!("usage: \\noise <0..1>"),
            },
            Some("\\deadline") => match parts.get(1).and_then(|s| s.parse::<u64>().ok()) {
                Some(ms) if ms >= 1 => {
                    self.deadline = Duration::from_millis(ms);
                    println!("interactivity budget: {ms} ms");
                }
                _ => println!("usage: \\deadline <ms>"),
            },
            Some("\\memcap") => match parts.get(1).copied() {
                Some("off") | Some("0") => {
                    self.mem_cap_mb = 0;
                    println!("memory cap off");
                    if self.server.is_some() {
                        self.start_serve();
                    }
                }
                Some(arg) => match arg.parse::<usize>() {
                    Ok(mb) if mb >= 1 => {
                        self.mem_cap_mb = mb;
                        println!("memory cap: {mb} MB per question");
                        // A live pool sized its global budget from the old
                        // cap; rebuild it.
                        if self.server.is_some() {
                            self.start_serve();
                        }
                    }
                    _ => println!("usage: \\memcap <mb|off>"),
                },
                None => println!("usage: \\memcap <mb|off>"),
            },
            Some("\\inject") => match parts.get(1).copied() {
                Some("off") | Some("none") => {
                    self.injector = FaultInjector::none();
                    println!("fault injection off");
                }
                Some(spec) => match FaultInjector::parse(spec) {
                    Ok(inj) => {
                        self.injector = inj;
                        println!("faults planted: {spec}");
                    }
                    Err(e) => println!("{e}; {}", FaultInjector::usage_hint()),
                },
                None => println!(
                    "usage: \\inject <stage:kind,...|off> \
                     (kinds: error, panic, stall, latency=MS)"
                ),
            },
            Some("\\svg") => match (&self.last_svg, parts.get(1)) {
                (Some(svg), Some(path)) => match std::fs::write(path, svg) {
                    Ok(()) => println!("wrote {path}"),
                    Err(e) => println!("{e}"),
                },
                (None, _) => println!("no multiplot yet — ask a question first"),
                (_, None) => println!("usage: \\svg <path>"),
            },
            Some("\\serve") => match parts.get(1).copied() {
                Some("off") => self.drain_serve(),
                workers => {
                    if let Some(w) = workers.and_then(|s| s.parse::<usize>().ok()) {
                        self.serve_cfg.workers = w.max(1);
                    }
                    if let Some(q) = parts.get(2).and_then(|s| s.parse::<usize>().ok()) {
                        self.serve_cfg.queue_depth = q.max(1);
                    }
                    self.start_serve();
                }
            },
            Some("\\drain") => self.drain_serve(),
            Some("\\index") => match parts.get(1).copied() {
                None | Some("status") => self.index_status(),
                Some("build") => self.index_build(),
                Some("on") => {
                    muve::dbms::index_registry().set_enabled(true);
                    println!("secondary indexes on (built lazily when the planner picks them)");
                }
                Some("off") => {
                    let reg = muve::dbms::index_registry();
                    reg.set_enabled(false);
                    reg.clear();
                    println!("secondary indexes off; all built indexes dropped");
                }
                _ => println!("usage: \\index [status | build | on | off]"),
            },
            Some("\\stats") => {
                print!("{}", muve::obs::metrics().snapshot());
                if let Some(server) = &self.server {
                    println!("server: {}", server.stats());
                }
            }
            Some("\\cache") => match parts.get(1).copied() {
                None => match &self.caches {
                    Some(caches) => println!("{}", caches.stats()),
                    None => println!("cache disabled; \\cache <mb> to enable"),
                },
                Some("clear") => match &self.caches {
                    Some(caches) => {
                        caches.clear();
                        println!("cache cleared");
                    }
                    None => println!("cache disabled"),
                },
                Some(arg) => match arg.parse::<usize>() {
                    Ok(mb) => self.set_cache_budget(mb),
                    Err(_) => println!("usage: \\cache [clear | <mb>] (0 disables)"),
                },
            },
            Some("\\trace") => match parts.get(1).copied() {
                Some("off") | Some("none") => {
                    self.trace_out = None;
                    println!("trace export off");
                }
                Some(path) => {
                    self.trace_out = Some(path.to_owned());
                    println!("appending one JSON trace per query to {path}");
                }
                None => println!("usage: \\trace <path|off>"),
            },
            _ => println!("unknown command; try \\help"),
        }
        true
    }
}

fn print_help() {
    println!(
        "ask a natural-language question or type SQL (select ...).\n\
         commands: \\dataset <name> [rows], \\csv <path> [name], \\screen <preset> [rows],\n\
         \\planner <greedy|ilp>, \\k <n>, \\noise <rate>, \\deadline <ms>, \\memcap <mb|off>,\n\
         \\inject <spec|off>, \\svg <path>, \\serve [workers] [queue] | off, \\drain,\n\
         \\index [status|build|on|off],\n\
         \\cache [clear | <mb>],\n\
         \\stats, \\trace <path|off>, \\schema, \\quit"
    );
}

fn main() {
    let mut shell = Shell::new(Dataset::Nyc311.generate(20_000, 42));
    let mut serve = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deadline-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) if ms >= 1 => shell.deadline = Duration::from_millis(ms),
                _ => {
                    eprintln!("--deadline-ms expects a positive integer");
                    std::process::exit(2);
                }
            },
            "--inject-fault" => match args.next().map(|v| FaultInjector::parse(&v)) {
                Some(Ok(inj)) => shell.injector = inj,
                Some(Err(e)) => {
                    eprintln!("--inject-fault: {e}; {}", FaultInjector::usage_hint());
                    std::process::exit(2);
                }
                None => {
                    eprintln!("--inject-fault expects a spec like plan:panic,execute:error");
                    std::process::exit(2);
                }
            },
            "--trace-out" => match args.next() {
                Some(path) => shell.trace_out = Some(path),
                None => {
                    eprintln!("--trace-out expects a file path");
                    std::process::exit(2);
                }
            },
            "--serve" => serve = true,
            "--cache-mb" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(mb) => shell.set_cache_budget(mb),
                None => {
                    eprintln!("--cache-mb expects a non-negative integer (0 disables)");
                    std::process::exit(2);
                }
            },
            "--workers" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => shell.serve_cfg.workers = n,
                _ => {
                    eprintln!("--workers expects a positive integer");
                    std::process::exit(2);
                }
            },
            "--queue-depth" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => shell.serve_cfg.queue_depth = n,
                _ => {
                    eprintln!("--queue-depth expects a positive integer");
                    std::process::exit(2);
                }
            },
            "--mem-cap-mb" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(mb) => shell.mem_cap_mb = mb,
                None => {
                    eprintln!("--mem-cap-mb expects a non-negative integer (0 disables)");
                    std::process::exit(2);
                }
            },
            "--watchdog" => match args.next().as_deref() {
                Some("on") => shell.serve_cfg.watchdog = true,
                Some("off") => shell.serve_cfg.watchdog = false,
                _ => {
                    eprintln!("--watchdog expects on|off");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: \
                     muve-cli [--deadline-ms N] [--inject-fault SPEC] [--trace-out FILE] \
                     [--serve] [--workers N] [--queue-depth M] [--cache-mb N] \
                     [--mem-cap-mb N] [--watchdog on|off]"
                );
                std::process::exit(2);
            }
        }
    }
    if serve {
        shell.start_serve();
    }
    println!("MUVE shell — robust voice querying with multiplots. \\help for commands.");
    println!(
        "loaded default dataset {:?} ({} rows). Try: how many noise complaints in brooklyn",
        shell.table.name(),
        shell.table.num_rows()
    );
    let stdin = std::io::stdin();
    loop {
        print!("muve> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('\\') {
            if !shell.command(line) {
                break;
            }
        } else {
            shell.ask(line);
        }
    }
    println!("bye");
}
