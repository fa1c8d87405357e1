//! The path registry: every way the engine can answer a query, each one
//! entry, each checked against [`execute_reference`] for its answer, a
//! pre-cancelled token, a 1-byte memory cap and, where it takes a
//! selection, an out-of-range row id.

use muve_dbms::{
    combine_partials, execute_batch, execute_merged_with_opts, execute_reference, index_registry,
    plan_merged, scale_result, systematic_rows, AggFunc, BatchConfig, ExecError, ExecOptions,
    Query, ResultSet, ScanRequest, ScanRows, Table, Value, MORSEL_ROWS,
};
use muve_obs::{CancelToken, MemBudget};
use muve_shard::{ShardExecOptions, ShardFaultInjector, ShardSet, ShardSpec, ShardStatsSnapshot};
use std::sync::Arc;
use Answer::{Door, Exact, Gather, Routed, Sample, Scalar};

/// The rows one check scans: a selection for the paths that take one,
/// and the systematic sample the sampling paths draw.
#[derive(Debug, Clone, Copy)]
pub struct Scan<'a> {
    /// Row ids (`None`: every row).
    pub ids: Option<&'a [u32]>,
    /// Sample fraction.
    pub fraction: f64,
    /// Sample seed.
    pub seed: u64,
}

impl<'a> Scan<'a> {
    /// Every row; a quarter sample.
    pub fn all() -> Scan<'static> {
        Scan {
            ids: None,
            fraction: 0.25,
            seed: 7,
        }
    }

    fn rows(&self) -> ScanRows<'a> {
        self.ids.map_or(ScanRows::All, ScanRows::Ids)
    }

    fn sample(&self) -> ScanRows<'a> {
        ScanRows::Sample {
            fraction: self.fraction,
            seed: self.seed,
        }
    }
}

/// Which reference answer a path must equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    /// The reference over the same rows ([`Scan::ids`]), stats included.
    Exact,
    /// [`Exact`] over a selection; over every row as [`Routed`].
    Door,
    /// The reference over every row. An index may answer, which scans
    /// fewer rows, so of the stats only `rows_matched` counts.
    Routed,
    /// [`Routed`], and the routed single-table run's whole result, stats
    /// included: per-shard indexes make the routed run's index choice.
    Gather,
    /// The reference over the sample's rows, scaled by its fraction.
    Sample,
    /// The first aggregate of the reference's first row: merged
    /// execution answers each member query with one scalar.
    Scalar,
}

type Answered = Result<ResultSet, ExecError>;
type Run = dyn Fn(&Table, &[Query], &Scan<'_>, ExecOptions<'_>) -> Vec<Answered>;

/// One execution path.
struct Path {
    /// Name in failure messages, e.g. `batch@64` or `sharded 3x2`.
    name: String,
    /// The reference answer it must equal.
    answer: Answer,
    /// The shard set behind a sharded path.
    shards: Option<Arc<ShardSet>>,
    run: Box<Run>,
}

impl Path {
    /// A path answering one query at a time.
    fn new(
        name: String,
        answer: Answer,
        one: impl Fn(&Table, &Query, &Scan<'_>, ExecOptions<'_>) -> Answered + 'static,
    ) -> Path {
        let run = move |t: &Table, qs: &[Query], s: &Scan<'_>, o: ExecOptions<'_>| {
            qs.iter().map(|q| one(t, q, s, o)).collect()
        };
        Path {
            name,
            answer,
            shards: None,
            run: Box::new(run),
        }
    }

    /// A scatter-gather over `set`. A partial gather is a wrong answer,
    /// and so is a sampled one realizing another fraction than [`Sample`].
    fn sharded(name: String, set: ShardSet, answer: Answer) -> Path {
        let set = Arc::new(set);
        let gather = Arc::clone(&set);
        let mut path = Path::new(name, answer, move |t, q, s, o| {
            let opts = ShardExecOptions {
                cancel: o.cancel,
                mem: o.mem,
                ..ShardExecOptions::default()
            };
            let got = match answer {
                Sample => {
                    let (got, realized) = gather.execute_sampled(q, s.fraction, s.seed, opts)?;
                    assert_eq!(realized.to_bits(), sample_rows(t, s).1.to_bits(), "{q:?}");
                    got
                }
                _ => gather.execute(q, opts)?,
            };
            if got.report.is_partial() {
                return Err(ExecError::Unavailable(format!("partial: {:?}", got.report)));
            }
            Ok(got.result)
        });
        path.shards = Some(set);
        path
    }

    /// Whether it scans [`Scan::ids`]; the others scan every row.
    fn takes_selection(&self) -> bool {
        matches!(self.answer, Exact | Door)
    }

    /// The reference answer this path must give for `q`.
    fn reference(&self, t: &Table, q: &Query, s: &Scan<'_>, o: ExecOptions<'_>) -> Answered {
        if self.answer != Sample {
            return execute_reference(t, q, s.ids.filter(|_| self.takes_selection()), o);
        }
        let (rows, realized) = sample_rows(t, s);
        execute_reference(t, q, Some(&rows), o).map(|r| scale_result(r, q, realized))
    }
}

/// The systematic sample `s` draws from `t`, and its realized fraction.
fn sample_rows(t: &Table, s: &Scan<'_>) -> (Vec<u32>, f64) {
    let rows = systematic_rows(t.num_rows(), s.fraction, s.seed);
    let realized = (rows.len() as f64 / t.num_rows() as f64).max(f64::MIN_POSITIVE);
    (rows, realized)
}

/// Groups of registry entries, so a suite builds only the paths it checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `execute_batch` at morsel sizes `MORSEL_ROWS`, 64, 257 and one
    /// morsel for the whole scan.
    Batch,
    /// The door ([`ScanRequest`]) at the same morsel sizes: `run`,
    /// `partials` + `combine_partials`, and a `Sample`.
    Door,
    /// A `ScanRows::All` request: the planner's index-or-scan choice.
    Routed,
    /// `plan_merged` over the whole query list, each group through
    /// `execute_merged_with_opts`.
    Merged,
    /// Scatter-gather over N×R shards, N in 1..=4 and R in 1..=2, and
    /// over 4×2 with replica 0 of every shard down (`*.0:down`).
    Sharded,
    /// Sampled scatter-gather over 1, 3 and 4 shards.
    SampledShards,
}

/// The name of the `*.0:down` layout's path.
const DOWN: &str = "sharded 4x2 *.0:down";

/// Morsel sizes of the local paths: production, many tiny morsels at
/// aligned and unaligned boundaries, and one morsel for the whole scan.
const MORSELS: [usize; 4] = [MORSEL_ROWS, 64, 257, usize::MAX];

/// A door request over `rows` at morsel size `morsel_rows`.
fn door<'a>(rows: ScanRows<'a>, opts: ExecOptions<'a>, morsel_rows: usize) -> ScanRequest<'a> {
    let cfg = BatchConfig { morsel_rows };
    ScanRequest { rows, opts, cfg }
}

/// The local paths of `family` at morsel size `m`.
fn local(family: Family, m: usize) -> Vec<Path> {
    let cfg = BatchConfig { morsel_rows: m };
    if family == Family::Batch {
        return vec![Path::new(format!("batch@{m}"), Exact, move |t, q, s, o| {
            execute_batch(t, q, s.ids, o, &cfg)
        })];
    }
    vec![
        Path::new(format!("door run@{m}"), Door, move |t, q, s, o| {
            door(s.rows(), o, m).run(t, q)
        }),
        Path::new(format!("door partials@{m}"), Door, move |t, q, s, o| {
            let parts = door(s.rows(), o, m).partials(t, q)?;
            combine_partials(t, q, vec![parts], o)
        }),
        Path::new(format!("door sample@{m}"), Sample, move |t, q, s, o| {
            door(s.sample(), o, m).run(t, q)
        }),
    ]
}

/// One table and the paths registered over it. To register a new path,
/// add its entry to [`Registry::new`]: every suite that builds its family
/// then checks it. Dropping the registry drops the indexes it built.
pub struct Registry {
    table: Arc<Table>,
    paths: Vec<Path>,
}

impl Registry {
    /// Register every path of `families` over `table`.
    pub fn new(table: &Arc<Table>, families: &[Family]) -> Registry {
        let mut paths = Vec::new();
        for &family in families {
            let mut sharded = |name: String, (n, r), faults: &str, answer| {
                let faults = ShardFaultInjector::parse(faults).expect("fault spec");
                let set =
                    ShardSet::build_with_faults(Arc::clone(table), ShardSpec::new(n, r), faults);
                paths.push(Path::sharded(name, set, answer));
            };
            match family {
                Family::Sharded => {
                    for (n, r) in (1..=4).flat_map(|n| [(n, 1), (n, 2)]) {
                        sharded(format!("sharded {n}x{r}"), (n, r), "", Gather);
                    }
                    sharded(DOWN.into(), (4, 2), "*.0:down", Gather);
                }
                Family::SampledShards => {
                    for n in [1, 3, 4] {
                        sharded(format!("sharded sampled {n}x1"), (n, 1), "", Sample);
                    }
                }
                Family::Routed => paths.push(Path::new("routed".into(), Routed, |t, q, _, o| {
                    ScanRequest::new(ScanRows::All, o).run(t, q)
                })),
                Family::Merged => {
                    let (name, shards, run) = ("merged".into(), None, Box::new(run_merged));
                    paths.push(Path {
                        name,
                        answer: Scalar,
                        shards,
                        run,
                    });
                }
                Family::Batch | Family::Door => {
                    paths.extend(MORSELS.into_iter().flat_map(|m| local(family, m)))
                }
            }
        }
        let table = Arc::clone(table);
        Registry { table, paths }
    }

    /// Every path answers every query as the reference does: the same
    /// columns, rows and `rows_matched` — the whole result where the path
    /// scans the same rows (a gather: as the routed run) — or the same error.
    pub fn check_answers(&self, queries: &[Query], scan: &Scan<'_>) {
        self.check(queries, scan, ExecOptions::default(), "");
    }

    /// A pre-cancelled token and a 1-byte memory cap abort every path
    /// with the error the reference returns under them. The reference
    /// itself must abort a full scan under both.
    pub fn check_aborts(&self, queries: &[Query], scan: &Scan<'_>) {
        let fired = CancelToken::never();
        fired.cancel();
        let cap = MemBudget::new(1, None);
        let cancelled = ExecOptions {
            cancel: Some(&fired),
            ..ExecOptions::default()
        };
        let capped = ExecOptions {
            mem: Some(&cap),
            ..ExecOptions::default()
        };
        for q in queries {
            let full = |o| execute_reference(&self.table, q, None, o);
            assert_eq!(full(cancelled), Err(ExecError::Cancelled), "{q:?}");
            let exhausted = full(capped);
            assert!(
                matches!(exhausted, Err(ExecError::ResourceExhausted { .. })),
                "{exhausted:?}"
            );
        }
        self.check(queries, scan, cancelled, "cancelled ");
        self.check(queries, scan, capped, "1-byte cap ");
    }

    /// Every path taking a selection rejects `ids` with
    /// `SelectionOutOfBounds` naming the first id past the end, as the
    /// reference does; all-valid `ids` must give the reference's answers.
    pub fn check_selection(&self, queries: &[Query], ids: &[u32]) {
        let rows = self.table.num_rows();
        if let Some(id) = ids.iter().copied().find(|&id| id as usize >= rows) {
            let want = Err(ExecError::SelectionOutOfBounds { id, rows });
            for q in queries {
                let opts = ExecOptions::default();
                assert_eq!(execute_reference(&self.table, q, Some(ids), opts), want);
            }
        }
        self.check_answers(
            queries,
            &Scan {
                ids: Some(ids),
                ..Scan::all()
            },
        );
    }

    /// Stats of the `*.0:down` layout's shard set ([`Family::Sharded`]).
    pub fn down_stats(&self) -> ShardStatsSnapshot {
        let down = self.paths.iter().find(|p| p.name == DOWN);
        let set = down.expect("Family::Sharded").shards.as_ref().unwrap();
        set.stats().snapshot()
    }

    fn check(&self, queries: &[Query], scan: &Scan<'_>, opts: ExecOptions<'_>, what: &str) {
        let t = &*self.table;
        for p in &self.paths {
            for (q, got) in queries.iter().zip((p.run)(t, queries, scan, opts)) {
                let want = p.reference(t, q, scan, opts);
                let ctx = format!("{what}{}: {q:?}", p.name);
                if p.answer == Gather {
                    let routed = ScanRequest::new(ScanRows::All, opts).run(t, q);
                    assert_eq!(got, routed, "{ctx} (routed run)");
                }
                let stats = !matches!(p.answer, Routed | Gather)
                    && (p.answer != Door || scan.ids.is_some());
                match (got, want) {
                    (Ok(got), Ok(want)) if p.answer == Scalar => {
                        let first = want.rows.first().and_then(|r| r[q.group_by.len()].as_f64());
                        let count = q.aggregates[0].func == AggFunc::Count;
                        let want = first.or(count.then_some(0.0)).map(f64::to_bits);
                        assert_eq!(got.scalar().map(f64::to_bits), want, "{ctx}");
                    }
                    (Ok(got), Ok(want)) if stats => assert_eq!(got, want, "{ctx}"),
                    (Ok(got), Ok(want)) => {
                        assert_eq!((got.columns, got.rows), (want.columns, want.rows), "{ctx}");
                        assert_eq!(got.stats.rows_matched, want.stats.rows_matched, "{ctx}");
                    }
                    (got, want) => assert_eq!(got.err(), want.err(), "{ctx}"),
                }
            }
        }
    }
}

/// The merged path: each merge group's scan answers its members, each
/// with its first aggregate as a one-value result.
fn run_merged(t: &Table, queries: &[Query], _: &Scan<'_>, opts: ExecOptions<'_>) -> Vec<Answered> {
    let mut out = vec![None; queries.len()];
    for group in plan_merged(queries) {
        let merged = execute_merged_with_opts(t, &group, opts);
        for m in &group.members {
            out[m.index] = Some(merged.as_ref().map_err(Clone::clone).map(|merged| {
                let (_, v) = merged.results.iter().find(|(i, _)| *i == m.index).unwrap();
                let rows = vec![vec![v.map_or(Value::Null, Value::Float)]];
                ResultSet {
                    columns: Vec::new(),
                    rows,
                    stats: merged.stats,
                }
            }));
        }
    }
    out.into_iter()
        .map(|r| r.expect("every query is a member"))
        .collect()
}

impl Drop for Registry {
    fn drop(&mut self) {
        let mut fps = vec![self.table.fingerprint()];
        for set in self.paths.iter().filter_map(|p| p.shards.as_ref()) {
            fps.extend((0..set.num_shards()).map(|s| set.shard_table(s).fingerprint()));
        }
        index_registry().drop_tables(&fps);
    }
}
