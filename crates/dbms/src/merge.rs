//! Query merging (paper §8.1).
//!
//! MUVE processes many phonetically similar interpretations of one voice
//! query. Executing each candidate separately re-scans the table once per
//! candidate; merging rewrites groups of similar queries into a single
//! grouped query — equality predicates on one column become an `IN`
//! condition plus `GROUP BY`, and all requested aggregates become result
//! columns — so one scan answers the whole group. The decision to merge is
//! gated on the [`crate::cost`] model, mirroring the paper's use of the
//! Postgres optimizer.

use crate::ast::{Aggregate, PredOp, Predicate, Query};
use crate::cost::{choose_access_path, AccessPath, CostParams};
use crate::exec::{ExecError, ExecOptions, ExecStats, ResultSet, ScanRequest, ScanRows};
use crate::fingerprint::canon_ident;
use crate::table::Table;
use crate::value::Value;
use rustc_hash::FxHashMap;

/// A group of original queries answered by one merged query.
#[derive(Debug, Clone)]
pub struct MergeGroup {
    /// The rewritten query that answers every member in one scan.
    pub merged: Query,
    /// The members and how to recover their results.
    pub members: Vec<MergeMember>,
}

/// Maps one original query into the merged result.
#[derive(Debug, Clone)]
pub struct MergeMember {
    /// Index of the original query in the input slice.
    pub index: usize,
    /// For grouped merges, the member's value of the varying column.
    pub key: Option<Value>,
    /// Index of the member's aggregate within `merged.aggregates`.
    pub agg: usize,
}

/// Partition `queries` into merge groups.
///
/// Queries merge when they target the same table, have predicates on the
/// same columns, and agree on the values of all predicate columns except at
/// most one (the *varying* column). Their aggregates may differ — the union
/// of aggregates becomes the merged query's select list. Queries that merge
/// with nothing become singleton groups (whose `merged` query is the
/// original, modulo aggregate dedup).
pub fn plan_merged(queries: &[Query]) -> Vec<MergeGroup> {
    // Bucket by (table, sorted predicate columns), with identifiers
    // normalized by the same `canon_ident` the query fingerprint uses.
    let mut buckets: FxHashMap<(String, Vec<String>), Vec<usize>> = FxHashMap::default();
    for (i, q) in queries.iter().enumerate() {
        let mut cols: Vec<String> = q
            .predicates
            .iter()
            .map(|p| canon_ident(&p.column))
            .collect();
        cols.sort_unstable();
        buckets
            .entry((canon_ident(&q.table), cols))
            .or_default()
            .push(i);
    }
    let mut keys: Vec<_> = buckets.keys().cloned().collect();
    keys.sort_unstable();
    let mut groups = Vec::new();
    for key in keys {
        let members = &buckets[&key];
        groups.extend(merge_bucket(queries, members, &key.1));
    }
    let obs = muve_obs::metrics();
    obs.counter("dbms.merge_groups").add(groups.len() as u64);
    for g in &groups {
        obs.histogram("dbms.merge_group_size")
            .record(g.members.len() as u64);
    }
    groups
}

/// Signature of a query's predicate values excluding column `skip`
/// (`usize::MAX` to keep all). Predicates assumed to be single equalities;
/// IN predicates or duplicate columns make the query unmergeable.
fn signature(q: &Query, cols: &[String], skip: usize) -> Option<Vec<String>> {
    let mut sig = Vec::with_capacity(cols.len());
    for (ci, col) in cols.iter().enumerate() {
        if ci == skip {
            continue;
        }
        let pred = q
            .predicates
            .iter()
            .find(|p| p.column.eq_ignore_ascii_case(col))?;
        match &pred.op {
            PredOp::Eq(v) => sig.push(format!("{col}\u{1}{v:?}")),
            // Comparison predicates may be shared verbatim but never vary.
            PredOp::Cmp(op, v) => sig.push(format!("{col}\u{1}{op}{v:?}")),
            PredOp::In(_) => return None,
        }
    }
    Some(sig)
}

fn eq_value(q: &Query, col: &str) -> Option<Value> {
    q.predicates
        .iter()
        .find(|p| p.column.eq_ignore_ascii_case(col))
        .and_then(|p| match &p.op {
            PredOp::Eq(v) => Some(v.clone()),
            _ => None,
        })
}

/// The full predicate on `col` (used to carry shared non-equality
/// predicates into the merged query).
fn shared_pred(q: &Query, col: &str) -> Option<Predicate> {
    q.predicates
        .iter()
        .find(|p| p.column.eq_ignore_ascii_case(col))
        .cloned()
}

/// Sub-bucketing of mergeable queries by their fixed-predicate signature.
type SubBuckets = FxHashMap<Vec<String>, Vec<usize>>;

fn merge_bucket(queries: &[Query], members: &[usize], cols: &[String]) -> Vec<MergeGroup> {
    // Queries with GROUP BY, IN predicates, no aggregates, or several
    // predicates on the same column (possible after phonetic rebinding) do
    // not participate in merging: the signature scheme assumes one equality
    // per column and the rewrite maps each member to an aggregate column.
    let has_dup_cols = cols.windows(2).any(|w| w[0] == w[1]);
    let (mergeable, singles): (Vec<usize>, Vec<usize>) = members.iter().partition(|&&i| {
        !has_dup_cols
            && queries[i].group_by.is_empty()
            && !queries[i].aggregates.is_empty()
            && signature(&queries[i], cols, usize::MAX).is_some()
    });
    let mut out: Vec<MergeGroup> = singles.into_iter().map(|i| singleton(queries, i)).collect();
    if mergeable.is_empty() {
        return out;
    }
    // Choose the varying column minimizing the number of sub-groups. Only
    // columns where every member carries an equality predicate are
    // eligible (comparison predicates cannot become IN/GROUP BY);
    // `usize::MAX` stands for "no varying column" (identical predicates,
    // aggregates merged into one select list).
    let mut best: Option<(usize, SubBuckets)> = None;
    let mut choices: Vec<usize> = vec![usize::MAX];
    for (ci, col) in cols.iter().enumerate() {
        if mergeable
            .iter()
            .all(|&i| eq_value(&queries[i], col).is_some())
        {
            choices.push(ci);
        }
    }
    for skip in choices {
        let mut sub: SubBuckets = SubBuckets::default();
        let mut complete = true;
        for &i in &mergeable {
            // Members were pre-checked with `skip = usize::MAX`; a narrower
            // skip can still fail (defensively) — drop the choice, not the
            // process.
            match signature(&queries[i], cols, skip) {
                Some(sig) => sub.entry(sig).or_default().push(i),
                None => {
                    complete = false;
                    break;
                }
            }
        }
        if complete && best.as_ref().is_none_or(|(_, b)| sub.len() < b.len()) {
            best = Some((skip, sub));
        }
    }
    // No viable varying-column choice: fall back to executing each member
    // on its own rather than panicking.
    let Some((skip, sub)) = best else {
        out.extend(mergeable.into_iter().map(|i| singleton(queries, i)));
        return out;
    };
    let mut sigs: Vec<_> = sub.keys().cloned().collect();
    sigs.sort_unstable();
    for sig in sigs {
        let group_members = &sub[&sig];
        out.push(build_group(queries, group_members, cols, skip));
    }
    out
}

fn singleton(queries: &[Query], index: usize) -> MergeGroup {
    MergeGroup {
        merged: queries[index].clone(),
        members: vec![MergeMember {
            index,
            key: None,
            agg: 0,
        }],
    }
}

fn build_group(queries: &[Query], members: &[usize], cols: &[String], skip: usize) -> MergeGroup {
    let first = &queries[members[0]];
    // Union of aggregates, preserving first-seen order.
    let mut aggs: Vec<Aggregate> = Vec::new();
    let agg_of = |agg: &Aggregate, aggs: &mut Vec<Aggregate>| -> usize {
        match aggs.iter().position(|a| a == agg) {
            Some(i) => i,
            None => {
                aggs.push(agg.clone());
                aggs.len() - 1
            }
        }
    };
    let vary_col = cols.get(skip).cloned();
    // Distinct varying values in first-seen order.
    let mut vary_values: Vec<Value> = Vec::new();
    let mut out_members = Vec::with_capacity(members.len());
    for &i in members {
        let q = &queries[i];
        let key = vary_col.as_deref().and_then(|c| eq_value(q, c));
        if let Some(v) = &key {
            if !vary_values.contains(v) {
                vary_values.push(v.clone());
            }
        }
        // Paper scope: each candidate query has one aggregate; we support
        // several by mapping each member to its first aggregate.
        let agg = agg_of(&q.aggregates[0], &mut aggs);
        out_members.push(MergeMember { index: i, key, agg });
    }
    // Shared predicates: everything except the varying column, carried
    // over verbatim (equality or comparison).
    let mut predicates: Vec<Predicate> = Vec::new();
    for (ci, col) in cols.iter().enumerate() {
        if ci == skip {
            continue;
        }
        if let Some(p) = shared_pred(first, col) {
            predicates.push(p);
        }
    }
    let (group_by, vary_pred) = match (&vary_col, vary_values.len()) {
        (Some(c), n) if n > 1 => (
            vec![c.clone()],
            Some(Predicate::is_in(c.clone(), vary_values.clone())),
        ),
        (Some(c), 1) => (
            Vec::new(),
            Some(Predicate::eq(c.clone(), vary_values[0].clone())),
        ),
        _ => (Vec::new(), None),
    };
    if let Some(p) = vary_pred {
        predicates.push(p);
    }
    // Members of a non-grouped merge need no key.
    let grouped = !group_by.is_empty();
    let members = out_members
        .into_iter()
        .map(|mut m| {
            if !grouped {
                m.key = None;
            }
            m
        })
        .collect();
    MergeGroup {
        merged: Query {
            table: first.table.clone(),
            aggregates: aggs,
            predicates,
            group_by,
        },
        members,
    }
}

/// Result of executing a merge group: per original query index, the scalar
/// result (`None` when NULL, e.g. empty `sum`).
#[derive(Debug, Clone)]
pub struct MergedResults {
    /// `(original query index, scalar result)` pairs.
    pub results: Vec<(usize, Option<f64>)>,
    /// Scan statistics of the single merged execution.
    pub stats: ExecStats,
}

/// Execute one merge group against `table`: its merged query as a
/// [`ScanRows::All`] request under `opts` (the merged scan, including its
/// grouped aggregation state, honours the same cancellation and memory
/// governor as direct execution), then each member's scalar through
/// [`extract_merged`].
pub fn execute_merged_with_opts(
    table: &Table,
    group: &MergeGroup,
    opts: ExecOptions<'_>,
) -> Result<MergedResults, ExecError> {
    let rs = ScanRequest::new(ScanRows::All, opts).run(table, &group.merged)?;
    Ok(MergedResults {
        results: extract_merged(&rs, group),
        stats: rs.stats,
    })
}

#[cfg(test)]
fn run_merged(table: &Table, group: &MergeGroup) -> Result<MergedResults, ExecError> {
    execute_merged_with_opts(table, group, ExecOptions::default())
}

/// Recover each member's scalar from a merged [`ResultSet`] — whether that
/// result came from a fresh execution, an approximate (sampled) one, or
/// the result cache. Per member: its group row (by varying-column key when
/// grouped), then its aggregate column. A missing group means zero
/// matching rows: count is 0, other aggregates NULL.
pub fn extract_merged(rs: &ResultSet, group: &MergeGroup) -> Vec<(usize, Option<f64>)> {
    let n_group = group.merged.group_by.len();
    let mut results = Vec::with_capacity(group.members.len());
    for m in &group.members {
        let agg_func = group.merged.aggregates[m.agg].func;
        let row = match (&m.key, n_group) {
            (Some(key), 1) => rs.rows.iter().find(|r| &r[0] == key),
            _ => rs.rows.first(),
        };
        let value = row.and_then(|r| r[n_group + m.agg].as_f64());
        let value = match (value, agg_func) {
            (None, crate::ast::AggFunc::Count) => Some(0.0),
            (v, _) => v,
        };
        results.push((m.index, value));
    }
    results
}

/// The planner's access-path choice for each merge group, in group order.
///
/// Merging rewrites many per-candidate scans into few grouped queries;
/// *this* decides, per rewritten query, whether that one scan should even
/// touch the whole table: a group whose `IN` list resolves to a sliver of
/// the dictionary takes the inverted-index path, a broad group scans.
/// Execution — a [`ScanRows::All`] request over the group's merged query,
/// which is what the session pipeline and [`execute_merged_with_opts`]
/// run — makes the identical decision internally; this function is the
/// reporting surface for EXPLAIN-style output (the CLI shows it next to
/// `\index status`).
pub fn plan_group_paths(
    table: &Table,
    groups: &[MergeGroup],
    params: &CostParams,
) -> Vec<AccessPath> {
    groups
        .iter()
        .map(|g| choose_access_path(table, &g.merged, params))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::parser::parse;
    use crate::schema::Schema;
    use crate::value::ColumnType;

    fn flights() -> Table {
        let schema = Schema::new([
            ("origin", ColumnType::Str),
            ("carrier", ColumnType::Str),
            ("delay", ColumnType::Int),
        ]);
        let mut b = Table::builder("flights", schema);
        let rows: &[(&str, &str, i64)] = &[
            ("JFK", "AA", 10),
            ("JFK", "UA", 20),
            ("LGA", "AA", 30),
            ("JFK", "AA", 40),
            ("LGA", "DL", 50),
            ("EWR", "AA", 60),
        ];
        for &(o, c, d) in rows {
            b.push_row([o.into(), c.into(), d.into()]);
        }
        b.build()
    }

    fn q(sql: &str) -> Query {
        parse(sql).unwrap()
    }

    #[test]
    fn phonetic_candidates_merge_into_one_group() {
        // Same template, varying constant: classic MUVE candidate set.
        let queries = vec![
            q("select sum(delay) from flights where origin = 'JFK'"),
            q("select sum(delay) from flights where origin = 'LGA'"),
            q("select sum(delay) from flights where origin = 'EWR'"),
        ];
        let groups = plan_merged(&queries);
        assert_eq!(groups.len(), 1);
        let g = &groups[0];
        assert_eq!(g.merged.group_by, vec!["origin".to_string()]);
        assert_eq!(g.members.len(), 3);
        let r = run_merged(&flights(), g).unwrap();
        let by_index: FxHashMap<usize, Option<f64>> = r.results.iter().cloned().collect();
        assert_eq!(by_index[&0], Some(70.0));
        assert_eq!(by_index[&1], Some(80.0));
        assert_eq!(by_index[&2], Some(60.0));
    }

    #[test]
    fn merged_matches_separate_execution() {
        let queries = vec![
            q("select count(*) from flights where carrier = 'AA'"),
            q("select count(*) from flights where carrier = 'UA'"),
            q("select count(*) from flights where carrier = 'ZZ'"),
        ];
        let t = flights();
        let groups = plan_merged(&queries);
        let mut merged_results = vec![None; queries.len()];
        for g in &groups {
            for (idx, v) in run_merged(&t, g).unwrap().results {
                merged_results[idx] = v;
            }
        }
        for (i, query) in queries.iter().enumerate() {
            let direct = execute(&t, query).unwrap().scalar();
            assert_eq!(merged_results[i], direct.or(Some(0.0)), "query {i}");
        }
    }

    #[test]
    fn missing_group_count_is_zero() {
        let queries = vec![
            q("select count(*) from flights where origin = 'JFK'"),
            q("select count(*) from flights where origin = 'XXX'"),
        ];
        let groups = plan_merged(&queries);
        assert_eq!(groups.len(), 1);
        let r = run_merged(&flights(), &groups[0]).unwrap();
        let by_index: FxHashMap<usize, Option<f64>> = r.results.iter().cloned().collect();
        assert_eq!(by_index[&1], Some(0.0));
    }

    #[test]
    fn differing_aggregates_become_columns() {
        let queries = vec![
            q("select sum(delay) from flights where origin = 'JFK'"),
            q("select avg(delay) from flights where origin = 'JFK'"),
        ];
        let groups = plan_merged(&queries);
        assert_eq!(groups.len(), 1);
        let g = &groups[0];
        assert_eq!(g.merged.aggregates.len(), 2);
        assert!(g.merged.group_by.is_empty());
        let r = run_merged(&flights(), g).unwrap();
        let by_index: FxHashMap<usize, Option<f64>> = r.results.iter().cloned().collect();
        assert_eq!(by_index[&0], Some(70.0));
        assert!((by_index[&1].unwrap() - 70.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn two_predicates_vary_one_column() {
        let queries = vec![
            q("select count(*) from flights where origin = 'JFK' and carrier = 'AA'"),
            q("select count(*) from flights where origin = 'JFK' and carrier = 'UA'"),
        ];
        let groups = plan_merged(&queries);
        assert_eq!(groups.len(), 1);
        let g = &groups[0];
        assert_eq!(g.merged.group_by, vec!["carrier".to_string()]);
        let r = run_merged(&flights(), g).unwrap();
        let by_index: FxHashMap<usize, Option<f64>> = r.results.iter().cloned().collect();
        assert_eq!(by_index[&0], Some(2.0));
        assert_eq!(by_index[&1], Some(1.0));
    }

    #[test]
    fn unrelated_queries_stay_separate() {
        let queries = vec![
            q("select count(*) from flights where origin = 'JFK'"),
            q("select count(*) from flights where delay = 10"),
        ];
        let groups = plan_merged(&queries);
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn group_by_queries_not_merged() {
        let queries = vec![
            q("select count(*) from flights where origin = 'JFK' group by carrier"),
            q("select count(*) from flights where origin = 'LGA' group by carrier"),
        ];
        let groups = plan_merged(&queries);
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn per_group_paths_follow_selectivity() {
        // 200 distinct keys: the merged IN(2)/200 group is selective
        // enough for the index path; the unindexable range group scans.
        let schema = Schema::new([("k", ColumnType::Str), ("v", ColumnType::Int)]);
        let mut b = Table::builder("t", schema);
        for i in 0..4000i64 {
            b.push_row([Value::from(format!("k{}", i % 200)), Value::Int(i)]);
        }
        let t = b.build();
        let queries = vec![
            q("select sum(v) from t where k = 'k1'"),
            q("select sum(v) from t where k = 'k2'"),
            q("select count(*) from t where v > 3"),
        ];
        let groups = plan_merged(&queries);
        assert_eq!(groups.len(), 2);
        let paths = plan_group_paths(&t, &groups, &CostParams::default());
        let merged_pos = groups
            .iter()
            .position(|g| g.members.len() == 2)
            .expect("the two equality queries merge");
        match paths[merged_pos] {
            AccessPath::IndexScan { selectivity } => {
                assert!((selectivity - 2.0 / 200.0).abs() < 1e-12)
            }
            other => panic!("merged group should take the index: {other:?}"),
        }
        assert_eq!(paths[1 - merged_pos], AccessPath::BatchScan);
    }

    #[test]
    fn merged_scan_count_is_single_scan() {
        let t = flights();
        let queries = vec![
            q("select count(*) from flights where origin = 'JFK'"),
            q("select count(*) from flights where origin = 'LGA'"),
        ];
        let groups = plan_merged(&queries);
        let r = run_merged(&t, &groups[0]).unwrap();
        assert_eq!(r.stats.rows_scanned, t.num_rows());
    }
}
#[cfg(test)]
mod duplicate_column_tests {
    use super::*;
    use crate::exec::execute;
    use crate::parser::parse;
    use crate::schema::Schema;
    use crate::table::Table;
    use crate::value::ColumnType;

    #[test]
    fn contradictory_predicates_stay_separate_and_correct() {
        // Phonetic rebinding can produce two equalities on one column; the
        // merged plan must not drop either predicate.
        let schema = Schema::new([("c", ColumnType::Str), ("v", ColumnType::Int)]);
        let mut b = Table::builder("t", schema);
        for (c, v) in [("noise", 10i64), ("rodent", 20), ("noise", 30)] {
            b.push_row([c.into(), v.into()]);
        }
        let t = b.build();
        let queries = vec![
            parse("select sum(v) from t where c = 'noise' and c = 'rodent'").unwrap(),
            parse("select sum(v) from t where c = 'noise' and c = 'noise'").unwrap(),
        ];
        let groups = plan_merged(&queries);
        let mut results = vec![None; queries.len()];
        for g in &groups {
            for (idx, v) in run_merged(&t, g).unwrap().results {
                results[idx] = v;
            }
        }
        assert_eq!(results[0], execute(&t, &queries[0]).unwrap().scalar()); // NULL (no match)
        assert_eq!(results[1], Some(40.0));
    }
}

#[cfg(test)]
mod cmp_merge_tests {
    use super::*;
    use crate::exec::execute;
    use crate::parser::parse;
    use crate::schema::Schema;
    use crate::table::Table;
    use crate::value::ColumnType;

    fn t() -> Table {
        let schema = Schema::new([("k", ColumnType::Str), ("v", ColumnType::Int)]);
        let mut b = Table::builder("t", schema);
        for i in 0..12i64 {
            b.push_row([Value::from(format!("k{}", i % 3)), Value::Int(i)]);
        }
        b.build()
    }

    #[test]
    fn shared_range_predicate_merges_on_eq_column() {
        // Same range condition, varying equality constant: must merge with
        // the range carried into the merged query.
        let queries = vec![
            parse("select count(*) from t where k = 'k0' and v > 5").unwrap(),
            parse("select count(*) from t where k = 'k1' and v > 5").unwrap(),
        ];
        let groups = plan_merged(&queries);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].merged.group_by, vec!["k".to_string()]);
        let table = t();
        let mut results = [None; 2];
        for (i, v) in run_merged(&table, &groups[0]).unwrap().results {
            results[i] = v;
        }
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(
                results[i],
                execute(&table, q).unwrap().scalar(),
                "query {i}"
            );
        }
    }

    #[test]
    fn differing_range_predicates_do_not_merge_grouped() {
        // Range values differ: the varying column (v) carries Cmp, so it
        // cannot become IN/GROUP BY — results must still be correct.
        let queries = vec![
            parse("select count(*) from t where v > 5").unwrap(),
            parse("select count(*) from t where v > 8").unwrap(),
        ];
        let table = t();
        let groups = plan_merged(&queries);
        let mut results = [None; 2];
        for g in &groups {
            for (i, v) in run_merged(&table, g).unwrap().results {
                results[i] = v;
            }
        }
        assert_eq!(results[0], Some(6.0));
        assert_eq!(results[1], Some(3.0));
    }

    #[test]
    fn degenerate_group_without_aggregates_falls_back_to_singletons() {
        // A query with an empty select list can reach the merger through
        // programmatic construction (fault injection, partial rebinding).
        // It must become a singleton group instead of panicking inside
        // build_group, and healthy siblings must still merge.
        let degenerate = Query {
            table: "t".into(),
            aggregates: vec![],
            predicates: vec![],
            group_by: vec![],
        };
        let queries = vec![
            parse("select count(*) from t where k = 'k0'").unwrap(),
            degenerate.clone(),
            parse("select count(*) from t where k = 'k1'").unwrap(),
        ];
        let groups = plan_merged(&queries);
        // One merged group for the two healthy queries, one singleton for
        // the degenerate one.
        assert_eq!(groups.len(), 2, "{groups:?}");
        let single = groups
            .iter()
            .find(|g| g.members.len() == 1 && g.members[0].index == 1)
            .expect("degenerate query becomes a singleton");
        assert!(single.merged.aggregates.is_empty());
        let merged = groups.iter().find(|g| g.members.len() == 2).unwrap();
        let table = t();
        let mut results = [None; 3];
        for (i, v) in run_merged(&table, merged).unwrap().results {
            results[i] = v;
        }
        assert_eq!(results[0], Some(4.0));
        assert_eq!(results[2], Some(4.0));
        // Executing the singleton errors gracefully (no aggregates) rather
        // than panicking.
        assert!(run_merged(&table, single).is_err());
    }

    #[test]
    fn identical_predicates_different_aggregates_merge() {
        let queries = vec![
            parse("select sum(v) from t where v >= 6").unwrap(),
            parse("select avg(v) from t where v >= 6").unwrap(),
            parse("select count(*) from t where v >= 6").unwrap(),
        ];
        let groups = plan_merged(&queries);
        assert_eq!(groups.len(), 1, "{groups:?}");
        assert_eq!(groups[0].merged.aggregates.len(), 3);
        let table = t();
        let mut results = [None; 3];
        for (i, v) in run_merged(&table, &groups[0]).unwrap().results {
            results[i] = v;
        }
        assert_eq!(results[0], Some(51.0)); // 6+..+11
        assert!((results[1].unwrap() - 8.5).abs() < 1e-9);
        assert_eq!(results[2], Some(6.0));
    }
}
