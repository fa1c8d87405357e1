//! Microbenchmarks of the DBMS substrate: filtered aggregation scans,
//! grouped scans, sampling, and merged vs separate candidate execution
//! (the engine-level operations of paper §8/§9.3).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use muve_data::Dataset;
use muve_dbms::{execute, execute_merged_with_opts, parse, plan_merged, ExecOptions, Query};

fn bench_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_agg");
    for &rows in &[10_000usize, 100_000] {
        let table = Dataset::Flights.generate(rows, 1);
        let q = parse("select avg(dep_delay) from flights where origin = 'JFK'").unwrap();
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(rows),
            &(table, q),
            |b, (t, q)| b.iter(|| black_box(execute(t, q).unwrap())),
        );
    }
    group.finish();
}

fn bench_group_by(c: &mut Criterion) {
    let table = Dataset::Flights.generate(100_000, 2);
    let q = parse("select count(*), avg(dep_delay) from flights group by origin").unwrap();
    c.bench_function("scan_group_by_100k", |b| {
        b.iter(|| black_box(execute(&table, &q).unwrap()))
    });
}

fn candidate_queries(n: usize) -> Vec<Query> {
    let origins = [
        "JFK", "LGA", "EWR", "ORD", "ATL", "LAX", "SFO", "DFW", "DEN", "SEA",
    ];
    (0..n)
        .map(|i| {
            parse(&format!(
                "select avg(dep_delay) from flights where origin = '{}'",
                origins[i % origins.len()]
            ))
            .unwrap()
        })
        .collect()
}

fn bench_merged_vs_separate(c: &mut Criterion) {
    let table = Dataset::Flights.generate(100_000, 3);
    let queries = candidate_queries(10);
    c.bench_function("execute_10_candidates/separate", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(execute(&table, q).unwrap());
            }
        })
    });
    let groups = plan_merged(&queries);
    c.bench_function("execute_10_candidates/merged", |b| {
        b.iter(|| {
            for g in &groups {
                black_box(execute_merged_with_opts(&table, g, ExecOptions::default()).unwrap());
            }
        })
    });
}

fn bench_sampling(c: &mut Criterion) {
    let table = Dataset::Flights.generate(100_000, 4);
    let q = parse("select sum(dep_delay) from flights where origin = 'JFK'").unwrap();
    c.bench_function("approximate_1pct_100k", |b| {
        b.iter(|| black_box(muve_dbms::execute_approximate(&table, &q, 0.01, 9).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_scan,
    bench_group_by,
    bench_merged_vs_separate,
    bench_sampling
);
criterion_main!(benches);
