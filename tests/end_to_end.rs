//! Cross-crate integration tests: the full MUVE pipeline from utterance to
//! rendered multiplot, spanning muve-nlq, muve-core, muve-dbms, muve-data
//! and muve-sim.

use muve::core::{
    greedy_plan, ilp_plan, plan, present, render_svg, render_text, Candidate, IlpConfig, Mode,
    Planner, Presentation, ScreenConfig, UserCostModel,
};
use muve::data::{Dataset, QueryGenerator};
use muve::dbms::{execute, execute_merged_with_opts, plan_merged, ExecOptions, Query};
use muve::nlq::{translate, CandidateGenerator, SpeechChannel};
use muve::sim::{SimUser, SimUserConfig};

fn candidate_set(table: &muve::dbms::Table, base: &Query, k: usize) -> Vec<Candidate> {
    CandidateGenerator::new(table)
        .candidates(base, 20, k)
        .into_iter()
        .map(|c| Candidate::new(c.query, c.probability))
        .collect()
}

#[test]
fn utterance_to_rendered_multiplot() {
    let table = Dataset::Nyc311.generate(5_000, 7);
    let base = translate(
        "average resolution hours for noise complaints in brooklyn",
        &table,
    )
    .expect("translates");
    assert_eq!(
        base.to_sql(),
        "select avg(resolution_hours) from requests where complaint_type = 'noise' \
         and borough = 'Brooklyn'"
    );
    let candidates = candidate_set(&table, &base, 12);
    assert!(candidates.len() > 3);

    let screen = ScreenConfig::iphone(1);
    let model = UserCostModel::default();
    let multiplot = greedy_plan(&candidates, &screen, &model);
    assert!(multiplot.fits(&screen));
    // Paper §1: the planner may prefer covering many likely queries over
    // showing the single most likely one — but the covered probability
    // mass must then be at least the top candidate's own mass.
    let covered: f64 = multiplot
        .candidates_shown()
        .iter()
        .map(|&i| candidates[i].probability)
        .sum();
    assert!(
        covered >= candidates[0].probability - 1e-9,
        "covered {covered} < top candidate {}",
        candidates[0].probability
    );

    // Execute shown queries merged and verify against direct execution.
    let shown = multiplot.candidates_shown();
    let queries: Vec<Query> = shown.iter().map(|&i| candidates[i].query.clone()).collect();
    let mut results = vec![None; candidates.len()];
    for g in plan_merged(&queries) {
        for (local, v) in execute_merged_with_opts(&table, &g, ExecOptions::default())
            .expect("merged execution")
            .results
        {
            results[shown[local]] = v;
        }
    }
    for &i in &shown {
        let direct = execute(&table, &candidates[i].query)
            .expect("direct")
            .scalar();
        let merged = results[i];
        match (merged, direct) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "candidate {i}: {a} vs {b}"),
            (a, b) => assert_eq!(a.unwrap_or(0.0), b.unwrap_or(0.0), "candidate {i}"),
        }
    }

    // Renders produce non-trivial output.
    let text = render_text(&multiplot, &results);
    assert!(text.contains("=="));
    let svg = render_svg(&multiplot, &results, screen.width_px);
    assert!(svg.contains("<rect") && svg.ends_with("</svg>"));
}

#[test]
fn noisy_channel_recovery_rate() {
    // Over many noisy transcripts, MUVE's candidate set recovers the
    // intended interpretation far more often than exact matching alone.
    let table = Dataset::Nyc311.generate(3_000, 1);
    let vocab: Vec<String> = {
        let mut v: Vec<String> = Vec::new();
        for (i, def) in table.schema().columns().iter().enumerate() {
            v.extend(def.name.split('_').map(str::to_owned));
            if let Some(dict) = table.column(i).dictionary() {
                v.extend(dict.entries().iter().cloned());
            }
        }
        v
    };
    let intended = "count of noise complaints in brooklyn";
    let intended_query = translate(intended, &table).unwrap();
    let gen = CandidateGenerator::new(&table);

    let mut corrupted = 0;
    let mut exact_survives = 0;
    let mut recovered = 0;
    for seed in 0..40u64 {
        let mut channel = SpeechChannel::new(vocab.clone(), 0.25, seed);
        let heard = channel.transmit(intended);
        if heard == intended {
            continue;
        }
        corrupted += 1;
        let Ok(base) = translate(&heard, &table) else {
            continue;
        };
        if base == intended_query {
            exact_survives += 1;
            recovered += 1;
            continue;
        }
        let cands = gen.candidates(&base, 20, 16);
        if cands.iter().any(|c| c.query == intended_query) {
            recovered += 1;
        }
    }
    assert!(corrupted >= 10, "noise channel too quiet: {corrupted}");
    assert!(
        recovered > exact_survives,
        "phonetic candidates must recover more than exact translation \
         (recovered {recovered}, exact {exact_survives}, corrupted {corrupted})"
    );
}

#[test]
fn ilp_and_greedy_agree_on_easy_instances() {
    let table = Dataset::Dob.generate(2_000, 3);
    let mut gen = QueryGenerator::new(&table, 11);
    let model = UserCostModel::default();
    let screen = ScreenConfig::iphone(1);
    for _ in 0..3 {
        let base = gen.query(1);
        let candidates = candidate_set(&table, &base, 6);
        let g = greedy_plan(&candidates, &screen, &model);
        let out = ilp_plan(
            &candidates,
            &screen,
            &model,
            &IlpConfig {
                node_budget: Some(20_000),
                warm_start: false,
                ..IlpConfig::default()
            },
        );
        let gc = model.expected_cost(&g, &candidates);
        assert!(
            out.expected_cost <= gc + 1e-6,
            "ILP {} must not lose to greedy {gc} when solved to optimality ({:?})",
            out.expected_cost,
            out.status,
        );
    }
}

#[test]
fn presentation_traces_are_consistent() {
    let table = Dataset::Flights.generate(30_000, 5);
    let mut gen = QueryGenerator::new(&table, 13);
    let base = gen.query(1);
    let candidates = candidate_set(&table, &base, 10);
    let screen = ScreenConfig::iphone(1);
    let model = UserCostModel::default();
    for mode in [
        Mode::Full,
        Mode::IncrementalPlot,
        Mode::Approximate { fraction: 0.05 },
    ] {
        let pres = Presentation {
            planner: Planner::Greedy,
            mode,
            seed: 1,
        };
        let trace = present(&table, &candidates, &screen, &model, &pres);
        assert!(!trace.events.is_empty());
        // Timestamps are monotone.
        for w in trace.events.windows(2) {
            assert!(w[1].at >= w[0].at);
        }
        // The final event is exact.
        assert!(!trace.events.last().unwrap().approx);
        // F-Time for any shown candidate is at most T-Time.
        for &c in &trace.multiplot.candidates_shown() {
            if let Some(f) = trace.f_time(c) {
                assert!(f <= trace.t_time());
            }
        }
    }
}

#[test]
fn simulated_user_finds_planned_results_quickly() {
    // The planner optimizes expected model time; the stochastic user's
    // empirical mean over many reads should land in the same ballpark.
    let table = Dataset::Ads.generate(2_000, 9);
    let mut gen = QueryGenerator::new(&table, 17);
    let base = gen.query(1);
    let candidates = candidate_set(&table, &base, 8);
    let screen = ScreenConfig::desktop(1);
    let model = UserCostModel::default();
    let planned = plan(&Planner::Greedy, &candidates, &screen, &model);

    let cfg = SimUserConfig {
        noise_sigma: 0.0,
        ..SimUserConfig::default()
    };
    let mut total = 0.0;
    let n = 300;
    for seed in 0..n {
        let mut user = SimUser::new(cfg, seed);
        // Draw the "correct" candidate from the distribution deterministically.
        let target = (seed as usize) % candidates.len();
        total += user.read(&planned.multiplot, target).time_ms;
    }
    let empirical = total / n as f64;
    // Model cost is expectation over the candidate distribution; the
    // uniform-target empirical mean should be within a factor ~3.
    assert!(
        empirical < planned.expected_cost * 3.0 + 5_000.0,
        "empirical {empirical} vs model {}",
        planned.expected_cost
    );
}
