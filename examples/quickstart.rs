//! Quickstart: ask an ambiguous question, get a multiplot.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a tiny 311-style table, translates a natural-language question
//! into SQL, expands it into phonetically similar candidate queries,
//! plans the cost-optimal multiplot, executes the queries (merged), and
//! renders the result as text.

use muve::core::{greedy_plan, headline, render_text, Candidate, ScreenConfig, UserCostModel};
use muve::dbms::{
    execute_merged_with_opts, plan_merged, ColumnType, ExecOptions, Query, Schema, Table, Value,
};
use muve::nlq::{translate, CandidateGenerator};

fn main() {
    // 1. A small database table.
    let schema = Schema::new([
        ("borough", ColumnType::Str),
        ("complaint_type", ColumnType::Str),
        ("calls", ColumnType::Int),
    ]);
    let mut b = Table::builder("requests", schema);
    for (borough, complaint, calls) in [
        ("Brooklyn", "noise", 120i64),
        ("Brooklyn", "rodent", 45),
        ("Queens", "noise", 80),
        ("Queens", "illegal parking", 60),
        ("Bronx", "noise", 95),
        ("Bronx", "heat hot water", 70),
    ] {
        b.push_row([borough.into(), complaint.into(), Value::Int(calls)]);
    }
    let table = b.build();

    // 2. Translate the user's question (imagine it arrived via speech
    //    recognition, possibly garbled).
    let utterance = "total calls for noise complaints in brooklyn";
    let base = translate(utterance, &table).expect("translatable");
    println!("utterance : {utterance}");
    println!("top query : {}\n", base.to_sql());

    // 3. Text to multi-SQL: a probability distribution over candidates.
    let candidates: Vec<Candidate> = CandidateGenerator::new(&table)
        .candidates(&base, 20, 8)
        .into_iter()
        .map(|c| Candidate::new(c.query, c.probability))
        .collect();
    println!("candidate interpretations:");
    for c in &candidates {
        println!("  {:>5.1}%  {}", c.probability * 100.0, c.query.to_sql());
    }

    // The headline outlines what all interpretations share (Figure 2b).
    println!("\nheadline: {}", headline(&candidates));

    // 4. Plan the multiplot for an iPhone-sized screen.
    let screen = ScreenConfig::iphone(1);
    let model = UserCostModel::default();
    let multiplot = greedy_plan(&candidates, &screen, &model);
    println!(
        "\nplanned multiplot: {} plots, {} bars ({} highlighted), expected \
         disambiguation {:.1} s",
        multiplot.num_plots(),
        multiplot.num_bars(),
        multiplot.num_red_bars(),
        model.expected_cost(&multiplot, &candidates) / 1000.0
    );

    // 5. Execute the shown queries, merged into as few scans as possible.
    let shown = multiplot.candidates_shown();
    let queries: Vec<Query> = shown.iter().map(|&i| candidates[i].query.clone()).collect();
    let mut results: Vec<Option<f64>> = vec![None; candidates.len()];
    for group in plan_merged(&queries) {
        let r =
            execute_merged_with_opts(&table, &group, ExecOptions::default()).expect("execution");
        for (local, v) in r.results {
            results[shown[local]] = v;
        }
    }

    // 6. Render.
    println!("\n{}", render_text(&multiplot, &results));
}
