//! A full voice-query session with noisy speech recognition.
//!
//! ```text
//! cargo run --release --example voice_session
//! ```
//!
//! Generates the NYC 311 dataset, pushes an utterance through the seeded
//! phonetic noise channel (the ASR stand-in), and shows how MUVE's
//! multiplot still surfaces the intended result even when the transcript
//! is garbled — the paper's headline scenario. Also writes the multiplot
//! as `multiplot.svg`.

use muve::core::{greedy_plan, render_svg, render_text, Candidate, ScreenConfig, UserCostModel};
use muve::data::Dataset;
use muve::dbms::{execute_merged_with_opts, plan_merged, ColumnType, ExecOptions, Query};
use muve::nlq::{translate, CandidateGenerator, SpeechChannel};

fn main() {
    let table = Dataset::Nyc311.generate(20_000, 42);

    // Confusion vocabulary: everything a user might plausibly say.
    let mut vocab: Vec<String> = table
        .schema()
        .columns()
        .iter()
        .flat_map(|c| c.name.split('_').map(str::to_owned))
        .collect();
    for (i, def) in table.schema().columns().iter().enumerate() {
        if def.ty == ColumnType::Str {
            if let Some(dict) = table.column(i).dictionary() {
                vocab.extend(dict.entries().iter().cloned());
            }
        }
    }
    let intended = "average resolution hours for noise complaints in brooklyn";
    // Sample noisy transcripts until one is garbled *and* recoverable —
    // i.e. the corruption hit a constant or column mention, MUVE's sweet
    // spot, rather than wiping out the aggregate keyword entirely. Real
    // ASR errors are a mix of both; the paper's recovery story concerns
    // the former.
    let intended_query = translate(intended, &table).expect("translatable");
    let mut heard = intended.to_owned();
    for seed in 0..200u64 {
        let mut channel = SpeechChannel::new(vocab.clone(), 0.12, seed);
        let t = channel.transmit(intended);
        if t == intended {
            continue;
        }
        let Ok(base) = translate(&t, &table) else {
            continue;
        };
        let cands = CandidateGenerator::new(&table).candidates(&base, 20, 12);
        if cands.iter().any(|c| c.query == intended_query) {
            heard = t;
            break;
        }
    }
    println!("user said : {intended}");
    println!("ASR heard : {heard}\n");

    // Translate what was heard and expand to candidates: phonetic
    // similarity recovers interpretations close to the intended query.
    let base = translate(&heard, &table).expect("translatable");
    let candidates: Vec<Candidate> = CandidateGenerator::new(&table)
        .candidates(&base, 20, 12)
        .into_iter()
        .map(|c| Candidate::new(c.query, c.probability))
        .collect();

    println!("translated (from noisy input): {}", base.to_sql());
    println!(
        "intended                     : {}\n",
        intended_query.to_sql()
    );

    let covered = candidates.iter().position(|c| c.query == intended_query);
    match covered {
        Some(i) => println!(
            "=> intended interpretation IS covered, as candidate #{i} \
             (p = {:.1}%)\n",
            candidates[i].probability * 100.0
        ),
        None => println!("=> intended interpretation not in the candidate set\n"),
    }

    let screen = ScreenConfig::tablet(2);
    let model = UserCostModel::default();
    let multiplot = greedy_plan(&candidates, &screen, &model);

    // Execute (merged) and render.
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
    println!("{}", render_text(&multiplot, &results));

    let svg = render_svg(&multiplot, &results, screen.width_px);
    std::fs::write("multiplot.svg", svg).expect("write svg");
    println!("wrote multiplot.svg");
    if let Some(i) = covered {
        if multiplot.shows(i) {
            println!(
                "the intended result is on screen{}",
                if multiplot.highlights(i) {
                    " and highlighted in red"
                } else {
                    ""
                }
            );
        }
    }
}
