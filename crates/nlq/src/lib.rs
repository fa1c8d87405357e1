//! # muve-nlq
//!
//! The natural-language and voice front-end of MUVE (paper §3): a
//! deterministic [`text2sql`] translator (the SQLova substitute), a seeded
//! phonetic [`speech`] noise channel (the Web Speech API substitute), and
//! the paper's own [`candidates`] layer that turns the most likely query
//! into a probability distribution over phonetically similar candidate
//! queries ("text to multi-SQL"). A [`Lexicon`] holds both lookup
//! structures of one table, so a long-lived caller builds them once.
//!
//! ```
//! use muve_dbms::{ColumnType, Schema, Table, Value};
//! use muve_nlq::{translate, CandidateGenerator};
//!
//! let schema = Schema::new([("borough", ColumnType::Str), ("calls", ColumnType::Int)]);
//! let mut b = Table::builder("requests", schema);
//! b.push_row([Value::from("Brooklyn"), Value::from(3i64)]);
//! b.push_row([Value::from("Queens"), Value::from(5i64)]);
//! let table = b.build();
//!
//! let q = translate("total calls in brooklyn", &table).unwrap();
//! let cands = CandidateGenerator::new(&table).candidates(&q, 20, 10);
//! assert_eq!(cands[0].query, q);
//! let total: f64 = cands.iter().map(|c| c.probability).sum();
//! assert!((total - 1.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod candidates;
pub mod describe;
pub mod lexicon;
pub mod numwords;
pub mod speech;
pub mod text2sql;

pub use candidates::{CandidateError, CandidateGenerator, CandidateQuery};
pub use describe::describe_query;
pub use lexicon::Lexicon;
pub use numwords::{confusable_numbers, number_to_words};
pub use speech::SpeechChannel;
pub use text2sql::{translate, TranslateError};
