//! One table's lexicon: everything the front-end looks an utterance up in.
//!
//! The paper looks each utterance up in a phonetic index built once over
//! the database (§3). [`translate`](crate::translate) and
//! [`CandidateGenerator::new`] instead build their lookup structures from
//! the table on every call. A [`Lexicon`] holds both — `translate`'s
//! n-gram tables and the candidate generator with its two phonetic
//! indexes — for one table, so a server or shell that answers many
//! utterances over the same table builds each of them once.
//!
//! Each part is built lazily, at most once, on the first call that needs
//! it: a `select …` transcript never builds the n-gram tables, and a
//! candidate-cache hit never builds the phonetic indexes. Creating a
//! lexicon builds nothing. It runs the same matching code as the free
//! functions; only where the structures live differs.

use crate::candidates::CandidateGenerator;
use crate::text2sql::{interpret, tokenize, Phrases, TranslateError};
use muve_dbms::{Query, Table};
use std::sync::OnceLock;

/// The lazily built lookup structures of one table.
///
/// A lexicon records the [`Table::fingerprint`] it was made for; every
/// method takes that table, and reads it only to build a part on first
/// use.
///
/// # Examples
/// ```
/// use muve_dbms::{ColumnType, Schema, Table, Value};
/// use muve_nlq::{translate, Lexicon};
///
/// let schema = Schema::new([("borough", ColumnType::Str), ("calls", ColumnType::Int)]);
/// let mut b = Table::builder("requests", schema);
/// b.push_row([Value::from("Brooklyn"), Value::from(3i64)]);
/// let table = b.build();
///
/// let lexicon = Lexicon::new(&table);
/// assert!(lexicon.serves(&table));
/// let q = lexicon.translate("total calls in brooklyn", &table).unwrap();
/// assert_eq!(q, translate("total calls in brooklyn", &table).unwrap());
/// assert_eq!(lexicon.built(), (true, false));
/// ```
#[derive(Debug)]
pub struct Lexicon {
    fingerprint: u64,
    phrases: OnceLock<Phrases>,
    generator: OnceLock<CandidateGenerator>,
}

impl Lexicon {
    /// An empty lexicon for `table`; nothing is built until first use.
    pub fn new(table: &Table) -> Lexicon {
        Lexicon {
            fingerprint: table.fingerprint(),
            phrases: OnceLock::new(),
            generator: OnceLock::new(),
        }
    }

    /// Whether this lexicon was made for `table` (same content
    /// fingerprint).
    pub fn serves(&self, table: &Table) -> bool {
        self.fingerprint == table.fingerprint()
    }

    /// Which parts have been built: (`translate`'s n-gram tables, the
    /// candidate generator). Each is built at most once.
    pub fn built(&self) -> (bool, bool) {
        (self.phrases.get().is_some(), self.generator.get().is_some())
    }

    /// [`translate`](crate::translate) against this lexicon's n-gram
    /// tables, building them on first use. An empty utterance builds
    /// nothing.
    ///
    /// # Panics
    /// Panics if `table` is not the table this lexicon was made for.
    pub fn translate(&self, utterance: &str, table: &Table) -> Result<Query, TranslateError> {
        let tokens = tokenize(utterance)?;
        self.check(table);
        let phrases = self.phrases.get_or_init(|| Phrases::new(table));
        Ok(interpret(phrases, &tokens))
    }

    /// The candidate generator over this lexicon's table, building it (and
    /// its phonetic indexes) on first use.
    ///
    /// # Panics
    /// Panics if `table` is not the table this lexicon was made for.
    pub fn generator(&self, table: &Table) -> &CandidateGenerator {
        self.check(table);
        self.generator
            .get_or_init(|| CandidateGenerator::new(table))
    }

    fn check(&self, table: &Table) {
        assert!(
            self.serves(table),
            "lexicon made for table fingerprint {:#x} used with table {:?} ({:#x})",
            self.fingerprint,
            table.name(),
            table.fingerprint()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muve_dbms::{parse, ColumnType, Schema, Value};

    fn table(suffix: &str) -> Table {
        let schema = Schema::new([("borough", ColumnType::Str), ("calls", ColumnType::Int)]);
        let mut b = Table::builder("requests", schema);
        for (i, name) in ["Brooklyn", "Queens", "Bronx"].into_iter().enumerate() {
            b.push_row([Value::from(format!("{name}{suffix}")), Value::Int(i as i64)]);
        }
        b.build()
    }

    #[test]
    fn new_builds_nothing() {
        let t = table("");
        let lexicon = Lexicon::new(&t);
        assert_eq!(lexicon.built(), (false, false));
        assert!(lexicon.serves(&t));
    }

    #[test]
    fn each_part_builds_only_when_used() {
        let t = table("");
        let lexicon = Lexicon::new(&t);
        assert_eq!(
            lexicon.translate("  ", &t),
            Err(TranslateError::Empty),
            "an empty utterance"
        );
        assert_eq!(lexicon.built(), (false, false));
        let q = lexicon.translate("total calls in queens", &t).unwrap();
        assert_eq!(lexicon.built(), (true, false));
        let base = parse("select sum(calls) from requests where borough = 'Queens'").unwrap();
        assert_eq!(q, base);
        let cands = lexicon.generator(&t).candidates(&base, 20, 5);
        assert_eq!(cands[0].query, base);
        assert_eq!(lexicon.built(), (true, true));
        // The second call reuses the first build.
        let first: *const CandidateGenerator = lexicon.generator(&t);
        assert!(std::ptr::eq(first, lexicon.generator(&t)));
    }

    #[test]
    fn serves_only_its_own_table() {
        let (a, b) = (table(""), table("x"));
        let lexicon = Lexicon::new(&a);
        assert!(lexicon.serves(&a));
        assert!(!lexicon.serves(&b));
    }

    #[test]
    #[should_panic(expected = "lexicon made for table fingerprint")]
    fn another_table_is_refused() {
        let (a, b) = (table(""), table("x"));
        let _ = Lexicon::new(&a).translate("total calls", &b);
    }
}
