//! # IQL — a functional, comprehension-based query language
//!
//! IQL is the query language that accompanies every schema transformation in the
//! AutoMed-style integration substrate and is also the language in which dataspace
//! queries are posed against federated, intersection and global schemas.
//!
//! The concrete syntax follows the paper:
//!
//! ```text
//! [{'PEDRO', k, x} | {k, x} <- <<protein, accession_num>>]
//! ```
//!
//! is a *comprehension*: the expression left of `|` builds a new collection element for
//! every binding produced by the generators and filters on the right. Collections are
//! **bags** (duplicates are retained), matching the paper's default bag-union semantics
//! for integrated extents. `<<t>>` / `<<t, c>>` are *scheme references* naming schema
//! objects whose extents are supplied by an [`ExtentProvider`]. `Range q_l q_u`, `Void`
//! and `Any` express the lower/upper bound queries used by `extend`/`contract`
//! transformations.
//!
//! ## Crate layout
//!
//! * [`ast`] / [`parser`] / [`lexer`] — surface syntax; [`Expr`] implements
//!   `Hash`/`Eq` so expressions can key caches directly, and `?name`
//!   placeholders ([`Expr::Param`]) keep one expression per query *shape*
//!   across parameter bindings;
//! * [`value`] — runtime values and bag algebra;
//! * [`codec`] — the one byte format: the tagged value encoding and the
//!   checksummed envelope the commit log and the wire protocol share;
//! * [`env`](mod@env) — lexical environments and the [`Params`] binding sets
//!   prepared queries execute under;
//! * [`eval`] — the evaluator, parameterised by an [`ExtentProvider`]: hash-join
//!   planning, join-graph reordering of whole generator chains, parallel extent
//!   fetch, and the LRU-bounded [`PlanCache`] with persisted join-key histograms;
//! * [`bushy`] — the join-tree picker (DPsize over connected subgraphs, a
//!   greedy left-deep builder past the DP bound) behind
//!   [`JoinStrategy::Materialised`] plans;
//! * [`fetch`] — the process-wide [`FetchPool`] semaphore budgeting every fetch
//!   fan-out in the process;
//! * [`index`] — the LRU/byte-bounded [`IndexStore`] of secondary point-lookup
//!   indexes serving prepared `var = ?param` filters as O(1) probes;
//! * [`lru`] — the bounded [`lru::LruMap`] behind the engine's memos;
//! * [`builtins`] — the built-in function library (`count`, `sum`, `distinct`, …);
//! * [`rewrite`] — query rewriting utilities used by GAV unfolding and pathway
//!   reformulation (scheme substitution, renaming, free-scheme collection);
//! * [`pretty`] — a pretty-printer that round-trips through the parser.
//!
//! ## Quick example
//!
//! ```
//! use iql::{parse, eval::Evaluator, value::{Bag, Value}, MapExtents};
//!
//! let mut extents = MapExtents::new();
//! extents.insert_pairs("protein,accession_num", vec![(1, "P100"), (2, "P200")]);
//!
//! let q = parse("[x | {k, x} <- <<protein, accession_num>>; k = 2]").unwrap();
//! let result = Evaluator::new(&extents).eval_closed(&q).unwrap();
//! assert_eq!(result, Value::Bag(Bag::from_values(vec![Value::str("P200")])));
//! ```

pub mod ast;
pub mod builtins;
pub mod bushy;
pub mod codec;
pub mod env;
pub mod error;
pub mod eval;
pub mod fetch;
pub mod index;
pub mod lexer;
pub mod lru;
pub mod parser;
pub mod physical;
pub mod plan;
pub mod pretty;
pub mod rewrite;
pub mod token;
pub mod value;

pub use ast::{BinOp, Expr, Literal, Pattern, Qualifier, SchemeRef, UnOp};
pub use bushy::JoinTree;
pub use env::Params;
pub use error::{EvalError, ParseError};
pub use eval::{
    EngineConfig, Evaluator, ExtentProvider, JoinStats, JoinStrategy, KeyHistogram, PlanCache,
    SnapshotId, StandingPlan, StepKind, StepProbe,
};
pub use fetch::FetchPool;
pub use index::IndexStore;
pub use physical::{EngineStats, ExecEngine, BATCH_SIZE};
pub use value::{Bag, Value};

use std::collections::BTreeMap;
use std::sync::Arc;

/// Parse an IQL expression from its surface syntax.
pub fn parse(input: &str) -> Result<Expr, ParseError> {
    parser::Parser::new(input)?.parse_expr_complete()
}

/// A simple in-memory [`ExtentProvider`] backed by a map from scheme keys to bags.
///
/// Scheme keys are the comma-joined scheme parts, e.g. `"protein,accession_num"` for
/// `⟨⟨protein, accession_num⟩⟩`. Primarily useful in tests, examples and documentation;
/// the integration layers provide richer providers that pull extents from wrapped data
/// sources through transformation pathways. Extents are stored behind `Arc` so lookups
/// hand out shared bags without copying.
#[derive(Debug, Clone, Default)]
pub struct MapExtents {
    extents: BTreeMap<String, Arc<Bag>>,
    /// Bumped on every mutation so attached [`PlanCache`]s invalidate (see
    /// [`ExtentProvider::version`]).
    version: u64,
}

impl MapExtents {
    /// Create an empty provider.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a bag for the given scheme key (comma-joined parts).
    pub fn insert(&mut self, scheme_key: impl Into<String>, bag: Bag) {
        self.extents
            .insert(normalise_key(&scheme_key.into()), Arc::new(bag));
        self.version += 1;
    }

    /// Convenience: insert a bag of `{key, value}` pairs for a column-like scheme.
    pub fn insert_pairs(&mut self, scheme_key: impl Into<String>, pairs: Vec<(i64, &str)>) {
        let bag = Bag::from_values(
            pairs
                .into_iter()
                .map(|(k, v)| Value::pair(Value::Int(k), Value::str(v)))
                .collect(),
        );
        self.insert(scheme_key, bag);
    }

    /// Convenience: insert a bag of scalar keys for a table-like scheme.
    pub fn insert_keys(&mut self, scheme_key: impl Into<String>, keys: Vec<i64>) {
        let bag = Bag::from_values(keys.into_iter().map(Value::Int).collect());
        self.insert(scheme_key, bag);
    }

    /// Number of schemes with an extent.
    pub fn len(&self) -> usize {
        self.extents.len()
    }

    /// Whether the provider has no extents at all.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }
}

fn normalise_key(key: &str) -> String {
    key.split(',')
        .map(|p| p.trim().to_string())
        .collect::<Vec<_>>()
        .join(",")
}

impl ExtentProvider for MapExtents {
    fn extent(&self, scheme: &SchemeRef) -> Result<Arc<Bag>, EvalError> {
        let key = scheme.key();
        self.extents
            .get(&key)
            .cloned()
            .ok_or(EvalError::UnknownScheme(scheme.clone()))
    }

    fn version(&self) -> u64 {
        self.version
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_extents_normalises_keys() {
        let mut m = MapExtents::new();
        m.insert_keys("protein , accession_num", vec![1]);
        let q = parse("[k | k <- <<protein,accession_num>>]").unwrap();
        let v = Evaluator::new(&m).eval_closed(&q).unwrap();
        assert_eq!(v.expect_bag().unwrap().len(), 1);
    }

    #[test]
    fn unknown_scheme_is_an_error() {
        let m = MapExtents::new();
        let q = parse("[k | k <- <<missing>>]").unwrap();
        assert!(matches!(
            Evaluator::new(&m).eval_closed(&q),
            Err(EvalError::UnknownScheme(_))
        ));
    }
}
