//! A depth-bounded random [`Value`] generator for property tests of the one
//! byte format: the codec's round-trip tests use it, and `tests/recovery.rs`
//! includes this file by path to fuzz the commit log with the same values.
//! The including module must have `Bag` and `Value` in scope.

use super::{Bag, Value};
use proptest::prelude::*;

/// Depth-bounded recursive value strategy (the vendored proptest shim has no
/// `prop_recursive`, so the recursion is written out directly).
struct ArbValue {
    depth: usize,
}

impl Strategy for ArbValue {
    type Value = Value;
    fn generate(&self, rng: &mut proptest::test_runner::TestRng) -> Value {
        let max_pick = if self.depth == 0 { 7 } else { 9 };
        match rng.usize_in(0..max_pick) {
            0 => Value::Null,
            1 => Value::Void,
            2 => Value::Any,
            3 => Value::Bool(rng.next_u64() & 1 == 1),
            4 => Value::Int(rng.next_u64() as i64),
            5 => Value::Float(rng.f64_in(-1e9..1e9)),
            6 => {
                let alphabet: Vec<char> = "abcXYZ09 '\\✓".chars().collect();
                let len = rng.usize_in(0..12);
                Value::str(
                    (0..len)
                        .map(|_| alphabet[rng.usize_in(0..alphabet.len())])
                        .collect::<String>(),
                )
            }
            pick => {
                let inner = ArbValue {
                    depth: self.depth - 1,
                };
                let items: Vec<Value> = (0..rng.usize_in(0..4))
                    .map(|_| inner.generate(rng))
                    .collect();
                if pick == 7 {
                    Value::Tuple(items.into())
                } else {
                    Value::Bag(Bag::from_values(items))
                }
            }
        }
    }
}

/// Values up to three collection levels deep, every tag represented.
pub fn arb_value() -> impl Strategy<Value = Value> {
    ArbValue { depth: 3 }
}
