//! The `ccr-runtime` crate's own suites, run with the root package's.
//!
//! Tables 1–2 row by row, the random walks (Equation 1 at sizes past
//! exhaustive checking, snapshots, `decode_into`) and the wire codec's
//! properties call the rules and the codec directly — the layer every
//! emitter, `fire` included, stands on — but as `crates/runtime/tests/`
//! they are test targets of that crate, which only `cargo test
//! --workspace` builds. Included here, `cargo test` runs them too, under
//! their file names: `table_rules::…`, `random_walks::…`,
//! `proptest_wire::…`.

#[path = "../crates/runtime/tests/table_rules.rs"]
mod table_rules;

#[path = "../crates/runtime/tests/random_walks.rs"]
mod random_walks;

#[path = "../crates/runtime/tests/proptest_wire.rs"]
mod proptest_wire;
