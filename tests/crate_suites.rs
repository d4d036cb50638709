//! The `ccr-core`, `ccr-mc` and `ccr-protocols` crates' own suites, run
//! with the root package's.
//!
//! They test the value codec, the inline vectors every state is built
//! from, the canonicalization behind the symmetry reduction, the visited
//! set's table against a `HashMap` model, the spill log's crash recovery,
//! the shipped protocols' text round trip and what refinement derives
//! from each protocol. As `crates/*/tests/` they are test targets of their
//! crates, which only `cargo test --workspace` builds. Included here,
//! `cargo test` runs them too, under their file names: `proptest_core::…`,
//! `proptest_inline::…`, `proptest_canon::…`, `proptest_store::…`,
//! `proptest_persist::…`, `text_roundtrip::…`, `protocol_shapes::…`.
//! (`tests/runtime_suites.rs` does the same for `ccr-runtime`.)

#[path = "../crates/core/tests/proptest_core.rs"]
mod proptest_core;

#[path = "../crates/core/tests/proptest_inline.rs"]
mod proptest_inline;

#[path = "../crates/mc/tests/proptest_canon.rs"]
mod proptest_canon;

#[path = "../crates/mc/tests/proptest_store.rs"]
mod proptest_store;

#[path = "../crates/mc/tests/proptest_persist.rs"]
mod proptest_persist;

#[path = "../crates/protocols/tests/text_roundtrip.rs"]
mod text_roundtrip;

#[path = "../crates/protocols/tests/protocol_shapes.rs"]
mod protocol_shapes;
