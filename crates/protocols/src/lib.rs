//! # ccr-protocols — concrete DSM cache-coherence protocols
//!
//! Rendezvous specifications of the protocols the paper studies, plus the
//! baselines its evaluation compares against. Each protocol is a file under
//! `specs/`, compiled in and parsed per call; option enums name the files.
//!
//! * [`mod@migratory`] — the Avalanche *migratory* protocol of paper Figures 2
//!   and 3: a single line migrates between remotes; the home records the
//!   owner and revokes with `inv`, owners relinquish with `LR`.
//! * [`mod@invalidate`] — the Avalanche *invalidate* protocol (reconstructed):
//!   a write-invalidate directory with a sharer set, read/write grants, and
//!   per-sharer invalidations. This is the second subject of Table 3.
//! * [`mod@token`] — a minimal single-token protocol used by documentation,
//!   examples and as a smoke-test subject.
//! * [`mod@update`] — a *write-update* protocol (extension): writes push
//!   the new value to all sharers instead of invalidating them, exercising
//!   the framework on a second protocol family.
//! * [`hand`] — the hand-designed asynchronous migratory baseline: the
//!   derived protocol with the `LR` ack elided (the paper's "dotted line"
//!   difference in §5), used by the message-efficiency comparison.
//! * [`props`] — the coherence safety invariants of each protocol, checked
//!   by `ccr-mc` at both semantic levels.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod hand;
pub mod invalidate;
pub mod migratory;
pub mod props;
pub mod token;
pub mod update;

pub use hand::migratory_hand;
pub use invalidate::{invalidate, InvalidateOptions};
pub use migratory::{migratory, MigratoryOptions};
pub use token::token;
pub use update::update;

/// Parses a spec compiled in from `specs/`; `text_roundtrip` checks them all.
fn load(text: &str) -> ccr_core::process::ProtocolSpec {
    ccr_core::text::parse_validated(text).unwrap_or_else(|e| panic!("shipped spec: {e}"))
}
