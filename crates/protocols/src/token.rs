//! A minimal single-token protocol.
//!
//! The simplest protocol expressible in the model: remotes request a token
//! (`req`), the home grants it (`gr`) to one requester at a time, and the
//! holder releases it (`rel`). It exists for documentation, quickstart
//! examples and as a small, fully-enumerable test subject; `req/gr` is a
//! request/reply pair, `rel` is a plain rendezvous, so the derived
//! protocol exercises both refinement schemes.

use ccr_core::process::ProtocolSpec;

/// The token rendezvous specification, `specs/token.ccp`.
pub fn token() -> ProtocolSpec {
    crate::load(include_str!("../../../specs/token.ccp"))
}
