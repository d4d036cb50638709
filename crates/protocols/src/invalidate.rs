//! The invalidate protocol — a write-invalidate directory.
//!
//! The paper's second Table 3 subject is Avalanche's *invalidate* protocol.
//! Its defining feature (and the reason its state space dwarfs migratory's)
//! is the home-side **sharer set**: multiple remotes may hold read copies
//! simultaneously, and a write request makes the home invalidate each
//! sharer in turn before granting exclusive ownership. We reconstruct it
//! in the paper's specification style:
//!
//! * home states: `F`ree → shared (`S`, sharer set `s`) or exclusive
//!   (`E`, owner `o`); `INV` loops invalidating sharers one at a time for a
//!   waiting writer; `RVS`/`RVX` revoke an exclusive owner for a new
//!   reader/writer;
//! * remote states: `I` → read (`Sh`) or write (`M`) copies, with voluntary
//!   evictions (`rel` for sharers, `wb` write-back for owners) racing
//!   against home-initiated invalidations (`invs` to sharers, `inv`/`ID`
//!   to owners).
//!
//! Refinement pairs `rreq/gr`, `wreq/grx` and `inv/ID`; `invs`, `rel` and
//! `wb` remain plain request/ack rendezvous.

use ccr_core::process::ProtocolSpec;
use ccr_core::refine::{refine, RefineOptions, RefinedProtocol};

/// Which shipped invalidate spec to load, one variant per `specs/` file.
/// With data, `#write` bumps `data` modulo 2 and a copy resets it on leaving.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum InvalidateOptions {
    /// Abstract data (payload-free messages): `specs/invalidate_nodata.ccp`.
    #[default]
    NoData,
    /// Line data tracked modulo 2: `specs/invalidate.ccp`.
    Data2,
}

/// The rendezvous invalidate specification.
pub fn invalidate(opts: &InvalidateOptions) -> ProtocolSpec {
    crate::load(match opts {
        InvalidateOptions::NoData => include_str!("../../../specs/invalidate_nodata.ccp"),
        InvalidateOptions::Data2 => include_str!("../../../specs/invalidate.ccp"),
    })
}

/// The invalidate protocol refined with automatic request/reply detection.
pub fn invalidate_refined(opts: &InvalidateOptions) -> RefinedProtocol {
    refine(&invalidate(opts), &RefineOptions::default())
        .expect("invalidate refines under the default options")
}
