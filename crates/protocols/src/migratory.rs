//! The migratory protocol of Avalanche — paper Figures 2 and 3.
//!
//! One cache line migrates between remotes with combined read/write
//! permission. The home node (Figure 2) starts **F**ree; a `req` grants the
//! line (`gr`) and records the owner in `o`, moving to **E**xclusive. A
//! competing `req` makes the home revoke the line — either by `inv`/`ID`
//! or by racing with the owner's voluntary relinquish `LR` — before
//! granting again. The remote (Figure 3) is **I**nvalid until a CPU access
//! (`rw`) makes it request; once **V**alid it serves reads and writes
//! locally until it evicts (`LR`) or is invalidated (`inv`/`ID`).
//!
//! Refining this spec with the default options detects exactly the two
//! request/reply pairs the paper derives by hand: `req/gr` and `inv/ID`
//! (§5), producing the automata of Figures 4 and 5.

use ccr_core::process::ProtocolSpec;
use ccr_core::refine::{refine, RefineOptions, RefinedProtocol};

/// Which shipped migratory spec to load, one variant per `specs/` file.
/// *Gated* remotes idle in `I` until a `#access` step fires (the DSM CPU
/// gate); ungated ones contend continuously, as in Table 3. *Data*
/// variants carry the line's value modulo the domain: `#write` bumps it,
/// `ID`/`LR` send then reset it. The others have payload-free messages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MigratoryOptions {
    /// Gated, abstract data: `specs/migratory_cpu.ccp`.
    #[default]
    CpuGated,
    /// Ungated, abstract data (Table 3): `specs/migratory.ccp`.
    Checking,
    /// Ungated, data modulo 2: `specs/migratory_data2.ccp`.
    Data2,
    /// Ungated, data modulo 4: `specs/migratory_data4.ccp`.
    Data4,
    /// Gated, data modulo 2: `specs/migratory_gated.ccp`.
    GatedData2,
}

/// The rendezvous migratory specification (Figures 2 and 3).
pub fn migratory(opts: &MigratoryOptions) -> ProtocolSpec {
    crate::load(match opts {
        MigratoryOptions::CpuGated => include_str!("../../../specs/migratory_cpu.ccp"),
        MigratoryOptions::Checking => include_str!("../../../specs/migratory.ccp"),
        MigratoryOptions::Data2 => include_str!("../../../specs/migratory_data2.ccp"),
        MigratoryOptions::Data4 => include_str!("../../../specs/migratory_data4.ccp"),
        MigratoryOptions::GatedData2 => include_str!("../../../specs/migratory_gated.ccp"),
    })
}

/// The migratory protocol refined with automatic request/reply detection —
/// the derived asynchronous protocol of Figures 4 and 5.
pub fn migratory_refined(opts: &MigratoryOptions) -> RefinedProtocol {
    refine(&migratory(opts), &RefineOptions::default())
        .expect("migratory refines under the default options")
}
