#![warn(missing_docs)]

//! # cmpsim-protocols
//!
//! The four cache-coherence protocols evaluated by the paper, implemented
//! over the storage substrates of `cmpsim-cache`:
//!
//! * [`directory`] — the highly-optimized flat directory baseline:
//!   full-map bit-vectors at the home L2 bank, an NCID-style directory
//!   cache for blocks living only in L1s, and home-serialized (blocking)
//!   transactions.
//! * [`dico`] — Direct Coherence: data, ownership and the sharing code
//!   live together in the owner L1; an L1C$ predicts the supplier so most
//!   misses resolve in two hops; the home's L2C$ tracks the exact owner.
//! * [`dico_core`] — the DiCo family's one controller,
//!   [`dico_core::DiCoCore`]: DiCo, DiCo-Providers and DiCo-Arin are type
//!   aliases of it, each with an [`dico_core::AreaPolicy`] that holds only
//!   what the paper says differs from DiCo.
//! * [`providers`] — **DiCo-Providers** (paper §III-A/§IV-A): the chip is
//!   statically divided into areas; the owner tracks one provider per
//!   area plus the sharers of its own area; providers track the sharers
//!   of their areas and serve in-area reads, shortening misses to
//!   deduplicated (inter-VM shared) data.
//! * [`arin`] — **DiCo-Arin** (paper §III-B/§IV-B): blocks confined to
//!   one area behave as DiCo; the first remote-area read dissolves
//!   ownership, parks the data at the home L2 (which stores one ProPo per
//!   area), makes every new sharer a provider, and relies on a safe
//!   three-way broadcast to invalidate shared-between-areas blocks.
//!
//! All protocols speak the unified message vocabulary of [`common`] and
//! are driven through [`common::Ctx`] by a host (the full simulator in
//! the `cmpsim` crate, or the in-crate [`harness`] used for unit and
//! stress tests). [`checker`] implements the whole-chip coherence
//! invariants (SWMR, no stale values, directory conservativeness) that
//! the test suite enforces at quiescence.
//!
//! # Example: driving a protocol through the test harness
//!
//! ```
//! use cmpsim_protocols::common::{ChipSpec, CoherenceProtocol};
//! use cmpsim_protocols::dico::DiCo;
//! use cmpsim_protocols::harness::Harness;
//!
//! let mut h = Harness::new(DiCo::new(ChipSpec::small()));
//! h.push_access(0, 42, true);  // tile 0 writes block 42
//! h.push_access(1, 42, false); // tile 1 reads it
//! h.run_checked(10_000);       // drain + coherence invariants
//! assert_eq!(h.total_completed(), 2);
//! assert_eq!(h.proto.stats().l1_misses.get(), 2);
//! ```

pub mod arin;
pub mod checker;
pub mod common;
pub mod dico;
pub mod dico_core;
pub mod directory;
pub mod harness;
pub mod providers;

pub use common::{
    AccessOutcome, CoherenceProtocol, Ctx, MissClass, Msg, MsgKind, Node, Occupancy, ProtoError,
    ProtoStats, ProtocolKind, Supplier,
};
