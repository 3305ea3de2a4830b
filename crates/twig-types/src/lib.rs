//! Shared vocabulary types for the Twig BTB-prefetching reproduction.
//!
//! Every crate in the workspace builds on these primitives:
//!
//! - [`Addr`] — a virtual address in the simulated 48-bit address space,
//! - [`CacheLineAddr`] — a 64-byte-aligned cache-line address,
//! - [`BranchKind`] — the branch taxonomy used by the BTB and the paper's
//!   characterization figures (Figs. 7–8),
//! - [`BlockId`] / [`FuncId`] — stable identifiers for basic blocks and
//!   functions of a synthetic program, stable across binary re-layout,
//! - [`BranchRecord`] — one dynamic branch execution as seen by the frontend.
//!
//! # Examples
//!
//! ```
//! use twig_types::{Addr, BranchKind, CacheLineAddr};
//!
//! let pc = Addr::new(0x40_1000);
//! assert_eq!(pc.line(), CacheLineAddr::containing(pc));
//! assert!(BranchKind::DirectCall.is_unconditional());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod branch;
pub mod config;
pub mod crc;
pub mod fxhash;
mod ids;
mod prefetch;

pub use addr::{Addr, CacheLineAddr, CACHE_LINE_BYTES};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use config::{ConfigEntry, ConfigError, HarnessConfig, Setting, Source};
pub use branch::{BranchKind, BranchOutcome, BranchRecord};
pub use ids::{BlockId, FuncId};
pub use prefetch::{PrefetchOp, BRCOALESCE_BYTES, BRPREFETCH_BYTES, COALESCE_ENTRY_BYTES};
