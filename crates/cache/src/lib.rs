#![warn(missing_docs)]

//! # cmpsim-cache
//!
//! Storage structures of a tile, independent of any coherence protocol:
//!
//! * [`SetAssoc`] — a generic set-associative array with true-LRU
//!   replacement. The payload type is supplied by the protocol (L1 line
//!   state, L2 line state + embedded directory info, directory-cache
//!   entries, L1C$/L2C$ pointers), so one implementation backs every
//!   structure in the paper's Table V.
//! * [`Mshr`] — miss status holding registers with a capacity limit and a
//!   deterministic (address-ordered) iteration order.
//! * [`geometry`] — address slicing helpers shared by all arrays.
//! * [`TileGrid`] — per-tile counter grids for the spatial/heatmap
//!   observation layer.
//!
//! Addresses handled here are *block addresses* (byte address divided by
//! the 64-byte block size); the virtualization crate performs page-level
//! translation before blocks reach a cache.

pub mod array;
pub mod geometry;
pub mod mshr;
pub mod spatial;

pub use array::SetAssoc;
pub use geometry::Geometry;
pub use mshr::Mshr;
pub use spatial::TileGrid;
