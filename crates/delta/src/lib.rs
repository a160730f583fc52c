//! Delta substrate for KDD: XOR deltas, a fast delta compressor, content
//! generators with controlled similarity, and the paper's Gaussian
//! delta-size model.
//!
//! KDD's endurance win comes from storing the *compressed XOR* of the old
//! and new versions of a page instead of a second full copy. Real
//! applications change only 5–20 % of the bits in a block per write
//! (TRAP-Array, Peabody, DTFS — paper §II-C), so the XOR is mostly zeros
//! and compresses extremely well.
//!
//! Two consumers exist in this workspace:
//!
//! * the *prototype-style* engine operates on real page contents and uses
//!   [`codec`] to produce actual compressed deltas (the paper's prototype
//!   uses lzo; our codec plays that role);
//! * the *trace-driven simulator* has no page contents and uses
//!   [`model::GaussianDeltaModel`] exactly as §IV-A2 prescribes
//!   ("delta compression ratio values follow Gaussian distribution with an
//!   average equaling 50%, 25%, and 12%").

#![warn(missing_docs)]
// No unwinding outside tests: the I/O path fails through typed errors,
// never mid-stripe (DESIGN.md "Static analysis & invariants").
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod codec;
pub mod content;
pub mod model;
pub mod xor;

pub use codec::{
    compress, decompress, decompress_into, xor_decoded_into, CompressError, DeltaCodec,
};
pub use content::PageMutator;
pub use model::{DeltaSizeModel, FixedDeltaModel, GaussianDeltaModel};
pub use xor::{is_all_zero, xor_into, xor_pages, xor_pages_into, zero_fraction};
