//! Bit-packed logic values and vectors for gate-level simulation.
//!
//! This crate is the lowest layer of the `same-different` workspace. It knows
//! nothing about circuits or faults; it only provides the value types that the
//! simulator ([`sdd-sim`]) and the test generator ([`sdd-atpg`]) compute with:
//!
//! * [`BitVec`] — a growable, packed vector of two-valued logic, used for
//!   input patterns and output responses. Output responses are the currency
//!   of fault dictionaries: a dictionary entry is ultimately a statement about
//!   whether two [`BitVec`]s are equal.
//! * [`SignatureMatrix`] — a dictionary's signature rows packed row-major in
//!   one word buffer, with the allocation-free masked scoring kernel that
//!   diagnosis scans it with.
//! * [`PatternBlock`] — a block of up to 64 patterns transposed into one
//!   machine word per signal, the representation behind parallel-pattern
//!   fault simulation (PPSFP).
//! * [`V5`] — the five-valued D-algebra `{0, 1, X, D, D'}` of Roth, used by
//!   the PODEM test generator to reason about a fault-free and a faulty
//!   machine at once.
//!
//! # Example
//!
//! ```
//! use sdd_logic::BitVec;
//!
//! let fault_free: BitVec = "01".parse()?;
//! let faulty: BitVec = "11".parse()?;
//! // A pass/fail dictionary bit is exactly this comparison:
//! assert_ne!(fault_free, faulty);
//! assert_eq!(fault_free.hamming_distance(&faulty), Some(1));
//! # Ok::<(), sdd_logic::ParseBitVecError>(())
//! ```
//!
//! [`sdd-sim`]: https://example.invalid/same-different
//! [`sdd-atpg`]: https://example.invalid/same-different

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitvec;
mod block;
mod error;
mod fivev;
mod masked;
mod matrix;
mod rng;

pub use bitvec::{BitVec, Iter, ParseBitVecError};
pub use block::{PatternBlock, LANES};
pub use error::SddError;
pub use fivev::V5;
pub use masked::{MaskedBitVec, MaskedDistance};
pub use matrix::SignatureMatrix;
pub use rng::{Prng, SampleRange};
