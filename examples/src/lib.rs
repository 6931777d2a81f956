//! Example binaries live in `src/bin`; see the README for how to run them.
//!
//! The library holds what the examples share and the figures never reach: a
//! circuit-level Pauli-frame simulator ([`pauli`]).

#![warn(missing_docs)]

pub mod pauli;
