//! Interchange formats for the `bddcf` workspace.
//!
//! * [`pla`] — Espresso-style PLA files: the lingua franca of
//!   two-level logic synthesis, with don't cares. Parsing yields an
//!   incompletely specified multiple-output function ready for
//!   [`Cf`](bddcf_core::Cf) construction; writing serializes explicit
//!   truth tables and completions.
//! * [`verilog`] — synthesizable Verilog emission for LUT cascades: one
//!   ROM process per cell, rails as internal wires.
//! * [`verilog_parse`] — the matching reader: parses the emitted
//!   Verilog-2001 subset back into an AST so artifacts can be statically
//!   validated (`bddcf check`) instead of trusted write-only.
//! * [`cascade_text`] — a plain-text save/load format for synthesized
//!   cascades (generate tables once, ship them).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cascade_text;
pub mod pla;
pub mod verilog;
pub mod verilog_parse;

pub use cascade_text::{emit_cascade, read_cascade, write_cascade, CascadeTextError};
pub use pla::{parse_pla, write_pla, Pla, PlaError};
pub use verilog::{cascade_to_verilog, emit_verilog, is_valid_module_name, VerilogEmitError};
pub use verilog_parse::{parse_verilog, VerilogModule, VerilogParseError};
