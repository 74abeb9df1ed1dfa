//! `.pnet` — a textual net-description DSL for the analysis suite.
//!
//! The crate closes the "scenario diversity" gap of the roadmap: until now
//! every net the engine analyzed came from a hand-written Rust constructor.
//! This crate adds
//!
//! * a line-oriented **format** ([`parse`]) with a total, spanned parser —
//!   arbitrary bytes in, `NetDef` or `line:col` error out, never a panic —
//!   and a canonical pretty-printer satisfying the parse∘print identity;
//! * an **evaluator** ([`eval`]) instantiating parametric definitions
//!   (symbolic counts like `agents*i` or `(n - 1)*p`) into concrete
//!   [`pp_petri::PetriNet`]s with checked arithmetic and size limits;
//! * the full protocol **catalog as definitions** ([`families`]), equal —
//!   transition for transition — to the hand-built `pp_protocols`
//!   constructors;
//! * seeded random **generators** ([`generate`]) over conservation
//!   classes, cap styles and symbolic parameters; and
//! * a differential **fuzzing harness** ([`fuzz`]) that runs every
//!   generated net through reachability, coverability and Karp–Miller
//!   under packed vs unpacked, cold vs resumed and direct vs batch engine
//!   configurations, demands bit-identical
//!   [fingerprints](pp_petri::fingerprint), and shrinks any divergence to
//!   a self-contained `.pnet` repro.
//!
//! The binary (`cargo run -p pp_netdsl -- fuzz --cases 256`) drives the
//! harness from the command line and is wired into CI as the `fuzz-smoke`
//! job; `pp_serve` accepts the format as a third job payload (`net_dsl`),
//! deduplicating onto the same cached sessions as equivalent inline
//! literals. See DESIGN.md ("The net DSL") for the grammar and the shrink
//! algorithm.
//!
//! # Examples
//!
//! ```
//! let src = "
//! net doubling
//! agents 6
//! place a b
//! init agents*a
//! trans 2*a -> a + b
//! ";
//! let def = pp_netdsl::parse::parse_str(src).unwrap();
//! let spec = pp_netdsl::eval::instantiate(&def, &[("agents", 8)]).unwrap();
//! assert_eq!(spec.initials[0].get(&"a".to_string()), 8);
//! assert_eq!(spec.net.num_transitions(), 1);
//! // The canonical printer inverts the parser.
//! assert_eq!(pp_netdsl::parse::parse_str(&def.print()).unwrap(), def);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod eval;
pub mod families;
pub mod fuzz;
pub mod generate;
pub mod parse;

pub use ast::{Expr, NetDef, Term, TransDef};
pub use eval::{instantiate, EvalError, NetSpec};
pub use parse::{parse_bytes, parse_str, ParseError};
