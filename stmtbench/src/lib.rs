#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `cdb-stmtbench`: the statement-level benchmark `BENCHMARK.json` names.
//!
//! Five macro workloads ([`workloads`]) are driven as statement text
//! through `cdb_server::Session::execute` on a default-configured server
//! ([`run`]); [`report`] holds the metric names, order statistics and the
//! report/compare formats. The harness only calls the engine's public
//! functions.

pub mod json;
pub mod report;
pub mod run;
pub mod trace;
pub mod workloads;
