//! # ipm-bench
//!
//! The benchmark harness of the reproduction: one module per table/figure
//! of the paper's evaluation, each exposing the experiment as a library
//! function (so it is unit-tested) plus a `repro-*` binary that prints the
//! regenerated table or figure. `benches/internals.rs` times the internal
//! figures no perfbench metric covers: the KTT sweep policies, interned vs
//! string-keyed recording, a contended table and the MPI collectives.
//!
//! | Paper | Module | Binary |
//! |---|---|---|
//! | Figs. 4–7 | [`square_fig`] | `repro-square`, `repro-timeline` |
//! | Table I | [`table1`] | `repro-table1` |
//! | Fig. 8 | [`fig8`] | `repro-fig8` |
//! | Fig. 9 | [`fig9`] | `repro-fig9` |
//! | Fig. 10 | [`fig10`] | `repro-fig10` |
//! | Fig. 11 | [`fig11`] | `repro-fig11` |
//! | §III-C microbenchmark | re-exported from `ipm-core` | `repro-blocking` |
//! | streaming trace (Perfetto export) | [`trace_fig`] | `repro-trace` |

pub mod fig10;
pub mod fig11;
pub mod fig8;
pub mod fig9;
pub mod square_fig;
pub mod table1;
pub mod trace_fig;
