//! # cqcs-pebble — existential k-pebble games (§4 of the paper)
//!
//! The Spoiler/Duplicator game that characterizes expressibility in
//! ∃L^k_∞ω (Theorem 4.5) and powers the uniform tractability result for
//! Datalog-definable co-CSPs (Theorems 4.7–4.9):
//!
//! * [`game`] — computes the Duplicator's maximal winning family: the
//!   largest nonempty set of partial homomorphisms with at most `k`
//!   pebbles, closed under subfunctions and with the forth property up
//!   to `k` ([KV95]); a greatest-fixpoint pruning with counter-based
//!   cascade, the algorithmic content of Theorem 4.7(1);
//! * [`consistency`] — (hyper)arc consistency, the practical pruning
//!   companion used by the uniform solver in `cqcs-core`: one-shot
//!   fixpoints, plus [`refine_domains_reference`](consistency::refine_domains_reference),
//!   the from-scratch rescanning specification the engine is tested
//!   against;
//! * [`program`] — the propagation engine behind it: a [`PropProgram`]
//!   lowers the template's support index into flat CSR-style `u64`
//!   pools, and a [`ProgramPropagator`] executes it over a single arena
//!   allocation — change-seeded worklists, and a trail of domain deltas
//!   for `assign`/`undo` in O(changed), so MAC search never
//!   re-establishes consistency from scratch;
//! * [`binding`] — the engine's instance-binding seam: validated
//!   fresh-bind geometry ([`InstanceBinding`]) and the admission rules
//!   ([`plan_delta`]) that decide when a
//!   [`StructureDelta`](cqcs_structures::StructureDelta) can repair an
//!   established fixpoint in place instead of rebinding from scratch;
//! * [`solver`] — the decision procedure of Theorem 4.9: `Spoiler wins ⟹
//!   no homomorphism` always, and the converse exactly when co-CSP(B)
//!   is expressible in k-Datalog (Theorem 4.8).

pub mod binding;
pub mod consistency;
pub mod game;
pub mod program;
pub mod solver;

pub use binding::{plan_delta, DeltaPlan, EngineState, InstanceBinding, REBIND_FACTOR};
pub use consistency::{arc_consistent_domains, refine_domains, ArcConsistency};
pub use game::{duplicator_wins, solve_game, Config, GameAnalysis};
pub use program::{ProgramPropagator, PropProgram, SavedPropState};
pub use solver::{pebble_filter, spoiler_wins, PebbleOutcome};
