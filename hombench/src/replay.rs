//! Traced replay of the `Auto` dispatch.
//!
//! Calls the public entry point of every dispatch stage in the order
//! `Session::solve` runs them (Schaefer gate, acyclicity, Booleanization
//! gate, arc consistency, min-fill decomposition, width probe, treewidth
//! DP, MAC search) with a span around each, so the per-layer ledger is
//! measured on the same work production dispatch does. Callers check
//! every replayed solution against `Session::solve` on the same
//! instance, which keeps the replay from drifting away from the real
//! dispatcher.

use crate::trace::Tracer;
use cqcs_boolean::booleanize::{booleanize_template, identity_labels};
use cqcs_boolean::uniform::schaefer_classes;
use cqcs_core::analysis::EXACT_WIDTH_PROBE_MAX_VERTICES;
use cqcs_core::analysis::EXACT_WIDTH_PROBE_NODE_BUDGET;
use cqcs_core::solvers::backtracking::backtracking_search_with;
use cqcs_core::solvers::dispatch::AUTO_TREEWIDTH_BUDGET;
use cqcs_core::{CompiledTemplate, Route, SearchOptions, SearchStats, Solution};
use cqcs_pebble::ProgramPropagator;
use cqcs_structures::{gaifman_graph, Structure};
use cqcs_treewidth::{
    bb_treewidth_best_effort_seeded, decomposition_from_elimination, min_fill_order,
    mmd_lower_bound, solve_with_decomposition, yannakakis_pooled, GyoScratch,
};
use std::sync::Arc;

/// Parent of every replay span.
const PARENT: &str = "session.replay";

/// The replayed dispatcher for one compiled template.
pub struct Replay {
    template: Arc<CompiledTemplate>,
    gyo: GyoScratch,
}

impl Replay {
    /// Opens a replay on `template`. The Schaefer and Booleanization
    /// stages depend on the template alone; the replay covers
    /// templates on which neither applies (every benchmark workload
    /// runs against K3) and refuses the others.
    pub fn new(template: Arc<CompiledTemplate>) -> Result<Replay, String> {
        let b = template.template();
        if template.schaefer().is_some_and(|c| c.is_schaefer()) {
            return Err("the Schaefer route applies to this template".into());
        }
        if b.universe() > 2 {
            let boolean_schaefer = booleanize_template(b, &identity_labels(b.universe()))
                .ok()
                .and_then(|t| schaefer_classes(&t.template).ok())
                .is_some_and(|c| c.is_schaefer());
            if boolean_schaefer {
                return Err("the Booleanization route applies to this template".into());
            }
        }
        Ok(Replay {
            template,
            gyo: GyoScratch::default(),
        })
    }

    /// Solves `hom(a → B)` stage by stage, recording each stage under
    /// request id `request`.
    pub fn solve(&mut self, a: &Structure, request: u64, t: &mut Tracer) -> Solution {
        let b = self.template.template();
        let gyo = &mut self.gyo;
        if let Some(h) = t.span(request, "dispatch.acyclic", PARENT, || {
            yannakakis_pooled(a, b, gyo)
        }) {
            t.count("dispatch.acyclic.hit", 1.0);
            return Solution {
                homomorphism: h,
                route: Route::Acyclic,
                stats: None,
            };
        }

        let program = Arc::clone(self.template.program());
        let (mut prop, refuted) = t.span(request, "pebble.establish", PARENT, || {
            let mut prop = ProgramPropagator::new(a, b, program);
            let refuted = a.universe() > 0 && b.universe() > 0 && !prop.establish();
            (prop, refuted)
        });
        t.count("pebble.establish.deletions", prop.deletions() as f64);
        if refuted {
            t.count("pebble.establish.refuted", 1.0);
            return Solution {
                homomorphism: None,
                route: Route::ArcRefuted,
                stats: Some(SearchStats {
                    deletions: prop.deletions() as u64,
                    ..SearchStats::default()
                }),
            };
        }

        if a.universe() > 0 {
            let (g, order, td) = t.span(request, "treewidth.decompose", PARENT, || {
                let g = gaifman_graph(a);
                let order = min_fill_order(&g);
                let td = decomposition_from_elimination(&g, &order);
                (g, order, td)
            });
            let mut fitted = (td.width() <= AUTO_TREEWIDTH_BUDGET).then_some((td.width(), td));
            if fitted.is_some() {
                t.count("treewidth.decompose.fit", 1.0);
            } else if g.len() <= EXACT_WIDTH_PROBE_MAX_VERTICES {
                fitted = t.span(request, "treewidth.bb_probe", PARENT, || {
                    if mmd_lower_bound(&g) > AUTO_TREEWIDTH_BUDGET {
                        return None;
                    }
                    let (r, _optimal) =
                        bb_treewidth_best_effort_seeded(&g, &order, EXACT_WIDTH_PROBE_NODE_BUDGET);
                    (r.width <= AUTO_TREEWIDTH_BUDGET)
                        .then(|| (r.width, decomposition_from_elimination(&g, &r.order)))
                });
                if fitted.is_some() {
                    t.count("treewidth.bb_probe.rescue", 1.0);
                }
            }
            if let Some((width, td)) = fitted {
                let h = t.span(request, "treewidth.dp", PARENT, || {
                    solve_with_decomposition(a, b, &td)
                        .expect("decomposition from A's own Gaifman graph is valid")
                });
                return Solution {
                    homomorphism: h,
                    route: Route::Treewidth(width),
                    stats: None,
                };
            }
        }

        let (h, mut stats) = t.span(request, "search.mac", PARENT, || {
            backtracking_search_with(SearchOptions::default(), &mut prop)
        });
        stats.deletions = prop.deletions() as u64;
        t.count("search.mac.nodes", stats.nodes as f64);
        t.count("search.mac.backtracks", stats.backtracks as f64);
        Solution {
            homomorphism: h,
            route: Route::Generic,
            stats: Some(stats),
        }
    }
}
