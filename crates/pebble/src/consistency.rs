//! (Hyper)arc consistency for homomorphism instances.
//!
//! Arc consistency is the workhorse approximation of the pebble game:
//! it maintains, per element of `A`, a domain of candidate images in
//! `B`, and deletes a candidate when some tuple of `A` through that
//! element has no compatible tuple in `B`. An empty domain proves there
//! is no homomorphism (sound); non-empty domains prove nothing in
//! general (incomplete), exactly like the Duplicator surviving the
//! game. `cqcs-core`'s backtracking solver uses it both as
//! preprocessing and (in MAC mode) during search.
//!
//! The entry points here are one-shot conveniences over the
//! incremental [`ProgramPropagator`]: each call compiles `B` into a
//! [`PropProgram`] and runs one engine to the fixpoint. Callers that
//! refine repeatedly (MAC search, sessions) hold an engine and use
//! `assign`/`undo` instead. The original re-scanning fixpoint loop
//! survives as [`refine_domains_reference`], the independent
//! specification the unit and property suites check the engine
//! against.

use crate::program::{ProgramPropagator, PropProgram};
use cqcs_structures::{BitSet, Structure};
use std::collections::VecDeque;
use std::sync::Arc;

/// The result of enforcing arc consistency.
#[derive(Debug, Clone)]
pub struct ArcConsistency {
    /// Per-element candidate sets (empty ⟹ no homomorphism).
    pub domains: Vec<BitSet>,
    /// Whether every domain is nonempty.
    pub consistent: bool,
    /// Number of (element, candidate) deletions performed.
    pub deletions: usize,
}

/// Enforces hyperarc consistency on `(a, b)`, starting from full
/// domains.
///
/// # Panics
/// Panics if the structures are over different vocabularies.
pub fn arc_consistent_domains(a: &Structure, b: &Structure) -> ArcConsistency {
    let mut p = ProgramPropagator::new(a, b, Arc::new(PropProgram::for_template(b)));
    finish(&mut p)
}

/// Enforces hyperarc consistency starting from the given domains (one
/// per element of `a`, each of capacity `b.universe()`).
///
/// One-shot wrapper over the incremental [`ProgramPropagator`]:
/// compiles `b`, narrows the engine's starting domains to `domains`,
/// and runs to the fixpoint. `deletions` counts the propagation's
/// removals only, not the caller's narrowing.
///
/// # Panics
/// Panics if the structures are over different vocabularies or the
/// domains do not match `a`'s universe and `b`'s.
pub fn refine_domains(a: &Structure, b: &Structure, domains: Vec<BitSet>) -> ArcConsistency {
    let mut p = ProgramPropagator::new(a, b, Arc::new(PropProgram::for_template(b)));
    p.narrow_domains(&domains);
    finish(&mut p)
}

fn finish(p: &mut ProgramPropagator<'_>) -> ArcConsistency {
    let consistent = p.establish();
    ArcConsistency {
        domains: p.domains_vec(),
        consistent,
        deletions: p.deletions(),
    }
}

/// The straightforward from-scratch refinement loop: re-enqueues every
/// tuple of `A`, and rescans every tuple of `R^B` per revision with no
/// support index.
///
/// Kept as the independent executable specification that the
/// propagation engine is tested against (same fixpoint, verdict, and
/// deletion count whenever consistent — on wipeout the pruning order,
/// and hence the partially pruned domains, may differ), and as the
/// baseline the ablation benches measure the engine's speedup over.
pub fn refine_domains_reference(
    a: &Structure,
    b: &Structure,
    mut domains: Vec<BitSet>,
) -> ArcConsistency {
    assert!(
        a.same_vocabulary(b),
        "arc consistency across different vocabularies"
    );
    assert_eq!(domains.len(), a.universe());
    let mut deletions = 0usize;

    // 0-ary relations: a missing fact in B is a global wipeout.
    for r in a.vocabulary().iter() {
        if a.vocabulary().arity(r) == 0 && !a.relation(r).is_empty() && b.relation(r).is_empty() {
            for d in &mut domains {
                deletions += d.len();
                d.clear();
            }
            return ArcConsistency {
                domains,
                consistent: a.universe() == 0,
                deletions,
            };
        }
    }

    // Worklist of A-tuples to revise.
    let mut queue: VecDeque<(cqcs_structures::RelId, u32)> = VecDeque::new();
    let mut queued: Vec<Vec<bool>> = a
        .vocabulary()
        .iter()
        .map(|r| vec![false; a.relation(r).len()])
        .collect();
    for r in a.vocabulary().iter() {
        if a.vocabulary().arity(r) == 0 {
            continue;
        }
        for (t, is_queued) in queued[r.index()].iter_mut().enumerate() {
            queue.push_back((r, t as u32));
            *is_queued = true;
        }
    }

    let mut supported: Vec<BitSet> = Vec::new();
    while let Some((r, ti)) = queue.pop_front() {
        queued[r.index()][ti as usize] = false;
        let tuple = a.relation(r).tuple(ti as usize);
        let arity = tuple.len();
        // Supported values per position: s[p] = {w[p] : w ∈ R^B
        // compatible with current domains}.
        supported.clear();
        supported.resize(arity, BitSet::new(b.universe()));
        'witness: for w in b.relation(r).iter() {
            for (p, &e) in tuple.iter().enumerate() {
                if !domains[e.index()].contains(w[p].index()) {
                    continue 'witness;
                }
            }
            for (p, &v) in w.iter().enumerate() {
                supported[p].insert(v.index());
            }
        }
        // Intersect each element's domain with its supported set.
        for (p, &e) in tuple.iter().enumerate() {
            let before = domains[e.index()].len();
            domains[e.index()].intersect_with(&supported[p]);
            let after = domains[e.index()].len();
            if after < before {
                deletions += before - after;
                if after == 0 {
                    return ArcConsistency {
                        domains,
                        consistent: false,
                        deletions,
                    };
                }
                // Re-enqueue every tuple through e.
                for &(r2, t2) in a.occurrences(e) {
                    if !queued[r2.index()][t2 as usize] {
                        queued[r2.index()][t2 as usize] = true;
                        queue.push_back((r2, t2));
                    }
                }
            }
        }
    }

    let consistent = domains.iter().all(|d| !d.is_empty());
    ArcConsistency {
        domains,
        consistent,
        deletions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcs_structures::generators;
    use cqcs_structures::homomorphism::{find_homomorphism, homomorphism_exists};

    #[test]
    fn consistent_instances_keep_solutions() {
        // Every actual homomorphism value survives arc consistency.
        let a = generators::undirected_cycle(6);
        let b = generators::complete_graph(3);
        let ac = arc_consistent_domains(&a, &b);
        assert!(ac.consistent);
        let h = find_homomorphism(&a, &b).unwrap();
        for e in a.elements() {
            assert!(ac.domains[e.index()].contains(h.apply(e).index()));
        }
    }

    #[test]
    fn unary_constraints_prune() {
        use cqcs_structures::{StructureBuilder, Vocabulary};
        use std::sync::Arc;
        let voc = Vocabulary::from_symbols([("E", 2), ("P", 1)])
            .unwrap()
            .into_shared();
        // A: edge (0,1), P(0). B: path 0→1, P only on 1 → 0 must map to
        // 1, but 1 has no outgoing edge... so inconsistent.
        let mut ab = StructureBuilder::new(Arc::clone(&voc), 2);
        ab.add_fact("E", &[0, 1]).unwrap();
        ab.add_fact("P", &[0]).unwrap();
        let a = ab.finish();
        let mut bb = StructureBuilder::new(Arc::clone(&voc), 2);
        bb.add_fact("E", &[0, 1]).unwrap();
        bb.add_fact("P", &[1]).unwrap();
        let b = bb.finish();
        let ac = arc_consistent_domains(&a, &b);
        assert!(!ac.consistent);
        assert!(!homomorphism_exists(&a, &b));
    }

    #[test]
    fn soundness_on_random_instances() {
        // AC wipeout ⟹ no homomorphism.
        for seed in 0..25u64 {
            let a = generators::random_digraph(7, 0.3, seed);
            let b = generators::random_digraph(4, 0.25, seed + 999);
            let ac = arc_consistent_domains(&a, &b);
            if !ac.consistent {
                assert!(!homomorphism_exists(&a, &b), "seed {seed}");
            } else {
                // All hom images live inside the filtered domains.
                if let Some(h) = find_homomorphism(&a, &b) {
                    for e in a.elements() {
                        assert!(
                            ac.domains[e.index()].contains(h.apply(e).index()),
                            "seed {seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn incompleteness_example() {
        // (C5, K2): arc consistent but no homomorphism — AC is the
        // pebble game's weakness in domain form.
        let c5 = generators::undirected_cycle(5);
        let k2 = generators::complete_graph(2);
        let ac = arc_consistent_domains(&c5, &k2);
        assert!(ac.consistent);
        assert!(!homomorphism_exists(&c5, &k2));
    }

    #[test]
    fn empty_b_relation_wipes_out() {
        let voc = generators::digraph_vocabulary();
        let a = generators::directed_path(3);
        let b = cqcs_structures::StructureBuilder::new(voc, 2).finish();
        let ac = arc_consistent_domains(&a, &b);
        assert!(!ac.consistent);
    }

    #[test]
    fn refine_from_restricted_domains() {
        // Pin element 0 of an even cycle to color 0; AC propagates the
        // alternating coloring.
        let c4 = generators::undirected_cycle(4);
        let k2 = generators::complete_graph(2);
        let mut domains = vec![BitSet::full(2); 4];
        domains[0] = BitSet::new(2);
        domains[0].insert(0);
        let ac = refine_domains(&c4, &k2, domains);
        assert!(ac.consistent);
        for e in 0..4 {
            assert_eq!(ac.domains[e].len(), 1, "cycle coloring is forced");
            assert_eq!(ac.domains[e].min(), Some(e % 2));
        }
    }

    #[test]
    fn mixed_arity_establish_matches_reference() {
        for seed in 0..20u64 {
            let a = generators::random_structure(5, &[1, 2, 3], 8, seed);
            let b = generators::random_structure_over(a.vocabulary(), 3, 9, seed + 70);
            let full = vec![BitSet::full(b.universe()); a.universe()];
            let reference = refine_domains_reference(&a, &b, full);
            let fast = arc_consistent_domains(&a, &b);
            assert_eq!(fast.consistent, reference.consistent, "seed {seed}");
            if reference.consistent {
                assert_eq!(fast.domains, reference.domains, "seed {seed}");
                assert_eq!(fast.deletions, reference.deletions, "seed {seed}");
            }
        }
    }

    #[test]
    fn deletions_counted() {
        let c4 = generators::undirected_cycle(4);
        let k2 = generators::complete_graph(2);
        let mut domains = vec![BitSet::full(2); 4];
        domains[0].remove(1);
        let ac = refine_domains(&c4, &k2, domains);
        assert_eq!(ac.deletions, 3, "three forced deletions around the cycle");
    }
}
