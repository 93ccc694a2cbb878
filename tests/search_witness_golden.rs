//! Golden digest of the backtracking search's witnesses and effort.
//!
//! The search returns one particular homomorphism: the first complete
//! assignment its variable order (MRV or first-unassigned) and its
//! ascending value order reach. Its `SearchStats` (nodes, backtracks,
//! deletions) are just as deterministic, and callers compare both bit
//! for bit (session ≡ one-shot parity, batch ≡ sequential parity, the
//! benchmark's replay gate). This test hashes every witness, every
//! `None` verdict and every statistics triple over a fixed seeded
//! corpus, for all eight `SearchOptions` combinations, through the
//! standalone search, `Session::solve_with(Generic(_))` and the
//! `Session::solve` answers that end on the search or the arc-consistency
//! refutation. Any change to which witness the search picks, or to how
//! much work it reports, changes the digest.

use cqcs::core::{
    backtracking_search, Route, SearchOptions, SearchStats, Session, Solution, Strategy,
};
use cqcs::structures::{generators, Homomorphism, Structure};

/// 64-bit FNV-1a: stable across platforms and releases, unlike
/// `std::hash::DefaultHasher`.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds one answer: a `0` byte for `None`, otherwise a `1` byte
    /// followed by each image as a little-endian `u32`; then the three
    /// counters as little-endian `u64`s. Returns whether a witness was
    /// present.
    fn answer(&mut self, h: &Option<Homomorphism>, stats: &SearchStats) -> bool {
        match h {
            None => self.bytes(&[0]),
            Some(h) => {
                self.bytes(&[1]);
                for e in h.as_slice() {
                    self.bytes(&e.0.to_le_bytes());
                }
            }
        }
        for n in [stats.nodes, stats.backtracks, stats.deletions] {
            self.bytes(&n.to_le_bytes());
        }
        h.is_some()
    }
}

/// Every `SearchOptions` combination, in a fixed order.
fn all_options() -> Vec<SearchOptions> {
    let mut out = Vec::new();
    for mrv in [false, true] {
        for mac in [false, true] {
            for ac_preprocess in [false, true] {
                out.push(SearchOptions {
                    mrv,
                    mac,
                    ac_preprocess,
                });
            }
        }
    }
    out
}

/// A named corpus of `(A, B)` pairs.
struct Family {
    name: &'static str,
    pairs: Vec<(Structure, Structure)>,
}

fn corpus() -> Vec<Family> {
    let k3 = generators::complete_graph(3);
    vec![
        // Sparse graphs around the 3-colourability threshold.
        Family {
            name: "G(n,2n) -> K3",
            pairs: (0..48u64)
                .map(|seed| {
                    let n = 6 + (seed % 6) as usize;
                    (generators::random_graph_nm(n, 2 * n, seed), k3.clone())
                })
                .collect(),
        },
        // Mixed arities, 0-ary included: B's tuple count cycles through
        // 0, so some instances fail on the 0-ary precondition alone.
        Family {
            name: "random_structure [0,1,2,3]",
            pairs: (0..48u64)
                .map(|seed| {
                    let a = generators::random_structure(5, &[0, 1, 2, 3], 3, seed);
                    let m = 2 + (seed % 3) as usize;
                    let per_relation = 3 * (seed % 4) as usize;
                    let b = generators::random_structure_over(
                        a.vocabulary(),
                        m,
                        per_relation,
                        seed + 77,
                    );
                    (a, b)
                })
                .collect(),
        },
        // More than 64 template elements and tuples: the multi-word
        // domain and support-set kernels.
        Family {
            name: "random_digraph -> 70-element digraph",
            pairs: (0..16u64)
                .map(|seed| {
                    let a = generators::random_digraph(4, 0.5, seed);
                    let b = generators::random_digraph(70, 0.04 + 0.01 * (seed % 3) as f64, seed);
                    (a, b)
                })
                .collect(),
        },
    ]
}

/// Feeds one family's answers, checking that both verdicts occur so the
/// digest pins witnesses and refutations alike.
fn feed(
    digest: &mut Fnv1a,
    what: &str,
    answers: impl Iterator<Item = (Option<Homomorphism>, SearchStats)>,
) {
    let (mut yes, mut no) = (0, 0);
    for (h, stats) in answers {
        if digest.answer(&h, &stats) {
            yes += 1;
        } else {
            no += 1;
        }
    }
    assert!(
        yes > 0 && no > 0,
        "{what}: {yes} witnesses, {no} refutations"
    );
}

fn generic_answer(sol: Solution) -> (Option<Homomorphism>, SearchStats) {
    assert_eq!(sol.route, Route::Generic);
    (
        sol.homomorphism,
        sol.stats.expect("generic route reports stats"),
    )
}

#[test]
fn search_witnesses_match_golden_digest() {
    let mut digest = Fnv1a::new();
    let families = corpus();

    for opts in all_options() {
        for fam in &families {
            feed(
                &mut digest,
                &format!("backtracking_search {opts:?} on {}", fam.name),
                fam.pairs
                    .iter()
                    .map(|(a, b)| backtracking_search(a, b, opts)),
            );
        }
    }

    for opts in all_options() {
        for fam in &families {
            feed(
                &mut digest,
                &format!("Session Generic {opts:?} on {}", fam.name),
                fam.pairs.iter().map(|(a, b)| {
                    let session = Session::compile(b);
                    generic_answer(
                        session
                            .solve_with(a, Strategy::Generic(opts))
                            .expect("generic always applies"),
                    )
                }),
            );
        }
    }

    // `Auto` answers that the search or the arc-consistency refutation
    // settled (wider graphs push past the treewidth budget).
    let k3 = generators::complete_graph(3);
    let k3_session = Session::compile(&k3);
    let wide: Vec<Structure> = (0..24u64)
        .map(|seed| {
            let n = 18 + (seed % 5) as usize;
            generators::random_graph_nm(n, 2 * n + (seed % 4) as usize, seed)
        })
        .collect();
    let mut auto = Vec::new();
    for a in &wide {
        auto.push(k3_session.solve(a));
    }
    for fam in &families {
        for (a, b) in &fam.pairs {
            auto.push(Session::compile(b).solve(a));
        }
    }
    auto.retain(|sol| matches!(sol.route, Route::Generic | Route::ArcRefuted));
    let generic = auto.iter().filter(|s| s.route == Route::Generic).count();
    let refuted = auto.len() - generic;
    assert!(
        generic > 0 && refuted > 0,
        "Auto corpus: {generic} generic, {refuted} arc-refuted"
    );
    for sol in &auto {
        digest.bytes(&[u8::from(sol.route == Route::Generic)]);
    }
    feed(
        &mut digest,
        "Session::solve on the search routes",
        auto.into_iter().map(|sol| {
            (
                sol.homomorphism,
                sol.stats.expect("search routes report stats"),
            )
        }),
    );

    assert_eq!(
        digest.0, 0x03d1_5226_23d8_bfa7,
        "search witnesses changed: digest {:#018x}",
        digest.0
    );
}
