//! Golden digest of the treewidth DP's witnesses.
//!
//! The DP (Theorem 5.4) returns one particular homomorphism: the root
//! takes its first valid bag assignment in enumeration order, and every
//! child the first valid assignment agreeing with its parent. Callers
//! (the served `Auto` route, watch sessions, the benchmark's parity
//! gate) compare answers bit for bit, so that choice is part of the
//! contract. This test hashes every witness, and every `None` verdict,
//! over a fixed seeded corpus; any change to which witness the DP picks
//! changes the digest.

use cqcs::structures::{gaifman_graph, generators, Homomorphism};
use cqcs::treewidth::dp::{homomorphism_via_treewidth, solve_with_decomposition};
use cqcs::treewidth::heuristics::{decomposition_from_elimination, min_fill_order};

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

    /// Feeds one verdict: a `0` byte for `None`, otherwise a `1` byte
    /// followed by each image as a little-endian `u32`. Returns whether
    /// a witness was present.
    fn verdict(&mut self, h: &Option<Homomorphism>) -> bool {
        match h {
            None => self.bytes(&[0]),
            Some(h) => {
                self.bytes(&[1]);
                for e in h.as_slice() {
                    self.bytes(&e.0.to_le_bytes());
                }
            }
        }
        h.is_some()
    }
}

/// Feeds a family's verdicts and checks that it has both verdicts, so
/// the digest pins witnesses and refutations alike.
fn family(digest: &mut Fnv1a, name: &str, verdicts: impl Iterator<Item = Option<Homomorphism>>) {
    let (mut yes, mut no) = (0, 0);
    for h in verdicts {
        if digest.verdict(&h) {
            yes += 1;
        } else {
            no += 1;
        }
    }
    assert!(
        yes > 0 && no > 0,
        "{name}: {yes} witnesses, {no} refutations"
    );
}

#[test]
fn treewidth_dp_witnesses_match_golden_digest() {
    let mut digest = Fnv1a::new();

    // The served shape: G(8,12) → K3 under the decomposition `Auto`
    // builds (min-fill elimination order).
    let k3 = generators::complete_graph(3);
    family(
        &mut digest,
        "G(8,12) -> K3",
        (0..512u64).map(|seed| {
            let a = generators::random_graph_nm(8, 12, seed);
            let g = gaifman_graph(&a);
            let td = decomposition_from_elimination(&g, &min_fill_order(&g));
            solve_with_decomposition(&a, &k3, &td).expect("own decomposition is valid")
        }),
    );

    // Partial 2-trees into random digraphs.
    family(
        &mut digest,
        "partial_ktree -> random_digraph",
        (0..64u64).map(|seed| {
            let a = generators::partial_ktree(9, 2, 0.8, seed);
            let b = generators::random_digraph(4, 0.5, seed + 321);
            homomorphism_via_treewidth(&a, &b).0
        }),
    );

    // Mixed arities, 0-ary included: B's tuple count cycles through 0,
    // so some instances fail on the 0-ary precondition alone.
    family(
        &mut digest,
        "random_structure [0,1,2,3]",
        (0..64u64).map(|seed| {
            let a = generators::random_structure(6, &[0, 1, 2, 3], 4, seed);
            let m = 2 + (seed % 3) as usize;
            let per_relation = 4 * (seed % 4) as usize;
            let b = generators::random_structure_over(a.vocabulary(), m, per_relation, seed + 99);
            homomorphism_via_treewidth(&a, &b).0
        }),
    );

    assert_eq!(
        digest.0, 0x8a0a_303e_164c_b7df,
        "treewidth DP witnesses changed: digest {:#018x}",
        digest.0
    );
}
