//! The bounded-treewidth homomorphism solver (Theorem 5.4).
//!
//! Given a tree decomposition of the left structure `A` of width `k`,
//! dynamic programming over bag assignments decides `hom(A → B)` in
//! time `O(nodes · |B|^{k+1} · ‖A‖)` — polynomial for fixed `k`, and
//! uniform in `B`. Each node keeps its satisfying bag assignments;
//! children constrain parents through projections onto shared elements;
//! a homomorphism is reconstructed top-down.
//!
//! # Code layout
//!
//! A bag's elements are kept in increasing order `b_0 < … < b_{s-1}`.
//! An assignment `h` of the bag is the mixed-radix code
//! `Σ h(b_i) · |B|^i`: bag position 0 is the least significant digit.
//! A projection onto the elements a bag shares with its parent is coded
//! the same way over the shared elements, again in increasing order, so
//! parent and child compute equal codes for agreeing assignments. Codes
//! are `u64`; the call panics rather than wrap when `|B|^|bag|` does not
//! fit.
//!
//! Each node's valid codes are enumerated in increasing order, depth
//! first from the most significant position down. A constraint (an
//! `A`-tuple held by the bag, or a child's separator) is checked as soon
//! as every position it reads is assigned, so a failing prefix prunes
//! all codes below it without changing which codes are valid. Tuple
//! membership in `B` is one bit of a bitmap over `B^arity`, built per
//! call for each relation `A` uses when it has at most 2^16 bits, and a
//! binary search over `B`'s sorted tuples beyond that.
//!
//! # Witness contract
//!
//! The root takes its first valid code. Every other node takes the first
//! valid code whose projection equals its parent's chosen assignment on
//! the elements they share. The witness is therefore a function of the
//! instance and the decomposition alone.
//!
//! # Memory
//!
//! Each node's valid codes land in one flat pool as `(projection, code)`
//! pairs, which are then sorted and deduplicated down to the first code
//! per projection: the node's support table, probed by binary search.
//! A table never holds more than one entry per valid assignment, the
//! root's holds exactly one, and nothing is sized by `|B|^|separator|`,
//! so memory is proportional to the valid assignments kept, plus the
//! bounded membership bitmaps.

use crate::decomposition::{DecompositionError, TreeDecomposition};
use crate::heuristics;
use cqcs_structures::{gaifman_graph, Element, Homomorphism, RelId, Structure};

/// Most bits a per-call `B^arity` membership bitmap may have (8 KiB).
/// Beyond it, membership falls back to binary search over `B`'s tuples,
/// so a large `B` cannot make a call allocate more than 8 KiB per
/// relation for membership.
const MEMBERSHIP_BITMAP_MAX_BITS: u64 = 1 << 16;

/// No parent: the root's entry in the parent array.
const NO_PARENT: usize = usize::MAX;

/// Solves `hom(A → B)` using the supplied tree decomposition of `A`.
///
/// Returns `Err` if the decomposition is invalid for `A`; `Ok(None)` if
/// no homomorphism exists; otherwise the homomorphism the module's
/// witness contract picks.
///
/// # Panics
/// Panics if the structures are over different vocabularies, or on
/// reaching a bag whose `|B|^|bag|` exceeds `u64` (far beyond any
/// enumeration that could finish).
pub fn solve_with_decomposition(
    a: &Structure,
    b: &Structure,
    td: &TreeDecomposition,
) -> Result<Option<Homomorphism>, DecompositionError> {
    assert!(
        a.same_vocabulary(b),
        "homomorphism across different vocabularies"
    );
    td.validate(a)?;

    // Global 0-ary preconditions.
    for r in a.vocabulary().iter() {
        if a.vocabulary().arity(r) == 0 && !a.relation(r).is_empty() && b.relation(r).is_empty() {
            return Ok(None);
        }
    }
    if a.universe() == 0 {
        return Ok(Some(Homomorphism::from_map(Vec::new())));
    }
    if b.universe() == 0 {
        return Ok(None);
    }

    let nodes = td.len();
    let m = u64::try_from(b.universe()).expect("a universe size fits in u64");

    // Bags, flat: node `u`'s elements are `bag_elems[bag_off[u]..bag_off[u + 1]]`.
    let mut bag_off = Vec::with_capacity(nodes + 1);
    let mut bag_elems = Vec::new();
    bag_off.push(0);
    for bag in &td.bags {
        bag_elems.extend(bag.iter());
        bag_off.push(bag_elems.len());
    }
    let bag = |u: usize| &bag_elems[bag_off[u]..bag_off[u + 1]];

    // pow[i] = |B|^i, up to the widest bag or the last that fits in u64.
    // A bag of size s has codes below pow[s].
    let widest = (0..nodes).map(|u| bag(u).len()).max().unwrap_or(0);
    let mut pow = vec![1u64];
    while pow.len() <= widest {
        match pow[pow.len() - 1].checked_mul(m) {
            Some(next) => pow.push(next),
            None => break,
        }
    }

    // The tree, rooted at 0: `order` lists parents before children.
    let mut arcs: Vec<(usize, usize)> = td
        .edges
        .iter()
        .flat_map(|&(u, v)| [(u, v), (v, u)])
        .collect();
    arcs.sort_unstable();
    let neighbours = |u: usize| {
        let start = arcs.partition_point(|&(x, _)| x < u);
        let end = arcs.partition_point(|&(x, _)| x <= u);
        arcs[start..end].iter().map(|&(_, v)| v)
    };
    let mut parent = vec![NO_PARENT; nodes];
    let mut order = Vec::with_capacity(nodes);
    order.push(0);
    let mut next = 0;
    while next < order.len() {
        let u = order[next];
        next += 1;
        for v in neighbours(u) {
            if v != parent[u] {
                parent[v] = u;
                order.push(v);
            }
        }
    }

    // Every A-tuple is checked at the first bag (by index) covering it.
    let mut held: Vec<(usize, RelId, usize)> = Vec::with_capacity(a.total_tuples());
    for r in a.vocabulary().iter() {
        if a.vocabulary().arity(r) == 0 {
            continue;
        }
        for (ti, tuple) in a.relation(r).iter().enumerate() {
            let holder = (0..nodes)
                .find(|&i| tuple.iter().all(|e| td.bags[i].contains(e.index())))
                .expect("validate() guarantees a covering bag");
            held.push((holder, r, ti));
        }
    }
    held.sort_unstable_by_key(|&(holder, ..)| holder);

    let mut membership = Membership::new(a, b);
    // Support tables, flat: node `u`'s is `support[seg[u].0..seg[u].1]`,
    // `(projection onto the parent's bag, first valid code)` sorted by
    // projection.
    let mut support: Vec<(u64, u64)> = Vec::new();
    let mut seg = vec![(0usize, 0usize); nodes];
    // Per-node scratch, reused across nodes.
    let mut pos_of = vec![0usize; a.universe()];
    let mut checks: Vec<Check> = Vec::new();
    let mut check_pos: Vec<usize> = Vec::new();
    let mut level_start: Vec<usize> = Vec::with_capacity(widest + 1);
    let mut sep_pos: Vec<usize> = Vec::with_capacity(widest);
    let mut digits: Vec<u32> = Vec::with_capacity(widest);

    for &u in order.iter().rev() {
        let bag_u = bag(u);
        let s = bag_u.len();
        assert!(s < pow.len(), "bag assignment count |B|^{s} exceeds u64");
        for (i, &e) in bag_u.iter().enumerate() {
            pos_of[e] = i;
        }

        // Constraints, each keyed by the lowest bag position it reads:
        // the enumeration assigns positions from the top down, so that
        // is where the constraint becomes decidable.
        checks.clear();
        check_pos.clear();
        let first = held.partition_point(|&(holder, ..)| holder < u);
        let last = held.partition_point(|&(holder, ..)| holder <= u);
        for &(_, r, ti) in &held[first..last] {
            let start = check_pos.len();
            check_pos.extend(a.relation(r).tuple(ti).iter().map(|e| pos_of[e.index()]));
            let level = *check_pos[start..]
                .iter()
                .min()
                .expect("tuples have arity ≥ 1");
            checks.push(Check {
                level,
                kind: CheckKind::Tuple(r),
                pos: (start, check_pos.len()),
            });
        }
        for c in neighbours(u).filter(|&c| c != parent[u]) {
            let start = check_pos.len();
            check_pos.extend(
                bag(c)
                    .iter()
                    .filter(|&&e| td.bags[u].contains(e))
                    .map(|&e| pos_of[e]),
            );
            // An empty separator constrains nothing: the child has at
            // least one valid code, or the call already returned.
            if let Some(&level) = check_pos.get(start) {
                checks.push(Check {
                    level,
                    kind: CheckKind::Child(c),
                    pos: (start, check_pos.len()),
                });
            }
        }
        checks.sort_unstable_by_key(|check| check.level);
        level_start.clear();
        level_start.extend((0..=s).map(|p| checks.partition_point(|check| check.level < p)));
        sep_pos.clear();
        if parent[u] != NO_PARENT {
            let up = &td.bags[parent[u]];
            sep_pos.extend((0..s).filter(|&i| up.contains(bag_u[i])));
        }

        // Enumerate valid codes in increasing order into the pool.
        let start = support.len();
        if s == 0 {
            support.push((0, 0));
        } else {
            digits.clear();
            digits.resize(s, 0);
            let mut p = s - 1;
            'search: loop {
                let ok = checks[level_start[p]..level_start[p + 1]]
                    .iter()
                    .all(|check| {
                        let pos = &check_pos[check.pos.0..check.pos.1];
                        match check.kind {
                            CheckKind::Tuple(r) => membership.contains(b, r, pos, &digits),
                            CheckKind::Child(c) => {
                                let proj = code_of(pos.iter().map(|&i| digits[i]), &pow);
                                let (lo, hi) = seg[c];
                                support[lo..hi]
                                    .binary_search_by_key(&proj, |&(key, _)| key)
                                    .is_ok()
                            }
                        }
                    });
                if ok {
                    if p > 0 {
                        p -= 1;
                        digits[p] = 0;
                        continue;
                    }
                    let proj = code_of(sep_pos.iter().map(|&i| digits[i]), &pow);
                    support.push((proj, code_of(digits.iter().copied(), &pow)));
                }
                // Next candidate: bump position p, carrying upwards.
                loop {
                    if u64::from(digits[p]) + 1 < m {
                        digits[p] += 1;
                        continue 'search;
                    }
                    p += 1;
                    if p == s {
                        break 'search;
                    }
                }
            }
        }
        if support.len() == start {
            return Ok(None);
        }

        // Keep the first (smallest) code per projection. Codes are
        // distinct, so sorting the pairs orders each projection's codes
        // increasingly.
        support[start..].sort_unstable();
        let mut kept = start;
        for i in start..support.len() {
            if kept == start || support[i].0 != support[kept - 1].0 {
                support[kept] = support[i];
                kept += 1;
            }
        }
        support.truncate(kept);
        seg[u] = (start, kept);
    }

    // Reconstruct top-down: parents before children.
    let mut map = vec![Element(0); a.universe()];
    for &u in &order {
        let (lo, hi) = seg[u];
        let code = if parent[u] == NO_PARENT {
            support[lo].1
        } else {
            let up = &td.bags[parent[u]];
            let proj = code_of(
                bag(u)
                    .iter()
                    .filter(|&&e| up.contains(e))
                    .map(|&e| map[e].0),
                &pow,
            );
            let i = support[lo..hi]
                .binary_search_by_key(&proj, |&(key, _)| key)
                .expect("parent kept only supported projections");
            support[lo + i].1
        };
        for (i, &e) in bag(u).iter().enumerate() {
            let digit = code / pow[i] % m;
            map[e] = Element(u32::try_from(digit).expect("a digit is below |B|"));
        }
    }
    debug_assert!(cqcs_structures::is_homomorphism(&map, a, b));
    Ok(Some(Homomorphism::from_map(map)))
}

/// A constraint on a bag assignment, decidable once bag position
/// `level` (the lowest it reads) is assigned. It reads the positions
/// `check_pos[pos.0..pos.1]`.
struct Check {
    level: usize,
    kind: CheckKind,
    pos: (usize, usize),
}

enum CheckKind {
    /// An `A`-tuple held by the bag: its image must be a tuple of `B`.
    Tuple(RelId),
    /// A child's separator: the projection must be in the child's
    /// support table.
    Child(usize),
}

/// The mixed-radix code of `digits`, least significant first.
fn code_of(digits: impl Iterator<Item = u32>, pow: &[u64]) -> u64 {
    digits.zip(pow).map(|(d, &w)| u64::from(d) * w).sum()
}

/// Tuple membership in `B` for the relations `A` uses.
struct Membership {
    /// `|B|`.
    m: usize,
    /// Per relation: the word offset of its bitmap in `words`, or `None`
    /// to binary-search `B`'s tuples.
    offset: Vec<Option<usize>>,
    /// Bit `Σ t_j · |B|^{arity-1-j}` of a relation's bitmap is set iff
    /// `t` is one of its tuples in `B`.
    words: Vec<u64>,
    /// Image buffer for the binary-search path.
    image: Vec<Element>,
}

impl Membership {
    fn new(a: &Structure, b: &Structure) -> Self {
        let voc = a.vocabulary();
        let m = b.universe();
        let mut offset = vec![None; voc.len()];
        let mut words = Vec::new();
        for r in voc.iter() {
            let arity = voc.arity(r);
            if arity == 0 || a.relation(r).is_empty() {
                continue;
            }
            let bits = u32::try_from(arity)
                .ok()
                .and_then(|k| (m as u64).checked_pow(k))
                .filter(|&bits| bits <= MEMBERSHIP_BITMAP_MAX_BITS);
            if let Some(bits) = bits {
                let off = words.len();
                words.resize(off + (bits as usize).div_ceil(64), 0);
                for t in b.relation(r).iter() {
                    let bit = t.iter().fold(0, |acc, e| acc * m + e.index());
                    words[off + bit / 64] |= 1 << (bit % 64);
                }
                offset[r.index()] = Some(off);
            }
        }
        Membership {
            m,
            offset,
            words,
            image: Vec::new(),
        }
    }

    /// Whether the tuple reading bag positions `pos` under `digits` is a
    /// tuple of `r` in `B`.
    #[inline]
    fn contains(&mut self, b: &Structure, r: RelId, pos: &[usize], digits: &[u32]) -> bool {
        match self.offset[r.index()] {
            Some(off) => {
                let bit = pos
                    .iter()
                    .fold(0, |acc, &i| acc * self.m + digits[i] as usize);
                self.words[off + bit / 64] >> (bit % 64) & 1 == 1
            }
            None => {
                self.image.clear();
                self.image.extend(pos.iter().map(|&i| Element(digits[i])));
                b.relation(r).contains(&self.image)
            }
        }
    }
}

/// Convenience pipeline: Gaifman graph → min-fill decomposition → DP.
/// Returns the homomorphism (if any) and the decomposition width used.
pub fn homomorphism_via_treewidth(a: &Structure, b: &Structure) -> (Option<Homomorphism>, usize) {
    let g = gaifman_graph(a);
    let mut td = heuristics::min_fill_decomposition(&g);
    if td.is_empty() && a.universe() > 0 {
        td = TreeDecomposition::trivial(a.universe());
    }
    let width = td.width();
    let result = solve_with_decomposition(a, b, &td)
        .expect("decomposition built from A's own Gaifman graph is valid");
    (result, width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcs_structures::generators;
    use cqcs_structures::homomorphism::homomorphism_exists;

    #[test]
    fn cycles_and_colorings() {
        let k2 = generators::complete_graph(2);
        let k3 = generators::complete_graph(3);
        for n in [4, 5, 6, 7] {
            let c = generators::undirected_cycle(n);
            let (h2, w) = homomorphism_via_treewidth(&c, &k2);
            assert_eq!(h2.is_some(), n % 2 == 0, "C{n} vs K2");
            assert_eq!(w, 2, "cycles have treewidth 2");
            let (h3, _) = homomorphism_via_treewidth(&c, &k3);
            assert!(h3.is_some(), "C{n} vs K3");
        }
    }

    #[test]
    fn witnesses_are_homomorphisms() {
        for seed in 0..10u64 {
            let a = generators::partial_ktree(9, 2, 0.8, seed);
            let b = generators::random_digraph(4, 0.5, seed + 321);
            let (h, _) = homomorphism_via_treewidth(&a, &b);
            assert_eq!(h.is_some(), homomorphism_exists(&a, &b), "seed {seed}");
            if let Some(h) = h {
                assert!(cqcs_structures::is_homomorphism(h.as_slice(), &a, &b));
            }
        }
    }

    #[test]
    fn agrees_with_reference_on_random_structures() {
        // Also exercises ternary relations (wide bags).
        for seed in 0..10u64 {
            let a = generators::random_structure(6, &[2, 3], 4, seed);
            let b = generators::random_structure_over(a.vocabulary(), 3, 7, seed + 99);
            let (h, _) = homomorphism_via_treewidth(&a, &b);
            assert_eq!(h.is_some(), homomorphism_exists(&a, &b), "seed {seed}");
        }
    }

    #[test]
    fn explicit_decomposition_used() {
        let p = generators::directed_path(5);
        let t3 = generators::transitive_tournament(5);
        let mut bags = Vec::new();
        let mut edges = Vec::new();
        for i in 0..4usize {
            let mut bag = cqcs_structures::BitSet::new(5);
            bag.insert(i);
            bag.insert(i + 1);
            bags.push(bag);
            if i > 0 {
                edges.push((i - 1, i));
            }
        }
        let td = TreeDecomposition { bags, edges };
        let h = solve_with_decomposition(&p, &t3, &td).unwrap();
        assert!(h.is_some());
    }

    #[test]
    fn invalid_decomposition_rejected() {
        let p = generators::directed_path(3);
        let bag = |elements: &[usize]| {
            elements
                .iter()
                .copied()
                .collect::<cqcs_structures::BitSet>()
        };
        // One bag over {0, 1}: element 2 of the path is in no bag.
        let td = TreeDecomposition {
            bags: vec![cqcs_structures::BitSet::full(2)],
            edges: vec![],
        };
        assert_eq!(
            solve_with_decomposition(&p, &p, &td).unwrap_err(),
            DecompositionError::ElementMissing { element: 2 }
        );
        // Every element covered, but no bag holds the edge 1 → 2.
        let td = TreeDecomposition {
            bags: vec![bag(&[0, 1]), bag(&[2])],
            edges: vec![(0, 1)],
        };
        assert!(matches!(
            solve_with_decomposition(&p, &p, &td),
            Err(DecompositionError::TupleNotCovered { .. })
        ));
        // Covering bags that are not joined into a tree.
        let td = TreeDecomposition {
            bags: vec![bag(&[0, 1]), bag(&[1, 2])],
            edges: vec![],
        };
        assert_eq!(
            solve_with_decomposition(&p, &p, &td).unwrap_err(),
            DecompositionError::NotATree
        );
    }

    #[test]
    #[should_panic(expected = "exceeds u64")]
    fn code_space_beyond_u64_panics_instead_of_wrapping() {
        // One bag of 5 elements over |B| = 10 000: 10^20 codes > 2^64.
        let a = generators::random_structure(5, &[5], 1, 0);
        let b = generators::random_structure_over(a.vocabulary(), 10_000, 0, 0);
        let _ = solve_with_decomposition(&a, &b, &TreeDecomposition::trivial(5));
    }

    #[test]
    fn empty_and_degenerate_cases() {
        let voc = generators::digraph_vocabulary();
        let empty = cqcs_structures::StructureBuilder::new(voc, 0).finish();
        let k2 = generators::complete_graph(2);
        let td = TreeDecomposition {
            bags: vec![],
            edges: vec![],
        };
        assert!(solve_with_decomposition(&empty, &k2, &td)
            .unwrap()
            .is_some());
        // Nonempty A into empty B.
        let (h, _) = homomorphism_via_treewidth(&k2, &empty);
        assert!(h.is_none());
    }

    #[test]
    fn isolated_elements_are_mapped() {
        let voc = generators::digraph_vocabulary();
        let mut builder = cqcs_structures::StructureBuilder::new(std::sync::Arc::clone(&voc), 4);
        builder.add_fact("E", &[0, 1]).unwrap();
        let a = builder.finish(); // elements 2, 3 isolated
        let b = generators::complete_graph(2);
        let (h, _) = homomorphism_via_treewidth(&a, &b);
        let h = h.unwrap();
        assert_eq!(h.domain_size(), 4);
        assert!(cqcs_structures::is_homomorphism(h.as_slice(), &a, &b));
    }
}
