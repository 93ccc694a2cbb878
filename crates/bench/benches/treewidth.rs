//! E8 bench: the bounded-treewidth DP (Theorem 5.4) vs generic search,
//! and the ∃FO^{k+1} evaluation route of Lemma 5.2; plus the exact
//! treewidth oracles (E13): subset DP vs branch and bound, and the
//! cached min-fill order vs its from-scratch reference; and the DP alone
//! on the shape `Auto` serves most (G(8,12) → K3).

use cqcs_core::{backtracking_search, SearchOptions};
use cqcs_structures::{gaifman_graph, generators};
use cqcs_treewidth::bb::bb_treewidth;
use cqcs_treewidth::dp::{homomorphism_via_treewidth, solve_with_decomposition};
use cqcs_treewidth::exact::dp_treewidth;
use cqcs_treewidth::fo::{evaluate, structure_to_fo};
use cqcs_treewidth::heuristics::{
    decomposition_from_elimination, min_fill_decomposition, min_fill_order,
    min_fill_order_reference,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_dp_vs_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_treewidth_dp");
    group.sample_size(10);
    let k3 = generators::complete_graph(3);
    for k in [1usize, 2, 3] {
        for n in [20usize, 40, 80] {
            let a = generators::partial_ktree(n, k, 0.85, 21);
            group.bench_with_input(BenchmarkId::new(format!("dp_k{k}"), n), &a, |bench, a| {
                bench.iter(|| homomorphism_via_treewidth(a, &k3))
            });
            group.bench_with_input(
                BenchmarkId::new(format!("search_k{k}"), n),
                &a,
                |bench, a| bench.iter(|| backtracking_search(a, &k3, SearchOptions::default())),
            );
        }
    }
    group.finish();
}

/// The DP layer alone on the served shape: 64 G(8,12) instances against
/// K3, each with the min-fill decomposition `Auto` builds, computed
/// outside the timed closure. One iteration solves all 64.
fn bench_dp_served_shape(c: &mut Criterion) {
    let mut group = c.benchmark_group("treewidth_dp_served");
    group.sample_size(10);
    let k3 = generators::complete_graph(3);
    let instances: Vec<_> = (0..64u64)
        .map(|seed| {
            let a = generators::random_graph_nm(8, 12, seed);
            let g = gaifman_graph(&a);
            let td = decomposition_from_elimination(&g, &min_fill_order(&g));
            (a, td)
        })
        .collect();
    group.bench_with_input(
        BenchmarkId::new("g8_12_k3", instances.len()),
        &instances,
        |bench, instances| {
            bench.iter(|| {
                instances
                    .iter()
                    .filter(|(a, td)| {
                        solve_with_decomposition(a, &k3, td)
                            .expect("own decomposition is valid")
                            .is_some()
                    })
                    .count()
            })
        },
    );
    group.finish();
}

fn bench_fo_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_fo_evaluation");
    group.sample_size(10);
    let k3 = generators::complete_graph(3);
    for n in [20usize, 40] {
        let a = generators::partial_ktree(n, 2, 0.85, 21);
        let td = min_fill_decomposition(&gaifman_graph(&a));
        let q = structure_to_fo(&a, &td).unwrap();
        group.bench_with_input(BenchmarkId::new("fo_eval", n), &q, |bench, q| {
            bench.iter(|| evaluate(q, &k3))
        });
        group.bench_with_input(BenchmarkId::new("fo_translate", n), &a, |bench, a| {
            bench.iter(|| structure_to_fo(a, &td).unwrap())
        });
    }
    group.finish();
}

fn bench_exact_oracles(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_exact_treewidth");
    group.sample_size(10);
    // Head-to-head below the DP ceiling.
    for n in [12usize, 16] {
        let g = gaifman_graph(&generators::random_graph_nm(n, 2 * n, 7));
        group.bench_with_input(BenchmarkId::new("subset_dp", n), &g, |bench, g| {
            bench.iter(|| dp_treewidth(g))
        });
        group.bench_with_input(BenchmarkId::new("branch_bound", n), &g, |bench, g| {
            bench.iter(|| bb_treewidth(g))
        });
    }
    // Branch and bound alone past the ceiling.
    for (n, k) in [(40usize, 3usize), (60, 5)] {
        let g = gaifman_graph(&generators::partial_ktree(n, k, 0.85, 2));
        group.bench_with_input(
            BenchmarkId::new(format!("branch_bound_k{k}"), n),
            &g,
            |bench, g| bench.iter(|| bb_treewidth(g)),
        );
    }
    group.finish();
}

fn bench_min_fill_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("min_fill_order");
    group.sample_size(10);
    for n in [40usize, 80] {
        let g = gaifman_graph(&generators::random_graph_nm(n, 3 * n, 5));
        group.bench_with_input(BenchmarkId::new("cached", n), &g, |bench, g| {
            bench.iter(|| min_fill_order(g))
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &g, |bench, g| {
            bench.iter(|| min_fill_order_reference(g))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dp_vs_search,
    bench_dp_served_shape,
    bench_fo_route,
    bench_exact_oracles,
    bench_min_fill_cache
);
criterion_main!(benches);
