//! The parity gate: every answer the benchmark times is compared, after
//! the timed section, against an independent direct solve of the same
//! instance. Any mismatch makes the run incorrect.

use cqcs_core::Solution;
use cqcs_net::solutions_identical;
use cqcs_structures::{Element, Homomorphism};

#[derive(Debug, Default)]
pub struct ParityGate {
    checked: u64,
    mismatches: u64,
    first: Option<String>,
}

impl ParityGate {
    /// A served answer must equal the direct `Session::solve` bit for
    /// bit: witness, route and search statistics.
    pub fn served(&mut self, got: &Solution, direct: &Solution, what: impl FnOnce() -> String) {
        self.check(solutions_identical(got, direct), what);
    }

    /// A watch update must match a fresh solve of the post-delta
    /// structure in verdict, route and witness, and in search
    /// statistics wherever the watch reports them (its monotone
    /// refutation fast path reports none by contract).
    pub fn watched(&mut self, got: &Solution, fresh: &Solution, what: impl FnOnce() -> String) {
        fn witness(s: &Solution) -> Option<&[Element]> {
            s.homomorphism.as_ref().map(Homomorphism::as_slice)
        }
        let same = witness(got) == witness(fresh)
            && got.route == fresh.route
            && (got.stats.is_none() || got.stats == fresh.stats);
        self.check(same, what);
    }

    /// A replayed dispatch must reach the route `Session::solve` takes
    /// (and, since it runs the same stages, the same answer).
    pub fn replayed(&mut self, got: &Solution, direct: &Solution, what: impl FnOnce() -> String) {
        self.check(solutions_identical(got, direct), what);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.mismatches += 1;
            if self.first.is_none() {
                self.first = Some(what());
            }
        }
    }

    pub fn passed(&self) -> bool {
        self.mismatches == 0
    }

    /// A one-line verdict for the log.
    pub fn summary(&self) -> String {
        match &self.first {
            None => format!("parity: {} answers checked, all identical", self.checked),
            Some(first) => format!(
                "parity: {} of {} answers differ; first: {first}",
                self.mismatches, self.checked
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcs_core::{Route, SearchStats, Session};
    use cqcs_structures::generators;

    #[test]
    fn identical_answers_pass() {
        let s = Session::compile(&generators::complete_graph(3));
        let a = generators::random_graph_nm(8, 12, 3);
        let mut gate = ParityGate::default();
        gate.served(&s.solve(&a), &s.solve(&a), || "same".into());
        gate.watched(&s.solve(&a), &s.solve(&a), || "same".into());
        assert!(gate.passed());
        assert!(gate.summary().contains("2 answers checked"));
    }

    #[test]
    fn an_injected_mismatch_fails_the_gate() {
        let s = Session::compile(&generators::complete_graph(3));
        let a = generators::undirected_cycle(6);
        let direct = s.solve(&a);
        let h = direct.homomorphism.clone().expect("C6 is 3-colourable");

        // A different witness.
        let mut swapped: Vec<_> = h.as_slice().to_vec();
        swapped.swap(0, 1);
        let wrong_witness = Solution {
            homomorphism: Some(Homomorphism::from_map(swapped)),
            ..direct.clone()
        };
        // A different route, and different statistics.
        let wrong_route = Solution {
            route: Route::Generic,
            ..direct.clone()
        };
        let wrong_stats = Solution {
            stats: Some(SearchStats {
                nodes: 1,
                ..SearchStats::default()
            }),
            ..direct.clone()
        };
        for bad in [&wrong_witness, &wrong_route, &wrong_stats] {
            let mut gate = ParityGate::default();
            gate.served(bad, &direct, || "injected".into());
            assert!(!gate.passed());
            assert!(gate.summary().contains("injected"));
        }
        for bad in [&wrong_witness, &wrong_route] {
            let mut gate = ParityGate::default();
            gate.watched(bad, &direct, || "injected".into());
            assert!(!gate.passed());
        }
        let mut gate = ParityGate::default();
        gate.replayed(&wrong_route, &direct, || "injected".into());
        assert!(!gate.passed());
    }
}
