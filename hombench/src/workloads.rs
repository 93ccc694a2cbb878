//! The three workloads and their seeded inputs. Everything here is a
//! pure function of the workload and `--seed`; the program under test
//! only ever sees the generated structures.

use cqcs_structures::{generators, Structure, StructureBuilder, StructureDelta};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A benchmark workload (names as in `BENCHMARK.json`). The values
/// tag each workload's input stream; they are fixed so that a
/// workload's inputs stay the same when another is added or removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Served `Solve` of G(8,12) → K3 at depth 1: the treewidth DP route.
    ServeTw = 0,
    /// Served `Solve` of 2–4-node directed paths → K3 at depth 8: the
    /// acyclic route, so the wire path dominates.
    ServeWire = 1,
    /// In-process `WatchSession::apply` over G(24, 24→44) ramps with
    /// additions and retractions.
    WatchMixed = 3,
}

pub const ALL: [Workload; 3] = [Workload::ServeTw, Workload::ServeWire, Workload::WatchMixed];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeTw => "serve-tw",
            Workload::ServeWire => "serve-wire",
            Workload::WatchMixed => "watch-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests kept in flight on the one client connection (served
    /// workloads only).
    pub fn depth(self) -> usize {
        match self {
            Workload::ServeWire => 8,
            _ => 1,
        }
    }

    /// Distinct inputs a run cycles through. Fewer than a run serves
    /// even on a slow machine, so every run sees all of them and a
    /// faster program meets no new, harder inputs (peak memory, set by
    /// the hardest input, must not grow with throughput). Enough that
    /// the costly tail of the probe and search routes averages out.
    fn distinct(self) -> u64 {
        match self {
            Workload::WatchMixed => 1024,
            _ => 4096,
        }
    }
}

/// The inputs of one workload under one seed, generated on demand: the
/// `i`-th input is a pure function of the workload, the seed and `i`.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    workload: Workload,
    seed: u64,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        Inputs { workload, seed }
    }

    /// Inputs `i` and `j` are equal exactly when their keys are.
    pub fn key(&self, i: u64) -> u64 {
        i % self.workload.distinct()
    }

    /// A generator for input `i`, independent of every other input.
    fn rng(&self, i: u64) -> StdRng {
        let mut r = StdRng::seed_from_u64(self.seed);
        let tag: u64 = r.gen();
        StdRng::seed_from_u64(
            tag ^ (self.workload as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ self.key(i).wrapping_mul(0xD1B5_4A32_D192_ED03),
        )
    }

    /// The `i`-th instance of a served workload.
    pub fn instance(&self, i: u64) -> Structure {
        let mut rng = self.rng(i);
        match self.workload {
            Workload::ServeTw => generators::random_graph_nm(8, 12, rng.gen()),
            Workload::ServeWire => generators::directed_path(rng.gen_range(2..=4usize)),
            Workload::WatchMixed => panic!("watch-mixed is not served"),
        }
    }

    /// The `i`-th ramp of `watch-mixed`.
    pub fn ramp(&self, i: u64) -> Ramp {
        assert_eq!(
            self.workload,
            Workload::WatchMixed,
            "only watch-mixed has ramps"
        );
        ramp(&mut self.rng(i))
    }
}

/// The template every workload solves against.
pub fn template() -> Structure {
    generators::complete_graph(3)
}

/// One watch stream: a registered G(24, 24) and the deltas that grow it
/// to 44 edges, each step adding one undirected edge or (with
/// probability [`RETRACT_P`], once the ramp has grown) retracting a
/// present one.
#[derive(Debug, Clone)]
pub struct Ramp {
    pub base: Structure,
    pub deltas: Vec<StructureDelta>,
}

const RAMP_VERTICES: u32 = 24;
const RAMP_START_EDGES: usize = 24;
/// Past about 32 edges a ramp's width exceeds the DP's budget and
/// additions skip the treewidth stage. Ending at 44 puts ≈58% of
/// updates past that point, so the median update lies clearly on the
/// skipping side; ending at 40 put it at ≈50%, on the edge between the
/// two, and `latency_p50_ms` jumped between them from seed to seed.
const RAMP_END_EDGES: usize = 44;
/// Steps in a ramp at least: one per edge it grows by.
pub const RAMP_MIN_STEPS: usize = RAMP_END_EDGES - RAMP_START_EDGES;
/// One step in twelve retracts an edge: the retraction rate of E17's
/// mixed edit stream (the Datalog cycle stream, whose 24-step period
/// holds two retractions), the repository's one stream that
/// interleaves additions with retractions.
const RETRACT_P: f64 = 1.0 / 12.0;

fn ramp(rng: &mut StdRng) -> Ramp {
    let mut fresh: Vec<(u32, u32)> = (0..RAMP_VERTICES)
        .flat_map(|i| ((i + 1)..RAMP_VERTICES).map(move |j| (i, j)))
        .collect();
    fresh.shuffle(rng);
    let mut present: Vec<(u32, u32)> = fresh.split_off(fresh.len() - RAMP_START_EDGES);
    let mut b = StructureBuilder::new(generators::digraph_vocabulary(), RAMP_VERTICES as usize);
    for &(i, j) in &present {
        b.add_fact("E", &[i, j]).expect("E is binary");
        b.add_fact("E", &[j, i]).expect("E is binary");
    }
    let base = b.finish();
    // Every delta keeps the vocabulary and universe of `base`, which is
    // all a delta is anchored to.
    let mut deltas = Vec::new();
    while present.len() < RAMP_END_EDGES {
        let mut d = StructureDelta::new(&base);
        if present.len() > RAMP_START_EDGES && rng.gen_bool(RETRACT_P) {
            let (i, j) = present.swap_remove(rng.gen_range(0..present.len()));
            d.retract_fact("E", &[i, j]).expect("E is binary");
            d.retract_fact("E", &[j, i]).expect("E is binary");
        } else {
            let (i, j) = fresh.pop().expect("K24 has more edges than a ramp uses");
            present.push((i, j));
            d.add_fact("E", &[i, j]).expect("E is binary");
            d.add_fact("E", &[j, i]).expect("E is binary");
        }
        deltas.push(d);
    }
    Ramp { base, deltas }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcs_net::structures_identical;

    #[test]
    fn inputs_are_a_function_of_the_seed_and_index() {
        for w in [Workload::ServeTw, Workload::ServeWire] {
            let (x, y) = (Inputs::new(w, 7), Inputs::new(w, 7));
            assert!((0..64).all(|i| structures_identical(&x.instance(i), &y.instance(i))));
        }
        let (x, y) = (
            Inputs::new(Workload::WatchMixed, 7),
            Inputs::new(Workload::WatchMixed, 7),
        );
        assert!((0..8).all(|i| {
            let (a, b) = (x.ramp(i), y.ramp(i));
            structures_identical(&a.base, &b.base)
                && a.deltas.len() == b.deltas.len()
                && a.deltas
                    .iter()
                    .zip(&b.deltas)
                    .all(|(d, e)| d.added() == e.added())
        }));
        let (x, z) = (
            Inputs::new(Workload::ServeTw, 7),
            Inputs::new(Workload::ServeTw, 8),
        );
        assert!(!(0..64).all(|i| structures_identical(&x.instance(i), &z.instance(i))));
        assert!(!structures_identical(&x.instance(0), &x.instance(1)));
        // Inputs cycle.
        assert!(structures_identical(&x.instance(3), &x.instance(4096 + 3)));
    }

    #[test]
    fn ramps_grow_from_24_to_44_edges_with_retractions() {
        let edges = |s: &Structure| s.relation(s.vocabulary().iter().next().unwrap()).len();
        let mut retractions = 0;
        let inputs = Inputs::new(Workload::WatchMixed, 1);
        for r in (0..64).map(|i| inputs.ramp(i)) {
            assert_eq!(edges(&r.base), 2 * RAMP_START_EDGES);
            let mut current = r.base.clone();
            for d in &r.deltas {
                current = d.apply(&current).expect("deltas apply in order");
            }
            assert_eq!(edges(&current), 2 * RAMP_END_EDGES);
            retractions += r.deltas.iter().filter(|d| !d.additions_only()).count();
        }
        assert!(retractions > 0);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
