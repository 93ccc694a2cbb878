//! # cqcs-bench — workloads and the experiment harness
//!
//! Shared generators and measurement helpers for the criterion benches
//! (`benches/`) and the deterministic table generator
//! (`src/bin/experiments.rs`), which regenerates every table in
//! `EXPERIMENTS.md`. The generator writes into a [`Report`] of typed
//! [`Cell`]s, so the same run that renders the file can check a
//! committed copy of it ([`Report::check`]).

use std::fmt::{self, Display};
use std::time::Instant;

/// Milliseconds elapsed running `f` once.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Median-of-`runs` timing (milliseconds) of `f`.
pub fn median_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(runs >= 1);
    let mut times: Vec<f64> = (0..runs).map(|_| time_ms(&mut f).1).collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Fits the growth exponent `p` of `t = c·n^p` from `(n, t)` samples by
/// least squares on log–log scale (ignores non-positive samples).
pub fn growth_exponent(samples: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = samples
        .iter()
        .filter(|(n, t)| *n > 0.0 && *t > 0.0)
        .map(|(n, t)| (n.ln(), t.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|(x, _)| x).sum();
    let sy: f64 = pts.iter().map(|(_, y)| y).sum();
    let sxx: f64 = pts.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = pts.iter().map(|(x, y)| x * y).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// How a committed cell is checked against this run's.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// Seeded and deterministic: compared verbatim.
    Fixed,
    /// Machine- or scheduling-dependent (timings, `cpus=N`, retry
    /// counters, fitted exponents): compared by shape, each run of digits
    /// free, and `Some(floor)` bounds the committed value from below.
    Varies(Option<f64>),
    /// A claim of the paper or the system, `false` when it fails:
    /// compared verbatim, and a run where it fails exits 1.
    Invariant(bool),
}

/// One typed fragment of an `EXPERIMENTS.md` line.
#[derive(Debug)]
pub struct Cell {
    text: String,
    kind: Kind,
}

fn cell(kind: Kind, v: impl Display) -> Cell {
    Cell {
        text: v.to_string(),
        kind,
    }
}

/// A seeded cell, compared verbatim.
pub fn fixed(v: impl Display) -> Cell {
    cell(Kind::Fixed, v)
}

/// A machine-dependent cell, compared by shape only.
pub fn varies(v: impl Display) -> Cell {
    cell(Kind::Varies(None), v)
}

/// A machine-dependent cell whose committed value (a number, optionally
/// suffixed `×`) must be at least `floor`.
pub fn at_least(floor: f64, v: impl Display) -> Cell {
    cell(Kind::Varies(Some(floor)), v)
}

/// An invariant shown as `true` / `false`.
pub fn holds(ok: bool) -> Cell {
    invariant(ok, ok)
}

/// An invariant shown as `text` (a count that must be zero, a `12/12`).
pub fn invariant(holds: bool, text: impl Display) -> Cell {
    cell(Kind::Invariant(holds), text)
}

/// The length of the prefix of `committed` with the shape of the varies
/// text `ran`: the same bytes, except that each run of digits may be any
/// other non-empty run of digits (a timing of any width, any counter).
fn shape_prefix(ran: &str, committed: &str) -> Option<usize> {
    let digits = |s: &[u8]| s.iter().take_while(|b| b.is_ascii_digit()).count();
    let (r, c) = (ran.as_bytes(), committed.as_bytes());
    let (mut i, mut j) = (0, 0);
    while i < r.len() {
        let (dr, dc) = (digits(&r[i..]), digits(&c[j..]));
        if dr > 0 && dc > 0 {
            (i, j) = (i + dr, j + dc);
        } else if dr == 0 && c.get(j) == Some(&r[i]) {
            (i, j) = (i + 1, j + 1);
        } else {
            return None;
        }
    }
    Some(j)
}

/// Whether committed `text` matches the fragments of one line: fixed and
/// invariant text verbatim, varies text by shape and held to its floor.
fn matches(frags: &[Cell], mut text: &str) -> bool {
    for f in frags {
        let len = match f.kind {
            Kind::Varies(floor) => match shape_prefix(&f.text, text) {
                Some(n) if floor.is_none_or(|min| at_least_value(&text[..n], min)) => n,
                _ => return false,
            },
            _ if text.starts_with(&f.text) => f.text.len(),
            _ => return false,
        };
        text = &text[len..];
    }
    text.is_empty()
}

/// Whether `cell` (a number, optionally suffixed `×`) is at least `min`.
fn at_least_value(cell: &str, min: f64) -> bool {
    (cell.trim_end_matches('×').parse::<f64>()).is_ok_and(|v| v >= min)
}

/// This run's line as the check reports it: floored cells as `≥floor`.
fn pattern(frags: &[Cell]) -> String {
    let show = |f: &Cell| match f.kind {
        Kind::Varies(Some(min)) => format!("≥{min}"),
        _ => f.text.clone(),
    };
    frags.iter().map(show).collect()
}

/// The typed output of the experiments: renders `EXPERIMENTS.md`
/// ([`Display`]), records every invariant that failed, and checks a
/// committed copy line by line.
#[derive(Default)]
pub struct Report {
    /// One fragment list per output line, table separators included.
    lines: Vec<Vec<Cell>>,
    failures: Vec<String>,
    section: String,
    columns: Vec<String>,
    rows: usize,
}

impl Report {
    /// Starts experiment `id`, which later messages name.
    pub fn section(&mut self, id: &str) {
        self.section = id.to_string();
    }

    /// Seeded prose; each `\n` starts a new line.
    pub fn text(&mut self, text: &str) {
        for l in text.split('\n') {
            self.line(vec![fixed(l)]);
        }
    }

    /// One prose line built from typed fragments.
    pub fn line(&mut self, frags: Vec<Cell>) {
        let failed = frags.iter().filter(|f| f.kind == Kind::Invariant(false));
        self.failures
            .extend(failed.map(|f| format!("{}: `{}` fails", self.section, f.text)));
        self.lines.push(frags);
    }

    /// A table header and its separator; the rows that follow are
    /// numbered from 1 and their cells named by these columns.
    pub fn header(&mut self, columns: &[&str]) {
        let rule = vec!["---"; columns.len()].join("|");
        self.text(&format!("| {} |\n|{rule}|", columns.join(" | ")));
        self.columns = columns.iter().map(|c| c.to_string()).collect();
        self.rows = 0;
    }

    /// A table row, one cell per column of the last header.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.columns.len(), "row width != header");
        self.rows += 1;
        let at = format!("{} row {} (`{}`)", self.section, self.rows, cells[0].text);
        let mut frags = vec![fixed("| ")];
        for (cell, column) in cells.into_iter().zip(&self.columns) {
            if cell.kind == Kind::Invariant(false) {
                let msg = format!("{at}, column `{column}`: `{}` fails", cell.text);
                self.failures.push(msg);
            }
            frags.extend([cell, fixed(" | ")]);
        }
        frags.pop();
        frags.push(fixed(" |"));
        self.lines.push(frags);
    }

    /// Every invariant that did not hold, naming experiment, row and column.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Compares `committed` with this run line by line: fixed and
    /// invariant cells verbatim, varies cells by shape and held to their
    /// floors. Returns one message per line that does not match.
    pub fn check(&self, committed: &str) -> Vec<String> {
        let committed: Vec<&str> = committed.lines().collect();
        (0..self.lines.len().max(committed.len()))
            .filter_map(|i| {
                let (want, got) = (self.lines.get(i), committed.get(i));
                if want.zip(got).is_some_and(|(w, g)| matches(w, g)) {
                    return None;
                }
                Some(format!(
                    "line {}: expected `{}`, committed `{}`",
                    i + 1,
                    want.map_or("<end of run>".into(), |w| pattern(w)),
                    got.unwrap_or(&"<end of file>")
                ))
            })
            .collect()
    }
}

impl Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for frags in &self.lines {
            let line: String = frags.iter().map(|c| c.text.as_str()).collect();
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}

/// Random Boolean relation closed under an operation, for E1/E2
/// workloads.
pub fn closed_boolean_relation(
    arity: usize,
    seeds: usize,
    seed: u64,
    close: impl Fn(u64, u64, u64) -> u64,
) -> Vec<u64> {
    let mask = if arity == 64 {
        u64::MAX
    } else {
        (1u64 << arity) - 1
    };
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut tuples: Vec<u64> = (0..seeds)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & mask
        })
        .collect();
    tuples.sort_unstable();
    tuples.dedup();
    loop {
        let mut added = false;
        let snapshot = tuples.clone();
        for &a in &snapshot {
            for &b in &snapshot {
                for &c in &snapshot {
                    let t = close(a, b, c);
                    if !tuples.contains(&t) {
                        tuples.push(t);
                        added = true;
                    }
                }
            }
        }
        if !added {
            break;
        }
    }
    tuples.sort_unstable();
    tuples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_exponent_recovers_powers() {
        let quad: Vec<(f64, f64)> = (1..=6)
            .map(|n| (n as f64, 3.0 * (n as f64).powi(2)))
            .collect();
        assert!((growth_exponent(&quad) - 2.0).abs() < 1e-9);
        let lin: Vec<(f64, f64)> = (1..=6).map(|n| (n as f64, 0.5 * n as f64)).collect();
        assert!((growth_exponent(&lin) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn closed_relation_is_closed() {
        let horn = closed_boolean_relation(5, 4, 42, |a, b, _| a & b);
        for &a in &horn {
            for &b in &horn {
                assert!(horn.binary_search(&(a & b)).is_ok());
            }
        }
    }

    #[test]
    fn median_is_positive() {
        let m = median_ms(3, || (0..1000).sum::<u64>());
        assert!(m >= 0.0);
    }
}
