//! The `experiments --check` comparison, on a miniature of
//! `EXPERIMENTS.md`: which committed edits it accepts and which fail.

use cqcs_bench::{at_least, fixed, holds, invariant, varies, Report};

/// A miniature of `EXPERIMENTS.md` with the shapes the checker meets:
/// an E9 ratio, an E13 section, E17/E19 floors, a varies prose line.
fn sample() -> Report {
    let mut r = Report::default();
    r.section("E9");
    r.text("## E9 — Binary (dual-graph) encoding (Lemma 5.5)\n");
    r.header(&["seed", "hom(bin(A),bin(B))", "‖bin(A)‖/‖A‖ full"]);
    r.row(vec![fixed(0), holds(true), fixed("9.17")]);
    r.row(vec![fixed(1), holds(true), fixed("8.50")]);
    r.text("");
    r.section("E13");
    r.text("## E13 — Exact treewidth cross-validation\n");
    r.header(&["graph", "agree", "B&B (ms)"]);
    r.row(vec![fixed("G(14,28)"), holds(true), varies("0.075")]);
    r.text("");
    r.section("E17");
    r.text("## E17 — Delta-solve pipeline\n");
    r.header(&["workload", "speedup", "identical"]);
    r.row(vec![
        fixed("G(24,40→64)"),
        at_least(3.0, "95.77×"),
        holds(true),
    ]);
    r.line(vec![fixed("fitted DP exponent for k=1: "), varies("1.13")]);
    r.text("");
    r.section("E19");
    r.header(&["depth", "speedup"]);
    r.row(vec![fixed(1), varies("1.00×")]);
    r.row(vec![fixed(8), at_least(1.5, "3.40×")]);
    r
}

/// The problems `check` finds in the sample's own rendering after `edit`.
fn check_edited(edit: impl FnOnce(String) -> String) -> Vec<String> {
    let r = sample();
    r.check(&edit(r.to_string()))
}

#[test]
fn own_rendering_checks_clean() {
    assert!(sample().failures().is_empty());
    assert_eq!(check_edited(|s| s), Vec::<String>::new());
}

#[test]
fn varies_fragment_of_any_width_matches() {
    for t in ["7.0", "0.000001", "12345.678"] {
        let problems = check_edited(|s| {
            s.replace("| 0.075 |", &format!("| {t} |"))
                .replace("k=1: 1.13", &format!("k=1: {t}"))
        });
        assert!(problems.is_empty(), "{t}: {problems:?}");
    }
    // Only digits vary: not the cell's shape, its emptiness, or a
    // column boundary.
    for t in ["75", "n/a", "", "0.1 | 0.2"] {
        let problems = check_edited(|s| s.replace("| 0.075 |", &format!("| {t} |")));
        assert_eq!(problems.len(), 1, "{t}: {problems:?}");
        assert!(problems[0].contains("expected `| G(14,28) | true | 0.075 |`"));
    }
}

#[test]
fn changed_fixed_decimal_fails() {
    let problems = check_edited(|s| s.replace("9.17", "9.18"));
    assert_eq!(problems.len(), 1, "{problems:?}");
    assert!(problems[0].starts_with("line 5: expected `| 0 | true | 9.17 |`"));
    assert!(problems[0].ends_with("committed `| 0 | true | 9.18 |`"));
}

#[test]
fn false_invariant_fails_naming_experiment_row_and_column() {
    let mut r = sample();
    r.section("E2");
    r.header(&["class", "arity", "round-trip models == R"]);
    r.row(vec![fixed("Horn"), fixed(4), holds(true)]);
    r.row(vec![fixed("affine"), fixed(4), holds(false)]);
    r.line(vec![fixed("agree: "), invariant(false, "9/10")]);
    assert_eq!(
        r.failures(),
        [
            "E2 row 2 (`affine`), column `round-trip models == R`: `false` fails",
            "E2: `9/10` fails",
        ]
    );
    // A committed `false` where the run holds is a changed cell.
    let problems = check_edited(|s| s.replace("| 0 | true |", "| 0 | false |"));
    assert_eq!(problems.len(), 1, "{problems:?}");
}

#[test]
fn committed_speedups_under_their_floors_fail() {
    assert_eq!(check_edited(|s| s.replace("95.77×", "2.90×")).len(), 1);
    assert_eq!(check_edited(|s| s.replace("95.77×", "3.00×")).len(), 0);
    let problems = check_edited(|s| s.replace("3.40×", "1.40×"));
    assert_eq!(problems.len(), 1, "{problems:?}");
    assert!(problems[0].contains("expected `| 8 | ≥1.5 |`"));
    assert_eq!(check_edited(|s| s.replace("3.40×", "fast")).len(), 1);
    // The E19 floor binds the depth-8 row only.
    assert_eq!(check_edited(|s| s.replace("1.00×", "0.50×")).len(), 0);
}

#[test]
fn dropped_section_fails() {
    let problems = check_edited(|s| {
        let (start, end) = (s.find("## E13").unwrap(), s.find("## E17").unwrap());
        format!("{}{}", &s[..start], &s[end..])
    });
    assert!(problems[0].contains("expected `## E13"), "{problems:?}");
}

#[test]
fn extra_or_missing_row_fails() {
    let row = "| 1 | true | 8.50 |\n";
    let extra = check_edited(|s| s.replace(row, &format!("{row}| 2 | true | 9.17 |\n")));
    assert!(extra[0].starts_with("line 7: expected ``"), "{extra:?}");
    let missing = check_edited(|s| s.replace(row, ""));
    assert!(missing[0].starts_with("line 6: expected `| 1 | true | 8.50 |`"));
    // At the end of the file too.
    let trailing = check_edited(|s| format!("{s}| 9 | 1.60× |\n"));
    assert_eq!(trailing.len(), 1, "{trailing:?}");
    assert!(trailing[0].contains("expected `<end of run>`"));
    let last = check_edited(|s| s.replace("| 8 | 3.40× |\n", ""));
    assert!(last[0].ends_with("committed `<end of file>`"), "{last:?}");
}
