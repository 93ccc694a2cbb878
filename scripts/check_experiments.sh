#!/usr/bin/env bash
# Fails if the committed EXPERIMENTS.md has rotted: regenerates every
# table with the experiments binary and diffs against the committed
# copy. Every count, verdict, route, width, and B&B node count is
# seeded and deterministic; only timing cells (and E15's cpus caveat
# column) vary by machine, so those are masked on both sides before
# diffing.
set -euo pipefail
cd "$(dirname "$0")/.."

regen="$(mktemp)"
trap 'rm -f "$regen"' EXIT
cargo run -q -p cqcs-bench --release --bin experiments > "$regen"

mask() {
  sed -E 's/[0-9]+\.[0-9]+/<float>/g; s/cpus=[0-9]+/cpus=<n>/g;
          s/(ok|err|retries|reconnects|panics|respawns|accept_faults|client_retries|stale_dropped|faults)=[0-9]+/\1=<n>/g' "$1"
}
if ! diff -u <(mask EXPERIMENTS.md) <(mask "$regen"); then
  echo >&2
  echo "EXPERIMENTS.md is stale. Regenerate it with:" >&2
  echo "  cargo run -p cqcs-bench --release --bin experiments > EXPERIMENTS.md" >&2
  exit 1
fi

# The E13 cross-validation table is a correctness oracle, not just a
# benchmark: every row must agree with the DP and ship a decomposition
# that validated. Guard against a regeneration that "freshly" records a
# disagreement.
if ! grep -q '^## E13' "$regen"; then
  echo "E13 treewidth cross-validation table is missing." >&2
  exit 1
fi
e13="$(sed -n '/^## E13/,/^## E14/p' "$regen")"
if echo "$e13" | grep -qE 'INVALID|WIDTH MISMATCH'; then
  echo "E13 reports an invalid exact decomposition:" >&2
  echo "$e13" | grep -E 'INVALID|WIDTH MISMATCH' >&2
  exit 1
fi
if echo "$e13" | grep -qE '\| false \|'; then
  echo "E13 reports a DP/B&B disagreement:" >&2
  echo "$e13" | grep -E '\| false \|' >&2
  exit 1
fi

# E14 pins the session layer to the one-shot dispatcher: every row must
# report identical node counts and verdicts between the two paths.
if ! grep -q '^## E14' "$regen"; then
  echo "E14 session-reuse table is missing." >&2
  exit 1
fi
e14="$(sed -n '/^## E14/,/^## /p' "$regen")"
if echo "$e14" | grep -qE '\| false \|'; then
  echo "E14 reports a session/one-shot divergence:" >&2
  echo "$e14" | grep -E '\| false \|' >&2
  exit 1
fi

# E15 pins the parallel batch executor to the sequential batch: every
# row's `identical` column must hold (verdicts, routes, witnesses, and
# stats compared bit for bit between par_solve_batch and solve_batch).
if ! grep -q '^## E15' "$regen"; then
  echo "E15 parallel-batch table is missing." >&2
  exit 1
fi
e15="$(sed -n '/^## E15/,/^## /p' "$regen")"
if echo "$e15" | grep -qE '\| false \|'; then
  echo "E15 reports a parallel/sequential divergence:" >&2
  echo "$e15" | grep -E '\| false' >&2
  exit 1
fi

# E16 pins the propagation engine to independent oracles: every row's
# `identical` column must hold (for the ProgramPropagator with its
# arena reused and with a fresh arena, on every instance: the root
# fixpoint's verdict, domains and deletions against the from-scratch
# refine_domains_reference scan, the MRV+MAC search verdict against
# brute-force homomorphism_exists, and each witness through
# is_homomorphism).
if ! grep -q '^## E16' "$regen"; then
  echo "E16 compiled-propagation table is missing." >&2
  exit 1
fi
e16="$(sed -n '/^## E16/,/^## /p' "$regen")"
if echo "$e16" | grep -qE '\| false \|'; then
  echo "E16 reports a propagation-engine/oracle divergence:" >&2
  echo "$e16" | grep -E '\| false \|' >&2
  exit 1
fi

# E17 pins the delta-solve pipeline to from-scratch re-solves: every
# update's verdict/route/witness (hom streams) and goal/IDB fact sets
# (Datalog stream) must match a fresh solve on the post-delta
# structure. The speedup column is checked on the *committed* table
# (regenerated timings vary by machine): the whole point of the
# pipeline is that a small delta re-solves at least 3x faster per
# update than from scratch, so a committed row below 3.0x is a
# regression even if every verdict agrees.
if ! grep -q '^## E17' "$regen"; then
  echo "E17 delta-solve table is missing." >&2
  exit 1
fi
e17="$(sed -n '/^## E17/,/^## /p' "$regen")"
if echo "$e17" | grep -qE '\| false \|'; then
  echo "E17 reports a watch/from-scratch divergence:" >&2
  echo "$e17" | grep -E '\| false \|' >&2
  exit 1
fi
if ! sed -n '/^## E17/,/^## /p' EXPERIMENTS.md \
  | awk -F'|' '/^\|/ { for (i = 1; i <= NF; i++) if ($i ~ /^[[:space:]]*[0-9.]+×[[:space:]]*$/) { gsub(/[ ×]/, "", $i); if ($i + 0 < 3.0) bad = 1 } } END { exit bad }'; then
  echo "E17's committed speedup column has a row under 3.0x:" >&2
  sed -n '/^## E17/,/^## /p' EXPERIMENTS.md | grep -E '^\|.*×' >&2
  exit 1
fi

# E18 pins the network front end to in-process solves: every row's
# `identical` column must hold (networked solutions compared bit for
# bit against direct Session solves, plus per-request-kind
# conformance for register/solve/solve_batch/containment/status).
if ! grep -q '^## E18' "$regen"; then
  echo "E18 network-serving table is missing." >&2
  exit 1
fi
e18="$(sed -n '/^## E18/,/^## /p' "$regen")"
if echo "$e18" | grep -qE '\| false \|'; then
  echo "E18 reports a wire/in-process divergence:" >&2
  echo "$e18" | grep -E '\| false \|' >&2
  exit 1
fi

# E19 pins the pipelined data plane three ways: parity (every wire
# solution bit-identical to a direct Session solve — `| false |`
# fails), pooled-buffer discipline (the `buf growths` column is an
# unmasked integer, so a steady-state frame-buffer allocation shows up
# as a rot diff), and the committed depth-8 speedup: pipelining's whole
# point is amortizing per-request wire/scheduling overhead, so a
# committed depth-8 row under 1.5x over depth-1 is a regression even
# with parity green (regenerated timings vary by machine; the committed
# table is the gate, as with E17).
if ! grep -q '^## E19' "$regen"; then
  echo "E19 pipelined-serving table is missing." >&2
  exit 1
fi
e19="$(sed -n '/^## E19/,/^## /p' "$regen")"
if echo "$e19" | grep -qE '\| false \|'; then
  echo "E19 reports a pipelined wire/in-process divergence:" >&2
  echo "$e19" | grep -E '\| false \|' >&2
  exit 1
fi
if ! sed -n '/^## E19/,/^## /p' EXPERIMENTS.md \
  | awk -F'|' '/^\| 8 \|/ { for (i = 1; i <= NF; i++) if ($i ~ /^[[:space:]]*[0-9.]+×[[:space:]]*$/) { gsub(/[ ×]/, "", $i); if ($i + 0 < 1.5) bad = 1 } } END { exit bad }'; then
  echo "E19's committed depth-8 speedup is under 1.5x:" >&2
  sed -n '/^## E19/,/^## /p' EXPERIMENTS.md | grep -E '^\| 8 \|' >&2
  exit 1
fi

# E20 gates the failure model at every fault rate: `terminated` and
# `identical` must be true and `lost`/`dup` zero on every row — every
# request ends in a solution or a typed error, each is answered exactly
# once, and chaos never changes an answer, only its latency. The
# retry/respawn counters are scheduling-dependent and masked; the
# invariants are not.
if ! grep -q '^## E20' "$regen"; then
  echo "E20 chaos table is missing." >&2
  exit 1
fi
e20="$(sed -n '/^## E20/,/^## /p' "$regen")"
if echo "$e20" | grep -qE '\| false \|'; then
  echo "E20 reports a chaos invariant violation (hang, loss, duplication, or divergence):" >&2
  echo "$e20" | grep -E '\| false \|' >&2
  exit 1
fi
# Column 5 of every E20 data row is the lost+dup count (both tables are
# laid out so it lands there); any nonzero cell is a broken delivery
# contract.
if echo "$e20" | awk -F'|' '/^\| [0-9]/ { gsub(/ /, "", $5); if ($5 + 0 != 0) bad = 1 } END { exit !bad }'; then
  echo "E20 reports lost or duplicated requests under chaos:" >&2
  echo "$e20" | grep -E '^\| [0-9]' >&2
  exit 1
fi

# The timing columns are tracked across PRs in EXPERIMENTS_HISTORY.md
# (append-style, hand-maintained): it must exist and mention the newest
# experiment so a PR that adds tables cannot skip the history line.
if [ ! -s EXPERIMENTS_HISTORY.md ]; then
  echo "EXPERIMENTS_HISTORY.md is missing or empty." >&2
  exit 1
fi
newest="$(grep -oE '^## E[0-9]+' "$regen" | sed 's/^## //' | sort -V | tail -1)"
if ! grep -q "$newest" EXPERIMENTS_HISTORY.md; then
  echo "EXPERIMENTS_HISTORY.md does not track the $newest timing columns." >&2
  exit 1
fi
echo "EXPERIMENTS.md is fresh (E13 cross-validation agrees and validates; E14 session, E15 parallel, E16 engine-vs-oracle, E17 delta-solve, E18 wire, and E19 pipelined parity hold; E17 speedups >= 3x; E19 depth-8 speedup >= 1.5x with zero steady-state buffer growths; E20 chaos invariants hold: no hangs, no losses, no duplicates, no divergence)."
