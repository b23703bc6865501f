#!/usr/bin/env bash
# Tier-1 verification for the whole workspace.
#
# Bare `cargo test -q` at the root only runs the root package's ten
# integration tests and silently skips the ~180 unit tests living in the
# member crates — always verify with `--workspace`. The quick bench pass
# catches bench bit-rot (the substrate bench compiles and runs end to
# end) without paying for real statistics.
#
# The runs below regenerate the committed results/ files in place. The
# script must leave results/ as it found it (the gitignored telemetry/
# aside): a changed, new or missing file fails it at the end.
#
# Usage: scripts/verify.sh [--no-bench]
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cp -R results "$tmp/results"
rm -rf "$tmp/results/telemetry"

fail() {
    echo "verify: FAIL ($*)"
    exit 1
}

# same <a> <b> <msg>: the two files must be byte-identical.
same() {
    cmp -s "$1" "$2" || fail "$3"
}

# smoke <bin> <out> [ENV=value ...]: runs a harness binary in quick mode
# with the given environment, stdout to <out>. Any `warning:` line on
# stderr — an ignored env override, an n/a experiment row, a failed
# result write — fails verify, as does a nonzero exit.
smoke() {
    local bin=$1 out=$2
    shift 2
    echo "==> $bin smoke (MTM_QUICK=1 $*)"
    if ! env MTM_QUICK=1 "$@" cargo run --release -q -p mtm-harness --bin "$bin" \
            >"$out" 2>"$tmp/err"; then
        cat "$tmp/err" >&2
        fail "$bin smoke run failed under $*"
    fi
    if grep -E '^warning:' "$tmp/err"; then
        fail "warning lines on $bin stderr under $*, see above"
    fi
}

# matrix <bin> <artifact> <base env> <variant env>...: smokes <bin> under
# the base environment, then under each variant, and requires every
# variant to reproduce the base's <artifact> byte for byte. The artifact
# `stdout` compares standard output (for runs that leave the committed
# results file alone).
matrix() {
    local bin=$1 art=$2 base=$3 out=/dev/null
    shift 3
    if [ "$art" = stdout ]; then
        out="$tmp/out"
        art="$tmp/out"
    fi
    # shellcheck disable=SC2086 # env lists are word-split on purpose
    smoke "$bin" "$out" $base
    cp "$art" "$tmp/base"
    for variant in "$@"; do
        # shellcheck disable=SC2086
        smoke "$bin" "$out" $variant
        same "$tmp/base" "$art" "$bin output under $variant differs from $base"
    done
}

cargo build --release --workspace
cargo test -q --workspace

# Static analysis gate: the workspace lint (crates/lint) must report zero
# findings. Textual rules D1-D4 (wall-clock, unordered maps, entropy,
# non-exhaustive error enums), D9 (env reads),
# U1 (`unsafe` without a SAFETY comment) and H1 (hermetic manifests), plus the semantic rules over the workspace call graph: D6
# determinism-taint reachability, D7 lock-order cycles, D8 panic-path
# closure, O1 obs-name audit and L1 bad-allow validation. The allowlist
# lives in lint.toml and inline `// lint:allow(...)` annotations. The
# gate consumes `--json` (machine-readable, stable field order), checks
# the seeded fixture corpus against its golden findings and the clean
# twin against zero, and holds the semantic pass to a <10s budget.
echo "==> workspace lint (bin/lint --json, fixture corpus, <10s budget)"
lint() {
    cargo run --release -q -p mtm-lint --bin lint -- "$@"
}
lint_start=$(date +%s)
lint --json >"$tmp/lint.json" || { cat "$tmp/lint.json"; fail "lint findings, see above"; }
lint_elapsed=$(( $(date +%s) - lint_start ))
python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$tmp/lint.json" 2>/dev/null \
    || { cat "$tmp/lint.json"; fail "lint --json emitted invalid JSON"; }
if lint crates/lint/fixtures/corpus >"$tmp/corpus" 2>/dev/null; then
    fail "seeded fixture corpus reported no findings"
fi
diff -u crates/lint/fixtures/corpus/expected.txt "$tmp/corpus" \
    || fail "corpus findings drifted from golden expected.txt"
lint crates/lint/fixtures/clean || fail "clean fixture twin has findings"
[ "$lint_elapsed" -lt 10 ] || fail "semantic lint took ${lint_elapsed}s, budget is <10s"

if [[ "${1:-}" != "--no-bench" ]]; then
    cargo bench -p mtm-bench --bench substrate -- --quick
fi

# The whole harness (bin/all) on 4 workers exercises the worker pool, the
# single-flight run cache and the stderr diagnostics end to end. The
# MTM_CHECK=1 variant must leave results/ALL.txt byte-identical: it arms
# the shadow-state sanitizer, so every migration commit/abort and every
# interval boundary re-verifies PTE<->frame consistency, tier occupancy
# and the obs counter/event books; a violation panics the run. The
# sanitizer is read-only.
matrix all results/ALL.txt "MTM_JOBS=4" "MTM_CHECK=1 MTM_JOBS=4"

# Telemetry: MTM_TELEMETRY=1 must emit per-run JSON under
# results/telemetry/ that parses and carries the required top-level keys
# (telemetry_check validates every file).
rm -rf results/telemetry
smoke all /dev/null MTM_TELEMETRY=1 MTM_JOBS=4
cargo run --release -q -p mtm-harness --bin telemetry_check || fail "emitted telemetry is malformed"

# Resilience: the fault-injection sweep across all managers at the
# default seed (so the overwritten results/resilience.txt matches the
# committed artifact byte for byte). Exercises the FaultPlan parser, the
# retry/abort/deferral machinery and the robustness table end to end,
# with the sanitizer armed so migration aborts are checked too.
smoke resilience /dev/null MTM_CHECK=1 MTM_JOBS=4

# Admission: the admission-control/shadow-copy sweep must not depend on
# MTM_JOBS (every cell is seeded from its own label, never from execution
# order), and must pass the sanitizer — shadow-copy retention changes the
# allocator books (used == mapped + shadow), so this is the cell where a
# broken shadow ledger would surface.
matrix admission results/admission.txt "MTM_JOBS=1" "MTM_JOBS=4" "MTM_CHECK=1 MTM_JOBS=4"

# Multi-tenant: the global-arbitration sweep restricted to 2 tenants.
# Cells and solo references are seeded from tenant/workload labels, never
# execution order; MTM_CHECK=1 adds the per-tenant quota-partition census
# at every interval boundary. With MTM_TENANTS set the bin does not touch
# the committed results/multitenant.txt, so stdout is compared.
mt="MTM_TENANTS=2"
matrix multitenant stdout "$mt MTM_JOBS=1" "$mt MTM_JOBS=4" "MTM_CHECK=1 $mt MTM_JOBS=4"

# Scenarios: the serving-generator/churn sweep at a short horizon. Cells
# are pure functions of their labels and the churn cell steps tenants
# lock-step serial. Every pass also runs the checkpoint differential:
# the bin saves the MTM/KVDrift cell mid-run, resumes it in fresh
# objects, and panics unless the resumed report is byte-identical. With
# MTM_SCENARIO_INTERVALS set the committed results/scenarios.txt is left
# alone, so stdout is compared.
sc="MTM_SCENARIO_INTERVALS=12"
matrix scenarios stdout "$sc MTM_JOBS=1" "$sc MTM_JOBS=4" "MTM_CHECK=1 $sc MTM_JOBS=4"

# Committed sweep tables: regenerate each in its committed shape; the
# results/ gate below requires it to come out byte for byte. The
# multi-tenant table is the unrestricted quick sweep; the scenario table
# is the default 120-interval run, so MTM_QUICK=0 overrides smoke's quick
# mode.
smoke multitenant /dev/null
smoke scenarios /dev/null MTM_QUICK=0

diff -r -x telemetry "$tmp/results" results || fail "results/ differs from the committed files, see above"

echo "verify: OK"
