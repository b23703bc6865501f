#!/usr/bin/env bash
# Tier-1 verification for the whole workspace.
#
# Bare `cargo test -q` at the root runs only the root package's own
# integration tests and silently skips every unit and integration test
# of the member crates — always verify with `--workspace`. The quick bench pass
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

# The benchmark builds `--offline` against its own mtmbench/Cargo.lock,
# which records these crates' manifests. A workspace manifest edit that
# would make the benchmark's run rewrite that lock (dropping a normal
# dependency it lists, say) fails here, before anything is built.
echo "==> mtmbench lock file matches the workspace manifests"
cargo metadata --locked --offline --format-version 1 --manifest-path mtmbench/Cargo.toml >/dev/null \
    || fail "mtmbench/Cargo.lock would change: a workspace manifest edit reaches the benchmark's lock"

# Every target builds warning-free in release, so a deletion cannot
# leave a dead import or helper behind. Cargo replays cached warnings, so
# an incremental build is checked too.
cargo build --release --workspace --all-targets 2>&1 | tee "$tmp/build"
if grep -E '^warning' "$tmp/build"; then
    fail "warning lines from the release build, see above"
fi

# Codegen gate: every simulated access of a workload's `round` is an
# inlined copy of the fast path, with no call (DESIGN.md §5e, "A static
# access loop"). The release `all` must not call a `MemEnv::read`,
# `::write` or `::update` of `SimEnv` or of the per-tick `TickEnv`, nor
# `Gups::pick_target`, directly or through the GOT (how a crate calls
# another crate's function it cannot inline). The vtable copies behind
# the `dyn MemEnv` `tick` and `setup` paths are reached through a
# register and stay allowed. The gate also fails if it cannot find the
# `SimEnv` copies, a `TickEnv` or a `Gups` symbol, so a renamed type
# cannot pass silently.
echo "==> codegen gate (no call to SimEnv/TickEnv read/write/update or Gups::pick_target in release all)"
command -v objdump >/dev/null \
    || fail "objdump not found: the codegen gate needs it (binutils) to disassemble the release all"
all_bin="${CARGO_TARGET_DIR:-target}/release/all"
{ objdump -d -C "$all_bin" >"$tmp/all.asm" && objdump -R "$all_bin" >"$tmp/all.rel"; } \
    || fail "objdump could not read $all_bin"
calls=$(python3 - "$tmp/all.asm" "$tmp/all.rel" <<'PY'
import re, sys
asm, rel = (open(p).read() for p in sys.argv[1:3])
def symbols(name):
    return {int(a, 16) for a in re.findall(r"^([0-9a-f]+) <" + name + r">:$", asm, re.M)}
env = r"<tiersim::sim::(?:SimEnv|TickEnv) as tiersim::sim::MemEnv>::(?:read|write|update)"
copies = symbols(env)
if len(symbols(r"<tiersim::sim::SimEnv as tiersim::sim::MemEnv>::(?:read|write|update)")) < 3:
    print("no <SimEnv as MemEnv>::read/write/update symbols in the release all; update the gate's pattern")
    sys.exit(1)
for prefix in ("tiersim::sim::TickEnv", "mtm_workloads::gups::Gups"):
    if not re.search(r"^[0-9a-f]+ <" + re.escape(prefix) + r"\b", asm, re.M):
        print(f"no {prefix} symbol in the release all; update the gate's pattern")
        sys.exit(1)
copies |= symbols(r"mtm_workloads::gups::Gups::pick_target")
# A GOT slot reaches a copy when its dynamic relocation names the copy's address.
slots = {int(slot, 16) for slot, to in re.findall(
    r"^([0-9a-f]+) R_X86_64_RELATIVE +\*ABS\*\+0x([0-9a-f]+)$", rel, re.M) if int(to, 16) in copies}
direct = sum(int(to, 16) in copies for to in re.findall(r"\t(?:call|jmp) +([0-9a-f]+) <", asm))
via_got = sum(int(slot, 16) in slots for slot in re.findall(r"\tcall +\*0x[0-9a-f]+\(%rip\) +# ([0-9a-f]+)", asm))
print(direct + via_got)
PY
) || fail "codegen gate: $calls"
[ "$calls" -eq 0 ] \
    || fail "$calls calls to a SimEnv/TickEnv MemEnv access or Gups::pick_target in release all: the static access loop is no longer inlined"

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

# Admission: the admission-control sweep must not depend on MTM_JOBS
# (every cell is seeded from its own label, never from execution order),
# and must pass the sanitizer — it is the only gate where vetoed batches
# meet injected faults, so the admit_rejected counter/event books and the
# aborted, deferred and dropped migrations around them are checked here.
matrix admission results/admission.txt "MTM_JOBS=1" "MTM_JOBS=4" "MTM_CHECK=1 MTM_JOBS=4"

diff -r -x telemetry "$tmp/results" results || fail "results/ differs from the committed files, see above"

echo "verify: OK"
