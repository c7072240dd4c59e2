#!/usr/bin/env bash
# Tier-1 verification plus the hermeticity guard.
#
# The workspace is zero-dependency by design (see crates/util): every crate
# depends only on path = ... workspace members and std, so a clean checkout
# builds fully offline. This script fails if
#   1. any Cargo.toml (the benchmark's included) grows a non-path (registry)
#      dependency,
#   2. the offline release build, the test suite, clippy or the benchmark's
#      own tests fail,
#   3. a required invariant suite did not run in full, or
#   4. a committed result no longer regenerates bit-identically, or no
#      figure binary writes it.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== hermeticity guard: no registry dependencies =="
# A registry dependency line looks like `name = "1.2"` or
# `name = { version = "1", ... }`. Package-metadata keys (version, edition,
# rust-version, resolver) are the only legitimate `key = "literal"` lines.
violations=$(grep -nE '^[[:space:]]*[A-Za-z0-9_-]+[[:space:]]*=[[:space:]]*("[0-9^~<>=*]|\{[^}]*\bversion\b)' \
    Cargo.toml crates/*/Cargo.toml perfbench/Cargo.toml \
    | grep -vE ':[0-9]+:[[:space:]]*(version|edition|rust-version|resolver)[[:space:]]*=' \
    || true)
if [[ -n "$violations" ]]; then
    echo "ERROR: non-path dependencies found (the workspace must stay hermetic):" >&2
    echo "$violations" >&2
    exit 1
fi
# Dotted dependency sections (`[dependencies.foo]` + `version = ...`) would
# slip past the line-based check above because `version` is an allowed key;
# the workspace uses none, so reject the section form outright.
if grep -nE '^\[[A-Za-z-]*dependencies\.' Cargo.toml crates/*/Cargo.toml perfbench/Cargo.toml; then
    echo "ERROR: dotted dependency section found; use inline path/workspace deps." >&2
    exit 1
fi
# Belt and braces: the historical external crates must never reappear.
if grep -nE '^[^#]*\b(rand|proptest|criterion|crossbeam|parking_lot|bytes|serde)[[:space:]]*=' \
    Cargo.toml crates/*/Cargo.toml perfbench/Cargo.toml; then
    echo "ERROR: external crate dependency reintroduced." >&2
    exit 1
fi
echo "ok"

echo "== offline release build =="
cargo build --release --offline --workspace

# Invariant suites the workspace test pass must run in full, as
# `<crate>:<suite>` (an integration-test file stem, or `lib` for a crate's
# unit tests). Each must report at least one passed test and none filtered
# out, so a skipped or filtered suite fails loudly.
required_suites=(
    # The knob matrix (DESIGN.md §8, §10–§12, §15): one program generator,
    # one reference model and one golden table. Dormant knobs (tracing
    # level, zero-rate fault plane, u64::MAX budget, host thread,
    # TERAHEAP_BENCH_THREADS) leave the full report bit-identical;
    # gc_threads reshapes time only; finite budgets reach the same heap;
    # full-level event streams are well-nested.
    teraheap_runtime:gc_equivalence
    # Bulk access plane (§9): touch_run is bit-identical to the
    # word-at-a-time loop — same ns, same counters, same events.
    teraheap_storage:bulk_equivalence
    # Fault plane (§10): crash-consistency sweep at every write-back
    # boundary, recovery properties, degraded mode.
    teraheap_storage:crash_consistency
    teraheap_runtime:fault_recovery
    # Shared devices (§13): the server plane and cross-tenant fault
    # isolation.
    teraheap_server:lib
    teraheap_runtime:fault_isolation
    # Adaptive placement (§14): lifetime-profile and cost-model properties.
    teraheap_core:properties
    mini_spark:placement_properties
    # Query plane (§15): oracle properties, endurance churn.
    teraheap_query:query_properties
    teraheap_query:endurance
)

echo "== offline tests =="
test_log=$(mktemp)
trap 'rm -f "$test_log"' EXIT
cargo test --offline --workspace -- --quiet 2>&1 | tee "$test_log"

echo "== required suites ran in full =="
# One line per test binary: `<crate>:<suite> <passed> <filtered>`.
ran=$(awk '
    /^ *Running unittests src\/lib\.rs / {
        crate = $0; sub(/.*deps\//, "", crate); sub(/-[0-9a-f]+\)$/, "", crate)
        suite = crate ":lib"; next
    }
    /^ *Running tests\// {
        name = $2; sub(/^tests\//, "", name); sub(/\.rs$/, "", name)
        suite = crate ":" name; next
    }
    /^ *(Running|Doc-tests) / { suite = ""; next }
    /^test result:/ && suite != "" { print suite, $4, $12; suite = "" }
' "$test_log")
missing=0
for s in "${required_suites[@]}"; do
    got=$(awk -v s="$s" '$1 == s' <<<"$ran")
    if [[ $(wc -l <<<"$got") -ne 1 ]] || ! awk '{ exit !($2 >= 1 && $3 == 0) }' <<<"$got"; then
        echo "ERROR: suite $s did not run in full: '${got:-not run}' (want one run, >= 1 passed, 0 filtered)" >&2
        missing=1
    fi
done
[[ $missing -eq 0 ]] || exit 1
echo "ok: ${#required_suites[@]} suites"

echo "== lints: clippy -D warnings =="
cargo clippy -q --offline --workspace --all-targets -- -D warnings
echo "ok"

# The benchmark is a package of its own (perfbench/), outside the
# workspace: build and test it so a runtime API change that breaks it fails
# here.
echo "== benchmark tests =="
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
echo "ok"

# Faults smoke stage: one seeded chaos run per device profile (NVMe page
# cache, Optane NVM, DRAM-DAX), injected through the production
# TERAHEAP_FAULTS path with the full-heap checker armed at every GC
# boundary. The fixed seed keeps the stage replayable bit-for-bit.
echo "== faults smoke: seeded chaos per device profile =="
chaos="seed=20260806,read_err_ppm=20000,write_err_ppm=20000,max_retries=4,backoff_ns=50000,spike_every=512,spike_len=32,spike_mult=8"
for profile in nvme nvm dax; do
    echo "  chaos profile: $profile"
    TERAHEAP_FAULTS="$chaos" TERAHEAP_HEAP_CHECK=1 \
        cargo test -q --offline -p teraheap-runtime --test fault_recovery \
        "chaos_smoke_${profile}" >/dev/null
done
echo "ok"

# Simulated-determinism guard: every committed result must regenerate
# bit-identically. Simulated time is a pure function of the cost model and
# the deterministic workloads, so any diff here means a change quietly
# altered experiment results. Every figure binary (each
# crates/bench/src/bin/*.rs except micro) regenerates into an emptied
# results/, so a committed file that no binary writes shows up in the diff
# too. microbench.csv is kept and not diffed (it records real wall-clock
# times). The committed directory is restored on exit. Skip with
# VERIFY_SKIP_RESULTS=1 for a quick check.
if [[ "${VERIFY_SKIP_RESULTS:-0}" != "1" ]]; then
    echo "== results determinism: regenerate into an empty results/ and diff =="
    tmp=$(mktemp -d)
    cp -r results "$tmp/committed"
    trap 'rm -rf results; mv "$tmp/committed" results; rm -rf "$tmp" "$test_log"' EXIT
    find results -mindepth 1 ! -name microbench.csv -delete
    for src in crates/bench/src/bin/*.rs; do
        bin=$(basename "$src" .rs)
        [[ "$bin" == micro ]] && continue
        echo "  regenerating: $bin"
        cargo run -q --release --offline -p teraheap-bench --bin "$bin" >/dev/null
    done
    if ! diff -rq -x microbench.csv "$tmp/committed" results; then
        echo "ERROR: regenerated results differ from the committed ones." >&2
        echo "Simulated time must be deterministic; if the change is an" >&2
        echo "intentional cost-model/bug fix, rerun the affected binaries," >&2
        echo "re-commit their results and say so in the PR (see" >&2
        echo "crates/runtime/tests/gc_equivalence.rs). A file that is only in" >&2
        echo "the committed results is written by no binary." >&2
        exit 1
    fi
    echo "ok"
fi

echo "verify: all checks passed"
