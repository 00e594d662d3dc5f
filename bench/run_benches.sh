#!/usr/bin/env bash
# Runs the google-benchmark studies and records machine-readable results
# at the repo root (BENCH_<study>.json), so the perf trajectory is
# tracked across changes. Each result's context block is stamped with
# the build type, the host CPU count and the study's own argument legend.
#
# Usage:
#   bench/run_benches.sh                     # every study in the table
#   bench/run_benches.sh crypto recovery     # only the named studies
#   BENCH_FILTER='BM_ModPow.*' bench/run_benches.sh crypto
#   BENCH_REPS=5 bench/run_benches.sh        # --benchmark_repetitions
#   BENCH_OUT_DIR=/tmp/x bench/run_benches.sh  # write results elsewhere
#   BENCH_ALLOW_DEBUG=1 bench/run_benches.sh   # permit non-Release builds
#   BUILD_DIR=out bench/run_benches.sh
#
# A study whose binary is missing, fails, or writes nothing (a filter
# matching no benchmark) leaves its result file untouched, and the
# script exits 1 after running the rest.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
OUT_DIR="$(cd "${BENCH_OUT_DIR:-$ROOT}" && pwd)"

# name        binary           result file             default filter
STUDIES=(
  "crypto     bench_crypto     BENCH_crypto.json       .*"
  "faults     bench_faults     BENCH_faults.json       .*"
  "byzantine  bench_byzantine  BENCH_byzantine.json    .*"
  "recovery   bench_recovery   BENCH_recovery.json     .*"
  "parallel   bench_parallel   BENCH_symmetric.json    .*"
  "commit     bench_commit     BENCH_commit.json       .*"
  "overload   bench_overload   BENCH_overload.json     .*"
  "state      bench_state      BENCH_state.json        .*"
  "net        bench_net        BENCH_net.json          .*"
  "scale      bench_scale      BENCH_scale.json        .*"
)

# Numbers from unoptimized builds are not comparable across changes and
# have repeatedly confused the perf trajectory. Refuse anything but
# Release unless explicitly overridden — and then stamp the build type
# into every context block so a debug artifact can never masquerade as a
# datapoint.
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD/CMakeCache.txt" 2>/dev/null || true)"
if [[ "$BUILD_TYPE" != "Release" ]]; then
  if [[ -z "${BENCH_ALLOW_DEBUG:-}" ]]; then
    echo "refusing to benchmark a '${BUILD_TYPE:-unknown}' build; configure with" >&2
    echo "  cmake -B \"$BUILD\" -S \"$ROOT\" -DCMAKE_BUILD_TYPE=Release" >&2
    echo "or set BENCH_ALLOW_DEBUG=1 to record (clearly stamped) debug numbers" >&2
    exit 1
  fi
  echo "WARNING: benchmarking a '${BUILD_TYPE:-unknown}' build; results will be" >&2
  echo "WARNING: stamped build_type=${BUILD_TYPE:-unknown} and are NOT comparable" >&2
fi

# Reject unknown study names before running anything.
NAMES=()
for row in "${STUDIES[@]}"; do
  read -r name _ <<<"$row"
  NAMES+=("$name")
done
for want in "$@"; do
  if [[ " ${NAMES[*]} " != *" $want "* ]]; then
    echo "unknown study '$want'; known: ${NAMES[*]}" >&2
    exit 1
  fi
done

# Write each study to a temp file first: a filter matching nothing makes
# the bench binary emit an empty file with exit 0, which must not clobber
# the committed result.
TMP=""
trap 'rm -f "$TMP"' EXIT
status=0
for row in "${STUDIES[@]}"; do
  read -r name binary result filter <<<"$row"
  if [[ $# -gt 0 && " $* " != *" $name "* ]]; then
    continue
  fi
  out="$OUT_DIR/$result"
  if [[ ! -x "$BUILD/bench/$binary" ]]; then
    echo "$binary not built; run: cmake --build \"$BUILD\" -j" >&2
    status=1
    continue
  fi
  TMP="$(mktemp "$out.XXXXXX")"
  # Run from the build directory so the recorded executable path is
  # relative, not this host's.
  if ! (cd "$BUILD" && "./bench/$binary" \
      --benchmark_filter="${BENCH_FILTER:-$filter}" \
      --benchmark_out="$TMP" \
      --benchmark_out_format=json \
      --benchmark_repetitions="${BENCH_REPS:-1}"); then
    echo "$binary failed; $out left untouched" >&2
    rm -f "$TMP"
    status=1
    continue
  fi
  if [[ ! -s "$TMP" ]]; then
    echo "$binary produced no output; $out left untouched" >&2
    rm -f "$TMP"
    status=1
    continue
  fi
  python3 - "$TMP" "$binary" "${BUILD_TYPE:-unknown}" <<'PY'
import json, os, sys
path, binary, build_type = sys.argv[1:]
with open(path) as f:
    data = json.load(f)
ctx = data["context"]
ctx["build_type"] = build_type
ctx["host_cpus"] = os.cpu_count()
modes = {"0": "Trusting", "1": "Validate", "2": "Detect"}
names = {b.get("name", "") for b in data.get("benchmarks", [])}
ctx.update({
    # The seed's square-and-multiply took 102.8 ms for BM_ModPow_2048.
    "bench_crypto": {"seed_baseline_ms": {"BM_ModPow_2048": 102.8}},
    "bench_byzantine": {"validation_modes": modes},
    "bench_recovery": {
        "snapshots_args": {"0": "full replay", "1": "checkpoint + delta"}},
    # The aesni/sha_ni rows register conditionally on CPUID.
    "bench_parallel": {
        "aesni_available": any("aesni" in n for n in names),
        "shani_available": any("sha_ni" in n for n in names)},
    # The serial Validate-mode commit path ran at ~9k commits/s before
    # batching; the batch>=32, 8-thread Validate rows are the >=5x target.
    "bench_commit": {
        "validation_modes": modes,
        "batch_verify_kernel_args":
            "items, batched (0 per-item verify, 1 BatchVerifier), "
            "group (0 test_group 512/160, 1 default_group 1024/256)",
        "seed_baseline_commits_per_s": {"fabric_validate_serial": 9000}},
    "bench_overload": {
        "offered_mult_encoding":
            "benchmark arg / 10 = multiple of measured saturation rate"},
    "bench_state": {
        "writes_per_block": 64,
        "claim": "BM_TrieRootUpdate flat within 2x from 1e4 to 1e6 accounts; "
                 "BM_LegacyFullRehash linear; BM_DeltaRejoinBytes ~O(touched keys)"},
    "bench_net": {
        "backend_args": {
            "0": "sim", "1": "tcp", "2": "tcp + uniform(0.1) socket faults"},
        "throughput_args": "backend, payload_bytes, link_pairs"},
    "bench_scale": {
        "goodput_args": "users_exponent, shard_count, cross_pct",
        "loss_args": "loss_pct (1e5 users, 4 shards, 30% cross)"},
}.get(binary, {}))
with open(path, "w") as f:
    json.dump(data, f, indent=2)
PY
  mv "$TMP" "$out"
  TMP=""
  echo "wrote $out"
done
exit "$status"
