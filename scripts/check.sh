#!/usr/bin/env bash
# Repo health check: configure + build + run the full test suite, optionally
# under ASan/UBSan or TSan, plus the point-lookup bench as a smoke test.
#
# Usage:
#   scripts/check.sh            # release build + ctest + bench/scenario smoke
#                               # + scenario fingerprint gate
#   scripts/check.sh --asan     # ASan+UBSan build + ctest
#   scripts/check.sh --tsan     # TSan build + storage/kv suites
#   scripts/check.sh --full     # default path + full-mode scenario snapshots
#                               # (BENCH_<scenario>.json into the repo root)
#   scripts/check.sh --all      # release, asan, tsan in sequence
#
# Every stage of the chosen path runs even when an earlier one fails; the
# run ends with the list of failed stages and exits non-zero if there is
# any. Stages that need a build which failed are listed as not run.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${ROOT}"

JOBS="$(nproc 2>/dev/null || echo 4)"

build_preset() {
  local preset="$1"
  echo "==> configure (${preset})"
  cmake --preset "${preset}" >/dev/null
  echo "==> build (${preset})"
  cmake --build --preset "${preset}" -j "${JOBS}"
}

test_preset() {
  local preset="$1"
  echo "==> test (${preset})"
  ctest --preset "${preset}" -j "${JOBS}"
}

FAILED=()
BROKEN_BUILDS=" "

# stage <name> <preset> <command...>: runs the command in a subshell with
# errexit on, so a failing command (or an `exit 1`) ends only this stage,
# and records the stage if it fails. A stage whose preset's build failed is
# recorded as not run: its binaries would be stale or missing.
stage() {
  local name="$1" preset="$2"
  shift 2
  if [[ "${BROKEN_BUILDS}" == *" ${preset} "* ]]; then
    echo "==> ${name}: not run, the ${preset} build failed" >&2
    FAILED+=("${name} (not run)")
    return
  fi
  local rc
  set +e
  (set -e; "$@")
  rc=$?
  set -e
  if [[ "${rc}" -ne 0 ]]; then
    echo "==> ${name}: FAILED (exit ${rc})" >&2
    FAILED+=("${name}")
    if [[ "$1" == build_preset ]]; then BROKEN_BUILDS+="${preset} "; fi
  fi
}

release_stages() {
  stage "build (release)" release build_preset release
  stage "test (release)" release test_preset release
  stage "bench smoke" release bench_smoke
  stage "chaos smoke" release chaos_smoke
  stage "partition-chaos smoke" release netfault_smoke
  stage "range-storm smoke" release rangestorm_smoke
  stage "scenario smoke" release scenario_smoke
  stage "fingerprint gate" release fingerprint_gate
}

sanitizer_stages() {
  local preset="$1"
  stage "build (${preset})" "${preset}" build_preset "${preset}"
  stage "test (${preset})" "${preset}" test_preset "${preset}"
}

# Runs the point-lookup, write-path, and SQL-exec benches end to end and
# asserts each completed (exit 0 enforces their internal speedup gates:
# >= 2x for the KV benches, >= 5x vectorized on q1_lite) and emitted
# parseable JSON.
bench_smoke() {
  echo "==> bench smoke (bench_point_lookup)"
  local out="build/bench-smoke"
  mkdir -p "${out}"
  (cd "${out}" && ../bench/bench_point_lookup)
  local json="${out}/BENCH_point_lookup.json"
  [[ -s "${json}" ]] || { echo "missing ${json}" >&2; exit 1; }
  if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "${json}"
  else
    grep -q '"uniform_cold_speedup"' "${json}"
  fi
  echo "==> bench smoke (bench_write_path)"
  (cd "${out}" && ../bench/bench_write_path)
  json="${out}/BENCH_write_path.json"
  [[ -s "${json}" ]] || { echo "missing ${json}" >&2; exit 1; }
  if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "${json}"
  else
    grep -q '"multi_writer_speedup"' "${json}"
  fi
  echo "==> bench smoke (bench_txn_throughput)"
  (cd "${out}" && ../bench/bench_txn_throughput)  # exit 0 enforces the >= 3x gate
  json="${out}/BENCH_txn_throughput.json"
  [[ -s "${json}" ]] || { echo "missing ${json}" >&2; exit 1; }
  if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "${json}"
  else
    grep -q '"uncontended_speedup_8t"' "${json}"
  fi
  echo "==> bench smoke (bench_sql_exec)"
  (cd "${out}" && ../bench/bench_sql_exec)  # exit 0 enforces the >= 5x gate
  json="${out}/BENCH_sql_exec.json"
  [[ -s "${json}" ]] || { echo "missing ${json}" >&2; exit 1; }
  if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "${json}"
  else
    grep -q '"q1_lite_speedup"' "${json}"
  fi
  echo "bench smoke OK"
}

# Chaos smoke: the seeded crash-injection harness (fault-labeled suite) at a
# fixed seed with a bounded iteration count, so every check.sh run exercises
# crash recovery end to end without depending on the suite's default scale.
chaos_smoke() {
  echo "==> chaos smoke (fault suite, fixed seed)"
  VELOCE_CHAOS_SEED=0xC4A05 VELOCE_CHAOS_ITERS=200 \
    ctest --test-dir build -L '^fault$' --output-on-failure -j "${JOBS}"
  echo "chaos smoke OK"
}

# Partition-chaos smoke: the netfault suite (ReplicaTransport seam, seeded
# FaultyMesh, epoch leases, replica catch-up, linearizability checker) with
# the seeded partition-chaos harness pinned to a fixed seed and a bounded
# iteration count.
netfault_smoke() {
  echo "==> partition-chaos smoke (netfault suite, fixed seed)"
  VELOCE_NETFAULT_SEED=0x9E7F VELOCE_NETFAULT_ITERS=100 \
    ctest --test-dir build -L '^netfault$' --output-on-failure -j "${JOBS}"
  echo "partition-chaos smoke OK"
}

# Range-storm smoke: the rangestorm-labeled suite (load splits, cooldown
# merges, directory cache, pipelined moves) at a fixed seed with a bounded
# seed sweep, so the composed split/merge/rebalance invariants run on every
# check.sh pass without the suite's default 100-seed scale.
rangestorm_smoke() {
  echo "==> range-storm smoke (rangestorm suite, fixed seed)"
  VELOCE_RANGESTORM_SEEDS=20 VELOCE_RANGESTORM_ITERS=8 \
    ctest --test-dir build -L '^rangestorm$' --output-on-failure -j "${JOBS}"
  echo "range-storm smoke OK"
}

# Scenario smoke: all six built-in "cluster weather" scenarios at a fixed
# seed in fast mode (compressed timelines), each asserting its invariants
# and emitting a parseable BENCH_<scenario>.json; plus the scenario-labeled
# test suite (determinism + snapshot schema).
scenario_smoke() {
  echo "==> scenario smoke (all scenarios, fixed seed, fast mode)"
  local out="build/bench-smoke"
  mkdir -p "${out}"
  ./build/bench/bench_scenarios --fast --seed=0xC10D --out="${out}"
  local name
  for name in black-friday tenant-stampede az-outage rolling-upgrade-under-chaos gray-partition range-storm; do
    local json="${out}/BENCH_${name}.json"
    [[ -s "${json}" ]] || { echo "missing ${json}" >&2; exit 1; }
    if command -v python3 >/dev/null 2>&1; then
      python3 -c "import json,sys; json.load(open(sys.argv[1]))" "${json}"
    else
      grep -q '"passed":true' "${json}"
    fi
  done
  ctest --test-dir build -L '^scenario$' --output-on-failure -j "${JOBS}"
  echo "scenario smoke OK"
}

# Fingerprint gate: a change must reproduce the committed root
# BENCH_<scenario>.json event-log fingerprints byte for byte. Runs the
# full-mode scenarios at the default seed (about a second) into a temp dir
# and compares each fingerprint with the committed one; the root files are
# never written here. Extra arguments go to bench_scenarios.
fingerprint_gate() {
  echo "==> scenario fingerprint gate (full mode vs committed BENCH_*.json)"
  local tmp
  tmp="$(mktemp -d)"
  ./build/bench/bench_scenarios --out="${tmp}" "$@" >/dev/null ||
    { rm -rf "${tmp}"; echo "bench_scenarios failed" >&2; exit 1; }
  local name want got failed=0
  local pattern='"event_log_fingerprint":-\{0,1\}[0-9]*'
  for name in black-friday tenant-stampede az-outage rolling-upgrade-under-chaos gray-partition range-storm; do
    want="$(grep -o "${pattern}" "${ROOT}/BENCH_${name}.json" || true)"
    got="$(grep -o "${pattern}" "${tmp}/BENCH_${name}.json" || true)"
    if [[ -z "${want}" || "${want}" != "${got}" ]]; then
      echo "fingerprint mismatch for ${name}: committed ${want#*:}, this build ${got#*:}" >&2
      failed=1
    fi
  done
  rm -rf "${tmp}"
  [[ "${failed}" -eq 0 ]] || exit 1
  echo "scenario fingerprints OK"
}

# Full scenario run: uncompressed timelines at the default seed, snapshots
# committed-to-repo-root BENCH_<scenario>.json (the trajectory artifacts).
scenario_full() {
  echo "==> scenario full run (default seed, repo root snapshots)"
  ./build/bench/bench_scenarios --out="${ROOT}"
  echo "scenario full OK"
}

# Range-storm scale bench: 10k tenants / >= 100k ranges through the full
# split/merge/move/directory data plane. Exit 0 enforces the bench's
# internal gates (peak >= 100k ranges, load splits and merges fire,
# wall-clock p99 bound). Unlike the scenario snapshots this one carries
# wall-clock timings, so it stays in build/bench-smoke, not the repo root.
rangestorm_full() {
  echo "==> range-storm scale bench (10k tenants)"
  local out="build/bench-smoke"
  mkdir -p "${out}"
  (cd "${out}" && ../bench/bench_range_storm)
  local json="${out}/BENCH_range_storm_scale.json"
  [[ -s "${json}" ]] || { echo "missing ${json}" >&2; exit 1; }
  if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "${json}"
  else
    grep -q '"passed":true' "${json}"
  fi
  echo "range-storm scale OK"
}

case "${1:-}" in
  "")     release_stages ;;
  --asan) sanitizer_stages asan ;;
  --tsan) sanitizer_stages tsan ;;
  --full) release_stages
          stage "scenario full run" release scenario_full
          stage "range-storm scale bench" release rangestorm_full ;;
  --all)  release_stages; sanitizer_stages asan; sanitizer_stages tsan ;;
  *)      echo "usage: scripts/check.sh [--asan|--tsan|--full|--all]" >&2; exit 2 ;;
esac

if [[ "${#FAILED[@]}" -gt 0 ]]; then
  echo "FAILED stages:" >&2
  printf '  %s\n' "${FAILED[@]}" >&2
  exit 1
fi
echo "OK"
