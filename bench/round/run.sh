#!/usr/bin/env bash
# Builds bench_round from source into .bench_build/round (Release) and runs
# it with the given arguments. Run from the repository root:
#
#   bash bench/round/run.sh --workload train_mlp --seed 42 --seconds 15 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the benchmark's
# JSON result. Fails (nonzero, no result) when the library sources are absent.
set -euo pipefail

src=bench/round
build=.bench_build/round
generator=()
if [[ ! -f "$build/CMakeCache.txt" ]] && command -v ninja >/dev/null 2>&1; then
  generator=(-G Ninja)
fi
# Configured on every run (a no-op once it has succeeded), so a failed first
# configure is retried rather than left behind.
cmake -S "$src" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target bench_round -j 4 >&2
exec "$build/bench_round" "$@"
