#!/usr/bin/env bash
# Build everything, run the full test suite, and regenerate every
# paper table/figure plus the ablations into results/.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build -j "$(nproc)"

mkdir -p results
for bench in build/bench/*; do
    [ -f "$bench" ] && [ -x "$bench" ] || continue
    name="$(basename "$bench")"
    case "$name" in
        perf_microbench)
            echo ">>> $name"
            "$bench" --benchmark_min_time=0.2 | tee "results/$name.txt"
            ;;
        *)
            echo ">>> $name"
            "$bench" | tee "results/$name.txt"
            ;;
    esac
done

echo
echo "All claims:"
grep -h "\[claim\]" results/*.txt
