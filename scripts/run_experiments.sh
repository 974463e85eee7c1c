#!/usr/bin/env bash
# Build everything, run the full test suite, and regenerate every
# paper table/figure plus the ablations into results/.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j"$(nproc)"
ctest --test-dir build -j "$(nproc)"

mkdir -p results
for name in $(./build/tools/vsgpu list | sed -n 's/^scenarios: //p'); do
    echo ">>> $name"
    ./build/tools/vsgpu scenario "$name" | tee "results/$name.txt"
done
echo ">>> perf_microbench"
./build/bench/perf_microbench --benchmark_min_time=0.2 |
    tee results/perf_microbench.txt

echo
echo "All claims:"
grep -h "\[claim\]" results/*.txt
