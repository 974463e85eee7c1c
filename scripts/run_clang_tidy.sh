#!/usr/bin/env bash
# Run clang-tidy (when installed) over the compile database from the
# CMake build tree, using the repo .clang-tidy profile.
#
# Usage:
#   scripts/run_clang_tidy.sh [build-dir] [file...]
#
# With no files given, tidies every .cc under src/.  Degrades
# gracefully (exit 0 with a notice) when clang-tidy is not installed,
# so the script is safe to call unconditionally from CI and hooks.

set -u

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
shift 2>/dev/null || true

tidy="$(command -v clang-tidy || true)"
if [ -z "$tidy" ]; then
    echo "run_clang_tidy: clang-tidy not found on PATH; skipping" >&2
    exit 0
fi

if [ ! -f "$build/compile_commands.json" ]; then
    echo "run_clang_tidy: no compile database; configuring with" \
         "CMAKE_EXPORT_COMPILE_COMMANDS=ON" >&2
    cmake -B "$build" -S "$repo" \
          -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null || exit 1
fi

if [ "$#" -gt 0 ]; then
    files=("$@")
else
    mapfile -t files < <(find "$repo/src" -name '*.cc' | sort)
fi

status=0
for f in "${files[@]}"; do
    case "$f" in
        *.cc|*.cpp) ;;
        *) continue ;;
    esac
    echo "tidy $f"
    "$tidy" -p "$build" --quiet "$f" || status=1
done
exit $status
