#!/usr/bin/env bash
# Builds xsbench from this checkout and runs one workload:
#
#   bash bench/xsbench/run.sh --workload serve-hot --seed 1 --seconds 10 \
#       --trace 0
#
# Run it from the repository root. The build, sketch files and traces go
# under ${CARGO_TARGET_DIR:-.bench_build}/xsbench (relative paths are taken
# from the repository root); build output goes to stderr, so the result
# object is the last line of stdout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
build="$target/xsbench"
mkdir -p "$build/tmp" "$build/out"
# Compiler temporaries stay inside the checkout too.
export TMPDIR="$build/tmp"

jobs="$(nproc 2>/dev/null || echo 1)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi

{
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build" --target xsbench -j "$jobs"
} >&2

exec "$build/xsbench" run --out "$build/out" "$@"
