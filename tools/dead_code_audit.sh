#!/usr/bin/env bash
# Dead-code audit: lists the mfhttp:: functions that the src/ libraries
# define but that no bench, example or mfbench binary links, then their count.
#
#   tools/dead_code_audit.sh [build-dir]
#
# Builds with -O0 -fno-inline and per-function sections, so every function
# keeps its own symbol and --gc-sections drops whatever a binary never
# reaches. The count depends on the compiler; compare runs of this script on
# one machine only (DESIGN.md §22 records the keep-list).
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-$(mktemp -d)}
targets="$(sed -n 's/^mfhttp_\(bench\|example\)(\([a-z0-9_]*\))$/\2/p' \
  "$root/bench/CMakeLists.txt" "$root/examples/CMakeLists.txt") mfbench"

cmake -S "$root" -B "$out" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-O0 -fno-inline -ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
# shellcheck disable=SC2086
cmake --build "$out" -j "$(nproc)" --target $targets >"$out/build.log" 2>&1 ||
  { tail -50 "$out/build.log"; exit 1; }

# Demangled names of the defined text symbols (T/t/W/w) in the given files.
text_symbols() {
  nm -C --defined-only "$@" 2>/dev/null |
    sed -n 's/^[0-9a-f]* [TtWw] //p' | grep '^mfhttp::' | sort -u
}

binaries=$(for t in $targets; do
  find "$out/bench" "$out/examples" -type f -name "$t"
done)
# shellcheck disable=SC2046
comm -23 <(text_symbols $(find "$out/src" -name '*.a')) \
  <(text_symbols $binaries) | tee "$out/dead_symbols.txt"
echo "$(wc -l <"$out/dead_symbols.txt") mfhttp:: functions linked into no binary"
