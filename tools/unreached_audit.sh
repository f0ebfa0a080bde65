#!/usr/bin/env bash
# Reachability audit: fails when the library defines a function that no
# shipped binary links.
#
# Builds the library, ddsim, ddtrace, the benches and the examples (no
# tests) into a temporary directory at -O0, with one section per function
# and --gc-sections, so each binary keeps only the functions it can reach.
# Every out-of-line function that a src/ archive (libdds_*.a) defines, nm
# type T, must be linked into at least one of those binaries or be listed
# in tools/unreached_allowlist.txt under a comment line giving the reason
# it is kept. The audit also fails on a stale allowlist entry: one that no
# archive defines any more, or that a binary now reaches.
#
# Usage: tools/unreached_audit.sh   (from any directory; ~2 min on 4 cores)
# Needs CMake, a C++20 compiler, Google Benchmark, nm and c++filt. Set
# CMAKE_GENERATOR (e.g. Ninja) to choose the build tool.
set -euo pipefail
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
allowlist=$root/tools/unreached_allowlist.txt
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
build=$work/build

if ! { cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=None \
         -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections" \
         -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" \
         -DDDS_BUILD_TESTS=OFF -DDDS_BUILD_BENCH=ON \
         -DDDS_BUILD_EXAMPLES=ON &&
       cmake --build "$build" -j "$(nproc)"; } >"$work/build.log" 2>&1; then
  cat "$work/build.log"
  echo "unreached_audit: build failed" >&2
  exit 2
fi

# Out-of-line functions the library archives define.
find "$build/src" -name 'libdds_*.a' -exec nm --defined-only {} + |
  awk '$2 == "T" { print $3 }' | c++filt | sort -u >"$work/defined"

# Functions linked into a shipped binary.
binaries=("$build/tools/ddsim" "$build/tools/ddtrace")
while IFS= read -r bin; do binaries+=("$bin"); done < <(
  find "$build/bench" "$build/examples" -maxdepth 1 -type f -perm -u+x |
    sort)
nm --defined-only "${binaries[@]}" |
  awk '$2 ~ /^[TtWw]$/ { print $3 }' | c++filt | sort -u >"$work/linked"

comm -23 "$work/defined" "$work/linked" >"$work/unreached"

# Allowlist entries: every line that is neither blank nor a comment. Each
# must sit right under a comment line, its reason.
if ! awk '
  /^[[:space:]]*$/ { prev = ""; next }
  /^#/ { prev = "#"; next }
  {
    if (prev != "#") {
      print "unreached_allowlist.txt:" NR ": entry without a reason comment: " $0 > "/dev/stderr"
      bad = 1
    }
    prev = "entry"
  }
  END { exit bad }' "$allowlist"; then
  exit 1
fi
sed -e '/^#/d' -e '/^[[:space:]]*$/d' -e 's/[[:space:]]*$//' "$allowlist" |
  sort -u >"$work/allowed"

status=0
comm -23 "$work/unreached" "$work/allowed" >"$work/new"
if [[ -s $work/new ]]; then
  echo "Linked into no shipped binary (delete, or allowlist with a reason):"
  sed 's/^/  /' "$work/new"
  status=1
fi
comm -13 "$work/unreached" "$work/allowed" >"$work/stale"
if [[ -s $work/stale ]]; then
  echo "Stale allowlist entries:"
  while IFS= read -r entry; do
    if grep -qxF -- "$entry" "$work/defined"; then
      echo "  now reached: $entry"
    else
      echo "  no longer defined: $entry"
    fi
  done <"$work/stale"
  status=1
fi

echo "unreached_audit: $(wc -l <"$work/defined") functions defined," \
  "$(wc -l <"$work/unreached") unreached," \
  "$(wc -l <"$work/allowed") allowlisted"
exit "$status"
