#!/bin/sh
# Line totals of the OCaml sources (.ml and .mli), per top-level
# directory plus the lib/+bin/ sum that net-lines-removed is tracked on.
#
#   scripts/loc.sh [ROOT]     ROOT defaults to the repository root
set -eu

ROOT="${1:-$(dirname "$0")/..}"
cd "$ROOT"

count() {
  find "$@" -type f \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l
}

total=0
for d in lib bin bench test; do
  n=$(count "$d")
  printf '%-10s %7d\n' "$d/" "$n"
  total=$((total + n))
done
printf '%-10s %7d\n' "lib+bin" "$(count lib bin)"
printf '%-10s %7d\n' "total" "$total"
