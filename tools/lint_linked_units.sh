#!/bin/sh
# lib/ is what the production executables link.  Every compilation unit
# built under lib/ must reach at least one of them, as a camlDc_<lib>__<Unit>
# data symbol in its native build, unless linked_units.allow (beside this
# script) names it with a reason.  An allowlist entry must name a unit that
# is built under lib/ and is not linked, so a stale entry fails too.  Units
# cannot show submodules, so lib/ must also define no module named
# Reference or Naive: oracles live in test/oracle.
#
# Usage, from the repository root after `dune build`:
#   sh tools/lint_linked_units.sh [BUILD_DIR]    (default _build/default)
set -eu
build=${1:-_build/default}
allow=$(dirname "$0")/linked_units.allow
exes="bin/datacite_server.exe bin/datacite_cli.exe bin/datacite_repl.exe
perfbench/tool/pbtool.exe"

linked=$(for exe in $exes; do nm "$build/$exe"; done |
  awk '$2 == "D" && $3 ~ /^camlDc_[a-z0-9_]+__[A-Z][A-Za-z0-9_]*$/ { print $3 }' |
  sort -u)
units=$(find "$build/lib" -name 'dc_*__*.cmx' |
  sed -E 's|.*/dc_([a-z0-9_]+)__([A-Za-z0-9_]+)\.cmx$|camlDc_\1__\2|' | sort -u)
unlinked=$(printf '%s\n' "$units" | grep -vxF -e "$linked" || true)
echo "$(printf '%s\n' "$units" | grep -cxF -e "$linked") of $(printf '%s\n' "$units" | grep -c .) lib/ units linked"
status=0
for unit in $unlinked; do
  reason=$(sed -nE "s/^$unit[[:space:]]+# *(.*)$/\1/p" "$allow")
  if [ -n "$reason" ]; then
    echo "unlinked, allowed: $unit ($reason)"
  else
    echo "unlinked: $unit (move it out of lib/, or allow it in $allow with a reason)"
    status=1
  fi
done
for unit in $(sed -nE 's/^(camlDc_[A-Za-z0-9_]+).*$/\1/p' "$allow"); do
  if ! printf '%s\n' "$units" | grep -qxF "$unit"; then
    echo "stale allowlist entry: $unit is not built under lib/ (remove it from $allow)"
    status=1
  elif ! printf '%s\n' "$unlinked" | grep -qxF "$unit"; then
    echo "stale allowlist entry: $unit is linked (remove it from $allow)"
    status=1
  fi
done
if grep -rnE '^ *module +(Reference|Naive)\b' --include='*.ml' --include='*.mli' lib
then
  echo "oracle module defined in lib/ (see above); oracles live in test/oracle"
  status=1
fi
exit $status
