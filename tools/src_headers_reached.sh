#!/bin/sh
# Reachability gate: every header under src/ must be included by
# something other than the tests and its own .cc, i.e. by another
# src/ file, a bench, an example, a tool or perfbench. A header only
# the tests reach is a module no path runs; delete it with its tests.
#
# Run from the repository root: sh tools/src_headers_reached.sh
set -eu

# Headers kept anyway, one per line: the header, then the reason.
# An entry whose header is reached (or gone) is stale and fails too.
exceptions='base/stats.hh serial reference the obs metric-handle tests compare against'

reached() {
    grep -rlF --include='*.hh' --include='*.cc' --include='*.cpp' \
        "#include \"$1\"" src bench examples tools perfbench |
        grep -vxF "src/${1%.hh}.cc" | grep -q .
}

status=0
for header in $(cd src && find . -name '*.hh' | sed 's|^\./||' | sort); do
    if ! reached "$header" &&
        ! printf '%s\n' "$exceptions" | grep -q "^$header "; then
        echo "src/$header: included only by tests and its own .cc"
        status=1
    fi
done
for header in $(printf '%s\n' "$exceptions" | cut -d' ' -f1); do
    if [ ! -f "src/$header" ] || reached "$header"; then
        echo "src/$header: stale exception (reached now, or gone)"
        status=1
    fi
done
exit $status
