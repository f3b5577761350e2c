#!/usr/bin/env bash
# scripts/mutants.sh — replay the mutant catalogue in testdata/mutants.
#
#   scripts/mutants.sh [name ...]
#
# Each testdata/mutants/<name>.patch is one small deliberate bug. Its
# header, the lines before the diff, names the packages and the tests
# that must catch it:
#
#   Package: ./internal/udpemu
#   Tests: TestGetRoundTrip|TestSwitchOneFlushPerBurst
#
# Package: is a space-separated list. A bug in code that several
# packages call names each of them, and the tests run in each listed
# package on its own; the mutant counts as killed only when its named
# tests fail in every listed package, so each caller's tests must
# catch it.
#
# The script makes a git worktree at HEAD in a temporary directory and,
# for each patch (all of them, or the names given), applies it, runs the
# named tests under a timeout and reverts it. A mutant is
#   killed    when, in every listed package, a named test fails or the
#             run times out (a hang),
#   survived  when the named tests pass in some listed package,
#   stale     when the patch no longer applies to HEAD,
#   broken    when a listed package does not build.
# It prints one line per mutant and a summary, and exits non-zero unless
# every mutant was killed. Failed runs leave their test output in
# $TMPDIR only while the script runs; rerun one mutant by name to see it.
set -euo pipefail
cd "$(dirname "$0")/.."

root=$(pwd)
tmp=$(mktemp -d)
tree="$tmp/tree"
trap 'git worktree remove --force "$tree" 2>/dev/null || true; rm -rf "$tmp"' EXIT
git worktree add --quiet --detach "$tree" HEAD

if [ $# -gt 0 ]; then
    patches=()
    for name in "$@"; do patches+=("testdata/mutants/$name.patch"); done
else
    patches=(testdata/mutants/*.patch)
fi

killed=0 survived=0 stale=0 broken=0
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    pkg=$(sed -n 's/^Package: //p' "$patch" | head -n 1)
    tests=$(sed -n 's/^Tests: //p' "$patch" | head -n 1)
    if [ -z "$pkg" ] || [ -z "$tests" ]; then
        echo "stale     $name (no Package: or Tests: header)"
        stale=$((stale + 1))
        continue
    fi
    if ! git -C "$tree" apply "$root/$patch" 2>/dev/null; then
        echo "stale     $name"
        stale=$((stale + 1))
        continue
    fi
    verdict=killed reasons=
    for p in $pkg; do
        log="$tmp/$name.log"
        status=0
        (cd "$tree" && timeout 100 go test -count=1 -timeout 90s -run "^($tests)\$" "$p") >"$log" 2>&1 || status=$?
        if [ "$status" -eq 0 ]; then
            verdict=survived reasons="$p passes"
            break
        elif grep -q '\[build failed\]\|\[setup failed\]' "$log"; then
            verdict=broken reasons="$p does not build"
            break
        fi
        reason=$(grep -m 1 -- '--- FAIL\|^panic:' "$log" || true)
        [ "$status" -eq 124 ] && reason="timed out"
        reasons="${reasons:+$reasons; }${reason:-exit $status}"
    done
    printf '%-9s %s    %s\n' "$verdict" "$name" "$reasons"
    case $verdict in
    killed) killed=$((killed + 1)) ;;
    survived) survived=$((survived + 1)) ;;
    broken)
        broken=$((broken + 1))
        sed 's/^/    /' "$log" | head -n 20
        ;;
    esac
    git -C "$tree" checkout --quiet -- .
done

echo "mutants: ${#patches[@]}  killed: $killed  survived: $survived  stale: $stale  broken: $broken"
[ "$killed" -eq "${#patches[@]}" ]
