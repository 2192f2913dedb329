#!/usr/bin/env bash
# Compares the working tree's benchmarks with those of a base revision:
#
#   bash scripts/benchdiff/run.sh '<benchmark regexp>' [base revision, default HEAD~1]
#
# The base revision is checked out into a temporary git worktree, which is
# removed on every exit path. The matching benchmarks run 3 rounds at
# -benchtime 300ms, alternating which side goes first, and
# scripts/benchdiff compares each benchmark's median per side. Run it
# from the repository root; GO overrides the go command.
set -euo pipefail
pattern=$1
base=${2:-HEAD~1}
go=${GO:-go}
tmp=$(mktemp -d)
cleanup() {
	git worktree remove --force "$tmp/base" 2>/dev/null || true
	rm -rf "$tmp"
	git worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM HUP
git worktree add --quiet --detach "$tmp/base" "$base"

# bench runs the benchmarks in directory $1 and appends their output to $2.
bench() {
	echo "benchdiff: round $round, $1" >&2
	(cd "$1" && "$go" test -run '^$' -bench "$pattern" -benchtime 300ms -benchmem ./...) >>"$2"
}
for round in 1 2 3; do
	if ((round % 2)); then
		bench "$tmp/base" "$tmp/base.txt"
		bench . "$tmp/new.txt"
	else
		bench . "$tmp/new.txt"
		bench "$tmp/base" "$tmp/base.txt"
	fi
done
"$go" run ./scripts/benchjson <"$tmp/base.txt" >"$tmp/base.json"
"$go" run ./scripts/benchjson <"$tmp/new.txt" >"$tmp/new.json"
"$go" run ./scripts/benchdiff -baseline "$tmp/base.json" -new "$tmp/new.json"
