#!/bin/sh
# parent-diff.sh [REV] — the "byte-identical to the parent" check every
# CHANGES entry reports, as a command. Builds mistral-sim from REV (default
# HEAD~1, in a temporary git worktree) and from this checkout, runs both on
# four replays — 2 apps for 6 h, 4 apps under the Perf-Pwr baseline, 4 apps
# with DVFS, and 2 zones under faults with rollback and the guard — and
# compares stdout,
# stderr and the provenance JSONL. Exits non-zero if anything differs; the
# worktree is removed on every exit.
#
# A commit that is meant to move decisions says so with [decisions-change]
# in its message; CI skips this check for it.
set -eu

rev=${1:-HEAD~1}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$tmp/parent" >/dev/null 2>&1 || true
	git -C "$root" worktree prune
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 1' INT TERM

git -C "$root" worktree add --detach "$tmp/parent" "$rev" >/dev/null
(cd "$tmp/parent" && go build -o "$tmp/sim.parent" ./cmd/mistral-sim)
(cd "$root" && go build -o "$tmp/sim.change" ./cmd/mistral-sim)

status=0
n=0
while read -r flags; do
	n=$((n + 1))
	for side in parent change; do
		# Each side runs in its own directory so the provenance path that
		# stderr echoes is the same on both.
		mkdir -p "$tmp/out.$side/$n"
		# $flags is split on purpose.
		# shellcheck disable=SC2086
		(cd "$tmp/out.$side/$n" && "$tmp/sim.$side" $flags -provenance prov.jsonl >stdout 2>stderr)
	done
	verdict="identical to"
	for f in stdout stderr prov.jsonl; do
		if ! cmp "$tmp/out.parent/$n/$f" "$tmp/out.change/$n/$f" >&2; then
			verdict="DIFFERS from"
			status=1
		fi
	done
	echo "parent-diff: mistral-sim $flags: $verdict $rev"
done <<'INVOCATIONS'
-apps 2 -duration 6h
-apps 4 -strategy perf-pwr
-apps 4 -dvfs
-zones 2 -fault-rate 0.3 -exec-policy rollback -guard
INVOCATIONS
exit $status
