#!/bin/sh
# parent-diff.sh [REV] — the "byte-identical to the parent" check every
# CHANGES entry reports, as a command. Builds mistral-sim from REV (default
# HEAD~1, in a temporary git worktree) and from this checkout, runs both on
# four replays — 2 apps for 6 h, 4 apps under the Perf-Pwr baseline, 4 apps
# with DVFS, and 2 zones under faults with rollback and the guard — and
# compares stdout, stderr and the provenance JSONL. Then the checkpoint
# path: each side writes a 1 h checkpoint, the two files must be the same
# bytes, and each side resumes the other side's file to 2 h with the same
# stdout and stderr. Exits non-zero if anything differs; the worktree is
# removed on every exit.
#
# A commit that is meant to change any of these bytes — decisions, output,
# provenance or the checkpoint format — says so with [decisions-change] in
# its message; CI skips this check for it.
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
# compare DIR LABEL FILE...: cmp each FILE between the two sides' runs in
# out.parent/DIR and out.change/DIR, and report the verdict under LABEL.
compare() {
	dir=$1 label=$2
	shift 2
	verdict="identical to"
	for f in "$@"; do
		if ! cmp "$tmp/out.parent/$dir/$f" "$tmp/out.change/$dir/$f" >&2; then
			verdict="DIFFERS from"
			status=1
		fi
	done
	echo "parent-diff: $label: $verdict $rev"
}

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
	compare "$n" "mistral-sim $flags" stdout stderr prov.jsonl
done <<'INVOCATIONS'
-apps 2 -duration 6h
-apps 4 -strategy perf-pwr
-apps 4 -dvfs
-zones 2 -fault-rate 0.3 -exec-policy rollback -guard
INVOCATIONS

for side in parent change; do
	mkdir -p "$tmp/out.$side/ck"
	(cd "$tmp/out.$side/ck" && "$tmp/sim.$side" -apps 2 -duration 1h -checkpoint ck.json >stdout 2>stderr)
done
compare ck "mistral-sim -apps 2 -duration 1h -checkpoint ck.json" stdout stderr ck.json
for side in parent change; do
	other=parent
	if [ "$side" = parent ]; then other=change; fi
	mkdir -p "$tmp/out.$side/resume"
	cp "$tmp/out.$other/ck/ck.json" "$tmp/out.$side/resume/ck.json"
	# A side that refuses the other's file (a checkpoint schema bump) fails
	# here; its stderr says why, and the comparison reports the difference.
	(cd "$tmp/out.$side/resume" && "$tmp/sim.$side" -resume ck.json -duration 2h >stdout 2>stderr) || true
done
compare resume "mistral-sim -resume (the other side's ck.json) -duration 2h" stdout stderr
exit $status
