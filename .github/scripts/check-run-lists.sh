#!/usr/bin/env bash
# Fails when a name in a workflow's `go test -run` list matches no test,
# fuzz target, benchmark or example in the packages that command runs,
# so renaming a test cannot silently empty the CI gate that names it.
#
#   bash .github/scripts/check-run-lists.sh
set -euo pipefail
status=0
while IFS= read -r line; do
	run=$(sed -E "s/.*-run ('([^']*)'|([^ ]+)).*/\2\3/" <<<"$line")
	[ "$run" = '^$' ] && continue
	pkgs=$(grep -oE '\./[^ ]*' <<<"$line" | tr '\n' ' ')
	# shellcheck disable=SC2086 # pkgs is a word list
	listed=$(go test -list '.*' $pkgs | grep -E '^(Test|Fuzz|Benchmark|Example)' || true)
	for name in ${run//|/ }; do
		if ! grep -qE "^${name}" <<<"$listed"; then
			echo "no test matches -run name $name in $pkgs"
			status=1
		fi
	done
done < <(grep -hE 'go test .*-run ' .github/workflows/*.yml)
exit $status
