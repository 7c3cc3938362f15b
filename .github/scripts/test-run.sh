#!/usr/bin/env bash
# test-run.sh PATTERN PKG... runs `go test -race -run PATTERN PKG...` and
# refuses to pass vacuously: when a test rename leaves PATTERN matching
# nothing in a package, `go test` still reports ok. Every package named must
# list at least one test for the pattern.
set -euo pipefail
pattern=$1
shift
for pkg in "$@"; do
  listed=$(go test -list "$pattern" "$pkg")
  if ! grep -q '^Test' <<<"$listed"; then
    echo "::error::-run '$pattern' matches no test in $pkg"
    exit 1
  fi
done
exec go test -race -run "$pattern" "$@"
