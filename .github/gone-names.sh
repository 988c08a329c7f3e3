#!/usr/bin/env bash
# Gone names stay gone. Reads .github/gone-names.tsv (run from the
# repository root) and greps each row's pattern under its paths. Fails on
# any hit, printing the row's gone_after commit and why, and on a missing
# or empty table or a malformed row: not four non-empty tab-separated
# fields, a path that expands to nothing, or a pattern grep rejects. So a
# typo fails the check instead of switching its gate off.
set -u
table=.github/gone-names.tsv
[ -s "$table" ] || { echo "$table is missing or empty"; exit 1; }
n=0 rows=0 fail=0
while IFS= read -r line || [ -n "$line" ]; do
  n=$((n + 1))
  case $line in '#'*) continue ;; esac
  rows=$((rows + 1))
  at="$table:$n"
  tabs=${line//[!$'\t']/}
  IFS=$'\t' read -r pattern paths gone_after why <<<"$line"
  if [ ${#tabs} -ne 3 ] || [ -z "$pattern" ] || [ -z "$paths" ] || [ -z "$gone_after" ] || [ -z "$why" ]; then
    echo "$at: malformed row (want four non-empty tab-separated fields: pattern, paths, gone_after, why)"
    fail=1
    continue
  fi
  for p in $paths; do
    if [ ! -e "$p" ]; then
      echo "$at: path $p expands to nothing"
      fail=1
      continue 2
    fi
  done
  grep -rnE -- "$pattern" $paths
  case $? in
    0) echo "$at: gone after $gone_after: $why"; fail=1 ;;
    1) ;;
    *) echo "$at: grep rejected the row"; fail=1 ;;
  esac
done <"$table"
[ "$rows" -gt 0 ] || { echo "$table has no rows"; exit 1; }
exit "$fail"
