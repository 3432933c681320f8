#!/bin/sh
# CLI golden test: runs spexcheck over committed inputs in every report
# mode and diffs each run's stdout and exit code against a committed
# transcript in tests/testdata/cli_golden/expected/.
#
# Modes: flat (examples/matrix/fleet plus one invalid config),
# --include-roots (tests/testdata/cli_golden/roots: one override, one
# include cycle, one missing include), --matrix v1 -> v2, and --matrix
# v1 -> broken -> v2, whose middle version (broken_server.c) fails to
# load. Each runs in text and jsonl at --threads 1 and 0; both widths must
# match the same transcript. A transcript is the run's stdout followed by
# one "# exit: <code>" line; the failed-load case also pins stderr, after
# a "# stderr:" line.
#
#   sh tests/cli_golden_test.sh build/spexcheck            # check
#   sh tests/cli_golden_test.sh build/spexcheck --write    # rewrite from --threads 1
#
# Run from the repository root: report names are the relative paths given
# on the command line.
set -u

spexcheck=$1
write=${2:-}
expected=tests/testdata/cli_golden/expected
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

m=examples/matrix
v1="--source $m/server_v1.c --annotations $m/server.ann --template $m/server.tpl --label v1"
v2="--source $m/server_v2.c --annotations $m/server.ann --template $m/server.tpl --label v2"
broken="--source tests/testdata/cli_golden/broken_server.c --annotations $m/server.ann --template $m/server.tpl --label broken"
invalid=tests/testdata/cli_golden/invalid.conf

failures=0
pin_stderr=0
# run <case> <format> <spexcheck args...>
run() {
  name=$1.$2
  format=$2
  shift 2
  for threads in 1 0; do
    out=$scratch/$name.$threads
    # shellcheck disable=SC2068  # The version flags split on purpose.
    if [ "$pin_stderr" = 1 ]; then
      "$spexcheck" --format "$format" --threads "$threads" $@ > "$out" 2> "$out.stderr"
      echo "# exit: $?" >> "$out"
      echo "# stderr:" >> "$out"
      cat "$out.stderr" >> "$out"
    else
      "$spexcheck" --format "$format" --threads "$threads" $@ > "$out"
      echo "# exit: $?" >> "$out"
    fi
    if [ "$write" = "--write" ] && [ "$threads" = 1 ]; then
      cp "$out" "$expected/$name"
    fi
    if ! cmp -s "$expected/$name" "$out"; then
      echo "FAIL $name --threads $threads"
      diff -u "$expected/$name" "$out"
      failures=$((failures + 1))
    fi
  done
}

for format in text jsonl; do
  run flat "$format" $v2 $m/fleet $invalid
  run include_roots "$format" $v2 --include-roots tests/testdata/cli_golden/roots
  run matrix "$format" --matrix $v1 $v2 $m/fleet $invalid
  pin_stderr=1
  run matrix_load_error "$format" --matrix $v1 $broken $v2 $m/fleet $invalid
  pin_stderr=0
done

if [ "$failures" -ne 0 ]; then
  echo "$failures run(s) differ from their transcript"
  exit 1
fi
echo "all runs match their transcripts"
