#!/usr/bin/env bash
# Checks of an installed `cslbounds` that need real processes and nothing but the package: every output
# declared in tests/golden/cases.txt matches its file byte for byte, to stdout and through --output; every
# failing run declared in tests/golden/failures.txt ends with its exit code and its one stderr line; and a
# closed pipe or a full disk ends a run with exit 1. The manifests' runs are independent, so two lanes run
# them at once, each case with its own scratch files in $RUNNER_TEMP.
#
#   RUNNER_TEMP=$(mktemp -d) ci/runtime_checks.sh
set -e -o pipefail   # a pipeline fails if any of its commands does
: "${RUNNER_TEMP:?must name a scratch directory}"
cd "$(dirname "$0")/.."

# fails CODE LINE ARGV...: `cslbounds ARGV`, run in the case's own directory, exits CODE, writes nothing to
# stdout, creates no file, and writes one line to stderr: LINE, or, where LINE ends in `...`, a line that starts
# with the rest of LINE. A traceback would exit 1 too. Its stdout and stderr go to files beside the directory.
fails() {
  want=$1 line=$2; shift 2
  files=$(ls -A); code=0; cslbounds "$@" > "$PWD.out" 2> "$PWD.err" || code=$?
  err=$(cat "$PWD.err")
  case $line in *...) [ "${err#"${line%...}"}" != "$err" ] ;; *) [ "$err" = "$line" ] ;; esac &&
    [ "$code" -eq "$want" ] && [ "$(wc -l < "$PWD.err")" -eq 1 ] && [ ! -s "$PWD.out" ] &&
    [ "$(ls -A)" = "$files" ] || { echo "cslbounds $*: exit $code, expected $want and: $line"; cat "$PWD.err"; exit 1; }
}

# lane_of N MANIFEST: the manifest's lines whose number is N modulo 2
lane_of() { grep '^[^#]' "$2" | awk "NR % 2 == $1"; }
# lane N: its half of each manifest
lane() {
  # every golden output matches its file, to stdout and through --output, a separate write path; the goldens
  # run every subcommand
  lane_of "$1" tests/golden/cases.txt | while read -r name argv; do
    cslbounds $argv | cmp - "tests/golden/$name"
    cslbounds $argv --output "$RUNNER_TEMP/$name"
    cmp "$RUNNER_TEMP/$name" "tests/golden/$name"
  done
  # every failing run, each in an empty directory that holds its config
  lane_of "$1" tests/golden/failures.txt | while IFS='|' read -r name want config argv line; do
    mkdir "$RUNNER_TEMP/${name% }" && cd "$RUNNER_TEMP/${name% }"
    config=${config# } config=${config% }
    [ "$config" = - ] || { printf '%s\n' "$config" > config.json; argv="$argv --config config.json"; }
    fails $want "${line# }" $argv
  done
}
# two failing runs no manifest line can hold: a document nested past the recursion limit (200 kB), and an
# empty output path, which cannot be written as an empty config path cannot be read; then a reader that closes
# the pipe after 10 bytes, which ends the run with exit 1 and no traceback: the curve outgrows the pipe's buffer
unlisted() {
  mkdir "$RUNNER_TEMP/unlisted" && cd "$RUNNER_TEMP/unlisted"
  { printf '{"sphere": '; head -c 100000 /dev/zero | tr '\0' '['; head -c 100000 /dev/zero | tr '\0' ']'; echo '}'; } > deep.json
  fails 1 "error[config]: invalid JSON: ..." analyze --config deep.json
  fails 1 "error[config]: cannot write output file '': No such file or directory" constants --output ''
  echo '{"scan": {"points": 15000}}' > big.json
  code=0; bytes=$(cslbounds scan --config big.json 2> pipe.err | head -c 10 | wc -c) || code=$?   # pipefail: the exit of cslbounds
  [ "$code" -eq 1 ] && [ "$bytes" -eq 10 ] && [ ! -s pipe.err ] || { echo "closed pipe: exit $code, $bytes bytes"; cat pipe.err; exit 1; }
}
# an output that cannot be written ends the run with exit 1 and one error line, buffered or not; buffered, the
# constants and the help fail only as the entrypoint flushes stdout, and no write after the first failure
# reports again
full_disk() {
  mkdir "$RUNNER_TEMP/full" && cd "$RUNNER_TEMP/full"
  for unbuffered in "" 1; do
    for argv in scan constants --help; do
      code=0; PYTHONUNBUFFERED=$unbuffered cslbounds $argv > /dev/full 2> full.err || code=$?
      [ "$code" -eq 1 ] && [ "$(cat full.err)" = "error[config]: cannot write standard output: No space left on device" ] &&
        [ "$(wc -l < full.err)" -eq 1 ] || { echo "full disk, $argv: exit $code"; cat full.err; exit 1; }
    done
  done
}

{ lane 0; full_disk; } & first=$!
{ lane 1; unlisted; } & second=$!
failed=0; wait $first || failed=1; wait $second || failed=1   # both, so that no lane outlives the script
[ $failed -eq 0 ]
