#!/usr/bin/env bash
# Checks of an installed `cslbounds` that need nothing but the package: every output declared in
# tests/golden/cases.txt matches its file byte for byte, to stdout and through --output, and every
# failing run declared in tests/golden/failures.txt ends with its exit code and its one stderr line.
# Scratch files go to $RUNNER_TEMP.
#
#   RUNNER_TEMP=$(mktemp -d) ci/runtime_checks.sh
set -e -o pipefail   # a pipeline fails if any of its commands does
: "${RUNNER_TEMP:?must name a scratch directory}"
cd "$(dirname "$0")/.."

# every golden output matches its file, to stdout and through --output, a separate write path;
# tests/golden/cases.txt declares each golden's argv, and the goldens run every subcommand
grep '^[^#]' tests/golden/cases.txt | while read -r name argv; do
  cslbounds $argv | cmp - "tests/golden/$name"
  cslbounds $argv --output "$RUNNER_TEMP/$name"
  cmp "$RUNNER_TEMP/$name" "tests/golden/$name"
done

# every failing run of tests/golden/failures.txt, each in an empty directory that holds its config.
# fails CODE LINE ARGV...: `cslbounds ARGV` exits CODE, writes nothing to stdout, creates no file, and writes
# one line to stderr: LINE, or, where LINE ends in `...`, a line that starts with the rest of LINE. A
# traceback would exit 1 too.
fails() {
  want=$1 line=$2; shift 2
  files=$(ls -A); code=0; cslbounds "$@" > "$RUNNER_TEMP/run.out" 2> "$RUNNER_TEMP/run.err" || code=$?
  err=$(cat "$RUNNER_TEMP/run.err")
  case $line in *...) [ "${err#"${line%...}"}" != "$err" ] ;; *) [ "$err" = "$line" ] ;; esac &&
    [ "$code" -eq "$want" ] && [ "$(wc -l < "$RUNNER_TEMP/run.err")" -eq 1 ] && [ ! -s "$RUNNER_TEMP/run.out" ] &&
    [ "$(ls -A)" = "$files" ] || { echo "cslbounds $*: exit $code, expected $want and: $line"; cat "$RUNNER_TEMP/run.err"; exit 1; }
}
grep '^[^#]' tests/golden/failures.txt | while IFS='|' read -r name want config argv line; do
  mkdir "$RUNNER_TEMP/${name% }" && cd "$RUNNER_TEMP/${name% }"
  config=${config# } config=${config% }
  [ "$config" = - ] || { printf '%s\n' "$config" > config.json; argv="$argv --config config.json"; }
  fails $want "${line# }" $argv
done
# two failing runs no manifest line can hold: a document nested past the recursion limit (200 kB), and an
# empty output path, which cannot be written as an empty config path cannot be read
mkdir "$RUNNER_TEMP/unlisted" && cd "$RUNNER_TEMP/unlisted"
{ printf '{"sphere": '; head -c 100000 /dev/zero | tr '\0' '['; head -c 100000 /dev/zero | tr '\0' ']'; echo '}'; } > deep.json
fails 1 "error[config]: invalid JSON: ..." analyze --config deep.json
fails 1 "error[config]: cannot write output file '': No such file or directory" constants --output ''
# a reader that closes the pipe early ends the run with exit 1 and no traceback
echo '{"scan": {"points": 15000}}' > big.json
code=0; cslbounds scan --config big.json 2> pipe.err | head -c 10 > /dev/null || code=$?   # pipefail: the exit of cslbounds
[ "$code" -eq 1 ] && [ ! -s pipe.err ] || { echo "closed pipe: exit $code"; cat pipe.err; exit 1; }
# an output that cannot be written ends the run with exit 1 and one error line, buffered or not
for unbuffered in "" 1; do
  for argv in constants --help; do
    code=0; PYTHONUNBUFFERED=$unbuffered cslbounds $argv > /dev/full 2> full.err || code=$?
    [ "$code" -eq 1 ] && [ "$(wc -l < full.err)" -eq 1 ] || { echo "full disk, $argv: exit $code"; cat full.err; exit 1; }
  done
done
