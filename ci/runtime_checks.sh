#!/usr/bin/env bash
# Checks of an installed `cslbounds` that need nothing but the package: every output declared in
# tests/golden/cases.txt matches its file byte for byte, to stdout and through --output, and each
# failure class exits with its code. Scratch files go to $RUNNER_TEMP.
#
#   RUNNER_TEMP=$(mktemp -d) ci/runtime_checks.sh
set -e
: "${RUNNER_TEMP:?must name a scratch directory}"
cd "$(dirname "$0")/.."

# every golden output matches its file, to stdout and through --output, a separate write path;
# tests/golden/cases.txt declares each golden's argv, and the goldens run every subcommand
grep '^[^#]' tests/golden/cases.txt | while read -r name argv; do
  cslbounds $argv | cmp - "tests/golden/$name"
  cslbounds $argv --output "$RUNNER_TEMP/$name"
  cmp "$RUNNER_TEMP/$name" "tests/golden/$name"
done

# exit codes: a config value outside its declared domain exits 1; a computed value outside its domain exits 2;
# a failure writes one line to stderr, `error[<class>]: ...`, where a traceback would exit 1 too
expect() {
  want=$1; shift
  code=0; "$@" > /dev/null 2> expect.err || code=$?
  [ "$code" -eq "$want" ] || { echo "exit $code, expected $want: $*"; cat expect.err; exit 1; }
  [ "$want" -eq 0 ] || { [ "$(wc -l < expect.err)" -eq 1 ] && grep -q '^error\[' expect.err; } ||
    { echo "not one error line: $*"; cat expect.err; exit 1; }
}
cd "$RUNNER_TEMP"
echo '{"n_sigma": -1}' > n_sigma.json
echo '{"collapse": {"g_n": 1e150, "lambda_per_sec": 1e300}}' > predict.json
echo '{"collapse": {"g_n": 1e200}}' > count.json
echo '{"collapse": {"a_cm": 1e-200, "g_n": 0.5}}' > rate.json
echo '{"experiment": {"efficiency": 5e-324}}' > efficiency.json
echo '{"scan": {"min": 1e-320, "max": 1.0, "points": 3}}' > scan.json
echo '{"scan": {"log_spacing": 1}}' > log_spacing.json
echo '{"model": {"kind": "square-well"}}' > kind.json
echo '{"sphere": {"bogus": 1}}' > bogus.json
echo '{"n_sigma": -1, "n_sigma": 2.0}' > twice.json
echo '{"model": {"binding_energy_mev": 1e300}}' > binding.json
echo '{"scan": {"points": 15000}}' > big.json
echo '{"scan": {"min": 1.0, "max": 1.0000000000000004, "points": 20, "log_spacing": false}}' > repeat.json
echo '{"model": {"kind": "hulthen", "binding_energy_mev": 1.0, "beta_over_kappa": 1e155}}' > model.json
echo '{"model": {"kind": "hulthen", "binding_energy_mev": 1.0, "beta_over_kappa": 1e155}, "n_sigma": -1}' > model_n_sigma.json
{ printf '{"sphere": '; head -c 100000 /dev/zero | tr '\0' '['; head -c 100000 /dev/zero | tr '\0' ']'; echo '}'; } > deep.json
expect 1 cslbounds analyze --config n_sigma.json
# the three ways a key is read: a flag, a model kind, a nested object's keys
expect 1 cslbounds analyze --config log_spacing.json
expect 1 cslbounds analyze --config kind.json
expect 1 cslbounds analyze --config bogus.json
# a document json refuses: nested past the recursion limit
expect 1 cslbounds analyze --config deep.json
# a key given twice, whose first value is out of its domain
expect 1 cslbounds analyze --config twice.json
# a scan whose grid repeats a point, the one input error found after the config parses
expect 1 cslbounds scan --config repeat.json
# a model floats cannot hold fails as the config is parsed, but an input error in another key or a flag comes first
expect 1 cslbounds analyze --config model_n_sigma.json
expect 1 cslbounds analyze --config model.json --nsigma -1
expect 2 cslbounds analyze --config model.json
# <r^2> underflows to 0
expect 2 cslbounds analyze --config binding.json
# --predict without g_n is an input error, found before the analysis fails
expect 1 cslbounds analyze --predict --config binding.json
expect 2 cslbounds analyze --predict --config predict.json
# lambda/a^2 is finite, the predicted count is not
expect 2 cslbounds analyze --predict --config count.json
expect 2 cslbounds spectrum --quantity rate --config rate.json
expect 2 cslbounds analyze --config efficiency.json
# a failing run writes nothing, so it creates no output file
expect 2 cslbounds scan --config scan.json --output failed.csv
[ ! -e failed.csv ] || { echo "a failing scan created its output file"; exit 1; }
# a reader that closes the pipe early ends the run with exit 1 and no traceback
cslbounds scan --config big.json 2> pipe.err | head -c 10 > /dev/null
code=${PIPESTATUS[0]}
[ "$code" -eq 1 ] && [ ! -s pipe.err ] || { echo "closed pipe: exit $code"; cat pipe.err; exit 1; }
# an output that cannot be written ends the run with exit 1 and one error line, buffered or not
for unbuffered in "" 1; do
  for argv in constants --help; do
    code=0; PYTHONUNBUFFERED=$unbuffered cslbounds $argv > /dev/full 2> full.err || code=$?
    [ "$code" -eq 1 ] && [ "$(wc -l < full.err)" -eq 1 ] || { echo "full disk, $argv: exit $code"; cat full.err; exit 1; }
  done
done
