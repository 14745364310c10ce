#!/bin/sh
# Every numeric flag of the example CLIs and gfre_server rejects a bad
# value as a usage error (exit 2) before doing any work: no abort, no
# wrap-around, no partial parse of "1e6".
#
#   cli_bad_values.sh REVERSE_ENGINEER FAULT_INJECTION OBFUSCATED_RECOVERY \
#                     GFRE_SERVER DATA_DIR
set -u
reverse_engineer=$1
fault_injection=$2
obfuscated_recovery=$3
gfre_server=$4
data=$5

work=$(mktemp -d "${TMPDIR:-/tmp}/gfre_bad_values.XXXXXX")
trap 'rm -rf "$work"' EXIT
failures=0

# expect_usage_error CMD...: CMD must exit 2.  The timeout only matters if
# a value were wrongly accepted and the command went on to run.
expect_usage_error() {
  timeout 20 "$@" >"$work/out" 2>&1
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL: exit $code (want 2): $*"
    sed 's/^/  | /' "$work/out" | head -5
    failures=$((failures + 1))
  fi
}

# Values no numeric flag accepts.
bad_values="abc -1 1e6 12abc 99999999999999999999"

fixture="$data/mastrovito_m8.eqn"
for value in $bad_values ""; do
  expect_usage_error "$reverse_engineer" "$fixture" --trace "$value"
  expect_usage_error "$reverse_engineer" "$fixture" --threads "$value"
  for flag in --m --count --seed --threads; do
    expect_usage_error "$fault_injection" --quiet "$flag" "$value"
  done
  for flag in --m --strength --seed --threads --max-terms; do
    expect_usage_error "$obfuscated_recovery" --quiet "$flag" "$value"
  done
  for flag in --tcp --workers --worker-threads --queue-cap --retries \
              --cache-cap --cache-negative-ttl --drain-grace-ms; do
    expect_usage_error "$gfre_server" --socket "$work/s.sock" "$flag" "$value"
  done
done

# In-range integers outside each flag's bounds.
expect_usage_error "$reverse_engineer" "$fixture" --threads 0
expect_usage_error "$reverse_engineer" "$fixture" --threads 4097
expect_usage_error "$fault_injection" --quiet --m 1
expect_usage_error "$fault_injection" --quiet --m 1025
expect_usage_error "$fault_injection" --quiet --count 0
expect_usage_error "$fault_injection" --quiet --count 1025
expect_usage_error "$fault_injection" --quiet --threads 0
expect_usage_error "$fault_injection" --quiet --threads 4097
expect_usage_error "$obfuscated_recovery" --quiet --m 1
expect_usage_error "$obfuscated_recovery" --quiet --strength 4294967296
expect_usage_error "$obfuscated_recovery" --quiet --threads 0
expect_usage_error "$obfuscated_recovery" --quiet --pass keygate:4294967296
expect_usage_error "$obfuscated_recovery" --quiet \
  --pass keygate:99999999999999999999
expect_usage_error "$gfre_server" --socket "$work/s.sock" --tcp 0
expect_usage_error "$gfre_server" --socket "$work/s.sock" --tcp 65536
expect_usage_error "$gfre_server" --socket "$work/s.sock" --workers 0
expect_usage_error "$gfre_server" --socket "$work/s.sock" --workers 257
expect_usage_error "$gfre_server" --socket "$work/s.sock" \
  --worker-threads 4097
expect_usage_error "$gfre_server" --socket "$work/s.sock" --retries 4294967296

if [ "$failures" -ne 0 ]; then
  echo "$failures bad-value case(s) not rejected with exit 2"
  exit 1
fi
echo "every bad numeric value rejected with exit 2"
