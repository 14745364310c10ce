#!/bin/sh
# End-to-end check of the gfre_batch manifest driver, both backends:
#
#   sh tests/cli_manifest_driver.sh <gfre_batch> <gfre_server> <data-dir>
#
# 1. An 11-line manifest of data/ fixtures (one duplicate line) runs in
#    process and through a 2-worker gfre_server (gfre_batch --socket); the
#    two JSONL reports must be identical once the volatile fields are
#    stripped.
# 2. A bad manifest line after two good ones: both modes stop submitting,
#    still write the two finished jobs to --out, and exit 2.
# 3. SIGINT while a FIFO posing as a netlist parks the only worker: both
#    modes cancel the queued job, write both lines, and exit 130.
# 4. Flags that mix up the two backends exit 2 with a message.
# 5. A disk cache with one entry from another schema version and one
#    corrupt entry: the summary counts them as 1 stale and 1 quarantined.
set -eu

BATCH=$1
SERVER=$2
DATA=$(cd "$3" && pwd)
WORK=$(mktemp -d "${TMPDIR:-/tmp}/gfre_cli.XXXXXX")
SOCK=$WORK/gfre.sock
SRV=

cleanup() {
  if [ -n "$SRV" ]; then kill -TERM "$SRV" 2>/dev/null || true; fi
  exec 3>&-
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# expect CODE CMD... — runs CMD and requires exit code CODE.
expect() {
  want=$1
  shift
  rc=0
  "$@" || rc=$?
  [ "$rc" = "$want" ] || fail "exit $rc, want $want: $*"
}

# The same volatile-field strip the CI server smoke uses.
strip() {
  sed -E 's/, "(completed_seconds|extract_seconds)": [^,}]+//g; s/"cache_hit": (true|false), //' "$1"
}

lines() { wc -l < "$1" | tr -d ' '; }

# poll SECONDS CMD... — retries CMD every 0.1 s until it succeeds.
poll() {
  tries=$(($1 * 10))
  shift
  while ! "$@" >/dev/null 2>&1; do
    tries=$((tries - 1))
    [ "$tries" -gt 0 ] || return 1
    sleep 0.1
  done
}

start_server() {
  "$SERVER" --socket "$SOCK" "$@" > "$WORK/server.out" 2>&1 3>&- &
  SRV=$!
  poll 20 "$BATCH" --socket "$SOCK" --ping --quiet ||
    fail "gfre_server did not answer"
}

stop_server() {
  kill -TERM "$SRV"
  rc=0
  wait "$SRV" || rc=$?
  SRV=
  [ "$rc" = 0 ] || fail "gfre_server exited $rc on SIGTERM"
}

# --- 1. local and remote reports agree --------------------------------------
M=$WORK/smoke.txt
for f in mastrovito_m8.eqn mastrovito_matrix_m8.blif montgomery_m8.v \
    karatsuba_m8.eqn shiftadd_m8.blif mastrovito_syn_m8.v \
    mastrovito_mapped_m8.eqn montgomery_m16.eqn karatsuba_m16.v \
    handwritten_gf4_aoi.eqn; do
  echo "$DATA/$f"
done > "$M"
echo "$DATA/mastrovito_m8.eqn name=smoke_duplicate" >> "$M"

expect 0 "$BATCH" --jobs "$M" --threads 2 --out "$WORK/local.jsonl" \
  > "$WORK/local.out"
[ "$(lines "$WORK/local.jsonl")" = 11 ] || fail "local report is not 11 lines"
grep -q "streamed 11 jobs" "$WORK/local.out" || fail "no local summary"
grep -q "1 cache hits" "$WORK/local.out" || fail "duplicate was not a hit"

start_server --workers 2
expect 0 "$BATCH" --socket "$SOCK" --jobs "$M" --out "$WORK/remote.jsonl" \
  > "$WORK/remote.out"
[ "$(lines "$WORK/remote.jsonl")" = 11 ] || fail "remote report is not 11 lines"
strip "$WORK/local.jsonl" > "$WORK/local.stripped"
strip "$WORK/remote.jsonl" > "$WORK/remote.stripped"
diff "$WORK/local.stripped" "$WORK/remote.stripped" ||
  fail "local and remote reports differ"

# --- 2. a bad line keeps the finished work ----------------------------------
B=$WORK/bad.txt
printf '%s\n' "$DATA/mastrovito_m8.eqn name=bad_first" \
  "$DATA/montgomery_m8.v name=bad_second" \
  "$DATA/karatsuba_m8.eqn bogus=1" \
  "$DATA/shiftadd_m8.blif name=never_submitted" > "$B"
expect 2 "$BATCH" --jobs "$B" --threads 2 --out "$WORK/bad_local.jsonl" \
  > /dev/null 2> "$WORK/bad_local.err"
expect 2 "$BATCH" --socket "$SOCK" --jobs "$B" \
  --out "$WORK/bad_remote.jsonl" > /dev/null 2> "$WORK/bad_remote.err"
for mode in local remote; do
  report=$WORK/bad_$mode.jsonl
  [ "$(lines "$report")" = 2 ] || fail "$mode: bad line lost finished jobs"
  [ "$(grep -c '"ok": true' "$report")" = 2 ] || fail "$mode: jobs not ok"
  grep -q "unknown manifest key 'bogus'" "$WORK/bad_$mode.err" ||
    fail "$mode: no manifest error on stderr"
done
stop_server

# --- 3. SIGINT cancels queued work and still writes the report --------------
# The test holds the FIFO open read-write on fd 3, so the worker's open
# succeeds at once and its read blocks until fd 3 writes and closes.
# Children get fd 3 closed (3>&-): an inherited writer would hide the EOF.
FIFO=$WORK/gate.eqn
mkfifo "$FIFO"
I=$WORK/int.txt
printf '%s\n' "$FIFO name=gate" "$DATA/karatsuba_m8.eqn name=int_victim" > "$I"

has_fifo_open() { ls -l "/proc/$1/fd" 2>/dev/null | grep -q "$FIFO"; }

# interrupt MODE PID — waits until process PID holds the FIFO (the worker
# is parked), gives the driver a moment to submit the second line, sends
# it SIGINT, waits for the queued job's cancellation, then unparks the
# worker.
interrupt() {
  mode=$1
  reader=$2
  if [ -d /proc/self/fd ]; then
    poll 20 has_fifo_open "$reader" ||
      fail "$mode: worker never opened the FIFO"
  fi
  sleep 1
  kill -INT "$DRIVER"
  poll 20 grep -q "CANCELLED" "$WORK/int_$mode.out" ||
    fail "$mode: queued job was not cancelled"
  echo "not a netlist" >&3
  exec 3>&-
  rc=0
  wait "$DRIVER" || rc=$?
  [ "$rc" = 130 ] || fail "$mode: exit $rc after SIGINT, want 130"
  grep -q "interrupted by SIGINT" "$WORK/int_$mode.out" ||
    fail "$mode: no interrupt notice"
  report=$WORK/int_$mode.jsonl
  [ "$(lines "$report")" = 2 ] || fail "$mode: report is not 2 lines"
  grep -q '"name": "int_victim", .*"cancelled": true' "$report" ||
    fail "$mode: victim not cancelled in the report"
}

exec 3<> "$FIFO"
"$BATCH" --jobs "$I" --threads 1 --out "$WORK/int_local.jsonl" \
  > "$WORK/int_local.out" 2>&1 3>&- &
DRIVER=$!
interrupt local "$DRIVER"

start_server --workers 1 --worker-threads 1
WORKER=$(awk '/^worker 0: pid/{print $4}' "$WORK/server.out")
[ -n "$WORKER" ] || fail "no worker pid in the server banner"
exec 3<> "$FIFO"
"$BATCH" --socket "$SOCK" --jobs "$I" --out "$WORK/int_remote.jsonl" \
  > "$WORK/int_remote.out" 2>&1 3>&- &
DRIVER=$!
interrupt remote "$WORKER"
stop_server

# --- 4. flags that mix up the backends --------------------------------------
for local_flag in "--threads 2" "--queue-cap 1" "--admission block" \
    "--no-cache" "--cache $WORK/c" "--cache-cap 1" "--cache-prune 0" \
    "--cache-negative-ttl 1"; do
  # shellcheck disable=SC2086  # the flag and its value are two words
  expect 2 "$BATCH" --socket "$SOCK" --jobs "$M" $local_flag 2> "$WORK/err"
  grep -q "local backend" "$WORK/err" || fail "no reason for $local_flag"
done
for op in --ping --drain --stats; do
  expect 2 "$BATCH" --jobs "$M" "$op" 2> "$WORK/err"
  grep -q "give --socket PATH or --tcp PORT" "$WORK/err" ||
    fail "no reason for $op without an address"
done
expect 2 "$BATCH" --jobs "$M" --ports a,b,z,extra 2> "$WORK/err"
grep -q "ports wants exactly three" "$WORK/err" || fail "no reason for --ports"

# --- 5. the disk cache summary names stale and quarantined entries ---------
C=$WORK/cache
expect 0 "$BATCH" --jobs "$M" --threads 2 --cache "$C" > "$WORK/cold.out"
grep -q ", 0 stale, 0 quarantined, 0 expired (" "$WORK/cold.out" ||
  fail "cold cache summary: $(grep 'disk cache' "$WORK/cold.out")"
set -- "$C"/*.rpt
[ "$#" -ge 2 ] || fail "cold run stored $# entries, want at least 2"
# Entry header: magic (bytes 0-3), version (4-7), payload length (8-15),
# payload digest (16-47), then the payload.
printf '\377\377\377\377' | dd of="$1" bs=1 seek=4 count=4 conv=notrunc \
  2>/dev/null
byte=$(od -An -tu1 -j 60 -N 1 "$2" | tr -d ' ')
# shellcheck disable=SC2059  # the format is the octal escape of one byte
printf "\\$(printf '%03o' $((255 - byte)))" |
  dd of="$2" bs=1 seek=60 count=1 conv=notrunc 2>/dev/null
expect 0 "$BATCH" --jobs "$M" --threads 2 --cache "$C" > "$WORK/warm.out"
grep -q "2 disk misses, 2 stores, 1 stale, 1 quarantined, 0 expired (" \
  "$WORK/warm.out" ||
  fail "damaged cache summary: $(grep 'disk cache' "$WORK/warm.out")"

echo "cli_manifest_driver: all checks passed"
