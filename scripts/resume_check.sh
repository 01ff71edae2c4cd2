#!/usr/bin/env bash
# SIGTERM mdxserve mid-campaign, restart it over the same state directory,
# and assert the resumed artifact is byte-identical to an uninterrupted
# reference run of the same spec.
#
# Usage:
#   scripts/resume_check.sh NAME PORT SPEC [GREP [COUNTER]]
#
#   NAME     labels the state dir and artifacts under /tmp
#   PORT     first of three consecutive localhost ports
#            (reference, interrupted, restarted server)
#   SPEC     the campaign job as JSON
#   GREP     a string the reference artifact must contain
#   COUNTER  a job-view field that must be > 0 on the reference
#            (e.g. recoveries, reconfigured)
#
# Needs /tmp/mdxserve (go build -o /tmp/mdxserve ./cmd/mdxserve), curl and
# python3.
set -euo pipefail

name=$1 port=$2 spec=$3 want=${4:-} counter=${5:-}
state=/tmp/mdx-$name-state
ref=/tmp/ref-$name-artifact resumed=/tmp/resumed-$name-artifact
rm -rf "$state"

field() { python3 -c 'import json,sys; print(json.load(sys.stdin).get(sys.argv[1], 0))' "$1"; }
wait_healthy() { # port
  for _ in $(seq 1 50); do
    curl -fsS "http://127.0.0.1:$1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  return 1
}
wait_done() { # port id -> blocks until done
  for _ in $(seq 1 600); do
    status=$(curl -fsS "http://127.0.0.1:$1/jobs/$2" | field status)
    [ "$status" = done ] && return 0
    [ "$status" = failed ] && return 1
    sleep 0.2
  done
  return 1
}
submit() { curl -fsS -X POST "http://127.0.0.1:$1/jobs" -d "$spec" | field id; } # port -> id

# Uninterrupted reference.
/tmp/mdxserve -addr "127.0.0.1:$port" &
pid=$!
wait_healthy "$port"
ref_id=$(submit "$port")
wait_done "$port" "$ref_id"
curl -fsS "http://127.0.0.1:$port/jobs/$ref_id/artifact" > "$ref"
[ -z "$want" ] || grep -q "$want" "$ref"
[ -z "$counter" ] || [ "$(curl -fsS "http://127.0.0.1:$port/jobs/$ref_id" | field "$counter")" -gt 0 ]
kill -TERM $pid; wait $pid

# Stateful server, killed once at least five cells are in.
port=$((port + 1))
/tmp/mdxserve -addr "127.0.0.1:$port" -state-dir "$state" &
pid=$!
wait_healthy "$port"
id=$(submit "$port")
for _ in $(seq 1 300); do
  cells=$(curl -fsS "http://127.0.0.1:$port/jobs/$id" | field cells)
  [ "$cells" -ge 5 ] && break
  sleep 0.1
done
[ "$cells" -ge 5 ]
kill -TERM $pid; wait $pid || true
test ! -f "$state"/execs/*/artifact # must actually have been interrupted

# Restart over the same state dir: same job id resumes and finishes.
port=$((port + 1))
/tmp/mdxserve -addr "127.0.0.1:$port" -state-dir "$state" &
pid=$!
wait_healthy "$port"
wait_done "$port" "$id"
curl -fsS "http://127.0.0.1:$port/jobs/$id/artifact" > "$resumed"
kill -TERM $pid; wait $pid || true
cmp "$ref" "$resumed"
echo "resumed $name artifact byte-identical"
