#!/usr/bin/env bash
# End-to-end smoke of the discovery service (docs/SERVING.md). Every
# client speaks HTTP/1.1, the host's one protocol:
#
#   0. numeric flags: a bad value (not a number, out of range, too wide
#      for its type) makes modis_server / modis_cli exit 2 naming the flag,
#      and a removed flag (--job-ring) exits 2 as unknown
#   1. start modis_server on a unix socket AND a TCP port (one accept
#      loop, shared cache file); cold query through modis_cli --connect
#      over the unix socket, a warm one (0 exact trainings) over unix and
#      over TCP, GET /metrics through modis_cli --metrics, and the batch
#      reference (`modis_server --batch`: fresh process, no service, no
#      cache) — all four skylines identical
#   2. drain: fresh in-process server with the hidden --test-hold-at
#      train, so its first query parks at the train span; once the log
#      says so, SIGTERM then SIGUSR1 — the client still gets the full
#      answer (skyline byte-identical to phase 1's) and the server exits
#      0 after dumping its final metrics line
#   3. HTTP front door: POST /v1/query answers the warm query identically
#      to modis_cli over TCP, GET /metrics is valid Prometheus exposition,
#      GET /healthz is ok, and a quota-capped tenant's second request gets
#      429 + Retry-After (curl when available, python3 http.client
#      otherwise)
#   4. tracing: a warm query with X-Modis-Trace: 1 returns an inline
#      span tree whose request_id matches the X-Modis-Request-Id
#      response header, GET /v1/debug/traces serves Chrome trace_event
#      JSON naming that id, and /metrics carries the trace-derived
#      modis_phase_* histogram series
#   5. worker-crash-smoke (docs/MULTIPROCESS.md): a --workers 2 pool
#      host, SIGKILL of every worker process while a cold query is held
#      at its train span — the query is requeued to a respawned worker, the
#      client still gets the full (identical) skyline, and the HTTP
#      /metrics exposition shows modis_worker_restarts_total incremented
#      next to the coordinator's own admission counters and phase
#      histograms (one admission path in both modes)
#
# Waits are on conditions (a socket, a log line), never on elapsed time.
#
# Usage: serving_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD=${1:-build}
SERVER="$BUILD/examples/modis_server"
CLI="$BUILD/examples/modis_cli"
for bin in "$SERVER" "$CLI"; do
  if [ ! -x "$bin" ]; then
    echo "serving_smoke: missing binary $bin" >&2
    exit 1
  fi
done

WORK=$(mktemp -d /tmp/modis_smoke.XXXXXX)
SOCK="$WORK/modis.sock"
CACHE="$WORK/cache.rlog"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

ROW_SCALE=0.35
REQUEST_FLAGS=(--bench-task T1 --algo bi --epsilon 0.25 --budget 60
               --maxl 3 --measures acc,fisher,mi)

wait_for_socket() {  # wait_for_socket PID SOCKET LOG
  for _ in $(seq 1 150); do
    [ -S "$2" ] && return 0
    if ! kill -0 "$1" 2>/dev/null; then
      echo "serving_smoke: server died during startup:" >&2
      cat "$3" >&2
      exit 1
    fi
    sleep 0.2
  done
  echo "serving_smoke: socket never appeared" >&2
  exit 1
}

# Polls LOG (bounded, 60 s) until it matches the extended regex PATTERN;
# prints the first match.
wait_for_log() {  # wait_for_log LOG PATTERN WHAT
  local match=""
  for _ in $(seq 1 600); do
    match=$(grep -oE "$2" "$1" | head -1 || true)
    if [ -n "$match" ]; then
      echo "$match"
      return 0
    fi
    sleep 0.1
  done
  echo "serving_smoke: $3 never appeared in the log:" >&2
  cat "$1" >&2
  exit 1
}

# ---- Phase 0: numeric flags never abort (uncaught std::stoul) or wrap
# (a narrowing cast): a bad value exits 2 with a message naming the flag.
expect_exit_2() {  # expect_exit_2 STDERR_PATTERN COMMAND...
  local want=$1
  shift
  local rc=0
  "$@" > "$WORK/flag.out" 2> "$WORK/flag.err" || rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q -- "$want" "$WORK/flag.err"; then
    echo "serving_smoke: '$*' exited $rc; want 2 and '$want':" >&2
    cat "$WORK/flag.err" >&2
    exit 1
  fi
}
expect_flag_error() {  # expect_flag_error FLAG COMMAND...
  local flag=$1
  shift
  expect_exit_2 "^$flag: " "$@"
}
BAD_SOCK="$WORK/never.sock"
expect_flag_error --sessions "$SERVER" --socket "$BAD_SOCK" --sessions abc
expect_flag_error --workers "$SERVER" --socket "$BAD_SOCK" \
  --workers 4294967298
# The ring size is derived (2 slots per worker): --job-ring is gone.
expect_exit_2 "unknown flag --job-ring" "$SERVER" --socket "$BAD_SOCK" \
  --job-ring 16
expect_flag_error --worker-index "$SERVER" --worker-attach "$BAD_SOCK" \
  --worker-index 4294967296
expect_flag_error --row-scale "$SERVER" --socket "$BAD_SOCK" \
  --row-scale 0.5x
expect_flag_error --budget "$CLI" --connect "$BAD_SOCK" --bench-task T1 \
  --budget x
expect_flag_error --seed "$CLI" --seed 18446744073709551617
expect_flag_error --epsilon "$CLI" --epsilon nan
[ ! -e "$BAD_SOCK" ] || {
  echo "serving_smoke: a rejected command line still bound a socket" >&2
  exit 1
}
echo "serving smoke OK: bad numeric flags exit 2 naming the flag"

# ---- Phase 1: unix + TCP serving, cold/warm/metrics/batch.
"$SERVER" --socket "$SOCK" --listen 127.0.0.1:0 --row-scale "$ROW_SCALE" \
  --cache "$CACHE" > "$WORK/server.log" 2>&1 &
SERVER_PID=$!
wait_for_socket "$SERVER_PID" "$SOCK" "$WORK/server.log"
# The TCP listener announces its kernel-assigned port in the log.
TCP_ENDPOINT=$(wait_for_log "$WORK/server.log" 'tcp:[0-9.]+:[0-9]+' \
  "the TCP endpoint")
grep -q "record cache budget" "$WORK/server.log" || {
  echo "serving_smoke: missing cache-budget startup line" >&2
  exit 1
}

COLD=$("$CLI" --connect "$SOCK" "${REQUEST_FLAGS[@]}" --raw)
WARM=$("$CLI" --connect "$SOCK" "${REQUEST_FLAGS[@]}" --raw)
WARM_TCP=$("$CLI" --connect "$TCP_ENDPOINT" "${REQUEST_FLAGS[@]}" --raw)
"$CLI" --connect "$TCP_ENDPOINT" --metrics > "$WORK/metrics1.prom"
BATCH=$("$SERVER" --batch \
  '{"task":"T1","variant":"bi","epsilon":0.25,"budget":60,"maxl":3,"measures":["acc","fisher","mi"]}' \
  --row-scale "$ROW_SCALE")

python3 - "$COLD" "$WARM" "$WARM_TCP" "$BATCH" "$WORK/metrics1.prom" <<'PY'
import json
import sys

cold, warm, warm_tcp, batch = (json.loads(a) for a in sys.argv[1:5])
for name, doc in (("cold", cold), ("warm", warm), ("warm_tcp", warm_tcp),
                  ("batch", batch)):
    assert doc.get("ok"), f"{name} response not ok: {doc}"
    assert doc["skyline"], f"{name} skyline is empty"

for name, doc in (("warm", warm), ("warm_tcp", warm_tcp)):
    assert doc["stats"]["exact_evals"] == 0, (name, doc["stats"])
    assert doc["stats"]["persistent_hits"] > 0, (name, doc["stats"])
    assert doc["stats"]["cache_active"], (name, doc["stats"])

def skyline(doc):
    return sorted(
        (e["signature"], e["raw"], e["normalized"]) for e in doc["skyline"]
    )

assert (skyline(cold) == skyline(warm) == skyline(warm_tcp)
        == skyline(batch)), "skylines diverge across cold/warm/tcp/batch"

samples = {}
for line in open(sys.argv[5]).read().splitlines():
    if line and not line.startswith("#"):
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
assert samples["modis_served_total"] == 3, samples
assert samples["modis_failed_total"] == 0, samples
assert samples["modis_live_contexts"] == 1, samples
assert samples["modis_cache_files"] == 1, samples
assert samples["modis_connections_opened_total"] >= 4, samples
assert samples["modis_run_ms_count"] == 3, samples
assert samples["modis_draining"] == 0, samples

print(
    "serving smoke OK: warm unix+tcp queries trained nothing "
    f"({warm['stats']['persistent_hits']} replays), skyline of "
    f"{len(warm['skyline'])} matches the batch run "
    f"(cold {cold['stats']['run_ms']:.0f} ms -> warm "
    f"{warm['stats']['run_ms']:.1f} ms), /metrics consistent"
)
PY

kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# ---- Phase 2: SIGTERM drain with a query in flight. Fresh server, fresh
# cache, and the hidden --test-hold-at train: the query parks at its
# train span, so it is provably mid-flight when SIGTERM lands. SIGUSR1
# then releases it; the client must receive the complete response anyway
# and the server must exit 0 with a drained-metrics line.
SOCK2="$WORK/drain.sock"
CACHE2="$WORK/drain.rlog"
"$SERVER" --socket "$SOCK2" --row-scale "$ROW_SCALE" --cache "$CACHE2" \
  --test-hold-at train > "$WORK/drain.log" 2>&1 &
SERVER_PID=$!
wait_for_socket "$SERVER_PID" "$SOCK2" "$WORK/drain.log"

"$CLI" --connect "$SOCK2" "${REQUEST_FLAGS[@]}" --raw \
  > "$WORK/drain_reply.json" &
CLIENT_PID=$!
wait_for_log "$WORK/drain.log" "holding at span train" \
  "the train hold point" > /dev/null
kill -TERM "$SERVER_PID"
wait_for_log "$WORK/drain.log" "stopped accepting" "the drain start" \
  > /dev/null
kill -USR1 "$SERVER_PID"

if ! wait "$CLIENT_PID"; then
  echo "serving_smoke: drain client failed" >&2
  cat "$WORK/drain.log" >&2
  exit 1
fi
DRAIN_RC=0
wait "$SERVER_PID" || DRAIN_RC=$?
SERVER_PID=""
if [ "$DRAIN_RC" -ne 0 ]; then
  echo "serving_smoke: server exited $DRAIN_RC after SIGTERM" >&2
  cat "$WORK/drain.log" >&2
  exit 1
fi
grep -q "drained; final" "$WORK/drain.log" || {
  echo "serving_smoke: missing drained-metrics line" >&2
  cat "$WORK/drain.log" >&2
  exit 1
}

python3 - "$COLD" "$WORK/drain_reply.json" <<'PY'
import json
import sys

cold = json.loads(sys.argv[1])
with open(sys.argv[2]) as f:
    drained = json.loads(f.read())
assert drained.get("ok"), f"drained response not ok: {drained}"
assert drained["stats"]["exact_evals"] > 0, "the drained query never trained"

# The drained response is the full answer: its skyline member is
# byte-identical to the undisturbed run of the same request (phase 1's
# cold query).
def skyline_bytes(doc):
    return json.dumps(doc["skyline"], sort_keys=True)

assert skyline_bytes(drained) == skyline_bytes(cold), (
    "SIGTERM-drained response diverges from the undisturbed run"
)
print("serving smoke OK: SIGTERM with a query held mid-train drained "
      f"cleanly (full skyline of {len(drained['skyline'])} delivered, "
      "exit 0)")
PY

# ---- Phase 3: the HTTP front door. Same warm cache as phase 1, plus a
# bronze tenant whose bucket holds exactly one token and never refills —
# the deterministic 429-on-quota check.
SOCK3="$WORK/http.sock"
"$SERVER" --socket "$SOCK3" --listen 127.0.0.1:0 \
  --tenant "bronze:sk_bronze:0:1" \
  --row-scale "$ROW_SCALE" --cache "$CACHE" > "$WORK/http.log" 2>&1 &
SERVER_PID=$!
wait_for_socket "$SERVER_PID" "$SOCK3" "$WORK/http.log"
HTTP_ENDPOINT=$(wait_for_log "$WORK/http.log" 'tcp:[0-9.]+:[0-9]+' \
  "the HTTP TCP endpoint")
grep -q "serving HTTP/1.1 on" "$WORK/http.log" || {
  echo "serving_smoke: missing serving-HTTP startup line" >&2
  exit 1
}
HTTP_HOSTPORT=${HTTP_ENDPOINT#tcp:}
HTTP_PORT=${HTTP_HOSTPORT##*:}
HTTP_HOST=${HTTP_HOSTPORT%:*}
BASE="http://$HTTP_HOST:$HTTP_PORT"
REQUEST_JSON='{"task":"T1","variant":"bi","epsilon":0.25,"budget":60,"maxl":3,"measures":["acc","fisher","mi"]}'

# The warm query through modis_cli over TCP, recorded for the identity
# assert below.
"$CLI" --connect "$HTTP_ENDPOINT" "${REQUEST_FLAGS[@]}" --raw \
  > "$WORK/http_cli.json"

if command -v curl >/dev/null 2>&1; then
  curl -fsS -X POST "$BASE/v1/query" -H 'Content-Type: application/json' \
    --data "$REQUEST_JSON" > "$WORK/http_query.json"
  curl -fsS "$BASE/healthz" > "$WORK/healthz.json"
  curl -fsS "$BASE/metrics" > "$WORK/metrics.prom"
  curl -s -o "$WORK/bronze1.json" -w '%{http_code}' -X POST \
    "$BASE/v1/query" -H 'X-Api-Key: sk_bronze' --data "$REQUEST_JSON" \
    > "$WORK/bronze1.code"
  curl -s -o "$WORK/bronze2.json" -w '%{http_code}' -D "$WORK/bronze2.hdr" \
    -X POST "$BASE/v1/query" -H 'X-Api-Key: sk_bronze' \
    --data "$REQUEST_JSON" > "$WORK/bronze2.code"
else
  python3 - "$HTTP_HOST" "$HTTP_PORT" "$REQUEST_JSON" "$WORK" <<'PY'
import http.client
import sys

host, port, body, work = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]

def req(method, path, body=None, headers=None):
    conn = http.client.HTTPConnection(host, port, timeout=60)
    conn.request(method, path, body, headers or {})
    response = conn.getresponse()
    data = response.read().decode()
    status, hdrs = response.status, response.getheaders()
    conn.close()
    return status, hdrs, data

status, _, data = req("POST", "/v1/query", body,
                      {"Content-Type": "application/json"})
assert status == 200, (status, data)
open(f"{work}/http_query.json", "w").write(data)
status, _, data = req("GET", "/healthz")
assert status == 200, (status, data)
open(f"{work}/healthz.json", "w").write(data)
status, _, data = req("GET", "/metrics")
assert status == 200, (status, data)
open(f"{work}/metrics.prom", "w").write(data)
for attempt in (1, 2):
    status, hdrs, data = req("POST", "/v1/query", body,
                             {"X-Api-Key": "sk_bronze"})
    open(f"{work}/bronze{attempt}.json", "w").write(data)
    open(f"{work}/bronze{attempt}.code", "w").write(str(status))
    if attempt == 2:
        open(f"{work}/bronze2.hdr", "w").write(
            "".join(f"{k}: {v}\r\n" for k, v in hdrs))
PY
fi

python3 - "$COLD" "$WORK" <<'PY'
import json
import re
import sys

cold = json.loads(sys.argv[1])
work = sys.argv[2]

def read(name):
    with open(f"{work}/{name}") as f:
        return f.read()

def skyline(doc):
    return sorted(
        (e["signature"], e["raw"], e["normalized"]) for e in doc["skyline"]
    )

query = json.loads(read("http_query.json"))
cli = json.loads(read("http_cli.json"))
assert query.get("ok"), f"HTTP query not ok: {query}"
assert query["stats"]["exact_evals"] == 0, query["stats"]
# Client identity: a raw HTTP client, modis_cli, and the undisturbed
# phase-1 run all return the same skyline.
assert skyline(query) == skyline(cli) == skyline(cold), (
    "HTTP skyline diverges from the modis_cli answer"
)

health = json.loads(read("healthz.json"))
assert health.get("ok") and not health.get("draining"), health

SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? '
    r'[-+]?([0-9.]+([eE][-+]?[0-9]+)?|Inf|NaN)$')
lines = read("metrics.prom").splitlines()
assert lines, "empty /metrics body"
samples = {}
for line in lines:
    if line.startswith("# HELP ") or line.startswith("# TYPE "):
        continue
    assert SAMPLE.match(line), f"invalid exposition line: {line!r}"
    samples[line.rsplit(" ", 1)[0]] = float(line.rsplit(" ", 1)[1])
# Two queries (modis_cli's and the raw client's) were served when the
# exposition was scraped; the bronze tenant existed but had no traffic.
assert samples["modis_served_total"] == 2, samples["modis_served_total"]
assert samples['modis_tenant_admitted_total{tenant="bronze"}'] == 0
assert samples["modis_http_requests_total"] >= 2
assert samples["modis_draining"] == 0

assert read("bronze1.code").strip() == "200", read("bronze1.json")
assert read("bronze2.code").strip() == "429", read("bronze2.json")
rejected = json.loads(read("bronze2.json"))
assert rejected.get("code") == "ResourceExhausted", rejected
assert re.search(r"(?im)^retry-after: *[0-9]+\r?$", read("bronze2.hdr")), (
    read("bronze2.hdr")
)

print(
    "serving smoke OK: HTTP front door answered the warm query "
    f"identically to modis_cli, /metrics exposed {len(samples)} "
    "valid samples, and the bronze quota check got its 429 + Retry-After"
)
PY

# ---- Phase 4: tracing through the same live server. A traced warm
# query must echo its span tree inline, the response header must carry
# the matching request id, the debug ring must name the query, and the
# exposition must carry the trace-derived phase histograms.
if command -v curl >/dev/null 2>&1; then
  curl -fsS -X POST "$BASE/v1/query" -H 'Content-Type: application/json' \
    -H 'X-Modis-Trace: 1' -D "$WORK/traced.hdr" --data "$REQUEST_JSON" \
    > "$WORK/traced.json"
  curl -fsS "$BASE/v1/debug/traces" > "$WORK/debug_traces.json"
  curl -fsS "$BASE/metrics" > "$WORK/metrics2.prom"
else
  python3 - "$HTTP_HOST" "$HTTP_PORT" "$REQUEST_JSON" "$WORK" <<'PY'
import http.client
import sys

host, port, body, work = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]

def req(method, path, body=None, headers=None):
    conn = http.client.HTTPConnection(host, port, timeout=60)
    conn.request(method, path, body, headers or {})
    response = conn.getresponse()
    data = response.read().decode()
    status, hdrs = response.status, response.getheaders()
    conn.close()
    return status, hdrs, data

status, hdrs, data = req("POST", "/v1/query", body,
                         {"Content-Type": "application/json",
                          "X-Modis-Trace": "1"})
assert status == 200, (status, data)
open(f"{work}/traced.json", "w").write(data)
open(f"{work}/traced.hdr", "w").write(
    "".join(f"{k}: {v}\r\n" for k, v in hdrs))
status, _, data = req("GET", "/v1/debug/traces")
assert status == 200, (status, data)
open(f"{work}/debug_traces.json", "w").write(data)
status, _, data = req("GET", "/metrics")
assert status == 200, (status, data)
open(f"{work}/metrics2.prom", "w").write(data)
PY
fi

python3 - "$WORK" <<'PY'
import json
import re
import sys

work = sys.argv[1]

def read(name):
    with open(f"{work}/{name}") as f:
        return f.read()

traced = json.loads(read("traced.json"))
assert traced.get("ok"), f"traced query not ok: {traced}"
request_id = traced.get("request_id", "")
assert re.match(r"^q-[0-9]{6,}$", request_id), traced
header = re.search(r"(?im)^x-modis-request-id: *(\S+)\r?$",
                   read("traced.hdr"))
assert header, read("traced.hdr")
assert header.group(1) == request_id, (header.group(1), request_id)

spans = traced.get("trace")
assert spans, "traced response carries no span tree"
assert spans[0]["name"] == "query" and spans[0]["parent"] == -1, spans[0]
names = {s["name"] for s in spans}
for expected in ("admission", "context", "run", "level", "batch", "plan",
                 "train", "commit", "respond"):
    assert expected in names, (expected, sorted(names))
ids = {s["id"] for s in spans}
for s in spans:
    assert s["duration_ms"] >= 0, s
    assert s["parent"] == -1 or s["parent"] in ids, s
phase_sum = sum(s["duration_ms"] for s in spans
                if s["parent"] == spans[0]["id"])
assert phase_sum <= spans[0]["duration_ms"] + 0.01, (
    phase_sum, spans[0]["duration_ms"])

debug = json.loads(read("debug_traces.json"))
assert debug.get("ok"), debug
events = debug.get("traceEvents", [])
assert any(e.get("ph") == "M" and request_id in e["args"]["name"]
           for e in events), f"{request_id} missing from the debug ring"
assert any(e.get("ph") == "X" for e in events), "no span events in the ring"

exposition = read("metrics2.prom")
for phase in ("admission", "context", "plan", "train", "commit", "flush",
              "respond"):
    match = re.search(rf"(?m)^modis_phase_{phase}_ms_count ([0-9]+)$",
                      exposition)
    assert match, f"modis_phase_{phase}_ms_count missing from /metrics"
    assert int(match.group(1)) >= 3, (phase, match.group(1))

print(
    "serving smoke OK: traced query "
    f"{request_id} echoed a {len(spans)}-span tree matching its response "
    f"header, the debug ring served {len(events)} trace events, and all "
    "7 modis_phase_* histogram families are live"
)
PY

kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# ---- Phase 5: worker-crash-smoke. A multi-process pool host on a
# fresh cache (so the query actually trains). The hidden test flag
# --test-hold-at parks each worker's first incarnation when its query
# opens the "train" span, so the kill lands mid-query by construction.
# SIGKILL every worker: the supervisor must reap them, requeue the
# orphaned job, respawn (disarmed), and the client must still receive
# the full answer — identical to the undisturbed phase-1 run.
# --http is an accepted no-op (the benchmark's command line still
# passes it).
SOCK5="$WORK/pool.sock"
CACHE5="$WORK/pool.rlog"
RING5="$WORK/pool.ring"
"$SERVER" --socket "$SOCK5" --listen 127.0.0.1:0 --http \
  --workers 2 --ring-path "$RING5" --row-scale "$ROW_SCALE" \
  --cache "$CACHE5" --test-hold-at train > "$WORK/pool.log" 2>&1 &
SERVER_PID=$!
wait_for_socket "$SERVER_PID" "$SOCK5" "$WORK/pool.log"
POOL_ENDPOINT=$(wait_for_log "$WORK/pool.log" 'tcp:[0-9.]+:[0-9]+' \
  "the pool TCP endpoint")
grep -q "worker pool started" "$WORK/pool.log" || {
  echo "serving_smoke: missing worker-pool startup line" >&2
  cat "$WORK/pool.log" >&2
  exit 1
}
# The coordinator logs each spawn as `worker spawned worker=N pid=P`.
WORKER_PIDS=$(grep -o 'worker spawned.*pid=[0-9]*' "$WORK/pool.log" \
  | grep -o 'pid=[0-9]*' | cut -d= -f2)
[ "$(echo "$WORKER_PIDS" | wc -w)" -eq 2 ] || {
  echo "serving_smoke: expected 2 spawned workers, log says:" >&2
  cat "$WORK/pool.log" >&2
  exit 1
}

"$CLI" --connect "$SOCK5" "${REQUEST_FLAGS[@]}" --raw \
  > "$WORK/pool_reply.json" &
CLIENT_PID=$!
# Wait until the worker that claimed the job parks at "train".
wait_for_log "$WORK/pool.log" "holding at span train" \
  "a worker's train hold point" > /dev/null
# Kill BOTH workers: the held one carries the query.
for pid in $WORKER_PIDS; do
  kill -9 "$pid" 2>/dev/null || true
done

if ! wait "$CLIENT_PID"; then
  echo "serving_smoke: pool client failed after worker kill" >&2
  cat "$WORK/pool.log" >&2
  exit 1
fi

POOL_HOSTPORT=${POOL_ENDPOINT#tcp:}
python3 - "${POOL_HOSTPORT%:*}" "${POOL_HOSTPORT##*:}" "$WORK" <<'PY'
import http.client
import sys

host, port, work = sys.argv[1], int(sys.argv[2]), sys.argv[3]
conn = http.client.HTTPConnection(host, port, timeout=60)
conn.request("GET", "/metrics")
response = conn.getresponse()
assert response.status == 200, response.status
open(f"{work}/pool_metrics.prom", "w").write(response.read().decode())
conn.close()
PY

python3 - "$COLD" "$WORK" <<'PY'
import json
import re
import sys

cold = json.loads(sys.argv[1])
work = sys.argv[2]

with open(f"{work}/pool_reply.json") as f:
    reply = json.loads(f.read())
assert reply.get("ok"), f"pool response not ok after worker kill: {reply}"

def skyline(doc):
    return sorted(
        (e["signature"], e["raw"], e["normalized"]) for e in doc["skyline"]
    )

# The requeued-and-re-executed query answers byte-identically to the
# undisturbed run of the same request.
assert skyline(reply) == skyline(cold), (
    "post-kill skyline diverges from the undisturbed run"
)

exposition = open(f"{work}/pool_metrics.prom").read()
match = re.search(r"(?m)^modis_worker_restarts_total ([0-9]+)$", exposition)
assert match, "modis_worker_restarts_total missing from /metrics"
restarts = int(match.group(1))
assert restarts >= 2, f"expected >=2 worker restarts, saw {restarts}"
match = re.search(r"(?m)^modis_ring_requeued_total ([0-9]+)$", exposition)
assert match and int(match.group(1)) >= 1, (
    "killed worker's job was never requeued"
)
assert re.search(r"(?m)^modis_ring_poisoned_total 0$", exposition), (
    "a job was poisoned during the crash smoke"
)
# The coordinator admitted, served, and traced the query itself: its
# counters and the grafted worker spans' phase histogram are non-zero.
for series in ("modis_accepted_total", "modis_served_total",
               "modis_phase_train_ms_count"):
    match = re.search(rf"(?m)^{series} ([0-9.e+]+)$", exposition)
    assert match, f"{series} missing from the pool host's /metrics"
    assert float(match.group(1)) >= 1, f"{series} is 0 on the pool host"

print(
    "serving smoke OK: SIGKILL of both pool workers mid-query lost "
    f"nothing ({restarts} restarts, job requeued, skyline of "
    f"{len(reply['skyline'])} identical to the undisturbed run)"
)
PY

kill -TERM "$SERVER_PID" 2>/dev/null || true
POOL_RC=0
wait "$SERVER_PID" || POOL_RC=$?
SERVER_PID=""
if [ "$POOL_RC" -ne 0 ]; then
  echo "serving_smoke: pool server exited $POOL_RC after SIGTERM" >&2
  cat "$WORK/pool.log" >&2
  exit 1
fi
