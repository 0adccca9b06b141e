#!/usr/bin/env bash
# End-to-end smoke test against the real binaries: build pathdumpd and
# pathdumpctl, boot multi-host daemons (two of them with an injected-slow
# host), run real queries over HTTP and assert on the output.
#
# Covered scenarios:
#   1. healthy batched query — every host answers, stats line says so —
#      plus a raw records query against a live daemon, whose reply must
#      be a streamed binary frame;
#   2. hedged query — a host whose *first* request stalls is rescued by
#      the duplicate request issued after -hedge-after, so the query still
#      returns every host's data (and reports the hedge);
#   3. -partial deadline run — a host that stalls forever is cut off by
#      the whole-query -timeout and the merged partial result of the
#      remaining hosts comes back with partial=true instead of an error;
#   5. snapshot pull — -pull-snapshot captures a live daemon's TIB over
#      GET /snapshot, a fresh pathdumpd -tib serves the restored store
#      offline, and a query against it returns the same data;
#   6. continuous monitoring — a pathdumpc controller daemon receives the
#      alarms of a TCP monitor installed on live daemons; the injected
#      wedged flow fires every period but the controller's suppression
#      window dedups the repeats, so pathdumpctl -watch sees exactly one
#      POOR_PERF alarm (with the fold count on the entry);
#   7. curl equivalence — a plain JSON POST with no Accept header (what
#      the docs' examples send) gets a JSON reply carrying the same top-k
#      rows pathdumpctl prints from its binary exchange;
#   8. impairment to alarm — a daemon boots with -impair wedging both
#      uplinks of the demo workload's first rack at 100% loss, a TCP
#      monitor is installed over HTTP, and the controller's history shows
#      the resulting POOR_PERF alarms with repeats folded by suppression;
#   9. observability plane — GET /metrics on a live pathdumpd exposes all
#      three planes (agent datapath counters, TIB store gauges, rpc
#      request series with traffic recorded), GET /metrics on pathdumpc
#      exposes the controller plane and the alarm pipeline, and /healthz
#      answers structured JSON on both.
#
# Readiness is polled via GET /healthz throughout — the daemons answer it
# as soon as their listener is up, before any query traffic.
#
# Runs standalone (bash scripts/e2e_smoke.sh) and as the CI e2e job.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT_A="${E2E_PORT_A:-8471}"   # healthy daemon, hosts 0,1
PORT_B="${E2E_PORT_B:-8472}"   # host 3 stalls forever
PORT_C="${E2E_PORT_C:-8473}"   # host 5 stalls on its first query only
PORT_D="${E2E_PORT_D:-8474}"   # offline daemon serving the pulled snapshot
PORT_E="${E2E_PORT_E:-8475}"   # pathdumpc controller daemon (alarm plane)
PORT_F="${E2E_PORT_F:-8476}"   # monitored daemon, hosts 6,7 (+ wedged flow)
PORT_H="${E2E_PORT_H:-8478}"   # pathdumpc controller for the impairment scenario
PORT_I="${E2E_PORT_I:-8479}"   # impaired daemon, hosts 0,1 behind lossy uplinks
BIN="$(mktemp -d)"
LOGS="$(mktemp -d)"

cleanup() {
  status=$?
  kill $(jobs -p) 2>/dev/null || true
  wait 2>/dev/null || true
  if [ "$status" -ne 0 ]; then
    echo "=== daemon logs (failure) ==="
    tail -n 40 "$LOGS"/*.log 2>/dev/null || true
  fi
  rm -rf "$BIN" "$LOGS"
  exit "$status"
}
trap cleanup EXIT

# boot_daemon NAME BINARY ARGS... — start a daemon in the background,
# logging to $LOGS/NAME.log.
boot_daemon() {
  local name="$1"; shift
  local binary="$1"; shift
  "$BIN/$binary" "$@" >"$LOGS/$name.log" 2>&1 &
}

# wait_ready BASE_URL [ATTEMPTS] — poll GET /healthz until the daemon
# answers 200 (0.2 s per attempt; default 50, the demo-workload daemons
# use more).
wait_ready() {
  local url="$1/healthz" attempts="${2:-50}"
  for _ in $(seq 1 "$attempts"); do
    if curl -fs "$url" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.2
  done
  echo "FAIL: $url never became ready"
  exit 1
}

echo "== build real binaries =="
go build -o "$BIN/pathdumpd" ./cmd/pathdumpd
go build -o "$BIN/pathdumpctl" ./cmd/pathdumpctl
go build -o "$BIN/pathdumpc" ./cmd/pathdumpc

echo "== boot daemons =="
boot_daemon a pathdumpd -hosts 0,1 -listen "127.0.0.1:$PORT_A" -demo
boot_daemon b pathdumpd -hosts 2,3 -listen "127.0.0.1:$PORT_B" -demo \
  -slow-host 3 -slow-delay 60s
boot_daemon c pathdumpd -hosts 4,5 -listen "127.0.0.1:$PORT_C" -demo \
  -slow-host 5 -slow-delay 60s -slow-first-only

for port in "$PORT_A" "$PORT_B" "$PORT_C"; do
  # demo workload simulation needs a moment
  wait_ready "http://127.0.0.1:$port" 150
done
echo "daemons ready"

A="http://127.0.0.1:$PORT_A"
B="http://127.0.0.1:$PORT_B"
C="http://127.0.0.1:$PORT_C"

echo
echo "== 1. healthy batched query (hosts 0,1,2 — no straggler in the set) =="
out="$("$BIN/pathdumpctl" -agents "0=$A,1=$A,2=$B" -timeout 30s topk -k 5)"
echo "$out"
grep -q "^#1 " <<<"$out" || { echo "FAIL: no top-k rows"; exit 1; }
grep -q "(3 hosts answered, 0 skipped, 0 hedged, partial=false" <<<"$out" \
  || { echo "FAIL: healthy query stats line wrong"; exit 1; }
# A records query against the live daemon, offering the wire encoding:
# the reply streams off the agent's scan as a binary frame ("PDW1").
REC="$LOGS/records.bin"
ctype="$(curl -fs -o "$REC" -w '%{content_type}' \
  -H 'Accept: application/x-pathdump-wire' "$A/query" \
  -d '{"host":0,"query":{"op":"records","link":{"A":65535,"B":65535}}}')"
[ "$ctype" = "application/x-pathdump-wire" ] \
  || { echo "FAIL: records query answered '$ctype', want a wire frame"; exit 1; }
[ "$(head -c 4 "$REC")" = "PDW1" ] && [ "$(wc -c <"$REC")" -gt 100 ] \
  || { echo "FAIL: records reply is not a populated PDW1 frame"; exit 1; }
echo "records query streamed a $(wc -c <"$REC")-byte wire frame"

echo
echo "== 2. hedged query beats the slow-first-only host (hosts 4,5) =="
start=$(date +%s)
out="$("$BIN/pathdumpctl" -agents "4=$C,5=$C" \
  -hedge-after 1s -timeout 30s -trace topk -k 5)"
took=$(( $(date +%s) - start ))
echo "$out"
echo "(took ${took}s wall-clock)"
grep -q "(2 hosts answered, 0 skipped, 1 hedged, partial=false" <<<"$out" \
  || { echo "FAIL: hedged query did not report full data + one hedge"; exit 1; }
# -trace prints the query's span tree; the hedge must show up as its own
# labelled span under the stalled host's rpc span.
grep -qE "^query trace=[0-9a-f]{16} op=topk" <<<"$out" \
  || { echo "FAIL: -trace printed no query span"; exit 1; }
grep -qE "^ +hedge host=h5" <<<"$out" \
  || { echo "FAIL: -trace did not label the hedged request's span"; exit 1; }
grep -qE "^ +scan .*records=" <<<"$out" \
  || { echo "FAIL: -trace carried no agent-side scan spans"; exit 1; }
# ~1 hedged round trip: the 60s stall must not show up in the wall clock.
[ "$took" -le 15 ] || { echo "FAIL: hedged query took ${took}s"; exit 1; }

echo
echo "== 3. -partial deadline run against the always-slow host (hosts 0,1,2,3) =="
start=$(date +%s)
out="$("$BIN/pathdumpctl" -agents "0=$A,1=$A,2=$B,3=$B" \
  -timeout 5s -partial topk -k 5)"
took=$(( $(date +%s) - start ))
echo "$out"
echo "(took ${took}s wall-clock)"
grep -q "partial=true" <<<"$out" \
  || { echo "FAIL: deadline run not marked partial"; exit 1; }
grep -qE "\([12] hosts answered, [23] skipped" <<<"$out" \
  || { echo "FAIL: partial run host accounting wrong"; exit 1; }
[ "$took" -le 20 ] || { echo "FAIL: partial run took ${took}s"; exit 1; }

echo
echo "== 4. without -partial the same deadline run fails loudly =="
if out="$("$BIN/pathdumpctl" -agents "0=$A,1=$A,2=$B,3=$B" \
    -timeout 5s topk -k 5 2>&1)"; then
  echo "$out"
  echo "FAIL: deadline run without -partial exited 0"
  exit 1
fi
grep -q "deadline exceeded" <<<"$out" \
  || { echo "FAIL: expected a deadline error, got: $out"; exit 1; }
echo "failed as expected: $(tail -n 1 <<<"$out")"

echo
echo "== 5. snapshot pull from a live daemon + offline query on the restore =="
SNAP="$LOGS/host0.tib"
out="$("$BIN/pathdumpctl" -agents "0=$A" -timeout 10s -pull-snapshot "$SNAP")"
echo "$out"
grep -qE "pulled [1-9][0-9]* snapshot bytes" <<<"$out" \
  || { echo "FAIL: snapshot pull reported no bytes"; exit 1; }
[ -s "$SNAP" ] || { echo "FAIL: snapshot file empty"; exit 1; }

boot_daemon d pathdumpd -host 0 -listen "127.0.0.1:$PORT_D" -tib "$SNAP"
wait_ready "http://127.0.0.1:$PORT_D"
grep -qE "snapshot .* [1-9][0-9]* TIB records in [1-9][0-9]* segments" "$LOGS/d.log" \
  || { echo "FAIL: snapshot daemon loaded no records/segments"; exit 1; }

out="$("$BIN/pathdumpctl" -agents "0=http://127.0.0.1:$PORT_D" -timeout 10s topk -k 5)"
echo "$out"
grep -q "^#1 " <<<"$out" || { echo "FAIL: offline top-k returned no rows"; exit 1; }
grep -q "(1 hosts answered, 0 skipped" <<<"$out" \
  || { echo "FAIL: offline query stats line wrong"; exit 1; }
# Live and restored answers agree on the top flow. (Capture first, then
# head: piping the CLI straight into head would SIGPIPE it under
# pipefail once head closes its end.)
live_out="$("$BIN/pathdumpctl" -agents "0=$A" -timeout 10s topk -k 1)"
live_top="$(head -n 1 <<<"$live_out")"
snap_top="$(head -n 1 <<<"$out")"
[ "$live_top" = "$snap_top" ] \
  || { echo "FAIL: top flow differs: live '$live_top' vs snapshot '$snap_top'"; exit 1; }

echo
echo "== 6. continuous monitoring: install TCP monitor, dedup at the controller, -watch =="
boot_daemon e pathdumpc -listen "127.0.0.1:$PORT_E" -suppress 60s -log-alarms
boot_daemon f pathdumpd -hosts 6,7 -listen "127.0.0.1:$PORT_F" \
  -controller "http://127.0.0.1:$PORT_E" -inject-poor-flow -trigger-every 100ms
E="http://127.0.0.1:$PORT_E"
F="http://127.0.0.1:$PORT_F"
wait_ready "$E"
wait_ready "$F"

out="$("$BIN/pathdumpctl" -agents "6=$F,7=$F" -timeout 10s \
  install -op poor_tcp -threshold 3 -period 200ms)"
echo "$out"
grep -q "host h6" <<<"$out" || { echo "FAIL: install reported no id for host 6"; exit 1; }

# The monitor fires every 200 ms of daemon virtual time (pumped from wall
# time); wait until the controller has folded several repeats.
folded=0
for _ in $(seq 1 50); do
  out="$("$BIN/pathdumpctl" -controller "$E" -alarms -reason POOR_PERF)"
  if grep -qE "x([3-9]|[0-9]{2,}) at" <<<"$out"; then
    folded=1
    break
  fi
  sleep 0.2
done
echo "$out"
[ "$folded" -eq 1 ] || { echo "FAIL: controller never folded repeated POOR_PERF firings"; exit 1; }
# Exactly one deduped entry: the wedged flow fires every period but the
# suppression window folds every repeat into entry #1.
count="$(grep -c "POOR_PERF" <<<"$out" || true)"
[ "$count" -eq 1 ] || { echo "FAIL: $count POOR_PERF history entries, want 1 (dedup broken)"; exit 1; }
grep -qE "\(1 shown; pipeline: [0-9]+ received, 1 admitted, [1-9][0-9]* suppressed" <<<"$out" \
  || { echo "FAIL: pipeline stats line wrong"; exit 1; }

# The live stream replays the same single deduped entry and nothing else.
out="$("$BIN/pathdumpctl" -controller "$E" -watch -since 0 -watch-for 3s)"
echo "$out"
count="$(grep -c "POOR_PERF" <<<"$out" || true)"
[ "$count" -eq 1 ] || { echo "FAIL: -watch saw $count POOR_PERF alarms, want exactly 1"; exit 1; }

echo
echo "== 7. curl equivalence: a plain JSON POST sees what pathdumpctl prints =="
# PORT_D (scenario 5) serves the pulled snapshot. pathdumpctl speaks the
# binary wire protocol to it; curl sends a JSON body with no Accept
# header and is answered in JSON — same rows, same order. The request
# names no host: a daemon of one resolves it to its only agent.
D="http://127.0.0.1:$PORT_D"
ctl="$("$BIN/pathdumpctl" -agents "0=$D" -timeout 10s topk -k 5)"
echo "$ctl"
grep -q "^#1 " <<<"$ctl" || { echo "FAIL: wire query returned no rows"; exit 1; }
raw="$(curl -fs "$D/query" -d '{"query":{"op":"topk","k":5}}')"
ctl_bytes="$(grep '^#' <<<"$ctl" | awk '{print $(NF-1)}' | xargs)"
raw_bytes="$(grep -o '"bytes":[0-9]*' <<<"$raw" | cut -d: -f2 | xargs)"
[ -n "$raw_bytes" ] && [ "$ctl_bytes" = "$raw_bytes" ] \
  || { echo "FAIL: curl JSON top-k '$raw_bytes' differs from pathdumpctl '$ctl_bytes'"; exit 1; }
echo "curl JSON reply carries the same top-k rows"

echo
echo "== 8. impairment to alarm: -impair wedges a rack, monitor raises POOR_PERF =="
# Switch IDs in the daemon's 4-ary fat tree: ToR 0 serves hosts 0,1 and
# uplinks to aggregation switches 8 and 9. 100% loss on both uplinks
# wedges every inter-rack flow the demo workload starts at that rack, so
# an installed TCP monitor keeps reporting the stuck senders and the
# controller folds the repeats.
boot_daemon h pathdumpc -listen "127.0.0.1:$PORT_H" -suppress 60s -log-alarms
boot_daemon i pathdumpd -hosts 0,1 -listen "127.0.0.1:$PORT_I" -demo \
  -impair "0-8:loss=1;0-9:loss=1" \
  -controller "http://127.0.0.1:$PORT_H" -trigger-every 100ms
H="http://127.0.0.1:$PORT_H"
I="http://127.0.0.1:$PORT_I"
wait_ready "$H"
wait_ready "$I" 150 # demo workload again
grep -q "2 link impairments injected" "$LOGS/i.log" \
  || { echo "FAIL: daemon did not report the injected impairments"; exit 1; }

out="$("$BIN/pathdumpctl" -agents "0=$I,1=$I" -timeout 10s \
  install -op poor_tcp -threshold 3 -period 200ms)"
echo "$out"
grep -q "host h0" <<<"$out" || { echo "FAIL: install reported no id for host 0"; exit 1; }

# Wait until the impairment-wedged flows surface as folded POOR_PERF
# alarms at the controller.
folded=0
for _ in $(seq 1 50); do
  out="$("$BIN/pathdumpctl" -controller "$H" -alarms -reason POOR_PERF)"
  if grep -qE "x([2-9]|[0-9]{2,}) at" <<<"$out"; then
    folded=1
    break
  fi
  sleep 0.2
done
# The wedged rack produces many distinct poor flows; show the pipeline
# summary rather than hundreds of entries.
echo "POOR_PERF entries: $(grep -c POOR_PERF <<<"$out" || true)"
tail -n 1 <<<"$out"
[ "$folded" -eq 1 ] || { echo "FAIL: impaired rack never produced folded POOR_PERF alarms"; exit 1; }
# Suppression must be doing real work: repeats folded, none slipping
# through as extra admissions.
grep -qE "pipeline: [0-9]+ received, [0-9]+ admitted, [1-9][0-9]* suppressed" <<<"$out" \
  || { echo "FAIL: impairment alarms not suppressed/folded"; exit 1; }

echo
echo "== 9. observability plane: /metrics covers all three planes, /healthz is structured =="
# Daemon A has served the demo workload and several real queries by now;
# its exposition must carry the agent datapath, the TIB store, and the
# rpc middleware's per-op traffic.
metrics="$(curl -fs "$A/metrics")"
for series in \
  'pathdump_agent_packets_seen\{host="0"\} [1-9]' \
  'pathdump_agent_records_stored\{host="0"\} [1-9]' \
  'pathdump_tib_records\{host="0"\} [1-9]' \
  'pathdump_tib_segments\{host="0"\} [1-9]' \
  'pathdump_rpc_requests_total\{op="query",enc="wire"\} [1-9]' \
  'pathdump_rpc_request_seconds_count\{op="query"\} [1-9]' \
  'pathdump_rpc_response_bytes_sum\{op="query"\} [1-9]'; do
  grep -qE "^$series" <<<"$metrics" \
    || { echo "FAIL: pathdumpd /metrics missing/zero: $series"; exit 1; }
done
echo "pathdumpd exposes $(grep -c '^pathdump_' <<<"$metrics") pathdump_* series (agent, tib, rpc planes OK)"

# The alarm-plane controller: alarm pipeline gauges fed by scenario 6's
# POOR_PERF storm, controller-plane series registered, rpc plane counting
# the /alarm ingest posts.
metrics="$(curl -fs "$E/metrics")"
for series in \
  'pathdump_alarms_received [1-9]' \
  'pathdump_alarms_admitted [1-9]' \
  'pathdump_alarms_suppressed [1-9]' \
  'pathdump_controller_queries_total [0-9]' \
  'pathdump_rpc_requests_total\{op="alarm",enc="json"\} [1-9]'; do
  grep -qE "^$series" <<<"$metrics" \
    || { echo "FAIL: pathdumpc /metrics missing/zero: $series"; exit 1; }
done
echo "pathdumpc exposes the controller plane + alarm pipeline (rpc ingest counted)"

# Structured health on both daemon flavours.
curl -fs "$A/healthz" | grep -q '"status":"ok"' \
  || { echo "FAIL: pathdumpd /healthz not ok"; exit 1; }
curl -fs "$A/healthz" | grep -qE '"records":[1-9]' \
  || { echo "FAIL: pathdumpd /healthz reports no records"; exit 1; }
curl -fs "$E/healthz" | grep -q '"status":"ok"' \
  || { echo "FAIL: pathdumpc /healthz not ok"; exit 1; }

echo
echo "e2e smoke: PASS"
