#!/usr/bin/env bash
# Server smoke test: generate a dataset, cold-start fastmatchd from a
# binary snapshot, run scripted queries, and assert on the responses;
# then exercise the live-ingestion path end to end (stream rows into an
# ingest-backed table, query mid-ingest, wait for a persisted segment
# file, kill -9 the daemon, restart, and assert the segment files plus
# the WAL replay answer byte for byte as before the kill).
# Used by CI and runnable locally: ./scripts/server_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${SMOKE_PORT:-18080}"
BASE="http://127.0.0.1:${PORT}"
TMP="$(mktemp -d)"
PID=""
SPIDS=""
cleanup() {
  for p in $PID $SPIDS; do kill "$p" 2>/dev/null || true; done
  rm -rf "$TMP"
}
trap cleanup EXIT

wait_url() { # $1 = base URL, $2 = pid
  for i in $(seq 1 100); do
    if curl -fsS "$1/v1/healthz" >/dev/null 2>&1; then return 0; fi
    if ! kill -0 "$2" 2>/dev/null; then echo "fastmatchd died during startup" >&2; exit 1; fi
    sleep 0.1
  done
  curl -fsS "$1/v1/healthz" >/dev/null
}

wait_healthy() { wait_url "$BASE" "$PID"; }

echo "== building"
go build -o "$TMP/datagen" ./cmd/datagen
go build -o "$TMP/fastmatchd" ./cmd/fastmatchd

echo "== generating flights dataset + snapshot"
"$TMP/datagen" -dataset flights -rows 100000 -out "" -snapshot "$TMP/flights.fms"

echo "== starting fastmatchd (same snapshot on the inmem and mmap backends, plus a throttled copy; flights shadow-audits every sampling answer)"
"$TMP/fastmatchd" -listen "127.0.0.1:${PORT}" \
  -table "flights=$TMP/flights.fms?audit=1" \
  -table "flightsmm=$TMP/flights.fms?backend=mmap" \
  -table "flightsslow=$TMP/flights.fms?blockdelay=2ms" &
PID=$!
wait_healthy
curl -fsS "$BASE/v1/healthz" | grep -q '"status":"ok"' || { echo "healthz not ok" >&2; exit 1; }

echo "== /v1/tables lists the dataset"
TABLES="$(curl -fsS "$BASE/v1/tables")"
echo "$TABLES" | grep -q '"name":"flights"' || { echo "flights table missing: $TABLES" >&2; exit 1; }
echo "$TABLES" | grep -q '"rows":100000'   || { echo "wrong row count: $TABLES" >&2; exit 1; }

QUERY='{"table":"flights","query":{"z":"Origin","x":["DepartureHour"]},"target":{"uniform":true},"options":{"k":3,"executor":"scanmatch","epsilon":0.1,"seed":7}}'

echo "== scripted query returns a top-k answer"
R1="$(curl -fsS -X POST "$BASE/v1/query" -d "$QUERY")"
echo "$R1" | grep -q '"topk":\[{"id":'   || { echo "no topk in: $R1" >&2; exit 1; }
echo "$R1" | grep -q '"label":"Origin_' || { echo "no candidate labels in: $R1" >&2; exit 1; }
echo "$R1" | grep -q '"cached":false'   || { echo "first query unexpectedly cached: $R1" >&2; exit 1; }

echo "== identical query hits the result cache with identical payload"
R2="$(curl -fsS -X POST "$BASE/v1/query" -d "$QUERY")"
echo "$R2" | grep -q '"cached":true' || { echo "second query not cached: $R2" >&2; exit 1; }
P1="$(printf '%s' "$R1" | sed 's/.*"result"://')"
P2="$(printf '%s' "$R2" | sed 's/.*"result"://')"
[ "$P1" = "$P2" ] || { echo "cached payload differs from live payload" >&2; exit 1; }

echo "== /v1/stats reports the cache hit"
STATS="$(curl -fsS "$BASE/v1/stats")"
echo "$STATS" | grep -q '"result_cache_hits":1' || { echo "stats missing cache hit: $STATS" >&2; exit 1; }

echo "== a query without an executor answers exactly (auto resolves to scan); explicit fastmatch still samples"
AQUERY='{"table":"flights","query":{"z":"Origin","x":["DepartureHour"]},"target":{"uniform":true},"options":{"k":3,"epsilon":0.3,"sigma":0.02,"seed":41}}'
RA="$(curl -fsS -X POST "$BASE/v1/query" -d "$AQUERY")"
echo "$RA" | grep -q '"exact":true' || { echo "default executor answer not exact: $RA" >&2; exit 1; }
EA="$(curl -fsS -X POST "$BASE/v1/explain" -d "$AQUERY")"
echo "$EA" | grep -q '"executor":"Scan"' || { echo "explain does not resolve auto to Scan: $EA" >&2; exit 1; }
echo "$EA" | grep -q '"auto":{"need":'   || { echo "explain carries no auto decision: $EA" >&2; exit 1; }
FQUERY="$(printf '%s' "$AQUERY" | sed 's/"options":{/"options":{"executor":"fastmatch",/')"
RF="$(curl -fsS -X POST "$BASE/v1/query" -d "$FQUERY")"
echo "$RF" | grep -q '"exact":false' || { echo "explicit fastmatch answer not sampled: $RF" >&2; exit 1; }

echo "== on the idle daemon an exact query that names no executor reads on every core; \"workers\":1 reads on one, with identical bytes"
NPROC="$(nproc)"
WQUERY="$(printf '%s' "$AQUERY" | sed 's/^{/{"trace":true,/; s/"seed":41/"seed":43/')"
WONEQUERY="$(printf '%s' "$WQUERY" | sed 's/"options":{/"options":{"workers":1,/')"
RWN="$(curl -fsS -X POST "$BASE/v1/query" -d "$WQUERY")"
RWONE="$(curl -fsS -X POST "$BASE/v1/query" -d "$WONEQUERY")"
printf '%s' "$RWN" | grep -q "\"executor\":\"Scan\",\"workers\":$NPROC[,}]" || { echo "idle daemon's exact query did not read on $NPROC workers: $RWN" >&2; exit 1; }
printf '%s' "$RWONE" | grep -q '"executor":"Scan","workers":1[,}]' || { echo "\"workers\":1 was not honoured: $RWONE" >&2; exit 1; }
PWN="$(printf '%s' "$RWN" | sed 's/.*"result"://')"
PWONE="$(printf '%s' "$RWONE" | sed 's/.*"result"://')"
[ "$PWN" = "$PWONE" ] || { echo "$NPROC-worker answer differs from one worker's" >&2; echo "all: $PWN" >&2; echo "one: $PWONE" >&2; exit 1; }

echo "== mmap-backed table answers the same query identically"
MMQUERY="$(printf '%s' "$QUERY" | sed 's/"table":"flights"/"table":"flightsmm"/')"
R3="$(curl -fsS -X POST "$BASE/v1/query" -d "$MMQUERY")"
P3="$(printf '%s' "$R3" | sed 's/.*"result"://')"
[ "$P1" = "$P3" ] || { echo "mmap backend result differs from in-memory backend" >&2; echo "inmem: $P1" >&2; echo "mmap:  $P3" >&2; exit 1; }

echo "== /v1/tables and /v1/stats report the mmap backend"
TABLES="$(curl -fsS "$BASE/v1/tables")"
echo "$TABLES" | grep -q '"name":"flightsmm"' || { echo "flightsmm table missing: $TABLES" >&2; exit 1; }
echo "$TABLES" | grep -Eq '"backend":"mmap(-fallback)?"' || { echo "mmap backend not reported: $TABLES" >&2; exit 1; }
echo "$TABLES" | grep -q '"backend":"inmem"' || { echo "inmem backend not reported: $TABLES" >&2; exit 1; }
STATS="$(curl -fsS "$BASE/v1/stats")"
echo "$STATS" | grep -Eq '"backend":"mmap(-fallback)?"' || { echo "stats missing mmap backend: $STATS" >&2; exit 1; }

echo "== predicate-carrying query skips blocks via zone-map stats, visible in IOStats and /v1/stats"
LABEL="$(printf '%s' "$R1" | grep -o '"label":"[^"]*"' | head -1 | cut -d'"' -f4)"
PQUERY="{\"table\":\"flights\",\"query\":{\"candidate_preds\":[{\"column\":\"Origin\",\"value\":\"$LABEL\"}],\"x\":[\"DepartureHour\"]},\"target\":{\"uniform\":true},\"options\":{\"k\":1,\"executor\":\"scan\",\"seed\":7}}"
R4="$(curl -fsS -X POST "$BASE/v1/query" -d "$PQUERY")"
echo "$R4" | grep -q '"label":"Origin='             || { echo "predicate candidate missing from: $R4" >&2; exit 1; }
echo "$R4" | grep -Eq '"blocks_skipped":[1-9]'       || { echo "predicate query skipped no blocks: $R4" >&2; exit 1; }
echo "$R4" | grep -Eq '"blocks_pruned":[1-9]'        || { echo "predicate query pruned no blocks: $R4" >&2; exit 1; }
echo "$R4" | grep -Eq '"blocks_read":[1-9]'          || { echo "predicate query read no blocks: $R4" >&2; exit 1; }
FSTATS="$(curl -fsS "$BASE/v1/stats" | sed 's/.*"flights"://')"
printf '%s' "$FSTATS" | grep -Eq '"blocks_pruned":[1-9]' || { echo "/v1/stats missing pruned blocks: $FSTATS" >&2; exit 1; }
printf '%s' "$FSTATS" | grep -Eq '"blocks_read":[1-9]'   || { echo "/v1/stats missing blocks read: $FSTATS" >&2; exit 1; }

echo "== /metrics exposes Prometheus text, with the pruning counters ticked"
METRICS="$(curl -fsS "$BASE/metrics")"
printf '%s\n' "$METRICS" | grep -q '^# TYPE fastmatch_requests_total counter' || { echo "/metrics missing requests_total family" >&2; exit 1; }
printf '%s\n' "$METRICS" | grep -q '^# TYPE fastmatch_request_duration_seconds histogram' || { echo "/metrics missing latency histogram" >&2; exit 1; }
printf '%s\n' "$METRICS" | grep -Eq '^fastmatch_requests_total\{table="flights",outcome="ok"\} [1-9]' || { echo "/metrics missing ok requests for flights" >&2; exit 1; }
printf '%s\n' "$METRICS" | grep -Eq '^fastmatch_blocks_pruned_total\{table="flights"\} [1-9]' || { echo "/metrics shows no pruned blocks after predicate query" >&2; exit 1; }
printf '%s\n' "$METRICS" | grep -Eq '^fastmatch_result_cache_hits_total\{table="flights"\} [1-9]' || { echo "/metrics missing cache hit" >&2; exit 1; }

echo "== syncmatch with workers=4 is a cache hit on workers=1, with identical result bytes"
W1QUERY='{"table":"flights","query":{"z":"Origin","x":["DepartureHour"]},"target":{"uniform":true},"options":{"k":3,"executor":"syncmatch","epsilon":0.1,"seed":13,"workers":1}}'
W4QUERY="$(printf '%s' "$W1QUERY" | sed 's/"workers":1/"workers":4/')"
RW1="$(curl -fsS -X POST "$BASE/v1/query" -d "$W1QUERY")"
RW4="$(curl -fsS -X POST "$BASE/v1/query" -d "$W4QUERY")"
echo "$RW4" | grep -q '"cached":true' || { echo "workers=4 missed the cache (workers is inert for sampling executors): $RW4" >&2; exit 1; }
PW1="$(printf '%s' "$RW1" | sed 's/.*"result"://')"
PW4="$(printf '%s' "$RW4" | sed 's/.*"result"://')"
[ "$PW1" = "$PW4" ] || { echo "workers=4 result differs from workers=1" >&2; echo "w1: $PW1" >&2; echo "w4: $PW4" >&2; exit 1; }

echo "== traced query returns a span tree with the same result bytes; its query record carries it"
TQUERY="$(printf '%s' "$QUERY" | sed 's/^{/{"trace":true,/')"
RT="$(curl -fsS -D "$TMP/traced.headers" -X POST "$BASE/v1/query" -d "$TQUERY")"
TID="$(grep -i '^x-query-id:' "$TMP/traced.headers" | cut -d' ' -f2 | tr -d '\r')"
[ -n "$TID" ] || { echo "traced response carries no X-Query-ID" >&2; exit 1; }
echo "$RT" | grep -q '"trace":{'      || { echo "no trace in traced response: $RT" >&2; exit 1; }
echo "$RT" | grep -q '"name":"run"'   || { echo "no run span in trace: $RT" >&2; exit 1; }
echo "$RT" | grep -q '"cached":false' || { echo "traced request served from cache: $RT" >&2; exit 1; }
PT="$(printf '%s' "$RT" | sed 's/.*"result"://')"
[ "$P1" = "$PT" ] || { echo "traced result differs from untraced" >&2; echo "plain:  $P1" >&2; echo "traced: $PT" >&2; exit 1; }
DT="$(curl -fsS "$BASE/v1/debug/queries/$TID")"
echo "$DT" | grep -q "\"query_id\":\"$TID\"" || { echo "query record is not the traced request's: $DT" >&2; exit 1; }
echo "$DT" | grep -q '"name":"run"'             || { echo "query record has no run span: $DT" >&2; exit 1; }
curl -fsS "$BASE/v1/debug/queries?order=slowest" | grep -q '"query_id":' || { echo "slowest query view empty" >&2; exit 1; }
curl -fsS "$BASE/healthz" | grep -q '"table_status":' || { echo "healthz missing table_status" >&2; exit 1; }

echo "== quality-requesting query is a cache hit that returns the run's convergence report next to identical result bytes"
QQUERY="$(printf '%s' "$QUERY" | sed 's/^{/{"quality":true,/')"
RQ="$(curl -fsS -X POST "$BASE/v1/query" -d "$QQUERY")"
echo "$RQ" | grep -q '"quality":{'           || { echo "no quality report in: $RQ" >&2; exit 1; }
echo "$RQ" | grep -q '"guarantee_met":true'  || { echo "quality report does not claim the guarantee: $RQ" >&2; exit 1; }
echo "$RQ" | grep -Eq '"rounds":[0-9]'       || { echo "quality report missing rounds: $RQ" >&2; exit 1; }
echo "$RQ" | grep -q '"cached":true'         || { echo "quality request missed the result cache: $RQ" >&2; exit 1; }
PQ="$(printf '%s' "$RQ" | sed 's/.*"result"://')"
[ "$P1" = "$PQ" ] || { echo "cached quality answer differs from the run's result bytes" >&2; echo "plain:   $P1" >&2; echo "quality: $PQ" >&2; exit 1; }

echo "== shadow audits (audit=1 on flights) land in the audited query's record and /metrics"
AUDITED=""
for i in $(seq 1 50); do
  DQ="$(curl -fsS "$BASE/v1/debug/queries/$TID")"
  if printf '%s' "$DQ" | grep -q '"precision_at_k":'; then AUDITED=yes; break; fi
  sleep 0.1
done
[ -n "$AUDITED" ] || { echo "no audit verdict in the record of query $TID: $DQ" >&2; exit 1; }
printf '%s' "$DQ" | grep -q '"audit":{'    || { echo "query record has no audit: $DQ" >&2; exit 1; }
printf '%s' "$DQ" | grep -q '"quality":{'  || { echo "query record has no quality report: $DQ" >&2; exit 1; }
METRICS="$(curl -fsS "$BASE/metrics")"
printf '%s\n' "$METRICS" | grep -Eq '^fastmatch_audit_runs_total\{table="flights"\} [1-9]' || { echo "/metrics shows no audit runs" >&2; exit 1; }
printf '%s\n' "$METRICS" | grep -Eq '^fastmatch_audit_precision_at_k_count\{table="flights"\} [1-9]' || { echo "/metrics missing audit precision histogram" >&2; exit 1; }
printf '%s\n' "$METRICS" | grep -Eq '^fastmatch_quality_rounds_count\{table="flights"\} [1-9]' || { echo "/metrics missing quality rounds histogram" >&2; exit 1; }
FSTATS="$(curl -fsS "$BASE/v1/stats" | sed 's/.*"flights"://')"
printf '%s' "$FSTATS" | grep -Eq '"audit_runs":[1-9]' || { echo "/v1/stats missing audit runs: $FSTATS" >&2; exit 1; }

echo "== /v1/query/stream: progress frames precede a result byte-identical to the blocking answer"
SQUERY='{"table":"flights","query":{"z":"Origin","x":["DepartureHour"]},"target":{"uniform":true},"options":{"k":3,"executor":"scanmatch","epsilon":0.1,"seed":21}}'
STREAM="$(curl -fsS -N -X POST "$BASE/v1/query/stream" -d "$SQUERY")"
NFRAMES="$(printf '%s\n' "$STREAM" | grep -c '"type":')"
[ "$NFRAMES" -ge 2 ] || { echo "stream produced $NFRAMES frames, want >= 2: $STREAM" >&2; exit 1; }
printf '%s\n' "$STREAM" | head -1 | grep -q '"type":"progress"' || { echo "first frame not progress: $STREAM" >&2; exit 1; }
printf '%s\n' "$STREAM" | head -1 | grep -q '"query_id":"' || { echo "start frame carries no query_id: $STREAM" >&2; exit 1; }
printf '%s\n' "$STREAM" | head -n -1 | grep -q '"type":"result"' && { echo "result frame before the end of the stream" >&2; exit 1; }
LAST="$(printf '%s\n' "$STREAM" | tail -1)"
printf '%s' "$LAST" | grep -q '"type":"result"' || { echo "terminal frame not a result: $LAST" >&2; exit 1; }
SP="$(printf '%s' "$LAST" | sed 's/.*"result"://')"
RB="$(curl -fsS -X POST "$BASE/v1/query" -d "$SQUERY")"
echo "$RB" | grep -q '"cached":true' || { echo "blocking repeat of streamed query not served from cache: $RB" >&2; exit 1; }
PB="$(printf '%s' "$RB" | sed 's/.*"result"://')"
[ "$SP" = "$PB" ] || { echo "streamed result differs from blocking result" >&2; echo "stream:   $SP" >&2; echo "blocking: $PB" >&2; exit 1; }

echo "== row budget answers 200 with a partial result (and is not cached)"
BQUERY='{"table":"flightsslow","query":{"z":"Origin","x":["DepartureHour"]},"target":{"uniform":true},"options":{"k":3,"executor":"scan","seed":7,"row_budget":2000}}'
RP="$(curl -fsS -X POST "$BASE/v1/query" -d "$BQUERY")"
echo "$RP" | grep -q '"partial":true' || { echo "budgeted run not flagged partial: $RP" >&2; exit 1; }
RP2="$(curl -fsS -X POST "$BASE/v1/query" -d "$BQUERY")"
echo "$RP2" | grep -q '"cached":false' || { echo "partial result was cached: $RP2" >&2; exit 1; }

echo "== killed stream client cancels the scan (canceled counter, IOStats frozen)"
KQUERY='{"table":"flightsslow","query":{"z":"Origin","x":["DepartureHour"]},"target":{"uniform":true},"options":{"k":3,"executor":"scan","seed":9}}'
curl -sN --max-time 0.4 -X POST "$BASE/v1/query/stream" -d "$KQUERY" >/dev/null 2>&1 || true
CANCELED=""
for i in $(seq 1 50); do
  SLOWSTATS="$(curl -fsS "$BASE/v1/stats" | sed 's/.*"flightsslow"://')"
  if printf '%s' "$SLOWSTATS" | grep -o '"canceled":[0-9]*' | head -1 | grep -qv '"canceled":0'; then CANCELED=yes; break; fi
  sleep 0.1
done
[ -n "$CANCELED" ] || { echo "canceled counter never ticked: $SLOWSTATS" >&2; exit 1; }
IO1="$(curl -fsS "$BASE/v1/stats" | sed 's/.*"flightsslow"://' | grep -o '"tuples_read":[0-9]*' | head -1)"
sleep 0.6
IO2="$(curl -fsS "$BASE/v1/stats" | sed 's/.*"flightsslow"://' | grep -o '"tuples_read":[0-9]*' | head -1)"
[ "$IO1" = "$IO2" ] || { echo "IOStats still growing after client kill: $IO1 -> $IO2" >&2; exit 1; }

echo "== malformed requests are rejected cleanly"
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/query" -d '{"table":"flights","query":{"z":"Origin","x":["DepartureHour"]},"target":{"uniform":true},"options":{"epsilon":-1}}')"
[ "$CODE" = "422" ] || { echo "invalid epsilon returned $CODE, want 422" >&2; exit 1; }
curl -fsS "$BASE/v1/healthz" >/dev/null || { echo "server unhealthy after bad request" >&2; exit 1; }

echo "== restarting with a live ingest-backed table"
kill "$PID" && wait "$PID" 2>/dev/null || true
LIVEDIR="$TMP/livedir"
start_live() {
  "$TMP/fastmatchd" -listen "127.0.0.1:${PORT}" -admin \
    -table "live=$LIVEDIR?backend=ingest&columns=Origin,Dest,DepartureHour,DayOfWeek,DayOfMonth,DepDelayBin,ArrDelayBin&seal=4096" &
  PID=$!
  wait_healthy
}
start_live

echo "== streaming generated rows into the live table"
"$TMP/datagen" -dataset flights -rows 20000 -out "" \
  -stream "$BASE/v1/tables/live/rows" -stream-batch 2000 2>/dev/null
TABLES="$(curl -fsS "$BASE/v1/tables")"
echo "$TABLES" | grep -q '"rows":20000'        || { echo "ingest row count wrong: $TABLES" >&2; exit 1; }
echo "$TABLES" | grep -q '"backend":"ingest"'  || { echo "ingest backend not reported: $TABLES" >&2; exit 1; }
echo "$TABLES" | grep -q '"appended_rows":20000' || { echo "ingest stats missing: $TABLES" >&2; exit 1; }

echo "== querying mid-ingest (append more while a query round-trips)"
LIVEQ='{"table":"live","query":{"z":"Origin","x":["DepartureHour"]},"target":{"uniform":true},"options":{"k":3,"executor":"scan","seed":7}}'
curl -fsS -X POST "$BASE/v1/tables/live/rows" -H 'Content-Type: text/csv' \
  --data-binary $'Origin,Dest,DepartureHour,DayOfWeek,DayOfMonth,DepDelayBin,ArrDelayBin\nOrigin_1,Dest_2,DepartureHour_3,DayOfWeek_4,DayOfMonth_5,DepDelayBin_6,ArrDelayBin_7\n' >/dev/null
R5="$(curl -fsS -X POST "$BASE/v1/query" -d "$LIVEQ")"
echo "$R5" | grep -q '"tuples_read":20001' || { echo "live scan did not see appended row: $R5" >&2; exit 1; }
R6="$(curl -fsS -X POST "$BASE/v1/query" -d "$LIVEQ")"
echo "$R6" | grep -q '"cached":true' || { echo "same-generation repeat not cached: $R6" >&2; exit 1; }

echo "== waiting (at most 5 s) for the compactor to persist a segment file"
for _ in $(seq 1 50); do
  curl -fsS "$BASE/v1/tables" | grep -q '"segment_files":[1-9]' && break
  sleep 0.1
done
TABLES="$(curl -fsS "$BASE/v1/tables")"
echo "$TABLES" | grep -q '"segment_files":[1-9]' || { echo "no segment file persisted within 5 s: $TABLES" >&2; exit 1; }

echo "== kill -9 and restart: segment files plus WAL replay must recover every acked row"
kill -9 "$PID"; wait "$PID" 2>/dev/null || true
sleep 0.3
start_live
TABLES="$(curl -fsS "$BASE/v1/tables")"
echo "$TABLES" | grep -q '"rows":20001' || { echo "post-replay row count wrong: $TABLES" >&2; exit 1; }
R7="$(curl -fsS -X POST "$BASE/v1/query" -d "$LIVEQ")"
echo "$R7" | grep -q '"tuples_read":20001' || { echo "post-replay scan wrong: $R7" >&2; exit 1; }
P5="$(printf '%s' "$R5" | sed 's/.*"result"://')"
P7="$(printf '%s' "$R7" | sed 's/.*"result"://')"
[ "$P5" = "$P7" ] || { echo "post-restart result differs from pre-kill result:
pre-kill:     $P5
post-restart: $P7" >&2; exit 1; }

echo "== admin unload drops the table; unknown unload is 404"
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/admin/unload" -d '{"name":"nosuch"}')"
[ "$CODE" = "404" ] || { echo "unload unknown returned $CODE, want 404" >&2; exit 1; }
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/admin/unload" -d '{"name":"live"}')"
[ "$CODE" = "200" ] || { echo "unload live returned $CODE, want 200" >&2; exit 1; }
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/query" -d "$LIVEQ")"
[ "$CODE" = "404" ] || { echo "query after unload returned $CODE, want 404" >&2; exit 1; }

echo "== cluster: sharding the flights snapshot and starting a 3-shard scatter-gather topology"
kill "$PID" 2>/dev/null && wait "$PID" 2>/dev/null || true
"$TMP/datagen" -dataset flights -rows 100000 -out "" -snapshot "$TMP/flights.fms" -shards 3
SP1=$((PORT+1)); SP2=$((PORT+2)); SP3=$((PORT+3)); SNP=$((PORT+4))
"$TMP/fastmatchd" -listen "127.0.0.1:${SP1}" -table "flights=$TMP/flights-shard0.fms" & S1=$!
"$TMP/fastmatchd" -listen "127.0.0.1:${SP2}" -table "flights=$TMP/flights-shard1.fms" & S2=$!
"$TMP/fastmatchd" -listen "127.0.0.1:${SP3}" -table "flights=$TMP/flights-shard2.fms" & S3=$!
"$TMP/fastmatchd" -listen "127.0.0.1:${SNP}" -table "flights=$TMP/flights.fms"        & SN=$!
SPIDS="$S1 $S2 $S3 $SN"
"$TMP/fastmatchd" -listen "127.0.0.1:${PORT}" -coordinator flights \
  -shard "a=http://127.0.0.1:${SP1}" \
  -shard "b=http://127.0.0.1:${SP2}" \
  -shard "c=http://127.0.0.1:${SP3}" &
PID=$!
for p in "$S1:$SP1" "$S2:$SP2" "$S3:$SP3" "$SN:$SNP" "$PID:$PORT"; do
  wait_url "http://127.0.0.1:${p#*:}" "${p%%:*}"
done

echo "== a coordinated scanmatch request is answered exactly: byte-identical to a single-node parallelscan"
CQUERY='{"table":"flights","query":{"z":"Origin","x":["DepartureHour"]},"target":{"uniform":true},"options":{"k":3,"executor":"scanmatch","epsilon":0.1,"seed":31}}'
CPSCAN="$(printf '%s' "$CQUERY" | sed 's/"executor":"scanmatch"/"executor":"parallelscan"/')"
RC="$(curl -fsS -X POST "$BASE/v1/query" -d "$CQUERY")"
RSN="$(curl -fsS -X POST "http://127.0.0.1:${SNP}/v1/query" -d "$CPSCAN")"
echo "$RC" | grep -q '"shards":\[' || { echo "coordinated reply carries no shard statuses: $RC" >&2; exit 1; }
echo "$RC" | grep -q '"exact":true' || { echo "coordinated answer is not exact: $RC" >&2; exit 1; }
PC="$(printf '%s' "$RC" | sed 's/.*"result"://')"
PSN="$(printf '%s' "$RSN" | sed 's/.*"result"://')"
[ "$PC" = "$PSN" ] || { echo "coordinated result differs from single node" >&2; echo "coord:  $PC" >&2; echo "single: $PSN" >&2; exit 1; }

echo "== exact scan agrees too, and the per-shard client counters tick"
CSCAN="$(printf '%s' "$CQUERY" | sed 's/"executor":"scanmatch"/"executor":"scan"/')"
RC2="$(curl -fsS -X POST "$BASE/v1/query" -d "$CSCAN")"
RSN2="$(curl -fsS -X POST "http://127.0.0.1:${SNP}/v1/query" -d "$CSCAN")"
PC2="$(printf '%s' "$RC2" | sed 's/.*"result"://')"
PSN2="$(printf '%s' "$RSN2" | sed 's/.*"result"://')"
[ "$PC2" = "$PSN2" ] || { echo "coordinated scan differs from single node" >&2; exit 1; }
CSTATS="$(curl -fsS "$BASE/v1/stats")"
echo "$CSTATS" | grep -q '"name":"b"' || { echo "coordinator stats missing shard b: $CSTATS" >&2; exit 1; }
CMETRICS="$(curl -fsS "$BASE/metrics")"
printf '%s\n' "$CMETRICS" | grep -Eq '^fastmatch_shard_requests_total\{table="flights",shard="a"\} [1-9]' || { echo "/metrics missing shard request counter" >&2; exit 1; }
printf '%s\n' "$CMETRICS" | grep -Eq '^fastmatch_shard_healthy\{table="flights",shard="c"\} 1' || { echo "/metrics missing healthy shard gauge" >&2; exit 1; }

echo "== kill -9 one shard: the coordinator degrades honestly instead of failing"
kill -9 "$S2"; wait "$S2" 2>/dev/null || true
DQUERY="$(printf '%s' "$CQUERY" | sed 's/"seed":31/"seed":37/')"
RD="$(curl -fsS -X POST "$BASE/v1/query" -d "$DQUERY")"
echo "$RD" | grep -q '"degraded":true'         || { echo "dead shard did not flag degraded: $RD" >&2; exit 1; }
echo "$RD" | grep -q '"missing_shards":\["b"\]' || { echo "missing shard not named: $RD" >&2; exit 1; }
echo "$RD" | grep -q '"partial":true'          || { echo "degraded answer not flagged partial: $RD" >&2; exit 1; }
CSTATS="$(curl -fsS "$BASE/v1/stats")"
echo "$CSTATS" | grep -Eq '"name":"b","url":[^}]*"errors":[1-9]' || { echo "stats missing shard-b failures: $CSTATS" >&2; exit 1; }
CMETRICS="$(curl -fsS "$BASE/metrics")"
printf '%s\n' "$CMETRICS" | grep -Eq '^fastmatch_shard_errors_total\{table="flights",shard="b"\} [1-9]' || { echo "/metrics missing shard error counter" >&2; exit 1; }
printf '%s\n' "$CMETRICS" | grep -Eq '^fastmatch_shard_healthy\{table="flights",shard="b"\} 0' || { echo "/metrics still reports dead shard healthy" >&2; exit 1; }

echo "server smoke OK"
