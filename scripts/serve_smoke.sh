#!/bin/sh
# serve_smoke.sh — end-to-end smoke of the serving path, in two acts.
#
# Act 1 (burst): boot hdserve on an ephemeral port over the generated
# serving database with always-on 1-in-2 trace sampling and OTLP/JSON file
# export, fire a short hdload burst at it, scrape /admin/metrics and
# validate the Prometheus exposition (including the sampling counters and at
# least one histogram-bucket exemplar annotation), check the OTel export
# file is non-empty valid JSON, and fail if any request came back non-2xx or
# the PlanCache hit rate over the burst was zero. The server runs with
# -slowquery-ms 1 so the slow-query JSON log is exercised too.
#
# Act 2 (churn): boot a second hdserve with the q-error feedback trigger
# armed, run hdload -churn against it — baseline load, skewed ingest into
# r4 via /admin/ingest, churn load whose sampled executions record inflated
# q-errors against the stale statistics, triggered refresh, settle load —
# and assert the loop closed: at least one refresh, a moved statistics
# fingerprint, and the median q-error back down, all without a restart.
#
# Exercised by `make serve-smoke` and CI.
set -eu

workdir="$(mktemp -d)"
server_pid=""
trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT INT TERM

echo "serve-smoke: building hdserve and hdload"
go build -o "$workdir/hdserve" ./cmd/hdserve
go build -o "$workdir/hdload" ./cmd/hdload

# wait_port <portfile>: block until hdserve writes its bound address.
wait_port() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "serve-smoke: hdserve never came up" >&2
            cat "$workdir/hdserve.log" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# ---- Act 1: burst, sampling, exemplars, OTel export ----

"$workdir/hdserve" -addr 127.0.0.1:0 -gen-rows 500 -gen-domain 200 \
    -slowquery-ms 1 -trace-sample 2 -otel-file "$workdir/otel.jsonl" \
    -portfile "$workdir/port" 2> "$workdir/hdserve.log" &
server_pid=$!

wait_port "$workdir/port"
addr="$(cat "$workdir/port")"
echo "serve-smoke: hdserve on $addr (1-in-2 sampling, OTel file export)"

"$workdir/hdload" -addr "$addr" -duration 5s -workers 4 -skew 1.2 \
    -mix full -timeout-ms 10000 -json "$workdir/load.json"

# Scrape the live Prometheus endpoint (before the drain) and validate the
# exposition plus the hdload report: zero request errors, a non-zero
# PlanCache hit rate, well-formed samples, the sampling/refresh counter
# series, at least one bucket exemplar, and the per-stage histograms.
go run ./scripts/smokecheck -metrics "http://$addr/admin/metrics" \
    -want-exemplars "$workdir/load.json"

# The OTel export file must hold newline-delimited OTLP/JSON payloads.
if [ ! -s "$workdir/otel.jsonl" ]; then
    echo "serve-smoke: OTel export file is empty" >&2
    exit 1
fi
if ! head -1 "$workdir/otel.jsonl" | grep -q '"resourceSpans"'; then
    echo "serve-smoke: OTel export file is not OTLP/JSON" >&2
    head -1 "$workdir/otel.jsonl" >&2
    exit 1
fi
echo "serve-smoke: $(wc -l < "$workdir/otel.jsonl") OTLP/JSON trace payloads exported"

# Graceful drain: SIGTERM must exit cleanly (final metrics on stderr).
kill -TERM "$server_pid"
if ! wait "$server_pid"; then
    echo "serve-smoke: hdserve did not drain cleanly on SIGTERM" >&2
    cat "$workdir/hdserve.log" >&2
    exit 1
fi
server_pid=""
echo "serve-smoke: clean SIGTERM drain"
tail -1 "$workdir/hdserve.log"

# With -slowquery-ms 1 at least some of the burst must have crossed the
# threshold and been logged as JSON lines ({"ts":...,"query":...}).
slow=$(grep -c '^{"ts":' "$workdir/hdserve.log" || true)
if [ "$slow" -eq 0 ]; then
    echo "serve-smoke: no slow-query JSON lines in hdserve.log" >&2
    exit 1
fi
echo "serve-smoke: $slow slow-query log lines"

# ---- Act 2: churn → q-error spike → triggered refresh → recovery ----
#
# The cycle mix keeps the workload to cycle4, which the planner serves as two
# join bags, each estimated from its relations' cardinalities and distinct
# counts. On these sparse relations (100 rows over 500 constants, ≈ 91
# distinct values a column) the estimate 100·100/91 ≈ 110 assumes the two
# columns hold the same values, where they share a fifth of them and the
# join holds ≈ 20 rows: a steady median q-error of ≈ 5.4. Skewing r4 to
# ~138 000 rows multiplies the bag that holds it while its estimate stays
# put, and the worst median goes to ≈ 260. The threshold of 40 is the
# geometric middle of the two readings: most of an order of magnitude above
# the baseline and as far under the stale one.

rm -f "$workdir/port"
"$workdir/hdserve" -addr 127.0.0.1:0 -gen-rows 100 -gen-domain 500 -gen-seed 7 \
    -trace-sample 2 -qerror-threshold 40 -qerror-window 4 -refresh-cooldown 2s \
    -portfile "$workdir/port" 2> "$workdir/hdserve-churn.log" &
server_pid=$!

wait_port "$workdir/port"
addr="$(cat "$workdir/port")"
echo "serve-smoke: churn hdserve on $addr (q-error threshold 40)"

"$workdir/hdload" -addr "$addr" -churn -duration 2s -workers 4 -skew 0 \
    -mix cycle -churn-rel r4 -churn-facts 200000 -churn-domain 500 \
    -churn-wait 20s -timeout-ms 10000 -json "$workdir/churn.json"

# The scrape must now show a live refresh; the churn report must show the
# feedback loop closed (refresh landed, fingerprint moved, median dropped).
go run ./scripts/smokecheck -metrics "http://$addr/admin/metrics" \
    -want-exemplars "$workdir/churn.json"
refreshes=$(curl -s "http://$addr/admin/metrics" | awk '$1 == "hdserve_stats_refresh_total" {print $2}')
if [ "${refreshes:-0}" -lt 1 ]; then
    echo "serve-smoke: hdserve_stats_refresh_total is ${refreshes:-missing}, want >= 1" >&2
    exit 1
fi
echo "serve-smoke: hdserve_stats_refresh_total=$refreshes"

kill -TERM "$server_pid"
if ! wait "$server_pid"; then
    echo "serve-smoke: churn hdserve did not drain cleanly on SIGTERM" >&2
    cat "$workdir/hdserve-churn.log" >&2
    exit 1
fi
server_pid=""
echo "serve-smoke: churn drain clean — all checks passed"
