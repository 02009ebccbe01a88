#!/bin/sh
# Differential cluster smoke test over the REAL binaries.
#
# Boots three coral_server worker processes and a coral_router
# fronting them (all on Unix-domain sockets, each worker with its own
# JSONL event log), plus one plain single-node server as the
# reference.  Feeds both the same transitive-closure and
# same-generation workloads through the REPL's --connect client and
# diffs the sorted answer multisets: the cluster must be
# byte-identical to single-node.  Also asserts the router actually
# served the queries on the distributed path (router.queries.dist>0),
# so a silent fallback to the local replica cannot green this test.
#
# Observability assertions ride along: the router's federated
# /metrics endpoint must expose coral_shard_* series for every
# worker plus the skew roll-ups and a sample for every numeric line of
# the router's `stats`, /healthz must answer 200 ok, and a
# distributed query must yield a stitched Chrome trace with one lane
# per process (saved as an artifact).
#
# Everything (sockets, logs, transcripts, the trace artifact) lives
# in ./cluster_smoke/, which CI uploads on failure.
set -eu

cd "$(dirname "$0")/.."

BIN=${BIN:-_build/default/bin}
DIR=cluster_smoke
rm -rf "$DIR"
mkdir -p "$DIR"

PIDS=""
cleanup() {
  for p in $PIDS; do kill "$p" 2>/dev/null || true; done
}
trap cleanup EXIT INT TERM

"$BIN/coral_server.exe" --worker --socket "$DIR/w0.sock" --event-log "$DIR/worker0.jsonl" --quiet &
PIDS="$PIDS $!"
"$BIN/coral_server.exe" --worker --socket "$DIR/w1.sock" --event-log "$DIR/worker1.jsonl" --quiet &
W1=$!
PIDS="$PIDS $W1"
"$BIN/coral_server.exe" --worker --socket "$DIR/w2.sock" --event-log "$DIR/worker2.jsonl" --quiet &
PIDS="$PIDS $!"
"$BIN/coral_server.exe" --socket "$DIR/single.sock" --quiet &
PIDS="$PIDS $!"

wait_sock() {
  i=0
  while [ ! -S "$1" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "cluster_smoke: timeout waiting for $1" >&2
      exit 1
    fi
    sleep 0.1
  done
}
wait_sock "$DIR/w0.sock"
wait_sock "$DIR/w1.sock"
wait_sock "$DIR/w2.sock"
wait_sock "$DIR/single.sock"

# Not --quiet: the banner names the ephemeral metrics port (port 0).
"$BIN/coral_router.exe" --socket "$DIR/router.sock" \
  --shard "$DIR/w0.sock" --shard "$DIR/w1.sock" --shard "$DIR/w2.sock" \
  --key 1 --event-log "$DIR/router.jsonl" --metrics-port 0 \
  > "$DIR/router.out" &
PIDS="$PIDS $!"
wait_sock "$DIR/router.sock"

MPORT=""
i=0
while [ -z "$MPORT" ]; do
  MPORT=$(sed -n 's#^coral_router metrics on http://[^:]*:\([0-9][0-9]*\)/metrics$#\1#p' \
    "$DIR/router.out" 2>/dev/null || true)
  [ -n "$MPORT" ] && break
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "cluster_smoke: timeout waiting for the router metrics banner" >&2
    exit 1
  fi
  sleep 0.1
done

# ---------------------------------------------------------------- #
# Workloads: TC on a chain + chords, SG on a two-parent tree.       #
# ---------------------------------------------------------------- #

tc_facts() {
  i=1
  while [ "$i" -lt 30 ]; do
    printf 'edge(%d, %d). ' "$i" $((i + 1))
    i=$((i + 1))
  done
  printf 'edge(5, 17). edge(22, 3). edge(11, 29). edge(28, 2).'
}

# Every value kind on the binary wire: strings with spaces, quotes, a
# backslash and non-ASCII bytes, bignums past 63 bits, doubles,
# functor terms, and lists with and without a tail, as the nodes of a
# cycle so each one is shipped between shards (and, as EDB facts, to
# every worker).
value_kinds_facts() {
  printf '%s' 'vedge("a b", "say \"hi\""). vedge("say \"hi\"", 123456789012345678901234567890). '
  printf '%s' 'vedge(123456789012345678901234567890, f(1, "x y")). vedge(f(1, "x y"), [1, 2, 3]). '
  printf '%s' 'vedge([1, 2, 3], [a | b]). vedge([a | b], g([h(1)], -98765432109876543210)). '
  printf '%s' 'vedge(g([h(1)], -98765432109876543210), "back \\ slash"). '
  printf '%s' 'vedge("back \\ slash", "café"). vedge("café", "a b"). '
  printf '%s' 'vedge("back \\ slash", 2.0). vedge(2.0, 0.5). vedge(0.5, "café").'
}

cat > "$DIR/workload.txt" <<EOF
consult module m_path. export path(bf). export path(ff). path(X, Y) :- edge(X, Y). path(X, Y) :- path(X, Z), edge(Z, Y). end_module.
consult $(tc_facts)
query path(X, Y)
query path(1, Y)
consult module m_sg. export sg(ff). sg(X, Y) :- flat(X, Y). sg(X, Y) :- up(X, U), sg(U, V), down(V, Y). end_module.
consult flat(100, 101). flat(101, 102). up(1, 100). up(2, 100). up(3, 101). down(101, 11). down(102, 12). down(100, 10).
query sg(X, Y)
consult module m_vpath. export vpath(bf). export vpath(ff). vpath(X, Y) :- vedge(X, Y). vpath(X, Y) :- vpath(X, Z), vedge(Z, Y). end_module.
consult $(value_kinds_facts)
query vpath(X, Y)
query vpath("a b", Y)
quit
EOF

# Answers print as "X = 1, Y = 2" / "true"; everything else (ok
# details with timings, banners) is filtered out before the diff.
answers() {
  "$BIN/coral_repl.exe" --connect "$1" < "$2" \
    | grep -E '^([A-Z][A-Za-z0-9_]* = |true$)' | sort
}

answers "$DIR/single.sock" "$DIR/workload.txt" > "$DIR/single.answers"
answers "$DIR/router.sock" "$DIR/workload.txt" > "$DIR/cluster.answers"

if ! diff -u "$DIR/single.answers" "$DIR/cluster.answers"; then
  echo "cluster_smoke: FAIL — cluster answers differ from single-node" >&2
  exit 1
fi

n=$(wc -l < "$DIR/single.answers")
if [ "$n" -lt 100 ]; then
  echo "cluster_smoke: FAIL — only $n answers; the workload did not run" >&2
  exit 1
fi

# A retract dirties the cluster: the next read reprovisions it, the
# replicated EDB shipped to every worker as binary edb# batches.
cat > "$DIR/retract.txt" <<EOF
retract vedge(2.0, 0.5).
query vpath(X, Y)
query path(X, Y)
quit
EOF
answers "$DIR/single.sock" "$DIR/retract.txt" > "$DIR/single.retract"
answers "$DIR/router.sock" "$DIR/retract.txt" > "$DIR/cluster.retract"
if ! diff -u "$DIR/single.retract" "$DIR/cluster.retract"; then
  echo "cluster_smoke: FAIL — cluster answers differ from single-node after a retract's resync" >&2
  exit 1
fi
if [ "$(wc -l < "$DIR/single.retract")" -lt 100 ]; then
  echo "cluster_smoke: FAIL — the retract check answered too little" >&2
  exit 1
fi

printf 'stats\nquit\n' | "$BIN/coral_repl.exe" --connect "$DIR/router.sock" > "$DIR/stats.txt"
dist=$(sed -n 's/^router\.queries\.dist=//p' "$DIR/stats.txt")
if [ -z "$dist" ] || [ "$dist" -eq 0 ]; then
  echo "cluster_smoke: FAIL — no query took the distributed path (router.queries.dist=${dist:-missing})" >&2
  exit 1
fi

# ---------------------------------------------------------------- #
# Insert-heavy sequence: base-fact inserts into the materialized    #
# cluster must be absorbed as semi-naive deltas (edb#), answering   #
# byte-identical to single-node with the router's federated resync  #
# counter unchanged.                                                #
# ---------------------------------------------------------------- #

cat > "$DIR/inserts.txt" <<EOF
insert edge(30, 31). edge(31, 32).
query path(X, Y)
insert edge(32, 1).
insert edge(40, 41). edge(41, 40). edge(30, 31).
query path(1, Y)
query path(X, Y)
insert edge(29, 40).
insert vedge("x y", "a b"). vedge(7, "x y").
query vpath(X, Y)
query path(40, Y)
quit
EOF

federated() {
  curl -sf "http://127.0.0.1:$MPORT/metrics" | sed -n "s/^$1 //p"
}

printf 'query path(X, Y)\nquit\n' | "$BIN/coral_repl.exe" --connect "$DIR/router.sock" > /dev/null
resyncs0=$(federated coral_router_resyncs)
deltas0=$(federated coral_router_delta_syncs)
answers "$DIR/single.sock" "$DIR/inserts.txt" > "$DIR/single.inserts"
answers "$DIR/router.sock" "$DIR/inserts.txt" > "$DIR/cluster.inserts"
resyncs1=$(federated coral_router_resyncs)
deltas1=$(federated coral_router_delta_syncs)

if ! diff -u "$DIR/single.inserts" "$DIR/cluster.inserts"; then
  echo "cluster_smoke: FAIL — cluster answers differ from single-node after inserts" >&2
  exit 1
fi
if [ "$(wc -l < "$DIR/single.inserts")" -lt 100 ]; then
  echo "cluster_smoke: FAIL — the insert sequence answered too little" >&2
  exit 1
fi
if [ -z "$resyncs0" ] || [ "$resyncs0" != "$resyncs1" ]; then
  echo "cluster_smoke: FAIL — EDB inserts moved coral_router_resyncs (${resyncs0:-missing} -> ${resyncs1:-missing})" >&2
  exit 1
fi
if [ -z "$deltas0" ] || [ "$deltas1" -le "$deltas0" ]; then
  echo "cluster_smoke: FAIL — no delta sync ran (coral_router_delta_syncs ${deltas0:-missing} -> ${deltas1:-missing})" >&2
  exit 1
fi

# ---------------------------------------------------------------- #
# Federated metrics: one scrape of the ROUTER must carry per-shard  #
# labeled series for every worker, plus the skew roll-ups.          #
# ---------------------------------------------------------------- #

curl -sf "http://127.0.0.1:$MPORT/metrics" > "$DIR/metrics.prom"
for s in 0 1 2; do
  if ! grep -q "^coral_shard_up{shard=\"$s\"[,}].* 1\$" "$DIR/metrics.prom"; then
    echo "cluster_smoke: FAIL — coral_shard_up{shard=\"$s\"} != 1 in federated /metrics" >&2
    exit 1
  fi
  if ! grep -v '^coral_shard_up' "$DIR/metrics.prom" \
      | grep -q "^coral_shard_.*{shard=\"$s\""; then
    echo "cluster_smoke: FAIL — no relabeled coral_shard_* series for shard $s" >&2
    exit 1
  fi
done
# Each worker process times its own batch encode/decode.
for s in 0 1 2; do
  if ! grep -q "^coral_shard_phase_codec_count{shard=\"$s\"[,}].* [1-9][0-9]*\$" "$DIR/metrics.prom"; then
    echo "cluster_smoke: FAIL — shard $s recorded no phase.codec time" >&2
    exit 1
  fi
done
for g in coral_dist_skew_ratio coral_dist_straggler_rounds; do
  if ! grep -q "^$g " "$DIR/metrics.prom"; then
    echo "cluster_smoke: FAIL — $g missing from federated /metrics" >&2
    exit 1
  fi
done

# One sample table, two views: every numeric line of the router's
# `stats` must have a coral_ sample of the derived name in the scrape.
nstat=0
missing=""
for name in $(awk -F= 'NF == 2 && $2 ~ /^-?[0-9][0-9.eE+-]*$/ { print $1 }' "$DIR/stats.txt"); do
  nstat=$((nstat + 1))
  prom="coral_$(printf '%s' "$name" | tr -c 'A-Za-z0-9_' '_')"
  grep -q "^$prom " "$DIR/metrics.prom" || missing="$missing $prom"
done
if [ "$nstat" -eq 0 ] || [ -n "$missing" ]; then
  echo "cluster_smoke: FAIL — $nstat numeric stats lines; without a federated sample:${missing:- (none)}" >&2
  exit 1
fi

hcode=$(curl -s -o "$DIR/healthz.body" -w '%{http_code}' "http://127.0.0.1:$MPORT/healthz")
if [ "$hcode" != "200" ] || ! grep -q '^ok$' "$DIR/healthz.body"; then
  echo "cluster_smoke: FAIL — /healthz answered $hcode $(cat "$DIR/healthz.body" 2>/dev/null)" >&2
  exit 1
fi

# ---------------------------------------------------------------- #
# Stitched trace: a distributed query + `trace last` on the same    #
# connection must produce one Chrome trace with a lane per process. #
# The artifact is kept for chrome://tracing / Perfetto.             #
# ---------------------------------------------------------------- #

printf 'query path(1, Y)\ntrace last\nquit\n' \
  | "$BIN/coral_repl.exe" --connect "$DIR/router.sock" \
  | grep -E '^[][{]' > "$DIR/trace.json"

lanes=$(grep -c '"name": "process_name"' "$DIR/trace.json" || true)
if [ "$lanes" -lt 4 ]; then
  echo "cluster_smoke: FAIL — stitched trace has $lanes lanes, expected router + 3 shards" >&2
  exit 1
fi
if ! grep -q '"ph": "X"' "$DIR/trace.json"; then
  echo "cluster_smoke: FAIL — stitched trace has no complete events" >&2
  exit 1
fi
ntid=$(grep -o '"tid": "[^"]*"' "$DIR/trace.json" | grep -v '"tid": "1"' | sort -u | wc -l)
if [ "$ntid" -ne 1 ]; then
  echo "cluster_smoke: FAIL — stitched trace spans carry $ntid distinct trace ids, expected 1" >&2
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  if ! python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$DIR/trace.json"; then
    echo "cluster_smoke: FAIL — trace.json is not valid JSON" >&2
    exit 1
  fi
fi

# ---------------------------------------------------------------- #
# A worker restarted between two distributed queries: the router's  #
# kept connection to the old process fails, so the router resyncs   #
# once and the second query answers byte-identically.               #
# ---------------------------------------------------------------- #

printf 'query path(X, Y)\nquery vpath(X, Y)\nquit\n' > "$DIR/reread.txt"
answers "$DIR/single.sock" "$DIR/reread.txt" > "$DIR/single.reread"
answers "$DIR/router.sock" "$DIR/reread.txt" > "$DIR/before.restart"
resyncs0=$(federated coral_router_resyncs)
kill "$W1"
wait "$W1" 2>/dev/null || true
rm -f "$DIR/w1.sock"
"$BIN/coral_server.exe" --worker --socket "$DIR/w1.sock" --event-log "$DIR/worker1.jsonl" --quiet &
PIDS="$PIDS $!"
wait_sock "$DIR/w1.sock"
answers "$DIR/router.sock" "$DIR/reread.txt" > "$DIR/after.restart"
resyncs1=$(federated coral_router_resyncs)
for f in before.restart after.restart; do
  if ! diff -u "$DIR/single.reread" "$DIR/$f"; then
    echo "cluster_smoke: FAIL — answers differ from single-node ($f a worker restart)" >&2
    exit 1
  fi
done
if [ "$(wc -l < "$DIR/single.reread")" -lt 100 ]; then
  echo "cluster_smoke: FAIL — the restart check answered too little" >&2
  exit 1
fi
if [ -z "$resyncs0" ] || [ "$((resyncs1 - resyncs0))" -ne 1 ]; then
  echo "cluster_smoke: FAIL — a worker restart took ${resyncs0:-?} -> ${resyncs1:-?} resyncs, expected exactly one" >&2
  exit 1
fi

echo "cluster_smoke: OK — $n answers byte-identical across 3 shards, $dist distributed queries, $((deltas1 - deltas0)) delta syncs without a resync, federated metrics for 3 shards, stitched trace with $lanes lanes, one resync after a worker restart"
