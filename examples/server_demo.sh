#!/bin/sh
# The serving layer end to end: start coral_server, drive it with two
# concurrent clients (the REPL in --connect mode), show the prepared
# plan cache via stats, then a 100ms deadline cutting off an unbounded
# derivation while the server keeps serving.
#
# Run from the repository root:  sh examples/server_demo.sh
set -e

PORT=${PORT:-4240}
dune build bin/coral_server.exe bin/coral_repl.exe

dune exec bin/coral_server.exe -- --quiet --port "$PORT" &
SERVER_PID=$!
trap 'kill $SERVER_PID 2>/dev/null || true' EXIT INT TERM
sleep 0.3

client() {
  dune exec bin/coral_repl.exe -- --connect "127.0.0.1:$PORT"
}

PATHS='consult edge(1, 2). edge(2, 3). edge(3, 4). module paths. export path(bf). path(X, Y) :- edge(X, Y). path(X, Y) :- edge(X, Z), path(Z, Y). end_module.'

echo "== two concurrent clients consult and query path/2 =="
{ printf '%s\nquery path(1, Y)\nquit\n' "$PATHS" | client | sed 's/^/client A: /'; } &
A=$!
{ sleep 0.1; printf 'query path(2, Y)\nquery path(2, Y)\nquit\n' | client | sed 's/^/client B: /'; } &
B=$!
wait $A $B

echo
echo "== every query hit the plan its module load prepared =="
printf 'stats\nquit\n' | client | grep -E 'prepared|plans'

echo
echo "== a 100ms deadline cuts off an unbounded derivation =="
printf 'consult module nats. export nat(f). nat(0). nat(Y) :- nat(X), Y = X + 1. end_module.\ntimeout 100\nquery nat(X)\nquit\n' \
  | client

echo
echo "== ...and the server keeps serving =="
printf 'query path(1, Y)\nquit\n' | client
