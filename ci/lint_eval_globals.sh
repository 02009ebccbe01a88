#!/bin/sh
# Mutable module-level state in lib/eval is how the parallel evaluator's
# shared-state bugs got in (see CHANGES.md, PR 4): a top-level `ref` or
# `Hashtbl` in the evaluator is shared by every domain and every engine
# instance, silently.  This lint fails CI on any new one.
#
# With snapshot reads the same policy extends to lib/storage: frozen
# views are scanned lock-free from several domains, so hidden shared
# state in the storage layer is a data race waiting to happen.  The
# lint there also rejects module-level `Atomic.make` — atomics are
# safe to touch but still process-global, and a second database in the
# same process must not share them by accident.
#
# Allowlist:
#   - lib/eval/par_pool.ml owns the process-wide domain pool registry
#     by design (`pools`, `exit_registered`);
#   - lib/storage/snapshot.ml owns the process-wide pinned-readers
#     gauge (`pinned`) — a diagnostic counter, deliberately global so
#     `stats`/metrics see every store in the process.
#   - lib/server/exec_pool.ml owns the process-wide read-domain pool
#     (`shared_pool`), mirroring par_pool.ml.
#
# lib/server gets the same policy: admission gates, degraded-mode
# state, and session budgets are all per-store records threaded from
# Server.start, so a new module-level ref there is either a second
# store sharing limits by accident or chaos-harness state leaking
# between epochs.
#
# lib/dist gets the same policy with no allowlist at all: partition
# config, exchange buffers, shard connections, and the router's
# cluster state are per-instance records (one process may host a
# whole in-process cluster — the tests and chaostest do), so ANY
# module-level mutable state there crosses workers by construction.
#
# lib/rewrite gets the same no-allowlist policy: its program analyses
# (Capability in particular) are called by the write lane, the router
# and in-process workers at the same time.
#
# lib/rel gets the storage policy too: frozen views are read lock-free
# from several domains, so module-level state in the relation layer is
# shared by every reader.  Allowlist:
#   - lib/rel/relation.ml's global work counters (`g_inserts`,
#     `g_duplicates`, `g_scans`, `g_visited`), which the benchmarks
#     read; making them per-engine is an open ROADMAP item;
#   - lib/rel/tuple.ml's kill-generation `clock`, process-wide by
#     design (DESIGN.md section 11): every view's generation is read
#     against the same clock.
set -eu

cd "$(dirname "$0")/.."

status=0

matches=$(grep -nE '^let [a-zA-Z_0-9]+ *(:[^=]*)?= *(ref\b|Hashtbl\.create)' lib/eval/*.ml \
  | grep -v '^lib/eval/par_pool\.ml:' || true)

if [ -n "$matches" ]; then
  echo "lint_eval_globals: new module-level mutable state in lib/eval:" >&2
  echo "$matches" >&2
  echo >&2
  echo "Top-level refs/Hashtbls in the evaluator are shared across domains" >&2
  echo "and engine instances.  Move the state into the engine/fixpoint" >&2
  echo "record (or Par_pool if it is genuinely process-wide)." >&2
  status=1
fi

storage_matches=$(grep -nE '^let [a-zA-Z_0-9]+ *(:[^=]*)?= *(ref\b|Hashtbl\.create|Atomic\.make)' lib/storage/*.ml \
  | grep -v '^lib/storage/snapshot\.ml:' || true)

if [ -n "$storage_matches" ]; then
  echo "lint_eval_globals: new module-level mutable state in lib/storage:" >&2
  echo "$storage_matches" >&2
  echo >&2
  echo "Snapshot readers scan storage state lock-free from several" >&2
  echo "domains, and one process may serve several databases.  Move the" >&2
  echo "state into the handle/database record (or Snapshot if it is" >&2
  echo "genuinely a process-wide diagnostic)." >&2
  status=1
fi

server_matches=$(grep -nE '^let [a-zA-Z_0-9]+ *(:[^=]*)?= *(ref\b|Hashtbl\.create|Atomic\.make)' lib/server/*.ml \
  | grep -v '^lib/server/exec_pool\.ml:' || true)

if [ -n "$server_matches" ]; then
  echo "lint_eval_globals: new module-level mutable state in lib/server:" >&2
  echo "$server_matches" >&2
  echo >&2
  echo "Admission gates, degraded-mode state and budgets are per-store:" >&2
  echo "they live in records created by Server.start and threaded into" >&2
  echo "each session.  Move the state into Admission.t / Session / the" >&2
  echo "server record (or Exec_pool if it is genuinely process-wide)." >&2
  status=1
fi

dist_matches=$(grep -nE '^let [a-zA-Z_0-9]+ *(:[^=]*)?= *(ref\b|Hashtbl\.create|Atomic\.make)' lib/dist/*.ml || true)

if [ -n "$dist_matches" ]; then
  echo "lint_eval_globals: new module-level mutable state in lib/dist:" >&2
  echo "$dist_matches" >&2
  echo >&2
  echo "One process may host a whole cluster (workers + router), so" >&2
  echo "module-level state in lib/dist is shared across shards by" >&2
  echo "construction.  Move it into the Worker/Router/Exchange record" >&2
  echo "created by its constructor." >&2
  status=1
fi

rewrite_matches=$(grep -nE '^let [a-zA-Z_0-9]+ *(:[^=]*)?= *(ref\b|Hashtbl\.create|Atomic\.make)' lib/rewrite/*.ml || true)

if [ -n "$rewrite_matches" ]; then
  echo "lint_eval_globals: new module-level mutable state in lib/rewrite:" >&2
  echo "$rewrite_matches" >&2
  echo >&2
  echo "The rewriter and the program analyses run concurrently on the" >&2
  echo "write lane, the router and in-process workers.  Allocate the" >&2
  echo "state per call (or in the caller's record) instead." >&2
  status=1
fi

rel_matches=$(grep -nE '^let [a-zA-Z_0-9]+ *(:[^=]*)?= *(ref\b|Hashtbl\.create|Atomic\.make)' lib/rel/*.ml \
  | grep -vE '^lib/rel/relation\.ml:[0-9]+:let g_(inserts|duplicates|scans|visited) ' \
  | grep -vE '^lib/rel/tuple\.ml:[0-9]+:let clock ' || true)

if [ -n "$rel_matches" ]; then
  echo "lint_eval_globals: new module-level mutable state in lib/rel:" >&2
  echo "$rel_matches" >&2
  echo >&2
  echo "Frozen views are read lock-free from several domains.  Keep" >&2
  echo "relation state in the relation's own record (the work counters" >&2
  echo "and the kill-generation clock are the only process-wide cells)." >&2
  status=1
fi

[ "$status" -eq 0 ] && echo "lint_eval_globals: OK (no module-level mutable state outside par_pool.ml, snapshot.ml, exec_pool.ml, relation.ml's work counters and tuple.ml's clock)"
exit "$status"
