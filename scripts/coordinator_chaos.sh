#!/usr/bin/env bash
# Coordinator-chaos e2e, driven entirely through the shipped CLI:
#
#   1. a failure-free reference run of the heat grid across two real
#      `mojc node` agents, collecting the per-rank RANK_SUM lines;
#   2. the chaos run: a primary `mojc cluster --wal-root` is SIGKILLed
#      mid-grid (after checkpoints exist, long before completion), a
#      `mojc cluster --standby` waits out the lease, replays the WAL,
#      seals the dead primary's segment, RE-ADOPTs the still-running
#      agents, and finishes the run;
#   3. the two runs' RANK_SUM lines must be byte-identical (the sums are
#      printed with %.17g, so "identical" means bit-identical doubles);
#   4. both runs' shared checkpoint stores must pass `mojc ckpt verify`.
#
# Usage: scripts/coordinator_chaos.sh path/to/mojc [heat.mjc]
set -euo pipefail

MOJC=${1:?usage: coordinator_chaos.sh path/to/mojc [heat.mjc]}
PROG=${2:-examples/heat_cluster.mjc}
RANKS=4
WORK=$(mktemp -d)

cleanup() {
  # shellcheck disable=SC2046
  kill $(jobs -p) >/dev/null 2>&1 || true
  wait >/dev/null 2>&1 || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# Start one `mojc node` agent; echoes the port it bound.
start_agent() { # $1 = storage dir, $2 = log file
  "$MOJC" node --storage "$1" --port 0 >"$2" 2>&1 &
  for _ in $(seq 1 200); do
    if grep -q '^DNODE_READY port=' "$2" 2>/dev/null; then
      sed -n 's/^DNODE_READY port=//p' "$2" | head -1
      return 0
    fi
    sleep 0.05
  done
  echo "agent never printed DNODE_READY (log: $2)" >&2
  return 1
}

manifests_in() { # $1 = storage dir
  "$MOJC" ckpt "$1" stats 2>/dev/null | sed -n 's/^manifests: *//p'
}

echo "== reference run (no failures) =="
REF_STORE="$WORK/ref-store"
mkdir -p "$REF_STORE"
P0=$(start_agent "$REF_STORE" "$WORK/ref-a0.log")
P1=$(start_agent "$REF_STORE" "$WORK/ref-a1.log")
"$MOJC" cluster --nodes "127.0.0.1:$P0,127.0.0.1:$P1" --ranks "$RANKS" \
  run "$PROG" >"$WORK/ref.out" 2>"$WORK/ref.err"
grep '^RANK_SUM ' "$WORK/ref.out" | sort >"$WORK/ref.sums"
[ "$(wc -l <"$WORK/ref.sums")" -eq "$RANKS" ] || {
  echo "reference run reported $(wc -l <"$WORK/ref.sums")/$RANKS sums" >&2
  cat "$WORK/ref.err" >&2
  exit 1
}
cat "$WORK/ref.sums"

echo "== chaos run: SIGKILL the primary coordinator mid-grid =="
STORE="$WORK/ha-store"
WAL="$WORK/ha-wal"
mkdir -p "$STORE" "$WAL"
Q0=$(start_agent "$STORE" "$WORK/ha-a0.log")
Q1=$(start_agent "$STORE" "$WORK/ha-a1.log")

"$MOJC" cluster --nodes "127.0.0.1:$Q0,127.0.0.1:$Q1" --ranks "$RANKS" \
  --wal-root "$WAL" --lease-ttl 1.0 \
  run "$PROG" >"$WORK/primary.out" 2>"$WORK/primary.err" &
PRIMARY=$!

# Mid-run marker: the first checkpoint wave has begun landing in the
# shared store. The program runs 30 checkpoint intervals, so the kill
# lands far from completion.
for _ in $(seq 1 600); do
  n=$(manifests_in "$STORE" || echo 0)
  [ "${n:-0}" -ge 1 ] && break
  kill -0 "$PRIMARY" 2>/dev/null || {
    echo "primary exited before any checkpoints" >&2
    cat "$WORK/primary.err" >&2
    exit 1
  }
  sleep 0.05
done
[ "${n:-0}" -ge 1 ] || { echo "no checkpoint wave" >&2; exit 1; }

kill -9 "$PRIMARY"
wait "$PRIMARY" 2>/dev/null || true
echo "primary (pid $PRIMARY) SIGKILLed after $n manifests"

# The standby waits out the dead primary's lease, takes over its WAL at
# the next epoch, and re-adopts the agents — which held their ranks
# through the gap (their 10 s grace period).
"$MOJC" cluster --nodes "127.0.0.1:$Q0,127.0.0.1:$Q1" --ranks "$RANKS" \
  --wal-root "$WAL" --lease-ttl 1.0 --standby \
  run "$PROG" >"$WORK/standby.out" 2>"$WORK/standby.err" || {
  echo "standby takeover failed" >&2
  cat "$WORK/standby.err" >&2
  exit 1
}
grep '^RANK_SUM ' "$WORK/standby.out" | sort >"$WORK/ha.sums"
cat "$WORK/ha.sums"
grep -q 'takeover\|resumed\|standby' "$WORK/standby.err" || true

echo "== verdict =="
if ! diff -u "$WORK/ref.sums" "$WORK/ha.sums"; then
  echo "FAIL: failover run's sums diverged from the failure-free run" >&2
  exit 1
fi
echo "OK: $RANKS ranks, sums bit-identical across the coordinator failover"

# Both agents checkpointed into each store at once; neither may have
# garbage-collected a chunk the other still references.
echo "== store integrity =="
for S in "$REF_STORE" "$STORE"; do
  "$MOJC" ckpt "$S" verify || {
    echo "FAIL: checkpoint store $S does not verify" >&2
    exit 1
  }
done
