#!/usr/bin/env bash
# Two-process socket smoke: the cloud (hub) and an edge+clients (spoke)
# run as separate OS processes and talk over 127.0.0.1 through the
# SocketTransport. The edge drives a verified put/get/scan workload and
# exits 0 only if every Phase II commit and every proof check passed;
# the cloud exits 0 on a clean SIGTERM. Both exit codes must be zero,
# and the hub's cloud must have certified blocks: Phase II that never
# crossed to the hub would mean the spoke ran a cloud of its own.
#
# Usage: wedged_smoke.sh /path/to/wedged [wedged flags for both roles]
#   e.g. wedged_smoke.sh ./build/tools/wedged --wan --clients 3 --ops 5
set -u

WEDGED="${1:?usage: wedged_smoke.sh /path/to/wedged [flags...]}"
shift
TMP="$(mktemp -d)"
CLOUD_PID=""
cleanup() {
  [ -n "$CLOUD_PID" ] && kill "$CLOUD_PID" 2>/dev/null
  [ -n "$CLOUD_PID" ] && wait "$CLOUD_PID" 2>/dev/null
  rm -rf "$TMP"
}
trap cleanup EXIT

# --listen 0 binds an ephemeral port; the port file doubles as the
# "listener is up" signal.
"$WEDGED" --role cloud --listen 0 --port-file "$TMP/port" \
          --run-for-ms 60000 "$@" > "$TMP/cloud.out" &
CLOUD_PID=$!

for _ in $(seq 1 100); do
  [ -s "$TMP/port" ] && break
  if ! kill -0 "$CLOUD_PID" 2>/dev/null; then
    echo "wedged_smoke: cloud died before binding" >&2
    cat "$TMP/cloud.out"
    CLOUD_PID=""
    exit 1
  fi
  sleep 0.1
done
if [ ! -s "$TMP/port" ]; then
  echo "wedged_smoke: cloud never wrote its port" >&2
  exit 1
fi
PORT="$(cat "$TMP/port")"

"$WEDGED" --role edge --connect "127.0.0.1:$PORT" "$@"
EDGE_RC=$?

kill -TERM "$CLOUD_PID" 2>/dev/null
wait "$CLOUD_PID"
CLOUD_RC=$?
CLOUD_PID=""
cat "$TMP/cloud.out"

CERTIFIED="$(sed -n 's/.*certified_blocks=\([0-9]*\).*/\1/p' "$TMP/cloud.out")"
echo "wedged_smoke: edge rc=$EDGE_RC cloud rc=$CLOUD_RC" \
     "hub certified_blocks=${CERTIFIED:-none}"
[ "$EDGE_RC" -eq 0 ] && [ "$CLOUD_RC" -eq 0 ] && [ "${CERTIFIED:-0}" -gt 0 ]
