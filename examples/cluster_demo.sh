#!/usr/bin/env sh
# The cluster determinism law in one shell session: run the smoke grid
# sharded over the default transport (spawned `streamcolor serve`
# workers over stdio), the loopback transport, and a TCP listener
# (`streamcolor serve --listen`, one event loop, so its three
# connections run their slices one at a time) — plus a skewed fleet
# exercising work stealing + speculative re-dispatch — and diff every
# merged JSON against the single-process reference. All five files
# are byte-identical.
set -eu
cd "$(dirname "$0")/.."

cargo build --release --bin streamcolor

OUT=/tmp/cluster_demo
mkdir -p "$OUT"

echo "== single-process reference =="
target/release/streamcolor shard --smoke --in-process --out "$OUT/single.json"
echo "wrote $OUT/single.json"

echo
echo "== spawned serve workers (the default stdio transport) and loopback =="
target/release/streamcolor shard --smoke --workers 3 --out "$OUT/stdio.json"
target/release/streamcolor shard --smoke --transport process --workers 3 --out "$OUT/process.json"

echo
echo "== TCP: a listener serving remote shard workers =="
target/release/streamcolor serve --listen 127.0.0.1:0 --max-sessions 64 --accept 3 \
    > "$OUT/listener.log" &
LISTENER=$!
# The listener announces its resolved address; wait for it.
for _ in $(seq 1 50); do
    grep -q "listening on" "$OUT/listener.log" 2>/dev/null && break
    sleep 0.1
done
ADDR=$(sed -n 's/^listening on //p' "$OUT/listener.log")
echo "listener up on $ADDR"
target/release/streamcolor shard --smoke --transport tcp --connect "$ADDR" --workers 3 \
    --out "$OUT/tcp.json"
wait "$LISTENER"

echo
echo "== skewed fleet: stealing + speculation route around a straggler =="
# One worker answers 500 ms late; work stealing keeps it from bounding
# the dispatch and its last slice is speculatively re-dispatched after
# 5% of the timeout. Scheduling is byte-invisible: same merged JSON.
target/release/streamcolor shard --smoke --transport process --workers 3 \
    --skew-ms 500 --timeout-ms 8000 --speculate-after 0.05 \
    --out "$OUT/skew.json"

echo
echo "== every transport and schedule merged byte-identically =="
diff "$OUT/single.json" "$OUT/process.json"
diff "$OUT/single.json" "$OUT/stdio.json"
diff "$OUT/single.json" "$OUT/tcp.json"
diff "$OUT/single.json" "$OUT/skew.json"
echo "single == process == stdio == tcp == skewed"
