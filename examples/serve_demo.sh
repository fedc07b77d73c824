#!/usr/bin/env sh
# Drives `streamcolor serve` over the flat-JSON line protocol, both in
# script mode (`--script FILE`) and as a plain stdin pipe — then shows
# that the two transcripts are identical: both feed the same
# one-line-at-a-time serving loop.
set -eu
cd "$(dirname "$0")/.."

cargo build --release --bin streamcolor

echo "== script mode =="
target/release/streamcolor serve --script examples/serve_demo.commands | tee /tmp/serve_demo_script.out

echo
echo "== stdin pipe produces identical bytes =="
target/release/streamcolor serve < examples/serve_demo.commands > /tmp/serve_demo_stdin.out
diff /tmp/serve_demo_script.out /tmp/serve_demo_stdin.out
echo "byte-identical across input paths"
