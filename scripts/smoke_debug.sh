#!/usr/bin/env bash
# Smoke-test the -debug-addr endpoint: run the closure flow on a small
# fixture with the debug server on a free port, scrape /debug/vars and
# /debug/summary while the server is held open, and assert a non-empty
# metric snapshot that includes closure counters.
set -euo pipefail

bin=$(mktemp -d)/closure
go build -o "$bin" ./cmd/closure

log=$(mktemp)
"$bin" -design toy -timer gba -debug-addr 127.0.0.1:0 -debug-hold 20s \
    >/dev/null 2>"$log" &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT

addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*debug server listening on \(.*\)/\1/p' "$log")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "smoke_debug: server address never appeared" >&2
    cat "$log" >&2
    exit 1
fi

vars=""
for _ in $(seq 1 100); do
    vars=$(curl -fsS "http://$addr/debug/vars" 2>/dev/null || true)
    case "$vars" in
    *'"closure.transforms"'*) break ;;
    esac
    sleep 0.2
done
case "$vars" in
*'"closure.transforms"'*) ;;
*)
    echo "smoke_debug: /debug/vars never produced closure metrics:" >&2
    echo "$vars" >&2
    exit 1
    ;;
esac

summary=$(curl -fsS "http://$addr/debug/summary")
case "$summary" in
*'run summary'*) ;;
*)
    echo "smoke_debug: /debug/summary missing the summary table:" >&2
    echo "$summary" >&2
    exit 1
    ;;
esac

echo "smoke_debug: ok ($addr)"
echo "$vars" | head -n 12

kill "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

# Closure-transform smoke: run the full registry (upsize, buffer, retime)
# on the register-bound fixture and assert via /debug/vars that the
# retiming transform was actually accepted, i.e. the per-kind counters are
# live end to end.
log2=$(mktemp)
out2=$(mktemp)
"$bin" -design retimetoy -timer gba -transforms upsize,buffer,retime \
    -debug-addr 127.0.0.1:0 -debug-hold 20s >"$out2" 2>"$log2" &
pid=$!

addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*debug server listening on \(.*\)/\1/p' "$log2")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "smoke_debug: transform-smoke server address never appeared" >&2
    cat "$log2" >&2
    exit 1
fi

retimes=""
for _ in $(seq 1 100); do
    vars=$(curl -fsS "http://$addr/debug/vars" 2>/dev/null || true)
    retimes=$(printf '%s' "$vars" |
        sed -n 's/.*"closure\.transforms\.retime": \([0-9][0-9]*\).*/\1/p')
    [ -n "$retimes" ] && [ "$retimes" -gt 0 ] && break
    sleep 0.2
done
if [ -z "$retimes" ] || [ "$retimes" -eq 0 ]; then
    echo "smoke_debug: no retimes recorded on the register-bound fixture:" >&2
    printf '%s\n' "$vars" >&2
    cat "$out2" >&2
    exit 1
fi

case "$(cat "$out2")" in
*retimed*) ;;
*)
    echo "smoke_debug: closure report lost its retimed column:" >&2
    cat "$out2" >&2
    exit 1
    ;;
esac

echo "smoke_debug: transform smoke ok ($addr, $retimes retimes)"

kill "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

# Default-registry smoke: the mGBA closure on D3 rejects every buffer
# trial, and those trials must no longer throw the calibrator away — after
# the run, /debug/vars must show rejected buffer trials and incremental
# calibrations side by side.
log3=$(mktemp)
out3=$(mktemp)
"$bin" -design D3 -timer mgba -debug-addr 127.0.0.1:0 -debug-hold 20s \
    >"$out3" 2>"$log3" &
pid=$!

addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*debug server listening on \(.*\)/\1/p' "$log3")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "smoke_debug: D3 server address never appeared" >&2
    cat "$log3" >&2
    exit 1
fi

# The report is printed once the run is over; the counters are final then.
for _ in $(seq 1 300); do
    grep -q 'mGBA' "$out3" && break
    sleep 0.1
done
vars=$(curl -fsS "http://$addr/debug/vars")
counter() {
    printf '%s' "$vars" | sed -n "s/.*\"$1\": \([0-9][0-9]*\).*/\1/p"
}
incremental=$(counter 'core\.calibrations\.incremental')
rejected=$(counter 'closure\.transforms\.buffer\.rejected')
if [ -z "$incremental" ] || [ "$incremental" -eq 0 ] ||
    [ -z "$rejected" ] || [ "$rejected" -eq 0 ]; then
    echo "smoke_debug: D3 run recorded $incremental incremental calibrations and" \
        "$rejected rejected buffer trials; want both > 0:" >&2
    printf '%s\n' "$vars" >&2
    cat "$out3" >&2
    exit 1
fi

echo "smoke_debug: default-registry smoke ok ($addr, $incremental incremental" \
    "calibrations, $rejected rejected buffer trials)"
