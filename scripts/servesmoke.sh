#!/usr/bin/env bash
# servesmoke.sh — end-to-end smoke test of the mirad serving daemon:
# build it, boot it on the fast 30-day corpus, poll /healthz until it
# answers, issue a cohort query twice (cold then cached), check /v1/stats
# reflects the hit, reject a malformed predicate with 400, and shut the
# daemon down gracefully with SIGTERM expecting a clean exit.
#
# It also checks that a corpus in memory and the same corpus on disk are
# one dataset: miragen writes the 30-day corpus, a second mirad serves it
# with -in, and /v1/profile, the cohort body and /v1/experiments/E11 must
# be byte-identical to those of the generating daemon; they must stay so
# after miragen regenerates that pack, with another seed, under the
# running daemon, which must stay up. A third mirad
# pointed at a truncated copy of that pack must exit non-zero with a
# pack: error before the boot timeout instead of hanging or serving.
#
# Usage:
#   scripts/servesmoke.sh [port]       # default port: 18080; the -in
#                                      # daemon listens on port+1, the
#                                      # truncated-pack one on port+2
#
# CI runs this after the unit tests; it exercises the real binary, real
# sockets and the real signal path, which httptest cannot.
set -euo pipefail

cd "$(dirname "$0")/.."
port="${1:-18080}"
base="http://127.0.0.1:${port}"
inport=$((port + 1))
inbase="http://127.0.0.1:${inport}"

tmp="$(mktemp -d)"
pids=()
cleanup() {
  for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done
  rm -rf "$tmp"
}
trap cleanup EXIT

echo "servesmoke: building mirad and miragen..."
go build -o "$tmp/mirad" ./cmd/mirad
go build -o "$tmp/miragen" ./cmd/miragen

# boot NAME PORT ARGS... starts mirad on PORT and polls /healthz until the
# daemon is warm (generation or load + warmup take a few seconds; fail
# after 60). The pid is appended to pids.
boot() {
  local name="$1" p="$2"
  shift 2
  "$tmp/mirad" -addr "127.0.0.1:${p}" "$@" >"$tmp/$name.log" 2>&1 &
  local pid=$!
  pids+=("$pid")
  for i in $(seq 1 120); do
    if curl -sf "http://127.0.0.1:${p}/healthz" >/dev/null 2>&1; then
      return 0
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "servesmoke: $name died during startup:" >&2
      cat "$tmp/$name.log" >&2
      exit 1
    fi
    sleep 0.5
  done
  echo "servesmoke: $name /healthz never came up" >&2
  cat "$tmp/$name.log" >&2
  exit 1
}

echo "servesmoke: booting on :$port (30-day corpus)..."
boot mirad "$port" -small
pid="${pids[0]}"
echo "servesmoke: healthy"

where='exit%20!%3D%20success'

code="$(curl -s -o "$tmp/cohort1.json" -w '%{http_code}' "$base/v1/cohort?where=$where")"
[ "$code" = "200" ] || { echo "servesmoke: cohort query returned $code" >&2; exit 1; }
grep -q '"report"' "$tmp/cohort1.json" || { echo "servesmoke: cohort body carries no report" >&2; exit 1; }

# Second identical query must be served from the cache, byte-identical.
xcache="$(curl -s -o "$tmp/cohort2.json" -D - "$base/v1/cohort?where=$where" | tr -d '\r' | awk -F': ' 'tolower($1)=="x-cache"{print $2}')"
[ "$xcache" = "hit" ] || { echo "servesmoke: repeat query X-Cache=$xcache, want hit" >&2; exit 1; }
cmp -s "$tmp/cohort1.json" "$tmp/cohort2.json" || { echo "servesmoke: cached body differs from cold body" >&2; exit 1; }

# /v1/stats must reflect the hit.
curl -sf "$base/v1/stats" >"$tmp/stats.json"
grep -q '"hits":1' "$tmp/stats.json" || { echo "servesmoke: stats do not show the cache hit:" >&2; cat "$tmp/stats.json" >&2; exit 1; }

# Malformed predicates are the client's fault.
code="$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/cohort?where=user%20%3D%3D")"
[ "$code" = "400" ] || { echo "servesmoke: malformed predicate returned $code, want 400" >&2; exit 1; }

# /v1/profile and two experiments round out the surface.
code="$(curl -s -o "$tmp/profile.json" -w '%{http_code}' "$base/v1/profile")"
[ "$code" = "200" ] || { echo "servesmoke: profile returned $code" >&2; exit 1; }
code="$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/experiments/E1")"
[ "$code" = "200" ] || { echo "servesmoke: E1 returned $code" >&2; exit 1; }
code="$(curl -s -o "$tmp/E11.json" -w '%{http_code}' "$base/v1/experiments/E11")"
[ "$code" = "200" ] || { echo "servesmoke: E11 returned $code" >&2; exit 1; }

# Memory ≡ disk: the same corpus written by miragen and loaded with -in.
echo "servesmoke: writing the 30-day corpus and booting -in on :$inport..."
"$tmp/miragen" -small -out "$tmp/corpus" >/dev/null
boot mirad-in "$inport" -in "$tmp/corpus"
for f in "profile.json:/v1/profile" "cohort1.json:/v1/cohort?where=$where" "E11.json:/v1/experiments/E11"; do
  file="${f%%:*}" path="${f#*:}"
  code="$(curl -s -o "$tmp/in-$file" -w '%{http_code}' "$inbase$path")"
  [ "$code" = "200" ] || { echo "servesmoke: -in daemon $path returned $code" >&2; exit 1; }
  cmp -s "$tmp/$file" "$tmp/in-$file" || { echo "servesmoke: -in daemon $path differs from the -small daemon's" >&2; exit 1; }
done
echo "servesmoke: -in daemon matches the -small daemon"

# Regenerating the pack under the running -in daemon, which has the old
# file mapped: pack.WriteFile renames a new file over it, so the daemon
# keeps serving the old corpus. /v1/profile must come back byte-identical,
# a cohort it has not cached yet (so it scans the mapped columns after the
# replacement) must match the -small daemon's, and the daemon must stay up.
echo "servesmoke: regenerating the pack under the -in daemon..."
"$tmp/miragen" -small -seed 99 -out "$tmp/corpus" >/dev/null
fresh='user%20!%3D%20nobody-here%20and%20exit%20%3D%3D%20system'
curl -sf -o "$tmp/fresh.json" "$base/v1/cohort?where=$fresh" || { echo "servesmoke: fresh cohort failed on the -small daemon" >&2; exit 1; }
for f in "profile.json:/v1/profile" "fresh.json:/v1/cohort?where=$fresh"; do
  file="${f%%:*}" path="${f#*:}"
  code="$(curl -s -o "$tmp/regen-$file" -w '%{http_code}' "$inbase$path")"
  [ "$code" = "200" ] || { echo "servesmoke: -in daemon $path returned $code after the pack was regenerated" >&2; cat "$tmp/mirad-in.log" >&2; exit 1; }
  cmp -s "$tmp/$file" "$tmp/regen-$file" || { echo "servesmoke: -in daemon $path changed when its pack was regenerated" >&2; exit 1; }
done
kill -0 "${pids[1]}" 2>/dev/null || { echo "servesmoke: -in daemon died when its pack was regenerated:" >&2; cat "$tmp/mirad-in.log" >&2; exit 1; }
echo "servesmoke: -in daemon unaffected by the regenerated pack"

# A truncated pack: mirad must fail fast with a pack error, not hang.
echo "servesmoke: booting -in on a truncated pack..."
mkdir "$tmp/truncated"
packsize="$(wc -c <"$tmp/corpus/corpus.mirapack")"
head -c "$((packsize / 2))" "$tmp/corpus/corpus.mirapack" >"$tmp/truncated/corpus.mirapack"
rc=0
timeout 60 "$tmp/mirad" -addr "127.0.0.1:$((port + 2))" -in "$tmp/truncated" >"$tmp/truncated.log" 2>&1 || rc=$?
[ "$rc" -ne 124 ] || { echo "servesmoke: mirad on a truncated pack still running after 60 s" >&2; exit 1; }
[ "$rc" -ne 0 ] || { echo "servesmoke: mirad on a truncated pack exited 0" >&2; exit 1; }
grep -q 'pack: ' "$tmp/truncated.log" || { echo "servesmoke: mirad on a truncated pack gave no pack error:" >&2; cat "$tmp/truncated.log" >&2; exit 1; }
echo "servesmoke: truncated pack rejected: $(tail -n 1 "$tmp/truncated.log")"

echo "servesmoke: queries OK; sending SIGTERM..."
for p in "${pids[@]}"; do kill -TERM "$p"; done
rc=0
wait "$pid" || rc=$?
[ "$rc" -eq 0 ] || { echo "servesmoke: mirad exited $rc after SIGTERM:" >&2; cat "$tmp/mirad.log" >&2; exit 1; }
rc=0
wait "${pids[1]}" || rc=$?
[ "$rc" -eq 0 ] || { echo "servesmoke: mirad -in exited $rc after SIGTERM:" >&2; cat "$tmp/mirad-in.log" >&2; exit 1; }
pids=()
echo "servesmoke: graceful shutdown OK"
