#!/usr/bin/env bash
# Tier-1 verification plus lint and bench smoke runs.
#
# Usage: scripts/ci.sh
#
# Stages:
#   1. release build of the whole workspace
#   2. rustfmt check + clippy with warnings denied on every target
#      (tests, benches and bins as well as the libraries)
#   3. full workspace test suite, the vendored model checker's and JSON
#      stand-in's own tests, then the benchmark package's own unit and
#      smoke tests (it sits outside the workspace)
#   4. benchmark count gate: short traced runs of estate-scan,
#      estate-relearn and forecast-auto must reproduce the work counts
#      checked in at results/benchmark_counts.json exactly
#   5. bench_kernels smoke (bitwise CSS/ETS/TBATS kernel parity asserted
#      in-binary, snapshot schema checked, a batched ETS and TBATS pass
#      faster per lane than one-lane passes on every row), then bench_grid
#      perf-regression smoke: the accelerated 2- and 4-thread walls —
#      pure-ARIMA sweep and the mixed-family auto-mode union grid — must
#      stay within 25% of the checked-in results/BENCH_grid.json, with
#      the 1-thread walls reported beside them (the run also
#      re-asserts champion parity and the auto-order RMSE guard), then
#      bench_estate smoke (reduced estate through the sharded wave
#      scheduler: RSS flatness ≤2× across wave sizes, one-wave vs
#      waves-of-5 champion parity at 1/2/4/8 threads, checkpoint resume)
#      with a schema check of the written snapshot so downstream tooling
#      can rely on its keys
#   6. CLI smoke: `dwcp forecast --method auto` on a simulated OLAP series
#      must race the families and report the chosen champion family in the
#      `# summary:` JSON line; `dwcp fleet --repo-dir` run twice on six
#      simulated series must keep every champion on the second run (same
#      champions, six frozen re-scores, no appended record); and the
#      `dwcp serve` daemon must score, page, forecast, alert and shut down
#   7. cargo doc --no-deps must build warning-free
#
# Correctness tooling (see DESIGN.md §10):
#   * `cargo xtask selftest` — every analyzer pass must catch its seeded
#     violation and stay clean on the real tree
#   * `cargo xtask analyze` — panic-freedom, float-ordering,
#     nondeterminism, atomic-ordering/protocol, unsafety/invariant and
#     stale-allow passes over the inferred hot set, diffed against the
#     checked-in results/analyze_baseline.json (NEW findings fail the
#     build; entries the tree has outgrown are reported as shrink), then
#     the bounded model check of the extracted concurrency protocols
#   * the full test suite re-runs with `--features strict-invariants` so
#     every boundary invariant is armed
#   * clippy denies unwrap/expect outright on the hot-set crates; the
#     advisory census remains for the rest of the workspace (bench bins,
#     vendored code, tooling) and never fails the build
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== lint: cargo fmt --check =="
cargo fmt --check

echo "== lint: cargo clippy, every target (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== lint: clippy unwrap/expect denied on the hot-set crates =="
cargo clippy -q --no-deps -p dwcp-math -p dwcp-series -p dwcp-models \
  -p dwcp-core -p dwcp-workload -p dwcp \
  -- -D clippy::unwrap_used -D clippy::expect_used

echo "== lint (advisory): clippy unwrap/expect census, rest of workspace =="
cargo clippy --workspace -q -- -W clippy::unwrap_used -W clippy::expect_used \
  2>&1 | grep -E "warning: used" | sort | uniq -c | sort -rn || true
echo "advisory census done (never fails the build)"

echo "== static analysis: cargo xtask selftest =="
cargo xtask selftest

echo "== static analysis: cargo xtask analyze (JSON + baseline diff) =="
cargo xtask analyze --json --skip-model-check > results/analyze_report.json
python3 -c '
import json
r = json.load(open("results/analyze_report.json"))
assert r["dwcp_analyze"] == 1
census = {c["rule"]: c for c in r["allow_census"]}
stale = sum(c["stale"] for c in census.values())
assert stale == 0, f"stale allow directives in the report: {stale}"
findings, hot = len(r["findings"]), len(r["hot_files"])
inferred, atomics = len(r["inferred_hot_files"]), len(r["atomics"])
directives = sum(c["directives"] for c in census.values())
print(f"analyze report OK: {findings} finding(s), {hot} hot files "
      f"({inferred} by inference), {directives} allow directives "
      f"across {len(census)} rules, {atomics} atomic sites")'
rm -f results/analyze_report.json
# The baseline run is the gate: NEW findings fail, shrink is reported,
# and pass 6 model-checks the extracted protocols.
cargo xtask analyze --baseline results/analyze_baseline.json

echo "== tier-1: cargo test (root package) =="
cargo test -q

echo "== workspace tests =="
cargo test --workspace -q

echo "== workspace tests (strict-invariants armed) =="
cargo test --workspace -q --features strict-invariants

echo "== vendored model-checker self-tests =="
cargo test -q -p interleave --release

echo "== vendored JSON stand-in tests (debug: the string scan must stay linear) =="
cargo test -q -p serde -p serde_json

echo "== benchmark package: unit tests + every-workload smoke =="
# benchmark/ is a package of its own outside the workspace, so the
# workspace test runs above never reach it.
cargo test -q --offline --release --manifest-path benchmark/Cargo.toml

echo "== benchmark counts vs results/benchmark_counts.json =="
# The work a benchmark run does — objective evaluations, transform-cache
# hits, warm starts, champion reuse hits/misses/fallbacks, shard loads,
# appends, evictions and compactions — depends on its seed and the
# program, never on the host, so it must match the recorded counts
# exactly. A change that moves one changes behaviour: explain it and
# re-record the file. serve-mixed is left out: its run exits non-zero
# whenever the load generator itself ran more than 1 ms late at p99,
# which depends on how busy the host is.
counts_dir="$(mktemp -d)"
for workload in estate-scan estate-relearn forecast-auto; do
  cargo run --offline --release --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 2 --trace 1 \
    > "$counts_dir/out" 2> "$counts_dir/err" \
    || { echo "benchmark $workload failed:"; tail -n 20 "$counts_dir/err"; exit 1; }
  python3 - "$workload" "$counts_dir/out" <<'PY'
import json, sys
workload, path = sys.argv[1], sys.argv[2]
want = json.load(open("results/benchmark_counts.json"))["workloads"][workload]
got = json.loads(open(path).read().strip().splitlines()[-1])["metrics"]
moved = {k: (v, got[k]["value"]) for k, v in want.items() if got[k]["value"] != v}
assert not moved, f"{workload}: counts moved (recorded, measured): {moved}"
print(f"{workload}: all {len(want)} counts match")
PY
done
rm -rf "$counts_dir"

echo "== bench smoke: bench_kernels (DWCP_QUICK=1) =="
# Bitwise parity is asserted inside the binary, which exits non-zero
# (panics) on any violation: CSS SSEs of reference vs solo kernel vs
# batched lane, and every ETS and TBATS lane's full final state, through a
# one-lane pass and in a batched pass, vs the scalar reference.
DWCP_QUICK=1 cargo run -q --release -p dwcp-bench --bin bench_kernels

echo "== snapshot schema: results/BENCH_kernels.json =="
for key in series_len batch iters rows reference_ns kernel_ns batch_ns \
           transform_ns objective_ns kernel_speedup batched_families \
           family shape lanes batch_speedup batch_vs_solo \
           ets_geomean_batch_speedup tbats_geomean_batch_speedup; do
  grep -q "\"$key\"" results/BENCH_kernels.json \
    || { echo "BENCH_kernels.json missing key: $key"; exit 1; }
done
python3 -c '
import json
snap = json.load(open("results/BENCH_kernels.json"))
fam = snap["batched_families"]
families = {r["family"] for r in fam["rows"]}
assert families == {"ETS", "TBATS"}, f"unexpected families: {families}"
ets, tbats = fam["ets_geomean_batch_speedup"], fam["tbats_geomean_batch_speedup"]
# A batched ETS or TBATS pass must beat scoring its lanes one by one on
# every row, the mixed 2-lane passes and the period-52 lanes past the stack
# block included. `kernel_ns` is each lane through a one-lane pass of the
# same kernel (the path of a single fit and a frozen re-score), so
# `batch_vs_solo` is batched against one-lane passes.
worst = {}
for family in ("ETS", "TBATS"):
    row = min((r for r in fam["rows"] if r["family"] == family),
              key=lambda r: r["batch_vs_solo"])
    assert row["batch_vs_solo"] > 1.0, f"batched {family} slower than one-lane passes: {row}"
    worst[family] = "%.2fx, %s" % (row["batch_vs_solo"], row["shape"])
e, t = worst["ETS"], worst["TBATS"]
print(f"kernels snapshot OK (geomean batched speedup: ETS {ets:.2f}x, TBATS {tbats:.2f}x; "
      f"batched/one-lane at least ETS {e}, TBATS {t})")'
git checkout -- results/BENCH_kernels.json 2>/dev/null || true

echo "== perf smoke: bench_grid vs checked-in reference =="
# Guard the acceleration layer against silent regressions: the accelerated
# 2- and 4-thread walls (both the pure-ARIMA sweep and the mixed-family
# auto-mode union grid) must stay within 25% of the checked-in snapshot.
# On the 2-vCPU reference host (`available_parallelism` in the snapshot)
# the 2-thread wall measures scaling and the 4-thread wall time-slicing.
# The 1-thread walls are reported, not gated: a one-thread grid with more
# than 12 batchable chains is the one single-task case whose lockstep
# rounds narrow to the width cap. Full reps (best-of-3) to damp scheduler
# noise; bench_grid itself asserts champion parity across modes/threads
# and that the auto-order champion is never worse than the full sweep.
ref_grid=$(mktemp)
cp results/BENCH_grid.json "$ref_grid"
cargo run -q --release -p dwcp-bench --bin bench_grid
python3 - "$ref_grid" <<'PY' \
  || { echo "bench_grid: accelerated wall regressed >25% vs reference"; rm -f "$ref_grid"; exit 1; }
import json, sys
ref = json.load(open(sys.argv[1]))
new = json.load(open("results/BENCH_grid.json"))
def wall(snap, block, threads):
    return next(r["wall_ms"] for r in snap[block]
                if r["mode"] == "accelerated" and r["threads"] == threads)
regressed = False
for block, label in (("runs", "sweep"), ("auto_mode", "auto-mode")):
    for threads in (1, 2, 4):
        r, n = wall(ref, block, threads), wall(new, block, threads)
        if threads == 1:
            print(f"{label} accelerated 1t: {n:.1f} ms vs reference {r:.1f} ms (reported)")
            continue
        limit = r * 1.25
        print(f"{label} accelerated {threads}t: {n:.1f} ms vs reference {r:.1f} ms "
              f"(limit {limit:.1f} ms)")
        regressed |= n > limit
sys.exit(1 if regressed else 0)
PY
rm -f "$ref_grid"
git checkout -- results/BENCH_grid.json 2>/dev/null || true

echo "== bench smoke: bench_estate (DWCP_QUICK=1) =="
# The estate path's live contracts (one-wave vs waves-of-5 champion parity
# at 1/2/4/8 threads, checkpoint resume, ~100% relearn reuse) are asserted
# inside the binary, which exits non-zero on any violation.
DWCP_QUICK=1 cargo run -q --release -p dwcp-bench --bin bench_estate

echo "== snapshot schema: results/BENCH_estate.json =="
for key in estate n_jobs shards quick throughput jobs_per_second \
           rss_by_wave_size peak_rss_bytes rss_flatness_ratio allatonce \
           bytes_per_job extrapolated_1m_bytes relearn reuse_hit_rate \
           resume resume_skipped refit_only_unfinished parity bit_identical; do
  grep -q "\"$key\"" results/BENCH_estate.json \
    || { echo "BENCH_estate.json missing key: $key"; exit 1; }
done
python3 -c '
import json
snap = json.load(open("results/BENCH_estate.json"))
ratio = snap["rss_flatness_ratio"]
assert ratio <= 2.0, f"peak RSS not flat across wave sizes: {ratio:.2f}x > 2x"
assert snap["parity"]["bit_identical"], "one-wave vs waves-of-5 champion parity broken"
assert snap["resume"]["refit_only_unfinished"], "resume refit more than the unfinished jobs"
print(f"estate snapshot OK (RSS flatness {ratio:.2f}x, parity bit-identical)")'
git checkout -- results/BENCH_estate.json 2>/dev/null || true

echo "== cli smoke: dwcp forecast --method auto =="
auto_csv="$(mktemp /tmp/dwcp_ci_auto_XXXXXX.csv)"
auto_out="$(mktemp /tmp/dwcp_ci_auto_out_XXXXXX.txt)"
trap 'rm -f "$auto_csv" "$auto_out" "${serve_log:-}"; rm -rf "${fleet_dir:-}"' EXIT
cargo run -q --release -- simulate --scenario olap --instance cdbm011 \
  --metric cpu --seed 11 --out "$auto_csv"
cargo run -q --release -- forecast --input "$auto_csv" --method auto \
  > "$auto_out"
grep -q '^# summary: {"champion":' "$auto_out" \
  || { echo "forecast --method auto: missing # summary JSON line"; exit 1; }
family=$(sed -n 's/.*"family":"\([^"]*\)".*/\1/p' "$auto_out" | head -1)
case "$family" in
  ARIMA|SARIMAX|"SARIMAX FFT Exogenous"|HES|TBATS)
    echo "auto picked champion family: $family" ;;
  *) echo "forecast --method auto: unexpected family '$family'"; exit 1 ;;
esac

echo "== cli smoke: dwcp fleet --repo-dir, a second night keeps every champion =="
# Six simulated series (two instances x three metrics) fitted cold on the
# daily protocol into a repository directory, then run again against it:
# every stored champion is fresh, so §5.1's reuse policy re-scores each
# one frozen and keeps it. The second run must print the same champions
# and RMSEs, six frozen re-scores and no appended record.
fleet_dir="$(mktemp -d /tmp/dwcp_ci_fleet_XXXXXX)"
fleet_inputs=""
for metric in cpu memory iops; do
  for instance in cdbm011 cdbm012; do
    csv="$fleet_dir/$instance-$metric.csv"
    cargo run -q --release -- simulate --scenario oltp --instance "$instance" \
      --metric "$metric" --seed 3 --out "$csv" > /dev/null
    fleet_inputs="$fleet_inputs${fleet_inputs:+,}$csv"
  done
done
for night in 1 2; do
  cargo run -q --release -- fleet --inputs "$fleet_inputs" --method hes \
    --granularity daily --repo-dir "$fleet_dir/repo" > "$fleet_dir/night$night.txt"
done
python3 - "$fleet_dir" <<'PY' || { echo "fleet --repo-dir smoke failed"; exit 1; }
import re, sys
d = sys.argv[1]
def night(n):
    text = open(f"{d}/night{n}.txt").read()
    # workload,champion,rmse,mape,reused,fell_back,family: the champion
    # may hold commas, so split the four trailing fields off the right.
    rows = [l.rsplit(",", 4)[0] for l in text.splitlines()
            if l and not l.startswith("#") and not l.startswith("workload,")]
    return text, rows
first, cold = night(1)
second, kept = night(2)
assert len(cold) == 6 and kept == cold, f"champions changed:\n{cold}\n{kept}"
frozen = re.search(r"^# champion reuse: 6 hits \((\d+) frozen re-scores", second, re.M)
assert frozen and frozen.group(1) == "6", f"expected 6 frozen re-scores:\n{second}"
appends = re.search(r"^# repository: .* (\d+) appends,", second, re.M)
assert appends and appends.group(1) == "0", f"expected 0 appends:\n{second}"
print("fleet smoke OK: second night kept all 6 champions, 6 frozen re-scores, 0 appends")
PY
rm -rf "$fleet_dir"

echo "== serve smoke: dwcp serve push/page/forecast/alert/shutdown =="
# Boot the resident daemon on an ephemeral port, push 1010 hours of raw
# 15-minute points over HTTP, and walk every endpoint; the daemon must
# score the series, page it back, fire the threshold rule, and exit
# cleanly on POST /shutdown.
serve_log="$(mktemp /tmp/dwcp_ci_serve_XXXXXX.log)"
cargo run -q --release -- serve --addr 127.0.0.1:0 --method hes --threshold 1 \
  > "$serve_log" &
serve_pid=$!
serve_url=""
for _ in $(seq 1 100); do
  serve_url=$(sed -n 's#.*listening on \(http://[0-9.:]*\) .*#\1#p' "$serve_log")
  [ -n "$serve_url" ] && break
  sleep 0.2
done
[ -n "$serve_url" ] || { echo "dwcp serve never reported its address"; kill "$serve_pid" 2>/dev/null; exit 1; }
python3 - "$serve_url" <<'PY' || { echo "serve smoke failed"; kill "$serve_pid" 2>/dev/null; exit 1; }
import json, math, sys, urllib.request
base = sys.argv[1]
lines = []
for h in range(1010):
    v = 60 + 20 * math.sin(2 * math.pi * h / 24) + (h * 2654435761 % 97) / 25
    for q in range(4):
        lines.append(f"{h*3600 + q*900},{v + (q - 1.5) * 0.2}")
req = urllib.request.Request(base + "/push?workload=ci", data="\n".join(lines).encode(), method="POST")
out = json.load(urllib.request.urlopen(req))
assert out["outcome"]["state"] == "scored" and out["outcome"]["action"] == "learned", out
page = json.load(urllib.request.urlopen(base + "/series?workload=ci&limit=16"))
assert len(page["values"]) == 16 and page["next_cursor"] == 16, page
fc = json.load(urllib.request.urlopen(base + "/forecast?workload=ci"))
assert len(fc["mean"]) > 0 and fc["step_seconds"] == 3600, fc
alerts = json.load(urllib.request.urlopen(base + "/alerts?workload=ci"))
assert alerts["alerts"], "threshold rule at 1% should have fired"
bye = json.load(urllib.request.urlopen(urllib.request.Request(base + "/shutdown", data=b"", method="POST")))
assert bye["status"] == "shutting-down", bye
print("serve smoke OK: push scored, paged read, forecast, alert, clean shutdown")
PY
wait "$serve_pid" || { echo "dwcp serve exited non-zero"; exit 1; }

echo "== docs: cargo doc --no-deps (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "ci.sh: all stages passed"
