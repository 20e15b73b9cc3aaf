#!/bin/sh
# Validates the committed BENCH_*.json artifacts: each benchmark that
# publishes a machine-readable result at the repo root must be present
# and carry the schema keys downstream trajectory tooling reads. Catches
# both a missing artifact (a bench stopped writing it, or it was never
# re-committed after a bench change) and a stale schema (the bench's
# JSON shape moved without regenerating the checked-in copy).
#
# Usage: scripts/check_bench_artifacts.sh [dir]
#   dir  directory holding the BENCH_*.json files (default: repo root).
#        Pointing it at a bench build directory validates freshly
#        generated output before it is copied over the committed files.
set -eu

Dir="${1:-$(dirname "$0")/..}"
Failures=0

# check <file> <key>...: the file must exist and contain every key.
check() {
  File="$Dir/$1"
  shift
  if [ ! -f "$File" ]; then
    echo "MISSING  $File" >&2
    Failures=$((Failures + 1))
    return 0
  fi
  for Key in "$@"; do
    if ! grep -q "\"$Key\"" "$File"; then
      echo "STALE    $File: missing key \"$Key\"" >&2
      Failures=$((Failures + 1))
    fi
  done
  echo "ok       $File"
}

# Every SampleStats distribution carries tail estimates alongside the
# mean (p50 duplicates the median for downstream percentile tooling).
check BENCH_record_overhead.json \
  bench workload reps policies name overhead_vs_end_of_run ticks \
  demo_bytes on_disk_bytes ticks_per_sec wall_ms p50 p95 p99

check BENCH_trace_overhead.json \
  bench workload reps modes name trace_events trace_dropped \
  overhead_vs_off ticks_per_sec wall_ms p50 p95 p99

check BENCH_profile_overhead.json \
  bench workload reps modes name segments contention_edges blocked_ticks \
  telemetry_frames overhead_vs_off ticks_per_sec wall_ms p50 p95 p99

check BENCH_sched_throughput.json \
  bench workload reps ops_per_thread configs name commit strategy \
  threads ticks spurious_wakeups targeted_wakeups broadcast_wakeups \
  fast_path_commits slow_path_commits fast_path_aborts \
  speedup_vs_mutex ticks_per_sec wall_ms p50 p95 p99

check BENCH_recovery.json \
  bench workload reps modes name overhead_vs_strict ticks actions \
  ticks_per_sec wall_ms recovered_runs runs successes success_rate \
  p50 p95 p99

check BENCH_race_overhead.json \
  bench workload warmup_reps reps iters configs name threads \
  plain_accesses same_epoch_hits fast_path_hits accesses_per_sec_median \
  accesses_per_sec_iqr accesses_per_sec wall_ms apps same_epoch_fraction \
  litmus identical_reports p50 p95 p99

check BENCH_fleet_throughput.json \
  bench workload reps requests_per_session solo_wall_ms max_sessions \
  fleet name sessions sessions_per_sec agg_ticks_per_sec \
  per_session_overhead_vs_solo hard_desyncs deadlocks \
  demo_bit_identical_to_solo replay_identical wall_ms p50 p95 p99

if [ "$Failures" -ne 0 ]; then
  echo "bench artifacts: $Failures problem(s) — regenerate with the" \
    "bench binaries and re-commit" >&2
  exit 1
fi
echo "bench artifacts: all present with expected schemas"
