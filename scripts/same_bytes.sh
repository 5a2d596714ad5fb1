#!/usr/bin/env bash
# Checks that two builds of the tree write the same bytes, for changes
# that must not move any output:
#   - the registry scenarios' reports at --jobs 1 and 4 (cmp);
#   - a cold figure2 + table2 result store (diff -r);
#   - `plcsim sim --n 5 --time-s 20 --reps 3 --observatory` with
#     --stations-out, --trace --trace-counters, --metrics, --report and
#     --progress, on 3 workers from PLC_JOBS: trace, metrics and stations
#     JSONL byte for byte, stdout apart from its jobs/speedup and wall
#     lines, the report apart from its wall fields;
#   - `plcsim testbed --n 3 --time-s 20 --mme-ms 50 --sniff` with
#     --capture, --trace, --metrics, --report and --progress: capture,
#     trace, metrics and stdout byte for byte, the report apart from its
#     wall fields;
#   - `plcsim model --n 4`, `plcsim boost --n 8` and `plcsim delay --n 2
#     --load 0.3 --time-s 10`, the analytical models' commands: stdout;
#   - eight bench_ext_* harnesses (E7, E10-E15, E17): stdout apart from
#     lines that mention wall time, the BENCH JSON apart from its wall
#     fields;
#   - `testbed_measurement 3 20`, the §3 measurement example: stdout.
#
# usage: scripts/same_bytes.sh <parent-build> <change-build> [work-dir]
#
# Each build is a CMake build tree of this repository (examples/plcsim,
# examples/testbed_measurement, bench/bench_ext_*). Outputs go to
# work-dir (default: a fresh temporary directory), under parent/ and
# change/. Prints one line per check and exits 0 when everything
# matches, 1 on any other difference, 2 on a usage error or a failed
# run.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
  echo "usage: $0 <parent-build> <change-build> [work-dir]" >&2
  exit 2
fi
builds=("$(cd "$1" && pwd)" "$(cd "$2" && pwd)")
sides=(parent change)
work=${3:-$(mktemp -d)}
mkdir -p "$work/parent" "$work/change"
work=$(cd "$work" && pwd)
report_diff=(python3 "$(cd "$(dirname "$0")" && pwd)/report_diff.py")
wall_fields=(--allow wall_seconds --allow events_per_second
             --allow sim_seconds_per_wall_second)
differences=0

same() { echo "same     $*"; }
differ() {
  echo "DIFFERS  $*"
  differences=$((differences + 1))
}
# Runs "$@" in $work/<side>; exits 2 if it fails.
run_in() {
  local side=$1
  shift
  if ! (cd "$work/$side" && "$@"); then
    echo "same_bytes: failed in $side: $*" >&2
    exit 2
  fi
}

plcsim() { echo "${builds[$1]}/examples/plcsim"; }

# --- Registry scenarios -------------------------------------------------------
scenarios=$("$(plcsim 1)" scenario --list)
if [[ "$("$(plcsim 0)" scenario --list)" != "$scenarios" ]]; then
  differ "scenario --list"
fi
for name in $scenarios; do
  for jobs in 1 4; do
    report="scenario-$name-jobs$jobs.json"
    for i in 0 1; do
      run_in "${sides[$i]}" "$(plcsim "$i")" scenario "$name" \
        --jobs "$jobs" --report "$report" > /dev/null 2>&1
    done
    if cmp -s "$work/parent/$report" "$work/change/$report"; then
      same "scenario $name --jobs $jobs report"
    else
      differ "scenario $name --jobs $jobs report"
    fi
  done
done

# --- A cold figure2 + table2 store ---------------------------------------------
for i in 0 1; do
  for name in figure2 table2; do
    run_in "${sides[$i]}" "$(plcsim "$i")" scenario "$name" --jobs 4 \
      --cache store > /dev/null 2>&1
  done
done
if diff -r "$work/parent/store" "$work/change/store" > /dev/null; then
  same "figure2 + table2 store"
else
  differ "figure2 + table2 store"
fi

# --- The sim CLI --------------------------------------------------------------------
# Without --jobs, so the trace carries no wall-clock task spans.
for i in 0 1; do
  side=${sides[$i]}
  run_in "$side" env PLC_JOBS=3 "$(plcsim "$i")" sim --n 5 --time-s 20 \
    --reps 3 --observatory --stations-out sim-stations.jsonl \
    --trace sim-trace.json --trace-counters --metrics sim-metrics.json \
    --report sim-report.json --progress > "$work/$side/sim.out" 2> /dev/null
  grep -v -e '^jobs=.*speedup' -e 'wall' "$work/$side/sim.out" \
    > "$work/$side/sim.out.nowall" || true
done
for file in sim-trace.json sim-metrics.json sim-stations.jsonl; do
  if cmp -s "$work/parent/$file" "$work/change/$file"; then
    same "sim $file"
  else
    differ "sim $file"
  fi
done
if cmp -s "$work/parent/sim.out.nowall" "$work/change/sim.out.nowall"; then
  same "sim stdout (jobs and wall lines aside)"
else
  differ "sim stdout"
fi
if "${report_diff[@]}" "${wall_fields[@]}" "$work/parent/sim-report.json" \
     "$work/change/sim-report.json" > /dev/null; then
  same "sim sim-report.json (wall fields aside)"
else
  differ "sim sim-report.json"
fi

# --- The testbed CLI ----------------------------------------------------------------
for i in 0 1; do
  run_in "${sides[$i]}" "$(plcsim "$i")" testbed --n 3 --time-s 20 \
    --mme-ms 50 --sniff --capture testbed.plcc --trace testbed-trace.json \
    --metrics testbed-metrics.json --report testbed-report.json --progress \
    > "$work/${sides[$i]}/testbed.out" 2> /dev/null
done
for file in testbed.plcc testbed-trace.json testbed-metrics.json testbed.out; do
  if cmp -s "$work/parent/$file" "$work/change/$file"; then
    same "testbed $file"
  else
    differ "testbed $file"
  fi
done
if "${report_diff[@]}" "${wall_fields[@]}" "$work/parent/testbed-report.json" \
     "$work/change/testbed-report.json" > /dev/null; then
  same "testbed testbed-report.json (wall fields aside)"
else
  differ "testbed testbed-report.json"
fi

# --- The model CLI -------------------------------------------------------------------
for command in "model --n 4" "boost --n 8" "delay --n 2 --load 0.3 --time-s 10"; do
  out="${command%% *}.out"
  for i in 0 1; do
    # shellcheck disable=SC2086  # $command is intentionally word-split.
    run_in "${sides[$i]}" "$(plcsim "$i")" $command \
      > "$work/${sides[$i]}/$out"
  done
  if cmp -s "$work/parent/$out" "$work/change/$out"; then
    same "plcsim $command stdout"
  else
    differ "plcsim $command stdout"
  fi
done

# --- bench_ext harnesses ------------------------------------------------------------
for bench in coexistence short_term_fairness tdma_qos priority_classes \
             retry_limit delay_vs_load mme_overhead tonemap_adaptation; do
  for i in 0 1; do
    side=${sides[$i]}
    mkdir -p "$work/$side/bench"
    run_in "$side" env PLC_BENCH_DIR="$work/$side/bench" \
      "${builds[$i]}/bench/bench_ext_$bench" \
      > "$work/$side/bench/$bench.out" 2> /dev/null
    grep -v -i wall "$work/$side/bench/$bench.out" \
      > "$work/$side/bench/$bench.out.nowall" || true
  done
  if cmp -s "$work/parent/bench/$bench.out.nowall" \
       "$work/change/bench/$bench.out.nowall"; then
    same "bench_ext_$bench stdout (wall lines aside)"
  else
    differ "bench_ext_$bench stdout"
  fi
  json="BENCH_ext_$bench.json"
  if "${report_diff[@]}" "${wall_fields[@]}" "$work/parent/bench/$json" \
       "$work/change/bench/$json" > /dev/null; then
    same "bench_ext_$bench $json (wall fields aside)"
  else
    differ "bench_ext_$bench $json"
  fi
done

# --- The testbed_measurement example ------------------------------------------------
for i in 0 1; do
  run_in "${sides[$i]}" "${builds[$i]}/examples/testbed_measurement" 3 20 \
    > "$work/${sides[$i]}/testbed_measurement.out"
done
if cmp -s "$work/parent/testbed_measurement.out" \
     "$work/change/testbed_measurement.out"; then
  same "testbed_measurement 3 20 stdout"
else
  differ "testbed_measurement 3 20 stdout"
fi

echo "outputs in $work"
if [[ $differences -gt 0 ]]; then
  echo "same_bytes: $differences difference(s)"
  exit 1
fi
echo "same_bytes: all outputs match"
