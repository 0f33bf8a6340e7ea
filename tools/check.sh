#!/usr/bin/env bash
# Repo health check. Every step is a gate: it passes or the script exits
# non-zero. In order:
#   1. tier-1: configure, build and run the whole ctest suite (build/);
#   2. int8 kernel sweep: the quantized serve-shape GEMM rows must exist and
#      stay at or above packed-fp32 parity;
#   3. TSan (build-tsan/): the concurrency-sensitive tests (thread pool,
#      parallel kernels, nn ops, graph, both trainers, obs, serve, dist);
#   4. ASan+UBSan (build-asan/): the vectorized acting path, both trainers,
#      the nn op/gradient/conv/graph/serialization, obs, serve and dist
#      tests, int8 quantization included;
#   5. pinned hashes: both trainers' golden final parameters (at 1 to 4
#      in-process employees), the int8 forward's, Conv2d's and LayerNorm's
#      CRC pins, LayerNorm's row invariance, and the int8 forward's batch
#      and thread invariance;
#   6. a multi-process train-dist smoke that must drive the publish gate
#      through a reject-then-accept sequence into a live fleet;
#   7. an int8 serve smoke on that trained snapshot, whose startup
#      agreement gate must clear 99%.
# Run from anywhere.
#
# Usage: tools/check.sh [--skip-tsan] [--skip-asan]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"
skip_tsan=0
skip_asan=0
for arg in "$@"; do
  [[ "$arg" == "--skip-tsan" ]] && skip_tsan=1
  [[ "$arg" == "--skip-asan" ]] && skip_asan=1
done

echo "== tier-1: configure + build =="
cmake -B "$repo/build" -S "$repo" >/dev/null
cmake --build "$repo/build" -j "$jobs"

echo "== tier-1: ctest =="
(cd "$repo/build" && ctest --output-on-failure -j "$jobs")

echo "== nn: int8 kernel sweep guard =="
# The quantized serve path's reason to exist is beating packed fp32 on the
# serve-hot shapes. Run the kernel sweep (CEWS_BENCH_KERNELS=1) and require
# the int8 rows to be present and faster than fp32 on every serve shape.
# Machine noise can flatter or punish a single run, so the hard floor here
# is 1.0x (a regression below parity is a real bug, not noise); the
# headline >=1.5x numbers live in BENCH_kernels.json.
if [[ -x "$repo/build/bench/bench_micro_nn" ]]; then
  kernels_out="$(cd "$repo/build" && CEWS_BENCH_KERNELS=1 \
    ./bench/bench_micro_nn --benchmark_filter=NONE 2>/dev/null |
    grep -E 'serve_(fc_fwd|conv2_img).*(fc|conv) +m=' || true)"
  echo "$kernels_out"
  int8_rows="$(echo "$kernels_out" | grep -c 'int8' || true)"
  if [[ "$int8_rows" -lt 4 ]]; then
    echo "FAIL: expected >=4 int8 kernel rows in the sweep (got ${int8_rows})"
    exit 1
  fi
  if echo "$kernels_out" | awk '{for (i=1;i<=NF;i++) if ($i == "speedup")
      {s=$(i+1); sub(/x$/, "", s); if (s + 0 < 1.0) exit 1}}'; then
    echo "int8 rows all at or above fp32 parity"
  else
    echo "FAIL: an int8 serve-shape row regressed below packed-fp32 parity"
    exit 1
  fi
else
  echo "FAIL: bench_micro_nn not built (configure with CEWS_BUILD_BENCHMARKS=ON)"
  exit 1
fi

if [[ "$skip_tsan" == 1 ]]; then
  echo "== skipping TSan pass (--skip-tsan) =="
else
  echo "== tsan: configure + build (tests only) =="
  cmake -B "$repo/build-tsan" -S "$repo" \
    -DCEWS_SANITIZE=thread \
    -DCEWS_BUILD_BENCHMARKS=OFF \
    -DCEWS_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$repo/build-tsan" -j "$jobs" --target \
    common_thread_pool_test nn_parallel_determinism_test nn_gemm_test \
    nn_conv_test nn_ops_test nn_quant_test nn_graph_test \
    agents_graph_equivalence_test agents_trainer_core_test \
    agents_trainer_test agents_async_test obs_metrics_test obs_trace_test \
    obs_integration_test obs_rolling_test obs_flight_test \
    serve_batcher_test serve_server_test serve_fleet_test serve_trace_test \
    serve_quant_test dist_transport_test dist_trainer_equivalence_test

  echo "== tsan: concurrency tests =="
  (cd "$repo/build-tsan" && ctest --output-on-failure -j "$jobs" -R \
    "common_thread_pool_test|nn_parallel_determinism_test|nn_gemm_test|nn_conv_test|nn_ops_test|nn_quant_test|nn_graph_test|agents_graph_equivalence_test|agents_trainer_core_test|agents_trainer_test|agents_async_test|obs_metrics_test|obs_trace_test|obs_integration_test|obs_rolling_test|obs_flight_test|serve_batcher_test|serve_server_test|serve_fleet_test|serve_trace_test|serve_quant_test|dist_transport_test|dist_trainer_equivalence_test")
fi

if [[ "$skip_asan" == 1 ]]; then
  echo "== skipping ASan+UBSan pass (--skip-asan) =="
else
  echo "== asan+ubsan: configure + build (tests only) =="
  cmake -B "$repo/build-asan" -S "$repo" \
    -DCEWS_SANITIZE=address,undefined \
    -DCEWS_BUILD_BENCHMARKS=OFF \
    -DCEWS_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$repo/build-asan" -j "$jobs" --target \
    env_vec_env_test agents_trainer_core_test agents_vec_equivalence_test \
    agents_trainer_test agents_async_test nn_gemm_test nn_quant_test \
    nn_graph_test agents_graph_equivalence_test nn_ops_test \
    nn_grad_check_test nn_parallel_determinism_test nn_conv_test \
    nn_serialize_test obs_rolling_test obs_flight_test \
    serve_batcher_test serve_server_test serve_fleet_test serve_trace_test \
    serve_quant_test dist_transport_test dist_trainer_equivalence_test

  echo "== asan+ubsan: vec acting + nn + serve + dist path tests =="
  (cd "$repo/build-asan" && ctest --output-on-failure -j "$jobs" -R \
    "env_vec_env_test|agents_trainer_core_test|agents_vec_equivalence_test|agents_trainer_test|agents_async_test|nn_gemm_test|nn_quant_test|nn_graph_test|agents_graph_equivalence_test|nn_ops_test|nn_grad_check_test|nn_parallel_determinism_test|nn_conv_test|nn_serialize_test|obs_rolling_test|obs_flight_test|serve_batcher_test|serve_server_test|serve_fleet_test|serve_trace_test|serve_quant_test|dist_transport_test|dist_trainer_equivalence_test")
fi

echo "== graph + dist + int8: pinned-hash guard =="
# Compiling the training losses must never change training numerics: full
# in-process training runs (spatial curiosity, RND, no intrinsic module) at
# pool widths 0/1/2/4 must end on the final-parameter hashes pinned from the
# per-call tape; in-process runs at 2, 3 and 4 employees must repeat
# bitwise and end on their own pins (the chief sums the employees'
# gradients in employee order); and the dist trainer's reference run must
# end on its own pinned hashes in each intrinsic mode (the two trainers
# share their cores, so these catch drift the dist equivalence test cannot
# see). The int8 serving forward must end on its pinned output CRCs at
# batch 1 and 16, since it shares the trunk's conv geometry, staging,
# LayerNorm and GEMM code, and each instance's outputs must not depend on
# the batch around it (its column tiles straddle images) or on the pool
# width. Conv2d's forward output and dx/dW/db must end on their pinned
# CRCs for the trunk stages and the non-trunk geometries, eager and
# compiled, at pool widths 1 and 4; so must LayerNorm's y, dx, dgamma and
# dbeta at the trunk's row widths, and n rows normalized together must
# equal n single-row calls (its statistics run a row group at a time).
# Runs in the plain build so a regression fails the check even when both
# sanitizer passes are skipped.
"$repo/build/tests/agents_graph_equivalence_test" \
  --gtest_filter='*PinnedTapeHash*'
"$repo/build/tests/agents_trainer_test" \
  --gtest_filter='*SummedGradientsRepeatAtAnyEmployeeCount*'
"$repo/build/tests/dist_trainer_equivalence_test" \
  --gtest_filter='*PinnedHash*'
"$repo/build/tests/serve_quant_test" --gtest_filter='*Pinned*:*Invariant*'
"$repo/build/tests/nn_conv_test"
"$repo/build/tests/nn_ops_test" --gtest_filter='LayerNormPinTest.*'

echo "== dist: multi-process train-dist + publish-gate smoke =="
# End-to-end exercise of the distributed trainer: a chief forks two
# employee processes, trains 8 iterations over a unix socket, and the
# deploy gate (every 2 iterations) evaluates each candidate before
# publishing into a live fleet. Seed 8 is chosen because its kappa curve
# dips and recovers, so the gate must REJECT at least one snapshot and
# later ACCEPT again — proving both gate branches and the re-publish path.
# The whole run is bitwise deterministic, so this sequence is stable.
if [[ -x "$repo/build/tools/cews" ]]; then
  smoke_out="$("$repo/build/tools/cews" train-dist --spawn 2 \
    --iterations 8 --publish-every 2 --horizon 20 --pois 30 --batch 32 \
    --envs-per-employee 1 --seed 8 \
    --snapshot "$repo/build/check_dist_snapshot.bin" \
    --address "unix:/tmp/cews_check_dist_$$.sock" 2>&1)" || {
    echo "$smoke_out"
    echo "FAIL: train-dist smoke run exited non-zero"
    exit 1
  }
  gate_seq="$(echo "$smoke_out" | grep -o 'deploy gate [A-Z]*' |
    awk '{print $3}' | paste -sd' ' -)"
  echo "publish gate sequence: ${gate_seq}"
  if ! echo "$gate_seq" | grep -q 'REJECTED.*ACCEPTED'; then
    echo "$smoke_out"
    echo "FAIL: expected a REJECTED publish followed by a later ACCEPTED" \
         "(got: ${gate_seq})"
    exit 1
  fi
  fleet_line="$(echo "$smoke_out" | grep 'fleet check:')"
  echo "$fleet_line"
  if ! echo "$fleet_line" | grep -q 'errors=0'; then
    echo "$smoke_out"
    echo "FAIL: fleet served errors after publish (${fleet_line})"
    exit 1
  fi
  echo "== serve: int8 agreement smoke (trained checkpoint) =="
  # Serve the snapshot the dist smoke just trained at int8: the startup
  # gate replays a deterministic rollout and refuses to serve below 99%
  # fp32-argmax agreement, so a quantization regression fails the check
  # with a real (trained, non-random) policy.
  agree_out="$("$repo/build/tools/cews" serve --scenario earthquake-site \
    --ckpt "$repo/build/check_dist_snapshot.bin" --precision int8 \
    --clients 4 --requests 8 2>&1)" || {
    echo "$agree_out"
    echo "FAIL: int8 serve smoke exited non-zero (agreement gate?)"
    exit 1
  }
  echo "$agree_out" | grep 'int8 agreement:' || {
    echo "$agree_out"
    echo "FAIL: int8 serve smoke printed no agreement line"
    exit 1
  }
  rm -f "$repo/build/check_dist_snapshot.bin"
else
  echo "FAIL: cews CLI not built; dist smoke cannot run"
  exit 1
fi

echo "== all checks passed =="
