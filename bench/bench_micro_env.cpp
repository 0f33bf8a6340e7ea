// Micro-benchmarks of the crowdsensing simulator (google-benchmark).
#include <benchmark/benchmark.h>

#include "baselines/dnc.h"
#include "baselines/greedy.h"
#include "env/env.h"
#include "env/map.h"
#include "env/state_encoder.h"
#include "env/vec_env.h"

namespace {

using namespace cews;

env::Map BenchMap(int pois, int workers) {
  env::MapConfig config;
  config.num_pois = pois;
  config.num_workers = workers;
  Rng rng(42);
  auto result = env::GenerateMap(config, rng);
  CEWS_CHECK(result.ok());
  return std::move(result).value();
}

void BM_GenerateMap(benchmark::State& state) {
  env::MapConfig config;
  config.num_pois = static_cast<int>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(env::GenerateMap(config, rng));
  }
}
BENCHMARK(BM_GenerateMap)->Arg(100)->Arg(500);

void BM_EnvStep(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  env::Env env(env::EnvConfig{}, BenchMap(300, workers));
  Rng rng(2);
  std::vector<env::WorkerAction> actions(static_cast<size_t>(workers));
  for (auto _ : state) {
    if (env.Done()) env.Reset();
    for (auto& a : actions) {
      a.move = static_cast<int>(rng.UniformInt(17));
      a.charge = rng.Bernoulli(0.1);
    }
    benchmark::DoNotOptimize(env.Step(actions));
  }
  state.SetItemsProcessed(state.iterations() * workers);
}
BENCHMARK(BM_EnvStep)->Arg(1)->Arg(2)->Arg(10);

void BM_StateEncode(benchmark::State& state) {
  const int grid = static_cast<int>(state.range(0));
  env::Env env(env::EnvConfig{}, BenchMap(300, 2));
  env::StateEncoder encoder({grid});
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Encode(env));
  }
}
BENCHMARK(BM_StateEncode)->Arg(12)->Arg(20);

/// The per-step move-validity mask the acting path attaches to each env.
void BM_MoveValidityMask(benchmark::State& state) {
  env::Env env(env::EnvConfig{}, BenchMap(300, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(env::MoveValidityMask(env));
  }
}
BENCHMARK(BM_MoveValidityMask);

void BM_GreedyPlan(benchmark::State& state) {
  env::Env env(env::EnvConfig{}, BenchMap(300, 2));
  baselines::GreedyPlanner planner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.Plan(env));
  }
}
BENCHMARK(BM_GreedyPlan);

void BM_DncPlan(benchmark::State& state) {
  const int pois = static_cast<int>(state.range(0));
  env::Env env(env::EnvConfig{}, BenchMap(pois, 2));
  baselines::DncPlanner planner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.Plan(env));
  }
}
BENCHMARK(BM_DncPlan)->Arg(100)->Arg(300);

void BM_SegmentFree(benchmark::State& state) {
  const env::Map map = BenchMap(100, 1);
  Rng rng(3);
  for (auto _ : state) {
    const env::Position a{rng.Uniform(0.1, 15.9), rng.Uniform(0.1, 15.9)};
    const env::Position b{rng.Uniform(0.1, 15.9), rng.Uniform(0.1, 15.9)};
    benchmark::DoNotOptimize(map.SegmentFree(a, b));
  }
}
BENCHMARK(BM_SegmentFree);

}  // namespace

BENCHMARK_MAIN();
