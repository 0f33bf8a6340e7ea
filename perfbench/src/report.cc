#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/check.h"
#include "core/scenarios.h"

namespace perfbench {

// Every workload prints every metric of its run's schema. The end-to-end
// metrics are defined on all four workloads (README.md maps each one to
// the per-product name it stands for); per-layer metrics of a layer a
// workload does not exercise read 0.
const std::vector<MetricSpec> kEndToEnd = {
    {"throughput_per_s", "1/s"}, {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"env.steps", "count"},
    {"env.step_encode_us", "us"},
    {"agents.act_us", "us"},
    {"agents.rollout_s", "s"},
    {"agents.ppo_fwd_us", "us"},
    {"agents.ppo_bwd_us", "us"},
    {"agents.curiosity_reward_us", "us"},
    {"agents.curiosity_update_us", "us"},
    {"agents.learn_s", "s"},
    {"agents.barrier_wait_s", "s"},
    {"nn.adam_step_us", "us"},
    {"nn.clip_us", "us"},
    {"nn.conv2d_fwd_s", "s"},
    {"nn.conv2d_bwd_s", "s"},
    {"nn.matmul_fwd_s", "s"},
    {"nn.matmul_bwd_s", "s"},
    {"nn.gemm_pack_s", "s"},
    {"nn.conv2d_gflops", "GFLOP/s"},
    {"nn.workspace_misses", "count"},
    {"nn.forward_fp32_b1_us", "us"},
    {"nn.forward_fp32_b8_us", "us"},
    {"nn.forward_int8_b16_us", "us"},
    {"dist.rx_bytes_per_iter", "B"},
    {"dist.tx_bytes_per_iter", "B"},
    {"dist.pack_us", "us"},
    {"dist.unpack_us", "us"},
    {"dist.merge_us", "us"},
    {"dist.employee_iter_s", "s"},
    {"dist.learn_s", "s"},
    {"dist.transport_residual_s", "s"},
    {"serve.queue_wait_p50_us", "us"},
    {"serve.queue_wait_p99_us", "us"},
    {"serve.batch_assemble_us", "us"},
    {"serve.forward_us", "us"},
    {"serve.scatter_us", "us"},
    {"serve.mean_batch", "requests"},
    {"serve.notify_us", "us"},
    {"serve.shed_frac", "frac"},
    {"serve.publish_ms", "ms"},
    {"loadgen.late_p50_us", "us"},
    {"loadgen.late_p99_us", "us"},
    {"obs.trace_overhead_frac", "frac"},
    {"closure_err_frac", "frac"},
};

cews::env::Map MakeMap() {
  auto map = cews::core::MakeScenario(cews::core::Scenario::kEarthquakeSite,
                                      /*pois=*/150, /*workers=*/2,
                                      /*stations=*/4, /*seed=*/42);
  CEWS_CHECK(map.ok()) << map.status().ToString();
  return std::move(map.value());
}

cews::agents::TrainerConfig QuickConfig(cews::core::Algorithm algorithm,
                                        int employees, int envs, int episodes,
                                        uint64_t seed) {
  cews::core::BenchmarkOptions options;
  options.episodes = episodes;
  options.num_employees = employees;
  options.envs_per_employee = envs;
  options.batch_size = 64;
  options.runtime_threads = 1;
  options.seed = seed;
  options.grid = 12;
  options.net.conv1_channels = 4;
  options.net.conv2_channels = 6;
  options.net.conv3_channels = 6;
  options.net.feature_dim = 64;
  cews::env::EnvConfig env_config;
  env_config.horizon = kHorizon;
  return cews::core::MakeTrainerConfig(algorithm, env_config, options);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t HashFloats(const std::vector<float>& values) {
  uint64_t h = 1469598103934665603ULL;
  for (const float f : values) {
    uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

bool AllFinite(const std::vector<float>& values) {
  for (const float f : values) {
    if (!std::isfinite(f)) return false;
  }
  return true;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

double RegistryMark::CounterDelta(const std::string& name) const {
  const cews::obs::MetricsSnapshot now = cews::obs::SnapshotMetrics();
  return static_cast<double>(now.CounterValue(name)) -
         static_cast<double>(snapshot_.CounterValue(name));
}

double RegistryMark::HistSumDelta(const std::string& name) const {
  const cews::obs::MetricsSnapshot now = cews::obs::SnapshotMetrics();
  const cews::obs::HistogramSnapshot* after = now.FindHistogram(name);
  const cews::obs::HistogramSnapshot* before = snapshot_.FindHistogram(name);
  return (after != nullptr ? static_cast<double>(after->sum) : 0.0) -
         (before != nullptr ? static_cast<double>(before->sum) : 0.0);
}

double RegistryMark::HistCountDelta(const std::string& name) const {
  const cews::obs::MetricsSnapshot now = cews::obs::SnapshotMetrics();
  const cews::obs::HistogramSnapshot* after = now.FindHistogram(name);
  const cews::obs::HistogramSnapshot* before = snapshot_.FindHistogram(name);
  return (after != nullptr ? static_cast<double>(after->count) : 0.0) -
         (before != nullptr ? static_cast<double>(before->count) : 0.0);
}

std::string Num(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

Report::Report(const std::vector<MetricSpec>& schema)
    : schema_(schema), values_(schema.size(), 0.0) {}

void Report::Metric(const std::string& name, double value) {
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (name == schema_[i].name) {
      values_[i] = value;
      return;
    }
  }
  CEWS_CHECK(false) << "metric '" << name << "' is not in this run's schema";
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Fail(const std::string& why) {
  failures_.push_back(why);
  notes_.push_back("CHECK FAILED: " + why);
}

void Report::Print() const {
  for (const std::string& line : notes_) std::printf("# %s\n", line.c_str());
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (i > 0) json += ", ";
    json.append("\"").append(schema_[i].name).append("\": {\"value\": ");
    json.append(Num(values_[i])).append(", \"unit\": \"");
    json.append(schema_[i].unit).append("\"}");
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
