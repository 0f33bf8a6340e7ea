// Shared plumbing of the benchmark: run options, statistics over samples,
// the result report (human-readable lines plus the final JSON line), and
// process-level measurements (peak RSS, registry deltas).
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "agents/chief_employee.h"
#include "common/stopwatch.h"
#include "core/algorithms.h"
#include "env/map.h"
#include "obs/metrics.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Episode length of every workload (the `cews train` default).
inline constexpr int kHorizon = 60;

/// The earthquake-site scenario every workload runs on (`cews` defaults:
/// 150 PoIs, 2 workers, 4 stations, map seed 42).
cews::env::Map MakeMap();

/// The `cews train` quick-scale configuration: grid 12, conv 4/6/6,
/// feature 64, batch 64, 6 update epochs, horizon 60, runtime_threads 1.
cews::agents::TrainerConfig QuickConfig(cews::core::Algorithm algorithm,
                                        int employees, int envs, int episodes,
                                        uint64_t seed);

inline double NowUs() {
  return static_cast<double>(cews::Stopwatch::NowNs()) * 1e-3;
}

/// Linear-interpolated percentile (p in [0, 1]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }
double Mean(const std::vector<double>& v);

/// Peak resident set of this process, in MB.
double SelfPeakRssMb();

/// FNV-1a over the bytes of `values`: a printable fingerprint of a
/// parameter vector, equal iff the floats are bitwise equal (modulo
/// collisions).
uint64_t HashFloats(const std::vector<float>& values);
bool AllFinite(const std::vector<float>& values);
/// Same length and same bits (so -0 differs from 0 and NaN equals itself).
bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b);

/// Registry values captured at one instant, for before/after deltas.
class RegistryMark {
 public:
  RegistryMark() : snapshot_(cews::obs::SnapshotMetrics()) {}
  /// Counter growth since this mark.
  double CounterDelta(const std::string& name) const;
  /// Histogram sum growth since this mark.
  double HistSumDelta(const std::string& name) const;
  double HistCountDelta(const std::string& name) const;

 private:
  cews::obs::MetricsSnapshot snapshot_;
};

/// One metric of the final JSON line.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metrics an untraced run prints (BENCHMARK.json "end_to_end").
extern const std::vector<MetricSpec> kEndToEnd;
/// The metrics a traced run prints (BENCHMARK.json "per_layer").
extern const std::vector<MetricSpec> kPerLayer;

/// Collects everything one invocation prints. Metrics go into the final
/// JSON line; notes are human-readable lines printed before it.
class Report {
 public:
  /// Every metric of `schema` starts at 0: a layer a workload does not
  /// exercise reads 0 in its traced run.
  explicit Report(const std::vector<MetricSpec>& schema);
  /// Sets a metric of the schema (CHECK-fails on a name outside it).
  void Metric(const std::string& name, double value);
  void Note(const std::string& line);
  /// Records a failed correctness check (the run reports correct=false).
  void Fail(const std::string& why);
  /// Operations the workload attempted and how many of them failed.
  void Ops(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return failures_.empty(); }
  /// Prints the notes, then the JSON line with every metric.
  void Print() const;

 private:
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  const std::vector<MetricSpec>& schema_;
  std::vector<double> values_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Formats `value` with all the digits a double carries.
std::string Num(double value);

int RunTrainInproc(const Options& options, Report& report);
int RunTrainDist(const Options& options, Report& report);
int RunServeSteady(const Options& options, Report& report);
int RunServeSaturate(const Options& options, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
