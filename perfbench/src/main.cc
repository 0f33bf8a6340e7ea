// perfbench: the end-to-end benchmark of both products, the trainers and
// the serving fleet.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--source <id>]
//
// Workloads: train-inproc, train-dist, serve-steady, serve-saturate
// (README.md says why each exists). --trace 0 measures the end-to-end
// metrics with tracing off; --trace 1 is the separate traced run that
// reports the per-layer breakdown. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "report.h"

namespace {

/// Runtime toggles that select a non-default program. Every number must
/// measure the default one, so a run refuses to start when any is set.
constexpr const char* kForbiddenEnv[] = {
    "CEWS_NN_GRAPH",    "CEWS_NN_CKPT",     "CEWS_CONV_CACHE",
    "CEWS_NUM_THREADS", "CEWS_OBS_TRACE",   "CEWS_OBS_PROFILE",
    "CEWS_INT8_VNNI",
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train-inproc|train-dist|serve-steady|serve-saturate> "
               "--seed <n> --seconds <s> --trace <0|1> [--source <id>]\n",
               why);
  return 2;
}

std::string CpuFlags() {
  __builtin_cpu_init();
  std::string flags;
  flags += __builtin_cpu_supports("avx512f") ? "avx512f=1" : "avx512f=0";
  flags += __builtin_cpu_supports("avx512vnni") ? " avx512vnni=1"
                                                 : " avx512vnni=0";
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string source = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0 && options.seconds <= 600)) {
        return Usage("bad --seconds");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--source") {
      source = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  for (const char* name : kForbiddenEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: %s is set; unset it so the run measures the "
                   "default program\n",
                   name);
      return 2;
    }
  }

  perfbench::Report report(options.trace ? perfbench::kPerLayer
                                         : perfbench::kEndToEnd);
  report.Note("machine: nproc=" +
              std::to_string(std::thread::hardware_concurrency()) + " " +
              CpuFlags() + ", compiler=g++ " + __VERSION__ +
              ", build=" + PERFBENCH_BUILD_TYPE + ", source=" + source);
  report.Note("run: workload=" + options.workload +
              " seed=" + std::to_string(options.seed) +
              " seconds=" + perfbench::Num(options.seconds) +
              " trace=" + (options.trace ? "1" : "0"));
  int rc = 0;
  if (options.workload == "train-inproc") {
    rc = perfbench::RunTrainInproc(options, report);
  } else if (options.workload == "train-dist") {
    rc = perfbench::RunTrainDist(options, report);
  } else if (options.workload == "serve-steady") {
    rc = perfbench::RunServeSteady(options, report);
  } else if (options.workload == "serve-saturate") {
    rc = perfbench::RunServeSaturate(options, report);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  if (rc != 0) return rc;
  report.Print();
  return 0;
}
