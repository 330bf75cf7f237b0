// perfbench: host-time benchmark of the mfw libraries.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload single-threaded in this process for about `seconds` of
// timed ops (its set-up is also run, one at a time, in forked child
// processes, so that setup_s is a median of cold set-ups) and prints, as the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "values", "idle"}: the metrics measured,
// by name (with --trace 1 the per-layer ones too), and the layers idle in
// the workload. Normally started by perfbench/run.py, which builds this
// binary in Release first and turns this line into the result BENCHMARK.json
// declares.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/log.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

/// CPU count of the reference host whose figures perfbench/README.md quotes.
constexpr unsigned kReferenceCpus = 4;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<campaign_watch|campaign_content|serve_read|serve_ingest> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// The raw result line run.py reads: the measured values by name and the
/// idle layers. run.py attaches the units BENCHMARK.json declares.
void print_result(const WorkloadResult& result) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"values\": {";
  const char* sep = "";
  for (const auto& [name, value] : result.metrics) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json += sep + json_string(name) + ": " + buf;
    sep = ", ";
  }
  json += "}, \"idle\": [";
  sep = "";
  for (const auto& name : result.idle) {
    json += sep + json_string(name);
    sep = ", ";
  }
  json += "]}";
  std::printf("%s\n", json.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunContext ctx;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (!std::strcmp(flag, "--workload")) {
      ctx.workload = value;
    } else if (!std::strcmp(flag, "--seed")) {
      ctx.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (!std::strcmp(flag, "--seconds")) {
      ctx.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(ctx.seconds > 0.0) || ctx.seconds > 120.0)
        return usage();
    } else if (!std::strcmp(flag, "--trace")) {
      if (std::strcmp(value, "0") && std::strcmp(value, "1")) return usage();
      ctx.trace = value[0] == '1';
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || ctx.workload.empty() || !have_seed) return usage();

  // Host and build stamp: a record is comparable only with one from the same
  // CPU count and an optimized build.
  const unsigned cpus = std::thread::hardware_concurrency();
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
              ctx.seconds, ctx.trace ? 1 : 0);
  std::printf("perfbench: host cpus=%u reference_cpus=%u build=%s compiler=%s\n",
              cpus, kReferenceCpus, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing a %s build; build in Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  if (cpus != kReferenceCpus)
    std::printf("perfbench: WARNING host has %u CPUs, the reference host %u: "
                "do not compare this record with the reference figures\n",
                cpus, kReferenceCpus);
  std::fflush(stdout);
  mfw::util::Logger::instance().set_level(mfw::util::LogLevel::kWarn);

  WorkloadResult result;
  try {
    if (ctx.workload == "campaign_watch") {
      result = run_campaign_watch(ctx);
    } else if (ctx.workload == "campaign_content") {
      result = run_campaign_content(ctx);
    } else if (ctx.workload == "serve_read") {
      result = run_serve_read(ctx);
    } else if (ctx.workload == "serve_ingest") {
      result = run_serve_ingest(ctx);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", ctx.workload.c_str(),
                 e.what());
    return 1;
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: no op completed\n");
    return 1;
  }
  std::printf("perfbench: self-test caught %zu corruptions:",
              result.selftest_caught.size());
  for (const auto& name : result.selftest_caught) std::printf(" %s", name.c_str());
  std::printf("\n");
  print_result(result);
  return 0;
}
