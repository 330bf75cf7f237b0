// mfwctl — command-line front end for the EO-ML workflow.
//
//   mfwctl run <config.yaml> [--timeline] [--csv <path>] [--quiet]
//       Run the five-stage workflow from a YAML configuration file.
//   mfwctl registry
//       List the built-in shareable pipeline templates.
//   mfwctl run-template <name> [<overrides.yaml>] [--facility <name>]
//       Instantiate a pipeline template (optionally merged with overrides)
//       and run it on a built-in facility (olcf | nersc | alcf).
//   mfwctl facilities
//       Show the built-in facilities.
//   mfwctl trace <config.yaml> [--out <trace.json>] [--metrics <path>] [--quiet]
//       Run the workflow with the obs layer enabled and export a Chrome
//       trace-event JSON (load in Perfetto / chrome://tracing) plus an
//       optional flat metrics dump.
//   mfwctl report <config.yaml> [--json] [--out <path>] [--straggler-k <k>]
//       Run the workflow traced and print the trace-analysis report:
//       critical path, per-stage utilization, queue waits, stragglers with
//       cause attribution. --json emits the machine-readable report (used by
//       CI gating) on stdout. --from <report.json> re-renders a previously
//       saved mfw.trace_report/v1 document instead of running (exit 1 with a
//       clear message on schema mismatch or truncated JSON).
//   mfwctl lineage <config.yaml> [--granule <id>] [--json] [--out <path>]
//                [--top <n>]
//       Run the workflow traced and reconstruct every granule's causal chain
//       (download -> granule.ready -> preprocess -> encode/label -> infer).
//       Default output is a slowest-first summary table; --granule prints
//       one granule's full causal timeline with the per-hop wait/service
//       split; --json / --out emit the mfw.lineage/v1 document.
//   mfwctl diff <reportA.json> <reportB.json> [--json] [--out <path>]
//                [--gate]
//       Align two saved mfw.trace_report/v1 documents (A = baseline, B =
//       candidate) and attribute the makespan delta: per-stage critical-path
//       shifts ranked by magnitude, with queue-wait, straggler-cause, and
//       path-membership evidence. Emits a text verdict (or mfw.trace_diff/v1
//       JSON with --json). --gate exits 3 when B regressed beyond noise —
//       the ctest gates gate_baseline_diff and gate_diff_attribution.
//       Exit 1 with a clear message on schema mismatch or truncated input.
//   mfwctl watch <config.yaml> [--interval <sim-s>] [--window <s>]
//                [--anomaly-k <k>] [--health-out <path>] [--csv <path>]
//       Run the workflow with the live health layer attached (DESIGN.md
//       §12): a TelemetryBus feeds an online HealthMonitor that evaluates
//       the config's `slo:` rules (plus an optional EWMA/MAD anomaly
//       detector) as windows close, printing a text dashboard every
//       --interval sim-seconds and writing the mfw.health/v1 alert stream
//       to --health-out. Watching is read-only: the run is bit-for-bit
//       identical to `mfwctl run` (--csv emits the same timeline CSV,
//       sha256-gated by the ctest gate gate_fig6_sha_watch).
//
//   `run` and `watch` additionally take [--flight-out <path>]
//   [--flight-capacity <n>]: attach the always-on crash-safe flight recorder
//   (DESIGN.md §15) — a ring of the most recent n >= 1 (default 8192)
//   spans/instants/health episodes, dumped as Perfetto-loadable Chrome-trace
//   JSON at end of run, on std::terminate, and (under watch) the moment an
//   SLO alert fires.
//   The ring is a read-only SpanSink, so the run stays bit-for-bit identical
//   (sha256-gated by the ctest gate gate_fig6_sha_flight).
//   mfwctl plan <spec.yaml> | --builtin [--facility olcf|nersc|alcf]
//       Validate a declarative workflow spec (stages, claims, dataflow
//       edges, campaign) against a facility and print the compiled DAG.
//       --builtin compiles the built-in paper pipeline spec instead.
//   mfwctl sweep <spec.yaml> | --builtin [--policies a,b] [--facilities 1,2]
//                [--loads 1,2] [--out <json>]
//       Run the policy-sweep laboratory over policy x facility-count x load
//       and write Pareto data (makespan, utilization, p99 queue wait) as
//       mfw.policies/v1 JSON (default BENCH_policies.json).
//   mfwctl serve-bench [--tiles <n>] [--shards <n>] [--threads <n>]
//                [--users <n>] [--requests <n>] [--days <n>] [--cache <n>]
//                [--seed <n>] [--check] [--json] [--out <path>] [--quiet]
//       Build a sharded serving catalog (DESIGN.md §14) over a synthetic
//       labelled-tile archive and drive it with the Zipf client simulator.
//       --check first replays random queries of every kind against the
//       brute-force archive-scan oracle (exit 1 on any mismatch) and embeds
//       an example mfw.serve/v1 response. --json emits the bench document
//       (schema mfw.serve/v1) on stdout; --cache 0 disables the result
//       cache.
//
//   Numeric flag values must be non-negative numbers (integers for counts);
//   anything else is rejected with usage and exit 2 before the command runs.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analyze.hpp"
#include "obs/diff.hpp"
#include "obs/flight.hpp"
#include "obs/lineage.hpp"
#include "obs/watch.hpp"
#include "pipeline/campaign.hpp"
#include "pipeline/spec_compile.hpp"
#include "spec/lab.hpp"
#include "spec/spec.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/eoml_workflow.hpp"
#include "serve/catalog.hpp"
#include "serve/loadgen.hpp"
#include "serve/service.hpp"
#include "util/bytes.hpp"
#include "util/json_writer.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace mfw;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  mfwctl run <config.yaml> [--timeline] [--csv <path>] [--flight-out <path>]\n"
               "               [--flight-capacity <n>] [--quiet]\n"
               "  mfwctl run-template <name> [<overrides.yaml>] [--facility olcf|nersc|alcf]\n"
               "  mfwctl trace <config.yaml> [--out <trace.json>] [--metrics <path>] [--quiet]\n"
               "  mfwctl report <config.yaml> | --from <report.json> [--json] [--out <path>]\n"
               "               [--straggler-k <k>] [--quiet]\n"
               "  mfwctl lineage <config.yaml> [--granule <id>] [--json] [--out <path>]\n"
               "               [--top <n>] [--quiet]\n"
               "  mfwctl diff <reportA.json> <reportB.json> [--json] [--out <path>] [--gate]\n"
               "  mfwctl watch <config.yaml> [--interval <sim-s>] [--window <s>] [--anomaly-k <k>]\n"
               "               [--health-out <path>] [--csv <path>] [--flight-out <path>]\n"
               "               [--flight-capacity <n>] [--quiet]\n"
               "  mfwctl plan <spec.yaml> | --builtin [--facility olcf|nersc|alcf]\n"
               "  mfwctl sweep <spec.yaml> | --builtin [--policies a,b] [--facilities 1,2]\n"
               "               [--loads 1,2] [--out <json>] [--quiet]\n"
               "  mfwctl serve-bench [--tiles <n>] [--shards <n>] [--threads <n>] [--users <n>]\n"
               "               [--requests <n>] [--days <n>] [--cache <n>] [--seed <n>]\n"
               "               [--check] [--json] [--out <path>] [--quiet]\n"
               "  mfwctl registry\n"
               "  mfwctl facilities\n");
  return 2;
}

/// What follows a flag. Numbers are validated before any command runs, so
/// garbage never silently becomes 0 and a negative count never wraps to a
/// huge std::size_t (or starts that many threads).
enum class Value {
  kNone, kText, kCount, kPositive, kReal, kCountList, kRealList
};

struct FlagSpec {
  const char* name;
  Value value;
};

/// Flags each command accepts; nullptr for unknown commands.
const std::vector<FlagSpec>* flags_for(const std::string& command) {
  using enum Value;
  static const std::map<std::string, std::vector<FlagSpec>> kFlags = {
      {"run",
       {{"--timeline", kNone},
        {"--csv", kText},
        {"--flight-out", kText},
        {"--flight-capacity", kPositive},
        {"--quiet", kNone}}},
      {"run-template",
       {{"--facility", kText},
        {"--timeline", kNone},
        {"--csv", kText},
        {"--quiet", kNone}}},
      {"trace", {{"--out", kText}, {"--metrics", kText}, {"--quiet", kNone}}},
      {"report",
       {{"--json", kNone},
        {"--out", kText},
        {"--straggler-k", kReal},
        {"--from", kText},
        {"--quiet", kNone}}},
      {"lineage",
       {{"--granule", kText},
        {"--json", kNone},
        {"--out", kText},
        {"--top", kCount},
        {"--quiet", kNone}}},
      {"diff",
       {{"--json", kNone},
        {"--out", kText},
        {"--gate", kNone},
        {"--quiet", kNone}}},
      {"watch",
       {{"--interval", kReal},
        {"--window", kReal},
        {"--anomaly-k", kReal},
        {"--health-out", kText},
        {"--csv", kText},
        {"--flight-out", kText},
        {"--flight-capacity", kPositive},
        {"--quiet", kNone}}},
      {"plan",
       {{"--builtin", kNone}, {"--facility", kText}, {"--quiet", kNone}}},
      {"sweep",
       {{"--builtin", kNone},
        {"--facility", kText},
        {"--policies", kText},
        {"--facilities", kCountList},
        {"--loads", kRealList},
        {"--out", kText},
        {"--quiet", kNone}}},
      {"serve-bench",
       {{"--tiles", kCount},
        {"--shards", kCount},
        {"--threads", kCount},
        {"--users", kCount},
        {"--requests", kCount},
        {"--days", kCount},
        {"--cache", kCount},
        {"--seed", kCount},
        {"--check", kNone},
        {"--json", kNone},
        {"--out", kText},
        {"--quiet", kNone}}},
      {"registry", {}},
      {"facilities", {}},
  };
  const auto it = kFlags.find(command);
  return it == kFlags.end() ? nullptr : &it->second;
}

const FlagSpec* find_flag(const std::vector<FlagSpec>& spec,
                          const std::string& arg) {
  for (const auto& flag : spec)
    if (arg == flag.name) return &flag;
  return nullptr;
}

/// Integer in [0, INT_MAX] (so it fits every count type, `int` included):
/// digits only, no sign, no trailing garbage.
std::optional<int> parse_count(std::string_view text) {
  int value = 0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || end != last || value < 0) return std::nullopt;
  return value;
}

/// Non-negative finite number, the whole text consumed.
std::optional<double> parse_real(std::string_view text) {
  double value = 0.0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || end != last || !std::isfinite(value) || value < 0)
    return std::nullopt;
  return value;
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(text);
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// What a `kind` value should have been when `text` is not one; nullptr
/// when it is well formed.
const char* value_error(Value kind, const std::string& text) {
  const auto all = [&](auto parse) {
    const auto items = split_csv(text);
    return !items.empty() &&
           std::all_of(items.begin(), items.end(),
                       [&](const std::string& item) {
                         return parse(item).has_value();
                       });
  };
  switch (kind) {
    case Value::kNone:
    case Value::kText:
      return nullptr;
    case Value::kCount:
      return parse_count(text) ? nullptr : "an integer in [0, 2147483647]";
    case Value::kPositive:
      return parse_count(text).value_or(0) > 0
                 ? nullptr
                 : "an integer in [1, 2147483647]";
    case Value::kReal:
      return parse_real(text) ? nullptr : "a non-negative number";
    case Value::kCountList:
      return all(parse_count)
                 ? nullptr
                 : "a comma-separated list of integers in [0, 2147483647]";
    case Value::kRealList:
      return all(parse_real)
                 ? nullptr
                 : "a comma-separated list of non-negative numbers";
  }
  return nullptr;
}

/// Rejects unknown `--flags`, value flags missing their value, and malformed
/// numbers, matching the unknown-command behaviour (error on stderr, usage,
/// exit 2).
bool validate_flags(const std::string& command,
                    const std::vector<std::string>& args,
                    const std::vector<FlagSpec>& spec) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i].rfind("--", 0) != 0) continue;
    const FlagSpec* flag = find_flag(spec, args[i]);
    if (!flag) {
      std::fprintf(stderr, "error: unknown flag '%s' for command '%s'\n",
                   args[i].c_str(), command.c_str());
      return false;
    }
    if (flag->value == Value::kNone) continue;
    if (++i >= args.size()) {
      std::fprintf(stderr, "error: flag '%s' requires a value\n",
                   flag->name);
      return false;
    }
    if (const char* expected = value_error(flag->value, args[i])) {
      std::fprintf(stderr, "error: flag '%s' expects %s, got '%s'\n",
                   flag->name, expected, args[i].c_str());
      return false;
    }
  }
  return true;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The flight ring `run` and `watch` attach: `capacity` entries when the
/// flag was given (validated >= 1), the FlightConfig default otherwise.
obs::FlightConfig flight_config(const std::string& capacity) {
  obs::FlightConfig config;
  if (!capacity.empty())
    config.capacity = static_cast<std::size_t>(*parse_count(capacity));
  return config;
}

int run_config(pipeline::EomlConfig config, bool timeline,
               const std::string& csv_path,
               const std::string& flight_out = {},
               const obs::FlightConfig& flight_ring = {}) {
  // Always-on black box: spans stream through the flight ring (stats-only
  // retention, so memory stays bounded) and the ring is dumped at end of run
  // plus on std::terminate. Read-only sink — the run itself is unchanged.
  std::unique_ptr<obs::FlightRecorder> flight;
  auto& rec = obs::TraceRecorder::instance();
  if (!flight_out.empty()) {
    flight = std::make_unique<obs::FlightRecorder>(flight_ring);
    obs::set_globally_enabled(true);
    obs::RetentionPolicy retention;
    retention.mode = obs::RetentionMode::kStatsOnly;
    rec.set_retention(retention);
    rec.set_span_sink(flight.get());
    flight->arm_crash_dump(flight_out);
  }
  pipeline::EomlWorkflow workflow(std::move(config));
  const auto report = workflow.run();
  if (flight) {
    rec.set_span_sink(nullptr);
    rec.set_retention({});
    obs::set_globally_enabled(false);
    flight->disarm_crash_dump();
    if (!flight->dump(flight_out, "end-of-run")) {
      std::fprintf(stderr, "error: cannot write %s\n", flight_out.c_str());
      return 1;
    }
  }
  std::printf("%s\n", report.summary().c_str());
  if (timeline) std::printf("%s\n", report.timeline.render(120, 90, 14).c_str());
  if (!csv_path.empty()) {
    std::ofstream out(csv_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", csv_path.c_str());
      return 1;
    }
    out << report.timeline.to_csv(200);
    std::printf("timeline CSV written to %s\n", csv_path.c_str());
  }
  if (flight) {
    std::printf("flight recording written to %s (%llu events seen, %zu "
                "retained, %llu overwritten)\n",
                flight_out.c_str(),
                static_cast<unsigned long long>(flight->seen()), flight->size(),
                static_cast<unsigned long long>(flight->overwritten()));
  }
  return 0;
}

/// Resolves the graph a plan/sweep command operates on: a spec YAML file or
/// the built-in paper spec (default config), validated against the named
/// builtin facility (default: Defiant).
spec::StageGraph load_graph(bool builtin, const std::string& path,
                            const std::string& facility_name) {
  const spec::Facility facility = facility_name.empty()
                                      ? spec::Facility{}
                                      : spec::Facility::by_name(facility_name);
  if (builtin)
    return pipeline::compile_config(pipeline::EomlConfig{}, facility);
  if (path.empty())
    throw std::runtime_error("expected a <spec.yaml> path or --builtin");
  return spec::StageGraph::compile(
      spec::WorkflowSpec::from_yaml_text(slurp(path)), facility);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);

  const std::vector<FlagSpec>* spec = flags_for(command);
  if (spec && !validate_flags(command, args, *spec)) return usage();

  auto has_flag = [&](const char* flag) {
    for (const auto& a : args)
      if (a == flag) return true;
    return false;
  };
  auto flag_value = [&](const char* flag) -> std::string {
    for (std::size_t i = 0; i + 1 < args.size(); ++i)
      if (args[i] == flag) return args[i + 1];
    return {};
  };
  // Numeric values were validated up front, so these parses cannot fail.
  auto count_flag = [&](const char* flag, std::uint64_t fallback) {
    const auto v = flag_value(flag);
    return v.empty() ? fallback : *parse_count(v);
  };
  auto real_flag = [&](const char* flag, double fallback) {
    const auto v = flag_value(flag);
    return v.empty() ? fallback : *parse_real(v);
  };
  auto positional = [&](std::size_t index) -> std::string {
    std::size_t seen = 0;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i].rfind("--", 0) == 0) {
        const FlagSpec* flag = spec ? find_flag(*spec, args[i]) : nullptr;
        if (flag && flag->value != Value::kNone) ++i;  // skip value
        continue;
      }
      if (seen++ == index) return args[i];
    }
    return {};
  };

  util::Logger::instance().set_level(
      has_flag("--quiet") ? util::LogLevel::kError : util::LogLevel::kInfo);

  try {
    if (command == "run") {
      const auto path = positional(0);
      if (path.empty()) return usage();
      auto config = pipeline::EomlConfig::from_yaml_text(slurp(path));
      return run_config(std::move(config), has_flag("--timeline"),
                        flag_value("--csv"), flag_value("--flight-out"),
                        flight_config(flag_value("--flight-capacity")));
    }
    if (command == "run-template") {
      const auto name = positional(0);
      if (name.empty()) return usage();
      std::string overrides;
      if (const auto overrides_path = positional(1); !overrides_path.empty())
        overrides = slurp(overrides_path);
      auto config = pipeline::instantiate(name, overrides);
      if (const auto facility = flag_value("--facility"); !facility.empty())
        config.place_on(spec::Facility::by_name(facility));
      return run_config(std::move(config), has_flag("--timeline"),
                        flag_value("--csv"));
    }
    if (command == "trace") {
      const auto path = positional(0);
      if (path.empty()) return usage();
      auto config = pipeline::EomlConfig::from_yaml_text(slurp(path));
      const auto out = [&] {
        auto v = flag_value("--out");
        return v.empty() ? std::string("trace.json") : v;
      }();
      obs::set_globally_enabled(true);
      pipeline::EomlWorkflow workflow(std::move(config));
      const auto report = workflow.run();
      std::printf("%s\n", report.summary().c_str());
      obs::write_file(out,
                      obs::to_chrome_trace_json(obs::TraceRecorder::instance()));
      std::printf("trace written to %s (%zu spans, %zu instants) — load in "
                  "https://ui.perfetto.dev or chrome://tracing\n",
                  out.c_str(), obs::TraceRecorder::instance().span_count(),
                  obs::TraceRecorder::instance().instant_count());
      if (const auto metrics = flag_value("--metrics"); !metrics.empty()) {
        obs::write_file(
            metrics, obs::to_metrics_text(obs::MetricsRegistry::instance()));
        std::printf("metrics written to %s\n", metrics.c_str());
      }
      return 0;
    }
    if (command == "report") {
      const auto from = flag_value("--from");
      if (!from.empty()) {
        // Re-render a saved report document — no workflow run. Parse errors
        // (schema mismatch, truncation, malformed JSON) exit 1 with the
        // offending file named.
        obs::TraceReport analysis;
        try {
          analysis = obs::parse_trace_report(slurp(from));
        } catch (const obs::ReportParseError& e) {
          std::fprintf(stderr, "error: %s: %s\n", from.c_str(), e.what());
          return 1;
        }
        if (const auto out = flag_value("--out"); !out.empty())
          obs::write_file(out, analysis.to_json());
        if (has_flag("--json")) {
          std::printf("%s\n", analysis.to_json().c_str());
        } else {
          std::printf("%s", analysis.render_text().c_str());
        }
        return 0;
      }
      const auto path = positional(0);
      if (path.empty()) return usage();
      auto config = pipeline::EomlConfig::from_yaml_text(slurp(path));
      const bool json = has_flag("--json");
      // Keep --json stdout machine-readable: logs already go to stderr, but
      // silence the info chatter too.
      if (json) util::Logger::instance().set_level(util::LogLevel::kError);
      obs::set_globally_enabled(true);
      pipeline::EomlWorkflow workflow(std::move(config));
      const auto report = workflow.run();
      obs::AnalyzeOptions options;
      options.straggler_k = real_flag("--straggler-k", options.straggler_k);
      const auto analysis =
          obs::analyze_trace(obs::TraceRecorder::instance(), options);
      if (const auto out = flag_value("--out"); !out.empty()) {
        obs::write_file(out, analysis.to_json());
        if (!json) std::printf("report JSON written to %s\n", out.c_str());
      }
      if (json) {
        std::printf("%s\n", analysis.to_json().c_str());
      } else {
        std::printf("%s\n\n%s", report.summary().c_str(),
                    analysis.render_text().c_str());
      }
      return 0;
    }
    if (command == "lineage") {
      const auto path = positional(0);
      if (path.empty()) return usage();
      auto config = pipeline::EomlConfig::from_yaml_text(slurp(path));
      const bool json = has_flag("--json");
      if (json) util::Logger::instance().set_level(util::LogLevel::kError);
      obs::set_globally_enabled(true);
      pipeline::EomlWorkflow workflow(std::move(config));
      const auto report = workflow.run();
      const auto lineage =
          obs::extract_lineage(obs::TraceRecorder::instance());
      const auto top = static_cast<std::size_t>(count_flag("--top", 10));
      if (const auto out = flag_value("--out"); !out.empty()) {
        obs::write_file(out, lineage.to_json());
        if (!json)
          std::printf("lineage JSON written to %s (%zu granules)\n",
                      out.c_str(), lineage.granules.size());
      }
      if (const auto granule = flag_value("--granule"); !granule.empty()) {
        const auto text = lineage.render_granule(granule);
        if (text.empty()) {
          std::fprintf(stderr,
                       "error: unknown granule '%s' (%zu granules traced; "
                       "run without --granule to list the slowest)\n",
                       granule.c_str(), lineage.granules.size());
          return 1;
        }
        std::printf("%s", text.c_str());
        return 0;
      }
      if (json) {
        std::printf("%s\n", lineage.to_json(top).c_str());
      } else {
        std::printf("%s\n%s", report.summary().c_str(),
                    lineage.render_text(top).c_str());
      }
      return 0;
    }
    if (command == "diff") {
      const auto path_a = positional(0);
      const auto path_b = positional(1);
      if (path_a.empty() || path_b.empty()) return usage();
      obs::TraceReport a, b;
      try {
        a = obs::parse_trace_report(slurp(path_a));
      } catch (const obs::ReportParseError& e) {
        std::fprintf(stderr, "error: %s: %s\n", path_a.c_str(), e.what());
        return 1;
      }
      try {
        b = obs::parse_trace_report(slurp(path_b));
      } catch (const obs::ReportParseError& e) {
        std::fprintf(stderr, "error: %s: %s\n", path_b.c_str(), e.what());
        return 1;
      }
      const auto diff = obs::diff_reports(a, b);
      if (const auto out = flag_value("--out"); !out.empty())
        obs::write_file(out, diff.to_json());
      if (has_flag("--json")) {
        std::printf("%s\n", diff.to_json().c_str());
      } else {
        std::printf("%s", diff.render_text().c_str());
      }
      // --gate: distinct exit code so CI can tell "regressed" (3) apart
      // from "could not diff" (1).
      if (has_flag("--gate") && diff.regression()) return 3;
      return 0;
    }
    if (command == "watch") {
      const auto path = positional(0);
      if (path.empty()) return usage();
      auto config = pipeline::EomlConfig::from_yaml_text(slurp(path));
      const bool quiet = has_flag("--quiet");
      const double interval = real_flag("--interval", 0.0);
      obs::HealthConfig health;
      health.window_s = real_flag("--window", health.window_s);
      health.anomaly_k = real_flag("--anomaly-k", health.anomaly_k);

      obs::set_globally_enabled(true);
      auto& rec = obs::TraceRecorder::instance();
      // Watching is operational, not forensic: spans stream through the bus
      // and only aggregates are kept, so an archive-scale watch stays
      // bounded-memory (same retention mode bench/archive_campaign uses).
      obs::RetentionPolicy retention;
      retention.mode = obs::RetentionMode::kStatsOnly;
      rec.set_retention(retention);

      obs::TelemetryBus bus;
      pipeline::EomlWorkflow workflow(std::move(config));
      obs::HealthMonitor monitor(health,
                                 spec::health_rules(workflow.plan().spec()));
      monitor.attach(bus);
      workflow.attach_health(monitor, interval, [&](double now) {
        if (!quiet) std::printf("%s", monitor.dashboard(now).c_str());
      });
      // Black box behind the bus: every span lands in the flight ring, SLO
      // transitions become health episodes, and a firing alert dumps the
      // ring immediately — the forensic context survives even if the run
      // never reaches a clean end.
      const auto flight_out = flag_value("--flight-out");
      std::unique_ptr<obs::FlightRecorder> flight;
      if (!flight_out.empty()) {
        flight = std::make_unique<obs::FlightRecorder>(
            flight_config(flag_value("--flight-capacity")));
        bus.set_next(flight.get());
        monitor.set_alert_hook([&](const obs::Alert& alert) {
          flight->note_alert(alert);
          if (alert.state == "firing")
            flight->dump(flight_out, "slo-firing:" + alert.rule);
        });
        flight->arm_crash_dump(flight_out);
      }
      rec.set_span_sink(&bus);
      const auto report = workflow.run();
      monitor.finish(workflow.engine().now());
      rec.set_span_sink(nullptr);
      rec.set_retention({});
      if (flight) {
        bus.set_next(nullptr);
        flight->disarm_crash_dump();
        if (!flight->dump(flight_out, "end-of-run")) {
          std::fprintf(stderr, "error: cannot write %s\n", flight_out.c_str());
          return 1;
        }
        std::printf("flight recording written to %s (%llu events seen, %zu "
                    "retained)\n",
                    flight_out.c_str(),
                    static_cast<unsigned long long>(flight->seen()),
                    flight->size());
      }

      std::printf("%s\n", report.summary().c_str());
      std::printf("%s", monitor.dashboard(workflow.engine().now()).c_str());
      for (const auto& alert : monitor.alerts()) {
        std::printf("alert %-8s rule=%s stage=%s metric=%s observed=%g "
                    "threshold=%g window_t0=%g%s%s\n",
                    alert.state.c_str(), alert.rule.c_str(),
                    alert.stage.empty() ? "-" : alert.stage.c_str(),
                    alert.metric.c_str(), alert.observed, alert.threshold,
                    alert.window_t0, alert.cause.empty() ? "" : " cause=",
                    alert.cause.c_str());
      }
      if (const auto out = flag_value("--health-out"); !out.empty()) {
        obs::write_file(out, monitor.to_json(workflow.engine().now()));
        std::printf("health stream written to %s (%zu alerts, %zu firing)\n",
                    out.c_str(), monitor.alerts().size(),
                    monitor.firing_count());
      }
      if (const auto csv = flag_value("--csv"); !csv.empty()) {
        std::ofstream out_file(csv, std::ios::binary);
        if (!out_file) {
          std::fprintf(stderr, "error: cannot write %s\n", csv.c_str());
          return 1;
        }
        out_file << report.timeline.to_csv(200);
        std::printf("timeline CSV written to %s\n", csv.c_str());
      }
      return 0;
    }
    if (command == "plan") {
      const auto graph = load_graph(has_flag("--builtin"), positional(0),
                                    flag_value("--facility"));
      std::printf("%s", graph.describe().c_str());
      return 0;
    }
    if (command == "sweep") {
      const auto graph = load_graph(has_flag("--builtin"), positional(0),
                                    flag_value("--facility"));
      std::vector<std::string> policies = {"fifo", "fair_share", "deadline",
                                           "wan_aware"};
      if (const auto p = flag_value("--policies"); !p.empty())
        policies = split_csv(p);
      std::vector<int> facility_counts = {1, 2};
      if (const auto f = flag_value("--facilities"); !f.empty()) {
        facility_counts.clear();
        for (const auto& v : split_csv(f))
          facility_counts.push_back(*parse_count(v));
      }
      std::vector<double> loads = {1.0, 2.0};
      if (const auto l = flag_value("--loads"); !l.empty()) {
        loads.clear();
        for (const auto& v : split_csv(l)) loads.push_back(*parse_real(v));
      }
      std::vector<spec::LabResult> results;
      for (const auto& policy : policies) {
        for (const int facilities : facility_counts) {
          for (const double load : loads) {
            spec::LabConfig lab;
            lab.graph = graph;
            lab.policy = policy;
            lab.facilities = facilities;
            lab.load = load;
            auto result = spec::run_lab(lab);
            std::printf("%-10s facilities=%d load=%.2g makespan=%.2fs "
                        "util=%.3f p99_wait=%.2fs misses=%d\n",
                        result.policy.c_str(), result.facilities, result.load,
                        result.makespan, result.utilization,
                        result.p99_queue_wait, result.deadline_misses);
            results.push_back(std::move(result));
          }
        }
      }
      const auto out = [&] {
        auto v = flag_value("--out");
        return v.empty() ? std::string("BENCH_policies.json") : v;
      }();
      std::ofstream file(out, std::ios::binary);
      if (!file) {
        std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
        return 1;
      }
      file << spec::results_to_json(results);
      std::printf("sweep results written to %s (%zu points)\n", out.c_str(),
                  results.size());
      return 0;
    }
    if (command == "serve-bench") {
      const auto tiles =
          static_cast<std::size_t>(count_flag("--tiles", 200000));
      const int days = static_cast<int>(count_flag("--days", 30));
      const std::uint64_t seed = count_flag("--seed", 2024);
      const auto cache_capacity =
          static_cast<std::size_t>(count_flag("--cache", 8192));
      constexpr int kNumClasses = 42;

      const auto records = serve::synth_records(tiles, days, kNumClasses, seed);
      serve::CatalogConfig cat_config;
      cat_config.shard_count = static_cast<std::size_t>(
          std::max<std::uint64_t>(1, count_flag("--shards", 32)));
      serve::Catalog catalog(cat_config);
      util::ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()));
      catalog.ingest(records, &pool);
      catalog.seal();

      // Oracle spot check: every query kind replayed against a brute-force
      // scan of the same records.
      std::size_t checked = 0, mismatched = 0;
      std::string example_response;
      if (has_flag("--check")) {
        util::Rng rng(seed ^ 0x5eedULL);
        for (int q = 0; q < 200; ++q) {
          serve::QueryRequest request;
          request.kind = static_cast<serve::QueryKind>(q % 4);
          request.lat = rng.uniform(-90.0, 90.0);
          request.lon = rng.uniform(-180.0, 180.0);
          request.lat_lo = rng.uniform(-90.0, 40.0);
          request.lat_hi = request.lat_lo + rng.uniform(0.0, 50.0);
          request.lon_lo = rng.uniform(-180.0, 100.0);
          request.lon_hi = request.lon_lo + rng.uniform(0.0, 80.0);
          request.label = static_cast<int>(rng.uniform_int(0, kNumClasses - 1));
          request.day_lo = static_cast<int>(rng.uniform_int(1, days));
          request.day_hi = std::min(
              days, request.day_lo + static_cast<int>(rng.uniform_int(0, 10)));
          request.sample_limit = 4;
          const auto got = catalog.query(request);
          const auto want = serve::brute_force_query(records, request, catalog);
          ++checked;
          bool ok = got.matched == want.matched &&
                    got.classes.size() == want.classes.size();
          for (std::size_t i = 0; ok && i < got.classes.size(); ++i) {
            ok = got.classes[i].label == want.classes[i].label &&
                 got.classes[i].stats.count == want.classes[i].stats.count &&
                 std::abs(got.classes[i].stats.mean_cloud_fraction -
                          want.classes[i].stats.mean_cloud_fraction) <= 1e-9;
          }
          if (!ok) {
            ++mismatched;
            std::fprintf(stderr,
                         "error: oracle mismatch on %s query (matched %llu "
                         "vs %llu)\n",
                         serve::kind_name(request.kind),
                         static_cast<unsigned long long>(got.matched),
                         static_cast<unsigned long long>(want.matched));
          }
          if (q == 2)  // keep one kClass response as the schema example
            example_response = serve::to_json(request, got);
        }
        if (!has_flag("--quiet"))
          std::printf("oracle check: %zu queries, %zu mismatches\n", checked,
                      mismatched);
      }

      serve::ServeConfig svc_config;
      svc_config.enable_cache = cache_capacity > 0;
      svc_config.cache_capacity = std::max<std::size_t>(1, cache_capacity);
      serve::ServeService service(catalog, svc_config);
      serve::LoadConfig load;
      load.users = static_cast<std::size_t>(count_flag("--users", 100000));
      load.requests =
          static_cast<std::size_t>(count_flag("--requests", 200000));
      load.threads = static_cast<std::size_t>(count_flag("--threads", 4));
      load.day_hi = days;
      load.num_classes = kNumClasses;
      load.seed = seed;
      const auto result = serve::run_load(service, load);

      if (!has_flag("--quiet")) {
        std::printf(
            "serve-bench: %zu tiles, %zu shards, %zu threads, %zu requests\n",
            catalog.tile_count(), catalog.shard_count(), result.threads,
            result.requests);
        std::printf(
            "  qps=%.0f p50=%.1fus p99=%.1fus p999=%.1fus hit_rate=%.3f\n",
            result.qps, result.all.p50_us, result.all.p99_us,
            result.all.p999_us, result.hit_rate);
      }

      util::JsonWriter w;
      w.begin_object();
      w.field("schema", "mfw.serve/v1");
      w.field("doc", "serve_bench");
      w.field("tiles", catalog.tile_count());
      w.field("shards", catalog.shard_count());
      w.field("cache_capacity", cache_capacity);
      if (has_flag("--check")) {
        w.key("check", "\n ").begin_object();
        w.field("queries", checked);
        w.field("mismatches", mismatched);
        w.end_object();
      }
      w.key("load", "\n ");
      w.raw(result.to_json());
      if (!example_response.empty()) {
        std::string trimmed = example_response;
        while (!trimmed.empty() && trimmed.back() == '\n') trimmed.pop_back();
        w.key("example_response", "\n ").raw(trimmed);
      }
      w.end_object().raw("\n");
      const std::string doc = w.take();
      if (has_flag("--json")) std::fputs(doc.c_str(), stdout);
      if (const auto out = flag_value("--out"); !out.empty()) {
        std::ofstream file(out, std::ios::binary);
        if (!file) {
          std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
          return 1;
        }
        file << doc;
        if (!has_flag("--quiet"))
          std::printf("serve-bench document written to %s\n", out.c_str());
      }
      return mismatched == 0 ? 0 : 1;
    }
    if (command == "registry") {
      for (const auto& t : pipeline::pipeline_templates())
        std::printf("%-16.*s %.*s\n", static_cast<int>(t.name.size()),
                    t.name.data(), static_cast<int>(t.description.size()),
                    t.description.data());
      return 0;
    }
    if (command == "facilities") {
      for (const auto& facility : spec::Facility::builtins()) {
        std::printf("%-24s %3d nodes  sched %.1fs  archive %s  analysis %s\n",
                    facility.name.c_str(), facility.total_nodes,
                    facility.scheduler_latency,
                    util::format_rate(facility.wan_bps).c_str(),
                    util::format_rate(facility.link_bps).c_str());
      }
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "error: unknown command '%s'\n", command.c_str());
  return usage();
}
