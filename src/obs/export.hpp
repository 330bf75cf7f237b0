// Exporters for the obs layer:
//  - Chrome trace-event JSON (the `traceEvents` array format) loadable in
//    Perfetto (ui.perfetto.dev) and chrome://tracing. Processes map to pid,
//    tracks to tid (with "process_name"/"thread_name" metadata records),
//    spans to complete events (ph "X", microsecond ts/dur), instants to
//    ph "i" with thread scope.
//  - A flat metrics text dump: one `name{label="v",...} value` line per
//    counter/gauge series and a count/mean/min/max (+ bucket rows) block per
//    distribution.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mfw::obs {

/// Builds a Chrome trace-event document one event at a time: the single
/// event writer behind both the recorder export below and
/// FlightRecorder::to_chrome_trace_json. Times are seconds, written as
/// microseconds with fixed sub-microsecond precision.
class ChromeTraceWriter {
 public:
  void process_name(std::uint32_t pid, std::string_view name);
  void thread_name(std::uint32_t pid, std::uint32_t tid, std::string_view name);
  /// Complete event (ph "X"); `open` appends an "open":"true" arg.
  void span(std::uint32_t pid, std::uint32_t tid, std::string_view category,
            std::string_view name, double start, double duration,
            const Args& args, bool open = false);
  /// Thread-scoped instant (ph "i").
  void instant(std::uint32_t pid, std::uint32_t tid, std::string_view category,
               std::string_view name, double at, const Args& args);
  /// Closes the event array, appends `members` (extra top-level members,
  /// each led by a comma) and returns the document.
  std::string finish(std::string_view members = {});

 private:
  void emit(const std::string& event);

  std::string out_ = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first_ = true;
};

/// Renders the recorder's events as a Chrome trace-event JSON document.
std::string to_chrome_trace_json(const TraceRecorder& recorder);

/// Renders the registry as flat text (counters, gauges, distributions).
std::string to_metrics_text(const MetricsRegistry& registry);

/// Writes content to a host-filesystem path. Returns false (and logs an
/// error) when the file cannot be opened.
bool write_file(const std::string& path, const std::string& content);

/// Convenience: enables/disables the global TraceRecorder + MetricsRegistry
/// together (the common switch behind `--trace-out` and `mfwctl trace`).
void set_globally_enabled(bool on);

}  // namespace mfw::obs
