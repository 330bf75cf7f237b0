#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <tuple>

#include "util/json_writer.hpp"
#include "util/log.hpp"

namespace mfw::obs {

namespace {

constexpr const char* kComponent = "obs";

std::string json_string(std::string_view text) {
  return '"' + util::json_escape(text) + '"';
}

/// Seconds -> trace-event microseconds with fixed sub-microsecond precision
/// (fixed notation keeps the JSON friendly to lenient parsers).
std::string micros(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  return buf;
}

/// `{"key":"value",...}`, plus `"open":"true"` for a span still open.
std::string json_args(const Args& args, bool open) {
  std::string out = "{";
  for (const auto& [key, value] : args) {
    if (out.size() > 1) out += ",";
    out += json_string(key) + ":" + json_string(value);
  }
  if (open) out += out.size() > 1 ? ",\"open\":\"true\"" : "\"open\":\"true\"";
  return out + "}";
}

/// `{"ph":"<phase>","pid":<pid>,"tid":<tid>` — the head every lane event
/// shares.
std::string event_head(char phase, std::uint32_t pid, std::uint32_t tid) {
  return std::string("{\"ph\":\"") + phase + "\",\"pid\":" +
         std::to_string(pid) + ",\"tid\":" + std::to_string(tid);
}

std::string number_text(double value) {
  char buf[48];
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      value > -1e15 && value < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", value);
  }
  return buf;
}

std::string labels_text(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key;
    out += "=\"";
    out += value;
    out += "\"";
  }
  out += "}";
  return out;
}

}  // namespace

void ChromeTraceWriter::emit(const std::string& event) {
  out_ += first_ ? "\n" : ",\n";
  first_ = false;
  out_ += event;
}

void ChromeTraceWriter::process_name(std::uint32_t pid, std::string_view name) {
  emit("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
       ",\"name\":\"process_name\",\"args\":{\"name\":" + json_string(name) +
       "}}");
}

void ChromeTraceWriter::thread_name(std::uint32_t pid, std::uint32_t tid,
                                    std::string_view name) {
  emit(event_head('M', pid, tid) +
       ",\"name\":\"thread_name\",\"args\":{\"name\":" + json_string(name) +
       "}}");
}

void ChromeTraceWriter::span(std::uint32_t pid, std::uint32_t tid,
                             std::string_view category, std::string_view name,
                             double start, double duration, const Args& args,
                             bool open) {
  emit(event_head('X', pid, tid) + ",\"cat\":" + json_string(category) +
       ",\"name\":" + json_string(name) + ",\"ts\":" + micros(start) +
       ",\"dur\":" + micros(duration) + ",\"args\":" + json_args(args, open) +
       "}");
}

void ChromeTraceWriter::instant(std::uint32_t pid, std::uint32_t tid,
                                std::string_view category,
                                std::string_view name, double at,
                                const Args& args) {
  emit(event_head('i', pid, tid) + ",\"cat\":" + json_string(category) +
       ",\"name\":" + json_string(name) + ",\"ts\":" + micros(at) +
       ",\"s\":\"t\",\"args\":" + json_args(args, false) + "}");
}

std::string ChromeTraceWriter::finish(std::string_view members) {
  out_ += "\n]";
  out_ += members;
  out_ += "}\n";
  return std::move(out_);
}

std::string to_chrome_trace_json(const TraceRecorder& recorder) {
  const auto processes = recorder.processes();
  const auto tracks = recorder.tracks();
  const auto spans = recorder.spans();
  const auto instants = recorder.instants();

  ChromeTraceWriter writer;
  for (const auto& process : processes)
    writer.process_name(process.pid, process.name);
  for (const auto& track : tracks)
    writer.thread_name(track.process, track.tid, track.name);
  for (const auto& span : spans) {
    const TraceTrack& track = tracks.at(span.track);
    writer.span(track.process, track.tid, span.category, span.name,
                span.start, span.closed() ? span.end - span.start : 0.0,
                span.args, !span.closed());
  }
  for (const auto& inst : instants) {
    const TraceTrack& track = tracks.at(inst.track);
    writer.instant(track.process, track.tid, inst.category, inst.name,
                   inst.at, inst.args);
  }
  return writer.finish();
}

std::string to_metrics_text(const MetricsRegistry& registry) {
  // The dump is diffed across runs, so emission order is part of the
  // format: sort by (name, labels) here rather than rely on whatever order
  // the registry snapshots happen to use.
  const auto by_series = [](const auto& a, const auto& b) {
    return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
  };
  auto counters = registry.counters();
  auto gauges = registry.gauges();
  auto distributions = registry.distributions();
  std::stable_sort(counters.begin(), counters.end(), by_series);
  std::stable_sort(gauges.begin(), gauges.end(), by_series);
  std::stable_sort(distributions.begin(), distributions.end(), by_series);

  std::ostringstream os;
  os << "# mfw metrics dump (counters, gauges, distributions)\n";
  for (const auto& entry : counters) {
    os << entry.name << labels_text(entry.labels) << " "
       << number_text(entry.value) << "\n";
  }
  for (const auto& entry : gauges) {
    os << entry.name << labels_text(entry.labels) << " "
       << number_text(entry.value) << "\n";
  }
  for (const auto& entry : distributions) {
    const auto& stats = entry.dist.stats;
    os << entry.name << labels_text(entry.labels) << " count="
       << stats.count() << " mean=" << number_text(stats.mean())
       << " min=" << number_text(stats.min())
       << " max=" << number_text(stats.max())
       << " stddev=" << number_text(stats.stddev()) << "\n";
    if (entry.dist.histogram) {
      std::istringstream rows(entry.dist.histogram->render());
      std::string row;
      while (std::getline(rows, row)) os << "  " << row << "\n";
    }
  }
  return os.str();
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    MFW_ERROR(kComponent, "cannot write ", path);
    return false;
  }
  out << content;
  return out.good();
}

void set_globally_enabled(bool on) {
  TraceRecorder::instance().set_enabled(on);
  MetricsRegistry::instance().set_enabled(on);
}

}  // namespace mfw::obs
