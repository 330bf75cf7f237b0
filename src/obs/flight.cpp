#include "obs/flight.hpp"

#include <cstdio>
#include <exception>
#include <map>
#include <utility>

#include "obs/export.hpp"
#include "obs/watch.hpp"
#include "util/json_writer.hpp"

namespace mfw::obs {
namespace {

/// Synthetic lane for health episodes in the dump (no recorder track backs
/// them).
constexpr std::uint32_t kAlertTid = 999999;
constexpr const char* kAlertTrack = "flight/alerts";

std::string num(double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

// ---------------------------------------------------------------------------
// terminate-hook plumbing: one armed recorder process-wide. The hook only
// reads the ring (its own lock) and writes a file — safe work for a
// terminate handler, after which the previous handler (usually abort) runs.
// ---------------------------------------------------------------------------

std::mutex g_crash_mu;
FlightRecorder* g_armed = nullptr;
std::string g_crash_path;
std::terminate_handler g_previous = nullptr;

void crash_dump_handler() {
  {
    std::lock_guard<std::mutex> lock(g_crash_mu);
    if (g_armed) g_armed->dump(g_crash_path, "terminate");
  }
  if (g_previous) g_previous();
  std::abort();
}

}  // namespace

FlightRecorder::FlightRecorder(FlightConfig config) : config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
  ring_.resize(config_.capacity);
}

FlightRecorder::~FlightRecorder() { disarm_crash_dump(); }

void FlightRecorder::push(Entry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  entry.seq = seen_++;
  ring_[head_] = std::move(entry);
  head_ = (head_ + 1) % ring_.size();
  if (seen_ >= ring_.size()) full_ = true;
}

void FlightRecorder::on_span(const TraceTrack& track, const TraceSpan& span) {
  Entry entry;
  entry.entry_kind = Entry::Kind::kSpan;
  entry.start = span.start;
  entry.end = span.end;
  entry.process = track.process;
  entry.tid = track.tid;
  entry.track = track.name;
  entry.category = span.category;
  entry.name = span.name;
  entry.args = span.args;
  push(std::move(entry));
  SpanSink* next = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    next = next_;
  }
  if (next) next->on_span(track, span);
}

void FlightRecorder::on_instant(const TraceTrack& track,
                                const TraceInstant& instant) {
  Entry entry;
  entry.entry_kind = Entry::Kind::kInstant;
  entry.start = instant.at;
  entry.end = instant.at;
  entry.process = track.process;
  entry.tid = track.tid;
  entry.track = track.name;
  entry.category = instant.category;
  entry.name = instant.name;
  entry.args = instant.args;
  push(std::move(entry));
  SpanSink* next = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    next = next_;
  }
  if (next) next->on_instant(track, instant);
}

void FlightRecorder::set_next(SpanSink* next) {
  std::lock_guard<std::mutex> lock(mu_);
  next_ = next;
}

void FlightRecorder::note_alert(const Alert& alert) {
  Entry entry;
  entry.entry_kind = Entry::Kind::kAlert;
  entry.start = alert.at;
  entry.end = alert.at;
  entry.process = 0;
  entry.tid = kAlertTid;
  entry.track = kAlertTrack;
  entry.category = "health";
  entry.name = alert.rule;
  entry.args = {{"kind", alert.kind},
                {"stage", alert.stage},
                {"metric", alert.metric},
                {"state", alert.state},
                {"threshold", num(alert.threshold)},
                {"observed", num(alert.observed)},
                {"cause", alert.cause}};
  push(std::move(entry));
}

std::uint64_t FlightRecorder::seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seen_;
}

std::uint64_t FlightRecorder::overwritten() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seen_ > ring_.size() ? seen_ - ring_.size() : 0;
}

std::size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return full_ ? ring_.size() : head_;
}

std::size_t FlightRecorder::capacity() const { return config_.capacity; }

std::vector<FlightRecorder::Entry> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> out;
  const std::size_t count = full_ ? ring_.size() : head_;
  out.reserve(count);
  if (full_)
    for (std::size_t i = 0; i < ring_.size(); ++i)
      out.push_back(ring_[(head_ + i) % ring_.size()]);
  else
    for (std::size_t i = 0; i < head_; ++i) out.push_back(ring_[i]);
  return out;
}

std::string FlightRecorder::to_chrome_trace_json(
    std::string_view reason) const {
  const std::vector<Entry> entries = snapshot();
  std::uint64_t seen_count = 0, overwritten_count = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seen_count = seen_;
    overwritten_count =
        seen_ > ring_.size() ? seen_ - ring_.size() : 0;
  }

  ChromeTraceWriter writer;
  // Thread-name metadata for every lane present in the ring.
  std::map<std::pair<std::uint32_t, std::uint32_t>, const std::string*> lanes;
  for (const auto& entry : entries)
    lanes.emplace(std::make_pair(entry.process, entry.tid), &entry.track);
  for (const auto& [lane, name] : lanes)
    writer.thread_name(lane.first, lane.second, *name);

  for (const auto& entry : entries) {
    if (entry.entry_kind == Entry::Kind::kSpan)
      writer.span(entry.process, entry.tid, entry.category, entry.name,
                  entry.start, entry.end - entry.start, entry.args);
    else
      writer.instant(entry.process, entry.tid, entry.category, entry.name,
                     entry.start, entry.args);
  }
  return writer.finish(",\"flight\":{\"reason\":\"" +
                       util::json_escape(reason) + "\",\"capacity\":" +
                       std::to_string(config_.capacity) + ",\"seen\":" +
                       std::to_string(seen_count) + ",\"overwritten\":" +
                       std::to_string(overwritten_count) +
                       ",\"retained\":" + std::to_string(entries.size()) +
                       "}");
}

bool FlightRecorder::dump(const std::string& path,
                          std::string_view reason) const {
  return write_file(path, to_chrome_trace_json(reason));
}

void FlightRecorder::arm_crash_dump(std::string path) {
  std::lock_guard<std::mutex> lock(g_crash_mu);
  if (!g_armed) g_previous = std::set_terminate(crash_dump_handler);
  g_armed = this;
  g_crash_path = std::move(path);
}

void FlightRecorder::disarm_crash_dump() {
  std::lock_guard<std::mutex> lock(g_crash_mu);
  if (g_armed != this) return;
  g_armed = nullptr;
  g_crash_path.clear();
  // Restore the previous handler when there was one; otherwise leave ours
  // installed disarmed (it then just forwards to abort).
  if (g_previous) {
    std::set_terminate(g_previous);
    g_previous = nullptr;
  }
}

}  // namespace mfw::obs
