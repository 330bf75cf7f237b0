#include "obs/trace.hpp"

#include <cstdlib>

namespace mfw::obs {

const std::string* find_arg(const Args& args, std::string_view key) {
  for (const auto& [k, v] : args)
    if (k == key) return &v;
  return nullptr;
}

double arg_number(const std::string& value, double fallback) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  return end == value.c_str() ? fallback : parsed;
}

double arg_number(const Args& args, std::string_view key, double fallback) {
  const std::string* value = find_arg(args, key);
  return value ? arg_number(*value, fallback) : fallback;
}

std::string granule_of(const Args& args) {
  if (const std::string* g = find_arg(args, "granule")) return *g;
  if (const std::string* k = find_arg(args, "key")) return *k;
  return {};
}

namespace {
/// Fallback time source when no clock is attached; origin at first use so
/// standalone tools still get small, positive timestamps.
const sim::Clock& wall_fallback() {
  static sim::WallClock wall;
  return wall;
}
}  // namespace

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::set_clock(const sim::Clock* clock) {
  std::lock_guard lock(mu_);
  clock_ = clock;
}

const sim::Clock* TraceRecorder::clock() const {
  std::lock_guard lock(mu_);
  return clock_;
}

double TraceRecorder::now() const {
  std::lock_guard lock(mu_);
  return (clock_ ? *clock_ : wall_fallback()).now();
}

void TraceRecorder::ensure_default_process_locked() {
  if (!processes_.empty()) return;
  processes_.push_back(TraceProcess{1, "mfw"});
  current_pid_ = 1;
}

std::uint32_t TraceRecorder::begin_process(std::string name) {
  std::lock_guard lock(mu_);
  ensure_default_process_locked();
  const auto pid = static_cast<std::uint32_t>(processes_.size() + 1);
  processes_.push_back(TraceProcess{pid, std::move(name)});
  current_pid_ = pid;
  return pid;
}

std::uint32_t TraceRecorder::intern_track_locked(std::string_view name) {
  ensure_default_process_locked();
  const auto key = std::make_pair(current_pid_, std::string(name));
  const auto it = track_index_.find(key);
  if (it != track_index_.end()) return it->second;
  const auto index = static_cast<std::uint32_t>(tracks_.size());
  TraceTrack track;
  track.process = current_pid_;
  track.tid = index + 1;
  track.name = key.second;
  tracks_.push_back(std::move(track));
  track_index_.emplace(key, index);
  return index;
}

void TraceRecorder::note_closed_locked(const TraceSpan& span) {
  ++observed_spans_;
  if (sink_) sink_->on_span(tracks_[span.track], span);
}

bool TraceRecorder::retain_sample_locked() const {
  return retention_.sample_every != 0 &&
         observed_spans_ % retention_.sample_every == 0 &&
         spans_.size() < retention_.max_retained;
}

SpanId TraceRecorder::begin_span(std::string_view track,
                                 std::string_view category,
                                 std::string_view name, Args args) {
  if (!enabled()) return {};
  std::lock_guard lock(mu_);
  TraceSpan span;
  span.track = intern_track_locked(track);
  span.category = std::string(category);
  span.name = std::string(name);
  span.start = (clock_ ? *clock_ : wall_fallback()).now();
  span.args = std::move(args);
  if (retention_.mode == RetentionMode::kStatsOnly) {
    const auto id = (++next_open_id_) | kBoundedBit;
    open_spans_.emplace(id, std::move(span));
    return SpanId{id};
  }
  spans_.push_back(std::move(span));
  return SpanId{spans_.size()};
}

void TraceRecorder::end_span(SpanId span, Args args) {
  if (!span.valid()) return;
  std::lock_guard lock(mu_);
  const double at = (clock_ ? *clock_ : wall_fallback()).now();
  if (span.id & kBoundedBit) {
    const auto it = open_spans_.find(span.id);
    if (it == open_spans_.end()) return;  // stale handle after clear()
    TraceSpan record = std::move(it->second);
    open_spans_.erase(it);
    record.end = at;
    for (auto& arg : args) record.args.push_back(std::move(arg));
    note_closed_locked(record);
    if (retain_sample_locked()) {
      spans_.push_back(std::move(record));
    } else {
      ++dropped_spans_;
    }
    return;
  }
  if (span.id > spans_.size()) return;  // stale handle after clear()
  TraceSpan& record = spans_[span.id - 1];
  record.end = at;
  for (auto& arg : args) record.args.push_back(std::move(arg));
  note_closed_locked(record);
}

void TraceRecorder::add_span(std::string_view track, std::string_view category,
                             std::string_view name, double start, double end,
                             Args args) {
  if (!enabled()) return;
  std::lock_guard lock(mu_);
  TraceSpan span;
  span.track = intern_track_locked(track);
  span.category = std::string(category);
  span.name = std::string(name);
  span.start = start;
  span.end = end;
  span.args = std::move(args);
  note_closed_locked(span);
  if (retention_.mode == RetentionMode::kFull || retain_sample_locked()) {
    spans_.push_back(std::move(span));
  } else {
    ++dropped_spans_;
  }
}

void TraceRecorder::instant(std::string_view track, std::string_view category,
                            std::string_view name, Args args) {
  if (!enabled()) return;
  add_instant(track, category, name, now(), std::move(args));
}

void TraceRecorder::add_instant(std::string_view track,
                                std::string_view category,
                                std::string_view name, double at, Args args) {
  if (!enabled()) return;
  std::lock_guard lock(mu_);
  TraceInstant event;
  event.track = intern_track_locked(track);
  event.category = std::string(category);
  event.name = std::string(name);
  event.at = at;
  event.args = std::move(args);
  if (sink_) sink_->on_instant(tracks_[event.track], event);
  if (retention_.mode == RetentionMode::kFull) {
    instants_.push_back(std::move(event));
  } else {
    ++dropped_instants_;
  }
}

void TraceRecorder::set_retention(RetentionPolicy policy) {
  std::lock_guard lock(mu_);
  retention_ = policy;
}

RetentionPolicy TraceRecorder::retention() const {
  std::lock_guard lock(mu_);
  return retention_;
}

void TraceRecorder::set_span_sink(SpanSink* sink) {
  std::lock_guard lock(mu_);
  sink_ = sink;
}

std::size_t TraceRecorder::observed_span_count() const {
  std::lock_guard lock(mu_);
  return observed_spans_;
}

std::size_t TraceRecorder::dropped_span_count() const {
  std::lock_guard lock(mu_);
  return dropped_spans_;
}

std::size_t TraceRecorder::dropped_instant_count() const {
  std::lock_guard lock(mu_);
  return dropped_instants_;
}

void TraceRecorder::clear() {
  std::lock_guard lock(mu_);
  processes_.clear();
  current_pid_ = 0;
  tracks_.clear();
  track_index_.clear();
  spans_.clear();
  instants_.clear();
  open_spans_.clear();
  next_open_id_ = 0;
  observed_spans_ = 0;
  dropped_spans_ = 0;
  dropped_instants_ = 0;
}

std::vector<TraceProcess> TraceRecorder::processes() const {
  std::lock_guard lock(mu_);
  return processes_;
}

std::vector<TraceTrack> TraceRecorder::tracks() const {
  std::lock_guard lock(mu_);
  return tracks_;
}

std::vector<TraceSpan> TraceRecorder::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

std::vector<TraceInstant> TraceRecorder::instants() const {
  std::lock_guard lock(mu_);
  return instants_;
}

std::size_t TraceRecorder::span_count() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

std::size_t TraceRecorder::instant_count() const {
  std::lock_guard lock(mu_);
  return instants_.size();
}

std::size_t TraceRecorder::open_span_count() const {
  std::lock_guard lock(mu_);
  std::size_t open = open_spans_.size();
  for (const auto& span : spans_)
    if (!span.closed()) ++open;
  return open;
}

}  // namespace mfw::obs
