// TraceRecorder: hierarchical span + instant-event recording for the
// multi-facility workflow (paper §V-A: "advanced provenance tracking and
// telemetry tools for real-time workflow insights").
//
// Design notes:
//  - Timestamps come from a pluggable sim::Clock so discrete-event benches
//    (SimEngine is a Clock) and wall-clock runs trace uniformly; with no
//    clock attached a process-lifetime WallClock is used.
//  - Events carry a *track* (a named lane: "download/w0", "preprocess/node3",
//    "stages/inference") and belong to the current *process* (one per
//    workflow run), mapping directly onto Chrome trace-event pid/tid so the
//    export (see obs/export.hpp) loads in Perfetto / chrome://tracing.
//  - Recording is thread-safe (pool threads and the sim thread may record
//    concurrently); a single mutex guards the buffers.
//  - Disabled recording is free: enabled() is one relaxed atomic load, the
//    begin/end macro-free idiom at call sites is
//        obs::SpanId span;
//        if (auto& rec = obs::TraceRecorder::instance(); rec.enabled())
//          span = rec.begin_span(...);   // strings built only here
//        ...
//        obs::TraceRecorder::instance().end_span(span);  // no-op if invalid
//    so the off path performs no allocation and takes no lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/clock.hpp"

namespace mfw::obs {

/// Key/value annotations attached to spans and instants (rendered as Chrome
/// trace-event "args").
using Args = std::vector<std::pair<std::string, std::string>>;

/// Value of the first `key` in `args`; nullptr when absent.
const std::string* find_arg(const Args& args, std::string_view key);

/// Leading number of an arg value (strtod rules); `fallback` when the text
/// does not start with one.
double arg_number(const std::string& value, double fallback = 0.0);

/// arg_number of the first `key` in `args`; `fallback` when absent.
double arg_number(const Args& args, std::string_view key,
                  double fallback = 0.0);

/// Granule identity threaded through the stages: the "granule" arg on task
/// spans and flow runs, else the "key" arg on granule.ready instants.
std::string granule_of(const Args& args);

/// Handle for an open span; zero-initialised means "not recording".
struct SpanId {
  std::uint64_t id = 0;  // 1-based index into the recorder's span buffer
  bool valid() const { return id != 0; }
};

/// A named lane inside a process (Chrome trace-event tid).
struct TraceTrack {
  std::uint32_t process = 0;
  std::uint32_t tid = 0;
  std::string name;
};

struct TraceProcess {
  std::uint32_t pid = 0;
  std::string name;
};

struct TraceSpan {
  std::uint32_t track = 0;  // index into tracks()
  std::string category;
  std::string name;
  double start = 0.0;
  double end = -1.0;  // < start while open
  Args args;

  bool closed() const { return end >= start; }
  double duration() const { return closed() ? end - start : 0.0; }
};

struct TraceInstant {
  std::uint32_t track = 0;
  std::string category;
  std::string name;
  double at = 0.0;
  Args args;
};

/// How much of the raw event stream the recorder keeps in memory.
///  - kFull: every span and instant is retained (paper-figure runs; the
///    default, byte-for-byte identical to the pre-retention recorder).
///  - kStatsOnly: closed spans are forwarded to the SpanSink and then
///    discarded, except for an optional 1-in-sample_every exemplar stream
///    capped at max_retained. Instants are counted but not stored. Memory is
///    O(open spans + retained exemplars) instead of O(events), which is what
///    lets bench/archive_campaign observe a 365-day run (~millions of spans).
enum class RetentionMode { kFull, kStatsOnly };

struct RetentionPolicy {
  RetentionMode mode = RetentionMode::kFull;
  /// In kStatsOnly mode, retain every Nth closed span as an exemplar
  /// (0 = retain none).
  std::size_t sample_every = 0;
  /// Hard cap on retained exemplar spans in kStatsOnly mode.
  std::size_t max_retained = 4096;
};

/// Streaming observer fed every *closed* span (and every instant) regardless
/// of retention mode. Implementations (e.g. obs::SpanRollup) aggregate into
/// bounded structures. Callbacks run under the recorder lock: they must be
/// fast and must not re-enter the recorder.
class SpanSink {
 public:
  virtual ~SpanSink() = default;
  virtual void on_span(const TraceTrack& track, const TraceSpan& span) = 0;
  virtual void on_instant(const TraceTrack& /*track*/,
                          const TraceInstant& /*instant*/) {}
};

class TraceRecorder {
 public:
  /// Global recorder used by the instrumented modules. Directly-constructed
  /// recorders are supported for tests.
  static TraceRecorder& instance();

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Master switch. Instrumented call sites must check enabled() before
  /// building track names / args so the off path stays allocation-free.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Attaches the time source (e.g. a workflow's SimEngine). nullptr
  /// restores the internal wall clock. The clock must outlive all recording
  /// calls made while it is attached.
  void set_clock(const sim::Clock* clock);
  const sim::Clock* clock() const;

  /// Current time from the attached clock (wall clock when none attached).
  double now() const;

  /// Opens a new process scope (one per workflow run); subsequent tracks are
  /// created inside it. Returns its pid. A default "mfw" process exists
  /// implicitly.
  std::uint32_t begin_process(std::string name);

  /// Opens a span on `track` (interned per process by name) stamped at
  /// now(). Returns an invalid SpanId when disabled.
  SpanId begin_span(std::string_view track, std::string_view category,
                    std::string_view name, Args args = {});

  /// Closes a span at now(), appending `args`. Invalid ids are ignored, so
  /// call sites need no enabled() re-check; spans opened before a disable
  /// still close correctly.
  void end_span(SpanId span, Args args = {});

  /// Records a fully-formed span with explicit timestamps (used by post-hoc
  /// bridges such as flow::export_to_trace). No-op when disabled.
  void add_span(std::string_view track, std::string_view category,
                std::string_view name, double start, double end,
                Args args = {});

  /// Records a point event stamped at now(). No-op when disabled.
  void instant(std::string_view track, std::string_view category,
               std::string_view name, Args args = {});

  /// Records a point event with an explicit timestamp (post-hoc bridges and
  /// synthetic-trace tests). No-op when disabled.
  void add_instant(std::string_view track, std::string_view category,
                   std::string_view name, double at, Args args = {});

  /// Sets the retention policy. Safe to call between runs; switching modes
  /// while spans are open is supported (each span closes under the mode it
  /// was opened in). The default kFull policy keeps the recorder behaviour
  /// identical to the pre-retention implementation.
  void set_retention(RetentionPolicy policy);
  RetentionPolicy retention() const;

  /// Attaches a streaming observer fed every closed span and every instant
  /// (in all retention modes). nullptr detaches. The sink must outlive all
  /// recording calls made while attached.
  void set_span_sink(SpanSink* sink);

  /// Closed spans seen since the last clear(), regardless of retention.
  std::size_t observed_span_count() const;
  /// Spans / instants discarded by the kStatsOnly retention policy.
  std::size_t dropped_span_count() const;
  std::size_t dropped_instant_count() const;

  /// Drops all recorded events, tracks, and processes (between runs).
  /// Retention policy and sink attachment survive a clear().
  void clear();

  // -- snapshot accessors (exporter + tests); copies under the lock ----------
  std::vector<TraceProcess> processes() const;
  std::vector<TraceTrack> tracks() const;
  std::vector<TraceSpan> spans() const;
  std::vector<TraceInstant> instants() const;
  std::size_t span_count() const;
  std::size_t instant_count() const;
  /// Spans still open (begin without end) — should be 0 after a clean run.
  std::size_t open_span_count() const;

 private:
  /// Span ids with this bit set index open_spans_ (kStatsOnly mode) rather
  /// than spans_; keeps bounded-mode handles stable while exemplar spans are
  /// being dropped.
  static constexpr std::uint64_t kBoundedBit = 1ull << 63;

  std::uint32_t intern_track_locked(std::string_view name);
  void ensure_default_process_locked();
  /// Sink notification + observed-span accounting for a just-closed span.
  void note_closed_locked(const TraceSpan& span);
  /// kStatsOnly sampling decision: should the span just counted by
  /// note_closed_locked be kept as an exemplar?
  bool retain_sample_locked() const;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  const sim::Clock* clock_ = nullptr;  // guarded by mu_
  std::vector<TraceProcess> processes_;
  std::uint32_t current_pid_ = 0;
  std::vector<TraceTrack> tracks_;
  std::map<std::pair<std::uint32_t, std::string>, std::uint32_t> track_index_;
  std::vector<TraceSpan> spans_;
  std::vector<TraceInstant> instants_;
  RetentionPolicy retention_;
  SpanSink* sink_ = nullptr;
  std::map<std::uint64_t, TraceSpan> open_spans_;  // kStatsOnly open spans
  std::uint64_t next_open_id_ = 0;
  std::size_t observed_spans_ = 0;
  std::size_t dropped_spans_ = 0;
  std::size_t dropped_instants_ = 0;
};

}  // namespace mfw::obs
