// mfw::obs live-health layer (DESIGN.md §12): streaming telemetry fan-out,
// spec-declared SLOs, and an online alerting/anomaly engine.
//
// PRs 2+5 made the telemetry *forensic* — traces and rollups analysed after
// the run. This header makes it *operational*: a campaign can be watched
// while it runs, with typed alerts raised the moment a service-level
// objective is violated or a stage's behaviour departs from its own recent
// history.
//
//  - TelemetryBus: a SpanSink that converts every closed span / instant into
//    a small TelemetryEvent and fans it out to bounded per-subscriber queues.
//    Producers never block and never allocate beyond the event copy: when a
//    subscriber's queue is full the event is counted in that subscriber's
//    dropped counter and discarded. The bus chains to an optional `next`
//    sink (e.g. obs::SpanRollup), since the recorder has a single sink slot.
//  - SloRule / HealthMonitor: SLO rules (per-stage p99 latency, queue-wait
//    p99, deadline-miss rate, utilization floor, WAN retry budget) evaluated
//    over WindowedSeries as windows close, plus an EWMA/MAD anomaly detector
//    over per-window means. Alerts carry a firing -> resolved lifecycle and
//    a cause hint reusing the straggler-attribution vocabulary of
//    obs/analyze.hpp (wan-retry | wan-slow | queue-wait | node-contention |
//    orchestration | unattributed).
//
// Zero-perturbation contract: the watch layer only *reads* the event stream.
// All timestamps come from the recorder's sim::Clock, subscribers are polled
// (never scheduled into the workflow's engine by this layer), and no
// simulation state — RNG, queues, links — is touched. A paper run with the
// bus attached is therefore bit-for-bit identical to an unwatched run
// (sha256-gated by the ctest gate gate_fig6_sha_watch), and with the
// recorder disabled the cost at every call site stays the single relaxed
// atomic load gated in bench/micro_obs.cpp.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/rollup.hpp"
#include "obs/trace.hpp"

namespace mfw::obs {

/// Flattened view of one closed span (or instant) as it crosses the bus:
/// just the fields the health layer consumes, no arg vector to keep the
/// copy under the recorder lock cheap.
struct TelemetryEvent {
  bool is_instant = false;
  std::string stage;     // track_stage(track.name): "download", "preprocess"
  std::string category;  // span category: "compute", "download", "stage", ...
  std::string name;
  double start = 0.0;
  double end = 0.0;            // == start for instants
  double queue_wait_s = -1.0;  // parsed "queue_wait_s" arg; < 0 when absent
  int attempts = 0;            // parsed "attempts" arg; 0 when absent
  std::string status;          // "status" arg when present

  double duration() const { return end - start; }
};

/// Push-based fan-out from the TraceRecorder's SpanSink hook to bounded
/// per-subscriber queues. Attach with TraceRecorder::set_span_sink(&bus);
/// chain a pre-existing sink (e.g. SpanRollup) with set_next() since the
/// recorder holds a single sink slot.
///
/// Drop accounting is explicit and per-subscriber: a full queue drops the
/// event for that subscriber only (others still receive it) and increments
/// dropped(subscriber). The producer side never blocks — a slow or absent
/// poller costs one counter increment per event, never memory growth.
class TelemetryBus : public SpanSink {
 public:
  explicit TelemetryBus(std::size_t queue_capacity = 8192);

  /// Registers a subscriber queue and returns its id. Subscribe before
  /// attaching the bus as the recorder's sink.
  std::size_t subscribe();

  /// Chains a downstream sink that receives every span/instant verbatim
  /// (before queueing). nullptr detaches.
  void set_next(SpanSink* next);

  // SpanSink: called under the recorder lock — O(subscribers) copies, no
  // re-entry into the recorder.
  void on_span(const TraceTrack& track, const TraceSpan& span) override;
  void on_instant(const TraceTrack& track, const TraceInstant& instant) override;

  /// Moves up to `max_events` queued events (0 = all) into `out`, returning
  /// how many were delivered.
  std::size_t poll(std::size_t subscriber, std::vector<TelemetryEvent>& out,
                   std::size_t max_events = 0);

  // -- accounting -------------------------------------------------------------
  std::uint64_t published() const;
  std::uint64_t dropped(std::size_t subscriber) const;
  std::uint64_t dropped_total() const;
  std::size_t subscriber_count() const;
  std::size_t queue_capacity() const { return capacity_; }

 private:
  struct Subscriber {
    std::deque<TelemetryEvent> queue;
    std::uint64_t dropped = 0;
  };

  void fan_out(TelemetryEvent event);

  mutable std::mutex mu_;
  std::size_t capacity_;
  SpanSink* next_ = nullptr;
  std::vector<Subscriber> subscribers_;
  std::uint64_t published_ = 0;
};

/// The SLO vocabulary of the spec layer's `slo:` section (DESIGN.md §12).
enum class SloMetric {
  kP99Latency,        // per-stage task p99 duration ceiling (seconds)
  kQueueWaitP99,      // per-stage queue-wait p99 ceiling (seconds)
  kDeadlineMissRate,  // campaign deadline-miss fraction ceiling [0, 1]
  kUtilizationFloor,  // facility busy-fraction floor (0, 1]
  kWanRetryBudget,    // WAN retries allowed per window
};

const char* to_string(SloMetric metric);

/// Parses the spec-level metric vocabulary ("p99_latency", "queue_wait_p99",
/// "deadline_miss_rate", "utilization_floor", "wan_retry_budget"). Returns
/// false (leaving `out` untouched) for unknown names.
bool slo_metric_from_string(std::string_view name, SloMetric& out);

struct SloRule {
  std::string name;   // unique; surfaces in alerts and reports
  std::string stage;  // "" = workflow-wide (deadline / utilization rules)
  SloMetric metric = SloMetric::kP99Latency;
  double threshold = 0.0;
  /// Evaluation window; each rule aggregates its own WindowedSeries at this
  /// granularity and is judged as windows close.
  double window_s = 60.0;
};

/// One alert-lifecycle transition. Every violation episode produces a
/// "firing" alert when its first bad window closes and a "resolved" alert
/// when the first clean window after it closes (episodes still in violation
/// at finish() stay firing — no fake recovery).
struct Alert {
  std::string rule;    // SloRule name, or "anomaly:<stage>"
  std::string kind;    // "slo" | "anomaly"
  std::string stage;
  std::string metric;  // to_string(SloMetric) or "window_mean"
  std::string state;   // "firing" | "resolved"
  double threshold = 0.0;  // rule threshold / anomaly baseline
  double observed = 0.0;   // value in the transition window
  double window_t0 = 0.0;  // start of the transition window
  double at = 0.0;         // evaluation time (sim seconds)
  /// Cause hint (firing only), straggler-attribution vocabulary: wan-retry |
  /// wan-slow | queue-wait | node-contention | orchestration | unattributed.
  std::string cause;
};

struct HealthConfig {
  /// Dashboard / anomaly-detector window (SLO rules carry their own).
  double window_s = 60.0;
  /// Robust z-score threshold for the EWMA/MAD anomaly detector; 0 disables
  /// anomaly detection (SLO rules still run).
  double anomaly_k = 0.0;
  /// EWMA smoothing factor for the anomaly baseline.
  double anomaly_alpha = 0.3;
  /// Closed windows of history required before the detector may fire.
  std::size_t anomaly_min_history = 5;
  /// Cause attribution: queue-wait p99 >= queue_share * duration p99 in the
  /// offending window => "queue-wait" (same knob as AnalyzeOptions).
  double queue_share = 0.5;
};

/// Online alert engine: drains a TelemetryBus subscription, folds events
/// into per-rule and per-stage WindowedSeries, and evaluates SLO rules plus
/// the anomaly detector whenever poll() observes that windows have closed.
/// Single-threaded by design (poll/accessors from the driving thread); the
/// bus handles the cross-thread hop from recorder callbacks.
class HealthMonitor {
 public:
  HealthMonitor(HealthConfig config, std::vector<SloRule> rules);

  /// Subscribes to `bus`; must be called before events flow and at most
  /// once. The bus must outlive the monitor's last poll().
  void attach(TelemetryBus& bus);

  /// Declares a stage's worker capacity (nodes x workers/node) so
  /// utilization-floor rules and the dashboard can normalise busy seconds.
  /// Unset stages default to 1 worker.
  void set_stage_capacity(const std::string& stage, double workers);

  /// Feeds one campaign-deadline outcome (deadline-miss-rate rules).
  void note_deadline(double t, bool missed);

  /// Drains the bus and evaluates every rule window that closed strictly
  /// before `now`. Call from stage boundaries, task completions, or a
  /// periodic read-only tick — never required for correctness of the run.
  void poll(double now);

  /// Final drain + evaluation of all remaining windows (closed or not) at
  /// end of run. Firing alerts are left firing.
  void finish(double now);

  /// Observer invoked synchronously for every alert transition as it is
  /// recorded (from poll()/finish() on the driving thread). Lets the flight
  /// recorder capture health episodes and `mfwctl watch` dump a black box
  /// the moment an SLO fires. Empty hook detaches.
  void set_alert_hook(std::function<void(const Alert&)> hook);

  const std::vector<Alert>& alerts() const { return alerts_; }
  std::size_t firing_count() const;
  const std::vector<SloRule>& rules() const { return rules_config_; }
  std::uint64_t events_seen() const { return events_seen_; }
  std::uint64_t dropped_events() const;

  /// mfw.health/v1 JSON stream: rules, alert transitions in order, per-stage
  /// whole-stream stats, and bus drop accounting.
  std::string to_json(double now) const;
  /// One text dashboard snapshot (mfwctl watch).
  std::string dashboard(double now) const;

 private:
  struct RuleState {
    SloRule rule;
    WindowedSeries values;                   // duration or queue-wait samples
    std::map<std::int64_t, double> retries;  // WAN retry counts per window
    std::map<std::int64_t, std::pair<std::uint64_t, std::uint64_t>>
        deadlines;  // window -> {outcomes, misses}
    std::map<std::int64_t, double> busy_s;  // busy seconds per window
    /// First window index that received any data; evaluation starts here so
    /// a rule is never judged against windows before its stage existed.
    std::int64_t first_index = std::numeric_limits<std::int64_t>::max();
    std::int64_t evaluated_to = std::numeric_limits<std::int64_t>::min();
    bool firing = false;
  };

  struct StageState {
    WindowedSeries duration;
    WindowedSeries queue_wait;
    std::map<std::int64_t, double> retries;  // per dashboard window
    std::uint64_t retries_total = 0;
    std::uint64_t spans = 0;
    double capacity = 1.0;
    // Category evidence + busy time for cause attribution and the dashboard.
    bool saw_download = false;
    bool saw_flow = false;
    double busy_total_s = 0.0;
    double first_t = std::numeric_limits<double>::infinity();
    double last_t = -std::numeric_limits<double>::infinity();
    // EWMA/MAD anomaly detector state over closed-window means.
    std::deque<double> history;
    double ewma = -1.0;
    std::int64_t anomaly_evaluated_to = std::numeric_limits<std::int64_t>::min();
    bool anomaly_firing = false;
  };

  StageState& stage_state(const std::string& stage);
  void ingest(const TelemetryEvent& event);
  /// Appends the alert and notifies the hook.
  void record_alert(Alert alert);
  void evaluate(double now, bool include_open_windows);
  void evaluate_rule(RuleState& state, double now, bool include_open);
  void evaluate_anomalies(double now, bool include_open);
  /// Cause hint for a violation at `stage` in the window starting at
  /// `window_t0` (straggler-attribution vocabulary).
  std::string attribute(const std::string& stage, double window_t0,
                        double window_s) const;

  HealthConfig config_;
  std::vector<SloRule> rules_config_;
  std::vector<RuleState> rules_;
  std::map<std::string, StageState> stages_;
  std::vector<Alert> alerts_;
  std::function<void(const Alert&)> alert_hook_;
  TelemetryBus* bus_ = nullptr;
  std::size_t subscription_ = 0;
  std::vector<TelemetryEvent> scratch_;
  std::uint64_t events_seen_ = 0;
};

}  // namespace mfw::obs
