#include "obs/watch.hpp"

#include "util/json_writer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/export.hpp"

namespace mfw::obs {

namespace {

constexpr std::size_t kRuleMaxWindows = 4096;
constexpr std::size_t kStageMaxWindows = 4096;
/// Anomaly baseline history cap (closed windows).
constexpr std::size_t kAnomalyHistoryCap = 64;
/// MAD consistency constant for normally distributed data.
constexpr double kMadToSigma = 1.4826;
/// Relative floor on the anomaly scale so a perfectly flat baseline (MAD 0)
/// does not turn benign jitter into alerts.
constexpr double kAnomalyScaleFloor = 0.05;
/// Service-time inflation factor treated as contention evidence, matching
/// AnalyzeOptions::payload_factor's role in post-hoc attribution.
constexpr double kInflationFactor = 1.5;

std::string num(double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

/// Merged {count, p99, p50-of-stream} view of the series windows overlapping
/// [t0, t0 + span_s).
struct OverlapStats {
  std::uint64_t count = 0;
  LogHistogram hist;
  double p99() const { return hist.quantile(0.99); }
};

OverlapStats overlap_stats(const WindowedSeries& series, double t0,
                           double span_s) {
  OverlapStats out;
  const double w = series.config().window_s;
  for (const auto& window : series.windows()) {
    const double wt0 = static_cast<double>(window.index) * w;
    if (wt0 + w <= t0 || wt0 >= t0 + span_s) continue;
    out.count += window.count;
    out.hist.merge(window.hist);
  }
  return out;
}

double overlap_map_sum(const std::map<std::int64_t, double>& per_window,
                       double window_s, double t0, double span_s) {
  double total = 0.0;
  for (const auto& [index, value] : per_window) {
    const double wt0 = static_cast<double>(index) * window_s;
    if (wt0 + window_s <= t0 || wt0 >= t0 + span_s) continue;
    total += value;
  }
  return total;
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const auto mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

}  // namespace

// ---------------------------------------------------------------------------
// TelemetryBus

TelemetryBus::TelemetryBus(std::size_t queue_capacity)
    : capacity_(std::max<std::size_t>(1, queue_capacity)) {}

std::size_t TelemetryBus::subscribe() {
  std::lock_guard lock(mu_);
  subscribers_.emplace_back();
  return subscribers_.size() - 1;
}

void TelemetryBus::set_next(SpanSink* next) {
  std::lock_guard lock(mu_);
  next_ = next;
}

void TelemetryBus::on_span(const TraceTrack& track, const TraceSpan& span) {
  if (SpanSink* next = next_) next->on_span(track, span);
  TelemetryEvent event;
  event.stage = track_stage(track.name);
  event.category = span.category;
  event.name = span.name;
  event.start = span.start;
  event.end = span.end;
  for (const auto& [key, value] : span.args) {
    if (key == "queue_wait_s") {
      event.queue_wait_s = arg_number(value, event.queue_wait_s);
    } else if (key == "attempts") {
      event.attempts = static_cast<int>(arg_number(value, 0.0));
    } else if (key == "status") {
      event.status = value;
    }
  }
  fan_out(std::move(event));
}

void TelemetryBus::on_instant(const TraceTrack& track,
                              const TraceInstant& instant) {
  if (SpanSink* next = next_) next->on_instant(track, instant);
  TelemetryEvent event;
  event.is_instant = true;
  event.stage = track_stage(track.name);
  event.category = instant.category;
  event.name = instant.name;
  event.start = event.end = instant.at;
  fan_out(std::move(event));
}

void TelemetryBus::fan_out(TelemetryEvent event) {
  std::lock_guard lock(mu_);
  ++published_;
  for (std::size_t i = 0; i < subscribers_.size(); ++i) {
    Subscriber& sub = subscribers_[i];
    if (sub.queue.size() >= capacity_) {
      ++sub.dropped;
      continue;
    }
    if (i + 1 == subscribers_.size()) {
      sub.queue.push_back(std::move(event));
    } else {
      sub.queue.push_back(event);
    }
  }
}

std::size_t TelemetryBus::poll(std::size_t subscriber,
                               std::vector<TelemetryEvent>& out,
                               std::size_t max_events) {
  std::lock_guard lock(mu_);
  if (subscriber >= subscribers_.size()) return 0;
  auto& queue = subscribers_[subscriber].queue;
  std::size_t take = queue.size();
  if (max_events != 0) take = std::min(take, max_events);
  for (std::size_t i = 0; i < take; ++i) {
    out.push_back(std::move(queue.front()));
    queue.pop_front();
  }
  return take;
}

std::uint64_t TelemetryBus::published() const {
  std::lock_guard lock(mu_);
  return published_;
}

std::uint64_t TelemetryBus::dropped(std::size_t subscriber) const {
  std::lock_guard lock(mu_);
  return subscriber < subscribers_.size() ? subscribers_[subscriber].dropped
                                          : 0;
}

std::uint64_t TelemetryBus::dropped_total() const {
  std::lock_guard lock(mu_);
  std::uint64_t total = 0;
  for (const auto& sub : subscribers_) total += sub.dropped;
  return total;
}

std::size_t TelemetryBus::subscriber_count() const {
  std::lock_guard lock(mu_);
  return subscribers_.size();
}

// ---------------------------------------------------------------------------
// SLO vocabulary

const char* to_string(SloMetric metric) {
  switch (metric) {
    case SloMetric::kP99Latency: return "p99_latency";
    case SloMetric::kQueueWaitP99: return "queue_wait_p99";
    case SloMetric::kDeadlineMissRate: return "deadline_miss_rate";
    case SloMetric::kUtilizationFloor: return "utilization_floor";
    case SloMetric::kWanRetryBudget: return "wan_retry_budget";
  }
  return "unknown";
}

bool slo_metric_from_string(std::string_view name, SloMetric& out) {
  if (name == "p99_latency") out = SloMetric::kP99Latency;
  else if (name == "queue_wait_p99") out = SloMetric::kQueueWaitP99;
  else if (name == "deadline_miss_rate") out = SloMetric::kDeadlineMissRate;
  else if (name == "utilization_floor") out = SloMetric::kUtilizationFloor;
  else if (name == "wan_retry_budget") out = SloMetric::kWanRetryBudget;
  else return false;
  return true;
}

// ---------------------------------------------------------------------------
// HealthMonitor

HealthMonitor::HealthMonitor(HealthConfig config, std::vector<SloRule> rules)
    : config_(config), rules_config_(std::move(rules)) {
  if (config_.window_s <= 0.0) config_.window_s = 60.0;
  rules_.reserve(rules_config_.size());
  for (auto& rule : rules_config_) {
    if (rule.window_s <= 0.0) rule.window_s = 60.0;
    RuleState state;
    state.rule = rule;
    state.values = WindowedSeries(RollupConfig{rule.window_s, kRuleMaxWindows});
    rules_.push_back(std::move(state));
  }
}

void HealthMonitor::attach(TelemetryBus& bus) {
  bus_ = &bus;
  subscription_ = bus.subscribe();
}

HealthMonitor::StageState& HealthMonitor::stage_state(
    const std::string& stage) {
  auto it = stages_.find(stage);
  if (it == stages_.end()) {
    StageState fresh;
    const RollupConfig config{config_.window_s, kStageMaxWindows};
    fresh.duration = WindowedSeries(config);
    fresh.queue_wait = WindowedSeries(config);
    it = stages_.emplace(stage, std::move(fresh)).first;
  }
  return it->second;
}

void HealthMonitor::set_stage_capacity(const std::string& stage,
                                       double workers) {
  stage_state(stage).capacity = std::max(1.0, workers);
}

void HealthMonitor::note_deadline(double t, bool missed) {
  for (auto& state : rules_) {
    if (state.rule.metric != SloMetric::kDeadlineMissRate) continue;
    const auto index = window_index(t, state.rule.window_s);
    auto& [outcomes, misses] = state.deadlines[index];
    ++outcomes;
    if (missed) ++misses;
    state.first_index = std::min(state.first_index, index);
  }
}

void HealthMonitor::ingest(const TelemetryEvent& event) {
  ++events_seen_;
  if (event.is_instant) return;

  StageState& stage = stage_state(event.stage);
  ++stage.spans;
  stage.duration.add(event.end, event.duration());
  if (event.queue_wait_s >= 0.0)
    stage.queue_wait.add(event.end, event.queue_wait_s);
  const bool is_flow = event.category.rfind("flow", 0) == 0;
  if (event.category == "download") stage.saw_download = true;
  if (is_flow) stage.saw_flow = true;
  const int retries = event.attempts > 1 ? event.attempts - 1 : 0;
  if (retries > 0) {
    stage.retries[window_index(event.end, config_.window_s)] += retries;
    stage.retries_total += static_cast<std::uint64_t>(retries);
  }
  // Busy time feeds utilization: worker-level spans only, not the umbrella
  // stage/flow spans that would double-cover their children.
  const bool is_work = event.category != "stage" && !is_flow;
  if (is_work) {
    stage.busy_total_s += event.duration();
    stage.first_t = std::min(stage.first_t, event.start);
    stage.last_t = std::max(stage.last_t, event.end);
  }

  for (auto& state : rules_) {
    const SloRule& rule = state.rule;
    if (rule.stage != event.stage) continue;
    const auto index = window_index(event.end, rule.window_s);
    switch (rule.metric) {
      case SloMetric::kP99Latency:
        state.values.add(event.end, event.duration());
        state.first_index = std::min(state.first_index, index);
        break;
      case SloMetric::kQueueWaitP99:
        if (event.queue_wait_s >= 0.0) {
          state.values.add(event.end, event.queue_wait_s);
          state.first_index = std::min(state.first_index, index);
        }
        break;
      case SloMetric::kWanRetryBudget:
        if (retries > 0) state.retries[index] += retries;
        state.first_index = std::min(state.first_index, index);
        break;
      case SloMetric::kUtilizationFloor:
        if (is_work) {
          // Apportion busy seconds across every window the span overlaps.
          const auto first = window_index(event.start, rule.window_s);
          for (auto w = first; w <= index; ++w) {
            const double wt0 = static_cast<double>(w) * rule.window_s;
            const double overlap = std::min(event.end, wt0 + rule.window_s) -
                                   std::max(event.start, wt0);
            if (overlap > 0.0) state.busy_s[w] += overlap;
          }
          state.first_index = std::min(state.first_index, first);
        }
        break;
      case SloMetric::kDeadlineMissRate:
        break;  // fed by note_deadline()
    }
  }
}

void HealthMonitor::poll(double now) {
  if (bus_ != nullptr) {
    scratch_.clear();
    bus_->poll(subscription_, scratch_);
    for (const auto& event : scratch_) ingest(event);
    scratch_.clear();
  }
  evaluate(now, /*include_open_windows=*/false);
}

void HealthMonitor::finish(double now) {
  if (bus_ != nullptr) {
    scratch_.clear();
    bus_->poll(subscription_, scratch_);
    for (const auto& event : scratch_) ingest(event);
    scratch_.clear();
  }
  evaluate(now, /*include_open_windows=*/true);
}

void HealthMonitor::evaluate(double now, bool include_open_windows) {
  for (auto& state : rules_) evaluate_rule(state, now, include_open_windows);
  if (config_.anomaly_k > 0.0) evaluate_anomalies(now, include_open_windows);
}

void HealthMonitor::evaluate_rule(RuleState& state, double now,
                                  bool include_open) {
  if (state.first_index == std::numeric_limits<std::int64_t>::max()) return;
  const SloRule& rule = state.rule;
  const double ws = rule.window_s;
  std::int64_t last = window_index(now, ws);
  if (!include_open) --last;  // only windows that closed strictly before now
  if (rule.metric == SloMetric::kUtilizationFloor) {
    // Windows after the stage's last activity are idle by completion, not by
    // stall; never judge them.
    const auto last_busy = state.busy_s.empty()
                               ? std::numeric_limits<std::int64_t>::min()
                               : state.busy_s.rbegin()->first;
    last = std::min(last, last_busy);
  }
  std::int64_t begin =
      state.evaluated_to == std::numeric_limits<std::int64_t>::min()
          ? state.first_index
          : state.evaluated_to + 1;
  for (std::int64_t w = begin; w <= last; ++w) {
    bool has_data = true;
    bool violated = false;
    double observed = 0.0;
    switch (rule.metric) {
      case SloMetric::kP99Latency:
      case SloMetric::kQueueWaitP99: {
        const auto& windows = state.values.windows();
        const auto pos = std::lower_bound(
            windows.begin(), windows.end(), w,
            [](const WindowStats& s, std::int64_t i) { return s.index < i; });
        if (pos != windows.end() && pos->index == w && pos->count > 0) {
          observed = pos->p99();
          violated = observed > rule.threshold;
        } else {
          // An empty window is a clean window: it can resolve a firing
          // episode but carries no new violation.
          has_data = state.firing;
        }
        break;
      }
      case SloMetric::kWanRetryBudget: {
        const auto it = state.retries.find(w);
        observed = it != state.retries.end() ? it->second : 0.0;
        violated = observed > rule.threshold;
        break;
      }
      case SloMetric::kDeadlineMissRate: {
        const auto it = state.deadlines.find(w);
        if (it == state.deadlines.end() || it->second.first == 0) {
          has_data = false;  // no outcomes => no information either way
        } else {
          observed = static_cast<double>(it->second.second) /
                     static_cast<double>(it->second.first);
          violated = observed > rule.threshold;
        }
        break;
      }
      case SloMetric::kUtilizationFloor: {
        const auto it = state.busy_s.find(w);
        const double busy = it != state.busy_s.end() ? it->second : 0.0;
        const std::string& stage = rule.stage;
        const auto stage_it = stages_.find(stage);
        const double workers =
            stage_it != stages_.end() ? stage_it->second.capacity : 1.0;
        observed = std::min(1.0, busy / (workers * ws));
        violated = observed < rule.threshold;
        break;
      }
    }
    if (!has_data) continue;
    const double wt0 = static_cast<double>(w) * ws;
    if (violated && !state.firing) {
      state.firing = true;
      Alert alert;
      alert.rule = rule.name;
      alert.kind = "slo";
      alert.stage = rule.stage;
      alert.metric = to_string(rule.metric);
      alert.state = "firing";
      alert.threshold = rule.threshold;
      alert.observed = observed;
      alert.window_t0 = wt0;
      alert.at = now;
      alert.cause = attribute(rule.stage, wt0, ws);
      record_alert(std::move(alert));
    } else if (!violated && state.firing) {
      state.firing = false;
      Alert alert;
      alert.rule = rule.name;
      alert.kind = "slo";
      alert.stage = rule.stage;
      alert.metric = to_string(rule.metric);
      alert.state = "resolved";
      alert.threshold = rule.threshold;
      alert.observed = observed;
      alert.window_t0 = wt0;
      alert.at = now;
      record_alert(std::move(alert));
    }
  }
  state.evaluated_to = std::max(state.evaluated_to, last);
}

void HealthMonitor::evaluate_anomalies(double now, bool include_open) {
  const double ws = config_.window_s;
  std::int64_t last = window_index(now, ws);
  if (!include_open) --last;
  for (auto& [name, stage] : stages_) {
    for (const auto& window : stage.duration.windows()) {
      if (window.index <= stage.anomaly_evaluated_to || window.index > last)
        continue;
      if (window.count == 0) continue;
      const double mean = window.sum / static_cast<double>(window.count);
      bool anomalous = false;
      if (stage.ewma >= 0.0 &&
          stage.history.size() >= config_.anomaly_min_history) {
        std::vector<double> history(stage.history.begin(),
                                    stage.history.end());
        const double med = median_of(history);
        for (auto& h : history) h = std::fabs(h - med);
        const double mad = median_of(std::move(history));
        const double scale =
            std::max({kMadToSigma * mad,
                      kAnomalyScaleFloor * std::fabs(stage.ewma), 1e-12});
        anomalous = std::fabs(mean - stage.ewma) / scale > config_.anomaly_k;
      }
      const double wt0 = static_cast<double>(window.index) * ws;
      if (anomalous && !stage.anomaly_firing) {
        stage.anomaly_firing = true;
        Alert alert;
        alert.rule = "anomaly:" + name;
        alert.kind = "anomaly";
        alert.stage = name;
        alert.metric = "window_mean";
        alert.state = "firing";
        alert.threshold = stage.ewma;
        alert.observed = mean;
        alert.window_t0 = wt0;
        alert.at = now;
        alert.cause = attribute(name, wt0, ws);
        record_alert(std::move(alert));
      } else if (!anomalous && stage.anomaly_firing) {
        stage.anomaly_firing = false;
        Alert alert;
        alert.rule = "anomaly:" + name;
        alert.kind = "anomaly";
        alert.stage = name;
        alert.metric = "window_mean";
        alert.state = "resolved";
        alert.threshold = stage.ewma;
        alert.observed = mean;
        alert.window_t0 = wt0;
        alert.at = now;
        record_alert(std::move(alert));
      }
      if (!anomalous) {
        // Anomalous windows are excluded from the baseline so a burst does
        // not teach the detector that bursts are normal.
        stage.ewma = stage.ewma < 0.0 ? mean
                                      : config_.anomaly_alpha * mean +
                                            (1.0 - config_.anomaly_alpha) *
                                                stage.ewma;
        stage.history.push_back(mean);
        if (stage.history.size() > kAnomalyHistoryCap)
          stage.history.pop_front();
      }
      stage.anomaly_evaluated_to = window.index;
    }
  }
}

std::string HealthMonitor::attribute(const std::string& stage, double window_t0,
                                     double window_s) const {
  if (stage.empty()) {
    // Workflow-wide rule (deadline class): blame the stage with the worst
    // queue pressure in the window, if any stage shows queue dominance.
    const StageState* worst = nullptr;
    const std::string* worst_name = nullptr;
    double worst_queue = 0.0;
    for (const auto& [name, st] : stages_) {
      const auto queue = overlap_stats(st.queue_wait, window_t0, window_s);
      if (queue.count == 0) continue;
      const double p99 = queue.p99();
      if (p99 > worst_queue) {
        worst_queue = p99;
        worst = &st;
        worst_name = &name;
      }
    }
    if (worst != nullptr) {
      const auto duration = overlap_stats(worst->duration, window_t0,
                                          window_s);
      if (worst_queue >= config_.queue_share * duration.p99())
        return "queue-wait";
      (void)worst_name;
    }
    return "unattributed";
  }

  const auto it = stages_.find(stage);
  if (it == stages_.end()) return "unattributed";
  const StageState& st = it->second;
  const double retries = overlap_map_sum(st.retries, config_.window_s,
                                         window_t0, window_s);
  if (st.saw_download && retries > 0.0) return "wan-retry";
  const auto duration = overlap_stats(st.duration, window_t0, window_s);
  const auto queue = overlap_stats(st.queue_wait, window_t0, window_s);
  if (queue.count > 0 && duration.count > 0 &&
      queue.p99() >= config_.queue_share * duration.p99())
    return "queue-wait";
  const bool inflated = duration.count > 0 && st.duration.p50() > 0.0 &&
                        duration.p99() > kInflationFactor * st.duration.p50();
  if (st.saw_download && inflated) return "wan-slow";
  if (st.saw_flow) return "orchestration";
  if (inflated) return "node-contention";
  return "unattributed";
}

void HealthMonitor::set_alert_hook(std::function<void(const Alert&)> hook) {
  alert_hook_ = std::move(hook);
}

void HealthMonitor::record_alert(Alert alert) {
  alerts_.push_back(std::move(alert));
  if (alert_hook_) alert_hook_(alerts_.back());
}

std::size_t HealthMonitor::firing_count() const {
  std::size_t firing = 0;
  for (const auto& state : rules_)
    if (state.firing) ++firing;
  for (const auto& [name, stage] : stages_)
    if (stage.anomaly_firing) ++firing;
  return firing;
}

std::uint64_t HealthMonitor::dropped_events() const {
  return bus_ != nullptr ? bus_->dropped(subscription_) : 0;
}

std::string HealthMonitor::to_json(double now) const {
  util::JsonWriter w;
  w.begin_object();
  w.field("schema", "mfw.health/v1");
  w.field("now", now);
  w.field("window_s", config_.window_s);
  w.field("anomaly_k", config_.anomaly_k);
  w.field("events_seen", events_seen_);
  w.field("dropped_events", dropped_events());
  w.field("firing", firing_count());
  w.key("bus").begin_object();
  w.field("attached", bus_ != nullptr);
  if (bus_ != nullptr) {
    w.field("published", bus_->published());
    w.field("dropped_total", bus_->dropped_total());
    w.field("subscribers", bus_->subscriber_count());
    w.field("queue_capacity", bus_->queue_capacity());
  }
  w.end_object();

  w.key("rules").begin_array();
  for (const auto& state : rules_) {
    w.item("\n  ").begin_object();
    w.field("name", state.rule.name);
    w.field("stage", state.rule.stage);
    w.field("metric", to_string(state.rule.metric));
    w.field("threshold", state.rule.threshold);
    w.field("rule_window_s", state.rule.window_s);
    w.field("firing", state.firing);
    w.end_object();
  }
  w.end_array("\n");

  w.key("stages").begin_array();
  for (const auto& [name, stage] : stages_) {
    const double elapsed = stage.last_t - stage.first_t;
    const double busy_share =
        elapsed > 0.0
            ? std::min(1.0, stage.busy_total_s / (stage.capacity * elapsed))
            : 0.0;
    w.item("\n  ").begin_object();
    w.field("stage", name);
    w.field("spans", stage.spans);
    w.field("retries_total", stage.retries_total);
    w.field("capacity", stage.capacity);
    w.field("busy_share", busy_share);
    w.key("duration").begin_object();
    w.field("count", stage.duration.count());
    w.field("mean", stage.duration.mean());
    w.field("p50", stage.duration.p50());
    w.field("p99", stage.duration.p99());
    w.field("max", stage.duration.max());
    w.end_object();
    w.key("queue_wait").begin_object();
    w.field("count", stage.queue_wait.count());
    w.field("mean", stage.queue_wait.mean());
    w.field("p99", stage.queue_wait.p99());
    w.end_object();
    w.field("anomaly_firing", stage.anomaly_firing);
    w.end_object();
  }
  w.end_array("\n");

  w.key("alerts").begin_array();
  for (const auto& alert : alerts_) {
    w.item("\n  ").begin_object();
    w.field("rule", alert.rule);
    w.field("kind", alert.kind);
    w.field("stage", alert.stage);
    w.field("metric", alert.metric);
    w.field("state", alert.state);
    w.field("threshold", alert.threshold);
    w.field("observed", alert.observed);
    w.field("window_t0", alert.window_t0);
    w.field("at", alert.at);
    w.field("cause", alert.cause);
    w.end_object();
  }
  w.end_array("\n").end_object();
  return w.take();
}

std::string HealthMonitor::dashboard(double now) const {
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof line,
                "health @ t=%.6gs | events %llu (%llu dropped) | rules %zu | "
                "alerts %zu (%zu firing)\n",
                now, static_cast<unsigned long long>(events_seen_),
                static_cast<unsigned long long>(dropped_events()),
                rules_.size(), alerts_.size(), firing_count());
  os << line;
  if (!stages_.empty()) {
    std::snprintf(line, sizeof line, "  %-14s %8s %10s %10s %10s %8s %6s\n",
                  "stage", "spans", "p50_s", "p99_s", "queue_p99", "retries",
                  "busy");
    os << line;
    for (const auto& [name, stage] : stages_) {
      const double elapsed = stage.last_t - stage.first_t;
      const double busy_share =
          elapsed > 0.0
              ? std::min(1.0, stage.busy_total_s / (stage.capacity * elapsed))
              : 0.0;
      std::snprintf(line, sizeof line,
                    "  %-14s %8llu %10.4g %10.4g %10.4g %8llu %5.0f%%\n",
                    name.c_str(),
                    static_cast<unsigned long long>(stage.spans),
                    stage.duration.p50(), stage.duration.p99(),
                    stage.queue_wait.p99(),
                    static_cast<unsigned long long>(stage.retries_total),
                    100.0 * busy_share);
      os << line;
    }
  }
  bool any_firing = false;
  for (const auto& state : rules_) {
    if (!state.firing) continue;
    if (!any_firing) os << "  firing:\n";
    any_firing = true;
    os << "    [slo] " << state.rule.name << " (" << state.rule.stage << " "
       << to_string(state.rule.metric) << " threshold "
       << num(state.rule.threshold) << ")\n";
  }
  for (const auto& [name, stage] : stages_) {
    if (!stage.anomaly_firing) continue;
    if (!any_firing) os << "  firing:\n";
    any_firing = true;
    os << "    [anomaly] " << name << " window_mean departed baseline "
       << num(stage.ewma) << "\n";
  }
  return os.str();
}

}  // namespace mfw::obs
