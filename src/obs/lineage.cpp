#include "obs/lineage.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <limits>
#include <sstream>

#include "util/json_writer.hpp"

namespace mfw::obs {
namespace {

/// Hop kind for a span: the chain vocabulary is derived from the span
/// category (the analyzer's conventions), with compute lanes resolving to
/// their stage so preprocess and inference read as distinct hops.
std::string hop_kind(const TraceSpan& span, const TraceTrack& track) {
  if (span.category == "download") return "download";
  if (span.category == "compute") return track_stage(track.name);
  if (span.category == "flow") return "flow";
  if (span.category == "flow.state") return "flow:" + span.name;
  if (span.category == "serve") return "serve";
  return span.category.empty() ? std::string("span") : span.category;
}

}  // namespace

const GranuleLineage* LineageReport::find(const std::string& granule) const {
  for (const auto& chain : granules)
    if (chain.granule == granule) return &chain;
  return nullptr;
}

LineageReport extract_lineage(const TraceRecorder& recorder,
                              const LineageOptions& options) {
  const auto processes = recorder.processes();
  const auto tracks = recorder.tracks();
  const auto spans = recorder.spans();
  const auto instants = recorder.instants();

  std::map<std::uint32_t, const TraceProcess*> by_pid;
  for (const auto& process : processes) by_pid[process.pid] = &process;

  // Chains keyed by (process, granule) so a recorder holding several runs
  // (e.g. barrier + streaming in one bench) keeps them apart.
  std::map<std::pair<std::uint32_t, std::string>, GranuleLineage> chains;

  auto chain_for = [&](std::uint32_t pid,
                       const std::string& granule) -> GranuleLineage& {
    GranuleLineage& chain = chains[{pid, granule}];
    if (chain.granule.empty()) {
      chain.granule = granule;
      const auto it = by_pid.find(pid);
      if (it != by_pid.end()) chain.process = it->second->name;
    }
    return chain;
  };

  for (const auto& span : spans) {
    if (span.track >= tracks.size() || !span.closed()) continue;
    const std::string granule = granule_of(span.args);
    if (granule.empty()) continue;
    const TraceTrack& track = tracks[span.track];
    LineageHop hop;
    hop.kind = hop_kind(span, track);
    hop.name = span.name;
    hop.track = track.name;
    hop.start = span.start;
    hop.end = span.end;
    hop.queue_wait_s = arg_number(span.args, "queue_wait_s");
    if (const std::string* status = find_arg(span.args, "status"))
      hop.status = *status;
    hop.attempts = static_cast<int>(arg_number(span.args, "attempts"));
    chain_for(track.process, granule).hops.push_back(std::move(hop));
  }
  for (const auto& instant : instants) {
    if (instant.track >= tracks.size()) continue;
    const std::string granule = granule_of(instant.args);
    if (granule.empty()) continue;
    const TraceTrack& track = tracks[instant.track];
    LineageHop hop;
    hop.kind = instant.name == "granule.ready" ? "granule.ready"
                                               : instant.name;
    hop.name = instant.name;
    hop.track = track.name;
    hop.start = instant.at;
    hop.end = instant.at;
    chain_for(track.process, granule).hops.push_back(std::move(hop));
  }

  LineageReport report;
  report.granules.reserve(chains.size());
  for (auto& [key, chain] : chains) {
    std::sort(chain.hops.begin(), chain.hops.end(),
              [](const LineageHop& a, const LineageHop& b) {
                if (a.start != b.start) return a.start < b.start;
                if (a.end != b.end) return a.end < b.end;
                return a.kind < b.kind;
              });
    chain.first_start = chain.hops.front().start;
    double prev_end = chain.hops.front().start;
    for (LineageHop& hop : chain.hops) {
      hop.gap_s = std::max(0.0, hop.start - prev_end);
      prev_end = std::max(prev_end, hop.end);
      chain.last_end = std::max(chain.last_end, hop.end);
      chain.service_s += hop.service_s();
      chain.wait_s += hop.wait_s();
      if (hop.kind == "granule.ready") chain.ready = true;
      if (hop.status == "failed") chain.failed = true;
    }
    if (options.drop_download_only) {
      bool beyond_download = false;
      for (const LineageHop& hop : chain.hops)
        if (hop.kind != "download") beyond_download = true;
      if (!beyond_download) continue;
    }
    report.granules.push_back(std::move(chain));
  }
  std::sort(report.granules.begin(), report.granules.end(),
            [](const GranuleLineage& a, const GranuleLineage& b) {
              if (a.latency_s() != b.latency_s())
                return a.latency_s() > b.latency_s();
              return a.granule < b.granule;
            });
  return report;
}

std::string LineageReport::to_json(std::size_t max_granules) const {
  util::JsonWriter w;
  w.begin_object();
  w.field("schema", "mfw.lineage/v1");
  w.field("granules_total", granules.size());
  w.key("granules").begin_array();
  std::size_t emitted = 0;
  for (const auto& chain : granules) {
    if (max_granules && emitted++ >= max_granules) break;
    w.item("\n ").begin_object();
    w.field("granule", chain.granule);
    w.field("process", chain.process);
    w.field("first_start", chain.first_start);
    w.field("last_end", chain.last_end);
    w.field("latency_s", chain.latency_s());
    w.field("service_s", chain.service_s);
    w.field("wait_s", chain.wait_s);
    w.field("ready", chain.ready);
    w.field("failed", chain.failed);
    w.key("hops", "\n  ").begin_array();
    for (const auto& hop : chain.hops) {
      w.item("\n   ").begin_object();
      w.field("kind", hop.kind);
      w.field("name", hop.name);
      w.field("track", hop.track);
      w.field("start", hop.start);
      w.field("end", hop.end);
      w.field("service_s", hop.service_s());
      w.field("wait_s", hop.wait_s());
      w.field("gap_s", hop.gap_s);
      w.field("queue_wait_s", hop.queue_wait_s);
      w.field("status", hop.status);
      w.field("attempts", hop.attempts);
      w.end_object();
    }
    w.end_array("\n  ").end_object();
  }
  w.end_array("\n").end_object();
  return w.take();
}

std::string LineageReport::render_text(std::size_t top) const {
  std::ostringstream os;
  char line[512];
  std::snprintf(line, sizeof line, "lineage: %zu granules\n",
                granules.size());
  os << line;
  if (granules.empty()) return os.str();
  os << "  slowest granules (end-to-end latency = wait + service + "
        "overlap-hidden gaps):\n";
  std::size_t shown = 0;
  for (const auto& chain : granules) {
    if (top && shown++ >= top) break;
    std::snprintf(line, sizeof line,
                  "    %-44s %4zu hops  latency %8.1fs  service %7.1fs  "
                  "wait %7.1fs%s%s\n",
                  chain.granule.c_str(), chain.hops.size(),
                  chain.latency_s(), chain.service_s, chain.wait_s,
                  chain.ready ? "" : "  [never ready]",
                  chain.failed ? "  [failed]" : "");
    os << line;
  }
  return os.str();
}

std::string LineageReport::render_granule(const std::string& granule) const {
  const GranuleLineage* chain = find(granule);
  if (!chain) return {};
  std::ostringstream os;
  char line[512];
  std::snprintf(line, sizeof line,
                "granule %s (process %s)\n  %zu hops, latency %.2f s "
                "(service %.2f s, wait %.2f s)%s%s\n",
                chain->granule.c_str(), chain->process.c_str(),
                chain->hops.size(), chain->latency_s(), chain->service_s,
                chain->wait_s, chain->ready ? "" : "  [never ready]",
                chain->failed ? "  [failed]" : "");
  os << line;
  for (const auto& hop : chain->hops) {
    std::snprintf(
        line, sizeof line,
        "    t=%9.2f  %-16s %-32s wait %7.2fs  service %7.2fs  [%s]%s%s%s\n",
        hop.start, hop.kind.c_str(), hop.name.c_str(), hop.wait_s(),
        hop.service_s(), hop.track.c_str(),
        hop.status.empty() ? "" : "  ", hop.status.c_str(),
        hop.attempts > 1 ? "  (retried)" : "");
    os << line;
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// LineageRollup
// ---------------------------------------------------------------------------

LineageRollup::LineageRollup(LineageRollupConfig config) : config_(config) {
  if (config_.max_granules == 0) config_.max_granules = 1;
}

void LineageRollup::set_next(SpanSink* next) {
  std::lock_guard<std::mutex> lock(mu_);
  next_ = next;
}

void LineageRollup::on_span(const TraceTrack& track, const TraceSpan& span) {
  SpanSink* next = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::string granule = granule_of(span.args);
    if (!granule.empty() && span.closed()) {
      const std::string* status = find_arg(span.args, "status");
      touch_locked(granule, span.start, span.end,
                   arg_number(span.args, "queue_wait_s"),
                   span.category == "download", span.category == "compute",
                   span.category == "flow.state",
                   /*ready=*/false, status && *status == "failed");
    }
    next = next_;
  }
  if (next) next->on_span(track, span);
}

void LineageRollup::on_instant(const TraceTrack& track,
                               const TraceInstant& instant) {
  SpanSink* next = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::string granule = granule_of(instant.args);
    if (!granule.empty())
      touch_locked(granule, instant.at, instant.at, 0.0, false, false, false,
                   instant.name == "granule.ready", false);
    next = next_;
  }
  if (next) next->on_instant(track, instant);
}

void LineageRollup::touch_locked(const std::string& granule, double start,
                                 double end, double wait_s, bool is_download,
                                 bool is_compute, bool is_flow_state,
                                 bool ready, bool failed) {
  auto it = live_.find(granule);
  if (it == live_.end()) {
    if (live_.size() >= config_.max_granules) evict_one_locked();
    it = live_.emplace(granule, Summary{}).first;
    it->second.first_start = start;
    it->second.last_end = end;
    order_.push_back(granule);
  }
  Summary& s = it->second;
  s.first_start = std::min(s.first_start, start);
  s.last_end = std::max(s.last_end, end);
  s.service_s += end - start;
  s.wait_s += wait_s;
  ++s.hops;
  if (is_download) ++s.downloads;
  if (is_compute) ++s.computes;
  if (is_flow_state) ++s.flow_states;
  s.ready = s.ready || ready;
  s.failed = s.failed || failed;
}

void LineageRollup::evict_one_locked() {
  // FIFO by first touch: campaign granules enter roughly in time order, so
  // the front of the order queue is the granule least likely to gain hops.
  while (!order_.empty()) {
    const std::string victim = std::move(order_.front());
    order_.pop_front();
    const auto it = live_.find(victim);
    if (it == live_.end()) continue;
    fold_locked(it->second);
    live_.erase(it);
    ++evicted_;
    return;
  }
}

void LineageRollup::fold_locked(const Summary& summary) {
  if (summary.latency_s() > 0.0) latency_hist_.add(summary.latency_s());
  if (summary.wait_s > 0.0) wait_hist_.add(summary.wait_s);
}

std::size_t LineageRollup::live_granules() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.size();
}

std::uint64_t LineageRollup::total_granules() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.size() + evicted_;
}

std::uint64_t LineageRollup::evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

bool LineageRollup::summary(const std::string& granule, Summary& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = live_.find(granule);
  if (it == live_.end()) return false;
  out = it->second;
  return true;
}

double LineageRollup::latency_quantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  LogHistogram merged = latency_hist_;
  for (const auto& [granule, s] : live_)
    if (s.latency_s() > 0.0) merged.add(s.latency_s());
  return merged.quantile(q);
}

double LineageRollup::wait_quantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  LogHistogram merged = wait_hist_;
  for (const auto& [granule, s] : live_)
    if (s.wait_s > 0.0) merged.add(s.wait_s);
  return merged.quantile(q);
}

std::string LineageRollup::to_json(std::size_t top) const {
  std::lock_guard<std::mutex> lock(mu_);
  LogHistogram latency = latency_hist_;
  LogHistogram wait = wait_hist_;
  std::vector<std::pair<double, const std::string*>> slowest;
  slowest.reserve(live_.size());
  for (const auto& [granule, s] : live_) {
    if (s.latency_s() > 0.0) latency.add(s.latency_s());
    if (s.wait_s > 0.0) wait.add(s.wait_s);
    slowest.emplace_back(s.latency_s(), &granule);
  }
  std::sort(slowest.begin(), slowest.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return *a.second < *b.second;
            });
  util::JsonWriter w;
  w.begin_object();
  w.field("schema", "mfw.lineage_rollup/v1");
  w.field("live", live_.size());
  w.field("evicted", evicted_);
  w.field("total", live_.size() + evicted_);
  w.field("latency_p50", latency.quantile(0.50));
  w.field("latency_p99", latency.quantile(0.99));
  w.field("wait_p50", wait.quantile(0.50));
  w.field("wait_p99", wait.quantile(0.99));
  w.key("slowest").begin_array();
  std::size_t emitted = 0;
  for (const auto& [latency_s, granule] : slowest) {
    if (top && emitted++ >= top) break;
    const Summary& s = live_.at(*granule);
    w.item("\n ").begin_object();
    w.field("granule", *granule);
    w.field("latency_s", latency_s);
    w.field("service_s", s.service_s);
    w.field("wait_s", s.wait_s);
    w.field("hops", s.hops);
    w.field("ready", s.ready);
    w.end_object();
  }
  w.end_array("\n").end_object();
  return w.take();
}

}  // namespace mfw::obs
