#include "obs/analyze.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "obs/export.hpp"
#include "obs/rollup.hpp"
#include "util/json_writer.hpp"
#include "util/stats.hpp"

namespace mfw::obs {

namespace {

constexpr double kEps = 1e-9;

/// Second path component of a worker lane: "preprocess/node3/w1" -> "node3".
/// Lanes without a node level ("download/w0") keep the worker component.
std::string node_of(std::string_view track_name) {
  const auto first = track_name.find('/');
  if (first == std::string_view::npos) return std::string(track_name);
  auto rest = track_name.substr(first + 1);
  const auto second = rest.find('/');
  if (second != std::string_view::npos) rest = rest.substr(0, second);
  return std::string(rest);
}

/// A task span plus its resolved track (worker lane).
struct Task {
  const TraceSpan* span = nullptr;
  const TraceTrack* track = nullptr;

  double duration() const { return span->duration(); }
};

/// Everything the walks need about one process, resolved once.
struct ProcessData {
  const TraceProcess* process = nullptr;
  double start = std::numeric_limits<double>::infinity();
  double end = -std::numeric_limits<double>::infinity();
  std::size_t spans = 0;
  std::size_t instants = 0;
  std::map<std::string, const TraceSpan*> stage_spans;  // stage name -> span
  std::map<std::string, std::vector<Task>> task_groups;  // stage -> tasks
  // Per granule: latest preprocess task carrying that identity.
  std::map<std::string, Task> granule_preprocess;
  std::vector<Task> flow_runs;                       // category "flow" spans
  std::map<std::uint32_t, std::vector<Task>> flow_states;  // by track index
};

void widen(ProcessData& data, double t) {
  data.start = std::min(data.start, t);
  data.end = std::max(data.end, t);
}

/// Stable snapshot of the recorder; ProcessData holds pointers into it.
struct Snapshot {
  std::vector<TraceProcess> processes;
  std::vector<TraceTrack> tracks;
  std::vector<TraceSpan> spans;
  std::vector<TraceInstant> instants;
};

std::vector<ProcessData> collect(const Snapshot& snapshot) {
  const auto& processes = snapshot.processes;
  const auto& tracks = snapshot.tracks;
  const auto& spans = snapshot.spans;
  const auto& instants = snapshot.instants;

  std::map<std::uint32_t, std::size_t> by_pid;
  std::vector<ProcessData> out;
  out.reserve(processes.size());
  for (const auto& process : processes) {
    by_pid[process.pid] = out.size();
    out.push_back({});
    out.back().process = &process;
  }

  for (const auto& span : spans) {
    if (span.track >= tracks.size() || !span.closed()) continue;
    const TraceTrack& track = tracks[span.track];
    const auto it = by_pid.find(track.process);
    if (it == by_pid.end()) continue;
    ProcessData& data = out[it->second];
    widen(data, span.start);
    widen(data, span.end);
    ++data.spans;

    const Task task{&span, &track};
    if (span.category == "stage") {
      const TraceSpan*& slot = data.stage_spans[span.name];
      if (!slot || span.duration() > slot->duration()) slot = &span;
    } else if (span.category == "compute" || span.category == "download" ||
               span.category == "serve") {
      const std::string stage = track_stage(track.name);
      data.task_groups[stage].push_back(task);
      if (span.category == "compute" && stage == "preprocess") {
        const std::string granule = granule_of(span.args);
        if (!granule.empty()) data.granule_preprocess[granule] = task;
      }
    } else if (span.category == "flow") {
      data.flow_runs.push_back(task);
    } else if (span.category == "flow.state") {
      data.flow_states[span.track].push_back(task);
    }
  }
  for (const auto& instant : instants) {
    if (instant.track >= tracks.size()) continue;
    const auto it = by_pid.find(tracks[instant.track].process);
    if (it == by_pid.end()) continue;
    widen(out[it->second], instant.at);
    ++out[it->second].instants;
  }
  for (auto& data : out) {
    for (auto& [stage, tasks] : data.task_groups)
      std::sort(tasks.begin(), tasks.end(), [](const Task& a, const Task& b) {
        return a.span->end < b.span->end;
      });
    for (auto& [track, states] : data.flow_states)
      std::sort(states.begin(), states.end(),
                [](const Task& a, const Task& b) {
                  return a.span->start < b.span->start;
                });
  }
  return out;
}

/// Stage window: the stage span when present, else the hull of the tasks.
std::pair<double, double> stage_window(const ProcessData& data,
                                       const std::string& stage,
                                       const std::vector<Task>& tasks) {
  const auto it = data.stage_spans.find(stage);
  if (it != data.stage_spans.end())
    return {it->second->start, it->second->end};
  double lo = tasks.front().span->start, hi = tasks.front().span->end;
  for (const Task& task : tasks) {
    lo = std::min(lo, task.span->start);
    hi = std::max(hi, task.span->end);
  }
  return {lo, hi};
}

void compute_stage_stats(const ProcessData& data, const AnalyzeOptions& options,
                         ProcessReport& report) {
  for (const auto& [stage, tasks] : data.task_groups) {
    StageStat stat;
    stat.stage = stage;
    std::tie(stat.start, stat.end) = stage_window(data, stage, tasks);
    stat.tasks = tasks.size();
    std::set<std::string> lanes;
    std::vector<double> durations, waits;
    durations.reserve(tasks.size());
    for (const Task& task : tasks) {
      lanes.insert(task.track->name);
      stat.busy_s += task.duration();
      durations.push_back(task.duration());
      waits.push_back(arg_number(task.span->args, "queue_wait_s"));
    }
    stat.workers = lanes.size();
    const double capacity = stat.duration() * static_cast<double>(stat.workers);
    stat.utilization = capacity > 0.0 ? stat.busy_s / capacity : 0.0;
    stat.p50 = util::percentile(durations, 50.0);
    stat.p99 = util::percentile(durations, 99.0);
    stat.max = *std::max_element(durations.begin(), durations.end());
    stat.queue_p50 = util::percentile(waits, 50.0);
    stat.queue_p99 = util::percentile(waits, 99.0);
    stat.queue_max = *std::max_element(waits.begin(), waits.end());
    report.stages.push_back(std::move(stat));

    // Per-node occupancy within the stage window.
    std::map<std::string, NodeStat> nodes;
    for (const Task& task : tasks) {
      NodeStat& node = nodes[node_of(task.track->name)];
      node.stage = stage;
      ++node.tasks;
      node.busy_s += task.duration();
    }
    for (auto& [name, node] : nodes) {
      node.node = name;
      std::set<std::string> node_lanes;
      for (const Task& task : tasks)
        if (node_of(task.track->name) == name)
          node_lanes.insert(task.track->name);
      node.workers = node_lanes.size();
      const auto& stage_stat = report.stages.back();
      const double window =
          stage_stat.duration() * static_cast<double>(node.workers);
      node.utilization = window > 0.0 ? node.busy_s / window : 0.0;
      report.nodes.push_back(node);
    }

    // Binned busy-worker timeline.
    UtilizationTimeline timeline;
    timeline.stage = stage;
    timeline.t0 = report.stages.back().start;
    const double span_s = report.stages.back().duration();
    const auto bins = std::max<std::size_t>(options.utilization_bins, 1);
    timeline.bin_s = span_s > 0.0 ? span_s / static_cast<double>(bins) : 0.0;
    timeline.busy.assign(bins, 0.0);
    if (timeline.bin_s > 0.0) {
      for (const Task& task : tasks) {
        const double lo = std::max(task.span->start, timeline.t0);
        const double hi = std::min(task.span->end, timeline.t0 + span_s);
        if (hi <= lo) continue;
        auto first = static_cast<std::size_t>((lo - timeline.t0) /
                                              timeline.bin_s);
        first = std::min(first, bins - 1);
        auto last =
            static_cast<std::size_t>((hi - timeline.t0) / timeline.bin_s);
        last = std::min(last, bins - 1);
        for (std::size_t b = first; b <= last; ++b) {
          const double bin_lo = timeline.t0 + static_cast<double>(b) *
                                                  timeline.bin_s;
          const double overlap = std::min(hi, bin_lo + timeline.bin_s) -
                                 std::max(lo, bin_lo);
          if (overlap > 0.0) timeline.busy[b] += overlap / timeline.bin_s;
        }
      }
    }
    report.timelines.push_back(std::move(timeline));
  }
  // Stage spans with no task group (e.g. shipment) still get a row.
  for (const auto& [stage, span] : data.stage_spans) {
    if (data.task_groups.count(stage)) continue;
    StageStat stat;
    stat.stage = stage;
    stat.start = span->start;
    stat.end = span->end;
    report.stages.push_back(std::move(stat));
  }
  std::sort(report.stages.begin(), report.stages.end(),
            [](const StageStat& a, const StageStat& b) {
              return a.start < b.start;
            });
}

/// Mean concurrency on `node_tasks` during [lo, hi] (includes the task
/// itself): overlap-time integral / (hi - lo).
double mean_concurrency(const std::vector<const Task*>& node_tasks, double lo,
                        double hi) {
  if (hi - lo <= kEps) return 0.0;
  double overlap = 0.0;
  for (const Task* task : node_tasks) {
    overlap += std::max(
        0.0, std::min(task->span->end, hi) - std::max(task->span->start, lo));
  }
  return overlap / (hi - lo);
}

void detect_stragglers(const ProcessData& data, const AnalyzeOptions& options,
                       ProcessReport& report) {
  for (const auto& [stage, tasks] : data.task_groups) {
    if (tasks.size() < options.min_group) continue;
    std::vector<double> durations, payloads;
    durations.reserve(tasks.size());
    for (const Task& task : tasks) {
      durations.push_back(task.duration());
      payloads.push_back(arg_number(task.span->args, "payload"));
    }
    StragglerGroup group;
    group.group = stage;
    group.count = tasks.size();
    group.median = util::percentile(durations, 50.0);
    const double median_payload = util::percentile(payloads, 50.0);
    if (group.median <= kEps) continue;

    // Node-local task lists for the contention check.
    std::map<std::string, std::vector<const Task*>> by_node;
    std::map<std::string, std::set<std::string>> node_lanes;
    const bool is_download = tasks.front().span->category == "download";
    if (!is_download) {
      for (const Task& task : tasks) {
        by_node[node_of(task.track->name)].push_back(&task);
        node_lanes[node_of(task.track->name)].insert(task.track->name);
      }
    }

    for (const Task& task : tasks) {
      const double duration = task.duration();
      if (duration <= options.straggler_k * group.median) continue;
      ++group.flagged_count;
      Straggler straggler;
      straggler.group = stage;
      straggler.name = task.span->name;
      straggler.track = task.track->name;
      straggler.granule = granule_of(task.span->args);
      straggler.duration = duration;
      straggler.ratio = duration / group.median;
      straggler.queue_wait = arg_number(task.span->args, "queue_wait_s");
      if (is_download) {
        straggler.attribution =
            arg_number(task.span->args, "attempts", 1.0) > 1.0 ? "wan-retry"
                                                                : "wan-slow";
      } else if (straggler.queue_wait >= options.queue_share * duration) {
        straggler.attribution = "queue-wait";
      } else if (median_payload > 0.0 &&
                 arg_number(task.span->args, "payload") >
                     options.payload_factor * median_payload) {
        straggler.attribution = "input-size";
      } else {
        const std::string node = node_of(task.track->name);
        const double concurrency = mean_concurrency(
            by_node[node], task.span->start, task.span->end);
        const auto workers = static_cast<double>(node_lanes[node].size());
        straggler.attribution =
            workers > 0.0 && concurrency >= 0.9 * workers ? "node-contention"
                                                          : "unattributed";
      }
      group.flagged.push_back(std::move(straggler));
    }
    std::sort(group.flagged.begin(), group.flagged.end(),
              [](const Straggler& a, const Straggler& b) {
                return a.duration > b.duration;
              });
    if (group.flagged.size() > options.max_flagged)
      group.flagged.resize(options.max_flagged);
    report.stragglers.push_back(std::move(group));
  }

  // Flow orchestration states, grouped by state name across runs.
  std::map<std::string, std::vector<Task>> states;
  for (const auto& [track, list] : data.flow_states)
    for (const Task& task : list) states[task.span->name].push_back(task);
  for (const auto& [state, tasks] : states) {
    if (tasks.size() < options.min_group) continue;
    std::vector<double> durations;
    durations.reserve(tasks.size());
    for (const Task& task : tasks) durations.push_back(task.duration());
    StragglerGroup group;
    group.group = "flow:" + state;
    group.count = tasks.size();
    group.median = util::percentile(durations, 50.0);
    if (group.median <= kEps) continue;
    for (const Task& task : tasks) {
      const double duration = task.duration();
      if (duration <= options.straggler_k * group.median) continue;
      ++group.flagged_count;
      Straggler straggler;
      straggler.group = group.group;
      straggler.name = task.span->name;
      straggler.track = task.track->name;
      straggler.granule = granule_of(task.span->args);
      straggler.duration = duration;
      straggler.ratio = duration / group.median;
      const double overhead =
          arg_number(task.span->args, "orchestration_overhead_s");
      straggler.attribution = overhead >= 0.5 * duration ? "orchestration"
                                                         : "action-service";
      group.flagged.push_back(std::move(straggler));
    }
    if (group.flagged.empty() && group.flagged_count == 0) continue;
    std::sort(group.flagged.begin(), group.flagged.end(),
              [](const Straggler& a, const Straggler& b) {
                return a.duration > b.duration;
              });
    if (group.flagged.size() > options.max_flagged)
      group.flagged.resize(options.max_flagged);
    report.stragglers.push_back(std::move(group));
  }
}

/// Stage charged for each segment kind when summing on-path time.
std::string path_stage(const std::string& kind) {
  if (kind == "download" || kind == "download-pipeline" || kind == "startup")
    return "download";
  if (kind == "preprocess" || kind == "queue-wait" || kind == "submit-wait")
    return "preprocess";
  if (kind == "shipment") return "shipment";
  return "inference";  // monitor-wait, orchestration, inference, flow.*,
                       // drain-wait
}

CriticalPath compute_critical_path(const ProcessData& data) {
  CriticalPath path;
  path.makespan = data.end - data.start;
  if (path.makespan <= kEps) return path;

  // Backward walk from process end, tiling [start, end]: each step pins the
  // task that released the cursor and charges the gap above it to a named
  // wait. Produces contiguous segments whose durations sum to the makespan.
  std::vector<PathSegment> reversed;
  double cursor = data.end;
  const auto emit = [&](const char* kind, std::string detail,
                        std::string granule, double start, double end) {
    end = std::min(end, cursor);
    start = std::max(start, data.start);
    if (end - start <= kEps) return;
    reversed.push_back(
        {kind, std::move(detail), std::move(granule), start, end});
    cursor = start;
  };
  const auto wait_to = [&](double t, const char* kind, const char* detail) {
    if (cursor - t > kEps) emit(kind, detail, "", t, cursor);
  };

  // 1. Shipment drains the run.
  if (const auto it = data.stage_spans.find("shipment");
      it != data.stage_spans.end() && it->second->end <= cursor + kEps) {
    wait_to(it->second->end, "drain-wait", "run teardown");
    emit("shipment", "results -> analysis facility", "", it->second->start,
         it->second->end);
  }

  // 2. The last inference flow (provenance bridge) or inference task.
  std::string granule;
  if (!data.flow_runs.empty()) {
    const Task* last = nullptr;
    for (const Task& run : data.flow_runs)
      if (run.span->end <= cursor + kEps &&
          (!last || run.span->end > last->span->end))
        last = &run;
    if (last) {
      wait_to(last->span->end, "drain-wait", "flow drain");
      granule = granule_of(last->span->args);
      const auto states = data.flow_states.find(last->span->track);
      if (states != data.flow_states.end()) {
        for (auto it = states->second.rbegin(); it != states->second.rend();
             ++it) {
          wait_to(it->span->end, "orchestration", "flow transition");
          const std::string kind = it->span->name == "infer"
                                       ? "inference"
                                       : "flow." + it->span->name;
          emit(kind.c_str(), it->span->name, granule, it->span->start,
               it->span->end);
        }
      }
      wait_to(last->span->start, "orchestration", "flow launch");
    }
  } else if (const auto it = data.task_groups.find("inference");
             it != data.task_groups.end()) {
    const Task* last = nullptr;
    for (const Task& task : it->second)
      if (task.span->end <= cursor + kEps &&
          (!last || task.span->end > last->span->end))
        last = &task;
    if (last) {
      wait_to(last->span->end, "drain-wait", "inference drain");
      granule = granule_of(last->span->args);
      emit("inference", last->span->name, granule, last->span->start,
           last->span->end);
      const double wait = arg_number(last->span->args, "queue_wait_s");
      if (wait > kEps)
        emit("queue-wait", "inference queue", granule,
             last->span->start - wait, last->span->start);
    }
  }

  // 3. The preprocess task that produced that granule's tile (or, without an
  // identity, the latest preprocess task before the cursor).
  const Task* preprocess = nullptr;
  if (!granule.empty()) {
    const auto it = data.granule_preprocess.find(granule);
    if (it != data.granule_preprocess.end() &&
        it->second.span->end <= cursor + kEps)
      preprocess = &it->second;
  }
  if (!preprocess) {
    const auto it = data.task_groups.find("preprocess");
    if (it != data.task_groups.end()) {
      for (const Task& task : it->second)
        if (task.span->end <= cursor + kEps &&
            (!preprocess || task.span->end > preprocess->span->end))
          preprocess = &task;
    }
  }
  if (preprocess) {
    wait_to(preprocess->span->end, "monitor-wait", "tile -> flow trigger");
    granule = granule_of(preprocess->span->args);
    emit("preprocess", preprocess->span->name, granule,
         preprocess->span->start, preprocess->span->end);
    const double wait = arg_number(preprocess->span->args, "queue_wait_s");
    if (wait > kEps)
      emit("queue-wait", "preprocess queue", granule,
           preprocess->span->start - wait, preprocess->span->start);
  }

  // 4. The download that released the submit boundary. In barrier mode the
  // latest download before the cursor is the stage-closing one; in streaming
  // mode it is (one of) the file(s) completing the triplet just submitted.
  const auto downloads = data.task_groups.find("download");
  if (downloads != data.task_groups.end() && !downloads->second.empty()) {
    const Task* last = nullptr;
    for (const Task& task : downloads->second)
      if (task.span->end <= cursor + kEps &&
          (!last || task.span->end > last->span->end))
        last = &task;
    const auto stage_it = data.stage_spans.find("download");
    const TraceSpan* stage =
        stage_it != data.stage_spans.end() ? stage_it->second : nullptr;
    if (last) {
      const bool barrier =
          stage && std::abs(last->span->end - stage->end) <= 1e-6;
      wait_to(last->span->end, "submit-wait",
              barrier ? "download barrier release" : "dispatch wait");
      emit("download", last->span->name, granule_of(last->span->args),
           last->span->start, last->span->end);
    }
    // Everything earlier is the pipelined download phase: the granule's own
    // history interleaves with every other transfer on the shared WAN, so it
    // is reported as one aggregate segment rather than a fake single chain.
    const double pipeline_start = stage ? stage->start
                                        : downloads->second.front().span->start;
    if (cursor - pipeline_start > kEps) {
      char detail[64];
      std::snprintf(detail, sizeof detail, "%zu files pipelined",
                    downloads->second.size());
      emit("download-pipeline", detail, "", pipeline_start, cursor);
    }
  }
  wait_to(data.start, "startup", "pre-pipeline startup");

  path.segments.assign(reversed.rbegin(), reversed.rend());
  std::map<std::string, double> by_stage;
  for (const auto& segment : path.segments) {
    path.length += segment.duration();
    by_stage[path_stage(segment.kind)] += segment.duration();
  }
  path.coverage = path.length / path.makespan;
  for (const auto& [stage, seconds] : by_stage)
    path.by_stage.emplace_back(stage, seconds);
  std::sort(path.by_stage.begin(), path.by_stage.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (!path.by_stage.empty()) path.dominant_stage = path.by_stage.front().first;
  return path;
}

}  // namespace

TraceReport analyze_trace(const TraceRecorder& recorder,
                          const AnalyzeOptions& options) {
  TraceReport report;
  const Snapshot snapshot{recorder.processes(), recorder.tracks(),
                          recorder.spans(), recorder.instants()};
  for (const ProcessData& data : collect(snapshot)) {
    if (data.spans + data.instants == 0) continue;
    ProcessReport process;
    process.process = data.process->name;
    process.start = data.start;
    process.end = data.end;
    process.spans = data.spans;
    process.instants = data.instants;
    compute_stage_stats(data, options, process);
    detect_stragglers(data, options, process);
    process.critical_path = compute_critical_path(data);
    const TraceSpan* longest = nullptr;
    for (const auto& [stage, span] : data.stage_spans)
      if (!longest || span->duration() > longest->duration()) longest = span;
    if (longest) {
      process.dominant_stage = longest->name;
    } else if (!process.critical_path.dominant_stage.empty()) {
      process.dominant_stage = process.critical_path.dominant_stage;
    }
    report.processes.push_back(std::move(process));
  }
  return report;
}

std::string TraceReport::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.field("schema", "mfw.trace_report/v1");
  w.key("processes").begin_array();
  for (const auto& p : processes) {
    w.item("\n").begin_object();
    w.field("process", p.process);
    w.field("start", p.start);
    w.field("end", p.end);
    w.field("makespan", p.makespan());
    w.field("dominant_stage", p.dominant_stage);
    w.field("spans", p.spans);
    w.field("instants", p.instants);
    w.key("stages", "\n ").begin_array();
    for (const auto& s : p.stages) {
      w.item("\n  ").begin_object();
      w.field("stage", s.stage);
      w.field("start", s.start);
      w.field("end", s.end);
      w.field("duration", s.duration());
      w.field("tasks", s.tasks);
      w.field("workers", s.workers);
      w.field("busy_s", s.busy_s);
      w.field("utilization", s.utilization);
      w.field("p50", s.p50);
      w.field("p99", s.p99);
      w.field("max", s.max);
      w.field("queue_p50", s.queue_p50);
      w.field("queue_p99", s.queue_p99);
      w.field("queue_max", s.queue_max);
      w.end_object();
    }
    w.end_array();
    w.key("nodes", "\n ").begin_array();
    for (const auto& n : p.nodes) {
      w.item("\n  ").begin_object();
      w.field("stage", n.stage);
      w.field("node", n.node);
      w.field("workers", n.workers);
      w.field("tasks", n.tasks);
      w.field("busy_s", n.busy_s);
      w.field("utilization", n.utilization);
      w.end_object();
    }
    w.end_array();
    w.key("timelines", "\n ").begin_array();
    for (const auto& t : p.timelines) {
      w.item("\n  ").begin_object();
      w.field("stage", t.stage);
      w.field("t0", t.t0);
      w.field("bin_s", t.bin_s);
      w.key("busy").begin_array();
      for (const double busy : t.busy) w.inline_item().value(busy);
      w.end_array().end_object();
    }
    w.end_array();
    const auto& cp = p.critical_path;
    w.key("critical_path", "\n ").begin_object();
    w.field("makespan", cp.makespan);
    w.field("length", cp.length);
    w.field("coverage", cp.coverage);
    w.field("dominant_stage", cp.dominant_stage);
    w.key("by_stage").begin_array();
    for (const auto& [stage, seconds] : cp.by_stage) {
      w.inline_item().begin_object();
      w.field("stage", stage);
      w.field("seconds", seconds);
      w.end_object();
    }
    w.end_array();
    w.key("segments", "\n  ").begin_array();
    for (const auto& seg : cp.segments) {
      w.item("\n   ").begin_object();
      w.field("kind", seg.kind);
      w.field("detail", seg.detail);
      w.field("granule", seg.granule);
      w.field("start", seg.start);
      w.field("end", seg.end);
      w.field("duration", seg.duration());
      w.end_object();
    }
    w.end_array().end_object();
    w.key("stragglers", "\n ").begin_array();
    for (const auto& group : p.stragglers) {
      w.item("\n  ").begin_object();
      w.field("group", group.group);
      w.field("count", group.count);
      w.field("median", group.median);
      w.field("flagged_count", group.flagged_count);
      w.key("flagged").begin_array();
      for (const auto& s : group.flagged) {
        w.item("\n   ").begin_object();
        w.field("name", s.name);
        w.field("track", s.track);
        w.field("granule", s.granule);
        w.field("attribution", s.attribution);
        w.field("duration", s.duration);
        w.field("ratio", s.ratio);
        w.field("queue_wait", s.queue_wait);
        w.end_object();
      }
      w.end_array().end_object();
    }
    w.end_array().end_object();
  }
  // The seed writer closed with an unconditional "\n]" even for an empty
  // process list; keep that byte-for-byte.
  w.raw("\n").end_array().end_object();
  return w.take();
}

std::string TraceReport::render_text() const {
  std::ostringstream os;
  char line[512];
  for (const auto& p : processes) {
    std::snprintf(line, sizeof line,
                  "process %s: makespan %.1f s, dominant stage %s (%zu spans, "
                  "%zu instants)\n",
                  p.process.c_str(), p.makespan(), p.dominant_stage.c_str(),
                  p.spans, p.instants);
    os << line;
    os << "  stages:\n";
    for (const auto& s : p.stages) {
      if (s.tasks == 0) {
        std::snprintf(line, sizeof line, "    %-11s [%8.1f, %8.1f]\n",
                      s.stage.c_str(), s.start, s.end);
        os << line;
        continue;
      }
      std::snprintf(line, sizeof line,
                    "    %-11s [%8.1f, %8.1f]  %5zu tasks  %3zu workers  "
                    "util %5.1f%%  p50 %.2fs p99 %.2fs  queue p99 %.2fs\n",
                    s.stage.c_str(), s.start, s.end, s.tasks, s.workers,
                    100.0 * s.utilization, s.p50, s.p99, s.queue_p99);
      os << line;
    }
    const auto& cp = p.critical_path;
    std::snprintf(line, sizeof line,
                  "  critical path: %.1f s over %zu segments (%.1f%% of "
                  "makespan), dominant %s\n",
                  cp.length, cp.segments.size(), 100.0 * cp.coverage,
                  cp.dominant_stage.c_str());
    os << line;
    for (const auto& [stage, seconds] : cp.by_stage) {
      std::snprintf(line, sizeof line, "    %-11s %8.1f s  (%.1f%%)\n",
                    stage.c_str(), seconds,
                    cp.makespan > 0.0 ? 100.0 * seconds / cp.makespan : 0.0);
      os << line;
    }
    for (const auto& group : p.stragglers) {
      if (group.flagged_count == 0) continue;
      std::snprintf(line, sizeof line,
                    "  stragglers in %s: %zu/%zu over %.1fx median %.2fs\n",
                    group.group.c_str(), group.flagged_count, group.count,
                    group.flagged.empty() ? 0.0 : group.flagged.front().ratio,
                    group.median);
      os << line;
      for (const auto& s : group.flagged) {
        std::snprintf(line, sizeof line,
                      "    %-28s %8.2fs  %5.1fx median  %s  [%s]\n",
                      s.name.c_str(), s.duration, s.ratio,
                      s.attribution.c_str(), s.track.c_str());
        os << line;
      }
    }
  }
  return os.str();
}

}  // namespace mfw::obs
