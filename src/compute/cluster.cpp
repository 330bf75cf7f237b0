#include "compute/cluster.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace mfw::compute {

namespace {
constexpr const char* kComponent = "cluster";
}  // namespace

LawFactory defiant_law_factory() {
  return [] {
    return std::make_unique<sim::SaturatingExpLaw>(kDefiantRMax, kDefiantTau);
  };
}

NodeSim::NodeSim(sim::SimEngine& engine, int id, int workers,
                 const LawFactory& law)
    : engine_(engine), id_(id), workers_(workers),
      worker_busy_(static_cast<std::size_t>(workers), false),
      resource_(std::make_unique<sim::SharedResource>(engine, law())) {
  if (workers <= 0) throw std::invalid_argument("NodeSim needs >= 1 worker");
}

int NodeSim::acquire_worker() {
  for (std::size_t w = 0; w < worker_busy_.size(); ++w) {
    if (!worker_busy_[w]) {
      worker_busy_[w] = true;
      ++busy_;
      return static_cast<int>(w);
    }
  }
  throw std::logic_error("NodeSim::acquire_worker with no free worker");
}

void NodeSim::release_worker(int worker) {
  auto slot = worker_busy_.at(static_cast<std::size_t>(worker));
  if (!slot) throw std::logic_error("NodeSim::release_worker on idle worker");
  worker_busy_[static_cast<std::size_t>(worker)] = false;
  --busy_;
}

ClusterExecutor::ClusterExecutor(sim::SimEngine& engine, LawFactory law_factory)
    : engine_(engine), law_factory_(std::move(law_factory)) {
  if (!law_factory_) throw std::invalid_argument("ClusterExecutor needs a law");
}

int ClusterExecutor::add_node(int workers) {
  const int id = next_node_id_++;
  nodes_.emplace(id, std::make_unique<NodeSim>(engine_, id, workers, law_factory_));
  draining_[id] = false;
  MFW_DEBUG(kComponent, "added node ", id, " with ", workers, " workers");
  dispatch();
  return id;
}

bool ClusterExecutor::drain_node(int node_id) {
  const auto it = nodes_.find(node_id);
  if (it == nodes_.end()) return false;
  draining_[node_id] = true;
  if (it->second->busy() == 0) {
    nodes_.erase(it);
    draining_.erase(node_id);
    MFW_DEBUG(kComponent, "removed idle node ", node_id);
  }
  return true;
}

void ClusterExecutor::submit(SimTaskDesc desc, SimTaskCallback callback) {
  if (sealed_)
    throw std::logic_error("ClusterExecutor::submit after seal()");
  queue_.push_back(PendingTask{std::move(desc), engine_.now(), std::move(callback)});
  dispatch();
}

void ClusterExecutor::notify_idle(std::function<void()> callback) {
  idle_callbacks_.push_back(std::move(callback));
  check_idle();
}

void ClusterExecutor::seal() {
  if (sealed_) return;
  sealed_ = true;
  MFW_DEBUG(kComponent, "submission stream sealed at ", completed_,
            " completed, ", queue_.size() + running_, " outstanding");
  check_all_complete();
}

void ClusterExecutor::notify_all_complete(std::function<void()> callback) {
  complete_callbacks_.push_back(std::move(callback));
  check_all_complete();
}

int ClusterExecutor::active_workers() const {
  int n = 0;
  for (const auto& [id, node] : nodes_) n += node->busy();
  return n;
}

int ClusterExecutor::total_workers() const {
  int n = 0;
  for (const auto& [id, node] : nodes_) n += node->workers();
  return n;
}

int ClusterExecutor::node_busy(int node_id) const {
  const auto it = nodes_.find(node_id);
  return it == nodes_.end() ? 0 : it->second->busy();
}

void ClusterExecutor::clear_history() {
  activity_.clear();
  results_.clear();
}

void ClusterExecutor::dispatch() {
  while (!queue_.empty()) {
    // Least-loaded placement: spread tasks across nodes, as the Parsl
    // interchange does.
    NodeSim* best = nullptr;
    for (auto& [id, node] : nodes_) {
      if (draining_.at(id) || node->free_workers() == 0) continue;
      if (!best || node->busy() < best->busy() ||
          (node->busy() == best->busy() &&
           node->free_workers() > best->free_workers())) {
        best = node.get();
      }
    }
    if (!best) return;
    // Admission order: FIFO when no policy is installed (the seed-identical
    // fast path), otherwise the policy picks any queued task or holds.
    std::size_t pick = 0;
    if (policy_) {
      std::vector<TaskView> views;
      views.reserve(queue_.size());
      for (const auto& pending : queue_)
        views.push_back({&pending.desc, pending.submitted_at});
      pick = policy_->select(views, engine_.now());
      if (pick == SchedulerPolicy::kHold) return;
      if (pick >= queue_.size())
        throw std::logic_error("SchedulerPolicy::select returned bad index");
    }
    PendingTask task = std::move(queue_[pick]);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
    ++running_;
    start_on_node(best->id(), std::move(task));
  }
}

void ClusterExecutor::start_on_node(int node_id, PendingTask task) {
  NodeSim& node = *nodes_.at(node_id);
  const int worker = node.acquire_worker();
  if (policy_) policy_->on_start(task.desc, engine_.now());
  record_activity();

  const std::uint64_t instance = next_instance_++;
  InFlight inflight;
  inflight.task = std::move(task);
  inflight.node = node_id;
  inflight.worker = worker;
  inflight.started_at = engine_.now();
  if (auto& rec = obs::TraceRecorder::instance(); rec.enabled()) {
    const double queue_wait = inflight.started_at - inflight.task.submitted_at;
    obs::Args span_args = {{"queue_wait_s", std::to_string(queue_wait)}};
    for (const auto& extra : inflight.task.desc.trace_args)
      span_args.push_back(extra);
    inflight.span = rec.begin_span(
        label_ + "/node" + std::to_string(node_id) + "/w" +
            std::to_string(worker),
        "compute",
        inflight.task.desc.label.empty() ? "task" : inflight.task.desc.label,
        std::move(span_args));
    obs::MetricsRegistry::instance().observe(
        "mfw.compute.queue_wait_seconds", queue_wait, {{"stage", label_}},
        obs::HistogramSpec{0.0, 60.0, 24});
    record_node_occupancy(node_id);
  }
  auto [it, inserted] = in_flight_.emplace(instance, std::move(inflight));
  InFlight& state = it->second;

  // CPU phase, then shared phase, then completion. Both continuations guard
  // on the instance still being in flight (fail_node may have requeued it).
  auto shared_phase = [this, instance] {
    const auto fit = in_flight_.find(instance);
    if (fit == in_flight_.end()) return;
    InFlight& st = fit->second;
    st.cpu_event = sim::EventHandle{};
    if (st.task.desc.shared_demand > 0) {
      st.resource_job = nodes_.at(st.node)->resource().submit(
          st.task.desc.shared_demand, [this, instance] { complete(instance); });
    } else {
      complete(instance);
    }
  };
  if (state.task.desc.cpu_seconds > 0) {
    state.cpu_event =
        engine_.schedule_after(state.task.desc.cpu_seconds, shared_phase);
  } else {
    shared_phase();
  }
}

void ClusterExecutor::complete(std::uint64_t instance) {
  auto node_handle = in_flight_.extract(instance);
  if (node_handle.empty()) return;
  InFlight state = std::move(node_handle.mapped());

  SimTaskResult result;
  result.submitted_at = state.task.submitted_at;
  result.started_at = state.started_at;
  result.finished_at = engine_.now();
  result.node = state.node;
  result.worker = state.worker;
  result.payload = state.task.desc.payload;
  result.label = state.task.desc.label;
  result.campaign = state.task.desc.campaign;

  if (policy_) policy_->on_complete(state.task.desc, engine_.now());
  auto& node = nodes_.at(state.node);
  node->release_worker(state.worker);
  --running_;
  ++completed_;
  completed_payload_ += state.task.desc.payload;
  record_activity();
  results_.push_back(result);
  if (state.span.valid()) {
    obs::Args close_args = {
        {"status", "ok"},
        {"payload", std::to_string(state.task.desc.payload)}};
    // Deadline-aware campaigns can see per-task misses in the trace (and in
    // anything watching it, e.g. the health layer) without touching results.
    if (state.task.desc.deadline !=
        std::numeric_limits<double>::infinity()) {
      close_args.emplace_back(
          "deadline",
          engine_.now() > state.task.desc.deadline ? "missed" : "met");
    }
    obs::TraceRecorder::instance().end_span(state.span,
                                            std::move(close_args));
    obs::MetricsRegistry::instance().observe(
        "mfw.compute.run_seconds", result.service_time(), {{"stage", label_}},
        obs::HistogramSpec{0.0, 30.0, 30});
    obs::MetricsRegistry::instance().counter_add("mfw.compute.tasks_total",
                                                 1.0, {{"stage", label_}});
    record_node_occupancy(state.node);
  }

  if (draining_.at(state.node) && node->busy() == 0) {
    nodes_.erase(state.node);
    draining_.erase(state.node);
    MFW_DEBUG(kComponent, "removed drained node ", state.node);
  }
  if (state.task.callback) state.task.callback(result);
  dispatch();
  check_idle();
  check_all_complete();
}

bool ClusterExecutor::fail_node(int node_id) {
  const auto it = nodes_.find(node_id);
  if (it == nodes_.end()) return false;
  // Cancel and requeue every in-flight task on the node. Push to the front:
  // these tasks were admitted first and should not lose their place.
  std::size_t rescued = 0;
  for (auto fit = in_flight_.begin(); fit != in_flight_.end();) {
    if (fit->second.node != node_id) {
      ++fit;
      continue;
    }
    InFlight& st = fit->second;
    engine_.cancel(st.cpu_event);
    it->second->resource().cancel(st.resource_job);
    if (policy_) policy_->on_evict(st.task.desc, engine_.now());
    obs::TraceRecorder::instance().end_span(st.span,
                                            {{"status", "requeued"}});
    queue_.push_front(std::move(st.task));
    ++requeued_;
    ++rescued;
    --running_;
    fit = in_flight_.erase(fit);
  }
  nodes_.erase(it);
  draining_.erase(node_id);
  record_activity();
  MFW_WARN(kComponent, "node ", node_id, " failed; requeued ", rescued,
           " tasks on ", nodes_.size(), " surviving nodes");
  dispatch();
  check_idle();
  check_all_complete();
  return true;
}

void ClusterExecutor::record_activity() {
  activity_.emplace_back(engine_.now(), active_workers());
  if (auto& metrics = obs::MetricsRegistry::instance(); metrics.enabled()) {
    metrics.gauge_set("mfw.compute.busy_workers",
                      static_cast<double>(active_workers()),
                      {{"stage", label_}});
  }
}

void ClusterExecutor::record_node_occupancy(int node_id) {
  auto& metrics = obs::MetricsRegistry::instance();
  if (!metrics.enabled()) return;
  metrics.gauge_set(
      "mfw.compute.node_busy_workers", static_cast<double>(node_busy(node_id)),
      {{"stage", label_}, {"node", std::to_string(node_id)}});
}

void ClusterExecutor::check_idle() {
  if (!queue_.empty() || running_ != 0 || idle_callbacks_.empty()) return;
  auto callbacks = std::move(idle_callbacks_);
  idle_callbacks_.clear();
  for (auto& cb : callbacks) {
    engine_.schedule_after(0.0, std::move(cb));
  }
}

void ClusterExecutor::check_all_complete() {
  if (!sealed_ || !queue_.empty() || running_ != 0 ||
      complete_callbacks_.empty()) {
    return;
  }
  auto callbacks = std::move(complete_callbacks_);
  complete_callbacks_.clear();
  for (auto& cb : callbacks) {
    engine_.schedule_after(0.0, std::move(cb));
  }
}

}  // namespace mfw::compute
