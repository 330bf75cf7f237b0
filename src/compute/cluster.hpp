// Discrete-event task-farm executor over simulated nodes.
//
// This is the Parsl analogue for scaling studies: a FIFO task queue feeding
// workers spread across nodes. Each node has `workers` slots plus one
// SharedResource modelling its contended substrate (see DESIGN.md
// "Calibration note"); a task occupies a worker for an exclusive CPU phase
// followed by a shared-demand phase through the node resource. Node counts
// can change at runtime (the BlockProvider adds/drains nodes), mirroring
// Parsl blocks scaling in and out on Defiant.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include <string>

#include "compute/policy.hpp"
#include "compute/task.hpp"
#include "obs/trace.hpp"
#include "sim/resource.hpp"

namespace mfw::compute {

/// Builds a fresh contention-law instance for each node.
using LawFactory = std::function<std::unique_ptr<sim::ContentionLaw>()>;

/// Defiant calibration (DESIGN.md): R(w) = 38.5 * (1 - exp(-w / 3.1)) in
/// tile-equivalents/second reproduces Table I's single-node column. The one
/// place these numbers live; spec::Facility's defaults refer to them.
inline constexpr double kDefiantRMax = 38.5;
inline constexpr double kDefiantTau = 3.1;

/// The law calibrated to the paper's single-node Defiant saturation curve
/// (aggregate ~10.5 tile/s at 1 worker, saturating near 38.5 tile/s).
LawFactory defiant_law_factory();

/// One simulated compute node: worker slots + shared substrate.
class NodeSim {
 public:
  NodeSim(sim::SimEngine& engine, int id, int workers, const LawFactory& law);

  int id() const { return id_; }
  int workers() const { return workers_; }
  int busy() const { return busy_; }
  int free_workers() const { return workers_ - busy_; }

  /// Marks a worker busy; returns its index. Requires free_workers() > 0.
  int acquire_worker();
  void release_worker(int worker);

  sim::SharedResource& resource() { return *resource_; }

 private:
  sim::SimEngine& engine_;
  int id_;
  int workers_;
  int busy_ = 0;
  std::vector<bool> worker_busy_;
  std::unique_ptr<sim::SharedResource> resource_;
};

class ClusterExecutor {
 public:
  ClusterExecutor(sim::SimEngine& engine, LawFactory law_factory);

  /// Names this executor's obs tracks and metric labels (e.g. "preprocess",
  /// "inference"). Purely observational; defaults to "cluster".
  void set_label(std::string label) { label_ = std::move(label); }
  const std::string& label() const { return label_; }

  /// Installs an admission policy. Null (the default) keeps the built-in
  /// strict-FIFO path untouched — the paper-reproduction runs go through it
  /// so their event order stays bit-for-bit identical to the seed. The
  /// pointer is shared so one policy instance can arbitrate several
  /// executors (cross-facility fairness).
  void set_policy(std::shared_ptr<SchedulerPolicy> policy) {
    policy_ = std::move(policy);
  }
  const std::shared_ptr<SchedulerPolicy>& policy() const { return policy_; }

  /// Re-runs dispatch. External state a holding policy depends on (e.g. WAN
  /// in-flight bytes) changed; see SchedulerPolicy::kHold.
  void poke() { dispatch(); }

  /// Adds a node with `workers` worker slots; returns its node id.
  int add_node(int workers);
  /// Stops dispatching to the node; it is destroyed once idle. Returns false
  /// for unknown ids.
  bool drain_node(int node_id);

  /// Simulates a node crash: the node disappears immediately and its
  /// in-flight tasks are requeued at the *front* of the queue (retried on
  /// surviving nodes). Returns false for unknown ids. If no nodes remain,
  /// requeued tasks wait for the next add_node().
  bool fail_node(int node_id);

  /// Enqueues a task. `callback` (optional) fires on completion. Throws
  /// after seal().
  void submit(SimTaskDesc desc, SimTaskCallback callback = nullptr);

  /// Registers a one-shot callback for the next moment the executor becomes
  /// fully idle (empty queue, no running tasks). Fires immediately (via a
  /// zero-delay event) if already idle.
  void notify_idle(std::function<void()> callback);

  /// Declares the submission stream closed: no further submit() calls are
  /// allowed. Event-driven producers (tasks trickling in per readiness
  /// event) use seal() + notify_all_complete() instead of counting: "idle"
  /// is ambiguous while the stream is open — the farm may merely be starved
  /// between arrivals — but sealed + idle means the workload is done.
  void seal();
  bool sealed() const { return sealed_; }

  /// One-shot callback for the moment the executor is sealed AND fully
  /// idle. Fires via a zero-delay event; fires immediately if already
  /// drained.
  void notify_all_complete(std::function<void()> callback);

  std::size_t queued() const { return queue_.size(); }
  std::size_t running() const { return running_; }
  std::size_t completed() const { return completed_; }
  /// Tasks requeued by fail_node() so far.
  std::size_t requeued() const { return requeued_; }
  double completed_payload() const { return completed_payload_; }
  int active_workers() const;
  int total_workers() const;
  std::size_t node_count() const { return nodes_.size(); }
  /// Busy workers on one node (0 for unknown/removed nodes).
  int node_busy(int node_id) const;

  /// (time, active worker count) transition series for Fig.6-style
  /// timelines.
  const std::vector<std::pair<double, int>>& activity() const {
    return activity_;
  }
  /// Completed task results (in completion order).
  const std::vector<SimTaskResult>& results() const { return results_; }
  /// Drops recorded results/activity (between benchmark repetitions).
  void clear_history();

 private:
  struct PendingTask {
    SimTaskDesc desc;
    double submitted_at;
    SimTaskCallback callback;
  };

  /// A task occupying a worker: enough state to complete it normally or to
  /// cancel + requeue it on node failure.
  struct InFlight {
    PendingTask task;
    int node = -1;
    int worker = -1;
    double started_at = 0.0;
    sim::EventHandle cpu_event{};       // live during the CPU phase
    sim::ResourceJobId resource_job{};  // live during the shared phase
    obs::SpanId span{};                 // open obs span (invalid when off)
  };

  void dispatch();
  void start_on_node(int node_id, PendingTask task);
  void complete(std::uint64_t instance);
  void record_activity();
  /// Publishes the per-node busy-worker gauge for one node (obs).
  void record_node_occupancy(int node_id);
  void check_idle();
  void check_all_complete();

  sim::SimEngine& engine_;
  LawFactory law_factory_;
  std::shared_ptr<SchedulerPolicy> policy_;
  std::string label_ = "cluster";
  std::map<int, std::unique_ptr<NodeSim>> nodes_;
  std::map<int, bool> draining_;
  int next_node_id_ = 0;
  std::deque<PendingTask> queue_;
  std::map<std::uint64_t, InFlight> in_flight_;
  std::uint64_t next_instance_ = 1;
  std::size_t running_ = 0;
  std::size_t completed_ = 0;
  std::size_t requeued_ = 0;
  double completed_payload_ = 0.0;
  bool sealed_ = false;
  std::vector<std::pair<double, int>> activity_;
  std::vector<SimTaskResult> results_;
  std::vector<std::function<void()>> idle_callbacks_;
  std::vector<std::function<void()>> complete_callbacks_;
};

}  // namespace mfw::compute
