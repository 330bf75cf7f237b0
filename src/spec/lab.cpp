#include "spec/lab.hpp"

#include "util/json_writer.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <sstream>
#include <stdexcept>

#include "compute/cluster.hpp"
#include "compute/policy.hpp"
#include "sim/engine.hpp"
#include "sim/link.hpp"

namespace mfw::spec {

namespace {

/// Trapezoid-free busy integral of a (time, active) transition series up to
/// `end` (the series is piecewise constant between transitions).
double busy_integral(const std::vector<std::pair<double, int>>& activity,
                     double end) {
  double total = 0.0;
  for (std::size_t i = 0; i < activity.size(); ++i) {
    const double next = i + 1 < activity.size() ? activity[i + 1].first : end;
    total += activity[i].second * std::max(0.0, next - activity[i].first);
  }
  return total;
}

class Lab {
 public:
  explicit Lab(const LabConfig& config) : config_(config) {}

  LabResult run() {
    const auto& graph = config_.graph;
    const auto& facility = graph.facility();
    const auto& campaign = graph.spec().campaign;
    if (config_.facilities < 1)
      throw std::invalid_argument("lab: facilities must be >= 1");
    const int n_campaigns = std::max(
        1, static_cast<int>(std::ceil(campaign.count * config_.load)));

    // Facility substrate: one executor (the batch partition) + one archive
    // WAN link per facility. Worker width per node is the largest compute
    // claim (already validated against the facility).
    int workers_per_node = 1;
    for (const auto& stage : graph.spec().stages)
      if (stage.kind == "compute")
        workers_per_node = std::max(workers_per_node,
                                    stage.claim.workers_per_node);
    const auto law = facility.contention_law();
    auto policy = std::shared_ptr<compute::SchedulerPolicy>(
        compute::make_policy(config_.policy, [this](const std::string& c) {
          const auto it = wan_in_flight_.find(c);
          return it == wan_in_flight_.end() ? 0.0 : it->second;
        }));
    for (int f = 0; f < config_.facilities; ++f) {
      auto exec = std::make_unique<compute::ClusterExecutor>(engine_, law);
      exec->set_label("facility" + std::to_string(f));
      exec->set_policy(policy);
      for (int n = 0; n < facility.total_nodes; ++n)
        exec->add_node(workers_per_node);
      executors_.push_back(std::move(exec));
      wan_.push_back(std::make_unique<sim::FlowLink>(
          engine_, "wan" + std::to_string(f), facility.wan_bps));
    }

    // Campaign instances, round-robin across facilities.
    for (int c = 0; c < n_campaigns; ++c) {
      auto inst = std::make_unique<Campaign>();
      inst->name = "campaign" + std::to_string(c);
      inst->arrival = c * campaign.arrival_spacing;
      inst->facility = c % config_.facilities;
      inst->deadline_abs = inst->arrival + campaign.deadline;
      inst->remaining =
          static_cast<int>(graph.spec().stages.size()) * campaign.items;
      for (const auto& stage : graph.spec().stages) {
        StageState state;
        state.spec = &stage;
        state.needed_inputs = static_cast<int>(stage.inputs.size());
        state.inputs_satisfied.assign(
            static_cast<std::size_t>(campaign.items), 0);
        state.done.assign(static_cast<std::size_t>(campaign.items), 0);
        inst->stages.emplace(stage.name, std::move(state));
      }
      Campaign* raw = inst.get();
      campaigns_.push_back(std::move(inst));
      engine_.schedule_at(raw->arrival, [this, raw] { arrive(*raw); });
    }

    engine_.run();

    // -- roll up Pareto metrics ---------------------------------------------
    LabResult result;
    result.workflow = graph.spec().name;
    result.policy = config_.policy;
    result.facilities = config_.facilities;
    result.load = config_.load;
    result.campaigns = n_campaigns;
    result.items_per_campaign = campaign.items;
    for (const auto& inst : campaigns_) {
      if (inst->finished_at < 0)
        throw std::logic_error("lab: campaign never completed (spec bug?)");
      result.makespan = std::max(result.makespan, inst->finished_at);
      result.campaign_makespans.push_back(inst->finished_at - inst->arrival);
      if (inst->finished_at > inst->deadline_abs) ++result.deadline_misses;
    }
    std::vector<double> waits;
    double busy = 0.0;
    double capacity = 0.0;
    for (const auto& exec : executors_) {
      for (const auto& r : exec->results()) waits.push_back(r.queue_wait());
      busy += busy_integral(exec->activity(), result.makespan);
      capacity += static_cast<double>(exec->total_workers()) * result.makespan;
    }
    result.tasks = waits.size();
    if (!waits.empty()) {
      double sum = 0.0;
      for (double w : waits) sum += w;
      result.mean_queue_wait = sum / static_cast<double>(waits.size());
      std::sort(waits.begin(), waits.end());
      const auto idx = static_cast<std::size_t>(
          std::min<double>(static_cast<double>(waits.size()) - 1,
                           std::ceil(0.99 * waits.size()) - 1));
      result.p99_queue_wait = waits[idx];
    }
    if (capacity > 0) result.utilization = busy / capacity;

    // Spec-declared deadline SLOs, evaluated the same way a live run would:
    // each campaign outcome lands in the rule's window at its finish time.
    std::vector<obs::SloRule> deadline_rules;
    for (const auto& rule : health_rules(graph.spec())) {
      if (rule.metric == obs::SloMetric::kDeadlineMissRate)
        deadline_rules.push_back(rule);
    }
    result.slo_rules = static_cast<int>(deadline_rules.size());
    if (!deadline_rules.empty()) {
      obs::HealthMonitor monitor({}, deadline_rules);
      for (const auto& inst : campaigns_)
        monitor.note_deadline(inst->finished_at,
                              inst->finished_at > inst->deadline_abs);
      monitor.finish(result.makespan);
      result.slo_alerts = static_cast<int>(monitor.alerts().size());
      result.slo_firing = static_cast<int>(monitor.firing_count());
    }
    return result;
  }

 private:
  struct StageState {
    const StageSpec* spec = nullptr;
    int needed_inputs = 0;
    std::vector<int> inputs_satisfied;  // per item
    std::vector<char> done;             // per item
    int done_count = 0;
    std::deque<int> transfer_queue;     // transfer stages: queued items
    int transfer_active = 0;
  };

  struct Campaign {
    std::string name;
    double arrival = 0.0;
    int facility = 0;
    double deadline_abs = 0.0;
    std::map<std::string, StageState, std::less<>> stages;
    int remaining = 0;
    double finished_at = -1.0;
  };

  void arrive(Campaign& inst) {
    // Source stages (no inputs): every item is ready on arrival.
    for (auto& [name, state] : inst.stages) {
      if (state.needed_inputs != 0) continue;
      const int items = static_cast<int>(state.done.size());
      for (int item = 0; item < items; ++item)
        item_ready(inst, state, item);
    }
  }

  void item_ready(Campaign& inst, StageState& state, int item) {
    if (state.spec->kind == "transfer") {
      state.transfer_queue.push_back(item);
      pump_transfers(inst, state);
      return;
    }
    compute::SimTaskDesc desc;
    desc.cpu_seconds = state.spec->claim.cpu_seconds_per_item;
    desc.shared_demand = state.spec->claim.shared_demand_per_item;
    desc.payload = 1.0;
    desc.label = state.spec->name;
    desc.campaign = inst.name;
    desc.deadline = inst.deadline_abs;
    auto* statep = &state;
    auto* instp = &inst;
    executors_[static_cast<std::size_t>(inst.facility)]->submit(
        std::move(desc), [this, instp, statep, item](
                             const compute::SimTaskResult&) {
          item_done(*instp, *statep, item);
        });
  }

  /// Starts queued transfers up to the stage's claimed stream concurrency.
  void pump_transfers(Campaign& inst, StageState& state) {
    const auto& claim = state.spec->claim;
    const int streams = std::max(1, claim.nodes * claim.workers_per_node);
    auto& link = *wan_[static_cast<std::size_t>(inst.facility)];
    while (state.transfer_active < streams && !state.transfer_queue.empty()) {
      const int item = state.transfer_queue.front();
      state.transfer_queue.pop_front();
      ++state.transfer_active;
      const double bytes = std::max(1.0, claim.bytes_per_item);
      const double cap = claim.wan_bps > 0 ? claim.wan_bps : link.capacity();
      wan_in_flight_[inst.name] += bytes;
      auto* statep = &state;
      auto* instp = &inst;
      link.start_flow(bytes, cap, [this, instp, statep, item, bytes](double) {
        wan_in_flight_[instp->name] -= bytes;
        --statep->transfer_active;
        pump_transfers(*instp, *statep);
        item_done(*instp, *statep, item);
      });
    }
  }

  void item_done(Campaign& inst, StageState& state, int item) {
    state.done[static_cast<std::size_t>(item)] = 1;
    ++state.done_count;
    const int items = static_cast<int>(state.done.size());
    // Propagate readiness along outgoing edges.
    for (const auto& down : config_.graph.downstream(state.spec->name)) {
      auto& dstate = inst.stages.at(down);
      const auto mode = config_.graph.edge_mode(state.spec->name, down);
      if (mode == EdgeMode::kStreaming) {
        satisfy(inst, dstate, item);
      } else if (state.done_count == items) {
        for (int i = 0; i < items; ++i) satisfy(inst, dstate, i);
      }
    }
    if (--inst.remaining == 0) inst.finished_at = engine_.now();
  }

  void satisfy(Campaign& inst, StageState& state, int item) {
    if (++state.inputs_satisfied[static_cast<std::size_t>(item)] ==
        state.needed_inputs)
      item_ready(inst, state, item);
  }

  LabConfig config_;
  sim::SimEngine engine_;
  std::vector<std::unique_ptr<compute::ClusterExecutor>> executors_;
  std::vector<std::unique_ptr<sim::FlowLink>> wan_;
  std::vector<std::unique_ptr<Campaign>> campaigns_;
  std::map<std::string, double, std::less<>> wan_in_flight_;
};

}  // namespace

LabResult run_lab(const LabConfig& config) { return Lab(config).run(); }

std::string results_to_json(const std::vector<LabResult>& results) {
  util::JsonWriter w;
  w.begin_object();
  w.field("schema", "mfw.policies/v1", "\n  ");
  w.field("workflow", results.empty() ? "" : results.front().workflow,
          "\n  ");
  w.key("results", "\n  ").begin_array();
  for (const auto& r : results) {
    w.item("\n    ").begin_object();
    w.field("policy", r.policy);
    w.field("facilities", r.facilities);
    w.field("load", r.load);
    w.field("campaigns", r.campaigns);
    w.field("items", r.items_per_campaign);
    w.field("makespan", r.makespan);
    w.field("utilization", r.utilization);
    w.field("mean_queue_wait", r.mean_queue_wait);
    w.field("p99_queue_wait", r.p99_queue_wait);
    w.field("tasks", r.tasks);
    w.field("deadline_misses", r.deadline_misses);
    w.field("slo_rules", r.slo_rules);
    w.field("slo_alerts", r.slo_alerts);
    w.field("slo_firing", r.slo_firing);
    w.end_object();
  }
  w.end_array("\n  ").raw("\n").end_object().raw("\n");
  return w.take();
}

}  // namespace mfw::spec
