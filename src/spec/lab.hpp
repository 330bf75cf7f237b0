// The policy-sweep laboratory: runs N concurrent campaign instances of a
// compiled WorkflowSpec (spec::StageGraph) on the discrete-event substrate —
// one ClusterExecutor + archive WAN FlowLink per facility, a SchedulerPolicy
// arbitrating task admission across campaigns — and reports the Pareto
// metrics (makespan, utilization, p99 queue wait, deadline misses) that
// bench/policy_sweep.cpp sweeps over policy x facility-count x load.
//
// Semantics of a run: campaign instance c arrives at c * arrival_spacing and
// is pinned to facility c % facilities. Each instance pushes `items` work
// units through the stage DAG; a stage item becomes ready when every input
// edge is satisfied — per-item for streaming edges, whole-stage for barrier
// edges. Transfer stages move bytes_per_item over the facility's WAN link
// (concurrency capped at the stage claim); compute stages become tasks on
// the facility executor, where the installed policy picks admission order.
// One policy instance is shared by all facilities, so fair-share accounting
// is global — exactly what cross-facility fairness means.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "spec/spec.hpp"

namespace mfw::spec {

struct LabConfig {
  StageGraph graph;
  /// Admission policy name (compute::make_policy): fifo, fair_share,
  /// deadline, wan_aware.
  std::string policy = "fifo";
  /// Copies of the graph's facility (each its own partition, contention law
  /// and WAN link); campaigns round-robin across them.
  int facilities = 1;
  /// Load multiplier on the spec's campaign count (rounded up, >= 1).
  double load = 1.0;
};

struct LabResult {
  std::string workflow;
  std::string policy;
  int facilities = 1;
  double load = 1.0;
  int campaigns = 0;
  int items_per_campaign = 0;
  /// Last completion time across all campaigns (seconds).
  double makespan = 0.0;
  /// Busy-worker integral / (makespan x total workers), in [0, 1].
  double utilization = 0.0;
  double mean_queue_wait = 0.0;
  double p99_queue_wait = 0.0;
  std::size_t tasks = 0;
  /// Campaigns whose completion exceeded their arrival-relative deadline.
  int deadline_misses = 0;
  /// Per-campaign arrival-to-done durations, in campaign order.
  std::vector<double> campaign_makespans;

  // -- spec-declared SLOs (DESIGN.md §12) -------------------------------------
  /// Deadline-class SLO rules from the spec's `slo:` section evaluated for
  /// this point (stage-level latency rules need a traced run and are the
  /// watch layer's job; the lab feeds campaign outcomes only).
  int slo_rules = 0;
  /// Alert transitions (firing + resolved) those rules produced.
  int slo_alerts = 0;
  /// Rules still firing when the point finished.
  int slo_firing = 0;
};

/// Runs one laboratory configuration to completion. Deterministic: same
/// config -> same result.
LabResult run_lab(const LabConfig& config);

/// Serializes sweep results as the "mfw.policies/v1" JSON document consumed
/// by the ctest gate gate_policy_sweep and EXPERIMENTS.md (one record per
/// policy x facility-count x load point).
std::string results_to_json(const std::vector<LabResult>& results);

}  // namespace mfw::spec
