// Cross-facility campaigns (paper §V-A).
//
// Pipeline templates are the "federated pipeline-as-a-service": "a
// shareable and publicly accessible repository of complete workflows or
// individual workflow steps, which can be customized with various
// components". A template is a named, documented EomlConfig YAML document; a
// scientist instantiates one by name, deep-merging (util::merge_yaml) only
// what differs, and receives a validated EomlConfig.
//
// run_campaign is the broker ("remote configuration, invocation, and
// monitoring of workflow components" across facilities): each independent
// day-job (one EO-ML workflow) is placed on one spec::Facility by a
// placement policy, run there, and aggregated into a campaign report. A
// facility processes its jobs one after another (its partition is busy while
// a job runs) while different facilities run in parallel, so the campaign
// makespan is the slowest facility's queue — the quantity a broker
// minimizes.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pipeline/config.hpp"
#include "spec/spec.hpp"

namespace mfw::pipeline {

struct PipelineTemplate {
  std::string_view name;
  std::string_view description;
  std::string_view yaml;
};

/// The built-in community templates (aicca-daily, aicca-elastic,
/// aicca-scaling), sorted by name.
std::span<const PipelineTemplate> pipeline_templates();

/// Instantiates the template `name`, deep-merging `overrides_yaml` (may be
/// empty) onto it. Throws std::invalid_argument for unknown names and the
/// config's own errors for invalid merged configurations.
EomlConfig instantiate(std::string_view name,
                       std::string_view overrides_yaml = {});

enum class PlacementPolicy {
  kRoundRobin,
  /// Each job goes to the facility with the least accumulated busy time.
  kLeastLoaded,
};

struct CampaignJob {
  std::string pipeline;        // template name
  std::string overrides_yaml;  // per-job overrides (day span etc.)
};

struct JobOutcome {
  std::string facility;
  int day = 0;
  double started_at = 0.0;   // campaign-relative virtual time
  double finished_at = 0.0;
  std::size_t granules = 0;
  std::size_t tiles = 0;
  std::size_t shipped_files = 0;
  double makespan = 0.0;     // the job's own workflow makespan
};

struct CampaignReport {
  std::vector<JobOutcome> jobs;
  double campaign_makespan = 0.0;  // slowest facility queue
  std::size_t total_tiles = 0;
  std::size_t total_files = 0;

  /// Busy time accumulated per facility, in facility order.
  std::vector<std::pair<std::string, double>> facility_busy_time;
};

/// Runs every job on the facility `policy` picks; `on_job` (optional)
/// observes each outcome as it lands. Throws std::invalid_argument when
/// `facilities` is empty.
CampaignReport run_campaign(
    const std::vector<CampaignJob>& jobs,
    const std::vector<spec::Facility>& facilities,
    PlacementPolicy policy = PlacementPolicy::kLeastLoaded,
    const std::function<void(const JobOutcome&)>& on_job = nullptr);

}  // namespace mfw::pipeline
