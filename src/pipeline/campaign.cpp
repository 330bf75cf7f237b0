#include "pipeline/campaign.hpp"

#include <algorithm>
#include <stdexcept>

#include "pipeline/eoml_workflow.hpp"
#include "util/log.hpp"

namespace mfw::pipeline {

namespace {

constexpr const char* kComponent = "campaign";

constexpr PipelineTemplate kTemplates[] = {
    {"aicca-daily",
     "One day of Terra ocean-cloud tiles, labelled and shipped to Orion "
     "(the paper's production configuration).",
     R"(
workflow:
  satellite: Terra
  products: [MOD02, MOD03, MOD06]
  span: {year: 2022, first_day: 1}
  daytime_only: true
download:   {workers: 3}
preprocess: {nodes: 10, workers_per_node: 8, tile_size: 128, min_cloud_fraction: 0.3}
monitor:    {poll_interval: 1.0}
inference:  {workers: 1}
shipment:   {streams: 4}
)"},
    {"aicca-elastic",
     "Elastic-block variant: Parsl-style blocks scale with queue depth "
     "(the dynamic allocation of Fig. 6).",
     R"(
workflow:
  satellite: Terra
  products: [MOD02, MOD03, MOD06]
  span: {year: 2022, first_day: 1}
  max_files: 40
  daytime_only: true
preprocess:
  elastic: true
  block: {nodes_per_block: 1, init_blocks: 1, max_blocks: 8, idle_timeout: 10}
  workers_per_node: 8
)"},
    {"aicca-scaling",
     "The benchmarking configuration of §IV: capped file count, MOD02 only "
     "download accounting, static allocation.",
     R"(
workflow:
  satellite: Terra
  products: [MOD02, MOD03, MOD06]
  span: {year: 2022, first_day: 1}
  max_files: 80
  daytime_only: true
download:   {workers: 3}
preprocess: {nodes: 10, workers_per_node: 8}
inference:  {workers: 1}
)"},
};

}  // namespace

std::span<const PipelineTemplate> pipeline_templates() { return kTemplates; }

EomlConfig instantiate(std::string_view name,
                       std::string_view overrides_yaml) {
  const auto it = std::find_if(
      std::begin(kTemplates), std::end(kTemplates),
      [name](const PipelineTemplate& t) { return t.name == name; });
  if (it == std::end(kTemplates))
    throw std::invalid_argument("no pipeline named '" + std::string(name) +
                                "'");
  util::YamlNode merged = util::parse_yaml(it->yaml);
  if (!overrides_yaml.empty())
    merged = util::merge_yaml(merged, util::parse_yaml(overrides_yaml));
  return EomlConfig::from_yaml(merged);
}

CampaignReport run_campaign(
    const std::vector<CampaignJob>& jobs,
    const std::vector<spec::Facility>& facilities, PlacementPolicy policy,
    const std::function<void(const JobOutcome&)>& on_job) {
  if (facilities.empty())
    throw std::invalid_argument("campaign needs >= 1 facility");
  CampaignReport report;
  std::vector<double> busy(facilities.size(), 0.0);

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::size_t f =
        policy == PlacementPolicy::kRoundRobin
            ? j % facilities.size()
            : static_cast<std::size_t>(
                  std::min_element(busy.begin(), busy.end()) - busy.begin());

    EomlConfig config = instantiate(jobs[j].pipeline, jobs[j].overrides_yaml);
    config.place_on(facilities[f]);
    EomlWorkflow workflow(config);
    const auto wf_report = workflow.run();

    JobOutcome outcome;
    outcome.facility = facilities[f].name;
    outcome.day = config.span.first_day;
    outcome.started_at = busy[f];
    outcome.finished_at = busy[f] + wf_report.makespan;
    outcome.granules = wf_report.granules;
    outcome.tiles = wf_report.total_tiles;
    outcome.shipped_files = wf_report.shipped_files;
    outcome.makespan = wf_report.makespan;
    busy[f] = outcome.finished_at;

    report.total_tiles += outcome.tiles;
    report.total_files += outcome.shipped_files;
    MFW_INFO(kComponent, "job ", j, " (day ", outcome.day, ") on ",
             outcome.facility, ": ", outcome.tiles, " tiles in ",
             outcome.makespan, "s");
    if (on_job) on_job(outcome);
    report.jobs.push_back(std::move(outcome));
  }

  for (std::size_t f = 0; f < facilities.size(); ++f) {
    report.facility_busy_time.emplace_back(facilities[f].name, busy[f]);
    report.campaign_makespan = std::max(report.campaign_makespan, busy[f]);
  }
  return report;
}

}  // namespace mfw::pipeline
