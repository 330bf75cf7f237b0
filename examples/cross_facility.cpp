// Cross-facility campaign: the paper's §V-A vision in action — shareable
// pipeline templates, the three DOE IRI compute facilities, and a broker
// that places day-jobs across them.
#include <cstdio>

#include "pipeline/campaign.hpp"
#include "util/bytes.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

int main() {
  using namespace mfw;
  util::Logger::instance().set_level(util::LogLevel::kWarn);

  // 1. The community pipeline templates (pipeline-as-a-service).
  std::printf("Published pipelines:\n");
  for (const auto& t : pipeline::pipeline_templates())
    std::printf("  %-16.*s %.*s\n", static_cast<int>(t.name.size()),
                t.name.data(), static_cast<int>(t.description.size()),
                t.description.data());

  // 2. The federated facilities.
  const auto& facilities = spec::Facility::builtins();
  std::printf("\nFederated facilities:\n");
  for (const auto& f : facilities)
    std::printf("  %-24s %3d nodes, sched %.1fs, WAN %s\n", f.name.c_str(),
                f.total_nodes, f.scheduler_latency,
                util::format_rate(f.wan_bps).c_str());

  // 3. A week-long campaign: one day-job per day, brokered least-loaded.
  std::vector<pipeline::CampaignJob> jobs;
  for (int day = 1; day <= 7; ++day) {
    jobs.push_back(pipeline::CampaignJob{
        "aicca-daily", "workflow: {max_files: 8, span: {first_day: " +
                           std::to_string(day) + "}}\npreprocess: {nodes: 4}\n"});
  }
  const auto report = pipeline::run_campaign(
      jobs, facilities, pipeline::PlacementPolicy::kLeastLoaded);

  util::Table table({"day", "facility", "granules", "tiles", "job makespan",
                     "queue finish"});
  for (const auto& job : report.jobs)
    table.add_row({std::to_string(job.day), job.facility,
                   std::to_string(job.granules), std::to_string(job.tiles),
                   util::format_seconds(job.makespan),
                   util::format_seconds(job.finished_at)});
  std::printf("\n%s\n", table.render().c_str());
  std::printf("Facility queues:\n");
  for (const auto& [name, busy] : report.facility_busy_time)
    std::printf("  %-24s busy %s\n", name.c_str(),
                util::format_seconds(busy).c_str());
  std::printf("\nCampaign: %zu files, %zu tiles, makespan %s across %zu "
              "facilities\n",
              report.total_files, report.total_tiles,
              util::format_seconds(report.campaign_makespan).c_str(),
              facilities.size());
  return 0;
}
