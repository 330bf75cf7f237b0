// Tests for pipeline configuration parsing, the timeline recorder, the
// pipeline templates and the cross-facility campaign broker.
#include <gtest/gtest.h>

#include <set>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "obs/watch.hpp"
#include "pipeline/campaign.hpp"
#include "pipeline/config.hpp"
#include "pipeline/eoml_workflow.hpp"
#include "pipeline/spec_compile.hpp"
#include "pipeline/timeline.hpp"
#include "util/log.hpp"

namespace mfw::pipeline {
namespace {

TEST(Config, UnknownTopLevelKeyNamesKeyAndNearest) {
  // A misspelled section must be rejected up front, naming both the stray
  // key and the closest valid section, so typos don't silently fall back
  // to defaults.
  try {
    EomlConfig::from_yaml_text("workflw:\n  max_files: 4\n");
    FAIL() << "expected YamlError";
  } catch (const util::YamlError& e) {
    EXPECT_STREQ(e.what(),
                 "config: unknown top-level key 'workflw' "
                 "(did you mean 'workflow'?)");
  }
  try {
    EomlConfig::from_yaml_text("inferrence:\n  workers: 2\n");
    FAIL() << "expected YamlError";
  } catch (const util::YamlError& e) {
    EXPECT_STREQ(e.what(),
                 "config: unknown top-level key 'inferrence' "
                 "(did you mean 'inference'?)");
  }
}

TEST(SpecCompile, BuiltinSpecMirrorsConfig) {
  // The paper pipeline is itself a compiled spec: five stages in pipeline
  // order, with the download->preprocess coupling following the config's
  // scheduling mode and the rest fixed by the paper's architecture.
  EomlConfig config;
  const auto graph = compile_config(config);
  const auto& topo = graph.topo_order();
  ASSERT_EQ(topo.size(), 5u);
  EXPECT_EQ(topo.front(), "download");
  EXPECT_EQ(topo.back(), "shipment");
  EXPECT_EQ(graph.edge_mode("download", "preprocess"),
            spec::EdgeMode::kBarrier);
  EXPECT_EQ(graph.edge_mode("preprocess", "monitor"),
            spec::EdgeMode::kStreaming);
  config.max_files = 12;
  EXPECT_EQ(compile_config(config).spec().campaign.items, 12);

  config.scheduling = SchedulingMode::kStreaming;
  EXPECT_EQ(compile_config(config).edge_mode("download", "preprocess"),
            spec::EdgeMode::kStreaming);
}

TEST(SpecCompile, ClaimsRespectTheFacility) {
  // compile_config validates the paper claims against the config's own
  // facility, so an oversubscribed config fails at compile, not mid-run.
  EomlConfig config;
  config.preprocess_nodes = config.facility.total_nodes + 1;
  EXPECT_THROW(compile_config(config), spec::SpecError);
}

TEST(Config, DefaultsAreValid) {
  EomlConfig config;
  EXPECT_NO_THROW(config.validate());
  EXPECT_EQ(config.download_workers, 3);
  EXPECT_EQ(config.products.size(), 3u);
}

TEST(Config, ParsesFullYaml) {
  const auto config = EomlConfig::from_yaml_text(R"(
workflow:
  satellite: Terra
  products: [MOD02, MOD03, MOD06]
  span:
    year: 2022
    first_day: 1
    last_day: 2
  max_files: 80
  daytime_only: true
  seed: 99
download:
  workers: 6
  wan_capacity: 200MB
  connection_speed: 10MB
preprocess:
  nodes: 10
  workers_per_node: 8
  tile_size: 128
  channels: 6
  min_cloud_fraction: 0.3
  slurm_latency: 2.0
monitor:
  poll_interval: 0.5
  action_overhead: 0.05
inference:
  workers: 1
shipment:
  streams: 8
  link_capacity: 2GB
content:
  materialize: false
)");
  EXPECT_EQ(config.satellite, modis::Satellite::kTerra);
  EXPECT_EQ(config.span.last_day, 2);
  ASSERT_TRUE(config.max_files.has_value());
  EXPECT_EQ(*config.max_files, 80u);
  EXPECT_EQ(config.download_workers, 6);
  EXPECT_DOUBLE_EQ(config.facility.wan_bps, 200.0 * 1024 * 1024);
  EXPECT_EQ(config.preprocess_nodes, 10);
  EXPECT_EQ(config.workers_per_node, 8);
  EXPECT_DOUBLE_EQ(config.facility.scheduler_latency, 2.0);
  EXPECT_DOUBLE_EQ(config.poll_interval, 0.5);
  EXPECT_EQ(config.shipment_streams, 8);
  EXPECT_DOUBLE_EQ(config.facility.link_bps, 2.0 * 1024 * 1024 * 1024);
  EXPECT_EQ(config.seed, 99u);
}

TEST(Config, ElasticBlockParsing) {
  const auto config = EomlConfig::from_yaml_text(R"(
preprocess:
  elastic: true
  block:
    nodes_per_block: 2
    init_blocks: 1
    max_blocks: 5
    idle_timeout: 10
)");
  EXPECT_TRUE(config.elastic);
  EXPECT_EQ(config.block.nodes_per_block, 2);
  EXPECT_EQ(config.block.max_blocks, 5);
  EXPECT_DOUBLE_EQ(config.block.idle_timeout, 10.0);
}

TEST(Config, RejectsInvalidValues) {
  EomlConfig config;
  config.download_workers = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = EomlConfig{};
  config.span.last_day = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = EomlConfig{};
  config.products.clear();
  EXPECT_THROW(config.validate(), std::invalid_argument);
  EXPECT_THROW(EomlConfig::from_yaml_text("workflow:\n  satellite: Hubble\n"),
               util::YamlError);
  EXPECT_THROW(EomlConfig::from_yaml_text("workflow:\n  products: [SENTINEL]\n"),
               util::YamlError);
}

TEST(Config, SchedulingModeParsing) {
  // Barrier is the paper-faithful reproduction default.
  EXPECT_EQ(EomlConfig{}.scheduling, SchedulingMode::kBarrier);
  auto config =
      EomlConfig::from_yaml_text("workflow:\n  scheduling: streaming\n");
  EXPECT_EQ(config.scheduling, SchedulingMode::kStreaming);
  config = EomlConfig::from_yaml_text("workflow:\n  scheduling: barrier\n");
  EXPECT_EQ(config.scheduling, SchedulingMode::kBarrier);
  EXPECT_THROW(EomlConfig::from_yaml_text("workflow:\n  scheduling: eager\n"),
               util::YamlError);
  EXPECT_STREQ(to_string(SchedulingMode::kBarrier), "barrier");
  EXPECT_STREQ(to_string(SchedulingMode::kStreaming), "streaming");
}

TEST(Config, StreamingRequiresWholeTripletProducts) {
  EomlConfig config;
  config.scheduling = SchedulingMode::kStreaming;
  EXPECT_NO_THROW(config.validate());
  // granule.ready is defined over whole MOD02/03/06 triplets; a stream
  // missing a product would never trigger.
  config.products = {modis::ProductKind::kMod02, modis::ProductKind::kMod03};
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.scheduling = SchedulingMode::kBarrier;
  EXPECT_NO_THROW(config.validate());
}

TEST(Config, MaterializeGeometryValidation) {
  EomlConfig config;
  config.materialize = true;
  config.geometry = modis::GranuleGeometry{64, 64, 6};
  config.tiler.tile_size = 128;  // larger than the content grid
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.tiler.tile_size = 32;
  EXPECT_NO_THROW(config.validate());
}

TEST(Timeline, StepFunctionSemantics) {
  StageTimeline stage;
  stage.stage = "download";
  stage.transitions = {{0.0, 1}, {2.0, 3}, {5.0, 0}};
  EXPECT_EQ(stage.at(-1.0), 0);
  EXPECT_EQ(stage.at(0.0), 1);
  EXPECT_EQ(stage.at(1.9), 1);
  EXPECT_EQ(stage.at(2.0), 3);
  EXPECT_EQ(stage.at(10.0), 0);
  EXPECT_EQ(stage.peak(), 3);
}

TEST(Timeline, RenderWindowZoomsIn) {
  TimelineRecorder recorder;
  recorder.add_stage("download", {{0.0, 3}, {100.0, 0}});
  recorder.add_stage("preprocess", {{100.0, 32}, {130.0, 0}});
  // Full render spans 0..130; the window render spans 95..130 only.
  const auto zoomed = recorder.render_window(95.0, 130.0, 40, 50, 8);
  EXPECT_NE(zoomed.find("95"), std::string::npos);
  EXPECT_NE(zoomed.find("130"), std::string::npos);
  // Degenerate window does not crash.
  EXPECT_FALSE(recorder.render_window(5.0, 5.0, 10, 20, 4).empty());
}

TEST(Timeline, RecorderCsvAndRender) {
  TimelineRecorder recorder;
  recorder.add_stage("download", {{0.0, 3}, {10.0, 0}});
  recorder.add_stage("preprocess", {{10.0, 32}, {40.0, 0}});
  recorder.add_stage("inference", {{12.0, 1}, {42.0, 0}});
  EXPECT_DOUBLE_EQ(recorder.end_time(), 42.0);
  EXPECT_EQ(recorder.stage("preprocess").peak(), 32);
  EXPECT_THROW(recorder.stage("nope"), std::invalid_argument);

  const auto csv = recorder.to_csv(10);
  EXPECT_NE(csv.find("time_s,download,preprocess,inference"), std::string::npos);
  const auto plot = recorder.render(50, 60, 10);
  EXPECT_NE(plot.find("active workers"), std::string::npos);
  EXPECT_NE(plot.find("download"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Config-declared SLOs and the live health layer (DESIGN.md §12)

TEST(ConfigSlo, ParsesAndFlowsIntoTheCompiledPlan) {
  const auto config = EomlConfig::from_yaml_text(
      "workflow:\n"
      "  max_files: 4\n"
      "slo:\n"
      "  - name: pp-queue\n"
      "    stage: preprocess\n"
      "    metric: queue_wait_p99\n"
      "    threshold: 5\n"
      "    window: 30\n");
  ASSERT_EQ(config.slos.size(), 1u);
  EXPECT_EQ(config.slos[0].name, "pp-queue");
  EXPECT_EQ(config.slos[0].stage, "preprocess");
  EXPECT_DOUBLE_EQ(config.slos[0].threshold, 5.0);

  const auto graph = compile_config(config);
  const auto rules = spec::health_rules(graph.spec());
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].name, "pp-queue");
  EXPECT_EQ(rules[0].metric, obs::SloMetric::kQueueWaitP99);
  EXPECT_DOUBLE_EQ(rules[0].window_s, 30.0);
  EXPECT_NE(graph.describe().find("slo:"), std::string::npos);
}

TEST(ConfigSlo, RejectsUnknownStageAndStrayKeys) {
  // The stage reference is validated against the compiled paper DAG with
  // the config's own line anchors.
  auto config = EomlConfig::from_yaml_text(
      "slo:\n"
      "  - name: bad\n"
      "    stage: nope\n"
      "    metric: p99_latency\n"
      "    threshold: 1\n");
  EXPECT_THROW(compile_config(config), spec::SpecError);

  EXPECT_THROW(EomlConfig::from_yaml_text("slo:\n"
                                          "  - name: bad\n"
                                          "    bogus: 1\n"
                                          "    threshold: 1\n"),
               spec::SpecError);
}

TEST(WorkflowHealth, WatchedRunFiresSloAlertAndDoesNotPerturbTheRun) {
  EomlConfig config;
  config.max_files = 6;
  config.preprocess_nodes = 1;
  config.workers_per_node = 1;  // force queueing in preprocess
  {
    spec::SloSpec rule;
    rule.name = "pp-queue";
    rule.stage = "preprocess";
    rule.metric = "queue_wait_p99";
    rule.threshold = 0.5;
    rule.window_s = 60.0;
    config.slos.push_back(rule);
  }

  // Reference run: no recorder, no bus, no monitor.
  double plain_makespan = 0.0;
  std::size_t plain_tiles = 0;
  {
    EomlWorkflow workflow(config);
    const auto report = workflow.run();
    plain_makespan = report.makespan;
    plain_tiles = report.total_tiles;
  }

  // Watched run: full health chain attached.
  auto& rec = obs::TraceRecorder::instance();
  obs::set_globally_enabled(true);
  obs::TelemetryBus bus;
  EomlWorkflow workflow(config);
  obs::HealthMonitor monitor({}, spec::health_rules(workflow.plan().spec()));
  monitor.attach(bus);
  workflow.attach_health(monitor, 30.0);
  rec.set_span_sink(&bus);
  const auto report = workflow.run();
  monitor.finish(workflow.engine().now());
  rec.set_span_sink(nullptr);
  obs::set_globally_enabled(false);
  rec.clear();

  // Zero-perturbation: the watched run's numbers are bit-for-bit identical.
  EXPECT_EQ(report.makespan, plain_makespan);
  EXPECT_EQ(report.total_tiles, plain_tiles);

  // One worker serializes six granules, so queue waits blow the 0.5 s
  // budget: the rule fires and stays firing at end of run.
  ASSERT_GE(monitor.alerts().size(), 1u);
  EXPECT_EQ(monitor.alerts()[0].rule, "pp-queue");
  EXPECT_EQ(monitor.alerts()[0].state, "firing");
  EXPECT_EQ(monitor.alerts()[0].cause, "queue-wait");
  EXPECT_GT(monitor.events_seen(), 0u);
  EXPECT_EQ(monitor.dropped_events(), 0u);
}

// ---------------------------------------------------------------------------
// Facilities, pipeline templates and the campaign broker (paper §V-A)

class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Logger::instance().set_level(util::LogLevel::kError);
  }
  void TearDown() override {
    util::Logger::instance().set_level(util::LogLevel::kInfo);
  }
};

std::vector<CampaignJob> small_jobs(int count) {
  std::vector<CampaignJob> jobs;
  for (int day = 1; day <= count; ++day) {
    jobs.push_back(CampaignJob{
        "aicca-daily",
        "workflow: {max_files: 4, span: {first_day: " + std::to_string(day) +
            "}}\npreprocess: {nodes: 2}\n"});
  }
  return jobs;
}

TEST(Facility, PlacingAConfigClampsNodesToThePartition) {
  EomlConfig config;
  config.preprocess_nodes = 50;  // more than Polaris-like has
  config.place_on(spec::Facility::by_name("alcf"));
  EXPECT_EQ(config.facility.total_nodes, 24);
  EXPECT_EQ(config.preprocess_nodes, 24);
  EXPECT_DOUBLE_EQ(config.facility.scheduler_latency, 4.0);
  EXPECT_DOUBLE_EQ(config.facility.node_r_max, 44.0);
  EXPECT_NO_THROW(config.validate());
  EXPECT_NO_THROW(compile_config(config));
}

TEST(Templates, EveryBuiltinInstantiatesAndValidates) {
  const auto templates = pipeline_templates();
  ASSERT_EQ(templates.size(), 3u);
  for (std::size_t i = 0; i < templates.size(); ++i) {
    const auto& t = templates[i];
    SCOPED_TRACE(std::string(t.name));
    EXPECT_FALSE(t.description.empty());
    if (i > 0) {
      EXPECT_LT(templates[i - 1].name, t.name);  // listed sorted
    }
    const auto config = instantiate(t.name);
    EXPECT_NO_THROW(config.validate());
    EXPECT_NO_THROW(compile_config(config));
  }
  const auto daily = instantiate("aicca-daily");
  EXPECT_EQ(daily.preprocess_nodes, 10);
  EXPECT_TRUE(daily.daytime_only);
  EXPECT_THROW(instantiate("nope"), std::invalid_argument);
}

TEST(Templates, OverridesDeepMerge) {
  const auto config = instantiate("aicca-daily", R"(
workflow:
  max_files: 6
  span: {first_day: 42}
preprocess:
  nodes: 2
)");
  ASSERT_TRUE(config.max_files.has_value());
  EXPECT_EQ(*config.max_files, 6u);
  EXPECT_EQ(config.span.first_day, 42);
  EXPECT_EQ(config.preprocess_nodes, 2);
  // Untouched template values survive the merge.
  EXPECT_EQ(config.workers_per_node, 8);
  EXPECT_EQ(config.download_workers, 3);
}

TEST_F(CampaignTest, RoundRobinUsesEveryFacility) {
  const auto& builtins = spec::Facility::builtins();
  int observed = 0;
  const auto report = run_campaign(
      small_jobs(4), {builtins[0], builtins[1]}, PlacementPolicy::kRoundRobin,
      [&](const JobOutcome&) { ++observed; });
  EXPECT_EQ(report.jobs.size(), 4u);
  EXPECT_EQ(observed, 4);
  EXPECT_GT(report.total_tiles, 0u);
  std::set<std::string> used;
  for (const auto& job : report.jobs) used.insert(job.facility);
  EXPECT_EQ(used.size(), 2u);
  // Campaign makespan equals the slowest facility queue.
  double slowest = 0;
  for (const auto& [name, busy] : report.facility_busy_time)
    slowest = std::max(slowest, busy);
  EXPECT_DOUBLE_EQ(report.campaign_makespan, slowest);
}

TEST_F(CampaignTest, LeastLoadedBeatsSingleFacility) {
  const auto jobs = small_jobs(6);
  const auto single = run_campaign(jobs, {spec::Facility::by_name("olcf")});
  const auto federated = run_campaign(jobs, spec::Facility::builtins(),
                                      PlacementPolicy::kLeastLoaded);
  EXPECT_EQ(single.total_tiles, federated.total_tiles);
  EXPECT_LT(federated.campaign_makespan, single.campaign_makespan);
}

TEST_F(CampaignTest, FacilityWanShapesJobMakespan) {
  // The same job must take longer on a facility whose archive path is the
  // bottleneck (WAN below the workers' aggregate connection throughput).
  const auto job = small_jobs(1);
  spec::Facility fast = spec::Facility::by_name("olcf");
  spec::Facility slow = fast;
  slow.name = "throttled";
  slow.wan_bps = 6.0 * 1024 * 1024;
  const double fast_time = run_campaign(job, {fast}).jobs[0].makespan;
  const double slow_time = run_campaign(job, {slow}).jobs[0].makespan;
  EXPECT_LT(fast_time * 1.5, slow_time);
}

TEST_F(CampaignTest, EmptyFacilityListRejected) {
  EXPECT_THROW(run_campaign(small_jobs(1), {}), std::invalid_argument);
}

}  // namespace
}  // namespace mfw::pipeline
