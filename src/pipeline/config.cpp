#include "pipeline/config.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace mfw::pipeline {

namespace {

modis::Satellite parse_satellite(const std::string& name) {
  if (name == "Terra" || name == "terra") return modis::Satellite::kTerra;
  if (name == "Aqua" || name == "aqua") return modis::Satellite::kAqua;
  throw util::YamlError("unknown satellite: " + name);
}

std::vector<modis::ProductKind> parse_products(const util::YamlNode& node) {
  std::vector<modis::ProductKind> out;
  for (const auto& item : node.items()) {
    const auto& name = item.as_string();
    if (name == "MOD02" || name == "MOD021KM" || name == "MYD021KM") {
      out.push_back(modis::ProductKind::kMod02);
    } else if (name == "MOD03" || name == "MYD03") {
      out.push_back(modis::ProductKind::kMod03);
    } else if (name == "MOD06" || name == "MOD06_L2" || name == "MYD06_L2") {
      out.push_back(modis::ProductKind::kMod06);
    } else {
      throw util::YamlError("unknown product: " + name);
    }
  }
  return out;
}

SchedulingMode parse_scheduling(const std::string& name) {
  if (name == "barrier") return SchedulingMode::kBarrier;
  if (name == "streaming") return SchedulingMode::kStreaming;
  throw util::YamlError("unknown scheduling mode: " + name);
}

std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t next = std::min(
          {row[j] + 1, row[j - 1] + 1, diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = row[j];
      row[j] = next;
    }
  }
  return row[b.size()];
}

constexpr const char* kTopLevelKeys[] = {
    "workflow", "download", "preprocess", "monitor",
    "inference", "shipment", "facility", "content", "slo"};

/// Typos used to silently fall back to defaults ("downlaod:" configured
/// nothing); reject them, suggesting the closest section name.
void reject_unknown_sections(const util::YamlNode& root) {
  if (!root.is_map()) return;
  for (const auto& key : root.keys()) {
    bool known = false;
    for (const char* valid : kTopLevelKeys) known = known || key == valid;
    if (known) continue;
    const char* nearest = kTopLevelKeys[0];
    std::size_t best = std::numeric_limits<std::size_t>::max();
    for (const char* valid : kTopLevelKeys) {
      const auto d = edit_distance(key, valid);
      if (d < best) {
        best = d;
        nearest = valid;
      }
    }
    throw util::YamlError("config: unknown top-level key '" + key +
                          "' (did you mean '" + std::string(nearest) + "'?)");
  }
}

}  // namespace

const char* to_string(SchedulingMode mode) {
  return mode == SchedulingMode::kStreaming ? "streaming" : "barrier";
}

EomlConfig EomlConfig::from_yaml(const util::YamlNode& root) {
  reject_unknown_sections(root);
  EomlConfig config;
  const auto& wf = root["workflow"];
  if (wf.is_map()) {
    if (wf.has("satellite"))
      config.satellite = parse_satellite(wf["satellite"].as_string());
    if (wf.has("products")) config.products = parse_products(wf["products"]);
    if (wf.has("span")) {
      const auto& span = wf["span"];
      config.span.year = static_cast<int>(span["year"].as_int_or(2022));
      config.span.first_day = static_cast<int>(span["first_day"].as_int_or(1));
      config.span.last_day = static_cast<int>(
          span["last_day"].as_int_or(config.span.first_day));
    }
    if (wf.has("max_files"))
      config.max_files = static_cast<std::size_t>(wf["max_files"].as_int());
    config.daytime_only = wf["daytime_only"].as_bool_or(config.daytime_only);
    config.seed = static_cast<std::uint64_t>(
        wf["seed"].as_int_or(static_cast<std::int64_t>(config.seed)));
    if (wf.has("scheduling"))
      config.scheduling = parse_scheduling(wf["scheduling"].as_string());
  }

  const auto& dl = root["download"];
  if (dl.is_map()) {
    config.download_workers =
        static_cast<int>(dl["workers"].as_int_or(config.download_workers));
    if (dl.has("wan_capacity"))
      config.facility.wan_bps =
          static_cast<double>(dl["wan_capacity"].as_bytes());
    if (dl.has("connection_speed"))
      config.per_connection_median_bps =
          static_cast<double>(dl["connection_speed"].as_bytes());
  }

  const auto& pp = root["preprocess"];
  if (pp.is_map()) {
    config.preprocess_nodes =
        static_cast<int>(pp["nodes"].as_int_or(config.preprocess_nodes));
    config.workers_per_node = static_cast<int>(
        pp["workers_per_node"].as_int_or(config.workers_per_node));
    config.elastic = pp["elastic"].as_bool_or(config.elastic);
    if (pp.has("block")) {
      const auto& block = pp["block"];
      config.block.nodes_per_block = static_cast<int>(
          block["nodes_per_block"].as_int_or(config.block.nodes_per_block));
      config.block.workers_per_node = static_cast<int>(
          block["workers_per_node"].as_int_or(config.workers_per_node));
      config.block.init_blocks = static_cast<int>(
          block["init_blocks"].as_int_or(config.block.init_blocks));
      config.block.min_blocks = static_cast<int>(
          block["min_blocks"].as_int_or(config.block.min_blocks));
      config.block.max_blocks = static_cast<int>(
          block["max_blocks"].as_int_or(config.block.max_blocks));
      config.block.idle_timeout =
          block["idle_timeout"].as_double_or(config.block.idle_timeout);
    }
    config.tiler.tile_size =
        static_cast<int>(pp["tile_size"].as_int_or(config.tiler.tile_size));
    config.tiler.channels =
        static_cast<int>(pp["channels"].as_int_or(config.tiler.channels));
    config.tiler.min_cloud_fraction = pp["min_cloud_fraction"].as_double_or(
        config.tiler.min_cloud_fraction);
    config.facility.scheduler_latency =
        pp["slurm_latency"].as_double_or(config.facility.scheduler_latency);
    config.preprocess_walltime =
        pp["walltime"].as_double_or(config.preprocess_walltime);
    // Uniform scaling of the calibrated cost model. Primarily a fault/
    // regression-injection knob: the ctest gate gate_diff_attribution slows
    // preprocess 2x and requires `mfwctl diff` to attribute the makespan
    // delta to it.
    const double cost_scale = pp["cost_scale"].as_double_or(1.0);
    if (!(cost_scale > 0.0))
      throw util::YamlError("config: preprocess cost_scale must be > 0");
    config.preprocess_cost.cpu_seconds *= cost_scale;
    config.preprocess_cost.demand_per_tile *= cost_scale;
    config.preprocess_cost.min_demand *= cost_scale;
  }

  const auto& mon = root["monitor"];
  if (mon.is_map()) {
    config.poll_interval =
        mon["poll_interval"].as_double_or(config.poll_interval);
    config.flow_action_overhead =
        mon["action_overhead"].as_double_or(config.flow_action_overhead);
    config.retain_provenance =
        mon["retain_provenance"].as_bool_or(config.retain_provenance);
  }

  const auto& inf = root["inference"];
  if (inf.is_map()) {
    config.inference_workers =
        static_cast<int>(inf["workers"].as_int_or(config.inference_workers));
    config.model_path = inf["model"].as_string_or(config.model_path);
    config.encode_path = inf["encode_path"].as_string_or(config.encode_path);
    config.inference_tile_budget = static_cast<std::size_t>(inf["tile_budget"].as_int_or(
        static_cast<std::int64_t>(config.inference_tile_budget)));
    config.inference_batch = static_cast<std::size_t>(inf["batch"].as_int_or(
        static_cast<std::int64_t>(config.inference_batch)));
    const double cost_scale = inf["cost_scale"].as_double_or(1.0);
    if (!(cost_scale > 0.0))
      throw util::YamlError("config: inference cost_scale must be > 0");
    config.inference_cost.cpu_seconds *= cost_scale;
    config.inference_cost.demand_per_tile *= cost_scale;
  }

  const auto& ship = root["shipment"];
  if (ship.is_map()) {
    config.shipment_streams =
        static_cast<int>(ship["streams"].as_int_or(config.shipment_streams));
    if (ship.has("link_capacity"))
      config.facility.link_bps =
          static_cast<double>(ship["link_capacity"].as_bytes());
  }

  const auto& fac = root["facility"];
  if (fac.is_map()) {
    auto& facility = config.facility;
    facility.total_nodes = static_cast<int>(
        fac["total_nodes"].as_int_or(facility.total_nodes));
    facility.node_r_max = fac["node_r_max"].as_double_or(facility.node_r_max);
    facility.node_tau = fac["node_tau"].as_double_or(facility.node_tau);
  }

  const auto& content = root["content"];
  if (content.is_map()) {
    config.materialize = content["materialize"].as_bool_or(config.materialize);
    config.geometry.rows =
        static_cast<int>(content["rows"].as_int_or(config.geometry.rows));
    config.geometry.cols =
        static_cast<int>(content["cols"].as_int_or(config.geometry.cols));
    config.geometry.bands =
        static_cast<int>(content["bands"].as_int_or(config.geometry.bands));
  }

  // Parsed with the spec layer's parser (line-anchored errors) and validated
  // against the builtin stage graph when the workflow compiles.
  config.slos = spec::parse_slo_list(root["slo"]);

  config.validate();
  return config;
}

EomlConfig EomlConfig::from_yaml_text(std::string_view text) {
  return from_yaml(util::parse_yaml(text));
}

void EomlConfig::place_on(const spec::Facility& where) {
  facility = where;
  preprocess_nodes = std::min(preprocess_nodes, where.total_nodes);
}

void EomlConfig::validate() const {
  if (products.empty()) throw std::invalid_argument("config: no products");
  if (scheduling == SchedulingMode::kStreaming) {
    // The per-granule readiness trigger is defined over whole triplets: with
    // any product missing from the stream, granule.ready would never fire.
    const auto has = [this](modis::ProductKind kind) {
      return std::find(products.begin(), products.end(), kind) !=
             products.end();
    };
    if (!has(modis::ProductKind::kMod02) || !has(modis::ProductKind::kMod03) ||
        !has(modis::ProductKind::kMod06))
      throw std::invalid_argument(
          "config: streaming scheduling requires MOD02+MOD03+MOD06 products");
  }
  if (download_workers <= 0)
    throw std::invalid_argument("config: download_workers must be >= 1");
  if (preprocess_nodes <= 0 || workers_per_node <= 0)
    throw std::invalid_argument("config: preprocessing resources must be >= 1");
  if (facility.total_nodes < preprocess_nodes)
    throw std::invalid_argument(
        "config: preprocess_nodes exceeds the facility's total_nodes");
  if (!(facility.node_r_max > 0) || !(facility.node_tau > 0))
    throw std::invalid_argument("config: contention law parameters must be > 0");
  if (inference_workers <= 0)
    throw std::invalid_argument("config: inference_workers must be >= 1");
  if (encode_path != "layers" && encode_path != "fused" &&
      encode_path != "int8")
    throw std::invalid_argument(
        "config: encode_path must be layers|fused|int8, got '" + encode_path +
        "'");
  if (inference_batch == 0)
    throw std::invalid_argument("config: inference batch must be >= 1");
  if (inference_tile_budget != 0 && inference_tile_budget < inference_batch)
    throw std::invalid_argument(
        "config: inference tile_budget must be >= batch (or 0 to disable "
        "streaming)");
  if (shipment_streams <= 0)
    throw std::invalid_argument("config: shipment_streams must be >= 1");
  if (!(facility.wan_bps > 0) || !(facility.link_bps > 0))
    throw std::invalid_argument("config: link capacities must be > 0");
  if (!(poll_interval > 0))
    throw std::invalid_argument("config: poll_interval must be > 0");
  if (!(preprocess_walltime > 0))
    throw std::invalid_argument("config: preprocess_walltime must be > 0");
  if (span.first_day < 1 || span.last_day < span.first_day || span.last_day > 366)
    throw std::invalid_argument("config: invalid day span");
  if (materialize &&
      (tiler.tile_size > geometry.rows || tiler.tile_size > geometry.cols))
    throw std::invalid_argument(
        "config: tile_size exceeds materialized geometry");
}

}  // namespace mfw::pipeline
