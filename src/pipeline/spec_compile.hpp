// The paper pipeline as a built-in workflow spec.
//
// After the declarative-workflow refactor (DESIGN.md §11) the five-stage
// EO-ML pipeline is not a special case: EomlWorkflow builds this spec from
// its EomlConfig, compiles it through spec::StageGraph (so every run passes
// cycle/input/capacity validation), and consults the compiled edge modes for
// its dataflow decisions. The barrier-mode run stays bit-for-bit identical
// to the seed — the spec encodes exactly the stage graph the seed hard-wired,
// and the executor keeps its null-policy FIFO path.
#pragma once

#include "pipeline/config.hpp"
#include "spec/spec.hpp"

namespace mfw::pipeline {

/// The five-stage paper workflow as a spec: download -> preprocess ->
/// monitor -> inference -> shipment. The download->preprocess edge carries
/// config.scheduling (the paper's barrier vs the event-driven streaming
/// mode); monitor and inference stream per batch; shipment waits for the
/// whole inference stage, as the seed does.
spec::WorkflowSpec spec_for_config(const EomlConfig& config);

/// Validates and compiles the built-in paper spec for `config` against
/// `facility` (default: the config's own). The facility's worker ceiling is
/// raised to the config's workers_per_node, so the paper pipeline's own
/// width never fails the check.
spec::StageGraph compile_config(const EomlConfig& config);
spec::StageGraph compile_config(const EomlConfig& config,
                                spec::Facility facility);

}  // namespace mfw::pipeline
