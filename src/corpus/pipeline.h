// End-to-end pipeline over corpus targets.
//
// Bundles the analysis half of the SPEX flow for one synthesized system:
// parse + lower the MiniC source and run constraint inference.
// AnalyzeTarget is what Session::LoadTarget runs; RunCorpusCampaigns adds
// one SPEX-INJ campaign per target for the corpus-wide tables.
//
// The entry point for new code is spex::Session (src/api/session.h): it
// owns the registry/diagnostics/worker-pool/string-pool lifetimes, the
// user-facing ConfigChecker, and persistent campaigns whose snapshot cache
// both repeated campaigns and dynamic checks reuse (Target::RunCampaign).
// See docs/api.md for its contract.
#ifndef SPEX_CORPUS_PIPELINE_H_
#define SPEX_CORPUS_PIPELINE_H_

#include <memory>

#include "src/core/engine.h"
#include "src/corpus/spec.h"
#include "src/corpus/synthesizer.h"
#include "src/design/manual_model.h"
#include "src/inject/campaign.h"

namespace spex {

struct TargetAnalysis {
  TargetBundle bundle;
  std::unique_ptr<Module> module;
  std::unique_ptr<SpexEngine> engine;
  ModuleConstraints constraints;
  ManualModel manual;
  size_t lines_of_annotation = 0;
};

// Synthesize + analyze one target. Aborts via diags on internal errors; a
// clean corpus never produces diagnostics. `engine_options` are the
// inference knobs (Session::LoadTarget forwards its SessionOptions.engine).
TargetAnalysis AnalyzeTarget(const TargetSpec& spec, const ApiRegistry& apis,
                             DiagnosticEngine* diags, SpexOptions engine_options = {});

// One sharded corpus run: analysis + campaign summary for a target, plus
// any diagnostics its worker collected (empty for a clean corpus).
struct CorpusCampaignResult {
  std::string target;
  TargetAnalysis analysis;
  CampaignSummary summary;
  std::string diagnostics;
};

// Fans AnalyzeTarget + a fresh InjectionCampaign over a pool of its own,
// one target (and one TargetAnalysis) per task, so corpus-wide tables
// regenerate in parallel. Results are written into pre-sized slots: order
// matches `target_names` and every summary is identical to a serial
// campaign over the generated misconfigurations. `num_workers`
// follows the CampaignOptions::num_threads convention (0 = hardware
// concurrency); `options` applies to each inner campaign and defaults to
// serial, which is the right setting when the corpus itself is sharded.
std::vector<CorpusCampaignResult> RunCorpusCampaigns(
    const std::vector<std::string>& target_names, const ApiRegistry& apis,
    CampaignOptions options = {}, size_t num_workers = 0, SpexOptions engine_options = {});

}  // namespace spex

#endif  // SPEX_CORPUS_PIPELINE_H_
