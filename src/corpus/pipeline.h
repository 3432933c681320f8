// End-to-end pipeline over corpus targets.
//
// Bundles the analysis half of the SPEX flow for one synthesized system:
// parse + lower the MiniC source and run constraint inference.
// AnalyzeTarget is what Session::LoadTarget runs; RunCorpusCampaigns adds
// one SPEX-INJ campaign per target for the corpus-wide tables.
//
// The entry point for new code is spex::Session (src/api/session.h): it
// owns the registry/diagnostics/worker-pool lifetimes, the user-facing
// ConfigChecker, and one persistent campaign per target whose snapshot
// cache repeated campaigns and dynamic checks reuse at every thread count
// (Target::RunCampaign). See docs/api.md for its contract.
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

// One target of a corpus run: analysis + campaign summary, plus any
// diagnostics its worker collected (empty for a clean corpus).
struct CorpusCampaignResult {
  std::string target;
  TargetAnalysis analysis;
  CampaignSummary summary;
  std::string diagnostics;
};

// Fans AnalyzeTarget + a fresh InjectionCampaign over `pool`, one target
// (and one TargetAnalysis) per claimed index (ForEachIndex), so
// corpus-wide tables regenerate in parallel. `pool` and `workers` follow
// ForEachIndex: without a pool, or with `workers` <= 1, the targets run
// one after another on the calling thread, which must not be a task of
// `pool`. Results are written into pre-sized slots: order matches
// `target_names` and every summary is identical to a serial campaign over
// the generated misconfigurations. `options` applies to each inner
// campaign; inner campaigns always run serially, so no pool task waits on
// its own pool.
std::vector<CorpusCampaignResult> RunCorpusCampaigns(
    const std::vector<std::string>& target_names, const ApiRegistry& apis,
    CampaignOptions options = {}, ThreadPool* pool = nullptr, size_t workers = 1,
    SpexOptions engine_options = {});

}  // namespace spex

#endif  // SPEX_CORPUS_PIPELINE_H_
