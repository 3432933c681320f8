#include "src/corpus/pipeline.h"

#include "src/ir/lowering.h"
#include "src/lang/parser.h"
#include "src/support/thread_pool.h"

namespace spex {

TargetAnalysis AnalyzeTarget(const TargetSpec& spec, const ApiRegistry& apis,
                             DiagnosticEngine* diags, SpexOptions engine_options) {
  TargetAnalysis analysis;
  analysis.bundle = SynthesizeTarget(spec);
  auto unit = ParseSource(analysis.bundle.source, spec.name + ".c", diags);
  analysis.module = LowerToIr(*unit, diags);
  analysis.engine = std::make_unique<SpexEngine>(*analysis.module, apis, engine_options);
  AnnotationFile annotations = ParseAnnotations(analysis.bundle.annotations, diags);
  analysis.lines_of_annotation = annotations.lines_of_annotation;
  analysis.constraints = analysis.engine->Run(annotations, diags);
  analysis.manual = ManualModel::Parse(analysis.bundle.manual_text, diags);
  return analysis;
}

std::vector<CorpusCampaignResult> RunCorpusCampaigns(
    const std::vector<std::string>& target_names, const ApiRegistry& apis,
    CampaignOptions options, ThreadPool* pool, size_t workers, SpexOptions engine_options) {
  std::vector<CorpusCampaignResult> results(target_names.size());
  // Each claim owns one target end to end (analysis, generation, campaign)
  // and writes its pre-sized slot; the ApiRegistry is shared read-only.
  // Targets differ widely in cost, so an idle claimer takes the next one.
  ForEachIndex(pool, results.size(), workers, [&](size_t index) {
    CorpusCampaignResult& slot = results[index];
    slot.target = target_names[index];
    DiagnosticEngine diags;
    slot.analysis = AnalyzeTarget(FindTarget(slot.target), apis, &diags, engine_options);
    const TargetBundle& bundle = slot.analysis.bundle;
    InjectionCampaign campaign(*slot.analysis.module, bundle.sut,
                               OsSimulator::StandardEnvironment(), options);
    slot.summary = campaign.RunAll(ConfigFile::Parse(bundle.template_config, bundle.dialect),
                                   MisconfigGenerator().Generate(slot.analysis.constraints));
    if (diags.HasErrors()) {
      slot.diagnostics = diags.Render();
    }
  });
  return results;
}

}  // namespace spex
