// Ablation: SPEX-INJ's test-scheduling optimizations (Section 3.1) —
// shortest-test-first ordering plus stop-at-first-failure. The metric is
// total functional tests executed across the campaign (the paper's N x T
// cost discussion).
#include "bench/bench_util.h"

using namespace spex;

int main() {
  BenchHeader("ablation: injection-campaign test scheduling");

  TextTable table("Total test executions per campaign configuration");
  table.SetHeader({"Software", "naive", "+stop-first-fail", "+shortest-first (paper config)",
                   "saving"});
  for (Target* target : AllTargets()) {
    const TargetAnalysis& analysis = target->analysis();
    const ConfigFile template_config =
        ConfigFile::Parse(analysis.bundle.template_config, analysis.bundle.dialect);
    // A Target's own campaign always runs the paper configuration, so each
    // scheduling variant gets a campaign of its own.
    auto total_tests = [&](const CampaignOptions& options) {
      InjectionCampaign campaign(*analysis.module, analysis.bundle.sut,
                                 OsSimulator::StandardEnvironment(), options);
      return campaign.RunAll(template_config, target->Misconfigurations()).total_tests_run;
    };
    CampaignOptions naive;
    naive.stop_at_first_failure = false;
    naive.sort_tests_by_cost = false;
    CampaignOptions stop_only;
    stop_only.stop_at_first_failure = true;
    stop_only.sort_tests_by_cost = false;
    CampaignOptions paper;  // Both optimizations (defaults).

    int64_t tests_naive = total_tests(naive);
    int64_t tests_stop = total_tests(stop_only);
    int64_t tests_paper = total_tests(paper);
    char saving[32];
    snprintf(saving, sizeof(saving), "%.1f%%",
             tests_naive == 0
                 ? 0.0
                 : 100.0 * static_cast<double>(tests_naive - tests_paper) /
                       static_cast<double>(tests_naive));
    table.AddRow({analysis.bundle.display_name, std::to_string(tests_naive),
                  std::to_string(tests_stop), std::to_string(tests_paper), saving});
  }
  std::cout << table.Render();
  return 0;
}
