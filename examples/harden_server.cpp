// Harden a server against misconfigurations: the full SPEX-INJ loop on the
// OpenLDAP corpus target — including the paper's Figure 2 scenario, where
// "listener-threads" above a hard-coded cap of 16 crashes the server with
// nothing but "Segmentation fault".
//
// Build & run:  ./build/example_harden_server
#include <iostream>

#include "src/api/session.h"

namespace {

// Streaming progress through the façade's observer: a long campaign inside
// a service would ship these to a dashboard instead of stderr.
class ProgressObserver : public spex::CampaignObserver {
 public:
  void OnCampaignBegin(size_t total_runs) override { total_ = total_runs; }
  void OnRunComplete(size_t index, const spex::InjectionResult& result) override {
    (void)index;
    (void)result;
    if (++completed_ % 50 == 0) {
      std::cerr << "  ... " << completed_ << "/" << total_ << " misconfigurations injected\n";
    }
  }

 private:
  size_t total_ = 0;
  size_t completed_ = 0;
};

}  // namespace

int main() {
  spex::Session session;
  spex::Target* target = session.LoadTarget("openldap");
  if (target == nullptr) {
    std::cerr << session.RenderDiagnostics();
    return 1;
  }
  const spex::TargetAnalysis& analysis = target->analysis();

  std::cout << "Target: " << analysis.bundle.display_name << " ("
            << analysis.bundle.param_count << " parameters, "
            << analysis.constraints.TotalConstraints() << " inferred constraints)\n\n";

  ProgressObserver progress;
  spex::CampaignSummary summary = target->RunCampaign(&progress);
  std::cout << "Injection campaign: " << summary.results.size() << " misconfigurations, "
            << summary.TotalVulnerabilities() << " vulnerabilities at "
            << summary.UniqueVulnerabilityLocations() << " source locations.\n\n";

  std::cout << "Error reports for the developer (vulnerabilities only):\n";
  int shown = 0;
  for (const spex::InjectionResult& result : summary.results) {
    if (!IsVulnerability(result.category) || shown >= 12) {
      continue;
    }
    ++shown;
    std::cout << "\n[" << shown << "] " << ReactionCategoryName(result.category) << "\n";
    std::cout << "    injected: " << result.config.Describe() << "\n";
    if (!result.detail.empty()) {
      std::cout << "    observed: " << result.detail << "\n";
    }
    if (result.logs.empty()) {
      std::cout << "    system log: (empty — the user gets no clue)\n";
    } else {
      for (size_t i = 0; i < result.logs.size() && i < 2; ++i) {
        std::cout << "    system log: " << result.logs[i] << "\n";
      }
    }
    std::cout << "    fix at: " << result.vulnerability_loc.ToString() << "\n";
  }

  std::cout << "\nThe Figure 2 crash, specifically:\n";
  for (const spex::InjectionResult& result : summary.results) {
    if (result.config.param == "listener-threads" &&
        result.category == spex::ReactionCategory::kCrashHang) {
      std::cout << "  listener-threads = " << result.config.value << "  ->  " << result.detail
                << "\n";
    }
  }
  return 0;
}
