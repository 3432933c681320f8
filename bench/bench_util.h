// Shared helpers for the benchmark harness.
//
// Every bench binary regenerates one of the paper's tables or figures and
// prints measured values next to the paper's published ones. All of them go
// through the spex::Session façade: one process-wide session owns the
// ApiRegistry, diagnostics and campaign worker pool, and AllTargets() loads
// each corpus system through it once per binary (the full synthesize ->
// parse -> lower -> infer pipeline, cached for the binary's lifetime).
// Repeated campaigns against one Target reuse its snapshot cache; benches
// that vary CampaignOptions drive an InjectionCampaign of their own.
#ifndef SPEX_BENCH_BENCH_UTIL_H_
#define SPEX_BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <iostream>
#include <vector>

#include "src/api/session.h"
#include "src/support/table.h"

namespace spex {

// The process-wide bench session (leaked deliberately: bench binaries exit
// without tearing down the corpus).
inline Session& BenchSession() {
  static Session* kSession = new Session();
  return *kSession;
}

// One façade Target per corpus system, loaded once per binary.
inline const std::vector<Target*>& AllTargets() {
  static const std::vector<Target*>* kTargets = [] {
    auto* targets = new std::vector<Target*>();
    Session& session = BenchSession();
    for (const TargetSpec& spec : EvaluatedTargets()) {
      Target* target = session.LoadTarget(spec.name);
      if (target == nullptr) {
        // A clean corpus never produces diagnostics; this is a bug.
        std::cerr << "corpus analysis diagnostics for " << spec.name << ":\n"
                  << session.RenderDiagnostics();
        std::abort();
      }
      targets->push_back(target);
    }
    return targets;
  }();
  return *kTargets;
}

// Standard bench preamble: title + scale note.
inline void BenchHeader(const std::string& what) {
  std::cout << "SPEX reproduction bench — " << what << "\n";
  std::cout << "(corpus is calibrated at ~quarter scale of the paper's systems; compare\n"
               " shapes and ratios, not absolute counts — see EXPERIMENTS.md)\n\n";
}

}  // namespace spex

#endif  // SPEX_BENCH_BENCH_UTIL_H_
