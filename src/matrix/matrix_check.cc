#include "src/matrix/matrix_check.h"

#include <cstddef>
#include <utility>
#include <vector>

#include "src/api/session.h"

namespace spex {

MatrixSummary Session::CheckMatrix(std::span<const TargetVersion> versions,
                                   std::span<const ConfigInput> configs,
                                   const MatrixOptions& options) {
  MatrixSummary summary;
  summary.versions_requested = versions.size();
  summary.configs = configs.size();
  summary.columns.reserve(versions.size());
  summary.per_config.resize(configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    summary.per_config[i].index = i;
    summary.per_config[i].name = configs[i].name;
  }

  std::vector<LoadedVersion> loaded = LoadVersionSet(*this, versions, options.store);

  BatchOptions batch_options;
  batch_options.check = options.check;
  batch_options.num_threads = options.num_threads;

  // Index (into summary.columns) of the most recent column that actually
  // ran — failed loads are reported but never diffed, so a broken middle
  // version leaves its neighbours compared to each other.
  ptrdiff_t prev_checked = -1;

  for (const LoadedVersion& version : loaded) {
    VersionReport& column = summary.columns.emplace_back();
    column.index = version.index;
    column.label = version.label;
    column.status = version.status;
    if (!column.status.ok()) {
      continue;  // Reported with its load failure, never checked or diffed.
    }
    // Columns run sequentially: each is diffed against the previous one.
    // The matrix parallelism lives *inside* a column, where the batch
    // layer shards cells over the session pool with cross-config dedup
    // intact.
    column.batch = version.target->CheckConfigBatch(configs, batch_options);
    summary.versions_checked += 1;
    summary.cells += column.batch.reports.size();
    summary.total_violations += column.batch.total_violations;
    summary.unique_replays += column.batch.unique_replays;
    summary.store_hits += column.batch.store_hits;
    for (const ConfigReport& report : column.batch.reports) {
      if (!report.violations.empty() && report.index < summary.per_config.size()) {
        summary.per_config[report.index].versions_with_violations += 1;
      }
    }

    if (prev_checked >= 0) {
      const VersionReport& before = summary.columns[static_cast<size_t>(prev_checked)];
      std::vector<ConfigTransition> transitions = DiffColumns(
          before.index, before.label, before.batch, column.index, column.label, column.batch);
      for (ConfigTransition& transition : transitions) {
        summary.transitions_by_kind[static_cast<size_t>(transition.transition)] += 1;
        if (transition.config_index < summary.per_config.size()) {
          ConfigRollup& rollup = summary.per_config[transition.config_index];
          switch (transition.transition) {
            case Transition::kRegression:
              rollup.regressions += 1;
              break;
            case Transition::kFix:
              rollup.fixes += 1;
              break;
            case Transition::kChangedReaction:
              rollup.changed_reactions += 1;
              break;
            case Transition::kStable:
              break;
          }
        }
        summary.transitions.push_back(std::move(transition));
      }
    }
    prev_checked = static_cast<ptrdiff_t>(summary.columns.size()) - 1;
  }
  return summary;
}

}  // namespace spex
