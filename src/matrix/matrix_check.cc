#include "src/matrix/matrix_check.h"

#include <cstddef>
#include <utility>
#include <vector>

#include "src/api/session.h"

namespace spex {

MatrixSummary RunMatrixCheck(Session& session, std::span<const TargetVersion> versions,
                             std::span<const ConfigInput> configs,
                             const MatrixOptions& options, MatrixObserver* observer) {
  MatrixSummary summary;
  summary.versions_requested = versions.size();
  summary.configs = configs.size();
  summary.columns.reserve(versions.size());
  summary.per_config.resize(configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    summary.per_config[i].index = i;
    summary.per_config[i].name = configs[i].name;
  }
  if (observer != nullptr) {
    observer->OnMatrixBegin(versions.size(), configs.size());
  }

  std::vector<LoadedVersion> loaded = LoadVersionSet(session, versions, options.store);

  BatchOptions batch_options;
  batch_options.check = options.check;
  batch_options.num_threads = options.num_threads;

  // Index (into summary.columns) of the most recent column that actually
  // ran — failed loads are reported but never diffed, so a broken middle
  // version leaves its neighbours compared to each other.
  ptrdiff_t prev_checked = -1;

  for (LoadedVersion& version : loaded) {
    if (observer != nullptr) {
      observer->OnVersionLoaded(version);
    }

    VersionReport column;
    column.index = version.index;
    column.label = version.label;
    column.status = version.status;
    if (version.status.ok()) {
      // Columns run sequentially: the observer streams them in order and
      // each is diffed against the previous one. The matrix parallelism
      // lives *inside* a column, where the batch layer shards cells over
      // the session pool with cross-config dedup intact.
      column.batch = version.target->CheckConfigBatch(configs, batch_options);
      summary.versions_checked += 1;
      summary.cells += column.batch.reports.size();
      summary.total_violations += column.batch.total_violations;
      summary.unique_replays += column.batch.unique_replays;
      summary.store_hits += column.batch.store_hits;
      for (const ConfigReport& report : column.batch.reports) {
        if (observer != nullptr) {
          observer->OnCellChecked(version.index, version.label, report);
        }
        if (!report.violations.empty() && report.index < summary.per_config.size()) {
          summary.per_config[report.index].versions_with_violations += 1;
        }
      }
    }
    summary.columns.push_back(std::move(column));
    VersionReport& stored = summary.columns.back();

    if (stored.status.ok()) {
      if (prev_checked >= 0) {
        const VersionReport& before = summary.columns[static_cast<size_t>(prev_checked)];
        std::vector<ConfigTransition> transitions =
            DiffColumns(before.index, before.label, before.batch, stored.index,
                        stored.label, stored.batch);
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
          if (observer != nullptr) {
            observer->OnTransition(transition);
          }
          summary.transitions.push_back(std::move(transition));
        }
      }
      prev_checked = static_cast<ptrdiff_t>(summary.columns.size()) - 1;
    }

    if (observer != nullptr) {
      observer->OnVersionChecked(stored);
    }
  }

  if (observer != nullptr) {
    observer->OnMatrixEnd(summary);
  }
  return summary;
}

MatrixSummary Session::CheckMatrix(std::span<const TargetVersion> versions,
                                   std::span<const ConfigInput> configs,
                                   const MatrixOptions& options, MatrixObserver* observer) {
  return RunMatrixCheck(*this, versions, configs, options, observer);
}

}  // namespace spex
