// Version-matrix checking: one fleet of configs × N versions of a target,
// in a single pass — "which upgrade breaks whose config".
//
// The paper's end state is the vendor shipping the checker with the
// product; the sharpest real-world moment for it is an upgrade, when a
// config that was fine against version A silently becomes a
// misconfiguration against version B. Session::CheckMatrix (declared on
// Session, implemented here) runs the whole answer:
//
//   versions ──LoadVersionSet──▶ one session-owned Target per version
//       │                          (shared VerdictStore, one scope each)
//       ▼
//   per version: CheckConfigBatch over the fleet — the (version × config)
//   cells of that column, sharded over the session pool, with the batch
//   layer's cross-config dedup and store consult/append per version
//       ▼
//   matrix_diff over adjacent columns ──▶ regression / fix /
//   changed-reaction / stable per (config, version-pair)
//       ▼
//   MatrixSummary: per-version columns, per-config rollups, transition
//   counts
//
// Cell identity guarantee: every cell is bit-identical to an independent
// CheckConfigBatch of the same fleet against that version alone — the
// matrix adds comparison, never new verdict machinery. This is inherited,
// not re-implemented: a column IS one CheckConfigBatch call, and the
// batch layer's verdicts are bit-identical to N independent CheckConfig
// calls at every thread count (src/api/batch_check.h).
//
// O(diff) warm refresh: with a store attached, every version lands in its
// own verdict-store scope automatically (the Target scope fingerprint
// folds source/annotations/SUT/template), so re-running a matrix after
// one version bump replays only the bumped version's column —
// MatrixSummary::columns[i].batch.unique_replays stays 0 for every
// unchanged version. BM_VersionMatrix pins this down.
#ifndef SPEX_MATRIX_MATRIX_CHECK_H_
#define SPEX_MATRIX_MATRIX_CHECK_H_

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "src/api/batch_check.h"
#include "src/matrix/matrix_diff.h"
#include "src/matrix/version_set.h"

namespace spex {

// Options for one matrix check. Freely copyable.
struct MatrixOptions {
  // Per-cell CheckOptions (mode, snapshot knob, deadline, cancel token) —
  // the same options every cell's dedicated CheckConfig would take.
  CheckOptions check;
  // Sharding per column, with BatchOptions::num_threads semantics:
  // 1 = serial (default), 0 = session pool width, N = N shards. Cells and
  // transitions are identical for every value.
  int num_threads = 1;
  // Optional persistent verdict store shared by every version — each
  // version reads/writes its own scope, making warm matrix refreshes
  // O(diff) across versions. May be null.
  std::shared_ptr<VerdictStore> store;
};

// One version's column: the full fleet checked against that version.
// `status` carries a load failure (column never checked, `batch` empty);
// checked columns have status Ok.
struct VersionReport {
  size_t index = 0;
  std::string label;
  Status status;
  BatchSummary batch;
};

// Per-config rollup across the whole matrix — the row the "is my config
// safe to upgrade" user reads.
struct ConfigRollup {
  size_t index = 0;
  std::string name;
  size_t versions_with_violations = 0;  // Columns where this config is flagged.
  size_t regressions = 0;               // Adjacent pairs that break it...
  size_t fixes = 0;                     // ...repair it...
  size_t changed_reactions = 0;         // ...or change its verdict.
};

// Matrix-wide rollup. `columns` holds every version in request order
// (failed loads included, with their status), each checked column's
// reports in batch order; `transitions` holds one entry per (config,
// adjacent-checked-version-pair) in version-major, batch order.
struct MatrixSummary {
  size_t versions_requested = 0;
  size_t versions_checked = 0;  // Columns that actually ran.
  size_t configs = 0;
  size_t cells = 0;  // versions_checked * configs.
  size_t total_violations = 0;  // Across every cell.
  // Matrix-wide verdict-store accounting, summed over columns.
  size_t unique_replays = 0;
  size_t store_hits = 0;
  // Transition counts indexed by static_cast<size_t>(Transition); the
  // entries sum to transitions.size().
  std::array<size_t, kTransitionCount> transitions_by_kind{};

  std::vector<VersionReport> columns;
  std::vector<ConfigTransition> transitions;
  std::vector<ConfigRollup> per_config;

  bool AnyRegression() const {
    return transitions_by_kind[static_cast<size_t>(Transition::kRegression)] > 0;
  }
};

}  // namespace spex

#endif  // SPEX_MATRIX_MATRIX_CHECK_H_
