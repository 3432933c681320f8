// Fleet-scale configuration checking: one target, N user configs, each
// unique execution replayed once.
//
// The paper's end state is a vendor running the checker against the whole
// user base, not one file at a time. Real misconfiguration corpora are
// heavily duplicated — thousands of users copy the same broken snippet
// from the same forum post — so the fleet checker's job is to pay for
// each *unique* mistake once: suspects are extracted per config (the same
// BuildDynamicSuspects diff the single-config checker uses), deduplicated
// across configs by execution identity, replayed once per unique
// execution (claimed over the session worker pool), and the observed
// Table-3 verdict is fanned out to every config that contributed the
// suspect. Verdicts are bit-identical to N independent CheckConfig calls
// at every thread count — see the dedup identity guarantee below.
//
// The dedup identity guarantee: two suspects share one replay iff every
// replay-observable input matches — primary setting (param, value), the
// extra settings applied with it (content *and* application order; these
// determine both the applied config and the snapshot key-set), the
// numeric intent behind the value, and the ignore expectation. Those are
// exactly the Misconfiguration fields the campaign's execution and
// classification read; fields that only label the finding (kind, rule,
// constraint source location) are re-attributed per client by
// ReattributeResult instead of splitting the key, so a fanned-out result
// is field-for-field what a dedicated replay would have produced.
//
// Target::CheckConfigBatch (src/api/session.h) runs the whole loop; the
// types and the engine live here so tests and custom drivers can reach
// them without a Session.
#ifndef SPEX_API_BATCH_CHECK_H_
#define SPEX_API_BATCH_CHECK_H_

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "src/api/config_checker.h"
#include "src/inject/campaign.h"
#include "src/support/status.h"

namespace spex {

// One user configuration in a fleet batch. Plain value type: `name` is
// the report identity (file name, user id, ...), `text` the raw config
// content in the target's dialect.
struct ConfigInput {
  std::string name;
  std::string text;
};

// Options for one batch check. Freely copyable.
struct BatchOptions {
  // Mode and snapshot knob, applied to every config in the batch (the
  // same CheckOptions a single CheckConfig call takes).
  CheckOptions check;
  // Fan-out: 1 = serial on the calling thread (the default), 0 = the
  // session worker pool at its full width, N = N claimers, the calling
  // thread included. Verdicts and report order are identical for every
  // value.
  int num_threads = 1;
};

// Per-config result: the same Violation list a dedicated
// CheckConfig(text, name, options) call would return, plus the config's
// share of the batch bookkeeping.
struct ConfigReport {
  size_t index = 0;    // Position in the batch (== callback index).
  std::string name;    // ConfigInput::name, echoed for self-contained logs.
  std::vector<Violation> violations;
  // Replayable deviations this config contributed (0 in static mode).
  size_t suspects = 0;
  // Of those, how many were served by an execution another config in the
  // batch also needed — the per-config view of cross-config dedup.
  size_t shared_replays = 0;
  // Containment verdict. Errors are per-config, never per-batch: a config
  // that fails validation (kInvalidArgument — see ValidateConfigText) or
  // whose replays ran out of budget (kDeadlineExceeded) carries the error
  // here, and every *other* config's report is bit-identical to what it
  // would be with the poisoned config absent from the batch. An
  // kInvalidArgument config contributes no violations and no suspects; a
  // deadline-exceeded config keeps its static violations and whatever
  // verdicts completed in time.
  Status status;
};

// Batch-wide rollup. `reports` holds every ConfigReport in batch order;
// the counters are what a fleet dashboard plots.
struct BatchSummary {
  size_t configs_checked = 0;
  size_t configs_with_violations = 0;
  // Configs whose report carries a non-ok status (invalid input, replay
  // budget exhausted). Always <= configs_checked; a caller deciding
  // "did anything get checked at all" compares the two.
  size_t configs_with_errors = 0;
  size_t total_violations = 0;
  // Violations by static category, indexed by
  // static_cast<size_t>(ViolationCategory).
  std::array<size_t, kViolationCategoryCount> violations_by_category{};
  // Observed Table-3 verdicts across every (config, suspect) replay
  // fan-out, indexed by static_cast<size_t>(ReactionCategory); the
  // entries sum to total_suspects. All zero in static mode.
  std::array<size_t, kReactionCategoryCount> reactions_by_category{};
  // Suspect executions requested across all configs vs. actually replayed
  // after cross-config dedup *and* persistent-store hits: a unique
  // execution served from the verdict store is not a replay, so a fully
  // warm re-check reports unique_replays == 0.
  size_t total_suspects = 0;
  size_t unique_replays = 0;
  // Persistent verdict-store accounting (all zero when the target has no
  // store attached): unique executions served from disk without a replay,
  // looked up and missed (replayed live), and appended after the batch.
  size_t store_hits = 0;
  size_t store_misses = 0;
  size_t store_appends = 0;
  // Always 0: finalization runs after every replay of the batch has
  // finished. Kept only because the perfbench probe still reads it.
  size_t finalized_overlapped = 0;
  // Fraction of suspect replays saved by dedup + store: 1 - unique/total
  // (0.0 for an empty or static batch). ~0.7 on a fleet where 70% of
  // users share their misconfigurations; 1.0 on a fully warm re-check.
  double DedupRatio() const;

  std::vector<ConfigReport> reports;
};

// Streaming per-config callbacks — the fleet-scale complement to the
// batch summary (progress reporting, early alerting, JSON-lines writers).
// Callbacks arrive on the driver thread, strictly in batch order
// (`index` == 0, 1, ...), after the config's verdicts are final; the
// report reference is valid only during the call (the same object lands
// in BatchSummary::reports afterwards).
class BatchObserver {
 public:
  virtual ~BatchObserver() = default;
  virtual void OnBatchBegin(size_t total_configs) { (void)total_configs; }
  virtual void OnConfigChecked(size_t index, const ConfigReport& report) {
    (void)index;
    (void)report;
  }
  virtual void OnBatchEnd(const BatchSummary& summary) { (void)summary; }
};

// The execution identity two suspects must share to be served by one
// replay — SuspectExecutionKey — lives in src/inject/campaign.h now: the
// persistent VerdictStore keys on the same identity, so the key belongs
// next to the replay engine both consumers share.

// Syntactic admission check for untrusted config text. ConfigFile::Parse
// is deliberately lenient (a campaign replays whatever the user wrote);
// a *service* boundary wants the opposite: reject text that cannot mean
// anything in the dialect before paying for analysis. kKeyEqualsValue
// flags a settings line with no '=' or an empty key; kKeyValue accepts
// bare directives (Apache/Squid-style flag settings are legal). Returns
// Status::Ok or kInvalidArgument naming the first offending line.
Status ValidateConfigText(std::string_view text, ConfigDialect dialect);

// The batch engine behind Target::CheckConfigBatch. `campaign` carries
// the persistent snapshot cache and may be null for static-only batches
// (it is also ignored when options.check.mode is kStatic); `pool` may be
// null for serial runs. Phases 1 (analysis) and 3 (unique replays) claim
// their indices through ForEachIndex; phase 4 (fan-out and observer
// callbacks) runs after phase 3. The batch waits only for its own pool
// tasks, so other clients may use the same pool concurrently; it must not
// be called from a task of `pool` (thread_pool.h). Every config is
// checked against `constraints` + `template_config` exactly as a
// dedicated Target::CheckConfig call would check it.
BatchSummary RunBatchCheck(const ModuleConstraints& constraints,
                           const ConfigFile& template_config, ConfigDialect dialect,
                           InjectionCampaign* campaign, ThreadPool* pool,
                           std::span<const ConfigInput> configs, const BatchOptions& options,
                           BatchObserver* observer);

}  // namespace spex

#endif  // SPEX_API_BATCH_CHECK_H_
