#include "src/api/batch_check.h"

#include <unordered_map>
#include <utility>

#include "src/api/dynamic_check.h"
#include "src/support/strings.h"

namespace spex {

double BatchSummary::DedupRatio() const {
  if (total_suspects == 0) {
    return 0.0;
  }
  return 1.0 - static_cast<double>(unique_replays) / static_cast<double>(total_suspects);
}

Status ValidateConfigText(std::string_view text, ConfigDialect dialect) {
  uint32_t line_number = 0;
  for (const std::string& raw_line : SplitString(text, '\n')) {
    ++line_number;
    std::string_view line = TrimWhitespace(raw_line);
    if (line.empty() || line[0] == '#' || line[0] == ';') {
      continue;
    }
    if (dialect != ConfigDialect::kKeyEqualsValue) {
      continue;  // Bare directives are legal key-value dialect.
    }
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": settings line has no '='");
    }
    if (TrimWhitespace(line.substr(0, eq)).empty()) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": settings line has an empty key");
    }
  }
  return Status::Ok();
}

BatchSummary RunBatchCheck(const ModuleConstraints& constraints,
                           const ConfigFile& template_config, ConfigDialect dialect,
                           InjectionCampaign* campaign, ThreadPool* pool,
                           std::span<const ConfigInput> configs, const BatchOptions& options,
                           BatchObserver* observer) {
  const size_t count = configs.size();
  if (observer != nullptr) {
    observer->OnBatchBegin(count);
  }
  const bool dynamic = campaign != nullptr && options.check.mode == CheckMode::kDynamic;

  // --- Phase 1 (claimed): parse, static check and suspect extraction are
  // independent per config — pure functions into pre-sized slots. A config
  // that fails validation is contained right here: its slot carries the
  // error and contributes nothing downstream, so the poisoned entry is
  // invisible to every other config's phases (dedup, replay, fan-out).
  struct PerConfig {
    ConfigFile parsed;
    std::vector<Violation> violations;
    std::vector<Misconfiguration> suspects;
    std::vector<size_t> unique_index;  // Parallel to suspects.
    Status status;
  };
  std::vector<PerConfig> state(count);
  const size_t requested_workers =
      options.num_threads == 0 && pool != nullptr
          ? pool->size()
          : ThreadPool::ResolveThreadCount(
                options.num_threads < 0 ? 1 : static_cast<size_t>(options.num_threads));
  ForEachIndex(pool, count, requested_workers, [&](size_t i) {
    PerConfig& slot = state[i];
    slot.status = ValidateConfigText(configs[i].text, dialect);
    if (!slot.status.ok()) {
      return;
    }
    slot.parsed = ConfigFile::Parse(configs[i].text, dialect);
    slot.violations = CheckConfigFile(constraints, slot.parsed, configs[i].name);
    if (dynamic) {
      slot.suspects =
          BuildDynamicSuspects(constraints, template_config, slot.parsed, slot.violations);
    }
  });

  // --- Phase 2 (driver thread): dedup suspects across configs by
  // execution identity. First occurrence becomes the representative the
  // campaign replays; everyone else records its unique index.
  std::vector<Misconfiguration> unique;
  std::vector<size_t> use_count;
  std::unordered_map<std::string, size_t> index_of;
  for (PerConfig& slot : state) {
    slot.unique_index.reserve(slot.suspects.size());
    for (const Misconfiguration& suspect : slot.suspects) {
      auto [it, inserted] = index_of.emplace(SuspectExecutionKey(suspect), unique.size());
      if (inserted) {
        unique.push_back(suspect);
        use_count.push_back(0);
      }
      slot.unique_index.push_back(it->second);
      ++use_count[it->second];
    }
  }

  // --- Phase 3 (claimed): each unique execution replays exactly once,
  // through the campaign's persistent snapshot cache (and, when a verdict
  // store is attached, only when the store has never seen the execution).
  // The per-replay deadline applies to each *unique* execution — a
  // deduplicated replay that times out reports kDeadlineExceeded to every
  // config that contributed it, exactly as N independent timed-out checks
  // would.
  std::vector<InjectionResult> unique_results;
  ReplayStats replay_stats;
  if (!unique.empty()) {  // Only a dynamic batch has suspects.
    ReplayLimits limits;
    limits.cancel = options.check.cancel;
    limits.per_replay_deadline = options.check.deadline;
    unique_results = campaign->ReplayExternal(template_config, unique,
                                              options.check.use_parse_snapshot, limits,
                                              &replay_stats, pool, requested_workers);
  }

  // --- Phase 4 (driver thread, batch order): fan each unique verdict out
  // to the configs that contributed it, attach reactions, stream the
  // report. Serial on purpose: observer callbacks are ordered and the
  // fan-out is copies, not execution.
  BatchSummary summary;
  summary.configs_checked = count;
  summary.reports.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    PerConfig& slot = state[i];
    if (!slot.suspects.empty()) {
      std::vector<InjectionResult> results;
      results.reserve(slot.suspects.size());
      size_t timed_out = 0;
      for (size_t j = 0; j < slot.suspects.size(); ++j) {
        results.push_back(
            ReattributeResult(unique_results[slot.unique_index[j]], slot.suspects[j]));
        if (results.back().category == ReactionCategory::kDeadlineExceeded) {
          ++timed_out;
        }
      }
      AttachReactions(slot.suspects, results, slot.parsed, configs[i].name, &slot.violations);
      for (const InjectionResult& result : results) {
        ++summary.reactions_by_category[static_cast<size_t>(result.category)];
      }
      if (timed_out > 0) {
        // The config's static findings and in-budget verdicts stand; the
        // status says the dynamic picture is incomplete and why.
        slot.status = Status::DeadlineExceeded(
            std::to_string(timed_out) + " of " + std::to_string(slot.suspects.size()) +
            " suspect replays exceeded the request budget");
      }
    }

    ConfigReport report;
    report.index = i;
    report.name = configs[i].name;
    report.suspects = slot.suspects.size();
    report.status = std::move(slot.status);
    for (size_t unique_idx : slot.unique_index) {
      if (use_count[unique_idx] > 1) {
        ++report.shared_replays;
      }
    }
    report.violations = std::move(slot.violations);

    summary.total_suspects += report.suspects;
    summary.total_violations += report.violations.size();
    if (!report.violations.empty()) {
      ++summary.configs_with_violations;
    }
    if (!report.status.ok()) {
      ++summary.configs_with_errors;
    }
    for (const Violation& violation : report.violations) {
      ++summary.violations_by_category[static_cast<size_t>(violation.category)];
    }
    if (observer != nullptr) {
      observer->OnConfigChecked(i, report);
    }
    summary.reports.push_back(std::move(report));
  }
  // A unique execution served from the persistent store never replayed:
  // a fully warm re-check reports unique_replays == 0 (and DedupRatio 1.0).
  summary.unique_replays = unique.size() - replay_stats.store_hits;
  summary.store_hits = replay_stats.store_hits;
  summary.store_misses = replay_stats.store_misses;
  summary.store_appends = replay_stats.store_appends;
  if (observer != nullptr) {
    observer->OnBatchEnd(summary);
  }
  return summary;
}

}  // namespace spex
