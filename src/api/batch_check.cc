#include "src/api/batch_check.h"

#include <algorithm>
#include <atomic>
#include <optional>
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

  // --- Phase 1 (sharded): parse, static check and suspect extraction are
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
  auto analyze_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      PerConfig& slot = state[i];
      slot.status = ValidateConfigText(configs[i].text, dialect);
      if (!slot.status.ok()) {
        continue;
      }
      slot.parsed = ConfigFile::Parse(configs[i].text, dialect);
      slot.violations = CheckConfigFile(constraints, slot.parsed, configs[i].name);
      if (dynamic) {
        slot.suspects =
            BuildDynamicSuspects(constraints, template_config, slot.parsed, slot.violations);
      }
    }
  };
  const size_t requested_workers =
      options.num_threads == 0 && pool != nullptr
          ? pool->size()
          : ThreadPool::ResolveThreadCount(
                options.num_threads < 0 ? 1 : static_cast<size_t>(options.num_threads));
  if (pool == nullptr) {
    analyze_range(0, count);
  } else {
    pool->ShardRange(count, requested_workers, analyze_range);
  }

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

  // --- Phase 3: each unique execution replays exactly once, through the
  // campaign's persistent snapshot cache (and, when a verdict store is
  // attached, only when the store has never seen the execution).
  //
  // With a pool and >1 workers the shards are submitted *without* a
  // barrier: phase 4 starts finalizing configs as soon as the shards
  // covering *their* unique executions land, so batch latency is
  // dominated by the slowest chain of unique replays a config actually
  // needs, not by the whole batch's slowest shard. The serial path keeps
  // the single blocking call.
  std::vector<InjectionResult> unique_results(unique.size());
  ReplayStats replay_stats;
  ReplayLimits limits;
  limits.cancel = options.check.cancel;
  limits.per_replay_deadline = options.check.deadline;

  const bool pipelined =
      dynamic && !unique.empty() && pool != nullptr && requested_workers > 1;
  size_t shard_count = 0;
  std::vector<size_t> shard_begin;  // shard j covers [begin[j], begin[j+1]).
  std::vector<ReplayStats> shard_stats;
  std::vector<std::atomic<bool>> shard_done;  // Set (and notified) once per shard.
  std::atomic<size_t> shards_running{0};
  std::optional<ThreadPool::TaskGroup> replays;  // The pipelined shards.

  if (dynamic && !unique.empty() && !pipelined) {
    // The per-replay deadline applies to each *unique* execution — a
    // deduplicated replay that times out reports kDeadlineExceeded to
    // every config that contributed it, exactly as N independent
    // timed-out checks would.
    unique_results = campaign->ReplayExternal(template_config, unique,
                                              options.check.use_parse_snapshot, limits,
                                              &replay_stats);
  } else if (pipelined) {
    shard_count = std::min(requested_workers, unique.size());
    shard_begin.resize(shard_count + 1);
    const size_t base = unique.size() / shard_count;
    const size_t extra = unique.size() % shard_count;
    size_t pos = 0;
    for (size_t j = 0; j < shard_count; ++j) {
      shard_begin[j] = pos;
      pos += base + (j < extra ? 1 : 0);
    }
    shard_begin[shard_count] = pos;
    shard_stats.resize(shard_count);
    shard_done = std::vector<std::atomic<bool>>(shard_count);
    shards_running.store(shard_count, std::memory_order_release);
    replays.emplace(*pool);
    for (size_t j = 0; j < shard_count; ++j) {
      // Each shard is an independent ReplayExternal call — that entry
      // point is explicitly safe from any number of threads, and per-slot
      // writes into unique_results are disjoint by construction.
      replays->Submit([&, j] {
        std::vector<Misconfiguration> slice(unique.begin() + shard_begin[j],
                                            unique.begin() + shard_begin[j + 1]);
        std::vector<InjectionResult> part = campaign->ReplayExternal(
            template_config, slice, options.check.use_parse_snapshot, limits,
            &shard_stats[j]);
        std::move(part.begin(), part.end(), unique_results.begin() + shard_begin[j]);
        shards_running.fetch_sub(1, std::memory_order_acq_rel);
        shard_done[j].store(true, std::memory_order_release);
        shard_done[j].notify_all();
      });
    }
  }
  auto shard_of = [&](size_t unique_idx) {
    return static_cast<size_t>(std::upper_bound(shard_begin.begin(), shard_begin.end(),
                                                unique_idx) -
                               shard_begin.begin()) -
           1;
  };

  // --- Phase 4 (driver thread, batch order): fan each unique verdict out
  // to the configs that contributed it, attach reactions, stream the
  // report. Serial on purpose: observer callbacks are ordered and the
  // fan-out is copies, not execution. On the pipelined path each config
  // waits only for the shards holding *its* unique executions.
  BatchSummary summary;
  summary.configs_checked = count;
  summary.reports.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    PerConfig& slot = state[i];
    if (!slot.suspects.empty()) {
      for (size_t unique_idx : slot.unique_index) {
        if (pipelined) {
          shard_done[shard_of(unique_idx)].wait(false, std::memory_order_acquire);
        }
      }
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
    if (pipelined && shards_running.load(std::memory_order_acquire) > 0) {
      // This config's report went out while replays were still running
      // elsewhere in the batch: finalization genuinely overlapped.
      ++summary.finalized_overlapped;
    }
  }
  if (pipelined) {
    // Every unique execution belongs to some config, so the shards have
    // all published by now; the group wait makes sure their tasks have
    // also returned before the stack they reference goes away.
    replays->Wait();
    for (const ReplayStats& shard : shard_stats) {
      replay_stats.store_hits += shard.store_hits;
      replay_stats.store_misses += shard.store_misses;
      replay_stats.store_appends += shard.store_appends;
    }
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
