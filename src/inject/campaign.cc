#include "src/inject/campaign.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <string_view>
#include <unordered_set>

#include "src/support/strings.h"
#include "src/support/thread_pool.h"
#include "src/support/verdict_store.h"

namespace spex {

size_t CampaignSummary::CountCategory(ReactionCategory category) const {
  size_t count = 0;
  for (const InjectionResult& result : results) {
    if (result.category == category) {
      ++count;
    }
  }
  return count;
}

std::array<size_t, kReactionCategoryCount> CampaignSummary::CategoryCounts() const {
  std::array<size_t, kReactionCategoryCount> counts{};
  for (const InjectionResult& result : results) {
    ++counts[static_cast<size_t>(result.category)];
  }
  return counts;
}

size_t CampaignSummary::TotalVulnerabilities() const {
  size_t count = 0;
  for (const InjectionResult& result : results) {
    if (IsVulnerability(result.category)) {
      ++count;
    }
  }
  return count;
}

size_t CampaignSummary::UniqueVulnerabilityLocations() const {
  std::unordered_set<std::string> locations;
  locations.reserve(results.size());
  for (const InjectionResult& result : results) {
    if (IsVulnerability(result.category)) {
      locations.insert(result.vulnerability_loc.IsValid() ? result.vulnerability_loc.LineKey()
                                                          : result.config.param);
    }
  }
  return locations.size();
}

namespace {

// Observable equality of two classified runs — the contract the snapshot
// path must uphold against ground truth.
bool SameInjectionResult(const InjectionResult& a, const InjectionResult& b) {
  return a.category == b.category && a.detail == b.detail && a.logs == b.logs &&
         a.pinpointed == b.pinpointed && a.tests_run == b.tests_run;
}

std::string KeysetId(const std::vector<std::string>& delta_keys) {
  std::vector<std::string> sorted = delta_keys;
  std::sort(sorted.begin(), sorted.end());
  return JoinStrings(sorted, "\n");
}

bool IsDeltaKey(const std::vector<std::string>& delta_keys, const std::string& key) {
  return std::find(delta_keys.begin(), delta_keys.end(), key) != delta_keys.end();
}

// The keys a misconfiguration changes relative to the template.
std::vector<std::string> DeltaKeys(const Misconfiguration& config) {
  std::vector<std::string> delta_keys;
  delta_keys.reserve(1 + config.extra_settings.size());
  delta_keys.push_back(config.param);
  for (const auto& [key, value] : config.extra_settings) {
    if (!IsDeltaKey(delta_keys, key)) {
      delta_keys.push_back(key);
    }
  }
  return delta_keys;
}

// Result for a replay that never ran (or was abandoned) because the
// request's token fired. Carries no logs and no test count: nothing about
// the target was observed.
InjectionResult SkippedResult(const Misconfiguration& config, const CancelToken& cancel) {
  InjectionResult result;
  result.config = config;
  result.vulnerability_loc = config.constraint_loc;
  result.category = ReactionCategory::kDeadlineExceeded;
  result.detail = cancel.reason() == CancelToken::Reason::kDeadline
                      ? "replay skipped: request deadline exceeded"
                      : "replay skipped: request cancelled";
  return result;
}

// Length-prefixed field encoding for the execution key: config keys and
// values are untrusted free text, so no separator character is safe —
// "<length>:<bytes>" is unambiguous for any content.
void AppendField(std::string* key, std::string_view field) {
  *key += std::to_string(field.size());
  *key += ':';
  *key += field;
}

// Projects a replay's observable behaviour into a store record. The five
// fields are exactly what SameInjectionResult compares and what
// ReattributeResult copies — the store round-trip and the within-batch
// dedup fan-out preserve verdicts by the same contract.
StoredVerdict ToStoredVerdict(const InjectionResult& result) {
  StoredVerdict verdict;
  verdict.category = static_cast<uint8_t>(result.category);
  verdict.pinpointed = result.pinpointed;
  verdict.tests_run = result.tests_run;
  verdict.detail = result.detail;
  verdict.logs = result.logs;
  return verdict;
}

InjectionResult ResultFromStored(const StoredVerdict& record,
                                 const Misconfiguration& client) {
  InjectionResult result;
  result.config = client;
  result.vulnerability_loc = client.constraint_loc;
  result.category = static_cast<ReactionCategory>(record.category);
  result.detail = record.detail;
  result.logs = record.logs;
  result.pinpointed = record.pinpointed;
  result.tests_run = record.tests_run;
  return result;
}

// A stored record is usable only when its category decodes to a real
// Table-3 verdict. kDeadlineExceeded never belongs in the store (it
// describes the checker's budget, not the target) and an out-of-range tag
// means a foreign/corrupt record; both degrade to a cache miss.
bool UsableStoredVerdict(const StoredVerdict& record) {
  return record.category < kReactionCategoryCount &&
         static_cast<ReactionCategory>(record.category) !=
             ReactionCategory::kDeadlineExceeded;
}

// What a verdict-store lookup did for one config of a replay pass.
enum class StoreLookup : uint8_t {
  kSkipped,   // Cancel-skipped before the lookup.
  kMissed,    // No usable record: replayed live, appended after.
  kServed,    // Result came straight from the store.
};

// Scoped attach of a request token to a worker's interpreter. The token is
// request state, the interpreter is campaign state — the guard guarantees
// the borrow never outlives the replay it belongs to.
class ScopedCancel {
 public:
  ScopedCancel(Interpreter& interp, const CancelToken* token) : interp_(interp) {
    interp_.set_cancel_token(token);
  }
  ~ScopedCancel() { interp_.set_cancel_token(nullptr); }
  ScopedCancel(const ScopedCancel&) = delete;
  ScopedCancel& operator=(const ScopedCancel&) = delete;

 private:
  Interpreter& interp_;
};

}  // namespace

InjectionCampaign::InjectionCampaign(const Module& module, const SutSpec& sut,
                                     OsSimulator os_template, CampaignOptions options)
    : module_(module), sut_(sut), os_template_(std::move(os_template)), options_(options) {
  if (options_.sort_tests_by_cost) {
    // Shortest-test-first: cheap tests surface failures sooner, which the
    // stop-at-first-failure optimization then exploits.
    std::stable_sort(sut_.tests.begin(), sut_.tests.end(),
                     [](const TestCase& a, const TestCase& b) {
                       return a.cost_hint < b.cost_hint;
                     });
  }
}

bool InjectionCampaign::ParsePhase(Interpreter& interp, const ConfigFile& config,
                                   const std::vector<std::string>* only_delta_keys,
                                   RunOutcome* outcome) const {
  for (const ConfigEntry& entry : config.entries()) {
    if (entry.kind != ConfigEntry::Kind::kSetting) {
      continue;
    }
    if (only_delta_keys != nullptr && !IsDeltaKey(*only_delta_keys, entry.key)) {
      continue;
    }
    CallOutcome call =
        interp.Call(sut_.parse_function,
                    {interp.InternedString(entry.key), interp.InternedString(entry.value)});
    if (call.status != CallOutcome::Status::kOk) {
      outcome->phase = RunOutcome::Phase::kParse;
      outcome->status = call.status;
      outcome->exit_code = call.exit_code;
      outcome->detail = call.trap_reason;
      return false;
    }
    if (call.return_value.AsInt() < 0) {
      outcome->phase = RunOutcome::Phase::kParse;
      outcome->rejected = true;
      outcome->detail = "configuration rejected while parsing '" + entry.key + "'";
      return false;
    }
  }
  return true;
}

void InjectionCampaign::InitAndTestPhases(Interpreter& interp, RunOutcome* outcome) const {
  // Phase 2: server initialization.
  {
    CallOutcome call = interp.Call(sut_.init_function, {});
    if (call.status != CallOutcome::Status::kOk) {
      outcome->phase = RunOutcome::Phase::kInit;
      outcome->status = call.status;
      outcome->exit_code = call.exit_code;
      outcome->detail = call.trap_reason;
      return;
    }
    if (call.return_value.AsInt() < 0) {
      outcome->phase = RunOutcome::Phase::kInit;
      outcome->rejected = true;
      outcome->detail = "server initialization failed";
      return;
    }
  }
  // Phase 3: functional tests.
  for (const TestCase& test : sut_.tests) {
    ++outcome->tests_run;
    CallOutcome call = interp.Call(test.function, {});
    if (call.status != CallOutcome::Status::kOk) {
      outcome->phase = RunOutcome::Phase::kTest;
      outcome->status = call.status;
      outcome->exit_code = call.exit_code;
      outcome->detail = call.trap_reason;
      outcome->failed_test = test.name;
      return;
    }
    if (call.return_value.AsInt() != test.expected) {
      outcome->phase = RunOutcome::Phase::kTest;
      outcome->failed_test = test.name;
      outcome->detail = "test '" + test.name + "' failed (got " +
                        std::to_string(call.return_value.AsInt()) + ", want " +
                        std::to_string(test.expected) + ")";
      if (options_.stop_at_first_failure) {
        return;
      }
    }
  }
  if (!outcome->failed_test.empty()) {
    outcome->phase = RunOutcome::Phase::kTest;
    return;
  }
  outcome->phase = RunOutcome::Phase::kDone;
}

InjectionCampaign::RunOutcome InjectionCampaign::Execute(Interpreter& interp,
                                                         const ConfigFile& config) const {
  RunOutcome outcome;
  if (!ParsePhase(interp, config, nullptr, &outcome)) {
    return outcome;
  }
  InitAndTestPhases(interp, &outcome);
  return outcome;
}

bool InjectionCampaign::LogsPinpoint(const std::vector<std::string>& logs,
                                     const Misconfiguration& config,
                                     const ConfigFile& applied) const {
  uint32_t line = applied.LineOf(config.param);
  std::string line_marker = "line " + std::to_string(line);
  // Needles that count as pinpointing: the parameter name, the injected
  // value, the config-line marker, and the extra settings applied with it
  // (control-dep master, relationship peer). Collected once instead of
  // re-assembled per log line, and matched case-insensitively throughout —
  // a log that echoes the value in different case still pinpoints it.
  std::vector<std::string_view> needles;
  needles.reserve(3 + config.extra_settings.size());
  needles.push_back(config.param);
  if (config.value.size() >= 2) {
    needles.push_back(config.value);
  }
  if (line != 0) {
    needles.push_back(line_marker);
  }
  for (const auto& [key, value] : config.extra_settings) {
    needles.push_back(key);
  }
  for (const std::string& log : logs) {
    for (std::string_view needle : needles) {
      if (ContainsSubstringIgnoreCase(log, needle)) {
        return true;
      }
    }
  }
  return false;
}

bool InjectionCampaign::BaselinePasses(const ConfigFile& template_config) {
  OsSimulator os = os_template_;
  Interpreter interp(module_, &os);
  RunOutcome outcome = Execute(interp, template_config);
  return outcome.phase == RunOutcome::Phase::kDone;
}

InjectionResult InjectionCampaign::RunOne(const ConfigFile& template_config,
                                          const Misconfiguration& config) {
  OsSimulator os = os_template_;
  Interpreter interp(module_, &os);
  // Single-shot: a prefix snapshot would cost exactly what it saves, so
  // RunOne always takes the ground-truth full-replay path.
  return RunOneWith(interp, os, nullptr, template_config, config);
}

CampaignCacheStats InjectionCampaign::cache_stats() const {
  CampaignCacheStats stats;
  stats.snapshots_built = stat_snapshots_built_.load(std::memory_order_relaxed);
  stats.delta_replays = stat_delta_replays_.load(std::memory_order_relaxed);
  stats.full_replays = stat_full_replays_.load(std::memory_order_relaxed);
  stats.verifications = stat_verifications_.load(std::memory_order_relaxed);
  stats.store_hits = stat_store_hits_.load(std::memory_order_relaxed);
  stats.store_misses = stat_store_misses_.load(std::memory_order_relaxed);
  stats.store_appends = stat_store_appends_.load(std::memory_order_relaxed);
  return stats;
}

InjectionResult InjectionCampaign::Classify(Interpreter& interp, const RunOutcome& outcome,
                                            const Misconfiguration& config,
                                            const ConfigFile& applied) const {
  InjectionResult result;
  result.config = config;
  result.vulnerability_loc = config.constraint_loc;
  result.logs = interp.logs();
  result.tests_run = outcome.tests_run;
  result.pinpointed = LogsPinpoint(result.logs, config, applied);

  // --- Classification per Table 3.
  if (outcome.status == CallOutcome::Status::kCancelled) {
    // Not a Table-3 verdict: the *request* ran out of time. Classified
    // before kHang on purpose — a cancelled run observed nothing about the
    // target and must never be reported as the target crashing or hanging.
    result.category = ReactionCategory::kDeadlineExceeded;
    result.detail = outcome.detail;
    result.pinpointed = false;
    return result;
  }
  if (outcome.status == CallOutcome::Status::kTrap ||
      outcome.status == CallOutcome::Status::kHang) {
    result.category = ReactionCategory::kCrashHang;
    result.detail = outcome.detail;
    return result;
  }
  if (outcome.status == CallOutcome::Status::kExit || outcome.rejected) {
    result.category =
        result.pinpointed ? ReactionCategory::kGoodReaction : ReactionCategory::kEarlyTermination;
    result.detail = outcome.detail;
    return result;
  }
  if (!outcome.failed_test.empty()) {
    result.category = result.pinpointed ? ReactionCategory::kGoodReaction
                                        : ReactionCategory::kFunctionalFailure;
    result.detail = outcome.detail;
    return result;
  }

  // Everything "worked". Look for silent violation / ignorance.
  auto storage_it = sut_.param_storage.find(config.param);
  if (config.expect_ignored) {
    bool read = storage_it != sut_.param_storage.end() &&
                interp.GlobalWasRead(storage_it->second);
    if (!read && !result.pinpointed) {
      result.category = ReactionCategory::kSilentIgnorance;
      // No storage mapping at all means the parser never claimed the key
      // (the unknown-directive case); with one, the dependent's storage
      // simply went unread.
      result.detail = storage_it != sut_.param_storage.end()
                          ? "dependent parameter was never consulted"
                          : "setting was never consulted";
      return result;
    }
    result.category = result.pinpointed ? ReactionCategory::kGoodReaction
                                        : ReactionCategory::kNoIssue;
    return result;
  }
  if (storage_it != sut_.param_storage.end() && !result.pinpointed) {
    auto effective = interp.ReadGlobal(storage_it->second);
    if (effective.has_value() && effective->kind != RtValue::Kind::kString &&
        effective->kind != RtValue::Kind::kNull) {
      int64_t actual = effective->AsInt();
      if (config.intended_numeric.has_value() && actual != *config.intended_numeric) {
        result.category = ReactionCategory::kSilentViolation;
        result.detail = "configured " + config.value + " but effective value is " +
                        std::to_string(actual);
        return result;
      }
      if (!config.intended_numeric.has_value()) {
        auto strict = ParseInt64(config.value);
        if (!strict.has_value()) {
          // Garbage accepted without a word: the atoi("not_a_number") -> 0
          // silent acceptance.
          result.category = ReactionCategory::kSilentViolation;
          result.detail = "non-numeric input silently accepted as " + std::to_string(actual);
          return result;
        }
      }
    } else if (effective.has_value() && effective->kind == RtValue::Kind::kString &&
               effective->str() != config.value) {
      result.category = ReactionCategory::kSilentViolation;
      result.detail = "configured \"" + config.value + "\" but effective value is \"" +
                      effective->str() + "\"";
      return result;
    }
  }
  result.category =
      result.pinpointed ? ReactionCategory::kGoodReaction : ReactionCategory::kNoIssue;
  return result;
}

InjectionResult InjectionCampaign::FullReplay(Interpreter& interp, OsSimulator& os,
                                              const ConfigFile& applied,
                                              const Misconfiguration& config,
                                              const CancelToken* cancel) const {
  if (cancel != nullptr && cancel->ShouldCancel()) {
    // Already out of budget: skip the replay outright rather than paying
    // for a poll interval of doomed execution.
    return SkippedResult(config, *cancel);
  }
  // Fresh template state: injected damage (occupied ports, allocations,
  // mutated globals) must never leak across runs.
  stat_full_replays_.fetch_add(1, std::memory_order_relaxed);
  os.RestoreFrom(os_template_);
  interp.Reset();
  ScopedCancel scoped(interp, cancel);
  RunOutcome outcome = Execute(interp, applied);
  return Classify(interp, outcome, config, applied);
}

namespace {

// Stamp used for the delta parse; build-time stamps are template positions
// + 1 and therefore far smaller.
constexpr int32_t kDeltaStamp = std::numeric_limits<int32_t>::max();

}  // namespace

std::optional<InjectionResult> InjectionCampaign::TryDeltaReplay(
    Interpreter& interp, OsSimulator& os, const std::string& keyset,
    const ConfigFile& template_config, const ConfigFile& applied,
    const Misconfiguration& config, const std::vector<std::string>& delta_keys,
    const CancelToken* cancel) const {
  SnapshotEntry* entry = nullptr;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(cache_.mutex);
    std::unique_ptr<SnapshotEntry>& slot = cache_.entries[keyset];
    if (slot == nullptr) {
      slot = std::make_unique<SnapshotEntry>();
      builder = true;
    }
    entry = slot.get();
  }
  if (builder) {
    // Parse the template minus the delta keys once; the resulting state is
    // the shared prefix for every misconfiguration of this key-set. Each
    // entry's parse runs under its position stamp so the snapshot carries
    // a per-global access map for the hazard check below.
    //
    // The request token is deliberately NOT attached here: the prefix is
    // template-only work — vendor-trusted input, bounded by kMaxSteps, and
    // shared by every later request of this key-set. Cancelling a build
    // mid-way would publish a half-parsed snapshot (or waste the build for
    // everyone because one caller was impatient); letting it finish keeps
    // the cache's contents independent of which request happened to arrive
    // first. The caller's budget still applies to *its own* replay below.
    os.RestoreFrom(os_template_);
    interp.Reset();
    bool ok = true;
    const std::vector<ConfigEntry>& entries = template_config.entries();
    for (size_t pos = 0; pos < entries.size(); ++pos) {
      const ConfigEntry& line = entries[pos];
      if (line.kind != ConfigEntry::Kind::kSetting || IsDeltaKey(delta_keys, line.key)) {
        continue;
      }
      interp.set_access_stamp(static_cast<int32_t>(pos) + 1);
      size_t logs_before = interp.log_count();
      int64_t os_before = interp.os_ops();
      int64_t stale_before = interp.stale_cell_ops();
      CallOutcome call =
          interp.Call(sut_.parse_function,
                      {interp.InternedString(line.key), interp.InternedString(line.value)});
      if (call.status != CallOutcome::Status::kOk || call.return_value.AsInt() < 0) {
        // The template itself misbehaves without the delta keys — treat
        // the key-set as order-sensitive.
        ok = false;
        break;
      }
      if (interp.log_count() > logs_before) {
        entry->max_log_pos = static_cast<int32_t>(pos);
      }
      if (interp.os_ops() > os_before) {
        entry->max_os_pos = static_cast<int32_t>(pos);
      }
      if (interp.stale_cell_ops() > stale_before) {
        entry->max_stale_pos = static_cast<int32_t>(pos);
      }
    }
    if (!ok) {
      entry->state.store(SnapshotEntry::kUnusable, std::memory_order_release);
    } else {
      entry->interp = interp.TakeSnapshot();
      entry->os = os;
      stat_snapshots_built_.fetch_add(1, std::memory_order_relaxed);
      entry->state.store(SnapshotEntry::kReady, std::memory_order_release);
    }
  }
  int state = entry->state.load(std::memory_order_acquire);
  if (state == SnapshotEntry::kBuilding || state == SnapshotEntry::kUnusable) {
    return std::nullopt;  // Another worker is mid-build, or permanent fallback.
  }
  if (cancel != nullptr && cancel->ShouldCancel()) {
    return std::nullopt;  // Out of budget; FullReplay short-circuits to a skip.
  }

  // Restore the shared prefix and replay only the delta settings, in the
  // order they hold in the applied file. The request token applies from
  // here on — this is the caller's own replay, not shared work.
  ScopedCancel scoped(interp, cancel);
  interp.RestoreSnapshot(entry->interp);
  os.RestoreFrom(entry->os);
  interp.set_access_stamp(kDeltaStamp);
  size_t delta_logs_before = interp.log_count();
  int64_t delta_os_before = interp.os_ops();
  int64_t delta_stale_before = interp.stale_cell_ops();
  RunOutcome outcome;
  if (!ParsePhase(interp, applied, &delta_keys, &outcome)) {
    // The delta parse itself rejected/trapped/hung the run. A full replay
    // stops mid-template with different residual logs and state, so this
    // outcome must come from the ground-truth path.
    return std::nullopt;
  }

  // Hazard check: the reordering moved the delta parse behind every entry
  // that follows it in the file. It is equivalence-preserving unless the
  // delta's dynamic accesses conflict with an entry after its file
  // position p: delta-write vs. suffix read/write, delta-read vs. suffix
  // write, interleaved log emission, OS traffic on both sides, or
  // escaped-&local cell traffic on both sides (those cells are not covered
  // by the per-global stamps; reaching one still requires loading the
  // escaped pointer from a global, and the traffic counter flags the
  // access itself). Any behavioral divergence has to start from one of
  // those conflicts, so a clean check proves this run bit-identical to the
  // in-order replay.
  int32_t p_min = 0;
  for (size_t pos = 0; pos < applied.entries().size(); ++pos) {
    const ConfigEntry& line = applied.entries()[pos];
    if (line.kind == ConfigEntry::Kind::kSetting && IsDeltaKey(delta_keys, line.key)) {
      p_min = static_cast<int32_t>(pos);
      break;
    }
  }
  const int32_t threshold = p_min + 1;  // Build stamps are position + 1.
  const std::vector<int32_t>& reads = interp.global_read_stamps();
  const std::vector<int32_t>& writes = interp.global_write_stamps();
  const std::vector<int32_t>& build_reads = entry->interp.read_stamps();
  const std::vector<int32_t>& build_writes = entry->interp.write_stamps();
  bool hazard = false;
  for (size_t slot = 0; slot < writes.size() && !hazard; ++slot) {
    bool delta_read = reads[slot] == kDeltaStamp;
    bool delta_wrote = writes[slot] == kDeltaStamp;
    hazard = (delta_wrote &&
              (build_reads[slot] > threshold || build_writes[slot] > threshold)) ||
             (delta_read && build_writes[slot] > threshold);
  }
  if (interp.log_count() > delta_logs_before && entry->max_log_pos > p_min) {
    hazard = true;  // Both sides logged: line order would interleave.
  }
  if (interp.os_ops() > delta_os_before && entry->max_os_pos > p_min) {
    hazard = true;
  }
  if (interp.stale_cell_ops() > delta_stale_before && entry->max_stale_pos > p_min) {
    hazard = true;
  }
  if (hazard) {
    // Conflicts are a property of the handlers, not of the injected value,
    // so pin the key-set to full replay instead of re-detecting per run.
    entry->state.store(SnapshotEntry::kUnusable, std::memory_order_release);
    return std::nullopt;
  }

  InitAndTestPhases(interp, &outcome);
  InjectionResult result = Classify(interp, outcome, config, applied);
  if (outcome.status == CallOutcome::Status::kCancelled) {
    // The request ran out of time mid-delta. The result says nothing about
    // the target, so it must not feed the verification bookkeeping: no
    // verified_batch advance (the key-set's first *completed* replay this
    // batch still gets ground-truthed) and no delta-replay stat.
    return result;
  }

  const uint64_t batch = batch_id_.load(std::memory_order_relaxed);
  if (state == SnapshotEntry::kReady ||
      entry->verified_batch.load(std::memory_order_acquire) != batch) {
    // First use of this key-set in this batch: additionally prove the
    // replay observably identical to ground truth. Re-verifying once per
    // batch keeps a persistent cache exactly as safe as a per-batch one —
    // a value-dependent divergence that only a new batch's values expose
    // is caught on that batch's first use. kUnusable is sticky
    // (compare-exchange), so a divergence seen by any worker pins the
    // key-set to full replay.
    stat_verifications_.fetch_add(1, std::memory_order_relaxed);
    InjectionResult full = FullReplay(interp, os, applied, config, cancel);
    if (full.category == ReactionCategory::kDeadlineExceeded) {
      // The *verification* replay was cancelled, not refuted: the delta
      // result may well be ground-truth-identical, we just ran out of time
      // proving it. Surface the timeout, but leave the entry untouched —
      // marking it kUnusable would let a request's deadline permanently
      // degrade a shared cache that served every earlier request
      // bit-identically.
      return full;
    }
    if (!SameInjectionResult(result, full)) {
      entry->state.store(SnapshotEntry::kUnusable, std::memory_order_release);
      return full;
    }
    int expected = SnapshotEntry::kReady;
    entry->state.compare_exchange_strong(expected, SnapshotEntry::kVerified,
                                         std::memory_order_release,
                                         std::memory_order_relaxed);
    entry->verified_batch.store(batch, std::memory_order_release);
  }
  stat_delta_replays_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

InjectionResult InjectionCampaign::RunOneWith(Interpreter& interp, OsSimulator& os,
                                              const std::string* keyset,
                                              const ConfigFile& template_config,
                                              const Misconfiguration& config,
                                              const CancelToken* cancel) const {
  ConfigFile applied = template_config;
  applied.Set(config.param, config.value);
  for (const auto& [key, value] : config.extra_settings) {
    applied.Set(key, value);
  }

  if (keyset != nullptr) {
    auto replayed = TryDeltaReplay(interp, os, *keyset, template_config, applied, config,
                                   DeltaKeys(config), cancel);
    if (replayed.has_value()) {
      return *std::move(replayed);
    }
  }
  return FullReplay(interp, os, applied, config, cancel);
}

InjectionCampaign::ProbeLease::ProbeLease(InjectionCampaign* campaign) : campaign_(campaign) {
  std::lock_guard<std::mutex> lock(campaign_->probe_mutex_);
  if (campaign_->probe_contexts_.empty()) {
    context_ = std::make_unique<WorkerContext>(campaign_->module_, campaign_->os_template_);
  } else {
    context_ = std::move(campaign_->probe_contexts_.back());
    campaign_->probe_contexts_.pop_back();
  }
}

InjectionCampaign::ProbeLease::~ProbeLease() {
  std::lock_guard<std::mutex> lock(campaign_->probe_mutex_);
  campaign_->probe_contexts_.push_back(std::move(context_));
}

InjectionResult ReattributeResult(const InjectionResult& base, const Misconfiguration& client) {
  InjectionResult result = base;
  result.config = client;
  result.vulnerability_loc = client.constraint_loc;
  return result;
}

std::string SuspectExecutionKey(const Misconfiguration& suspect) {
  // Every replay-observable input, nothing else: the applied settings in
  // application order (they fix the applied config and the snapshot
  // key-set), the numeric intent (the silent-violation comparison point)
  // and the ignore expectation (the silent-ignorance branch selector).
  // Label-only fields (kind, rule, constraint_loc) are deliberately
  // absent — ReattributeResult restores them per client after the shared
  // replay.
  std::string key;
  key.reserve(suspect.param.size() + suspect.value.size() + 24);
  AppendField(&key, suspect.param);
  AppendField(&key, suspect.value);
  for (const auto& [extra_key, extra_value] : suspect.extra_settings) {
    AppendField(&key, extra_key);
    AppendField(&key, extra_value);
  }
  AppendField(&key, suspect.intended_numeric.has_value()
                        ? std::to_string(*suspect.intended_numeric)
                        : "~");
  key += suspect.expect_ignored ? '1' : '0';
  return key;
}

void InjectionCampaign::AttachVerdictStore(std::shared_ptr<VerdictStore> store,
                                           std::string scope) {
  std::lock_guard<std::mutex> lock(store_mutex_);
  store_ = std::move(store);
  store_scope_ = std::move(scope);
}

std::shared_ptr<VerdictStore> InjectionCampaign::verdict_store() const {
  std::lock_guard<std::mutex> lock(store_mutex_);
  return store_;
}

// One batch moving through ReplayIndex: the inputs, the per-config plan
// and the pre-sized slots every claimer writes at its own indices.
struct InjectionCampaign::ReplayPass {
  ReplayPass(const ConfigFile& template_config, const std::vector<Misconfiguration>& configs)
      : template_config(template_config), configs(configs), results(configs.size()) {}
  ReplayPass(const ReplayPass&) = delete;  // `keysets` points into `keyset_ids`.
  ReplayPass& operator=(const ReplayPass&) = delete;

  // Makes every config eligible for the snapshot path.
  void PlanAllKeysets() {
    keyset_ids.reserve(configs.size());  // No reallocation: keysets point in.
    for (const Misconfiguration& config : configs) {
      keyset_ids.push_back(KeysetId(DeltaKeys(config)));
      keysets.push_back(&keyset_ids.back());
    }
  }

  const ConfigFile& template_config;
  const std::vector<Misconfiguration>& configs;
  std::vector<std::string> keyset_ids;
  std::vector<const std::string*> keysets;  // Per config; empty or null = full replay.
  ReplayLimits limits;
  std::function<void(size_t)> on_result;  // Called once per written slot.

  // Attached verdict store, snapshotted for this pass (null = none). The
  // per-config bookkeeping is read back by ReplayExternal after the loop.
  std::shared_ptr<VerdictStore> store;
  uint64_t scope_id = 0;
  std::vector<std::string> store_keys;
  std::vector<StoreLookup> lookups;

  std::vector<InjectionResult> results;
};

void InjectionCampaign::ReplayIndex(ReplayPass& pass, size_t i) {
  const Misconfiguration& config = pass.configs[i];
  InjectionResult& result = pass.results[i];
  const ReplayLimits& limits = pass.limits;
  if (limits.cancel != nullptr && limits.cancel->ShouldCancel()) {
    // Request-wide token fired: every config not yet replayed is skipped,
    // cheaply and uniformly — the claim is the coarse cancellation point,
    // the interpreter poll the fine one.
    result = SkippedResult(config, *limits.cancel);
  } else if (!ServeFromStore(pass, i)) {
    // Child token per replay: the per-replay deadline restarts for each
    // config (one pathological replay burns its own budget, not the
    // others'), while a fired parent still cancels everything.
    std::optional<CancelToken> per_replay;
    if (limits.active()) {
      per_replay.emplace(limits.cancel);
      if (limits.per_replay_deadline.count() > 0) {
        per_replay->ArmDeadlineAfter(limits.per_replay_deadline);
      }
    }
    // One leased context per replay: leases are what make concurrent
    // claimers (and concurrent RunAll / ReplayExternal callers) safe.
    ProbeLease probe(this);
    WorkerContext& context = probe.context();
    result = RunOneWith(context.interp, context.os,
                        pass.keysets.empty() ? nullptr : pass.keysets[i],
                        pass.template_config, config, per_replay ? &*per_replay : nullptr);
  }
  if (pass.on_result) {
    pass.on_result(i);
  }
}

bool InjectionCampaign::ServeFromStore(ReplayPass& pass, size_t i) const {
  if (pass.store == nullptr) {
    return false;
  }
  pass.store_keys[i] = SuspectExecutionKey(pass.configs[i]);
  pass.lookups[i] = StoreLookup::kMissed;
  StoredVerdict record;
  if (!pass.store->Lookup(pass.scope_id, pass.store_keys[i], &record) ||
      !UsableStoredVerdict(record)) {
    return false;
  }
  pass.results[i] = ResultFromStored(record, pass.configs[i]);
  pass.lookups[i] = StoreLookup::kServed;
  return true;
}

std::vector<InjectionResult> InjectionCampaign::ReplayExternal(
    const ConfigFile& template_config, const std::vector<Misconfiguration>& configs,
    bool use_parse_snapshot, const ReplayLimits& limits, ReplayStats* stats, ThreadPool* pool,
    size_t workers) {
  ReplayPass pass(template_config, configs);
  pass.limits = limits;
  // A user-config check is worth the snapshot path even for a key-set seen
  // once: the campaign persists, so the entry pays for itself on the next
  // check of the same keys (an embedded checker sees the same handful of
  // misconfigured settings over and over). The template is serialized
  // once per call, on purpose: a cheaper pointer-identity fast path would
  // silently validate a *different* template whose stack slot reused a
  // previous one's address, and the serialization is not measurable next
  // to even a warm check's replay (BM_DynamicCheckWarm is unchanged with
  // or without it). The same string is the cache check and the store scope.
  const std::string fingerprint = template_config.Serialize();
  if (use_parse_snapshot && CacheServes(fingerprint)) {
    pass.PlanAllKeysets();
  }

  // Snapshot the attached store (the pair may be swapped concurrently).
  // The scope fingerprint folds the template serialization into the
  // caller-provided scope, so a template edit lands in a fresh, empty
  // scope — cached verdicts can never outlive the template they were
  // observed against.
  {
    std::lock_guard<std::mutex> lock(store_mutex_);
    pass.store = store_;
    if (pass.store != nullptr) {
      pass.scope_id = pass.store->ResolveScope(store_scope_ + '\0' + fingerprint);
    }
  }
  if (pass.store != nullptr) {
    pass.store_keys.resize(configs.size());
    pass.lookups.assign(configs.size(), StoreLookup::kSkipped);
  }

  ForEachIndex(pool, configs.size(), workers, [&](size_t i) { ReplayIndex(pass, i); });

  // Store epilogue: account hits and persist fresh verdicts in one batched
  // append. kDeadlineExceeded results — timeouts and cancel-skips alike —
  // are never stored: they say the checker ran out of time, not what the
  // target does, and caching one would freeze a transient budget miss into
  // a permanent wrong answer.
  ReplayStats call_stats;
  if (pass.store != nullptr) {
    std::vector<VerdictAppend> pending;
    for (size_t i = 0; i < configs.size(); ++i) {
      if (pass.lookups[i] == StoreLookup::kSkipped) continue;
      if (pass.lookups[i] == StoreLookup::kServed) {
        ++call_stats.store_hits;
        continue;
      }
      const InjectionResult& result = pass.results[i];
      ++call_stats.store_misses;
      if (result.category == ReactionCategory::kDeadlineExceeded) continue;
      pending.push_back({pass.scope_id, pass.store_keys[i], ToStoredVerdict(result)});
    }
    call_stats.store_appends = pass.store->AppendBatch(std::move(pending));
    stat_store_hits_.fetch_add(call_stats.store_hits, std::memory_order_relaxed);
    stat_store_misses_.fetch_add(call_stats.store_misses, std::memory_order_relaxed);
    stat_store_appends_.fetch_add(call_stats.store_appends, std::memory_order_relaxed);
  }
  if (stats != nullptr) {
    *stats = call_stats;
  }
  return std::move(pass.results);
}

bool InjectionCampaign::CacheServes(const std::string& fingerprint) {
  std::lock_guard<std::mutex> lock(cache_.mutex);
  if (!cache_.template_fingerprint.has_value()) {
    cache_.template_fingerprint = fingerprint;
  }
  return *cache_.template_fingerprint == fingerprint;
}

CampaignSummary InjectionCampaign::RunAll(const ConfigFile& template_config,
                                          const std::vector<Misconfiguration>& configs,
                                          CampaignObserver* observer, ThreadPool* pool,
                                          size_t workers) {
  // One RunAll at a time per campaign: the batch id is per-batch state.
  // Other campaigns are unaffected.
  std::lock_guard<std::mutex> one_at_a_time(run_all_mutex_);
  batch_id_.fetch_add(1, std::memory_order_relaxed);
  ReplayPass pass(template_config, configs);

  // Per-batch key-set plan. Building a snapshot costs about one full
  // replay, so a key-set is worth the snapshot path only when this batch
  // revisits it — or when an earlier batch already paid for the entry.
  if (CacheServes(template_config.Serialize())) {
    pass.PlanAllKeysets();
    std::unordered_map<std::string_view, size_t> keyset_counts;
    keyset_counts.reserve(configs.size());
    for (const std::string& id : pass.keyset_ids) {
      ++keyset_counts[id];
    }
    std::lock_guard<std::mutex> lock(cache_.mutex);
    for (size_t i = 0; i < configs.size(); ++i) {
      const std::string& id = pass.keyset_ids[i];
      if (keyset_counts[id] < 2 && cache_.entries.count(id) == 0) {
        pass.keysets[i] = nullptr;
      }
    }
  }

  std::mutex observer_mutex;
  if (observer != nullptr) {
    observer->OnCampaignBegin(configs.size());
    pass.on_result = [&](size_t index) {
      // Serialized: observers see one completed run at a time, in
      // completion order (== batch order on the serial path).
      std::lock_guard<std::mutex> lock(observer_mutex);
      observer->OnRunComplete(index, pass.results[index]);
    };
  }

  // Claimed indices into pre-sized slots: result order — and therefore
  // every summary statistic — is identical for every worker count. This
  // call waits only for its own claimers (the calling thread is one).
  ForEachIndex(pool, configs.size(), workers, [&](size_t i) { ReplayIndex(pass, i); });

  CampaignSummary summary;
  summary.results = std::move(pass.results);
  for (const InjectionResult& result : summary.results) {
    summary.total_tests_run += result.tests_run;
  }
  if (observer != nullptr) {
    observer->OnCampaignEnd(summary);
  }
  return summary;
}

}  // namespace spex
