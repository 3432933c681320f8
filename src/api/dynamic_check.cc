#include "src/api/dynamic_check.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory_resource>
#include <unordered_set>

namespace spex {

namespace {

int64_t TimeUnitInMicros(TimeUnit unit) {
  switch (unit) {
    case TimeUnit::kMicroseconds:
      return 1;
    case TimeUnit::kMilliseconds:
      return 1'000;
    case TimeUnit::kSeconds:
      return 1'000'000;
    case TimeUnit::kMinutes:
      return 60'000'000;
    case TimeUnit::kHours:
      return 3'600'000'000LL;
    case TimeUnit::kNone:
      break;
  }
  return 1'000'000;  // Treat unitless as seconds, the common config base.
}

int64_t SizeUnitInBytes(SizeUnit unit) {
  switch (unit) {
    case SizeUnit::kBytes:
      return 1;
    case SizeUnit::kKilobytes:
      return 1024;
    case SizeUnit::kMegabytes:
      return 1024 * 1024;
    case SizeUnit::kGigabytes:
      return 1024LL * 1024 * 1024;
    case SizeUnit::kNone:
      break;
  }
  return 1;  // Treat unitless as bytes.
}

// `magnitude * factor / divisor` with overflow detection — config text is
// untrusted input, and "9999999999h" must not be signed-overflow UB inside
// the checker. nullopt when the user's intent has no int64 representation
// (which also correctly suppresses the silent-violation comparison).
std::optional<int64_t> ScaledIntent(int64_t magnitude, int64_t factor, int64_t divisor) {
  int64_t scaled = 0;
  if (__builtin_mul_overflow(magnitude, factor, &scaled)) {
    return std::nullopt;
  }
  return scaled / divisor;
}

// What a user writing `value` means numerically, in the parameter's own
// unit. A "500ms" on a seconds parameter means 0 (integer scale-down): the
// honest comparison point for the silent-violation check, since the parser
// will read 500 and be off by the scale factor.
std::optional<int64_t> IntendedNumeric(const ParamConstraints* param, const std::string& value) {
  auto effective = EffectiveConfigInt(value);
  if (effective.has_value()) {
    return effective;
  }
  auto suffixed = ParseSuffixedConfigValue(value);
  if (!suffixed.has_value()) {
    return std::nullopt;
  }
  TimeUnit param_time = param != nullptr ? param->time_unit : TimeUnit::kNone;
  SizeUnit param_size = param != nullptr ? param->size_unit : SizeUnit::kNone;
  // Prefer the interpretation matching the parameter's inferred unit kind
  // (the bare "m" suffix is both minutes and megabytes).
  if (suffixed->time_unit != TimeUnit::kNone &&
      (param_time != TimeUnit::kNone || suffixed->size_unit == SizeUnit::kNone)) {
    return ScaledIntent(suffixed->magnitude, TimeUnitInMicros(suffixed->time_unit),
                        TimeUnitInMicros(param_time));
  }
  if (suffixed->size_unit != SizeUnit::kNone) {
    return ScaledIntent(suffixed->magnitude, SizeUnitInBytes(suffixed->size_unit),
                        param_size != SizeUnit::kNone ? SizeUnitInBytes(param_size) : 1);
  }
  return std::nullopt;
}

bool IsAcceptedEnumWord(const ParamConstraints* param, const std::string& value) {
  if (param == nullptr || !param->range.has_value() || !param->range->is_enum) {
    return false;
  }
  const std::vector<std::string>& accepted = param->range->enum_strings;
  return std::find(accepted.begin(), accepted.end(), value) != accepted.end();
}

// One-sentence "what the system will do with this setting" message for an
// observed reaction ("the system will silently use a different effective
// value (configured 99 but effective value is 64)").
std::string DescribeReaction(const InjectionResult& result) {
  std::string detail = result.detail.empty() ? "" : " (" + result.detail + ")";
  switch (result.category) {
    case ReactionCategory::kCrashHang:
      return "the system will crash or hang" + detail;
    case ReactionCategory::kEarlyTermination:
      return "the system will terminate at startup without pinpointing this setting" + detail;
    case ReactionCategory::kFunctionalFailure:
      return "the system will start, then fail later without pinpointing this setting" +
             detail;
    case ReactionCategory::kSilentViolation:
      return "the system will silently use a different value than configured" + detail;
    case ReactionCategory::kSilentIgnorance:
      return "the system will silently ignore this setting" + detail;
    case ReactionCategory::kGoodReaction:
      return "the system detects this setting and pinpoints it in its error message" + detail;
    case ReactionCategory::kNoIssue:
      return "the system tolerates this setting" + detail;
    case ReactionCategory::kDeadlineExceeded:
      return "the check ran out of time before observing the system's reaction" + detail;
  }
  return detail;
}

}  // namespace

std::vector<Misconfiguration> BuildDynamicSuspects(
    const ModuleConstraints& constraints, const ConfigFile& template_config,
    const ConfigFile& config, const std::vector<Violation>& static_violations) {
  // One first-occurrence user setting plus what the static pass said about
  // it (matching on param *and* value — with duplicate keys, a violation
  // about a later occurrence's value must not adopt the replayed value's
  // identity). `entry` points into `config`, which outlives the diff.
  struct DeltaSetting {
    const ConfigEntry* entry = nullptr;
    const Violation* flagged = nullptr;  // First matching static violation.
    bool control_dep = false;
    bool value_rel = false;
  };
  auto annotate = [&](DeltaSetting* delta) {
    for (const Violation& violation : static_violations) {
      if (violation.param != delta->entry->key || violation.value != delta->entry->value) {
        continue;
      }
      if (delta->flagged == nullptr) {
        delta->flagged = &violation;
      }
      delta->control_dep |= violation.category == ViolationCategory::kControlDep;
      delta->value_rel |= violation.category == ViolationCategory::kValueRel;
    }
  };

  // The user's delta: first-occurrence settings whose value deviates from
  // the template (ConfigFile::Get resolves duplicates to the first setting,
  // matching what the replayed parse applies). A template-valued setting
  // is still a delta when the static pass flagged it — a dependent equal
  // to its template default is as silently ignored as any other value
  // once the user's master disables it, and the verdict contract promises
  // every violation its observed reaction.
  std::vector<DeltaSetting> deltas;
  // The seen-set's nodes and buckets live on the stack up to about two
  // hundred keys; a bigger config spills to the heap.
  std::array<std::byte, 8192> seen_buffer;
  std::pmr::monotonic_buffer_resource seen_memory(seen_buffer.data(), seen_buffer.size());
  std::pmr::unordered_set<std::string_view> seen(&seen_memory);
  seen.reserve(config.entries().size());
  for (const ConfigEntry& entry : config.entries()) {
    if (entry.kind != ConfigEntry::Kind::kSetting || !seen.insert(entry.key).second) {
      continue;
    }
    DeltaSetting delta{.entry = &entry};
    annotate(&delta);
    std::optional<std::string_view> template_value = template_config.Get(entry.key);
    if (template_value.has_value() && *template_value == entry.value &&
        delta.flagged == nullptr) {
      continue;  // Matches the known-good baseline and nobody flagged it.
    }
    deltas.push_back(delta);
  }

  std::vector<Misconfiguration> suspects;
  suspects.reserve(deltas.size());
  for (const DeltaSetting& delta : deltas) {
    const std::string& key = delta.entry->key;
    const std::string& value = delta.entry->value;
    const ParamConstraints* param = constraints.FindParam(key);
    bool control_dep = delta.control_dep;
    bool value_rel = delta.value_rel;
    const Violation* flagged = delta.flagged;
    if (flagged == nullptr && IsAcceptedEnumWord(param, value)) {
      // A statically-clean enum word ("json") exercises the handler path
      // the template already proved; its handler-mapped storage (1) would
      // only misread as a silent violation of the word.
      continue;
    }

    Misconfiguration suspect;
    suspect.param = key;
    suspect.value = value;
    if (control_dep) {
      suspect.kind = ViolationKind::kControlDep;
    } else if (value_rel) {
      suspect.kind = ViolationKind::kValueRel;
    } else if (flagged != nullptr && flagged->category == ViolationCategory::kRange) {
      suspect.kind = ViolationKind::kRange;
    } else {
      suspect.kind = ViolationKind::kBasicType;
    }
    suspect.rule = flagged != nullptr
                       ? std::string("user-config delta flagged as ") +
                             ViolationCategoryName(flagged->category)
                       : "user-config delta";
    // A dependent set while its master disables it — and an unknown key no
    // handler claims — should be *consumed* or called out; silence is the
    // Table-3 ignorance row.
    suspect.expect_ignored = control_dep || param == nullptr;
    suspect.intended_numeric = IntendedNumeric(param, value);
    if (param != nullptr) {
      suspect.constraint_loc = param->loc;
    }
    if (flagged != nullptr && flagged->constraint_loc.IsValid()) {
      suspect.constraint_loc = flagged->constraint_loc;
    }
    suspects.push_back(std::move(suspect));
  }

  // Each suspect replays in isolation — one bad setting must not smear its
  // reaction (a crash, say) over every other finding in the file — except
  // for its cross-parameter partners, which are the point of the finding:
  // a flagged dependent replays with the user's master value (the
  // ignorance only manifests while the master disables it), a flagged
  // relationship lhs replays with the user's rhs. This mirrors the
  // campaign generator's key-sets exactly, so a post-RunCampaign dynamic
  // check finds every suspect's prefix snapshot already built.
  for (Misconfiguration& suspect : suspects) {
    auto add_partner = [&](const std::string& partner) {
      if (partner == suspect.param) {
        return;
      }
      auto user_value = config.Get(partner);
      if (!user_value.has_value()) {
        return;
      }
      for (const auto& [key, value] : suspect.extra_settings) {
        if (key == partner) {
          return;
        }
      }
      suspect.extra_settings.emplace_back(partner, std::string(*user_value));
    };
    if (suspect.kind == ViolationKind::kControlDep) {
      for (const ControlDepConstraint& dep : constraints.control_deps) {
        if (dep.dependent == suspect.param) {
          add_partner(dep.master);
        }
      }
    }
    if (suspect.kind == ViolationKind::kValueRel) {
      for (const ValueRelConstraint& rel : constraints.value_rels) {
        if (rel.lhs == suspect.param) {
          add_partner(rel.rhs);
        }
      }
    }
  }
  return suspects;
}

void AttachReactions(const std::vector<Misconfiguration>& suspects,
                     const std::vector<InjectionResult>& results, const ConfigFile& config,
                     std::string_view file_name, std::vector<Violation>* violations) {
  size_t count = std::min(suspects.size(), results.size());
  for (size_t i = 0; i < count; ++i) {
    const Misconfiguration& suspect = suspects[i];
    const InjectionResult& result = results[i];
    std::string prediction = DescribeReaction(result);
    bool matched = false;
    for (Violation& violation : *violations) {
      // Match on param *and* value: with duplicate keys in the user's
      // file, only the first occurrence is replayed (ConfigFile::Get
      // semantics), and a violation flagging a later occurrence's value
      // must not inherit a verdict observed for a different value.
      if (violation.param != suspect.param || violation.value != suspect.value) {
        continue;
      }
      violation.reaction = result.category;
      violation.reaction_detail = result.detail;
      violation.evidence_logs = result.logs;
      violation.prediction = prediction;
      matched = true;
    }
    if (matched || !IsVulnerability(result.category)) {
      continue;
    }
    // The static pass had nothing to say, yet the system mishandles the
    // setting — the finding only a dynamic replay can produce.
    Violation violation;
    violation.category = ViolationCategory::kDynamicReaction;
    violation.param = suspect.param;
    violation.value = suspect.value;
    violation.file = std::string(file_name);
    violation.line = config.LineOf(suspect.param);
    violation.message =
        "setting satisfies every inferred constraint, but replaying it shows the system "
        "mishandling it";
    violation.constraint_loc = result.vulnerability_loc;
    violation.reaction = result.category;
    violation.reaction_detail = result.detail;
    violation.evidence_logs = result.logs;
    violation.prediction = std::move(prediction);
    violations->push_back(std::move(violation));
  }
  std::stable_sort(violations->begin(), violations->end(),
                   [](const Violation& a, const Violation& b) { return a.line < b.line; });
}

}  // namespace spex
