#include "src/api/config_checker.h"

#include <algorithm>
#include <cctype>

#include "src/support/strings.h"

namespace spex {

const char* ViolationCategoryName(ViolationCategory category) {
  switch (category) {
    case ViolationCategory::kBasicType:
      return "type";
    case ViolationCategory::kRange:
      return "range";
    case ViolationCategory::kUnit:
      return "unit";
    case ViolationCategory::kCase:
      return "case";
    case ViolationCategory::kControlDep:
      return "control-dep";
    case ViolationCategory::kValueRel:
      return "value-rel";
    case ViolationCategory::kUnknownParam:
      return "unknown-param";
    case ViolationCategory::kDynamicReaction:
      return "dynamic";
    case ViolationCategory::kPermission:
      return "permission";
  }
  return "?";
}

std::string Violation::ToString() const {
  std::string out = file + ":" + std::to_string(line) + ": [" +
                    ViolationCategoryName(category) + "] " + param;
  if (!value.empty()) {
    out += " = " + value;
  }
  out += ": " + message;
  if (!override_note.empty()) {
    out += " [" + override_note + "]";
  }
  if (reaction.has_value()) {
    out += " | observed: " + std::string(ReactionCategoryName(*reaction));
    if (!prediction.empty()) {
      out += " — " + prediction;
    }
  }
  return out;
}

std::optional<int64_t> EffectiveConfigInt(std::string_view value) {
  auto strict = ParseInt64(value);
  if (strict.has_value()) {
    return strict;
  }
  static const char* kTruthy[] = {"on", "yes", "true", "enable", "enabled"};
  static const char* kFalsy[] = {"off", "no", "false", "disable", "disabled"};
  for (const char* word : kTruthy) {
    if (EqualsIgnoreCase(value, word)) {
      return 1;
    }
  }
  for (const char* word : kFalsy) {
    if (EqualsIgnoreCase(value, word)) {
      return 0;
    }
  }
  return std::nullopt;
}

std::optional<uint32_t> ParseOctalMode(std::string_view text) {
  text = TrimWhitespace(text);
  if (text.empty() || text.size() > 7) {
    return std::nullopt;  // Longest sensible spelling: "0007777".
  }
  uint32_t mode = 0;
  for (char c : text) {
    if (c < '0' || c > '7') {
      return std::nullopt;
    }
    mode = (mode << 3) | static_cast<uint32_t>(c - '0');
    if (mode > 07777) {
      return std::nullopt;
    }
  }
  return mode;
}

std::optional<SuffixedConfigValue> ParseSuffixedConfigValue(std::string_view text) {
  text = TrimWhitespace(text);
  size_t digits = 0;
  if (digits < text.size() && (text[digits] == '-' || text[digits] == '+')) {
    ++digits;
  }
  size_t first_digit = digits;
  while (digits < text.size() && std::isdigit(static_cast<unsigned char>(text[digits]))) {
    ++digits;
  }
  if (digits == first_digit || digits == text.size()) {
    return std::nullopt;  // No number, or no suffix.
  }
  auto magnitude = ParseInt64(text.substr(0, digits));
  if (!magnitude.has_value()) {
    return std::nullopt;
  }
  std::string suffix = ToLowerCopy(TrimWhitespace(text.substr(digits)));
  SuffixedConfigValue value;
  value.magnitude = *magnitude;
  if (suffix == "us") {
    value.time_unit = TimeUnit::kMicroseconds;
  } else if (suffix == "ms") {
    value.time_unit = TimeUnit::kMilliseconds;
  } else if (suffix == "s" || suffix == "sec") {
    value.time_unit = TimeUnit::kSeconds;
  } else if (suffix == "min") {
    value.time_unit = TimeUnit::kMinutes;
  } else if (suffix == "h") {
    value.time_unit = TimeUnit::kHours;
  } else if (suffix == "b") {
    value.size_unit = SizeUnit::kBytes;
  } else if (suffix == "k" || suffix == "kb") {
    value.size_unit = SizeUnit::kKilobytes;
  } else if (suffix == "m") {
    // Ambiguous: minutes (the name TimeUnitName itself prints for
    // TimeUnit::kMinutes) or megabytes. Record both; CheckUnitSuffix picks
    // the interpretation matching the parameter's inferred unit kind.
    value.time_unit = TimeUnit::kMinutes;
    value.size_unit = SizeUnit::kMegabytes;
  } else if (suffix == "mb") {
    value.size_unit = SizeUnit::kMegabytes;
  } else if (suffix == "g" || suffix == "gb") {
    value.size_unit = SizeUnit::kGigabytes;
  } else {
    return std::nullopt;  // Unknown suffix: plain garbage, not a unit.
  }
  return value;
}

namespace {

bool HoldsCmp(int64_t lhs, IrCmpPred pred, int64_t rhs) {
  switch (pred) {
    case IrCmpPred::kEq:
      return lhs == rhs;
    case IrCmpPred::kNe:
      return lhs != rhs;
    case IrCmpPred::kLt:
      return lhs < rhs;
    case IrCmpPred::kLe:
      return lhs <= rhs;
    case IrCmpPred::kGt:
      return lhs > rhs;
    case IrCmpPred::kGe:
      return lhs >= rhs;
  }
  return false;
}

std::string DescribeValidRanges(const RangeConstraint& range) {
  if (range.is_enum) {
    std::string out = "accepted values: ";
    bool first = true;
    for (const std::string& accepted : range.enum_strings) {
      out += (first ? "" : ", ") + ("'" + accepted + "'");
      first = false;
    }
    for (int64_t accepted : range.enum_ints) {
      out += (first ? "" : ", ") + std::to_string(accepted);
      first = false;
    }
    return out;
  }
  std::string out = "accepted range: ";
  bool first = true;
  for (const RangeInterval& interval : range.ValidIntervals()) {
    out += (first ? "" : ", ") + interval.ToString();
    first = false;
  }
  return out;
}

class Checker {
 public:
  Checker(const ModuleConstraints& constraints, const ConfigFile& config,
          std::string_view file_name)
      : constraints_(constraints), config_(config), file_(file_name) {}

  std::vector<Violation> Run() {
    for (const ConfigEntry& entry : config_.entries()) {
      if (entry.kind == ConfigEntry::Kind::kSetting) {
        CheckSetting(entry);
      }
    }
    CheckControlDeps();
    CheckValueRels();
    // Violations are emitted per-setting in file order, then cross-param;
    // a stable sort by line folds the cross-param findings into file order
    // without disturbing per-line emission order.
    std::stable_sort(violations_.begin(), violations_.end(),
                     [](const Violation& a, const Violation& b) { return a.line < b.line; });
    return std::move(violations_);
  }

 private:
  void Report(ViolationCategory category, std::string_view param, std::string_view value,
              uint32_t line, std::string message, SourceLoc constraint_loc) {
    Violation violation;
    violation.category = category;
    violation.param = param;
    violation.value = value;
    violation.file = std::string(file_);
    violation.line = line;
    violation.message = std::move(message);
    violation.constraint_loc = constraint_loc;
    violations_.push_back(std::move(violation));
  }

  void CheckSetting(const ConfigEntry& entry) {
    const ParamConstraints* param = constraints_.FindParam(entry.key);
    if (param == nullptr) {
      CheckUnknownKey(entry);
      return;
    }
    if (param->permission.has_value()) {
      // Mode parameters are octal: "644" means 0644, and the generic
      // decimal checks below would misread it — permission checking
      // replaces them wholesale.
      CheckPermissionValue(entry, *param);
      return;
    }
    if (param->range.has_value() && param->range->is_enum &&
        !param->range->enum_strings.empty()) {
      CheckEnumValue(entry, *param);
      return;  // Word-valued parameter: numeric checks do not apply.
    }
    CheckNumericValue(entry, *param);
  }

  void CheckUnknownKey(const ConfigEntry& entry) {
    // A key differing only in case from a real parameter is the classic
    // config typo; anything else is reported without a guess.
    for (const ParamConstraints& param : constraints_.params) {
      if (EqualsIgnoreCase(param.param, entry.key)) {
        Report(ViolationCategory::kUnknownParam, entry.key, entry.value, entry.line,
               "unknown parameter — did you mean '" + param.param + "'? (names are "
               "case-sensitive)",
               param.loc);
        return;
      }
    }
    Report(ViolationCategory::kUnknownParam, entry.key, entry.value, entry.line,
           "unknown parameter (no constraint was inferred for this name)", SourceLoc());
  }

  void CheckEnumValue(const ConfigEntry& entry, const ParamConstraints& param) {
    const RangeConstraint& range = *param.range;
    for (const std::string& accepted : range.enum_strings) {
      if (accepted == entry.value) {
        return;  // Exact hit.
      }
    }
    // Near-miss in case only: fine for case-insensitive parameters, the
    // paper's Figure 6(a) trap for everyone else.
    for (const std::string& accepted : range.enum_strings) {
      if (EqualsIgnoreCase(accepted, entry.value)) {
        if (param.case_sensitivity == CaseSensitivity::kInsensitive) {
          return;
        }
        Report(ViolationCategory::kCase, entry.key, entry.value, entry.line,
               "'" + entry.value + "' differs only in case from accepted '" + accepted +
                   "', and this parameter's values are compared case-sensitively",
               range.loc);
        return;
      }
    }
    auto numeric = ParseInt64(entry.value);
    if (numeric.has_value() &&
        std::find(range.enum_ints.begin(), range.enum_ints.end(), *numeric) !=
            range.enum_ints.end()) {
      return;
    }
    Report(ViolationCategory::kRange, entry.key, entry.value, entry.line,
           "value not in the accepted set (" + DescribeValidRanges(range) + ")", range.loc);
  }

  void CheckNumericValue(const ConfigEntry& entry, const ParamConstraints& param) {
    const IrType* type =
        param.basic_type.has_value() ? param.basic_type->type : nullptr;
    bool integer_param = type != nullptr && (type->IsInteger() || type->IsBool());
    auto strict = ParseInt64(entry.value);

    if (!strict.has_value()) {
      auto suffixed = ParseSuffixedConfigValue(entry.value);
      if (suffixed.has_value()) {
        CheckUnitSuffix(entry, param, *suffixed, integer_param);
        return;
      }
      if (!integer_param) {
        return;  // String/float parameter: any text is type-correct here.
      }
      // Boolean-shaped parameters accept the usual on/off words even when
      // no enum range was inferred — EffectiveInt reads them as 1/0, and
      // flagging "on" as non-numeric would contradict the cross-parameter
      // checks in the same report.
      if ((type->IsBool() || param.HasSemantic(SemanticType::kBoolean)) &&
          EffectiveConfigInt(entry.value).has_value()) {
        return;
      }
      SourceLoc loc = param.basic_type->loc;
      if (ParseDouble(entry.value).has_value()) {
        Report(ViolationCategory::kBasicType, entry.key, entry.value, entry.line,
               "fractional value for an integer parameter (an atoi-style parser would "
               "silently truncate it)",
               loc);
      } else {
        Report(ViolationCategory::kBasicType, entry.key, entry.value, entry.line,
               "'" + entry.value + "' is not a number, but this parameter takes an integer",
               loc);
      }
      return;
    }

    if (integer_param) {
      SourceLoc loc = param.basic_type->loc;
      if (type->is_unsigned() && *strict < 0) {
        Report(ViolationCategory::kBasicType, entry.key, entry.value, entry.line,
               "negative value for an unsigned integer parameter", loc);
        return;
      }
      if (type->bit_width() <= 32) {
        int64_t max = type->is_unsigned() ? 4294967295LL : 2147483647LL;
        int64_t min = type->is_unsigned() ? 0 : -2147483648LL;
        if (*strict > max || *strict < min) {
          Report(ViolationCategory::kBasicType, entry.key, entry.value, entry.line,
                 "value does not fit the parameter's " + std::to_string(type->bit_width()) +
                     "-bit representation",
                 loc);
          return;
        }
      }
    }

    if (param.range.has_value() && !param.range->is_enum) {
      const RangeConstraint& range = *param.range;
      std::vector<RangeInterval> valid = range.ValidIntervals();
      bool accepted = valid.empty();
      for (const RangeInterval& interval : valid) {
        if (interval.Contains(*strict)) {
          accepted = true;
          break;
        }
      }
      if (!accepted) {
        Report(ViolationCategory::kRange, entry.key, entry.value, entry.line,
               "value outside the accepted range (" + DescribeValidRanges(range) + ")",
               range.loc);
      }
    } else if (param.range.has_value() && param.range->is_enum &&
               !param.range->enum_ints.empty()) {
      const RangeConstraint& range = *param.range;
      if (std::find(range.enum_ints.begin(), range.enum_ints.end(), *strict) ==
          range.enum_ints.end()) {
        Report(ViolationCategory::kRange, entry.key, entry.value, entry.line,
               "value not in the accepted set (" + DescribeValidRanges(range) + ")",
               range.loc);
      }
    }
  }

  static std::string OctalModeString(uint32_t bits) {
    std::string out;
    do {
      out.insert(out.begin(), static_cast<char>('0' + (bits & 7)));
      bits >>= 3;
    } while (bits != 0);
    return "0" + out;
  }

  void CheckPermissionValue(const ConfigEntry& entry, const ParamConstraints& param) {
    const PermissionConstraint& policy = *param.permission;
    auto mode = ParseOctalMode(entry.value);
    if (!mode.has_value()) {
      Report(ViolationCategory::kPermission, entry.key, entry.value, entry.line,
             "'" + entry.value + "' is not an octal permission mode (want e.g. 0644; digits "
             "0-7 only, at most 07777)",
             policy.loc);
      return;
    }
    // Both directions are misconfigurations (the survey literature's point):
    // granting too much exposes the system, granting too little breaks it.
    uint32_t granted_forbidden = *mode & policy.forbidden_bits;
    if (granted_forbidden != 0) {
      Report(ViolationCategory::kPermission, entry.key, entry.value, entry.line,
             "mode " + OctalModeString(*mode) + " is too permissive: it grants " +
                 OctalModeString(granted_forbidden) +
                 ", which this parameter must not allow (policy forbids " +
                 OctalModeString(policy.forbidden_bits) + ")",
             policy.loc);
      return;
    }
    uint32_t missing_required = policy.required_bits & ~*mode;
    if (missing_required != 0) {
      Report(ViolationCategory::kPermission, entry.key, entry.value, entry.line,
             "mode " + OctalModeString(*mode) + " is too restrictive: it drops " +
                 OctalModeString(missing_required) +
                 ", without which the system cannot use what it protects (policy requires " +
                 OctalModeString(policy.required_bits) + ")",
             policy.loc);
    }
  }

  void CheckUnitSuffix(const ConfigEntry& entry, const ParamConstraints& param,
                       const SuffixedConfigValue& suffixed, bool integer_param) {
    // A "500ms"-style value. The synthesized parsers (like most real ones)
    // read integers with atoi/strtol, so the suffix never survives parsing
    // — the question is only how to explain the problem to the user.
    if (suffixed.time_unit != TimeUnit::kNone && param.time_unit != TimeUnit::kNone) {
      const SemanticTypeConstraint* semantic = param.FindSemantic(SemanticType::kTime);
      SourceLoc loc = semantic != nullptr ? semantic->loc : param.loc;
      if (suffixed.time_unit != param.time_unit) {
        Report(ViolationCategory::kUnit, entry.key, entry.value, entry.line,
               std::string("value is given in '") + TimeUnitName(suffixed.time_unit) +
                   "' but this parameter is in '" + TimeUnitName(param.time_unit) +
                   "' — the scale would be silently wrong",
               loc);
      } else {
        Report(ViolationCategory::kUnit, entry.key, entry.value, entry.line,
               std::string("this parameter is already in '") + TimeUnitName(param.time_unit) +
                   "'; write the plain number (the suffix would be silently dropped)",
               loc);
      }
      return;
    }
    if (suffixed.size_unit != SizeUnit::kNone && param.size_unit != SizeUnit::kNone) {
      const SemanticTypeConstraint* semantic = param.FindSemantic(SemanticType::kSize);
      SourceLoc loc = semantic != nullptr ? semantic->loc : param.loc;
      if (suffixed.size_unit != param.size_unit) {
        Report(ViolationCategory::kUnit, entry.key, entry.value, entry.line,
               std::string("value is given in '") + SizeUnitName(suffixed.size_unit) +
                   "' but this parameter is in '" + SizeUnitName(param.size_unit) +
                   "' — the scale would be silently wrong",
               loc);
      } else {
        Report(ViolationCategory::kUnit, entry.key, entry.value, entry.line,
               std::string("this parameter is already in '") + SizeUnitName(param.size_unit) +
                   "'; write the plain number (the suffix would be silently dropped)",
               loc);
      }
      return;
    }
    if (integer_param) {
      // The Figure 5(a) "9G" case: a unit suffix on a plain-number
      // parameter, which an unsafe parser reads as just "9".
      Report(ViolationCategory::kBasicType, entry.key, entry.value, entry.line,
             "unit-suffixed value for a plain integer parameter — an atoi-style parser "
             "would silently read it as " + std::to_string(suffixed.magnitude),
             param.basic_type->loc);
    }
  }

  void CheckControlDeps() {
    for (const ControlDepConstraint& dep : constraints_.control_deps) {
      auto dependent_value = config_.Get(dep.dependent);
      auto master_value = config_.Get(dep.master);
      if (!dependent_value.has_value() || !master_value.has_value()) {
        continue;  // Not set, or master's default is unknown: nothing to say.
      }
      auto master_int = EffectiveConfigInt(*master_value);
      if (!master_int.has_value() || HoldsCmp(*master_int, dep.pred, dep.value)) {
        continue;
      }
      Report(ViolationCategory::kControlDep, dep.dependent, *dependent_value,
             config_.LineOf(dep.dependent),
             "setting has no effect: it is only consulted when " + dep.master + " " +
                 IrCmpPredName(dep.pred) + " " + std::to_string(dep.value) + ", and " +
                 dep.master + " is '" + std::string(*master_value) + "'",
             dep.loc);
    }
  }

  void CheckValueRels() {
    for (const ValueRelConstraint& rel : constraints_.value_rels) {
      auto lhs_value = config_.Get(rel.lhs);
      auto rhs_value = config_.Get(rel.rhs);
      if (!lhs_value.has_value() || !rhs_value.has_value()) {
        continue;
      }
      auto lhs_int = EffectiveConfigInt(*lhs_value);
      auto rhs_int = EffectiveConfigInt(*rhs_value);
      if (!lhs_int.has_value() || !rhs_int.has_value() ||
          HoldsCmp(*lhs_int, rel.pred, *rhs_int)) {
        continue;
      }
      Report(ViolationCategory::kValueRel, rel.lhs, *lhs_value, config_.LineOf(rel.lhs),
             "configuration must satisfy " + rel.lhs + " " + IrCmpPredName(rel.pred) + " " +
                 rel.rhs + " (" + rel.lhs + " = " + std::string(*lhs_value) + ", " + rel.rhs +
                 " = " + std::string(*rhs_value) + ")",
             rel.loc);
    }
  }

  const ModuleConstraints& constraints_;
  const ConfigFile& config_;
  std::string_view file_;
  std::vector<Violation> violations_;
};

}  // namespace

std::vector<Violation> CheckConfigFile(const ModuleConstraints& constraints,
                                       const ConfigFile& config, std::string_view file_name) {
  return Checker(constraints, config, file_name).Run();
}

std::vector<Violation> CheckConfigText(const ModuleConstraints& constraints,
                                       std::string_view config_text, ConfigDialect dialect,
                                       std::string_view file_name) {
  return CheckConfigFile(constraints, ConfigFile::Parse(config_text, dialect), file_name);
}

}  // namespace spex
