#include "src/api/report_json.h"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <optional>

#include "src/inject/reaction.h"

namespace spex {

namespace {

// Length of the well-formed UTF-8 sequence starting at text[i] (a byte
// >= 0x80), or 0 when that byte starts none. The ranges are the Unicode
// Standard's table of well-formed byte sequences: the second byte's range
// is what rules out overlongs (E0, F0), surrogates (ED) and code points
// beyond U+10FFFF (F4).
size_t Utf8SequenceLength(std::string_view text, size_t i) {
  const auto lead = static_cast<unsigned char>(text[i]);
  size_t length = lead >= 0xC2 && lead <= 0xDF ? 2
                  : lead >= 0xE0 && lead <= 0xEF ? 3
                  : lead >= 0xF0 && lead <= 0xF4 ? 4
                                                 : 0;
  if (length == 0 || text.size() - i < length) {
    return 0;
  }
  const unsigned char low = lead == 0xE0 ? 0xA0 : lead == 0xF0 ? 0x90 : 0x80;
  const unsigned char high = lead == 0xED ? 0x9F : lead == 0xF4 ? 0x8F : 0xBF;
  const auto second = static_cast<unsigned char>(text[i + 1]);
  if (second < low || second > high) {
    return 0;
  }
  for (size_t k = 2; k < length; ++k) {
    if ((static_cast<unsigned char>(text[i + k]) & 0xC0) != 0x80) {
      return 0;
    }
  }
  return length;
}

void AppendEscaped(std::string_view text, std::string* out) {
  for (size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x80) {
      size_t length = Utf8SequenceLength(text, i);
      if (length == 0) {
        *out += "\\ufffd";
      } else {
        out->append(text.substr(i, length));
        i += length - 1;
      }
    } else if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(static_cast<char>(c));
    } else if (c >= 0x20) {
      out->push_back(static_cast<char>(c));
    } else if (c == '\n' || c == '\r' || c == '\t') {
      out->push_back('\\');
      out->push_back(c == '\n' ? 'n' : c == '\r' ? 'r' : 't');
    } else {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      *out += buffer;
    }
  }
}

void AppendUtf8(uint32_t code, std::string* out) {
  if (code < 0x80) {
    out->push_back(static_cast<char>(code));
    return;
  }
  constexpr unsigned char kLead[] = {0, 0xC0, 0xE0, 0xF0};
  const int continuations = code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
  out->push_back(static_cast<char>(kLead[continuations] | (code >> (6 * continuations))));
  for (int shift = 6 * (continuations - 1); shift >= 0; shift -= 6) {
    out->push_back(static_cast<char>(0x80 | ((code >> shift) & 0x3F)));
  }
}

// The four hex digits at text[pos], or nullopt.
std::optional<uint32_t> Hex4(std::string_view text, size_t pos) {
  uint32_t code = 0;
  const char* begin = text.data() + pos;
  auto [end, error] = std::from_chars(begin, begin + 4, code, 16);
  return error == std::errc() && end == begin + 4 ? std::optional<uint32_t>(code) : std::nullopt;
}

// The \u escape whose hex digits start at text[*pos]: one BMP code point,
// or a high+low surrogate pair joined into one code point. A surrogate
// that is not half of such a pair is reported at its escape's backslash.
Status DecodeUnicodeEscape(std::string_view text, size_t* pos, std::string* out) {
  const size_t backslash = *pos - 2;
  if (text.size() - *pos < 4) {
    return Status::InvalidArgument("truncated \\u escape");
  }
  std::optional<uint32_t> code = Hex4(text, *pos);
  if (!code.has_value()) {
    return Status::InvalidArgument("bad hex digit in \\u escape");
  }
  *pos += 4;
  if (*code >= 0xD800 && *code <= 0xDFFF) {
    const bool high = *code <= 0xDBFF;
    std::optional<uint32_t> low;
    if (high && text.size() - *pos >= 6 && text.substr(*pos, 2) == "\\u") {
      low = Hex4(text, *pos + 2);
    }
    if (!low.has_value() || *low < 0xDC00 || *low > 0xDFFF) {
      *pos = backslash;
      return Status::InvalidArgument(high ? "lone high surrogate in \\u escape"
                                          : "lone low surrogate in \\u escape");
    }
    *pos += 6;
    code = 0x10000 + ((*code - 0xD800) << 10) + (*low - 0xDC00);
  }
  AppendUtf8(*code, out);
  return Status::Ok();
}

// `"name":` as the next member of the object open at the end of `out`
// (or as the first of a bare member list when `out` is empty).
void AppendKey(std::string_view name, std::string* out) {
  if (!out->empty() && out->back() != '{') {
    out->push_back(',');
  }
  *out += '"';
  *out += name;
  *out += "\":";
}

// "schema","status": how a spexcheckd closing record opens.
void AppendServeStatus(const Status& status, std::string* out) {
  AppendJsonNumber("schema", kJsonlSchemaVersion, out);
  AppendJsonString("status", StatusCodeName(status.code()), out);
}

// "degraded","cached": how a spexcheckd closing record ends.
void AppendServeFlags(const BatchSummary& summary, bool degraded, std::string* out) {
  AppendJsonBool("degraded", degraded, out);
  AppendJsonBool("cached",
                 summary.total_suspects > 0 && summary.unique_replays == 0 &&
                     summary.store_hits > 0,
                 out);
}

// category, param, value, file, line, message, [note],
// [reaction, vulnerability, prediction].
void AppendViolationFields(const Violation& violation, std::string* out) {
  AppendJsonString("category", ViolationCategoryName(violation.category), out);
  AppendJsonString("param", violation.param, out);
  AppendJsonString("value", violation.value, out);
  AppendJsonString("file", violation.file, out);
  AppendJsonNumber("line", violation.line, out);
  AppendJsonString("message", violation.message, out);
  if (!violation.override_note.empty()) {
    AppendJsonString("note", violation.override_note, out);
  }
  if (violation.reaction.has_value()) {
    AppendJsonString("reaction", ReactionCategoryName(*violation.reaction), out);
    AppendJsonBool("vulnerability", IsVulnerability(*violation.reaction), out);
    AppendJsonString("prediction", violation.prediction, out);
  }
}

// config, index, suspects, shared_replays, [status, error] (failed
// reports only), violations: [{<violation fields>}, ...].
void AppendReportFields(const ConfigReport& report, std::string* out) {
  AppendJsonString("config", report.name, out);
  AppendJsonNumber("index", report.index, out);
  AppendJsonNumber("suspects", report.suspects, out);
  AppendJsonNumber("shared_replays", report.shared_replays, out);
  if (!report.status.ok()) {
    AppendJsonString("status", StatusCodeName(report.status.code()), out);
    AppendJsonString("error", report.status.message(), out);
  }
  AppendKey("violations", out);
  *out += '[';
  for (const Violation& violation : report.violations) {
    *out += out->back() == '[' ? "{" : ",{";
    AppendViolationFields(violation, out);
    *out += '}';
  }
  *out += ']';
}

// kind, file, line, target: one contained include-resolution fault.
void AppendConfigSetErrorFields(const ConfigSetError& error, std::string* out) {
  AppendJsonString("kind", ConfigSetErrorKindName(error.kind), out);
  AppendJsonString("file", error.file, out);
  AppendJsonNumber("line", error.line, out);
  AppendJsonString("target", error.target, out);
}

}  // namespace

void AppendJsonString(std::string_view name, std::string_view value, std::string* out) {
  AppendKey(name, out);
  *out += '"';
  AppendEscaped(value, out);
  *out += '"';
}

void AppendJsonNumber(std::string_view name, uint64_t value, std::string* out) {
  AppendKey(name, out);
  *out += std::to_string(value);
}

void AppendJsonBool(std::string_view name, bool value, std::string* out) {
  AppendKey(name, out);
  *out += value ? "true" : "false";
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  AppendEscaped(text, &out);
  return out;
}

Status DecodeJsonString(std::string_view text, size_t* pos, std::string* out) {
  if (*pos >= text.size() || text[*pos] != '"') {
    return Status::InvalidArgument("expected a string");
  }
  ++*pos;
  out->clear();
  // The one-character escapes and what each stands for, position by position.
  constexpr std::string_view kEscaped = "\"\\/bfnrt";
  constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
  while (*pos < text.size()) {
    char c = text[(*pos)++];
    if (c == '"') {
      return Status::Ok();
    }
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (*pos >= text.size()) {
      break;
    }
    char escape = text[(*pos)++];
    if (size_t at = kEscaped.find(escape); at != std::string_view::npos) {
      out->push_back(kDecoded[at]);
    } else if (escape == 'u') {
      Status status = DecodeUnicodeEscape(text, pos, out);
      if (!status.ok()) {
        return status;
      }
    } else {
      return Status::InvalidArgument(std::string("unknown escape '\\") + escape + "'");
    }
  }
  return Status::InvalidArgument("unterminated string");
}

void AppendBatchCounters(const BatchSummary& summary, std::string* out) {
  AppendJsonNumber("configs_checked", summary.configs_checked, out);
  AppendJsonNumber("configs_with_errors", summary.configs_with_errors, out);
  AppendJsonNumber("configs_with_violations", summary.configs_with_violations, out);
  AppendJsonNumber("total_violations", summary.total_violations, out);
  AppendJsonNumber("total_suspects", summary.total_suspects, out);
  AppendJsonNumber("unique_replays", summary.unique_replays, out);
  // %g is how an ostream prints a double by default: 0.7, 0.333333, 1.
  char ratio[32];
  std::snprintf(ratio, sizeof(ratio), "%g", summary.DedupRatio());
  AppendKey("dedup_ratio", out);
  *out += ratio;
  AppendJsonNumber("store_hits", summary.store_hits, out);
  AppendJsonNumber("store_misses", summary.store_misses, out);
  AppendJsonNumber("store_appends", summary.store_appends, out);
}

std::string ViolationRecord(const Violation& violation) {
  std::string out = R"({"type":"violation")";
  AppendViolationFields(violation, &out);
  return out + "}";
}

std::string ReportRecord(const ConfigReport& report) {
  std::string out = R"({"type":"report")";
  AppendReportFields(report, &out);
  return out + "}";
}

std::string ConfigSetRecord(const ResolvedConfigSet& set) {
  std::string out = R"({"type":"config_set")";
  AppendJsonString("config", set.name, &out);
  AppendJsonNumber("files", set.files_resolved, &out);
  out += R"(,"errors":[)";
  for (const ConfigSetError& error : set.errors) {
    out += out.back() == '[' ? "{" : ",{";
    AppendConfigSetErrorFields(error, &out);
    out += '}';
  }
  return out + "]}";
}

std::string ConfigErrorRecord(std::string_view config, std::string_view error) {
  std::string out = R"({"type":"config_error")";
  AppendJsonString("config", config, &out);
  AppendJsonString("error", error, &out);
  return out + "}";
}

std::string SummaryRecord(const BatchSummary& summary) {
  std::string out = R"({"summary":{)";
  AppendBatchCounters(summary, &out);
  return out + R"(},"schema":)" + std::to_string(kJsonlSchemaVersion) + "}";
}

std::string CellRecord(size_t version, std::string_view version_label,
                       const ConfigReport& report) {
  std::string out = R"({"type":"cell")";
  AppendJsonNumber("version", version, &out);
  AppendJsonString("version_label", version_label, &out);
  AppendReportFields(report, &out);
  return out + "}";
}

std::string VersionRecord(const VersionReport& column) {
  std::string out = R"({"type":"version")";
  AppendJsonNumber("version", column.index, &out);
  AppendJsonString("label", column.label, &out);
  if (!column.status.ok()) {
    AppendJsonString("status", StatusCodeName(column.status.code()), &out);
    AppendJsonString("error", column.status.message(), &out);
  } else {
    AppendBatchCounters(column.batch, &out);
  }
  return out + "}";
}

std::string DiffRecord(const ConfigTransition& transition) {
  std::string out = R"({"type":"diff")";
  AppendJsonString("config", transition.config, &out);
  AppendJsonNumber("config_index", transition.config_index, &out);
  AppendJsonNumber("from", transition.from_version, &out);
  AppendJsonNumber("to", transition.to_version, &out);
  AppendJsonString("from_label", transition.from_label, &out);
  AppendJsonString("to_label", transition.to_label, &out);
  AppendJsonString("transition", TransitionName(transition.transition), &out);
  AppendJsonNumber("added", transition.added, &out);
  AppendJsonNumber("removed", transition.removed, &out);
  AppendJsonNumber("changed", transition.changed, &out);
  AppendJsonString("detail", transition.detail, &out);
  return out + "}";
}

std::string MatrixSummaryRecord(const MatrixSummary& summary) {
  auto transitions = [&](Transition kind) {
    return summary.transitions_by_kind[static_cast<size_t>(kind)];
  };
  std::string out = R"({"type":"matrix_summary")";
  AppendJsonNumber("schema", kJsonlSchemaVersion, &out);
  AppendJsonNumber("versions_requested", summary.versions_requested, &out);
  AppendJsonNumber("versions_checked", summary.versions_checked, &out);
  AppendJsonNumber("configs", summary.configs, &out);
  AppendJsonNumber("cells", summary.cells, &out);
  AppendJsonNumber("total_violations", summary.total_violations, &out);
  AppendJsonNumber("unique_replays", summary.unique_replays, &out);
  AppendJsonNumber("store_hits", summary.store_hits, &out);
  AppendJsonNumber("regressions", transitions(Transition::kRegression), &out);
  AppendJsonNumber("fixes", transitions(Transition::kFix), &out);
  AppendJsonNumber("changed_reactions", transitions(Transition::kChangedReaction), &out);
  AppendJsonNumber("stable", transitions(Transition::kStable), &out);
  return out + "}";
}

std::string ConfigSetErrorRecord(const ConfigSetError& error) {
  std::string out = R"({"type":"config_set_error")";
  AppendConfigSetErrorFields(error, &out);
  return out + "}";
}

std::string CheckSummaryRecord(const BatchSummary& summary, const Status& status,
                               std::string_view target, CheckMode mode,
                               std::optional<size_t> files, bool degraded) {
  std::string out = R"({"type":"summary")";
  AppendServeStatus(status, &out);
  AppendJsonString("target", target, &out);
  AppendJsonString("mode", mode == CheckMode::kDynamic ? "dynamic" : "static", &out);
  AppendJsonNumber("violations", summary.total_violations, &out);
  if (files.has_value()) {
    AppendJsonNumber("files", *files, &out);
  }
  AppendServeFlags(summary, degraded, &out);
  return out + "}";
}

std::string BatchSummaryRecord(const BatchSummary& summary, const Status& status,
                               bool degraded) {
  std::string out = R"({"type":"batch_summary")";
  AppendServeStatus(status, &out);
  AppendBatchCounters(summary, &out);
  AppendServeFlags(summary, degraded, &out);
  return out + "}";
}

std::string ErrorRecord(const Status& status) {
  std::string out = R"({"type":"error")";
  AppendJsonString("status", StatusCodeName(status.code()), &out);
  AppendJsonString("message", status.message(), &out);
  return out + "}";
}

}  // namespace spex
