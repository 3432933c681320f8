// The JSON-lines report schema of `spexcheck --format jsonl` and of
// spexcheckd's /check and /batch responses, encoded here and nowhere else
// so the two surfaces cannot drift apart (docs/api.md, "JSON-lines schema").
//
// Append* functions add members to the JSON object left open at the end
// of `out` (or start a bare member list when `out` is empty); *Record
// functions return one whole object, without the trailing newline.
#ifndef SPEX_API_REPORT_JSON_H_
#define SPEX_API_REPORT_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/api/batch_check.h"
#include "src/api/config_set.h"
#include "src/support/status.h"

namespace spex {

// Written as "schema" on every stream's closing record. Bumped when a
// field is renamed, removed or changes meaning; a new field does not.
inline constexpr int kJsonlSchemaVersion = 1;

// The body of a JSON string literal for `text`, without quotes: '"', '\\'
// and bytes below 0x20 escaped, well-formed UTF-8 passed through, and
// each byte outside a well-formed sequence (overlong, surrogate,
// truncated, past U+10FFFF) turned into a U+FFFD escape, so the output is
// valid UTF-8 whatever bytes a config carried.
std::string JsonEscape(std::string_view text);

// Decodes the JSON string literal starting at text[*pos] (a '"') into
// `out`, leaving *pos past its closing quote; a \u surrogate pair becomes
// one 4-byte UTF-8 sequence. On failure: kInvalidArgument with a bare
// description and *pos at the offending byte.
Status DecodeJsonString(std::string_view text, size_t* pos, std::string* out);

// One `"name":value` member: the building block of every record here and
// of spexcheckd's one-off records (/statz, summaries, errors).
void AppendJsonString(std::string_view name, std::string_view value, std::string* out);
void AppendJsonNumber(std::string_view name, uint64_t value, std::string* out);
void AppendJsonBool(std::string_view name, bool value, std::string* out);

// config, index, suspects, shared_replays, [status, error] (failed
// reports only), violations: [{category, param, value, file, line,
// message, [note], [reaction, vulnerability, prediction]}, ...].
void AppendReportFields(const ConfigReport& report, std::string* out);
// kind, file, line, target: one contained include-resolution fault.
void AppendConfigSetErrorFields(const ConfigSetError& error, std::string* out);
// configs_checked, configs_with_errors, configs_with_violations,
// total_violations, total_suspects, unique_replays, dedup_ratio,
// store_hits, store_misses, store_appends.
void AppendBatchCounters(const BatchSummary& summary, std::string* out);

// {"type":"violation",<a report's violation object fields>}: one /check line.
std::string ViolationRecord(const Violation& violation);
// {"type":"report",<report fields>}: one per config, CLI and /batch alike.
std::string ReportRecord(const ConfigReport& report);
// {"type":"config_set","config","files","errors":[{<error fields>},...]}.
std::string ConfigSetRecord(const ResolvedConfigSet& set);
// {"type":"config_error","config","error"}: a config that could not be read.
std::string ConfigErrorRecord(std::string_view config, std::string_view error);
// {"summary":{<batch counters>},"schema":1}: spexcheck's closing record.
std::string SummaryRecord(const BatchSummary& summary);

}  // namespace spex

#endif  // SPEX_API_REPORT_JSON_H_
