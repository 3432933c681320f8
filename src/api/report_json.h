// The JSON-lines report schema of `spexcheck --format jsonl` (flat,
// --include-roots and --matrix) and of spexcheckd's /check and /batch
// responses, encoded here and nowhere else so the surfaces cannot drift
// apart (docs/api.md, "JSON-lines schema").
//
// Append* functions add members to the JSON object left open at the end
// of `out` (or start a bare member list when `out` is empty); *Record
// functions return one whole object, without the trailing newline.
#ifndef SPEX_API_REPORT_JSON_H_
#define SPEX_API_REPORT_JSON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/api/batch_check.h"
#include "src/api/config_set.h"
#include "src/matrix/matrix_check.h"
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
// of spexcheckd's one-off records (/statz, errors).
void AppendJsonString(std::string_view name, std::string_view value, std::string* out);
void AppendJsonNumber(std::string_view name, uint64_t value, std::string* out);
void AppendJsonBool(std::string_view name, bool value, std::string* out);

// configs_checked, configs_with_errors, configs_with_violations,
// total_violations, total_suspects, unique_replays, dedup_ratio,
// store_hits, store_misses, store_appends.
void AppendBatchCounters(const BatchSummary& summary, std::string* out);

// {"type":"violation",<a report's violation object fields>}: one /check line.
std::string ViolationRecord(const Violation& violation);
// {"type":"report",<report fields>}: one per config, CLI and /batch alike.
// Report fields: config, index, suspects, shared_replays, [status, error]
// (failed reports only), violations: [{<violation fields>}, ...].
std::string ReportRecord(const ConfigReport& report);
// {"type":"config_set","config","files","errors":[{<error fields>},...]}.
// Error fields, one contained include-resolution fault: kind, file, line,
// target.
std::string ConfigSetRecord(const ResolvedConfigSet& set);
// {"type":"config_error","config","error"}: a config that could not be read.
std::string ConfigErrorRecord(std::string_view config, std::string_view error);
// {"summary":{<batch counters>},"schema":1}: spexcheck's closing record.
std::string SummaryRecord(const BatchSummary& summary);

// spexcheck --matrix: {"type":"cell","version","version_label",<report
// fields>} per cell; {"type":"version","version","label", then the batch
// counters, or "status","error" for a version that failed to load};
// {"type":"diff","config","config_index","from","to","from_label",
// "to_label","transition","added","removed","changed","detail"}; and the
// closing {"type":"matrix_summary","schema",<MatrixSummary counters>}.
std::string CellRecord(size_t version, std::string_view version_label,
                       const ConfigReport& report);
std::string VersionRecord(const VersionReport& column);
std::string DiffRecord(const ConfigTransition& transition);
std::string MatrixSummaryRecord(const MatrixSummary& summary);

// spexcheckd: {"type":"config_set_error",<error fields>} per include fault
// of a multi-file /check body, and the closing records
// {"type":"summary","schema","status","target","mode","violations",
// ["files"] (multi-file bodies only),"degraded","cached"} of /check and
// {"type":"batch_summary","schema","status",<batch counters>,"degraded",
// "cached"} of /batch. `degraded`: a dynamic check ran statically;
// "cached": every suspect execution was served from the verdict store.
std::string ConfigSetErrorRecord(const ConfigSetError& error);
std::string CheckSummaryRecord(const BatchSummary& summary, const Status& status,
                               std::string_view target, CheckMode mode,
                               std::optional<size_t> files, bool degraded);
std::string BatchSummaryRecord(const BatchSummary& summary, const Status& status,
                               bool degraded);
// spexcheckd: {"type":"error","status","message"}, the whole body of a
// request that failed before any report was written.
std::string ErrorRecord(const Status& status);

}  // namespace spex

#endif  // SPEX_API_REPORT_JSON_H_
