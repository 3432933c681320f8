// Small string utilities shared across the code base.
//
// These mirror the handful of helpers the pipeline needs constantly: token
// splitting for annotation and config files, case-insensitive comparison for
// the case-sensitivity analyses, and numeric parsing that reports failure
// instead of silently truncating (SPEX itself must not use "unsafe APIs").
#ifndef SPEX_SUPPORT_STRINGS_H_
#define SPEX_SUPPORT_STRINGS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace spex {

std::string_view TrimWhitespace(std::string_view text);

std::vector<std::string> SplitString(std::string_view text, char delimiter);

// Walks `text` one '\n'-separated line at a time, as views into `text`:
// the same pieces, in the same order, as SplitString(text, '\n'), so empty
// text is one empty line and a final newline ends with one.
//
//   std::string_view line;
//   for (LineCursor lines(text); lines.Next(&line);) { ... }
class LineCursor {
 public:
  explicit LineCursor(std::string_view text) : rest_(text) {}

  bool Next(std::string_view* line) {
    if (done_) {
      return false;
    }
    size_t newline = rest_.find('\n');
    if (newline == std::string_view::npos) {
      *line = rest_;
      done_ = true;
    } else {
      *line = rest_.substr(0, newline);
      rest_.remove_prefix(newline + 1);
    }
    return true;
  }

 private:
  std::string_view rest_;
  bool done_ = false;
};

// Splits on runs of whitespace; no empty fields are produced.
std::vector<std::string> SplitWhitespace(std::string_view text);

std::string JoinStrings(const std::vector<std::string>& parts, std::string_view separator);

std::string ToLowerCopy(std::string_view text);
std::string ToUpperCopy(std::string_view text);

bool EqualsIgnoreCase(std::string_view a, std::string_view b);
// Three-way strcmp-style comparison; returns -1, 0 or 1. The IgnoreCase
// variant lowercases on the fly — no temporary copies.
int CompareStrings(std::string_view a, std::string_view b);
int CompareStringsIgnoreCase(std::string_view a, std::string_view b);
bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);
bool ContainsSubstring(std::string_view haystack, std::string_view needle);
bool ContainsSubstringIgnoreCase(std::string_view haystack, std::string_view needle);

// Strict integer parsing: the whole string must be a decimal (optionally
// signed) integer with no trailing garbage. Returns nullopt on any deviation,
// including overflow of int64_t.
std::optional<int64_t> ParseInt64(std::string_view text);

// Strict floating-point parsing with the same whole-string requirement.
std::optional<double> ParseDouble(std::string_view text);

// Replaces every occurrence of `from` with `to`.
std::string ReplaceAll(std::string text, std::string_view from, std::string_view to);

}  // namespace spex

#endif  // SPEX_SUPPORT_STRINGS_H_
