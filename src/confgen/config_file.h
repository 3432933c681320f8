// Configuration-file abstract representation (AR).
//
// SPEX-INJ mutates a template configuration file into test configurations
// (Section 3.1; the paper reuses ConfErr's parser for this). The AR keeps
// comments, blank lines and entry order so a serialized mutation looks like
// something a user actually wrote.
#ifndef SPEX_CONFGEN_CONFIG_FILE_H_
#define SPEX_CONFGEN_CONFIG_FILE_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace spex {

enum class ConfigDialect {
  kKeyEqualsValue,  // `key = value`   (MySQL/PostgreSQL-style)
  kKeyValue,        // `key value`     (Apache/Squid-style)
};

// Canonical user-facing name ("key=value" / "key-value").
const char* ConfigDialectName(ConfigDialect dialect);

// Parses a user-supplied dialect name; nullopt for anything unknown.
std::optional<ConfigDialect> ParseConfigDialectName(std::string_view name);

// "key=value, key-value" — the single source of truth for every "unknown
// dialect" error message (spexcheck's --dialect, tools that grow one later).
std::string SupportedConfigDialectNames();

struct ConfigEntry {
  enum class Kind { kSetting, kComment, kBlank };
  Kind kind = Kind::kSetting;
  std::string key;
  std::string value;
  std::string raw;  // Comments/blank lines verbatim.
  uint32_t line = 0;
};

class ConfigFile {
 public:
  ConfigFile() = default;
  explicit ConfigFile(ConfigDialect dialect) : dialect_(dialect) {}

  static ConfigFile Parse(std::string_view text, ConfigDialect dialect);

  ConfigDialect dialect() const { return dialect_; }
  const std::vector<ConfigEntry>& entries() const { return entries_; }

  // The value of a key's first setting, as a view into this file's own
  // entry: valid until the file is modified or destroyed.
  std::optional<std::string_view> Get(std::string_view key) const;
  // Line number of a key's setting (for error reports), 0 if absent.
  uint32_t LineOf(std::string_view key) const;
  // Overwrites the first setting of `key`, or appends one.
  void Set(std::string_view key, std::string_view value);
  // Appends a setting without looking for an existing one: for callers
  // that already know `key` is not set (Set scans every entry).
  void Append(std::string_view key, std::string_view value);
  bool Remove(std::string_view key);
  void AppendComment(std::string_view text);

  size_t SettingCount() const;
  std::string Serialize() const;

 private:
  ConfigDialect dialect_ = ConfigDialect::kKeyEqualsValue;
  std::vector<ConfigEntry> entries_;
};

}  // namespace spex

#endif  // SPEX_CONFGEN_CONFIG_FILE_H_
