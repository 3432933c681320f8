#include "src/confgen/config_file.h"

#include <algorithm>
#include <sstream>

#include "src/support/strings.h"

namespace spex {

const char* ConfigDialectName(ConfigDialect dialect) {
  switch (dialect) {
    case ConfigDialect::kKeyEqualsValue:
      return "key=value";
    case ConfigDialect::kKeyValue:
      return "key-value";
  }
  return "?";
}

std::optional<ConfigDialect> ParseConfigDialectName(std::string_view name) {
  if (name == "key=value") {
    return ConfigDialect::kKeyEqualsValue;
  }
  if (name == "key-value") {
    return ConfigDialect::kKeyValue;
  }
  return std::nullopt;
}

std::string SupportedConfigDialectNames() {
  return std::string(ConfigDialectName(ConfigDialect::kKeyEqualsValue)) + ", " +
         ConfigDialectName(ConfigDialect::kKeyValue);
}

ConfigFile ConfigFile::Parse(std::string_view text, ConfigDialect dialect) {
  ConfigFile file(dialect);
  file.entries_.reserve(static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) + 1);
  uint32_t line_number = 0;
  std::string_view raw_line;
  for (LineCursor lines(text); lines.Next(&raw_line);) {
    std::string_view line = TrimWhitespace(raw_line);
    ConfigEntry& entry = file.entries_.emplace_back();
    entry.line = ++line_number;
    if (line.empty()) {
      entry.kind = ConfigEntry::Kind::kBlank;
      continue;
    }
    if (line[0] == '#' || line[0] == ';') {
      entry.kind = ConfigEntry::Kind::kComment;
      entry.raw = line;
      continue;
    }
    entry.kind = ConfigEntry::Kind::kSetting;
    if (dialect == ConfigDialect::kKeyEqualsValue) {
      size_t eq = line.find('=');
      if (eq == std::string_view::npos) {
        entry.key = line;
      } else {
        entry.key = TrimWhitespace(line.substr(0, eq));
        entry.value = TrimWhitespace(line.substr(eq + 1));
      }
    } else {
      // A plain scan: find_first_of tests each character against the set
      // with a call of its own.
      size_t space = 0;
      while (space < line.size() && line[space] != ' ' && line[space] != '\t') {
        ++space;
      }
      if (space == line.size()) {
        entry.key = line;
      } else {
        entry.key = line.substr(0, space);
        entry.value = TrimWhitespace(line.substr(space + 1));
      }
    }
  }
  // Drop a single trailing blank produced by a final newline.
  if (!file.entries_.empty() && file.entries_.back().kind == ConfigEntry::Kind::kBlank) {
    file.entries_.pop_back();
  }
  return file;
}

std::optional<std::string_view> ConfigFile::Get(std::string_view key) const {
  for (const ConfigEntry& entry : entries_) {
    if (entry.kind == ConfigEntry::Kind::kSetting && entry.key == key) {
      return entry.value;
    }
  }
  return std::nullopt;
}

uint32_t ConfigFile::LineOf(std::string_view key) const {
  for (const ConfigEntry& entry : entries_) {
    if (entry.kind == ConfigEntry::Kind::kSetting && entry.key == key) {
      return entry.line;
    }
  }
  return 0;
}

void ConfigFile::Set(std::string_view key, std::string_view value) {
  for (ConfigEntry& entry : entries_) {
    if (entry.kind == ConfigEntry::Kind::kSetting && entry.key == key) {
      entry.value = std::string(value);
      return;
    }
  }
  Append(key, value);
}

void ConfigFile::Append(std::string_view key, std::string_view value) {
  ConfigEntry entry;
  entry.kind = ConfigEntry::Kind::kSetting;
  entry.key = std::string(key);
  entry.value = std::string(value);
  entry.line = entries_.empty() ? 1 : entries_.back().line + 1;
  entries_.push_back(std::move(entry));
}

bool ConfigFile::Remove(std::string_view key) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->kind == ConfigEntry::Kind::kSetting && it->key == key) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

void ConfigFile::AppendComment(std::string_view text) {
  ConfigEntry entry;
  entry.kind = ConfigEntry::Kind::kComment;
  entry.raw = "# " + std::string(text);
  entry.line = entries_.empty() ? 1 : entries_.back().line + 1;
  entries_.push_back(std::move(entry));
}

size_t ConfigFile::SettingCount() const {
  size_t count = 0;
  for (const ConfigEntry& entry : entries_) {
    if (entry.kind == ConfigEntry::Kind::kSetting) {
      ++count;
    }
  }
  return count;
}

std::string ConfigFile::Serialize() const {
  std::ostringstream out;
  for (const ConfigEntry& entry : entries_) {
    switch (entry.kind) {
      case ConfigEntry::Kind::kBlank:
        out << "\n";
        break;
      case ConfigEntry::Kind::kComment:
        out << entry.raw << "\n";
        break;
      case ConfigEntry::Kind::kSetting:
        if (dialect_ == ConfigDialect::kKeyEqualsValue) {
          out << entry.key << " = " << entry.value << "\n";
        } else {
          out << entry.key << " " << entry.value << "\n";
        }
        break;
    }
  }
  return out.str();
}

}  // namespace spex
