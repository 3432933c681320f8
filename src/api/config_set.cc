#include "src/api/config_set.h"

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "src/api/report_json.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"

namespace spex {

const char* ConfigSetErrorKindName(ConfigSetError::Kind kind) {
  switch (kind) {
    case ConfigSetError::Kind::kMissingInclude:
      return "missing-include";
    case ConfigSetError::Kind::kIncludeCycle:
      return "include-cycle";
    case ConfigSetError::Kind::kDepthExceeded:
      return "depth-exceeded";
    case ConfigSetError::Kind::kTooManyFiles:
      return "too-many-files";
  }
  return "?";
}

std::string ConfigSetError::ToString() const {
  std::string at = file.empty() ? std::string("<root>")
                                : file + ":" + std::to_string(line);
  switch (kind) {
    case Kind::kMissingInclude:
      return at + ": missing include: '" + target + "' could not be loaded";
    case Kind::kIncludeCycle:
      return at + ": include cycle: '" + target + "' is already being included";
    case Kind::kDepthExceeded:
      return at + ": include chain too deep at '" + target + "'";
    case Kind::kTooManyFiles:
      return at + ": too many files in include tree (expansion stopped at '" + target + "')";
  }
  return at + ": ?";
}

const SettingProvenance* ResolvedConfigSet::FindProvenance(std::string_view key) const {
  for (const SettingProvenance& prov : provenance) {
    if (prov.key == key) {
      return &prov;
    }
  }
  return nullptr;
}

MemoryConfigSetSource::MemoryConfigSetSource(std::span<const ConfigInput> files) {
  for (const ConfigInput& file : files) {
    files_.emplace(file.name, file.text);  // First occurrence of a name wins.
  }
}

std::optional<std::string> MemoryConfigSetSource::Load(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<std::vector<std::string>> MemoryConfigSetSource::ListDir(const std::string& dir) {
  std::string prefix = dir + "/";
  std::vector<std::string> names;
  // files_ is an ordered map, so the result is already name-sorted.
  for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    names.push_back(it->first);
  }
  if (names.empty()) {
    return std::nullopt;  // A memory "directory" exists iff it has files.
  }
  return names;
}

bool ParseIncludeDirective(const ConfigEntry& entry, bool* is_dir, std::string* operand) {
  if (entry.kind != ConfigEntry::Kind::kSetting) {
    return false;
  }
  std::string_view word = entry.key;
  std::string_view rest = entry.value;
  if (entry.value.empty()) {
    // key=value dialect: `include "x"` has no '=', so the whole line landed
    // in the key. Split it back into directive word + operand.
    size_t space = word.find_first_of(" \t");
    if (space != std::string_view::npos) {
      rest = TrimWhitespace(word.substr(space + 1));
      word = word.substr(0, space);
    }
  }
  bool dir = false;
  if (word == "include") {
    dir = false;
  } else if (word == "include_dir" || word == "includedir") {
    dir = true;
  } else {
    return false;
  }
  std::string_view target = TrimWhitespace(rest);
  if (target.size() >= 2 &&
      ((target.front() == '"' && target.back() == '"') ||
       (target.front() == '\'' && target.back() == '\'') ||
       (target.front() == '<' && target.back() == '>'))) {
    target = target.substr(1, target.size() - 2);
  }
  *is_dir = dir;
  *operand = std::string(target);
  return true;
}

std::string JoinIncludePath(std::string_view including_file, std::string_view operand) {
  if (operand.empty() || operand.front() == '/') {
    return std::string(operand);
  }
  std::filesystem::path base(including_file);
  std::filesystem::path joined = base.parent_path() / std::filesystem::path(operand);
  return joined.lexically_normal().generic_string();
}

namespace {

// The per-call file memo: every distinct name is loaded and parsed at most
// once, however many roots and threads ask for it, and a name that cannot
// be loaded is remembered as such. Each entry is filled under its own
// once_flag, so a racing reader waits for the one load instead of making a
// second. Entries never move once made; resolvers keep pointers into them
// for the whole call.
class FileMemo {
 public:
  FileMemo(ConfigSetSource& source, ConfigDialect dialect) : source_(source), dialect_(dialect) {}

  ConfigSetSource& source() { return source_; }

  // The file named `name`, or nullptr when it cannot be loaded.
  const ConfigFile* Find(const std::string& name) {
    Entry* entry;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      entry = &entries_[name];
    }
    std::call_once(entry->once, [&] { Load(name, entry); });
    return entry->file.has_value() ? &*entry->file : nullptr;
  }

 private:
  struct Entry {
    std::once_flag once;
    std::optional<ConfigFile> file;
  };

  void Load(const std::string& name, Entry* entry) {
    std::optional<std::string> text = source_.Load(name);
    if (text.has_value()) {
      entry->file = ConfigFile::Parse(*text, dialect_);
    }
  }

  ConfigSetSource& source_;
  ConfigDialect dialect_;
  std::mutex mutex_;  // Guards the map, not the entries.
  std::unordered_map<std::string, Entry> entries_;
};

// Depth-first include expansion with per-fault containment. One instance
// resolves one root; everything but the shared memo is local, so
// concurrent resolutions share only read-only loaded files.
class SetResolver {
 public:
  SetResolver(FileMemo& memo, ConfigDialect dialect) : memo_(memo), dialect_(dialect) {}

  ResolvedConfigSet Run(const std::string& root_name) {
    out_.name = root_name;
    ExpandFile(root_name, /*from_file=*/"", /*from_line=*/0, /*depth=*/0);
    // Materialize the effective config: each key once, at the position of
    // its first assignment, carrying the value of its last. Provenance
    // keys are unique, so each one is appended without a lookup.
    ConfigFile effective(dialect_);
    for (const SettingProvenance& prov : out_.provenance) {
      effective.Append(prov.key, prov.winner.value);
    }
    out_.effective = std::move(effective);
    return std::move(out_);
  }

 private:
  void AddError(ConfigSetError::Kind kind, const std::string& file, uint32_t line,
                const std::string& target) {
    ConfigSetError error;
    error.kind = kind;
    error.file = file;
    error.line = line;
    error.target = target;
    out_.errors.push_back(std::move(error));
  }

  void Apply(const std::string& file, const ConfigEntry& entry) {
    auto it = key_index_.find(entry.key);
    if (it == key_index_.end()) {
      SettingProvenance prov;
      prov.key = entry.key;
      prov.winner = SettingOrigin{file, entry.line, entry.value};
      key_index_.emplace(entry.key, out_.provenance.size());
      out_.provenance.push_back(std::move(prov));
      return;
    }
    SettingProvenance& prov = out_.provenance[it->second];
    prov.shadowed.push_back(std::move(prov.winner));
    prov.winner = SettingOrigin{file, entry.line, entry.value};
  }

  void ExpandFile(const std::string& name, const std::string& from_file, uint32_t from_line,
                  size_t depth) {
    if (expansion_stopped_) {
      return;
    }
    if (depth > kMaxIncludeDepth) {
      AddError(ConfigSetError::Kind::kDepthExceeded, from_file, from_line, name);
      return;
    }
    if (stack_.count(name) > 0) {
      AddError(ConfigSetError::Kind::kIncludeCycle, from_file, from_line, name);
      return;
    }
    if (out_.files_resolved >= kMaxIncludeFiles) {
      // Include-bomb guard: one record, then stop expanding entirely —
      // a bomb would otherwise flood the error list too. It counts
      // expansions, so a memoized file included twice counts twice.
      AddError(ConfigSetError::Kind::kTooManyFiles, from_file, from_line, name);
      expansion_stopped_ = true;
      return;
    }
    const ConfigFile* file = memo_.Find(name);
    if (file == nullptr) {
      AddError(ConfigSetError::Kind::kMissingInclude, from_file, from_line, name);
      return;
    }
    ++out_.files_resolved;
    stack_.insert(name);
    for (const ConfigEntry& entry : file->entries()) {
      if (entry.kind != ConfigEntry::Kind::kSetting) {
        continue;
      }
      bool is_dir = false;
      std::string operand;
      if (!ParseIncludeDirective(entry, &is_dir, &operand)) {
        Apply(name, entry);
        continue;
      }
      if (operand.empty()) {
        AddError(ConfigSetError::Kind::kMissingInclude, name, entry.line, "");
        continue;
      }
      std::string target = JoinIncludePath(name, operand);
      if (!is_dir) {
        ExpandFile(target, name, entry.line, depth + 1);
        continue;
      }
      std::optional<std::vector<std::string>> listed = memo_.source().ListDir(target);
      if (!listed.has_value()) {
        AddError(ConfigSetError::Kind::kMissingInclude, name, entry.line, target);
        continue;
      }
      for (const std::string& child : *listed) {
        ExpandFile(child, name, entry.line, depth + 1);
      }
    }
    stack_.erase(name);
  }

  FileMemo& memo_;
  ConfigDialect dialect_;
  ResolvedConfigSet out_;
  // Keys view the memo's entries, which outlive this resolver.
  std::unordered_map<std::string_view, size_t> key_index_;
  std::unordered_set<std::string> stack_;
  bool expansion_stopped_ = false;
};

}  // namespace

std::vector<ResolvedConfigSet> ResolveConfigSets(std::span<const std::string> roots,
                                                 ConfigSetSource& source, ConfigDialect dialect,
                                                 ThreadPool* pool, size_t workers) {
  FileMemo memo(source, dialect);
  std::vector<ResolvedConfigSet> sets(roots.size());
  ForEachIndex(pool, roots.size(), workers,
               [&](size_t i) { sets[i] = SetResolver(memo, dialect).Run(roots[i]); });
  return sets;
}

ResolvedConfigSet ResolveConfigSet(const std::string& root_name, ConfigSetSource& source,
                                   ConfigDialect dialect) {
  return std::move(ResolveConfigSets({&root_name, 1}, source, dialect).front());
}

ResolvedConfigSet ResolveConfigSet(std::span<const ConfigInput> files, ConfigDialect dialect) {
  MemoryConfigSetSource source(files);
  std::string root = files.empty() ? std::string("<empty>") : files.front().name;
  return ResolveConfigSet(root, source, dialect);
}

namespace {

std::string OriginRef(const SettingOrigin& origin) {
  return origin.file + ":" + std::to_string(origin.line);
}

void AppendNote(std::string* note, std::string text) {
  if (!note->empty()) {
    *note += "; ";
  }
  *note += std::move(text);
}

}  // namespace

void RewriteViolationsWithProvenance(const ResolvedConfigSet& set,
                                     const ModuleConstraints& constraints,
                                     std::vector<Violation>* violations) {
  for (Violation& violation : *violations) {
    const SettingProvenance* prov = set.FindProvenance(violation.param);
    if (prov == nullptr) {
      continue;  // Not a key of this set (defensive; should not happen).
    }
    violation.file = prov->winner.file;
    violation.line = prov->winner.line;
    std::string note;
    for (const SettingOrigin& shadow : prov->shadowed) {
      AppendNote(&note, "overridden at " + OriginRef(shadow) + " (earlier value '" +
                            shadow.value + "')");
    }
    // Cross-parameter findings: name the file the peer resolved from when
    // it is not the same file as the primary — the whole point of checking
    // the set instead of its fragments.
    if (violation.category == ViolationCategory::kValueRel) {
      for (const ValueRelConstraint& rel : constraints.value_rels) {
        if (rel.lhs != violation.param) {
          continue;
        }
        const SettingProvenance* peer = set.FindProvenance(rel.rhs);
        if (peer != nullptr && peer->winner.file != prov->winner.file) {
          AppendNote(&note, "cross-file: " + rel.rhs + " = '" + peer->winner.value +
                                "' resolves from " + OriginRef(peer->winner));
        }
      }
    } else if (violation.category == ViolationCategory::kControlDep) {
      for (const ControlDepConstraint& dep : constraints.control_deps) {
        if (dep.dependent != violation.param) {
          continue;
        }
        const SettingProvenance* peer = set.FindProvenance(dep.master);
        if (peer != nullptr && peer->winner.file != prov->winner.file) {
          AppendNote(&note, "cross-file: " + dep.master + " = '" + peer->winner.value +
                                "' resolves from " + OriginRef(peer->winner));
        }
      }
    }
    violation.override_note = std::move(note);
  }
}

namespace {

// Minimal strict JSON scanner for the one shape the /check endpoint
// accepts. Hand-rolled on purpose: the boundary wants a parser whose
// worst case on hostile input is a clean kInvalidArgument, and the repo
// takes no third-party dependencies.
class SetJsonParser {
 public:
  explicit SetJsonParser(std::string_view text) : text_(text) {}

  Status Parse(ConfigSetInput* out) {
    if (!Consume('{')) {
      return Bad("expected '{'");
    }
    std::string key;
    Status status = ParseString(&key);
    if (!status.ok()) {
      return status;
    }
    if (key != "files") {
      return Bad("expected a \"files\" key");
    }
    if (!Consume(':')) {
      return Bad("expected ':' after \"files\"");
    }
    if (!Consume('[')) {
      return Bad("expected '[' to open the files array");
    }
    if (!Consume(']')) {
      while (true) {
        ConfigInput file;
        status = ParseFile(&file);
        if (!status.ok()) {
          return status;
        }
        out->files.push_back(std::move(file));
        if (Consume(',')) {
          continue;
        }
        if (Consume(']')) {
          break;
        }
        return Bad("expected ',' or ']' in the files array");
      }
    }
    if (!Consume('}')) {
      return Bad("expected '}' to close the request");
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return Bad("trailing bytes after the request object");
    }
    if (out->files.empty()) {
      return Bad("\"files\" must name at least one file");
    }
    out->name = out->files.front().name;
    return Status::Ok();
  }

 private:
  Status ParseFile(ConfigInput* out) {
    if (!Consume('{')) {
      return Bad("expected '{' to open a file object");
    }
    bool saw_name = false;
    bool saw_text = false;
    if (!Consume('}')) {
      while (true) {
        std::string key;
        Status status = ParseString(&key);
        if (!status.ok()) {
          return status;
        }
        if (!Consume(':')) {
          return Bad("expected ':' in a file object");
        }
        std::string value;
        status = ParseString(&value);
        if (!status.ok()) {
          return status;
        }
        if (key == "name") {
          out->name = std::move(value);
          saw_name = true;
        } else if (key == "text") {
          out->text = std::move(value);
          saw_text = true;
        } else {
          return Bad("unknown file field \"" + key + "\" (want name/text)");
        }
        if (Consume(',')) {
          continue;
        }
        if (Consume('}')) {
          break;
        }
        return Bad("expected ',' or '}' in a file object");
      }
    }
    if (!saw_name || out->name.empty()) {
      return Bad("every file needs a non-empty \"name\"");
    }
    if (!saw_text) {
      return Bad("every file needs a \"text\" field");
    }
    return Status::Ok();
  }

  // Every token may be preceded by JSON whitespace; Consume and
  // ParseString skip it first.
  Status ParseString(std::string* out) {
    SkipSpace();
    Status status = DecodeJsonString(text_, &pos_, out);
    return status.ok() ? status : Bad(status.message());
  }

  void SkipSpace() { pos_ = std::min(text_.size(), text_.find_first_not_of(" \t\n\r", pos_)); }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Bad(std::string what) const {
    return Status::InvalidArgument("config-set body: " + std::move(what) + " at byte " +
                                   std::to_string(pos_));
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Status ParseConfigSetJson(std::string_view body, ConfigSetInput* out) {
  *out = ConfigSetInput{};
  return SetJsonParser(body).Parse(out);
}

}  // namespace spex
