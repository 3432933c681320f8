// Multi-file configuration sets: includes, overrides, provenance.
//
// Real fleets rarely ship one flat config file. They layer them: a base
// file `include`s site- and host-specific fragments, later assignments
// override earlier ones, and the value the system actually runs with may
// come from a file three includes away from where the operator is
// looking. The paper's checker (and everything above it in this repo)
// checks one file at a time; this layer resolves an ordered *set* of
// files into the one flattened effective config the target would see,
// while remembering where every winning and shadowed assignment came
// from — so a violation can point at conf.d/override.conf:2 instead of
// "somewhere in your include tree".
//
// Resolution semantics (deliberately the common-denominator of Apache/
// Squid/MySQL-style loaders):
//   - Files are expanded depth-first in directive order: an `include`
//     applies the included file's assignments at the point of the
//     directive, then continues with the including file.
//   - `include "file"` / `include file` / `include = file` all name one
//     file (quotes optional); `include_dir dir` applies every loadable
//     file under `dir` in sorted name order. Operands resolve relative
//     to the *including* file's directory.
//   - Last assignment wins. The effective config holds each key once, at
//     the position of its first assignment, with the value of its last —
//     exactly what ConfigFile::Set would have produced replaying the
//     assignments in order.
//   - Faults are contained per set, never fatal: a missing include, an
//     include cycle, a too-deep chain or an include bomb each produce a
//     ConfigSetError record and resolution continues with what it has.
//     Only an unloadable *root* leaves the set unresolved.
//
// The companion check path, Target::CheckConfigSet (src/api/session.h),
// feeds the flattened configs through CheckConfigBatch, so a suspect's
// execution identity is the *effective* value: two fleets that differ
// only in include structure deduplicate to the same replay. Checking a
// resolved set is bit-identical to checking its serialized effective
// config as a single file — same violations, same verdicts, same batch
// counters, at every thread count — except that violations are
// re-addressed to the winning assignment's file:line and annotated with
// the assignments they override (tests/config_set_test.cc proves this
// differentially).
//
// Thread-safety: resolution is a pure function of the source; distinct
// ResolveConfigSet calls may run concurrently (a ConfigSetSource shared
// across threads must itself be thread-safe — both implementations here
// are read-only after construction).
#ifndef SPEX_API_CONFIG_SET_H_
#define SPEX_API_CONFIG_SET_H_

#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/batch_check.h"
#include "src/confgen/config_file.h"
#include "src/support/status.h"

namespace spex {

// One contained resolution fault. `file`:`line` address the directive
// that failed (empty file for a fault on the root itself); `target` is
// what the directive named.
struct ConfigSetError {
  enum class Kind {
    kMissingInclude,  // Named file/dir not loadable (or empty operand).
    kIncludeCycle,    // Target is already on the expansion stack.
    kDepthExceeded,   // Include chain deeper than kMaxIncludeDepth.
    kTooManyFiles,    // Expansion hit kMaxIncludeFiles (include bomb guard).
  };
  Kind kind = Kind::kMissingInclude;
  std::string file;
  uint32_t line = 0;
  std::string target;

  // "base.conf:3: include cycle: 'a.conf' is already being included".
  std::string ToString() const;
};

const char* ConfigSetErrorKindName(ConfigSetError::Kind kind);

// One assignment as written in one source file.
struct SettingOrigin {
  std::string file;
  uint32_t line = 0;
  std::string value;
};

// Where a key's effective value came from, and every assignment it
// overrode (in resolution order — earliest first).
struct SettingProvenance {
  std::string key;
  SettingOrigin winner;
  std::vector<SettingOrigin> shadowed;
};

// Containment limits for one resolution: the deepest include chain
// followed, and the most files one root may expand to.
inline constexpr size_t kMaxIncludeDepth = 16;
inline constexpr size_t kMaxIncludeFiles = 256;

// The flattened result of resolving one root file.
struct ResolvedConfigSet {
  std::string name;      // Root file name; the report identity downstream.
  ConfigFile effective;  // Flattened last-wins config (settings only).
  // One entry per effective key, in effective-file order.
  std::vector<SettingProvenance> provenance;
  std::vector<ConfigSetError> errors;
  size_t files_resolved = 0;

  // False only when the root itself could not be loaded — every other
  // fault is contained and leaves a (partial) effective config.
  bool resolved() const { return files_resolved > 0; }
  const SettingProvenance* FindProvenance(std::string_view key) const;
};

// Where the resolver loads files from. Load returns the file's text or
// nullopt; ListDir returns the loadable names directly under `dir` in
// sorted order, or nullopt when `dir` itself is not listable. Names
// passed in are already joined relative to the including file.
class ConfigSetSource {
 public:
  virtual ~ConfigSetSource() = default;
  virtual std::optional<std::string> Load(const std::string& name) = 0;
  virtual std::optional<std::vector<std::string>> ListDir(const std::string& dir) = 0;
};

// In-memory source over a fixed set of named files (tests, spexcheckd
// request bodies). A "directory" is the set of names under `dir` + "/".
class MemoryConfigSetSource : public ConfigSetSource {
 public:
  explicit MemoryConfigSetSource(std::span<const ConfigInput> files);

  std::optional<std::string> Load(const std::string& name) override;
  std::optional<std::vector<std::string>> ListDir(const std::string& dir) override;

 private:
  std::map<std::string, std::string> files_;
};

// One multi-file config for Target::CheckConfigSet: files[0] is the root,
// the rest are the loadable set its includes may name. `name` overrides
// the report identity (defaults to the root file's name).
struct ConfigSetInput {
  std::string name;
  std::vector<ConfigInput> files;
};

// Resolves `root_name` through `source`. Never throws, never crashes on
// hostile input: every fault is an error record on the result.
ResolvedConfigSet ResolveConfigSet(const std::string& root_name, ConfigSetSource& source,
                                   ConfigDialect dialect);

// Convenience: resolve files[0] against an in-memory source of `files`.
ResolvedConfigSet ResolveConfigSet(std::span<const ConfigInput> files, ConfigDialect dialect);

// Detects the include-directive spelling of a parsed entry in either
// dialect (`include "x"`, `include x`, `include = x`; same for
// include_dir). Quotes/angle brackets around the operand are stripped.
// Returns true with *is_dir and *operand set; an empty operand is still
// a directive (the resolver reports it as a missing include).
bool ParseIncludeDirective(const ConfigEntry& entry, bool* is_dir, std::string* operand);

// Lexically joins an include operand against the including file's
// directory ("conf.d/a.conf" + "../base.conf" -> "base.conf"); absolute
// operands pass through. Pure string math, no filesystem access.
std::string JoinIncludePath(std::string_view including_file, std::string_view operand);

// Re-addresses violations produced by checking `set.effective` as a
// single file: file/line become the winning assignment's origin, and
// `Violation::override_note` gains the shadowed assignments plus — for
// cross-parameter findings — the file the peer parameter resolved from
// when it differs. Every other field is left bit-identical.
void RewriteViolationsWithProvenance(const ResolvedConfigSet& set,
                                     const ModuleConstraints& constraints,
                                     std::vector<Violation>* violations);

// Parses a spexcheckd /check config-set body:
//   {"files":[{"name":"base.conf","text":"a = 1\n"}, ...]}
// Strict about shape, tolerant about whitespace; strings are decoded by
// DecodeJsonString (src/api/report_json.h), surrogate pairs included.
// kInvalidArgument names the first offense and its byte position; hostile
// input never crashes (tests/parser_robustness_test.cc).
Status ParseConfigSetJson(std::string_view body, ConfigSetInput* out);

}  // namespace spex

#endif  // SPEX_API_CONFIG_SET_H_
