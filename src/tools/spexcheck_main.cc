// spexcheck — fleet-scale configuration checking from the command line.
//
// The first end-user-runnable binary of the reproduction: load a target
// (corpus name or MiniC source + annotations), glob a directory of user
// configs, run one batch check (Target::CheckConfigBatch — unique
// mistakes replay once, verdicts fan out), and report per config as text
// or JSON-lines. With --matrix, the same fleet is checked against every
// listed version of the target (Session::CheckMatrix) and each config's
// transition between adjacent versions is classified — "which upgrade
// breaks whose config". See docs/api.md ("spexcheck CLI reference") for
// flags and exit codes, and "JSON-lines schema" for the JSONL records.
//
//   spexcheck --target squid configs/                 # every *.conf in configs/
//   spexcheck --target mysql --format jsonl my.cnf
//   spexcheck --source server.c --annotations server.ann --template base.conf my.conf
//   spexcheck --matrix --source v1.c --annotations s.ann \
//             --source v2.c --annotations s.ann configs/  # upgrade report
//   spexcheck --target squid --dump-template > base.conf
//
// Exit codes: 0 = every config clean (--matrix: no regressions), 1 = at
// least one violation or per-config error (--matrix: at least one
// regression), 2 = usage / load error, or NO config could be checked at
// all. A single unreadable or unparseable file inside a directory scan is
// contained as a per-config error record — it never aborts the rest of
// the fleet.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <set>

#include "src/api/config_set.h"
#include "src/api/report_json.h"
#include "src/api/session.h"
#include "src/corpus/spec.h"
#include "src/support/verdict_store.h"

namespace spex {
namespace {

namespace fs = std::filesystem;

constexpr const char* kUsage =
    R"(usage: spexcheck --target <name> [options] <config-file-or-dir>...
       spexcheck --source <f> --annotations <f> [--template <f>] [options] <configs>...
       spexcheck --matrix (--target <name> | --source <f> ...)... [options] <configs>...

Check a fleet of configuration files against a target and report, per
file, which inferred constraint each line violates and (in dynamic mode)
what the system will actually do with the setting. With --matrix, check
the fleet against every listed version of the target and classify each
config's transition between adjacent versions — regression, fix,
changed-reaction or stable ("which upgrade breaks whose config").

target selection (each --target or --source starts a version; repeatable
with --matrix, exactly one otherwise):
  --target <name>      corpus target to check against (see --list-targets)
  --source <file>      target from MiniC source instead of the corpus
  --annotations <file> mapping annotations for the preceding --source
  --template <file>    known-good template config for the preceding --source
                       (required for dynamic replay; optional for static)
  --dialect <d>        config dialect for the preceding --source:
                       key=value | key-value (default: key=value)
  --label <name>       report label for the preceding version

options:
  --matrix             version-matrix mode: check the fleet against every
                       listed version, diff adjacent columns (text: grid +
                       transitions; jsonl: cell/version/diff records)
  --mode <m>           static | dynamic (default: dynamic)
  --threads <n>        batch workers: 1 = serial, 0 = hardware (default: 0)
  --format <f>         text | jsonl (default: text)
  --pattern <glob>     filename filter for directories, * and ? wildcards
                       (default: *.conf)
  --include-roots <dir> multi-file mode (repeatable): every file matching
                       --pattern directly in <dir> is the root of a config
                       *set* — its include/include_dir directives are
                       resolved (relative to the including file), later
                       assignments override earlier ones, and the flattened
                       effective config is checked. Violations point at the
                       winning assignment's file:line; missing includes and
                       include cycles are contained per set as config_set
                       error records (exit 1). Exit 2 only when no set
                       could be resolved at all. Not available with --matrix.
  --store <path>       persistent verdict store: known verdicts are served
                       from disk instead of replayed, fresh ones appended —
                       a re-check of an unchanged fleet replays nothing
                       (--matrix: each version gets its own scope, so a
                       version bump re-checks only the bumped column)
  --dump-template      print the target's known-good template config and exit
  --list-targets       print available corpus target names and exit
  --help               this message

exit codes: 0 = all configs clean (--matrix: no regressions),
            1 = violations or per-config errors (--matrix: a regression),
            2 = usage/load error or no config checked
)";

// Minimal * / ? glob over filenames (no character classes, no path
// separators) — enough for `--pattern '*.conf'` without regex machinery.
// Iterative two-pointer match: on mismatch, retry from the last '*' with
// one more character consumed — O(pattern * text), so a hostile
// many-star pattern cannot pin the CPU the way naive backtracking would.
bool GlobMatch(const std::string& pattern, const std::string& text) {
  size_t p = 0;
  size_t t = 0;
  size_t star = std::string::npos;   // Position of the last '*' seen.
  size_t star_t = 0;                 // Text position that star is matching from.
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') {
    ++p;
  }
  return p == pattern.size();
}

// Regular files directly in `dir` whose names match `pattern`, sorted by
// name so report order (and the JSONL stream) is stable across
// filesystems. Non-throwing: a file vanishing mid-scan (or turning
// stat-inaccessible) sets `ec` instead of calling std::terminate.
std::vector<std::string> ListMatching(const std::string& dir, const std::string& pattern,
                                      std::error_code& ec) {
  std::vector<std::string> names;
  fs::directory_iterator it(dir, ec);
  for (; !ec && it != fs::directory_iterator(); it.increment(ec)) {
    std::error_code entry_ec;
    if (it->is_regular_file(entry_ec) && GlobMatch(pattern, it->path().filename())) {
      names.push_back(it->path().generic_string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

// One version of the target as named on the command line — file paths,
// not contents; BuildVersions reads them.
struct VersionArg {
  std::string label;
  std::string corpus;
  std::string source_path;
  std::string annotations_path;
  std::string template_path;
  ConfigDialect dialect = ConfigDialect::kKeyEqualsValue;
};

struct CliOptions {
  bool matrix = false;
  std::vector<VersionArg> versions;
  CheckMode mode = CheckMode::kDynamic;
  int threads = 0;
  bool jsonl = false;
  std::string pattern = "*.conf";
  std::vector<std::string> include_roots;
  std::string store_path;
  bool dump_template = false;
  bool list_targets = false;
  std::vector<std::string> paths;
};

// A config that could not be read at all. Reported alongside the real
// reports so one bad file never hides the rest of the fleet.
struct ConfigError {
  std::string name;
  std::string message;
};

// A fleet report format. OnConfigSet comes ahead of an include tree's
// report: how the tree resolved and every contained resolution fault.
class FleetWriter : public BatchObserver {
 public:
  virtual void OnConfigSet(const ResolvedConfigSet& set) = 0;
};

// One JSON line per config as its report streams in, plus a final
// summary line — the format a fleet pipeline tails.
class JsonlWriter : public FleetWriter {
 public:
  void OnConfigSet(const ResolvedConfigSet& set) override {
    std::cout << ConfigSetRecord(set) << "\n";
  }

  void OnConfigChecked(size_t, const ConfigReport& report) override {
    std::cout << ReportRecord(report) << "\n";
  }

  void OnBatchEnd(const BatchSummary& summary) override {
    std::cout << SummaryRecord(summary) << "\n";
  }
};

class TextWriter : public FleetWriter {
 public:
  void OnConfigSet(const ResolvedConfigSet& set) override {
    for (const ConfigSetError& error : set.errors) {
      std::cout << set.name << ": include error: " << error.ToString() << "\n";
    }
  }

  void OnConfigChecked(size_t, const ConfigReport& report) override {
    if (!report.status.ok()) {
      std::cout << report.name << ": ERROR " << report.status.message() << "\n";
      return;
    }
    if (report.violations.empty()) {
      std::cout << report.name << ": OK\n";
      return;
    }
    std::cout << report.name << ": " << report.violations.size() << " violation"
              << (report.violations.size() == 1 ? "" : "s") << "\n";
    for (const Violation& violation : report.violations) {
      std::cout << "  " << violation.ToString() << "\n";
    }
  }

  void OnBatchEnd(const BatchSummary& summary) override {
    std::cout << "checked " << summary.configs_checked << " config(s): "
              << summary.configs_with_violations << " with violations, "
              << summary.total_violations << " violation(s) total";
    if (summary.configs_with_errors != 0) {
      std::cout << "; " << summary.configs_with_errors << " with errors";
    }
    if (summary.total_suspects != 0) {
      std::cout << "; " << summary.total_suspects << " suspect setting(s), "
                << summary.unique_replays << " unique replay(s) (dedup "
                << static_cast<int>(summary.DedupRatio() * 100.0) << "%)";
    }
    if (summary.store_hits != 0 || summary.store_appends != 0) {
      std::cout << "; verdict store: " << summary.store_hits << " hit(s), "
                << summary.store_appends << " appended";
    }
    std::cout << "\n";
  }
};

// A matrix report format. Either one warns on stderr when a version
// fails to load.
class MatrixWriter : public MatrixObserver {
 public:
  void OnVersionLoaded(const LoadedVersion& version) override {
    if (!version.status.ok()) {
      std::cerr << "spexcheck: version '" << version.label
                << "' failed to load: " << version.status.message() << "\n";
    }
  }
};

// Matrix text report: per-version summary lines and non-stable
// transitions as they stream, then the config × version grid. Per-cell
// violation detail is the jsonl format's job — a text grid that printed
// every violation of every cell would bury the upgrade story.
class MatrixTextWriter : public MatrixWriter {
 public:
  void OnMatrixBegin(size_t versions, size_t configs) override {
    std::cout << "matrix: " << versions << " version(s) x " << configs
              << " config(s)\n";
  }

  void OnVersionChecked(const VersionReport& column) override {
    if (!column.status.ok()) {
      return;
    }
    std::cout << "version " << column.label << ": "
              << column.batch.configs_with_violations << "/"
              << column.batch.configs_checked << " config(s) with violations, "
              << column.batch.total_violations << " violation(s)";
    if (column.batch.total_suspects != 0) {
      std::cout << "; " << column.batch.unique_replays << " unique replay(s)";
      if (column.batch.store_hits != 0) {
        std::cout << ", " << column.batch.store_hits << " store hit(s)";
      }
    }
    std::cout << "\n";
  }

  void OnTransition(const ConfigTransition& transition) override {
    if (transition.transition == Transition::kStable) {
      return;
    }
    std::cout << "  " << transition.from_label << " -> " << transition.to_label
              << "  " << transition.config << ": "
              << TransitionName(transition.transition);
    if (!transition.detail.empty()) {
      std::cout << "  " << transition.detail;
    }
    std::cout << "\n";
  }

  void OnMatrixEnd(const MatrixSummary& summary) override {
    // Grid of violation counts, checked columns only.
    size_t name_width = std::strlen("config");
    for (const ConfigRollup& rollup : summary.per_config) {
      name_width = std::max(name_width, rollup.name.size());
    }
    std::cout << "\n" << std::left << std::setw(static_cast<int>(name_width))
              << "config" << std::right;
    for (const VersionReport& column : summary.columns) {
      if (column.status.ok()) {
        std::cout << "  " << std::setw(ColumnWidth(column)) << column.label;
      }
    }
    std::cout << "  trend\n";
    for (const ConfigRollup& rollup : summary.per_config) {
      std::cout << std::left << std::setw(static_cast<int>(name_width)) << rollup.name
                << std::right;
      for (const VersionReport& column : summary.columns) {
        if (!column.status.ok()) {
          continue;
        }
        std::cout << "  " << std::setw(ColumnWidth(column));
        if (rollup.index < column.batch.reports.size()) {
          std::cout << column.batch.reports[rollup.index].violations.size();
        } else {
          std::cout << "-";
        }
      }
      std::cout << "  " << Trend(rollup) << "\n";
    }
    std::cout << "matrix: " << summary.versions_checked << " version(s) checked, "
              << summary.cells << " cell(s), "
              << summary.transitions_by_kind[static_cast<size_t>(Transition::kRegression)]
              << " regression(s), "
              << summary.transitions_by_kind[static_cast<size_t>(Transition::kFix)]
              << " fix(es), "
              << summary.transitions_by_kind[static_cast<size_t>(
                     Transition::kChangedReaction)]
              << " changed reaction(s)\n";
  }

 private:
  static int ColumnWidth(const VersionReport& column) {
    return static_cast<int>(std::max<size_t>(column.label.size(), 3));
  }

  static const char* Trend(const ConfigRollup& rollup) {
    if (rollup.regressions != 0) return "REGRESSED";
    if (rollup.changed_reactions != 0) return "changed";
    if (rollup.fixes != 0) return "fixed";
    return "";
  }
};

// Matrix JSONL: typed records — "cell" per (version, config), "version"
// per column, "diff" per classified transition, one "matrix_summary".
class MatrixJsonlWriter : public MatrixWriter {
 public:
  void OnCellChecked(size_t version, const std::string& version_label,
                     const ConfigReport& report) override {
    std::string line = "{\"type\":\"cell\",\"version\":" + std::to_string(version) +
                       ",\"version_label\":\"" + JsonEscape(version_label) + "\"";
    AppendReportFields(report, &line);
    std::cout << line << "}\n";
  }

  void OnVersionChecked(const VersionReport& column) override {
    std::string line = "{\"type\":\"version\",\"version\":" + std::to_string(column.index) +
                       ",\"label\":\"" + JsonEscape(column.label) + "\"";
    if (!column.status.ok()) {
      line += std::string(",\"status\":\"") + StatusCodeName(column.status.code()) +
              "\",\"error\":\"" + JsonEscape(column.status.message()) + "\"";
    } else {
      AppendBatchCounters(column.batch, &line);
    }
    std::cout << line << "}\n";
  }

  void OnTransition(const ConfigTransition& transition) override {
    std::cout << "{\"type\":\"diff\",\"config\":\"" << JsonEscape(transition.config)
              << "\",\"config_index\":" << transition.config_index
              << ",\"from\":" << transition.from_version
              << ",\"to\":" << transition.to_version << ",\"from_label\":\""
              << JsonEscape(transition.from_label) << "\",\"to_label\":\""
              << JsonEscape(transition.to_label) << "\",\"transition\":\""
              << TransitionName(transition.transition)
              << "\",\"added\":" << transition.added
              << ",\"removed\":" << transition.removed
              << ",\"changed\":" << transition.changed << ",\"detail\":\""
              << JsonEscape(transition.detail) << "\"}\n";
  }

  void OnMatrixEnd(const MatrixSummary& summary) override {
    std::cout << "{\"type\":\"matrix_summary\",\"schema\":" << kJsonlSchemaVersion
              << ",\"versions_requested\":"
              << summary.versions_requested
              << ",\"versions_checked\":" << summary.versions_checked
              << ",\"configs\":" << summary.configs << ",\"cells\":" << summary.cells
              << ",\"total_violations\":" << summary.total_violations
              << ",\"unique_replays\":" << summary.unique_replays
              << ",\"store_hits\":" << summary.store_hits << ",\"regressions\":"
              << summary.transitions_by_kind[static_cast<size_t>(Transition::kRegression)]
              << ",\"fixes\":"
              << summary.transitions_by_kind[static_cast<size_t>(Transition::kFix)]
              << ",\"changed_reactions\":"
              << summary.transitions_by_kind[static_cast<size_t>(
                     Transition::kChangedReaction)]
              << ",\"stable\":"
              << summary.transitions_by_kind[static_cast<size_t>(Transition::kStable)]
              << "}\n";
  }
};

int Fail(const std::string& message) {
  std::cerr << "spexcheck: " << message << "\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, CliOptions* options, std::string* error) {
  // Binds a per-version flag to the version it follows.
  auto last_source = [&](const char* flag) -> VersionArg* {
    if (options->versions.empty() || options->versions.back().corpus.empty() == false) {
      *error = std::string(flag) + " must follow a --source version";
      return nullptr;
    }
    return &options->versions.back();
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        *error = std::string(flag) + " requires an argument";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      std::exit(0);
    } else if (arg == "--matrix") {
      options->matrix = true;
    } else if (arg == "--target") {
      const char* value = next("--target");
      if (value == nullptr) return false;
      VersionArg version;
      version.corpus = value;
      options->versions.push_back(std::move(version));
    } else if (arg == "--source") {
      const char* value = next("--source");
      if (value == nullptr) return false;
      VersionArg version;
      version.source_path = value;
      options->versions.push_back(std::move(version));
    } else if (arg == "--annotations") {
      const char* value = next("--annotations");
      if (value == nullptr) return false;
      VersionArg* version = last_source("--annotations");
      if (version == nullptr) return false;
      version->annotations_path = value;
    } else if (arg == "--template") {
      const char* value = next("--template");
      if (value == nullptr) return false;
      VersionArg* version = last_source("--template");
      if (version == nullptr) return false;
      version->template_path = value;
    } else if (arg == "--dialect") {
      const char* value = next("--dialect");
      if (value == nullptr) return false;
      VersionArg* version = last_source("--dialect");
      if (version == nullptr) return false;
      std::optional<ConfigDialect> dialect = ParseConfigDialectName(value);
      if (!dialect.has_value()) {
        *error = "unknown dialect '" + std::string(value) +
                 "' (supported dialects: " + SupportedConfigDialectNames() + ")";
        return false;
      }
      version->dialect = *dialect;
    } else if (arg == "--label") {
      const char* value = next("--label");
      if (value == nullptr) return false;
      if (options->versions.empty()) {
        *error = "--label must follow a --target or --source version";
        return false;
      }
      options->versions.back().label = value;
    } else if (arg == "--mode") {
      const char* value = next("--mode");
      if (value == nullptr) return false;
      if (std::strcmp(value, "static") == 0) {
        options->mode = CheckMode::kStatic;
      } else if (std::strcmp(value, "dynamic") == 0) {
        options->mode = CheckMode::kDynamic;
      } else {
        *error = "unknown --mode (want static|dynamic): " + std::string(value);
        return false;
      }
    } else if (arg == "--threads") {
      const char* value = next("--threads");
      if (value == nullptr) return false;
      char* end = nullptr;
      long threads = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || threads < 0) {
        *error = "--threads wants a non-negative integer, got: " + std::string(value);
        return false;
      }
      options->threads = static_cast<int>(threads);
    } else if (arg == "--format") {
      const char* value = next("--format");
      if (value == nullptr) return false;
      if (std::strcmp(value, "text") == 0) {
        options->jsonl = false;
      } else if (std::strcmp(value, "jsonl") == 0) {
        options->jsonl = true;
      } else {
        *error = "unknown --format (want text|jsonl): " + std::string(value);
        return false;
      }
    } else if (arg == "--pattern") {
      const char* value = next("--pattern");
      if (value == nullptr) return false;
      options->pattern = value;
    } else if (arg == "--include-roots") {
      const char* value = next("--include-roots");
      if (value == nullptr) return false;
      options->include_roots.push_back(value);
    } else if (arg == "--store") {
      const char* value = next("--store");
      if (value == nullptr) return false;
      options->store_path = value;
    } else if (arg == "--dump-template") {
      options->dump_template = true;
    } else if (arg == "--list-targets") {
      options->list_targets = true;
    } else if (!arg.empty() && arg[0] == '-') {
      *error = "unknown flag: " + arg;
      return false;
    } else {
      options->paths.push_back(std::move(arg));
    }
  }
  return true;
}

// Expands files and directories into the config list. Directory scans are
// non-recursive (ListMatching).
//
// Containment boundary: a file that cannot be READ (vanished mid-scan,
// permission denied) becomes a per-config error record in `errors` and
// the rest of the fleet is still checked. Only structural problems with
// the invocation itself — a path that does not exist, an unlistable
// directory, a glob matching nothing — fail the whole run.
bool CollectConfigs(const CliOptions& options, std::vector<ConfigInput>* configs,
                    std::vector<ConfigError>* errors, std::string* error) {
  std::vector<std::string> files;
  for (const std::string& path : options.paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      std::vector<std::string> in_dir = ListMatching(path, options.pattern, ec);
      if (ec) {
        *error = "cannot read directory " + path + ": " + ec.message();
        return false;
      }
      if (in_dir.empty()) {
        *error = "no files matching '" + options.pattern + "' in " + path;
        return false;
      }
      files.insert(files.end(), in_dir.begin(), in_dir.end());
    } else if (fs::is_regular_file(path, ec)) {
      files.push_back(path);
    } else {
      *error = "no such file or directory: " + path;
      return false;
    }
  }
  // A config reachable twice — a directory listed twice, a symlinked
  // sibling of itself, a file repeated on the command line — is checked
  // and counted once: dedup by canonical path, first mention wins (so
  // report order still follows the command line).
  std::set<std::string> seen;
  std::vector<std::string> unique_files;
  unique_files.reserve(files.size());
  for (const std::string& file : files) {
    std::error_code canon_ec;
    fs::path canonical = fs::weakly_canonical(file, canon_ec);
    if (seen.insert(canon_ec ? file : canonical.string()).second) {
      unique_files.push_back(file);
    }
  }
  files = std::move(unique_files);
  configs->reserve(files.size());
  for (const std::string& file : files) {
    std::ifstream stream(file, std::ios::binary);
    if (!stream) {
      errors->push_back(ConfigError{file, "cannot read file"});
      continue;
    }
    std::ostringstream content;
    content << stream.rdbuf();
    if (stream.bad()) {
      errors->push_back(ConfigError{file, "read failed mid-file"});
      continue;
    }
    configs->push_back(ConfigInput{file, content.str()});
  }
  return true;
}

// Filesystem loader behind --include-roots. Load never throws: an
// unreadable file is a missing include (contained per set). include_dir
// applies the same --pattern filter as root collection, so an include
// tree and a flat directory scan agree about what counts as a config.
class FileConfigSetSource : public ConfigSetSource {
 public:
  explicit FileConfigSetSource(std::string pattern) : pattern_(std::move(pattern)) {}

  std::optional<std::string> Load(const std::string& name) override {
    std::ifstream stream(name, std::ios::binary);
    if (!stream) {
      return std::nullopt;
    }
    std::ostringstream content;
    content << stream.rdbuf();
    if (stream.bad()) {
      return std::nullopt;
    }
    return content.str();
  }

  std::optional<std::vector<std::string>> ListDir(const std::string& dir) override {
    std::error_code ec;
    std::vector<std::string> names = ListMatching(dir, pattern_, ec);
    if (ec) {
      return std::nullopt;
    }
    return names;
  }

 private:
  std::string pattern_;
};

// Expands --include-roots directories into root file paths (every
// --pattern match directly in each directory, sorted; deduped by
// canonical path like CollectConfigs). Structural problems — a root dir
// that is not a directory, zero matches overall — fail the run (exit 2).
bool CollectConfigSetRoots(const CliOptions& options, std::vector<std::string>* roots,
                           std::string* error) {
  std::set<std::string> seen;
  for (const std::string& dir : options.include_roots) {
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
      *error = "--include-roots: not a directory: " + dir;
      return false;
    }
    std::vector<std::string> in_dir = ListMatching(dir, options.pattern, ec);
    if (ec) {
      *error = "cannot read directory " + dir + ": " + ec.message();
      return false;
    }
    for (std::string& root : in_dir) {
      std::error_code canon_ec;
      fs::path canonical = fs::weakly_canonical(root, canon_ec);
      if (seen.insert(canon_ec ? root : canonical.string()).second) {
        roots->push_back(std::move(root));
      }
    }
  }
  if (roots->empty()) {
    *error = "no files matching '" + options.pattern + "' in any --include-roots directory";
    return false;
  }
  return true;
}

// The flat fleet named by the positional paths. Each unreadable file is
// reported on stderr and in the output stream (a config_error record in
// jsonl, "<file>: ERROR <message>" in text). Returns the exit code when the run must
// stop: a usage error, or not one config readable — exit 2 is reserved
// for "nothing was checked at all".
std::optional<int> CollectFleet(const CliOptions& options, std::vector<ConfigInput>* configs,
                                size_t* unreadable) {
  if (options.paths.empty()) {
    std::cerr << "spexcheck: no config files or directories given\n" << kUsage;
    return 2;
  }
  std::vector<ConfigError> read_errors;
  std::string error;
  if (!CollectConfigs(options, configs, &read_errors, &error)) {
    return Fail(error);
  }
  for (const ConfigError& read_error : read_errors) {
    const std::string& name = read_error.name;
    std::cerr << "spexcheck: " << name << ": " << read_error.message << "\n";
    std::cout << (options.jsonl ? ConfigErrorRecord(name, read_error.message)
                                : name + ": ERROR " + read_error.message)
              << "\n";
  }
  *unreadable = read_errors.size();
  if (configs->empty()) {
    return Fail("no config could be checked (" + std::to_string(*unreadable) + " unreadable)");
  }
  return std::nullopt;
}

// Reads one target-definition file whole. Unlike fleet configs, these are
// structural inputs: a missing annotations file fails the run (exit 2).
bool ReadFile(const std::string& path, std::string* out, std::string* error) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) {
    *error = "cannot read " + path;
    return false;
  }
  std::ostringstream content;
  content << stream.rdbuf();
  if (stream.bad()) {
    *error = "read failed mid-file: " + path;
    return false;
  }
  *out = content.str();
  return true;
}

// Turns command-line version args into loadable TargetVersion specs:
// corpus names pass through; source versions read their files here so a
// missing file is a clean exit 2 before any analysis runs.
bool BuildVersions(const CliOptions& options, std::vector<TargetVersion>* versions,
                   std::string* error) {
  // Validate corpus names up front (FindTarget aborts on unknown names).
  std::vector<TargetSpec> known = EvaluatedTargets();
  for (const VersionArg& arg : options.versions) {
    TargetVersion version;
    version.label = arg.label;
    if (!arg.corpus.empty()) {
      if (std::none_of(known.begin(), known.end(), [&](const TargetSpec& spec) {
            return spec.name == arg.corpus;
          })) {
        *error = "unknown target '" + arg.corpus + "' (try --list-targets)";
        return false;
      }
      version.corpus = arg.corpus;
    } else {
      if (arg.annotations_path.empty()) {
        *error = "--source " + arg.source_path + " needs --annotations";
        return false;
      }
      if (!ReadFile(arg.source_path, &version.source, error) ||
          !ReadFile(arg.annotations_path, &version.annotations, error)) {
        return false;
      }
      if (!arg.template_path.empty() &&
          !ReadFile(arg.template_path, &version.template_config, error)) {
        return false;
      }
      version.file_name = fs::path(arg.source_path).filename().string();
      version.dialect = arg.dialect;
      if (version.label.empty()) {
        version.label = fs::path(arg.source_path).stem().string();
      }
    }
    versions->push_back(std::move(version));
  }
  return true;
}

int Run(int argc, char** argv) {
  CliOptions options;
  std::string error;
  if (!ParseArgs(argc, argv, &options, &error)) {
    std::cerr << "spexcheck: " << error << "\n" << kUsage;
    return 2;
  }
  if (options.list_targets) {
    for (const TargetSpec& spec : EvaluatedTargets()) {
      std::cout << spec.name << "\t" << spec.display_name << "\n";
    }
    return 0;
  }
  if (options.versions.empty()) {
    std::cerr << "spexcheck: --target or --source is required\n" << kUsage;
    return 2;
  }
  if (!options.matrix && options.versions.size() > 1) {
    std::cerr << "spexcheck: multiple versions need --matrix\n" << kUsage;
    return 2;
  }
  if (!options.include_roots.empty()) {
    if (options.matrix) {
      return Fail("--include-roots is not supported with --matrix");
    }
    if (!options.paths.empty()) {
      return Fail("--include-roots and positional config paths are mutually exclusive");
    }
  }

  std::vector<TargetVersion> versions;
  if (!BuildVersions(options, &versions, &error)) {
    return Fail(error);
  }

  // Open never hard-fails: a corrupt/locked/unwritable store degrades to
  // read-only or empty (warn so the operator knows re-checks stay cold).
  std::shared_ptr<VerdictStore> store;
  if (!options.store_path.empty()) {
    Status store_status;
    store = VerdictStore::Open(options.store_path, {}, &store_status);
    if (!store_status.ok()) {
      std::cerr << "spexcheck: verdict store '" << options.store_path
                << "' degraded: " << store_status.message() << "\n";
    }
  }

  Session session;

  if (!options.matrix) {
    const TargetVersion& spec = versions.front();
    Target* target =
        !spec.corpus.empty()
            ? session.LoadTarget(spec.corpus)
            : session.LoadSource(spec.source, spec.annotations, spec.file_name,
                                 spec.dialect, spec.sut, spec.template_config);
    if (target == nullptr) {
      return Fail("loading target failed:\n" + session.RenderDiagnostics());
    }
    if (store != nullptr) {
      target->AttachVerdictStore(store);
    }
    if (options.dump_template) {
      std::cout << target->analysis().bundle.template_config;
      return 0;
    }
    JsonlWriter jsonl;
    TextWriter text;
    FleetWriter* writer = options.jsonl ? static_cast<FleetWriter*>(&jsonl) : &text;

    if (!options.include_roots.empty()) {
      // Multi-file mode: each root file in the include-roots directories
      // is an include tree, resolved against the filesystem and checked
      // as one flattened effective config.
      std::vector<std::string> roots;
      if (!CollectConfigSetRoots(options, &roots, &error)) {
        return Fail(error);
      }
      FileConfigSetSource source(options.pattern);
      std::vector<ResolvedConfigSet> sets;
      sets.reserve(roots.size());
      size_t resolvable = 0;
      bool any_set_error = false;
      for (const std::string& root : roots) {
        ResolvedConfigSet set = ResolveConfigSet(root, source, target->dialect());
        resolvable += set.resolved() ? 1 : 0;
        any_set_error = any_set_error || !set.errors.empty();
        sets.push_back(std::move(set));
      }
      if (resolvable == 0) {
        // The multi-file twin of "no config could be checked": exit 2 is
        // reserved for a run that produced no verdicts at all.
        return Fail("no config set could be resolved (" + std::to_string(sets.size()) +
                    " unresolvable root(s))");
      }
      BatchOptions batch;
      batch.check.mode = options.mode;
      batch.num_threads = options.threads;
      BatchSummary summary = target->CheckResolvedConfigSets(sets, batch, nullptr);
      for (size_t i = 0; i < summary.reports.size(); ++i) {
        writer->OnConfigSet(sets[i]);
        writer->OnConfigChecked(i, summary.reports[i]);
      }
      writer->OnBatchEnd(summary);
      bool any_error = any_set_error || summary.configs_with_errors != 0;
      return summary.total_violations == 0 && !any_error ? 0 : 1;
    }

    std::vector<ConfigInput> configs;
    size_t unreadable = 0;
    if (std::optional<int> stop = CollectFleet(options, &configs, &unreadable)) {
      return *stop;
    }
    BatchOptions batch;
    batch.check.mode = options.mode;
    batch.num_threads = options.threads;
    BatchSummary summary = target->CheckConfigBatch(configs, batch, writer);
    bool any_error = unreadable != 0 || summary.configs_with_errors != 0;
    return summary.total_violations == 0 && !any_error ? 0 : 1;
  }

  // --matrix: the fleet against every version, columns diffed pairwise.
  if (options.dump_template) {
    return Fail("--dump-template takes a single version, not --matrix");
  }
  std::vector<ConfigInput> configs;
  size_t unreadable = 0;
  if (std::optional<int> stop = CollectFleet(options, &configs, &unreadable)) {
    return *stop;
  }

  MatrixJsonlWriter matrix_jsonl;
  MatrixTextWriter matrix_text;
  MatrixOptions matrix_options;
  matrix_options.check.mode = options.mode;
  matrix_options.num_threads = options.threads;
  matrix_options.store = store;
  MatrixWriter* writer =
      options.jsonl ? static_cast<MatrixWriter*>(&matrix_jsonl) : &matrix_text;
  MatrixSummary summary = session.CheckMatrix(versions, configs, matrix_options, writer);
  if (summary.versions_checked != summary.versions_requested) {
    return Fail(std::to_string(summary.versions_requested - summary.versions_checked) +
                " version(s) failed to load");
  }
  // The matrix verdict is the upgrade story: only a regression — a config
  // some version-step breaks — is a failure. A fleet that is equally
  // broken everywhere is stable, and stable is exit 0.
  return summary.AnyRegression() ? 1 : 0;
}

}  // namespace
}  // namespace spex

int main(int argc, char** argv) { return spex::Run(argc, argv); }
