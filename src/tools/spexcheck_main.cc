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
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "src/api/config_set.h"
#include "src/api/report_json.h"
#include "src/api/session.h"
#include "src/corpus/spec.h"
#include "src/support/thread_pool.h"
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
  --threads <n>        batch and file-read workers: 1 = serial, 0 = hardware
                       (default: 0)
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

// One report's text: "<name>: OK", "<name>: ERROR <message>", or a
// violation count and one indented line per violation.
void WriteTextReport(const ConfigReport& report) {
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

void WriteTextSummary(const BatchSummary& summary) {
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

// Writes a checked fleet as text or JSON lines: per config in batch order,
// how its include tree resolved (when `sets` holds one set per report)
// and then its report; a summary line closes the stream.
void WriteFleetReport(const BatchSummary& summary, std::span<const ResolvedConfigSet> sets,
                      bool jsonl) {
  for (const ConfigReport& report : summary.reports) {
    if (!sets.empty()) {
      const ResolvedConfigSet& set = sets[report.index];
      if (jsonl) {
        std::cout << ConfigSetRecord(set) << "\n";
      } else {
        for (const ConfigSetError& error : set.errors) {
          std::cout << set.name << ": include error: " << error.ToString() << "\n";
        }
      }
    }
    if (jsonl) {
      std::cout << ReportRecord(report) << "\n";
    } else {
      WriteTextReport(report);
    }
  }
  if (jsonl) {
    std::cout << SummaryRecord(summary) << "\n";
  } else {
    WriteTextSummary(summary);
  }
}

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
    std::cout << CellRecord(version, version_label, report) << "\n";
  }

  void OnVersionChecked(const VersionReport& column) override {
    std::cout << VersionRecord(column) << "\n";
  }

  void OnTransition(const ConfigTransition& transition) override {
    std::cout << DiffRecord(transition) << "\n";
  }

  void OnMatrixEnd(const MatrixSummary& summary) override {
    std::cout << MatrixSummaryRecord(summary) << "\n";
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

// What reading one file whole found.
enum class ReadResult { kOk, kCannotOpen, kFailedMidFile };

// Reads a whole file with one open, fstat and read; one more read sees the
// end, and the buffer grows only if the file grew since the fstat.
ReadResult ReadWholeFile(const std::string& path, std::string* out) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return ReadResult::kCannotOpen;
  }
  struct stat info {};
  size_t expected =
      ::fstat(fd, &info) == 0 && info.st_size > 0 ? static_cast<size_t>(info.st_size) : 0;
  std::string text(expected + 1, '\0');  // One spare byte for the read that sees the end.
  size_t used = 0;
  while (true) {
    if (used == text.size()) {
      text.resize(text.size() * 2);
    }
    ssize_t got = ::read(fd, text.data() + used, text.size() - used);
    if (got < 0 && errno == EINTR) {
      continue;
    }
    if (got < 0) {
      ::close(fd);
      return ReadResult::kFailedMidFile;
    }
    if (got == 0) {
      break;
    }
    used += static_cast<size_t>(got);
  }
  ::close(fd);
  text.resize(used);
  *out = std::move(text);
  return ReadResult::kOk;
}

// Expands files and directories into the config list. Directory scans are
// non-recursive (ListMatching). The per-path work — one stat per
// argument, then each file's canonical path and text — is claimed through
// ForEachIndex at `workers` wide into pre-sized slots; everything that
// decides order (expansion, dedup, error records) stays serial and
// follows the command line.
//
// Containment boundary: a file that cannot be READ (vanished mid-scan,
// permission denied) becomes a per-config error record in `errors` and
// the rest of the fleet is still checked. Only structural problems with
// the invocation itself — a path that does not exist, an unlistable
// directory, a glob matching nothing — fail the whole run.
bool CollectConfigs(const CliOptions& options, ThreadPool* pool, size_t workers,
                    std::vector<ConfigInput>* configs, std::vector<ConfigError>* errors,
                    std::string* error) {
  std::vector<fs::file_status> kinds(options.paths.size());
  ForEachIndex(pool, kinds.size(), workers, [&](size_t i) {
    std::error_code ec;
    kinds[i] = fs::status(options.paths[i], ec);
  });
  std::vector<std::string> files;
  for (size_t i = 0; i < options.paths.size(); ++i) {
    const std::string& path = options.paths[i];
    if (fs::is_directory(kinds[i])) {
      std::error_code ec;
      std::vector<std::string> in_dir = ListMatching(path, options.pattern, ec);
      if (ec) {
        *error = "cannot read directory " + path + ": " + ec.message();
        return false;
      }
      if (in_dir.empty()) {
        *error = "no files matching '" + options.pattern + "' in " + path;
        return false;
      }
      files.insert(files.end(), std::make_move_iterator(in_dir.begin()),
                   std::make_move_iterator(in_dir.end()));
    } else if (fs::is_regular_file(kinds[i])) {
      files.push_back(path);
    } else {
      *error = "no such file or directory: " + path;
      return false;
    }
  }

  struct FileSlot {
    std::string canonical;
    std::string text;
    ReadResult read = ReadResult::kOk;
  };
  std::vector<FileSlot> slots(files.size());
  ForEachIndex(pool, files.size(), workers, [&](size_t i) {
    FileSlot& slot = slots[i];
    std::error_code canon_ec;
    fs::path canonical = fs::weakly_canonical(files[i], canon_ec);
    slot.canonical = canon_ec ? files[i] : canonical.string();
    slot.read = ReadWholeFile(files[i], &slot.text);
  });

  // A config reachable twice — a directory listed twice, a symlinked
  // sibling of itself, a file repeated on the command line — is checked
  // and counted once: dedup by canonical path, first mention wins (so
  // report order still follows the command line).
  std::unordered_set<std::string_view> seen;
  seen.reserve(slots.size());
  configs->reserve(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    FileSlot& slot = slots[i];
    if (!seen.insert(slot.canonical).second) {
      continue;
    }
    switch (slot.read) {
      case ReadResult::kCannotOpen:
        errors->push_back(ConfigError{files[i], "cannot read file"});
        break;
      case ReadResult::kFailedMidFile:
        errors->push_back(ConfigError{files[i], "read failed mid-file"});
        break;
      case ReadResult::kOk:
        configs->push_back(ConfigInput{std::move(files[i]), std::move(slot.text)});
        break;
    }
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
    std::string text;
    if (ReadWholeFile(name, &text) != ReadResult::kOk) {
      return std::nullopt;
    }
    return text;
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
std::optional<int> CollectFleet(const CliOptions& options, Session& session,
                                std::vector<ConfigInput>* configs, size_t* unreadable) {
  if (options.paths.empty()) {
    std::cerr << "spexcheck: no config files or directories given\n" << kUsage;
    return 2;
  }
  // Files are read at the batch's width, on the pool the batch will use.
  ThreadPool* pool = options.threads != 1 ? session.worker_pool() : nullptr;
  std::vector<ConfigError> read_errors;
  std::string error;
  if (!CollectConfigs(options, pool, ClaimerCount(options.threads, pool), configs,
                      &read_errors, &error)) {
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
  switch (ReadWholeFile(path, out)) {
    case ReadResult::kOk:
      return true;
    case ReadResult::kCannotOpen:
      *error = "cannot read " + path;
      return false;
    case ReadResult::kFailedMidFile:
      *error = "read failed mid-file: " + path;
      return false;
  }
  return false;
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
    BatchOptions batch;
    batch.check.mode = options.mode;
    batch.num_threads = options.threads;
    BatchSummary summary;
    std::vector<ResolvedConfigSet> sets;
    bool any_input_error = false;  // An unreadable file or a contained include fault.
    if (!options.include_roots.empty()) {
      // Multi-file mode: each root file in the include-roots directories
      // is an include tree, resolved against the filesystem and checked
      // as one flattened effective config.
      std::vector<std::string> roots;
      if (!CollectConfigSetRoots(options, &roots, &error)) {
        return Fail(error);
      }
      FileConfigSetSource source(options.pattern);
      sets.reserve(roots.size());
      size_t resolvable = 0;
      for (const std::string& root : roots) {
        ResolvedConfigSet set = ResolveConfigSet(root, source, target->dialect());
        resolvable += set.resolved() ? 1 : 0;
        any_input_error = any_input_error || !set.errors.empty();
        sets.push_back(std::move(set));
      }
      if (resolvable == 0) {
        // The multi-file twin of "no config could be checked": exit 2 is
        // reserved for a run that produced no verdicts at all.
        return Fail("no config set could be resolved (" + std::to_string(sets.size()) +
                    " unresolvable root(s))");
      }
      summary = target->CheckResolvedConfigSets(sets, batch);
    } else {
      std::vector<ConfigInput> configs;
      size_t unreadable = 0;
      if (std::optional<int> stop = CollectFleet(options, session, &configs, &unreadable)) {
        return *stop;
      }
      any_input_error = unreadable != 0;
      summary = target->CheckConfigBatch(configs, batch);
    }
    WriteFleetReport(summary, sets, options.jsonl);
    bool any_error = any_input_error || summary.configs_with_errors != 0;
    return summary.total_violations == 0 && !any_error ? 0 : 1;
  }

  // --matrix: the fleet against every version, columns diffed pairwise.
  if (options.dump_template) {
    return Fail("--dump-template takes a single version, not --matrix");
  }
  std::vector<ConfigInput> configs;
  size_t unreadable = 0;
  if (std::optional<int> stop = CollectFleet(options, session, &configs, &unreadable)) {
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
