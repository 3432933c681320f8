// Multi-file config sets (src/api/config_set.h + Target::CheckConfigSet):
// depth-first last-wins resolution with full provenance, contained cycle/
// missing-include faults, include-shape-invariant execution identity, the
// kPermission (octal mode / ACL) constraint end to end, and a seeded
// differential harness proving a resolved set checks bit-identically to
// its flattened effective config at every thread count.
#include "src/api/config_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/api/session.h"

namespace spex {
namespace {

// The batch_check_test fleet server: a struct-table parser on atoi
// (silent violations), a 64-slot array indexed by worker_threads (crash
// for out-of-range), a strcmp'd enum keeping its default on unmatched
// words, and a use_cache-gated cache_ttl (the control-dependency trap).
constexpr const char* kFleetServerSource = R"(
  struct config_int { char *name; int *variable; int min; int max; };
  int worker_threads = 4;
  int idle_timeout = 60;
  int cache_kb = 2048;
  int cache_ttl = 300;
  int log_format = 0;
  int use_cache = 1;
  int slots[64];
  int started = 0;
  struct config_int int_options[] = {
    { "worker_threads", &worker_threads, 1, 64 },
    { "idle_timeout", &idle_timeout, 0, 3600 },
    { "cache_kb", &cache_kb, 64, 1048576 },
    { "cache_ttl", &cache_ttl, 1, 86400 },
  };
  void parse_extra(char *key, char *value) {
    if (!strcasecmp(key, "log_format")) {
      if (!strcmp(value, "plain")) { log_format = 0; }
      else if (!strcmp(value, "json")) { log_format = 1; }
    }
    if (!strcasecmp(key, "use_cache")) {
      if (!strcasecmp(value, "on")) { use_cache = 1; } else { use_cache = 0; }
    }
  }
  int handle_config_line(char *key, char *value) {
    int i;
    for (i = 0; i < 4; i++) {
      if (!strcmp(int_options[i].name, key)) {
        *int_options[i].variable = atoi(value);
        return 0;
      }
    }
    parse_extra(key, value);
    return 0;
  }
  int server_init() {
    int i;
    for (i = 0; i < worker_threads; i++) { slots[i] = 1; }
    long bytes = cache_kb * 1024;
    malloc(bytes);
    sleep(idle_timeout);
    if (use_cache != 0) {
      sleep(cache_ttl);
    }
    started = 1;
    return 0;
  }
  int test_started() { return started; }
)";

constexpr const char* kFleetServerAnnotations =
    "@STRUCT int_options { par = 0, var = 1, min = 2, max = 3 }\n"
    "@PARSER parse_extra { par = arg0, var = arg1 }";

constexpr const char* kFleetServerTemplate =
    "worker_threads = 4\n"
    "idle_timeout = 60\n"
    "cache_kb = 2048\n"
    "cache_ttl = 300\n"
    "log_format = plain\n"
    "use_cache = on\n";

Target* LoadFleetServer(Session& session) {
  SutSpec sut;
  sut.tests.push_back({"started", "test_started", 1, 1});
  for (const char* param :
       {"worker_threads", "idle_timeout", "cache_kb", "cache_ttl", "log_format", "use_cache"}) {
    sut.param_storage[param] = param;
  }
  Target* target =
      session.LoadSource(kFleetServerSource, kFleetServerAnnotations, "fleet.c",
                         ConfigDialect::kKeyEqualsValue, sut, kFleetServerTemplate);
  EXPECT_NE(target, nullptr) << session.RenderDiagnostics();
  return target;
}

// A vault daemon whose secret_mode flows into chmod (kPermissionMask
// evidence) and whose own sanity check rejects group/other write bits —
// the refinement source for the permission policy. 18 == 0022.
constexpr const char* kVaultSource = R"(
  struct config_int { char *name; int *variable; int min; int max; };
  int secret_mode = 384;
  int scrub_interval = 60;
  int started = 0;
  struct config_int int_options[] = {
    { "secret_mode", &secret_mode, 0, 4095 },
    { "scrub_interval", &scrub_interval, 0, 86400 },
  };
  int handle_config_line(char *key, char *value) {
    int i;
    for (i = 0; i < 2; i++) {
      if (!strcmp(int_options[i].name, key)) {
        *int_options[i].variable = atoi(value);
        return 0;
      }
    }
    return 0;
  }
  int server_init() {
    if (secret_mode & 18) { return -1; }
    chmod("/var/lib/vault/secret", secret_mode);
    sleep(scrub_interval);
    started = 1;
    return 0;
  }
  int test_started() { return started; }
)";

constexpr const char* kVaultAnnotations =
    "@STRUCT int_options { par = 0, var = 1, min = 2, max = 3 }";

constexpr const char* kVaultTemplate =
    "secret_mode = 0600\n"
    "scrub_interval = 60\n";

Target* LoadVault(Session& session) {
  SutSpec sut;
  sut.tests.push_back({"started", "test_started", 1, 1});
  sut.param_storage["secret_mode"] = "secret_mode";
  sut.param_storage["scrub_interval"] = "scrub_interval";
  Target* target = session.LoadSource(kVaultSource, kVaultAnnotations, "vault.c",
                                      ConfigDialect::kKeyEqualsValue, sut, kVaultTemplate);
  EXPECT_NE(target, nullptr) << session.RenderDiagnostics();
  return target;
}

bool HasViolation(const std::vector<Violation>& violations, ViolationCategory category,
                  std::string_view param) {
  for (const Violation& violation : violations) {
    if (violation.category == category && violation.param == param) {
      return true;
    }
  }
  return false;
}

const Violation* FindViolation(const std::vector<Violation>& violations,
                               ViolationCategory category, std::string_view param) {
  for (const Violation& violation : violations) {
    if (violation.category == category && violation.param == param) {
      return &violation;
    }
  }
  return nullptr;
}

size_t CountErrors(const ResolvedConfigSet& set, ConfigSetError::Kind kind) {
  size_t count = 0;
  for (const ConfigSetError& error : set.errors) {
    if (error.kind == kind) {
      ++count;
    }
  }
  return count;
}

// ---------------------------------------------------------------------------
// Resolution semantics.

TEST(ConfigSetTest, ResolvesNestedIncludesDepthFirstLastWins) {
  std::vector<ConfigInput> files = {
      {"base.conf",
       "worker_threads = 2\n"
       "include conf.d/a.conf\n"
       "idle_timeout = 45\n"},
      {"conf.d/a.conf",
       "worker_threads = 8\n"
       "include b.conf\n"},  // Relative to conf.d/a.conf -> conf.d/b.conf.
      {"conf.d/b.conf",
       "worker_threads = 16\n"
       "cache_kb = 512\n"},
  };
  ResolvedConfigSet set = ResolveConfigSet(files, ConfigDialect::kKeyEqualsValue);
  ASSERT_TRUE(set.resolved());
  EXPECT_EQ(set.name, "base.conf");
  EXPECT_EQ(set.files_resolved, 3u);
  EXPECT_TRUE(set.errors.empty());

  // Each key once, at its first-assignment position, with its last value.
  EXPECT_EQ(set.effective.Serialize(),
            "worker_threads = 16\n"
            "cache_kb = 512\n"
            "idle_timeout = 45\n");

  const SettingProvenance* prov = set.FindProvenance("worker_threads");
  ASSERT_NE(prov, nullptr);
  EXPECT_EQ(prov->winner.file, "conf.d/b.conf");
  EXPECT_EQ(prov->winner.line, 1u);
  EXPECT_EQ(prov->winner.value, "16");
  ASSERT_EQ(prov->shadowed.size(), 2u);
  EXPECT_EQ(prov->shadowed[0].file, "base.conf");
  EXPECT_EQ(prov->shadowed[0].value, "2");
  EXPECT_EQ(prov->shadowed[1].file, "conf.d/a.conf");
  EXPECT_EQ(prov->shadowed[1].value, "8");
}

TEST(ConfigSetTest, IncludeDirAppliesSortedAndQuotedOperandsResolve) {
  std::vector<ConfigInput> files = {
      {"base.conf",
       "include_dir conf.d\n"
       "include \"extra.conf\"\n"},
      {"conf.d/10-late.conf", "cache_ttl = 900\n"},
      {"conf.d/05-early.conf", "cache_ttl = 450\ncache_kb = 128\n"},
      {"extra.conf", "use_cache = off\n"},
  };
  ResolvedConfigSet set = ResolveConfigSet(files, ConfigDialect::kKeyEqualsValue);
  ASSERT_TRUE(set.resolved());
  EXPECT_EQ(set.files_resolved, 4u);
  EXPECT_TRUE(set.errors.empty());
  // Sorted order: 05-early applies before 10-late, so 10-late wins.
  const SettingProvenance* prov = set.FindProvenance("cache_ttl");
  ASSERT_NE(prov, nullptr);
  EXPECT_EQ(prov->winner.file, "conf.d/10-late.conf");
  EXPECT_EQ(prov->winner.value, "900");
  ASSERT_EQ(prov->shadowed.size(), 1u);
  EXPECT_EQ(prov->shadowed[0].file, "conf.d/05-early.conf");
  EXPECT_EQ(set.effective.Get("use_cache"), "off");
}

TEST(ConfigSetTest, JoinIncludePathIsLexical) {
  EXPECT_EQ(JoinIncludePath("conf.d/a.conf", "../base.conf"), "base.conf");
  EXPECT_EQ(JoinIncludePath("base.conf", "conf.d/x.conf"), "conf.d/x.conf");
  EXPECT_EQ(JoinIncludePath("a/b/c.conf", "d.conf"), "a/b/d.conf");
  EXPECT_EQ(JoinIncludePath("anywhere.conf", "/etc/app/x.conf"), "/etc/app/x.conf");
}

TEST(ConfigSetTest, CycleAndMissingIncludesAreContainedPerSet) {
  std::vector<ConfigInput> files = {
      {"base.conf",
       "worker_threads = 8\n"
       "include a.conf\n"
       "include ghost.conf\n"},
      {"a.conf",
       "cache_kb = 256\n"
       "include base.conf\n"},  // Back-edge: base is on the stack.
  };
  ResolvedConfigSet set = ResolveConfigSet(files, ConfigDialect::kKeyEqualsValue);
  ASSERT_TRUE(set.resolved());
  EXPECT_EQ(set.files_resolved, 2u);
  EXPECT_EQ(CountErrors(set, ConfigSetError::Kind::kIncludeCycle), 1u);
  EXPECT_EQ(CountErrors(set, ConfigSetError::Kind::kMissingInclude), 1u);
  // Everything reachable still resolved.
  EXPECT_EQ(set.effective.Get("worker_threads"), "8");
  EXPECT_EQ(set.effective.Get("cache_kb"), "256");
  // The records pinpoint the offending directive.
  for (const ConfigSetError& error : set.errors) {
    if (error.kind == ConfigSetError::Kind::kIncludeCycle) {
      EXPECT_EQ(error.file, "a.conf");
      EXPECT_EQ(error.line, 2u);
      EXPECT_EQ(error.target, "base.conf");
      EXPECT_NE(error.ToString().find("include cycle"), std::string::npos);
    } else {
      EXPECT_EQ(error.target, "ghost.conf");
    }
  }
}

TEST(ConfigSetTest, UnloadableRootLeavesSetUnresolved) {
  MemoryConfigSetSource source(std::span<const ConfigInput>{});
  ResolvedConfigSet set =
      ResolveConfigSet("nope.conf", source, ConfigDialect::kKeyEqualsValue);
  EXPECT_FALSE(set.resolved());
  EXPECT_EQ(set.files_resolved, 0u);
  ASSERT_EQ(set.errors.size(), 1u);
  EXPECT_EQ(set.errors[0].kind, ConfigSetError::Kind::kMissingInclude);
  EXPECT_EQ(set.errors[0].target, "nope.conf");
}

// ---------------------------------------------------------------------------
// Check semantics: provenance-addressed violations, cross-file notes,
// contained per-set errors, include-shape-invariant dedup.

TEST(ConfigSetTest, ViolationsPointAtWinningAssignmentWithOverrideNote) {
  Session session;
  Target* target = LoadFleetServer(session);
  ASSERT_NE(target, nullptr);
  std::vector<ConfigSetInput> sets(1);
  sets[0].files = {
      {"base.conf",
       "worker_threads = 4\n"
       "include conf.d/override.conf\n"},
      {"conf.d/override.conf", "worker_threads = 99\n"},
  };
  std::vector<ResolvedConfigSet> resolutions;
  BatchSummary summary = target->CheckConfigSet(sets, {}, &resolutions);
  ASSERT_EQ(summary.reports.size(), 1u);
  ASSERT_EQ(resolutions.size(), 1u);
  EXPECT_EQ(summary.reports[0].name, "base.conf");
  const Violation* violation =
      FindViolation(summary.reports[0].violations, ViolationCategory::kRange, "worker_threads");
  ASSERT_NE(violation, nullptr);
  // Addressed to the assignment that actually wins, not the flattened file.
  EXPECT_EQ(violation->file, "conf.d/override.conf");
  EXPECT_EQ(violation->line, 1u);
  EXPECT_EQ(violation->override_note, "overridden at base.conf:1 (earlier value '4')");
}

TEST(ConfigSetTest, CrossFileControlDependencyNamesThePeerFile) {
  Session session;
  Target* target = LoadFleetServer(session);
  ASSERT_NE(target, nullptr);
  std::vector<ConfigSetInput> sets(1);
  sets[0].files = {
      {"base.conf",
       "use_cache = off\n"
       "include conf.d/site.conf\n"},
      {"conf.d/site.conf", "cache_ttl = 600\n"},
  };
  BatchSummary summary = target->CheckConfigSet(sets);
  ASSERT_EQ(summary.reports.size(), 1u);
  const Violation* violation =
      FindViolation(summary.reports[0].violations, ViolationCategory::kControlDep, "cache_ttl");
  ASSERT_NE(violation, nullptr);
  // The dependent's violation lives in site.conf; the master that defeats
  // it resolves from base.conf — the note connects the two files.
  EXPECT_EQ(violation->file, "conf.d/site.conf");
  EXPECT_NE(violation->override_note.find("cross-file: use_cache = 'off' resolves from base.conf:1"),
            std::string::npos)
      << violation->override_note;
}

TEST(ConfigSetTest, UnresolvableSetIsContainedWithinTheBatch) {
  Session session;
  Target* target = LoadFleetServer(session);
  ASSERT_NE(target, nullptr);
  std::vector<ConfigSetInput> sets(2);
  sets[0].name = "empty-set";  // No files at all: the root cannot load.
  sets[1].files = {{"good.conf", "worker_threads = 99\n"}};
  std::vector<ResolvedConfigSet> resolutions;
  BatchSummary summary = target->CheckConfigSet(sets, {}, &resolutions);
  ASSERT_EQ(summary.reports.size(), 2u);
  EXPECT_EQ(summary.configs_with_errors, 1u);
  EXPECT_EQ(summary.reports[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(summary.reports[0].violations.empty());
  EXPECT_FALSE(resolutions[0].resolved());
  // The healthy set's report is unaffected by its poisoned neighbour.
  EXPECT_TRUE(summary.reports[1].status.ok());
  EXPECT_TRUE(
      HasViolation(summary.reports[1].violations, ViolationCategory::kRange, "worker_threads"));
}

TEST(ConfigSetTest, IncludeShapeDoesNotChangeExecutionIdentity) {
  Session session;
  Target* target = LoadFleetServer(session);
  ASSERT_NE(target, nullptr);
  // The same user mistake, delivered flat and via an include fragment:
  // the effective value is identical, so the batch replays it once.
  std::vector<ConfigSetInput> sets(2);
  sets[0].files = {{"site1.conf", "worker_threads = not_a_number\n"}};
  sets[1].files = {
      {"site2.conf", "include conf.d/tune.conf\n"},
      {"conf.d/tune.conf", "worker_threads = not_a_number\n"},
  };
  BatchOptions options;
  options.check.mode = CheckMode::kDynamic;
  BatchSummary summary = target->CheckConfigSet(sets, options);
  ASSERT_EQ(summary.reports.size(), 2u);
  EXPECT_EQ(summary.total_suspects, 2u);
  EXPECT_EQ(summary.unique_replays, 1u);  // unique_replays < total_suspects.
  ASSERT_EQ(summary.reports[0].violations.size(), summary.reports[1].violations.size());
  for (size_t i = 0; i < summary.reports[0].violations.size(); ++i) {
    const Violation& flat = summary.reports[0].violations[i];
    const Violation& included = summary.reports[1].violations[i];
    // Same verdict, different address: only provenance fields may differ.
    EXPECT_EQ(flat.category, included.category);
    EXPECT_EQ(flat.message, included.message);
    EXPECT_EQ(flat.reaction, included.reaction);
    EXPECT_EQ(flat.reaction_detail, included.reaction_detail);
    EXPECT_EQ(flat.prediction, included.prediction);
    EXPECT_EQ(flat.file, "site1.conf");
    EXPECT_EQ(included.file, "conf.d/tune.conf");
  }
}

TEST(ConfigSetTest, ReportsCarryRewrittenViolationsInBatchOrder) {
  Session session;
  Target* target = LoadFleetServer(session);
  ASSERT_NE(target, nullptr);
  std::vector<ConfigSetInput> sets(2);
  sets[0].files = {
      {"a.conf", "include sub/x.conf\n"},
      {"sub/x.conf", "worker_threads = 99\n"},
  };
  sets[1].files = {{"b.conf", "idle_timeout = 120\n"}};
  BatchSummary summary = target->CheckConfigSet(sets);
  EXPECT_EQ(summary.configs_checked, 2u);
  ASSERT_EQ(summary.reports.size(), 2u);
  for (size_t i = 0; i < summary.reports.size(); ++i) {
    EXPECT_EQ(summary.reports[i].index, i);
  }
  EXPECT_EQ(summary.reports[0].name, "a.conf");
  EXPECT_EQ(summary.reports[1].name, "b.conf");
  // The returned reports carry provenance-rewritten violations, not
  // flattened ones.
  ASSERT_FALSE(summary.reports[0].violations.empty());
  EXPECT_EQ(summary.reports[0].violations.front().file, "sub/x.conf");
  EXPECT_TRUE(summary.reports[1].violations.empty());
}

// ---------------------------------------------------------------------------
// Permission (octal mode / ACL) constraints, single-file and in sets.

TEST(ConfigSetTest, PermissionParamFlagsBothDirections) {
  Session session;
  Target* target = LoadVault(session);
  ASSERT_NE(target, nullptr);

  // In-policy mode: owner read present, no group/other write. Clean.
  std::vector<Violation> violations = target->CheckConfig("secret_mode = 0640\n", "m.conf");
  EXPECT_FALSE(HasViolation(violations, ViolationCategory::kPermission, "secret_mode"));

  // Too permissive: grants the write bits the code itself rejects.
  violations = target->CheckConfig("secret_mode = 0666\n", "m.conf");
  const Violation* violation =
      FindViolation(violations, ViolationCategory::kPermission, "secret_mode");
  ASSERT_NE(violation, nullptr);
  EXPECT_NE(violation->message.find("too permissive"), std::string::npos);
  EXPECT_NE(violation->message.find("022"), std::string::npos) << violation->message;

  // Too restrictive: drops owner read, so the vault cannot read its own
  // secret — the survey's other failure direction.
  violations = target->CheckConfig("secret_mode = 0200\n", "m.conf");
  violation = FindViolation(violations, ViolationCategory::kPermission, "secret_mode");
  ASSERT_NE(violation, nullptr);
  EXPECT_NE(violation->message.find("too restrictive"), std::string::npos);
  EXPECT_NE(violation->message.find("0400"), std::string::npos) << violation->message;

  // Not a mode at all.
  violations = target->CheckConfig("secret_mode = rw-r--r--\n", "m.conf");
  violation = FindViolation(violations, ViolationCategory::kPermission, "secret_mode");
  ASSERT_NE(violation, nullptr);
  EXPECT_NE(violation->message.find("not an octal permission mode"), std::string::npos);
}

TEST(ConfigSetTest, PermissionPolicyRefinedByTheCodesOwnMaskCheck) {
  Session session;
  Target* target = LoadVault(session);
  ASSERT_NE(target, nullptr);
  // 0620 grants group write (0020) — forbidden only because the vault's
  // `secret_mode & 0022` guard was folded into the policy; the 0002
  // default alone would let it pass.
  std::vector<Violation> violations = target->CheckConfig("secret_mode = 0620\n", "m.conf");
  const Violation* violation =
      FindViolation(violations, ViolationCategory::kPermission, "secret_mode");
  ASSERT_NE(violation, nullptr);
  EXPECT_NE(violation->message.find("it grants 020"), std::string::npos) << violation->message;
}

TEST(ConfigSetTest, PermissionViolationInAnIncludeTreeCarriesProvenance) {
  Session session;
  Target* target = LoadVault(session);
  ASSERT_NE(target, nullptr);
  std::vector<ConfigSetInput> sets(1);
  sets[0].files = {
      {"vault.conf",
       "secret_mode = 0600\n"
       "include conf.d/site.conf\n"},
      {"conf.d/site.conf", "secret_mode = 0666\n"},
  };
  BatchSummary summary = target->CheckConfigSet(sets);
  ASSERT_EQ(summary.reports.size(), 1u);
  const Violation* violation = FindViolation(summary.reports[0].violations,
                                             ViolationCategory::kPermission, "secret_mode");
  ASSERT_NE(violation, nullptr);
  EXPECT_EQ(violation->file, "conf.d/site.conf");
  EXPECT_EQ(violation->override_note, "overridden at vault.conf:1 (earlier value '0600')");
}

// ---------------------------------------------------------------------------
// /check config-set body parser.

TEST(ConfigSetTest, ParseConfigSetJsonDecodesEscapesAndNamesRoot) {
  ConfigSetInput input;
  Status status = ParseConfigSetJson(
      "{ \"files\": [ {\"name\": \"base.conf\", \"text\": \"a = 1\\nb = \\\"x\\\"\\n\"},\n"
      "  {\"name\": \"conf.d\\/x.conf\", \"text\": \"\\u0041 = 2\\n\"},\n"
      "  {\"name\": \"a\\ud83d\\ude00.conf\", \"text\": \"\\u00e9\\u20ac\"} ] }",
      &input);
  ASSERT_TRUE(status.ok()) << status.message();
  ASSERT_EQ(input.files.size(), 3u);
  EXPECT_EQ(input.name, "base.conf");
  EXPECT_EQ(input.files[0].text, "a = 1\nb = \"x\"\n");
  EXPECT_EQ(input.files[1].name, "conf.d/x.conf");
  EXPECT_EQ(input.files[1].text, "A = 2\n");
  // A surrogate pair (how JSON writers send a non-BMP character) is one
  // 4-byte UTF-8 sequence, never two 3-byte halves.
  EXPECT_EQ(input.files[2].name, "a\xf0\x9f\x98\x80.conf");
  EXPECT_EQ(input.files[2].text, "\xc3\xa9\xe2\x82\xac");
}

TEST(ConfigSetTest, ParseConfigSetJsonRejectsShapeErrorsWithPosition) {
  ConfigSetInput input;
  const char* bad_bodies[] = {
      "",
      "[]",
      "{\"files\":{}}",
      "{\"files\":[]}",
      "{\"files\":[{\"text\":\"a = 1\\n\"}]}",            // No name.
      "{\"files\":[{\"name\":\"\",\"text\":\"x\"}]}",     // Empty name.
      "{\"files\":[{\"name\":\"a.conf\"}]}",              // No text.
      "{\"files\":[{\"name\":\"a.conf\",\"text\":\"x\"}]} trailing",
      "{\"files\":[{\"name\":\"a.conf\",\"text\":\"\\q\"}]}",  // Bad escape.
      "{\"files\":[{\"name\":\"a\\ud83d.conf\",\"text\":\"x\"}]}",  // Lone high surrogate.
      "{\"files\":[{\"name\":\"a\\ude00\\ud83d\",\"text\":\"x\"}]}",  // Reversed pair.
  };
  for (const char* body : bad_bodies) {
    Status status = ParseConfigSetJson(body, &input);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << body;
    EXPECT_NE(status.message().find("config-set body"), std::string::npos) << body;
  }
  // A lone surrogate is reported at the backslash of its escape.
  Status lone = ParseConfigSetJson("{\"files\":[{\"name\":\"a\\ud83d.conf\",\"text\":\"x\"}]}",
                                   &input);
  EXPECT_NE(lone.message().find("lone high surrogate"), std::string::npos) << lone.message();
  EXPECT_NE(lone.message().find("at byte 20"), std::string::npos) << lone.message();
}

// ---------------------------------------------------------------------------
// The differential harness: seeded random include trees (nesting,
// shadowing, cycles, missing includes), resolved and checked as sets,
// against an independent flattening of the generator's own structure and
// against single-file checks of the serialized effective config — serial
// and sharded.

// Deterministic LCG so the corpus is identical on every platform/run.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint32_t Next(uint32_t bound) {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>((state_ >> 33) % bound);
  }

 private:
  uint64_t state_;
};

struct GenOp {
  bool is_include = false;
  size_t target = 0;           // Include: index into GenTree::files.
  bool missing = false;        // Include of a file that does not exist.
  std::string missing_name;
  std::string key, value;      // Assignment.
};

struct GenFile {
  std::string name;
  std::vector<GenOp> ops;  // One op per line; line == index + 1.
};

struct GenTree {
  std::vector<GenFile> files;  // files[0] is the root.
  size_t cycle_edges = 0;
  size_t missing_edges = 0;
};

GenTree MakeTree(Lcg& rng, int tree_index) {
  static const char* kKeys[] = {"worker_threads", "idle_timeout", "cache_kb",
                                "cache_ttl",      "log_format",   "use_cache",
                                "worker_treads"};
  static const std::vector<std::vector<const char*>> kValues = {
      {"4", "8", "99", "not_a_number"}, {"60", "120"},  {"2048", "9999999999"},
      {"300", "600"},                   {"plain", "json", "xml"}, {"on", "off"},
      {"8"},
  };
  GenTree tree;
  size_t nfiles = 2 + rng.Next(4);  // 2..5 files.
  tree.files.resize(nfiles);
  std::vector<size_t> parent(nfiles, 0);
  for (size_t i = 0; i < nfiles; ++i) {
    tree.files[i].name =
        "t" + std::to_string(tree_index) + "-f" + std::to_string(i) + ".conf";
    size_t assigns = 1 + rng.Next(3);
    for (size_t a = 0; a < assigns; ++a) {
      size_t k = rng.Next(7);
      GenOp op;
      op.key = kKeys[k];
      op.value = kValues[k][rng.Next(static_cast<uint32_t>(kValues[k].size()))];
      tree.files[i].ops.push_back(std::move(op));
    }
  }
  // Tree edges: every non-root file is included once by an earlier file,
  // at a random position among its assignments.
  for (size_t i = 1; i < nfiles; ++i) {
    parent[i] = rng.Next(static_cast<uint32_t>(i));
    GenOp op;
    op.is_include = true;
    op.target = i;
    GenFile& from = tree.files[parent[i]];
    from.ops.insert(from.ops.begin() + rng.Next(static_cast<uint32_t>(from.ops.size() + 1)),
                    std::move(op));
  }
  // A back-edge to an ancestor (a cycle the resolver must contain).
  if (rng.Next(3) == 0) {
    size_t from = 1 + rng.Next(static_cast<uint32_t>(nfiles - 1));
    // Pick an ancestor of `from` by walking the parent chain.
    std::vector<size_t> chain;
    for (size_t node = from; node != 0; node = parent[node]) {
      chain.push_back(parent[node]);
    }
    GenOp op;
    op.is_include = true;
    op.target = chain[rng.Next(static_cast<uint32_t>(chain.size()))];
    tree.files[from].ops.push_back(std::move(op));
    ++tree.cycle_edges;
  }
  // A dangling include.
  if (rng.Next(3) == 0) {
    GenOp op;
    op.is_include = true;
    op.missing = true;
    op.missing_name = "t" + std::to_string(tree_index) + "-ghost.conf";
    tree.files[rng.Next(static_cast<uint32_t>(nfiles))].ops.push_back(std::move(op));
    ++tree.missing_edges;
  }
  return tree;
}

std::vector<ConfigInput> RenderTree(const GenTree& tree) {
  std::vector<ConfigInput> files;
  for (const GenFile& file : tree.files) {
    std::string text;
    for (const GenOp& op : file.ops) {
      if (op.is_include) {
        text += "include " +
                (op.missing ? op.missing_name : tree.files[op.target].name) + "\n";
      } else {
        text += op.key + " = " + op.value + "\n";
      }
    }
    files.push_back(ConfigInput{file.name, std::move(text)});
  }
  return files;
}

struct RefAssign {
  std::string key, value, file;
  uint32_t line = 0;
};

// Independent reference expansion straight off the generator's structure
// (no parsing, no shared code with the resolver): depth-first, directive
// order, skip anything already on the stack or missing.
void ExpandReference(const GenTree& tree, size_t index, std::set<size_t>* stack,
                     std::vector<RefAssign>* out) {
  if (stack->count(index) > 0) {
    return;
  }
  stack->insert(index);
  const GenFile& file = tree.files[index];
  for (size_t i = 0; i < file.ops.size(); ++i) {
    const GenOp& op = file.ops[i];
    if (op.is_include) {
      if (!op.missing) {
        ExpandReference(tree, op.target, stack, out);
      }
      continue;
    }
    out->push_back(RefAssign{op.key, op.value, file.name, static_cast<uint32_t>(i + 1)});
  }
  stack->erase(index);
}

// Reference last-wins flattening of the assignment sequence.
std::vector<SettingProvenance> ReferenceProvenance(const std::vector<RefAssign>& sequence) {
  std::vector<SettingProvenance> provenance;
  std::unordered_map<std::string, size_t> index;
  for (const RefAssign& assign : sequence) {
    SettingOrigin origin{assign.file, assign.line, assign.value};
    auto it = index.find(assign.key);
    if (it == index.end()) {
      index.emplace(assign.key, provenance.size());
      provenance.push_back(SettingProvenance{assign.key, std::move(origin), {}});
      continue;
    }
    SettingProvenance& prov = provenance[it->second];
    prov.shadowed.push_back(std::move(prov.winner));
    prov.winner = std::move(origin);
  }
  return provenance;
}

TEST(ConfigSetDifferentialTest, SeededTreesResolveToTheirReferenceFlattening) {
  Lcg rng(0x5eed5e75u);
  size_t trees_with_faults = 0;
  for (int t = 0; t < 24; ++t) {
    GenTree tree = MakeTree(rng, t);
    std::vector<ConfigInput> files = RenderTree(tree);
    ResolvedConfigSet set = ResolveConfigSet(files, ConfigDialect::kKeyEqualsValue);
    ASSERT_TRUE(set.resolved()) << files[0].name;
    EXPECT_EQ(set.files_resolved, tree.files.size()) << files[0].name;
    EXPECT_EQ(CountErrors(set, ConfigSetError::Kind::kIncludeCycle), tree.cycle_edges);
    EXPECT_EQ(CountErrors(set, ConfigSetError::Kind::kMissingInclude), tree.missing_edges);
    if (!set.errors.empty()) {
      ++trees_with_faults;
    }

    std::vector<RefAssign> sequence;
    std::set<size_t> stack;
    ExpandReference(tree, 0, &stack, &sequence);
    std::vector<SettingProvenance> expected = ReferenceProvenance(sequence);
    ASSERT_EQ(set.provenance.size(), expected.size()) << files[0].name;
    EXPECT_EQ(set.effective.SettingCount(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      const SettingProvenance& want = expected[i];
      const SettingProvenance& got = set.provenance[i];
      EXPECT_EQ(got.key, want.key) << files[0].name << " #" << i;
      EXPECT_EQ(got.winner.file, want.winner.file) << files[0].name << " " << want.key;
      EXPECT_EQ(got.winner.line, want.winner.line) << files[0].name << " " << want.key;
      EXPECT_EQ(got.winner.value, want.winner.value) << files[0].name << " " << want.key;
      ASSERT_EQ(got.shadowed.size(), want.shadowed.size()) << files[0].name << " " << want.key;
      for (size_t s = 0; s < want.shadowed.size(); ++s) {
        EXPECT_EQ(got.shadowed[s].file, want.shadowed[s].file);
        EXPECT_EQ(got.shadowed[s].line, want.shadowed[s].line);
        EXPECT_EQ(got.shadowed[s].value, want.shadowed[s].value);
      }
      EXPECT_EQ(set.effective.Get(want.key), want.winner.value);
    }
  }
  // The corpus must actually exercise the containment paths.
  EXPECT_GT(trees_with_faults, 0u);
}

TEST(ConfigSetDifferentialTest, SetChecksMatchSingleFileChecksAtEveryThreadCount) {
  Lcg rng(0xd1ffe4e8u);
  std::vector<ConfigSetInput> sets;
  std::vector<ConfigInput> flats;
  for (int t = 0; t < 8; ++t) {
    GenTree tree = MakeTree(rng, t);
    ConfigSetInput set_input;
    set_input.files = RenderTree(tree);
    ResolvedConfigSet resolution =
        ResolveConfigSet(set_input.files, ConfigDialect::kKeyEqualsValue);
    ASSERT_TRUE(resolution.resolved());
    flats.push_back(ConfigInput{resolution.name, resolution.effective.Serialize()});
    sets.push_back(std::move(set_input));
  }

  // Ground truth: the serialized effective configs through the ordinary
  // single-file batch on a pristine session.
  BatchSummary reference;
  {
    Session session;
    Target* target = LoadFleetServer(session);
    ASSERT_NE(target, nullptr);
    BatchOptions options;
    options.check.mode = CheckMode::kDynamic;
    reference = target->CheckConfigBatch(flats, options);
  }

  for (int threads : {1, 4}) {
    Session session(SessionOptions{.campaign_threads = 4});
    Target* target = LoadFleetServer(session);
    ASSERT_NE(target, nullptr);
    BatchOptions options;
    options.check.mode = CheckMode::kDynamic;
    options.num_threads = threads;
    std::vector<ResolvedConfigSet> resolutions;
    BatchSummary actual = target->CheckConfigSet(sets, options, &resolutions);

    std::string label = "@" + std::to_string(threads) + " threads";
    ASSERT_EQ(actual.reports.size(), reference.reports.size()) << label;
    EXPECT_EQ(actual.total_suspects, reference.total_suspects) << label;
    EXPECT_EQ(actual.unique_replays, reference.unique_replays) << label;
    EXPECT_EQ(actual.total_violations, reference.total_violations) << label;
    EXPECT_EQ(actual.configs_with_violations, reference.configs_with_violations) << label;
    for (size_t i = 0; i < reference.reports.size(); ++i) {
      const ConfigReport& want = reference.reports[i];
      const ConfigReport& got = actual.reports[i];
      EXPECT_EQ(got.name, want.name) << label;
      ASSERT_EQ(got.violations.size(), want.violations.size()) << label << " " << want.name;
      for (size_t v = 0; v < want.violations.size(); ++v) {
        const Violation& flat = want.violations[v];
        const Violation& rewritten = got.violations[v];
        std::string where = label + " " + want.name + " #" + std::to_string(v);
        // Bit-identical verdicts...
        EXPECT_EQ(rewritten.category, flat.category) << where;
        EXPECT_EQ(rewritten.param, flat.param) << where;
        EXPECT_EQ(rewritten.value, flat.value) << where;
        EXPECT_EQ(rewritten.message, flat.message) << where;
        EXPECT_EQ(rewritten.constraint_loc.LineKey(), flat.constraint_loc.LineKey()) << where;
        ASSERT_EQ(rewritten.reaction.has_value(), flat.reaction.has_value()) << where;
        if (flat.reaction.has_value()) {
          EXPECT_EQ(*rewritten.reaction, *flat.reaction) << where;
        }
        EXPECT_EQ(rewritten.reaction_detail, flat.reaction_detail) << where;
        EXPECT_EQ(rewritten.evidence_logs, flat.evidence_logs) << where;
        EXPECT_EQ(rewritten.prediction, flat.prediction) << where;
        // ...except the address, which must be the winning assignment's.
        const SettingProvenance* prov = resolutions[i].FindProvenance(rewritten.param);
        ASSERT_NE(prov, nullptr) << where;
        EXPECT_EQ(rewritten.file, prov->winner.file) << where;
        EXPECT_EQ(rewritten.line, prov->winner.line) << where;
        for (const SettingOrigin& shadow : prov->shadowed) {
          EXPECT_NE(rewritten.override_note.find(
                        "overridden at " + shadow.file + ":" + std::to_string(shadow.line)),
                    std::string::npos)
              << where << " note=" << rewritten.override_note;
        }
      }
    }
  }
}

}  // namespace
}  // namespace spex
