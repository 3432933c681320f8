// Replay golden: what a ground-truth replay observes for every generated
// misconfiguration of every evaluated target, pinned to a committed table.
//
// tests/testdata/replay_golden.tsv holds one tab-separated line per
// misconfiguration, in EvaluatedTargets() order and, within a target, in
// MisconfigGenerator order:
//
//   target  index  param  category  pinpointed  tests_run  steps_used  digest
//
// `category`, `pinpointed` and `tests_run` come from a campaign's
// ground-truth full replay (ReplayExternal with use_parse_snapshot =
// false). `steps_used` is the interpreter step count of the same run,
// re-driven here through the public Interpreter API: every setting parsed
// in file order, then init, then the tests shortest first,
// stopping at the first failure. `digest` is Fnv1a64, in hex, over the
// result's detail and each log line, every piece followed by '\n'.
//
// The table is the gate for interpreter rewrites: a change that alters any
// verdict, log line or step count shows up here as a differing line. On a
// mismatch the test prints the first differing lines and writes the fresh
// table to testing::TempDir(), so an intended change can be reviewed as a
// diff and committed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/corpus/pipeline.h"
#include "src/support/hashing.h"
#include "src/support/thread_pool.h"

#ifndef SPEX_REPLAY_GOLDEN_PATH
#error "SPEX_REPLAY_GOLDEN_PATH must name tests/testdata/replay_golden.tsv"
#endif

namespace spex {
namespace {

struct Replayed {
  int64_t steps_used = 0;
  int64_t tests_run = 0;
};

// One full replay of `applied` on a reused interpreter, the way the
// campaign's ground-truth path drives it. `tests` are already in run order.
Replayed ReplayFromScratch(const SutSpec& sut, const std::vector<TestCase>& tests,
                           const OsSimulator& os_template, OsSimulator& os,
                           Interpreter& interp, const ConfigFile& applied) {
  os.RestoreFrom(os_template);
  interp.Reset();
  Replayed replayed;
  auto finish = [&] {
    replayed.steps_used = interp.steps_used();
    return replayed;
  };
  for (const ConfigEntry& entry : applied.entries()) {
    if (entry.kind != ConfigEntry::Kind::kSetting) {
      continue;
    }
    CallOutcome call = interp.Call(
        sut.parse_function, {interp.InternedString(entry.key), interp.InternedString(entry.value)});
    if (call.status != CallOutcome::Status::kOk || call.return_value.AsInt() < 0) {
      return finish();
    }
  }
  CallOutcome init = interp.Call(sut.init_function, {});
  if (init.status != CallOutcome::Status::kOk || init.return_value.AsInt() < 0) {
    return finish();
  }
  for (const TestCase& test : tests) {
    ++replayed.tests_run;
    CallOutcome call = interp.Call(test.function, {});
    if (call.status != CallOutcome::Status::kOk || call.return_value.AsInt() != test.expected) {
      break;
    }
  }
  return finish();
}

std::string Digest(const InjectionResult& result) {
  std::string bytes = result.detail + '\n';
  for (const std::string& log : result.logs) {
    bytes += log;
    bytes += '\n';
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, Fnv1a64(bytes));
  return hex;
}

// The golden lines of one target, plus a note for every row whose local
// replay disagreed with the campaign about the number of tests run.
struct TargetRows {
  std::vector<std::string> lines;
  std::vector<std::string> tests_run_mismatches;
};

TargetRows GoldenRows(const TargetSpec& spec, const ApiRegistry& apis) {
  TargetRows rows;
  DiagnosticEngine diags;
  TargetAnalysis analysis = AnalyzeTarget(spec, apis, &diags);
  EXPECT_FALSE(diags.HasErrors()) << spec.name << ":\n" << diags.Render();
  const TargetBundle& bundle = analysis.bundle;
  const ConfigFile template_config = ConfigFile::Parse(bundle.template_config, bundle.dialect);
  const std::vector<Misconfiguration> configs =
      MisconfigGenerator().Generate(analysis.constraints);

  const OsSimulator os_template = OsSimulator::StandardEnvironment();
  InjectionCampaign campaign(*analysis.module, bundle.sut, os_template);
  const std::vector<InjectionResult> results =
      campaign.ReplayExternal(template_config, configs, /*use_parse_snapshot=*/false);

  std::vector<TestCase> tests = bundle.sut.tests;
  std::stable_sort(tests.begin(), tests.end(), [](const TestCase& a, const TestCase& b) {
    return a.cost_hint < b.cost_hint;
  });
  OsSimulator os = os_template;
  Interpreter interp(*analysis.module, &os);
  for (size_t i = 0; i < results.size(); ++i) {
    const InjectionResult& result = results[i];
    ConfigFile applied = template_config;
    applied.Set(result.config.param, result.config.value);
    for (const auto& [key, value] : result.config.extra_settings) {
      applied.Set(key, value);
    }
    Replayed replayed = ReplayFromScratch(bundle.sut, tests, os_template, os, interp, applied);
    if (replayed.tests_run != result.tests_run) {
      rows.tests_run_mismatches.push_back(
          spec.name + " #" + std::to_string(i) + ": local replay ran " +
          std::to_string(replayed.tests_run) + " tests, campaign " +
          std::to_string(result.tests_run));
    }
    std::ostringstream line;
    line << spec.name << '\t' << i << '\t' << result.config.param << '\t'
         << ReactionCategoryName(result.category) << '\t' << (result.pinpointed ? 1 : 0) << '\t'
         << result.tests_run << '\t' << replayed.steps_used << '\t' << Digest(result);
    rows.lines.push_back(line.str());
  }
  return rows;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

TEST(ReplayGoldenTest, FullReplaysMatchTheCommittedTable) {
  const std::vector<TargetSpec> specs = EvaluatedTargets();
  const ApiRegistry apis = ApiRegistry::BuiltinC();
  std::vector<TargetRows> per_target(specs.size());
  ThreadPool pool(3);
  ForEachIndex(&pool, specs.size(), pool.size() + 1,
               [&](size_t t) { per_target[t] = GoldenRows(specs[t], apis); });

  std::vector<std::string> fresh;
  for (const TargetRows& rows : per_target) {
    fresh.insert(fresh.end(), rows.lines.begin(), rows.lines.end());
    for (const std::string& mismatch : rows.tests_run_mismatches) {
      ADD_FAILURE() << mismatch;
    }
  }

  const std::vector<std::string> golden = ReadLines(SPEX_REPLAY_GOLDEN_PATH);
  if (fresh == golden) {
    return;
  }
  const std::string out_path = testing::TempDir() + "replay_golden.tsv";
  {
    std::ofstream out(out_path);
    for (const std::string& line : fresh) {
      out << line << '\n';
    }
  }
  std::ostringstream report;
  report << "replay table differs from " << SPEX_REPLAY_GOLDEN_PATH << " (" << golden.size()
         << " golden lines, " << fresh.size() << " fresh); fresh table written to " << out_path
         << "\n";
  size_t shown = 0;
  for (size_t i = 0; i < std::max(golden.size(), fresh.size()) && shown < 10; ++i) {
    const std::string want = i < golden.size() ? golden[i] : "<missing>";
    const std::string got = i < fresh.size() ? fresh[i] : "<missing>";
    if (want != got) {
      report << "line " << i + 1 << "\n  golden: " << want << "\n  fresh:  " << got << "\n";
      ++shown;
    }
  }
  ADD_FAILURE() << report.str();
}

}  // namespace
}  // namespace spex
