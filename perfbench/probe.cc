// perfbench_probe — the in-process half of the benchmark (see README.md).
//
//   perfbench_probe reference <target> <list> <out>
//       The ground-truth verdicts the benchmark checks every output
//       against: a fresh Session, one independent Target::CheckConfig per
//       config, serial, no verdict store, use_parse_snapshot=false. <list>
//       holds one "<mode>\t<name>\t<path>" line per config, mode being
//       static, dynamic or both. The first output line carries the
//       target's constraint count and inference accuracy.
//
//   perfbench_probe trace <manifest> <out>
//       The traced run: calls each layer's public functions on one
//       workload's generated inputs (one group of configs of one target) and records one span per call (name,
//       start, end, parent, operation) in memory, written out at the end
//       together with the layers' counters. Manifest lines:
//         group\t<target>\t<files|sets>\t<list>
//         store\t<pristine store path>   (optional; copied before each use)
//         scratch\t<dir>
//         inproc\t<name>\t<path>
//       A files list holds "<name>\t<path>" lines; a sets list holds
//       "<name>\t<root>\t<file>,<file>,..." lines (every file of the set).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/config_set.h"
#include "src/api/dynamic_check.h"
#include "src/api/session.h"
#include "src/core/engine.h"
#include "src/corpus/spec.h"
#include "src/corpus/synthesizer.h"
#include "src/corpus/truth.h"
#include "src/ir/lowering.h"
#include "src/lang/parser.h"
#include "src/mapping/annotations.h"
#include "src/osim/os_simulator.h"
#include "src/support/verdict_store.h"

namespace spex {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// Replays timed one by one in the traced run; enough for a stable median
// per unique execution without letting a large fleet dominate the run.
constexpr size_t kMaxTracedReplays = 400;
// Untraced and traced passes of the per-config stage, for the overhead.
constexpr int kOverheadPasses = 5;

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "perfbench_probe: " << message << "\n";
  std::exit(2);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

std::vector<std::vector<std::string>> ReadTabLines(const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream in(ReadFile(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields;
    size_t start = 0;
    for (size_t tab = line.find('\t'); tab != std::string::npos; tab = line.find('\t', start)) {
      fields.push_back(line.substr(start, tab - start));
      start = tab + 1;
    }
    fields.push_back(line.substr(start));
    rows.push_back(std::move(fields));
  }
  return rows;
}

std::string Json(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string ViolationsJson(const std::vector<Violation>& violations) {
  std::string out = "[";
  for (size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    out += i == 0 ? "{" : ",{";
    out += "\"category\":" + Json(ViolationCategoryName(v.category));
    out += ",\"param\":" + Json(v.param) + ",\"value\":" + Json(v.value);
    out += ",\"file\":" + Json(v.file) + ",\"line\":" + std::to_string(v.line);
    out += ",\"message\":" + Json(v.message);
    if (!v.override_note.empty()) out += ",\"note\":" + Json(v.override_note);
    if (v.reaction.has_value()) {
      out += ",\"reaction\":" + Json(ReactionCategoryName(*v.reaction));
      out += ",\"prediction\":" + Json(v.prediction);
    }
    out += "}";
  }
  return out + "]";
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Share of inferred constraints the synthesizer's ground truth confirms,
// over every constraint kind.
double OverallAccuracy(const ModuleConstraints& constraints, const GroundTruth& truth) {
  AccuracyReport report = EvaluateAccuracy(constraints, truth);
  size_t inferred = 0;
  size_t correct = 0;
  for (const KindAccuracy* kind : {&report.basic_type, &report.semantic_type, &report.range,
                                   &report.control_dep, &report.value_rel}) {
    inferred += kind->inferred;
    correct += kind->correct;
  }
  return inferred == 0 ? 1.0 : static_cast<double>(correct) / static_cast<double>(inferred);
}

Target* MustLoad(Session* session, const std::string& name) {
  Target* target = session->LoadTarget(name);
  if (target == nullptr) Die("loading " + name + " failed:\n" + session->RenderDiagnostics());
  return target;
}

int Reference(const std::string& target_name, const std::string& list, const std::string& out_path) {
  Session session;
  Target* target = MustLoad(&session, target_name);
  std::ofstream out(out_path, std::ios::binary);
  char accuracy[32];
  std::snprintf(accuracy, sizeof(accuracy), "%.9f",
                OverallAccuracy(target->InferConstraints(), target->analysis().bundle.truth));
  out << "{\"target\":" << Json(target_name)
      << ",\"constraints\":" << target->InferConstraints().TotalConstraints()
      << ",\"accuracy\":" << accuracy << "}\n";
  CheckOptions dynamic;
  dynamic.mode = CheckMode::kDynamic;
  dynamic.use_parse_snapshot = false;
  for (const std::vector<std::string>& row : ReadTabLines(list)) {
    if (row.size() != 3) Die("bad reference list line in " + list);
    const std::string& mode = row[0];
    const std::string& name = row[1];
    std::string text = ReadFile(row[2]);
    out << "{\"name\":" << Json(name);
    if (mode == "static" || mode == "both") {
      out << ",\"static\":" << ViolationsJson(target->CheckConfig(text, name));
    }
    if (mode == "dynamic" || mode == "both") {
      out << ",\"dynamic\":" << ViolationsJson(target->CheckConfig(text, name, dynamic));
    }
    out << "}\n";
  }
  return out.good() ? 0 : 2;
}

// --- Traced run -----------------------------------------------------------

struct Span {
  std::string name;
  std::string op;
  int64_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Records spans while enabled; a disabled tracer's scopes do nothing, so
// the same code runs traced and untraced.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name, std::string_view op) : tracer_(tracer) {
      if (!tracer_->enabled_) return;
      index_ = tracer_->spans_.size();
      Span span;
      span.name = name;
      span.op = op;
      span.parent = tracer_->stack_.empty() ? -1 : static_cast<int64_t>(tracer_->stack_.back());
      tracer_->spans_.push_back(std::move(span));
      tracer_->stack_.push_back(index_);
      tracer_->spans_[index_].start_ns = tracer_->Now();
    }
    ~Scope() {
      if (!tracer_->enabled_) return;
      tracer_->spans_[index_].end_ns = tracer_->Now();
      tracer_->stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    size_t index_ = 0;
  };

  bool enabled() const { return enabled_; }
  // Only between top-level scopes: a scope must end as it began.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  size_t size() const { return spans_.size(); }
  // Drops the spans recorded since size() was `mark`.
  void Rewind(size_t mark) { spans_.resize(mark); }

  void Write(std::ostream& out) const {
    for (const Span& span : spans_) {
      out << "{\"span\":" << Json(span.name) << ",\"op\":" << Json(span.op)
          << ",\"parent\":" << span.parent << ",\"start\":" << span.start_ns
          << ",\"end\":" << span.end_ns << "}\n";
    }
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  }

  Clock::time_point epoch_;
  bool enabled_ = true;
  std::vector<Span> spans_;
  std::vector<size_t> stack_;
};

// The workload's configs, checked dynamically: single files or include
// trees.
struct Group {
  std::string target;
  bool sets = false;
  std::vector<ConfigInput> inputs;            // files: name + text.
  std::vector<std::string> roots;             // sets: root paths.
  std::vector<std::vector<std::string>> set_files;
  std::vector<ResolvedConfigSet> resolved;    // sets: filled by the per-config stage.
};


// Filesystem include source, as spexcheck --include-roots resolves sets.
class FileSource : public ConfigSetSource {
 public:
  std::optional<std::string> Load(const std::string& name) override {
    std::ifstream in(name, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
  }
  std::optional<std::vector<std::string>> ListDir(const std::string& dir) override {
    std::error_code ec;
    std::vector<std::string> names;
    for (fs::directory_iterator it(dir, ec); !ec && it != fs::directory_iterator();
         it.increment(ec)) {
      if (it->path().extension() == ".conf") names.push_back(it->path().generic_string());
    }
    if (ec) return std::nullopt;
    std::sort(names.begin(), names.end());
    return names;
  }
};

class TracedRun {
 public:
  explicit TracedRun(const std::string& manifest) {
    for (const std::vector<std::string>& row : ReadTabLines(manifest)) {
      if (row[0] == "group" && row.size() == 4 && group_.target.empty()) {
        Group& group = group_;
        group.target = row[1];
        group.sets = row[2] == "sets";
        for (const std::vector<std::string>& item : ReadTabLines(row[3])) {
          if (group.sets) {
            if (item.size() != 3) Die("bad sets list line in " + row[3]);
            group.roots.push_back(item[1]);
            std::vector<std::string> files;
            std::stringstream split(item[2]);
            for (std::string file; std::getline(split, file, ',');) files.push_back(file);
            group.set_files.push_back(std::move(files));
          } else {
            if (item.size() != 2) Die("bad files list line in " + row[3]);
            group.inputs.push_back(ConfigInput{item[0], ReadFile(item[1])});
          }
        }
      } else if (row[0] == "store" && row.size() == 2) {
        pristine_store_ = row[1];
      } else if (row[0] == "scratch" && row.size() == 2) {
        scratch_ = row[1];
      } else if (row[0] == "inproc" && row.size() == 3) {
        inproc_.push_back(ConfigInput{row[1], ReadFile(row[2])});
      } else {
        Die("bad manifest line in " + manifest);
      }
    }
    if (scratch_.empty()) Die("manifest names no scratch directory");
    if (group_.target.empty()) Die("manifest names no group");
  }

  void Run(std::ostream& out) {
    LoadStage();
    ConfigStage();
    BatchStage();
    ReplayStage();
    StoreStage();
    InprocStage();
    counters_["trace.spans"] = static_cast<double>(tracer_.size());
    tracer_.Write(out);
    out << "{\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : counters_) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", value);
      out << (first ? "" : ",") << Json(name) << ":" << buf;
      first = false;
    }
    out << "}}\n";
    out << "{\"inproc_us\":[";
    for (size_t i = 0; i < inproc_us_.size(); ++i) {
      out << (i == 0 ? "" : ",") << inproc_us_[i];
    }
    out << "]}\n";
  }

 private:
  // A fresh copy of the workload's pristine store (empty path when the
  // workload runs without one), so every stage starts from the same state.
  std::shared_ptr<VerdictStore> FreshStore(const std::string& label, bool empty_ok) {
    if (pristine_store_.empty() && !empty_ok) return nullptr;
    std::string path = scratch_ + "/" + label + ".vst";
    std::error_code ec;
    fs::remove(path, ec);
    fs::remove(path + ".lock", ec);
    if (!pristine_store_.empty()) {
      fs::copy_file(pristine_store_, path, fs::copy_options::overwrite_existing, ec);
      if (ec) Die("cannot copy store " + pristine_store_);
    }
    Status status;
    std::shared_ptr<VerdictStore> store;
    {
      Tracer::Scope span(&tracer_, "verdict_store.open", "store:" + label);
      store = VerdictStore::Open(path, {}, &status);
    }
    if (!status.ok()) Die("store open failed: " + status.message());
    return store;
  }

  // Target load, one layer per span: synthesize, parse, lower, infer.
  void LoadStage() {
    ApiRegistry apis = ApiRegistry::BuiltinC();
    const std::string& name = group_.target;
    const std::string op = "load:" + name;
    {
      Tracer::Scope load(&tracer_, "load", op);
      DiagnosticEngine diags;
      TargetBundle bundle;
      {
        Tracer::Scope span(&tracer_, "corpus.synthesize", op);
        bundle = SynthesizeTarget(FindTarget(name));
      }
      std::unique_ptr<TranslationUnit> unit;
      {
        Tracer::Scope span(&tracer_, "lang.parse", op);
        unit = ParseSource(bundle.source, name + ".c", &diags);
      }
      std::unique_ptr<Module> module;
      {
        Tracer::Scope span(&tracer_, "ir.lower", op);
        module = LowerToIr(*unit, &diags);
      }
      ModuleConstraints constraints;
      {
        Tracer::Scope span(&tracer_, "core.infer", op);
        SpexEngine engine(*module, apis);
        AnnotationFile annotations = ParseAnnotations(bundle.annotations, &diags);
        constraints = engine.Run(annotations, &diags);
      }
      if (diags.HasErrors()) Die("analysis of " + name + " failed:\n" + diags.Render());
      size_t instructions = 0;
      for (const auto& function : module->functions()) {
        for (const auto& block : function->blocks()) instructions += block->instructions().size();
      }
      counters_["ir.instructions"] = static_cast<double>(instructions);
      counters_["core.constraints"] = static_cast<double>(constraints.TotalConstraints());
      AccuracyReport report = EvaluateAccuracy(constraints, bundle.truth);
      for (const KindAccuracy* kind : {&report.basic_type, &report.semantic_type, &report.range,
                                       &report.control_dep, &report.value_rel}) {
        counters_["core.inferred"] += static_cast<double>(kind->inferred);
        counters_["core.correct"] += static_cast<double>(kind->correct);
      }
    }
    target_ = MustLoad(&session_, name);
  }

  // The per-config stage, the one with the most spans per unit of work,
  // run untraced and traced in turn. The tracing overhead is the median
  // traced pass minus the median untraced pass; the last traced pass's
  // spans are the ones kept.
  void ConfigStage() {
    std::vector<double> untraced_ns;
    std::vector<double> traced_ns;
    for (int pass = 0; pass < kOverheadPasses; ++pass) {
      for (bool traced : {false, true}) {
        const size_t mark = tracer_.size();
        tracer_.set_enabled(traced);
        Clock::time_point start = Clock::now();
        ConfigPass();
        (traced ? traced_ns : untraced_ns)
            .push_back(std::chrono::duration<double, std::nano>(Clock::now() - start).count());
        if (traced && pass + 1 < kOverheadPasses) tracer_.Rewind(mark);
      }
    }
    tracer_.set_enabled(true);
    counters_["trace.untraced_ns"] = Median(untraced_ns);
    counters_["trace.traced_ns"] = Median(traced_ns);
  }

  // Per config: resolve, parse, static check and suspects.
  void ConfigPass() {
    unique_suspects_.clear();
    Group& group = group_;
    group.resolved.clear();
    const ConfigDialect dialect = target_->dialect();
    const ModuleConstraints& constraints = target_->InferConstraints();
    ConfigFile template_config =
        ConfigFile::Parse(target_->analysis().bundle.template_config, dialect);
    const size_t count = group.sets ? group.roots.size() : group.inputs.size();
    for (size_t i = 0; i < count; ++i) {
      const std::string op = tracer_.enabled() ? "cfg:" + std::to_string(i) : "";
      Tracer::Scope item(&tracer_, "config", op);
      ConfigFile config;
      std::string name;
      if (group.sets) {
        FileSource source;
        {
          Tracer::Scope span(&tracer_, "api.resolve", op);
          group.resolved.push_back(ResolveConfigSet(group.roots[i], source, dialect));
        }
        for (const std::string& file : group.set_files[i]) {
          std::string text = ReadFile(file);
          Tracer::Scope span(&tracer_, "confgen.parse", op);
          ConfigFile parsed = ConfigFile::Parse(text, dialect);
        }
        config = group.resolved.back().effective;
        name = group.resolved.back().name;
      } else {
        const ConfigInput& input = group.inputs[i];
        {
          Tracer::Scope span(&tracer_, "api.resolve", op);
          ResolvedConfigSet single = ResolveConfigSet(std::span(&input, 1), dialect);
        }
        {
          Tracer::Scope span(&tracer_, "confgen.parse", op);
          config = ConfigFile::Parse(input.text, dialect);
        }
        name = input.name;
      }
      std::vector<Violation> violations;
      {
        Tracer::Scope span(&tracer_, "api.static_check", op);
        violations = CheckConfigFile(constraints, config, name);
      }
      std::vector<Misconfiguration> suspects;
      {
        Tracer::Scope span(&tracer_, "api.suspects", op);
        suspects = BuildDynamicSuspects(constraints, template_config, config, violations);
      }
      for (Misconfiguration& suspect : suspects) {
        unique_suspects_.emplace(SuspectExecutionKey(suspect), std::move(suspect));
      }
    }
  }

  // The whole group as one batch on fresh targets: serial, then sharded
  // over the hardware (what spexcheck --threads 0 runs), each behind its
  // own load.
  void BatchStage() {
    const Group& group = group_;
    const std::string op = "batch";
    BatchSummary summary;
    for (int threads : {1, 0}) {
      const char* suffix = threads == 1 ? "serial" : "parallel";
      Session session;
      Target* target = nullptr;
      {
        Tracer::Scope span(&tracer_, std::string("api.load.") + suffix, op);
        std::shared_ptr<VerdictStore> store =
            FreshStore(std::string("batch-") + suffix, /*empty_ok=*/false);
        target = MustLoad(&session, group.target);
        if (store != nullptr) target->AttachVerdictStore(store);
      }
      BatchOptions options;
      options.check.mode = CheckMode::kDynamic;
      options.num_threads = threads;
      Tracer::Scope span(&tracer_, std::string("api.batch.") + suffix, op);
      summary = group.sets ? target->CheckResolvedConfigSets(group.resolved, options)
                           : target->CheckConfigBatch(group.inputs, options);
    }
    if (summary.configs_with_errors != 0) Die("batch reported per-config errors");
    counters_["api.total_suspects"] = static_cast<double>(summary.total_suspects);
    counters_["api.unique_replays"] = static_cast<double>(summary.unique_replays);
    counters_["api.finalized_overlapped"] = static_cast<double>(summary.finalized_overlapped);
    counters_["store.hits"] = static_cast<double>(summary.store_hits);
    counters_["store.misses"] = static_cast<double>(summary.store_misses);
  }

  // Each unique execution replayed alone through a fresh campaign.
  void ReplayStage() {
    const TargetAnalysis& analysis = target_->analysis();
    InjectionCampaign campaign(*analysis.module, analysis.bundle.sut,
                               OsSimulator::StandardEnvironment());
    ConfigFile template_config =
        ConfigFile::Parse(analysis.bundle.template_config, target_->dialect());
    // Every k-th key, so a capped sample still spans the whole key order.
    const size_t stride =
        std::max<size_t>(1, (unique_suspects_.size() + kMaxTracedReplays - 1) / kMaxTracedReplays);
    size_t index = 0;
    for (const auto& [key, suspect] : unique_suspects_) {
      if (index++ % stride != 0) continue;
      std::vector<Misconfiguration> one{suspect};
      std::vector<InjectionResult> results;
      {
        Tracer::Scope span(&tracer_, "inject.replay", "replay:" + key);
        results = campaign.ReplayExternal(template_config, one);
      }
      const InjectionResult& result = results.front();
      replayed_.push_back(VerdictAppend{
          0, key,
          StoredVerdict{static_cast<uint8_t>(result.category), result.pinpointed,
                        result.tests_run, result.detail, result.logs}});
    }
    CampaignCacheStats stats = campaign.cache_stats();
    counters_["inject.snapshots_built"] = static_cast<double>(stats.snapshots_built);
    counters_["inject.delta_replays"] = static_cast<double>(stats.delta_replays);
    counters_["inject.full_replays"] = static_cast<double>(stats.full_replays);
    counters_["inject.verifications"] = static_cast<double>(stats.verifications);
  }

  // Store open, one append batch of the traced verdicts, and one lookup
  // per appended key, on a copy of the workload's store (or a new one).
  void StoreStage() {
    std::shared_ptr<VerdictStore> store = FreshStore("layer", /*empty_ok=*/true);
    VerdictStoreStats opened = store->stats();
    counters_["verdict_store.loaded_records"] = static_cast<double>(opened.loaded_records);
    counters_["verdict_store.dropped_bytes"] = static_cast<double>(opened.dropped_bytes);
    const uint64_t scope = store->ResolveScope("perfbench-layer");
    std::vector<VerdictAppend> appends = replayed_;
    for (VerdictAppend& append : appends) append.scope_id = scope;
    {
      Tracer::Scope span(&tracer_, "verdict_store.append", "store:append");
      store->AppendBatch(std::move(appends));
    }
    size_t hits = 0;
    for (const VerdictAppend& append : replayed_) {
      StoredVerdict verdict;
      Tracer::Scope span(&tracer_, "verdict_store.lookup", "store:lookup");
      hits += store->Lookup(scope, append.key, &verdict) ? 1 : 0;
    }
    if (hits != replayed_.size()) Die("store lost appended verdicts");
  }

  // The requests the serve segment sent, checked in process the way a
  // daemon worker checks them: one serial single-config batch each.
  void InprocStage() {
    if (inproc_.empty()) return;
    Session session;
    Target* target = MustLoad(&session, group_.target);
    BatchOptions options;
    options.check.mode = CheckMode::kDynamic;
    options.num_threads = 1;
    target->CheckConfigBatch(std::span(&inproc_.front(), 1), options);  // Warm-up.
    for (const ConfigInput& request : inproc_) {
      Clock::time_point start = Clock::now();
      BatchSummary summary = target->CheckConfigBatch(std::span(&request, 1), options);
      inproc_us_.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - start).count());
      if (summary.configs_with_errors != 0) Die("in-process check reported an error");
    }
  }

  Tracer tracer_;
  Group group_;
  std::vector<ConfigInput> inproc_;
  std::string pristine_store_;
  std::string scratch_;
  Session session_;
  Target* target_ = nullptr;
  std::map<std::string, Misconfiguration> unique_suspects_;
  std::vector<VerdictAppend> replayed_;
  std::map<std::string, double> counters_;
  std::vector<double> inproc_us_;
};

int Trace(const std::string& manifest, const std::string& out_path) {
  TracedRun run(manifest);
  std::ofstream out(out_path, std::ios::binary);
  run.Run(out);
  return out.good() ? 0 : 2;
}

}  // namespace
}  // namespace spex

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 4 && args[0] == "reference") {
    return spex::Reference(args[1], args[2], args[3]);
  }
  if (args.size() == 3 && args[0] == "trace") {
    return spex::Trace(args[1], args[2]);
  }
  std::cerr << "usage: perfbench_probe reference <target> <list> <out>\n"
               "       perfbench_probe trace <manifest> <out>\n";
  return 2;
}
