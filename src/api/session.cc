#include "src/api/session.h"

#include <utility>

#include "src/api/dynamic_check.h"
#include "src/ir/lowering.h"
#include "src/lang/parser.h"
#include "src/support/hashing.h"
#include "src/support/verdict_store.h"

namespace spex {

Session::Session(SessionOptions options)
    : options_(std::move(options)),
      apis_(ApiRegistry::BuiltinC()) {}

Session::~Session() = default;

ThreadPool* Session::worker_pool() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(
        ThreadPool::ResolveThreadCount(options_.campaign_threads));
  }
  return pool_.get();
}

bool Session::ok() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !diags_.HasErrors();
}

std::string Session::RenderDiagnostics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return diags_.Render();
}

Target* Session::LoadSource(std::string_view source, std::string_view annotations,
                            std::string_view name, ConfigDialect dialect, SutSpec sut,
                            std::string_view template_config) {
  TargetAnalysis analysis;
  analysis.bundle.name = std::string(name);
  analysis.bundle.display_name = std::string(name);
  analysis.bundle.dialect = dialect;
  analysis.bundle.source = std::string(source);
  analysis.bundle.annotations = std::string(annotations);
  analysis.bundle.sut = std::move(sut);
  analysis.bundle.template_config = std::string(template_config);

  std::lock_guard<std::mutex> lock(mutex_);
  // Failure is per load: diagnostics accumulate for reporting, but a bad
  // load must not poison later loads of valid sources.
  size_t errors_before = diags_.error_count();
  auto failed = [&] { return diags_.error_count() > errors_before; };
  auto unit = ParseSource(analysis.bundle.source, analysis.bundle.name, &diags_);
  if (failed()) {
    return nullptr;
  }
  analysis.module = LowerToIr(*unit, &diags_);
  if (failed()) {
    return nullptr;
  }
  analysis.engine = std::make_unique<SpexEngine>(*analysis.module, apis_, options_.engine);
  AnnotationFile annotation_file = ParseAnnotations(analysis.bundle.annotations, &diags_);
  analysis.lines_of_annotation = annotation_file.lines_of_annotation;
  analysis.constraints = analysis.engine->Run(annotation_file, &diags_);
  if (failed()) {
    return nullptr;
  }
  targets_.push_back(
      std::unique_ptr<Target>(new Target(this, std::move(analysis))));
  return targets_.back().get();
}

Target* Session::LoadTarget(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t errors_before = diags_.error_count();
  TargetAnalysis analysis = AnalyzeTarget(FindTarget(name), apis_, &diags_, options_.engine);
  if (diags_.error_count() > errors_before) {
    return nullptr;
  }
  targets_.push_back(
      std::unique_ptr<Target>(new Target(this, std::move(analysis))));
  return targets_.back().get();
}

std::vector<CorpusCampaignResult> Session::RunCorpusCampaigns(
    const std::vector<std::string>& target_names, CampaignOptions options, int num_threads) {
  // Targets fan out on the session pool; each inner campaign runs
  // serially inside its claim, so no pool task waits on its own pool.
  ThreadPool* pool = num_threads != 1 ? worker_pool() : nullptr;
  return spex::RunCorpusCampaigns(target_names, apis_, options, pool,
                                  ClaimerCount(num_threads, pool), options_.engine);
}

Target::Target(Session* session, TargetAnalysis analysis)
    : session_(session),
      analysis_(std::move(analysis)),
      template_config_(ConfigFile::Parse(analysis_.bundle.template_config,
                                         analysis_.bundle.dialect)) {}

std::vector<Violation> Target::CheckConfig(std::string_view config_text,
                                           std::string_view file_name) const {
  return CheckConfigText(analysis_.constraints, config_text, analysis_.bundle.dialect,
                         file_name);
}

bool Target::SupportsDynamicCheck() const {
  return template_config_.SettingCount() > 0 && analysis_.module != nullptr &&
         analysis_.module->FindFunction(analysis_.bundle.sut.parse_function) != nullptr &&
         analysis_.module->FindFunction(analysis_.bundle.sut.init_function) != nullptr;
}

InjectionCampaign* Target::EnsureCampaign() {
  std::lock_guard<std::mutex> lock(campaign_mutex_);
  if (campaign_ == nullptr) {
    campaign_ = std::make_unique<InjectionCampaign>(*analysis_.module, analysis_.bundle.sut,
                                                    OsSimulator::StandardEnvironment());
    if (verdict_store_ != nullptr) {
      campaign_->AttachVerdictStore(verdict_store_, StoreScope());
    }
  }
  return campaign_.get();
}

namespace {

// One scope field, length-prefixed like the execution key itself: target
// sources and SUT specs are free text, so no separator is safe.
void AppendScopeField(std::string* scope, std::string_view field) {
  *scope += std::to_string(field.size());
  *scope += ':';
  *scope += field;
}

}  // namespace

std::string Target::StoreScope() const {
  // Everything that could change a replay's verdict besides the template
  // (the campaign folds the template in per call) — a change to any of
  // these lands stored verdicts in a fresh scope, so they re-check cold.
  // Deliberately absent: use_parse_snapshot and every fan-out width — the
  // bit-identity machinery guarantees verdicts do not depend on them.
  // Sources can be large, so they enter as stable 64-bit digests.
  const TargetBundle& bundle = analysis_.bundle;
  std::string scope = "spex-scope-v1|";
  AppendScopeField(&scope, bundle.name);
  scope += std::to_string(static_cast<int>(bundle.dialect));
  scope += '|';
  scope += std::to_string(Fnv1a64(bundle.source));
  scope += '|';
  scope += std::to_string(Fnv1a64(bundle.annotations));
  scope += '|';
  AppendScopeField(&scope, bundle.sut.parse_function);
  AppendScopeField(&scope, bundle.sut.init_function);
  scope += std::to_string(bundle.sut.tests.size());
  for (const TestCase& test : bundle.sut.tests) {
    AppendScopeField(&scope, test.name);
    AppendScopeField(&scope, test.function);
    scope += std::to_string(test.expected);
    scope += ',';
    scope += std::to_string(test.cost_hint);
    scope += ';';
  }
  for (const auto& [param, storage] : bundle.sut.param_storage) {
    AppendScopeField(&scope, param);
    AppendScopeField(&scope, storage);
  }
  // The target's campaign always runs the default (paper) options; they
  // and the interpreter's budgets stay in the scope, in the order they
  // always had, so stores written before keep working.
  const CampaignOptions campaign;
  scope += campaign.stop_at_first_failure ? '1' : '0';
  scope += campaign.sort_tests_by_cost ? '1' : '0';
  scope += std::to_string(Interpreter::kMaxSteps);
  scope += ',';
  scope += std::to_string(Interpreter::kMaxCallDepth);
  return scope;
}

void Target::AttachVerdictStore(std::shared_ptr<VerdictStore> store) {
  std::lock_guard<std::mutex> lock(campaign_mutex_);
  verdict_store_ = std::move(store);
  if (campaign_ != nullptr) {
    campaign_->AttachVerdictStore(verdict_store_, StoreScope());
  }
}

std::shared_ptr<VerdictStore> Target::verdict_store() {
  std::lock_guard<std::mutex> lock(campaign_mutex_);
  return verdict_store_;
}

std::vector<Violation> Target::CheckConfig(std::string_view config_text,
                                           std::string_view file_name,
                                           const CheckOptions& options) {
  ConfigFile config = ConfigFile::Parse(config_text, analysis_.bundle.dialect);
  std::vector<Violation> violations =
      CheckConfigFile(analysis_.constraints, config, file_name);
  if (options.mode != CheckMode::kDynamic || !SupportsDynamicCheck()) {
    return violations;
  }
  std::vector<Misconfiguration> suspects =
      BuildDynamicSuspects(analysis_.constraints, template_config_, config, violations);
  if (suspects.empty()) {
    return violations;
  }
  InjectionCampaign* campaign = EnsureCampaign();
  ReplayLimits limits;
  limits.cancel = options.cancel;
  limits.per_replay_deadline = options.deadline;
  std::vector<InjectionResult> results = campaign->ReplayExternal(
      template_config_, suspects, options.use_parse_snapshot, limits);
  AttachReactions(suspects, results, config, file_name, &violations);
  return violations;
}

BatchSummary Target::CheckConfigBatch(std::span<const ConfigInput> configs,
                                      const BatchOptions& options) {
  // Dynamic batches share the target's persistent campaign (and its
  // snapshot cache) with single checks and RunCampaign; targets that
  // cannot be driven dynamically degrade to the static result per config,
  // exactly like CheckConfig.
  const bool dynamic = options.check.mode == CheckMode::kDynamic && SupportsDynamicCheck();
  InjectionCampaign* campaign = dynamic ? EnsureCampaign() : nullptr;
  // Parallel batches fan out on the session pool and wait only for their
  // own tasks, so they run alongside campaigns and other batches.
  ThreadPool* pool = options.num_threads != 1 ? session_->worker_pool() : nullptr;
  return RunBatchCheck(analysis_.constraints, template_config_, dialect(), campaign, pool,
                       configs, options);
}

BatchSummary Target::CheckConfigSet(std::span<const ConfigSetInput> sets,
                                    const BatchOptions& options,
                                    std::vector<ResolvedConfigSet>* resolutions) {
  std::vector<ResolvedConfigSet> local;
  std::vector<ResolvedConfigSet>& resolved = resolutions != nullptr ? *resolutions : local;
  resolved.clear();
  resolved.reserve(sets.size());
  for (const ConfigSetInput& set : sets) {
    ResolvedConfigSet resolution = ResolveConfigSet(set.files, dialect());
    if (!set.name.empty()) {
      resolution.name = set.name;
    }
    resolved.push_back(std::move(resolution));
  }
  return CheckResolvedConfigSets(resolved, options);
}

BatchSummary Target::CheckResolvedConfigSets(std::span<const ResolvedConfigSet> sets,
                                             const BatchOptions& options) {
  std::vector<ConfigInput> effective;
  effective.reserve(sets.size());
  for (const ResolvedConfigSet& resolution : sets) {
    effective.push_back(ConfigInput{resolution.name, resolution.effective.Serialize()});
  }
  // The batch sees only the flattened configs, so dedup across sets keys
  // on effective values exactly as it does for single files.
  BatchSummary summary = CheckConfigBatch(effective, options);
  for (size_t i = 0; i < summary.reports.size() && i < sets.size(); ++i) {
    ConfigReport& report = summary.reports[i];
    const ResolvedConfigSet& resolution = sets[i];
    if (!resolution.resolved()) {
      if (report.status.ok()) {
        ++summary.configs_with_errors;
      }
      std::string detail = resolution.errors.empty() ? std::string("no files resolved")
                                                     : resolution.errors.front().ToString();
      report.status =
          Status::InvalidArgument("config set '" + resolution.name + "' unresolvable: " + detail);
      continue;  // An empty effective config produced no violations to rewrite.
    }
    RewriteViolationsWithProvenance(resolution, analysis_.constraints, &report.violations);
  }
  return summary;
}

const std::vector<Misconfiguration>& Target::Misconfigurations() {
  std::lock_guard<std::mutex> lock(campaign_mutex_);
  if (!misconfigs_ready_) {
    MisconfigGenerator generator;
    misconfigs_ = generator.Generate(analysis_.constraints);
    misconfigs_ready_ = true;
  }
  return misconfigs_;
}

CampaignSummary Target::RunCampaign(int num_threads) {
  // One campaign serves every width, so its snapshot cache and execution
  // contexts carry over between serial and parallel calls. No lock is
  // held across RunAll: other threads may call Misconfigurations() or
  // campaign_cache_stats() mid-campaign, and misconfigs_ never changes
  // once generated.
  InjectionCampaign* campaign = EnsureCampaign();
  const std::vector<Misconfiguration>& misconfigs = Misconfigurations();
  // Parallel campaigns run on the session's shared pool and wait only for
  // their own tasks.
  ThreadPool* pool = num_threads != 1 ? session_->worker_pool() : nullptr;
  return campaign->RunAll(template_config_, misconfigs, pool, ClaimerCount(num_threads, pool));
}

CampaignCacheStats Target::campaign_cache_stats() {
  std::lock_guard<std::mutex> lock(campaign_mutex_);
  return campaign_ != nullptr ? campaign_->cache_stats() : CampaignCacheStats{};
}

}  // namespace spex
