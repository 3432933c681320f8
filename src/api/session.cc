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
    const std::vector<std::string>& target_names, CampaignOptions options,
    size_t num_workers) {
  // Capped at SessionOptions::campaign_threads unless the caller asks for
  // a specific worker count. The corpus fans out on a pool of its own: a
  // caller may point the inner campaigns at the session pool
  // (options.worker_pool), and a pool task must never wait on its own pool.
  if (num_workers == 0) {
    num_workers = options_.campaign_threads;
  }
  return spex::RunCorpusCampaigns(target_names, apis_, options, num_workers,
                                  options_.engine);
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

std::shared_ptr<InjectionCampaign> Target::EnsureCampaign() {
  std::lock_guard<std::mutex> lock(campaign_mutex_);
  if (campaign_ == nullptr) {
    // First dynamic check before any RunCampaign: default options, so a
    // later default RunCampaign reuses this campaign (and its snapshots).
    campaign_ = std::make_shared<InjectionCampaign>(*analysis_.module, analysis_.bundle.sut,
                                                    OsSimulator::StandardEnvironment(),
                                                    campaign_options_);
    if (verdict_store_ != nullptr) {
      campaign_->AttachVerdictStore(verdict_store_, StoreScopeLocked());
    }
  }
  return campaign_;
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

std::string Target::StoreScopeLocked() const {
  // Everything that could change a replay's verdict besides the template
  // (the campaign folds the template in per call) — a change to any of
  // these lands stored verdicts in a fresh scope, so they re-check cold.
  // Deliberately absent: num_threads, use_parse_snapshot, worker_pool —
  // the bit-identity machinery guarantees verdicts do not depend on them.
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
  scope += campaign_options_.stop_at_first_failure ? '1' : '0';
  scope += campaign_options_.sort_tests_by_cost ? '1' : '0';
  scope += std::to_string(campaign_options_.interp.max_steps);
  scope += ',';
  scope += std::to_string(campaign_options_.interp.max_call_depth);
  return scope;
}

void Target::AttachVerdictStore(std::shared_ptr<VerdictStore> store) {
  std::lock_guard<std::mutex> lock(campaign_mutex_);
  verdict_store_ = std::move(store);
  if (campaign_ != nullptr) {
    campaign_->AttachVerdictStore(verdict_store_, StoreScopeLocked());
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
  // The shared_ptr keeps the campaign (and the leased context + snapshot
  // pools the replay touches) alive even if another thread swaps the
  // target's campaign for one with different options mid-check.
  std::shared_ptr<InjectionCampaign> campaign = EnsureCampaign();
  ReplayLimits limits;
  limits.cancel = options.cancel;
  limits.per_replay_deadline = options.deadline;
  std::vector<InjectionResult> results = campaign->ReplayExternal(
      template_config_, suspects, options.use_parse_snapshot, limits);
  AttachReactions(suspects, results, config, file_name, &violations);
  return violations;
}

BatchSummary Target::CheckConfigBatch(std::span<const ConfigInput> configs,
                                      const BatchOptions& options, BatchObserver* observer) {
  // Dynamic batches share the target's persistent campaign (and its
  // snapshot cache) with single checks and RunCampaign; targets that
  // cannot be driven dynamically degrade to the static result per config,
  // exactly like CheckConfig.
  const bool dynamic = options.check.mode == CheckMode::kDynamic && SupportsDynamicCheck();
  std::shared_ptr<InjectionCampaign> campaign;
  if (dynamic) {
    campaign = EnsureCampaign();
  }
  // Sharded batches fan out on the session pool and wait only for their
  // own tasks, so they run alongside campaigns and other batches.
  ThreadPool* pool = options.num_threads != 1 ? session_->worker_pool() : nullptr;
  return RunBatchCheck(analysis_.constraints, template_config_, dialect(), campaign.get(), pool,
                       configs, options, observer);
}

BatchSummary Target::CheckConfigSet(std::span<const ConfigSetInput> sets,
                                    const BatchOptions& options, BatchObserver* observer,
                                    std::vector<ResolvedConfigSet>* resolutions,
                                    const ConfigSetOptions& set_options) {
  std::vector<ResolvedConfigSet> local;
  std::vector<ResolvedConfigSet>& resolved = resolutions != nullptr ? *resolutions : local;
  resolved.clear();
  resolved.reserve(sets.size());
  for (const ConfigSetInput& set : sets) {
    ResolvedConfigSet resolution = ResolveConfigSet(set.files, dialect(), set_options);
    if (!set.name.empty()) {
      resolution.name = set.name;
    }
    resolved.push_back(std::move(resolution));
  }
  return CheckResolvedConfigSets(resolved, options, observer);
}

BatchSummary Target::CheckResolvedConfigSets(std::span<const ResolvedConfigSet> sets,
                                             const BatchOptions& options,
                                             BatchObserver* observer) {
  std::vector<ConfigInput> effective;
  effective.reserve(sets.size());
  for (const ResolvedConfigSet& resolution : sets) {
    effective.push_back(ConfigInput{resolution.name, resolution.effective.Serialize()});
  }
  // The batch sees only the flattened configs, so dedup across sets keys
  // on effective values exactly as it does for single files. The observer
  // is withheld here and replayed below: reports stream only after their
  // violations have been re-addressed to winning-assignment origins.
  BatchSummary summary = CheckConfigBatch(effective, options, nullptr);
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
  if (observer != nullptr) {
    observer->OnBatchBegin(summary.reports.size());
    for (const ConfigReport& report : summary.reports) {
      observer->OnConfigChecked(report.index, report);
    }
    observer->OnBatchEnd(summary);
  }
  return summary;
}

const std::vector<Misconfiguration>& Target::MisconfigsLocked() {
  if (!misconfigs_ready_) {
    MisconfigGenerator generator;
    misconfigs_ = generator.Generate(analysis_.constraints);
    misconfigs_ready_ = true;
  }
  return misconfigs_;
}

const std::vector<Misconfiguration>& Target::Misconfigurations() {
  std::lock_guard<std::mutex> lock(campaign_mutex_);
  return MisconfigsLocked();
}

CampaignSummary Target::RunCampaign(CampaignOptions options, CampaignObserver* observer) {
  // Parallel campaigns run on the session's shared pool and wait only for
  // their own tasks; everything else about the campaign (snapshot cache,
  // execution contexts) is per-target state that persists across calls so
  // later batches reuse the cached prefixes.
  if (options.num_threads != 1) {
    options.worker_pool = session_->worker_pool();
  }
  std::shared_ptr<InjectionCampaign> campaign;
  {
    // campaign_mutex_ is released before RunAll so observer callbacks (and
    // other threads) may call Misconfigurations()/campaign_cache_stats()
    // mid-campaign without deadlocking. The shared_ptr keeps the campaign
    // alive if a concurrent call swaps it; misconfigs_ never changes once
    // generated.
    std::lock_guard<std::mutex> lock(campaign_mutex_);
    MisconfigsLocked();
    if (campaign_ == nullptr || !campaign_options_.SameBehavior(options)) {
      // Swapping options discards the old campaign's snapshot cache; a
      // dynamic check still replaying on it holds its own shared_ptr, so
      // the swap is safe (the old campaign dies with the last check).
      campaign_ = std::make_shared<InjectionCampaign>(
          *analysis_.module, analysis_.bundle.sut, OsSimulator::StandardEnvironment(),
          options);
      campaign_options_ = options;
      if (verdict_store_ != nullptr) {
        // Re-derive the scope: campaign knobs are part of it, so a
        // campaign with different behaviour reads/writes its own scope.
        campaign_->AttachVerdictStore(verdict_store_, StoreScopeLocked());
      }
    }
    campaign = campaign_;
  }
  return campaign->RunAll(template_config_, misconfigs_, observer);
}

CampaignCacheStats Target::campaign_cache_stats() {
  std::lock_guard<std::mutex> lock(campaign_mutex_);
  return campaign_ != nullptr ? campaign_->cache_stats() : CampaignCacheStats{};
}

}  // namespace spex
