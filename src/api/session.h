// spex::Session — the stable embeddable API over the whole pipeline.
//
// The paper's tool is meant to live *inside* a vendor's process: infer
// constraints once, then check every user config (and re-run injection
// campaigns) for as long as the service is up. Every consumer used to
// hand-wire parse -> lower -> annotate -> SpexEngine::Run -> RunCampaign;
// Session owns that wiring plus the long-lived resources none of the
// one-shot entry points could: the ApiRegistry, the DiagnosticEngine and
// the shared campaign worker pool.
//
//   spex::Session session;
//   spex::Target* target = session.LoadTarget("squid");          // or LoadSource(...)
//   const spex::ModuleConstraints& c = target->InferConstraints();
//   for (const spex::Violation& v : target->CheckConfig(user_conf, "user.conf"))
//     std::cerr << v.ToString() << "\n";                          // pre-flight checker
//   spex::CheckOptions dynamic{spex::CheckMode::kDynamic};       // observed reactions
//   for (const spex::Violation& v : target->CheckConfig(user_conf, "user.conf", dynamic))
//     std::cerr << v.ToString() << "\n";   // "... | observed: silent violation — ..."
//   spex::CampaignSummary s = target->RunCampaign();              // SPEX-INJ
//
// Thread-safety: a loaded Target's analysis is immutable, so any number of
// threads may call InferConstraints()/CheckConfig() on the same Target (or
// different Targets) concurrently — in *either* check mode: static checks
// are pure reads, and dynamic checks replay on campaign-owned leased
// contexts over an internally synchronized snapshot cache. LoadSource()/
// LoadTarget()/ok()/RenderDiagnostics() are internally synchronized.
// Parallel work (campaigns, batches, matrices and corpus runs) shares the
// session's worker pool (the only ThreadPool the library creates), and
// each call waits only for its own tasks, so calls on different targets
// run concurrently. Concurrent RunCampaign calls on one target run one
// after another.
#ifndef SPEX_API_SESSION_H_
#define SPEX_API_SESSION_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/batch_check.h"
#include "src/api/config_checker.h"
#include "src/api/config_set.h"
#include "src/corpus/pipeline.h"
#include "src/matrix/matrix_check.h"
#include "src/support/thread_pool.h"

namespace spex {

class Target;

struct SessionOptions {
  // Constraint-inference knobs (confidence threshold etc.).
  SpexOptions engine;
  // Width of the worker pool shared by every parallel call this session
  // runs (campaigns, batches, matrices, corpus runs): 0 = hardware
  // concurrency. A call's own `num_threads` of 0 means this full width.
  // The pool is created lazily on the first parallel call.
  size_t campaign_threads = 0;
};

class Session {
 public:
  explicit Session(SessionOptions options = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Loads a target from MiniC source plus mapping annotations. `sut` and
  // `template_config` may be left empty when only InferConstraints()/
  // CheckConfig() are needed; RunCampaign additionally requires both (the
  // SUT's driver functions and the baseline config every injection mutates
  // — without a template, campaigns would run against an empty config).
  // Returns null and records diagnostics on parse/lowering errors; on
  // success the Target is owned by the session and the pointer is stable
  // for its lifetime.
  Target* LoadSource(std::string_view source, std::string_view annotations,
                     std::string_view name = "target.c",
                     ConfigDialect dialect = ConfigDialect::kKeyEqualsValue, SutSpec sut = {},
                     std::string_view template_config = {});

  // Loads one of the synthesized corpus targets ("mysql", "squid", ...).
  Target* LoadTarget(const std::string& name);

  // Version-matrix checking: every config in `configs` checked against
  // every version in `versions` ("which upgrade breaks whose config").
  // Each version loads as a session-owned Target (corpus name or
  // LoadSource triple — src/matrix/version_set.h) and its column runs as
  // one CheckConfigBatch, so every cell is bit-identical to an
  // independent fleet check of that version and each column keeps the
  // batch layer's cross-config dedup. Adjacent checked columns are
  // diffed into per-config regression/fix/changed-reaction/stable
  // transitions (src/matrix/matrix_diff.h). With options.store attached,
  // every version gets its own store scope automatically, so a warm
  // matrix refresh after one version bump replays only the bumped
  // column. Version load failures are contained per column; `observer`
  // streams cells/columns/transitions on the calling thread.
  //
  // Thread-safety follows CheckConfigBatch: safe concurrently with any
  // other call; sharded columns share the session pool.
  MatrixSummary CheckMatrix(std::span<const TargetVersion> versions,
                            std::span<const ConfigInput> configs,
                            const MatrixOptions& options = {},
                            MatrixObserver* observer = nullptr);

  // Sharded corpus regeneration through the session's registry and engine
  // options: one analysis + fresh campaign per target name. Fan-out
  // follows BatchOptions::num_threads: 1 = serial, 0 = the session pool at
  // its full width, N = N claimers. Targets are claimed on the session
  // pool and each inner campaign runs serially, so the call may run
  // concurrently with any other call (but not from a pool task).
  std::vector<CorpusCampaignResult> RunCorpusCampaigns(
      const std::vector<std::string>& target_names, CampaignOptions options = {},
      int num_threads = 0);

  const ApiRegistry& apis() const { return apis_; }
  const SessionOptions& options() const { return options_; }
  // Diagnostics accumulate across loads for reporting, but failure is per
  // load: a bad source returns nullptr from its own Load* call without
  // poisoning later loads. ok() is cumulative ("did any load fail").
  bool ok() const;
  std::string RenderDiagnostics() const;

  // The shared campaign pool (created on first use). Exposed for embedders
  // that want to run their own fan-outs on session-owned threads, through
  // a ThreadPool::TaskGroup or ForEachIndex.
  ThreadPool* worker_pool();

 private:
  friend class Target;

  SessionOptions options_;
  ApiRegistry apis_;
  DiagnosticEngine diags_;
  // Guards diags_, targets_ growth and pool creation (mutable: the const
  // diagnostic accessors lock it too).
  mutable std::mutex mutex_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Target>> targets_;
};

// A loaded-and-analyzed system: constraints plus everything needed to
// check configs and run injection campaigns against it. Owned by (and
// never outliving) its Session.
class Target {
 public:
  const std::string& name() const { return analysis_.bundle.name; }
  ConfigDialect dialect() const { return analysis_.bundle.dialect; }
  // Full analysis access for table/bench consumers (bundle, engine, manual).
  const TargetAnalysis& analysis() const { return analysis_; }

  // The inferred constraint set (computed at load; immutable afterwards).
  const ModuleConstraints& InferConstraints() const { return analysis_.constraints; }

  // The paper's user-facing checker: flag type, range, unit, case and
  // control-dependency violations in a concrete config file, each with the
  // offending file:line and the source location of the constraint. Pure
  // read — safe from any number of threads concurrently.
  std::vector<Violation> CheckConfig(std::string_view config_text,
                                     std::string_view file_name = "config") const;

  // Mode-selecting overload. CheckMode::kStatic behaves exactly like the
  // two-argument form; CheckMode::kDynamic additionally replays the
  // settings that deviate from the target's template through the
  // interpreter + simulated OS — restoring the injection campaign's
  // per-key-set prefix snapshots where available — and attaches the
  // observed Table-3 reaction, log evidence and a "what the system will
  // do" prediction to each Violation (plus kDynamicReaction findings for
  // vulnerabilities the static pass cannot see). Dynamic verdicts are
  // bit-identical to a ground-truth full replay: the campaign's per-run
  // hazard check and first-use verification gate every snapshot shortcut.
  //
  // Dynamic checks share the target's one campaign, so a check after
  // RunCampaign() (or after an earlier check of the same keys) replays
  // from warm snapshots without building new ones; whichever call comes
  // first creates the campaign, with default CampaignOptions. Targets
  // loaded without a template or without a SUT driver surface (parse/init
  // functions) silently degrade to the static result — there is nothing to
  // replay against. Safe from any number of threads concurrently (on one
  // shared Target or across Targets), and concurrently with RunCampaign().
  //
  // Deliberately non-const (even in kStatic mode): dynamic mode
  // materializes the target's persistent campaign, the same mutation
  // RunCampaign performs. Callers holding a const Target* use the
  // two-argument overload — the static check is the only mode a const
  // handle can express.
  std::vector<Violation> CheckConfig(std::string_view config_text, std::string_view file_name,
                                     const CheckOptions& options);

  // Fleet checking: checks every config in `configs` against this target
  // in one pass. Per config this is exactly CheckConfig(text, name,
  // options.check) — same violations, same observed reactions, bit-
  // identical at every options.num_threads — except for text that fails
  // ValidateConfigText (a key=value line with no '=' or an empty key),
  // which the batch rejects as kInvalidArgument where CheckConfig parses
  // it leniently (src/api/batch_check.h, ConfigReport). Suspects are
  // deduplicated *across* configs by execution identity, so each unique
  // user mistake replays once and its Table-3 verdict fans out to every
  // config that contributed it (BatchSummary::unique_replays vs.
  // total_suspects; see src/api/batch_check.h for the identity
  // guarantee). Every per-config report is in the returned summary, in
  // batch order.
  //
  // Thread-safety: any number of batches may run concurrently, with each
  // other and with RunCampaign, like dynamic CheckConfig. Parallel batches
  // (num_threads != 1) fan out on the session worker pool and wait only
  // for their own tasks.
  BatchSummary CheckConfigBatch(std::span<const ConfigInput> configs,
                                const BatchOptions& options = {});

  // Multi-file fleet checking: each ConfigSetInput is an include tree
  // (files[0] the root) that is resolved to its flattened effective
  // config (src/api/config_set.h) and then checked through
  // CheckConfigBatch — so a suspect's execution identity is the
  // *effective* value, and two sets differing only in include structure
  // deduplicate to the same replay. Per set the result is bit-identical
  // to checking the serialized effective config as a single file (same
  // violations, verdicts and counters, at every options.num_threads),
  // except that each violation's file/line point at the *winning*
  // assignment's origin and `override_note` records what it shadowed.
  // Resolution faults (missing includes, cycles, the kMaxIncludeDepth and
  // kMaxIncludeFiles caps) are contained per set: they land on the set's
  // ResolvedConfigSet (written to `resolutions` when non-null, batch
  // order) and checking continues
  // with the partial effective config; only a set whose root cannot be
  // loaded carries kInvalidArgument in its report. Thread-safety matches
  // CheckConfigBatch.
  BatchSummary CheckConfigSet(std::span<const ConfigSetInput> sets,
                              const BatchOptions& options = {},
                              std::vector<ResolvedConfigSet>* resolutions = nullptr);

  // As CheckConfigSet, but over sets the caller already resolved (e.g.
  // spexcheck's --include-roots, which resolves against the filesystem
  // rather than an in-memory file list). Same guarantees; the resolution
  // step is simply the caller's.
  BatchSummary CheckResolvedConfigSets(std::span<const ResolvedConfigSet> sets,
                                       const BatchOptions& options = {});

  // SPEX-INJ through the façade: generates misconfigurations from the
  // inferred constraints (once, cached) and runs them through the
  // target's one campaign, which always has the default (paper) options.
  // The campaign persists across calls at every width, so repeated
  // campaigns — serial or parallel — reuse prefix snapshots instead of
  // rebuilding them; `observer` streams per-run results. `num_threads`
  // follows BatchOptions::num_threads (1 = serial, 0 = the session pool
  // at its full width, N = N claimers); results are identical for every
  // value. Concurrent calls on one target run one after another, calls on
  // different targets run concurrently. To vary the scheduling knobs,
  // drive an InjectionCampaign directly.
  CampaignSummary RunCampaign(CampaignObserver* observer = nullptr, int num_threads = 1);

  // Cache counters of the target's campaign (zeros until the first
  // RunCampaign or dynamic check creates it) — lets embedders verify
  // snapshot reuse across batches.
  CampaignCacheStats campaign_cache_stats();

  // Attaches a persistent cross-run verdict store (src/support/
  // verdict_store.h): dynamic checks and batches consult it before
  // replaying and append fresh verdicts after, so a re-check of an
  // unchanged fleet replays only never-before-seen executions. The store
  // is scoped by a fingerprint of everything that could change a verdict
  // — target source, annotations, SUT spec, template, the paper's two
  // scheduling knobs and the interpreter's step and call-depth budgets — so
  // an edited target lands in a fresh scope and re-checks cold; stale
  // verdicts are structurally unreachable. Pass nullptr to detach.
  // Thread-safe; takes effect for checks that start after the call.
  void AttachVerdictStore(std::shared_ptr<VerdictStore> store);
  std::shared_ptr<VerdictStore> verdict_store();

  // The generated misconfiguration batch (MisconfigGenerator order, so a
  // campaign over it matches a directly driven InjectionCampaign).
  const std::vector<Misconfiguration>& Misconfigurations();

 private:
  friend class Session;

  Target(Session* session, TargetAnalysis analysis);
  // The target's campaign, created with default options on first use and
  // never replaced, so the pointer stays valid for the Target's lifetime.
  InjectionCampaign* EnsureCampaign();
  // True when the target can be driven dynamically: a non-empty template
  // plus a module that defines the SUT's parse and init functions.
  bool SupportsDynamicCheck() const;
  // The verdict-store scope for this target — every verdict-affecting
  // input folded into one string.
  std::string StoreScope() const;

  Session* session_;
  TargetAnalysis analysis_;
  ConfigFile template_config_;

  std::mutex campaign_mutex_;  // Guards the members below.
  bool misconfigs_ready_ = false;
  std::vector<Misconfiguration> misconfigs_;
  std::unique_ptr<InjectionCampaign> campaign_;
  std::shared_ptr<VerdictStore> verdict_store_;
};

}  // namespace spex

#endif  // SPEX_API_SESSION_H_
