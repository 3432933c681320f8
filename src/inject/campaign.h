// SPEX-INJ injection campaign (paper Section 3.1).
//
// For each generated misconfiguration: build the config from the template,
// feed it to the target (parse -> init -> functional tests) inside the
// interpreter, and classify the reaction per Table 3. The two cost
// optimizations from the paper are implemented: shortest-test-first
// ordering and stop-at-first-failure.
//
// On top of those, RunAll amortizes the shared parse prefix: all
// misconfigurations of one delta key-set share the parse of every *other*
// template line, so the campaign snapshots interpreter + simulated-OS state
// after parsing the template minus the delta keys once, then each run
// restores the snapshot and replays only the delta settings. Every such
// run passes a dynamic hazard check — the delta parse's global reads and
// writes, log emission and OS traffic are intersected with the access map
// of the entries it was reordered across — and falls back to full replay
// on any conflict, when the delta parse terminates the run (a rejection
// must stop mid-file), or for order-sensitive key-sets flagged by the
// first-use verification against ground truth. Campaign results are
// therefore bit-identical to full replay for every thread count.
//
// The snapshot cache and the execution contexts are *campaign* state, not
// per-call state: a caller that runs RunAll repeatedly over the same
// template (ablation benches, a server embedding spex::Session) pays the
// key-set snapshot builds once and every later batch starts from the
// cached prefixes. Lifetime story: each snapshot holds pointers into the
// interned-string pool of the context that built it, so the contexts live
// as long as the campaign itself (they are only destroyed with the cache
// that points into them). The cache belongs to one template: the first
// RunAll or ReplayExternal that takes the snapshot path adopts its
// template, and the cache is never cleared — a later call with a
// different template replays every config by ground truth. Cross-batch
// safety matches within-batch safety: the per-run hazard check runs on
// every delta replay, and the first delta replay of a key-set in each
// batch (each RunAll) is re-verified against a ground-truth full replay,
// so results stay bit-identical to a full replay for every thread count.
// A thread count is a per-call argument, never campaign state: one
// campaign and its cache serve serial and parallel batches alike.
//
// RunAll and ReplayExternal are one replay engine: both replay each
// config through ReplayIndex, claimed through ForEachIndex, on contexts
// leased from one free list. RunAll adds its key-set plan; ReplayExternal
// adds the verdict store. Thread-safety: one campaign serves one RunAll
// at a time (concurrent calls queue on the campaign's own lock, nothing
// wider), and ReplayExternal may run from any number of threads,
// concurrently with each other and with RunAll, whatever template each
// call passes.
#ifndef SPEX_INJECT_CAMPAIGN_H_
#define SPEX_INJECT_CAMPAIGN_H_

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/confgen/config_file.h"
#include "src/core/constraints.h"
#include "src/inject/generator.h"
#include "src/inject/reaction.h"
#include "src/interp/interpreter.h"
#include "src/ir/ir.h"
#include "src/osim/os_simulator.h"
#include "src/support/cancellation.h"
#include "src/support/thread_pool.h"

namespace spex {

class VerdictStore;
struct StoredVerdict;

// One functional test of the SUT's driver surface. Tests run after a
// successful parse + init; a test passes when `function` returns
// `expected`. Campaigns may reorder tests by `cost_hint` (shortest first)
// — TestCase itself carries no state and is freely copyable.
struct TestCase {
  std::string name;
  std::string function;       // Target function; must return `expected` to pass.
  int64_t expected = 1;
  int64_t cost_hint = 1;      // Relative runtime, for shortest-first ordering.
};

// How the harness drives one target system. Immutable once handed to an
// InjectionCampaign (the campaign copies it); `param_storage` must name the
// global holding the *raw parsed value* of each parameter — the
// silent-violation check compares it against the user's written value, so a
// mapping to a derived/scaled global would misreport scale transforms.
struct SutSpec {
  std::string parse_function = "handle_config_line";  // (key, value) -> int, <0 = rejected.
  std::string init_function = "server_init";          // () -> int, <0 = failed startup.
  std::vector<TestCase> tests;
  // Parameter -> storage global (for effective-value and read checks).
  std::map<std::string, std::string> param_storage;
};

// One classified run: what the system observably did with `config`.
// Self-contained value type — `logs` and `detail` are copies, so a result
// outlives the campaign and the interpreter that produced it.
struct InjectionResult {
  Misconfiguration config;
  ReactionCategory category = ReactionCategory::kNoIssue;
  std::string detail;   // Trap reason, failing test, or effective value.
  std::vector<std::string> logs;
  bool pinpointed = false;
  int64_t tests_run = 0;
  SourceLoc vulnerability_loc;  // Where a fix would go (Table 5b accounting).
};

// Re-attributes a replayed result to another client's Misconfiguration
// without re-replaying: the observed behaviour (category, detail, logs,
// pinpointing, tests run) is copied verbatim; only the identity fields
// (`config`, `vulnerability_loc`) come from `client`. Valid only when
// `client` is execution-identical to `base.config` — same applied
// settings, numeric intent and ignore expectation — which is exactly what
// the batch checker's dedup key guarantees (see docs/api.md, "The dedup
// identity guarantee"). This is the fan-out half of classify-once-per-
// execution: N clients sharing one unique execution each get their own
// result from a single replay.
InjectionResult ReattributeResult(const InjectionResult& base, const Misconfiguration& client);

// Execution-identity key: two misconfigurations with equal keys replay
// identically, so one replay's verdict serves both (ReattributeResult).
// Captures exactly the replay-relevant fields — applied settings in order,
// numeric intent, ignore expectation — and none of the label-only ones
// (kind, rule, locations). The same key, scoped by a target fingerprint,
// indexes the persistent VerdictStore: execution identity across *time* is
// the same contract as execution identity across a batch.
std::string SuspectExecutionKey(const Misconfiguration& config);

// Batch result of one RunAll. Plain value type; the accessor methods are
// pure reads and safe to call from any thread once the summary is built.
struct CampaignSummary {
  std::vector<InjectionResult> results;

  size_t CountCategory(ReactionCategory category) const;
  // All category tallies in one pass over the results, indexed by
  // static_cast<size_t>(ReactionCategory). Bench tables should call this
  // once instead of re-scanning per CountCategory call.
  std::array<size_t, kReactionCategoryCount> CategoryCounts() const;
  size_t TotalVulnerabilities() const;
  // Unique source-code locations behind the vulnerabilities (Table 5b).
  size_t UniqueVulnerabilityLocations() const;
  int64_t total_tests_run = 0;
};

// What a campaign is for its whole life. Fan-out width is not among
// these: it is a per-call argument of RunAll and ReplayExternal, so one
// campaign (and its snapshot cache) serves every thread count.
struct CampaignOptions {
  // The paper's two test-scheduling optimizations. They change
  // tests_run (and, for stop_at_first_failure, which failure a run
  // reports), so a verdict store scopes its records by them.
  bool stop_at_first_failure = true;
  bool sort_tests_by_cost = true;
};

// Cumulative counters over a campaign's lifetime (all RunAll / RunOne /
// ReplayExternal calls); the observable that proves a repeated campaign —
// or a warm dynamic config check — skipped snapshot rebuilds. Reading them
// mid-campaign is safe (atomics underneath) but yields an in-flight total.
struct CampaignCacheStats {
  size_t snapshots_built = 0;   // Prefix snapshots constructed (~1 full replay each).
  size_t delta_replays = 0;     // Runs served by snapshot restore + delta parse.
  size_t full_replays = 0;      // Ground-truth replays (incl. verification runs).
  size_t verifications = 0;     // Ground-truth comparisons: one per key-set per RunAll batch.
  size_t store_hits = 0;        // Replays served from the persistent store.
  size_t store_misses = 0;      // Store consulted, no record: replayed live.
  size_t store_appends = 0;     // Fresh verdicts persisted to the store.
};

// Per-call accounting for one ReplayExternal against the attached
// VerdictStore (zeros when no store is attached).
struct ReplayStats {
  size_t store_hits = 0;        // Served straight from the store, no replay.
  size_t store_misses = 0;      // Looked up, absent: replayed + appended.
  size_t store_appends = 0;     // Records durably appended this call.
};

// Per-request guardrails for ReplayExternal — how a *service* keeps one
// slow config from sinking the process. `cancel` is the request-wide kill
// switch (borrowed; may be null): once it fires, replays not yet started
// are skipped outright and the one in flight is cancelled at the next
// interpreter poll. `per_replay_deadline` budgets each replay separately
// (0 = unlimited) via a child token parented to `cancel`, so one
// pathological config burns its own budget, not the batch's. Cancelled
// runs classify as ReactionCategory::kDeadlineExceeded — a verdict about
// the *checker's* time, never conflated with the target hanging — and are
// excluded from snapshot-cache verification bookkeeping, so a cancelled
// batch leaves the cache exactly as it found it.
struct ReplayLimits {
  const CancelToken* cancel = nullptr;
  std::chrono::nanoseconds per_replay_deadline{0};

  bool active() const {
    return cancel != nullptr || per_replay_deadline.count() > 0;
  }
};

class InjectionCampaign {
 public:
  // `os_template` is copied for every run so injected damage (occupied
  // ports, allocations) never leaks across runs.
  InjectionCampaign(const Module& module, const SutSpec& sut, OsSimulator os_template,
                    CampaignOptions options = {});

  // Sanity check: the unmodified template must start and pass all tests.
  // Driver-thread only (shares no state with in-flight replays).
  bool BaselinePasses(const ConfigFile& template_config);

  // Single-shot ground-truth run (never snapshots: a prefix snapshot would
  // cost exactly what it saves).
  InjectionResult RunOne(const ConfigFile& template_config, const Misconfiguration& config);
  // Runs the whole batch. Concurrent calls on one campaign run one after
  // another. Fan-out is ReplayExternal's: with a `pool` and `workers` > 1
  // the configs are claimed by up to `workers` threads, the calling one
  // included (it must not be a task of `pool`); otherwise the batch runs
  // serially on the calling thread. Results are written into pre-sized
  // slots, so order, categories and totals are identical either way.
  CampaignSummary RunAll(const ConfigFile& template_config,
                         const std::vector<Misconfiguration>& configs,
                         ThreadPool* pool = nullptr, size_t workers = 1);

  // Replays externally supplied misconfigurations — the suspect settings of
  // a *user's* config, not generator output — through the campaign's
  // persistent snapshot cache, and classifies each reaction per Table 3.
  // This is the engine behind the dynamic ConfigChecker: a key-set whose
  // prefix snapshot an earlier RunAll (or earlier check) already built is
  // served by restore + delta parse; everything else takes the ground-truth
  // full-replay path, and the per-run hazard check plus first-use
  // verification keep every verdict bit-identical to a full replay.
  // `use_parse_snapshot = false` forces ground truth for every run (the
  // reference the snapshot-path tests diff against); the snapshot path is
  // also skipped when the cache belongs to another template.
  //
  // How often a key-set is verified: only RunAll starts a new batch, and
  // a key-set's first delta replay in each batch is compared with a full
  // replay. ReplayExternal never starts a batch, so in a process that
  // never runs a campaign (spexcheck, spexcheckd) each key-set is verified
  // once, on its first delta replay, and every later replay of it rests
  // on the per-run hazard check alone.
  //
  // Thread-safety: ReplayExternal may be called from any number of threads
  // concurrently (each replay runs on its own leased context; the snapshot
  // cache is internally synchronized), and concurrently with RunAll, with
  // any template: nothing ever clears the cache. With a `pool` and
  // `workers` > 1 the configs are claimed by up to `workers` threads, the
  // calling one included (it must not be a task of `pool`); otherwise the
  // call runs on the calling thread. Results are identical either way.
  //
  // `limits` (see ReplayLimits) bounds each replay: the token is checked
  // before every replay and polled inside the interpreter, so a
  // fired request token converts the remaining slots to kDeadlineExceeded
  // results within one poll interval. `limits.cancel` must outlive the
  // call; cancellation may race the call from any thread.
  // With an attached VerdictStore (AttachVerdictStore), each config's
  // execution key is looked up in the store's scope for this campaign
  // before replaying: a hit synthesizes the result from the stored record
  // (bit-identical to a replay — the stored fields are exactly the ones
  // ReattributeResult copies); a miss replays live and the fresh verdict
  // is appended afterwards, in one batched append per call
  // (kDeadlineExceeded verdicts are never stored: they describe the
  // checker's budget, not the target). `stats`, when non-null, receives
  // this call's store accounting.
  std::vector<InjectionResult> ReplayExternal(const ConfigFile& template_config,
                                              const std::vector<Misconfiguration>& configs,
                                              bool use_parse_snapshot = true,
                                              const ReplayLimits& limits = {},
                                              ReplayStats* stats = nullptr,
                                              ThreadPool* pool = nullptr, size_t workers = 1);

  // Attaches (or replaces: pass nullptr to detach) the persistent verdict
  // store consulted by ReplayExternal. `scope` must fold in every input
  // that could change a verdict besides the template itself — target
  // source, annotations, SUT spec, campaign knobs — because the store key
  // is (scope + template fingerprint, execution key). Thread-safe.
  void AttachVerdictStore(std::shared_ptr<VerdictStore> store, std::string scope);
  std::shared_ptr<VerdictStore> verdict_store() const;

  // Cumulative across every run this campaign executed. After a second
  // RunAll over the same template, snapshots_built stays flat — the point
  // of campaign-scoped caching.
  CampaignCacheStats cache_stats() const;

 private:
  struct RunOutcome {
    enum class Phase { kParse, kInit, kTest, kDone };
    Phase phase = Phase::kDone;
    CallOutcome::Status status = CallOutcome::Status::kOk;
    int64_t exit_code = 0;
    std::string detail;
    std::string failed_test;
    int64_t tests_run = 0;
    bool rejected = false;  // Parse/init returned an error code.
  };

  // Shared prefix snapshot for one delta key-set. `state` gates the
  // cross-worker handoff: the builder publishes with a release store, users
  // acquire-load before touching any other field. Workers that find the
  // entry still building simply take the full-replay path instead of
  // waiting. kUnusable is sticky: the only transition out of kReady is a
  // compare-exchange to kVerified, so one worker proving the key-set
  // order-sensitive can never be overruled by another's passing check.
  struct SnapshotEntry {
    enum State : int { kBuilding = 0, kReady = 1, kVerified = 2, kUnusable = 3 };
    std::atomic<int> state{kBuilding};
    // Batch id of the last successful ground-truth verification. Each new
    // batch re-verifies the key-set's first delta replay, so a persistent
    // cache gives later batches exactly the first-use guarantee a fresh
    // cache would (a value-dependent divergence surfacing only in batch N
    // is caught in batch N).
    std::atomic<uint64_t> verified_batch{0};
    // The snapshot's stamp maps double as the build-time access map: per
    // global slot, (template position + 1) of the last non-delta entry
    // whose parse read/wrote it (0 = none). The per-run hazard check
    // proves a reordered delta parse equivalent by intersecting them with
    // the delta's own dynamic read/write sets.
    Interpreter::Snapshot interp;
    OsSimulator os;
    int32_t max_log_pos = -1;    // Highest position whose parse logged, -1 = none.
    int32_t max_os_pos = -1;     // Highest position with OS traffic, -1 = none.
    int32_t max_stale_pos = -1;  // Highest position touching escaped locals.
  };
  // Campaign-lifetime snapshot cache (snapshots hold pointers into the
  // builder worker's string pool; the worker contexts are campaign members
  // too, so the pointers stay valid for the cache's whole life). Never
  // cleared: it serves the first template a snapshot-path call adopted.
  struct SnapshotCache {
    std::mutex mutex;
    std::unordered_map<std::string, std::unique_ptr<SnapshotEntry>> entries;
    // Serialized template the entries are built from; unset until adopted.
    std::optional<std::string> template_fingerprint;
  };
  // One leased execution context; persists across calls so the string
  // pool backing published snapshots stays alive and later calls skip
  // interpreter construction.
  struct WorkerContext {
    OsSimulator os;
    Interpreter interp;
    WorkerContext(const Module& module, const OsSimulator& os_template)
        : os(os_template), interp(module, &os) {}
  };

  // Resets `interp` / `os` to the template state, runs one misconfiguration
  // and classifies the reaction. `keyset` is the precomputed key-set id of
  // `config` (null = always full replay; RunAll's plan only passes it for
  // key-sets worth snapshotting). `cancel` (null = unlimited) is polled by the
  // interpreter while *this run's* phases execute — never during prefix
  // snapshot builds, which are template-only work shared across requests
  // and already bounded by Interpreter::kMaxSteps. Thread-safe: only touches the
  // interpreter and simulator owned by the calling worker, plus the
  // state-gated shared snapshot cache.
  InjectionResult RunOneWith(Interpreter& interp, OsSimulator& os,
                             const std::string* keyset, const ConfigFile& template_config,
                             const Misconfiguration& config,
                             const CancelToken* cancel = nullptr) const;
  // Ground-truth path: fresh template state, parse everything in file order.
  InjectionResult FullReplay(Interpreter& interp, OsSimulator& os, const ConfigFile& applied,
                             const Misconfiguration& config,
                             const CancelToken* cancel = nullptr) const;
  // Snapshot path; nullopt = caller must run FullReplay (cache entry still
  // building, key-set order-sensitive, or the delta parse ended the run).
  std::optional<InjectionResult> TryDeltaReplay(Interpreter& interp, OsSimulator& os,
                                                const std::string& keyset,
                                                const ConfigFile& template_config,
                                                const ConfigFile& applied,
                                                const Misconfiguration& config,
                                                const std::vector<std::string>& delta_keys,
                                                const CancelToken* cancel) const;

  // Phase 1 over `config`'s settings; with `only_delta_keys`, parses just
  // those entries. (The snapshot builder's everything-but-the-delta loop
  // lives inline in TryDeltaReplay — it needs per-entry access stamps.)
  // Returns false when the run terminated during parse (outcome filled).
  bool ParsePhase(Interpreter& interp, const ConfigFile& config,
                  const std::vector<std::string>* only_delta_keys,
                  RunOutcome* outcome) const;
  // Phases 2 (init) and 3 (functional tests).
  void InitAndTestPhases(Interpreter& interp, RunOutcome* outcome) const;
  RunOutcome Execute(Interpreter& interp, const ConfigFile& config) const;
  // Table 3 classification from the outcome plus interpreter observables.
  InjectionResult Classify(Interpreter& interp, const RunOutcome& outcome,
                           const Misconfiguration& config, const ConfigFile& applied) const;
  bool LogsPinpoint(const std::vector<std::string>& logs, const Misconfiguration& config,
                    const ConfigFile& applied) const;

  // The single replay step: serves pass.configs[i] from the store or
  // replays it on a leased context, writing pass.results[i]. Any number of
  // indices of one pass may run concurrently.
  struct ReplayPass;
  void ReplayIndex(ReplayPass& pass, size_t i);
  // Looks config `i` up in the pass's verdict store; true when the stored
  // verdict was written to its slot and no replay is needed.
  bool ServeFromStore(ReplayPass& pass, size_t i) const;
  // The one template rule: true when the snapshot cache serves the
  // template serialized as `fingerprint`, adopting it if the cache has
  // none yet.
  bool CacheServes(const std::string& fingerprint);

  // Checked-out context for one replay; returns itself to the campaign's
  // free list on destruction. Contexts are campaign members because a
  // replay that builds a snapshot publishes pointers into its context's
  // string pool — the context must outlive the cache entry, i.e. live as
  // long as the campaign.
  class ProbeLease {
   public:
    explicit ProbeLease(InjectionCampaign* campaign);
    ~ProbeLease();
    ProbeLease(const ProbeLease&) = delete;
    ProbeLease& operator=(const ProbeLease&) = delete;
    WorkerContext& context() { return *context_; }

   private:
    InjectionCampaign* campaign_;
    std::unique_ptr<WorkerContext> context_;
  };

  const Module& module_;
  SutSpec sut_;
  OsSimulator os_template_;
  CampaignOptions options_;

  // Campaign-lifetime execution state. Declaration order matters for
  // destruction: cache_ (pointers into context pools) is declared after
  // the contexts so it is destroyed first. probe_contexts_ is the free
  // list of idle contexts (guarded by probe_mutex_); it never shrinks, so
  // repeated campaigns and checks skip interpreter construction.
  std::mutex probe_mutex_;
  std::vector<std::unique_ptr<WorkerContext>> probe_contexts_;
  mutable SnapshotCache cache_;
  std::mutex run_all_mutex_;  // One RunAll at a time.
  // Incremented per RunAll; batch 0 is RunOne/Baseline/ReplayExternal-only
  // territory. Atomic because external replays read it (for the once-per-
  // batch re-verification bookkeeping) concurrently with RunAll bumping it.
  std::atomic<uint64_t> batch_id_{0};

  // Persistent verdict store (optional; store_mutex_ guards the pair —
  // lookups inside the store itself are lock-free).
  mutable std::mutex store_mutex_;
  std::shared_ptr<VerdictStore> store_;
  std::string store_scope_;

  // Cumulative cache statistics (atomics: bumped from worker threads).
  mutable std::atomic<size_t> stat_snapshots_built_{0};
  mutable std::atomic<size_t> stat_delta_replays_{0};
  mutable std::atomic<size_t> stat_full_replays_{0};
  mutable std::atomic<size_t> stat_verifications_{0};
  mutable std::atomic<size_t> stat_store_hits_{0};
  mutable std::atomic<size_t> stat_store_misses_{0};
  mutable std::atomic<size_t> stat_store_appends_{0};
};

}  // namespace spex

#endif  // SPEX_INJECT_CAMPAIGN_H_
