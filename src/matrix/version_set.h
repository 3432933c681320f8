// Version sets for matrix checking: N versions of one target, each a
// session-owned spex::Target.
//
// The matrix checker answers "which upgrade breaks whose config", so its
// unit of comparison is a *version* — one concrete build of the target
// system. A TargetVersion names that build either as a synthesized corpus
// target ("squid") or as the same source/annotations/template triple an
// embedder would hand to Session::LoadSource. LoadVersionSet turns the
// whole list into loaded Targets in one sweep, with per-version failure
// containment: a version whose source does not parse carries its own
// error Status, and every other version still loads — the caller decides
// whether a partial matrix is worth having.
//
// Verdict-store scoping is automatic. Each version is its own Target: its
// store scope (Target::StoreScope in src/api/session.cc) folds its source,
// annotations and SUT spec, and its campaign folds the template in per
// call — so attaching one shared VerdictStore to every version gives each
// version its own scope for free. Re-checking a matrix after one version bump replays
// only the bumped version's column; every other column is served from
// disk. O(diff) across the whole matrix, not per fleet.
#ifndef SPEX_MATRIX_VERSION_SET_H_
#define SPEX_MATRIX_VERSION_SET_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/confgen/config_file.h"
#include "src/inject/campaign.h"
#include "src/support/status.h"

namespace spex {

class Session;
class Target;
class VerdictStore;

// One version of the target under test. Exactly one of `corpus` or
// `source` must be set: a non-empty `corpus` names a synthesized corpus
// target (its dialect/SUT/template come from the corpus spec and the
// remaining fields are ignored); otherwise `source`/`annotations`/
// `template_config` are the Session::LoadSource triple, with `sut`
// naming the driver functions (the LoadSource defaults — MiniC models
// using handle_config_line/server_init — work unchanged).
struct TargetVersion {
  // Display label for reports ("v1", "squid-5.9", ...). Empty labels are
  // resolved to the corpus name or "v<index>" at load.
  std::string label;

  std::string corpus;  // Corpus target name; wins when non-empty.

  std::string source;
  std::string annotations;
  std::string file_name = "target.c";  // Compile-unit name for diagnostics.
  ConfigDialect dialect = ConfigDialect::kKeyEqualsValue;
  SutSpec sut;
  std::string template_config;
};

// One loaded version: `target` is session-owned (stable for the session's
// lifetime, like every LoadSource result) and null iff `status` carries
// the load failure.
struct LoadedVersion {
  size_t index = 0;     // Position in the requested version list.
  std::string label;    // Resolved display label (never empty).
  Target* target = nullptr;
  Status status;
};

// Structural validation of one version spec, independent of any session:
// kInvalidArgument when neither (or both) of corpus/source are set, and
// kNotFound for a corpus name the spec table does not contain (the corpus
// layer aborts on unknown names; the matrix layer must not).
Status ValidateVersion(const TargetVersion& version);

// Loads every version into `session`, attaching `store` (may be null) to
// each loaded Target — one shared store handle, one scope per version.
// The result has exactly versions.size() entries, in order; failures are
// contained per entry.
std::vector<LoadedVersion> LoadVersionSet(Session& session,
                                          std::span<const TargetVersion> versions,
                                          std::shared_ptr<VerdictStore> store);

}  // namespace spex

#endif  // SPEX_MATRIX_VERSION_SET_H_
