// Dynamic configuration checking: replay a user's config through the
// interpreter and report what the system will *actually do* with it.
//
// The static ConfigChecker (config_checker.h) tells the user which inferred
// constraint a setting violates. The paper's end state goes further: the
// vendor ships the checker inside the product, so the user is told the
// observed consequence — "this value will be silently clamped to 65536",
// "the server will exit without mentioning this line" — in the Table-3
// reaction vocabulary the injection campaign already speaks. This header is
// the glue between the two worlds:
//
//   1. BuildDynamicSuspects diffs the user's config against the target's
//      template and turns each deviating setting into a replayable
//      Misconfiguration (replayed in isolation plus its cross-parameter
//      partners, so every verdict is attributable to its own setting).
//   2. InjectionCampaign::ReplayExternal replays the suspects from the
//      campaign's persistent snapshot cache (or ground truth).
//   3. AttachReactions folds the observed reactions back into the static
//      Violation list — and surfaces vulnerabilities the static pass could
//      not see as kDynamicReaction violations.
//
// Target::CheckConfig(text, file, CheckOptions{.mode = CheckMode::kDynamic})
// runs the whole loop; these functions are exposed for tests and for
// embedders that drive a campaign directly.
#ifndef SPEX_API_DYNAMIC_CHECK_H_
#define SPEX_API_DYNAMIC_CHECK_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/api/config_checker.h"
#include "src/inject/campaign.h"

namespace spex {

// Builds one replayable Misconfiguration per *suspect* setting of
// `config`: a setting whose value deviates from `template_config` (new key,
// or changed value). Each suspect replays in isolation on the template —
// per-setting attribution stays honest even when another setting in the
// same file crashes the system — except for its cross-parameter partners
// (a control-dep master, a value-rel peer), whose user values ride along
// in extra_settings because the finding only manifests with them applied.
// The resulting key-sets mirror the campaign generator's, so checks after
// RunCampaign replay from already-built snapshots. Deviations that exactly
// match one of the
// parameter's accepted enum words are replayed only when the static pass
// flagged them (a handler-mapped word like "json" -> 1 exercises the same
// path the template already proved; replaying it would only misread the
// mapping as a silent violation). Numeric intent (Misconfiguration::
// intended_numeric) is derived the way a user means the value: strict
// integers as-is, boolean words as 1/0, unit-suffixed values converted
// into the parameter's inferred unit (or the base unit when none was
// inferred) — that is what makes the silent-violation comparison honest.
// Pure function; safe to call concurrently.
std::vector<Misconfiguration> BuildDynamicSuspects(
    const ModuleConstraints& constraints, const ConfigFile& template_config,
    const ConfigFile& config, const std::vector<Violation>& static_violations);

// Folds observed reactions into the static violation list: every violation
// whose parameter matches a suspect gains the reaction/evidence/prediction
// fields, and a suspect with a vulnerability reaction but no static
// violation appends a new kDynamicReaction violation (line-addressed into
// `config`, which must be the user's parsed file). `results` must be
// parallel to `suspects` (ReplayExternal's contract). Re-sorts the list by
// line so dynamic-only findings land in file order.
void AttachReactions(const std::vector<Misconfiguration>& suspects,
                     const std::vector<InjectionResult>& results, const ConfigFile& config,
                     std::string_view file_name, std::vector<Violation>* violations);

}  // namespace spex

#endif  // SPEX_API_DYNAMIC_CHECK_H_
