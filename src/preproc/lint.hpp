// forcelint: a static construct-graph analyzer for Force programs.
//
// The paper's portability story assumes the machine-independent constructs
// are used *correctly* - misplaced barriers, shared writes outside
// critical sections, and broken Produce/Consume protocols are exactly the
// bugs the structured constructs were designed to prevent, yet forcepp
// translates them silently and the runtime Sentry (docs/VALIDATION.md)
// only catches them while executing. forcelint runs the same small set of
// statically recognizable shared-memory bug patterns (after McKenney) over
// the construct graph at translate time: deterministic,
// schedule-independent, no execution needed.
//
// Since PR 8 the analysis is interprocedural and whole-program: every
// routine gets a bottom-up effect summary (collectives executed, locks
// acquired, async full/empty transformers, shared writes - see
// EffectSummary in preproc/cgraph.hpp) computed to a fixpoint over the
// Forcecall graph across all provided translation units, with a sound
// "unknown" lattice top for recursion and unresolved Externf calls. The
// rules consume summaries at call sites instead of degrading to "anything
// can happen" at every Forcecall.
//
// Rules:
//   R1  collective construct (Barrier/End, DOALL, Pcase, Reduce, Join,
//       Askfor, Seedwork - or a Forcecall whose callee may execute one)
//       on a divergent control path (inside an if/else/switch region) -
//       barrier-divergence deadlock.
//   R2  write to a Shared variable outside every protection region
//       (barrier section, critical section, raw lock, Pcase section,
//       prescheduled-index partitioning).
//   R3  async full/empty protocol violations on straight-line paths:
//       Produce on a maybe-full cell, Consume/Copy with no reaching
//       Produce, double Void. Forcecalls apply the callee's async
//       transformer instead of clearing all knowledge.
//   R4  cycle in the static lock-order graph over named critical sections
//       and raw locks, including cross-routine edges (a callee's lock
//       acquired while the caller holds one) - the runtime Sentry's
//       inversion class at translate time (LockOrderGraph in
//       preproc/cgraph.hpp).
//   R5  loop-carried dependence heuristics in DOALL bodies: a write whose
//       subscript offsets the loop index, and scalar reductions that do
//       not use the Reduce statement.
//   R6  unreachable or duplicate statements after Join.
//   R7  process-model portability: a construct the targeted process model
//       rejects at run time (askfor payload types not provably
//       trivially copyable, Isfull under the cluster model).
//       Diagnostics fire for the --process-model being targeted;
//       the full per-model compatibility matrix is always computed and
//       exported by `forcepp --lint-report=<path>.json`.
//   W1  an `!force$ lint off` region left unclosed at end of file.
//
// Findings flow through DiagSink with a 1-based column, a caret snippet,
// a stable rule id ("force-lint-R2") and per-unit file provenance in
// whole-program mode. Suppress per region with
//   !force$ lint off(R2)        ... !force$ lint on(R2)
//   !force$ lint off            (all rules, until "on" or end of file)
#pragma once

#include <set>
#include <string>
#include <vector>

#include "preproc/cgraph.hpp"
#include "preproc/diag.hpp"

namespace force::preproc {

enum class LintRule { kR1, kR2, kR3, kR4, kR5, kR6, kR7 };

/// "force-lint-R1" ... "force-lint-R7".
const char* lint_rule_id(LintRule rule);

/// Rule id of the unclosed-suppression-region warning (not a selectable
/// rule: it guards the suppression machinery itself).
inline constexpr const char* kLintUnclosedSuppressionId = "force-lint-W1";

struct LintOptions {
  /// Enabled rules; defaults to all seven.
  std::set<LintRule> rules = {LintRule::kR1, LintRule::kR2, LintRule::kR3,
                              LintRule::kR4, LintRule::kR5, LintRule::kR6,
                              LintRule::kR7};
  /// Report findings as errors instead of warnings (`--lint=E`).
  bool findings_are_errors = false;
  /// The process model the program is being translated for: "" (the
  /// machine's thread-emulated model, which accepts every construct),
  /// "os-fork", or "cluster". R7 diagnostics fire only for this model;
  /// the compatibility matrix always covers every model.
  std::string target_process_model;
  /// Spec tokens that did not parse (reported as a note by run_forcelint).
  std::vector<std::string> unknown_tokens;
};

/// Parses a `--lint=` spec: a comma list of rule ids (R1..R7, case
/// insensitive) selecting a subset, plus `W` (findings are warnings, the
/// default) or `E` (findings are errors). "", "all" and "W" alone keep
/// every rule enabled.
LintOptions parse_lint_spec(const std::string& spec);

/// One translation unit of a whole-program lint run. `name` is used for
/// diagnostic file provenance and the report; units[0] is the primary
/// unit (its diagnostics render under the name forcepp was invoked with,
/// exactly as in single-unit mode).
struct LintUnit {
  std::string name;
  std::string source;
};

/// One construct a process model statically rejects.
struct ModelViolation {
  std::string model;      ///< "os-fork" | "cluster"
  std::string construct;  ///< "Pcase", "Askfor payload", "Isfull"
  std::string file;       ///< "" = primary unit
  int line = 0;
  std::string reason;
};

/// The process models the compatibility matrix covers. "thread" is every
/// machine's default emulated model and accepts all constructs; "os-fork"
/// is the real fork(2) backend (docs/PORTING.md); "cluster" is the
/// ROADMAP's planned no-shared-mapping model, which inherits every
/// os-fork narrowing rule and additionally rejects Isfull.
const std::vector<std::string>& lint_process_models();

struct LintResult {
  std::size_t findings = 0;
  /// The static lock-order graph, exposed so tests can cross-check it
  /// against the runtime Sentry's acquisition-order cycles. In whole-
  /// program mode it spans routines and units.
  LockOrderGraph lock_graph;
  /// Per-routine interprocedural effect summaries, fixpoint-converged.
  std::vector<EffectSummary> summaries;
  /// Every construct any process model rejects (all models, regardless of
  /// target_process_model or the enabled-rule subset) - the source of the
  /// report's compatibility matrix.
  std::vector<ModelViolation> model_violations;

  /// True when no violation is recorded against `model`.
  [[nodiscard]] bool compatible_with(const std::string& model) const;
};

/// Runs every enabled rule over `source` (a Force-dialect translation
/// unit), emitting findings into `diags`. Syntax errors are NOT emitted
/// here - the translator proper reports those; lint analyzes whatever
/// construct stream pass 1 can recover.
LintResult run_forcelint(const std::string& source, const LintOptions& opts,
                         DiagSink& diags);

/// Whole-program lint: lowers every unit, links Forcecall sites to
/// routine definitions across units, computes effect summaries bottom-up,
/// then runs the rules. units must be non-empty; units[0] is the primary
/// unit. Diagnostics in extra units carry that unit's name as file
/// provenance; render_all() groups by file and dedupes findings reached
/// through multiple call paths.
LintResult run_forcelint_program(const std::vector<LintUnit>& units,
                                 const LintOptions& opts, DiagSink& diags);

/// Schema version of the `--lint-report` JSON (bump on breaking changes,
/// like kBenchSchemaVersion for BENCH_*.json).
inline constexpr int kLintReportSchemaVersion = 1;

/// Renders the machine-readable lint report: schema_version, units, the
/// enabled rules and target model, every finding with file/line/col
/// provenance, every routine's effect summary, and the per-model
/// compatibility matrix. tools/lint_report_check.py validates the schema;
/// a daemon can gate program admission on `models[*].compatible` without
/// parsing human-readable diagnostics.
std::string render_lint_report(const std::vector<LintUnit>& units,
                               const LintOptions& opts,
                               const LintResult& result,
                               const DiagSink& diags);

}  // namespace force::preproc
