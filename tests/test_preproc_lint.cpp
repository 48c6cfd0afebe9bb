// forcelint: the static construct-graph analyzer (preproc/lint.hpp).
//
// Each seeded fixture under tests/golden/lint/ trips exactly its rule; the
// clean fixture and every shipped example stay finding-free; suppression
// comments, rule subsets, --Werror promotion, and diagnostic rendering
// behave as documented.
#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "preproc/lint.hpp"
#include "preproc/translate.hpp"

namespace fp = force::preproc;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string fixture(const std::string& name) {
  return read_file(std::string(FORCE_LINT_FIXTURE_DIR) + "/" + name);
}

std::string example_source(const std::string& name) {
  return read_file(std::string(FORCE_EXAMPLES_DIR) + "/" + name);
}

/// Runs lint with default options; returns the sink for inspection.
fp::LintResult lint(const std::string& source, fp::DiagSink& diags,
                    fp::LintOptions opts = {}) {
  return fp::run_forcelint(source, opts, diags);
}

bool has_rule(const fp::DiagSink& diags, const std::string& rule_id) {
  for (const auto& d : diags.all()) {
    if (d.rule == rule_id) return true;
  }
  return false;
}

std::vector<std::string> rule_ids(const fp::DiagSink& diags) {
  std::vector<std::string> out;
  for (const auto& d : diags.all()) out.push_back(d.rule);
  return out;
}

// --- per-rule fixture detection ---------------------------------------------

struct RuleFixture {
  const char* file;
  const char* rule_id;
};

class LintFixtureTest : public ::testing::TestWithParam<RuleFixture> {};

TEST_P(LintFixtureTest, SeededFixtureTripsItsRule) {
  const RuleFixture& p = GetParam();
  fp::DiagSink diags;
  const fp::LintResult res = lint(fixture(p.file), diags);
  EXPECT_GT(res.findings, 0u) << p.file;
  EXPECT_TRUE(has_rule(diags, p.rule_id))
      << p.file << " did not trip " << p.rule_id << "; got:\n"
      << diags.render_all(p.file);
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, LintFixtureTest,
    ::testing::Values(
        RuleFixture{"r1_divergent_barrier.force", "force-lint-R1"},
        RuleFixture{"r2_unprotected_shared.force", "force-lint-R2"},
        RuleFixture{"r3_async_protocol.force", "force-lint-R3"},
        // r4_lock_order.force: LintFixtures.R4FixtureExposesTheLockCycle.
        RuleFixture{"r5_doall_dependence.force", "force-lint-R5"},
        RuleFixture{"r6_code_after_join.force", "force-lint-R6"},
        RuleFixture{"r1_xproc_divergent_call.force", "force-lint-R1"},
        RuleFixture{"r4_xproc_lock_order.force", "force-lint-R4"}),
    [](const auto& info) {
      std::string name = info.param.file;
      name = name.substr(0, name.rfind(".force"));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

class LintR7FixtureTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LintR7FixtureTest, SeededFixtureTripsR7UnderOsForkTarget) {
  fp::LintOptions opts;
  opts.target_process_model = "os-fork";
  fp::DiagSink diags;
  const fp::LintResult res = lint(fixture(GetParam()), diags, opts);
  EXPECT_GT(res.findings, 0u) << GetParam();
  EXPECT_TRUE(has_rule(diags, "force-lint-R7"))
      << GetParam() << ":\n" << diags.render_all(GetParam());
  EXPECT_FALSE(res.compatible_with("os-fork"));
  // Without a target model the same fixture produces no diagnostic (the
  // construct is fine under the thread model) - R7 is a portability rule.
  fp::DiagSink silent;
  const fp::LintResult none = lint(fixture(GetParam()), silent);
  EXPECT_FALSE(has_rule(silent, "force-lint-R7"));
  EXPECT_FALSE(none.compatible_with("os-fork"));
}

INSTANTIATE_TEST_SUITE_P(R7Fixtures, LintR7FixtureTest,
                         ::testing::Values("r7_pcase_osfork.force",
                                           "r7_askfor_payload.force"),
                         [](const auto& info) {
                           std::string name = info.param;
                           name = name.substr(0, name.rfind(".force"));
                           return name;
                         });

TEST(LintR7, IsfullClusterFixtureTripsOnlyTheClusterTarget) {
  // Isfull is the one narrowing that is cluster-specific: the os-fork
  // model keeps the full/empty word in the shared arena and accepts it.
  fp::LintOptions cluster;
  cluster.target_process_model = "cluster";
  fp::DiagSink diags;
  const fp::LintResult res =
      lint(fixture("r7_isfull_cluster.force"), diags, cluster);
  EXPECT_GT(res.findings, 0u);
  EXPECT_TRUE(has_rule(diags, "force-lint-R7"))
      << diags.render_all("r7_isfull_cluster.force");
  EXPECT_FALSE(res.compatible_with("cluster"));
  fp::LintOptions fork;
  fork.target_process_model = "os-fork";
  fp::DiagSink silent;
  const fp::LintResult fork_res =
      lint(fixture("r7_isfull_cluster.force"), silent, fork);
  EXPECT_FALSE(has_rule(silent, "force-lint-R7"))
      << silent.render_all("r7_isfull_cluster.force");
  EXPECT_TRUE(fork_res.compatible_with("os-fork"));
  EXPECT_FALSE(fork_res.compatible_with("cluster"));
}

TEST(LintFixtures, CleanFixtureHasZeroFindings) {
  fp::DiagSink diags;
  const fp::LintResult res = lint(fixture("clean.force"), diags);
  EXPECT_EQ(res.findings, 0u) << diags.render_all("clean.force");
  EXPECT_TRUE(diags.all().empty());
}

TEST(LintFixtures, R3FixtureReportsAllThreeViolations) {
  fp::DiagSink diags;
  lint(fixture("r3_async_protocol.force"), diags);
  std::size_t r3 = 0;
  for (const auto& d : diags.all()) {
    if (d.rule == "force-lint-R3") ++r3;
  }
  // Consume-before-Produce, Produce-on-full, double Void.
  EXPECT_EQ(r3, 3u) << diags.render_all("r3");
}

TEST(LintFixtures, R4FixtureExposesTheLockCycle) {
  fp::DiagSink diags;
  const fp::LintResult res = lint(fixture("r4_lock_order.force"), diags);
  EXPECT_GT(res.findings, 0u);
  const auto cycles = res.lock_graph.cycles();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0], (std::vector<std::string>{"order_a", "order_b"}));
  EXPECT_TRUE(has_rule(diags, "force-lint-R4"));
}

// --- shipped examples stay clean --------------------------------------------

class LintExampleTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LintExampleTest, ShippedExampleIsFindingFree) {
  fp::DiagSink diags;
  const fp::LintResult res = lint(example_source(GetParam()), diags);
  EXPECT_EQ(res.findings, 0u)
      << GetParam() << ":\n" << diags.render_all(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Examples, LintExampleTest,
                         ::testing::Values("saxpy.force", "stencil.force",
                                           "treewalk.force",
                                           "multifile/main.force",
                                           "multifile/stats_module.force"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '/' || c == '.') c = '_';
                           }
                           return name;
                         });

// --- suppression directives -------------------------------------------------

TEST(LintSuppression, OffDirectiveSilencesTheNamedRule) {
  const std::string src =
      "Force S\n"
      "Shared integer C\n"
      "End declarations\n"
      "!force$ lint off(R2)\n"
      "C = 1;\n"
      "!force$ lint on(R2)\n"
      "C = 2;\n"
      "Join\n";
  fp::DiagSink diags;
  lint(src, diags);
  ASSERT_EQ(diags.all().size(), 1u) << diags.render_all("s");
  EXPECT_EQ(diags.all()[0].rule, "force-lint-R2");
  EXPECT_EQ(diags.all()[0].line, 7);  // only the write after "lint on"
}

TEST(LintSuppression, BareOffSilencesEveryRule) {
  const std::string src =
      "Force S\n"
      "Shared integer C\n"
      "End declarations\n"
      "!force$ lint off\n"
      "C = 1;\n"
      "Join\n"
      "Barrier\n"
      "End barrier\n"
      "!force$ lint on\n";
  fp::DiagSink diags;
  const fp::LintResult res = lint(src, diags);
  EXPECT_EQ(res.findings, 0u) << diags.render_all("s");
}

TEST(LintSuppression, DirectiveAcceptsTrailingComment) {
  const std::string src =
      "Force S\n"
      "Shared integer C\n"
      "End declarations\n"
      "!force$ lint off(R2)   ! deliberate: debug counter\n"
      "C = 1;\n"
      "!force$ lint on(R2)\n"
      "Join\n";
  fp::DiagSink diags;
  const fp::LintResult res = lint(src, diags);
  EXPECT_EQ(res.findings, 0u) << diags.render_all("s");
}

TEST(LintSuppression, UnclosedOffRegionGetsW1Warning) {
  const std::string src =
      "Force S\n"
      "Shared integer C\n"
      "End declarations\n"
      "!force$ lint off\n"
      "C = 1;\n"
      "Join\n";
  fp::DiagSink diags;
  const fp::LintResult res = lint(src, diags);
  // The suppression still holds (no R2) but the unclosed region itself is
  // a finding: silently disabling rules to end of file is almost always a
  // forgotten "lint on".
  EXPECT_FALSE(has_rule(diags, "force-lint-R2"));
  EXPECT_TRUE(has_rule(diags, "force-lint-W1")) << diags.render_all("s");
  EXPECT_EQ(res.findings, 1u);
  ASSERT_EQ(diags.all().size(), 1u);
  EXPECT_EQ(diags.all()[0].line, 4);  // points at the directive itself
}

TEST(LintSuppression, UnclosedPerRuleRegionsReportEachDirective) {
  const std::string src =
      "Force S\n"
      "End declarations\n"
      "!force$ lint off(R2)\n"
      "!force$ lint off(R3)\n"
      "Join\n";
  fp::DiagSink diags;
  const fp::LintResult res = lint(src, diags);
  EXPECT_EQ(res.findings, 2u) << diags.render_all("s");
}

TEST(LintSuppression, UnrelatedRuleStaysActive) {
  const std::string src =
      "Force S\n"
      "Shared integer C\n"
      "End declarations\n"
      "!force$ lint off(R1)\n"
      "C = 1;\n"
      "Join\n";
  fp::DiagSink diags;
  lint(src, diags);
  EXPECT_TRUE(has_rule(diags, "force-lint-R2"));
}

// --- spec parsing and rule subsets ------------------------------------------

TEST(LintSpec, DefaultEnablesAllSevenRulesAsWarnings) {
  const fp::LintOptions opts = fp::parse_lint_spec("");
  EXPECT_EQ(opts.rules.size(), 7u);
  EXPECT_EQ(opts.rules.count(fp::LintRule::kR7), 1u);
  EXPECT_FALSE(opts.findings_are_errors);
  EXPECT_TRUE(opts.unknown_tokens.empty());
}

TEST(LintSpec, SubsetAndSeverityParse) {
  const fp::LintOptions opts = fp::parse_lint_spec("R2,r4,E");
  EXPECT_EQ(opts.rules.size(), 2u);
  EXPECT_EQ(opts.rules.count(fp::LintRule::kR2), 1u);
  EXPECT_EQ(opts.rules.count(fp::LintRule::kR4), 1u);
  EXPECT_TRUE(opts.findings_are_errors);
}

TEST(LintSpec, UnknownTokensAreCollectedAndNoted) {
  const fp::LintOptions opts = fp::parse_lint_spec("R2,bogus");
  ASSERT_EQ(opts.unknown_tokens.size(), 1u);
  EXPECT_EQ(opts.unknown_tokens[0], "bogus");
  fp::DiagSink diags;
  lint("Force S\nEnd declarations\nJoin\n", diags, opts);
  ASSERT_FALSE(diags.all().empty());
  EXPECT_EQ(diags.all()[0].severity, fp::Severity::kNote);
}

TEST(LintSpec, DisabledRuleDoesNotFire) {
  fp::DiagSink diags;
  lint(fixture("r2_unprotected_shared.force"), diags,
       fp::parse_lint_spec("R1"));
  EXPECT_FALSE(has_rule(diags, "force-lint-R2"));
}

TEST(LintSpec, ErrorSeverityMakesFindingsErrors) {
  fp::DiagSink diags;
  lint(fixture("r2_unprotected_shared.force"), diags,
       fp::parse_lint_spec("E"));
  EXPECT_GT(diags.errors(), 0u);
  EXPECT_FALSE(diags.ok());
}

// --- diagnostics: columns, carets, ordering, werror -------------------------

TEST(LintDiagnostics, FindingCarriesColumnAndCaretSnippet) {
  fp::DiagSink diags;
  lint(fixture("r2_unprotected_shared.force"), diags);
  ASSERT_FALSE(diags.all().empty());
  const fp::Diagnostic& d = diags.all()[0];
  EXPECT_EQ(d.rule, "force-lint-R2");
  EXPECT_EQ(d.line, 7);
  EXPECT_EQ(d.col, 1);  // COUNTER starts the line
  EXPECT_EQ(d.length, 7);
  const std::string rendered = d.render("r2.force");
  EXPECT_NE(rendered.find("r2.force:7:1:"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("[force-lint-R2]"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("COUNTER = COUNTER + 1;"), std::string::npos);
  EXPECT_NE(rendered.find("^~~~~~~"), std::string::npos) << rendered;
}

TEST(LintDiagnostics, RenderAllSortsByLineThenColumn) {
  fp::DiagSink diags;
  diags.report(fp::Severity::kWarning, 9, 5, 1, "force-lint-R2", "later", "");
  diags.report(fp::Severity::kWarning, 3, 2, 1, "force-lint-R2", "early", "");
  diags.report(fp::Severity::kWarning, 9, 1, 1, "force-lint-R2", "mid", "");
  const std::string out = diags.render_all("f");
  const std::size_t early = out.find("early");
  const std::size_t mid = out.find("mid");
  const std::size_t later = out.find("later");
  ASSERT_NE(early, std::string::npos);
  ASSERT_NE(mid, std::string::npos);
  ASSERT_NE(later, std::string::npos);
  EXPECT_LT(early, mid);
  EXPECT_LT(mid, later);
}

TEST(LintDiagnostics, WerrorPromotionCountsInErrorsAndExitState) {
  fp::DiagSink diags;
  diags.set_werror(true);
  diags.report(fp::Severity::kWarning, 1, 1, 1, "force-lint-R2", "w", "");
  EXPECT_EQ(diags.errors(), 1u);
  EXPECT_EQ(diags.warnings(), 1u);
  EXPECT_FALSE(diags.ok());
  ASSERT_EQ(diags.all().size(), 1u);
  EXPECT_EQ(diags.all()[0].severity, fp::Severity::kError);
}

TEST(LintDiagnostics, DeterministicAcrossRuns) {
  const std::string src = fixture("r5_doall_dependence.force");
  fp::DiagSink a;
  fp::DiagSink b;
  lint(src, a);
  lint(src, b);
  EXPECT_EQ(a.render_all("x"), b.render_all("x"));
  EXPECT_EQ(rule_ids(a), rule_ids(b));
}

// --- translate() integration ------------------------------------------------

TEST(LintTranslate, LintOptionRunsLintBeforeTranslation) {
  fp::TranslateOptions opts;
  opts.lint = true;
  const auto result =
      fp::translate(fixture("r2_unprotected_shared.force"), opts);
  EXPECT_TRUE(has_rule(result.diags, "force-lint-R2"));
  EXPECT_TRUE(result.ok);  // findings are warnings by default
}

TEST(LintTranslate, WerrorTurnsFindingsIntoTranslationFailure) {
  fp::TranslateOptions opts;
  opts.lint = true;
  opts.werror = true;
  const auto result =
      fp::translate(fixture("r2_unprotected_shared.force"), opts);
  EXPECT_TRUE(has_rule(result.diags, "force-lint-R2"));
  EXPECT_FALSE(result.ok);
}

TEST(LintTranslate, CleanExampleTranslatesCleanUnderWerror) {
  fp::TranslateOptions opts;
  opts.lint = true;
  opts.werror = true;
  const auto result = fp::translate(example_source("saxpy.force"), opts);
  EXPECT_TRUE(result.ok) << result.diags.render_all("saxpy.force");
}

TEST(LintTranslate, ModuleModeExampleStaysClean) {
  fp::TranslateOptions opts;
  opts.lint = true;
  opts.werror = true;
  opts.module_mode = true;
  const auto result =
      fp::translate(example_source("multifile/stats_module.force"), opts);
  EXPECT_TRUE(result.ok)
      << result.diags.render_all("stats_module.force");
}

// --- targeted rule semantics (inline sources) -------------------------------

TEST(LintRules, BarrierInsideUniformWhileLoopIsNotDivergent) {
  const std::string src =
      "Force S\n"
      "Shared integer C\n"
      "End declarations\n"
      "while (true) {\n"
      "Barrier\n"
      "  C = 1;\n"
      "End barrier\n"
      "}\n"
      "Join\n";
  fp::DiagSink diags;
  const fp::LintResult res = lint(src, diags);
  EXPECT_EQ(res.findings, 0u) << diags.render_all("s");
}

TEST(LintRules, BracelessIfGuardsTheNextConstructOnly) {
  const std::string src =
      "Force S\n"
      "Private integer ME\n"
      "End declarations\n"
      "ME = 0;\n"
      "if (ME == 1)\n"
      "Barrier\n"
      "End barrier\n"
      "Join\n";
  fp::DiagSink diags;
  lint(src, diags);
  // The Barrier is divergent; End barrier follows on the unconditional path.
  std::size_t r1 = 0;
  for (const auto& d : diags.all()) {
    if (d.rule == "force-lint-R1") ++r1;
  }
  EXPECT_EQ(r1, 1u) << diags.render_all("s");
}

TEST(LintRules, DoallIndexedWriteIsPartitionedAndClean) {
  const std::string src =
      "Force S\n"
      "Shared real A(8)\n"
      "Private integer I\n"
      "End declarations\n"
      "Selfsched DO 10 I = 0, 7\n"
      "  A[I] = 1.0;\n"
      "10 End Selfsched DO\n"
      "Join\n";
  fp::DiagSink diags;
  const fp::LintResult res = lint(src, diags);
  EXPECT_EQ(res.findings, 0u) << diags.render_all("s");
}

TEST(LintRules, DoallConstantSubscriptWriteIsR2) {
  const std::string src =
      "Force S\n"
      "Shared real A(8)\n"
      "Private integer I\n"
      "End declarations\n"
      "Selfsched DO 10 I = 0, 7\n"
      "  A[0] = 1.0;\n"
      "10 End Selfsched DO\n"
      "Join\n";
  fp::DiagSink diags;
  lint(src, diags);
  EXPECT_TRUE(has_rule(diags, "force-lint-R2")) << diags.render_all("s");
}

TEST(LintRules, DuplicateJoinIsR6) {
  const std::string src =
      "Force S\n"
      "End declarations\n"
      "Join\n"
      "Join\n";
  fp::DiagSink diags;
  lint(src, diags);
  EXPECT_TRUE(has_rule(diags, "force-lint-R6")) << diags.render_all("s");
}

// --- interprocedural effect summaries ---------------------------------------

TEST(LintInterproc, ForcecallAppliesCalleeAsyncTransformer) {
  // HELPER definitely produces CELL, so the Consume after the call is
  // clean - the summary's async transformer, not a blanket "unknown".
  const std::string src =
      "Force S\n"
      "Async real CELL\n"
      "Private real T\n"
      "End declarations\n"
      "Forcecall HELPER\n"
      "Consume CELL into T\n"
      "Join\n"
      "Forcesub HELPER\n"
      "Async real CELL\n"
      "End declarations\n"
      "Produce CELL = 1.0\n"
      "End Forcesub\n";
  fp::DiagSink diags;
  const fp::LintResult res = lint(src, diags);
  EXPECT_EQ(res.findings, 0u) << diags.render_all("s");
}

TEST(LintInterproc, CallToNonProducingCalleeKeepsCellEmpty) {
  // HELPER touches nothing: the pre-call "empty" state survives the call
  // and the Consume is a definite R3.
  const std::string src =
      "Force S\n"
      "Async real CELL\n"
      "Private real T\n"
      "End declarations\n"
      "Forcecall HELPER\n"
      "Consume CELL into T\n"
      "Join\n"
      "Forcesub HELPER\n"
      "End declarations\n"
      "End Forcesub\n";
  fp::DiagSink diags;
  lint(src, diags);
  EXPECT_TRUE(has_rule(diags, "force-lint-R3")) << diags.render_all("s");
}

TEST(LintInterproc, UnresolvedCallMakesAsyncUnknown) {
  // HELPER has no definition in the program: the sound top - it may have
  // produced CELL, so no definite violation.
  const std::string src =
      "Force S\n"
      "Async real CELL\n"
      "Private real T\n"
      "End declarations\n"
      "Externf HELPER\n"
      "Forcecall HELPER\n"
      "Consume CELL into T\n"
      "Join\n";
  fp::DiagSink diags;
  const fp::LintResult res = lint(src, diags);
  EXPECT_EQ(res.findings, 0u) << diags.render_all("s");
}

TEST(LintInterproc, DivergentCallToCollectiveCalleeIsR1) {
  const std::string src =
      "Force S\n"
      "Shared integer C\n"
      "Private integer ME\n"
      "End declarations\n"
      "ME = 0;\n"
      "if (ME == 1) {\n"
      "Forcecall WORK\n"
      "}\n"
      "Join\n"
      "Forcesub WORK\n"
      "End declarations\n"
      "Barrier\n"
      "End barrier\n"
      "End Forcesub\n";
  fp::DiagSink diags;
  lint(src, diags);
  EXPECT_TRUE(has_rule(diags, "force-lint-R1")) << diags.render_all("s");
}

TEST(LintInterproc, DivergentCallToCollectiveFreeCalleeIsClean) {
  // The precision upgrade over "every Forcecall is collective": WORK has
  // no collective anywhere, so a divergent call to it cannot deadlock the
  // force.
  const std::string src =
      "Force S\n"
      "Private integer ME\n"
      "End declarations\n"
      "ME = 0;\n"
      "if (ME == 1) {\n"
      "Forcecall WORK\n"
      "}\n"
      "Join\n"
      "Forcesub WORK\n"
      "Private integer T\n"
      "End declarations\n"
      "T = 2;\n"
      "End Forcesub\n";
  fp::DiagSink diags;
  const fp::LintResult res = lint(src, diags);
  EXPECT_EQ(res.findings, 0u) << diags.render_all("s");
}

TEST(LintInterproc, DivergentCallToUnresolvedCalleeStaysR1) {
  const std::string src =
      "Force S\n"
      "Private integer ME\n"
      "End declarations\n"
      "Externf WORK\n"
      "ME = 0;\n"
      "if (ME == 1) {\n"
      "Forcecall WORK\n"
      "}\n"
      "Join\n";
  fp::DiagSink diags;
  lint(src, diags);
  EXPECT_TRUE(has_rule(diags, "force-lint-R1")) << diags.render_all("s");
}

TEST(LintInterproc, CrossRoutineLockOrderCycleIsR4) {
  // The caller holds order_a while SUB_B acquires order_b, and holds
  // order_b while SUB_A acquires order_a - an inversion no single routine
  // exhibits.
  const std::string src =
      "Force S\n"
      "End declarations\n"
      "Lock order_a\n"
      "Forcecall SUB_B\n"
      "Unlock order_a\n"
      "Lock order_b\n"
      "Forcecall SUB_A\n"
      "Unlock order_b\n"
      "Join\n"
      "Forcesub SUB_A\n"
      "End declarations\n"
      "Lock order_a\n"
      "Unlock order_a\n"
      "End Forcesub\n"
      "Forcesub SUB_B\n"
      "End declarations\n"
      "Lock order_b\n"
      "Unlock order_b\n"
      "End Forcesub\n";
  fp::DiagSink diags;
  const fp::LintResult res = lint(src, diags);
  EXPECT_TRUE(has_rule(diags, "force-lint-R4")) << diags.render_all("s");
  ASSERT_EQ(res.lock_graph.cycles().size(), 1u);
  EXPECT_EQ(res.lock_graph.cycles()[0],
            (std::vector<std::string>{"order_a", "order_b"}));
}

TEST(LintInterproc, RecursionTerminatesAndDegradesToAsyncTop) {
  const std::string src =
      "Force S\n"
      "End declarations\n"
      "Forcecall R\n"
      "Join\n"
      "Forcesub R\n"
      "End declarations\n"
      "Forcecall R\n"
      "End Forcesub\n";
  fp::DiagSink diags;
  const fp::LintResult res = lint(src, diags);  // must not hang
  const auto it = std::find_if(
      res.summaries.begin(), res.summaries.end(),
      [](const fp::EffectSummary& s) { return s.routine == "R"; });
  ASSERT_NE(it, res.summaries.end());
  EXPECT_TRUE(it->async_top);
  EXPECT_FALSE(it->calls_unresolved);  // R resolves, it just recurses
}

TEST(LintInterproc, SummariesExposeTransitiveEffects) {
  const std::string src =
      "Force S\n"
      "End declarations\n"
      "Forcecall A\n"
      "Join\n"
      "Forcesub A\n"
      "End declarations\n"
      "Forcecall B\n"
      "End Forcesub\n"
      "Forcesub B\n"
      "Shared integer W\n"
      "End declarations\n"
      "Lock inner\n"
      "W = 1;\n"
      "Unlock inner\n"
      "Barrier\n"
      "End barrier\n"
      "End Forcesub\n";
  fp::DiagSink diags;
  const fp::LintResult res = lint(src, diags);
  const auto it = std::find_if(
      res.summaries.begin(), res.summaries.end(),
      [](const fp::EffectSummary& s) { return s.routine == "A"; });
  ASSERT_NE(it, res.summaries.end());
  EXPECT_TRUE(it->may_execute_collective);   // via B's Barrier
  EXPECT_EQ(it->locks_acquired.count("inner"), 1u);
  EXPECT_EQ(it->shared_writes.count("W"), 1u);
  EXPECT_EQ(it->callees.count("B"), 1u);
  EXPECT_FALSE(it->async_top);
  EXPECT_FALSE(it->calls_unresolved);
}

// --- whole-program (multi-unit) mode ----------------------------------------

TEST(LintProgram, ForcecallResolvesAcrossUnits) {
  const std::string main_src =
      "Force S\n"
      "Private integer ME\n"
      "End declarations\n"
      "Externf STATS\n"
      "ME = 0;\n"
      "if (ME == 1) {\n"
      "Forcecall STATS\n"
      "}\n"
      "Join\n";
  const std::string module_src =
      "Forcesub STATS\n"
      "End declarations\n"
      "Barrier\n"
      "End barrier\n"
      "End Forcesub\n";
  fp::DiagSink diags;
  fp::run_forcelint_program(
      {{"main.force", main_src}, {"stats.force", module_src}}, {}, diags);
  // The divergent call is R1 because STATS - defined in the OTHER unit -
  // contains a Barrier; single-unit lint of main_src alone could only
  // guess.
  EXPECT_TRUE(has_rule(diags, "force-lint-R1"))
      << diags.render_all("main.force");
  ASSERT_FALSE(diags.all().empty());
  EXPECT_NE(diags.all()[0].message.find("STATS"), std::string::npos);
}

TEST(LintProgram, FindingsInExtraUnitsCarryFileProvenance) {
  const std::string main_src =
      "Force S\n"
      "End declarations\n"
      "Join\n";
  const std::string module_src =
      "Forcesub STATS\n"
      "Shared integer C\n"
      "End declarations\n"
      "C = 1;\n"
      "End Forcesub\n";
  fp::DiagSink diags;
  fp::run_forcelint_program(
      {{"main.force", main_src}, {"stats.force", module_src}}, {}, diags);
  ASSERT_TRUE(has_rule(diags, "force-lint-R2"))
      << diags.render_all("main.force");
  for (const auto& d : diags.all()) {
    if (d.rule == "force-lint-R2") {
      EXPECT_EQ(d.file, "stats.force");
    }
  }
  const std::string rendered = diags.render_all("main.force");
  EXPECT_NE(rendered.find("stats.force:4:"), std::string::npos) << rendered;
}

TEST(LintProgram, IdenticalDiagnosticsDedupe) {
  fp::DiagSink diags;
  diags.report_in_file("u.force", fp::Severity::kWarning, 3, 1, 2,
                       "force-lint-R2", "same finding", "C = 1;");
  diags.report_in_file("u.force", fp::Severity::kWarning, 3, 1, 2,
                       "force-lint-R2", "same finding", "C = 1;");
  EXPECT_EQ(diags.all().size(), 1u);
  EXPECT_EQ(diags.warnings(), 1u);
}

TEST(LintProgram, MultifileExampleIsCleanWholeProgram) {
  const std::vector<fp::LintUnit> units = {
      {"main.force", example_source("multifile/main.force")},
      {"stats_module.force", example_source("multifile/stats_module.force")}};
  fp::DiagSink diags;
  const fp::LintResult res = fp::run_forcelint_program(units, {}, diags);
  EXPECT_EQ(res.findings, 0u) << diags.render_all("main.force");
  // The seed acceptance case: STATS resolves across units and the whole
  // program is os-fork portable.
  const auto it = std::find_if(
      res.summaries.begin(), res.summaries.end(),
      [](const fp::EffectSummary& s) { return s.routine == "FORCEMAIN"; });
  for (const auto& s : res.summaries) {
    if (s.callees.count("STATS") != 0) {
      EXPECT_FALSE(s.calls_unresolved);
    }
  }
  (void)it;
  EXPECT_TRUE(res.compatible_with("os-fork"));
  EXPECT_TRUE(res.compatible_with("thread"));
}

// --- R7: process-model portability ------------------------------------------

TEST(LintR7, PcaseUnderOsForkTargetFires) {
  const std::string src =
      "Force S\n"
      "End declarations\n"
      "Pcase\n"
      "Usect\n"
      "  ;\n"
      "End pcase\n"
      "Join\n";
  fp::LintOptions opts;
  opts.target_process_model = "os-fork";
  fp::DiagSink diags;
  const fp::LintResult res = fp::run_forcelint(src, opts, diags);
  EXPECT_TRUE(has_rule(diags, "force-lint-R7")) << diags.render_all("s");
  EXPECT_FALSE(res.compatible_with("os-fork"));
  EXPECT_FALSE(res.compatible_with("cluster"));  // inherits the narrowing
  EXPECT_TRUE(res.compatible_with("thread"));
}

TEST(LintR7, MatrixIsComputedEvenWithoutATargetModel) {
  const std::string src =
      "Force S\n"
      "End declarations\n"
      "Pcase\n"
      "Usect\n"
      "  ;\n"
      "End pcase\n"
      "Join\n";
  fp::DiagSink diags;
  const fp::LintResult res = fp::run_forcelint(src, {}, diags);
  // No diagnostic (the program targets the thread model, which accepts
  // Pcase) but the matrix still records what os-fork would reject.
  EXPECT_FALSE(has_rule(diags, "force-lint-R7")) << diags.render_all("s");
  EXPECT_EQ(res.findings, 0u);
  EXPECT_FALSE(res.compatible_with("os-fork"));
  ASSERT_FALSE(res.model_violations.empty());
  EXPECT_EQ(res.model_violations[0].construct, "Pcase");
  EXPECT_EQ(res.model_violations[0].line, 3);
}

TEST(LintR7, NonScalarAskforPayloadIsNotForkPortable) {
  const std::string src =
      "Force S\n"
      "Private integer T\n"
      "End declarations\n"
      "Seedwork 10 1\n"
      "Askfor 10 T of std::string\n"
      "10 End Askfor\n"
      "Join\n";
  fp::LintOptions opts;
  opts.target_process_model = "os-fork";
  fp::DiagSink diags;
  const fp::LintResult res = fp::run_forcelint(src, opts, diags);
  EXPECT_TRUE(has_rule(diags, "force-lint-R7")) << diags.render_all("s");
  EXPECT_FALSE(res.compatible_with("os-fork"));
}

TEST(LintR7, ScalarAskforPayloadIsPortable) {
  const std::string src =
      "Force S\n"
      "Private integer T\n"
      "End declarations\n"
      "Seedwork 10 1\n"
      "Askfor 10 T of integer\n"
      "10 End Askfor\n"
      "Join\n";
  fp::LintOptions opts;
  opts.target_process_model = "os-fork";
  fp::DiagSink diags;
  const fp::LintResult res = fp::run_forcelint(src, opts, diags);
  EXPECT_FALSE(has_rule(diags, "force-lint-R7")) << diags.render_all("s");
  EXPECT_TRUE(res.compatible_with("os-fork"));
}

TEST(LintR7, IsfullIsRejectedByTheClusterModelOnly) {
  const std::string src =
      "Force S\n"
      "Async real CELL\n"
      "Private integer F\n"
      "End declarations\n"
      "Produce CELL = 1.0\n"
      "Isfull CELL into F\n"
      "Join\n";
  fp::LintOptions opts;
  opts.target_process_model = "os-fork";
  fp::DiagSink diags;
  const fp::LintResult res = fp::run_forcelint(src, opts, diags);
  EXPECT_FALSE(has_rule(diags, "force-lint-R7")) << diags.render_all("s");
  EXPECT_TRUE(res.compatible_with("os-fork"));
  EXPECT_FALSE(res.compatible_with("cluster"));
}

TEST(LintR7, SuppressionDirectiveCoversR7) {
  const std::string src =
      "Force S\n"
      "End declarations\n"
      "!force$ lint off(R7)\n"
      "Pcase\n"
      "Usect\n"
      "  ;\n"
      "End pcase\n"
      "!force$ lint on(R7)\n"
      "Join\n";
  fp::LintOptions opts;
  opts.target_process_model = "os-fork";
  fp::DiagSink diags;
  const fp::LintResult res = fp::run_forcelint(src, opts, diags);
  EXPECT_EQ(res.findings, 0u) << diags.render_all("s");
  // Suppression silences the diagnostic, not the matrix.
  EXPECT_FALSE(res.compatible_with("os-fork"));
}

// --- the machine-readable report --------------------------------------------

TEST(LintReport, CleanProgramListsOsForkCompatible) {
  const std::vector<fp::LintUnit> units = {
      {"main.force", example_source("multifile/main.force")},
      {"stats_module.force", example_source("multifile/stats_module.force")}};
  fp::DiagSink diags;
  const fp::LintResult res = fp::run_forcelint_program(units, {}, diags);
  const std::string json = fp::render_lint_report(units, {}, res, diags);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"main.force\""), std::string::npos);
  EXPECT_NE(json.find("\"stats_module.force\""), std::string::npos);
  EXPECT_NE(
      json.find("{\"model\": \"os-fork\", \"compatible\": true"),
      std::string::npos)
      << json;
  EXPECT_NE(json.find("\"findings\": []"), std::string::npos) << json;
}

TEST(LintReport, ViolatingProgramListsTheConstructWithProvenance) {
  const std::vector<fp::LintUnit> units = {
      {"pcase.force",
       "Force S\n"
       "End declarations\n"
       "Pcase\n"
       "Usect\n"
       "  ;\n"
       "End pcase\n"
       "Join\n"}};
  fp::DiagSink diags;
  const fp::LintResult res = fp::run_forcelint_program(units, {}, diags);
  const std::string json = fp::render_lint_report(units, {}, res, diags);
  EXPECT_NE(
      json.find("{\"model\": \"os-fork\", \"compatible\": false"),
      std::string::npos)
      << json;
  EXPECT_NE(json.find("\"construct\": \"Pcase\""), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"pcase.force\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
}

TEST(LintReport, TranslateRendersReportAndExtraUnits) {
  fp::TranslateOptions opts;
  opts.lint_report = true;
  opts.lint = true;
  opts.source_name = "main.force";
  opts.lint_units.emplace_back(
      "stats_module.force", example_source("multifile/stats_module.force"));
  const auto result =
      fp::translate(example_source("multifile/main.force"), opts);
  EXPECT_TRUE(result.ok) << result.diags.render_all("main.force");
  EXPECT_NE(result.lint_report_json.find("\"schema_version\": 1"),
            std::string::npos);
  EXPECT_NE(result.lint_report_json.find("\"stats_module.force\""),
            std::string::npos);
  EXPECT_NE(result.lint_report_json.find("\"routines\""), std::string::npos);
}

// --- static R7 matches the runtime's os-fork rejections ---------------------

TEST(LintR7, StaticallyFlagsWhatTheForkBackendRejectsAtRuntime) {
  // tests/test_process_fork.cpp (ForkConfig.PcaseAndResolveAreRejected,
  // AskforPayloads) shows the fork backend rejecting Pcase and
  // non-trivially-copyable askfor payloads at run time; R7 must flag the
  // dialect-visible subset of exactly those constructs statically.
  const std::string pcase_src =
      "Force S\n"
      "End declarations\n"
      "Pcase\n"
      "Usect\n"
      "  ;\n"
      "End pcase\n"
      "Join\n";
  const std::string askfor_src =
      "Force S\n"
      "Private integer T\n"
      "End declarations\n"
      "Seedwork 10 1\n"
      "Askfor 10 T of std::string\n"
      "10 End Askfor\n"
      "Join\n";
  const std::string clean_src =
      "Force S\n"
      "Shared integer C\n"
      "End declarations\n"
      "Barrier\n"
      "  C = 1;\n"
      "End barrier\n"
      "Join\n";
  fp::LintOptions opts;
  opts.target_process_model = "os-fork";
  for (const auto* rejected : {&pcase_src, &askfor_src}) {
    fp::DiagSink diags;
    const fp::LintResult res = fp::run_forcelint(*rejected, opts, diags);
    EXPECT_TRUE(has_rule(diags, "force-lint-R7"));
    EXPECT_FALSE(res.compatible_with("os-fork"));
  }
  fp::DiagSink diags;
  const fp::LintResult res = fp::run_forcelint(clean_src, opts, diags);
  EXPECT_FALSE(has_rule(diags, "force-lint-R7"));
  EXPECT_TRUE(res.compatible_with("os-fork"));
}

TEST(LintR7, StaticallyFlagsWhatTheClusterBackendRejectsAtRuntime) {
  // tests/test_cluster.cpp (ClusterRejects.*) shows the cluster backend
  // rejecting Pcase, non-trivially-copyable askfor payloads and Isfull at
  // run time with cluster-specific diagnostics; R7 with a cluster target
  // must flag the dialect-visible form of exactly those constructs
  // statically, and accept the programs the backend accepts.
  const std::string pcase_src =
      "Force S\n"
      "End declarations\n"
      "Pcase\n"
      "Usect\n"
      "  ;\n"
      "End pcase\n"
      "Join\n";
  const std::string askfor_src =
      "Force S\n"
      "Private integer T\n"
      "End declarations\n"
      "Seedwork 10 1\n"
      "Askfor 10 T of std::string\n"
      "10 End Askfor\n"
      "Join\n";
  const std::string isfull_src =
      "Force S\n"
      "Async real CELL\n"
      "Private integer F\n"
      "End declarations\n"
      "Produce CELL = 1.0\n"
      "Isfull CELL into F\n"
      "Join\n";
  const std::string clean_src =
      "Force S\n"
      "Shared integer C\n"
      "End declarations\n"
      "Barrier\n"
      "  C = 1;\n"
      "End barrier\n"
      "Join\n";
  fp::LintOptions opts;
  opts.target_process_model = "cluster";
  for (const auto* rejected : {&pcase_src, &askfor_src, &isfull_src}) {
    fp::DiagSink diags;
    const fp::LintResult res = fp::run_forcelint(*rejected, opts, diags);
    EXPECT_TRUE(has_rule(diags, "force-lint-R7"))
        << diags.render_all("s") << *rejected;
    EXPECT_FALSE(res.compatible_with("cluster")) << *rejected;
  }
  fp::DiagSink diags;
  const fp::LintResult res = fp::run_forcelint(clean_src, opts, diags);
  EXPECT_FALSE(has_rule(diags, "force-lint-R7")) << diags.render_all("s");
  EXPECT_TRUE(res.compatible_with("cluster"));
}

}  // namespace
