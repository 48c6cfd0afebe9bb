#include "preproc/lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <optional>

#include "machdep/backend.hpp"
#include "preproc/machmacros.hpp"
#include "preproc/pass1.hpp"
#include "preproc/textutil.hpp"

namespace force::preproc {

namespace {

bool is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_space(char c) { return c == ' ' || c == '\t'; }

/// Whole-word containment ("I" in "I+1" but not in "MIN").
bool contains_word(const std::string& s, const std::string& word) {
  if (word.empty()) return false;
  std::size_t i = 0;
  while ((i = s.find(word, i)) != std::string::npos) {
    const bool left_ok = i == 0 || !is_word_char(s[i - 1]);
    const std::size_t after = i + word.size();
    const bool right_ok = after >= s.size() || !is_word_char(s[after]);
    if (left_ok && right_ok) return true;
    ++i;
  }
  return false;
}

/// Blanks out string literals, character literals and comments so the
/// write scanner and control tracker never match inside them. Offsets are
/// preserved (replaced chars become spaces).
std::string strip_code(const std::string& line) {
  std::string out = line;
  bool in_str = false;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    if (in_str) {
      if (c == '\\' && i + 1 < out.size()) {
        out[i] = ' ';
        out[++i] = ' ';
        continue;
      }
      if (c == '"') in_str = false;
      out[i] = ' ';
      continue;
    }
    if (c == '"') {
      in_str = true;
      out[i] = ' ';
      continue;
    }
    if (c == '\'') {
      // A character literal unless it is a digit separator (1'000).
      if (i > 0 && is_word_char(out[i - 1])) continue;
      std::size_t j = i + 1;
      if (j < out.size() && out[j] == '\\') ++j;
      if (j < out.size()) ++j;
      if (j < out.size() && out[j] == '\'') {
        for (std::size_t k = i; k <= j; ++k) out[k] = ' ';
        i = j;
      }
      continue;
    }
    if (c == '/' && i + 1 < out.size() && out[i + 1] == '/') {
      for (std::size_t k = i; k < out.size(); ++k) out[k] = ' ';
      break;
    }
    if (c == '/' && i + 1 < out.size() && out[i + 1] == '*') {
      const std::size_t close = out.find("*/", i + 2);
      const std::size_t end = close == std::string::npos ? out.size()
                                                         : close + 2;
      for (std::size_t k = i; k < end; ++k) out[k] = ' ';
      i = end == 0 ? 0 : end - 1;
      continue;
    }
  }
  return out;
}

// --- write scanner ----------------------------------------------------------

struct WriteHit {
  std::size_t pos = 0;                  ///< offset of the variable name
  std::vector<std::string> subscripts;  ///< consecutive [..] groups
  bool compound = false;                ///< +=, ++, ... (reads and writes)
  bool rhs_reads_target = false;        ///< plain '=' whose RHS names the var
};

/// Finds assignment-shaped uses of `name` in a stripped line: `name = ..`,
/// `name[..] op= ..`, `name++`, `++name`. Comparison operators are not
/// writes.
std::vector<WriteHit> find_writes(const std::string& s,
                                  const std::string& name) {
  std::vector<WriteHit> hits;
  std::size_t from = 0;
  std::size_t i = 0;
  while ((i = s.find(name, from)) != std::string::npos) {
    from = i + 1;
    if (i > 0 && is_word_char(s[i - 1])) continue;
    const std::size_t after = i + name.size();
    if (after < s.size() && is_word_char(s[after])) continue;

    WriteHit hit;
    hit.pos = i;

    // Prefix increment/decrement.
    std::size_t back = i;
    while (back > 0 && is_space(s[back - 1])) --back;
    if (back >= 2 && ((s[back - 1] == '+' && s[back - 2] == '+') ||
                      (s[back - 1] == '-' && s[back - 2] == '-'))) {
      hit.compound = true;
      hits.push_back(std::move(hit));
      continue;
    }

    // Consecutive balanced subscript groups.
    std::size_t j = after;
    bool malformed = false;
    while (true) {
      while (j < s.size() && is_space(s[j])) ++j;
      if (j >= s.size() || s[j] != '[') break;
      int depth = 1;
      const std::size_t start = j + 1;
      std::size_t k = start;
      while (k < s.size() && depth > 0) {
        if (s[k] == '[') ++depth;
        if (s[k] == ']') --depth;
        ++k;
      }
      if (depth != 0) {
        malformed = true;
        break;
      }
      hit.subscripts.push_back(s.substr(start, k - 1 - start));
      j = k;
    }
    if (malformed) continue;
    while (j < s.size() && is_space(s[j])) ++j;
    if (j >= s.size()) continue;

    const char c = s[j];
    const char c2 = j + 1 < s.size() ? s[j + 1] : '\0';
    bool is_write = false;
    if (c == '=' && c2 != '=') {
      is_write = true;
    } else if ((c == '+' && c2 == '+') || (c == '-' && c2 == '-')) {
      is_write = true;
      hit.compound = true;
    } else if (std::string("+-*/%&|^").find(c) != std::string::npos &&
               c2 == '=') {
      is_write = true;
      hit.compound = true;
    } else if (((c == '<' && c2 == '<') || (c == '>' && c2 == '>')) &&
               j + 2 < s.size() && s[j + 2] == '=') {
      is_write = true;
      hit.compound = true;
    }
    if (!is_write) continue;
    if (c == '=' && !hit.compound) {
      hit.rhs_reads_target = contains_word(s.substr(j + 1), name);
    }
    hits.push_back(std::move(hit));
  }
  return hits;
}

// --- passthrough control-flow tracker ---------------------------------------

/// Tracks C++ control regions opened by passthrough lines: brace-balanced
/// regions with a divergence flag (if/else/switch bodies may be entered by
/// a subset of the force; while/for bodies are assumed schedule-uniform,
/// the dialect's documented discipline - see docs/LANGUAGE.md "SPMD
/// discipline").
class ControlTracker {
 public:
  [[nodiscard]] bool divergent_now() const {
    if (pending_single_ > 0 && pending_divergent_) return true;
    return std::any_of(stack_.begin(), stack_.end(),
                       [](const Region& r) { return r.divergent; });
  }
  [[nodiscard]] bool inside_any() const {
    return !stack_.empty() || pending_single_ > 0;
  }
  /// A construct statement consumes a braceless single-statement control.
  void consume_statement() {
    if (pending_single_ > 0) --pending_single_;
  }

  /// Updates the region stack from one stripped passthrough line; returns
  /// true when any region opened or closed (async states go unknown).
  bool feed(const std::string& s) {
    bool changed = false;
    std::size_t i = 0;
    while (i < s.size() && is_space(s[i])) ++i;
    if (pending_single_ > 0 && i < s.size()) {
      if (s[i] == '{') {
        // The braceless control's compound statement: inherit divergence.
        stack_.push_back({pending_divergent_});
        changed = true;
        ++i;
      }
      pending_single_ = 0;
    }
    enum class Pend { kNone, kCond, kLoop };
    Pend pend = Pend::kNone;
    int paren = 0;
    while (i < s.size()) {
      const char c = s[i];
      if (is_word_char(c) && !std::isdigit(static_cast<unsigned char>(c))) {
        std::size_t j = i;
        while (j < s.size() && is_word_char(s[j])) ++j;
        const std::string word = s.substr(i, j - i);
        if (word == "if" || word == "else" || word == "switch") {
          pend = Pend::kCond;
        } else if (word == "while" || word == "for" || word == "do") {
          if (pend != Pend::kCond) pend = Pend::kLoop;
        }
        i = j;
        continue;
      }
      if (c == '(') ++paren;
      if (c == ')' && paren > 0) --paren;
      if (c == ';' && paren == 0) pend = Pend::kNone;
      if (c == '{') {
        stack_.push_back({pend == Pend::kCond});
        pend = Pend::kNone;
        changed = true;
      }
      if (c == '}' && !stack_.empty()) {
        stack_.pop_back();
        changed = true;
      }
      ++i;
    }
    if (pend != Pend::kNone && paren == 0) {
      // "if (cond)" / "for (...)" with the controlled statement on the
      // next line.
      pending_single_ = 1;
      pending_divergent_ = pend == Pend::kCond;
      changed = true;
    }
    return changed;
  }

 private:
  struct Region {
    bool divergent = false;
  };
  std::vector<Region> stack_;
  int pending_single_ = 0;
  bool pending_divergent_ = false;
};

// --- suppression directives -------------------------------------------------

/// Region-scoped suppression: `!force$ lint off(R2[,R5])` disables the
/// rules from that line until `!force$ lint on(...)` or end of file;
/// without a rule list every rule is toggled.
class Suppressions {
 public:
  explicit Suppressions(const std::vector<std::string>& lines) {
    for (std::size_t n = 0; n < lines.size(); ++n) {
      parse_line(trim(lines[n]), static_cast<int>(n) + 1);
    }
  }

  [[nodiscard]] bool suppressed(LintRule rule, int line) const {
    bool off_all = false;
    std::set<LintRule> off;
    for (const Event& ev : events_) {
      if (ev.line > line) break;
      if (ev.all) {
        off_all = ev.off;
        off.clear();
      } else if (ev.off) {
        off.insert(ev.rule);
      } else {
        off.erase(ev.rule);
      }
    }
    return off_all || off.count(rule) != 0;
  }

  /// Directive lines whose `off` region is still open at end of file
  /// (the W1 diagnostic: rules silently disabled for the rest of the
  /// unit is almost always a forgotten `!force$ lint on`).
  [[nodiscard]] std::vector<int> unclosed_off_lines() const {
    std::optional<int> open_all;
    std::map<LintRule, int> open_rules;
    for (const Event& ev : events_) {
      if (ev.all) {
        if (ev.off) {
          open_all = ev.line;
        } else {
          open_all.reset();
        }
        open_rules.clear();
      } else if (ev.off) {
        open_rules.emplace(ev.rule, ev.line);  // region start = first off
      } else {
        open_rules.erase(ev.rule);
      }
    }
    std::set<int> lines;
    if (open_all) lines.insert(*open_all);
    for (const auto& [rule, line] : open_rules) lines.insert(line);
    return {lines.begin(), lines.end()};
  }

 private:
  struct Event {
    int line = 0;
    bool off = false;
    bool all = false;
    LintRule rule = LintRule::kR1;
  };

  void parse_line(const std::string& trimmed, int lineno) {
    std::string rest;
    const std::string lower = to_lower(trimmed);
    for (const char* prefix : {"!force$", "! force$", "//force$", "// force$"}) {
      if (lower.rfind(prefix, 0) == 0) {
        rest = trim(lower.substr(std::string(prefix).size()));
        break;
      }
    }
    if (rest.empty()) return;
    if (rest.rfind("lint", 0) != 0) return;
    rest = trim(rest.substr(4));
    // Allow a trailing comment on the directive line.
    if (const std::size_t bang = rest.find('!'); bang != std::string::npos) {
      rest = trim(rest.substr(0, bang));
    }
    if (const std::size_t sl = rest.find("//"); sl != std::string::npos) {
      rest = trim(rest.substr(0, sl));
    }
    bool off = false;
    if (rest.rfind("off", 0) == 0) {
      off = true;
      rest = trim(rest.substr(3));
    } else if (rest.rfind("on", 0) == 0) {
      rest = trim(rest.substr(2));
    } else {
      return;
    }
    if (rest.empty()) {
      events_.push_back({lineno, off, true, LintRule::kR1});
      return;
    }
    if (rest.front() != '(' || rest.back() != ')') return;
    for (const auto& tok : split_args(rest.substr(1, rest.size() - 2))) {
      const std::string t = to_lower(tok);
      if (t.size() == 2 && t[0] == 'r' && t[1] >= '1' && t[1] <= '7') {
        events_.push_back(
            {lineno, off, false,
             static_cast<LintRule>(t[1] - '1')});
      }
    }
  }

  std::vector<Event> events_;
};

// --- the rule engine --------------------------------------------------------

enum class ProtKind { kBarrier, kCritical, kLockHeld, kDoall, kAskfor };

struct Prot {
  ProtKind kind;
  std::string name;
  std::vector<std::string> index_vars;
};

enum class AsyncState { kEmpty, kFull, kUnknown };

/// Collective constructs every process must reach together. Forcecall is
/// NOT in this set: whether a call is collective is decided by the
/// callee's effect summary (interprocedural R1).
bool is_collective(StmtKind k) {
  switch (k) {
    case StmtKind::kBarrierBegin:
    case StmtKind::kBarrierEnd:
    case StmtKind::kDoBegin:
    case StmtKind::kDoEnd:
    case StmtKind::kPcaseBegin:
    case StmtKind::kPcaseEnd:
    case StmtKind::kUsect:
    case StmtKind::kCsect:
    case StmtKind::kAskforBegin:
    case StmtKind::kAskforEnd:
    case StmtKind::kSeedwork:
    case StmtKind::kReduce:
    case StmtKind::kJoin:
      return true;
    default:
      return false;
  }
}

/// One lowered translation unit plus everything the rule walk needs from
/// it: source lines for snippets/columns, suppression regions, and the
/// diagnostic file tag ("" = primary unit).
struct UnitState {
  std::string file;         ///< diagnostic provenance; "" = primary unit
  std::string report_name;  ///< real name (report JSON, summaries)
  std::vector<std::string> lines;
  Suppressions suppress;
  ConstructGraph graph;
};

// --- interprocedural effect summaries ---------------------------------------

/// Computes per-routine EffectSummary bottom-up over the whole-program
/// Forcecall graph. Monotone facts (collectives, locks, shared writes,
/// unresolved-call taint) converge by fixpoint iteration; the async
/// full/empty transformer is not monotone under recursion, so every
/// routine on a call-graph cycle is pre-marked async-top (callers drop
/// all async knowledge at the call, then apply any definite states the
/// routine establishes after its last recursive call).
class SummaryBuilder {
 public:
  explicit SummaryBuilder(const std::vector<UnitState>& units)
      : units_(units) {
    for (std::size_t u = 0; u < units_.size(); ++u) {
      const auto& routines = units_[u].graph.routines;
      for (std::size_t r = 0; r < routines.size(); ++r) {
        const std::string& name = routines[r].name;
        if (order_.count(name) != 0) continue;  // first definition wins
        order_.emplace(name, owned_.size());
        owned_.push_back({u, r});
      }
    }
    mark_recursive();
  }

  std::map<std::string, EffectSummary> build() {
    std::map<std::string, EffectSummary> out;
    for (const auto& [name, idx] : order_) {
      EffectSummary s;
      s.routine = name;
      s.unit = units_[owned_[idx].first].report_name;
      s.async_top = recursive_.count(name) != 0;
      out.emplace(name, std::move(s));
    }
    // Fixpoint: the monotone facts form a finite lattice, so iteration
    // bounded by the routine count converges; the bound below is a
    // belt-and-braces guard, after which unstable routines (which a
    // correct premark should have prevented) degrade to the top.
    const std::size_t max_iters = 2 * owned_.size() + 4;
    bool changed = true;
    std::size_t iter = 0;
    while (changed && iter++ < max_iters) {
      changed = false;
      for (const auto& [u, r] : owned_) {
        const Routine& routine = units_[u].graph.routines[r];
        EffectSummary next = summarize(units_[u], routine, out);
        EffectSummary& cur = out[routine.name];
        if (!(next == cur)) {
          cur = std::move(next);
          changed = true;
        }
      }
    }
    if (changed) {
      for (auto& [name, s] : out) s.async_top = true;
    }
    return out;
  }

 private:
  /// Syntactic call edges (resolved names only), used to find routines
  /// that can reach themselves.
  void mark_recursive() {
    std::map<std::string, std::set<std::string>> callees;
    for (const auto& [u, r] : owned_) {
      const Routine& routine = units_[u].graph.routines[r];
      auto& edges = callees[routine.name];
      for (const Stmt& s : routine.stmts) {
        if (s.kind == StmtKind::kForcecall && order_.count(s.name) != 0) {
          edges.insert(s.name);
        }
      }
    }
    for (const auto& [name, direct] : callees) {
      std::set<std::string> seen;
      std::vector<std::string> stack(direct.begin(), direct.end());
      bool reaches_self = direct.count(name) != 0;
      while (!stack.empty() && !reaches_self) {
        const std::string cur = stack.back();
        stack.pop_back();
        if (!seen.insert(cur).second) continue;
        const auto it = callees.find(cur);
        if (it == callees.end()) continue;
        if (it->second.count(name) != 0) reaches_self = true;
        for (const auto& next : it->second) stack.push_back(next);
      }
      if (reaches_self) recursive_.insert(name);
    }
  }

  static void set_async(EffectSummary& s, const std::string& var,
                        AsyncOut out) {
    s.async_out[var] = out;
  }

  EffectSummary summarize(const UnitState& unit, const Routine& r,
                          const std::map<std::string, EffectSummary>& cur) {
    EffectSummary s;
    s.routine = r.name;
    s.unit = unit.report_name;
    s.async_top = recursive_.count(r.name) != 0;
    ControlTracker tracker;
    int region_depth = 0;  // DOALL / Askfor bodies run per-iteration
    for (const Stmt& st : r.stmts) {
      if (st.kind == StmtKind::kComment) continue;
      if (st.kind == StmtKind::kPassthrough) {
        const std::string stripped = strip_code(st.text);
        if (trim(stripped).empty()) continue;
        for (const auto& [name, var] : r.vars) {
          if (var.cls != VarClass::kShared) continue;
          if (!find_writes(stripped, name).empty()) {
            s.shared_writes.insert(name);
          }
        }
        tracker.feed(stripped);
        continue;
      }
      const bool conditional =
          tracker.inside_any() || region_depth > 0;
      if (is_collective(st.kind)) {
        s.may_execute_collective = true;
        if (!tracker.divergent_now()) s.collective_on_straight_path = true;
      }
      tracker.consume_statement();
      switch (st.kind) {
        case StmtKind::kCriticalBegin:
        case StmtKind::kLock:
          if (!st.name.empty()) s.locks_acquired.insert(st.name);
          break;
        case StmtKind::kProduce:
          set_async(s, st.name,
                    conditional ? AsyncOut::kUnknown : AsyncOut::kFull);
          break;
        case StmtKind::kConsume:
        case StmtKind::kVoid:
          set_async(s, st.name,
                    conditional ? AsyncOut::kUnknown : AsyncOut::kEmpty);
          break;
        case StmtKind::kDoBegin:
        case StmtKind::kAskforBegin:
          ++region_depth;
          break;
        case StmtKind::kDoEnd:
        case StmtKind::kAskforEnd:
          if (region_depth > 0) --region_depth;
          break;
        case StmtKind::kForcecall: {
          const auto callee = cur.find(st.name);
          if (callee == cur.end()) {
            // Unresolved: the lattice top. It may execute a collective
            // and do anything to async state; no lock knowledge is
            // invented (R4 under-approximates across unknown callees).
            s.calls_unresolved = true;
            s.async_top = true;
            s.may_execute_collective = true;
            for (auto& [var, out] : s.async_out) out = AsyncOut::kUnknown;
            break;
          }
          const EffectSummary& c = callee->second;
          s.callees.insert(st.name);
          s.may_execute_collective |= c.may_execute_collective;
          if (!tracker.divergent_now() && c.collective_on_straight_path) {
            s.collective_on_straight_path = true;
          }
          s.calls_unresolved |= c.calls_unresolved;
          s.locks_acquired.insert(c.locks_acquired.begin(),
                                  c.locks_acquired.end());
          s.shared_writes.insert(c.shared_writes.begin(),
                                 c.shared_writes.end());
          if (c.async_top) {
            // Everything known so far is stale; states the callee (or
            // this routine, later) establishes definitively still apply.
            s.async_top = true;
            for (auto& [var, out] : s.async_out) out = AsyncOut::kUnknown;
          }
          for (const auto& [var, out] : c.async_out) {
            set_async(s, var,
                      conditional ? AsyncOut::kUnknown : out);
          }
          break;
        }
        default:
          break;
      }
    }
    return s;
  }

  const std::vector<UnitState>& units_;
  std::map<std::string, std::size_t> order_;           // name -> owned_ idx
  std::vector<std::pair<std::size_t, std::size_t>> owned_;  // (unit, routine)
  std::set<std::string> recursive_;
};

class Linter {
 public:
  Linter(const LintOptions& opts, DiagSink& diags,
         const std::vector<UnitState>& units)
      : opts_(opts), diags_(diags), units_(units) {}

  LintResult run() {
    SummaryBuilder builder(units_);
    summaries_ = builder.build();
    for (std::size_t u = 0; u < units_.size(); ++u) {
      cur_unit_ = u;
      for (const Routine& r : units_[u].graph.routines) lint_routine(r);
    }
    scan_process_models();
    report_lock_cycles();
    report_unclosed_suppressions();
    for (std::size_t u = 0; u < units_.size(); ++u) {
      for (const Routine& r : units_[u].graph.routines) {
        const auto it = summaries_.find(r.name);
        if (it != summaries_.end() &&
            it->second.unit == units_[u].report_name &&
            !contains_summary(it->second.routine)) {
          result_.summaries.push_back(it->second);
        }
      }
    }
    return std::move(result_);
  }

 private:
  [[nodiscard]] bool contains_summary(const std::string& routine) const {
    return std::any_of(result_.summaries.begin(), result_.summaries.end(),
                       [&](const EffectSummary& s) {
                         return s.routine == routine;
                       });
  }

  // --- emission -------------------------------------------------------------

  [[nodiscard]] const UnitState& unit() const { return units_[cur_unit_]; }

  [[nodiscard]] std::size_t unit_index_for_file(const std::string& file)
      const {
    for (std::size_t u = 0; u < units_.size(); ++u) {
      if (units_[u].file == file) return u;
    }
    return 0;
  }

  [[nodiscard]] std::string source_line(int line) const {
    const auto& lines = unit().lines;
    if (line < 1 || static_cast<std::size_t>(line) > lines.size()) return "";
    return lines[static_cast<std::size_t>(line) - 1];
  }

  /// Column of the statement's first token in the original source line.
  [[nodiscard]] int stmt_col(int line) const {
    const std::string src = source_line(line);
    for (std::size_t i = 0; i < src.size(); ++i) {
      if (!is_space(src[i])) return static_cast<int>(i) + 1;
    }
    return src.empty() ? 0 : 1;
  }

  void emit(LintRule rule, int line, int col, int length, std::string msg) {
    if (opts_.rules.count(rule) == 0) return;
    if (unit().suppress.suppressed(rule, line)) return;
    const Severity sev = opts_.findings_are_errors ? Severity::kError
                                                   : Severity::kWarning;
    diags_.report_in_file(unit().file, sev, line, col, length,
                          lint_rule_id(rule), std::move(msg),
                          source_line(line));
    ++result_.findings;
  }

  void emit_stmt(LintRule rule, const Stmt& s, std::string msg) {
    const int col = stmt_col(s.line);
    const int length = static_cast<int>(trim(source_line(s.line)).size());
    emit(rule, s.line, col, length, std::move(msg));
  }

  /// Point a finding at the variable name inside the statement's line.
  void emit_at_name(LintRule rule, const Stmt& s, const std::string& name,
                    std::string msg) {
    const std::string src = source_line(s.line);
    std::size_t pos = std::string::npos;
    std::size_t from = 0;
    while ((pos = src.find(name, from)) != std::string::npos) {
      const bool left = pos == 0 || !is_word_char(src[pos - 1]);
      const std::size_t after = pos + name.size();
      const bool right = after >= src.size() || !is_word_char(src[after]);
      if (left && right) break;
      from = pos + 1;
    }
    if (pos == std::string::npos) {
      emit_stmt(rule, s, std::move(msg));
      return;
    }
    emit(rule, s.line, static_cast<int>(pos) + 1,
         static_cast<int>(name.size()), std::move(msg));
  }

  // --- protection helpers ---------------------------------------------------

  [[nodiscard]] bool write_protected_here() const {
    for (const Prot& p : prot_) {
      if (p.kind == ProtKind::kBarrier || p.kind == ProtKind::kCritical ||
          p.kind == ProtKind::kLockHeld) {
        return true;
      }
    }
    return std::any_of(pcase_sect_.begin(), pcase_sect_.end(),
                       [](bool b) { return b; });
  }

  [[nodiscard]] bool inside(ProtKind k) const {
    return std::any_of(prot_.begin(), prot_.end(),
                       [k](const Prot& p) { return p.kind == k; });
  }

  [[nodiscard]] std::vector<std::string> doall_index_vars() const {
    std::vector<std::string> out;
    for (const Prot& p : prot_) {
      if (p.kind != ProtKind::kDoall) continue;
      out.insert(out.end(), p.index_vars.begin(), p.index_vars.end());
    }
    return out;
  }

  void pop_last(ProtKind k) {
    for (auto it = prot_.rbegin(); it != prot_.rend(); ++it) {
      if (it->kind == k) {
        prot_.erase(std::next(it).base());
        return;
      }
    }
  }

  [[nodiscard]] std::vector<std::string> held_locks() const {
    std::vector<std::string> out;
    for (const Prot& p : prot_) {
      if (p.kind == ProtKind::kCritical || p.kind == ProtKind::kLockHeld) {
        out.push_back(p.name);
      }
    }
    return out;
  }

  void acquire_lock(const Stmt& s, ProtKind kind) {
    for (const std::string& outer : held_locks()) {
      result_.lock_graph.add_edge(outer, s.name,
                                  SrcSite{unit().file, s.line});
    }
    prot_.push_back({kind, s.name, {}});
  }

  // --- async protocol (R3) --------------------------------------------------

  [[nodiscard]] bool async_context_unknown() const {
    return inside(ProtKind::kDoall) || inside(ProtKind::kAskfor) ||
           tracker_.inside_any();
  }

  void async_all_unknown() {
    for (auto& [name, st] : async_) st = AsyncState::kUnknown;
  }

  void async_op(const Routine& r, const Stmt& s) {
    const auto var = r.vars.find(s.name);
    if (var == r.vars.end() || var->second.cls != VarClass::kAsync) return;
    if (async_context_unknown()) {
      async_[s.name] = AsyncState::kUnknown;
      return;
    }
    // Declared async vars were pre-seeded in lint_routine.
    AsyncState& st = async_[s.name];
    switch (s.kind) {
      case StmtKind::kProduce:
        if (st == AsyncState::kFull) {
          emit_at_name(LintRule::kR3, s, s.name,
                       "Produce on async variable '" + s.name +
                           "' that is already full on this path - the "
                           "producer blocks forever unless another "
                           "process consumes");
        }
        st = AsyncState::kFull;
        break;
      case StmtKind::kConsume:
        if (st == AsyncState::kEmpty) {
          emit_at_name(LintRule::kR3, s, s.name,
                       "Consume of async variable '" + s.name +
                           "' with no reaching Produce - the consumer "
                           "blocks forever on this path");
        }
        st = AsyncState::kEmpty;
        break;
      case StmtKind::kCopy:
        if (st == AsyncState::kEmpty) {
          emit_at_name(LintRule::kR3, s, s.name,
                       "Copy of async variable '" + s.name +
                           "' with no reaching Produce - the reader "
                           "blocks forever on this path");
        }
        break;
      case StmtKind::kVoid:
        if (st == AsyncState::kEmpty) {
          emit_at_name(LintRule::kR3, s, s.name,
                       "double Void of async variable '" + s.name +
                           "' - it is already empty on this path");
        }
        st = AsyncState::kEmpty;
        break;
      default:
        break;
    }
  }

  /// Applies the callee's async transformer at a Forcecall site - the
  /// interprocedural upgrade over "everything becomes unknown".
  void apply_call_async(const EffectSummary* callee) {
    if (callee == nullptr || callee->async_top) {
      async_all_unknown();
      if (callee == nullptr) return;
    }
    const bool ctx_unknown = async_context_unknown();
    for (const auto& [var, out] : callee->async_out) {
      const auto it = async_.find(var);
      if (it == async_.end()) continue;
      if (ctx_unknown || out == AsyncOut::kUnknown) {
        it->second = AsyncState::kUnknown;
      } else {
        it->second = out == AsyncOut::kFull ? AsyncState::kFull
                                            : AsyncState::kEmpty;
      }
    }
  }

  // --- shared-write rules (R2, R5) ------------------------------------------

  void scan_writes(const Routine& r, const Stmt& s,
                   const std::string& stripped) {
    if (write_protected_here()) return;
    const bool in_doall = inside(ProtKind::kDoall);
    const std::vector<std::string> index_vars = doall_index_vars();
    for (const auto& [name, var] : r.vars) {
      if (var.cls != VarClass::kShared) continue;
      for (const WriteHit& hit : find_writes(stripped, name)) {
        const int col = static_cast<int>(hit.pos) + 1;
        const int len = static_cast<int>(name.size());
        if (!in_doall) {
          emit(LintRule::kR2, s.line, col, len,
               "write to shared variable '" + name +
                   "' outside any critical section, barrier section, "
                   "lock, or Pcase section - every process races on "
                   "this store");
          continue;
        }
        if (!hit.subscripts.empty()) {
          bool exact = false;
          bool offset = false;
          for (const std::string& sub : hit.subscripts) {
            const std::string t = trim(sub);
            if (std::find(index_vars.begin(), index_vars.end(), t) !=
                index_vars.end()) {
              exact = true;
            } else {
              for (const std::string& iv : index_vars) {
                if (contains_word(sub, iv)) offset = true;
              }
            }
          }
          if (exact && !offset) continue;  // partitioned by the index
          if (offset) {
            emit(LintRule::kR5, s.line, col, len,
                 "write to shared array '" + name +
                     "' at an offset of the loop index inside a DOALL "
                     "body - a loop-carried dependence the scheduler is "
                     "free to reorder");
            continue;
          }
          emit(LintRule::kR2, s.line, col, len,
               "write to shared array '" + name +
                   "' whose subscript does not depend on the DOALL index "
                   "- concurrent iterations race on the same element");
          continue;
        }
        if (hit.compound || hit.rhs_reads_target) {
          emit(LintRule::kR5, s.line, col, len,
               "scalar reduction into shared variable '" + name +
                   "' inside a DOALL body without the Reduce statement - "
                   "concurrent iterations lose updates");
        } else {
          emit(LintRule::kR2, s.line, col, len,
               "write to shared variable '" + name +
                   "' inside a DOALL body with no protecting critical "
                   "section or lock");
        }
      }
    }
  }

  // --- the walk -------------------------------------------------------------

  [[nodiscard]] const EffectSummary* summary(const std::string& name) const {
    const auto it = summaries_.find(name);
    return it == summaries_.end() ? nullptr : &it->second;
  }

  void lint_routine(const Routine& r) {
    tracker_ = ControlTracker{};
    prot_.clear();
    pcase_sect_.clear();
    async_.clear();
    for (const auto& [name, var] : r.vars) {
      if (var.cls == VarClass::kAsync) {
        async_[name] = r.is_main ? AsyncState::kEmpty : AsyncState::kUnknown;
      }
    }
    bool join_seen = false;
    bool after_join_reported = false;

    for (const Stmt& s : r.stmts) {
      if (s.kind == StmtKind::kComment) continue;
      if (s.kind == StmtKind::kPassthrough) {
        const std::string stripped = strip_code(s.text);
        if (trim(stripped).empty()) continue;
        if (join_seen && !after_join_reported) {
          after_join_reported = true;
          emit_stmt(LintRule::kR6, s,
                    "statement after Join is unreachable - the force has "
                    "already been joined");
        }
        scan_writes(r, s, stripped);
        if (tracker_.feed(stripped)) async_all_unknown();
        continue;
      }

      // A construct statement.
      if (join_seen && s.kind != StmtKind::kModuleEnd) {
        if (s.kind == StmtKind::kJoin) {
          emit_stmt(LintRule::kR6, s, "duplicate Join - the force is "
                                      "already joined on every path");
        } else if (!after_join_reported) {
          after_join_reported = true;
          emit_stmt(LintRule::kR6, s,
                    "statement after Join is unreachable - the force has "
                    "already been joined");
        }
      }

      // R1: collective on a divergent path. A Forcecall is collective
      // exactly when its callee's summary says a collective may execute
      // inside (unresolved callees stay conservatively collective).
      const EffectSummary* callee =
          s.kind == StmtKind::kForcecall ? summary(s.name) : nullptr;
      bool collective = is_collective(s.kind);
      if (s.kind == StmtKind::kForcecall) {
        collective = callee == nullptr || callee->may_execute_collective;
      }
      if (collective && tracker_.divergent_now()) {
        if (s.kind == StmtKind::kForcecall) {
          emit_stmt(LintRule::kR1,
                    s,
                    callee == nullptr
                        ? "Forcecall '" + s.name +
                              "' on a divergent control path - the callee "
                              "is not statically resolvable and may "
                              "execute a collective construct, so "
                              "processes not taking this branch never "
                              "arrive and the force deadlocks"
                        : "Forcecall '" + s.name +
                              "' on a divergent control path - routine '" +
                              s.name +
                              "' executes a collective construct, so "
                              "processes not taking this branch never "
                              "arrive and the force deadlocks");
        } else {
          emit_stmt(LintRule::kR1, s,
                    "collective construct on a divergent control path - "
                    "processes not taking this branch never arrive and the "
                    "force deadlocks");
        }
      }
      tracker_.consume_statement();

      switch (s.kind) {
        case StmtKind::kBarrierBegin:
          prot_.push_back({ProtKind::kBarrier, "", {}});
          break;
        case StmtKind::kBarrierEnd:
          pop_last(ProtKind::kBarrier);
          break;
        case StmtKind::kCriticalBegin:
          acquire_lock(s, ProtKind::kCritical);
          break;
        case StmtKind::kCriticalEnd:
          pop_last(ProtKind::kCritical);
          break;
        case StmtKind::kLock:
          acquire_lock(s, ProtKind::kLockHeld);
          break;
        case StmtKind::kUnlock:
          for (auto it = prot_.rbegin(); it != prot_.rend(); ++it) {
            if (it->kind == ProtKind::kLockHeld && it->name == s.name) {
              prot_.erase(std::next(it).base());
              break;
            }
          }
          break;
        case StmtKind::kDoBegin:
          prot_.push_back({ProtKind::kDoall, s.name, s.index_vars});
          break;
        case StmtKind::kDoEnd:
          pop_last(ProtKind::kDoall);
          break;
        case StmtKind::kPcaseBegin:
          pcase_sect_.push_back(false);
          break;
        case StmtKind::kUsect:
        case StmtKind::kCsect:
          if (!pcase_sect_.empty()) pcase_sect_.back() = true;
          break;
        case StmtKind::kPcaseEnd:
          if (!pcase_sect_.empty()) pcase_sect_.pop_back();
          break;
        case StmtKind::kAskforBegin:
          prot_.push_back({ProtKind::kAskfor, s.name, {}});
          break;
        case StmtKind::kAskforEnd:
          pop_last(ProtKind::kAskfor);
          break;
        case StmtKind::kProduce:
        case StmtKind::kConsume:
        case StmtKind::kCopy:
        case StmtKind::kVoid:
          async_op(r, s);
          break;
        case StmtKind::kForcecall:
          // R4: locks the callee acquires while the caller holds one are
          // ordered after every held lock - the cross-routine edges.
          if (callee != nullptr) {
            for (const std::string& outer : held_locks()) {
              for (const std::string& inner : callee->locks_acquired) {
                result_.lock_graph.add_edge(
                    outer, inner, SrcSite{unit().file, s.line});
              }
            }
          }
          // R3: apply the callee's async transformer.
          apply_call_async(callee);
          break;
        case StmtKind::kJoin:
          join_seen = true;
          break;
        default:
          break;
      }
    }
  }

  // --- R7: process-model portability ----------------------------------------

  void add_model_violation(const Stmt& s, const std::string& model,
                           const std::string& construct,
                           const std::string& reason) {
    result_.model_violations.push_back(
        {model, construct, unit().file, s.line, reason});
    if (model == opts_.target_process_model) {
      emit_stmt(LintRule::kR7, s,
                reason + " - this program cannot run with --process-model=" +
                    model);
    }
  }

  /// One statement tripping one capability: every process model the
  /// declarative backend matrix (machdep::capability_table) marks
  /// unsupporting gets a matrix entry, with the reason quoted from the
  /// same table the runtime's rejection diagnostics quote - the two can
  /// no longer drift (tests/test_backend_capabilities.cpp proves it).
  void add_capability_violation(const Stmt& s, machdep::Capability cap,
                                const std::string& construct,
                                const std::string& detail) {
    const machdep::CapabilityRow& row = machdep::capability_row(cap);
    for (const machdep::ProcessModel m : machdep::all_process_models()) {
      if (machdep::backend_supports(m, cap)) continue;
      const std::string model = machdep::process_model_name(m);
      std::string reason = construct + " is rejected by the " + model +
                           " process model [capability " +
                           std::string(row.id) + "]: " + row.reason;
      if (!detail.empty()) reason = detail + " - " + reason;
      add_model_violation(s, model, construct, reason);
    }
  }

  void scan_stmts_for_models(const std::vector<Stmt>& stmts) {
    for (const Stmt& s : stmts) {
      switch (s.kind) {
        case StmtKind::kAskforBegin: {
          if (s.args.size() < 3) break;
          const std::string& type = s.args[2];
          if (!map_force_type(type).empty()) break;  // Force scalar: OK
          add_capability_violation(
              s, machdep::Capability::kNonTrivialPayloads, "Askfor payload",
              "Askfor task type '" + type +
                  "' is not provably trivially copyable");
          break;
        }
        case StmtKind::kIsfull:
          add_capability_violation(s, machdep::Capability::kIsfull, "Isfull",
                                   "");
          break;
        default:
          break;
      }
    }
  }

  void scan_process_models() {
    for (std::size_t u = 0; u < units_.size(); ++u) {
      cur_unit_ = u;
      for (const Routine& r : units_[u].graph.routines) {
        scan_stmts_for_models(r.stmts);
      }
      scan_stmts_for_models(units_[u].graph.toplevel);
    }
  }

  // --- program-level reports ------------------------------------------------

  void report_lock_cycles() {
    for (const auto& cycle : result_.lock_graph.cycles()) {
      std::string names;
      for (const auto& n : cycle) {
        if (!names.empty()) names += " -> ";
        names += "'" + n + "'";
      }
      if (cycle.size() == 1) names += " -> '" + cycle[0] + "'";
      const SrcSite site = result_.lock_graph.cycle_site(cycle);
      cur_unit_ = unit_index_for_file(site.file);
      emit(LintRule::kR4, site.line, stmt_col(site.line),
           static_cast<int>(trim(source_line(site.line)).size()),
           "static lock-order cycle: " + names +
               " - a schedule interleaving these acquisition chains "
               "deadlocks (the runtime Sentry reports the same "
               "inversion class)");
    }
  }

  void report_unclosed_suppressions() {
    for (std::size_t u = 0; u < units_.size(); ++u) {
      cur_unit_ = u;
      for (const int line : unit().suppress.unclosed_off_lines()) {
        diags_.report_in_file(
            unit().file, Severity::kWarning, line, stmt_col(line),
            static_cast<int>(trim(source_line(line)).size()),
            kLintUnclosedSuppressionId,
            "'!force$ lint off' region is never closed - the suppressed "
            "rules stay disabled to end of file (add '!force$ lint on')",
            source_line(line));
        ++result_.findings;
      }
    }
  }

  const LintOptions& opts_;
  DiagSink& diags_;
  const std::vector<UnitState>& units_;
  std::size_t cur_unit_ = 0;
  std::map<std::string, EffectSummary> summaries_;
  LintResult result_;

  ControlTracker tracker_;
  std::vector<Prot> prot_;
  std::vector<bool> pcase_sect_;
  std::map<std::string, AsyncState> async_;
};

// --- report JSON ------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_str(const std::string& s) {
  return "\"" + json_escape(s) + "\"";
}

std::string json_str_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_str(items[i]);
  }
  return out + "]";
}

const char* severity_json_name(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

}  // namespace

const char* lint_rule_id(LintRule rule) {
  switch (rule) {
    case LintRule::kR1: return "force-lint-R1";
    case LintRule::kR2: return "force-lint-R2";
    case LintRule::kR3: return "force-lint-R3";
    case LintRule::kR4: return "force-lint-R4";
    case LintRule::kR5: return "force-lint-R5";
    case LintRule::kR6: return "force-lint-R6";
    case LintRule::kR7: return "force-lint-R7";
  }
  return "force-lint";
}

const std::vector<std::string>& lint_process_models() {
  // Derived from the backend layer's fixed model order so the lint matrix
  // and the runtime always enumerate the same axis.
  static const std::vector<std::string> models = [] {
    std::vector<std::string> out;
    for (const machdep::ProcessModel m : machdep::all_process_models()) {
      out.emplace_back(machdep::process_model_name(m));
    }
    return out;
  }();
  return models;
}

bool LintResult::compatible_with(const std::string& model) const {
  return std::none_of(model_violations.begin(), model_violations.end(),
                      [&](const ModelViolation& v) {
                        return v.model == model;
                      });
}

LintOptions parse_lint_spec(const std::string& spec) {
  LintOptions opts;
  std::set<LintRule> selected;
  for (const std::string& raw : split_args(spec)) {
    const std::string tok = to_lower(raw);
    if (tok.empty() || tok == "all" || tok == "w") continue;
    if (tok == "e") {
      opts.findings_are_errors = true;
      continue;
    }
    if (tok.size() == 2 && tok[0] == 'r' && tok[1] >= '1' && tok[1] <= '7') {
      selected.insert(static_cast<LintRule>(tok[1] - '1'));
      continue;
    }
    opts.unknown_tokens.push_back(raw);
  }
  if (!selected.empty()) opts.rules = selected;
  return opts;
}

LintResult run_forcelint(const std::string& source, const LintOptions& opts,
                         DiagSink& diags) {
  return run_forcelint_program({{std::string(), source}}, opts, diags);
}

LintResult run_forcelint_program(const std::vector<LintUnit>& units,
                                 const LintOptions& opts, DiagSink& diags) {
  if (!opts.unknown_tokens.empty()) {
    std::string toks;
    for (const auto& t : opts.unknown_tokens) {
      if (!toks.empty()) toks += ", ";
      toks += "'" + t + "'";
    }
    diags.note(0, "forcelint: ignoring unknown --lint token(s) " + toks +
                      " (expected R1..R7, W, E, all)");
  }
  std::vector<UnitState> states;
  states.reserve(units.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    // Lint analyzes whatever pass 1 can recover; its syntax diagnostics
    // are the translator's to report, so they go to a scratch sink here.
    DiagSink scratch;
    const RewriteResult pass1 = rewrite_force_syntax(units[i].source,
                                                     scratch);
    std::vector<std::string> lines = split_lines(units[i].source);
    states.push_back(UnitState{
        i == 0 ? std::string() : units[i].name, units[i].name, lines,
        Suppressions(lines), build_construct_graph(pass1)});
  }
  Linter linter(opts, diags, states);
  return linter.run();
}

std::string render_lint_report(const std::vector<LintUnit>& units,
                               const LintOptions& opts,
                               const LintResult& result,
                               const DiagSink& diags) {
  const std::string primary = units.empty() ? "" : units[0].name;
  const auto file_of = [&](const std::string& f) {
    return f.empty() ? primary : f;
  };

  std::string out = "{\n";
  out += "  \"schema_version\": " +
         std::to_string(kLintReportSchemaVersion) + ",\n";
  out += "  \"generator\": \"forcelint\",\n";

  std::vector<std::string> unit_names;
  unit_names.reserve(units.size());
  for (const auto& u : units) unit_names.push_back(u.name);
  out += "  \"units\": " + json_str_list(unit_names) + ",\n";

  out += "  \"target_process_model\": " +
         json_str(opts.target_process_model.empty()
                      ? "thread"
                      : opts.target_process_model) +
         ",\n";

  std::vector<std::string> rules;
  for (const LintRule r : opts.rules) {
    rules.push_back(std::string("R") +
                    std::to_string(static_cast<int>(r) + 1));
  }
  out += "  \"rules\": " + json_str_list(rules) + ",\n";
  out += std::string("  \"findings_are_errors\": ") +
         (opts.findings_are_errors ? "true" : "false") + ",\n";

  // Findings: every rule-carrying diagnostic, with file provenance.
  out += "  \"findings\": [";
  bool first = true;
  for (const Diagnostic& d : diags.all()) {
    if (d.rule.empty()) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"rule\": " + json_str(d.rule) +
           ", \"severity\": " + json_str(severity_json_name(d.severity)) +
           ", \"file\": " + json_str(file_of(d.file)) +
           ", \"line\": " + std::to_string(d.line) +
           ", \"col\": " + std::to_string(d.col) +
           ", \"message\": " + json_str(d.message) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";

  // Per-routine effect summaries.
  out += "  \"routines\": [";
  first = true;
  for (const EffectSummary& s : result.summaries) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": " + json_str(s.routine) +
           ", \"unit\": " + json_str(s.unit.empty() ? primary : s.unit) +
           ", \"may_execute_collective\": " +
           (s.may_execute_collective ? "true" : "false") +
           ", \"collective_on_straight_path\": " +
           (s.collective_on_straight_path ? "true" : "false") +
           ", \"calls_unresolved\": " +
           (s.calls_unresolved ? "true" : "false") +
           ", \"async_top\": " + (s.async_top ? "true" : "false");
    out += ", \"locks\": " +
           json_str_list({s.locks_acquired.begin(), s.locks_acquired.end()});
    out += ", \"shared_writes\": " +
           json_str_list({s.shared_writes.begin(), s.shared_writes.end()});
    out += ", \"callees\": " +
           json_str_list({s.callees.begin(), s.callees.end()});
    out += ", \"async\": {";
    bool afirst = true;
    for (const auto& [var, st] : s.async_out) {
      if (!afirst) out += ", ";
      afirst = false;
      out += json_str(var) + ": " + json_str(async_out_name(st));
    }
    out += "}}";
  }
  out += first ? "],\n" : "\n  ],\n";

  // The compatibility matrix: every model, every violation, always.
  out += "  \"models\": [\n";
  const auto& models = lint_process_models();
  for (std::size_t m = 0; m < models.size(); ++m) {
    const std::string& model = models[m];
    out += "    {\"model\": " + json_str(model) + ", \"compatible\": " +
           (result.compatible_with(model) ? "true" : "false") +
           ", \"violations\": [";
    bool vfirst = true;
    for (const ModelViolation& v : result.model_violations) {
      if (v.model != model) continue;
      out += vfirst ? "\n" : ",\n";
      vfirst = false;
      out += "      {\"construct\": " + json_str(v.construct) +
             ", \"file\": " + json_str(file_of(v.file)) +
             ", \"line\": " + std::to_string(v.line) +
             ", \"reason\": " + json_str(v.reason) + "}";
    }
    out += vfirst ? "]}" : "\n    ]}";
    out += m + 1 < models.size() ? ",\n" : "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

}  // namespace force::preproc
