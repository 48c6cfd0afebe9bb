#include "preproc/machmacros.hpp"

#include <algorithm>

#include "machdep/machine.hpp"
#include "preproc/textutil.hpp"
#include "util/check.hpp"

namespace force::preproc {

std::string VarInfo::full_cpp_type() const {
  std::string t = cpp_type;
  // Fortran dimensions nest right-to-left: X(10,20) is 10 rows of 20.
  for (auto it = dims.rbegin(); it != dims.rend(); ++it) {
    t = "std::array<" + t + ", " + *it + ">";
  }
  return t;
}

std::vector<VarInfo> ModuleInfo::shared_variables() const {
  std::vector<VarInfo> out;
  for (const auto& v : variables) {
    if (v.cls == 's') out.push_back(v);
  }
  return out;
}

ModuleInfo* TranslateContext::current() {
  if (current_module < 0 ||
      current_module >= static_cast<int>(modules.size())) {
    return nullptr;
  }
  return &modules[static_cast<std::size_t>(current_module)];
}

std::string TranslateContext::indent() const {
  return std::string(2 * block_stack.size(), ' ');
}

void TranslateContext::record_var(VarInfo v, int line, DiagSink& diags) {
  ModuleInfo* m = current();
  if (m == nullptr) {
    diags.error(line, "declaration outside a Force module");
    return;
  }
  const bool dup = std::any_of(
      m->variables.begin(), m->variables.end(),
      [&](const VarInfo& existing) { return existing.name == v.name; });
  if (dup) {
    diags.error(line, "duplicate declaration of " + v.name);
    return;
  }
  m->variables.push_back(std::move(v));
}

std::string map_force_type(const std::string& force_type) {
  const std::string t = to_lower(trim(force_type));
  if (t == "integer") return "std::int64_t";
  if (t == "real") return "double";
  if (t == "double precision" || t == "double") return "double";
  if (t == "logical") return "bool";
  return "";
}

namespace {

using Args = std::vector<std::string>;

/// Builds a VarInfo from (type, name, dims...) macro arguments.
bool parse_var(const Args& args, char cls, VarInfo* out, int line,
               DiagSink& diags) {
  if (args.size() < 2) {
    diags.error(line, "declaration macro needs (type, name, ...)");
    return false;
  }
  out->force_type = to_lower(args[0]);
  out->cpp_type = map_force_type(args[0]);
  out->name = args[1];
  out->dims.assign(args.begin() + 2, args.end());
  out->cls = cls;
  if (out->cpp_type.empty()) {
    diags.error(line, "unknown Force type: " + args[0]);
    return false;
  }
  return true;
}

}  // namespace

void install_statement_macros(MacroProcessor& mp, TranslateContext& ctx) {
  auto* c = &ctx;

  // --- program structure ----------------------------------------------------

  mp.define_native("force_main", [c](const Args& args, int line,
                                     DiagSink& diags)
                                     -> std::vector<std::string> {
    if (args.size() != 1 || !is_identifier(args[0])) {
      diags.error(line, "Force needs a program name");
      return {};
    }
    if (c->main_seen) {
      diags.error(line, "second Force main program");
      return {};
    }
    c->main_seen = true;
    c->modules.push_back({args[0], /*is_main=*/true, {}});
    c->current_module = static_cast<int>(c->modules.size()) - 1;
    std::vector<std::string> out{
        "// Force main program " + args[0],
        "static void " + args[0] + "_body(force::core::Ctx& ctx) {",
    };
    c->block_stack.push_back("module");
    out.push_back(c->indent() + "(void)ctx;");
    return out;
  });

  mp.define_native("forcesub", [c](const Args& args, int line,
                                   DiagSink& diags)
                                   -> std::vector<std::string> {
    if (args.size() != 1 || !is_identifier(args[0])) {
      diags.error(line, "Forcesub needs a subroutine name");
      return {};
    }
    if (c->current_module >= 0) {
      diags.error(line, "Forcesub may not be nested in another module");
      return {};
    }
    c->modules.push_back({args[0], /*is_main=*/false, {}});
    c->current_module = static_cast<int>(c->modules.size()) - 1;
    std::vector<std::string> out{
        "// Force parallel subroutine " + args[0] +
            " (executed by all processes concurrently)",
        "static void " + args[0] + "_body(force::core::Ctx& ctx) {",
    };
    c->block_stack.push_back("module");
    out.push_back(c->indent() + "(void)ctx;");
    return out;
  });

  mp.define_native("end_forcesub", [c](const Args&, int line,
                                       DiagSink& diags)
                                       -> std::vector<std::string> {
    ModuleInfo* m = c->current();
    if (m == nullptr || m->is_main) {
      diags.error(line, "End Forcesub outside a Forcesub");
      return {};
    }
    if (c->block_stack.empty() || c->block_stack.back() != "module") {
      diags.error(line, "End Forcesub with an open construct");
      return {};
    }
    c->block_stack.pop_back();
    c->current_module = -1;
    return {"}", ""};
  });

  mp.define_native("join", [c](const Args&, int line, DiagSink& diags)
                               -> std::vector<std::string> {
    ModuleInfo* m = c->current();
    if (m == nullptr || !m->is_main) {
      diags.error(line, "Join belongs at the end of the Force main program");
      return {};
    }
    if (c->block_stack.empty() || c->block_stack.back() != "module") {
      diags.error(line, "Join with an open construct");
      return {};
    }
    c->block_stack.pop_back();
    c->current_module = -1;
    c->join_seen = true;
    return {"  // Join: the driver joins the force when the body returns.",
            "}", ""};
  });

  mp.define_native("externf", [c](const Args& args, int line,
                                  DiagSink& diags)
                                  -> std::vector<std::string> {
    if (args.size() != 1 || !is_identifier(args[0])) {
      diags.error(line, "Externf needs a subroutine name");
      return {};
    }
    c->externfs.push_back(args[0]);
    return {c->indent() + "// Externf " + args[0] +
            ": startup linkage generated in the driver"};
  });

  mp.define_native("forcecall", [c](const Args& args, int line,
                                    DiagSink& diags)
                                    -> std::vector<std::string> {
    if (args.size() != 1 || !is_identifier(args[0])) {
      diags.error(line, "Forcecall needs a subroutine name");
      return {};
    }
    return {c->indent() + "ctx.call(\"" + args[0] + "\");"};
  });

  mp.define_native("end_declarations",
                   [c](const Args&, int, DiagSink&) -> std::vector<std::string> {
                     return {c->indent() + "// end of declarations"};
                   });

  // --- declarations (expand into the machine-dependent layer) ---------------

  mp.define_native("shared_decl", [c](const Args& args, int line,
                                      DiagSink& diags)
                                      -> std::vector<std::string> {
    VarInfo v;
    if (!parse_var(args, 's', &v, line, diags)) return {};
    c->record_var(v, line, diags);
    return {c->indent() + "@md_shared_bind(" + v.full_cpp_type() + ", " +
            v.name + ")"};
  });

  mp.define_native("private_decl", [c](const Args& args, int line,
                                       DiagSink& diags)
                                       -> std::vector<std::string> {
    VarInfo v;
    if (!parse_var(args, 'p', &v, line, diags)) return {};
    c->record_var(v, line, diags);
    return {c->indent() + "@md_private_bind(" + v.full_cpp_type() + ", " +
            v.name + ")"};
  });

  mp.define_native("async_decl", [c](const Args& args, int line,
                                     DiagSink& diags)
                                     -> std::vector<std::string> {
    VarInfo v;
    if (!parse_var(args, 'a', &v, line, diags)) return {};
    if (!v.dims.empty()) {
      diags.error(line, "async arrays are not supported in the dialect; "
                        "declare several async scalars");
      return {};
    }
    c->record_var(v, line, diags);
    return {c->indent() + "@md_async_bind(" + v.cpp_type + ", " + v.name +
            ")"};
  });

  // --- synchronization -------------------------------------------------------

  mp.define_native("barrier_begin", [c](const Args&, int, DiagSink&)
                                        -> std::vector<std::string> {
    std::vector<std::string> out{c->indent() + "ctx.barrier([&] {"};
    c->block_stack.push_back("barrier");
    return out;
  });

  mp.define_native("barrier_end", [c](const Args&, int line, DiagSink& diags)
                                      -> std::vector<std::string> {
    if (c->block_stack.empty() || c->block_stack.back() != "barrier") {
      diags.error(line, "End barrier without Barrier");
      return {};
    }
    c->block_stack.pop_back();
    return {c->indent() + "});"};
  });

  mp.define_native("critical_begin", [c](const Args& args, int line,
                                         DiagSink& diags)
                                         -> std::vector<std::string> {
    if (args.size() != 1 || !is_identifier(args[0])) {
      diags.error(line, "Critical needs a lock name");
      return {};
    }
    std::vector<std::string> out{c->indent() +
                                 "ctx.critical(FORCE_SITE_TAGGED(\"" +
                                 args[0] + "\"), [&] {"};
    c->block_stack.push_back("critical");
    return out;
  });

  mp.define_native("critical_end", [c](const Args&, int line,
                                       DiagSink& diags)
                                       -> std::vector<std::string> {
    if (c->block_stack.empty() || c->block_stack.back() != "critical") {
      diags.error(line, "End critical without Critical");
      return {};
    }
    c->block_stack.pop_back();
    return {c->indent() + "});"};
  });

  // --- work distribution -----------------------------------------------------

  auto do_begin = [c](const std::string& runtime_call, const Args& args,
                      int line, DiagSink& diags,
                      bool sited) -> std::vector<std::string> {
    if (args.size() != 5) {
      diags.error(line, "DO macro needs (label, var, start, last, incr)");
      return {};
    }
    const std::string& label = args[0];
    const std::string& var = args[1];
    std::string head = c->indent() + "ctx." + runtime_call + "(";
    if (sited) head += "FORCE_SITE_TAGGED(\"L" + label + "\"), ";
    head += "(" + args[2] + "), (" + args[3] + "), (" + args[4] +
            "), [&](std::int64_t " + var + ") {";
    c->block_stack.push_back("do:" + label);
    return {head};
  };

  auto do_end = [c](const std::string& kind, const Args& args, int line,
                    DiagSink& diags) -> std::vector<std::string> {
    if (args.size() != 1) {
      diags.error(line, "End DO macro needs (label)");
      return {};
    }
    if (c->block_stack.empty() ||
        c->block_stack.back() != "do:" + args[0]) {
      diags.error(line, "mismatched End " + kind + " DO label " + args[0]);
      return {};
    }
    c->block_stack.pop_back();
    return {c->indent() + "});"};
  };

  auto do2_begin = [c](const std::string& runtime_call, const Args& args,
                       int line, DiagSink& diags,
                       bool sited) -> std::vector<std::string> {
    if (args.size() != 9) {
      diags.error(line, "DO2 macro needs (label, v,a,b,c, w,d,e,f)");
      return {};
    }
    const std::string& label = args[0];
    std::string head = c->indent() + "ctx." + runtime_call + "(";
    if (sited) head += "FORCE_SITE_TAGGED(\"L" + label + "\"), ";
    head += "(" + args[2] + "), (" + args[3] + "), (" + args[4] + "), (" +
            args[6] + "), (" + args[7] + "), (" + args[8] +
            "), [&](std::int64_t " + args[1] + ", std::int64_t " + args[5] +
            ") {";
    c->block_stack.push_back("do:" + label);
    return {head};
  };

  mp.define_native("presched_do2",
                   [do2_begin](const Args& args, int line, DiagSink& diags) {
                     return do2_begin("presched_do2", args, line, diags,
                                      false);
                   });
  mp.define_native("end_presched_do2",
                   [do_end](const Args& args, int line, DiagSink& diags) {
                     return do_end("Presched", args, line, diags);
                   });
  mp.define_native("selfsched_do2",
                   [do2_begin](const Args& args, int line, DiagSink& diags) {
                     return do2_begin("selfsched_do2", args, line, diags,
                                      true);
                   });
  mp.define_native("end_selfsched_do2",
                   [do_end](const Args& args, int line, DiagSink& diags) {
                     return do_end("Selfsched", args, line, diags);
                   });
  mp.define_native("guided_do",
                   [do_begin](const Args& args, int line, DiagSink& diags) {
                     return do_begin("guided_do", args, line, diags, true);
                   });
  mp.define_native("end_guided_do",
                   [do_end](const Args& args, int line, DiagSink& diags) {
                     return do_end("Guided", args, line, diags);
                   });
  mp.define_native("presched_do",
                   [do_begin](const Args& args, int line, DiagSink& diags) {
                     return do_begin("presched_do", args, line, diags, false);
                   });
  mp.define_native("end_presched_do",
                   [do_end](const Args& args, int line, DiagSink& diags) {
                     return do_end("Presched", args, line, diags);
                   });
  mp.define_native("selfsched_do",
                   [do_begin](const Args& args, int line, DiagSink& diags) {
                     return do_begin("selfsched_do", args, line, diags, true);
                   });
  mp.define_native("end_selfsched_do",
                   [do_end](const Args& args, int line, DiagSink& diags) {
                     return do_end("Selfsched", args, line, diags);
                   });

  // --- pcase -------------------------------------------------------------------

  mp.define_native("pcase_begin", [c](const Args& args, int line,
                                      DiagSink& diags)
                                      -> std::vector<std::string> {
    if (args.size() != 1 ||
        (args[0] != "presched" && args[0] != "selfsched")) {
      diags.error(line, "pcase_begin needs presched|selfsched");
      return {};
    }
    c->pcase_mode = args[0];
    c->pcase_sect_open = false;
    std::vector<std::string> out{
        c->indent() + "{",
        c->indent() + "  auto pcase__ = ctx.pcase(FORCE_SITE);"};
    c->block_stack.push_back("pcase");
    return out;
  });

  auto close_sect = [c]() -> std::vector<std::string> {
    if (!c->pcase_sect_open) return {};
    c->pcase_sect_open = false;
    std::vector<std::string> out;
    // The sect lambda opened one extra indent level.
    out.push_back(c->indent() + "});");
    return out;
  };

  mp.define_native("usect", [c, close_sect](const Args&, int line,
                                            DiagSink& diags)
                                            -> std::vector<std::string> {
    if (c->block_stack.empty() || c->block_stack.back() != "pcase") {
      diags.error(line, "Usect outside Pcase");
      return {};
    }
    auto out = close_sect();
    out.push_back(c->indent() + "pcase__.sect([&] {");
    c->pcase_sect_open = true;
    return out;
  });

  mp.define_native("csect", [c, close_sect](const Args& args, int line,
                                            DiagSink& diags)
                                            -> std::vector<std::string> {
    if (c->block_stack.empty() || c->block_stack.back() != "pcase") {
      diags.error(line, "Csect outside Pcase");
      return {};
    }
    if (args.empty()) {
      diags.error(line, "Csect needs a condition");
      return {};
    }
    std::string cond;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i) cond += ", ";
      cond += args[i];
    }
    auto out = close_sect();
    out.push_back(c->indent() + "pcase__.sect_if((" + cond + "), [&] {");
    c->pcase_sect_open = true;
    return out;
  });

  mp.define_native("pcase_end", [c, close_sect](const Args&, int line,
                                                DiagSink& diags)
                                                -> std::vector<std::string> {
    if (c->block_stack.empty() || c->block_stack.back() != "pcase") {
      diags.error(line, "End pcase without Pcase");
      return {};
    }
    auto out = close_sect();
    const std::string run = c->pcase_mode == "selfsched"
                                ? "pcase__.run_selfsched();"
                                : "pcase__.run_presched();";
    out.push_back(c->indent() + "  " + run);
    c->block_stack.pop_back();
    out.push_back(c->indent() + "}");
    return out;
  });

  // --- askfor (paper §3.3, [LO83]) ---------------------------------------------

  mp.define_native("askfor_begin", [c](const Args& args, int line,
                                       DiagSink& diags)
                                       -> std::vector<std::string> {
    if (args.size() != 3 || !is_identifier(args[1])) {
      diags.error(line, "askfor needs (label, var, type)");
      return {};
    }
    const std::string cpp_type = map_force_type(args[2]);
    if (cpp_type.empty()) {
      diags.error(line, "unknown Askfor task type: " + args[2]);
      return {};
    }
    const std::string& label = args[0];
    std::vector<std::string> out{
        c->indent() + "{",
        c->indent() + "  auto& askfor__ = ctx.askfor_named<" + cpp_type +
            ">(\"L" + label + "\");",
        c->indent() + "  askfor__.work([&](" + cpp_type + "& " + args[1] +
            ", force::core::Askfor<" + cpp_type + ">& askfor_self__) {",
    };
    c->block_stack.push_back("askfor:" + label);
    return out;
  });

  mp.define_native("end_askfor", [c](const Args& args, int line,
                                     DiagSink& diags)
                                     -> std::vector<std::string> {
    if (args.size() != 1 || c->block_stack.empty() ||
        c->block_stack.back() != "askfor:" + args[0]) {
      diags.error(line, "mismatched End Askfor label");
      return {};
    }
    c->block_stack.pop_back();
    return {c->indent() + "  });", c->indent() + "}"};
  });

  mp.define_native("seedwork", [c](const Args& args, int line,
                                   DiagSink& diags)
                                   -> std::vector<std::string> {
    if (args.size() < 2) {
      diags.error(line, "seedwork needs (label, expression)");
      return {};
    }
    std::string expr;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (i > 1) expr += ", ";
      expr += args[i];
    }
    // The monitor's task type comes from the matching Askfor block,
    // collected in a pre-scan (Seedwork usually precedes it textually).
    const auto it = c->askfor_types.find("L" + args[0]);
    if (it == c->askfor_types.end()) {
      diags.error(line, "Seedwork label " + args[0] +
                            " has no Askfor block in this unit");
      return {};
    }
    return {c->indent() + "if (ctx.leader()) {",
            c->indent() + "  ctx.askfor_named<" + it->second + ">(\"L" +
                args[0] + "\").put(" + expr + ");",
            c->indent() + "}",
            c->indent() + "ctx.barrier();  // all seeds visible before work"};
  });

  mp.define_native("putwork", [c](const Args& args, int line,
                                  DiagSink& diags)
                                  -> std::vector<std::string> {
    if (args.empty()) {
      diags.error(line, "putwork needs an expression");
      return {};
    }
    bool inside = false;
    for (const auto& b : c->block_stack) {
      if (b.rfind("askfor:", 0) == 0) inside = true;
    }
    if (!inside) {
      diags.error(line, "Putwork is only valid inside an Askfor block");
      return {};
    }
    std::string expr;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i) expr += ", ";
      expr += args[i];
    }
    return {c->indent() + "askfor_self__.put(" + expr + ");"};
  });

  mp.define_native("probend", [c](const Args&, int line, DiagSink& diags)
                                  -> std::vector<std::string> {
    bool inside = false;
    for (const auto& b : c->block_stack) {
      if (b.rfind("askfor:", 0) == 0) inside = true;
    }
    if (!inside) {
      diags.error(line, "Probend is only valid inside an Askfor block");
      return {};
    }
    return {c->indent() + "askfor_self__.probend();"};
  });

  // --- raw locks (the paper's low-level lock macros as statements) ------------

  mp.define_native("rawlock", [c](const Args& args, int line, DiagSink& diags)
                                  -> std::vector<std::string> {
    if (args.size() != 1 || !is_identifier(args[0])) {
      diags.error(line, "Lock needs a lock name");
      return {};
    }
    return {c->indent() + "ctx.named_lock(\"" + args[0] + "\").acquire();"};
  });
  mp.define_native("rawunlock", [c](const Args& args, int line,
                                    DiagSink& diags)
                                    -> std::vector<std::string> {
    if (args.size() != 1 || !is_identifier(args[0])) {
      diags.error(line, "Unlock needs a lock name");
      return {};
    }
    return {c->indent() + "ctx.named_lock(\"" + args[0] + "\").release();"};
  });

  // --- reductions (extension; uses the stored declarations) -------------------

  mp.define_native("reduce_stmt", [c](const Args& args, int line,
                                      DiagSink& diags)
                                      -> std::vector<std::string> {
    if (args.size() < 3) {
      diags.error(line, "reduce needs (target, op, expr)");
      return {};
    }
    const std::string& target = args[0];
    const std::string& op = args[1];
    std::string expr;
    for (std::size_t i = 2; i < args.size(); ++i) {
      if (i > 2) expr += ", ";
      expr += args[i];
    }
    // "Storing and retrieving definitions": the payload type comes from
    // the declaration the statement macros recorded earlier.
    ModuleInfo* m = c->current();
    if (m == nullptr) {
      diags.error(line, "Reduce outside a Force module");
      return {};
    }
    std::string cpp_type;
    for (const auto& v : m->variables) {
      if (v.name == target) {
        if (v.cls != 's' || !v.dims.empty()) {
          diags.error(line, "Reduce target must be a shared scalar: " + target);
          return {};
        }
        cpp_type = v.cpp_type;
      }
    }
    if (cpp_type.empty()) {
      diags.error(line, "Reduce target not declared: " + target);
      return {};
    }
    std::string combine;
    if (op == "+") {
      combine = "return a + b;";
    } else if (op == "*") {
      combine = "return a * b;";
    } else if (to_lower(op) == "max") {
      combine = "return a > b ? a : b;";
    } else if (to_lower(op) == "min") {
      combine = "return a < b ? a : b;";
    } else {
      diags.error(line, "Reduce op must be one of + * max min, got " + op);
      return {};
    }
    return {c->indent() + "ctx.reduce_into<" + cpp_type +
            ">(FORCE_SITE_TAGGED(\"R" + target + "\"), (" + expr + "), " +
            target + ", [](" + cpp_type + " a, " + cpp_type + " b) { " +
            combine + " });"};
  });

  // --- async accesses ---------------------------------------------------------

  mp.define_native("produce", [c](const Args& args, int line,
                                  DiagSink& diags)
                                  -> std::vector<std::string> {
    if (args.size() < 2) {
      diags.error(line, "produce needs (var, expression)");
      return {};
    }
    std::string expr;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (i > 1) expr += ", ";
      expr += args[i];
    }
    return {c->indent() + args[0] + ".produce(" + expr + ");"};
  });
  mp.define_native("consume", [c](const Args& args, int line,
                                  DiagSink& diags)
                                  -> std::vector<std::string> {
    if (args.size() != 2) {
      diags.error(line, "consume needs (var, target)");
      return {};
    }
    return {c->indent() + args[1] + " = " + args[0] + ".consume();"};
  });
  mp.define_native("copyasync", [c](const Args& args, int line,
                                    DiagSink& diags)
                                    -> std::vector<std::string> {
    if (args.size() != 2) {
      diags.error(line, "copy needs (var, target)");
      return {};
    }
    return {c->indent() + args[1] + " = " + args[0] + ".copy();"};
  });
  mp.define_native("voidasync", [c](const Args& args, int line,
                                    DiagSink& diags)
                                    -> std::vector<std::string> {
    if (args.size() != 1) {
      diags.error(line, "void needs (var)");
      return {};
    }
    return {c->indent() + args[0] + ".void_state();"};
  });
  mp.define_native("isfull", [c](const Args& args, int line,
                                 DiagSink& diags)
                                 -> std::vector<std::string> {
    if (args.size() != 2) {
      diags.error(line, "isfull needs (var, target)");
      return {};
    }
    return {c->indent() + args[1] + " = " + args[0] + ".is_full();"};
  });
}

void install_machine_macros(MacroProcessor& mp, TranslateContext& ctx,
                            const std::string& machine) {
  const machdep::MachineSpec& spec = machdep::machine_spec(machine);
  ctx.machine = machine;
  ctx.needs_startup =
      spec.sharing != machdep::SharingStrategy::kCompileTime;

  // The machine-dependent lower layer: everything the paper lists in §4.1
  // that shows up in generated code. The *same* statement macros above
  // expand onto these for every machine; only these definitions change in
  // a port.
  switch (spec.sharing) {
    case machdep::SharingStrategy::kCompileTime:
      // HEP / Flex-32 / Cray-2: the preprocessor "simply strips off the
      // word shared and places the variable in COMMON".
      mp.define("md_shared_bind",
                "auto& $2 = ctx.shared<$1>(\"$2\");  // COMMON /$2/");
      break;
    case machdep::SharingStrategy::kLinkTime:
      // Sequent: names resolved through the startup-routine protocol; the
      // driver registers the startup routines generated below.
      mp.define("md_shared_bind",
                "auto& $2 = ctx.shared<$1>(\"$2\");  "
                "// link-time shared (declared by the startup routine)");
      break;
    case machdep::SharingStrategy::kRuntimePadded:
    case machdep::SharingStrategy::kPageAlignedStart:
      // Encore / Alliant: placed into padded shared pages at run time.
      mp.define("md_shared_bind",
                "auto& $2 = ctx.shared<$1>(\"$2\");  "
                "// run-time shared pages (padded)");
      break;
  }

  if (spec.process_model == machdep::ProcessModelKind::kForkSharedData) {
    mp.define("md_private_bind",
              "$1 $2{};  // private (stack region: data segments are "
              "shared on this machine)");
  } else {
    mp.define("md_private_bind", "$1 $2{};  // private to this process");
  }

  // The runtime's gate rule (ForceEnvironment::new_full_empty_gate): the
  // HEP's tagged cell, the cell word on an atomic-RMW machine whose locks
  // are unbudgeted, the E/F pair everywhere else.
  if (spec.hardware_full_empty) {
    mp.define("md_async_bind",
              "auto& $2 = ctx.async_named<$1>(\"$2\");  "
              "// hardware full/empty tagged cell");
  } else if (machdep::atomic_full_empty(spec)) {
    mp.define("md_async_bind",
              "auto& $2 = ctx.async_named<$1>(\"$2\");  "
              "// full/empty cell word (atomic RMW)");
  } else {
    mp.define("md_async_bind",
              "auto& $2 = ctx.async_named<$1>(\"$2\");  "
              "// full/empty built from two generic locks (E/F)");
  }
}

}  // namespace force::preproc
