#include "src/compile/compiler.h"

#include <map>
#include <set>

#include "src/runtime/builtins.h"
#include "src/xquery/normalize.h"

namespace xqc {
namespace {

class Compiler {
 public:
  /// Variable scope: maps in-scope FLWOR/typeswitch variables to the tuple
  /// field that carries them (the paper's Clauses|$Var/IN#Var substitution).
  using Scope = std::map<Symbol, Symbol>;

  Result<OpPtr> Compile(const Expr& e, const Scope& scope) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return OpScalar(e.literal);
      case ExprKind::kEmptySeq:
        return OpEmpty();
      case ExprKind::kVarRef: {
        auto it = scope.find(e.name);
        if (it != scope.end()) return OpInField(it->second);
        return OpVar(e.name);  // global / function parameter
      }
      case ExprKind::kSequence: {
        // Fold the n-ary Core sequence into binary Sequence operators.
        if (e.children.empty()) return OpEmpty();
        XQC_ASSIGN_OR_RETURN(OpPtr acc, Compile(*e.children[0], scope));
        for (size_t i = 1; i < e.children.size(); i++) {
          XQC_ASSIGN_OR_RETURN(OpPtr next, Compile(*e.children[i], scope));
          OpPtr seq = MakeOp(OpKind::kSequence);
          seq->inputs = {std::move(acc), std::move(next)};
          acc = std::move(seq);
        }
        return acc;
      }
      case ExprKind::kIf: {
        XQC_ASSIGN_OR_RETURN(OpPtr c, Compile(*e.children[0], scope));
        XQC_ASSIGN_OR_RETURN(OpPtr t, Compile(*e.children[1], scope));
        XQC_ASSIGN_OR_RETURN(OpPtr f, Compile(*e.children[2], scope));
        return OpCond(std::move(t), std::move(f), std::move(c));
      }
      case ExprKind::kFLWOR: {
        // [FLWORExpr]_(IN) => Op0. The tuple stream starts from IN only
        // when the block actually references an in-scope tuple variable;
        // independent blocks (e.g. normalized paths over globals) start
        // from the ([]) table so the unnesting rewritings see them as
        // independent of IN.
        OpPtr start = (in_tuple_context_ && ReferencesScope(e, scope))
                          ? OpIn()
                          : OpEmptyTuples();
        bool saved = in_tuple_context_;
        in_tuple_context_ = true;
        Result<OpPtr> r = CompileFLWOR(e, scope, std::move(start));
        in_tuple_context_ = saved;
        return r;
      }
      case ExprKind::kQuantified: {
        bool saved = in_tuple_context_;
        in_tuple_context_ = true;
        Result<OpPtr> r = CompileQuantified(e, scope);
        in_tuple_context_ = saved;
        return r;
      }
      case ExprKind::kTypeswitch: {
        bool saved = in_tuple_context_;
        in_tuple_context_ = true;
        Result<OpPtr> r = CompileTypeswitch(e, scope);
        in_tuple_context_ = saved;
        return r;
      }
      case ExprKind::kInstanceOf: {
        XQC_ASSIGN_OR_RETURN(OpPtr in, Compile(*e.children[0], scope));
        OpPtr op = MakeOp(OpKind::kTypeMatches);
        op->stype = e.stype;
        op->inputs = {std::move(in)};
        return op;
      }
      case ExprKind::kTreatAs: {
        XQC_ASSIGN_OR_RETURN(OpPtr in, Compile(*e.children[0], scope));
        return OpTypeAssert(e.stype, std::move(in));
      }
      case ExprKind::kCastAs:
      case ExprKind::kCastableAs: {
        XQC_ASSIGN_OR_RETURN(OpPtr in, Compile(*e.children[0], scope));
        OpPtr op = MakeOp(e.kind == ExprKind::kCastAs ? OpKind::kCast
                                                      : OpKind::kCastable);
        op->stype = e.stype;
        op->inputs = {std::move(in)};
        return op;
      }
      case ExprKind::kAxisStep: {
        auto it = scope.find(FsDotVar());
        if (it == scope.end()) {
          return Status::XQueryError("XPDY0002",
                                     "axis step with no context tuple field");
        }
        return OpTreeJoin(e.axis, e.node_test, OpInField(it->second));
      }
      case ExprKind::kFunctionCall: {
        // fn:doc maps to the algebra's Parse I/O operator.
        if (IdOf(e.builtin) == BuiltinId::kDoc) {
          XQC_ASSIGN_OR_RETURN(OpPtr uri, Compile(*e.children[0], scope));
          OpPtr op = MakeOp(OpKind::kParse);
          op->inputs = {std::move(uri)};
          return op;
        }
        std::vector<OpPtr> args;
        args.reserve(e.children.size());
        for (const ExprPtr& a : e.children) {
          XQC_ASSIGN_OR_RETURN(OpPtr p, Compile(*a, scope));
          args.push_back(std::move(p));
        }
        OpPtr call = OpCall(e.name, std::move(args));
        call->builtin = e.builtin;  // a declared function shadows a row
        return call;
      }
      case ExprKind::kCompElement:
      case ExprKind::kCompAttribute:
      case ExprKind::kCompText:
      case ExprKind::kCompComment:
      case ExprKind::kCompPI:
      case ExprKind::kCompDocument:
        return CompileConstructor(e, scope);
      case ExprKind::kValidate: {
        XQC_ASSIGN_OR_RETURN(OpPtr in, Compile(*e.children[0], scope));
        OpPtr op = MakeOp(OpKind::kValidate);
        op->inputs = {std::move(in)};
        return op;
      }
      default:
        return Status::Internal(
            "non-Core expression reached the algebraic compiler");
    }
  }

  bool in_tuple_context_ = false;

 private:
  /// Does the expression reference any variable currently carried in the
  /// tuple stream?
  static bool ReferencesScope(const Expr& e, const Scope& scope) {
    std::set<Symbol> free;
    CollectFreeVars(e, &free);
    for (const auto& [var, field] : scope) {
      if (free.count(var) > 0) return true;
    }
    return false;
  }

  /// Fresh tuple-field name derived from a variable name; strips the fs:
  /// prefix of compiler variables for readable plans.
  Symbol FreshField(Symbol var) {
    std::string base = var.str();
    size_t colon = base.rfind(':');
    if (colon != std::string::npos) base = base.substr(colon + 1);
    std::string name = base;
    int n = 1;
    while (!used_fields_.insert(Symbol(name)).second) {
      name = base + "_" + std::to_string(++n);
    }
    return Symbol(name);
  }

  Result<OpPtr> CompileFLWOR(const Expr& e, Scope scope, OpPtr plan) {
    for (size_t ci = 0; ci < e.clauses.size(); ci++) {
      const Clause& c = e.clauses[ci];
      switch (c.kind) {
        case Clause::Kind::kFor: {
          // (FOR)/(FORAT), Figure 2.
          XQC_ASSIGN_OR_RETURN(OpPtr op1, Compile(*c.expr, scope));
          Symbol field = FreshField(c.var);
          OpPtr item = OpIn();  // [as T]_IN
          if (c.type) item = OpTypeAssert(*c.type, std::move(item));
          OpPtr op3 = OpMapFromItem(
              OpTupleConstruct({field}, {std::move(item)}), std::move(op1));
          if (!c.pos_var.empty()) {
            Symbol pos_field = FreshField(c.pos_var);
            // `at` positions restart per prior binding. A leading for
            // clause uses the paper's (FORAT) rule — MapIndex over the
            // whole (single-tuple-rooted) stream; a non-leading one puts
            // the MapIndex inside the dependent so the numbering restarts
            // with each outer tuple.
            bool after_for = false;
            for (size_t cj = 0; cj < ci; cj++) {
              if (e.clauses[cj].kind == Clause::Kind::kFor) after_for = true;
            }
            if (after_for) {
              op3 = OpMapIndex(pos_field, std::move(op3));
              plan = OpMapConcat(std::move(op3), std::move(plan));
            } else {
              plan = OpMapConcat(std::move(op3), std::move(plan));
              plan = OpMapIndex(pos_field, std::move(plan));
            }
            scope[c.pos_var] = pos_field;
          } else {
            plan = OpMapConcat(std::move(op3), std::move(plan));
          }
          scope[c.var] = field;
          break;
        }
        case Clause::Kind::kLet: {
          // (LET), Figure 2.
          XQC_ASSIGN_OR_RETURN(OpPtr op1, Compile(*c.expr, scope));
          if (c.type) op1 = OpTypeAssert(*c.type, std::move(op1));
          Symbol field = FreshField(c.var);
          plan = OpMapConcat(OpTupleConstruct({field}, {std::move(op1)}),
                             std::move(plan));
          scope[c.var] = field;
          break;
        }
        case Clause::Kind::kWhere: {
          // (WHERE), Figure 2.
          XQC_ASSIGN_OR_RETURN(OpPtr pred, Compile(*c.expr, scope));
          plan = OpSelect(std::move(pred), std::move(plan));
          break;
        }
        case Clause::Kind::kOrderBy: {
          // (ORDERBY), Figure 2.
          OpPtr ob = MakeOp(OpKind::kOrderBy);
          for (const Clause::OrderSpec& s : c.specs) {
            OrderSpecOp spec;
            XQC_ASSIGN_OR_RETURN(spec.key, Compile(*s.key, scope));
            spec.descending = s.descending;
            spec.empty_greatest = s.empty_greatest;
            ob->specs.push_back(std::move(spec));
          }
          ob->inputs = {std::move(plan)};
          plan = std::move(ob);
          break;
        }
      }
    }
    XQC_ASSIGN_OR_RETURN(OpPtr ret, Compile(*e.ret, scope));
    return OpMapToItem(std::move(ret), std::move(plan));
  }

  Result<OpPtr> CompileQuantified(const Expr& e, Scope scope) {
    OpPtr plan = OpIn();
    for (const Clause& c : e.clauses) {
      XQC_ASSIGN_OR_RETURN(OpPtr op1, Compile(*c.expr, scope));
      Symbol field = FreshField(c.var);
      OpPtr item = OpIn();
      if (c.type) item = OpTypeAssert(*c.type, std::move(item));
      plan = OpMapConcat(
          OpMapFromItem(OpTupleConstruct({field}, {std::move(item)}),
                        std::move(op1)),
          std::move(plan));
      scope[c.var] = field;
    }
    XQC_ASSIGN_OR_RETURN(OpPtr sat, Compile(*e.ret, scope));
    OpPtr out = MakeOp(e.quant == QuantKind::kSome ? OpKind::kMapSome
                                                   : OpKind::kMapEvery);
    out->deps = {std::move(sat)};
    out->inputs = {std::move(plan)};
    return out;
  }

  Result<OpPtr> CompileTypeswitch(const Expr& e, Scope scope) {
    // Figure 3: input bound to a common tuple field, cases become a chain
    // of Cond over TypeMatches, evaluated over ([x:Op0] ++ IN).
    XQC_ASSIGN_OR_RETURN(OpPtr input, Compile(*e.children[0], scope));
    Symbol field = FreshField(e.name.empty() ? Symbol("ts") : e.name);
    scope[e.name] = field;
    for (const TypeswitchCase& c : e.cases) {
      if (!c.var.empty()) scope[c.var] = field;
    }

    // Build the Cond chain from the last (default) case backwards.
    OpPtr chain;
    for (auto it = e.cases.rbegin(); it != e.cases.rend(); ++it) {
      XQC_ASSIGN_OR_RETURN(OpPtr body, Compile(*it->body, scope));
      if (it->is_default) {
        chain = std::move(body);
        continue;
      }
      OpPtr match = MakeOp(OpKind::kTypeMatches);
      match->stype = it->type;
      match->inputs = {OpInField(field)};
      chain = OpCond(std::move(body), std::move(chain), std::move(match));
    }

    OpPtr bind = MakeOp(OpKind::kTupleConcat);
    bind->inputs = {OpTupleConstruct({field}, {std::move(input)}), OpIn()};
    return OpMapToItem(std::move(chain), std::move(bind));
  }

  Result<OpPtr> CompileConstructor(const Expr& e, const Scope& scope) {
    OpPtr content;
    for (const ExprPtr& c : e.children) {
      XQC_ASSIGN_OR_RETURN(OpPtr p, Compile(*c, scope));
      if (content == nullptr) {
        content = std::move(p);
      } else {
        OpPtr seq = MakeOp(OpKind::kSequence);
        seq->inputs = {std::move(content), std::move(p)};
        content = std::move(seq);
      }
    }
    if (content == nullptr) content = OpEmpty();

    OpKind k;
    switch (e.kind) {
      case ExprKind::kCompElement: k = OpKind::kElement; break;
      case ExprKind::kCompAttribute: k = OpKind::kAttribute; break;
      case ExprKind::kCompText: k = OpKind::kText; break;
      case ExprKind::kCompComment: k = OpKind::kComment; break;
      case ExprKind::kCompPI: k = OpKind::kPI; break;
      default: k = OpKind::kDocumentNode; break;
    }
    OpPtr op = MakeOp(k);
    op->name = e.name;
    op->inputs = {std::move(content)};
    if (e.name_expr != nullptr) {
      XQC_ASSIGN_OR_RETURN(OpPtr np, Compile(*e.name_expr, scope));
      op->inputs.push_back(std::move(np));  // computed constructor name
    }
    return op;
  }

  std::set<Symbol> used_fields_;
};

}  // namespace

Result<CompiledQuery> CompileQuery(const Query& core) {
  CompiledQuery out;
  for (const FunctionDecl& f : core.functions) {
    Compiler c;
    CompiledFunction cf;
    cf.name = f.name;
    for (const auto& [pname, ptype] : f.params) {
      cf.params.push_back(pname);
      cf.param_types.push_back(ptype);
    }
    cf.return_type = f.return_type;
    XQC_ASSIGN_OR_RETURN(cf.plan, c.Compile(*f.body, {}));
    out.functions.emplace(FunctionKey{f.name, f.params.size()}, std::move(cf));
  }
  for (const VarDecl& v : core.variables) {
    if (v.expr == nullptr) {
      out.globals.emplace_back(v.name, nullptr);  // external
      continue;
    }
    Compiler c;
    XQC_ASSIGN_OR_RETURN(OpPtr plan, c.Compile(*v.expr, {}));
    if (v.type) plan = OpTypeAssert(*v.type, std::move(plan));
    out.globals.emplace_back(v.name, std::move(plan));
  }
  Compiler c;
  XQC_ASSIGN_OR_RETURN(out.plan, c.Compile(*core.body, {}));
  return out;
}

Result<OpPtr> CompileExpr(const ExprPtr& core) {
  Compiler c;
  return c.Compile(*core, {});
}

}  // namespace xqc
