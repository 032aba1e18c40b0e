#include "src/xquery/normalize.h"

#include <unordered_set>

#include "src/runtime/builtins.h"

namespace xqc {
namespace {

ExprPtr CloneShallow(const Expr& e) { return std::make_shared<Expr>(e); }

/// A call's name in the default function namespace (fn:) when unprefixed.
Symbol FnName(Symbol name) {
  const std::string& s = name.str();
  return s.find(':') == std::string::npos ? Symbol("fn:" + s) : name;
}

// Does the expression bind `var`, shadowing outer occurrences, in scope
// `scope_child`? We conservatively treat any binder of the same name as a
// full shadow (correct for our generated fs:* variables and user code).
bool BindsVar(const Expr& e, Symbol var) {
  switch (e.kind) {
    case ExprKind::kFLWOR:
    case ExprKind::kQuantified:
      for (const Clause& c : e.clauses) {
        if ((c.kind == Clause::Kind::kFor || c.kind == Clause::Kind::kLet) &&
            (c.var == var || c.pos_var == var)) {
          return true;
        }
      }
      return false;
    case ExprKind::kTypeswitch:
      for (const TypeswitchCase& c : e.cases) {
        if (c.var == var) return true;
      }
      return false;
    default:
      return false;
  }
}

}  // namespace

Symbol FsDotVar() { return Symbol("fs:dot"); }
Symbol FsPositionVar() { return Symbol("fs:position"); }

ExprPtr SubstituteVar(const ExprPtr& e, Symbol from, Symbol to) {
  if (e == nullptr) return nullptr;
  if (e->kind == ExprKind::kVarRef) {
    if (e->name == from) return MakeVarRef(to);
    return e;
  }
  if (BindsVar(*e, from)) {
    // The binding may shadow only part-way through clause lists (clauses
    // after the binder see the new variable). Handle FLWOR/quantified
    // clause-by-clause; typeswitch per-case.
    if (e->kind == ExprKind::kFLWOR || e->kind == ExprKind::kQuantified) {
      ExprPtr out = CloneShallow(*e);
      bool shadowed = false;
      for (Clause& c : out->clauses) {
        if (c.expr != nullptr && !shadowed) c.expr = SubstituteVar(c.expr, from, to);
        for (auto& spec : c.specs) {
          if (!shadowed) spec.key = SubstituteVar(spec.key, from, to);
        }
        if ((c.kind == Clause::Kind::kFor || c.kind == Clause::Kind::kLet) &&
            (c.var == from || c.pos_var == from)) {
          shadowed = true;
        }
      }
      if (!shadowed && out->ret != nullptr) {
        out->ret = SubstituteVar(out->ret, from, to);
      }
      return out;
    }
    if (e->kind == ExprKind::kTypeswitch) {
      ExprPtr out = CloneShallow(*e);
      out->children[0] = SubstituteVar(out->children[0], from, to);
      for (TypeswitchCase& c : out->cases) {
        if (c.var != from) c.body = SubstituteVar(c.body, from, to);
      }
      return out;
    }
  }
  ExprPtr out = CloneShallow(*e);
  for (ExprPtr& c : out->children) c = SubstituteVar(c, from, to);
  if (out->ret != nullptr) out->ret = SubstituteVar(out->ret, from, to);
  if (out->name_expr != nullptr) {
    out->name_expr = SubstituteVar(out->name_expr, from, to);
  }
  for (Clause& c : out->clauses) {
    if (c.expr != nullptr) c.expr = SubstituteVar(c.expr, from, to);
    for (auto& spec : c.specs) spec.key = SubstituteVar(spec.key, from, to);
  }
  for (TypeswitchCase& c : out->cases) {
    c.body = SubstituteVar(c.body, from, to);
  }
  return out;
}

namespace {

class Normalizer {
 public:
  explicit Normalizer(std::unordered_set<FunctionKey> declared_functions)
      : declared_(std::move(declared_functions)) {}

  Result<ExprPtr> Normalize(const ExprPtr& e) {
    switch (e->kind) {
      case ExprKind::kLiteral:
      case ExprKind::kEmptySeq:
      case ExprKind::kVarRef:
        return e;
      case ExprKind::kContextItem:
        return MakeVarRef(FsDotVar());
      case ExprKind::kSequence: {
        ExprPtr out = MakeExpr(ExprKind::kSequence);
        for (const ExprPtr& c : e->children) {
          XQC_ASSIGN_OR_RETURN(ExprPtr n, Normalize(c));
          out->children.push_back(std::move(n));
        }
        return out;
      }
      case ExprKind::kRange:
        return NormalizeCall("op:to", e->children);
      case ExprKind::kArith:
        return NormalizeCall(std::string("op:") + ArithOpName(e->arith_op),
                             e->children);
      case ExprKind::kUnaryMinus:
        return NormalizeCall("op:unary-minus", e->children);
      case ExprKind::kValueComp:
        return NormalizeCall(std::string("op:") + CompOpName(e->comp_op),
                             e->children);
      case ExprKind::kGeneralComp:
        // The paper's existentially quantified, convert-operand based
        // general comparison (Sections 2 & 6) is carried by one Core call
        // the join recognizer and the hash join both understand.
        return NormalizeCall(
            std::string("op:general-") + CompOpName(e->comp_op), e->children);
      case ExprKind::kNodeComp: {
        const char* f = e->node_comp_op == NodeCompOp::kIs ? "op:is-same-node"
                        : e->node_comp_op == NodeCompOp::kBefore
                            ? "op:node-before"
                            : "op:node-after";
        return NormalizeCall(f, e->children);
      }
      case ExprKind::kAnd:
      case ExprKind::kOr: {
        // and/or evaluate the EBV of both operands; op:and / op:or keep the
        // conjunction visible to the optimizer's predicate splitting.
        XQC_ASSIGN_OR_RETURN(ExprPtr a, Normalize(e->children[0]));
        XQC_ASSIGN_OR_RETURN(ExprPtr b, Normalize(e->children[1]));
        return BuiltinCall(e->kind == ExprKind::kAnd ? "op:and" : "op:or",
                           {BuiltinCall("fn:boolean", {std::move(a)}),
                            BuiltinCall("fn:boolean", {std::move(b)})});
      }
      case ExprKind::kIf: {
        XQC_ASSIGN_OR_RETURN(ExprPtr c, Normalize(e->children[0]));
        XQC_ASSIGN_OR_RETURN(ExprPtr t, Normalize(e->children[1]));
        XQC_ASSIGN_OR_RETURN(ExprPtr f, Normalize(e->children[2]));
        ExprPtr out = MakeExpr(ExprKind::kIf);
        out->children = {BuiltinCall("fn:boolean", {std::move(c)}),
                         std::move(t), std::move(f)};
        return out;
      }
      case ExprKind::kFLWOR:
        return NormalizeFLWOR(*e);
      case ExprKind::kQuantified: {
        ExprPtr out = MakeExpr(ExprKind::kQuantified);
        out->quant = e->quant;
        for (const Clause& c : e->clauses) {
          Clause nc = c;
          XQC_ASSIGN_OR_RETURN(nc.expr, Normalize(c.expr));
          out->clauses.push_back(std::move(nc));
        }
        XQC_ASSIGN_OR_RETURN(ExprPtr sat, Normalize(e->ret));
        out->ret = BuiltinCall("fn:boolean", {std::move(sat)});
        return out;
      }
      case ExprKind::kTypeswitch:
        return NormalizeTypeswitch(*e);
      case ExprKind::kInstanceOf:
      case ExprKind::kCastAs:
      case ExprKind::kCastableAs:
      case ExprKind::kTreatAs: {
        ExprPtr out = CloneShallow(*e);
        XQC_ASSIGN_OR_RETURN(out->children[0], Normalize(e->children[0]));
        return out;
      }
      case ExprKind::kPath: {
        // Position-independent (boolean) predicates on a path's final axis
        // step are applied set-at-a-time AFTER the step's document-order
        // result instead of per context node: for such predicates both are
        // equivalent, and the set-level form is exactly what lets the
        // (insert group-by)/(insert join) rewritings de-correlate path
        // joins (the paper's Q1 path variant, Section 4).
        const ExprPtr& rhs_raw = e->children[1];
        if (rhs_raw->kind == ExprKind::kAxisStep &&
            !rhs_raw->children.empty()) {
          std::vector<ExprPtr> boolean_preds;
          bool all_boolean = true;
          for (const ExprPtr& pred : rhs_raw->children) {
            if (MentionsCall(*pred, Symbol("fn:position")) ||
                MentionsCall(*pred, Symbol("fn:last"))) {
              all_boolean = false;
              break;
            }
            XQC_ASSIGN_OR_RETURN(ExprPtr np, Normalize(pred));
            if (ClassifyPredicate(*np) != PredClass::kBoolean) {
              all_boolean = false;
              break;
            }
            boolean_preds.push_back(std::move(np));
          }
          if (all_boolean && !boolean_preds.empty()) {
            ExprPtr bare = CloneShallow(*rhs_raw);
            bare->children.clear();
            ExprPtr inner_path = MakeExpr(ExprKind::kPath);
            inner_path->children = {e->children[0], std::move(bare)};
            XQC_ASSIGN_OR_RETURN(ExprPtr base, Normalize(inner_path));
            ExprPtr flwor = MakeExpr(ExprKind::kFLWOR);
            Clause f;
            f.kind = Clause::Kind::kFor;
            f.var = FsDotVar();
            f.expr = std::move(base);
            flwor->clauses.push_back(std::move(f));
            for (ExprPtr& p : boolean_preds) {
              Clause w;
              w.kind = Clause::Kind::kWhere;
              w.expr = std::move(p);
              flwor->clauses.push_back(std::move(w));
            }
            flwor->ret = MakeVarRef(FsDotVar());
            // The base is already in distinct document order; filtering
            // preserves it, so no further fs:distinct-docorder is needed.
            return flwor;
          }
        }
        // General case: for $fs:dot in E1 return E2, in document order.
        XQC_ASSIGN_OR_RETURN(ExprPtr base, Normalize(e->children[0]));
        XQC_ASSIGN_OR_RETURN(ExprPtr rest, Normalize(e->children[1]));
        ExprPtr flwor = MakeExpr(ExprKind::kFLWOR);
        Clause c;
        c.kind = Clause::Kind::kFor;
        c.var = FsDotVar();
        c.expr = std::move(base);
        flwor->clauses.push_back(std::move(c));
        flwor->ret = std::move(rest);
        return BuiltinCall("fs:distinct-docorder", {std::move(flwor)});
      }
      case ExprKind::kAxisStep:
        return NormalizeStep(*e);
      case ExprKind::kFilter: {
        XQC_ASSIGN_OR_RETURN(ExprPtr base, Normalize(e->children[0]));
        return NormalizePredicate(std::move(base), e->children[1]);
      }
      case ExprKind::kFunctionCall: {
        // xs:TYPE(v) constructor functions are casts.
        if (e->children.size() == 1 && declared_.count({e->name, 1}) == 0) {
          const std::string& n = e->name.str();
          AtomicType at;
          if ((n.rfind("xs:", 0) == 0 || n.rfind("xdt:", 0) == 0) &&
              AtomicTypeFromName(n, &at)) {
            XQC_ASSIGN_OR_RETURN(ExprPtr arg, Normalize(e->children[0]));
            ExprPtr cast = MakeExpr(ExprKind::kCastAs);
            cast->stype = SequenceType::Optional(ItemTest::Atomic(at));
            cast->children = {std::move(arg)};
            return cast;
          }
        }
        // Zero-arity context-item builtins take $fs:dot implicitly.
        if (e->children.empty() && declared_.count({e->name, 0}) == 0) {
          static const char* const kContextFns[] = {
              "fn:string", "fn:number", "fn:data", "fn:name", "fn:local-name"};
          for (const char* f : kContextFns) {
            if (FnName(e->name) == Symbol(f)) {
              return Normalize(MakeCall(e->name, {MakeVarRef(FsDotVar())}));
            }
          }
        }
        ExprPtr out = MakeCall(e->name, {});
        for (const ExprPtr& a : e->children) {
          XQC_ASSIGN_OR_RETURN(ExprPtr n, Normalize(a));
          out->children.push_back(std::move(n));
        }
        XQC_RETURN_IF_ERROR(Bind(out.get()));
        return out;
      }
      case ExprKind::kCompElement:
      case ExprKind::kCompAttribute:
      case ExprKind::kCompText:
      case ExprKind::kCompComment:
      case ExprKind::kCompPI:
      case ExprKind::kCompDocument:
      case ExprKind::kValidate: {
        ExprPtr out = CloneShallow(*e);
        for (ExprPtr& c : out->children) {
          XQC_ASSIGN_OR_RETURN(c, Normalize(c));
        }
        if (out->name_expr != nullptr) {
          XQC_ASSIGN_OR_RETURN(out->name_expr, Normalize(out->name_expr));
        }
        return out;
      }
      case ExprKind::kUnion:
        return NormalizeCall("op:union", e->children);
      case ExprKind::kIntersect:
        return NormalizeCall("op:intersect", e->children);
      case ExprKind::kExcept:
        return NormalizeCall("op:except", e->children);
    }
    return Status::Internal("unhandled expression kind in normalizer");
  }

 private:
  Result<ExprPtr> NormalizeCall(const std::string& fn,
                                const std::vector<ExprPtr>& args) {
    std::vector<ExprPtr> nargs;
    nargs.reserve(args.size());
    for (const ExprPtr& a : args) {
      XQC_ASSIGN_OR_RETURN(ExprPtr n, Normalize(a));
      nargs.push_back(std::move(n));
    }
    return BuiltinCall(fn, std::move(nargs));
  }

  /// A call the normalizer introduces: bound straight to its builtin row.
  static ExprPtr BuiltinCall(const std::string& fn, std::vector<ExprPtr> args) {
    ExprPtr e = MakeCall(Symbol(fn), std::move(args));
    e->builtin = LookupBuiltin(e->name, e->children.size());
    return e;
  }

  /// Binds a call, once: to the declared function (name, arity), else to
  /// the builtin row of its fn:-resolved name. Anything else is the static
  /// error XPST0017 (XQuery 1.0 §3.1.5), wherever the call sits.
  Status Bind(Expr* call) const {
    const size_t n = call->children.size();
    if (declared_.count({call->name, n}) > 0) return Status::OK();
    call->name = FnName(call->name);
    // fn:position() / fn:last() must have been replaced by predicate
    // normalization; a survivor means they were used outside a
    // predicate, which we do not support.
    if (call->name == Symbol("fn:position") ||
        call->name == Symbol("fn:last")) {
      return Status::XQueryError(
          "XPDY0002",
          "fn:position()/fn:last() outside a predicate is not supported");
    }
    call->builtin = LookupBuiltin(call->name, n);
    if (call->builtin != nullptr) return Status::OK();
    return Status::XQueryError("XPST0017", "no function " + call->name.str() +
                                               "#" + std::to_string(n));
  }

  Result<ExprPtr> NormalizeFLWOR(const Expr& e) {
    ExprPtr out = MakeExpr(ExprKind::kFLWOR);
    for (const Clause& c : e.clauses) {
      Clause nc;
      nc.kind = c.kind;
      nc.var = c.var;
      nc.pos_var = c.pos_var;
      nc.type = c.type;
      nc.stable = c.stable;
      if (c.expr != nullptr) {
        XQC_ASSIGN_OR_RETURN(nc.expr, Normalize(c.expr));
        // Keep statically boolean predicates bare: wrapping a general
        // comparison in fn:boolean would hide the join predicate from the
        // optimizer's (insert join) recognizer.
        if (c.kind == Clause::Kind::kWhere &&
            ClassifyPredicate(*nc.expr) != PredClass::kBoolean) {
          nc.expr = BuiltinCall("fn:boolean", {std::move(nc.expr)});
        }
      }
      for (const Clause::OrderSpec& spec : c.specs) {
        Clause::OrderSpec ns = spec;
        XQC_ASSIGN_OR_RETURN(ns.key, Normalize(spec.key));
        nc.specs.push_back(std::move(ns));
      }
      out->clauses.push_back(std::move(nc));
    }
    XQC_ASSIGN_OR_RETURN(out->ret, Normalize(e.ret));
    return out;
  }

  Result<ExprPtr> NormalizeTypeswitch(const Expr& e) {
    // Unify all branch variables into one fresh variable (the paper's
    // `typeswitch x := (Expr)` Core form, Figure 3).
    Symbol common(std::string("fs:ts") + std::to_string(ts_counter_++));
    ExprPtr out = MakeExpr(ExprKind::kTypeswitch);
    out->name = common;
    XQC_ASSIGN_OR_RETURN(ExprPtr input, Normalize(e.children[0]));
    out->children.push_back(std::move(input));
    for (const TypeswitchCase& c : e.cases) {
      TypeswitchCase nc;
      nc.is_default = c.is_default;
      nc.type = c.type;
      nc.var = common;
      ExprPtr body = c.body;
      if (!c.var.empty() && c.var != common) {
        body = SubstituteVar(body, c.var, common);
      }
      XQC_ASSIGN_OR_RETURN(nc.body, Normalize(body));
      out->cases.push_back(std::move(nc));
    }
    return out;
  }

  /// Normalizes a bare axis step with optional predicates. The step reads
  /// the context item ($fs:dot); each predicate wraps the result in a
  /// complete FLWOR block (the paper's Section 4 path normalization).
  Result<ExprPtr> NormalizeStep(const Expr& e) {
    ExprPtr step = MakeExpr(ExprKind::kAxisStep);
    step->axis = e.axis;
    step->node_test = e.node_test;
    ExprPtr cur = std::move(step);
    for (const ExprPtr& pred : e.children) {
      XQC_ASSIGN_OR_RETURN(cur, NormalizePredicate(std::move(cur), pred));
    }
    return cur;
  }

  static bool MentionsCall(const Expr& e, Symbol fn) {
    if (e.kind == ExprKind::kFunctionCall && FnName(e.name) == fn) return true;
    for (const ExprPtr& c : e.children) {
      if (c != nullptr && MentionsCall(*c, fn)) return true;
    }
    if (e.ret != nullptr && MentionsCall(*e.ret, fn)) return true;
    for (const Clause& c : e.clauses) {
      if (c.expr != nullptr && MentionsCall(*c.expr, fn)) return true;
      for (const auto& spec : c.specs) {
        if (MentionsCall(*spec.key, fn)) return true;
      }
    }
    for (const TypeswitchCase& c : e.cases) {
      if (MentionsCall(*c.body, fn)) return true;
    }
    return false;
  }

  static ExprPtr ReplaceCall0(const ExprPtr& e, Symbol fn, Symbol var) {
    if (e == nullptr) return nullptr;
    if (e->kind == ExprKind::kFunctionCall && FnName(e->name) == fn &&
        e->children.empty()) {
      return MakeVarRef(var);
    }
    ExprPtr out = CloneShallow(*e);
    for (ExprPtr& c : out->children) c = ReplaceCall0(c, fn, var);
    if (out->ret != nullptr) out->ret = ReplaceCall0(out->ret, fn, var);
    for (Clause& c : out->clauses) {
      if (c.expr != nullptr) c.expr = ReplaceCall0(c.expr, fn, var);
      for (auto& spec : c.specs) spec.key = ReplaceCall0(spec.key, fn, var);
    }
    for (TypeswitchCase& c : out->cases) {
      c.body = ReplaceCall0(c.body, fn, var);
    }
    return out;
  }

  /// Static classification of a (normalized) predicate expression.
  enum class PredClass { kBoolean, kNumeric, kDynamic };

  static PredClass ClassifyPredicate(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return e.literal.is_numeric() ? PredClass::kNumeric
                                      : PredClass::kBoolean;
      case ExprKind::kVarRef:
        // $fs:last / $fs:position are numeric by construction.
        if (e.name == FsPositionVar() || e.name == Symbol("fs:last")) {
          return PredClass::kNumeric;
        }
        return PredClass::kDynamic;
      case ExprKind::kQuantified:
      case ExprKind::kInstanceOf:
      case ExprKind::kCastableAs:
        return PredClass::kBoolean;
      case ExprKind::kFunctionCall:
        if (e.builtin == nullptr) return PredClass::kDynamic;
        if (e.builtin->result == ResultClass::kBoolean) {
          return PredClass::kBoolean;
        }
        return e.builtin->result == ResultClass::kNumeric ? PredClass::kNumeric
                                                          : PredClass::kDynamic;
      default:
        return PredClass::kDynamic;
    }
  }

  /// Builds the Core FLWOR block for one predicate over `base`:
  ///   for $fs:dot at $fs:position in base where P' return $fs:dot
  /// Positional predicates (numeric literals) become $fs:position = N; all
  /// other predicates take their effective boolean value. fn:position() and
  /// fn:last() inside the predicate are resolved here. If the result can
  /// contain duplicate/unordered nodes it is the caller's concern.
  Result<ExprPtr> NormalizePredicate(ExprPtr base, const ExprPtr& raw_pred) {
    Symbol dot = FsDotVar();
    Symbol pos = FsPositionVar();

    bool uses_last = MentionsCall(*raw_pred, Symbol("fn:last"));
    ExprPtr pred = ReplaceCall0(raw_pred, Symbol("fn:position"), pos);
    Symbol last_var("fs:last");
    if (uses_last) pred = ReplaceCall0(pred, Symbol("fn:last"), last_var);
    XQC_ASSIGN_OR_RETURN(ExprPtr npred, Normalize(pred));

    ExprPtr flwor = MakeExpr(ExprKind::kFLWOR);
    Symbol seq_var("fs:sequence");
    if (uses_last) {
      // let $fs:sequence := base
      // let $fs:last := fn:count($fs:sequence) ...
      Clause let_seq;
      let_seq.kind = Clause::Kind::kLet;
      let_seq.var = seq_var;
      let_seq.expr = std::move(base);
      flwor->clauses.push_back(std::move(let_seq));
      Clause let_last;
      let_last.kind = Clause::Kind::kLet;
      let_last.var = last_var;
      let_last.expr = BuiltinCall("fn:count", {MakeVarRef(seq_var)});
      flwor->clauses.push_back(std::move(let_last));
      base = MakeVarRef(seq_var);
    }
    Clause f;
    f.kind = Clause::Kind::kFor;
    f.var = dot;
    f.pos_var = pos;
    f.expr = std::move(base);
    flwor->clauses.push_back(std::move(f));

    Clause w;
    w.kind = Clause::Kind::kWhere;
    switch (ClassifyPredicate(*npred)) {
      case PredClass::kNumeric:
        // Positional predicate: where $fs:position = N (paper, Section 4).
        w.expr = BuiltinCall("op:general-eq", {MakeVarRef(pos), npred});
        break;
      case PredClass::kBoolean:
        w.expr = npred;  // already boolean-valued; keep join predicates bare
        break;
      case PredClass::kDynamic:
        // Statically unknown: defer to the runtime rule (numeric value =>
        // position test, otherwise EBV).
        w.expr = BuiltinCall("fs:predicate-truth", {npred, MakeVarRef(pos)});
        break;
    }
    flwor->clauses.push_back(std::move(w));
    flwor->ret = MakeVarRef(dot);
    return flwor;
  }

  std::unordered_set<FunctionKey> declared_;
  int ts_counter_ = 0;
};

}  // namespace

Result<ExprPtr> NormalizeExpr(const ExprPtr& e) {
  Normalizer n({});
  return n.Normalize(e);
}

void HoistLeadingLets(Query* q) {
  while (q->body != nullptr && q->body->kind == ExprKind::kFLWOR &&
         !q->body->clauses.empty() &&
         q->body->clauses.front().kind == Clause::Kind::kLet) {
    Clause c = q->body->clauses.front();
    VarDecl vd;
    vd.name = c.var;
    vd.type = c.type;
    vd.expr = c.expr;
    q->variables.push_back(std::move(vd));
    ExprPtr body = CloneShallow(*q->body);
    body->clauses.erase(body->clauses.begin());
    if (body->clauses.empty()) {
      q->body = body->ret;
    } else {
      q->body = std::move(body);
    }
  }
}

namespace {

/// Does the expression contain a where clause correlated with a variable in
/// `outer` that is not shadowed locally?
bool HasCorrelatedWhere(const Expr& e, const std::set<Symbol>& outer,
                        std::set<Symbol> local) {
  if (e.kind == ExprKind::kFLWOR || e.kind == ExprKind::kQuantified) {
    for (const Clause& c : e.clauses) {
      if (c.expr != nullptr && HasCorrelatedWhere(*c.expr, outer, local)) {
        return true;
      }
      if (c.kind == Clause::Kind::kWhere) {
        std::set<Symbol> free;
        CollectFreeVars(*c.expr, &free);
        for (Symbol v : free) {
          if (outer.count(v) > 0 && local.count(v) == 0) return true;
        }
      }
      if (c.kind == Clause::Kind::kFor || c.kind == Clause::Kind::kLet) {
        local.insert(c.var);
        if (!c.pos_var.empty()) local.insert(c.pos_var);
      }
    }
    return e.ret != nullptr && HasCorrelatedWhere(*e.ret, outer, local);
  }
  for (const ExprPtr& c : e.children) {
    if (c != nullptr && HasCorrelatedWhere(*c, outer, local)) return true;
  }
  if (e.ret != nullptr && HasCorrelatedWhere(*e.ret, outer, local)) {
    return true;
  }
  for (const Clause& c : e.clauses) {
    if (c.expr != nullptr && HasCorrelatedWhere(*c.expr, outer, local)) {
      return true;
    }
  }
  for (const TypeswitchCase& c : e.cases) {
    std::set<Symbol> l = local;
    if (!c.var.empty()) l.insert(c.var);
    if (HasCorrelatedWhere(*c.body, outer, l)) return true;
  }
  return false;
}

/// Extracts hoistable nested FLWOR blocks from an expression tree, walking
/// only through always-evaluated positions (constructors, sequences, call
/// arguments) — never through conditionals or binders.
ExprPtr ExtractNestedBlocks(const ExprPtr& e, const std::set<Symbol>& outer,
                            int* counter,
                            std::vector<std::pair<Symbol, ExprPtr>>* lets) {
  if (e == nullptr) return nullptr;
  if (e->kind == ExprKind::kFLWOR) {
    if (HasCorrelatedWhere(*e, outer, {})) {
      Symbol fresh("fs:hoist" + std::to_string((*counter)++));
      lets->emplace_back(fresh, e);
      return MakeVarRef(fresh);
    }
    return e;
  }
  switch (e->kind) {
    case ExprKind::kSequence:
    case ExprKind::kFunctionCall:
    case ExprKind::kCompElement:
    case ExprKind::kCompAttribute:
    case ExprKind::kCompText:
    case ExprKind::kCompComment:
    case ExprKind::kCompPI:
    case ExprKind::kCompDocument: {
      ExprPtr out = CloneShallow(*e);
      for (ExprPtr& c : out->children) {
        c = ExtractNestedBlocks(c, outer, counter, lets);
      }
      if (out->name_expr != nullptr) {
        out->name_expr = ExtractNestedBlocks(out->name_expr, outer, counter, lets);
      }
      return out;
    }
    default:
      return e;
  }
}

/// Recursive driver: processes every FLWOR in the tree.
ExprPtr HoistBlocksRec(const ExprPtr& e, int* counter) {
  if (e == nullptr) return nullptr;
  ExprPtr out = CloneShallow(*e);
  for (ExprPtr& c : out->children) c = HoistBlocksRec(c, counter);
  if (out->name_expr != nullptr) {
    out->name_expr = HoistBlocksRec(out->name_expr, counter);
  }
  for (Clause& c : out->clauses) {
    if (c.expr != nullptr) c.expr = HoistBlocksRec(c.expr, counter);
    for (auto& spec : c.specs) spec.key = HoistBlocksRec(spec.key, counter);
  }
  for (TypeswitchCase& c : out->cases) {
    c.body = HoistBlocksRec(c.body, counter);
  }
  if (out->ret != nullptr) out->ret = HoistBlocksRec(out->ret, counter);

  if (out->kind == ExprKind::kFLWOR) {
    std::set<Symbol> bound;
    for (const Clause& c : out->clauses) {
      if (c.kind == Clause::Kind::kFor || c.kind == Clause::Kind::kLet) {
        bound.insert(c.var);
        if (!c.pos_var.empty()) bound.insert(c.pos_var);
      }
    }
    std::vector<std::pair<Symbol, ExprPtr>> lets;
    out->ret = ExtractNestedBlocks(out->ret, bound, counter, &lets);
    for (auto& [var, expr] : lets) {
      Clause c;
      c.kind = Clause::Kind::kLet;
      c.var = var;
      c.expr = std::move(expr);
      out->clauses.push_back(std::move(c));
    }
  }
  return out;
}

}  // namespace

void HoistNestedReturnBlocks(Query* q) {
  int counter = 0;
  for (FunctionDecl& f : q->functions) {
    f.body = HoistBlocksRec(f.body, &counter);
  }
  for (VarDecl& v : q->variables) {
    if (v.expr != nullptr) v.expr = HoistBlocksRec(v.expr, &counter);
  }
  q->body = HoistBlocksRec(q->body, &counter);
}

Result<Query> NormalizeQuery(const Query& q) {
  std::unordered_set<FunctionKey> declared;
  for (const FunctionDecl& f : q.functions) {
    if (!declared.insert({f.name, f.params.size()}).second) {
      return Status::XQueryError(
          "XQST0034", "function " + f.name.str() + "#" +
                          std::to_string(f.params.size()) + " declared twice");
    }
  }
  Normalizer n(std::move(declared));
  Query out;
  for (const FunctionDecl& f : q.functions) {
    FunctionDecl nf = f;
    XQC_ASSIGN_OR_RETURN(nf.body, n.Normalize(f.body));
    out.functions.push_back(std::move(nf));
  }
  for (const VarDecl& v : q.variables) {
    VarDecl nv = v;
    if (v.expr != nullptr) {
      XQC_ASSIGN_OR_RETURN(nv.expr, n.Normalize(v.expr));
    }
    out.variables.push_back(std::move(nv));
  }
  XQC_ASSIGN_OR_RETURN(out.body, n.Normalize(q.body));
  return out;
}

}  // namespace xqc
