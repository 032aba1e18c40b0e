#include "src/interp/interpreter.h"

#include <algorithm>

#include "src/runtime/builtins.h"
#include "src/runtime/construct.h"
#include "src/types/compare.h"
#include "src/xquery/normalize.h"

namespace xqc {

EnvPtr BindEnv(EnvPtr parent, Symbol name, Sequence value) {
  auto n = std::make_shared<EnvNode>();
  n->name = name;
  n->value = std::move(value);
  n->parent = std::move(parent);
  return n;
}

bool LookupEnv(const EnvPtr& env, Symbol name, Sequence* out) {
  for (const EnvNode* n = env.get(); n != nullptr; n = n->parent.get()) {
    if (n->name == name) {
      *out = n->value;
      return true;
    }
  }
  return false;
}

namespace {

constexpr int kMaxRecursionDepth = 4096;

/// Compares two order-by keys per XQuery rules: atomized singletons,
/// untyped promoted to string. Returns -1/0/+1; empty sequences order per
/// `empty_greatest`.
Result<int> CompareOrderKeys(const Sequence& a, const Sequence& b,
                             bool empty_greatest) {
  if (a.empty() && b.empty()) return 0;
  if (a.empty()) return empty_greatest ? 1 : -1;
  if (b.empty()) return empty_greatest ? -1 : 1;
  AtomicValue x = a[0].atomic(), y = b[0].atomic();
  if (x.type() == AtomicType::kUntypedAtomic) {
    x = AtomicValue::String(x.AsString());
  }
  if (y.type() == AtomicType::kUntypedAtomic) {
    y = AtomicValue::String(y.AsString());
  }
  XQC_ASSIGN_OR_RETURN(bool lt, AtomicCompare(CompOp::kLt, x, y));
  if (lt) return -1;
  XQC_ASSIGN_OR_RETURN(bool gt, AtomicCompare(CompOp::kGt, x, y));
  if (gt) return 1;
  return 0;
}

Status CheckSequenceType(const Sequence& v, const SequenceType& t,
                         const Schema* schema, const char* what) {
  if (!t.Matches(v, schema)) {
    return Status::XQueryError(
        "XPTY0004", std::string("value does not match required type ") +
                        t.ToString() + " in " + what);
  }
  return Status::OK();
}

}  // namespace

Interpreter::Interpreter(const Query* query, DynamicContext* ctx)
    : query_(query),
      ctx_(ctx),
      guard_(ctx->guard() != nullptr ? ctx->guard() : UnlimitedGuard()) {
  for (const FunctionDecl& f : query->functions) {
    functions_[{f.name, f.params.size()}] = &f;
  }
}

Result<Sequence> Interpreter::Run() {
  EnvPtr env;
  for (const VarDecl& v : query_->variables) {
    Sequence value;
    if (v.expr != nullptr) {
      XQC_ASSIGN_OR_RETURN(value, Eval(*v.expr, env));
    } else if (!ctx_->LookupVariable(v.name, &value)) {
      return Status::XQueryError(
          "XPDY0002", "external variable $" + v.name.str() + " not bound");
    }
    if (v.type) {
      XQC_RETURN_IF_ERROR(CheckSequenceType(value, *v.type, ctx_->schema(),
                                            "variable declaration"));
    }
    globals_[v.name] = value;
    env = BindEnv(env, v.name, std::move(value));
  }
  return Eval(*query_->body, env);
}

Result<Sequence> Interpreter::Eval(const Expr& e, const EnvPtr& env) {
  XQC_RETURN_IF_ERROR(guard_->Check());
  switch (e.kind) {
    case ExprKind::kLiteral:
      return Sequence{e.literal};
    case ExprKind::kEmptySeq:
      return Sequence{};
    case ExprKind::kVarRef: {
      Sequence v;
      if (LookupEnv(env, e.name, &v)) return v;
      auto git = globals_.find(e.name);
      if (git != globals_.end()) return git->second;
      if (ctx_->LookupVariable(e.name, &v)) return v;
      return Status::XQueryError("XPDY0002",
                                 "unbound variable $" + e.name.str());
    }
    case ExprKind::kSequence: {
      Sequence out;
      for (const ExprPtr& c : e.children) {
        XQC_ASSIGN_OR_RETURN(Sequence v, Eval(*c, env));
        Extend(&out, std::move(v));
      }
      return out;
    }
    case ExprKind::kIf: {
      XQC_ASSIGN_OR_RETURN(Sequence c, Eval(*e.children[0], env));
      XQC_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(c));
      return Eval(b ? *e.children[1] : *e.children[2], env);
    }
    case ExprKind::kFLWOR:
      return EvalFLWOR(e, env);
    case ExprKind::kQuantified:
      return EvalQuantified(e, env);
    case ExprKind::kTypeswitch:
      return EvalTypeswitch(e, env);
    case ExprKind::kInstanceOf: {
      XQC_ASSIGN_OR_RETURN(Sequence v, Eval(*e.children[0], env));
      return Sequence{AtomicValue::Boolean(e.stype.Matches(v, ctx_->schema()))};
    }
    case ExprKind::kCastAs:
    case ExprKind::kCastableAs: {
      XQC_ASSIGN_OR_RETURN(Sequence v, Eval(*e.children[0], env));
      XQC_ASSIGN_OR_RETURN(Sequence atoms, Atomize(v));
      bool castable_form = e.kind == ExprKind::kCastableAs;
      if (atoms.empty()) {
        bool ok_empty = e.stype.occ == Occurrence::kOptional;
        if (castable_form) return Sequence{AtomicValue::Boolean(ok_empty)};
        if (ok_empty) return Sequence{};
        return Status::XQueryError("XPTY0004", "cast of empty sequence");
      }
      if (atoms.size() > 1) {
        if (castable_form) return Sequence{AtomicValue::Boolean(false)};
        return Status::XQueryError("XPTY0004", "cast of multi-item sequence");
      }
      Result<AtomicValue> r = CastTo(atoms[0].atomic(), e.stype.test.atomic);
      if (castable_form) return Sequence{AtomicValue::Boolean(r.ok())};
      if (!r.ok()) return r.status();
      return Sequence{r.take()};
    }
    case ExprKind::kTreatAs: {
      XQC_ASSIGN_OR_RETURN(Sequence v, Eval(*e.children[0], env));
      if (!e.stype.Matches(v, ctx_->schema())) {
        // Same code as the algebra's TypeAssert so configurations agree.
        return Status::XQueryError(
            "XPTY0004", "treat as " + e.stype.ToString() + " failed");
      }
      return v;
    }
    case ExprKind::kAxisStep: {
      Sequence dot;
      if (!LookupEnv(env, FsDotVar(), &dot)) {
        return Status::XQueryError("XPDY0002", "axis step with no context item");
      }
      TreeJoinOpts tj;
      tj.guard = ctx_->guard();
      return TreeJoin(dot, e.axis, e.node_test, ctx_->schema(), tj);
    }
    case ExprKind::kFunctionCall:
      return EvalCall(e, env);
    case ExprKind::kCompElement:
    case ExprKind::kCompAttribute:
    case ExprKind::kCompText:
    case ExprKind::kCompComment:
    case ExprKind::kCompPI:
    case ExprKind::kCompDocument:
      return EvalConstructor(e, env);
    case ExprKind::kValidate: {
      XQC_ASSIGN_OR_RETURN(Sequence v, Eval(*e.children[0], env));
      Sequence out;
      for (const Item& it : v) {
        if (!it.IsNode()) {
          return Status::XQueryError("XQTY0030", "validate of an atomic value");
        }
        if (ctx_->schema() == nullptr) {
          out.push_back(it);  // no in-scope schema: validation is identity
          continue;
        }
        XQC_ASSIGN_OR_RETURN(NodePtr n, ctx_->schema()->Validate(it.node()));
        out.push_back(std::move(n));
      }
      return out;
    }
    default:
      return Status::Internal("non-Core form " +
                              std::to_string(static_cast<int>(e.kind)) +
                              " reached the interpreter (missing "
                              "normalization?)");
  }
}

Result<Sequence> Interpreter::EvalFLWOR(const Expr& e, const EnvPtr& env) {
  std::vector<EnvPtr> tuples = {env};
  for (const Clause& c : e.clauses) {
    switch (c.kind) {
      case Clause::Kind::kFor: {
        std::vector<EnvPtr> next;
        for (const EnvPtr& t : tuples) {
          XQC_ASSIGN_OR_RETURN(Sequence seq, Eval(*c.expr, t));
          for (size_t i = 0; i < seq.size(); i++) {
            Sequence one{seq[i]};
            if (c.type) {
              XQC_RETURN_IF_ERROR(CheckSequenceType(
                  one, *c.type, ctx_->schema(), "for clause"));
            }
            XQC_RETURN_IF_ERROR(guard_->Check());
            XQC_RETURN_IF_ERROR(guard_->AccountTuples(1));
            EnvPtr t2 = BindEnv(t, c.var, std::move(one));
            if (!c.pos_var.empty()) {
              t2 = BindEnv(t2, c.pos_var,
                           Sequence{AtomicValue::Integer(
                               static_cast<int64_t>(i) + 1)});
            }
            next.push_back(std::move(t2));
          }
        }
        tuples = std::move(next);
        break;
      }
      case Clause::Kind::kLet: {
        for (EnvPtr& t : tuples) {
          XQC_ASSIGN_OR_RETURN(Sequence seq, Eval(*c.expr, t));
          if (c.type) {
            XQC_RETURN_IF_ERROR(CheckSequenceType(seq, *c.type, ctx_->schema(),
                                                  "let clause"));
          }
          t = BindEnv(t, c.var, std::move(seq));
        }
        break;
      }
      case Clause::Kind::kWhere: {
        std::vector<EnvPtr> next;
        for (const EnvPtr& t : tuples) {
          XQC_ASSIGN_OR_RETURN(Sequence v, Eval(*c.expr, t));
          XQC_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(v));
          if (b) next.push_back(t);
        }
        tuples = std::move(next);
        break;
      }
      case Clause::Kind::kOrderBy: {
        // Evaluate all keys first, then stable-sort.
        struct Keyed {
          EnvPtr t;
          std::vector<Sequence> keys;
        };
        std::vector<Keyed> keyed;
        keyed.reserve(tuples.size());
        for (const EnvPtr& t : tuples) {
          Keyed k{t, {}};
          for (const Clause::OrderSpec& spec : c.specs) {
            XQC_ASSIGN_OR_RETURN(Sequence kv, Eval(*spec.key, t));
            XQC_ASSIGN_OR_RETURN(Sequence atoms, Atomize(kv));
            if (atoms.size() > 1) {
              return Status::XQueryError("XPTY0004",
                                         "order by key with more than one item");
            }
            k.keys.push_back(std::move(atoms));
          }
          keyed.push_back(std::move(k));
        }
        Status sort_error = Status::OK();
        std::stable_sort(
            keyed.begin(), keyed.end(),
            [&](const Keyed& a, const Keyed& b) {
              if (!sort_error.ok()) return false;
              for (size_t i = 0; i < c.specs.size(); i++) {
                Result<int> cmp = CompareOrderKeys(
                    a.keys[i], b.keys[i], c.specs[i].empty_greatest);
                if (!cmp.ok()) {
                  sort_error = cmp.status();
                  return false;
                }
                int v = cmp.value();
                if (c.specs[i].descending) v = -v;
                if (v != 0) return v < 0;
              }
              return false;
            });
        XQC_RETURN_IF_ERROR(sort_error);
        tuples.clear();
        for (Keyed& k : keyed) tuples.push_back(std::move(k.t));
        break;
      }
    }
  }
  Sequence out;
  for (const EnvPtr& t : tuples) {
    XQC_ASSIGN_OR_RETURN(Sequence v, Eval(*e.ret, t));
    Extend(&out, std::move(v));
  }
  return out;
}

Result<Sequence> Interpreter::EvalQuantified(const Expr& e, const EnvPtr& env) {
  bool some = e.quant == QuantKind::kSome;
  // Recursive expansion over the binding clauses.
  std::function<Result<bool>(size_t, const EnvPtr&)> rec =
      [&](size_t i, const EnvPtr& t) -> Result<bool> {
    if (i == e.clauses.size()) {
      XQC_ASSIGN_OR_RETURN(Sequence v, Eval(*e.ret, t));
      return EffectiveBooleanValue(v);
    }
    const Clause& c = e.clauses[i];
    XQC_ASSIGN_OR_RETURN(Sequence seq, Eval(*c.expr, t));
    for (const Item& item : seq) {
      Sequence one{item};
      if (c.type) {
        XQC_RETURN_IF_ERROR(CheckSequenceType(one, *c.type, ctx_->schema(),
                                              "quantifier binding"));
      }
      XQC_ASSIGN_OR_RETURN(bool hit, rec(i + 1, BindEnv(t, c.var, std::move(one))));
      if (hit == some) return some;  // short-circuit
    }
    return !some;
  };
  XQC_ASSIGN_OR_RETURN(bool r, rec(0, env));
  return Sequence{AtomicValue::Boolean(r)};
}

Result<Sequence> Interpreter::EvalTypeswitch(const Expr& e, const EnvPtr& env) {
  XQC_ASSIGN_OR_RETURN(Sequence input, Eval(*e.children[0], env));
  for (const TypeswitchCase& c : e.cases) {
    if (c.is_default || c.type.Matches(input, ctx_->schema())) {
      EnvPtr t = env;
      if (!c.var.empty()) t = BindEnv(t, c.var, input);
      return Eval(*c.body, t);
    }
  }
  return Status::XQueryError("XPST0003", "typeswitch without matching branch");
}

Result<Sequence> Interpreter::EvalCall(const Expr& e, const EnvPtr& env) {
  std::vector<Sequence> args;
  args.reserve(e.children.size());
  for (const ExprPtr& a : e.children) {
    XQC_ASSIGN_OR_RETURN(Sequence v, Eval(*a, env));
    args.push_back(std::move(v));
  }
  if (e.builtin != nullptr) return e.builtin->fn(args, ctx_);
  auto it = functions_.find({e.name, args.size()});
  if (it != functions_.end()) {
    const FunctionDecl& f = *it->second;
    if (++depth_ > kMaxRecursionDepth) {
      depth_--;
      return Status::ResourceExhausted(kGuardRecursionCode,
                                       "recursion depth exceeded");
    }
    EnvPtr fenv;  // function bodies see only their parameters + globals
    for (size_t i = 0; i < args.size(); i++) {
      if (f.params[i].second) {
        Status st = CheckSequenceType(args[i], *f.params[i].second,
                                      ctx_->schema(), "function argument");
        if (!st.ok()) {
          depth_--;
          return st;
        }
      }
      fenv = BindEnv(fenv, f.params[i].first, std::move(args[i]));
    }
    // Prolog globals stay visible inside function bodies via globals_.
    Result<Sequence> r = Eval(*f.body, fenv);
    depth_--;
    if (r.ok() && f.return_type) {
      XQC_RETURN_IF_ERROR(CheckSequenceType(r.value(), *f.return_type,
                                            ctx_->schema(), "function result"));
    }
    return r;
  }
  return Status::XQueryError("XPST0017", "unbound call of " + e.name.str());
}

Result<Symbol> Interpreter::EvalName(const Expr& e, const EnvPtr& env) {
  if (!e.name.empty()) return e.name;
  if (e.name_expr == nullptr) {
    return Status::XQueryError("XPTY0004", "constructor without a name");
  }
  XQC_ASSIGN_OR_RETURN(Sequence v, Eval(*e.name_expr, env));
  if (v.size() != 1) {
    return Status::XQueryError("XPTY0004", "constructor name is not a QName");
  }
  return Symbol(v[0].StringValue());
}

Result<Sequence> Interpreter::EvalConstructor(const Expr& e, const EnvPtr& env) {
  Sequence content;
  for (const ExprPtr& c : e.children) {
    XQC_ASSIGN_OR_RETURN(Sequence v, Eval(*c, env));
    Extend(&content, std::move(v));
  }
  switch (e.kind) {
    case ExprKind::kCompElement: {
      XQC_ASSIGN_OR_RETURN(Symbol name, EvalName(e, env));
      XQC_ASSIGN_OR_RETURN(NodePtr n, ConstructElement(name, content, guard_));
      return Sequence{std::move(n)};
    }
    case ExprKind::kCompAttribute: {
      XQC_ASSIGN_OR_RETURN(Symbol name, EvalName(e, env));
      XQC_ASSIGN_OR_RETURN(NodePtr n,
                           ConstructAttribute(name, content, guard_));
      return Sequence{std::move(n)};
    }
    case ExprKind::kCompText: {
      XQC_ASSIGN_OR_RETURN(NodePtr n, ConstructText(content, guard_));
      if (n == nullptr) return Sequence{};
      return Sequence{std::move(n)};
    }
    case ExprKind::kCompComment: {
      XQC_ASSIGN_OR_RETURN(NodePtr n, ConstructComment(content, guard_));
      return Sequence{std::move(n)};
    }
    case ExprKind::kCompPI: {
      XQC_ASSIGN_OR_RETURN(NodePtr n, ConstructPI(e.name, content, guard_));
      return Sequence{std::move(n)};
    }
    case ExprKind::kCompDocument: {
      XQC_ASSIGN_OR_RETURN(NodePtr n, ConstructDocument(content, guard_));
      return Sequence{std::move(n)};
    }
    default:
      return Status::Internal("not a constructor");
  }
}

}  // namespace xqc
