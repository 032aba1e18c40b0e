#include "src/xquery/ast.h"

#include <sstream>

namespace xqc {

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd: return "plus";
    case ArithOp::kSub: return "minus";
    case ArithOp::kMul: return "times";
    case ArithOp::kDiv: return "div";
    case ArithOp::kIDiv: return "idiv";
    case ArithOp::kMod: return "mod";
  }
  return "plus";
}

ExprPtr MakeExpr(ExprKind kind) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  return e;
}

ExprPtr MakeLiteral(AtomicValue v) {
  ExprPtr e = MakeExpr(ExprKind::kLiteral);
  e->literal = std::move(v);
  return e;
}

ExprPtr MakeVarRef(Symbol name) {
  ExprPtr e = MakeExpr(ExprKind::kVarRef);
  e->name = name;
  return e;
}

ExprPtr MakeCall(Symbol fn, std::vector<ExprPtr> args) {
  ExprPtr e = MakeExpr(ExprKind::kFunctionCall);
  e->name = fn;
  e->children = std::move(args);
  return e;
}

namespace {

void Print(const Expr& e, std::ostringstream& os) {
  auto child = [&](size_t i) { Print(*e.children[i], os); };
  auto list = [&](const char* sep) {
    for (size_t i = 0; i < e.children.size(); i++) {
      if (i > 0) os << sep;
      child(i);
    }
  };
  switch (e.kind) {
    case ExprKind::kLiteral:
      if (e.literal.type() == AtomicType::kString ||
          e.literal.type() == AtomicType::kUntypedAtomic) {
        os << '"' << e.literal.Lexical() << '"';
      } else {
        os << e.literal.Lexical();
      }
      return;
    case ExprKind::kEmptySeq: os << "()"; return;
    case ExprKind::kVarRef: os << "$" << e.name.str(); return;
    case ExprKind::kContextItem: os << "."; return;
    case ExprKind::kSequence:
      os << "(";
      list(", ");
      os << ")";
      return;
    case ExprKind::kRange:
      child(0);
      os << " to ";
      child(1);
      return;
    case ExprKind::kArith:
      os << "(";
      child(0);
      os << " " << ArithOpName(e.arith_op) << " ";
      child(1);
      os << ")";
      return;
    case ExprKind::kUnaryMinus:
      os << "-(";
      child(0);
      os << ")";
      return;
    case ExprKind::kValueComp:
      os << "(";
      child(0);
      os << " " << CompOpName(e.comp_op) << " ";
      child(1);
      os << ")";
      return;
    case ExprKind::kGeneralComp:
      os << "(";
      child(0);
      os << " =[" << CompOpName(e.comp_op) << "] ";
      child(1);
      os << ")";
      return;
    case ExprKind::kNodeComp:
      os << "(";
      child(0);
      os << (e.node_comp_op == NodeCompOp::kIs
                 ? " is "
                 : e.node_comp_op == NodeCompOp::kBefore ? " << " : " >> ");
      child(1);
      os << ")";
      return;
    case ExprKind::kAnd:
      os << "(";
      list(" and ");
      os << ")";
      return;
    case ExprKind::kOr:
      os << "(";
      list(" or ");
      os << ")";
      return;
    case ExprKind::kIf:
      os << "if (";
      child(0);
      os << ") then ";
      child(1);
      os << " else ";
      child(2);
      return;
    case ExprKind::kFLWOR: {
      for (const Clause& c : e.clauses) {
        switch (c.kind) {
          case Clause::Kind::kFor:
            os << "for $" << c.var.str();
            if (!c.pos_var.empty()) os << " at $" << c.pos_var.str();
            if (c.type) os << " as " << c.type->ToString();
            os << " in ";
            Print(*c.expr, os);
            os << " ";
            break;
          case Clause::Kind::kLet:
            os << "let $" << c.var.str();
            if (c.type) os << " as " << c.type->ToString();
            os << " := ";
            Print(*c.expr, os);
            os << " ";
            break;
          case Clause::Kind::kWhere:
            os << "where ";
            Print(*c.expr, os);
            os << " ";
            break;
          case Clause::Kind::kOrderBy:
            os << (c.stable ? "stable order by " : "order by ");
            for (size_t i = 0; i < c.specs.size(); i++) {
              if (i > 0) os << ", ";
              Print(*c.specs[i].key, os);
              if (c.specs[i].descending) os << " descending";
            }
            os << " ";
            break;
        }
      }
      os << "return ";
      Print(*e.ret, os);
      return;
    }
    case ExprKind::kQuantified: {
      os << (e.quant == QuantKind::kSome ? "some" : "every");
      for (size_t i = 0; i < e.clauses.size(); i++) {
        os << (i == 0 ? " " : ", ") << "$" << e.clauses[i].var.str() << " in ";
        Print(*e.clauses[i].expr, os);
      }
      os << " satisfies ";
      Print(*e.ret, os);
      return;
    }
    case ExprKind::kTypeswitch:
      os << "typeswitch (";
      child(0);
      os << ")";
      for (const TypeswitchCase& c : e.cases) {
        if (c.is_default) {
          os << " default";
        } else {
          os << " case";
        }
        if (!c.var.empty()) os << " $" << c.var.str();
        if (!c.is_default) os << " as " << c.type.ToString();
        os << " return ";
        Print(*c.body, os);
      }
      return;
    case ExprKind::kInstanceOf:
      child(0);
      os << " instance of " << e.stype.ToString();
      return;
    case ExprKind::kCastAs:
      child(0);
      os << " cast as " << e.stype.ToString();
      return;
    case ExprKind::kCastableAs:
      child(0);
      os << " castable as " << e.stype.ToString();
      return;
    case ExprKind::kTreatAs:
      child(0);
      os << " treat as " << e.stype.ToString();
      return;
    case ExprKind::kPath:
      child(0);
      os << "/";
      child(1);
      return;
    case ExprKind::kAxisStep:
      os << AxisName(e.axis) << "::" << e.node_test.ToString();
      return;
    case ExprKind::kFilter:
      child(0);
      os << "[";
      child(1);
      os << "]";
      return;
    case ExprKind::kFunctionCall:
      os << e.name.str() << "(";
      list(", ");
      os << ")";
      return;
    case ExprKind::kCompElement:
      os << "element " << (e.name.empty() ? "{...}" : e.name.str()) << " {";
      list(", ");
      os << "}";
      return;
    case ExprKind::kCompAttribute:
      os << "attribute " << (e.name.empty() ? "{...}" : e.name.str()) << " {";
      list(", ");
      os << "}";
      return;
    case ExprKind::kCompText:
      os << "text {";
      list(", ");
      os << "}";
      return;
    case ExprKind::kCompComment:
      os << "comment {";
      list(", ");
      os << "}";
      return;
    case ExprKind::kCompPI:
      os << "processing-instruction " << e.name.str() << " {";
      list(", ");
      os << "}";
      return;
    case ExprKind::kCompDocument:
      os << "document {";
      list(", ");
      os << "}";
      return;
    case ExprKind::kValidate:
      os << "validate {";
      child(0);
      os << "}";
      return;
    case ExprKind::kUnion:
      os << "(";
      list(" union ");
      os << ")";
      return;
    case ExprKind::kIntersect:
      os << "(";
      list(" intersect ");
      os << ")";
      return;
    case ExprKind::kExcept:
      os << "(";
      list(" except ");
      os << ")";
      return;
  }
}

}  // namespace

std::string ExprToString(const Expr& e) {
  std::ostringstream os;
  Print(e, os);
  return os.str();
}

namespace {

void FreeVarsRec(const Expr& e, std::set<Symbol> bound,
                 std::set<Symbol>* out) {
  switch (e.kind) {
    case ExprKind::kVarRef:
      if (bound.count(e.name) == 0) out->insert(e.name);
      return;
    case ExprKind::kAxisStep: {
      // A bare axis step implicitly reads the context item $fs:dot.
      Symbol dot("fs:dot");
      if (bound.count(dot) == 0) out->insert(dot);
      for (const ExprPtr& c : e.children) {
        if (c != nullptr) FreeVarsRec(*c, bound, out);
      }
      return;
    }
    case ExprKind::kFLWOR:
    case ExprKind::kQuantified: {
      for (const Clause& c : e.clauses) {
        if (c.expr != nullptr) FreeVarsRec(*c.expr, bound, out);
        for (const Clause::OrderSpec& s : c.specs) {
          FreeVarsRec(*s.key, bound, out);
        }
        if (c.kind == Clause::Kind::kFor || c.kind == Clause::Kind::kLet) {
          bound.insert(c.var);
          if (!c.pos_var.empty()) bound.insert(c.pos_var);
        }
      }
      if (e.ret != nullptr) FreeVarsRec(*e.ret, bound, out);
      return;
    }
    case ExprKind::kTypeswitch: {
      FreeVarsRec(*e.children[0], bound, out);
      for (const TypeswitchCase& c : e.cases) {
        std::set<Symbol> case_bound = bound;
        if (!c.var.empty()) case_bound.insert(c.var);
        FreeVarsRec(*c.body, case_bound, out);
      }
      if (!e.name.empty()) {
        // Normalized typeswitch: the unified variable binds every branch.
      }
      return;
    }
    default: {
      for (const ExprPtr& c : e.children) {
        if (c != nullptr) FreeVarsRec(*c, bound, out);
      }
      if (e.ret != nullptr) FreeVarsRec(*e.ret, bound, out);
      if (e.name_expr != nullptr) FreeVarsRec(*e.name_expr, bound, out);
      for (const Clause& c : e.clauses) {
        if (c.expr != nullptr) FreeVarsRec(*c.expr, bound, out);
      }
      return;
    }
  }
}

}  // namespace

void CollectFreeVars(const Expr& e, std::set<Symbol>* out) {
  FreeVarsRec(e, {}, out);
}

}  // namespace xqc
