// The XQuery abstract syntax tree.
//
// The same node type serves the surface syntax (parser output) and the
// XQuery Core (normalizer output): the Core is the subset of these forms
// listed in `IsCoreForm`, and normalization (normalize.h) rewrites every
// surface form into it. Per the paper (Section 4), our normalization keeps
// FLWOR expressions structured (single multi-clause blocks) instead of
// breaking them into nested single-clause expressions.
#ifndef XQC_XQUERY_AST_H_
#define XQC_XQUERY_AST_H_

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/base/symbol.h"
#include "src/types/compare.h"
#include "src/types/seqtype.h"
#include "src/xml/atomic.h"
#include "src/xml/axes.h"

namespace xqc {

enum class ExprKind : uint8_t {
  kLiteral,      // atomic constant
  kEmptySeq,     // ()
  kVarRef,       // $x
  kContextItem,  // .
  kSequence,     // e1, e2, ... (n-ary)
  kRange,        // e1 to e2
  kArith,        // + - * div idiv mod
  kUnaryMinus,   // -e
  kValueComp,    // eq ne lt le gt ge
  kGeneralComp,  // = != < <= > >=
  kNodeComp,     // is << >>
  kAnd,          // e1 and e2
  kOr,           // e1 or e2
  kIf,           // if (c) then t else e     [children: c, t, e]
  kFLWOR,        // clauses + return          [return in `ret`]
  kQuantified,   // some/every $v in e satisfies p
  kTypeswitch,   // typeswitch (e) case ... default ...
  kInstanceOf,   // e instance of ST
  kCastAs,       // e cast as T
  kCastableAs,   // e castable as T
  kTreatAs,      // e treat as ST
  kPath,         // e1 / e2                  [children: e1, e2]
  kAxisStep,     // axis::test, applied to the context item
  kFilter,       // e[p]                     [children: e, p]
  kFunctionCall, // f(a1, ..., an)
  kCompElement,  // element {name} { content }  (direct ctors parse to this)
  kCompAttribute,
  kCompText,
  kCompComment,
  kCompPI,
  kCompDocument,
  kValidate,     // validate { e }
  kUnion,        // e1 union e2 / e1 | e2
  kIntersect,
  kExcept,
};

enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv, kIDiv, kMod };
const char* ArithOpName(ArithOp op);  // "plus", "minus", ...

enum class NodeCompOp : uint8_t { kIs, kBefore, kAfter };

enum class QuantKind : uint8_t { kSome, kEvery };

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;
struct Builtin;  // src/runtime/builtins.h

/// One FLWOR clause. Quantified expressions reuse kFor bindings.
struct Clause {
  enum class Kind { kFor, kLet, kWhere, kOrderBy } kind;

  // kFor / kLet
  Symbol var;
  Symbol pos_var;  // `at $i` (kFor only; empty if absent)
  std::optional<SequenceType> type;  // `as T`
  ExprPtr expr;  // binding expr / where predicate

  // kOrderBy
  struct OrderSpec {
    ExprPtr key;
    bool descending = false;
    bool empty_greatest = false;
  };
  std::vector<OrderSpec> specs;
  bool stable = false;
};

struct TypeswitchCase {
  Symbol var;  // may be empty in surface syntax; normalization unifies
  SequenceType type;
  ExprPtr body;
  bool is_default = false;  // default clause (type ignored)
};

/// An expression node. Which fields are meaningful depends on `kind`;
/// factory helpers below construct well-formed nodes.
struct Expr {
  ExprKind kind;

  AtomicValue literal;               // kLiteral
  Symbol name;                       // var / function / element / attr / PI
  const Builtin* builtin = nullptr;  // kFunctionCall row; null = user fn
  ExprPtr name_expr;                 // computed constructor name expression
  ArithOp arith_op = ArithOp::kAdd;  // kArith
  CompOp comp_op = CompOp::kEq;      // kValueComp, kGeneralComp
  NodeCompOp node_comp_op = NodeCompOp::kIs;  // kNodeComp
  QuantKind quant = QuantKind::kSome;         // kQuantified
  Axis axis = Axis::kChild;          // kAxisStep
  ItemTest node_test;                // kAxisStep
  SequenceType stype;                // type operators
  std::vector<ExprPtr> children;     // operands / args / content
  std::vector<Clause> clauses;       // kFLWOR, kQuantified bindings
  ExprPtr ret;                       // kFLWOR return / kQuantified satisfies
  std::vector<TypeswitchCase> cases; // kTypeswitch (children[0] = input)
};

ExprPtr MakeExpr(ExprKind kind);
ExprPtr MakeLiteral(AtomicValue v);
ExprPtr MakeVarRef(Symbol name);
ExprPtr MakeCall(Symbol fn, std::vector<ExprPtr> args);

/// A function's identity (XQuery 1.0 §4.15): its name and its arity.
struct FunctionKey {
  Symbol name;
  size_t arity = 0;
  bool operator==(const FunctionKey&) const = default;
};

/// A user-defined function declaration from the prolog.
struct FunctionDecl {
  Symbol name;
  std::vector<std::pair<Symbol, std::optional<SequenceType>>> params;
  std::optional<SequenceType> return_type;
  ExprPtr body;
};

/// A `declare variable $x := e;` prolog declaration (`external` if !expr).
struct VarDecl {
  Symbol name;
  std::optional<SequenceType> type;
  ExprPtr expr;  // null for external variables
};

/// A parsed query module: prolog + body.
struct Query {
  std::vector<FunctionDecl> functions;
  std::vector<VarDecl> variables;
  ExprPtr body;
};

/// Pretty-prints an expression (diagnostic form, not re-parseable XQuery).
std::string ExprToString(const Expr& e);

/// Collects the free variables of an expression (references not bound by a
/// FLWOR/quantifier/typeswitch binder inside it). Used by the compiler to
/// detect independent nested blocks.
void CollectFreeVars(const Expr& e, std::set<Symbol>* out);

}  // namespace xqc

template <>
struct std::hash<xqc::FunctionKey> {
  size_t operator()(const xqc::FunctionKey& k) const {
    return std::hash<xqc::Symbol>()(k.name) * 31 + k.arity;
  }
};

#endif  // XQC_XQUERY_AST_H_
