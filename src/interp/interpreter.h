// Baseline tree-walking evaluator over the normalized XQuery Core.
//
// This is the paper's "No algebra" configuration (Table 3, first row): it
// evaluates the query AST directly, with dynamic (name-based) variable
// lookups in a linked environment and fully materialized intermediate
// results — exactly the strategy the algebraic compiler replaces. It also
// serves as the differential-testing oracle for the optimized engine.
#ifndef XQC_INTERP_INTERPRETER_H_
#define XQC_INTERP_INTERPRETER_H_

#include <memory>
#include <unordered_map>

#include "src/base/status.h"
#include "src/runtime/context.h"
#include "src/xquery/ast.h"

namespace xqc {

/// A persistent, linked variable environment (dynamic lookup by name —
/// deliberately so; see header comment).
struct EnvNode {
  Symbol name;
  Sequence value;
  std::shared_ptr<const EnvNode> parent;
};
using EnvPtr = std::shared_ptr<const EnvNode>;

EnvPtr BindEnv(EnvPtr parent, Symbol name, Sequence value);
bool LookupEnv(const EnvPtr& env, Symbol name, Sequence* out);

class Interpreter {
 public:
  /// `query` must be normalized (NormalizeQuery) and outlive the
  /// interpreter; `ctx` provides documents, schema, external variables.
  Interpreter(const Query* query, DynamicContext* ctx);

  /// Evaluates prolog variable declarations then the query body.
  Result<Sequence> Run();

  /// Evaluates one Core expression under an environment (used by Run and
  /// by tests).
  Result<Sequence> Eval(const Expr& e, const EnvPtr& env);

 private:
  Result<Sequence> EvalFLWOR(const Expr& e, const EnvPtr& env);
  Result<Sequence> EvalQuantified(const Expr& e, const EnvPtr& env);
  Result<Sequence> EvalTypeswitch(const Expr& e, const EnvPtr& env);
  Result<Sequence> EvalCall(const Expr& e, const EnvPtr& env);
  Result<Sequence> EvalConstructor(const Expr& e, const EnvPtr& env);
  Result<Symbol> EvalName(const Expr& e, const EnvPtr& env);

  const Query* query_;
  DynamicContext* ctx_;
  QueryGuard* guard_;  // ctx's guard or the shared unlimited fallback
  std::unordered_map<FunctionKey, const FunctionDecl*> functions_;
  std::unordered_map<Symbol, Sequence> globals_;  // prolog variable values
  int depth_ = 0;
};

}  // namespace xqc

#endif  // XQC_INTERP_INTERPRETER_H_
