// Algebraic compilation: XQuery Core -> the Table 1 algebra (Section 4).
//
// Implements the paper's inference rules: FLWOR clauses compile through the
// auxiliary judgment [Clauses]_(Op0) that threads the intermediate tuple
// plan (Figure 2: FOR / FORAT / LET / WHERE / ORDERBY), variables become
// compiled tuple-field accesses IN#q (the "direct compiled memory access"
// the paper credits for much of the algebra speedup), typeswitch compiles
// per Figure 3 into TypeMatches + Cond over a common tuple field, path
// steps become TreeJoin, and `as T` assertions become TypeAssert.
#ifndef XQC_COMPILE_COMPILER_H_
#define XQC_COMPILE_COMPILER_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/algebra/op.h"
#include "src/xquery/ast.h"

namespace xqc {

/// A user-defined function compiled to a plan over Var[param] leaves.
struct CompiledFunction {
  Symbol name;
  std::vector<Symbol> params;
  std::vector<std::optional<SequenceType>> param_types;
  std::optional<SequenceType> return_type;
  OpPtr plan;
};

/// Result of the conservative intra-query parallelism eligibility pass
/// (src/opt/parallel_infer.h). Filled by AnalyzeParallel after the DDO
/// annotation pass; consumed by the parallel executor
/// (src/runtime/parallel.h). The Op pointers alias nodes owned by `plan`.
struct ParallelPlanInfo {
  /// Whether the plan can be partitioned by collection member document.
  bool eligible = false;
  /// The Call[fn:collection] op whose result the executor partitions.
  const Op* source = nullptr;
  /// The single TreeJoin over the source when intra-document pre-order
  /// range splitting is additionally sound, else nullptr (doc-granular
  /// partitions only).
  const Op* range_split = nullptr;
  /// Human-readable reason when ineligible (for --explain / tests).
  std::string reason;
};

/// A fully compiled query module.
struct CompiledQuery {
  OpPtr plan;
  /// Prolog variables in declaration order; a null plan means `external`.
  std::vector<std::pair<Symbol, OpPtr>> globals;
  std::unordered_map<FunctionKey, CompiledFunction> functions;
  /// Intra-query parallelism eligibility (AnalyzeParallel).
  ParallelPlanInfo parallel;
};

/// Compiles a normalized Core query module.
Result<CompiledQuery> CompileQuery(const Query& core);

/// Compiles one normalized Core expression with no variables in tuple
/// scope (free variables become Var[q] algebra-context lookups).
Result<OpPtr> CompileExpr(const ExprPtr& core);

}  // namespace xqc

#endif  // XQC_COMPILE_COMPILER_H_
