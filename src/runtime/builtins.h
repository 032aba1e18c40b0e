// The built-in function library: fn:* (F&O subset), op:* (operator
// backing functions produced by normalization), and fs:* (formal-semantics
// helpers). The paper notes a number of built-ins are required for
// completeness of the algebra (Section 3).
//
// Each builtin is one row of a static table. NormalizeQuery binds every
// call to its row once, by (name, arity); Expr and Op carry the row
// pointer, and later passes and both evaluators read the row, never the
// name.
#ifndef XQC_RUNTIME_BUILTINS_H_
#define XQC_RUNTIME_BUILTINS_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/base/symbol.h"
#include "src/types/compare.h"
#include "src/xml/item.h"

namespace xqc {

class DynamicContext;

/// Identity of the rows a pass tests for; every other row is kNone.
enum class BuiltinId : uint8_t {
  kNone, kAnd, kBoolean, kCollection, kDistinctDocOrder,
  kDoc,  // fn:doc and fn:document
  kExactlyOne, kRoot, kZeroOrOne,
};

/// What every item of the call's result is statically known to be.
enum class ResultClass : uint8_t { kOther, kBoolean, kNumeric, kString };

/// How much of its first argument the implementation reads.
enum class Demand : uint8_t {
  kAll,
  kOneItem,   // fn:exists / fn:empty
  kTwoItems,  // fn:boolean / fn:not: the EBV is decided by 2 items
  kBounds,    // fn:subsequence: the prefix its position bounds select
};

/// The comparison family of op:X (value) and op:general-X rows.
enum class Comparison : uint8_t { kNone, kValue, kGeneral };

struct Builtin {
  Symbol name;
  int min_arity;
  int max_arity;  // -1 = unbounded
  std::function<Result<Sequence>(const std::vector<Sequence>&,
                                 DynamicContext*)>
      fn;
  BuiltinId id = BuiltinId::kNone;
  ResultClass result = ResultClass::kOther;
  Demand demand = Demand::kAll;
  Comparison comparison = Comparison::kNone;
  CompOp comp = CompOp::kEq;  // meaningful when comparison != kNone
};

/// The row `name` binds to when called with `arity` arguments, or nullptr
/// (unknown name, or an arity outside the row's range).
const Builtin* LookupBuiltin(Symbol name, size_t arity);

/// Every row, by name (for documentation and tests).
const std::unordered_map<Symbol, Builtin>& AllBuiltins();

/// A row carrying `id`, which must not be kNone.
const Builtin& BuiltinRow(BuiltinId id);

/// The id of a bound row; kNone for nullptr (a user function call, or an
/// operator that is not a call).
inline BuiltinId IdOf(const Builtin* b) {
  return b == nullptr ? BuiltinId::kNone : b->id;
}

/// fn:round semantics — half toward positive infinity, floor(x + 0.5) — with
/// NaN and ±INF passing through (F&O 6.4.4). fn:substring / fn:subsequence
/// position arguments round with this, NOT half-away-from-zero std::round;
/// they differ at -N.5. Also used by the streaming subsequence prefix bound.
double XQueryRound(double d);

}  // namespace xqc

#endif  // XQC_RUNTIME_BUILTINS_H_
