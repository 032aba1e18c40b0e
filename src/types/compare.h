// XQuery comparison and casting semantics: atomization-based predicates with
// fs:convert-operand (Table 2 of the paper), overloaded op:equal / op:compare
// with numeric type promotion, and the promotion enumeration the hash join
// of Section 6 relies on.
#ifndef XQC_TYPES_COMPARE_H_
#define XQC_TYPES_COMPARE_H_

#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/xml/item.h"

namespace xqc {

/// Value-comparison operators.
enum class CompOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompOpName(CompOp op);  // "eq", "ne", ...

/// The operator with its operands swapped: `a OP b` iff `b MIRROR(OP) a`.
CompOp MirrorCompOp(CompOp op);

/// fs:convert-operand target type per Table 2, as a function of the two
/// operands' *types* only (the observation that makes an independent
/// hash-join build possible, Section 6):
///  - untyped vs untyped-or-string  -> xs:string
///  - untyped vs numeric            -> xs:double
///  - untyped vs any other type T   -> T
///  - typed first operand           -> unchanged (target = its own type)
AtomicType ConvertOperandTarget(AtomicType first, AtomicType second);

/// Applies fs:convert-operand: casts `x` to ConvertOperandTarget(x, y-type).
/// Error FORG0001 if the untyped value is not castable to the target.
Result<AtomicValue> ConvertOperand(const AtomicValue& x, AtomicType y_type);

/// True iff op:equal is defined on the pair of ORIGINAL types after
/// fs:convert-operand in both directions — the "line 25 / Table 2" check of
/// the paper's allMatches: one side untyped, both string-ish, both numeric,
/// or the same primitive type.
bool ConvertCompatible(AtomicType a, AtomicType b);

/// op:equal / op:compare dispatch on two atomic values that have already
/// been converted (or are directly comparable). Numeric pairs compare after
/// promotion to double; xs:string/xs:anyURI compare codepoint-wise; lexical
/// types compare by canonical lexical form. Errors with XPTY0004 on
/// incomparable types. Comparisons involving NaN follow IEEE semantics
/// (everything false except ne).
Result<bool> AtomicCompare(CompOp op, const AtomicValue& a,
                           const AtomicValue& b);

/// A full XQuery value comparison (op:eq etc.): applies fs:convert-operand
/// in both directions, then AtomicCompare.
Result<bool> ValueCompareAtomic(CompOp op, const AtomicValue& a,
                                const AtomicValue& b);

/// General comparison (=, !=, <, ...): atomizes both sequences and tests
/// existentially with fs:convert-operand semantics on each pair (the
/// normalized form shown in Sections 2 and 6).
Result<bool> GeneralCompare(CompOp op, const Sequence& xs, const Sequence& ys);

/// Cast / castable between atomic types (XPath 2.0 casting table, restricted
/// to the types we model). Untyped and string cast via the lexical rules.
Result<AtomicValue> CastTo(const AtomicValue& v, AtomicType target);
bool CastableTo(const AtomicValue& v, AtomicType target);

/// The hash key space of the Section 6 join: a (type, canonical value) pair.
/// Numeric keys are canonicalized through double so that promoted values
/// collide; -0.0 is folded into 0.0. NaN produces no keys (never equal).
struct JoinKey {
  AtomicType type;
  std::string canon;

  bool operator==(const JoinKey& o) const {
    return type == o.type && canon == o.canon;
  }
};

struct JoinKeyHash {
  size_t operator()(const JoinKey& k) const {
    return std::hash<std::string>()(k.canon) * 31 +
           static_cast<size_t>(k.type);
  }
};

/// Canonical xs:double join key (bit pattern, -0.0 folded); NaN callers
/// must skip beforehand.
JoinKey NumericJoinKey(double d);

/// promoteToSimpleTypes (Figure 6): all (type, value) pairs a join key can
/// be promoted to.
///  - untyped:  (xs:string, s) and, if the lexical form is a number,
///              (xs:double, d) — the two-entry case the paper describes;
///  - numeric:  one entry per numeric type reachable by promotion
///              (integer -> decimal -> float -> double), canonical-double
///              valued so cross-type numeric equality collides;
///  - other:    one entry keyed on the original (value, type).
std::vector<JoinKey> PromoteToSimpleTypes(const AtomicValue& key);

}  // namespace xqc

#endif  // XQC_TYPES_COMPARE_H_
