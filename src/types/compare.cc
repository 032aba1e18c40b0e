#include "src/types/compare.h"

#include <cmath>
#include <cstring>

#include "src/base/strutil.h"

namespace xqc {
namespace {

bool IsStringish(AtomicType t) {
  return t == AtomicType::kString || t == AtomicType::kAnyURI;
}

// Canonical string form of a numeric used in join keys: the bit pattern of
// the double value, with -0.0 folded to 0.0.
std::string CanonNumeric(double d) {
  if (d == 0.0) d = 0.0;  // folds -0.0
  char buf[sizeof(double)];
  std::memcpy(buf, &d, sizeof(double));
  return std::string(buf, sizeof(double));
}

}  // namespace

const char* CompOpName(CompOp op) {
  switch (op) {
    case CompOp::kEq: return "eq";
    case CompOp::kNe: return "ne";
    case CompOp::kLt: return "lt";
    case CompOp::kLe: return "le";
    case CompOp::kGt: return "gt";
    case CompOp::kGe: return "ge";
  }
  return "eq";
}

CompOp MirrorCompOp(CompOp op) {
  switch (op) {
    case CompOp::kLt: return CompOp::kGt;
    case CompOp::kLe: return CompOp::kGe;
    case CompOp::kGt: return CompOp::kLt;
    case CompOp::kGe: return CompOp::kLe;
    default: return op;  // eq/ne are symmetric
  }
}

AtomicType ConvertOperandTarget(AtomicType first, AtomicType second) {
  if (first != AtomicType::kUntypedAtomic) return first;
  if (second == AtomicType::kUntypedAtomic || second == AtomicType::kString) {
    return AtomicType::kString;
  }
  if (IsNumeric(second)) return AtomicType::kDouble;
  return second;
}

Result<AtomicValue> ConvertOperand(const AtomicValue& x, AtomicType y_type) {
  AtomicType target = ConvertOperandTarget(x.type(), y_type);
  if (target == x.type()) return x;
  return AtomicValue::FromLexical(target, x.AsString());
}

bool ConvertCompatible(AtomicType a, AtomicType b) {
  if (a == AtomicType::kUntypedAtomic || b == AtomicType::kUntypedAtomic) {
    return true;  // the untyped side is converted to the other's type
  }
  if (IsNumeric(a) && IsNumeric(b)) return true;
  if (IsStringish(a) && IsStringish(b)) return true;
  return a == b;
}

Result<bool> AtomicCompare(CompOp op, const AtomicValue& a,
                           const AtomicValue& b) {
  // Numeric comparison with promotion through double.
  if (a.is_numeric() && b.is_numeric()) {
    double x = a.AsDouble(), y = b.AsDouble();
    if (std::isnan(x) || std::isnan(y)) return op == CompOp::kNe;
    switch (op) {
      case CompOp::kEq: return x == y;
      case CompOp::kNe: return x != y;
      case CompOp::kLt: return x < y;
      case CompOp::kLe: return x <= y;
      case CompOp::kGt: return x > y;
      case CompOp::kGe: return x >= y;
    }
  }
  if (a.type() == AtomicType::kBoolean && b.type() == AtomicType::kBoolean) {
    int x = a.AsBool() ? 1 : 0, y = b.AsBool() ? 1 : 0;
    switch (op) {
      case CompOp::kEq: return x == y;
      case CompOp::kNe: return x != y;
      case CompOp::kLt: return x < y;
      case CompOp::kLe: return x <= y;
      case CompOp::kGt: return x > y;
      case CompOp::kGe: return x >= y;
    }
  }
  // String-ish and lexical types: codepoint / canonical lexical comparison.
  bool comparable =
      (IsStringish(a.type()) && IsStringish(b.type())) || a.type() == b.type();
  if (comparable && !a.is_numeric() && a.type() != AtomicType::kBoolean) {
    int c = a.Lexical().compare(b.Lexical());
    switch (op) {
      case CompOp::kEq: return c == 0;
      case CompOp::kNe: return c != 0;
      case CompOp::kLt: return c < 0;
      case CompOp::kLe: return c <= 0;
      case CompOp::kGt: return c > 0;
      case CompOp::kGe: return c >= 0;
    }
  }
  return Status::XQueryError(
      "XPTY0004", std::string("cannot compare ") + AtomicTypeName(a.type()) +
                      " with " + AtomicTypeName(b.type()));
}

Result<bool> ValueCompareAtomic(CompOp op, const AtomicValue& a,
                                const AtomicValue& b) {
  XQC_ASSIGN_OR_RETURN(AtomicValue ca, ConvertOperand(a, b.type()));
  XQC_ASSIGN_OR_RETURN(AtomicValue cb, ConvertOperand(b, a.type()));
  return AtomicCompare(op, ca, cb);
}

Result<bool> GeneralCompare(CompOp op, const Sequence& xs, const Sequence& ys) {
  XQC_ASSIGN_OR_RETURN(Sequence dx, Atomize(xs));
  XQC_ASSIGN_OR_RETURN(Sequence dy, Atomize(ys));
  for (const Item& ix : dx) {
    for (const Item& iy : dy) {
      Result<bool> hit = ValueCompareAtomic(op, ix.atomic(), iy.atomic());
      if (!hit.ok()) {
        // Join-compatible relaxation (documented in DESIGN.md): pairs whose
        // types are incomparable or whose untyped value fails to convert
        // count as non-matches instead of raising XPTY0004/FORG0001. This
        // matches what the paper's hash join computes — incompatible pairs
        // never meet in the hash table — and keeps every engine
        // configuration consistent.
        continue;
      }
      if (hit.value()) return true;
    }
  }
  return false;
}

Result<AtomicValue> CastTo(const AtomicValue& v, AtomicType target) {
  if (v.type() == target) return v;
  // From string or untyped: lexical rules.
  if (v.type() == AtomicType::kString ||
      v.type() == AtomicType::kUntypedAtomic) {
    return AtomicValue::FromLexical(target, v.AsString());
  }
  switch (target) {
    case AtomicType::kString:
      return AtomicValue::String(v.Lexical());
    case AtomicType::kUntypedAtomic:
      return AtomicValue::Untyped(v.Lexical());
    case AtomicType::kInteger:
      if (v.is_numeric()) {
        double d = v.AsDouble();
        if (std::isnan(d) || std::isinf(d)) {
          return Status::XQueryError("FOCA0002",
                                     "cannot cast NaN/INF to xs:integer");
        }
        return AtomicValue::Integer(static_cast<int64_t>(d));  // truncation
      }
      if (v.type() == AtomicType::kBoolean) {
        return AtomicValue::Integer(v.AsBool() ? 1 : 0);
      }
      break;
    case AtomicType::kDecimal:
    case AtomicType::kFloat:
    case AtomicType::kDouble: {
      double d;
      if (v.is_numeric()) {
        d = v.AsDouble();
      } else if (v.type() == AtomicType::kBoolean) {
        d = v.AsBool() ? 1.0 : 0.0;
      } else {
        break;
      }
      if (target == AtomicType::kDecimal) {
        if (std::isnan(d) || std::isinf(d)) {
          return Status::XQueryError("FOCA0002",
                                     "cannot cast NaN/INF to xs:decimal");
        }
        return AtomicValue::Decimal(d);
      }
      if (target == AtomicType::kFloat) return AtomicValue::Float(d);
      return AtomicValue::Double(d);
    }
    case AtomicType::kBoolean:
      if (v.is_numeric()) {
        double d = v.AsDouble();
        return AtomicValue::Boolean(d != 0.0 && !std::isnan(d));
      }
      break;
    case AtomicType::kAnyURI:
      if (v.type() == AtomicType::kString) {
        return AtomicValue::Lexical(AtomicType::kAnyURI, v.AsString());
      }
      break;
    default:
      break;
  }
  return Status::XQueryError(
      "XPTY0004", std::string("cannot cast ") + AtomicTypeName(v.type()) +
                      " to " + AtomicTypeName(target));
}

bool CastableTo(const AtomicValue& v, AtomicType target) {
  return CastTo(v, target).ok();
}

JoinKey NumericJoinKey(double d) {
  return JoinKey{AtomicType::kDouble, CanonNumeric(d)};
}

std::vector<JoinKey> PromoteToSimpleTypes(const AtomicValue& key) {
  std::vector<JoinKey> out;
  if (key.type() == AtomicType::kUntypedAtomic) {
    out.push_back({AtomicType::kString, key.AsString()});
    double d;
    if (ParseDouble(key.AsString(), &d) && !std::isnan(d)) {
      out.push_back({AtomicType::kDouble, CanonNumeric(d)});
    }
    return out;
  }
  if (key.is_numeric()) {
    double d = key.AsDouble();
    if (std::isnan(d)) return out;  // NaN never joins
    std::string canon = CanonNumeric(d);
    // One entry per type reachable by numeric promotion.
    switch (key.type()) {
      case AtomicType::kInteger:
        out.push_back({AtomicType::kInteger, canon});
        [[fallthrough]];
      case AtomicType::kDecimal:
        out.push_back({AtomicType::kDecimal, canon});
        [[fallthrough]];
      case AtomicType::kFloat:
        out.push_back({AtomicType::kFloat, canon});
        [[fallthrough]];
      default:
        out.push_back({AtomicType::kDouble, canon});
    }
    return out;
  }
  if (key.type() == AtomicType::kAnyURI) {
    // anyURI promotes to string for comparison purposes.
    out.push_back({AtomicType::kString, key.AsString()});
    return out;
  }
  out.push_back({key.type(), key.Lexical()});
  // Bridge entry: the paper enumerates every type an untyped value can be
  // promoted to ("no more than nineteen"). Instead of storing ~19 entries
  // per untyped key, every non-numeric typed value ALSO keys on
  // (xs:string, lexical) — untyped keys carry (xs:string, value) already,
  // so untyped-vs-typed candidates meet on the bridge and the allMatches
  // recheck (Table 2 compatibility + op:equal on the originals) decides.
  out.push_back({AtomicType::kString, key.Lexical()});
  return out;
}

}  // namespace xqc
