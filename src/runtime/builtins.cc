#include "src/runtime/builtins.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "src/base/strutil.h"
#include "src/runtime/context.h"
#include "src/types/compare.h"
#include "src/xml/serializer.h"
#include "src/xml/xml_parser.h"

namespace xqc {

double XQueryRound(double d) {
  if (std::isnan(d) || std::isinf(d)) return d;
  return std::floor(d + 0.5);
}

namespace {

using Args = std::vector<Sequence>;
using Fn = decltype(Builtin::fn);
using RC = ResultClass;

// ---- helpers ---------------------------------------------------------------

Result<Sequence> One(Item it) { return Sequence{std::move(it)}; }
Sequence None() { return Sequence{}; }

Result<Sequence> BoolSeq(bool b) { return One(AtomicValue::Boolean(b)); }

/// Atomizes and requires at most one item; empty yields empty.
Result<Sequence> AtomizeOpt(const Sequence& s, const char* what) {
  XQC_ASSIGN_OR_RETURN(Sequence a, Atomize(s));
  if (a.size() > 1) {
    return Status::XQueryError(
        "XPTY0004", std::string("more than one item passed to ") + what);
  }
  return a;
}

/// Numeric operand for arithmetic: untyped casts to double.
Result<AtomicValue> NumericOperand(const AtomicValue& v, const char* what) {
  if (v.is_numeric()) return v;
  if (v.type() == AtomicType::kUntypedAtomic) {
    return CastTo(v, AtomicType::kDouble);
  }
  return Status::XQueryError(
      "XPTY0004", std::string(AtomicTypeName(v.type())) + " operand for " + what);
}

/// String value of an optional-singleton argument ("" when empty).
Result<std::string> StringArg(const Sequence& s, const char* what) {
  XQC_ASSIGN_OR_RETURN(Sequence a, AtomizeOpt(s, what));
  if (a.empty()) return std::string();
  return a[0].atomic().Lexical();
}

Result<double> DoubleArg(const Sequence& s, const char* what) {
  XQC_ASSIGN_OR_RETURN(Sequence a, AtomizeOpt(s, what));
  if (a.empty()) {
    return Status::XQueryError("XPTY0004",
                               std::string("empty sequence passed to ") + what);
  }
  XQC_ASSIGN_OR_RETURN(AtomicValue n, NumericOperand(a[0].atomic(), what));
  return n.AsDouble();
}

bool BothInt(const AtomicValue& a, const AtomicValue& b) {
  return a.type() == AtomicType::kInteger && b.type() == AtomicType::kInteger;
}

// ---- arithmetic ------------------------------------------------------------

enum class NumOp { kAdd, kSub, kMul, kDiv, kIDiv, kMod };

Result<Sequence> Arith(NumOp op, const Args& args) {
  XQC_ASSIGN_OR_RETURN(Sequence a, AtomizeOpt(args[0], "arithmetic"));
  XQC_ASSIGN_OR_RETURN(Sequence b, AtomizeOpt(args[1], "arithmetic"));
  if (a.empty() || b.empty()) return None();
  XQC_ASSIGN_OR_RETURN(AtomicValue x, NumericOperand(a[0].atomic(), "arithmetic"));
  XQC_ASSIGN_OR_RETURN(AtomicValue y, NumericOperand(b[0].atomic(), "arithmetic"));
  if (BothInt(x, y)) {
    int64_t i = x.AsInt(), j = y.AsInt();
    switch (op) {
      case NumOp::kAdd: return One(AtomicValue::Integer(i + j));
      case NumOp::kSub: return One(AtomicValue::Integer(i - j));
      case NumOp::kMul: return One(AtomicValue::Integer(i * j));
      case NumOp::kDiv:
        if (j == 0) {
          return Status::XQueryError("FOAR0001", "integer division by zero");
        }
        // xs:integer div xs:integer -> xs:decimal.
        return One(AtomicValue::Decimal(static_cast<double>(i) /
                                        static_cast<double>(j)));
      case NumOp::kIDiv:
        if (j == 0) {
          return Status::XQueryError("FOAR0001", "integer division by zero");
        }
        return One(AtomicValue::Integer(i / j));
      case NumOp::kMod:
        if (j == 0) {
          return Status::XQueryError("FOAR0001", "integer modulus by zero");
        }
        return One(AtomicValue::Integer(i % j));
    }
  }
  double u = x.AsDouble(), v = y.AsDouble();
  // Result type: double if either is double/untyped-cast, else promote to
  // the wider of the two (we simplify decimal/float to their double carrier
  // but keep the tag).
  AtomicType rt =
      (x.type() == AtomicType::kDouble || y.type() == AtomicType::kDouble)
          ? AtomicType::kDouble
      : (x.type() == AtomicType::kFloat || y.type() == AtomicType::kFloat)
          ? AtomicType::kFloat
          : AtomicType::kDecimal;
  auto mk = [&](double d) -> Result<Sequence> {
    if (rt == AtomicType::kDouble) return One(AtomicValue::Double(d));
    if (rt == AtomicType::kFloat) return One(AtomicValue::Float(d));
    if (std::isnan(d) || std::isinf(d)) {
      return Status::XQueryError("FOAR0001", "decimal division by zero");
    }
    return One(AtomicValue::Decimal(d));
  };
  switch (op) {
    case NumOp::kAdd: return mk(u + v);
    case NumOp::kSub: return mk(u - v);
    case NumOp::kMul: return mk(u * v);
    case NumOp::kDiv: return mk(u / v);
    case NumOp::kIDiv: {
      if (v == 0.0) {
        return Status::XQueryError("FOAR0001", "integer division by zero");
      }
      double q = std::trunc(u / v);
      return One(AtomicValue::Integer(static_cast<int64_t>(q)));
    }
    case NumOp::kMod: {
      double r = std::fmod(u, v);
      return mk(r);
    }
  }
  return Status::Internal("unreachable arithmetic case");
}

// ---- comparisons -----------------------------------------------------------

Result<Sequence> ValueComp(CompOp op, const Args& args) {
  XQC_ASSIGN_OR_RETURN(Sequence a, AtomizeOpt(args[0], "value comparison"));
  XQC_ASSIGN_OR_RETURN(Sequence b, AtomizeOpt(args[1], "value comparison"));
  if (a.empty() || b.empty()) return None();
  XQC_ASSIGN_OR_RETURN(bool r,
                       ValueCompareAtomic(op, a[0].atomic(), b[0].atomic()));
  return BoolSeq(r);
}

Result<Sequence> GeneralComp(CompOp op, const Args& args) {
  XQC_ASSIGN_OR_RETURN(bool r, GeneralCompare(op, args[0], args[1]));
  return BoolSeq(r);
}

// ---- aggregates ------------------------------------------------------------

Result<Sequence> AggregateSum(const Sequence& in, bool for_avg) {
  XQC_ASSIGN_OR_RETURN(Sequence atoms, Atomize(in));
  if (atoms.empty()) {
    if (for_avg) return None();
    return One(AtomicValue::Integer(0));
  }
  bool all_int = true;
  AtomicType widest = AtomicType::kInteger;
  double sum = 0;
  int64_t isum = 0;
  for (const Item& it : atoms) {
    XQC_ASSIGN_OR_RETURN(AtomicValue v, NumericOperand(it.atomic(), "fn:sum"));
    if (v.type() != AtomicType::kInteger) all_int = false;
    if (static_cast<int>(v.type()) > static_cast<int>(widest)) {
      widest = v.type();
    }
    sum += v.AsDouble();
    if (v.type() == AtomicType::kInteger) isum += v.AsInt();
  }
  if (for_avg) {
    double avg = sum / static_cast<double>(atoms.size());
    if (all_int || widest == AtomicType::kDecimal) {
      return One(AtomicValue::Decimal(avg));
    }
    if (widest == AtomicType::kFloat) return One(AtomicValue::Float(avg));
    return One(AtomicValue::Double(avg));
  }
  if (all_int) return One(AtomicValue::Integer(isum));
  if (widest == AtomicType::kDecimal) return One(AtomicValue::Decimal(sum));
  if (widest == AtomicType::kFloat) return One(AtomicValue::Float(sum));
  return One(AtomicValue::Double(sum));
}

Result<Sequence> AggregateMinMax(const Sequence& in, bool want_min) {
  XQC_ASSIGN_OR_RETURN(Sequence atoms, Atomize(in));
  if (atoms.empty()) return None();
  AtomicValue best;
  bool first = true;
  for (const Item& it : atoms) {
    AtomicValue v = it.atomic();
    if (v.type() == AtomicType::kUntypedAtomic) {
      XQC_ASSIGN_OR_RETURN(v, CastTo(v, AtomicType::kDouble));
    }
    if (first) {
      best = v;
      first = false;
      continue;
    }
    XQC_ASSIGN_OR_RETURN(
        bool better,
        ValueCompareAtomic(want_min ? CompOp::kLt : CompOp::kGt, v, best));
    if (better) best = v;
  }
  return One(best);
}

// ---- node set operations ---------------------------------------------------

Result<std::vector<NodePtr>> NodeSet(const Sequence& s, const char* what) {
  std::vector<NodePtr> out;
  out.reserve(s.size());
  for (const Item& it : s) {
    if (!it.IsNode()) {
      return Status::XQueryError(
          "XPTY0004", std::string("atomic value in operand of ") + what);
    }
    out.push_back(it.node());
  }
  std::sort(out.begin(), out.end(), [](const NodePtr& a, const NodePtr& b) {
    return DocOrderLess(a.get(), b.get());
  });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Result<Sequence> NodeSetOp(const Args& args, const char* what, char mode) {
  XQC_ASSIGN_OR_RETURN(std::vector<NodePtr> a, NodeSet(args[0], what));
  XQC_ASSIGN_OR_RETURN(std::vector<NodePtr> b, NodeSet(args[1], what));
  std::unordered_set<const Node*> bset;
  for (const NodePtr& n : b) bset.insert(n.get());
  Sequence out;
  if (mode == 'u') {
    std::vector<NodePtr> merged = a;
    merged.insert(merged.end(), b.begin(), b.end());
    std::sort(merged.begin(), merged.end(),
              [](const NodePtr& x, const NodePtr& y) {
                return DocOrderLess(x.get(), y.get());
              });
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    for (NodePtr& n : merged) out.push_back(std::move(n));
    return out;
  }
  for (NodePtr& n : a) {
    bool in_b = bset.count(n.get()) > 0;
    if ((mode == 'i' && in_b) || (mode == 'e' && !in_b)) {
      out.push_back(std::move(n));
    }
  }
  return out;
}

// ---- string helpers ----------------------------------------------------------

/// The only collation this engine implements (F&O 7.3.1): the Unicode
/// codepoint collation.
constexpr const char* kCodepointCollation =
    "http://www.w3.org/2005/xpath-functions/collation/codepoint";

/// Validates an optional trailing collation argument: the codepoint
/// collation is accepted, anything else is FOCH0002 (F&O 7.4).
Status CheckCollationArg(const Args& args, size_t idx, const char* what) {
  if (args.size() <= idx) return Status::OK();
  Result<std::string> c = StringArg(args[idx], what);
  if (!c.ok()) return c.status();
  if (c.value() != kCodepointCollation) {
    return Status::XQueryError(
        "FOCH0002", std::string(what) + ": unsupported collation \"" +
                        c.value() + "\"");
  }
  return Status::OK();
}

Result<Sequence> Substring(const Args& args) {
  XQC_ASSIGN_OR_RETURN(std::string s, StringArg(args[0], "fn:substring"));
  XQC_ASSIGN_OR_RETURN(double dstart, DoubleArg(args[1], "fn:substring"));
  double dlen = args.size() == 3 ? 0 : HUGE_VAL;
  if (args.size() == 3) {
    XQC_ASSIGN_OR_RETURN(dlen, DoubleArg(args[2], "fn:substring"));
    if (std::isnan(dlen)) return One(AtomicValue::String(""));
  }
  // F&O 7.4.3: positions are codepoints counted from 1 and round with
  // fn:round; a NaN start or length selects nothing.
  if (std::isnan(dstart)) return One(AtomicValue::String(""));
  double from = XQueryRound(dstart);
  // from + len can be NaN (-INF start with INF length): pos < NaN is false
  // for every position, which is exactly the spec's empty result.
  double to = args.size() == 3 ? from + XQueryRound(dlen) : HUGE_VAL;
  std::string out;
  double pos = 1.0;
  for (size_t i = 0; i < s.size(); pos += 1.0) {
    size_t next = Utf8Next(s, i);
    if (pos >= from && pos < to) out.append(s, i, next - i);
    i = next;
  }
  return One(AtomicValue::String(std::move(out)));
}

// ---- the table -------------------------------------------------------------

}  // namespace

const std::unordered_map<Symbol, Builtin>& AllBuiltins() {
  static const auto* kTable = [] {
    auto* rows = new std::unordered_map<Symbol, Builtin>();
    auto add = [&](const char* name, int lo, int hi, Fn fn,
                   RC result = RC::kOther,
                   BuiltinId id = BuiltinId::kNone) -> Builtin& {
      Builtin b{Symbol(name), lo, hi, std::move(fn), id, result};
      return rows->emplace(b.name, std::move(b)).first->second;
    };

    // -- boolean --
    add("fn:boolean", 1, 1, [](const Args& a, DynamicContext*) -> Result<Sequence> {
      XQC_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(a[0]));
      return BoolSeq(b);
    }, RC::kBoolean, BuiltinId::kBoolean).demand = Demand::kTwoItems;
    add("fn:not", 1, 1, [](const Args& a, DynamicContext*) -> Result<Sequence> {
      XQC_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(a[0]));
      return BoolSeq(!b);
    }, RC::kBoolean).demand = Demand::kTwoItems;
    add("fn:true", 0, 0, [](const Args&, DynamicContext*) { return BoolSeq(true); },
        RC::kBoolean);
    add("fn:false", 0, 0, [](const Args&, DynamicContext*) { return BoolSeq(false); },
        RC::kBoolean);

    // -- cardinality --
    add("fn:empty", 1, 1, [](const Args& a, DynamicContext*) {
      return BoolSeq(a[0].empty());
    }, RC::kBoolean).demand = Demand::kOneItem;
    add("fn:exists", 1, 1, [](const Args& a, DynamicContext*) {
      return BoolSeq(!a[0].empty());
    }, RC::kBoolean).demand = Demand::kOneItem;
    add("fn:count", 1, 1, [](const Args& a, DynamicContext*) {
      return One(AtomicValue::Integer(static_cast<int64_t>(a[0].size())));
    }, RC::kNumeric);
    add("fn:zero-or-one", 1, 1,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          if (a[0].size() > 1) {
            return Status::XQueryError("FORG0003",
                                       "fn:zero-or-one on longer sequence");
          }
          return a[0];
        }, RC::kOther, BuiltinId::kZeroOrOne);
    add("fn:one-or-more", 1, 1,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          if (a[0].empty()) {
            return Status::XQueryError("FORG0004",
                                       "fn:one-or-more on empty sequence");
          }
          return a[0];
        });
    add("fn:exactly-one", 1, 1,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          if (a[0].size() != 1) {
            return Status::XQueryError("FORG0005",
                                       "fn:exactly-one on non-singleton");
          }
          return a[0];
        }, RC::kOther, BuiltinId::kExactlyOne);

    // -- aggregates --
    add("fn:sum", 1, 1, [](const Args& a, DynamicContext*) {
      return AggregateSum(a[0], /*for_avg=*/false);
    }, RC::kNumeric);
    add("fn:avg", 1, 1, [](const Args& a, DynamicContext*) {
      return AggregateSum(a[0], /*for_avg=*/true);
    }, RC::kNumeric);
    add("fn:min", 1, 1, [](const Args& a, DynamicContext*) {
      return AggregateMinMax(a[0], /*want_min=*/true);
    });
    add("fn:max", 1, 1, [](const Args& a, DynamicContext*) {
      return AggregateMinMax(a[0], /*want_min=*/false);
    });

    // -- atomization / strings --
    add("fn:data", 1, 1, [](const Args& a, DynamicContext*) {
      return Atomize(a[0]);
    });
    add("fn:string", 1, 1, [](const Args& a, DynamicContext*) -> Result<Sequence> {
      if (a[0].empty()) return One(AtomicValue::String(""));
      if (a[0].size() > 1) {
        return Status::XQueryError("XPTY0004", "fn:string on multi-item sequence");
      }
      return One(AtomicValue::String(a[0][0].StringValue()));
    }, RC::kString);
    add("fn:string-length", 1, 1,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          XQC_ASSIGN_OR_RETURN(std::string s, StringArg(a[0], "fn:string-length"));
          // Codepoints, not UTF-8 bytes: string-length("déjà vu") is 7.
          return One(AtomicValue::Integer(static_cast<int64_t>(Utf8Length(s))));
        }, RC::kNumeric);
    add("fn:concat", 2, -1,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          std::string out;
          for (const Sequence& s : a) {
            XQC_ASSIGN_OR_RETURN(std::string part, StringArg(s, "fn:concat"));
            out += part;
          }
          return One(AtomicValue::String(std::move(out)));
        }, RC::kString);
    add("fn:contains", 2, 2,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          XQC_ASSIGN_OR_RETURN(std::string s, StringArg(a[0], "fn:contains"));
          XQC_ASSIGN_OR_RETURN(std::string t, StringArg(a[1], "fn:contains"));
          return BoolSeq(s.find(t) != std::string::npos);
        }, RC::kBoolean);
    add("fn:starts-with", 2, 2,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          XQC_ASSIGN_OR_RETURN(std::string s, StringArg(a[0], "fn:starts-with"));
          XQC_ASSIGN_OR_RETURN(std::string t, StringArg(a[1], "fn:starts-with"));
          return BoolSeq(s.rfind(t, 0) == 0);
        }, RC::kBoolean);
    add("fn:ends-with", 2, 2,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          XQC_ASSIGN_OR_RETURN(std::string s, StringArg(a[0], "fn:ends-with"));
          XQC_ASSIGN_OR_RETURN(std::string t, StringArg(a[1], "fn:ends-with"));
          return BoolSeq(s.size() >= t.size() &&
                         s.compare(s.size() - t.size(), t.size(), t) == 0);
        }, RC::kBoolean);
    add("fn:substring", 2, 3, [](const Args& a, DynamicContext*) {
      return Substring(a);
    }, RC::kString);
    // The 3-arity forms take a collation (F&O 7.4.7/7.4.9); only the
    // codepoint collation is supported, others raise FOCH0002. Byte-wise
    // find is correct for the codepoint collation: UTF-8 is
    // self-synchronizing, so a byte match is a codepoint match.
    add("fn:substring-before", 2, 3,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          XQC_RETURN_IF_ERROR(CheckCollationArg(a, 2, "substring-before"));
          XQC_ASSIGN_OR_RETURN(std::string s, StringArg(a[0], "substring-before"));
          XQC_ASSIGN_OR_RETURN(std::string t, StringArg(a[1], "substring-before"));
          size_t p = s.find(t);
          if (p == std::string::npos) return One(AtomicValue::String(""));
          return One(AtomicValue::String(s.substr(0, p)));
        }, RC::kString);
    add("fn:substring-after", 2, 3,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          XQC_RETURN_IF_ERROR(CheckCollationArg(a, 2, "substring-after"));
          XQC_ASSIGN_OR_RETURN(std::string s, StringArg(a[0], "substring-after"));
          XQC_ASSIGN_OR_RETURN(std::string t, StringArg(a[1], "substring-after"));
          size_t p = s.find(t);
          if (p == std::string::npos) return One(AtomicValue::String(""));
          return One(AtomicValue::String(s.substr(p + t.size())));
        }, RC::kString);
    add("fn:upper-case", 1, 1,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          XQC_ASSIGN_OR_RETURN(std::string s, StringArg(a[0], "fn:upper-case"));
          for (char& c : s) c = static_cast<char>(toupper(c));
          return One(AtomicValue::String(std::move(s)));
        }, RC::kString);
    add("fn:lower-case", 1, 1,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          XQC_ASSIGN_OR_RETURN(std::string s, StringArg(a[0], "fn:lower-case"));
          for (char& c : s) c = static_cast<char>(tolower(c));
          return One(AtomicValue::String(std::move(s)));
        }, RC::kString);
    add("fn:normalize-space", 1, 1,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          XQC_ASSIGN_OR_RETURN(std::string s, StringArg(a[0], "normalize-space"));
          return One(AtomicValue::String(NormalizeSpace(s)));
        }, RC::kString);
    add("fn:translate", 3, 3,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          XQC_ASSIGN_OR_RETURN(std::string s, StringArg(a[0], "fn:translate"));
          XQC_ASSIGN_OR_RETURN(std::string map, StringArg(a[1], "fn:translate"));
          XQC_ASSIGN_OR_RETURN(std::string trans, StringArg(a[2], "fn:translate"));
          std::string out;
          for (char c : s) {
            size_t p = map.find(c);
            if (p == std::string::npos) {
              out.push_back(c);
            } else if (p < trans.size()) {
              out.push_back(trans[p]);
            }
          }
          return One(AtomicValue::String(std::move(out)));
        }, RC::kString);
    add("fn:string-join", 2, 2,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          XQC_ASSIGN_OR_RETURN(Sequence atoms, Atomize(a[0]));
          XQC_ASSIGN_OR_RETURN(std::string sep, StringArg(a[1], "string-join"));
          std::string out;
          for (size_t i = 0; i < atoms.size(); i++) {
            if (i > 0) out += sep;
            out += atoms[i].atomic().Lexical();
          }
          return One(AtomicValue::String(std::move(out)));
        }, RC::kString);

    // -- numerics --
    add("fn:number", 1, 1,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          XQC_ASSIGN_OR_RETURN(Sequence atoms, AtomizeOpt(a[0], "fn:number"));
          if (atoms.empty()) return One(AtomicValue::Double(std::nan("")));
          Result<AtomicValue> r = CastTo(atoms[0].atomic(), AtomicType::kDouble);
          if (!r.ok()) return One(AtomicValue::Double(std::nan("")));
          return One(r.take());
        }, RC::kNumeric);
    add("fn:abs", 1, 1, [](const Args& a, DynamicContext*) -> Result<Sequence> {
      XQC_ASSIGN_OR_RETURN(Sequence atoms, AtomizeOpt(a[0], "fn:abs"));
      if (atoms.empty()) return None();
      XQC_ASSIGN_OR_RETURN(AtomicValue v, NumericOperand(atoms[0].atomic(), "fn:abs"));
      if (v.type() == AtomicType::kInteger) {
        return One(AtomicValue::Integer(std::llabs(v.AsInt())));
      }
      return One(AtomicValue::Double(std::fabs(v.AsDouble())));
    }, RC::kNumeric);
    auto rounder = [&](const char* nm, double (*f)(double)) {
      add(nm, 1, 1, [f, nm](const Args& a, DynamicContext*) -> Result<Sequence> {
        XQC_ASSIGN_OR_RETURN(Sequence atoms, AtomizeOpt(a[0], nm));
        if (atoms.empty()) return None();
        XQC_ASSIGN_OR_RETURN(AtomicValue v, NumericOperand(atoms[0].atomic(), nm));
        if (v.type() == AtomicType::kInteger) return One(v);
        return One(AtomicValue::Double(f(v.AsDouble())));
      }, RC::kNumeric);
    };
    rounder("fn:floor", +[](double d) { return std::floor(d); });
    rounder("fn:ceiling", +[](double d) { return std::ceil(d); });
    rounder("fn:round", &XQueryRound);

    // -- sequences --
    add("fn:distinct-values", 1, 1,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          XQC_ASSIGN_OR_RETURN(Sequence atoms, Atomize(a[0]));
          std::unordered_set<JoinKey, JoinKeyHash> seen;
          bool seen_nan = false;
          Sequence out;
          for (const Item& it : atoms) {
            const AtomicValue& v = it.atomic();
            if (v.is_numeric() && std::isnan(v.AsDouble())) {
              if (!seen_nan) out.push_back(it);
              seen_nan = true;
              continue;
            }
            std::vector<JoinKey> keys = PromoteToSimpleTypes(v);
            bool dup = false;
            for (const JoinKey& k : keys) {
              if (seen.count(k) > 0) dup = true;
            }
            if (!dup) out.push_back(it);
            for (JoinKey& k : keys) seen.insert(std::move(k));
          }
          return out;
        });
    add("fn:reverse", 1, 1, [](const Args& a, DynamicContext*) {
      Sequence out(a[0].rbegin(), a[0].rend());
      return Result<Sequence>(std::move(out));
    });
    add("fn:subsequence", 2, 3,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          XQC_ASSIGN_OR_RETURN(double dstart, DoubleArg(a[1], "fn:subsequence"));
          double dlen = HUGE_VAL;
          if (a.size() == 3) {
            XQC_ASSIGN_OR_RETURN(dlen, DoubleArg(a[2], "fn:subsequence"));
          }
          double from = XQueryRound(dstart);
          double to = a.size() == 3 ? from + XQueryRound(dlen) : HUGE_VAL;
          Sequence out;
          for (size_t i = 0; i < a[0].size(); i++) {
            double pos = static_cast<double>(i) + 1.0;
            if (pos >= from && pos < to) out.push_back(a[0][i]);
          }
          return out;
        }).demand = Demand::kBounds;
    add("fn:insert-before", 3, 3,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          XQC_ASSIGN_OR_RETURN(double dpos, DoubleArg(a[1], "fn:insert-before"));
          int64_t pos = std::max<int64_t>(1, static_cast<int64_t>(dpos));
          Sequence out;
          for (size_t i = 0; i < a[0].size(); i++) {
            if (static_cast<int64_t>(i) + 1 == pos) Extend(&out, a[2]);
            out.push_back(a[0][i]);
          }
          if (pos > static_cast<int64_t>(a[0].size())) Extend(&out, a[2]);
          return out;
        });
    add("fn:remove", 2, 2,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          XQC_ASSIGN_OR_RETURN(double dpos, DoubleArg(a[1], "fn:remove"));
          int64_t pos = static_cast<int64_t>(dpos);
          Sequence out;
          for (size_t i = 0; i < a[0].size(); i++) {
            if (static_cast<int64_t>(i) + 1 != pos) out.push_back(a[0][i]);
          }
          return out;
        });
    add("fn:index-of", 2, 2,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          XQC_ASSIGN_OR_RETURN(Sequence atoms, Atomize(a[0]));
          XQC_ASSIGN_OR_RETURN(Sequence target, AtomizeOpt(a[1], "fn:index-of"));
          Sequence out;
          if (target.empty()) return out;
          for (size_t i = 0; i < atoms.size(); i++) {
            Result<bool> eq = ValueCompareAtomic(CompOp::kEq, atoms[i].atomic(),
                                                 target[0].atomic());
            if (eq.ok() && eq.value()) {
              out.push_back(AtomicValue::Integer(static_cast<int64_t>(i) + 1));
            }
          }
          return out;
        });
    add("fn:deep-equal", 2, 2,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          std::function<bool(const Node&, const Node&)> node_eq =
              [&](const Node& x, const Node& y) {
                if (x.kind != y.kind || x.name != y.name) return false;
                if (x.kind != NodeKind::kElement &&
                    x.kind != NodeKind::kDocument) {
                  return x.value == y.value;
                }
                if (x.attributes.size() != y.attributes.size()) return false;
                for (const NodePtr& xa : x.attributes) {
                  bool found = false;
                  for (const NodePtr& ya : y.attributes) {
                    if (xa->name == ya->name && xa->value == ya->value) {
                      found = true;
                    }
                  }
                  if (!found) return false;
                }
                // Compare element/text children, ignoring comments/PIs.
                std::vector<const Node*> xc, yc;
                for (const NodePtr& c : x.children) {
                  if (c->kind == NodeKind::kElement ||
                      c->kind == NodeKind::kText) {
                    xc.push_back(c.get());
                  }
                }
                for (const NodePtr& c : y.children) {
                  if (c->kind == NodeKind::kElement ||
                      c->kind == NodeKind::kText) {
                    yc.push_back(c.get());
                  }
                }
                if (xc.size() != yc.size()) return false;
                for (size_t i = 0; i < xc.size(); i++) {
                  if (!node_eq(*xc[i], *yc[i])) return false;
                }
                return true;
              };
          const Sequence& x = a[0];
          const Sequence& y = a[1];
          if (x.size() != y.size()) return BoolSeq(false);
          for (size_t i = 0; i < x.size(); i++) {
            if (x[i].IsNode() != y[i].IsNode()) return BoolSeq(false);
            if (x[i].IsNode()) {
              if (!node_eq(*x[i].node(), *y[i].node())) return BoolSeq(false);
            } else {
              Result<bool> eq = ValueCompareAtomic(CompOp::kEq, x[i].atomic(),
                                                   y[i].atomic());
              if (!eq.ok() || !eq.value()) return BoolSeq(false);
            }
          }
          return BoolSeq(true);
        }, RC::kBoolean);

    // -- nodes / documents --
    add("fn:doc", 1, 1, [](const Args& a, DynamicContext* ctx) -> Result<Sequence> {
      XQC_ASSIGN_OR_RETURN(std::string uri, StringArg(a[0], "fn:doc"));
      XQC_ASSIGN_OR_RETURN(NodePtr doc, ctx->ResolveDocument(uri));
      return One(std::move(doc));
    }, RC::kOther, BuiltinId::kDoc);
    add("fn:document", 1, 1, [](const Args& a, DynamicContext* ctx) -> Result<Sequence> {
      XQC_ASSIGN_OR_RETURN(std::string uri, StringArg(a[0], "fn:document"));
      XQC_ASSIGN_OR_RETURN(NodePtr doc, ctx->ResolveDocument(uri));
      return One(std::move(doc));
    }, RC::kOther, BuiltinId::kDoc);
    add("fn:doc-available", 1, 1,
        [](const Args& a, DynamicContext* ctx) -> Result<Sequence> {
          if (a[0].empty()) return BoolSeq(false);
          XQC_ASSIGN_OR_RETURN(std::string uri,
                               StringArg(a[0], "fn:doc-available"));
          XQC_ASSIGN_OR_RETURN(bool ok, ctx->DocumentAvailable(uri));
          return BoolSeq(ok);
        }, RC::kBoolean);
    add("fn:collection", 0, 1,
        [](const Args& a, DynamicContext* ctx) -> Result<Sequence> {
          if (a.empty() || a[0].empty()) {
            // No default collection is defined (FODC0002 per F&O 15.5.6).
            return Status::IOError(
                "fn:collection: no default collection is defined");
          }
          XQC_ASSIGN_OR_RETURN(std::string uri,
                               StringArg(a[0], "fn:collection"));
          XQC_ASSIGN_OR_RETURN(std::shared_ptr<const ResolvedCollection> col,
                               ctx->ResolveCollection(uri));
          Sequence out;
          out.reserve(col->docs.size());
          for (const NodePtr& doc : col->docs) out.push_back(Item(doc));
          return out;
        }, RC::kOther, BuiltinId::kCollection);
    add("fn:uri-collection", 0, 1,
        [](const Args& a, DynamicContext* ctx) -> Result<Sequence> {
          if (a.empty() || a[0].empty()) {
            return Status::IOError(
                "fn:uri-collection: no default collection is defined");
          }
          XQC_ASSIGN_OR_RETURN(std::string uri,
                               StringArg(a[0], "fn:uri-collection"));
          XQC_ASSIGN_OR_RETURN(std::vector<std::string> uris,
                               ctx->CollectionUris(uri));
          Sequence out;
          out.reserve(uris.size());
          for (std::string& u : uris) {
            out.push_back(Item(AtomicValue::String(std::move(u))));
          }
          return out;
        });
    add("fn:root", 1, 1, [](const Args& a, DynamicContext*) -> Result<Sequence> {
      if (a[0].empty()) return None();
      if (!a[0][0].IsNode()) {
        return Status::XQueryError("XPTY0004", "fn:root of an atomic value");
      }
      return One(a[0][0].node()->Root()->shared_from_this());
    }, RC::kOther, BuiltinId::kRoot);
    add("fn:name", 1, 1, [](const Args& a, DynamicContext*) -> Result<Sequence> {
      if (a[0].empty()) return One(AtomicValue::String(""));
      if (!a[0][0].IsNode()) {
        return Status::XQueryError("XPTY0004", "fn:name of an atomic value");
      }
      return One(AtomicValue::String(a[0][0].node()->name.str()));
    }, RC::kString);
    add("fn:local-name", 1, 1,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          if (a[0].empty()) return One(AtomicValue::String(""));
          if (!a[0][0].IsNode()) {
            return Status::XQueryError("XPTY0004", "fn:local-name of an atomic");
          }
          const std::string& n = a[0][0].node()->name.str();
          size_t colon = n.rfind(':');
          return One(AtomicValue::String(
              colon == std::string::npos ? n : n.substr(colon + 1)));
        }, RC::kString);
    add("fn:error", 0, 2, [](const Args& a, DynamicContext*) -> Result<Sequence> {
      std::string msg = "fn:error invoked";
      if (a.size() >= 2 && !a[1].empty()) msg = a[1][0].StringValue();
      return Status::XQueryError("FOER0000", msg);
    });

    // -- op:* arithmetic --
    static const std::pair<const char*, NumOp> kArith[] = {
        {"op:plus", NumOp::kAdd},  {"op:minus", NumOp::kSub},
        {"op:times", NumOp::kMul}, {"op:div", NumOp::kDiv},
        {"op:idiv", NumOp::kIDiv}, {"op:mod", NumOp::kMod}};
    for (const auto& [name, arith] : kArith) {
      NumOp op = arith;
      add(name, 2, 2,
          [op](const Args& a, DynamicContext*) { return Arith(op, a); },
          RC::kNumeric);
    }
    add("op:unary-minus", 1, 1,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          XQC_ASSIGN_OR_RETURN(Sequence atoms, AtomizeOpt(a[0], "unary minus"));
          if (atoms.empty()) return None();
          XQC_ASSIGN_OR_RETURN(AtomicValue v,
                               NumericOperand(atoms[0].atomic(), "unary minus"));
          if (v.type() == AtomicType::kInteger) {
            return One(AtomicValue::Integer(-v.AsInt()));
          }
          if (v.type() == AtomicType::kDecimal) {
            return One(AtomicValue::Decimal(-v.AsDouble()));
          }
          if (v.type() == AtomicType::kFloat) {
            return One(AtomicValue::Float(-v.AsDouble()));
          }
          return One(AtomicValue::Double(-v.AsDouble()));
        }, RC::kNumeric);

    // -- op:* comparisons --
    struct OpComp { const char* name; CompOp op; };
    static const OpComp kOps[] = {{"eq", CompOp::kEq}, {"ne", CompOp::kNe},
                                  {"lt", CompOp::kLt}, {"le", CompOp::kLe},
                                  {"gt", CompOp::kGt}, {"ge", CompOp::kGe}};
    for (const OpComp& oc : kOps) {
      CompOp op = oc.op;
      Builtin& v = add((std::string("op:") + oc.name).c_str(), 2, 2,
          [op](const Args& a, DynamicContext*) { return ValueComp(op, a); },
          RC::kBoolean);
      v.comparison = Comparison::kValue;
      v.comp = op;
      Builtin& g = add((std::string("op:general-") + oc.name).c_str(), 2, 2,
          [op](const Args& a, DynamicContext*) { return GeneralComp(op, a); },
          RC::kBoolean);
      g.comparison = Comparison::kGeneral;
      g.comp = op;
    }

    // -- op:* logic / ranges / node ops --
    add("op:and", 2, 2, [](const Args& a, DynamicContext*) -> Result<Sequence> {
      XQC_ASSIGN_OR_RETURN(bool x, EffectiveBooleanValue(a[0]));
      XQC_ASSIGN_OR_RETURN(bool y, EffectiveBooleanValue(a[1]));
      return BoolSeq(x && y);
    }, RC::kBoolean, BuiltinId::kAnd);
    add("op:or", 2, 2, [](const Args& a, DynamicContext*) -> Result<Sequence> {
      XQC_ASSIGN_OR_RETURN(bool x, EffectiveBooleanValue(a[0]));
      XQC_ASSIGN_OR_RETURN(bool y, EffectiveBooleanValue(a[1]));
      return BoolSeq(x || y);
    }, RC::kBoolean);
    add("op:to", 2, 2,
        [](const Args& a, DynamicContext* ctx) -> Result<Sequence> {
      XQC_ASSIGN_OR_RETURN(Sequence lo, AtomizeOpt(a[0], "op:to"));
      XQC_ASSIGN_OR_RETURN(Sequence hi, AtomizeOpt(a[1], "op:to"));
      if (lo.empty() || hi.empty()) return None();
      XQC_ASSIGN_OR_RETURN(AtomicValue l, CastTo(lo[0].atomic(), AtomicType::kInteger));
      XQC_ASSIGN_OR_RETURN(AtomicValue h, CastTo(hi[0].atomic(), AtomicType::kInteger));
      // A range materializes its whole sequence, so huge literals
      // ("1 to 2000000000") must stay interruptible: charge the budget up
      // front and keep checking the deadline while filling.
      QueryGuard* g = ctx != nullptr ? ctx->guard() : nullptr;
      int64_t first = l.AsInt(), last = h.AsInt();
      if (g != nullptr && last >= first) {
        XQC_RETURN_IF_ERROR(g->AccountItems(last - first + 1));
      }
      Sequence out;
      for (int64_t i = first; i <= last; i++) {
        if (g != nullptr && ((i - first) & 1023) == 0) {
          XQC_RETURN_IF_ERROR(g->Check());
        }
        out.push_back(AtomicValue::Integer(i));
      }
      return out;
    });
    add("op:union", 2, 2, [](const Args& a, DynamicContext*) {
      return NodeSetOp(a, "union", 'u');
    });
    add("op:intersect", 2, 2, [](const Args& a, DynamicContext*) {
      return NodeSetOp(a, "intersect", 'i');
    });
    add("op:except", 2, 2, [](const Args& a, DynamicContext*) {
      return NodeSetOp(a, "except", 'e');
    });
    auto node_comp = [](const Args& a, int mode) -> Result<Sequence> {
      if (a[0].empty() || a[1].empty()) return None();
      if (a[0].size() > 1 || a[1].size() > 1 || !a[0][0].IsNode() ||
          !a[1][0].IsNode()) {
        return Status::XQueryError("XPTY0004",
                                   "node comparison on non-singleton-node");
      }
      const Node* x = a[0][0].node().get();
      const Node* y = a[1][0].node().get();
      bool r = mode == 0 ? x == y
               : mode < 0 ? DocOrderLess(x, y)
                          : DocOrderLess(y, x);
      return BoolSeq(r);
    };
    add("op:is-same-node", 2, 2,
        [node_comp](const Args& a, DynamicContext*) { return node_comp(a, 0); },
        RC::kBoolean);
    add("op:node-before", 2, 2,
        [node_comp](const Args& a, DynamicContext*) {
          return node_comp(a, -1);
        },
        RC::kBoolean);
    add("op:node-after", 2, 2,
        [node_comp](const Args& a, DynamicContext*) { return node_comp(a, 1); },
        RC::kBoolean);

    // -- fs:* helpers --
    add("fs:distinct-docorder", 1, 1,
        [](const Args& a, DynamicContext*) { return DistinctDocOrder(a[0]); },
        RC::kOther, BuiltinId::kDistinctDocOrder);
    add("fs:avt-piece", 1, 1,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          // One attribute-value-template piece: atomize and space-join.
          XQC_ASSIGN_OR_RETURN(Sequence atoms, Atomize(a[0]));
          std::string out;
          for (size_t i = 0; i < atoms.size(); i++) {
            if (i > 0) out.push_back(' ');
            out += atoms[i].atomic().Lexical();
          }
          return One(AtomicValue::String(std::move(out)));
        }, RC::kString);
    add("fs:predicate-truth", 2, 2,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          // Dynamic XPath predicate semantics: a singleton numeric value
          // tests the context position; anything else takes its EBV.
          if (a[0].size() == 1 && a[0][0].IsAtomic() &&
              a[0][0].atomic().is_numeric()) {
            XQC_ASSIGN_OR_RETURN(
                bool eq, ValueCompareAtomic(CompOp::kEq, a[0][0].atomic(),
                                            a[1][0].atomic()));
            return BoolSeq(eq);
          }
          XQC_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(a[0]));
          return BoolSeq(b);
        }, RC::kBoolean);
    add("fs:convert-operand", 2, 2,
        [](const Args& a, DynamicContext*) -> Result<Sequence> {
          XQC_ASSIGN_OR_RETURN(Sequence x, AtomizeOpt(a[0], "fs:convert-operand"));
          XQC_ASSIGN_OR_RETURN(Sequence y, AtomizeOpt(a[1], "fs:convert-operand"));
          if (x.empty()) return None();
          AtomicType yt = y.empty() ? AtomicType::kString : y[0].atomic().type();
          XQC_ASSIGN_OR_RETURN(AtomicValue v, ConvertOperand(x[0].atomic(), yt));
          return One(std::move(v));
        });

    return rows;
  }();
  return *kTable;
}

const Builtin* LookupBuiltin(Symbol name, size_t arity) {
  auto it = AllBuiltins().find(name);
  if (it == AllBuiltins().end()) return nullptr;
  const Builtin& b = it->second;
  int n = static_cast<int>(arity);
  bool fits = n >= b.min_arity && (b.max_arity < 0 || n <= b.max_arity);
  return fits ? &b : nullptr;
}

const Builtin& BuiltinRow(BuiltinId id) {
  for (const auto& [name, b] : AllBuiltins()) {
    if (b.id == id) return b;
  }
  std::abort();  // every id names a row
}

}  // namespace xqc
