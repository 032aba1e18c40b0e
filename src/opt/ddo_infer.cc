#include "src/opt/ddo_infer.h"

#include "src/runtime/builtins.h"

namespace xqc {
namespace {

DdoProps Bottom() { return {}; }

DdoProps AllTrue() { return {true, true, true, true}; }

DdoProps Meet(const DdoProps& a, const DdoProps& b) {
  return {a.singleton && b.singleton, a.ddo && b.ddo,
          a.no_overlap && b.no_overlap, a.same_depth && b.same_depth};
}

/// The DdoMode a TreeJoin needs given its input's properties.
DdoMode ModeFor(Axis axis, const DdoProps& in) {
  if (in.singleton) return DdoMode::kSkip;  // one node: every axis is ordered
  switch (axis) {
    case Axis::kSelf:
      // A filter: any distinct ordered input stays distinct and ordered.
      return in.ddo ? DdoMode::kSkip : DdoMode::kSort;
    case Axis::kChild:
    case Axis::kAttribute:
      // Child/attribute blocks of interval-disjoint ordered nodes are
      // pairwise disjoint and appear in input order.
      return in.ddo && in.no_overlap ? DdoMode::kSkip : DdoMode::kSort;
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
      // Subtree blocks of interval-disjoint ordered nodes likewise.
      return in.ddo && in.no_overlap ? DdoMode::kSkip : DdoMode::kSort;
    case Axis::kParent:
      // Parents of a same-depth ordered input are ordered, and any
      // duplicates are adjacent (a node between two children of p at the
      // same depth is itself a child of p).
      return in.ddo && in.same_depth ? DdoMode::kDedup : DdoMode::kSort;
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling:
    case Axis::kFollowing:
    case Axis::kPreceding:
      // Sound only for singletons (handled above); results of distinct
      // input nodes interleave arbitrarily.
      return DdoMode::kSort;
  }
  return DdoMode::kSort;
}

/// Output properties of a TreeJoin once its postcondition is established
/// (after the mode above ran — so ddo holds unconditionally).
DdoProps StepOutput(Axis axis, const ItemTest& test, const DdoProps& in) {
  DdoProps out;
  out.ddo = true;
  switch (axis) {
    case Axis::kSelf:
      out.singleton = in.singleton;
      out.no_overlap = in.no_overlap;
      out.same_depth = in.same_depth;
      break;
    case Axis::kParent:
      out.singleton = in.singleton;
      out.no_overlap = in.same_depth;  // distinct same-depth parents
      out.same_depth = in.same_depth;
      break;
    case Axis::kChild:
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling:
      // Siblings never contain each other; children of same-depth nodes
      // share a depth.
      out.no_overlap = true;
      out.same_depth = in.same_depth || in.singleton;
      break;
    case Axis::kAttribute:
      out.no_overlap = true;
      out.same_depth = in.same_depth || in.singleton;
      // attribute::name yields at most one node per input element.
      out.singleton = in.singleton && test.kind == ItemTest::Kind::kAttribute &&
                      !test.name.empty();
      break;
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kFollowing:
    case Axis::kPreceding:
      // Results may contain ancestor/descendant pairs at mixed depths.
      break;
  }
  if (out.singleton) {
    out.no_overlap = true;
    out.same_depth = true;
  }
  return out;
}

class Annotator {
 public:
  explicit Annotator(DdoStats* stats) : stats_(stats) {}

  DdoProps Infer(Op* op) {
    // Dependent sub-plans see a context (IN) this pass does not model, but
    // their nested TreeJoins still deserve annotation.
    for (const OpPtr& d : op->deps) {
      if (op->kind != OpKind::kCond) Infer(d.get());
    }
    for (const OrderSpecOp& s : op->specs) Infer(s.key.get());
    std::vector<DdoProps> in;
    in.reserve(op->inputs.size());
    for (const OpPtr& i : op->inputs) in.push_back(Infer(i.get()));

    switch (op->kind) {
      case OpKind::kTreeJoin: {
        op->ddo = ModeFor(op->axis, in[0]);
        if (stats_ != nullptr) {
          if (op->ddo == DdoMode::kSkip) stats_->skip++;
          else if (op->ddo == DdoMode::kDedup) stats_->dedup++;
          else stats_->sort++;
        }
        return StepOutput(op->axis, op->ntest, in[0]);
      }
      // Singleton producers.
      case OpKind::kEmpty:
      case OpKind::kScalar:
      case OpKind::kElement:
      case OpKind::kAttribute:
      case OpKind::kText:
      case OpKind::kComment:
      case OpKind::kPI:
      case OpKind::kDocumentNode:
      case OpKind::kParse:
      case OpKind::kCastable:
      case OpKind::kCast:
      case OpKind::kTypeMatches:
      case OpKind::kMapSome:
      case OpKind::kMapEvery:
        return AllTrue();
      // Property-preserving wrappers.
      case OpKind::kTypeAssert:
      case OpKind::kValidate:
      case OpKind::kTreeProject:
      case OpKind::kSerialize:
        return in.empty() ? Bottom() : in.back();
      case OpKind::kSequence:
        // Concatenation keeps properties only for a single operand.
        if (in.size() == 1) return in[0];
        if (in.empty()) return AllTrue();
        return Bottom();
      case OpKind::kCond: {
        // deps are the two branches; input is the boolean.
        DdoProps p = AllTrue();
        for (const OpPtr& d : op->deps) p = Meet(p, Infer(d.get()));
        return p;
      }
      case OpKind::kCall: {
        const BuiltinId id = IdOf(op->builtin);
        if (id == BuiltinId::kDoc || id == BuiltinId::kRoot ||
            id == BuiltinId::kExactlyOne || id == BuiltinId::kZeroOrOne) {
          // fn:root/fn:exactly-one/fn:zero-or-one select from their input.
          return AllTrue();
        }
        if (id == BuiltinId::kCollection) {
          // Member roots come back in ordinal order, and ResolveCollection
          // guarantees ordinal-increasing interval blocks, so the sequence
          // is already in document order: disjoint same-depth roots, sorted.
          DdoProps p = AllTrue();
          p.singleton = false;
          return p;
        }
        if (id == BuiltinId::kDistinctDocOrder) {
          DdoProps p = in.empty() ? Bottom() : in[0];
          p.ddo = true;  // that is the function's whole contract
          return p;
        }
        return Bottom();
      }
      default:
        return Bottom();
    }
  }

 private:
  DdoStats* stats_;
};

}  // namespace

DdoProps AnnotateDdoPlan(Op* op, DdoStats* stats) {
  Annotator a(stats);
  return a.Infer(op);
}

void AnnotateDdoQuery(CompiledQuery* query, DdoStats* stats) {
  AnnotateDdoPlan(query->plan.get(), stats);
  for (auto& [name, fn] : query->functions) {
    AnnotateDdoPlan(fn.plan.get(), stats);
  }
  for (auto& [name, plan] : query->globals) {
    if (plan != nullptr) AnnotateDdoPlan(plan.get(), stats);
  }
}

}  // namespace xqc
