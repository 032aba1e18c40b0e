#include "src/opt/parallel_infer.h"

#include <vector>

#include "src/runtime/builtins.h"

namespace xqc {
namespace {

bool ContainsKind(const Op& op, OpKind k) {
  if (op.kind == k) return true;
  for (const OpPtr& d : op.deps) {
    if (d && ContainsKind(*d, k)) return true;
  }
  for (const OpPtr& i : op.inputs) {
    if (i && ContainsKind(*i, k)) return true;
  }
  for (const OrderSpecOp& s : op.specs) {
    if (s.key && ContainsKind(*s.key, k)) return true;
  }
  return false;
}

bool IsCollectionCall(const Op& op) {
  if (IdOf(op.builtin) != BuiltinId::kCollection) return false;
  // The URI argument is evaluated once by the driver, outside any tuple
  // scope — it must not read IN.
  return !FreeIn(op);
}

/// Walks a TreeJoin* chain down to its base; returns the base and appends
/// the joins outermost-first.
const Op* WalkTreeJoins(const Op* op, std::vector<const Op*>* joins) {
  while (op->kind == OpKind::kTreeJoin) {
    joins->push_back(op);
    op = op->inputs[0].get();
  }
  return op;
}

bool DownwardAxis(Axis a) {
  return a == Axis::kChild || a == Axis::kDescendant ||
         a == Axis::kDescendantOrSelf;
}

}  // namespace

void AnalyzeParallel(CompiledQuery* query) {
  ParallelPlanInfo info;
  const Op* plan = query->plan.get();
  if (plan == nullptr) {
    info.reason = "empty plan";
    query->parallel = std::move(info);
    return;
  }

  if (ContainsKind(*plan, OpKind::kSerialize)) {
    info.reason = "plan serializes (fn:put): side-effect order";
    query->parallel = std::move(info);
    return;
  }
  for (const auto& [name, fn] : query->functions) {
    if (fn.plan && ContainsKind(*fn.plan, OpKind::kSerialize)) {
      info.reason = "a user function serializes (fn:put)";
      query->parallel = std::move(info);
      return;
    }
  }

  // Peel the shape-B spine, if present: MapToItem{r}(Select{p}*(
  // MapFromItem{f}(...))). Everything peeled is pointwise.
  const Op* base = plan;
  if (base->kind == OpKind::kMapToItem) {
    const Op* spine = base->inputs[0].get();
    while (spine->kind == OpKind::kSelect) spine = spine->inputs[0].get();
    if (spine->kind != OpKind::kMapFromItem) {
      info.reason = "tuple spine is not Select*/MapFromItem (order-sensitive "
                    "operator between scan and root)";
      query->parallel = std::move(info);
      return;
    }
    base = spine->inputs[0].get();
  }

  std::vector<const Op*> joins;
  const Op* source = WalkTreeJoins(base, &joins);
  if (!IsCollectionCall(*source)) {
    info.reason = "leading scan is not fn:collection";
    query->parallel = std::move(info);
    return;
  }

  info.eligible = true;
  info.source = source;
  // Intra-document range splitting: sound only for a single downward
  // TreeJoin (see header).
  if (joins.size() == 1 && DownwardAxis(joins[0]->axis)) {
    info.range_split = joins[0];
  }
  query->parallel = std::move(info);
}

}  // namespace xqc
