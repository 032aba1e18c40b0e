#include "src/opt/optimizer.h"

#include <set>

#include "src/runtime/builtins.h"

namespace xqc {
namespace {

/// Collects every symbol used anywhere in a plan (field names, parameters)
/// so freshly generated index/null fields cannot collide.
void CollectSymbols(const Op& op, std::set<Symbol>* out) {
  out->insert(op.name);
  for (Symbol f : op.fields) out->insert(f);
  for (Symbol f : op.fields2) out->insert(f);
  for (const OpPtr& d : op.deps) CollectSymbols(*d, out);
  for (const OpPtr& i : op.inputs) CollectSymbols(*i, out);
  for (const OrderSpecOp& s : op.specs) CollectSymbols(*s.key, out);
}

/// Collects fields read via FieldAccess anywhere in the plan.
void CollectAccessedFields(const Op& op, std::set<Symbol>* out) {
  if (op.kind == OpKind::kFieldAccess) out->insert(op.name);
  for (const OpPtr& d : op.deps) CollectAccessedFields(*d, out);
  for (const OpPtr& i : op.inputs) CollectAccessedFields(*i, out);
  for (const OrderSpecOp& s : op.specs) CollectAccessedFields(*s.key, out);
}

class Rewriter {
 public:
  explicit Rewriter(const Op& root, OptimizerStats* stats) : stats_(stats) {
    CollectSymbols(root, &used_);
  }

  /// One bottom-up pass; sets changed_ when any rule fires.
  OpPtr Pass(OpPtr op) {
    for (OpPtr& d : op->deps) d = Pass(std::move(d));
    for (OpPtr& i : op->inputs) i = Pass(std::move(i));
    for (OrderSpecOp& s : op->specs) s.key = Pass(std::move(s.key));
    // Apply rules at this node until none fires.
    for (int guard = 0; guard < 64; guard++) {
      OpPtr next = Apply(op);
      if (next == nullptr) break;
      changed_ = true;
      op = std::move(next);
    }
    return op;
  }

  bool changed() const { return changed_; }
  void reset_changed() { changed_ = false; }

 private:
  Symbol Fresh(const char* base) {
    for (int n = 1;; n++) {
      Symbol s(std::string(base) + std::to_string(n));
      if (used_.insert(s).second) return s;
    }
  }

  void Count(int OptimizerStats::* field) {
    if (stats_ != nullptr) (stats_->*field)++;
  }

  /// Tries every rule at `op`; returns the replacement or null.
  OpPtr Apply(const OpPtr& op) {
    if (OpPtr r = FusePathStep(op)) return r;
    if (OpPtr r = CollapseDescendantStep(op)) return r;
    if (OpPtr r = RemoveMap(op)) return r;
    if (OpPtr r = InsertGroupBy(op)) return r;
    if (OpPtr r = MapThroughGroupBy(op)) return r;
    if (OpPtr r = RemoveDuplicateNull(op)) return r;
    if (OpPtr r = InsertProduct(op)) return r;
    if (OpPtr r = SplitSelect(op)) return r;
    if (OpPtr r = InsertJoin(op)) return r;
    if (OpPtr r = MergeSelectIntoJoin(op)) return r;
    if (OpPtr r = InsertOuterJoin(op)) return r;
    return nullptr;
  }

  // Path-step fusion: TreeJoin is set-at-a-time (Section 3), so the
  // normalized per-context-node FLWOR of a path step
  //   fs:distinct-docorder(
  //     MapToItem{TreeJoin...(IN#q)}(MapFromItem{[q:IN]}(X)))
  // (optionally with a single-tuple MapConcat around the MapFromItem) is
  // exactly TreeJoin...(X): TreeJoin already returns distinct nodes in
  // document order. This is what turns compiled paths into the inlined
  // (IN#p)/name/text() navigation chains shown in the paper's plans.
  OpPtr FusePathStep(const OpPtr& op) {
    if (IdOf(op->builtin) != BuiltinId::kDistinctDocOrder) return nullptr;
    if (op->inputs[0]->kind == OpKind::kTreeJoin) {
      return op->inputs[0];  // ddo(TreeJoin(X)) => TreeJoin(X)
    }
    if (op->inputs[0]->kind != OpKind::kMapToItem) {
      return nullptr;
    }
    const OpPtr& map = op->inputs[0];
    // Source: MapFromItem{[q:IN]}(X), possibly under a single-tuple
    // MapConcat (input IN or ([])).
    const Op* src = map->inputs[0].get();
    if (src->kind == OpKind::kMapConcat &&
        (src->inputs[0]->kind == OpKind::kIn ||
         src->inputs[0]->kind == OpKind::kEmptyTuples)) {
      src = src->deps[0].get();
    }
    if (src->kind != OpKind::kMapFromItem ||
        src->deps[0]->kind != OpKind::kTupleConstruct ||
        src->deps[0]->fields.size() != 1 ||
        src->deps[0]->inputs[0]->kind != OpKind::kIn) {
      return nullptr;
    }
    Symbol q = src->deps[0]->fields[0];
    const OpPtr& x = src->inputs[0];
    // Dependent: a non-empty chain of TreeJoins over IN#q.
    std::vector<const Op*> chain;
    const Op* cur = map->deps[0].get();
    while (cur->kind == OpKind::kTreeJoin) {
      chain.push_back(cur);
      cur = cur->inputs[0].get();
    }
    if (chain.empty() || cur->kind != OpKind::kFieldAccess ||
        cur->name != q || cur->inputs[0]->kind != OpKind::kIn) {
      return nullptr;
    }
    Count(&OptimizerStats::fuse_path_step);
    OpPtr rebuilt = x;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      OpPtr tj = std::make_shared<Op>(**it);
      tj->inputs = {std::move(rebuilt)};
      rebuilt = std::move(tj);
    }
    return rebuilt;
  }

  // '//' collapse: TreeJoin[child::T](TreeJoin[descendant-or-self::node()]
  // (X)) => TreeJoin[descendant::T](X) — avoids materializing every node.
  OpPtr CollapseDescendantStep(const OpPtr& op) {
    if (op->kind != OpKind::kTreeJoin || op->axis != Axis::kChild) {
      return nullptr;
    }
    const OpPtr& inner = op->inputs[0];
    if (inner->kind != OpKind::kTreeJoin ||
        inner->axis != Axis::kDescendantOrSelf ||
        inner->ntest.kind != ItemTest::Kind::kAnyNode) {
      return nullptr;
    }
    Count(&OptimizerStats::collapse_descendant);
    OpPtr tj = std::make_shared<Op>(*op);
    tj->axis = Axis::kDescendant;
    tj->inputs = {inner->inputs[0]};
    return tj;
  }

  // (remove map): MapConcat{Op1}([]) => Op1.
  OpPtr RemoveMap(const OpPtr& op) {
    if (op->kind != OpKind::kMapConcat) return nullptr;
    if (op->inputs[0]->kind != OpKind::kEmptyTuples) return nullptr;
    Count(&OptimizerStats::remove_map);
    return op->deps[0];
  }

  // (insert product): MapConcat{Op1}(Op2) => Product(Op2, Op1) when Op1 is
  // independent of IN.
  OpPtr InsertProduct(const OpPtr& op) {
    if (op->kind != OpKind::kMapConcat) return nullptr;
    if (op->inputs[0]->kind == OpKind::kEmptyTuples) return nullptr;
    if (FreeIn(*op->deps[0])) return nullptr;
    // Keep single-tuple deps (let bindings of independent expressions) as
    // maps: turning them into products buys nothing.
    if (op->deps[0]->kind == OpKind::kTupleConstruct) return nullptr;
    Count(&OptimizerStats::insert_product);
    return OpProduct(op->inputs[0], op->deps[0]);
  }

  // Predicate split: Select{op:and(P,Q)}(X) => Select{P}(Select{Q}(X)).
  OpPtr SplitSelect(const OpPtr& op) {
    if (op->kind != OpKind::kSelect) return nullptr;
    const Op& pred = *op->deps[0];
    if (IdOf(pred.builtin) != BuiltinId::kAnd) return nullptr;
    Count(&OptimizerStats::split_select);
    return OpSelect(pred.inputs[0],
                    OpSelect(pred.inputs[1], op->inputs[0]));
  }

  // (insert join): Select{Op1}(Product(Op2,Op3)) => Join{Op1}(Op2,Op3).
  OpPtr InsertJoin(const OpPtr& op) {
    if (op->kind != OpKind::kSelect) return nullptr;
    if (op->inputs[0]->kind != OpKind::kProduct) return nullptr;
    Count(&OptimizerStats::insert_join);
    return OpJoin(op->deps[0], op->inputs[0]->inputs[0],
                  op->inputs[0]->inputs[1]);
  }

  // Residual-predicate merge: Select{P}(Join{Q}(A,B)) => Join{P and Q}(A,B)
  // so a multi-predicate join reaches the physical operator in one piece
  // (the extension Section 6 mentions) and (insert outer-join) can fire.
  OpPtr MergeSelectIntoJoin(const OpPtr& op) {
    if (op->kind != OpKind::kSelect) return nullptr;
    if (op->inputs[0]->kind != OpKind::kJoin) return nullptr;
    const OpPtr& join = op->inputs[0];
    Count(&OptimizerStats::insert_join);
    OpPtr both = OpCall(BuiltinRow(BuiltinId::kAnd).name,
                        {op->deps[0], join->deps[0]});
    return OpJoin(std::move(both), join->inputs[0], join->inputs[1]);
  }

  static bool ContainsSelect(const Op& op) {
    if (op.kind == OpKind::kSelect || op.kind == OpKind::kJoin) return true;
    for (const OpPtr& d : op.deps) {
      if (ContainsSelect(*d)) return true;
    }
    for (const OpPtr& i : op.inputs) {
      if (ContainsSelect(*i)) return true;
    }
    return false;
  }

  /// Decomposes `plan` as a chain of unary item operators over a MapToItem:
  /// returns the MapToItem node and rebuilds the chain over a fresh IN leaf
  /// (the post-grouping operator). Null if the shape does not match.
  static const Op* FindMapToItemChain(const OpPtr& plan, OpPtr* chain_over_in) {
    // Unary item operators admissible in the chain: single-input calls,
    // type operators, tree joins — anything with exactly one input and no
    // IN-rebinding dependents.
    const Op* cur = plan.get();
    std::vector<const Op*> chain;
    while (true) {
      if (cur->kind == OpKind::kMapToItem) break;
      bool unary_item = (cur->kind == OpKind::kCall ||
                         cur->kind == OpKind::kTypeAssert ||
                         cur->kind == OpKind::kCast ||
                         cur->kind == OpKind::kTreeJoin ||
                         cur->kind == OpKind::kValidate ||
                         cur->kind == OpKind::kTypeMatches) &&
                        cur->inputs.size() == 1 && cur->deps.empty();
      if (!unary_item) return nullptr;
      chain.push_back(cur);
      cur = cur->inputs[0].get();
    }
    // Rebuild the chain with IN replacing the MapToItem result.
    OpPtr rebuilt = OpIn();
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      OpPtr node = std::make_shared<Op>(**it);
      node->inputs = {std::move(rebuilt)};
      rebuilt = std::move(node);
    }
    *chain_over_in = std::move(rebuilt);
    return cur;
  }

  // (insert group-by): a MapConcat whose dependent is a unary tuple
  // constructor over an item-operator chain ending in a correlated
  // MapToItem becomes a trivial GroupBy (the paper's key observation).
  OpPtr InsertGroupBy(const OpPtr& op) {
    if (op->kind != OpKind::kMapConcat) return nullptr;
    const OpPtr& dep = op->deps[0];
    if (dep->kind != OpKind::kTupleConstruct || dep->fields.size() != 1) {
      return nullptr;
    }
    OpPtr post;
    const Op* map_to_item = FindMapToItemChain(dep->inputs[0], &post);
    if (map_to_item == nullptr) return nullptr;
    const OpPtr& op2 = map_to_item->deps[0];    // per-item operator
    const OpPtr& op3 = map_to_item->inputs[0];  // nested tuple stream
    if (!FreeIn(*op3)) return nullptr;          // only unnest correlated streams
    // Heuristic guard: unnesting pays off when the nested stream filters
    // (a where clause / predicate that can become a join); plain correlated
    // paths are cheaper evaluated directly.
    if (!ContainsSelect(*op3)) return nullptr;
    Count(&OptimizerStats::insert_group_by);
    Symbol null_field = Fresh("null");
    OpPtr gb = OpGroupBy(dep->fields[0], {}, {null_field}, std::move(post),
                         op2, OpOMap(null_field, op3));
    return OpMapConcat(std::move(gb), op->inputs[0]);
  }

  // (map through group-by).
  OpPtr MapThroughGroupBy(const OpPtr& op) {
    if (op->kind != OpKind::kMapConcat) return nullptr;
    const OpPtr& dep = op->deps[0];
    if (dep->kind != OpKind::kGroupBy) return nullptr;
    Count(&OptimizerStats::map_through_group_by);
    Symbol ind = Fresh("index");
    Symbol null_field = Fresh("null");
    std::vector<Symbol> inds = dep->fields;
    inds.push_back(ind);
    std::vector<Symbol> nulls = dep->fields2;
    nulls.push_back(null_field);
    return OpGroupBy(
        dep->name, std::move(inds), std::move(nulls), dep->deps[0],
        dep->deps[1],
        OpOMapConcat(null_field, dep->inputs[0],
                     OpMapIndex(ind, op->inputs[0])));
  }

  // (remove duplicate null), applied in GroupBy context so the dropped
  // null field also leaves the GroupBy's null list.
  OpPtr RemoveDuplicateNull(const OpPtr& op) {
    if (op->kind != OpKind::kGroupBy) return nullptr;
    const OpPtr& input = op->inputs[0];
    if (input->kind != OpKind::kOMapConcat) return nullptr;
    const OpPtr& inner = input->deps[0];
    if (inner->kind != OpKind::kOMap) return nullptr;
    Count(&OptimizerStats::remove_duplicate_null);
    std::vector<Symbol> nulls;
    for (Symbol n : op->fields2) {
      if (n != inner->name) nulls.push_back(n);
    }
    return OpGroupBy(op->name, op->fields, std::move(nulls), op->deps[0],
                     op->deps[1],
                     OpOMapConcat(input->name, inner->inputs[0],
                                  input->inputs[0]));
  }

  // (insert outer-join): OMapConcat[n]{Join{P}(IN,B)}(A) =>
  // LOuterJoin[n]{P}(A,B).
  OpPtr InsertOuterJoin(const OpPtr& op) {
    if (op->kind != OpKind::kOMapConcat) return nullptr;
    const OpPtr& dep = op->deps[0];
    if (dep->kind != OpKind::kJoin) return nullptr;
    if (dep->inputs[0]->kind != OpKind::kIn) return nullptr;
    if (FreeIn(*dep->inputs[1])) return nullptr;
    Count(&OptimizerStats::insert_outer_join);
    return OpLOuterJoin(op->name, dep->deps[0], op->inputs[0],
                        dep->inputs[1]);
  }

  std::set<Symbol> used_;
  OptimizerStats* stats_;
  bool changed_ = false;
};

/// Final pass: MapIndex[q] => MapIndexStep[q] when q is never read via
/// FieldAccess (it only keys a GroupBy), matching the paper's final plan P2.
OpPtr IndexToIndexStep(OpPtr op, const std::set<Symbol>& accessed,
                       OptimizerStats* stats) {
  for (OpPtr& d : op->deps) d = IndexToIndexStep(std::move(d), accessed, stats);
  for (OpPtr& i : op->inputs) {
    i = IndexToIndexStep(std::move(i), accessed, stats);
  }
  for (OrderSpecOp& s : op->specs) {
    s.key = IndexToIndexStep(std::move(s.key), accessed, stats);
  }
  if (op->kind == OpKind::kMapIndex && accessed.count(op->name) == 0) {
    op->kind = OpKind::kMapIndexStep;
    if (stats != nullptr) stats->index_to_index_step++;
  }
  return op;
}

}  // namespace

OpPtr OptimizePlan(OpPtr plan, OptimizerStats* stats) {
  Rewriter rw(*plan, stats);
  for (int pass = 0; pass < 64; pass++) {
    rw.reset_changed();
    plan = rw.Pass(std::move(plan));
    if (!rw.changed()) break;
  }
  std::set<Symbol> accessed;
  CollectAccessedFields(*plan, &accessed);
  plan = IndexToIndexStep(std::move(plan), accessed, stats);
  return plan;
}

void OptimizeQuery(CompiledQuery* query, OptimizerStats* stats) {
  query->plan = OptimizePlan(std::move(query->plan), stats);
  for (auto& [name, fn] : query->functions) {
    fn.plan = OptimizePlan(std::move(fn.plan), stats);
  }
  for (auto& [name, plan] : query->globals) {
    if (plan != nullptr) plan = OptimizePlan(std::move(plan), stats);
  }
}

}  // namespace xqc
