#include "src/runtime/eval.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>

#include "src/runtime/builtins.h"
#include "src/runtime/construct.h"
#include "src/runtime/joins.h"
#include "src/types/compare.h"
#include "src/xml/project.h"
#include "src/xml/serializer.h"

namespace xqc {
namespace {

constexpr int kMaxRecursionDepth = 4096;

Result<int> CompareOrderKeys(const Sequence& a, const Sequence& b,
                             bool empty_greatest) {
  if (a.empty() && b.empty()) return 0;
  if (a.empty()) return empty_greatest ? 1 : -1;
  if (b.empty()) return empty_greatest ? -1 : 1;
  AtomicValue x = a[0].atomic(), y = b[0].atomic();
  if (x.type() == AtomicType::kUntypedAtomic) {
    x = AtomicValue::String(x.AsString());
  }
  if (y.type() == AtomicType::kUntypedAtomic) {
    y = AtomicValue::String(y.AsString());
  }
  XQC_ASSIGN_OR_RETURN(bool lt, AtomicCompare(CompOp::kLt, x, y));
  if (lt) return -1;
  XQC_ASSIGN_OR_RETURN(bool gt, AtomicCompare(CompOp::kGt, x, y));
  if (gt) return 1;
  return 0;
}

/// Is `op` a general-comparison call whose two argument plans partition
/// into left-side / right-side key expressions? (The join recognizer
/// feeding the Section 6 algorithms.) `lf` / `rf` are the field layouts of
/// a representative tuple from each side. On success sets the operator as
/// seen from `left_key OP right_key` (mirrored if the arguments were
/// swapped).
bool IsIndexableComparison(const Op& pred, const std::set<Symbol>& lf,
                           const std::set<Symbol>& rf, const Op** left_key,
                           const Op** right_key, CompOp* comp) {
  if (pred.builtin == nullptr ||
      pred.builtin->comparison != Comparison::kGeneral) {
    return false;
  }
  *comp = pred.builtin->comp;
  auto side_of = [&](const Op& key) -> int {
    std::vector<Symbol> used;
    CollectOuterFieldUses(key, &used);
    bool in_l = true, in_r = true;
    for (Symbol f : used) {
      if (lf.count(f) == 0) in_l = false;
      if (rf.count(f) == 0) in_r = false;
    }
    if (used.empty()) return 0;  // constant key: either side
    if (in_l && !in_r) return -1;
    if (in_r && !in_l) return 1;
    return 2;  // mixed / unknown
  };
  int s0 = side_of(*pred.inputs[0]);
  int s1 = side_of(*pred.inputs[1]);
  if ((s0 == -1 || s0 == 0) && (s1 == 1 || s1 == 0)) {
    *left_key = pred.inputs[0].get();
    *right_key = pred.inputs[1].get();
    return true;
  }
  if ((s0 == 1) && (s1 == -1 || s1 == 0)) {
    *left_key = pred.inputs[1].get();
    *right_key = pred.inputs[0].get();
    *comp = MirrorCompOp(*comp);
    return true;
  }
  return false;
}

}  // namespace

PlanEvaluator::PlanEvaluator(const CompiledQuery* query, DynamicContext* ctx,
                             const ExecOptions& options)
    : query_(query),
      ctx_(ctx),
      options_(options),
      guard_(ctx->guard() != nullptr ? ctx->guard() : UnlimitedGuard()) {}

Status PlanEvaluator::PrepareGlobals() {
  if (globals_prepared_) return Status::OK();
  globals_prepared_ = true;
  for (const auto& [name, plan] : query_->globals) {
    if (plan == nullptr) {
      Sequence v;
      if (!ctx_->LookupVariable(name, &v)) {
        return Status::XQueryError(
            "XPDY0002", "external variable $" + name.str() + " not bound");
      }
      globals_[name] = std::move(v);
      continue;
    }
    XQC_ASSIGN_OR_RETURN(Sequence v, EvalItems(*plan, EvalCtx{}));
    globals_[name] = std::move(v);
  }
  return Status::OK();
}

Result<Sequence> PlanEvaluator::Run() {
  XQC_RETURN_IF_ERROR(PrepareGlobals());
  return EvalItems(*query_->plan, EvalCtx{});
}

Result<bool> PlanEvaluator::EvalPredicate(const Op& pred, const Tuple& t,
                                          const EvalCtx& c) {
  EvalCtx pc = c;
  pc.tuple = &t;
  pc.items = nullptr;
  // The effective boolean value is decidable from a 2-item prefix (empty,
  // first-item-node, or the >1-atomics error), so the predicate's
  // evaluation is bounded.
  XQC_ASSIGN_OR_RETURN(Sequence v, EvalItemsLimited(pred, pc, 2));
  return EffectiveBooleanValue(v);
}

Result<Sequence> PlanEvaluator::EvalItemsLimited(const Op& op, const EvalCtx& c,
                                                 size_t limit) {
  if (limit == kEvalNoLimit) return EvalItems(op, c);
  switch (op.kind) {
    case OpKind::kMapToItem:
      return EvalMapToItem(op, c, limit);
    case OpKind::kSequence: {
      Sequence out;
      for (const OpPtr& i : op.inputs) {
        if (out.size() >= limit) {
          stats_.streaming_early_stops++;
          break;
        }
        XQC_ASSIGN_OR_RETURN(Sequence v,
                             EvalItemsLimited(*i, c, limit - out.size()));
        Extend(&out, std::move(v));
      }
      return out;
    }
    case OpKind::kCond: {
      XQC_ASSIGN_OR_RETURN(Sequence cond, EvalItemsLimited(*op.inputs[0], c, 2));
      XQC_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(cond));
      return EvalItemsLimited(b ? *op.deps[0] : *op.deps[1], c, limit);
    }
    case OpKind::kTreeJoin: {
      if (options_.force_sort || op.ddo != DdoMode::kSkip ||
          (slice_ != nullptr && &op == slice_->range_split)) {
        // Range-split units must apply the slice filter to the full step
        // output; EvalItems handles it.
        return EvalItems(op, c);
      }
      // Sort-free step: each input node's result is already final output,
      // so the step can stop as soon as `limit` items exist. The input is
      // pulled whole — acceptable because the win here is skipping axis
      // application (e.g. //huge-subtree[1]), not input evaluation.
      XQC_ASSIGN_OR_RETURN(Sequence in, EvalItems(*op.inputs[0], c));
      TreeJoinOpts tj{op.ddo, false, options_.use_doc_index, guard_};
      Sequence out;
      for (const Item& it : in) {
        if (out.size() >= limit) {
          stats_.streaming_early_stops++;
          break;
        }
        if (!it.IsNode()) {
          return Status::XQueryError("XPTY0004",
                                     "path step applied to an atomic value");
        }
        XQC_RETURN_IF_ERROR(guard_->CheckSteps(1));
        XQC_RETURN_IF_ERROR(ApplyAxis(it.node(), op.axis, op.ntest,
                                      ctx_->schema(), &out, tj,
                                      &stats_.tree_join));
      }
      stats_.tree_join.ddo_skip_static++;
      return out;
    }
    default:
      return EvalItems(op, c);
  }
}

namespace {

/// Pulls `it` to exhaustion, handing each tuple to `sink` (which may move
/// from it): NextBatch of `batch_size`, or Next() at batch_size 1 (the
/// oracle).
template <typename Sink>
Status Drain(TupleIterator* it, int batch_size, Sink&& sink) {
  if (batch_size <= 1) {
    Tuple t;
    while (true) {
      XQC_ASSIGN_OR_RETURN(bool has, it->Next(&t));
      if (!has) return Status::OK();
      XQC_RETURN_IF_ERROR(sink(t));
    }
  }
  TupleBatch b;
  while (true) {
    XQC_RETURN_IF_ERROR(it->NextBatch(&b, static_cast<size_t>(batch_size)));
    if (b.empty()) return Status::OK();
    for (size_t i = 0; i < b.size(); i++) XQC_RETURN_IF_ERROR(sink(b[i]));
  }
}

}  // namespace

Result<Table> PlanEvaluator::EvalTable(const Op& op, const EvalCtx& c) {
  XQC_ASSIGN_OR_RETURN(TupleIteratorPtr it, OpenTable(op, c));
  Table out;
  XQC_RETURN_IF_ERROR(Drain(it.get(), options_.batch_size, [&](Tuple& t) {
    out.push_back(std::move(t));
    return Status::OK();
  }));
  return out;
}

Result<Sequence> PlanEvaluator::EvalMapToItem(const Op& op, const EvalCtx& c,
                                              size_t limit) {
  XQC_ASSIGN_OR_RETURN(TupleIteratorPtr input, OpenTable(*op.inputs[0], c));
  Sequence out;
  if (limit == kEvalNoLimit) {
    XQC_RETURN_IF_ERROR(Drain(input.get(), options_.batch_size,
                              [&](Tuple& t) -> Status {
      EvalCtx dc = c;
      dc.tuple = &t;
      dc.items = nullptr;
      XQC_ASSIGN_OR_RETURN(Sequence v, EvalItems(*op.deps[0], dc));
      Extend(&out, std::move(v));
      return Status::OK();
    }));
    return out;
  }
  // A limited pull stays tuple-at-a-time: its demand is a handful of
  // tuples, and the oracle's early-exit accounting must be preserved
  // exactly.
  Tuple t;
  while (out.size() < limit) {
    XQC_ASSIGN_OR_RETURN(bool has, input->Next(&t));
    if (!has) return out;
    EvalCtx dc = c;
    dc.tuple = &t;
    dc.items = nullptr;
    XQC_ASSIGN_OR_RETURN(Sequence v, EvalItems(*op.deps[0], dc));
    Extend(&out, std::move(v));
  }
  input->Close();
  stats_.streaming_early_stops++;
  return out;
}

Result<Sequence> PlanEvaluator::EvalItems(const Op& op, const EvalCtx& c) {
  XQC_RETURN_IF_ERROR(guard_->Check());
  switch (op.kind) {
    case OpKind::kIn:
      if (c.items != nullptr) return *c.items;
      return Status::Internal("IN evaluated as items with no item context");
    case OpKind::kEmpty:
      return Sequence{};
    case OpKind::kScalar:
      return Sequence{op.literal};
    case OpKind::kVar: {
      // The algebra context: function parameters shadow globals shadow
      // externally bound variables.
      if (c.params != nullptr) {
        auto it = c.params->find(op.name);
        if (it != c.params->end()) return it->second;
      }
      auto git = globals_.find(op.name);
      if (git != globals_.end()) return git->second;
      Sequence v;
      if (ctx_->LookupVariable(op.name, &v)) return v;
      return Status::XQueryError("XPDY0002",
                                 "unbound variable $" + op.name.str());
    }
    case OpKind::kSequence: {
      Sequence out;
      for (const OpPtr& i : op.inputs) {
        XQC_ASSIGN_OR_RETURN(Sequence v, EvalItems(*i, c));
        Extend(&out, std::move(v));
      }
      return out;
    }
    case OpKind::kElement:
    case OpKind::kAttribute:
    case OpKind::kText:
    case OpKind::kComment:
    case OpKind::kPI:
    case OpKind::kDocumentNode:
      return EvalConstructor(op, c);
    case OpKind::kTreeJoin: {
      XQC_ASSIGN_OR_RETURN(Sequence in, EvalItems(*op.inputs[0], c));
      // One amortized step per context node: a huge axis step cannot run
      // unbounded between slow checks. Credited identically at every
      // batch size (TreeJoin is item-space; batching happens around it).
      XQC_RETURN_IF_ERROR(guard_->CheckSteps(static_cast<int64_t>(in.size())));
      TreeJoinOpts tj{op.ddo, options_.force_sort, options_.use_doc_index,
                      guard_};
      Result<Sequence> joined = TreeJoin(in, op.axis, op.ntest, ctx_->schema(),
                                         tj, &stats_.tree_join);
      if (!joined.ok() || slice_ == nullptr || &op != slice_->range_split) {
        return joined;
      }
      // Range-split partition unit: keep only this unit's pre-order slice
      // of the step output. The slices partition [root.start, root.end], so
      // concatenating units in range order reproduces the full output.
      Sequence sliced;
      for (Item& it : joined.value()) {
        uint64_t s = it.node()->start;
        if (s >= slice_->range_lo && s < slice_->range_hi) {
          sliced.push_back(std::move(it));
        }
      }
      return sliced;
    }
    case OpKind::kTreeProject: {
      // TreeProject[paths]: prune each document/element tree to the nodes
      // the projection paths need (Marian-Siméon style).
      XQC_ASSIGN_OR_RETURN(Sequence in, EvalItems(*op.inputs[0], c));
      Sequence out;
      out.reserve(in.size());
      for (const Item& it : in) {
        if (!it.IsNode()) {
          return Status::XQueryError("XPTY0004",
                                     "TreeProject of an atomic value");
        }
        XQC_ASSIGN_OR_RETURN(NodePtr p, ProjectTree(it.node(), op.paths));
        out.push_back(std::move(p));
      }
      return out;
    }
    case OpKind::kCastable:
    case OpKind::kCast: {
      XQC_ASSIGN_OR_RETURN(Sequence v, EvalItems(*op.inputs[0], c));
      XQC_ASSIGN_OR_RETURN(Sequence atoms, Atomize(v));
      bool castable = op.kind == OpKind::kCastable;
      if (atoms.empty()) {
        bool ok_empty = op.stype.occ == Occurrence::kOptional;
        if (castable) return Sequence{AtomicValue::Boolean(ok_empty)};
        if (ok_empty) return Sequence{};
        return Status::XQueryError("XPTY0004", "cast of empty sequence");
      }
      if (atoms.size() > 1) {
        if (castable) return Sequence{AtomicValue::Boolean(false)};
        return Status::XQueryError("XPTY0004", "cast of multi-item sequence");
      }
      Result<AtomicValue> r = CastTo(atoms[0].atomic(), op.stype.test.atomic);
      if (castable) return Sequence{AtomicValue::Boolean(r.ok())};
      if (!r.ok()) return r.status();
      return Sequence{r.take()};
    }
    case OpKind::kValidate: {
      XQC_ASSIGN_OR_RETURN(Sequence v, EvalItems(*op.inputs[0], c));
      Sequence out;
      for (const Item& it : v) {
        if (!it.IsNode()) {
          return Status::XQueryError("XQTY0030",
                                     "validate of an atomic value");
        }
        if (ctx_->schema() == nullptr) {
          out.push_back(it);
          continue;
        }
        XQC_ASSIGN_OR_RETURN(NodePtr n, ctx_->schema()->Validate(it.node()));
        out.push_back(std::move(n));
      }
      return out;
    }
    case OpKind::kTypeMatches: {
      XQC_ASSIGN_OR_RETURN(Sequence v, EvalItems(*op.inputs[0], c));
      return Sequence{
          AtomicValue::Boolean(op.stype.Matches(v, ctx_->schema()))};
    }
    case OpKind::kTypeAssert: {
      XQC_ASSIGN_OR_RETURN(Sequence v, EvalItems(*op.inputs[0], c));
      if (!op.stype.Matches(v, ctx_->schema())) {
        return Status::XQueryError(
            "XPTY0004",
            "TypeAssert failed for type " + op.stype.ToString());
      }
      return v;
    }
    case OpKind::kCall:
      return EvalCall(op, c);
    case OpKind::kCond: {
      // A condition is consumed by EBV only: a 2-item prefix suffices.
      XQC_ASSIGN_OR_RETURN(Sequence cond, EvalItemsLimited(*op.inputs[0], c, 2));
      XQC_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(cond));
      return EvalItems(b ? *op.deps[0] : *op.deps[1], c);
    }
    case OpKind::kParse: {
      XQC_ASSIGN_OR_RETURN(Sequence uri, EvalItems(*op.inputs[0], c));
      if (uri.size() != 1) {
        return Status::XQueryError("FODC0002", "Parse with non-singleton URI");
      }
      XQC_ASSIGN_OR_RETURN(NodePtr doc,
                           ctx_->ResolveDocument(uri[0].StringValue()));
      return Sequence{std::move(doc)};
    }
    case OpKind::kSerialize: {
      // Serialize(URI, S(i)): writes the serialized value to the URI
      // (a filesystem path) and returns the empty sequence (Table 1).
      XQC_ASSIGN_OR_RETURN(Sequence uri, EvalItems(*op.inputs[0], c));
      XQC_ASSIGN_OR_RETURN(Sequence v, EvalItems(*op.inputs[1], c));
      if (uri.size() != 1) {
        return Status::XQueryError("FODC0002",
                                   "Serialize with non-singleton URI");
      }
      std::ofstream out(uri[0].StringValue(), std::ios::binary);
      if (!out) {
        return Status::IOError("cannot open for writing: " +
                               uri[0].StringValue());
      }
      out << SerializeSequence(v);
      return Sequence{};
    }
    case OpKind::kFieldAccess: {
      if (op.inputs[0]->kind == OpKind::kIn) {
        // IN#q: read the context tuple's field in place, without copying
        // the whole tuple first.
        const Sequence* v = c.tuple != nullptr ? c.tuple->Get(op.name)
                                               : nullptr;
        return v != nullptr ? *v : Sequence{};
      }
      XQC_ASSIGN_OR_RETURN(Tuple t, EvalTuple(*op.inputs[0], c));
      const Sequence* v = t.Get(op.name);
      if (v == nullptr) return Sequence{};
      return *v;
    }
    case OpKind::kMapToItem:
      return EvalMapToItem(op, c, kEvalNoLimit);
    case OpKind::kMapSome:
    case OpKind::kMapEvery: {
      // Quantifier short-circuit: stop pulling the binding stream at the
      // first deciding tuple.
      bool want = op.kind == OpKind::kMapSome;
      XQC_ASSIGN_OR_RETURN(TupleIteratorPtr input,
                           OpenTable(*op.inputs[0], c));
      Tuple t;
      while (true) {
        XQC_ASSIGN_OR_RETURN(bool has, input->Next(&t));
        if (!has) break;
        XQC_ASSIGN_OR_RETURN(bool b, EvalPredicate(*op.deps[0], t, c));
        if (b == want) {
          input->Close();
          stats_.streaming_early_stops++;
          return Sequence{AtomicValue::Boolean(want)};
        }
      }
      return Sequence{AtomicValue::Boolean(!want)};
    }
    default:
      return Status::Internal(std::string("tuple operator ") +
                              OpKindName(op.kind) +
                              " evaluated in item context");
  }
}

Result<Tuple> PlanEvaluator::EvalTuple(const Op& op, const EvalCtx& c) {
  XQC_RETURN_IF_ERROR(guard_->Check());
  switch (op.kind) {
    case OpKind::kIn:
      if (c.tuple != nullptr) return *c.tuple;
      return Tuple();  // top level: the empty tuple
    case OpKind::kTupleConstruct: {
      Tuple t;
      for (size_t i = 0; i < op.fields.size(); i++) {
        XQC_ASSIGN_OR_RETURN(Sequence v, EvalItems(*op.inputs[i], c));
        t.Set(op.fields[i], std::move(v));
      }
      return t;
    }
    case OpKind::kTupleConcat: {
      XQC_ASSIGN_OR_RETURN(Tuple a, EvalTuple(*op.inputs[0], c));
      XQC_ASSIGN_OR_RETURN(Tuple b, EvalTuple(*op.inputs[1], c));
      return Tuple::Concat(a, b);
    }
    default:
      return Status::Internal(std::string(OpKindName(op.kind)) +
                              " evaluated in tuple context");
  }
}

namespace {

/// Flattens a conjunction of op:and calls into its conjunct plans;
/// fn:boolean wrappers are transparent for predicate purposes.
void FlattenConjuncts(const Op* pred, std::vector<const Op*>* out) {
  const BuiltinId id = IdOf(pred->builtin);
  if (id != BuiltinId::kAnd && id != BuiltinId::kBoolean) {
    out->push_back(pred);
    return;
  }
  for (const OpPtr& in : pred->inputs) FlattenConjuncts(in.get(), out);
}

}  // namespace

Result<std::shared_ptr<const Table>> PlanEvaluator::MaterializeJoinRight(
    const Op& op, const EvalCtx& c, bool* cacheable) {
  // The inner (right) side of a correlated subplan's join re-evaluates per
  // outer tuple; when it is independent of IN (and of function parameters)
  // its materialization — and in PlanJoinStrategy, its Figure 6 index — is
  // cached.
  *cacheable = c.params == nullptr && !FreeIn(*op.inputs[1]);
  if (*cacheable) {
    auto it = table_cache_.find(op.inputs[1].get());
    if (it != table_cache_.end()) return it->second;
  }
  XQC_ASSIGN_OR_RETURN(Table t, EvalTable(*op.inputs[1], c));
  auto shared = std::make_shared<const Table>(std::move(t));
  if (*cacheable) table_cache_[op.inputs[1].get()] = shared;
  return shared;
}

Result<JoinStrategy> PlanEvaluator::PlanJoinStrategy(
    const Op& op, const EvalCtx& c, const Tuple& first_left,
    const std::shared_ptr<const Table>& right, bool right_cacheable) {
  JoinStrategy s;
  const Op& pred = *op.deps[0];

  // Multi-predicate joins (Section 6: "this algorithm handles one key
  // predicate in a join, but can be extended to multiple predicates"):
  // pick the first hashable equality conjunct as the index key and apply
  // the remaining conjuncts as a residual filter.
  if (options_.join_impl != JoinImpl::kNestedLoop) {
    std::set<Symbol> lf, rf;
    for (const auto& [f, v] : first_left.entries()) lf.insert(f);
    if (!right->empty()) {
      for (const auto& [f, v] : (*right)[0].entries()) rf.insert(f);
    }
    std::vector<const Op*> conjuncts;
    FlattenConjuncts(&pred, &conjuncts);
    const Op* lkey = nullptr;
    const Op* rkey = nullptr;
    CompOp comp = CompOp::kEq;
    size_t key_idx = conjuncts.size();
    // Prefer an equality conjunct (hash/ordered index); otherwise take an
    // inequality conjunct for the range sort join.
    for (size_t i = 0; i < conjuncts.size(); i++) {
      CompOp cand;
      const Op* lk;
      const Op* rk;
      if (IsIndexableComparison(*conjuncts[i], lf, rf, &lk, &rk, &cand) &&
          cand == CompOp::kEq) {
        key_idx = i;
        lkey = lk;
        rkey = rk;
        comp = cand;
        break;
      }
    }
    if (key_idx == conjuncts.size()) {
      for (size_t i = 0; i < conjuncts.size(); i++) {
        CompOp cand;
        const Op* lk;
        const Op* rk;
        if (IsIndexableComparison(*conjuncts[i], lf, rf, &lk, &rk, &cand) &&
            (cand == CompOp::kLt || cand == CompOp::kLe ||
             cand == CompOp::kGt || cand == CompOp::kGe)) {
          key_idx = i;
          lkey = lk;
          rkey = rk;
          comp = cand;
          break;
        }
      }
    }
    if (key_idx < conjuncts.size()) {
      auto rkey_fn = [this, rkey, &c](const Tuple& t) -> Result<Sequence> {
        EvalCtx kc = c;
        kc.tuple = &t;
        kc.items = nullptr;
        XQC_ASSIGN_OR_RETURN(Sequence v, EvalItems(*rkey, kc));
        return Atomize(v);  // fn:data, Figure 6 line 7
      };
      for (size_t i = 0; i < conjuncts.size(); i++) {
        if (i != key_idx) s.residual.push_back(conjuncts[i]);
      }
      s.left_key = lkey;
      s.comp = comp;

      if (comp == CompOp::kEq) {
        bool ordered = options_.join_impl == JoinImpl::kSort;
        if (ordered) {
          stats_.sort_joins++;
        } else {
          stats_.hash_joins++;
        }
        // Static key-type specialization (Section 6): when both key plans'
        // value classes are known, use single-entry string/double keys
        // instead of the general promotion enumeration.
        bool schema_in_scope = ctx_->schema() != nullptr;
        KeyMode mode = CombineKeyClasses(
            InferJoinKeyClass(*lkey, schema_in_scope),
            InferJoinKeyClass(*rkey, schema_in_scope));
        if (mode == KeyMode::kNoMatch) {
          // Statically incompatible key types: nothing ever matches.
          stats_.specialized_joins++;
          s.kind = JoinStrategy::Kind::kNoMatch;
          return s;
        }
        if (mode != KeyMode::kGeneralKeys) stats_.specialized_joins++;
        s.kind = JoinStrategy::Kind::kEquality;
        if (right_cacheable) {
          auto it = inner_cache_.find(&op);
          if (it != inner_cache_.end() && it->second.table == right) {
            s.eq_index = std::static_pointer_cast<const MaterializedInner>(
                it->second.index);
            stats_.join_index_reuses++;
          }
        }
        if (s.eq_index == nullptr) {
          XQC_ASSIGN_OR_RETURN(
              s.eq_index,
              MaterializeInner(*right, rkey_fn, ordered, mode, guard_));
          if (right_cacheable) {
            inner_cache_[&op] = CachedInner{
                right, std::static_pointer_cast<const void>(s.eq_index)};
          }
        }
        return s;
      }

      // Inequality: the range variant of the sort join (Section 6's "the
      // same approach can be used to implement a sort join").
      stats_.range_joins++;
      s.kind = JoinStrategy::Kind::kInequality;
      if (right_cacheable) {
        auto it = inner_cache_.find(&op);
        if (it != inner_cache_.end() && it->second.table == right) {
          s.range_index =
              std::static_pointer_cast<const MaterializedRangeInner>(
                  it->second.index);
          stats_.join_index_reuses++;
        }
      }
      if (s.range_index == nullptr) {
        XQC_ASSIGN_OR_RETURN(s.range_index,
                             MaterializeRangeInner(*right, rkey_fn, guard_));
        if (right_cacheable) {
          inner_cache_[&op] = CachedInner{
              right, std::static_pointer_cast<const void>(s.range_index)};
        }
      }
      return s;
    }
  }

  stats_.nested_loop_joins++;
  s.kind = JoinStrategy::Kind::kNestedLoop;
  return s;
}

Status PlanEvaluator::ProbeJoinTuple(const Op& op, const JoinStrategy& s,
                                     const EvalCtx& c, const Tuple& left,
                                     const Table& right, bool outer,
                                     Table* out) {
  switch (s.kind) {
    case JoinStrategy::Kind::kNoMatch:
      if (outer) out->push_back(OuterNullRow(op.name, left));
      return Status::OK();
    case JoinStrategy::Kind::kNestedLoop: {
      const Op& pred = *op.deps[0];
      PredFn pred_fn = [this, &pred, &c](const Tuple& t) {
        return EvalPredicate(pred, t, c);
      };
      return NestedLoopProbe(left, right, pred_fn, outer, op.name, out);
    }
    default:
      break;
  }
  // Indexed probes: evaluate and atomize the left key (Figure 6 line 7).
  EvalCtx kc = c;
  kc.tuple = &left;
  kc.items = nullptr;
  XQC_ASSIGN_OR_RETURN(Sequence kv, EvalItems(*s.left_key, kc));
  XQC_ASSIGN_OR_RETURN(Sequence keys, Atomize(kv));
  PredFn residual = [this, &s, &c](const Tuple& t) -> Result<bool> {
    for (const Op* conj : s.residual) {
      XQC_ASSIGN_OR_RETURN(bool b, EvalPredicate(*conj, t, c));
      if (!b) return false;
    }
    return true;
  };
  const PredFn* residual_ptr = s.residual.empty() ? nullptr : &residual;
  if (s.kind == JoinStrategy::Kind::kEquality) {
    return EqualityProbe(left, keys, right, *s.eq_index, outer, op.name,
                         residual_ptr, out);
  }
  return InequalityProbe(left, keys, right, *s.range_index, s.comp, outer,
                         op.name, residual_ptr, out);
}

Result<Table> PlanEvaluator::EvalGroupBy(const Op& op, const EvalCtx& c) {
  stats_.group_bys++;
  XQC_ASSIGN_OR_RETURN(Table in, EvalTable(*op.inputs[0], c));
  const Op& post = *op.deps[0];  // applied to each partition's items
  const Op& pre = *op.deps[1];   // applied to each non-null tuple

  // Evaluate null flags and pre-grouping items per tuple.
  struct Row {
    const Tuple* tuple;
    std::vector<int64_t> key;
    Sequence items;
    bool is_null;
  };
  std::vector<Row> rows;
  rows.reserve(in.size());
  for (const Tuple& t : in) {
    Row row{&t, {}, {}, false};
    for (Symbol nf : op.fields2) {
      const Sequence* flag = t.Get(nf);
      if (flag != nullptr && !flag->empty() && (*flag)[0].IsAtomic() &&
          (*flag)[0].atomic().type() == AtomicType::kBoolean &&
          (*flag)[0].atomic().AsBool()) {
        row.is_null = true;
      }
    }
    for (Symbol f : op.fields) {
      const Sequence* v = t.Get(f);
      if (v == nullptr || v->size() != 1 || !(*v)[0].IsAtomic() ||
          (*v)[0].atomic().type() != AtomicType::kInteger) {
        return Status::Internal("GroupBy index field " + f.str() +
                                " is not a singleton integer");
      }
      row.key.push_back((*v)[0].atomic().AsInt());
    }
    if (!row.is_null) {
      EvalCtx pc = c;
      pc.tuple = &t;
      pc.items = nullptr;
      XQC_ASSIGN_OR_RETURN(row.items, EvalItems(pre, pc));
    }
    rows.push_back(std::move(row));
  }

  // Partitions are keyed by the index fields in stable ascending order.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a.key < b.key; });

  Table out;
  size_t i = 0;
  while (i < rows.size()) {
    size_t j = i;
    Sequence partition_items;
    while (j < rows.size() && rows[j].key == rows[i].key) {
      Extend(&partition_items, std::move(rows[j].items));
      j++;
    }
    EvalCtx pc = c;
    pc.items = &partition_items;
    pc.tuple = nullptr;
    XQC_ASSIGN_OR_RETURN(Sequence agg, EvalItems(post, pc));
    Tuple result = *rows[i].tuple;
    result.Set(op.name, std::move(agg));
    out.push_back(std::move(result));
    i = j;
  }
  return out;
}

Result<Table> PlanEvaluator::EvalOrderBy(const Op& op, const EvalCtx& c) {
  XQC_ASSIGN_OR_RETURN(Table in, EvalTable(*op.inputs[0], c));
  struct Keyed {
    Tuple t;
    std::vector<Sequence> keys;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(in.size());
  for (Tuple& t : in) {
    Keyed k{std::move(t), {}};
    for (const OrderSpecOp& spec : op.specs) {
      EvalCtx kc = c;
      kc.tuple = &k.t;
      kc.items = nullptr;
      XQC_ASSIGN_OR_RETURN(Sequence kv, EvalItems(*spec.key, kc));
      XQC_ASSIGN_OR_RETURN(Sequence atoms, Atomize(kv));
      if (atoms.size() > 1) {
        return Status::XQueryError("XPTY0004",
                                   "order by key with more than one item");
      }
      k.keys.push_back(std::move(atoms));
    }
    keyed.push_back(std::move(k));
  }
  Status sort_error = Status::OK();
  std::stable_sort(keyed.begin(), keyed.end(),
                   [&](const Keyed& a, const Keyed& b) {
                     if (!sort_error.ok()) return false;
                     for (size_t i = 0; i < op.specs.size(); i++) {
                       Result<int> cmp = CompareOrderKeys(
                           a.keys[i], b.keys[i], op.specs[i].empty_greatest);
                       if (!cmp.ok()) {
                         sort_error = cmp.status();
                         return false;
                       }
                       int v = cmp.value();
                       if (op.specs[i].descending) v = -v;
                       if (v != 0) return v < 0;
                     }
                     return false;
                   });
  XQC_RETURN_IF_ERROR(sort_error);
  Table out;
  out.reserve(keyed.size());
  for (Keyed& k : keyed) out.push_back(std::move(k.t));
  return out;
}

namespace {

/// A single atomic numeric value (no untyped casting — callers that want
/// full F&O coercion must not rely on this).
bool SingletonNumeric(const Sequence& v, double* out) {
  if (v.size() != 1 || !v[0].IsAtomic() || !v[0].atomic().is_numeric()) {
    return false;
  }
  *out = v[0].atomic().AsDouble();
  return true;
}

}  // namespace

Result<Sequence> PlanEvaluator::EvalCall(const Op& op, const EvalCtx& c) {
  if (slice_ != nullptr && &op == slice_->source) {
    // Partition unit of a parallelized plan: the collection scan yields
    // just this unit's member documents (runtime/parallel.cc).
    return slice_->docs;
  }
  std::vector<Sequence> args(op.inputs.size());
  size_t pending = args.size();  // args[pending..] are already evaluated
  // Early-terminating built-ins: their first argument only needs a
  // bounded prefix (argument evaluation order is implementation-defined,
  // so fn:subsequence's bounds evaluate first).
  size_t first_limit = kEvalNoLimit;
  const Demand demand =
      op.builtin != nullptr ? op.builtin->demand : Demand::kAll;
  if (demand == Demand::kOneItem) {
    first_limit = 1;
  } else if (demand == Demand::kTwoItems) {
    first_limit = 2;
  } else if (demand == Demand::kBounds && op.inputs.size() == 3) {
    pending = 1;
    for (size_t i = 1; i < 3; i++) {
      XQC_ASSIGN_OR_RETURN(args[i], EvalItems(*op.inputs[i], c));
    }
    double dstart, dlen;
    if (SingletonNumeric(args[1], &dstart) &&
        SingletonNumeric(args[2], &dlen)) {
      // Positions >= round(start)+round(len) are excluded, so only the
      // prefix before that bound is needed. NaN bounds select nothing.
      double to = XQueryRound(dstart) + XQueryRound(dlen);
      if (std::isnan(to) || to < 1) {
        first_limit = 0;
      } else if (to <= 1e15) {
        first_limit = static_cast<size_t>(to) - 1;
      }
    }
  }
  for (size_t i = 0; i < pending; i++) {
    XQC_ASSIGN_OR_RETURN(
        args[i], EvalItemsLimited(*op.inputs[i], c,
                                  i == 0 ? first_limit : kEvalNoLimit));
  }
  if (op.builtin != nullptr) return op.builtin->fn(args, ctx_);
  auto it = query_->functions.find({op.name, args.size()});
  if (it != query_->functions.end()) {
    const CompiledFunction& f = it->second;
    if (++depth_ > kMaxRecursionDepth) {
      depth_--;
      return Status::ResourceExhausted(kGuardRecursionCode,
                                       "recursion depth exceeded");
    }
    std::unordered_map<Symbol, Sequence> params;
    for (size_t i = 0; i < args.size(); i++) {
      if (f.param_types[i] &&
          !f.param_types[i]->Matches(args[i], ctx_->schema())) {
        depth_--;
        return Status::XQueryError(
            "XPTY0004", "argument type mismatch calling " + f.name.str());
      }
      params[f.params[i]] = std::move(args[i]);
    }
    EvalCtx fc;
    fc.params = &params;
    Result<Sequence> r = EvalItems(*f.plan, fc);
    depth_--;
    if (r.ok() && f.return_type &&
        !f.return_type->Matches(r.value(), ctx_->schema())) {
      return Status::XQueryError(
          "XPTY0004", "result type mismatch from " + f.name.str());
    }
    return r;
  }
  return Status::XQueryError("XPST0017", "unbound call of " + op.name.str());
}

Result<Sequence> PlanEvaluator::EvalConstructor(const Op& op,
                                                const EvalCtx& c) {
  XQC_ASSIGN_OR_RETURN(Sequence content, EvalItems(*op.inputs[0], c));
  Symbol name = op.name;
  if (op.inputs.size() > 1) {  // computed constructor name
    XQC_ASSIGN_OR_RETURN(Sequence nv, EvalItems(*op.inputs[1], c));
    if (nv.size() != 1) {
      return Status::XQueryError("XPTY0004",
                                 "constructor name is not a QName");
    }
    name = Symbol(nv[0].StringValue());
  }
  switch (op.kind) {
    case OpKind::kElement: {
      XQC_ASSIGN_OR_RETURN(NodePtr n, ConstructElement(name, content, guard_));
      return Sequence{std::move(n)};
    }
    case OpKind::kAttribute: {
      XQC_ASSIGN_OR_RETURN(NodePtr n,
                           ConstructAttribute(name, content, guard_));
      return Sequence{std::move(n)};
    }
    case OpKind::kText: {
      XQC_ASSIGN_OR_RETURN(NodePtr n, ConstructText(content, guard_));
      if (n == nullptr) return Sequence{};
      return Sequence{std::move(n)};
    }
    case OpKind::kComment: {
      XQC_ASSIGN_OR_RETURN(NodePtr n, ConstructComment(content, guard_));
      return Sequence{std::move(n)};
    }
    case OpKind::kPI: {
      XQC_ASSIGN_OR_RETURN(NodePtr n, ConstructPI(name, content, guard_));
      return Sequence{std::move(n)};
    }
    case OpKind::kDocumentNode: {
      XQC_ASSIGN_OR_RETURN(NodePtr n, ConstructDocument(content, guard_));
      return Sequence{std::move(n)};
    }
    default:
      return Status::Internal("not a constructor operator");
  }
}

}  // namespace xqc
