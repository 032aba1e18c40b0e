// Iterator (open/next/close) implementations for the tuple algebra and
// PlanEvaluator::OpenTable, the physical-plan factory for every table-side
// operator.
//
// Streaming operators: Select (with a positional early-stop bound),
// Product (drain left, stream right), Map, OMap, MapConcat/OMapConcat,
// MapIndex/MapIndexStep, MapFromItem, and Join/LOuterJoin (Figure 6
// build side drained once, probe side streamed). GroupBy and OrderBy need
// their whole input before emitting anything: they drain their child
// (PlanEvaluator::EvalTable) and serve the result from a TableIter, as do
// the single-tuple operators (IN, the empty-tuple source, tuple
// construction).
#include "src/runtime/iterator.h"

#include <algorithm>
#include <utility>

#include "src/runtime/builtins.h"
#include "src/runtime/eval.h"

namespace xqc {

// Default batched pull: loops Next() until the batch is full or the
// stream ends, latching end-of-stream so further calls return the empty
// batch (Next() after false is undefined). Guard accounting is whatever
// Next() does — exactly the oracle's, since this IS the oracle loop.
Status TupleIterator::NextBatch(TupleBatch* out, size_t max) {
  out->clear();
  if (default_batch_eos_) return Status::OK();
  Tuple t;
  while (out->size() < max) {
    XQC_ASSIGN_OR_RETURN(bool has, Next(&t));
    if (!has) {
      default_batch_eos_ = true;
      break;
    }
    out->push(std::move(t));
  }
  return Status::OK();
}

namespace {

/// Yields the tuples of a precomputed table.
class TableIter : public TupleIterator {
 public:
  explicit TableIter(Table table) : table_(std::move(table)) {}
  Status Open() override { return Status::OK(); }
  Result<bool> Next(Tuple* out) override {
    if (idx_ >= table_.size()) return false;
    *out = std::move(table_[idx_++]);
    return true;
  }
  Status NextBatch(TupleBatch* out, size_t max) override {
    out->clear();
    while (out->size() < max && idx_ < table_.size()) {
      out->push(std::move(table_[idx_++]));
    }
    return Status::OK();
  }
  void Close() override {
    table_.clear();
    idx_ = 0;
  }

 private:
  Table table_;
  size_t idx_ = 0;
};

/// The largest input position that can still satisfy a positional
/// predicate over `pos_field`, or -1 when the predicate has no such
/// bound. Recognizes the normalized [N] / [position() <= N] shapes: a
/// value or general {eq,le,lt} comparison of #pos_field(In) with a
/// Scalar N, or the mirrored Scalar-first {eq,ge,gt} forms. A wrong -1
/// only costs the early stop; the Select predicate itself still filters
/// every tuple.
int64_t PositionalBound(const Op& pred, Symbol pos_field) {
  if (pred.builtin == nullptr ||
      pred.builtin->comparison == Comparison::kNone) {
    return -1;
  }
  auto is_pos = [&](const Op& o) {
    return o.kind == OpKind::kFieldAccess && o.name == pos_field &&
           o.inputs.size() == 1 && o.inputs[0]->kind == OpKind::kIn;
  };
  auto int_lit = [](const Op& o, int64_t* v) {
    if (o.kind != OpKind::kScalar ||
        o.literal.type() != AtomicType::kInteger) {
      return false;
    }
    *v = o.literal.AsInt();
    return true;
  };
  CompOp comp = pred.builtin->comp;
  int64_t lit = 0;
  if (is_pos(*pred.inputs[0]) && int_lit(*pred.inputs[1], &lit)) {
    // pos OP lit
  } else if (is_pos(*pred.inputs[1]) && int_lit(*pred.inputs[0], &lit)) {
    comp = MirrorCompOp(comp);  // lit OP pos  =>  pos MIRROR(OP) lit
  } else {
    return -1;
  }
  if (comp == CompOp::kEq || comp == CompOp::kLe) {
    return std::max<int64_t>(lit, 0);
  }
  if (comp == CompOp::kLt) return std::max<int64_t>(lit - 1, 0);
  return -1;
}

/// Select{pred}: filters the child stream. When the child is a
/// MapIndex[q] and the predicate bounds q above, stops pulling once no
/// later position can match — this is the [1] / [position() <= N] early
/// exit.
class SelectIter : public TupleIterator {
 public:
  SelectIter(PlanEvaluator* ev, const Op* op, const EvalCtx& c,
             TupleIteratorPtr child, int64_t bound)
      : ev_(ev), op_(op), c_(c), child_(std::move(child)), bound_(bound) {}
  Status Open() override { return Status::OK(); }
  Result<bool> Next(Tuple* out) override {
    if (stopped_) return false;
    Tuple t;
    while (true) {
      XQC_RETURN_IF_ERROR(ev_->guard()->Check());
      if (bound_ >= 0 && pulled_ >= bound_) {
        stopped_ = true;
        ev_->mutable_stats()->streaming_early_stops++;
        child_->Close();
        return false;
      }
      XQC_ASSIGN_OR_RETURN(bool has, child_->Next(&t));
      if (!has) return false;
      pulled_++;
      XQC_ASSIGN_OR_RETURN(bool b, ev_->EvalPredicate(*op_->deps[0], t, c_));
      if (b) {
        *out = std::move(t);
        return true;
      }
    }
  }
  // Batched filter. Guard parity with Next(): the oracle checks once per
  // loop iteration — one per input tuple pulled, plus one for the
  // iteration that discovers end-of-stream or the positional stop. The
  // positional bound clamps the demand passed down, so a [N] head over a
  // batched pipeline pulls exactly N input tuples, like the oracle.
  Status NextBatch(TupleBatch* out, size_t max) override {
    out->clear();
    if (stopped_ || eos_) return Status::OK();
    while (out->size() < max) {
      size_t want = max - out->size();
      if (bound_ >= 0) {
        int64_t left = bound_ - pulled_;
        if (left <= 0) {
          XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
          stopped_ = true;
          ev_->mutable_stats()->streaming_early_stops++;
          child_->Close();
          break;
        }
        if (static_cast<int64_t>(want) > left) {
          want = static_cast<size_t>(left);
        }
      }
      XQC_RETURN_IF_ERROR(child_->NextBatch(&in_, want));
      if (in_.empty()) {
        XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
        eos_ = true;
        break;
      }
      XQC_RETURN_IF_ERROR(
          ev_->guard()->CheckSteps(static_cast<int64_t>(in_.size())));
      pulled_ += static_cast<int64_t>(in_.size());
      for (size_t i = 0; i < in_.size(); i++) {
        XQC_ASSIGN_OR_RETURN(bool b,
                             ev_->EvalPredicate(*op_->deps[0], in_[i], c_));
        if (b) out->push(std::move(in_[i]));
      }
    }
    return Status::OK();
  }
  void Close() override { child_->Close(); }

 private:
  PlanEvaluator* ev_;
  const Op* op_;
  EvalCtx c_;
  TupleIteratorPtr child_;
  int64_t bound_;  // input pulls that can still match; -1 = unbounded
  int64_t pulled_ = 0;
  bool stopped_ = false;
  bool eos_ = false;
  TupleBatch in_;
};

/// Product: drains the left side once, streams the right.
// The left side is drained (it is almost always the singleton IN or a
// small outer binding) so the big right side — the generator in compiled
// quantifier/FLWOR shapes like Product(IN, MapFromItem{...}) — can stream.
// Output stays left-major: the right stream is replayed from a buffer for
// every left tuple after the first, and the buffer is skipped entirely when
// the left is a singleton.
class ProductIter : public TupleIterator {
 public:
  ProductIter(PlanEvaluator* ev, const Op* op, const EvalCtx& c)
      : ev_(ev), op_(op), c_(c) {}
  Status Open() override {
    XQC_ASSIGN_OR_RETURN(left_, ev_->EvalTable(*op_->inputs[0], c_));
    if (left_.empty()) return Status::OK();
    XQC_ASSIGN_OR_RETURN(right_, ev_->OpenTable(*op_->inputs[1], c_));
    return Status::OK();
  }
  Result<bool> Next(Tuple* out) override {
    if (left_.empty()) return false;
    while (true) {
      XQC_RETURN_IF_ERROR(ev_->guard()->Check());
      if (lidx_ == 0 && !right_done_) {
        Tuple r;
        XQC_ASSIGN_OR_RETURN(bool has, right_->Next(&r));
        if (has) {
          *out = Tuple::Concat(left_[0], r);
          if (left_.size() > 1) {
            XQC_RETURN_IF_ERROR(ev_->guard()->AccountTuples(1));
            replay_.push_back(std::move(r));
          }
          return true;
        }
        right_done_ = true;
        lidx_ = 1;
        ridx_ = 0;
        continue;
      }
      if (lidx_ >= left_.size()) return false;
      if (ridx_ < replay_.size()) {
        *out = Tuple::Concat(left_[lidx_], replay_[ridx_++]);
        return true;
      }
      lidx_++;
      ridx_ = 0;
    }
  }
  // Batched product. The dominant shape is a singleton left (the IN
  // tuple of a compiled FLWOR/quantifier): the right stream passes
  // through in batches with one Concat per tuple. Guard parity with
  // Next(): one check per emitted tuple, plus two for the end (the
  // right-exhausted transition iteration and the final return). The
  // multi-left replay shape falls back to the oracle loop.
  Status NextBatch(TupleBatch* out, size_t max) override {
    if (left_.size() != 1) return TupleIterator::NextBatch(out, max);
    out->clear();
    if (eos_) return Status::OK();
    while (out->size() < max) {
      XQC_RETURN_IF_ERROR(right_->NextBatch(&in_, max - out->size()));
      if (in_.empty()) {
        XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(2));
        eos_ = true;
        break;
      }
      XQC_RETURN_IF_ERROR(
          ev_->guard()->CheckSteps(static_cast<int64_t>(in_.size())));
      for (size_t i = 0; i < in_.size(); i++) {
        out->push(Tuple::Concat(left_[0], in_[i]));
      }
    }
    return Status::OK();
  }
  void Close() override {
    if (right_ != nullptr) right_->Close();
  }

 private:
  PlanEvaluator* ev_;
  const Op* op_;
  EvalCtx c_;
  Table left_;
  TupleIteratorPtr right_;
  Table replay_;  // right tuples, kept only if they must repeat
  bool right_done_ = false;
  bool eos_ = false;
  size_t lidx_ = 0;
  size_t ridx_ = 0;
  TupleBatch in_;
};

/// Map{f}: one output tuple per input tuple.
class MapIter : public TupleIterator {
 public:
  MapIter(PlanEvaluator* ev, const Op* op, const EvalCtx& c,
          TupleIteratorPtr child)
      : ev_(ev), op_(op), c_(c), child_(std::move(child)) {}
  Status Open() override { return Status::OK(); }
  Result<bool> Next(Tuple* out) override {
    Tuple t;
    XQC_ASSIGN_OR_RETURN(bool has, child_->Next(&t));
    if (!has) return false;
    EvalCtx dc = c_;
    dc.tuple = &t;
    dc.items = nullptr;
    XQC_ASSIGN_OR_RETURN(*out, ev_->EvalTuple(*op_->deps[0], dc));
    return true;
  }
  // Batched 1:1 map; a short child batch passes through short. MapIter
  // itself checks nothing (EvalTuple checks on entry), same as Next().
  Status NextBatch(TupleBatch* out, size_t max) override {
    out->clear();
    if (eos_) return Status::OK();
    XQC_RETURN_IF_ERROR(child_->NextBatch(&in_, max));
    if (in_.empty()) {
      eos_ = true;
      return Status::OK();
    }
    for (size_t i = 0; i < in_.size(); i++) {
      EvalCtx dc = c_;
      dc.tuple = &in_[i];
      dc.items = nullptr;
      XQC_ASSIGN_OR_RETURN(Tuple r, ev_->EvalTuple(*op_->deps[0], dc));
      out->push(std::move(r));
    }
    return Status::OK();
  }
  void Close() override { child_->Close(); }

 private:
  PlanEvaluator* ev_;
  const Op* op_;
  EvalCtx c_;
  TupleIteratorPtr child_;
  bool eos_ = false;
  TupleBatch in_;
};

/// OMap[q]: prepends [q:false] to each tuple; an empty input becomes the
/// single tuple [q:true].
class OMapIter : public TupleIterator {
 public:
  OMapIter(const Op* op, TupleIteratorPtr child)
      : op_(op), child_(std::move(child)) {}
  Status Open() override { return Status::OK(); }
  Result<bool> Next(Tuple* out) override {
    if (done_) return false;
    Tuple t;
    XQC_ASSIGN_OR_RETURN(bool has, child_->Next(&t));
    if (!has) {
      done_ = true;
      if (first_) {
        Tuple flag;
        flag.Set(op_->name, {AtomicValue::Boolean(true)});
        *out = std::move(flag);
        return true;
      }
      return false;
    }
    first_ = false;
    Tuple flag;
    flag.Set(op_->name, {AtomicValue::Boolean(false)});
    *out = Tuple::Concat(flag, t);
    return true;
  }
  void Close() override { child_->Close(); }

 private:
  const Op* op_;
  TupleIteratorPtr child_;
  bool first_ = true;
  bool done_ = false;
};

/// MapConcat{f} / OMapConcat[q]{f}: per outer tuple, streams the
/// dependent table f(t) and concatenates. The outer variant prepends the
/// [q:bool] null flag and emits [q:true]++t when f(t) is empty.
///
/// A null `child` means the input is IN — the shape of every path step
/// and for clause in unoptimized plans. Its one tuple is the context
/// tuple (the empty tuple at top level), which outlives the iterator, so
/// it is used in place instead of being copied through a child iterator.
class MapConcatIter : public TupleIterator {
 public:
  MapConcatIter(PlanEvaluator* ev, const Op* op, const EvalCtx& c,
                TupleIteratorPtr child, bool outer)
      : ev_(ev), op_(op), c_(c), child_(std::move(child)), outer_(outer) {}
  Status Open() override { return Status::OK(); }
  Result<bool> Next(Tuple* out) override {
    while (true) {
      XQC_RETURN_IF_ERROR(ev_->guard()->Check());
      if (inner_ != nullptr) {
        Tuple s;
        XQC_ASSIGN_OR_RETURN(bool has, inner_->Next(&s));
        if (has) {
          inner_matched_ = true;
          Tuple joined = Tuple::Concat(*cur_, s);
          if (outer_) {
            Tuple flag;
            flag.Set(op_->name, {AtomicValue::Boolean(false)});
            joined = Tuple::Concat(flag, joined);
          }
          *out = std::move(joined);
          return true;
        }
        bool unmatched = outer_ && !inner_matched_;
        inner_.reset();  // before current_ is overwritten below
        if (unmatched) {
          Tuple flag;
          flag.Set(op_->name, {AtomicValue::Boolean(true)});
          *out = Tuple::Concat(flag, *cur_);
          return true;
        }
      }
      XQC_ASSIGN_OR_RETURN(bool has, NextOuter(0));
      if (!has) return false;
      XQC_RETURN_IF_ERROR(OpenInner());
    }
  }
  // Batched dependent concat. The inner (dependent) stream is drained in
  // batches; outer tuples are prefetched into a demand-bounded buffer and
  // opened one inner at a time, so `current_` keeps the stable-storage
  // contract. Guard parity with Next(): one check per emitted inner
  // tuple, one per unmatched outer emission, one per outer advance (the
  // oracle's inner-EOS + outer-pull iteration), one at outer EOS.
  Status NextBatch(TupleBatch* out, size_t max) override {
    out->clear();
    if (eos_) return Status::OK();
    while (out->size() < max) {
      if (inner_ != nullptr) {
        XQC_RETURN_IF_ERROR(inner_->NextBatch(&in_, max - out->size()));
        if (!in_.empty()) {
          XQC_RETURN_IF_ERROR(
              ev_->guard()->CheckSteps(static_cast<int64_t>(in_.size())));
          inner_matched_ = true;
          for (size_t i = 0; i < in_.size(); i++) {
            Tuple joined = Tuple::Concat(*cur_, in_[i]);
            if (outer_) {
              Tuple flag;
              flag.Set(op_->name, {AtomicValue::Boolean(false)});
              joined = Tuple::Concat(flag, joined);
            }
            out->push(std::move(joined));
          }
          continue;
        }
        bool unmatched = outer_ && !inner_matched_;
        inner_.reset();
        if (unmatched) {
          XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
          Tuple flag;
          flag.Set(op_->name, {AtomicValue::Boolean(true)});
          out->push(Tuple::Concat(flag, *cur_));
          continue;
        }
      }
      XQC_ASSIGN_OR_RETURN(bool has, NextOuter(max - out->size()));
      XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
      if (!has) {
        eos_ = true;
        break;
      }
      XQC_RETURN_IF_ERROR(OpenInner());
    }
    return Status::OK();
  }
  void Close() override {
    inner_.reset();
    if (child_ != nullptr) child_->Close();
  }

 private:
  /// Advances cur_ to the next outer tuple; false at end of input. A
  /// `demand` of 0 pulls tuple-at-a-time, otherwise through a prefetch
  /// batch of at most `demand` tuples.
  Result<bool> NextOuter(size_t demand) {
    if (child_ == nullptr) {
      if (cur_ != nullptr) return false;
      static const Tuple kEmpty;
      cur_ = c_.tuple != nullptr ? c_.tuple : &kEmpty;
      return true;
    }
    cur_ = &current_;
    if (demand == 0) return child_->Next(&current_);
    if (opos_ >= ob_.size()) {
      XQC_RETURN_IF_ERROR(child_->NextBatch(&ob_, demand));
      opos_ = 0;
      if (ob_.empty()) return false;
    }
    current_ = std::move(ob_[opos_++]);
    return true;
  }

  /// Opens the dependent table for cur_, which stays valid (stable
  /// member storage or the context tuple) for the inner's lifetime.
  Status OpenInner() {
    EvalCtx dc = c_;
    dc.tuple = cur_;
    dc.items = nullptr;
    XQC_ASSIGN_OR_RETURN(inner_, ev_->OpenTable(*op_->deps[0], dc));
    inner_matched_ = false;
    return Status::OK();
  }

  PlanEvaluator* ev_;
  const Op* op_;
  EvalCtx c_;
  TupleIteratorPtr child_;  // nullptr: the input is IN (see above)
  bool outer_;
  Tuple current_;
  const Tuple* cur_ = nullptr;  // the current outer tuple
  TupleIteratorPtr inner_;
  bool inner_matched_ = false;
  bool eos_ = false;
  TupleBatch in_;   // inner tuples of the current outer
  TupleBatch ob_;   // prefetched outer tuples
  size_t opos_ = 0;
};

/// MapIndex[q] / MapIndexStep[q]: appends [q:i] with i = 1, 2, ...
class MapIndexIter : public TupleIterator {
 public:
  MapIndexIter(const Op* op, TupleIteratorPtr child)
      : op_(op), child_(std::move(child)) {}
  Status Open() override { return Status::OK(); }
  Result<bool> Next(Tuple* out) override {
    Tuple t;
    XQC_ASSIGN_OR_RETURN(bool has, child_->Next(&t));
    if (!has) return false;
    Tuple idx;
    idx.Set(op_->name, {AtomicValue::Integer(++i_)});
    *out = Tuple::Concat(t, idx);
    return true;
  }
  // Batched 1:1 position numbering; checks nothing, like Next(). The
  // demand bound passes straight through, which lets a positional
  // Select above clamp how much source is evaluated below.
  Status NextBatch(TupleBatch* out, size_t max) override {
    out->clear();
    if (eos_) return Status::OK();
    XQC_RETURN_IF_ERROR(child_->NextBatch(&in_, max));
    if (in_.empty()) {
      eos_ = true;
      return Status::OK();
    }
    for (size_t i = 0; i < in_.size(); i++) {
      Tuple idx;
      idx.Set(op_->name, {AtomicValue::Integer(++i_)});
      out->push(Tuple::Concat(in_[i], idx));
    }
    return Status::OK();
  }
  void Close() override { child_->Close(); }

 private:
  const Op* op_;
  TupleIteratorPtr child_;
  int64_t i_ = 0;
  bool eos_ = false;
  TupleBatch in_;
};

/// MapFromItem{f}: one tuple per input item. When the input is itself a
/// MapToItem (a nested FLWOR body), its tuple stream is pulled
/// incrementally — the full item sequence is never materialized;
/// otherwise the items materialize once and tuples are still produced on
/// demand. Every produced tuple counts toward stats().source_tuples,
/// the "input tuples touched" measure of streaming's early termination.
class MapFromItemIter : public TupleIterator {
 public:
  MapFromItemIter(PlanEvaluator* ev, const Op* op, const EvalCtx& c)
      : ev_(ev), op_(op), c_(c) {}
  Status Open() override {
    const Op& input = *op_->inputs[0];
    if (input.kind == OpKind::kMapToItem) {
      XQC_ASSIGN_OR_RETURN(src_, ev_->OpenTable(*input.inputs[0], c_));
      item_dep_ = input.deps[0].get();
      return Status::OK();
    }
    XQC_ASSIGN_OR_RETURN(buf_, ev_->EvalItems(input, c_));
    return Status::OK();
  }
  Result<bool> Next(Tuple* out) override {
    while (true) {
      XQC_RETURN_IF_ERROR(ev_->guard()->Check());
      if (pos_ < buf_.size()) {
        one_.assign(1, buf_[pos_++]);
        EvalCtx dc = c_;
        dc.items = &one_;
        dc.tuple = nullptr;
        XQC_ASSIGN_OR_RETURN(*out, ev_->EvalTuple(*op_->deps[0], dc));
        XQC_RETURN_IF_ERROR(ev_->guard()->AccountTuples(1));
        ev_->mutable_stats()->source_tuples++;
        return true;
      }
      if (src_ == nullptr) return false;
      Tuple t;
      XQC_ASSIGN_OR_RETURN(bool has, src_->Next(&t));
      if (!has) {
        src_.reset();
        return false;
      }
      EvalCtx dc = c_;
      dc.tuple = &t;
      dc.items = nullptr;
      XQC_ASSIGN_OR_RETURN(buf_, ev_->EvalItems(*item_dep_, dc));
      pos_ = 0;
    }
  }
  // Batched tuple production. Guard parity with Next(): one check per
  // produced tuple, one per source-tuple pull, one for the iteration
  // that discovers the end. AccountTuples stays per tuple (not chunked)
  // so the fault injector's Nth-allocation trip point is unchanged.
  Status NextBatch(TupleBatch* out, size_t max) override {
    out->clear();
    if (eos_) return Status::OK();
    while (out->size() < max) {
      if (pos_ < buf_.size()) {
        size_t k = buf_.size() - pos_;
        if (k > max - out->size()) k = max - out->size();
        XQC_RETURN_IF_ERROR(
            ev_->guard()->CheckSteps(static_cast<int64_t>(k)));
        for (size_t i = 0; i < k; i++) {
          one_.assign(1, buf_[pos_++]);
          EvalCtx dc = c_;
          dc.items = &one_;
          dc.tuple = nullptr;
          XQC_ASSIGN_OR_RETURN(Tuple r, ev_->EvalTuple(*op_->deps[0], dc));
          XQC_RETURN_IF_ERROR(ev_->guard()->AccountTuples(1));
          ev_->mutable_stats()->source_tuples++;
          out->push(std::move(r));
        }
        continue;
      }
      if (src_ == nullptr) {
        XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
        eos_ = true;
        break;
      }
      if (spos_ >= sb_.size()) {
        XQC_RETURN_IF_ERROR(src_->NextBatch(&sb_, max - out->size()));
        spos_ = 0;
        if (sb_.empty()) {
          XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
          src_.reset();
          eos_ = true;
          break;
        }
      }
      XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
      cur_ = std::move(sb_[spos_++]);
      EvalCtx dc = c_;
      dc.tuple = &cur_;
      dc.items = nullptr;
      XQC_ASSIGN_OR_RETURN(buf_, ev_->EvalItems(*item_dep_, dc));
      pos_ = 0;
    }
    return Status::OK();
  }
  void Close() override {
    src_.reset();
    buf_.clear();
    pos_ = 0;
  }

 private:
  PlanEvaluator* ev_;
  const Op* op_;
  EvalCtx c_;
  TupleIteratorPtr src_;           // tuple source of a MapToItem input
  const Op* item_dep_ = nullptr;   // its per-tuple item plan
  Sequence buf_;
  size_t pos_ = 0;
  Sequence one_;    // the current item as IN (capacity reused)
  bool eos_ = false;
  TupleBatch sb_;   // prefetched source tuples
  size_t spos_ = 0;
  Tuple cur_;       // stable storage for the current source tuple
};

/// Join / LOuterJoin: drains and indexes the right (build) side at Open —
/// reusing the evaluator's table/index caches — then probes with left
/// tuples as they stream in. The first left tuple is peeked so the join
/// strategy can inspect its field layout.
class JoinIter : public TupleIterator {
 public:
  JoinIter(PlanEvaluator* ev, const Op* op, const EvalCtx& c,
           TupleIteratorPtr left, bool outer)
      : ev_(ev), op_(op), c_(c), left_(std::move(left)), outer_(outer) {}
  Status Open() override {
    XQC_ASSIGN_OR_RETURN(has_peeked_, left_->Next(&peeked_));
    left_done_ = !has_peeked_;
    bool cacheable = false;
    XQC_ASSIGN_OR_RETURN(right_,
                         ev_->MaterializeJoinRight(*op_, c_, &cacheable));
    XQC_ASSIGN_OR_RETURN(
        strategy_, ev_->PlanJoinStrategy(*op_, c_,
                                         has_peeked_ ? peeked_ : Tuple(),
                                         right_, cacheable));
    return Status::OK();
  }
  Result<bool> Next(Tuple* out) override {
    while (true) {
      XQC_RETURN_IF_ERROR(ev_->guard()->Check());
      if (bpos_ < buf_.size()) {
        *out = std::move(buf_[bpos_++]);
        return true;
      }
      if (left_done_) return false;
      buf_.clear();
      bpos_ = 0;
      Tuple l;
      if (has_peeked_) {
        l = std::move(peeked_);
        has_peeked_ = false;
      } else {
        XQC_ASSIGN_OR_RETURN(bool has, left_->Next(&l));
        if (!has) {
          left_done_ = true;
          return false;
        }
      }
      XQC_RETURN_IF_ERROR(
          ev_->ProbeJoinTuple(*op_, strategy_, c_, l, *right_, outer_, &buf_));
      XQC_RETURN_IF_ERROR(
          ev_->guard()->AccountTuples(static_cast<int64_t>(buf_.size())));
    }
  }
  // Batched probe: left tuples are prefetched in demand-bounded batches
  // and probed one at a time as the output buffer drains (a probe's
  // whole match set is buffered either way, exactly like Next()). Guard
  // parity: one check per emitted row, one per probed left tuple, one at
  // left end-of-stream; AccountTuples stays once-per-probe with the
  // probe's row count, as in Next().
  Status NextBatch(TupleBatch* out, size_t max) override {
    out->clear();
    if (eos_) return Status::OK();
    while (out->size() < max) {
      if (bpos_ < buf_.size()) {
        size_t k = buf_.size() - bpos_;
        if (k > max - out->size()) k = max - out->size();
        XQC_RETURN_IF_ERROR(
            ev_->guard()->CheckSteps(static_cast<int64_t>(k)));
        if (out->empty() && bpos_ == 0 && k == buf_.size()) {
          // Whole probe result fits the demand: make it the batch in
          // O(1) and return it as a short batch (the contract allows
          // short non-empty batches) — zero per-row moves, one batch
          // per probe.
          out->adopt(&buf_);
          return Status::OK();
        }
        for (size_t i = 0; i < k; i++) {
          out->push(std::move(buf_[bpos_++]));
        }
        continue;
      }
      Tuple l;
      if (has_peeked_) {
        l = std::move(peeked_);
        has_peeked_ = false;
      } else if (left_done_) {
        XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
        eos_ = true;
        break;
      } else {
        if (lpos_ >= lb_.size()) {
          XQC_RETURN_IF_ERROR(left_->NextBatch(&lb_, max - out->size()));
          lpos_ = 0;
          if (lb_.empty()) {
            left_done_ = true;
            XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
            eos_ = true;
            break;
          }
        }
        l = std::move(lb_[lpos_++]);
      }
      XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
      buf_.clear();
      bpos_ = 0;
      XQC_RETURN_IF_ERROR(
          ev_->ProbeJoinTuple(*op_, strategy_, c_, l, *right_, outer_, &buf_));
      XQC_RETURN_IF_ERROR(
          ev_->guard()->AccountTuples(static_cast<int64_t>(buf_.size())));
    }
    return Status::OK();
  }
  void Close() override { left_->Close(); }

 private:
  PlanEvaluator* ev_;
  const Op* op_;
  EvalCtx c_;
  TupleIteratorPtr left_;
  bool outer_;
  Tuple peeked_;
  bool has_peeked_ = false;
  bool left_done_ = false;
  bool eos_ = false;
  std::shared_ptr<const Table> right_;
  JoinStrategy strategy_;
  Table buf_;  // output rows of the current probe
  size_t bpos_ = 0;
  TupleBatch lb_;  // prefetched left (probe-side) tuples
  size_t lpos_ = 0;
};

}  // namespace

Result<TupleIteratorPtr> PlanEvaluator::OpenTable(const Op& op,
                                                  const EvalCtx& c) {
  TupleIteratorPtr it;
  switch (op.kind) {
    case OpKind::kSelect: {
      XQC_ASSIGN_OR_RETURN(TupleIteratorPtr child,
                           OpenTable(*op.inputs[0], c));
      const Op& input = *op.inputs[0];
      int64_t bound = -1;
      if (input.kind == OpKind::kMapIndex ||
          input.kind == OpKind::kMapIndexStep) {
        bound = PositionalBound(*op.deps[0], input.name);
      }
      it = std::make_unique<SelectIter>(this, &op, c, std::move(child), bound);
      break;
    }
    case OpKind::kProduct: {
      it = std::make_unique<ProductIter>(this, &op, c);
      break;
    }
    case OpKind::kJoin:
    case OpKind::kLOuterJoin: {
      XQC_ASSIGN_OR_RETURN(TupleIteratorPtr left, OpenTable(*op.inputs[0], c));
      it = std::make_unique<JoinIter>(this, &op, c, std::move(left),
                                      op.kind == OpKind::kLOuterJoin);
      break;
    }
    case OpKind::kMap: {
      XQC_ASSIGN_OR_RETURN(TupleIteratorPtr child,
                           OpenTable(*op.inputs[0], c));
      it = std::make_unique<MapIter>(this, &op, c, std::move(child));
      break;
    }
    case OpKind::kOMap: {
      XQC_ASSIGN_OR_RETURN(TupleIteratorPtr child,
                           OpenTable(*op.inputs[0], c));
      it = std::make_unique<OMapIter>(&op, std::move(child));
      break;
    }
    case OpKind::kMapConcat:
    case OpKind::kOMapConcat: {
      TupleIteratorPtr child;
      if (op.inputs[0]->kind != OpKind::kIn) {
        XQC_ASSIGN_OR_RETURN(child, OpenTable(*op.inputs[0], c));
      }
      it = std::make_unique<MapConcatIter>(this, &op, c, std::move(child),
                                           op.kind == OpKind::kOMapConcat);
      break;
    }
    case OpKind::kMapIndex:
    case OpKind::kMapIndexStep: {
      XQC_ASSIGN_OR_RETURN(TupleIteratorPtr child,
                           OpenTable(*op.inputs[0], c));
      it = std::make_unique<MapIndexIter>(&op, std::move(child));
      break;
    }
    case OpKind::kMapFromItem:
      it = std::make_unique<MapFromItemIter>(this, &op, c);
      break;
    case OpKind::kGroupBy:
    case OpKind::kOrderBy: {
      // Pipeline breakers: compute the whole table, then iterate.
      XQC_ASSIGN_OR_RETURN(Table t, op.kind == OpKind::kGroupBy
                                        ? EvalGroupBy(op, c)
                                        : EvalOrderBy(op, c));
      it = std::make_unique<TableIter>(std::move(t));
      break;
    }
    case OpKind::kIn:
    case OpKind::kEmptyTuples:
    case OpKind::kTupleConstruct:
    case OpKind::kTupleConcat: {
      // Single-tuple tables: IN (the empty tuple at top level), the
      // empty-tuple source, and tuple construction.
      Tuple t;
      if (op.kind != OpKind::kEmptyTuples) {
        XQC_ASSIGN_OR_RETURN(t, EvalTuple(op, c));
      }
      Table table;
      table.push_back(std::move(t));
      it = std::make_unique<TableIter>(std::move(table));
      break;
    }
    default:
      return Status::Internal(std::string(OpKindName(op.kind)) +
                              " evaluated in table context");
  }
  XQC_RETURN_IF_ERROR(it->Open());
  return it;
}

}  // namespace xqc
