#include "src/algebra/op.h"

#include <set>
#include <sstream>

#include "src/runtime/builtins.h"

namespace xqc {

const char* OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kSequence: return "Sequence";
    case OpKind::kEmpty: return "Empty";
    case OpKind::kScalar: return "Scalar";
    case OpKind::kElement: return "Element";
    case OpKind::kAttribute: return "Attribute";
    case OpKind::kText: return "Text";
    case OpKind::kComment: return "Comment";
    case OpKind::kPI: return "PI";
    case OpKind::kDocumentNode: return "DocumentNode";
    case OpKind::kTreeJoin: return "TreeJoin";
    case OpKind::kTreeProject: return "TreeProject";
    case OpKind::kCastable: return "Castable";
    case OpKind::kCast: return "Cast";
    case OpKind::kValidate: return "Validate";
    case OpKind::kTypeMatches: return "TypeMatches";
    case OpKind::kTypeAssert: return "TypeAssert";
    case OpKind::kVar: return "Var";
    case OpKind::kCall: return "Call";
    case OpKind::kCond: return "Cond";
    case OpKind::kParse: return "Parse";
    case OpKind::kSerialize: return "Serialize";
    case OpKind::kIn: return "IN";
    case OpKind::kTupleConstruct: return "TupleConstruct";
    case OpKind::kTupleConcat: return "++";
    case OpKind::kEmptyTuples: return "[]";
    case OpKind::kFieldAccess: return "#";
    case OpKind::kSelect: return "Select";
    case OpKind::kProduct: return "Product";
    case OpKind::kJoin: return "Join";
    case OpKind::kLOuterJoin: return "LOuterJoin";
    case OpKind::kMap: return "Map";
    case OpKind::kOMap: return "OMap";
    case OpKind::kMapConcat: return "MapConcat";
    case OpKind::kOMapConcat: return "OMapConcat";
    case OpKind::kMapIndex: return "MapIndex";
    case OpKind::kMapIndexStep: return "MapIndexStep";
    case OpKind::kOrderBy: return "OrderBy";
    case OpKind::kGroupBy: return "GroupBy";
    case OpKind::kMapFromItem: return "MapFromItem";
    case OpKind::kMapToItem: return "MapToItem";
    case OpKind::kMapSome: return "MapSome";
    case OpKind::kMapEvery: return "MapEvery";
  }
  return "?";
}

OpPtr MakeOp(OpKind kind) {
  auto op = std::make_shared<Op>();
  op->kind = kind;
  return op;
}

OpPtr OpIn() { return MakeOp(OpKind::kIn); }
OpPtr OpEmpty() { return MakeOp(OpKind::kEmpty); }
OpPtr OpEmptyTuples() { return MakeOp(OpKind::kEmptyTuples); }

OpPtr OpScalar(AtomicValue v) {
  OpPtr op = MakeOp(OpKind::kScalar);
  op->literal = std::move(v);
  return op;
}

OpPtr OpVar(Symbol q) {
  OpPtr op = MakeOp(OpKind::kVar);
  op->name = q;
  return op;
}

OpPtr OpCall(Symbol q, std::vector<OpPtr> args) {
  OpPtr op = MakeOp(OpKind::kCall);
  op->name = q;
  op->builtin = LookupBuiltin(q, args.size());
  op->inputs = std::move(args);
  return op;
}

OpPtr OpFieldAccess(Symbol q, OpPtr input) {
  OpPtr op = MakeOp(OpKind::kFieldAccess);
  op->name = q;
  op->inputs = {std::move(input)};
  return op;
}

OpPtr OpInField(Symbol q) { return OpFieldAccess(q, OpIn()); }

OpPtr OpTupleConstruct(std::vector<Symbol> fields, std::vector<OpPtr> values) {
  OpPtr op = MakeOp(OpKind::kTupleConstruct);
  op->fields = std::move(fields);
  op->inputs = std::move(values);
  return op;
}

OpPtr OpSelect(OpPtr pred, OpPtr input) {
  OpPtr op = MakeOp(OpKind::kSelect);
  op->deps = {std::move(pred)};
  op->inputs = {std::move(input)};
  return op;
}

OpPtr OpProduct(OpPtr left, OpPtr right) {
  OpPtr op = MakeOp(OpKind::kProduct);
  op->inputs = {std::move(left), std::move(right)};
  return op;
}

OpPtr OpJoin(OpPtr pred, OpPtr left, OpPtr right) {
  OpPtr op = MakeOp(OpKind::kJoin);
  op->deps = {std::move(pred)};
  op->inputs = {std::move(left), std::move(right)};
  return op;
}

OpPtr OpLOuterJoin(Symbol null_field, OpPtr pred, OpPtr left, OpPtr right) {
  OpPtr op = MakeOp(OpKind::kLOuterJoin);
  op->name = null_field;
  op->deps = {std::move(pred)};
  op->inputs = {std::move(left), std::move(right)};
  return op;
}

OpPtr OpMapConcat(OpPtr dep, OpPtr input) {
  OpPtr op = MakeOp(OpKind::kMapConcat);
  op->deps = {std::move(dep)};
  op->inputs = {std::move(input)};
  return op;
}

OpPtr OpOMap(Symbol null_field, OpPtr input) {
  OpPtr op = MakeOp(OpKind::kOMap);
  op->name = null_field;
  op->inputs = {std::move(input)};
  return op;
}

OpPtr OpOMapConcat(Symbol null_field, OpPtr dep, OpPtr input) {
  OpPtr op = MakeOp(OpKind::kOMapConcat);
  op->name = null_field;
  op->deps = {std::move(dep)};
  op->inputs = {std::move(input)};
  return op;
}

OpPtr OpMapIndex(Symbol field, OpPtr input) {
  OpPtr op = MakeOp(OpKind::kMapIndex);
  op->name = field;
  op->inputs = {std::move(input)};
  return op;
}

OpPtr OpMapIndexStep(Symbol field, OpPtr input) {
  OpPtr op = MakeOp(OpKind::kMapIndexStep);
  op->name = field;
  op->inputs = {std::move(input)};
  return op;
}

OpPtr OpMapFromItem(OpPtr dep, OpPtr input) {
  OpPtr op = MakeOp(OpKind::kMapFromItem);
  op->deps = {std::move(dep)};
  op->inputs = {std::move(input)};
  return op;
}

OpPtr OpMapToItem(OpPtr dep, OpPtr input) {
  OpPtr op = MakeOp(OpKind::kMapToItem);
  op->deps = {std::move(dep)};
  op->inputs = {std::move(input)};
  return op;
}

OpPtr OpGroupBy(Symbol agg, std::vector<Symbol> indices,
                std::vector<Symbol> nulls, OpPtr post, OpPtr pre,
                OpPtr input) {
  OpPtr op = MakeOp(OpKind::kGroupBy);
  op->name = agg;
  op->fields = std::move(indices);
  op->fields2 = std::move(nulls);
  op->deps = {std::move(post), std::move(pre)};
  op->inputs = {std::move(input)};
  return op;
}

OpPtr OpTreeJoin(Axis axis, ItemTest test, OpPtr input) {
  OpPtr op = MakeOp(OpKind::kTreeJoin);
  op->axis = axis;
  op->ntest = test;
  op->inputs = {std::move(input)};
  return op;
}

OpPtr OpTypeAssert(SequenceType t, OpPtr input) {
  OpPtr op = MakeOp(OpKind::kTypeAssert);
  op->stype = t;
  op->inputs = {std::move(input)};
  return op;
}

OpPtr OpCond(OpPtr then_branch, OpPtr else_branch, OpPtr cond) {
  OpPtr op = MakeOp(OpKind::kCond);
  op->deps = {std::move(then_branch), std::move(else_branch)};
  op->inputs = {std::move(cond)};
  return op;
}

OpPtr CloneOp(const Op& op) {
  OpPtr out = std::make_shared<Op>(op);
  for (OpPtr& d : out->deps) d = CloneOp(*d);
  for (OpPtr& i : out->inputs) i = CloneOp(*i);
  for (OrderSpecOp& s : out->specs) s.key = CloneOp(*s.key);
  return out;
}

bool OpEquals(const Op& a, const Op& b) {
  if (a.kind != b.kind || a.name != b.name || a.fields != b.fields ||
      a.fields2 != b.fields2 || a.axis != b.axis || !(a.ntest == b.ntest) ||
      !(a.stype == b.stype) || a.paths != b.paths ||
      a.deps.size() != b.deps.size() || a.inputs.size() != b.inputs.size() ||
      a.specs.size() != b.specs.size()) {
    return false;
  }
  if (a.kind == OpKind::kScalar && !a.literal.StrictEquals(b.literal)) {
    return false;
  }
  for (size_t i = 0; i < a.deps.size(); i++) {
    if (!OpEquals(*a.deps[i], *b.deps[i])) return false;
  }
  for (size_t i = 0; i < a.inputs.size(); i++) {
    if (!OpEquals(*a.inputs[i], *b.inputs[i])) return false;
  }
  for (size_t i = 0; i < a.specs.size(); i++) {
    if (a.specs[i].descending != b.specs[i].descending ||
        a.specs[i].empty_greatest != b.specs[i].empty_greatest ||
        !OpEquals(*a.specs[i].key, *b.specs[i].key)) {
      return false;
    }
  }
  return true;
}

namespace {

void Print(const Op& op, bool pretty, int depth, std::ostringstream& os) {
  auto nl = [&](int d) {
    if (pretty) {
      os << "\n";
      for (int i = 0; i < d; i++) os << "  ";
    }
  };
  auto plist = [&](const std::vector<OpPtr>& ops, const char* open,
                   const char* close) {
    os << open;
    for (size_t i = 0; i < ops.size(); i++) {
      if (i > 0) os << ",";
      nl(depth + 1);
      Print(*ops[i], pretty, depth + 1, os);
    }
    os << close;
  };
  auto fieldlist = [&](const std::vector<Symbol>& fs) {
    os << "[";
    for (size_t i = 0; i < fs.size(); i++) {
      if (i > 0) os << ",";
      os << fs[i].str();
    }
    os << "]";
  };

  switch (op.kind) {
    case OpKind::kIn:
      os << "IN";
      return;
    case OpKind::kEmpty:
      os << "Empty()";
      return;
    case OpKind::kEmptyTuples:
      os << "([])";
      return;
    case OpKind::kScalar:
      if (op.literal.type() == AtomicType::kString ||
          op.literal.type() == AtomicType::kUntypedAtomic) {
        os << "\"" << op.literal.Lexical() << "\"";
      } else {
        os << op.literal.Lexical();
      }
      return;
    case OpKind::kVar:
      os << "Var[" << op.name.str() << "]";
      return;
    case OpKind::kFieldAccess:
      // IN#q prints in the paper's inline form.
      if (op.inputs[0]->kind == OpKind::kIn) {
        os << "IN#" << op.name.str();
      } else {
        Print(*op.inputs[0], pretty, depth, os);
        os << "#" << op.name.str();
      }
      return;
    case OpKind::kTupleConstruct: {
      os << "[";
      for (size_t i = 0; i < op.fields.size(); i++) {
        if (i > 0) os << ";";
        os << op.fields[i].str() << ":";
        Print(*op.inputs[i], pretty, depth, os);
      }
      os << "]";
      return;
    }
    case OpKind::kTupleConcat:
      os << "(";
      Print(*op.inputs[0], pretty, depth, os);
      os << " ++ ";
      Print(*op.inputs[1], pretty, depth, os);
      os << ")";
      return;
    case OpKind::kCall:
      os << op.name.str();
      plist(op.inputs, "(", ")");
      return;
    case OpKind::kTreeJoin:
      os << "TreeJoin[" << AxisName(op.axis) << "::" << op.ntest.ToString()
         << "]";
      plist(op.inputs, "(", ")");
      return;
    case OpKind::kTreeProject: {
      os << "TreeProject[";
      for (size_t i = 0; i < op.paths.size(); i++) {
        if (i > 0) os << ",";
        os << op.paths[i];
      }
      os << "]";
      plist(op.inputs, "(", ")");
      return;
    }
    case OpKind::kCastable:
    case OpKind::kCast:
    case OpKind::kValidate:
    case OpKind::kTypeMatches:
    case OpKind::kTypeAssert:
      os << OpKindName(op.kind);
      if (!(op.kind == OpKind::kValidate && op.stype.test.kind ==
                ItemTest::Kind::kAnyItem && op.stype.occ == Occurrence::kOne)) {
        os << "[" << op.stype.ToString() << "]";
      }
      plist(op.inputs, "(", ")");
      return;
    case OpKind::kElement:
    case OpKind::kAttribute:
    case OpKind::kPI:
      os << OpKindName(op.kind) << "[" << op.name.str() << "]";
      plist(op.inputs, "(", ")");
      return;
    case OpKind::kGroupBy: {
      os << "GroupBy[" << op.name.str() << ",";
      fieldlist(op.fields);
      os << ",";
      fieldlist(op.fields2);
      os << "]";
      plist(op.deps, "{", "}");
      plist(op.inputs, "(", ")");
      return;
    }
    case OpKind::kOrderBy: {
      os << "OrderBy";
      os << "{";
      for (size_t i = 0; i < op.specs.size(); i++) {
        if (i > 0) os << ",";
        Print(*op.specs[i].key, pretty, depth + 1, os);
        if (op.specs[i].descending) os << " desc";
      }
      os << "}";
      plist(op.inputs, "(", ")");
      return;
    }
    default: {
      os << OpKindName(op.kind);
      // Parameter field (OMap[q], LOuterJoin[q], MapIndex[q], ...).
      if (!op.name.empty()) os << "[" << op.name.str() << "]";
      if (!op.deps.empty()) plist(op.deps, "{", "}");
      plist(op.inputs, "(", ")");
      return;
    }
  }
}

}  // namespace

std::string OpToString(const Op& op, bool pretty) {
  std::ostringstream os;
  Print(op, pretty, 0, os);
  return os.str();
}

bool RebindsIn(OpKind k) {
  switch (k) {
    case OpKind::kSelect:
    case OpKind::kJoin:
    case OpKind::kLOuterJoin:
    case OpKind::kMap:
    case OpKind::kMapConcat:
    case OpKind::kOMapConcat:
    case OpKind::kOrderBy:
    case OpKind::kGroupBy:
    case OpKind::kMapFromItem:
    case OpKind::kMapToItem:
    case OpKind::kMapSome:
    case OpKind::kMapEvery:
      return true;
    default:
      return false;  // Cond branches etc. see the enclosing IN
  }
}

bool FreeIn(const Op& op) {
  if (op.kind == OpKind::kIn) return true;
  for (const OpPtr& i : op.inputs) {
    if (FreeIn(*i)) return true;
  }
  if (!RebindsIn(op.kind)) {
    for (const OpPtr& d : op.deps) {
      if (FreeIn(*d)) return true;
    }
    for (const OrderSpecOp& s : op.specs) {
      if (FreeIn(*s.key)) return true;
    }
  }
  return false;
}

namespace {

void CollectFieldUses(const Op& op, std::set<Symbol>* accessed,
                      std::set<Symbol>* introduced) {
  switch (op.kind) {
    case OpKind::kFieldAccess:
      accessed->insert(op.name);
      break;
    case OpKind::kTupleConstruct:
      for (Symbol f : op.fields) introduced->insert(f);
      break;
    case OpKind::kMapIndex:
    case OpKind::kMapIndexStep:
    case OpKind::kOMap:
    case OpKind::kOMapConcat:
    case OpKind::kLOuterJoin:
      introduced->insert(op.name);
      break;
    case OpKind::kGroupBy:
      introduced->insert(op.name);  // the aggregate field
      break;
    default:
      break;
  }
  for (const OpPtr& d : op.deps) CollectFieldUses(*d, accessed, introduced);
  for (const OpPtr& i : op.inputs) CollectFieldUses(*i, accessed, introduced);
  for (const OrderSpecOp& s : op.specs) {
    CollectFieldUses(*s.key, accessed, introduced);
  }
}

}  // namespace

void CollectOuterFieldUses(const Op& op, std::vector<Symbol>* out) {
  std::set<Symbol> accessed, introduced;
  CollectFieldUses(op, &accessed, &introduced);
  for (Symbol f : accessed) {
    if (introduced.count(f) == 0) out->push_back(f);
  }
}

void CollectFreeInFields(const Op& op, std::vector<Symbol>* out) {
  if (op.kind == OpKind::kFieldAccess && op.inputs[0]->kind == OpKind::kIn) {
    out->push_back(op.name);
    return;
  }
  for (const OpPtr& i : op.inputs) CollectFreeInFields(*i, out);
  if (!RebindsIn(op.kind)) {
    for (const OpPtr& d : op.deps) CollectFreeInFields(*d, out);
    for (const OrderSpecOp& s : op.specs) CollectFreeInFields(*s.key, out);
  }
}

}  // namespace xqc
