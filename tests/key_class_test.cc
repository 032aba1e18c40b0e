// Tests for static join-key type analysis (the Section 6 static-typing
// optimization): class inference on key plans, Table 2-consistent mode
// combination, and differential checks that specialized key modes compute
// exactly what the general enumeration computes.
#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/opt/key_class.h"
#include "src/runtime/joins.h"
#include "test_util.h"

namespace xqc {
namespace {

using testutil::MustParseXml;

TEST(KeyClassTest, ScalarsAndCalls) {
  EXPECT_EQ(InferJoinKeyClass(*OpScalar(AtomicValue::Integer(5)), false),
            KeyClass::kNumeric);
  EXPECT_EQ(InferJoinKeyClass(*OpScalar(AtomicValue::String("s")), false),
            KeyClass::kString);
  EXPECT_EQ(InferJoinKeyClass(*OpScalar(AtomicValue::Untyped("u")), false),
            KeyClass::kUntyped);
  EXPECT_EQ(InferJoinKeyClass(*OpInField(Symbol("x")), false),
            KeyClass::kGeneral);
}

// The result-class column of the builtin table, as the key-class analysis
// reads it: one row per call, at an arity the row accepts.
TEST(KeyClassTest, CallsFollowTheResultClassColumn) {
  struct Case {
    const char* name;
    size_t arity;
    KeyClass expected;
  };
  const Case kCases[] = {
      {"op:plus", 2, KeyClass::kNumeric},
      {"op:minus", 2, KeyClass::kNumeric},
      {"op:times", 2, KeyClass::kNumeric},
      {"op:div", 2, KeyClass::kNumeric},
      {"op:idiv", 2, KeyClass::kNumeric},
      {"op:mod", 2, KeyClass::kNumeric},
      {"op:unary-minus", 1, KeyClass::kNumeric},
      {"fn:count", 1, KeyClass::kNumeric},
      {"fn:sum", 1, KeyClass::kNumeric},
      {"fn:avg", 1, KeyClass::kNumeric},
      {"fn:number", 1, KeyClass::kNumeric},
      {"fn:abs", 1, KeyClass::kNumeric},
      {"fn:floor", 1, KeyClass::kNumeric},
      {"fn:ceiling", 1, KeyClass::kNumeric},
      {"fn:round", 1, KeyClass::kNumeric},
      {"fn:string-length", 1, KeyClass::kNumeric},
      {"fn:string", 1, KeyClass::kString},
      {"fn:concat", 2, KeyClass::kString},
      {"fn:substring", 2, KeyClass::kString},
      {"fn:substring-before", 2, KeyClass::kString},
      {"fn:substring-after", 2, KeyClass::kString},
      {"fn:upper-case", 1, KeyClass::kString},
      {"fn:lower-case", 1, KeyClass::kString},
      {"fn:normalize-space", 1, KeyClass::kString},
      {"fn:translate", 3, KeyClass::kString},
      {"fn:string-join", 2, KeyClass::kString},
      {"fn:name", 1, KeyClass::kString},
      {"fn:local-name", 1, KeyClass::kString},
      {"fn:data", 1, KeyClass::kGeneral},
  };
  for (const Case& c : kCases) {
    std::vector<OpPtr> args;
    for (size_t i = 0; i < c.arity; i++) args.push_back(OpIn());
    OpPtr call = OpCall(Symbol(c.name), std::move(args));
    ASSERT_NE(call->builtin, nullptr) << c.name;
    EXPECT_EQ(InferJoinKeyClass(*call, false), c.expected) << c.name;
  }
}

TEST(KeyClassTest, NavigationIsUntypedOnlyWithoutSchema) {
  OpPtr tj = OpTreeJoin(Axis::kChild, ItemTest::Element(Symbol("a")),
                        OpInField(Symbol("p")));
  EXPECT_EQ(InferJoinKeyClass(*tj, /*schema_in_scope=*/false),
            KeyClass::kUntyped);
  EXPECT_EQ(InferJoinKeyClass(*tj, /*schema_in_scope=*/true),
            KeyClass::kGeneral);
  // ddo wrappers are transparent.
  OpPtr ddo = OpCall(Symbol("fs:distinct-docorder"), {CloneOp(*tj)});
  EXPECT_EQ(InferJoinKeyClass(*ddo, false), KeyClass::kUntyped);
}

TEST(KeyClassTest, CastsAndAsserts) {
  OpPtr cast = MakeOp(OpKind::kCast);
  cast->stype = SequenceType::One(ItemTest::Atomic(AtomicType::kInteger));
  cast->inputs = {OpInField(Symbol("x"))};
  EXPECT_EQ(InferJoinKeyClass(*cast, true), KeyClass::kNumeric);

  OpPtr assert_str = OpTypeAssert(
      SequenceType::Star(ItemTest::Atomic(AtomicType::kString)),
      OpInField(Symbol("x")));
  EXPECT_EQ(InferJoinKeyClass(*assert_str, true), KeyClass::kString);
}

TEST(KeyClassTest, CombinationFollowsTable2) {
  using KC = KeyClass;
  using KM = KeyMode;
  EXPECT_EQ(CombineKeyClasses(KC::kUntyped, KC::kUntyped), KM::kStringKeys);
  EXPECT_EQ(CombineKeyClasses(KC::kUntyped, KC::kString), KM::kStringKeys);
  EXPECT_EQ(CombineKeyClasses(KC::kString, KC::kString), KM::kStringKeys);
  EXPECT_EQ(CombineKeyClasses(KC::kNumeric, KC::kNumeric), KM::kDoubleKeys);
  EXPECT_EQ(CombineKeyClasses(KC::kUntyped, KC::kNumeric), KM::kDoubleKeys);
  EXPECT_EQ(CombineKeyClasses(KC::kString, KC::kNumeric), KM::kNoMatch);
  EXPECT_EQ(CombineKeyClasses(KC::kGeneral, KC::kNumeric),
            KM::kGeneralKeys);
}

// ---- specialized modes match the general enumeration -----------------------------

Tuple MakeTuple(const char* field, AtomicValue v) {
  Tuple t;
  t.Set(Symbol(field), {std::move(v)});
  return t;
}

KeyFn FieldKey(const char* field) {
  Symbol f(field);
  return [f](const Tuple& t) -> Result<Sequence> {
    return Atomize(*t.Get(f));
  };
}

std::string JoinString(const Table& left, const Table& right, KeyMode mode) {
  Result<std::shared_ptr<const MaterializedInner>> inner =
      MaterializeInner(right, FieldKey("b"), false, mode);
  EXPECT_TRUE(inner.ok());
  Result<Table> r = EqualityJoinWithIndex(left, FieldKey("a"), right,
                                          *inner.value(), false, Symbol("n"));
  EXPECT_TRUE(r.ok());
  std::string out;
  for (const Tuple& t : r.value()) {
    out += "(" + (*t.Get(Symbol("a")))[0].StringValue() + "," +
           (*t.Get(Symbol("b")))[0].StringValue() + ")";
  }
  return out;
}

TEST(KeyModeTest, StringModeMatchesGeneralOnUntypedData) {
  Table left = {MakeTuple("a", AtomicValue::Untyped("p0")),
                MakeTuple("a", AtomicValue::Untyped("1")),
                MakeTuple("a", AtomicValue::Untyped("01"))};
  Table right = {MakeTuple("b", AtomicValue::Untyped("p0")),
                 MakeTuple("b", AtomicValue::Untyped("1")),
                 MakeTuple("b", AtomicValue::Untyped("p1"))};
  EXPECT_EQ(JoinString(left, right, KeyMode::kStringKeys),
            JoinString(left, right, KeyMode::kGeneralKeys));
}

TEST(KeyModeTest, DoubleModeMatchesGeneralOnNumericData) {
  Table left = {MakeTuple("a", AtomicValue::Integer(1)),
                MakeTuple("a", AtomicValue::Decimal(2.5)),
                MakeTuple("a", AtomicValue::Untyped("2.5"))};
  Table right = {MakeTuple("b", AtomicValue::Double(1.0)),
                 MakeTuple("b", AtomicValue::Float(2.5)),
                 MakeTuple("b", AtomicValue::Integer(7))};
  EXPECT_EQ(JoinString(left, right, KeyMode::kDoubleKeys),
            JoinString(left, right, KeyMode::kGeneralKeys));
}

// ---- end-to-end: specialization fires and preserves results ----------------------

TEST(KeyModeTest, EngineUsesSpecializedModeForNavigationJoins) {
  DynamicContext ctx;
  ctx.RegisterDocument("d.xml", MustParseXml(
      "<r><p id=\"x\"/><p id=\"y\"/><q ref=\"x\"/><q ref=\"x\"/></r>"));
  Engine engine;
  Result<PreparedQuery> q = engine.Prepare(
      "let $r := doc(\"d.xml\")/r "
      "return for $p in $r/p, $t in $r/q where $t/@ref = $p/@id "
      "return string($p/@id)");
  ASSERT_OK(q);
  Result<std::string> r = q.value().ExecuteToString(&ctx);
  ASSERT_OK(r);
  EXPECT_EQ(r.value(), "x x");
  // Both key sides are schema-less navigation -> untyped -> string mode.
  EXPECT_GE(q.value().last_exec_stats().specialized_joins, 1);
}

TEST(KeyModeTest, SchemaInScopeDisablesUntypedSpecialization) {
  Schema schema;  // any in-scope schema voids the untyped guarantee
  DynamicContext ctx;
  ctx.set_schema(&schema);
  ctx.RegisterDocument("d.xml", MustParseXml(
      "<r><p id=\"x\"/><q ref=\"x\"/></r>"));
  Engine engine;
  Result<PreparedQuery> q = engine.Prepare(
      "let $r := doc(\"d.xml\")/r "
      "return for $p in $r/p, $t in $r/q where $t/@ref = $p/@id "
      "return string($p/@id)");
  ASSERT_OK(q);
  Result<std::string> r = q.value().ExecuteToString(&ctx);
  ASSERT_OK(r);
  EXPECT_EQ(r.value(), "x");
  EXPECT_EQ(q.value().last_exec_stats().specialized_joins, 0);
}

TEST(KeyModeTest, StaticallyIncompatibleJoinIsEmpty) {
  DynamicContext ctx;
  Engine engine;
  // string keys vs numeric keys: never comparable; the join short-circuits.
  Result<PreparedQuery> q = engine.Prepare(
      "for $a in (1,2,3), $b in (4,5) "
      "where concat(\"k\", $a) = ($b * 2) return 1");
  ASSERT_OK(q);
  Result<std::string> r = q.value().ExecuteToString(&ctx);
  ASSERT_OK(r);
  EXPECT_EQ(r.value(), "");
  EXPECT_GE(q.value().last_exec_stats().specialized_joins, 1);
}

}  // namespace
}  // namespace xqc
