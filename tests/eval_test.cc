// Direct tests of the plan evaluator's context handling: global evaluation
// order, external bindings, the function-parameter algebra context, typed
// evaluation errors (tuple operators in item context and vice versa), and
// operator-level error propagation.
#include <gtest/gtest.h>

#include "src/algebra/op.h"
#include "src/engine/engine.h"
#include "src/runtime/eval.h"
#include "src/xml/serializer.h"
#include "test_util.h"

namespace xqc {
namespace {

TEST(EvalContextTest, GlobalsEvaluateInDeclarationOrder) {
  CompiledQuery q;
  q.globals.emplace_back(Symbol("a"), OpScalar(AtomicValue::Integer(2)));
  q.globals.emplace_back(
      Symbol("b"),
      OpCall(Symbol("op:times"),
             {OpVar(Symbol("a")), OpScalar(AtomicValue::Integer(10))}));
  q.plan = OpCall(Symbol("op:plus"),
                  {OpVar(Symbol("a")), OpVar(Symbol("b"))});
  DynamicContext ctx;
  PlanEvaluator eval(&q, &ctx, {});
  Result<Sequence> r = eval.Run();
  ASSERT_OK(r);
  EXPECT_EQ(r.value()[0].atomic().AsInt(), 22);
}

TEST(EvalContextTest, ExternalGlobalsComeFromContext) {
  CompiledQuery q;
  q.globals.emplace_back(Symbol("x"), nullptr);  // external
  q.plan = OpVar(Symbol("x"));
  DynamicContext ctx;
  // Unbound external is an error...
  {
    PlanEvaluator eval(&q, &ctx, {});
    Result<Sequence> r = eval.Run();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), "XPDY0002");
  }
  // ...bound external resolves.
  ctx.BindVariable(Symbol("x"), {AtomicValue::Integer(9)});
  PlanEvaluator eval(&q, &ctx, {});
  Result<Sequence> r = eval.Run();
  ASSERT_OK(r);
  EXPECT_EQ(r.value()[0].atomic().AsInt(), 9);
}

TEST(EvalContextTest, FunctionParametersShadowGlobals) {
  CompiledQuery q;
  q.globals.emplace_back(Symbol("v"), OpScalar(AtomicValue::Integer(1)));
  CompiledFunction f;
  f.name = Symbol("local:f");
  f.params = {Symbol("v")};
  f.param_types = {std::nullopt};
  f.plan = OpVar(Symbol("v"));  // must see the parameter, not the global
  q.functions.emplace(FunctionKey{f.name, f.params.size()}, f);
  q.plan = OpCall(Symbol("local:f"), {OpScalar(AtomicValue::Integer(42))});
  DynamicContext ctx;
  PlanEvaluator eval(&q, &ctx, {});
  Result<Sequence> r = eval.Run();
  ASSERT_OK(r);
  EXPECT_EQ(r.value()[0].atomic().AsInt(), 42);
}

TEST(EvalContextTest, FunctionArityAndTypeChecks) {
  CompiledQuery q;
  CompiledFunction f;
  f.name = Symbol("local:g");
  f.params = {Symbol("p")};
  f.param_types = {
      SequenceType::One(ItemTest::Atomic(AtomicType::kInteger))};
  f.return_type = SequenceType::One(ItemTest::Atomic(AtomicType::kString));
  f.plan = OpVar(Symbol("p"));  // returns an integer: violates return type
  q.functions.emplace(FunctionKey{f.name, f.params.size()}, f);
  DynamicContext ctx;
  // Wrong arity.
  q.plan = OpCall(Symbol("local:g"), {});
  {
    PlanEvaluator eval(&q, &ctx, {});
    EXPECT_EQ(eval.Run().status().code(), "XPST0017");
  }
  // Wrong argument type.
  q.plan = OpCall(Symbol("local:g"), {OpScalar(AtomicValue::String("s"))});
  {
    PlanEvaluator eval(&q, &ctx, {});
    EXPECT_EQ(eval.Run().status().code(), "XPTY0004");
  }
  // Return-type violation.
  q.plan = OpCall(Symbol("local:g"), {OpScalar(AtomicValue::Integer(1))});
  {
    PlanEvaluator eval(&q, &ctx, {});
    EXPECT_EQ(eval.Run().status().code(), "XPTY0004");
  }
}

TEST(EvalTypingTest, TupleOperatorInItemContextIsInternalError) {
  CompiledQuery q;
  q.plan = OpSelect(OpScalar(AtomicValue::Boolean(true)), OpEmptyTuples());
  DynamicContext ctx;
  PlanEvaluator eval(&q, &ctx, {});
  Result<Sequence> r = eval.Run();  // Select evaluated as items
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().kind(), StatusKind::kInternal);
}

TEST(EvalTypingTest, ItemOperatorInTableContextIsInternalError) {
  CompiledQuery q;
  q.plan = OpMapToItem(OpIn(), OpScalar(AtomicValue::Integer(1)));
  DynamicContext ctx;
  PlanEvaluator eval(&q, &ctx, {});
  Result<Sequence> r = eval.Run();  // Scalar evaluated as a table
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().kind(), StatusKind::kInternal);
}

TEST(EvalErrorsTest, ErrorsInsideDependentsPropagate) {
  // An error raised per-tuple inside a Select predicate aborts evaluation.
  OpPtr seq = MakeOp(OpKind::kSequence);
  seq->inputs = {OpScalar(AtomicValue::Integer(1)),
                 OpScalar(AtomicValue::Integer(0))};
  OpPtr stream = OpMapFromItem(OpTupleConstruct({Symbol("x")}, {OpIn()}), seq);
  OpPtr pred = OpCall(
      Symbol("op:general-eq"),
      {OpCall(Symbol("op:idiv"),
              {OpScalar(AtomicValue::Integer(1)), OpInField(Symbol("x"))}),
       OpScalar(AtomicValue::Integer(1))});
  CompiledQuery q;
  q.plan = OpMapToItem(OpInField(Symbol("x")),
                       OpSelect(std::move(pred), std::move(stream)));
  DynamicContext ctx;
  PlanEvaluator eval(&q, &ctx, {});
  Result<Sequence> r = eval.Run();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), "FOAR0001");
}

TEST(EvalErrorsTest, OrderByMultiItemKeyIsTypeError) {
  OpPtr stream = OpMapFromItem(OpTupleConstruct({Symbol("x")}, {OpIn()}),
                               OpScalar(AtomicValue::Integer(1)));
  OpPtr ob = MakeOp(OpKind::kOrderBy);
  OrderSpecOp spec;
  OpPtr two = MakeOp(OpKind::kSequence);
  two->inputs = {OpScalar(AtomicValue::Integer(1)),
                 OpScalar(AtomicValue::Integer(2))};
  spec.key = two;
  ob->specs.push_back(std::move(spec));
  ob->inputs = {std::move(stream)};
  CompiledQuery q;
  q.plan = OpMapToItem(OpInField(Symbol("x")), ob);
  DynamicContext ctx;
  PlanEvaluator eval(&q, &ctx, {});
  EXPECT_EQ(eval.Run().status().code(), "XPTY0004");
}

TEST(EvalErrorsTest, GroupByRejectsNonIntegerIndexField) {
  OpPtr stream = OpMapFromItem(OpTupleConstruct({Symbol("k")}, {OpIn()}),
                               OpScalar(AtomicValue::String("not-an-int")));
  OpPtr flagged = OpOMap(Symbol("null"), std::move(stream));
  OpPtr gb = OpGroupBy(Symbol("a"), {Symbol("k")}, {Symbol("null")},
                       OpCall(Symbol("fn:count"), {OpIn()}),
                       OpInField(Symbol("k")), std::move(flagged));
  CompiledQuery q;
  q.plan = OpMapToItem(OpInField(Symbol("a")), gb);
  DynamicContext ctx;
  PlanEvaluator eval(&q, &ctx, {});
  Result<Sequence> r = eval.Run();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().kind(), StatusKind::kInternal);
}

TEST(EvalCachingTest, IndependentJoinInputsAreReused) {
  // A correlated subplan with an independent right join input builds the
  // inner index once (the caching behind Table 5's deep-nesting results).
  DynamicContext ctx;
  ctx.RegisterDocument("d.xml", testutil::MustParseXml(
      "<r><p k=\"1\"/><p k=\"2\"/><p k=\"3\"/>"
      "<q k=\"1\"/><q k=\"3\"/></r>"));
  Engine engine;
  Result<PreparedQuery> q = engine.Prepare(
      "let $r := doc(\"d.xml\")/r return "
      "for $p in $r/p "
      "let $m := for $q in $r/q where $q/@k = $p/@k return $q "
      "let $m2 := for $q in $r/q where $q/@k = $p/@k return $q "
      "return count($m) + count($m2)");
  ASSERT_OK(q);
  Result<std::string> r = q.value().ExecuteToString(&ctx);
  ASSERT_OK(r);
  EXPECT_EQ(r.value(), "2 0 2");
}

TEST(EvalStatsTest, CountersAccumulateAcrossOneExecution) {
  DynamicContext ctx;
  ctx.RegisterDocument("d.xml", testutil::MustParseXml(
      "<r><a k=\"1\"/><b k=\"1\"/></r>"));
  Engine engine;
  Result<PreparedQuery> q = engine.Prepare(
      "let $r := doc(\"d.xml\")/r return ("
      "count(for $a in $r/a, $b in $r/b where $a/@k = $b/@k return 1), "
      "count(for $a in $r/a, $b in $r/b where $a/@k = $b/@k return 1))");
  ASSERT_OK(q);
  ASSERT_OK(q.value().Execute(&ctx));
  EXPECT_EQ(q.value().last_exec_stats().hash_joins, 2);
}

}  // namespace
}  // namespace xqc
