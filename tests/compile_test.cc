// Tests for the algebraic compilation rules (Section 4, Figures 2 and 3):
// FLWOR clause-by-clause compilation through the auxiliary judgment,
// path-step compilation to TreeJoin, the paper's worked examples, and
// typeswitch compilation via TypeMatches + Cond over a common tuple field.
#include <gtest/gtest.h>

#include "src/compile/compiler.h"
#include "src/xquery/normalize.h"
#include "src/xquery/parser.h"
#include "test_util.h"

namespace xqc {
namespace {

/// Parses + normalizes + compiles a standalone expression.
std::string CompileToPlan(const std::string& text) {
  Result<ExprPtr> parsed = ParseXQueryExpr(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << " " << text;
  if (!parsed.ok()) return "";
  Result<ExprPtr> core = NormalizeExpr(parsed.value());
  EXPECT_TRUE(core.ok()) << core.status().ToString();
  if (!core.ok()) return "";
  Result<OpPtr> plan = CompileExpr(core.value());
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return "";
  return OpToString(*plan.value());
}

// ---- basic rules --------------------------------------------------------------

TEST(CompileRules, SequenceRule) {
  // (SEQUENCE): Expr1, Expr2 => Sequence(Op1, Op2).
  EXPECT_EQ(CompileToPlan("(1, 2)"), "Sequence(1,2)");
  EXPECT_EQ(CompileToPlan("()"), "Empty()");
}

TEST(CompileRules, LiteralsAndVariables) {
  EXPECT_EQ(CompileToPlan("42"), "42");
  EXPECT_EQ(CompileToPlan("\"s\""), "\"s\"");
  // Free variables compile to algebra-context lookups.
  EXPECT_EQ(CompileToPlan("$x"), "Var[x]");
}

TEST(CompileRules, OperatorsBecomeCalls) {
  EXPECT_EQ(CompileToPlan("1 + 2"), "op:plus(1,2)");
  EXPECT_EQ(CompileToPlan("1 eq 2"), "op:eq(1,2)");
  EXPECT_EQ(CompileToPlan("1 = 2"), "op:general-eq(1,2)");
  EXPECT_EQ(CompileToPlan("1 to 3"), "op:to(1,3)");
}

TEST(CompileRules, IfBecomesCond) {
  EXPECT_EQ(CompileToPlan("if (1) then 2 else 3"),
            "Cond{2,3}(fn:boolean(1))");
}

// ---- Figure 2: FLWOR rules -----------------------------------------------------

TEST(CompileFLWOR, ForRuleShape) {
  // (FOR): MapConcat{MapFromItem{[x:IN]}(Op1)}(Op0), then the return's
  // MapToItem. Top level starts from ([]).
  EXPECT_EQ(CompileToPlan("for $x in $s return $x"),
            "MapToItem{IN#x}(MapConcat{MapFromItem{[x:IN]}(Var[s])}(([])))");
}

TEST(CompileFLWOR, ForWithTypeAssertsPerItem) {
  // (FOR) with `as T`: the [as T]_IN judgment produces TypeAssert over the
  // item.
  EXPECT_EQ(
      CompileToPlan("for $x as xs:integer in $s return $x"),
      "MapToItem{IN#x}(MapConcat{MapFromItem{[x:TypeAssert[xs:integer]"
      "(IN)]}(Var[s])}(([])))");
}

TEST(CompileFLWOR, ForAtIntroducesMapIndex) {
  // (FORAT): Op5 = MapIndex[i](Op4).
  EXPECT_EQ(CompileToPlan("for $x at $i in $s return $i"),
            "MapToItem{IN#i}(MapIndex[i](MapConcat{MapFromItem{[x:IN]}"
            "(Var[s])}(([]))))");
}

TEST(CompileFLWOR, LetRuleShape) {
  // (LET): MapConcat{[v:Op2]}(Op0).
  EXPECT_EQ(CompileToPlan("for $x in $s let $y := $x return $y"),
            "MapToItem{IN#y}(MapConcat{[y:IN#x]}(MapConcat{MapFromItem{"
            "[x:IN]}(Var[s])}(([]))))");
}

TEST(CompileFLWOR, WhereRuleShape) {
  // (WHERE): Select{pred}(Op0). Boolean predicates stay bare.
  EXPECT_EQ(CompileToPlan("for $x in $s where $x = 1 return $x"),
            "MapToItem{IN#x}(Select{op:general-eq(IN#x,1)}(MapConcat{"
            "MapFromItem{[x:IN]}(Var[s])}(([]))))");
}

TEST(CompileFLWOR, OrderByRuleShape) {
  EXPECT_EQ(CompileToPlan("for $x in $s order by $x descending return $x"),
            "MapToItem{IN#x}(OrderBy{IN#x desc}(MapConcat{MapFromItem{"
            "[x:IN]}(Var[s])}(([]))))");
}

TEST(CompileFLWOR, NestedCorrelatedBlockStartsFromIn) {
  // A nested FLWOR that references an outer variable compiles over IN so
  // the outer tuple's fields flow in (the paper's dependent-join shape)...
  std::string plan = CompileToPlan(
      "for $x in $s return (for $y in $x return $y)");
  EXPECT_NE(plan.find("MapConcat{MapFromItem{[y:IN]}(IN#x)}(IN)"),
            std::string::npos)
      << plan;
  // ...whereas an independent nested block starts from ([]).
  std::string indep = CompileToPlan(
      "for $x in $s return count(for $y in $t return $y)");
  EXPECT_NE(indep.find("MapConcat{MapFromItem{[y:IN]}(Var[t])}(([]))"),
            std::string::npos)
      << indep;
}

TEST(CompileFLWOR, VariablesShadowWithFreshFields) {
  // Rebinding $x must give distinct tuple fields.
  std::string plan =
      CompileToPlan("for $x in $s return (for $x in $x return $x)");
  EXPECT_NE(plan.find("[x_2:IN]"), std::string::npos) << plan;
  EXPECT_NE(plan.find("MapToItem{IN#x_2}"), std::string::npos) << plan;
}

// ---- quantifiers -----------------------------------------------------------

TEST(CompileQuantifiers, SomeBecomesMapSome) {
  EXPECT_EQ(CompileToPlan("some $x in $s satisfies $x = 1"),
            "MapSome{fn:boolean(op:general-eq(IN#x,1))}(MapConcat{"
            "MapFromItem{[x:IN]}(Var[s])}(IN))");
}

TEST(CompileQuantifiers, EveryBecomesMapEvery) {
  std::string plan = CompileToPlan("every $x in $s satisfies $x = 1");
  EXPECT_NE(plan.find("MapEvery{"), std::string::npos) << plan;
}

// ---- paths (the Section 4 worked example) -------------------------------------

TEST(CompilePaths, StepBecomesTreeJoin) {
  std::string plan = CompileToPlan("$d/person");
  EXPECT_NE(plan.find("TreeJoin[child::element(person)](IN#dot)"),
            std::string::npos)
      << plan;
  // The step sits inside the per-context-node FLWOR over $d.
  EXPECT_NE(plan.find("MapFromItem{[dot:IN]}(Var[d])"), std::string::npos)
      << plan;
  // Path results pass through fs:distinct-docorder.
  EXPECT_EQ(plan.rfind("fs:distinct-docorder(", 0), 0) << plan;
}

TEST(CompilePaths, PaperPositionalExample) {
  // $d/descendant::person[position()=1] — the paper's Section 4 example:
  // one complete FLWOR block per step with MapIndex computing the context
  // position and a Select for the predicate.
  std::string plan = CompileToPlan("$d/descendant::person[position() = 1]");
  EXPECT_NE(plan.find("TreeJoin[descendant::element(person)]"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("MapIndex[position]"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Select{op:general-eq(IN#position,1)}"),
            std::string::npos)
      << plan;
}

TEST(CompilePaths, AbbreviatedPositional) {
  // [1] normalizes to the same positional where clause.
  std::string plan = CompileToPlan("$d/person[1]");
  EXPECT_NE(plan.find("Select{op:general-eq(IN#position,1)}"),
            std::string::npos)
      << plan;
}

TEST(CompilePaths, AttributeStep) {
  std::string plan = CompileToPlan("$d/@id");
  EXPECT_NE(plan.find("TreeJoin[attribute::attribute(id)]"),
            std::string::npos)
      << plan;
}

// ---- Figure 3: typeswitch ------------------------------------------------------

TEST(CompileTypeswitch, PaperRuleShape) {
  // Figure 3: input in one tuple field, branches as Cond over TypeMatches,
  // evaluated over ([x:Op0] ++ IN).
  std::string plan = CompileToPlan(
      "typeswitch ($a) case $u as element(us) return 1 "
      "case $e as element(eu) return 2 default $o return 3");
  EXPECT_NE(plan.find("MapToItem{Cond{1,Cond{2,3}"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("TypeMatches[element(us)](IN#ts"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("TypeMatches[element(eu)](IN#ts"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("++ IN)"), std::string::npos) << plan;
}

TEST(CompileTypeswitch, BranchesShareTheCommonField) {
  std::string plan = CompileToPlan(
      "typeswitch (1) case $i as xs:integer return $i default $d return $d");
  // Both $i and $d compile to the same unified field access.
  EXPECT_NE(plan.find("Cond{IN#ts0,IN#ts0}"), std::string::npos) << plan;
}

// ---- other Core forms ----------------------------------------------------------

TEST(CompileTypeExprs, MapToAlgebraTypeOperators) {
  EXPECT_EQ(CompileToPlan("1 instance of xs:integer"),
            "TypeMatches[xs:integer](1)");
  EXPECT_EQ(CompileToPlan("\"4\" cast as xs:integer"),
            "Cast[xs:integer](\"4\")");
  EXPECT_EQ(CompileToPlan("\"4\" castable as xs:integer"),
            "Castable[xs:integer](\"4\")");
  EXPECT_EQ(CompileToPlan("$x treat as xs:integer+"),
            "TypeAssert[xs:integer+](Var[x])");
}

TEST(CompileConstructors, ElementAndDocLoad) {
  EXPECT_EQ(CompileToPlan("<a>{1}</a>"), "Element[a](1)");
  EXPECT_EQ(CompileToPlan("doc(\"u.xml\")"), "Parse(\"u.xml\")");
}

TEST(CompileQuery, FunctionsCompileToPlansOverVarLeaves) {
  Result<Query> parsed = ParseXQuery(
      "declare function local:f($a, $b) { $a + $b }; local:f(1, 2)");
  ASSERT_OK(parsed);
  Result<Query> core = NormalizeQuery(parsed.value());
  ASSERT_OK(core);
  Result<CompiledQuery> compiled = CompileQuery(core.value());
  ASSERT_OK(compiled);
  const CompiledFunction& f =
      compiled.value().functions.at(FunctionKey{Symbol("local:f"), 2});
  EXPECT_EQ(OpToString(*f.plan), "op:plus(Var[a],Var[b])");
  EXPECT_EQ(OpToString(*compiled.value().plan), "local:f(1,2)");
}

TEST(CompileQuery, GlobalsCompileInDeclarationOrder) {
  Result<Query> parsed = ParseXQuery(
      "declare variable $a := 1; declare variable $b := $a + 1; $b");
  ASSERT_OK(parsed);
  Result<Query> core = NormalizeQuery(parsed.value());
  ASSERT_OK(core);
  Result<CompiledQuery> compiled = CompileQuery(core.value());
  ASSERT_OK(compiled);
  ASSERT_EQ(compiled.value().globals.size(), 2u);
  EXPECT_EQ(compiled.value().globals[0].first, Symbol("a"));
  EXPECT_EQ(OpToString(*compiled.value().globals[1].second),
            "op:plus(Var[a],1)");
}

}  // namespace
}  // namespace xqc
