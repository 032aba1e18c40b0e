// Tests for normalization into the XQuery Core (Section 4): operator
// lowering to op:*/fn:* calls, the paper's FLWOR-preserving behaviour, path
// and predicate normalization (including the positional machinery and the
// set-level peeling of boolean predicates), typeswitch variable
// unification, and the hoisting passes.
#include <gtest/gtest.h>

#include "src/runtime/builtins.h"
#include "src/xquery/normalize.h"
#include "src/xquery/parser.h"
#include "test_util.h"

namespace xqc {
namespace {

std::string Norm(const std::string& text) {
  Result<ExprPtr> e = ParseXQueryExpr(text);
  EXPECT_TRUE(e.ok()) << e.status().ToString() << " for " << text;
  if (!e.ok()) return "";
  Result<ExprPtr> n = NormalizeExpr(e.value());
  EXPECT_TRUE(n.ok()) << n.status().ToString() << " for " << text;
  if (!n.ok()) return "";
  return ExprToString(*n.value());
}

TEST(NormalizeOps, OperatorsBecomeCalls) {
  EXPECT_EQ(Norm("1 + 2"), "op:plus(1, 2)");
  EXPECT_EQ(Norm("1 - 2"), "op:minus(1, 2)");
  EXPECT_EQ(Norm("1 idiv 2"), "op:idiv(1, 2)");
  EXPECT_EQ(Norm("-$x"), "op:unary-minus($x)");
  EXPECT_EQ(Norm("1 eq 2"), "op:eq(1, 2)");
  EXPECT_EQ(Norm("1 != 2"), "op:general-ne(1, 2)");
  EXPECT_EQ(Norm("1 to 5"), "op:to(1, 5)");
  EXPECT_EQ(Norm("$a union $b"), "op:union($a, $b)");
  EXPECT_EQ(Norm("$a intersect $b"), "op:intersect($a, $b)");
  EXPECT_EQ(Norm("$a except $b"), "op:except($a, $b)");
  EXPECT_EQ(Norm("$a is $b"), "op:is-same-node($a, $b)");
}

TEST(NormalizeOps, AndOrTakeEBVOfOperands) {
  EXPECT_EQ(Norm("$a and $b"),
            "op:and(fn:boolean($a), fn:boolean($b))");
  EXPECT_EQ(Norm("$a or $b"), "op:or(fn:boolean($a), fn:boolean($b))");
}

TEST(NormalizeOps, IfConditionTakesEBV) {
  EXPECT_EQ(Norm("if ($c) then 1 else 2"),
            "if (fn:boolean($c)) then 1 else 2");
}

TEST(NormalizeOps, UnprefixedFunctionsResolveToFn) {
  EXPECT_EQ(Norm("count($x)"), "fn:count($x)");
  EXPECT_EQ(Norm("fn:count($x)"), "fn:count($x)");
}

TEST(NormalizeFLWOR, StructureIsPreserved) {
  // The paper's key normalization fix: FLWORs stay multi-clause blocks.
  Result<ExprPtr> e = ParseXQueryExpr(
      "for $a in (1,2) let $b := $a where $b > 1 order by $b return $b");
  ASSERT_OK(e);
  Result<ExprPtr> n = NormalizeExpr(e.value());
  ASSERT_OK(n);
  ASSERT_EQ(n.value()->kind, ExprKind::kFLWOR);
  EXPECT_EQ(n.value()->clauses.size(), 4u);  // NOT broken into nested FLWORs
}

TEST(NormalizeFLWOR, BooleanWherePredicateStaysBare) {
  Result<ExprPtr> e =
      ParseXQueryExpr("for $a in (1,2) where $a = 1 return $a");
  ASSERT_OK(e);
  Result<ExprPtr> n = NormalizeExpr(e.value());
  ASSERT_OK(n);
  // The general comparison is statically boolean; no fn:boolean wrapper
  // that would hide the join predicate.
  EXPECT_EQ(ExprToString(*n.value()->clauses[1].expr),
            "op:general-eq($a, 1)");
}

TEST(NormalizeFLWOR, NonBooleanWhereGetsEBV) {
  Result<ExprPtr> e = ParseXQueryExpr("for $a in (1,2) where $a return $a");
  ASSERT_OK(e);
  Result<ExprPtr> n = NormalizeExpr(e.value());
  ASSERT_OK(n);
  EXPECT_EQ(ExprToString(*n.value()->clauses[1].expr), "fn:boolean($a)");
}

TEST(NormalizePaths, ContextItemBecomesFsDot) {
  EXPECT_EQ(Norm("."), "$fs:dot");
}

TEST(NormalizePaths, StepBecomesPerDotFLWOR) {
  std::string n = Norm("$d/person");
  EXPECT_EQ(n,
            "fs:distinct-docorder(for $fs:dot in $d return "
            "child::element(person))");
}

TEST(NormalizePaths, PositionalPredicateUsesAtClause) {
  // The paper's Section 4 example shape: a single FLWOR block with an `at`
  // clause and a positional where clause.
  std::string n = Norm("$d/person[2]");
  EXPECT_NE(n.find("at $fs:position"), std::string::npos) << n;
  EXPECT_NE(n.find("op:general-eq($fs:position, 2)"), std::string::npos) << n;
}

TEST(NormalizePaths, PositionFunctionSubstituted) {
  std::string n = Norm("$d/person[position() = 2]");
  EXPECT_NE(n.find("op:general-eq($fs:position, 2)"), std::string::npos) << n;
  EXPECT_EQ(n.find("fn:position"), std::string::npos) << n;
}

TEST(NormalizePaths, LastBindsCountOfSequence) {
  std::string n = Norm("$d/person[last()]");
  EXPECT_NE(n.find("let $fs:last := fn:count($fs:sequence)"),
            std::string::npos)
      << n;
  EXPECT_NE(n.find("op:general-eq($fs:position, $fs:last)"),
            std::string::npos)
      << n;
}

TEST(NormalizePaths, BooleanPredicatePeeledToSetLevel) {
  // Position-independent predicates apply AFTER the step's ddo result —
  // the form that lets path joins de-correlate (Section 4's Q1 variant).
  std::string n = Norm("$d/person[@id = $p]");
  EXPECT_NE(n.find("where op:general-eq("), std::string::npos) << n;
  // No at-clause machinery for the boolean predicate.
  EXPECT_EQ(n.find("$fs:position"), std::string::npos) << n;
}

TEST(NormalizePaths, MixedPredicatesKeepPerStepForm) {
  std::string n = Norm("$d/person[@a = 1][2]");
  EXPECT_NE(n.find("$fs:position"), std::string::npos) << n;
}

TEST(NormalizePaths, DynamicPredicateUsesRuntimeRule) {
  std::string n = Norm("$d/person[$n]");
  EXPECT_NE(n.find("fs:predicate-truth($n, $fs:position)"),
            std::string::npos)
      << n;
}

TEST(NormalizeTypeswitch, BranchVariablesUnified) {
  Result<ExprPtr> e = ParseXQueryExpr(
      "typeswitch ($v) case $a as xs:integer return $a "
      "case $b as xs:string return $b default $c return $c");
  ASSERT_OK(e);
  Result<ExprPtr> n = NormalizeExpr(e.value());
  ASSERT_OK(n);
  const Expr& ts = *n.value();
  ASSERT_EQ(ts.kind, ExprKind::kTypeswitch);
  Symbol common = ts.cases[0].var;
  EXPECT_FALSE(common.empty());
  for (const TypeswitchCase& c : ts.cases) {
    EXPECT_EQ(c.var, common);
    EXPECT_EQ(c.body->kind, ExprKind::kVarRef);
    EXPECT_EQ(c.body->name, common);
  }
}

TEST(NormalizeQuantified, SatisfiesTakesEBV) {
  std::string n = Norm("some $x in $s satisfies $x");
  EXPECT_NE(n.find("satisfies fn:boolean($x)"), std::string::npos) << n;
}

TEST(NormalizeErrors, PositionOutsidePredicate) {
  Result<ExprPtr> e = ParseXQueryExpr("position()");
  ASSERT_OK(e);
  Result<ExprPtr> n = NormalizeExpr(e.value());
  EXPECT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), "XPDY0002");
}

// ---- substitution ------------------------------------------------------------

TEST(SubstituteVarTest, RespectsShadowing) {
  Result<ExprPtr> e = ParseXQueryExpr("$x + (for $x in (1) return $x)");
  ASSERT_OK(e);
  ExprPtr s = SubstituteVar(e.value(), Symbol("x"), Symbol("y"));
  // Outer $x renamed; the FLWOR-bound $x untouched.
  EXPECT_EQ(ExprToString(*s), "($y plus for $x in 1 return $x)");
}

TEST(SubstituteVarTest, ClauseBoundaryShadowing) {
  // $x is free in the first binding expr, bound afterwards.
  Result<ExprPtr> e =
      ParseXQueryExpr("for $a in $x, $x in (1) return ($a, $x)");
  ASSERT_OK(e);
  ExprPtr s = SubstituteVar(e.value(), Symbol("x"), Symbol("y"));
  EXPECT_EQ(ExprToString(*s), "for $a in $y for $x in 1 return ($a, $x)");
}

// ---- call binding ------------------------------------------------------------

/// Counts the calls in `e` bound to a builtin row and those left to a
/// declared function (builtin == nullptr).
void CountCalls(const Expr& e, int* bound, int* user) {
  if (e.kind == ExprKind::kFunctionCall) {
    ++*(e.builtin != nullptr ? bound : user);
  }
  auto rec = [&](const ExprPtr& c) {
    if (c != nullptr) CountCalls(*c, bound, user);
  };
  for (const ExprPtr& c : e.children) rec(c);
  rec(e.ret);
  rec(e.name_expr);
  for (const Clause& c : e.clauses) {
    rec(c.expr);
    for (const Clause::OrderSpec& spec : c.specs) rec(spec.key);
  }
  for (const TypeswitchCase& c : e.cases) rec(c.body);
}

TEST(NormalizeBinding, EveryCallIsBoundOnce) {
  // Every operator the normalizer lowers, every call it introduces
  // (fn:boolean, fs:distinct-docorder, the three predicate shapes,
  // fn:count for last()), context-item and parser-made calls.
  Result<Query> q = ParseXQuery(
      "declare function local:f($x) { $x + 1 }; "
      "for $a at $i in (1 to 3) where $a = 2 and not($a eq 3) "
      "return (<e b=\"{$a} x\">{$a/string()}</e>, $a[1], $a[. > 0], "
      "$a[$i], $a[last()], some $z in $a satisfies $z, //e[@b], "
      "if ($a) then -$a else local:f($a), $a is $a, $a union $a)");
  ASSERT_OK(q);
  Result<Query> core = NormalizeQuery(q.value());
  ASSERT_OK(core);
  int bound = 0, user = 0;
  CountCalls(*core.value().body, &bound, &user);
  EXPECT_EQ(user, 1);  // local:f
  EXPECT_GT(bound, 20);
  const Expr& body = *core.value().body;
  ASSERT_EQ(body.clauses.back().expr->kind, ExprKind::kFunctionCall);
  EXPECT_EQ(IdOf(body.clauses.back().expr->builtin), BuiltinId::kAnd);
}

TEST(NormalizeBinding, UnboundCallsAreStaticErrors) {
  auto code = [](const char* text) -> std::string {
    Result<Query> q = ParseXQuery(text);
    if (!q.ok()) return "parse error";
    Result<Query> core = NormalizeQuery(q.value());
    return core.ok() ? "ok" : core.status().code();
  };
  EXPECT_EQ(code("if (1 = 2) then fn:no-such(1) else 42"), "XPST0017");
  EXPECT_EQ(code("declare function local:f() { substring() }; 1"),
            "XPST0017");
  EXPECT_EQ(code("declare function local:f($a) { 1 }; local:f()"),
            "XPST0017");
  EXPECT_EQ(code("declare function local:f($a) { 1 }; "
                 "declare function local:f($b) { 2 }; 1"),
            "XQST0034");
  EXPECT_EQ(code("declare function local:f($a) { 1 }; "
                 "declare function local:f() { 2 }; local:f()"),
            "ok");
  EXPECT_EQ(code("position()"), "XPDY0002");
}

// ---- hoisting passes -----------------------------------------------------------

TEST(HoistTest, LeadingLetsBecomeGlobals) {
  Result<Query> q = ParseXQuery(
      "let $d := doc(\"x.xml\") let $e := $d/a return count($e)");
  ASSERT_OK(q);
  Result<Query> core = NormalizeQuery(q.value());
  ASSERT_OK(core);
  HoistLeadingLets(&core.value());
  ASSERT_EQ(core.value().variables.size(), 2u);
  EXPECT_EQ(core.value().variables[0].name.str(), "d");
  EXPECT_EQ(core.value().variables[1].name.str(), "e");
  EXPECT_NE(core.value().body->kind, ExprKind::kFLWOR);
}

TEST(HoistTest, NestedCorrelatedBlockInConstructorBecomesLet) {
  Result<Query> q = ParseXQuery(
      "for $a in $s return <r>{ for $b in $t where $b = $a return $b }</r>");
  ASSERT_OK(q);
  Result<Query> core = NormalizeQuery(q.value());
  ASSERT_OK(core);
  HoistNestedReturnBlocks(&core.value());
  const Expr& f = *core.value().body;
  ASSERT_EQ(f.kind, ExprKind::kFLWOR);
  ASSERT_EQ(f.clauses.size(), 2u);  // for $a + the hoisted let
  EXPECT_EQ(f.clauses[1].kind, Clause::Kind::kLet);
  EXPECT_EQ(f.clauses[1].expr->kind, ExprKind::kFLWOR);
  // The constructor now references the hoisted variable.
  EXPECT_NE(ExprToString(*f.ret).find("$fs:hoist"), std::string::npos);
}

TEST(HoistTest, UncorrelatedNestedBlockStaysInPlace) {
  Result<Query> q = ParseXQuery(
      "for $a in $s return <r>{ for $b in $t where $b = 1 return $b }</r>");
  ASSERT_OK(q);
  Result<Query> core = NormalizeQuery(q.value());
  ASSERT_OK(core);
  HoistNestedReturnBlocks(&core.value());
  EXPECT_EQ(core.value().body->clauses.size(), 1u);  // nothing hoisted
}

TEST(HoistTest, BlocksInsideConditionalsNotHoisted) {
  // Hoisting out of an if-branch would change evaluation conditions.
  Result<Query> q = ParseXQuery(
      "for $a in $s return (if ($a = 1) then "
      "(for $b in $t where $b = $a return $b) else ())");
  ASSERT_OK(q);
  Result<Query> core = NormalizeQuery(q.value());
  ASSERT_OK(core);
  HoistNestedReturnBlocks(&core.value());
  EXPECT_EQ(core.value().body->clauses.size(), 1u);
}

}  // namespace
}  // namespace xqc
