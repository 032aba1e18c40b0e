// Tests for the built-in function library: registry sanity, arity
// enforcement, and edge-case semantics of the fn:/op:/fs: functions (the
// paper notes the built-ins are required for algebra completeness).
#include <gtest/gtest.h>

#include <cmath>

#include "src/runtime/builtins.h"
#include "src/runtime/context.h"
#include "src/xml/serializer.h"
#include "test_util.h"

namespace xqc {
namespace {

using testutil::InterpToString;

TEST(BuiltinRegistry, LookupAndEnumeration) {
  EXPECT_NE(LookupBuiltin(Symbol("fn:count"), 1), nullptr);
  EXPECT_NE(LookupBuiltin(Symbol("op:general-eq"), 2), nullptr);
  EXPECT_NE(LookupBuiltin(Symbol("fs:distinct-docorder"), 1), nullptr);
  EXPECT_EQ(LookupBuiltin(Symbol("fn:no-such-thing"), 1), nullptr);
  // Completeness floor: the library is substantial.
  EXPECT_GE(AllBuiltins().size(), 60u);
  // Every id a pass tests for names a row.
  EXPECT_EQ(BuiltinRow(BuiltinId::kAnd).name, Symbol("op:and"));
  EXPECT_EQ(BuiltinRow(BuiltinId::kCollection).name, Symbol("fn:collection"));
}

TEST(BuiltinRegistry, ArityIsPartOfTheBinding) {
  // A row binds only inside its arity range.
  EXPECT_EQ(LookupBuiltin(Symbol("fn:count"), 0), nullptr);
  EXPECT_EQ(LookupBuiltin(Symbol("fn:count"), 2), nullptr);
  // fn:concat is variadic (>= 2).
  const Builtin* concat = LookupBuiltin(Symbol("fn:concat"), 4);
  ASSERT_NE(concat, nullptr);
  EXPECT_EQ(LookupBuiltin(Symbol("fn:concat"), 1), nullptr);
  DynamicContext ctx;
  Result<Sequence> r = concat->fn({{AtomicValue::String("a")},
                                   {AtomicValue::String("b")},
                                   {AtomicValue::String("c")},
                                   {AtomicValue::String("d")}},
                                  &ctx);
  ASSERT_OK(r);
  EXPECT_EQ(r.value()[0].atomic().AsString(), "abcd");
  // A call no row or declaration binds is a static error.
  EXPECT_EQ(InterpToString("count()"), "ERROR:XPST0017");
  EXPECT_EQ(InterpToString("count(1, 2)"), "ERROR:XPST0017");
}

TEST(BuiltinRegistry, RowFacts) {
  const Builtin* ge = LookupBuiltin(Symbol("op:general-ge"), 2);
  ASSERT_NE(ge, nullptr);
  EXPECT_EQ(ge->comparison, Comparison::kGeneral);
  EXPECT_EQ(ge->comp, CompOp::kGe);
  EXPECT_EQ(LookupBuiltin(Symbol("op:lt"), 2)->comparison, Comparison::kValue);
  EXPECT_EQ(LookupBuiltin(Symbol("fn:exists"), 1)->demand, Demand::kOneItem);
  EXPECT_EQ(LookupBuiltin(Symbol("fn:not"), 1)->demand, Demand::kTwoItems);
  EXPECT_EQ(LookupBuiltin(Symbol("fn:subsequence"), 3)->demand,
            Demand::kBounds);
  EXPECT_EQ(LookupBuiltin(Symbol("fn:count"), 1)->demand, Demand::kAll);
  EXPECT_EQ(LookupBuiltin(Symbol("fn:round"), 1)->result,
            ResultClass::kNumeric);
  EXPECT_EQ(LookupBuiltin(Symbol("fn:data"), 1)->result, ResultClass::kOther);
}

TEST(BuiltinNumerics, ArithmeticTypeRules) {
  // integer op integer stays integer; div goes to decimal.
  EXPECT_EQ(InterpToString("3 + 4"), "7");
  EXPECT_EQ(InterpToString("(6 div 3) instance of xs:decimal"), "true");
  EXPECT_EQ(InterpToString("(6 div 4)"), "1.5");
  EXPECT_EQ(InterpToString("(1 + 0.5) instance of xs:decimal"), "true");
  EXPECT_EQ(InterpToString("(1 + 1e0) instance of xs:double"), "true");
  EXPECT_EQ(InterpToString("-7 idiv 2"), "-3");  // truncating
  EXPECT_EQ(InterpToString("-7 mod 2"), "-1");
  EXPECT_EQ(InterpToString("1e0 div 0"), "INF");
  EXPECT_EQ(InterpToString("-1e0 div 0"), "-INF");
  EXPECT_EQ(InterpToString("0e0 div 0"), "NaN");
  EXPECT_EQ(InterpToString("1.0 div 0"), "ERROR:FOAR0001");  // decimal
}

TEST(BuiltinNumerics, UntypedOperandsCastToDouble) {
  DynamicContext ctx;
  ctx.RegisterDocument("d.xml", testutil::MustParseXml("<a><n>4</n></a>"));
  EXPECT_EQ(InterpToString("doc(\"d.xml\")/a/n + 1", &ctx), "5");
  EXPECT_EQ(InterpToString(
                "(doc(\"d.xml\")/a/n + 1) instance of xs:double", &ctx),
            "true");
}

TEST(BuiltinAggregates, EmptyAndMixed) {
  EXPECT_EQ(InterpToString("sum(())"), "0");
  EXPECT_EQ(InterpToString("sum((1, 2.5))"), "3.5");
  EXPECT_EQ(InterpToString("sum((1,2,3)) instance of xs:integer"), "true");
  EXPECT_EQ(InterpToString("avg((1,2)) instance of xs:decimal"), "true");
  EXPECT_EQ(InterpToString("min(())"), "");
  EXPECT_EQ(InterpToString("max((1, 2.5, 2))"), "2.5");
  EXPECT_EQ(InterpToString("min((\"b\",\"a\"))"), "a");
  EXPECT_EQ(InterpToString("sum((\"x\"))"), "ERROR:XPTY0004");
}

TEST(BuiltinStrings, EdgeCases) {
  EXPECT_EQ(InterpToString("substring(\"hello\", 0)"), "hello");
  EXPECT_EQ(InterpToString("substring(\"hello\", 2)"), "ello");
  EXPECT_EQ(InterpToString("substring(\"hello\", 1.5, 2.6)"), "ell");
  EXPECT_EQ(InterpToString("substring(\"\", 1)"), "");
  EXPECT_EQ(InterpToString("substring-before(\"a-b\", \"-\")"), "a");
  EXPECT_EQ(InterpToString("substring-after(\"a-b\", \"-\")"), "b");
  EXPECT_EQ(InterpToString("substring-before(\"ab\", \"x\")"), "");
  EXPECT_EQ(InterpToString("contains(\"abc\", \"\")"), "true");
  EXPECT_EQ(InterpToString("upper-case(\"aBc\")"), "ABC");
  EXPECT_EQ(InterpToString("lower-case(\"AbC\")"), "abc");
  EXPECT_EQ(InterpToString("translate(\"abcabc\", \"abc\", \"AB\")"), "ABAB");
  EXPECT_EQ(InterpToString("normalize-space(\"  a   b \")"), "a b");
  EXPECT_EQ(InterpToString("string-join((), \"-\")"), "");
  EXPECT_EQ(InterpToString("string(())"), "");
}

// F&O 7.4.3: every edge case of fn:substring's positional arithmetic —
// fn:round semantics, NaN/±INF start or length, start < 1, and
// overflowing start+length all resolve through IEEE double comparisons
// against the 1-based codepoint position.
TEST(BuiltinStrings, SubstringSpecEdgeCases) {
  // The spec's own examples.
  EXPECT_EQ(InterpToString("substring(\"motor car\", 6)"), " car");
  EXPECT_EQ(InterpToString("substring(\"metadata\", 4, 3)"), "ada");
  EXPECT_EQ(InterpToString("substring(\"12345\", 1.5, 2.6)"), "234");
  EXPECT_EQ(InterpToString("substring(\"12345\", 0, 3)"), "12");
  EXPECT_EQ(InterpToString("substring(\"12345\", 5, -3)"), "");
  EXPECT_EQ(InterpToString("substring(\"12345\", -3, 5)"), "1");
  EXPECT_EQ(InterpToString("substring(\"12345\", 0 div 0e0, 3)"), "");
  EXPECT_EQ(InterpToString("substring(\"12345\", 1, 0 div 0e0)"), "");
  EXPECT_EQ(InterpToString("substring(\"12345\", -42, 1 div 0e0)"), "12345");
  // -INF start with INF length: round(-INF) + round(INF) is NaN, and
  // position < NaN holds for no position — empty, not the whole string.
  EXPECT_EQ(InterpToString("substring(\"12345\", -1 div 0e0, 1 div 0e0)"),
            "");
  // 2-argument form with infinite/negative starts.
  EXPECT_EQ(InterpToString("substring(\"12345\", -1 div 0e0)"), "12345");
  EXPECT_EQ(InterpToString("substring(\"12345\", 1 div 0e0)"), "");
  EXPECT_EQ(InterpToString("substring(\"12345\", 0 div 0e0)"), "");
  // fn:round rounds .5 toward positive infinity, including negatives.
  EXPECT_EQ(InterpToString("substring(\"12345\", 0.5)"), "12345");
  EXPECT_EQ(InterpToString("substring(\"12345\", -0.5, 3.5)"), "123");
  EXPECT_EQ(InterpToString("substring(\"12345\", 2.5, 0.4)"), "");
  // start+length overflowing past the end selects to the end.
  EXPECT_EQ(InterpToString("substring(\"12345\", 4, 1000000)"), "45");
  EXPECT_EQ(InterpToString("substring(\"12345\", 2, 1e308)"), "2345");
  // Empty-sequence first argument behaves as "".
  EXPECT_EQ(InterpToString("substring((), 1, 3)"), "");
  // Non-numeric start/length is a type error.
  EXPECT_EQ(InterpToString("substring(\"12345\", \"2\")"),
            "ERROR:XPTY0004");
  EXPECT_EQ(InterpToString("substring(\"12345\", 1, \"2\")"),
            "ERROR:XPTY0004");
}

// F&O 7.4.7 / 7.4.9: fn:substring-before / fn:substring-after edges, and
// their 3-arity collation forms (codepoint supported, others FOCH0002).
TEST(BuiltinStrings, SubstringBeforeAfterSpecEdgeCases) {
  // Zero-length search string: before -> "", after -> the whole string.
  EXPECT_EQ(InterpToString("substring-before(\"tattoo\", \"\")"), "");
  EXPECT_EQ(InterpToString("substring-after(\"tattoo\", \"\")"), "tattoo");
  // No match: both return "".
  EXPECT_EQ(InterpToString("substring-before(\"tattoo\", \"x\")"), "");
  EXPECT_EQ(InterpToString("substring-after(\"tattoo\", \"x\")"), "");
  // First occurrence wins.
  EXPECT_EQ(InterpToString("substring-before(\"tattoo\", \"t\")"), "");
  EXPECT_EQ(InterpToString("substring-after(\"tattoo\", \"tat\")"), "too");
  EXPECT_EQ(InterpToString("substring-after(\"tattoo\", \"o\")"), "o");
  // Empty-sequence arguments behave as "".
  EXPECT_EQ(InterpToString("substring-before((), \"a\")"), "");
  EXPECT_EQ(InterpToString("substring-after(\"ab\", ())"), "ab");
  // Multi-codepoint (UTF-8) needles match whole codepoints.
  EXPECT_EQ(InterpToString("substring-before(\"déjà\", \"à\")"), "déj");
  EXPECT_EQ(InterpToString("substring-after(\"déjà vu\", \"à\")"), " vu");
  // The codepoint collation is accepted; any other collation is FOCH0002.
  EXPECT_EQ(
      InterpToString("substring-before(\"a-b\", \"-\", \"http://www.w3.org/"
                     "2005/xpath-functions/collation/codepoint\")"),
      "a");
  EXPECT_EQ(
      InterpToString("substring-after(\"a-b\", \"-\", \"http://www.w3.org/"
                     "2005/xpath-functions/collation/codepoint\")"),
      "b");
  EXPECT_EQ(InterpToString(
                "substring-before(\"a-b\", \"-\", \"http://example.com/"
                "collation\")"),
            "ERROR:FOCH0002");
  EXPECT_EQ(InterpToString(
                "substring-after(\"a-b\", \"-\", \"http://example.com/"
                "collation\")"),
            "ERROR:FOCH0002");
}

TEST(BuiltinStrings, UnicodeCodepoints) {
  // string-length/substring count codepoints, not UTF-8 bytes.
  // 2-byte sequences:
  EXPECT_EQ(InterpToString("string-length(\"déjà vu\")"), "7");
  EXPECT_EQ(InterpToString("substring(\"déjà vu\", 5, 2)"), " v");
  EXPECT_EQ(InterpToString("substring(\"déjà\", 2)"), "éjà");
  EXPECT_EQ(InterpToString(
                "concat(substring(\"déjà\", 1, 2), substring(\"déjà\", 3))"),
            "déjà");
  // 3-byte sequences:
  EXPECT_EQ(InterpToString("string-length(\"日本語\")"), "3");
  EXPECT_EQ(InterpToString("substring(\"日本語\", 2, 1)"), "本");
  // 4-byte sequences (astral plane):
  EXPECT_EQ(InterpToString("string-length(\"a\U0001F600b\")"), "3");
  EXPECT_EQ(InterpToString("substring(\"a\U0001F600b\", 2, 1)"),
            "\U0001F600");
  EXPECT_EQ(InterpToString("substring(\"\U0001F600\U0001F601\U0001F602\", "
                           "2, 2)"),
            "\U0001F601\U0001F602");
}

TEST(BuiltinStrings, SubstringRounding) {
  // F&O 7.4.3: both arguments pass through fn:round, i.e. floor(x + 0.5).
  EXPECT_EQ(InterpToString("substring(\"abcde\", -0.5, 3)"), "ab");
  EXPECT_EQ(InterpToString("substring(\"12345\", 1.5, 2.6)"), "234");
  EXPECT_EQ(InterpToString("substring(\"abc\", number(\"NaN\"), 2)"), "");
  EXPECT_EQ(InterpToString("substring(\"abc\", 1, number(\"NaN\"))"), "");
}

TEST(BuiltinNumerics, RoundHalfTowardPositiveInfinity) {
  EXPECT_EQ(InterpToString("round(2.5)"), "3");
  EXPECT_EQ(InterpToString("round(-2.5)"), "-2");  // NOT -3 (C round())
  EXPECT_EQ(InterpToString("round(-3.5)"), "-3");
  EXPECT_EQ(InterpToString("string(round(number(\"NaN\")))"), "NaN");
  EXPECT_EQ(InterpToString("subsequence((1,2,3,4,5), -0.5, 3)"), "1 2");
}

TEST(BuiltinSequences, PositionalFunctions) {
  EXPECT_EQ(InterpToString("subsequence((1,2,3,4,5), 2)"), "2 3 4 5");
  EXPECT_EQ(InterpToString("subsequence((1,2,3), 0, 2)"), "1");
  EXPECT_EQ(InterpToString("insert-before((1,2), 1, (9))"), "9 1 2");
  EXPECT_EQ(InterpToString("insert-before((1,2), 9, (9))"), "1 2 9");
  EXPECT_EQ(InterpToString("remove((1,2,3), 2)"), "1 3");
  EXPECT_EQ(InterpToString("remove((1,2,3), 9)"), "1 2 3");
  EXPECT_EQ(InterpToString("index-of((), 1)"), "");
  EXPECT_EQ(InterpToString("reverse(())"), "");
}

TEST(BuiltinSequences, DistinctValuesSemantics) {
  // Cross-type numeric equality dedups; untyped dedups as string vs
  // numeric per promotion; NaN kept once.
  EXPECT_EQ(InterpToString("distinct-values((1, 1.0, 1e0))"), "1");
  EXPECT_EQ(InterpToString("count(distinct-values((number(\"NaN\"), "
                           "number(\"NaN\"))))"),
            "1");
  EXPECT_EQ(InterpToString("distinct-values((\"a\", \"a\", \"b\"))"), "a b");
}

TEST(BuiltinCardinality, CheckFunctions) {
  EXPECT_EQ(InterpToString("zero-or-one(())"), "");
  EXPECT_EQ(InterpToString("zero-or-one((1))"), "1");
  EXPECT_EQ(InterpToString("zero-or-one((1,2))"), "ERROR:FORG0003");
  EXPECT_EQ(InterpToString("one-or-more(())"), "ERROR:FORG0004");
  EXPECT_EQ(InterpToString("exactly-one((1,2))"), "ERROR:FORG0005");
  EXPECT_EQ(InterpToString("exactly-one((7))"), "7");
}

TEST(BuiltinNodes, NamesAndRoots) {
  DynamicContext ctx;
  ctx.RegisterDocument("d.xml",
                       testutil::MustParseXml("<root><kid a=\"1\"/></root>"));
  EXPECT_EQ(InterpToString("name(doc(\"d.xml\")/root/kid)", &ctx), "kid");
  EXPECT_EQ(InterpToString("local-name(doc(\"d.xml\")/root/kid/@a)", &ctx),
            "a");
  EXPECT_EQ(InterpToString("name(())"), "");
  EXPECT_EQ(InterpToString(
                "count(root(doc(\"d.xml\")//kid)/root)", &ctx),
            "1");
}

TEST(BuiltinErrors, FnError) {
  EXPECT_EQ(InterpToString("error()"), "ERROR:FOER0000");
  EXPECT_EQ(InterpToString("if (false()) then error() else 1"), "1");
}

TEST(BuiltinFs, ConvertOperandExposed) {
  // fs:convert-operand is callable directly (used by the formal-semantics
  // tests): untyped + numeric second operand -> double.
  EXPECT_EQ(InterpToString(
                "fs:convert-operand(\"3\" cast as xdt:untypedAtomic, 1) "
                "instance of xs:double"),
            "true");
  EXPECT_EQ(InterpToString(
                "fs:convert-operand(\"3\" cast as xdt:untypedAtomic, \"s\") "
                "instance of xs:string"),
            "true");
}

TEST(BuiltinDocs, DocFailsOnMissingFile) {
  EXPECT_EQ(InterpToString("doc(\"/no/such/file.xml\")"), "ERROR:FODC0002");
}

}  // namespace
}  // namespace xqc
