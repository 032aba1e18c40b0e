// Regression corpus: a table-driven sweep of small query/expected pairs in
// the spirit of the Galax regression suite the paper reports (Section 7).
// Every entry runs under all five engine configurations; expected strings
// prefixed with "ERROR:" assert the W3C error code instead.
#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "src/engine/engine.h"
#include "test_util.h"

namespace xqc {
namespace {

using testutil::MustParseXml;

struct CorpusEntry {
  const char* query;
  const char* expected;
};

// The corpus document available as $D in every query.
const char* kCorpusDoc = R"(
<corp>
  <nums><n>3</n><n>1</n><n>2</n></nums>
  <strs><s>beta</s><s>alpha</s><s/></strs>
  <emp><e id="e1" mgr="e3"/><e id="e2" mgr="e3"/><e id="e3"/></emp>
  <mix>text<a/>tail<b><c>deep</c></b></mix>
</corp>)";

const CorpusEntry kCorpus[] = {
    // -- arithmetic and numeric edge cases --
    {"0 - 7", "-7"},
    {"2 * 3 + 4 * 5", "26"},
    {"10 idiv 3", "3"},
    {"-10 idiv 3", "-3"},
    {"10 mod 3", "1"},
    {"5 div 2", "2.5"},
    {"0.1 + 0.2 = 0.3", "false"},  // decimal stored as double (DESIGN.md)
    {"1e308 * 10", "INF"},
    {"-1e308 * 10", "-INF"},
    {"number(\"abc\") = number(\"abc\")", "false"},  // NaN != NaN
    {"abs(-2.5)", "2.5"},
    {"floor(-1.5)", "-2"},
    {"ceiling(-1.5)", "-1"},
    {"round(-1.5)", "-1"},
    {"round(2.4999)", "2"},
    {"7 mod 0", "ERROR:FOAR0001"},
    {"() * 3", ""},
    {"3 * ()", ""},
    {"(1,2) + 1", "ERROR:XPTY0004"},
    // -- comparisons --
    {"1 < 2", "true"},
    {"2 <= 2", "true"},
    {"\"a\" < \"b\"", "true"},
    {"\"a\" = ()", "false"},
    {"() != ()", "false"},
    {"(1,2) = (2,3)", "true"},
    {"(1,2) != (1,2)", "true"},  // existential !=
    {"(1,1) != (1,1)", "false"},
    {"true() = true()", "true"},
    {"true() > false()", "true"},
    {"1 eq 1.0", "true"},
    {"1 is 1", "ERROR:XPTY0004"},  // node comparison on atomics
    // -- strings --
    {"concat(\"a\", (), \"b\")", "ab"},
    {"string-length(\"\")", "0"},
    {"contains(\"\", \"\")", "true"},
    {"starts-with(\"\", \"a\")", "false"},
    {"ends-with(\"abc\", \"bc\")", "true"},
    {"substring(\"12345\", 2, 2)", "23"},
    {"substring(\"12345\", -1, 3)", "1"},
    {"normalize-space(\" a  b \")", "a b"},
    {"upper-case(\"mIxEd\")", "MIXED"},
    {"string-join((\"x\",\"y\",\"z\"), \"\")", "xyz"},
    {"translate(\"abc\", \"\", \"x\")", "abc"},
    {"string(1.5)", "1.5"},
    {"string(true())", "true"},
    // -- sequences --
    {"count(())", "0"},
    {"count((1, (), 2))", "2"},
    {"(1,2,3)[.]", "1 2 3"},  // numeric predicate = position test
    {"empty((()))", "true"},
    {"exists((0))", "true"},
    {"reverse((1,2))[1]", "2"},
    {"insert-before((), 1, (7))", "7"},
    {"remove((9), 1)", ""},
    {"subsequence((1,2,3), 2)", "2 3"},
    {"distinct-values(())", ""},
    {"index-of((1,2,3,2), 2)", "2 4"},
    {"1 to 0", ""},
    {"5 to 5", "5"},
    {"count(0 to 9)", "10"},
    // -- FLWOR --
    {"for $x in () return 1", ""},
    {"for $x in 5 return $x", "5"},
    {"let $x := (1,2) return count($x)", "2"},
    {"let $x := () return count($x)", "0"},
    {"for $x in (1,2,3) where false() return $x", ""},
    {"for $x in (1,2), $y in ($x, $x*10) return $y", "1 10 2 20"},
    {"for $x in (3,1,2) order by $x return $x * 2", "2 4 6"},
    {"for $x in (1,2,3) let $y := $x where $y ge 2 return $y", "2 3"},
    {"(for $x in (1,2) return for $y in (3,4) return $x + $y)", "4 5 5 6"},
    {"for $x at $p in (9,8,7) where $p = 2 return $x", "8"},
    // -- quantifiers --
    {"some $x in (1,2) satisfies $x = 2", "true"},
    {"every $x in (1,2) satisfies $x = 2", "false"},
    {"some $x in () satisfies 1 idiv 0", "false"},  // vacuous: no bindings
    {"every $x in () satisfies false()", "true"},
    // -- conditionals and logic --
    {"if (()) then 1 else 2", "2"},
    {"if ((0)) then 1 else 2", "2"},
    {"if ((\"0\")) then 1 else 2", "1"},  // non-empty string EBV
    {"false() or true()", "true"},
    {"false() and (1 idiv 0 = 1)", "ERROR:FOAR0001"},  // non-short-circuit
    {"not(())", "true"},
    // -- constructors --
    {"<a/>", "<a/>"},
    {"<a>{()}</a>", "<a/>"},
    {"<a>{1,2}</a>", "<a>1 2</a>"},
    {"<a b=\"{(1,2)}\"/>", "<a b=\"1 2\"/>"},
    {"<a>{<b>{1+1}</b>}</a>", "<a><b>2</b></a>"},
    {"element x { element y {} }", "<x><y/></x>"},
    {"attribute z { 1, 2 } instance of attribute(z)", "true"},
    {"string(<a>{\"x\", \"y\"}</a>)", "x y"},
    {"count((<a/>, <b/>, <c/>))", "3"},
    {"comment { \"no\" } instance of comment()", "true"},
    {"(processing-instruction tgt { \"d\" }) instance of "
     "processing-instruction()", "true"},
    // -- types and casts --
    {"3.5 instance of xs:decimal", "true"},
    {"3.5 instance of xs:integer", "false"},
    {"\"s\" instance of xs:string", "true"},
    {"() instance of xs:string?", "true"},
    {"(1, \"a\") instance of item()+", "true"},
    {"(1, \"a\") instance of xs:integer+", "false"},
    {"\" 42 \" cast as xs:integer", "42"},
    {"\"4.5\" cast as xs:double > 4", "true"},
    {"1 cast as xs:string", "1"},
    {"\"true\" cast as xs:boolean", "true"},
    {"\"yes\" castable as xs:boolean", "false"},
    {"(5) treat as xs:integer", "5"},
    {"(5, 6) treat as xs:integer", "ERROR:XPTY0004"},
    {"typeswitch (<a/>) case $e as element(a) return 1 default return 2",
     "1"},
    {"typeswitch (()) case $e as empty-sequence() return \"none\" "
     "default return \"some\"", "none"},
    // -- paths over the corpus document --
    {"count($D//n)", "3"},
    {"sum($D//n)", "6"},
    {"$D/corp/nums/n[1]/text()", "3"},
    {"$D//n[. = 2]", "<n>2</n>"},
    {"string-join($D//s/text(), \"|\")", "beta|alpha"},
    {"count($D//s[not(text())])", "1"},
    {"for $s in $D//s order by string($s) return concat($s, \";\")",
     "; alpha; beta;"},
    {"count($D/corp/mix/node())", "4"},
    {"$D/corp/mix/b/c/text()", "deep"},
    {"count($D//mix//text())", "3"},
    {"string($D//e[not(@mgr)]/@id)", "e3"},
    {"for $e in $D//e where $e/@mgr = $D//e[not(@mgr)]/@id "
     "return string($e/@id)", "e1 e2"},
    {"count($D//e[@mgr = \"e3\"])", "2"},
    {"$D//c/ancestor::mix instance of element(mix)", "true"},
    {"count($D/corp/*)", "4"},
    {"count($D//node()) > 10", "true"},
    {"$D/corp/nums/n[last()]/text()", "2"},
    {"$D/corp/nums/n[position() ge 2]/text()", "12"},
    {"count(($D//n, $D//s) )", "6"},
    {"count($D//n | $D//n)", "3"},
    {"count($D//* except $D//n)", "14"},
    {"count($D//* intersect $D//s)", "3"},
    // -- functions --
    {"declare function local:id($x) { $x }; local:id((1,2))", "1 2"},
    {"declare function local:sum3($a, $b, $c) { $a + $b + $c }; "
     "local:sum3(1, 2, 3)", "6"},
    {"declare function local:rep($s, $n) { if ($n le 0) then \"\" else "
     "concat($s, local:rep($s, $n - 1)) }; local:rep(\"ab\", 3)", "ababab"},
    {"declare variable $k := 10; declare function local:f() { $k }; "
     "local:f() + $k", "20"},
    // -- errors surface with their codes --
    {"fn:no-such()", "ERROR:XPST0017"},
    {"zero-or-one((1,2))", "ERROR:FORG0003"},
    {"\"a\" + 1", "ERROR:XPTY0004"},
    {"let $x as xs:integer := \"s\" return $x", "ERROR:XPTY0004"},
    // ================= second wave =================
    // -- axes breadth --
    {"count($D//c/ancestor::*)", "3"},
    {"count($D//c/ancestor-or-self::*)", "4"},
    {"$D//a/following-sibling::b/c/text()", "deep"},
    {"count($D//b/preceding-sibling::node())", "3"},
    {"name($D//c/parent::*)", "b"},
    {"count($D//c/following::node())", "0"},
    {"count($D//mix/child::text())", "2"},
    {"$D//c/self::c instance of element(c)", "true"},
    {"count($D//c/self::nope)", "0"},
    {"count($D//e/@mgr/..)", "2"},
    {"count($D//b/descendant-or-self::node())", "3"},
    // -- deep-equal and identity --
    {"deep-equal((), ())", "true"},
    {"deep-equal((1,2), (1,2))", "true"},
    {"deep-equal((1,2), (2,1))", "false"},
    {"deep-equal(<a x=\"1\"><b/></a>, <a x=\"1\"><b/></a>)", "true"},
    {"deep-equal(<a x=\"1\"/>, <a x=\"2\"/>)", "false"},
    {"deep-equal(<a>1</a>, <a>2</a>)", "false"},
    {"deep-equal(1, 1.0)", "true"},
    {"$D//b is $D//c/..", "true"},
    {"$D//a << $D//b", "true"},
    {"$D//b >> $D//mix", "true"},
    {"count($D//b union $D//c/..)", "1"},
    // -- more FLWOR shapes --
    {"for $x in (1,2,3), $y in (1,2,3) where $x = $y return $x", "1 2 3"},
    {"for $x in (\"b\",\"a\") for $y in (\"d\",\"c\") "
     "order by $x, $y return concat($x, $y)", "ac ad bc bd"},
    {"let $f := for $x in (4,5) return $x let $g := $f return sum($g)", "9"},
    {"for $x in (1,2) let $y := $x + 1 for $z in ($x, $y) return $z",
     "1 2 2 3"},
    {"count(for $x in 1 to 100 where $x mod 7 = 0 return $x)", "14"},
    {"(for $x in (2,1) order by $x return $x)[1]", "1"},
    {"for $x in (1,2,3) order by -$x return $x", "3 2 1"},
    {"for $x in ($D//n, $D//s) return name($x)", "n n n s s s"},
    // -- nested/recursive functions --
    {"declare function local:even($n) { $n mod 2 = 0 }; "
     "count(for $i in 1 to 10 where local:even($i) return $i)", "5"},
    {"declare function local:depth($n) { if (empty($n/*)) then 1 else "
     "1 + max(for $c in $n/* return local:depth($c)) }; "
     "local:depth($D/corp)", "4"},
    {"declare function local:fold($s) { if (count($s) le 1) then $s else "
     "(local:fold(subsequence($s, 2)), $s[1]) }; "
     "local:fold((1,2,3))", "3 2 1"},
    {"declare function local:f($x as xs:integer) as xs:string "
     "{ string($x) }; local:f(3)", "3"},
    {"declare function local:g() { local:h() }; "
     "declare function local:h() { 42 }; local:g()", "42"},
    // -- typeswitch breadth --
    {"typeswitch (1.5) case $i as xs:integer return \"i\" "
     "case $d as xs:decimal return \"d\" default return \"o\"", "d"},
    {"typeswitch ((1,2)) case $s as xs:integer+ return sum($s) "
     "default return 0", "3"},
    {"typeswitch ($D//c) case $e as element() return name($e) "
     "default return \"none\"", "c"},
    {"for $x in 1 to 3 return typeswitch ($x mod 2) "
     "case $z as xs:integer return if ($z = 0) then \"e\" else \"o\" "
     "default return \"?\"", "o e o"},
    // -- casts, instance-of breadth --
    {"\"INF\" cast as xs:double", "INF"},
    {"\"-INF\" cast as xs:double > 0", "false"},
    {"\"NaN\" cast as xs:double = \"NaN\" cast as xs:double", "false"},
    {"0 cast as xs:boolean", "false"},
    {"7 cast as xs:boolean", "true"},
    {"true() cast as xs:integer", "1"},
    {"\"2026-07-06\" cast as xs:date instance of xs:date", "true"},
    {"xs:anyURI(\"http://x\") instance of xs:anyURI", "true"},
    {"3 instance of item()", "true"},
    {"<a/> instance of item()", "true"},
    {"(<a/>, 1) instance of node()+", "false"},
    {"$D instance of document-node()", "true"},
    {"$D//e/@id instance of attribute(id)+", "true"},
    // -- aggregates over document data --
    {"max($D//n)", "3"},
    {"min($D//n)", "1"},
    {"avg($D//n)", "2"},
    {"sum($D//n) idiv count($D//n)", "2"},
    {"max($D//s/text())", "ERROR:FORG0001"},  // untyped casts to double
    {"count(distinct-values($D//e/@mgr))", "1"},
    // -- where/order-by interplay --
    {"for $e in $D//e order by string($e/@mgr) descending, string($e/@id) "
     "return string($e/@id)", "e1 e2 e3"},
    {"for $n in $D//n where $n > 1 order by number($n) descending "
     "return $n/text()", "32"},
    // -- string edge cases --
    {"substring(\"abc\", 2, -1)", ""},
    {"substring(\"abc\", number(\"NaN\"))", ""},
    {"concat(1, 2.5, true())", "12.5true"},
    {"string-join(for $i in 1 to 3 return string($i), \"+\")", "1+2+3"},
    {"contains(\"needle in haystack\", \"needle\")", "true"},
    {"substring-after(\"key=value\", \"=\")", "value"},
    // -- boolean edge cases --
    {"boolean((<a/>, <b/>))", "true"},
    {"boolean(\"false\")", "true"},  // non-empty string!
    {"boolean(0.0)", "false"},
    {"boolean(number(\"NaN\"))", "false"},
    {"not(not(42))", "true"},
    // -- constructors round 2 --
    {"<out>{for $n in $D//n order by number($n) return <v>{$n/text()}"
     "</v>}</out>", "<out><v>1</v><v>2</v><v>3</v></out>"},
    {"<copy>{$D//b}</copy>/b/c/text()", "deep"},
    {"count(document { $D/corp/nums }//n)", "3"},
    {"element {concat(\"t\", \"ag\")} {}", "<tag/>"},
    {"<e a=\"{()}\"/>", "<e a=\"\"/>"},
    {"<x>{\"a\"}{\"b\"}</x>", "<x>a b</x>"},  // adjacent atomics
    {"<x>a{\"b\"}</x>", "<x>ab</x>"},  // text node + atomic merge
    {"string(<x>{1 to 3}</x>)", "1 2 3"},
    // -- positional predicates round 2 --
    {"$D//n[position() = last()]/text()", "2"},
    {"$D//n[position() != 2]/text()", "32"},
    {"($D//n)[2]/text()", "1"},
    {"($D//*)[1] instance of element(corp)", "true"},
    {"count($D//e[position() gt 1])", "2"},
    {"(1 to 20)[. mod 5 = 0][2]", "10"},
    // -- empty-sequence propagation --
    {"count($D//nothing)", "0"},
    {"string($D//nothing)", ""},
    {"sum($D//nothing)", "0"},
    {"$D//nothing = $D//n", "false"},
    {"for $x in $D//nothing return 1 idiv 0", ""},  // no bindings, no error
    {"($D//nothing, 5)[1]", "5"},
    // -- Unicode string functions (codepoints, not UTF-8 bytes) --
    {"string-length(\"déjà vu\")", "7"},
    {"substring(\"déjà vu\", 5, 2)", " v"},
    {"substring(\"déjà\", 2)", "éjà"},
    {"string-length(\"a\U0001F600b\")", "3"},
    {"substring(\"a\U0001F600b\", 2, 1)", "\U0001F600"},
    // -- substring / round F&O semantics --
    {"substring(\"abcde\", -0.5, 3)", "ab"},    // round(-0.5) = 0
    {"substring(\"12345\", 1.5, 2.6)", "234"},  // round(1.5)=2, round(2.6)=3
    {"substring(\"abc\", number(\"NaN\"), 2)", ""},
    {"round(-2.5)", "-2"},  // half toward +INF, unlike C round()
    {"round(2.5)", "3"},
    {"subsequence((1,2,3,4,5), -0.5, 3)", "1 2"},
    // -- errors round 2 --
    {"count()", "ERROR:XPST0017"},
    {"$D//n + 1", "ERROR:XPTY0004"},        // multi-item arithmetic
    {"sum(($D//s)[1])", "ERROR:FORG0001"},  // non-numeric untyped "beta"
    {"\"x\" castable as xs:date", "true"},  // lexical model accepts
    {"(1,2)[\"s\" + 1]", "ERROR:XPTY0004"},  // erroneous predicate
};

class CorpusTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CorpusTest, AllConfigsMatchExpected) {
  const CorpusEntry& entry = kCorpus[GetParam()];
  std::string query =
      std::string("declare variable $D external; ") + entry.query;
  Engine engine;
  auto tuple_at_a_time = [](EngineOptions o) {
    o.batch_size = 1;
    return o;
  };
  const EngineOptions kConfigs[] = {
      {false, false, JoinImpl::kNestedLoop},
      // The algebra configs at the default (batched) batch size:
      {true, false, JoinImpl::kNestedLoop},
      {true, true, JoinImpl::kNestedLoop},
      {true, true, JoinImpl::kHash},
      {true, true, JoinImpl::kSort},
      // The same algebra configs through the tuple-at-a-time oracle; the
      // batched and oracle pipelines must agree on every corpus entry.
      tuple_at_a_time({true, false, JoinImpl::kNestedLoop}),
      tuple_at_a_time({true, true, JoinImpl::kNestedLoop}),
      tuple_at_a_time({true, true, JoinImpl::kHash}),
      tuple_at_a_time({true, true, JoinImpl::kSort}),
      // Force-sort oracle for the DDO elision machinery, batched and
      // tuple-at-a-time: always sorting TreeJoin output must reproduce
      // every entry exactly.
      {true, true, JoinImpl::kHash, /*force_sort=*/true},
      tuple_at_a_time({true, true, JoinImpl::kHash, /*force_sort=*/true}),
      // And so must running without structural indexes.
      {true, true, JoinImpl::kHash, /*force_sort=*/false,
       /*use_doc_index=*/false},
  };
  for (size_t i = 0; i < std::size(kConfigs); i++) {
    DynamicContext ctx;
    NodePtr doc = MustParseXml(kCorpusDoc);
    ctx.BindVariable(Symbol("D"), {Item(doc)});
    Result<PreparedQuery> q = engine.Prepare(query, kConfigs[i]);
    ASSERT_TRUE(q.ok()) << q.status().ToString() << "\n" << entry.query;
    Result<std::string> r = q.value().ExecuteToString(&ctx);
    std::string got =
        r.ok() ? r.value() : "ERROR:" + r.status().code();
    EXPECT_EQ(got, entry.expected)
        << "config " << i << "\nquery: " << entry.query;
  }
  // Batch-size sweep over the default streaming config: batch_size=1 is
  // the tuple-at-a-time oracle (the configs above, whose default is 1024,
  // already covered the batched side); tiny sizes force every
  // partial-batch / carry-over path through the vectorized iterators.
  for (int batch : {1, 2, 3, 7}) {
    EngineOptions opts;
    opts.batch_size = batch;
    DynamicContext ctx;
    NodePtr doc = MustParseXml(kCorpusDoc);
    ctx.BindVariable(Symbol("D"), {Item(doc)});
    Result<PreparedQuery> q = engine.Prepare(query, opts);
    ASSERT_TRUE(q.ok()) << q.status().ToString() << "\n" << entry.query;
    Result<std::string> r = q.value().ExecuteToString(&ctx);
    std::string got = r.ok() ? r.value() : "ERROR:" + r.status().code();
    EXPECT_EQ(got, entry.expected)
        << "batch_size=" << batch << "\nquery: " << entry.query;
  }
}

// The DocumentStore ablation sweep: every corpus entry, with the corpus
// document reached through fn:doc instead of a bound variable, must
// produce byte-identical results with the store enabled and disabled
// (and match the bound-variable expectation).
TEST_P(CorpusTest, DocStoreOnAndOffAgree) {
  static const std::string* doc_path = [] {
    auto* p = new std::string(::testing::TempDir() + "xqc_corpus_doc.xml");
    std::ofstream out(*p, std::ios::trunc);
    out << kCorpusDoc;
    return p;
  }();

  const CorpusEntry& entry = kCorpus[GetParam()];
  // Rewrite every `$D` reference into a doc() call on the temp file.
  std::string query = entry.query;
  const std::string call = "doc(\"" + *doc_path + "\")";
  for (size_t pos = 0; (pos = query.find("$D", pos)) != std::string::npos;
       pos += call.size()) {
    query.replace(pos, 2, call);
  }

  Engine engine;
  EngineOptions store_on;
  EngineOptions store_off;
  store_off.use_doc_store = false;
  std::string results[2];
  const EngineOptions* configs[2] = {&store_on, &store_off};
  for (int i = 0; i < 2; i++) {
    DynamicContext ctx;
    Result<PreparedQuery> q = engine.Prepare(query, *configs[i]);
    ASSERT_TRUE(q.ok()) << q.status().ToString() << "\n" << query;
    Result<std::string> r = q.value().ExecuteToString(&ctx);
    results[i] = r.ok() ? r.value() : "ERROR:" + r.status().code();
  }
  EXPECT_EQ(results[0], results[1])
      << "store-on and store-off disagree\nquery: " << query;
  EXPECT_EQ(results[0], entry.expected) << "query: " << query;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CorpusTest,
                         ::testing::Range<size_t>(0, std::size(kCorpus)),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           // += sidesteps a GCC 12 -Wrestrict false positive
                           // (PR105329) on operator+(const char*, string&&).
                           std::string name = "q";
                           name += std::to_string(info.param);
                           return name;
                         });

}  // namespace
}  // namespace xqc
