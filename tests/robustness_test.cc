// Robustness and failure-injection tests: resource guards (recursion
// depth), deeply nested inputs, adversarial documents and queries, and
// error-code fidelity — errors must surface as Status values with W3C
// codes, never crashes.
#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/xml/xml_parser.h"
#include "test_util.h"

namespace xqc {
namespace {

using testutil::InterpToString;
using testutil::MustParseXml;

TEST(Robustness, InfiniteRecursionIsCaught) {
  // Both engines guard recursion depth instead of blowing the stack,
  // reporting the XQC0005 guardrail code (src/base/guard.h).
  EXPECT_EQ(InterpToString(
                "declare function local:loop($n) { local:loop($n + 1) }; "
                "local:loop(0)"),
            "ERROR:XQC0005");
  Engine engine;
  DynamicContext ctx;
  Result<PreparedQuery> q = engine.Prepare(
      "declare function local:loop($n) { local:loop($n + 1) }; "
      "local:loop(0)");
  ASSERT_OK(q);
  Result<Sequence> r = q.value().Execute(&ctx);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), "XQC0005");
  EXPECT_EQ(r.status().kind(), StatusKind::kResourceExhausted);
}

TEST(Robustness, DeepRecursionWithinGuardSucceeds) {
  EXPECT_EQ(InterpToString(
                "declare function local:down($n) { if ($n = 0) then 0 "
                "else local:down($n - 1) }; local:down(2000)"),
            "0");
}

TEST(Robustness, DeeplyNestedDocumentParses) {
  std::string xml;
  const int kDepth = 2000;
  for (int i = 0; i < kDepth; i++) xml += "<d>";
  xml += "x";
  for (int i = 0; i < kDepth; i++) xml += "</d>";
  Result<NodePtr> doc = ParseXml(xml);
  ASSERT_OK(doc);
  DynamicContext ctx;
  ctx.RegisterDocument("deep.xml", doc.value());
  EXPECT_EQ(InterpToString("count(doc(\"deep.xml\")//d)", &ctx),
            std::to_string(kDepth));
}

TEST(Robustness, DeeplyNestedParensParse) {
  std::string q;
  for (int i = 0; i < 500; i++) q += "(";
  q += "1";
  for (int i = 0; i < 500; i++) q += ")";
  EXPECT_EQ(InterpToString(q), "1");
}

TEST(Robustness, LargeSequencesAndStrings) {
  EXPECT_EQ(InterpToString("count(1 to 100000)"), "100000");
  EXPECT_EQ(InterpToString("sum(1 to 100000)"), "5000050000");
  EXPECT_EQ(InterpToString("string-length(string-join(for $i in 1 to 1000 "
                           "return \"ab\", \"\"))"),
            "2000");
}

TEST(Robustness, AdversarialDocuments) {
  // Documents that stress the parser's edge cases.
  EXPECT_OK(ParseXml("<a b=\"&#x10000;\"/>"));          // astral char ref
  EXPECT_OK(ParseXml("<_x.y-z/>"));                      // odd name chars
  EXPECT_OK(ParseXml("<a><![CDATA[]]></a>"));            // empty CDATA
  EXPECT_OK(ParseXml("<a><!-- - - --></a>"));            // dashes in comment
  EXPECT_FALSE(ParseXml("<a>]]></a><b/>").ok());         // trailing junk
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("   ").ok());
  EXPECT_FALSE(ParseXml(std::string("<a>") + '\0' + "</a>").ok());
}

TEST(Robustness, ErrorCodesSurviveOptimization) {
  // A dynamic error raised inside an optimized plan keeps its code.
  Engine engine;
  DynamicContext ctx;
  struct Case {
    const char* query;
    const char* code;
  };
  const Case kCases[] = {
      {"1 idiv 0", "FOAR0001"},
      {"\"x\" cast as xs:integer", "FORG0001"},
      {"(1,2) cast as xs:integer", "XPTY0004"},
      {"$undefined", "XPDY0002"},
      {"sum((\"a\",\"b\"))", "XPTY0004"},
      {"exactly-one(())", "FORG0005"},
      {"for $x in (1,2) return 1 idiv ($x - 1)", "FOAR0001"},
  };
  for (const Case& tc : kCases) {
    for (bool optimize : {false, true}) {
      EngineOptions opts;
      opts.optimize = optimize;
      Result<PreparedQuery> q = engine.Prepare(tc.query, opts);
      ASSERT_TRUE(q.ok()) << tc.query;
      Result<Sequence> r = q.value().Execute(&ctx);
      ASSERT_FALSE(r.ok()) << tc.query;
      EXPECT_EQ(r.status().code(), tc.code) << tc.query;
    }
  }
}

TEST(Robustness, MalformedQueriesNeverCrash) {
  Engine engine;
  const char* kBad[] = {
      "",
      "   ",
      "(:",
      "for",
      "<",
      "<a",
      "<a>{",
      "}}",
      "declare",
      "declare function local:f($x { $x };",
      "$x[",
      "1 cast as",
      "typeswitch",
      "for $x in (1) order by return $x",
      "element {} {}",
      "99999999999999999999999999",  // integer overflow
  };
  for (const char* q : kBad) {
    Result<PreparedQuery> r = engine.Prepare(q);
    EXPECT_FALSE(r.ok()) << "should fail: " << q;
  }
}

TEST(Robustness, QuadraticBlowupsStayBounded) {
  // A worst-case correlated query at small scale completes in all configs.
  DynamicContext ctx;
  ctx.RegisterDocument("d.xml", [&] {
    std::string xml = "<r>";
    for (int i = 0; i < 60; i++) {
      xml += "<e k=\"" + std::to_string(i % 7) + "\"/>";
    }
    xml += "</r>";
    return MustParseXml(xml);
  }());
  Engine engine;
  std::string reference;
  for (JoinImpl impl :
       {JoinImpl::kNestedLoop, JoinImpl::kHash, JoinImpl::kSort}) {
    EngineOptions opts;
    opts.join_impl = impl;
    Result<PreparedQuery> q = engine.Prepare(
        "let $r := doc(\"d.xml\")/r return "
        "sum(for $a in $r/e, $b in $r/e where $a/@k = $b/@k return 1)",
        opts);
    ASSERT_OK(q);
    Result<std::string> r = q.value().ExecuteToString(&ctx);
    ASSERT_OK(r);
    if (reference.empty()) {
      reference = r.value();
    } else {
      EXPECT_EQ(r.value(), reference);
    }
  }
  EXPECT_NE(reference, "0");
}

TEST(Robustness, ConstructedTreesDoNotAliasSources) {
  // Copied content is independent of the source document.
  DynamicContext ctx;
  ctx.RegisterDocument("d.xml", MustParseXml("<a><b>1</b></a>"));
  EXPECT_EQ(InterpToString(
                "let $c := <wrap>{doc(\"d.xml\")/a}</wrap> "
                "return (count($c//b), $c/a/b is doc(\"d.xml\")/a/b)",
                &ctx),
            "1 false");
}

TEST(Robustness, HugeAttributeValues) {
  std::string big(100000, 'x');
  Result<NodePtr> doc = ParseXml("<a v=\"" + big + "\"/>");
  ASSERT_OK(doc);
  EXPECT_EQ(doc.value()->children[0]->attributes[0]->value.size(), big.size());
}

TEST(Robustness, PathologicallyNestedQueriesAreRejected) {
  // 100k nested parens must hit the parser's nesting-depth guard (a clean
  // XPST0003), not smash the stack during recursive descent.
  Engine engine;
  {
    std::string q;
    for (int i = 0; i < 100000; i++) q += "(";
    q += "1";
    for (int i = 0; i < 100000; i++) q += ")";
    Result<PreparedQuery> r = engine.Prepare(q);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), "XPST0003");
  }
  {
    // Deeply nested direct constructors hit the same guard.
    std::string q;
    for (int i = 0; i < 5000; i++) q += "<a>";
    q += "x";
    for (int i = 0; i < 5000; i++) q += "</a>";
    Result<PreparedQuery> r = engine.Prepare(q);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), "XPST0003");
  }
}

TEST(Robustness, PathologicallyNestedDocumentIsRejected) {
  // The XML parser has its own (larger) element-depth cap.
  std::string xml;
  for (int i = 0; i < 100000; i++) xml += "<d>";
  Result<NodePtr> doc = ParseXml(xml);
  EXPECT_FALSE(doc.ok());
}

TEST(Robustness, TruncatedAndMalformedUtf8Documents) {
  // Rejection is fine; crashing is not. Accepted documents must also
  // survive being queried and serialized.
  const std::string kDocs[] = {
      std::string("<a>\xC3</a>"),             // truncated 2-byte sequence
      std::string("<a>\xE2\x82</a>"),         // truncated 3-byte sequence
      std::string("<a>\xF0\x9F\x92</a>"),     // truncated 4-byte sequence
      std::string("<a>\xFF\xFE</a>"),         // invalid lead bytes
      std::string("<a v=\"\xC0\xAF\"/>"),     // overlong encoding
      std::string("<a>\xED\xA0\x80</a>"),     // lone surrogate half
      std::string("<a"),                      // truncated mid-tag
      std::string("<a><b>ok"),                // truncated document
      std::string("<a><b></a></b>"),          // mismatched tags
      std::string("<a>&#xD800;</a>"),         // surrogate char ref
  };
  for (const std::string& doc : kDocs) {
    Result<NodePtr> r = ParseXml(doc);
    if (!r.ok()) continue;
    DynamicContext ctx;
    ctx.RegisterDocument("f.xml", r.value());
    InterpToString("string(doc(\"f.xml\"))", &ctx);  // must not crash
  }
}

TEST(Robustness, FuzzCorpusNeverCrashes) {
  // A mini fuzz corpus swept across both engines and both batch sizes under
  // defensive limits: every entry must produce a value or a coded error,
  // never a crash or a hang.
  const char* kCorpus[] = {
      // Huge numeric literals.
      "99999999999999999999999999999999999999",
      "-99999999999999999999999999999999999999 - 1",
      "1e308 * 1e308",
      "1.0000000000000000000000000000001 div 3",
      "xs:double(\"1e400\")",
      // Deep-but-legal nesting and odd-but-legal expressions.
      "((((((((((((((((((((1))))))))))))))))))))",
      "(1 to 100)[. mod 0 = 0]",
      "string-join(for $i in 1 to 64 "
      "return codepoints-to-string($i + 64), \"\")",
      // Cross-product blowups, stopped by the budgets below.
      "count(for $a in 1 to 10000, $b in 1 to 10000 return 1)",
      "count(for $a in 1 to 10000, $b in 1 to 10000 return <e/>)",
  };
  Engine engine;
  for (const char* query : kCorpus) {
    for (bool use_algebra : {true, false}) {
      for (int batch : {1024, 1}) {
        EngineOptions opts;
        opts.use_algebra = use_algebra;
        opts.batch_size = batch;
        opts.limits.deadline_ms = 5000;
        opts.limits.max_memory_bytes = 64 << 20;
        Result<PreparedQuery> q = engine.Prepare(query, opts);
        if (!q.ok()) {
          EXPECT_FALSE(q.status().code().empty()) << query;
          continue;
        }
        DynamicContext ctx;
        Result<std::string> r = q.value().ExecuteToString(&ctx);
        if (!r.ok()) EXPECT_FALSE(r.status().code().empty()) << query;
      }
    }
  }
}

}  // namespace
}  // namespace xqc
