// Tests for the pull-based iterator pipeline (src/runtime/iterator.h):
//  - the batched pipeline, its tuple-at-a-time oracle (batch_size=1) and
//    the Core interpreter produce identical results, and
//  - early-terminating consumers (fn:exists, [1] heads, fn:subsequence,
//    quantifiers) touch only a prefix of the input that the same query
//    without the head consumes in full.
#include <gtest/gtest.h>

#include <string>

#include "src/engine/engine.h"
#include "test_util.h"

namespace xqc {
namespace {

using testutil::MustParseXml;

// Early-exit stats run against a large doc so the <=1% bound is meaningful;
// equivalence sweeps (which include an unoptimized nested-loop self-join,
// quadratic in the doc size) use a small one.
constexpr int kItems = 2000;
constexpr int kSmallItems = 200;

// <doc><item><id>1</id><grp>1</grp></item>...</doc>
std::string BigDoc(int n) {
  std::string xml = "<doc>";
  for (int i = 1; i <= n; i++) {
    std::string id = std::to_string(i);
    xml += "<item><id>" + id + "</id><grp>" + std::to_string(i % 7) +
           "</grp></item>";
  }
  xml += "</doc>";
  return xml;
}

void BindDoc(DynamicContext* ctx, int items = kItems) {
  static const std::string kXml = BigDoc(kItems);
  static const std::string kSmallXml = BigDoc(kSmallItems);
  NodePtr doc = MustParseXml(items == kSmallItems ? kSmallXml : kXml);
  ctx->BindVariable(Symbol("D"), {Item(doc)});
}

std::string Prologue(const std::string& query) {
  return "declare variable $D external; " + query;
}

// Runs `query` under `options`, returning the serialized result (errors as
// "ERROR:<code>") and the MapFromItem tuple count through *source_tuples.
std::string RunWith(const std::string& query, const EngineOptions& options,
                    int64_t* source_tuples = nullptr, int items = kItems) {
  Engine engine;
  DynamicContext ctx;
  BindDoc(&ctx, items);
  Result<PreparedQuery> q = engine.Prepare(Prologue(query), options);
  if (!q.ok()) return "PREPARE-ERROR:" + q.status().code();
  Result<std::string> r = q.value().ExecuteToString(&ctx);
  if (source_tuples != nullptr) {
    *source_tuples = q.value().last_exec_stats().source_tuples;
  }
  return r.ok() ? r.value() : "ERROR:" + r.status().code();
}

EngineOptions Batched(JoinImpl join = JoinImpl::kHash, bool optimize = true) {
  return {/*use_algebra=*/true, optimize, join};
}

EngineOptions TupleAtATime(JoinImpl join = JoinImpl::kHash,
                           bool optimize = true) {
  EngineOptions o = Batched(join, optimize);
  o.batch_size = 1;
  return o;
}

EngineOptions Interpreter() {
  EngineOptions o;
  o.use_algebra = false;
  return o;
}

// --- Equivalence: the batched pipeline, the tuple-at-a-time oracle and
// the interpreter agree on queries spanning every streamed operator
// (Select, Map, MapConcat, Product, joins, MapIndex) and the pipeline
// breakers (GroupBy, OrderBy). ---

const char* kEquivalenceQueries[] = {
    "count(for $x in $D//item return $x)",
    "for $x in $D//item where number($x/id) > 195 return string($x/id)",
    "for $x in $D//item[number($x/id) <= 3] return <v>{$x/id/text()}</v>",
    // let + for (MapConcat):
    "for $x in $D//item let $i := number($x/id) where $i > 197 "
    "return $i * 2",
    // outer for over a possibly-empty inner (OMapConcat):
    "for $x in $D//item where number($x/id) > 198 "
    "return count(for $y in $x/nothing return $y)",
    // positional (MapIndex):
    "(for $x in $D//item return string($x/id))[5]",
    "for $x at $p in $D//item where $p <= 3 return $p",
    // join between two streams:
    "for $x in $D//item, $y in $D//item "
    "where $x/id = $y/id and number($x/id) > 196 return string($y/id)",
    // pipeline breakers:
    "for $x in $D//item where number($x/id) > 194 "
    "order by number($x/id) descending return string($x/id)",
    "count(distinct-values(for $x in $D//item return string($x/grp)))",
    // quantifiers:
    "some $x in $D//item satisfies number($x/id) = 7",
    "every $x in $D//item satisfies number($x/id) > 0",
    // early-exit heads must still produce identical output:
    "exists(for $x in $D//item return $x)",
    "subsequence(for $x in $D//item return string($x/id), 4, 3)",
    // conditional over a stream:
    "if (for $x in $D//item where number($x/id) = 3 return $x) "
    "then \"yes\" else \"no\"",
};

TEST(StreamingEquivalence, BatchedMatchesOracleAndInterpreter) {
  const JoinImpl kJoins[] = {JoinImpl::kNestedLoop, JoinImpl::kHash,
                             JoinImpl::kSort};
  for (const char* query : kEquivalenceQueries) {
    std::string interpreted =
        RunWith(query, Interpreter(), nullptr, kSmallItems);
    for (JoinImpl join : kJoins) {
      EXPECT_EQ(RunWith(query, Batched(join), nullptr, kSmallItems),
                interpreted)
          << "query: " << query;
      EXPECT_EQ(RunWith(query, TupleAtATime(join), nullptr, kSmallItems),
                interpreted)
          << "query: " << query;
    }
  }
}

TEST(StreamingEquivalence, CorpusStyleUnoptimized) {
  EngineOptions batched = Batched(JoinImpl::kNestedLoop, /*optimize=*/false);
  EngineOptions oracle =
      TupleAtATime(JoinImpl::kNestedLoop, /*optimize=*/false);
  for (const char* query : kEquivalenceQueries) {
    EXPECT_EQ(RunWith(query, batched, nullptr, kSmallItems),
              RunWith(query, oracle, nullptr, kSmallItems))
        << "query: " << query;
  }
}

// --- Early termination: a limited head touches <=1% of the tuples the
// same query without the head (`control`, consumed in full) produces. ---

void CheckEarlyExit(const std::string& query, const std::string& control,
                    const char* expected) {
  int64_t head_tuples = 0;
  int64_t control_tuples = 0;
  EXPECT_EQ(RunWith(query, Batched(), &head_tuples), expected) << query;
  EXPECT_EQ(RunWith(query, TupleAtATime()), expected) << query;
  std::string full = RunWith(control, Batched(), &control_tuples);
  ASSERT_EQ(full.rfind("ERROR", 0), std::string::npos) << control;
  ASSERT_GE(control_tuples, kItems) << control;
  EXPECT_LE(head_tuples * 100, control_tuples)
      << query << "\nthe head touched " << head_tuples << " of "
      << control_tuples << " tuples";
}

TEST(StreamingEarlyExit, Exists) {
  CheckEarlyExit("exists(for $x in $D//item return $x)",
                 "for $x in $D//item return $x", "true");
}

TEST(StreamingEarlyExit, ExistsWithEarlyMatch) {
  CheckEarlyExit(
      "exists(for $x in $D//item where number($x/id) >= 1 return $x)",
      "for $x in $D//item where number($x/id) >= 1 return $x", "true");
}

TEST(StreamingEarlyExit, FirstItemHead) {
  CheckEarlyExit("(for $x in $D//item return string($x/id))[1]",
                 "for $x in $D//item return string($x/id)", "1");
}

TEST(StreamingEarlyExit, Subsequence) {
  CheckEarlyExit("subsequence(for $x in $D//item return string($x/id), 1, 3)",
                 "for $x in $D//item return string($x/id)", "1 2 3");
}

TEST(StreamingEarlyExit, SubsequenceFractional) {
  // round(1.5)=2, round(2.6)=3: items 2..4.
  CheckEarlyExit(
      "subsequence(for $x in $D//item return string($x/id), 1.5, 2.6)",
      "for $x in $D//item return string($x/id)", "2 3 4");
}

TEST(StreamingEarlyExit, PositionalBoundForms) {
  // Every comparison shape PositionalBound recognizes: value and general
  // comparisons, position() on either side, strict and non-strict.
  for (const char* pred : {"[position() <= 3]", "[3 >= position()]",
                           "[4 > position()]", "[position() lt 4]"}) {
    CheckEarlyExit(
        std::string("(for $x in $D//item return string($x/id))") + pred,
        "for $x in $D//item return string($x/id)", "1 2 3");
  }
}

TEST(StreamingEarlyExit, SomeQuantifier) {
  CheckEarlyExit("some $x in $D//item satisfies number($x/id) = 2",
                 "for $x in $D//item return number($x/id) = 2", "true");
}

TEST(StreamingEarlyExit, EveryQuantifierCounterexample) {
  CheckEarlyExit("every $x in $D//item satisfies number($x/id) > 5",
                 "for $x in $D//item return number($x/id) > 5", "false");
}

TEST(StreamingEarlyExit, ConditionalTest) {
  CheckEarlyExit(
      "if (for $x in $D//item return $x) then \"yes\" else \"no\"",
      "for $x in $D//item return $x", "yes");
}

TEST(StreamingEarlyExit, BumpsEarlyStopStat) {
  Engine engine;
  DynamicContext ctx;
  BindDoc(&ctx);
  Result<PreparedQuery> q = engine.Prepare(
      Prologue("exists(for $x in $D//item return $x)"), Batched());
  ASSERT_OK(q);
  Result<std::string> r = q.value().ExecuteToString(&ctx);
  ASSERT_OK(r);
  EXPECT_GT(q.value().last_exec_stats().streaming_early_stops, 0);
}

// Full consumption streams every tuple exactly once, batched or
// tuple-at-a-time.
TEST(StreamingEarlyExit, FullScanTouchesEverything) {
  int64_t batched_tuples = 0;
  int64_t oracle_tuples = 0;
  const std::string query = "count(for $x in $D//item return $x)";
  EXPECT_EQ(RunWith(query, Batched(), &batched_tuples),
            RunWith(query, TupleAtATime(), &oracle_tuples));
  EXPECT_EQ(batched_tuples, oracle_tuples);
  EXPECT_GE(batched_tuples, kItems);
}

// --- ResultStream: pulling a few items evaluates only a prefix. ---

TEST(ResultStream, PartialPullIsLazy) {
  Engine engine;
  DynamicContext ctx;
  BindDoc(&ctx);
  Result<PreparedQuery> q = engine.Prepare(
      Prologue("for $x in $D//item return string($x/id)"), Batched());
  ASSERT_OK(q);
  Result<ResultStream> rs = q.value().ExecuteStream(&ctx);
  ASSERT_OK(rs);
  for (int i = 1; i <= 5; i++) {
    Item item;
    Result<bool> has = rs.value().Next(&item);
    ASSERT_OK(has);
    ASSERT_TRUE(has.value());
    EXPECT_EQ(item.atomic().AsString(), std::to_string(i));
  }
  // Only the pulled prefix (plus at most a small lookahead) was evaluated.
  EXPECT_LE(rs.value().stats().source_tuples, 10);
}

TEST(ResultStream, DrainMatchesExecute) {
  Engine engine;
  DynamicContext ctx;
  BindDoc(&ctx);
  const std::string query =
      Prologue("for $x in $D//item where number($x/id) <= 7 "
               "return string($x/id)");
  Result<PreparedQuery> q = engine.Prepare(query, Batched());
  ASSERT_OK(q);
  Result<ResultStream> rs = q.value().ExecuteStream(&ctx);
  ASSERT_OK(rs);
  Result<Sequence> drained = rs.value().Drain();
  ASSERT_OK(drained);
  DynamicContext ctx2;
  BindDoc(&ctx2);
  Result<Sequence> full = q.value().Execute(&ctx2);
  ASSERT_OK(full);
  ASSERT_EQ(drained.value().size(), full.value().size());
  for (size_t i = 0; i < full.value().size(); i++) {
    EXPECT_EQ(drained.value()[i].atomic().AsString(),
              full.value()[i].atomic().AsString());
  }
}

// The interpreter serves ExecuteStream from a buffer with identical
// contents.
TEST(ResultStream, BufferedFallbackAgrees) {
  Engine engine;
  DynamicContext ctx;
  BindDoc(&ctx);
  const std::string query =
      Prologue("for $x in $D//item where number($x/id) > 1995 "
               "return string($x/id)");
  Result<PreparedQuery> qs = engine.Prepare(query, Batched());
  Result<PreparedQuery> qm = engine.Prepare(query, Interpreter());
  ASSERT_OK(qs);
  ASSERT_OK(qm);
  Result<ResultStream> rss = qs.value().ExecuteStream(&ctx);
  ASSERT_OK(rss);
  Result<Sequence> a = rss.value().Drain();
  DynamicContext ctx2;
  BindDoc(&ctx2);
  Result<ResultStream> rsm = qm.value().ExecuteStream(&ctx2);
  ASSERT_OK(rsm);
  Result<Sequence> b = rsm.value().Drain();
  ASSERT_OK(a);
  ASSERT_OK(b);
  ASSERT_EQ(a.value().size(), b.value().size());
  for (size_t i = 0; i < a.value().size(); i++) {
    EXPECT_EQ(a.value()[i].atomic().AsString(),
              b.value()[i].atomic().AsString());
  }
}

}  // namespace
}  // namespace xqc
