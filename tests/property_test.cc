// Property-based differential testing: randomly generated queries are
// executed under every engine configuration (baseline interpreter, algebra
// without rewritings, optimized plans with nested-loop / hash / ordered
// joins) and must all agree. This is the broad-spectrum check that the
// compilation rules, the Figure 5 rewritings, and the Figure 6 join
// algorithms preserve semantics on query shapes nobody hand-wrote.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/engine.h"
#include "test_util.h"

namespace xqc {
namespace {

using testutil::MustParseXml;

/// Deterministic generator state.
class Gen {
 public:
  explicit Gen(uint64_t seed) : state_(seed * 2654435769u + 1) {}

  uint64_t Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 33;
  }
  int Below(int n) { return static_cast<int>(Next() % n); }
  bool Coin() { return Next() % 2 == 0; }

  /// A numeric-valued expression over in-scope numeric variables.
  std::string Numeric(int depth) {
    if (depth <= 0 || Below(3) == 0) {
      if (!num_vars_.empty() && Coin()) {
        return "$" + num_vars_[Below(static_cast<int>(num_vars_.size()))];
      }
      return std::to_string(Below(20));
    }
    switch (Below(6)) {
      case 0: return "(" + Numeric(depth - 1) + " + " + Numeric(depth - 1) + ")";
      case 1: return "(" + Numeric(depth - 1) + " - " + Numeric(depth - 1) + ")";
      case 2: return "(" + Numeric(depth - 1) + " * " + Numeric(depth - 1) + ")";
      case 3: return "count(" + NumSeq(depth - 1) + ")";
      case 4: return "sum(" + NumSeq(depth - 1) + ")";
      default:
        return "(if (" + Boolean(depth - 1) + ") then " + Numeric(depth - 1) +
               " else " + Numeric(depth - 1) + ")";
    }
  }

  /// A sequence-of-numbers expression.
  std::string NumSeq(int depth) {
    if (depth <= 0 || Below(3) == 0) {
      switch (Below(4)) {
        case 0: {
          int lo = Below(5), hi = lo + Below(6);
          return "(" + std::to_string(lo) + " to " + std::to_string(hi) + ")";
        }
        case 1:
          return "(" + Numeric(0) + ", " + Numeric(0) + ", " + Numeric(0) + ")";
        case 2:
          return "()";
        default:
          return "(" + Numeric(0) + ")";
      }
    }
    switch (Below(4)) {
      case 0: {
        std::string var = FreshVar();
        num_vars_.push_back(var);
        std::string body = "for $" + var + " in " + NumSeq(depth - 1) +
                           (Coin() ? " where " + Boolean(depth - 1) : "") +
                           " return " + Numeric(depth - 1);
        num_vars_.pop_back();
        return "(" + body + ")";
      }
      case 1: {
        std::string var = FreshVar();
        num_vars_.push_back(var);
        std::string body = "for $" + var + " in " + NumSeq(depth - 1) +
                           " order by $" + var +
                           (Coin() ? " descending" : "") + " return $" + var;
        num_vars_.pop_back();
        return "(" + body + ")";
      }
      case 2:
        return "distinct-values(" + NumSeq(depth - 1) + ")";
      default:
        return "reverse(" + NumSeq(depth - 1) + ")";
    }
  }

  /// A boolean expression.
  std::string Boolean(int depth) {
    if (depth <= 0 || Below(3) == 0) {
      switch (Below(4)) {
        case 0: return "true()";
        case 1: return "false()";
        default:
          return "(" + Numeric(0) + (Coin() ? " = " : " < ") + Numeric(0) + ")";
      }
    }
    switch (Below(6)) {
      case 0: return "(" + Boolean(depth - 1) + " and " + Boolean(depth - 1) + ")";
      case 1: return "(" + Boolean(depth - 1) + " or " + Boolean(depth - 1) + ")";
      case 2: return "not(" + Boolean(depth - 1) + ")";
      case 3: {
        std::string var = FreshVar();
        num_vars_.push_back(var);
        std::string body = (Coin() ? "some" : "every") + std::string(" $") +
                           var + " in " + NumSeq(depth - 1) + " satisfies " +
                           Boolean(depth - 1);
        num_vars_.pop_back();
        return "(" + body + ")";
      }
      case 4:
        return "(" + NumSeq(depth - 1) + " = " + NumSeq(depth - 1) + ")";
      default:
        return "empty(" + NumSeq(depth - 1) + ")";
    }
  }

  /// A document-navigation query over the fixed test document.
  std::string DocQuery(int depth) {
    static const char* const kPaths[] = {
        "$doc//person", "$doc//person/@id", "$doc//order",
        "$doc//order/@buyer", "$doc/site/people/person/name",
        "$doc//person[age > 30]", "$doc//order[amount >= 20]",
    };
    std::string path = kPaths[Below(std::size(kPaths))];
    switch (Below(5)) {
      case 0:
        return "count(" + path + ")";
      case 1: {
        std::string var = FreshVar();
        return "for $" + var + " in " + path + " return <i>{string($" + var +
               "/@id), " + Numeric(depth - 1) + "}</i>";
      }
      case 2: {
        // The join shape: nested correlated block with an aggregate.
        std::string p = FreshVar();
        std::string t = FreshVar();
        return "for $" + p + " in $doc//person " +
               "let $a := for $" + t + " in $doc//order where $" + t +
               "/@buyer = $" + p + "/@id return $" + t +
               " return (string($" + p + "/@id), count($a))";
      }
      case 3: {
        std::string p = FreshVar();
        return "for $" + p + " in $doc//person " +
               "where some $t in $doc//order satisfies $t/@buyer = $" + p +
               "/@id return $" + p + "/name/text()";
      }
      default: {
        std::string p = FreshVar();
        return "for $" + p + " at $i in " + path +
               " where $i <= " + std::to_string(1 + Below(4)) +
               " return string($" + p + ")";
      }
    }
  }

  /// Query shapes that drive the unnesting machinery hard: correlated
  /// aggregates (GroupBy introduction), multi-level nesting, constructors
  /// wrapping nested blocks (hoisting), and mixed inequality predicates.
  std::string UnnestingQuery(int depth) {
    const char* agg = (const char*[]){"count", "sum", "avg", "min",
                                      "max"}[Below(5)];
    std::string p = FreshVar(), t = FreshVar();
    switch (Below(5)) {
      case 0:
        // Aggregate over a correlated equality block (the Figure 4 family).
        return "for $" + p + " in $doc//person " +
               "let $a := " + agg + "(for $" + t +
               " in $doc//order where $" + t + "/@buyer = $" + p +
               "/@id return number($" + t + "/amount)) " +
               "return (string($" + p + "/@id), $a)";
      case 1:
        // Nested block inside a constructor (exercises hoisting).
        return "for $" + p + " in $doc//person return <r id=\"{$" + p +
               "/@id}\">{ " + agg + "(for $" + t + " in $doc//order where $" +
               t + "/@buyer = $" + p + "/@id return 1) }</r>";
      case 2: {
        // Two-level nesting with an inner inequality.
        std::string u = FreshVar();
        return "for $" + p + " in $doc//person " +
               "let $a := for $" + t + " in $doc//order " +
               "          where $" + t + "/@buyer = $" + p + "/@id " +
               "          return count(for $" + u + " in $doc//order " +
               "                       where number($" + u +
               "/amount) < number($" + t + "/amount) return 1) " +
               "return ($" + p + "/name/text(), sum($a))";
      }
      case 3:
        // Inequality join (range sort join path).
        return "for $" + p + " in $doc//person " +
               "let $a := for $" + t + " in $doc//order " +
               "          where number($" + t + "/amount) > $" + p +
               "/age + " + std::to_string(Below(20) - 10) +
               "          return $" + t +
               " order by count($a) descending, string($" + p +
               "/@id) return count($a)";
      default:
        // Path-predicate join variant (Section 4's Q1 form).
        return "for $" + p + " in $doc//person " +
               "let $a := $doc//order[@buyer = $" + p + "/@id]" +
               "[number(amount) > " + std::to_string(Below(30)) + "] " +
               "return count($a) * " + Numeric(depth - 1);
    }
  }

  std::string Query(int kind, int depth) {
    switch (kind % 4) {
      case 0: return NumSeq(depth);
      case 1: return DocQuery(depth);
      case 2: return UnnestingQuery(depth);
      default:
        return "(" + NumSeq(depth) + ", " + Numeric(depth) + ")";
    }
  }

 private:
  std::string FreshVar() { return "v" + std::to_string(counter_++); }

  uint64_t state_;
  int counter_ = 0;
  std::vector<std::string> num_vars_;
};

// The shared input document ($doc in every generated query).
const char* kPropertyDoc = R"(
      <site>
        <people>
          <person id="p0"><name>Ann</name><age>31</age></person>
          <person id="p1"><name>Bob</name><age>25</age></person>
          <person id="p2"><name>Cyd</name><age>44</age></person>
          <person id="p3"><name>Dan</name><age>19</age></person>
        </people>
        <orders>
          <order id="o0" buyer="p0"><amount>10</amount></order>
          <order id="o1" buyer="p2"><amount>25</amount></order>
          <order id="o2" buyer="p0"><amount>40</amount></order>
          <order id="o3" buyer="p9"><amount>5</amount></order>
        </orders>
      </site>)";

class PropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static void SetUpTestSuite() {
    doc_ = new NodePtr(MustParseXml(kPropertyDoc));
  }
  static void TearDownTestSuite() {
    delete doc_;
    doc_ = nullptr;
  }
  static NodePtr* doc_;
};

NodePtr* PropertyTest::doc_ = nullptr;

TEST_P(PropertyTest, AllConfigurationsAgree) {
  uint64_t seed = GetParam();
  Gen gen(seed);
  Engine engine;
  auto tuple_at_a_time = [](EngineOptions o) {
    o.batch_size = 1;
    return o;
  };
  const EngineOptions kConfigs[] = {
      {false, false, JoinImpl::kNestedLoop},
      {true, false, JoinImpl::kNestedLoop},
      {true, true, JoinImpl::kNestedLoop},
      {true, true, JoinImpl::kHash},
      {true, true, JoinImpl::kSort},
      // Sort-elision oracle: forcing every TreeJoin through the full
      // DistinctDocOrder sort must not change a byte, batched or
      // tuple-at-a-time; nor may disabling the structural indexes.
      {true, true, JoinImpl::kHash, /*force_sort=*/true},
      tuple_at_a_time({true, true, JoinImpl::kHash, /*force_sort=*/true}),
      tuple_at_a_time({true, true, JoinImpl::kHash, /*force_sort=*/false,
                       /*use_doc_index=*/false}),
  };
  int errored = 0;
  const int kQueriesPerSeed = 8;
  for (int qi = 0; qi < kQueriesPerSeed; qi++) {
    std::string query =
        "declare variable $doc external; " + gen.Query(qi, 3);
    DynamicContext ctx;
    ctx.BindVariable(Symbol("doc"), {Item(*doc_)});

    std::string reference;
    bool reference_error = false;
    for (size_t i = 0; i < std::size(kConfigs); i++) {
      Result<PreparedQuery> pq = engine.Prepare(query, kConfigs[i]);
      ASSERT_TRUE(pq.ok()) << pq.status().ToString() << "\nquery: " << query;
      Result<std::string> r = pq.value().ExecuteToString(&ctx);
      if (i == 0) {
        reference_error = !r.ok();
        if (reference_error) {
          errored++;
          break;  // generated a dynamically erroneous query; skip
        }
        reference = r.value();
      } else {
        ASSERT_TRUE(r.ok())
            << "config " << i << " errored where baseline succeeded: "
            << r.status().ToString() << "\nquery: " << query;
        ASSERT_EQ(r.value(), reference)
            << "config " << i << " disagrees\nquery: " << query << "\nplan: "
            << pq.value().ExplainPlan();
      }
    }
  }
  // The generator should produce mostly well-typed queries.
  EXPECT_LE(errored, kQueriesPerSeed / 2) << "seed " << seed;
}

// Batch-size ablation: the streaming engine's vectorized iterators are an
// internal amortization only. Sweeping batch_size over 1 (the
// tuple-at-a-time oracle), tiny sizes that force every partial-batch and
// carry-over path (2, 3, 7), and the default 1024 must be byte-identical
// on every generated query — including ones that error.
TEST_P(PropertyTest, BatchSizesAgree) {
  uint64_t seed = GetParam();
  Gen gen(seed);
  Engine engine;
  const int kBatchSizes[] = {1, 2, 3, 7, 1024};
  const int kQueriesPerSeed = 6;
  for (int qi = 0; qi < kQueriesPerSeed; qi++) {
    std::string query =
        "declare variable $doc external; " + gen.Query(qi, 3);
    DynamicContext ctx;
    ctx.BindVariable(Symbol("doc"), {Item(*doc_)});

    std::string reference;
    for (size_t i = 0; i < std::size(kBatchSizes); i++) {
      EngineOptions opts;  // streaming algebra, optimized (the default)
      opts.batch_size = kBatchSizes[i];
      Result<PreparedQuery> pq = engine.Prepare(query, opts);
      ASSERT_TRUE(pq.ok()) << pq.status().ToString() << "\nquery: " << query;
      Result<std::string> r = pq.value().ExecuteToString(&ctx);
      std::string got = r.ok() ? r.value() : "ERROR:" + r.status().code();
      if (i == 0) {
        reference = got;
      } else {
        ASSERT_EQ(got, reference)
            << "batch_size=" << kBatchSizes[i]
            << " disagrees with the tuple-at-a-time oracle\nquery: " << query
            << "\nplan: " << pq.value().ExplainPlan();
      }
    }
  }
}

// Parallelism ablation: generated queries rewritten to scan a small
// fn:collection corpus must be byte-identical at parallelism 1 (the serial
// oracle), 2, and 4 — including queries that error, and including the many
// generated shapes that are statically ineligible and take the serial
// fallback. This is the broad-spectrum check for the partition/merge path:
// most shapes exercise the eligibility analyzer's "reject" verdicts, the
// eligible ones exercise the doc-partitioned k-way merge.
TEST_P(PropertyTest, ParallelismLevelsAgree) {
  static const std::string* corpus_dir = [] {
    auto* dir = new std::string(::testing::TempDir() + "xqc_property_corpus");
    std::system(("rm -rf " + *dir + " && mkdir -p " + *dir).c_str());
    // Three members with distinct content so cross-document order and
    // per-document results are distinguishable in the merged output.
    const char* members[3] = {
        "<site><people><person id=\"p0\"><name>Ann</name><age>31</age>"
        "</person></people></site>",
        "<site><people><person id=\"p1\"><name>Bob</name><age>25</age>"
        "</person><person id=\"p2\"><name>Cyd</name><age>44</age>"
        "</person></people></site>",
        "<site><orders><order oid=\"o1\" by=\"p2\"><total>15</total>"
        "</order></orders></site>"};
    for (int i = 0; i < 3; i++) {
      std::ofstream out(*dir + "/m" + std::to_string(i) + ".xml",
                        std::ios::trunc);
      out << members[i];
    }
    return dir;
  }();

  uint64_t seed = GetParam();
  Gen gen(seed);
  Engine engine;
  const std::string call = "fn:collection(\"" + *corpus_dir + "\")";
  const int kLevels[] = {1, 2, 4};
  const int kQueriesPerSeed = 4;
  for (int qi = 0; qi < kQueriesPerSeed; qi++) {
    std::string query = gen.Query(qi, 3);
    for (size_t pos = 0; (pos = query.find("$doc", pos)) != std::string::npos;
         pos += call.size()) {
      query.replace(pos, 4, call);
    }

    std::string reference;
    for (size_t i = 0; i < std::size(kLevels); i++) {
      EngineOptions opts;
      opts.parallelism = kLevels[i];
      DynamicContext ctx;
      Result<PreparedQuery> pq = engine.Prepare(query, opts);
      ASSERT_TRUE(pq.ok()) << pq.status().ToString() << "\nquery: " << query;
      Result<std::string> r = pq.value().ExecuteToString(&ctx);
      std::string got = r.ok() ? r.value() : "ERROR:" + r.status().code();
      if (i == 0) {
        reference = got;
      } else {
        ASSERT_EQ(got, reference)
            << "parallelism=" << kLevels[i]
            << " disagrees with the serial oracle\nquery: " << query
            << "\nplan: " << pq.value().ExplainPlan();
      }
    }
  }
}

// DocumentStore ablation: the same generated queries with $doc rewritten
// into fn:doc calls must be byte-identical with the store enabled and
// disabled (and cheap on the store side — one parse total, then hits).
TEST_P(PropertyTest, DocStoreOnAndOffAgree) {
  static const std::string* doc_path = [] {
    auto* p = new std::string(::testing::TempDir() + "xqc_property_doc.xml");
    std::ofstream out(*p, std::ios::trunc);
    out << kPropertyDoc;
    return p;
  }();

  uint64_t seed = GetParam();
  Gen gen(seed);
  Engine engine;
  EngineOptions store_on;
  EngineOptions store_off;
  store_off.use_doc_store = false;
  const std::string call = "doc(\"" + *doc_path + "\")";
  const int kQueriesPerSeed = 4;
  for (int qi = 0; qi < kQueriesPerSeed; qi++) {
    std::string query = gen.Query(qi, 3);
    for (size_t pos = 0; (pos = query.find("$doc", pos)) != std::string::npos;
         pos += call.size()) {
      query.replace(pos, 4, call);
    }

    std::string results[2];
    const EngineOptions* configs[2] = {&store_on, &store_off};
    for (int i = 0; i < 2; i++) {
      DynamicContext ctx;
      Result<PreparedQuery> pq = engine.Prepare(query, *configs[i]);
      ASSERT_TRUE(pq.ok()) << pq.status().ToString() << "\nquery: " << query;
      Result<std::string> r = pq.value().ExecuteToString(&ctx);
      results[i] = r.ok() ? r.value() : "ERROR:" + r.status().code();
    }
    ASSERT_EQ(results[0], results[1])
        << "store-on and store-off disagree\nquery: " << query;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Range<uint64_t>(1, 33),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// The differential oracle extended to the concurrent path: a generated
// query is prepared once per configuration, a serial reference result is
// taken, and then every shared plan is executed from N threads with
// per-thread dynamic contexts over the same shared document. Every
// concurrent execution must reproduce the serial answer — this is the
// PreparedQuery-reuse contract (immutable after Prepare) under load.
TEST(ConcurrentPropertyTest, SharedPlansAgreeAcrossThreads) {
  NodePtr doc = MustParseXml(R"(
      <site>
        <people>
          <person id="p0"><name>Ann</name><age>31</age></person>
          <person id="p1"><name>Bob</name><age>25</age></person>
          <person id="p2"><name>Cyd</name><age>44</age></person>
        </people>
        <orders>
          <order id="o0" buyer="p0"><amount>10</amount></order>
          <order id="o1" buyer="p2"><amount>25</amount></order>
          <order id="o2" buyer="p0"><amount>40</amount></order>
        </orders>
      </site>)");
  Engine engine;
  EngineOptions tuple_at_a_time{true, true, JoinImpl::kHash};
  tuple_at_a_time.batch_size = 1;
  const EngineOptions kConfigs[] = {
      {true, true, JoinImpl::kHash},
      tuple_at_a_time,
      {true, true, JoinImpl::kNestedLoop},
  };
  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 3;
  for (uint64_t seed = 101; seed < 106; seed++) {
    Gen gen(seed);
    // Kinds 1 and 2 generate document/join shapes (the plans that share
    // caches and symbols most aggressively).
    std::string query = "declare variable $doc external; " +
                        gen.Query(1 + static_cast<int>(seed % 2), 3);
    for (const EngineOptions& config : kConfigs) {
      Result<PreparedQuery> pq = engine.Prepare(query, config);
      ASSERT_TRUE(pq.ok()) << pq.status().ToString() << "\nquery: " << query;
      const PreparedQuery& plan = pq.value();
      DynamicContext serial_ctx;
      serial_ctx.BindVariable(Symbol("doc"), {Item(doc)});
      Result<std::string> serial = plan.ExecuteToString(&serial_ctx);
      if (!serial.ok()) continue;  // dynamically erroneous shape: skip
      std::atomic<int> mismatches{0};
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&] {
          for (int i = 0; i < kRunsPerThread; i++) {
            DynamicContext ctx;
            ctx.BindVariable(Symbol("doc"), {Item(doc)});
            Result<std::string> r = plan.ExecuteToString(&ctx);
            if (!r.ok() || r.value() != serial.value()) mismatches++;
          }
        });
      }
      for (auto& th : threads) th.join();
      EXPECT_EQ(mismatches.load(), 0)
          << "concurrent executions diverged from serial\nquery: " << query;
    }
  }
}

}  // namespace
}  // namespace xqc
