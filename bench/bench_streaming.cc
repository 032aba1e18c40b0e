// Early-terminating query heads — fn:exists, positional [1],
// fn:subsequence prefixes, quantifiers — each timed against its control:
// the same query with the head removed, consumed in full by the same
// iterator pipeline.
//
// Expected shapes:
//  - a head's cost is O(prefix) and independent of the document size,
//    its control's is O(n): the gap grows linearly and is far beyond 10x
//    at the default scale (~20k items); the source_tuples counter shows
//    the same gap in tuples touched;
//  - the FullCount pair consumes everything on both sides: same tuples,
//    and count() adds no asymptotic cost over its control;
//  - every head returns the interpreter's answer and touches <=1% of its
//    control's tuples (checked before timing, not just timed).
#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.h"
#include "src/xml/xml_parser.h"

namespace xqc {
namespace {

constexpr size_t kDefaultItems = 20000;

size_t ScaledItems() { return bench::Scaled(kDefaultItems); }

const std::string& DocXml() {
  static const std::string* xml = [] {
    std::string* s = new std::string("<doc>");
    for (size_t i = 1; i <= ScaledItems(); i++) {
      std::string id = std::to_string(i);
      *s += "<item><id>" + id + "</id><grp>" + std::to_string(i % 7) +
            "</grp></item>";
    }
    *s += "</doc>";
    return s;
  }();
  return *xml;
}

NodePtr ParsedDoc() {
  static const NodePtr doc = [] {
    Result<NodePtr> r = ParseXml(DocXml());
    if (!r.ok()) std::abort();
    return r.value();
  }();
  return doc;
}

struct EarlyExitQuery {
  const char* name;
  const char* head;     // the query with its early-terminating head
  const char* control;  // the same query without the head
  bool early_exit;      // false: the head consumes everything too
};

const EarlyExitQuery kQueries[] = {
    {"Exists", "exists(for $x in $D//item return $x)",
     "for $x in $D//item return $x", true},
    {"ExistsWhere",
     "exists(for $x in $D//item where number($x/id) >= 1 return $x)",
     "for $x in $D//item where number($x/id) >= 1 return $x", true},
    {"FirstItem", "(for $x in $D//item return string($x/id))[1]",
     "for $x in $D//item return string($x/id)", true},
    {"SubsequencePrefix",
     "subsequence(for $x in $D//item return string($x/id), 1, 3)",
     "for $x in $D//item return string($x/id)", true},
    {"SomeQuantifier", "some $x in $D//item satisfies number($x/id) = 2",
     "for $x in $D//item return number($x/id) = 2", true},
    {"FullCount", "count(for $x in $D//item return $x)",
     "for $x in $D//item return $x", false},
};

std::string WithPrologue(const char* query_text) {
  return std::string("declare variable $D external; ") + query_text;
}

// Runs once outside any timing; returns the result and its source_tuples.
bool RunOnce(const char* query_text, const EngineOptions& options,
             std::string* out, int64_t* tuples) {
  Engine engine;
  Result<PreparedQuery> q = engine.Prepare(WithPrologue(query_text), options);
  if (!q.ok()) return false;
  DynamicContext ctx;
  ctx.BindVariable(Symbol("D"), {Item(ParsedDoc())});
  Result<std::string> r = q.value().ExecuteToString(&ctx);
  if (!r.ok()) return false;
  *out = r.value();
  *tuples = q.value().last_exec_stats().source_tuples;
  return true;
}

void BM_Query(benchmark::State& state, const char* query_text) {
  Engine engine;
  Result<PreparedQuery> q = engine.Prepare(WithPrologue(query_text));
  if (!q.ok()) {
    state.SkipWithError(q.status().ToString().c_str());
    return;
  }
  DynamicContext ctx;
  ctx.BindVariable(Symbol("D"), {Item(ParsedDoc())});
  int64_t tuples = 0;
  for (auto _ : state) {
    Result<std::string> r = q.value().ExecuteToString(&ctx);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r.value().size());
    tuples = q.value().last_exec_stats().source_tuples;
  }
  state.counters["source_tuples"] =
      benchmark::Counter(static_cast<double>(tuples));
}

// Sanity check outside the timed region: every head returns the
// interpreter's answer, and an early-exit head touches <=1% of the tuples
// its control does (a full-consumption head touches exactly as many).
bool VerifyHeads() {
  EngineOptions interpreter;
  interpreter.use_algebra = false;
  for (const EarlyExitQuery& q : kQueries) {
    std::string head, oracle, control;
    int64_t head_tuples = 0, oracle_tuples = 0, control_tuples = 0;
    if (!RunOnce(q.head, EngineOptions(), &head, &head_tuples) ||
        !RunOnce(q.head, interpreter, &oracle, &oracle_tuples) ||
        !RunOnce(q.control, EngineOptions(), &control, &control_tuples)) {
      fprintf(stderr, "%s: a query failed\n", q.name);
      return false;
    }
    if (head != oracle) {
      fprintf(stderr, "RESULT MISMATCH on %s:\n  algebra:     %s\n  "
              "interpreter: %s\n", q.name, head.c_str(), oracle.c_str());
      return false;
    }
    bool ok = q.early_exit ? head_tuples * 100 <= control_tuples
                           : head_tuples == control_tuples;
    if (!ok || control_tuples < static_cast<int64_t>(ScaledItems())) {
      fprintf(stderr, "%s: head touched %lld tuples, control %lld\n", q.name,
              static_cast<long long>(head_tuples),
              static_cast<long long>(control_tuples));
      return false;
    }
  }
  return true;
}

void RegisterAll() {
  for (const EarlyExitQuery& q : kQueries) {
    const char* head = q.head;
    const char* control = q.control;
    benchmark::RegisterBenchmark(
        (std::string("Streaming/") + q.name + "/Head").c_str(),
        [head](benchmark::State& st) { BM_Query(st, head); })
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        (std::string("Streaming/") + q.name + "/Control").c_str(),
        [control](benchmark::State& st) { BM_Query(st, control); })
        ->Unit(benchmark::kMicrosecond);
  }
}

}  // namespace
}  // namespace xqc

int main(int argc, char** argv) {
  if (!xqc::VerifyHeads()) return 1;
  xqc::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
