// http_point: short point queries over loopback HTTP against an in-process
// HttpServer + QueryService (default options: 4 workers, plan cache of
// 128). The timed run is a closed loop of kClosedClients client threads,
// one keep-alive connection each; the traced run replays an open loop at a
// fixed rate three ways (HTTP, QueryService, Engine).
//
// Why these shapes: execution is ~0.1 ms, so framing, queue wait, dispatch
// and plan-cache hits vs. compiles dominate. 5 templates x 80 ids = 400
// distinct texts, more than the plan cache holds; ids are Zipf-skewed so
// hot texts hit and the tail compiles. 2% of requests are POST /invalidate
// of a drawn text, which costs later reads their cache hit.
#include <cstdio>
#include <atomic>
#include <memory>
#include <thread>

#include "src/net/http_client.h"
#include "src/net/http_server.h"
#include "src/service/query_service.h"
#include "src/xmark/xmark.h"
#include "src/xml/serializer.h"
#include "src/xml/xml_parser.h"
#include "xqbench/workloads.h"

namespace xqbench {

namespace {

constexpr size_t kDocBytes = 256 * 1024;
constexpr int kIds = 80;
constexpr double kZipfS = 1.1;
constexpr double kInvalidateShare = 0.02;
constexpr int kClients = 4;  // open-loop threads and connections (nproc)
/// Closed-loop callers in the timed run. Each has one request in flight,
/// so the server's event loop and workers plus the callers stay within
/// the 4 CPUs; more callers would time the scheduler, not the server.
constexpr int kClosedClients = 2;
constexpr int kSetupReps = 9;
constexpr int kWarmupRequests = 100;
constexpr size_t kSequenceLength = 1 << 16;
/// The traced run's offered rate (requests/s), well below capacity.
constexpr double kTracedRate = 1000;
/// Latency quantiles are medians over slices of this many seconds.
constexpr double kSliceS = 1;
/// A generator this late has found the backlog; stop instead of draining
/// an ever-growing queue.
constexpr double kAbandonLagMs = 1000;

const char* const kTemplateNames[] = {"http_person", "http_item",
                                      "http_auction", "http_bidders",
                                      "http_buyer"};
constexpr int kTemplates = 5;

/// Template `t` for `id` over the document bound to $`var`.
std::string TemplateText(int t, int id, const std::string& var) {
  const std::string a = "$" + var;
  const std::string decl = "declare variable " + a + " external; ";
  const std::string i = std::to_string(id);
  switch (t) {
    case 0:
      return decl + a + "/site/people/person[@id = \"person" + i +
             "\"]/name/text()";
    case 1:
      return decl + a + "/site/regions//item[@id = \"item" + i +
             "\"]/location/text()";
    case 2:
      return decl +
             a + "/site/open_auctions/open_auction[@id = \"open_auction" +
             i + "\"]/current/text()";
    case 3:
      return decl +
             "count(" + a + "/site/open_auctions/open_auction[@id = "
             "\"open_auction" + i + "\"]/bidder)";
    default:
      return decl +
             "for $c in " + a + "/site/closed_auctions/closed_auction "
             "where $c/buyer/@person = \"person" + i +
             "\" return $c/price/text()";
  }
}

std::string RefKind(int t, int id) {
  return std::string(kTemplateNames[t]) + ":" + std::to_string(id);
}

struct Request {
  int tmpl = 0;
  bool invalidate = false;
  std::string text;
  const RefEntry* ref = nullptr;
};

/// Every run serves all document variants, each bound to its own variable,
/// so the work does not depend on the seed: id i queries variant i mod 4.
/// That keeps 400 distinct texts and gives every seed the same expected
/// mix of documents.
int VariantOfId(int id) { return id % kVariants; }
std::string VariantVar(int variant) {
  return "auction" + std::to_string(variant);
}

/// The seeded request sequence every phase and replay walks.
std::vector<Request> MakeSequence(const RunConfig& cfg) {
  std::vector<double> cdf(kIds);
  double total = 0;
  for (int i = 0; i < kIds; i++) {
    total += 1.0 / std::pow(i + 1, kZipfS);
    cdf[static_cast<size_t>(i)] = total;
  }
  Rng rng(cfg.seed * 7919 + 17);
  std::vector<Request> seq(kSequenceLength);
  for (Request& r : seq) {
    r.invalidate = rng.Uniform() < kInvalidateShare;
    r.tmpl = static_cast<int>(rng.Next() % kTemplates);
    const double u = rng.Uniform() * total;
    const int id =
        static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                         cdf.begin());
    const int variant = VariantOfId(id);
    r.text = TemplateText(r.tmpl, id, VariantVar(variant));
    r.ref = cfg.refs->Find(cfg.workload, variant, RefKind(r.tmpl, id));
  }
  return seq;
}

bool Matches(const Request& r, const std::string& out) {
  return r.ref != nullptr && r.ref->bytes == out.size() &&
         r.ref->digest == Digest(out);
}

std::string GenerateDoc(int variant) {
  xqc::XMarkOptions xo;
  xo.seed = 3000 + static_cast<uint64_t>(variant);
  xo.target_bytes = kDocBytes;
  return xqc::GenerateXMarkXml(xo);
}

struct Env {
  std::vector<std::string> texts;  // by variant
  std::vector<xqc::NodePtr> docs;
  std::unique_ptr<xqc::QueryService> service;
  std::unique_ptr<xqc::HttpServer> server;
  std::vector<std::unique_ptr<xqc::HttpClient>> clients;
  ~Env() {
    clients.clear();
    if (server) server->Stop();
    if (service) service->Shutdown();
  }
};

/// One HTTP exchange on `client`; reconnects after a transport failure.
bool HttpOnce(xqc::HttpClient* client, int port, const Request& r) {
  xqc::HttpResponse resp;
  xqc::Status st = client->Request("POST", r.invalidate ? "/invalidate"
                                                        : "/query",
                                   {}, r.text, &resp);
  if (!st.ok()) {
    client->Close();
    (void)client->Connect("127.0.0.1", port);
    return false;
  }
  if (resp.status != 200) return false;
  return r.invalidate || Matches(r, resp.body);
}

std::unique_ptr<Env> Setup(const std::vector<Request>& seq, int64_t* failed) {
  auto env = std::make_unique<Env>();
  env->service = std::make_unique<xqc::QueryService>(xqc::ServiceOptions());
  for (int v = 0; v < kVariants; v++) {
    env->texts.push_back(GenerateDoc(v));
    xqc::Result<xqc::NodePtr> doc = xqc::ParseXml(env->texts.back());
    if (!doc.ok()) return nullptr;
    env->docs.push_back(doc.value());
    env->service->BindSharedVariable(xqc::Symbol(VariantVar(v)),
                                     {xqc::Item(doc.value())});
  }
  env->server = std::make_unique<xqc::HttpServer>(xqc::HttpServerOptions(),
                                                  env->service.get());
  if (!env->server->Start().ok()) return nullptr;
  for (int c = 0; c < kClients; c++) {
    env->clients.push_back(std::make_unique<xqc::HttpClient>());
    if (!env->clients.back()->Connect("127.0.0.1", env->server->port()).ok()) {
      return nullptr;
    }
  }
  for (int i = 0; i < kWarmupRequests; i++) {
    if (!HttpOnce(env->clients[static_cast<size_t>(i % kClients)].get(),
                  env->server->port(), seq[static_cast<size_t>(i)])) {
      ++*failed;
    }
  }
  return env;
}

/// Samples of one phase.
struct Step {
  double rate = 0;
  double elapsed_s = 0;
  std::vector<double> lat_ms;   // from due time; failures = +inf
  std::vector<std::vector<double>> slices;  // lat_ms by 1 s of due time
  std::vector<double> rtt_ms;   // send to reply, successes
  std::vector<double> lag_ms;   // send - due
  std::map<std::string, std::vector<double>> by_template;
  int64_t attempted = 0, failed = 0, ok = 0;
};

struct Sample {
  double due_s, lat_ms, rtt_ms, lag_ms;
  int tmpl;
  bool ok, invalidate;
};

/// Runs `clients` threads for `duration_s`, each walking its slice of the
/// sequence. With `rate` > 0 the load is open: each thread is a Poisson
/// stream of rate/clients and a request is timed from when it was due.
/// With `rate` 0 it is closed: each thread sends its next request as soon
/// as the last one is answered, timed from when it was sent.
/// `fn(thread, request, &excluded_ms)` performs one request and returns
/// correctness; it may report time spent on bench-side work (the traced
/// prepare replay) that the request's latency must not include.
template <typename Fn>
Step RunLoop(const std::vector<Request>& seq, double rate, int clients,
             double duration_s, uint64_t arrival_seed, Fn&& fn) {
  std::vector<std::vector<Sample>> per(static_cast<size_t>(clients));
  std::atomic<bool> abandoned{false};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < clients; t++) {
    threads.emplace_back([&, t] {
      Rng arrivals(arrival_seed * 131 + static_cast<uint64_t>(t));
      double due_s = 0;
      std::this_thread::sleep_until(t0);
      for (size_t j = 0;; j++) {
        Clock::time_point due;
        if (rate > 0) {
          due_s += arrivals.Exp(clients / rate);
          if (due_s > duration_s || abandoned) break;
          due = t0 + std::chrono::nanoseconds(
                         static_cast<int64_t>(due_s * 1e9));
          std::this_thread::sleep_until(due);
        } else {
          due = Clock::now();
          due_s = MsSince(t0, due) / 1e3;
          if (due_s > duration_s) break;
        }
        const Request& r =
            seq[(j * static_cast<size_t>(clients) + static_cast<size_t>(t)) %
                seq.size()];
        const Clock::time_point sent = Clock::now();
        if (MsSince(due, sent) > kAbandonLagMs) {
          abandoned = true;
          break;
        }
        double excluded_ms = 0;
        const bool ok = fn(t, r, &excluded_ms);
        const Clock::time_point done =
            Clock::now() - std::chrono::nanoseconds(
                               static_cast<int64_t>(excluded_ms * 1e6));
        per[static_cast<size_t>(t)].push_back(
            Sample{due_s, MsSince(due, done), MsSince(sent, done),
                   MsSince(due, sent), r.tmpl, ok, r.invalidate});
      }
    });
  }
  for (std::thread& th : threads) th.join();
  Step s;
  s.rate = rate;
  s.elapsed_s = std::max(MsSince(t0) / 1e3, 1e-3);
  s.slices.resize(std::max<size_t>(1, static_cast<size_t>(duration_s / kSliceS)));
  for (const auto& v : per) {
    for (const Sample& x : v) {
      s.attempted++;
      s.lag_ms.push_back(x.lag_ms);
      std::vector<double>& slice = s.slices[std::min(
          s.slices.size() - 1, static_cast<size_t>(x.due_s / kSliceS))];
      if (!x.ok) {
        s.failed++;
        s.lat_ms.push_back(std::numeric_limits<double>::infinity());
        slice.push_back(std::numeric_limits<double>::infinity());
        continue;
      }
      s.ok++;
      s.lat_ms.push_back(x.lat_ms);
      slice.push_back(x.lat_ms);
      s.rtt_ms.push_back(x.rtt_ms);
      if (!x.invalidate) s.by_template[kTemplateNames[x.tmpl]].push_back(x.lat_ms);
    }
  }
  return s;
}

Step HttpStep(Env* env, const std::vector<Request>& seq, double rate,
              int clients, double duration_s, uint64_t seed,
              std::vector<Tracer>* tracers) {
  const int port = env->server->port();
  return RunLoop(seq, rate, clients, duration_s, seed,
                 [&](int t, const Request& r, double*) {
    const Clock::time_point a = Clock::now();
    const bool ok = HttpOnce(env->clients[static_cast<size_t>(t)].get(),
                             port, r);
    if (tracers != nullptr) {
      (*tracers)[static_cast<size_t>(t)].Add(
          r.invalidate ? "http.invalidate" : "http.query", -1, 0, a,
          Clock::now());
    }
    return ok;
  });
}

RunResult EndToEnd(const RunConfig& cfg, Env* env,
                   const std::vector<Request>& seq, double setup_s) {
  RunResult r;
  const Step s = HttpStep(env, seq, 0, kClosedClients, cfg.seconds, cfg.seed,
                          nullptr);
  r.attempted = s.attempted;
  r.failed = s.failed;
  std::vector<double> medians;
  for (const auto& [k, v] : s.by_template) {
    medians.push_back(Median(v));
    r.kind_ms[k] = Median(v);
  }
  r.values["setup_s"] = setup_s;
  r.values["throughput_qps"] = static_cast<double>(s.ok) / s.elapsed_s;
  r.values["latency_p50_ms"] = SlicedQuantile(s.slices, 0.50);
  r.values["query_geomean_ms"] = GeoMean(medians);
  r.values["peak_rss_mb"] = PeakRssMb();
  TailNotes(s.slices, &r);
  r.notes.push_back("closed loop, " + std::to_string(kClosedClients) +
                    " connections: " + std::to_string(s.ok) + " requests");
  return r;
}

RunResult Traced(const RunConfig& cfg, Env* env,
                 const std::vector<Request>& seq) {
  RunResult r;
  const double phase_s = cfg.seconds * 0.2;
  const double rate = kTracedRate;
  xqc::QueryService* svc = env->service.get();
  auto account = [&](const Step& s) {
    r.attempted += s.attempted;
    r.failed += s.failed;
  };

  // 1. Untraced and traced HTTP at the reference rate, each from a cold
  //    plan cache.
  svc->InvalidateAllPlans();
  Step untraced = HttpStep(env, seq, rate, kClients, phase_s, cfg.seed, nullptr);
  account(untraced);
  svc->InvalidateAllPlans();
  const xqc::QueryService::PlanCacheStats pc0 = svc->plan_cache_stats();
  const xqc::QueryService::Counters sc0 = svc->counters();
  const xqc::HttpServer::Counters hc0 = env->server->counters();
  std::vector<Tracer> tracers(kClients, Tracer(true));
  Step http = HttpStep(env, seq, rate, kClients, phase_s, cfg.seed, &tracers);
  account(http);
  const xqc::QueryService::PlanCacheStats pc1 = svc->plan_cache_stats();
  const xqc::HttpServer::Counters hc1 = env->server->counters();

  // 2. The same sequence and arrivals through QueryService::Submit.
  svc->InvalidateAllPlans();
  std::vector<std::vector<double>> queue_wait(kClients);
  std::vector<std::map<std::string, double>> svc_sums(kClients);
  std::vector<Tracer> svc_tracers(kClients, Tracer(true));
  Step service = RunLoop(seq, rate, kClients, phase_s, cfg.seed,
                             [&](int t, const Request& r, double*) {
    const size_t ti = static_cast<size_t>(t);
    const Clock::time_point a = Clock::now();
    if (r.invalidate) {
      svc->InvalidatePlan(r.text);
      svc_tracers[ti].Add("service.invalidate", -1, 0, a, Clock::now());
      return true;
    }
    xqc::QueryRequest q;
    q.query_text = r.text;
    xqc::QueryResponse resp = svc->Submit(std::move(q)).get();
    svc_tracers[ti].Add("service.submit", -1, 0, a, Clock::now());
    queue_wait[ti].push_back(static_cast<double>(resp.queue_wait_ms));
    if (!resp.status.ok()) return false;
    AddExecStats(resp.stats, 0, &svc_sums[ti]);
    return Matches(r, resp.result);
  });
  account(service);
  const xqc::QueryService::Counters sc1 = svc->counters();

  // 3. The same sequence straight through Engine, each thread keeping its
  //    own prepared plans (a perfect cache), with the prepare phases
  //    replayed beside every real Prepare.
  std::vector<Tracer> eng_tracers(kClients, Tracer(true));
  std::vector<std::map<std::string, double>> eng_sums(kClients);
  std::vector<std::map<std::string, std::vector<double>>> exec_ms(kClients);
  std::vector<double> ser_us(kClients, 0), ser_bytes(kClients, 0);
  std::vector<std::unique_ptr<xqc::DynamicContext>> ctxs;
  std::vector<std::map<std::string, xqc::PreparedQuery>> plans(kClients);
  for (int t = 0; t < kClients; t++) {
    ctxs.push_back(std::make_unique<xqc::DynamicContext>());
    for (int v = 0; v < kVariants; v++) {
      ctxs.back()->BindVariable(xqc::Symbol(VariantVar(v)),
                                {xqc::Item(env->docs[static_cast<size_t>(v)])});
    }
  }
  const xqc::Engine engine;
  uint64_t request_ids[kClients] = {};
  uint64_t compiles[kClients] = {};
  std::vector<std::map<uint64_t, std::string>> request_kind(kClients);
  Step direct = RunLoop(seq, rate, kClients, phase_s, cfg.seed,
                            [&](int t, const Request& r, double* excluded) {
    const size_t ti = static_cast<size_t>(t);
    Tracer& tr = eng_tracers[ti];
    if (r.invalidate) {
      plans[ti].erase(r.text);
      return true;
    }
    const uint64_t req = (++request_ids[ti]) * kClients + ti;
    const int op = tr.Begin("engine.request", -1, req);
    auto it = plans[ti].find(r.text);
    if (it == plans[ti].end()) {
      // Every other compile replays the prepare phases first (RunOp in
      // inprocess.cc); the replay's time is excluded from the latency.
      request_kind[ti][req] = kTemplateNames[r.tmpl];
      const Clock::time_point r0 = Clock::now();
      if (++compiles[ti] % 2 == 1) {
        ReplayPreparePhases(r.text, xqc::EngineOptions(), &tr, req, op,
                            &eng_sums[ti]);
      }
      const Clock::time_point t0 = Clock::now();
      xqc::Result<xqc::PreparedQuery> q = engine.Prepare(r.text);
      const Clock::time_point t1 = Clock::now();
      if (!q.ok()) return false;
      tr.Add("engine.prepare", op, req, t0, t1);
      it = plans[ti].emplace(r.text, std::move(q.value())).first;
      *excluded = MsSince(r0, t0);
    }
    const Clock::time_point t2 = Clock::now();
    xqc::Result<xqc::Sequence> res = it->second.Execute(ctxs[ti].get());
    const Clock::time_point t3 = Clock::now();
    if (!res.ok()) return false;
    const std::string out = xqc::SerializeSequence(res.value());
    const Clock::time_point t4 = Clock::now();
    tr.Add("engine.execute", op, req, t2, t3);
    tr.Add("xml.serialize", op, req, t3, t4);
    tr.End(op);
    exec_ms[ti][kTemplateNames[r.tmpl]].push_back(MsSince(t2, t3));
    ser_us[ti] += MsSince(t3, t4) * 1e3;
    ser_bytes[ti] += static_cast<double>(out.size());
    AddExecStats(it->second.last_exec_stats(),
                 static_cast<int64_t>(res.value().size()), &eng_sums[ti]);
    return Matches(r, out);
  });
  account(direct);

  // Merge the per-thread records.
  Tracer all(true);
  for (const Tracer& t : tracers) all.Append(t);
  for (const Tracer& t : svc_tracers) all.Append(t);
  for (const Tracer& t : eng_tracers) all.Append(t);
  std::map<std::string, double> sums, exec_sums;
  std::vector<double> waits;
  std::map<std::string, std::vector<double>> exec_all;
  double serialize_us = 0, result_bytes = 0;
  for (int t = 0; t < kClients; t++) {
    const size_t ti = static_cast<size_t>(t);
    for (const auto& [k, v] : svc_sums[ti]) sums[k] += v;
    for (const auto& [k, v] : eng_sums[ti]) exec_sums[k] += v;
    waits.insert(waits.end(), queue_wait[ti].begin(), queue_wait[ti].end());
    for (const auto& [k, v] : exec_ms[ti]) {
      exec_all[k].insert(exec_all[k].end(), v.begin(), v.end());
    }
    serialize_us += ser_us[ti];
    result_bytes += ser_bytes[ti];
  }

  // Runtime counters: per request, as the service saw them.
  const double served = std::max<double>(1, static_cast<double>(waits.size()));
  for (const char* k :
       {"runtime.source_tuples", "runtime.hash_joins",
        "runtime.nested_loop_joins", "runtime.range_joins",
        "runtime.join_index_reuses", "runtime.early_stops",
        "runtime.guard_checks", "xml.ddo_sorts", "xml.index_lookups"}) {
    r.values[k] = sums[k] / served;
  }
  r.values["runtime.peak_memory_mb"] = sums["runtime.peak_memory_mb"];
  r.values["runtime.source_tuples_per_item"] =
      exec_sums["runtime.result_items"] > 0
          ? exec_sums["runtime.source_tuples"] /
                exec_sums["runtime.result_items"]
          : 0;
  // Plan sizes: mean per compiled text.
  const double prepares = std::max<double>(1, [&] {
    auto totals = all.Totals();
    auto it = totals.find("engine.prepare");
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  }());
  for (const char* k : {"compile.plan_ops", "opt.plan_ops", "opt.rewrites"}) {
    r.values[k] = exec_sums[k] / prepares;
  }
  for (const auto& [k, v] : exec_all) {
    r.values["runtime.execute_ms." + k] = Median(v);
  }
  const double executed =
      std::max<double>(1, static_cast<double>(direct.ok));
  r.values["xml.serialize_us"] = serialize_us / executed;
  r.values["xml.serialize_mb_per_s"] =
      serialize_us > 0 ? result_bytes / 1048576.0 / (serialize_us / 1e6) : 0;
  r.values["xml.result_bytes"] = result_bytes / executed;
  {
    std::vector<double> rates;
    for (int pass = 0; pass < 3; pass++) {
      const Clock::time_point t0 = Clock::now();
      double bytes = 0;
      for (const std::string& text : env->texts) {
        if (!xqc::ParseXml(text).ok()) return r;
        bytes += static_cast<double>(text.size());
      }
      rates.push_back(bytes / 1048576.0 / (MsSince(t0) / 1e3));
    }
    r.values["xml.parse_mb_per_s"] = Median(rates);
  }

  const double http_p50 = Median(http.rtt_ms);
  const double svc_p50 = Median(service.rtt_ms);
  const double eng_p50 = Median(direct.rtt_ms);
  r.values["service.latency_p50_us"] = svc_p50 * 1e3;
  r.values["service.overhead_p50_us"] = (svc_p50 - eng_p50) * 1e3;
  r.values["net.overhead_p50_us"] = (http_p50 - svc_p50) * 1e3;
  r.values["service.queue_wait_p99_ms"] = Quantile(waits, 0.99);
  r.values["service.retries"] = static_cast<double>(sc1.retries - sc0.retries);
  r.values["service.rejected"] =
      static_cast<double>(sc1.rejected - sc0.rejected);
  const double lookups =
      static_cast<double>((pc1.hits - pc0.hits) + (pc1.misses - pc0.misses));
  r.values["plan_cache.hit_ratio"] =
      lookups > 0 ? static_cast<double>(pc1.hits - pc0.hits) / lookups : 0;
  r.values["plan_cache.compiles"] =
      static_cast<double>(pc1.compiles - pc0.compiles);
  r.values["plan_cache.evictions"] =
      static_cast<double>(pc1.evictions - pc0.evictions);
  r.values["plan_cache.coalesced"] =
      static_cast<double>(pc1.waiters_coalesced - pc0.waiters_coalesced);
  r.values["plan_cache.invalidations"] =
      static_cast<double>(pc1.invalidations - pc0.invalidations);
  r.values["net.responses_4xx"] =
      static_cast<double>(hc1.responses_4xx - hc0.responses_4xx);
  r.values["net.responses_5xx"] =
      static_cast<double>(hc1.responses_5xx - hc0.responses_5xx);
  r.values["net.accept_paused"] =
      static_cast<double>(hc1.accept_paused - hc0.accept_paused);
  r.values["loadgen.lag_p99_ms"] = Quantile(http.lag_ms, 0.99);
  r.values["trace.overhead_frac"] =
      Median(http.lat_ms) / Median(untraced.lat_ms) - 1;
  for (const auto& [k, v] : http.by_template) r.kind_ms[k] = Median(v);

  char line[200];
  std::snprintf(line, sizeof(line),
                "replay p50 (send to reply): http %.1f us, service %.1f us, "
                "engine %.1f us -> net %.1f us, service %.1f us",
                http_p50 * 1e3, svc_p50 * 1e3, eng_p50 * 1e3,
                (http_p50 - svc_p50) * 1e3, (svc_p50 - eng_p50) * 1e3);
  r.notes.push_back(line);
  std::map<uint64_t, std::string> kinds;
  for (const auto& m : request_kind) kinds.insert(m.begin(), m.end());
  PrepareSpanMetrics(all, kinds, &r);
  if (!cfg.trace_out.empty() && !all.WriteTsv(cfg.trace_out)) {
    r.notes.push_back("could not write " + cfg.trace_out);
  }
  return r;
}

}  // namespace

RunResult RunHttpPoint(const RunConfig& cfg) {
  const KeepAwake awake;
  const std::vector<Request> seq = MakeSequence(cfg);
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  int64_t warmup_failed = 0;
  for (int rep = 0; rep < kSetupReps; rep++) {
    env.reset();
    const Clock::time_point t0 = Clock::now();
    env = Setup(seq, &warmup_failed);
    if (env == nullptr) {
      RunResult r;
      r.notes.push_back("set-up failed");
      r.attempted = r.failed = 1;
      return r;
    }
    setup_s.push_back(MsSince(t0) / 1e3);
  }
  RunResult r = cfg.trace ? Traced(cfg, env.get(), seq)
                          : EndToEnd(cfg, env.get(), seq, Median(setup_s));
  r.attempted += kSetupReps * kWarmupRequests;
  r.failed += warmup_failed;
  return r;
}

std::vector<std::pair<std::string, std::string>> HttpReferences(int variant) {
  std::vector<std::pair<std::string, std::string>> out;
  xqc::Result<xqc::NodePtr> doc = xqc::ParseXml(GenerateDoc(variant));
  if (!doc.ok()) return out;
  xqc::DynamicContext ctx;
  ctx.BindVariable(xqc::Symbol(VariantVar(variant)), {xqc::Item(doc.value())});
  for (int t = 0; t < kTemplates; t++) {
    for (int id = 0; id < kIds; id++) {
      out.push_back({RefKind(t, id),
                     InterpretToString(TemplateText(t, id, VariantVar(variant)),
                                       &ctx)});
    }
  }
  return out;
}

}  // namespace xqbench
