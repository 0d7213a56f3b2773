// Tests for the containment server (src/server): the hand-rolled JSON
// layer, the canonical-hash plan cache (LRU bounds, eviction correctness),
// and the server request lifecycle — deterministic replay across thread
// counts, within-batch coalescing, deadline and malformed-request error
// paths, and cache-marker semantics.

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "server/json.h"
#include "server/plan_cache.h"
#include "server/server.h"

namespace qcont {
namespace server {
namespace {

// ---------------------------------------------------------------------------
// JSON layer.
// ---------------------------------------------------------------------------

TEST(JsonTest, ParsesScalarsAndNesting) {
  auto v = ParseJson(R"({"a":1,"b":"x","c":[true,false,null],"d":{"e":2.5}})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->Get("a")->number_value(), 1.0);
  EXPECT_EQ(v->Get("b")->string_value(), "x");
  ASSERT_TRUE(v->Get("c")->is_array());
  EXPECT_EQ(v->Get("c")->array_items().size(), 3u);
  EXPECT_TRUE(v->Get("c")->array_items()[2].is_null());
  EXPECT_EQ(v->Get("d")->Get("e")->number_value(), 2.5);
  EXPECT_EQ(v->Get("missing"), nullptr);
}

TEST(JsonTest, EscapesRoundTrip) {
  auto v = ParseJson(R"({"s":"a\"b\\c\ndA"})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->Get("s")->string_value(), "a\"b\\c\ndA");
  // Dump re-escapes; a reparse yields the same string.
  auto again = ParseJson(v->Dump());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->Get("s")->string_value(), "a\"b\\c\ndA");
}

TEST(JsonTest, AppendJsonEscapedPinsEveryEscape) {
  std::string out = "[";
  AppendJsonEscaped(std::string("\"ab\\\n\r\t\b\f\x01z\x1f", 12), &out);
  EXPECT_EQ(out, "[\\\"ab\\\\\\n\\r\\t\\b\\f\\u0001z\\u001f");
  out.clear();
  AppendJsonEscaped("plain \x7f\xc3\xa9", &out);
  EXPECT_EQ(out, "plain \x7f\xc3\xa9");
  EXPECT_EQ(JsonEscape(std::string("x\0y", 3)), "x\\u0000y");
  EXPECT_EQ(JsonEscape(""), "");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson(R"({"a":})").ok());
  EXPECT_FALSE(ParseJson(R"({"a":1} trailing)").ok());
  EXPECT_FALSE(ParseJson(R"("unterminated)").ok());
  EXPECT_FALSE(ParseJson(R"({"a":01})").ok());
  // Depth bomb: nesting past the parser's limit fails, never crashes.
  std::string deep(100, '[');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonTest, IntegralNumbersDumpWithoutExponent) {
  auto v = ParseJson(R"({"id":123456789})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Get("id")->Dump(), "123456789");
}

TEST(JsonTest, RejectsNonFiniteNumbers) {
  // strtod overflows these to ±inf; echoing them back via Dump() would
  // produce invalid JSON, so the parser must reject them up front.
  EXPECT_FALSE(ParseJson("1e999").ok());
  EXPECT_FALSE(ParseJson("-1e999").ok());
  EXPECT_FALSE(ParseJson(R"({"id":1e999})").ok());
  // Values near the double range edge still parse.
  EXPECT_TRUE(ParseJson("1e308").ok());
}

TEST(JsonTest, NonFiniteNumbersDumpAsNull) {
  // Programmatically constructed values (the parser never produces these).
  EXPECT_EQ(JsonValue::Number(std::numeric_limits<double>::infinity()).Dump(),
            "null");
  EXPECT_EQ(JsonValue::Number(std::numeric_limits<double>::quiet_NaN()).Dump(),
            "null");
}

// ---------------------------------------------------------------------------
// PlanCache.
// ---------------------------------------------------------------------------

TEST(PlanCacheTest, LruEvictsOldestAndCountsIt) {
  PlanCacheConfig config;
  config.verdict_capacity = 2;
  PlanCache cache(config);

  CachedVerdict v;
  v.contained = true;
  cache.InsertVerdict({1, 1}, v);
  cache.InsertVerdict({2, 2}, v);
  // Touch {1,1} so {2,2} becomes the LRU victim.
  EXPECT_TRUE(cache.LookupVerdict({1, 1}).has_value());
  cache.InsertVerdict({3, 3}, v);

  EXPECT_TRUE(cache.LookupVerdict({1, 1}).has_value());
  EXPECT_FALSE(cache.LookupVerdict({2, 2}).has_value());
  EXPECT_TRUE(cache.LookupVerdict({3, 3}).has_value());

  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.insertions, 3u);
}

TEST(PlanCacheTest, ZeroCapacityDisablesKind) {
  PlanCacheConfig config;
  config.verdict_capacity = 0;
  PlanCache cache(config);
  cache.InsertVerdict({1, 1}, CachedVerdict{});
  EXPECT_FALSE(cache.LookupVerdict({1, 1}).has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(PlanCacheTest, StableFlagsEntriesFromEarlierEpochsOnly) {
  PlanCache cache;
  cache.BeginEpoch();
  cache.InsertVerdict({1, 1}, CachedVerdict{});

  // Same epoch: the entry is found but not stable.
  bool stable = true;
  EXPECT_TRUE(cache.LookupVerdict({1, 1}, &stable).has_value());
  EXPECT_FALSE(stable);
  // A miss is never stable.
  stable = true;
  EXPECT_FALSE(cache.LookupVerdict({9, 9}, &stable).has_value());
  EXPECT_FALSE(stable);

  // Next epoch: the entry predates the batch, so it is stable.
  cache.BeginEpoch();
  EXPECT_TRUE(cache.LookupVerdict({1, 1}, &stable).has_value());
  EXPECT_TRUE(stable);

  // Re-inserting an existing key keeps the original epoch: the entry was
  // already present before this batch, so it stays stable.
  cache.InsertVerdict({1, 1}, CachedVerdict{});
  stable = false;
  EXPECT_TRUE(cache.LookupVerdict({1, 1}, &stable).has_value());
  EXPECT_TRUE(stable);
}

// ---------------------------------------------------------------------------
// Server request lifecycle.
// ---------------------------------------------------------------------------

// A mixed workload exercising both engines, eval, analyze, coalescing
// (ids 10/11 alpha-rename id 1), and a cross-batch repeat.
std::vector<std::string> MixedRequests() {
  return {
      R"({"id":1,"op":"containment","program":"g(x,y) :- e(x,y). g(x,y) :- e(x,z), g(z,y). goal g.","query":"Q(x,y) :- e(x,y). Q(x,y) :- e(x,z), e(z,y)."})",
      R"({"id":2,"op":"eval","program":"t(x,y) :- e(x,y). t(x,y) :- e(x,z), t(z,y). goal t.","database":"e(a,b). e(b,c)."})",
      R"({"id":3,"op":"analyze","query":"Q(x) :- r(x,y), s(y,x)."})",
      R"({"id":4,"op":"containment","program":"g(x) :- e(x,x). goal g.","query":"Q(x) :- e(x,y)."})",
      R"({"id":5,"op":"containment","program":"g(x,y) :- e(x,y). goal g.","query":"Q(x,y) :- e(x,y). Q(u,v) :- e(u,w), e(w,v)."})",
      R"({"id":10,"op":"containment","program":"g(x,y) :- e(x,y). g(x,y) :- e(x,z), g(z,y). goal g.","query":"Q(a,b) :- e(a,b). Q(a,b) :- e(a,c), e(c,b)."})",
      R"({"id":11,"op":"containment","program":"g(x,y) :- e(x,y). g(x,y) :- e(x,z), g(z,y). goal g.","query":"Q(x,y) :- e(x,y). Q(x,y) :- e(x,z), e(z,y)."})",
      R"({"id":12,"op":"eval","program":"t(x,y) :- e(x,y). t(x,y) :- e(x,z), t(z,y). goal t.","database":"e(b,c). e(a,b)."})",
  };
}

// Strips the schedule-dependent "elapsed_us" field; everything else in a
// response is covered by the determinism contract.
std::string StripElapsed(const std::string& response) {
  const std::string key = "\"elapsed_us\":";
  auto pos = response.find(key);
  if (pos == std::string::npos) return response;
  auto end = pos + key.size();
  while (end < response.size() &&
         (std::isdigit(static_cast<unsigned char>(response[end])) != 0)) {
    ++end;
  }
  return response.substr(0, pos + key.size()) + "0" + response.substr(end);
}

TEST(ServerTest, ReplayIsDeterministicAcrossThreadCounts) {
  const std::vector<std::string> requests = MixedRequests();
  std::vector<std::vector<std::string>> runs;
  for (int threads : {1, 8}) {
    ServerOptions options;
    options.threads = threads;
    options.max_batch = 4;  // forces two chunks => cross-batch cache hits
    Server server(options);
    std::vector<std::string> responses = server.HandleBatch(requests);
    for (std::string& r : responses) r = StripElapsed(r);
    runs.push_back(std::move(responses));
  }
  ASSERT_EQ(runs[0].size(), requests.size());
  EXPECT_EQ(runs[0], runs[1]) << "threads=1 and threads=8 replies differ";
}

// Work items of one batch can share a cache key without sharing a
// coalescing key: a containment and an analyze over the same Π/Θ both use
// the analysis shard, and two containments whose queries minimize to the
// same core share a verdict key. Whether the second item finds the
// first's insert depends on the schedule, so the "hit"/"miss" marker must
// be decided against the cache state at batch start: all of these report
// "miss" in their first batch, at every thread count, and "hit" on a
// replay.
TEST(ServerTest, CacheMarkersIgnoreSameBatchInsertsAcrossWorkItems) {
  const std::vector<std::string> requests = {
      // ids 1/2: same program and query, different ops => distinct
      // coalescing keys, same analysis-shard key.
      R"({"id":1,"op":"containment","program":"g(x,y) :- e(x,y). g(x,y) :- e(x,z), g(z,y). goal g.","query":"Q(x,y) :- e(x,y). Q(x,y) :- e(x,z), e(z,y)."})",
      R"({"id":2,"op":"analyze","program":"g(x,y) :- e(x,y). g(x,y) :- e(x,z), g(z,y). goal g.","query":"Q(x,y) :- e(x,y). Q(x,y) :- e(x,z), e(z,y)."})",
      // ids 3/4: id 4's redundant second disjunct minimizes away, leaving
      // id 3's query => distinct coalescing keys, same verdict key.
      R"({"id":3,"op":"containment","program":"g(x,y) :- e(x,y). goal g.","query":"Q(x,y) :- e(x,y)."})",
      R"({"id":4,"op":"containment","program":"g(x,y) :- e(x,y). goal g.","query":"Q(x,y) :- e(x,y). Q(u,v) :- e(u,w), e(w,v)."})",
  };
  for (int threads : {1, 8}) {
    ServerOptions options;
    options.threads = threads;
    Server server(options);
    std::vector<std::string> responses = server.HandleBatch(requests);
    ASSERT_EQ(responses.size(), requests.size());
    for (const std::string& r : responses) {
      EXPECT_NE(r.find("\"cache\":\"miss\""), std::string::npos)
          << "threads=" << threads << ": " << r;
    }
    // Replayed in a later batch, every entry predates the batch.
    for (const std::string& r : server.HandleBatch(requests)) {
      EXPECT_NE(r.find("\"cache\":\"hit\""), std::string::npos)
          << "threads=" << threads << ": " << r;
    }
  }
}

TEST(ServerTest, CoalescesDuplicatesWithinBatchAndHitsAcrossBatches) {
  ServerOptions options;
  options.threads = 4;
  options.max_batch = 8;  // one chunk: duplicates coalesce
  Server server(options);
  std::vector<std::string> responses = server.HandleBatch(MixedRequests());

  // ids 10 and 11 duplicate id 1's canonical work key within the batch.
  EXPECT_NE(responses[5].find("\"cache\":\"coalesced\""), std::string::npos)
      << responses[5];
  EXPECT_NE(responses[6].find("\"cache\":\"coalesced\""), std::string::npos)
      << responses[6];
  // id 12 permutes id 2's database facts: same canonical hash, coalesced.
  EXPECT_NE(responses[7].find("\"cache\":\"coalesced\""), std::string::npos)
      << responses[7];
  EXPECT_EQ(server.stats().coalesced, 3u);

  // A second replay of the same batch answers everything from cache.
  std::vector<std::string> again = server.HandleBatch(MixedRequests());
  for (const std::string& r : again) {
    const bool from_cache =
        r.find("\"cache\":\"hit\"") != std::string::npos ||
        r.find("\"cache\":\"coalesced\"") != std::string::npos;
    EXPECT_TRUE(from_cache) << r;
  }
}

// A repeated Π with fresh cyclic Θs (cyclic, so every request routes to
// the general engine) misses the verdict cache each time but shares one
// frozen program artifact: the second batch's requests skip the Π-only
// expansion entirely. Exercised at 1 and 8 threads so TSAN sees the
// shared-after-freeze read path.
TEST(ServerTest, RepeatedProgramSharesArtifactAcrossBatches) {
  const char* kPi =
      "g(x,y) :- e(x,y). g(x,y) :- e(x,z), g(z,y). goal g.";
  // Every Θ is a genuine hypergraph cycle (triangle / 4-cycle): a 2-cycle
  // like e(x,y), e(y,x) is α-acyclic (both atoms cover {x,y}) and would
  // route to the ACk engine, which never touches the artifact layer.
  const std::vector<std::string> first = {
      std::string(R"({"id":1,"op":"containment","program":")") + kPi +
          R"(","query":"Q(x,y) :- e(x,y), e(y,z), e(z,x)."})",
  };
  const std::vector<std::string> second = {
      std::string(R"({"id":2,"op":"containment","program":")") + kPi +
          R"(","query":"Q(x,y) :- e(x,y), e(y,z), e(z,w), e(w,x)."})",
      std::string(R"({"id":3,"op":"containment","program":")") + kPi +
          R"(","query":"Q(x,y) :- e(x,y), e(y,z), e(z,x), e(x,x)."})",
  };
  for (int threads : {1, 8}) {
    ServerOptions options;
    options.threads = threads;
    Server server(options);
    for (const std::string& r : server.HandleBatch(first)) {
      EXPECT_NE(r.find("\"cache\":\"miss\""), std::string::npos) << r;
    }
    for (const std::string& r : server.HandleBatch(second)) {
      // Fresh Θ: a verdict miss, but the artifact is already resident.
      EXPECT_NE(r.find("\"cache\":\"miss\""), std::string::npos) << r;
    }
    const ProgramArtifactCacheStats astats =
        server.cache().artifacts().stats();
    EXPECT_EQ(astats.misses, 1u) << "threads=" << threads;
    EXPECT_EQ(astats.hits, 2u) << "threads=" << threads;
    EXPECT_EQ(astats.entries, 1u) << "threads=" << threads;
    EXPECT_GT(astats.bytes, 0u) << "threads=" << threads;
  }
}

TEST(ServerTest, ShrunkCacheStaysCorrectUnderEviction) {
  // Reference run: ample cache.
  ServerOptions reference_options;
  reference_options.threads = 2;
  Server reference(reference_options);
  std::vector<std::string> expected = reference.HandleBatch(MixedRequests());

  // Tiny cache: every kind holds one entry, so the replayed tail keeps
  // evicting. Verdicts must not change — only the cache markers may.
  ServerOptions options;
  options.threads = 2;
  options.cache.verdict_capacity = 1;
  options.cache.analysis_capacity = 1;
  options.cache.core_capacity = 1;
  options.cache.eval_capacity = 1;
  options.max_batch = 1;  // no coalescing: all pressure on the LRU
  Server server(options);

  for (int round = 0; round < 2; ++round) {
    std::vector<std::string> responses = server.HandleBatch(MixedRequests());
    ASSERT_EQ(responses.size(), expected.size());
    for (std::size_t i = 0; i < responses.size(); ++i) {
      // Compare the result payloads (everything after the cache marker).
      const std::string want =
          expected[i].substr(expected[i].find("\"result\""));
      const std::string got =
          responses[i].substr(responses[i].find("\"result\""));
      EXPECT_EQ(got, want) << "request " << i << " round " << round;
    }
  }
  EXPECT_GT(server.cache().stats().evictions, 0u);
}

TEST(ServerTest, DeadlineZeroExpiresDeterministically) {
  Server server(ServerOptions{});
  const std::string response = server.HandleLine(
      R"({"id":9,"op":"containment","deadline_ms":0,"program":"g(x) :- e(x,x). goal g.","query":"Q(x) :- e(x,x)."})");
  EXPECT_NE(response.find("\"status\":\"deadline_exceeded\""),
            std::string::npos)
      << response;
  EXPECT_EQ(server.stats().deadline_exceeded, 1u);
}

TEST(ServerTest, DefaultDeadlineAppliesWhenRequestHasNone) {
  ServerOptions options;
  options.default_deadline_ms = 0;  // 0 = no default deadline
  Server no_deadline(options);
  EXPECT_NE(no_deadline
                .HandleLine(R"({"op":"analyze","query":"Q(x) :- e(x,x)."})")
                .find("\"status\":\"ok\""),
            std::string::npos);

  // A request-level deadline overrides the (absent) default.
  EXPECT_NE(no_deadline
                .HandleLine(
                    R"({"op":"analyze","deadline_ms":0,"query":"Q(x) :- e(x,x)."})")
                .find("\"status\":\"deadline_exceeded\""),
            std::string::npos);
}

TEST(ServerTest, MalformedRequestsReportErrorsAndEchoIds) {
  Server server(ServerOptions{});
  struct Case {
    const char* line;
    const char* expect;  // substring of the response
  };
  const Case cases[] = {
      {"not json at all", "\"status\":\"error\""},
      {R"([1,2,3])", "request must be a JSON object"},
      {R"({"id":7})", "needs a string \\\"op\\\" field"},
      {R"({"id":8,"op":"frobnicate"})", "unknown op"},
      {R"({"id":8,"op":"frobnicate"})", "\"id\":8"},
      {R"({"id":"abc","op":"containment"})", "\"id\":\"abc\""},
      {R"({"op":"containment","query":"Q(x) :- e(x,x)."})",
       "needs a string \\\"program\\\" field"},
      {R"({"op":"containment","program":"goal g.","query":"syntax @@ error"})",
       "\"status\":\"error\""},
      {R"({"op":"eval","program":"g(x) :- e(x,x). goal g."})",
       "needs string \\\"program\\\" and \\\"database\\\" fields"},
      {R"({"op":"analyze","deadline_ms":"soon","query":"Q(x) :- e(x,x)."})",
       "must be a number"},
  };
  for (const Case& c : cases) {
    const std::string response = server.HandleLine(c.line);
    EXPECT_NE(response.find(c.expect), std::string::npos)
        << "request: " << c.line << "\nresponse: " << response;
    EXPECT_NE(response.find("\"schema_version\":1"), std::string::npos);
  }
  EXPECT_EQ(server.stats().ok, 0u);
  EXPECT_GT(server.stats().errors, 0u);
}

TEST(ServerTest, OversizedRequestIsRejectedAsOverloaded) {
  ServerOptions options;
  options.max_request_bytes = 64;
  Server server(options);
  std::string big = R"({"op":"analyze","query":")";
  big.append(200, 'x');
  big += "\"}";
  const std::string response = server.HandleLine(big);
  EXPECT_NE(response.find("\"status\":\"overloaded\""), std::string::npos)
      << response;
  EXPECT_EQ(server.stats().overloaded, 1u);
}

TEST(ServerTest, ArityClashesAreRejectedAndTheStreamContinues) {
  // A relation has one arity in storage. A database line that mixes two,
  // or a program that disagrees with its database, must get an error
  // response — not abort the process — and the next line must still be
  // answered.
  Server server(ServerOptions{});
  const std::string input =
      R"({"id":1,"op":"eval","program":"g(x,y) :- e(x,y). goal g.",)"
      R"("database":"e(a,b). e(a,b,c)."})"
      "\n"
      R"({"id":2,"op":"eval","program":"e(x,y) :- f(x,y). goal e.",)"
      R"("database":"e(a,b,c). f(a,b)."})"
      "\n"
      R"({"id":3,"op":"eval","program":"g(x,y) :- e(x,y). goal g.",)"
      R"("database":"e(a,b)."})"
      "\n";
  std::istringstream in(input);
  std::ostringstream out;
  server.ServeStream(in, out);
  std::istringstream reread(out.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(reread, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u) << out.str();
  for (int i = 0; i < 2; ++i) {
    EXPECT_NE(lines[i].find("\"code\":\"InvalidArgument\""), std::string::npos)
        << lines[i];
    EXPECT_NE(lines[i].find("inconsistent arities"), std::string::npos)
        << lines[i];
    EXPECT_NE(lines[i].find("[QC004]"), std::string::npos) << lines[i];
  }
  EXPECT_NE(lines[0].find("(line 1)"), std::string::npos) << lines[0];
  EXPECT_NE(lines[2].find("\"status\":\"ok\""), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find(R"([["a","b"]])"), std::string::npos) << lines[2];
}

TEST(ServerTest, ServeStreamAnswersInRequestOrder) {
  ServerOptions options;
  options.threads = 4;
  Server server(options);
  std::string input;
  for (const std::string& line : MixedRequests()) input += line + "\n";
  std::istringstream in(input);
  std::ostringstream out;
  server.ServeStream(in, out);

  std::istringstream reread(out.str());
  std::string line;
  std::vector<std::string> ids;
  while (std::getline(reread, line)) {
    auto pos = line.find("\"id\":");
    ASSERT_NE(pos, std::string::npos);
    ids.push_back(line.substr(pos + 5, line.find(',', pos) - pos - 5));
  }
  EXPECT_EQ(ids, (std::vector<std::string>{"1", "2", "3", "4", "5", "10",
                                           "11", "12"}));
}

}  // namespace
}  // namespace server
}  // namespace qcont
