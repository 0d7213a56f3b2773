// servebench: the served-verdict benchmark of qcont.
//
//   servebench --workload <contain_cold|serve_hot|eval_closure> --seed <n>
//              --seconds <s> --trace <0|1> [--trace-out <file.json>]
//   servebench --self-test
//
// --trace 0 measures the end-to-end metrics of one workload against an
// untraced server::Server driven in process. Each call is timed by the
// process CPU time it uses, scaled to a reference host speed measured in
// the same run (reference.h); the wall-clock and unscaled figures are
// printed alongside. --trace 1 replays the same stream through the layers'
// public functions and reports the per-layer metrics. Either way every response is checked against the answer fixed
// when its request was generated. Human-readable lines come first; the
// last line of standard output is one JSON object with the keys
// "correct", "attempted", "failed" and "metrics". The exit code is 0 only
// when every answer was correct (and, traced, every stress check held).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "harness.h"
#include "oracle.h"
#include "reference.h"
#include "replay.h"
#include "stats.h"
#include "workloads.h"

namespace servebench {

int RunSelfTest();

namespace {

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupRuns = 25;
/// The host reference runs before the first set-up, after each set-up and
/// after every this much timed CPU time (about 3% of the run's time).
constexpr double kReferenceEveryUs = 100e3;
/// The timed loop also ends after this much wall time, so that a run on a
/// host that gives it only a fraction of a core still ends within three
/// minutes.
constexpr double kMaxLoopWallUs = 120e6;
/// Lines hashed into the printed stream identity.
constexpr std::size_t kHashedLines = 256;
/// Spans of this many calls go to the trace file.
constexpr std::size_t kTracedCalls = 400;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  int trace = 0;
  std::string trace_out;
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return args->self_test ||
         (!args->workload.empty() && args->seconds > 0 &&
          (args->trace == 0 || args->trace == 1));
}

/// This process's peak resident memory: VmHWM of /proc/self/status, which
/// starts afresh at exec. (getrusage's ru_maxrss does not: Linux carries it
/// over from the pre-exec image, here the launching Python interpreter.)
double PeakRssMb() {
  long kib = -1;
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(status);
  }
  if (kib < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return static_cast<double>(kib) / 1024.0;
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.9g", metrics[i].value);
    json += (i ? ", " : "") + std::string("\"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  std::printf("%s}}\n", json.c_str());
}

/// Counts the responses of one call that are not ok or disagree with the
/// oracle; reports the first few.
std::uint64_t CheckCall(const std::vector<Request>& requests, std::size_t first,
                        const std::vector<std::string>& responses,
                        std::uint64_t* reported) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const std::optional<ResponseAnswer> answer = ParseResponse(responses[i]);
    if (answer.has_value() && MatchesExpected(*answer, requests[first + i].expect)) {
      continue;
    }
    ++failed;
    if ((*reported)++ < 3) {
      std::fprintf(stderr, "servebench: wrong answer\n  request: %.300s\n  response: %.300s\n",
                   requests[first + i].line.c_str(), responses[i].c_str());
    }
  }
  return failed;
}

/// Requests generated (and afterwards checked) at a time, between timed
/// calls. Large, so generator and oracle work rarely sits right before a
/// timed call; eval chunks stay small because their responses are large.
std::size_t ChunkLines(const WorkloadConfig& config) {
  switch (config.kind) {
    case WorkloadKind::kContainCold: return 256;
    case WorkloadKind::kServeHot: return 32 * config.batch;
    case WorkloadKind::kEvalClosure: return 32;
  }
  return 64;
}

int RunUntraced(const WorkloadConfig& config, const Args& args) {
  std::unique_ptr<Generator> gen = MakeGenerator(config, args.seed);
  const std::vector<Request> warm = gen->WarmUp();
  const std::vector<std::vector<std::string>> warm_calls =
      SplitCalls(warm, config.batch);

  // The peak only grows, so these marks tell which phase set it.
  const double rss_before_setup = PeakRssMb();

  HostReference reference;
  reference.Sample();

  // Set-up: server construction plus the warm-up prefix, several times.
  std::vector<double> setup_s;         // CPU clock
  std::vector<double> scaled_setup_s;  // scaled to the reference speed
  std::unique_ptr<qcont::server::Server> server;
  std::vector<std::string> warm_responses;
  for (int run = 0; run < kSetupRuns; ++run) {
    server.reset();
    warm_responses.clear();
    const double start = ProcessCpuMicros();
    server = std::make_unique<qcont::server::Server>(BenchOptions());
    for (const std::vector<std::string>& call : warm_calls) {
      for (std::string& r : ServeCall(*server, call)) {
        warm_responses.push_back(std::move(r));
      }
    }
    setup_s.push_back((ProcessCpuMicros() - start) / 1e6);
    reference.Sample();
    scaled_setup_s.push_back(setup_s.back() * reference.ScaleAt(reference.samples() - 1));
  }
  std::uint64_t reported = 0;
  std::uint64_t failed = CheckCall(warm, 0, warm_responses, &reported);
  const double rss_after_setup = PeakRssMb();

  // Closed loop, one call in flight, until the timed CPU budget is spent:
  // every run serves about as many requests however busy the host is.
  const double budget_us = args.seconds * 1e6;
  const Clock::time_point loop_start = Clock::now();
  double timed_us = 0;
  double wall_us = 0;
  double since_reference_us = 0;
  std::uint64_t attempted = 0;
  std::vector<double> latency_us;             // CPU clock
  std::vector<std::size_t> reference_index;  // reference samples taken before the call
  std::vector<double> wall_latency_us;
  while (timed_us < budget_us &&
         MicrosBetween(loop_start, Clock::now()) < kMaxLoopWallUs) {
    const std::vector<Request> chunk = gen->Next(ChunkLines(config));
    std::vector<std::string> responses;
    std::size_t lines = 0;
    for (const std::vector<std::string>& call : SplitCalls(chunk, config.batch)) {
      const Clock::time_point wall_start = Clock::now();
      const double start = ProcessCpuMicros();
      std::vector<std::string> out = ServeCall(*server, call);
      const double us = ProcessCpuMicros() - start;
      wall_latency_us.push_back(MicrosBetween(wall_start, Clock::now()));
      wall_us += wall_latency_us.back();
      latency_us.push_back(us);
      reference_index.push_back(reference.samples());
      timed_us += us;
      since_reference_us += us;
      if (since_reference_us >= kReferenceEveryUs) {
        reference.Sample();
        since_reference_us = 0;
      }
      lines += call.size();
      for (std::string& r : out) responses.push_back(std::move(r));
      if (timed_us >= budget_us) break;
    }
    attempted += lines;
    failed += CheckCall(chunk, 0, responses, &reported);
  }

  std::vector<double> scaled_us(latency_us.size());
  double scaled_total_us = 0;
  for (std::size_t i = 0; i < latency_us.size(); ++i) {
    scaled_us[i] = latency_us[i] * reference.ScaleAt(reference_index[i]);
    scaled_total_us += scaled_us[i];
  }
  const TailPercentile tail = Tail(scaled_us);
  const double ok = static_cast<double>(attempted - std::min(failed, attempted));
  const double ok_share = attempted ? ok / attempted : 0.0;
  std::printf("workload %s seed %llu: %llu requests in %zu calls, %.3f s CPU timed "
              "(%.3f s wall)\n",
              config.name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(attempted), latency_us.size(),
              timed_us / 1e6, wall_us / 1e6);
  std::printf("  latency tail: p%g of %zu per-call samples; failed_share %.6f\n",
              tail.percentile, tail.samples, 1.0 - ok_share);
  const TailPercentile wall_tail = Tail(wall_latency_us);
  std::printf("  wall clock: %.1f req/s, p50 %.1f us, p%g %.1f us\n",
              static_cast<double>(attempted) / (wall_us / 1e6), Median(wall_latency_us),
              wall_tail.percentile, wall_tail.value);
  const TailPercentile cpu_tail = Tail(latency_us);
  std::printf("  CPU clock: %.1f req/s, p50 %.1f us, p%g %.1f us, set-up %.6f s\n",
              ok / (timed_us / 1e6), Median(latency_us), cpu_tail.percentile,
              cpu_tail.value, Median(setup_s));
  std::printf("  host reference: median %.1f us over %zu samples, nominal %.0f us; "
              "the metrics below scale each CPU-clock time by nominal / the samples "
              "around it\n",
              reference.MedianUs(), reference.samples(), HostReference::kNominalUs);
  const double rss_peak = PeakRssMb();
  std::printf("  peak RSS: %.1f MiB before set-up, %.1f MiB after set-up, %.1f MiB after "
              "the timed loop\n",
              rss_before_setup, rss_after_setup, rss_peak);
  PrintResult(failed == 0, attempted, failed,
              {{"throughput_rps", ok / (scaled_total_us / 1e6), "req/s"},
               {"latency_p50_us", Median(scaled_us), "us"},
               {"latency_p99_us", tail.value, "us"},
               {"ok_share", ok_share, "ratio"},
               {"peak_rss_mb", rss_peak, "MiB"},
               {"setup_s", Median(scaled_setup_s), "s"}});
  return failed == 0 ? 0 : 1;
}

int RunTraced(const WorkloadConfig& config, const Args& args) {
  std::unique_ptr<Generator> gen = MakeGenerator(config, args.seed);
  const std::vector<Request> warm = gen->WarmUp();
  qcont::server::Server server(BenchOptions());
  Replayer replay(BenchOptions(), kTracedCalls);
  std::uint64_t reported = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;  // replay answer != server answer

  auto compare = [&](const std::vector<std::string>& responses,
                     const std::vector<ReplayAnswer>& replayed) {
    for (std::size_t i = 0; i < responses.size(); ++i) {
      const std::optional<ResponseAnswer> served = ParseResponse(responses[i]);
      const ResponseAnswer& mine = replayed[i].answer;
      if (served.has_value() && served->status == mine.status &&
          served->cache == mine.cache && served->payload == mine.payload) {
        continue;
      }
      if (mismatched++ < 3) {
        std::fprintf(stderr,
                     "servebench: replay differs from server\n  server: %.300s\n"
                     "  replay: %s %s %.300s\n",
                     responses[i].c_str(), mine.status.c_str(), mine.cache.c_str(),
                     mine.payload.c_str());
      }
    }
  };

  std::size_t offset = 0;
  for (const std::vector<std::string>& call : SplitCalls(warm, config.batch)) {
    const std::vector<std::string> responses = ServeCall(server, call);
    compare(responses, replay.Call(call, /*record=*/false));
    failed += CheckCall(warm, offset, responses, &reported);
    offset += call.size();
  }

  // The budget counts the server calls' CPU time, as in the untraced run;
  // the ledger compares wall times, as the spans are wall-clock.
  const double budget_us = args.seconds * 1e6;
  double server_cpu_us = 0;
  double server_us = 0;
  double replay_us = 0;
  double response_bytes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t derived_mismatch = 0;
  std::vector<double> unattributed_pct;
  const Clock::time_point loop_start = Clock::now();
  while (server_cpu_us < budget_us &&
         MicrosBetween(loop_start, Clock::now()) < kMaxLoopWallUs) {
    const std::vector<Request> chunk = gen->Next(ChunkLines(config));
    std::size_t first = 0;
    for (const std::vector<std::string>& call : SplitCalls(chunk, config.batch)) {
      const Clock::time_point start = Clock::now();
      const double cpu_start = ProcessCpuMicros();
      const std::vector<std::string> responses = ServeCall(server, call);
      server_cpu_us += ProcessCpuMicros() - cpu_start;
      const double wall_us = MicrosBetween(start, Clock::now());
      const std::vector<ReplayAnswer> replayed = replay.Call(call, /*record=*/true);
      server_us += wall_us;
      replay_us += replay.last_call_us();
      unattributed_pct.push_back(100.0 * (wall_us - replay.last_layer_us()) / wall_us);
      compare(responses, replayed);
      failed += CheckCall(chunk, first, responses, &reported);
      for (std::size_t i = 0; i < call.size(); ++i) {
        response_bytes += static_cast<double>(responses[i].size());
        if (replayed[i].evaluated &&
            replayed[i].derived_facts != chunk[first + i].expect.tuple_count) {
          ++derived_mismatch;
        }
      }
      first += call.size();
      attempted += call.size();
      if (server_cpu_us >= budget_us) break;
    }
  }

  const std::vector<Metric> layers =
      replay.Metrics(attempted ? response_bytes / attempted : 0.0,
                     Median(unattributed_pct),
                     100.0 * (replay_us - server_us) / server_us);
  auto value = [&](const std::string& name) {
    for (const Metric& m : layers) {
      if (m.name == name) return m.value;
    }
    return -1.0;
  };
  // Each workload must stress the layer it is meant to.
  std::vector<std::pair<std::string, bool>> checks = {
      {"replay answers equal server answers", mismatched == 0}};
  if (config.kind == WorkloadKind::kContainCold) {
    for (const char* kind : {"verdict", "analysis", "core", "eval", "artifact"}) {
      checks.push_back({std::string("no ") + kind + " cache hits",
                        value(std::string("server.plan_cache.") + kind + "_hit_ratio") == 0});
    }
    const double ack = value("analysis.route_ack_share");
    checks.push_back({"both engines routed", ack > 0 && ack < 1});
  } else if (config.kind == WorkloadKind::kServeHot) {
    checks.push_back({"verdict hit ratio >= 0.5",
                      value("server.plan_cache.verdict_hit_ratio") >= 0.5});
    checks.push_back({"artifact layer evicts",
                      value("server.plan_cache.artifact_evictions") > 0});
  } else {
    checks.push_back({"derived facts equal the oracle's tuple counts",
                      derived_mismatch == 0 && value("datalog.derived_facts") > 0});
  }
  bool stressed = true;
  std::printf("workload %s seed %llu (traced): %llu requests, %zu calls\n",
              config.name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(attempted), unattributed_pct.size());
  for (const auto& [what, ok] : checks) {
    std::printf("  check %-50s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    stressed = stressed && ok;
  }
  if (!args.trace_out.empty()) {
    if (!replay.WriteTrace(args.trace_out)) {
      std::fprintf(stderr, "servebench: cannot write %s\n", args.trace_out.c_str());
      return 2;
    }
    std::printf("  trace written to %s\n", args.trace_out.c_str());
  }
  const bool correct = failed == 0 && stressed;
  PrintResult(correct, attempted, failed, layers);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>] | --self-test\n");
    return 2;
  }
  try {
    if (args.self_test) return RunSelfTest();
    const WorkloadConfig* config = FindWorkload(args.workload);
    if (config == nullptr) {
      std::fprintf(stderr, "servebench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }
    std::printf("stream %s seed %llu: hash %016llx over the warm-up and first %zu lines\n",
                config->name.c_str(), static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(StreamHash(*config, args.seed, kHashedLines)),
                kHashedLines);
    return args.trace == 1 ? RunTraced(*config, args) : RunUntraced(*config, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 2;
  }
}
