// Steady-state benchmark of BicliqueEngine on the parallel backend.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--spans_dir=<dir>]
//
// Generates the workload's inputs from the seed and the expected result
// with ReferenceJoin, then repeats trials until their summed drive time
// reaches --seconds. Each trial builds a fresh executor and engine, drives
// the inputs from this thread, drains, and checks every emitted pair
// against the oracle outside the timed window. --trace=0 reports the
// end-to-end metrics over untraced trials; --trace=1 alternates untraced
// and traced trials and reports per-layer metrics from the traced ones,
// the tracing overhead, and two single-layer microbenches. The last stdout
// line is one JSON object with every metric (name -> value);
// perfbench/run.py keeps the ones BENCHMARK.json names, with their units.

#include <malloc.h>
#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "layer_micro.h"
#include "trial.h"
#include "workload/reference_join.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string key = arg, value;
    if (size_t eq = arg.find('='); eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    }
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (key == "--spans_dir") {
      args->spans_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) return false;
  }
  return have_workload && args->seconds > 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// Median of each metric over a set of trials, except the latency and
// send-lag quantiles, which are taken over every sample of the trials.
std::map<std::string, double> Summarize(const std::vector<TrialResult>& trials,
                                        uint64_t* latency_samples) {
  std::map<std::string, std::vector<double>> by_name;
  LogHistogram latency, send_lag;
  for (const TrialResult& t : trials) {
    for (const auto& [name, value] : t.metrics) by_name[name].push_back(value);
    latency.Merge(t.latency);
    send_lag.Merge(t.send_lag);
  }
  std::map<std::string, double> out;
  for (auto& [name, values] : by_name) out[name] = Median(values);
  out["latency_p50_ms"] = latency.Quantile(0.50) / 1e6;
  out["latency_p99_ms"] = latency.Quantile(0.99) / 1e6;
  out["send_lag_p99_ms"] = send_lag.Quantile(0.99) / 1e6;
  *latency_samples = latency.count();
  return out;
}

// End-to-end metrics BENCHMARK.json gives a bound: over ten seeds their
// spread stayed well inside it.
constexpr const char* kBounded[] = {"throughput_tps", "cpu_us_per_tuple",
                                    "setup_s", "peak_rss_mb"};
// End-to-end metrics reported without a bound, as "e2e.<name>" per-layer
// entries: they are 0 on some workloads, or their run-to-run spread exceeds
// the largest bound a metric may have (perfbench/NOTES.md).
constexpr const char* kUnbounded[] = {
    "latency_p50_ms", "latency_p99_ms", "send_lag_p99_ms", "drain_ms",
    "recovery_ms",    "unplanned_recoveries", "failed_frac"};

void PrintTrial(const char* kind, size_t index, const TrialResult& t) {
  const auto& m = t.metrics;
  auto at = [&m](const char* name) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  std::printf(
      "trial %zu (%s): throughput_tps=%.0f latency_p50_ms=%.3f "
      "latency_p99_ms=%.3f (samples=%" PRIu64 ") send_lag_p99_ms=%.3f "
      "cpu_us_per_tuple=%.3f drain_ms=%.1f setup_s=%.5f peak_rss_mb=%.1f "
      "recovery_ms=%.1f unplanned_recoveries=%.0f\n",
      index, kind, at("throughput_tps"), at("latency_p50_ms"),
      at("latency_p99_ms"), t.latency.count(), at("send_lag_p99_ms"),
      at("cpu_us_per_tuple"), at("drain_ms"), at("setup_s"),
      at("peak_rss_mb"), at("recovery_ms"), at("unplanned_recoveries"));
  const OracleOutcome& o = t.oracle;
  std::printf("  oracle: expected=%" PRIu64 " produced=%" PRIu64
              " missing=%" PRIu64 " duplicates=%" PRIu64 " spurious=%" PRIu64
              " failed_frac=%.3g\n",
              o.expected, o.produced, o.missing, o.duplicates, o.spurious,
              at("failed_frac"));
  if (!o.miss_offsets_ms.empty()) {
    std::printf("  missed pairs, |dts| - W in ms (W = %lld ms):",
                static_cast<long long>(kWindow / bistream::kEventMilli));
    for (double off : o.miss_offsets_ms) std::printf(" %.3f", off);
    std::printf("\n");
  }
  if (m.count("order.probe_disorder_max_ms") != 0) {
    std::printf("  probe disorder at the joiners: %.3f ms\n",
                at("order.probe_disorder_max_ms"));
  }
  if (m.count("joiner.handle_max_ms") != 0) {
    std::printf("  longest joiner handler call: %.3f ms, message tuple id "
                "%" PRIu64 " (0: punctuation or control)\n",
                at("joiner.handle_max_ms"), t.longest_joiner_tuple);
  }
  if (!t.spans_written.empty()) {
    std::printf("  spans: %s\n", t.spans_written.c_str());
  }
}

// A trial's output is correct when every emitted pair is an expected pair,
// emitted once. Missed pairs are counted as failed, not asserted away:
// with the engine's default expiry slack the joiners miss pairs near the
// window edge (see perfbench/NOTES.md), and failed_frac reports how many.
bool Passes(const OracleOutcome& o) {
  return o.duplicates == 0 && o.spurious == 0;
}

// Set-up is short (threads spawned, engine built) and jittery, so setup_s
// is the median of many set-ups spread over the run, kSetupsPerTrial after
// each untraced trial.
constexpr int kSetupsPerTrial = 40;

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; expected one of:",
                 args.workload.c_str());
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  // Open-loop pacing sleeps to each due time; keep the kernel from
  // batching those wake-ups.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);

  std::vector<bistream::TimedTuple> inputs = MakeInputs(*spec, args.seed);
  bistream::BicliqueOptions options = EngineOptions(*spec);
  std::vector<uint64_t> expected;
  {
    auto pairs = bistream::ComputeExpectedPairs(inputs, options.predicate,
                                                options.window);
    expected.reserve(pairs.size());
    for (const auto& [key, count] : pairs) {
      for (uint32_t c = 0; c < count; ++c) expected.push_back(key);
    }
  }
  malloc_trim(0);
  std::sort(expected.begin(), expected.end());
  TrialBuffers buffers(inputs, expected.size());
  std::printf("workload=%s seed=%" PRIu64 " tuples=%zu expected_pairs=%zu "
              "results_per_tuple=%.3f %s\n",
              spec->name.c_str(), args.seed, inputs.size(), expected.size(),
              static_cast<double>(expected.size()) /
                  static_cast<double>(inputs.size()),
              spec->open_loop ? "open-loop" : "closed-loop");

  // Trials repeat until their summed drive time (first to last
  // injection, traced trials included) reaches --seconds.
  std::vector<TrialResult> plain, traced;
  std::vector<double> setups;
  double drive_s = 0;
  while (plain.empty() || drive_s < args.seconds) {
    TrialConfig config{.spec = spec, .inputs = &inputs, .expected = &expected};
    plain.push_back(RunTrial(config, &buffers));
    drive_s += plain.back().drive_s;
    PrintTrial("untraced", plain.size(), plain.back());
    for (int i = 0; i < kSetupsPerTrial; ++i) {
      setups.push_back(SetupOnce(*spec));
    }
    if (args.trace) {
      config.traced = true;
      if (!args.spans_dir.empty()) {
        config.span_path = args.spans_dir + "/spans-" + spec->name + ".tsv";
      }
      traced.push_back(RunTrial(config, &buffers));
      drive_s += traced.back().drive_s;
      PrintTrial("traced", traced.size(), traced.back());
    }
  }

  std::map<std::string, double> report;
  uint64_t latency_samples = 0, traced_samples = 0;
  std::map<std::string, double> plain_med = Summarize(plain, &latency_samples);
  for (const char* name : kBounded) report[name] = plain_med[name];
  report["setup_s"] = Median(setups);
  std::sort(setups.begin(), setups.end());
  std::printf("set-ups: %zu, q1 / median / q3 = %.4f / %.4f / %.4f ms\n",
              setups.size(), setups[setups.size() / 4] * 1e3,
              report["setup_s"] * 1e3, setups[setups.size() * 3 / 4] * 1e3);
  for (const char* name : kUnbounded) {
    report[std::string("e2e.") + name] = plain_med[name];
  }
  if (args.trace) {
    std::map<std::string, double> traced_med =
        Summarize(traced, &traced_samples);
    for (const auto& [name, value] : traced_med) {
      if (name.find('.') != std::string::npos) report[name] = value;
    }
    for (const char* name : {"throughput_tps", "latency_p50_ms",
                             "latency_p99_ms", "cpu_us_per_tuple"}) {
      double base = plain_med[name];
      report[std::string("trace.overhead_frac.") + name] =
          base != 0 ? (traced_med[name] - base) / base : 0;
    }
    uint64_t solo_results = 0;
    report["index.solo_tps"] =
        SoloIndexTps(inputs, options.predicate, &solo_results);
    std::printf("index solo: %" PRIu64 " matches (oracle %zu)\n",
                solo_results, expected.size());
    std::vector<double> sink_ns;
    for (int i = 0; i < 3; ++i) sink_ns.push_back(SinkOnResultNs4Threads());
    report["sink.onresult_ns_4t"] = Median(sink_ns);
  }

  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  for (const auto* set : {&plain, &traced}) {
    for (const TrialResult& t : *set) {
      correct = correct && Passes(t.oracle);
      attempted += t.oracle.expected;
      failed += t.oracle.failed();
    }
  }
  std::printf("summary: %zu untraced + %zu traced trials, latency samples "
              "%" PRIu64 " untraced + %" PRIu64 " traced, %" PRIu64
              " expected pairs, %" PRIu64 " failed, oracle %s\n",
              plain.size(), traced.size(), latency_samples, traced_samples,
              attempted, failed, correct ? "PASS" : "FAIL");
  for (const auto& [name, value] : report) {
    std::printf("metric %s = %.6g\n", name.c_str(), value);
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : report) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", first ? "" : ", ",
                  name.c_str(), value);
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans_dir <dir>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
