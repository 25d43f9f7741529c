// One measured run of a workload through BicliqueEngine on the parallel
// backend, driven from the calling thread through public API only.

#ifndef PERFBENCH_TRIAL_H_
#define PERFBENCH_TRIAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "log_histogram.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {

/// Buffers the benchmark owns across trials. They are sized from the
/// inputs and the oracle alone, so the benchmark's own memory is the same
/// on every commit and peak RSS moves only with the program's.
struct TrialBuffers {
  explicit TrialBuffers(const std::vector<bistream::TimedTuple>& inputs,
                        size_t expected_pairs);
  /// Due time (executor clock ns) of each tuple, indexed by tuple id.
  std::vector<int64_t> due_ns;
  /// (pair key, executor-clock arrival ns) of every result, sink order.
  std::vector<std::pair<uint64_t, int64_t>> results;
};

/// Outcome of comparing one trial's output against ReferenceJoin.
struct OracleOutcome {
  uint64_t expected = 0;
  uint64_t produced = 0;
  uint64_t missing = 0;
  uint64_t duplicates = 0;
  uint64_t spurious = 0;
  /// |dts| - W, ms, of each missed pair (negative: inside the window).
  std::vector<double> miss_offsets_ms;

  uint64_t failed() const { return missing + duplicates + spurious; }
};

struct TrialResult {
  /// Metric name -> value for this trial (end-to-end and, when traced,
  /// per-layer), named as in BENCHMARK.json.
  std::map<std::string, double> metrics;
  OracleOutcome oracle;
  /// Due-time latency of each result whose later input tuple was due in
  /// the measured window, and how late each window tuple was accepted
  /// (InjectNow returned) against its due time; both ns.
  LogHistogram latency;
  LogHistogram send_lag;
  /// Wall seconds from the first injection to the last.
  double drive_s = 0;
  std::string spans_written;  // Path of the span dump (traced only).
  /// Traced only: tuple id of the message whose joiner handler call took
  /// longest (0: punctuation or control message).
  uint64_t longest_joiner_tuple = 0;
};

struct TrialConfig {
  const WorkloadSpec* spec = nullptr;
  const std::vector<bistream::TimedTuple>* inputs = nullptr;
  /// Sorted pair keys of the oracle's expected result.
  const std::vector<uint64_t>* expected = nullptr;
  bool traced = false;
  /// Where a traced trial writes its span dump ("" = do not write).
  std::string span_path;
};

TrialResult RunTrial(const TrialConfig& config, TrialBuffers* buffers);

/// Executor + engine construction plus Start() (the set-up time, seconds),
/// followed by an immediate stop and teardown.
double SetupOnce(const WorkloadSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_TRIAL_H_
