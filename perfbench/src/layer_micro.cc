#include "layer_micro.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "core/result_sink.h"
#include "index/chained_index.h"
#include "workloads.h"

namespace perfbench {

using bistream::ChainedIndex;
using bistream::ChainedIndexOptions;
using bistream::JoinResult;
using bistream::TimedTuple;
using bistream::Tuple;

double SoloIndexTps(const std::vector<TimedTuple>& inputs,
                    const bistream::JoinPredicate& pred, uint64_t* results) {
  ChainedIndexOptions options;
  options.kind = pred.RecommendedIndex();
  options.window = kWindow;
  options.archive_period = kWindow / 8;
  options.expiry_slack = kExpirySlack;
  ChainedIndex side[2] = {ChainedIndex(options), ChainedIndex(options)};
  uint64_t matches = 0;
  bistream::MatchSink count = [&matches](const Tuple&) { ++matches; };
  auto start = std::chrono::steady_clock::now();
  for (const TimedTuple& tt : inputs) {
    int own = tt.tuple.relation == bistream::kRelationR ? 0 : 1;
    side[1 - own].ExpireAndProbe(tt.tuple, pred, count);
    side[own].Insert(tt.tuple);
  }
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  *results = matches;
  return static_cast<double>(inputs.size()) / seconds;
}

namespace {

// Stand-in for the user sink behind the engine's lock: a counter plus one
// store, about what the benchmark's own sink does per result.
class CountingSink final : public bistream::ResultSink {
 public:
  void OnResult(const JoinResult& result) override {
    ++count_;
    last_ = result.r_id ^ result.s_id;
  }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
  uint64_t last_ = 0;
};

}  // namespace

double SinkOnResultNs4Threads() {
  constexpr int kThreads = 4;
  constexpr uint64_t kCallsPerThread = 200'000;
  CountingSink counting;
  bistream::LockingResultSink locking(&counting);
  std::atomic<int> ready{0};
  std::atomic<int64_t> total_ns{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      JoinResult result;
      result.producer_unit = static_cast<uint32_t>(t);
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      auto start = std::chrono::steady_clock::now();
      for (uint64_t i = 0; i < kCallsPerThread; ++i) {
        result.r_id = i;
        result.s_id = i + 1;
        locking.OnResult(result);
      }
      total_ns.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count());
    });
  }
  for (std::thread& thread : threads) thread.join();
  BISTREAM_CHECK_EQ(counting.count(), kThreads * kCallsPerThread);
  return static_cast<double>(total_ns.load()) /
         static_cast<double>(kThreads * kCallsPerThread);
}

}  // namespace perfbench
