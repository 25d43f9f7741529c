#include "trial.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "common/logging.h"
#include "core/engine.h"
#include "ops/failure_detector.h"
#include "runtime/fault/fault.h"
#include "runtime/parallel/parallel_executor.h"
#include "spans.h"

namespace perfbench {

using bistream::BicliqueEngine;
using bistream::BicliqueOptions;
using bistream::EngineStats;
using bistream::EventTime;
using bistream::FailureDetector;
using bistream::FailureDetectorOptions;
using bistream::FaultInjector;
using bistream::FaultPlan;
using bistream::JoinResult;
using bistream::kMillisecond;
using bistream::RecoveryEvent;
using bistream::SimTime;
using bistream::TimedTuple;
using bistream::runtime::Clock;
using bistream::runtime::Executor;
using bistream::runtime::ParallelExecutor;
using bistream::runtime::ParallelExecutorOptions;
using bistream::runtime::Unit;

namespace {

constexpr int64_t kWindowNs = kWindow * 1000;  // W on the due-time clock.
constexpr uint32_t kCrashVictim = 1;           // A joiner unit id.

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// Linux: writing 5 to clear_refs resets the peak-RSS mark to the current
// RSS, so each trial's VmHWM covers that trial only.
void ResetPeakRss() {
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  BISTREAM_CHECK(f != nullptr) << "cannot read /proc/self/status";
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

uint64_t PairKey(uint64_t r_id, uint64_t s_id) { return (r_id << 32) | s_id; }

// The user sink behind the engine's LockingResultSink (and, with fault
// tolerance, its RecoveryDedupSink): stamps each result's arrival on the
// executor clock, after every wait the result path imposed.
class BenchSink final : public bistream::ResultSink {
 public:
  BenchSink(Clock* clock, SpanRecorder* recorder,
            std::vector<std::pair<uint64_t, int64_t>>* out)
      : clock_(clock), recorder_(recorder), out_(out) {}

  void OnResult(const JoinResult& result) override {
    SpanRecorder::Scope scope(recorder_, Layer::kSink, result.producer_unit,
                              std::max(result.r_id, result.s_id));
    out_->emplace_back(PairKey(result.r_id, result.s_id),
                       static_cast<int64_t>(clock_->now()));
  }

 private:
  Clock* clock_;
  SpanRecorder* recorder_;
  std::vector<std::pair<uint64_t, int64_t>>* out_;
};

struct UnitSnap {
  bool router = false;
  uint64_t busy_ns = 0;
  uint64_t blocked_sends = 0;
  uint64_t blocked_ns = 0;
  uint64_t dequeue_wait_ns = 0;
  uint64_t messages = 0;
};

// Counters read at the edges of the measured window (driver thread).
struct Snapshot {
  int64_t wall_ns = 0;
  double cpu_s = 0;
  uint64_t messages = 0;
  uint64_t results = 0;
  uint64_t probes = 0;
  uint64_t candidates = 0;
  SimTime store_ns = 0;
  SimTime probe_ns = 0;
  SimTime punct_ns = 0;
  std::map<std::string, UnitSnap> units;
};

Snapshot Take(BicliqueEngine& engine, Executor& exec) {
  Snapshot snap;
  snap.wall_ns = static_cast<int64_t>(exec.clock()->now());
  snap.cpu_s = CpuSeconds();
  EngineStats stats = engine.Stats();
  snap.messages = stats.messages;
  snap.results = stats.results;
  snap.probes = stats.probes;
  snap.candidates = stats.probe_candidates;
  for (const bistream::UnitRecord& u : engine.topology().units()) {
    const bistream::Joiner* joiner = engine.joiner(u.id);
    if (joiner == nullptr) continue;
    snap.store_ns += joiner->stats().busy_store_ns;
    snap.probe_ns += joiner->stats().busy_probe_ns;
    snap.punct_ns += joiner->stats().busy_punct_ns;
  }
  exec.ForEachUnit([&snap](Unit& unit) {
    const bistream::NodeStats& s = unit.stats();
    UnitSnap& u = snap.units[unit.label()];
    u.router = unit.label().rfind("router", 0) == 0;
    u.busy_ns = s.busy_ns;
    u.blocked_sends = s.blocked_sends;
    u.blocked_ns = s.blocked_ns;
    u.dequeue_wait_ns = s.dequeue_wait_ns;
    u.messages = s.messages_processed;
  });
  return snap;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Per-layer metrics from public counters over the measured window.
void CounterMetrics(const Snapshot& a, const Snapshot& b, uint64_t tuples,
                    std::map<std::string, double>* m) {
  double wall = static_cast<double>(b.wall_ns - a.wall_ns);
  double router_max = 0, joiner_max = 0, joiner_sum = 0, joiner_busy = 0;
  int joiners = 0;
  double blocked_sends = 0, blocked_ns = 0, wait_ns = 0, msgs = 0;
  for (const auto& [label, end] : b.units) {
    UnitSnap start;
    if (auto it = a.units.find(label); it != a.units.end()) start = it->second;
    double busy = static_cast<double>(end.busy_ns - start.busy_ns);
    if (end.router) {
      router_max = std::max(router_max, busy / wall);
    } else {
      joiner_max = std::max(joiner_max, busy / wall);
      joiner_sum += busy / wall;
      joiner_busy += busy;
      ++joiners;
    }
    blocked_sends +=
        static_cast<double>(end.blocked_sends - start.blocked_sends);
    blocked_ns += static_cast<double>(end.blocked_ns - start.blocked_ns);
    wait_ns += static_cast<double>(end.dequeue_wait_ns - start.dequeue_wait_ns);
    msgs += static_cast<double>(end.messages - start.messages);
  }
  double n = static_cast<double>(tuples);
  (*m)["router.busy_share_max"] = router_max;
  (*m)["router.msgs_per_tuple"] =
      Ratio(static_cast<double>(b.messages - a.messages), n);
  (*m)["inbox.blocked_sends"] = blocked_sends;
  (*m)["inbox.blocked_ms"] = blocked_ns / 1e6;
  (*m)["inbox.queue_wait_us_mean"] = Ratio(wait_ns, msgs) / 1e3;
  (*m)["joiner.busy_share_max"] = joiner_max;
  (*m)["joiner.busy_share_mean"] = Ratio(joiner_sum, joiners);
  (*m)["joiner.store_share"] =
      Ratio(static_cast<double>(b.store_ns - a.store_ns), joiner_busy);
  (*m)["joiner.probe_share"] =
      Ratio(static_cast<double>(b.probe_ns - a.probe_ns), joiner_busy);
  (*m)["joiner.punct_share"] =
      Ratio(static_cast<double>(b.punct_ns - a.punct_ns), joiner_busy);
  double candidates = static_cast<double>(b.candidates - a.candidates);
  double results = static_cast<double>(b.results - a.results);
  (*m)["index.candidates_per_probe"] =
      Ratio(candidates, static_cast<double>(b.probes - a.probes));
  (*m)["index.hit_ratio"] = Ratio(results, candidates);
  (*m)["sink.results_per_tuple"] = Ratio(results, n);
}

// Per-layer metrics from the benchmark's own spans.
void SpanMetrics(const SpanRecorder& rec, std::map<std::string, double>* m,
                 uint64_t* longest_joiner_tuple) {
  const int64_t from = rec.window_start_ns(), to = rec.window_end_ns();
  std::array<LayerAgg, kNumLayers> agg = rec.Aggregate();
  auto durations = [&](Layer layer) {
    LogHistogram d;
    for (const Span& s : rec.Kept(layer, from, to)) {
      d.Record(s.end_ns - s.start_ns);
    }
    return d;
  };
  auto self_mean = [&](Layer layer) {
    const LayerAgg& a = agg[static_cast<size_t>(layer)];
    return Ratio(static_cast<double>(a.self_ns), static_cast<double>(a.count));
  };
  LogHistogram inject = durations(Layer::kIngest);
  (*m)["ingest.inject_ns_p50"] = inject.Quantile(0.50);
  (*m)["ingest.inject_ns_p99"] = inject.Quantile(0.99);
  (*m)["ingest.blocked_share"] =
      Ratio(static_cast<double>(agg[static_cast<size_t>(Layer::kIngest)]
                                    .total_ns),
            static_cast<double>(to - from));
  (*m)["inbox.send_ns_p99"] = durations(Layer::kInbox).Quantile(0.99);
  (*m)["router.handle_ns"] = self_mean(Layer::kRouter);
  (*m)["joiner.handle_ns"] = self_mean(Layer::kJoiner);
  const LayerAgg& joiner = agg[static_cast<size_t>(Layer::kJoiner)];
  (*m)["joiner.handle_max_ms"] = static_cast<double>(joiner.max_ns) / 1e6;
  *longest_joiner_tuple = joiner.max_tuple_id;
  (*m)["sink.onresult_ns"] = self_mean(Layer::kSink);
  (*m)["order.probe_disorder_max_ms"] =
      static_cast<double>(rec.ProbeDisorderMaxUs()) / 1e3;
}

OracleOutcome Check(const std::vector<uint64_t>& expected,
                    std::vector<std::pair<uint64_t, int64_t>>* results,
                    const std::vector<TimedTuple>& inputs) {
  OracleOutcome out;
  out.expected = expected.size();
  out.produced = results->size();
  std::sort(results->begin(), results->end());
  auto ts_of = [&](uint64_t id) { return inputs[id - 1].tuple.ts; };
  size_t i = 0, j = 0;
  while (i < expected.size() || j < results->size()) {
    if (j == results->size() ||
        (i < expected.size() && expected[i] < (*results)[j].first)) {
      uint64_t key = expected[i++];
      ++out.missing;
      EventTime a = ts_of(key >> 32), b = ts_of(key & 0xFFFFFFFFu);
      EventTime dts = a > b ? a - b : b - a;
      out.miss_offsets_ms.push_back(static_cast<double>(dts - kWindow) / 1e3);
    } else if (i == expected.size() || (*results)[j].first < expected[i]) {
      ++out.spurious;
      ++j;
    } else {
      uint64_t key = expected[i++];
      ++j;
      while (j < results->size() && (*results)[j].first == key) {
        ++out.duplicates;
        ++j;
      }
    }
  }
  return out;
}


// Serves due driver-clock timers (failure detector, crash plan), then
// sleeps until `due` on the executor clock. The sleep is an absolute
// CLOCK_MONOTONIC deadline (the executor clock is steady_clock from an
// epoch; `mono_offset` converts), so the driver takes no CPU while it
// waits and a late wake-up does not push back later tuples.
void WaitUntil(Executor* exec, int64_t due, int64_t mono_offset) {
  exec->RunUntil(0);
  if (due <= static_cast<int64_t>(exec->clock()->now())) return;
  const int64_t at = due + mono_offset;
  timespec ts{.tv_sec = static_cast<time_t>(at / 1'000'000'000),
              .tv_nsec = static_cast<long>(at % 1'000'000'000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
  exec->RunUntil(0);
}

// CLOCK_MONOTONIC ns minus executor-clock ns.
int64_t MonotonicOffset(Clock* clock) {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  int64_t mono = static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  return mono - static_cast<int64_t>(clock->now());
}

// The system under test for one run: executor (decorated when traced),
// engine over the benchmark sink, and the fault-tolerance controllers.
// Construction plus Start() is the set-up the benchmark times.
class Rig {
 public:
  Rig(const WorkloadSpec& spec, const BicliqueOptions& options,
      SpanRecorder* recorder,
      std::vector<std::pair<uint64_t, int64_t>>* results) {
    auto start = std::chrono::steady_clock::now();
    ParallelExecutorOptions exec_options;
    exec_options.queue_capacity = options.queue_capacity;
    inner_ = std::make_unique<ParallelExecutor>(options.cost, exec_options);
    exec_ = inner_.get();
    if (recorder != nullptr) {
      traced_ = std::make_unique<TracedExecutor>(inner_.get(), recorder);
      exec_ = traced_.get();
    }
    sink_ = std::make_unique<BenchSink>(exec_->clock(), recorder, results);
    engine_ = std::make_unique<BicliqueEngine>(exec_, options, sink_.get());
    if (spec.fault_tolerance) {
      // The wall-clock detector settings the parallel E15 sweep uses.
      FailureDetectorOptions detect;
      detect.check_interval = 10 * kMillisecond;
      detect.timeout = 40 * kMillisecond;
      detect.backoff = 50 * kMillisecond;
      detector_ = std::make_unique<FailureDetector>(engine_.get(), detect);
      detector_->Start();
    }
    engine_->Start();
    setup_s_ = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  }

  // Teardown order: controllers before the engine they drive, the engine
  // before the executor, and the decorator only after the inner executor
  // has joined the worker threads that still call into its clocks.
  ~Rig() {
    injector_.reset();
    detector_.reset();
    engine_.reset();
    inner_.reset();
    traced_.reset();
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Plans one joiner crash at `at` on the executor clock.
  void PlanCrash(SimTime at) {
    FaultPlan plan;
    plan.crashes.push_back({.at = at, .unit = kCrashVictim});
    BicliqueEngine* engine = engine_.get();
    injector_ = std::make_unique<FaultInjector>(
        exec_->clock(), plan,
        [engine](const FaultPlan::Crash& crash, uint64_t draw) {
          return engine->InjectCrash(crash, draw);
        });
    injector_->Start();
  }
  uint64_t planned_crashes() const {
    return injector_ != nullptr ? injector_->timeline().size() : 0;
  }

  Executor* exec() const { return exec_; }
  Clock* clock() const { return exec_->clock(); }
  BicliqueEngine& engine() const { return *engine_; }
  double setup_s() const { return setup_s_; }

 private:
  std::unique_ptr<ParallelExecutor> inner_;
  std::unique_ptr<TracedExecutor> traced_;
  Executor* exec_ = nullptr;
  std::unique_ptr<BenchSink> sink_;
  std::unique_ptr<BicliqueEngine> engine_;
  std::unique_ptr<FailureDetector> detector_;
  std::unique_ptr<FaultInjector> injector_;
  double setup_s_ = 0;
};

}  // namespace

TrialBuffers::TrialBuffers(const std::vector<TimedTuple>& inputs,
                           size_t expected_pairs)
    : due_ns(inputs.size() + 1, 0) {
  results.reserve(expected_pairs + expected_pairs / 8 + 4096);
}

TrialResult RunTrial(const TrialConfig& config, TrialBuffers* buffers) {
  const WorkloadSpec& spec = *config.spec;
  const std::vector<TimedTuple>& inputs = *config.inputs;
  BicliqueOptions options = EngineOptions(spec);
  // The traced run also takes the engine's own queue/order breakdown.
  if (config.traced) options.telemetry.trace_every = 64;
  buffers->results.clear();
  TrialResult result;
  std::map<std::string, double>& m = result.metrics;

  ResetPeakRss();
  std::unique_ptr<SpanRecorder> recorder;
  if (config.traced) recorder = std::make_unique<SpanRecorder>();
  auto rig = std::make_unique<Rig>(spec, options, recorder.get(),
                                   &buffers->results);
  m["setup_s"] = rig->setup_s();
  Executor* exec = rig->exec();
  Clock* clock = rig->clock();
  BicliqueEngine& engine = rig->engine();

  // --- drive --------------------------------------------------------------
  const int64_t t0 = static_cast<int64_t>(clock->now());
  const int64_t mono_offset = MonotonicOffset(clock);
  if (spec.crash_at_s >= 0) {
    rig->PlanCrash(static_cast<SimTime>(t0) +
                   static_cast<SimTime>(spec.crash_at_s * 1e9));
  }

  // The measured window opens at the first tuple one window W of event
  // time into the stream, when the index has reached its steady size.
  const size_t n = inputs.size();
  const size_t ws = static_cast<size_t>(
      std::lower_bound(inputs.begin(), inputs.end(), kWindowNs,
                       [](const TimedTuple& tt, int64_t at) {
                         return static_cast<int64_t>(tt.arrival) < at;
                       }) -
      inputs.begin());
  BISTREAM_CHECK_LT(ws, n);
  Snapshot start, end;
  int64_t window_due = 0;
  int64_t prev_return = t0;
  for (size_t i = 0; i < n; ++i) {
    const TimedTuple& tt = inputs[i];
    int64_t due;
    if (spec.open_loop) {
      due = t0 + static_cast<int64_t>(tt.arrival);
      WaitUntil(exec, due, mono_offset);
    } else {
      due = prev_return;
      if ((i & 1023) == 0) exec->RunUntil(0);
    }
    if (i == ws) {
      window_due = due;
      start = Take(engine, *exec);
      if (recorder) recorder->SetWindowOpen(true);
    }
    buffers->due_ns[tt.tuple.id] = due;
    {
      SpanRecorder::Scope scope(recorder.get(), Layer::kIngest, 0,
                                tt.tuple.id);
      engine.InjectNow(tt.tuple);
    }
    int64_t accepted = static_cast<int64_t>(clock->now());
    if (i >= ws) result.send_lag.Record(accepted - due);
    prev_return = accepted;
  }
  end = Take(engine, *exec);
  if (recorder) recorder->SetWindowOpen(false);
  const int64_t t_end = end.wall_ns;

  // --- drain --------------------------------------------------------------
  if (spec.crash_at_s >= 0) {
    // A crash must be recovered before the stop-flush halts the heartbeats
    // detection needs; idle rounds carry no data, so wait (bounded).
    int64_t deadline = t_end + 2'000'000'000;
    for (;;) {
      exec->RunUntil(0);
      EngineStats s = engine.Stats();
      bool settled = s.crashes == s.recoveries;
      for (const RecoveryEvent& e : engine.recovery_events()) {
        settled = settled && e.caught_up_at != 0;
      }
      if (settled || static_cast<int64_t>(clock->now()) >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  engine.FlushAndStop();
  exec->RunUntilIdle();
  m["drain_ms"] = static_cast<double>(static_cast<int64_t>(clock->now()) -
                                      t_end) /
                  1e6;
  m["peak_rss_mb"] = PeakRssMb();

  // --- harvest ------------------------------------------------------------
  const uint64_t window_tuples = n - ws;
  result.drive_s = static_cast<double>(t_end - t0) / 1e9;
  const double window_s = static_cast<double>(t_end - start.wall_ns) / 1e9;
  m["throughput_tps"] = static_cast<double>(window_tuples) / window_s;
  m["cpu_us_per_tuple"] =
      (end.cpu_s - start.cpu_s) * 1e6 / static_cast<double>(window_tuples);
  m["send_lag_p99_ms"] = result.send_lag.Quantile(0.99) / 1e6;
  EngineStats stats = engine.Stats();
  std::vector<RecoveryEvent> recoveries = engine.recovery_events();
  uint64_t planned = rig->planned_crashes();
  double recovery_ms = 0, detect_ms = 0, catchup_ms = 0;
  for (const RecoveryEvent& e : recoveries) {
    // Only planned crashes: the engine stamps a fenced healthy joiner with
    // crashed_at == detected_at.
    if (e.crashed_at == 0 || e.crashed_at == e.detected_at ||
        e.caught_up_at == 0) {
      continue;
    }
    recovery_ms = std::max(
        recovery_ms, static_cast<double>(e.caught_up_at - e.crashed_at) / 1e6);
    detect_ms = std::max(
        detect_ms, static_cast<double>(e.detected_at - e.crashed_at) / 1e6);
    catchup_ms = std::max(
        catchup_ms, static_cast<double>(e.caught_up_at - e.detected_at) / 1e6);
  }
  m["recovery_ms"] = recovery_ms;
  m["unplanned_recoveries"] = static_cast<double>(
      recoveries.size() > planned ? recoveries.size() - planned : 0);
  m["recovery.detect_ms"] = detect_ms;
  m["recovery.catchup_ms"] = catchup_ms;
  m["recovery.replayed_messages"] =
      static_cast<double>(stats.replayed_messages);
  m["recovery.suppressed_duplicates"] =
      static_cast<double>(stats.suppressed_duplicates);
  m["recovery.checkpoint_bytes"] = static_cast<double>(stats.checkpoint_bytes);
  m["recovery.wasted_replay_ratio"] =
      Ratio(static_cast<double>(stats.suppressed_duplicates),
            static_cast<double>(stats.replayed_messages));
  m["index.peak_state_mb"] =
      static_cast<double>(stats.peak_state_bytes) / (1024.0 * 1024.0);
  m["timer.lag_max_ms"] = static_cast<double>(exec->timer_lag_max_ns()) / 1e6;
  CounterMetrics(start, end, window_tuples, &m);

  if (config.traced) {
    engine.FinalizeDiagnostics();  // Folds the tracer's worker buffers.
    LogHistogram order, queue;
    for (const bistream::TraceSpan& span : engine.tracer().spans()) {
      if (span.released == 0 || span.join_arrival == 0) continue;
      if (static_cast<int64_t>(span.ingress) < start.wall_ns) continue;
      order.Record(static_cast<int64_t>(span.released - span.join_arrival));
      queue.Record(static_cast<int64_t>(span.join_arrival - span.ingress));
    }
    m["order.wait_ms_p50"] = order.Quantile(0.5) / 1e6;
    m["order.queue_ms_p50"] = queue.Quantile(0.5) / 1e6;
  }

  // Tear down before reading spans: joining the workers publishes their
  // buffers.
  rig.reset();

  if (config.traced) {
    SpanMetrics(*recorder, &m, &result.longest_joiner_tuple);
    if (!config.span_path.empty() && recorder->WriteTsv(config.span_path)) {
      result.spans_written = config.span_path;
    }
  }

  // --- due-time latency ---------------------------------------------------
  for (const auto& [key, at] : buffers->results) {
    uint64_t r = key >> 32, s = key & 0xFFFFFFFFu;
    if (r == 0 || s == 0 || r > n || s > n) continue;
    int64_t later = std::max(buffers->due_ns[r], buffers->due_ns[s]);
    if (later < window_due || later > t_end) continue;
    result.latency.Record(at - later);
  }
  m["latency_p50_ms"] = result.latency.Quantile(0.50) / 1e6;
  m["latency_p99_ms"] = result.latency.Quantile(0.99) / 1e6;

  // --- oracle -------------------------------------------------------------
  result.oracle = Check(*config.expected, &buffers->results, inputs);
  m["failed_frac"] = Ratio(static_cast<double>(result.oracle.failed()),
                           static_cast<double>(result.oracle.expected));
  return result;
}

double SetupOnce(const WorkloadSpec& spec) {
  std::vector<std::pair<uint64_t, int64_t>> results;
  Rig rig(spec, EngineOptions(spec), nullptr, &results);
  rig.engine().FlushAndStop();
  rig.exec()->RunUntilIdle();
  return rig.setup_s();
}

}  // namespace perfbench
