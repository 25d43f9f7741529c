// Benchmark-side span tracing for the traced run.
//
// TracedExecutor decorates the parallel backend through the public
// runtime::Executor interface: its units wrap the handler the engine
// installs, and its transports wrap Send. The driver wraps InjectNow and the benchmark sink
// wraps OnResult. Every wrap records a span (layer, start, end, unit, the
// tuple id when the message carries one, enclosing span) in the calling
// thread's own buffer; nothing is shared on the hot path. Self time is a
// span's duration minus the time its child spans on the same thread cover.
//
// Spans of every tuple feed the per-layer aggregates while the measured
// window is open; full span records are kept for one tuple id in
// kKeepEvery (and one id-less span in kKeepEvery per thread) so memory stays
// bounded, and WriteTsv dumps them when the run ends.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/executor.h"

namespace perfbench {

enum class Layer : uint8_t {
  kIngest,      // Driver: BicliqueEngine::InjectNow.
  kInbox,       // Any thread: Transport::Send into a bounded inbox.
  kRouter,      // Router unit handler.
  kJoiner,      // Joiner unit handler (order buffer, index, emit).
  kSink,        // The benchmark's result sink.
  kCount,
};
const char* LayerName(Layer layer);
inline constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t tuple_id = 0;
  /// Index of the enclosing kept span in the same thread buffer, or -1.
  int32_t parent = -1;
  uint32_t unit = 0;
  Layer layer = Layer::kIngest;
};

struct LayerAgg {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  int64_t max_ns = 0;  // Longest single span,
  uint64_t max_tuple_id = 0;  // and the tuple its message carried (0: none).
};

/// Steady-clock nanoseconds (the span time base).
int64_t NowNs();

class SpanRecorder {
 public:
  static constexpr uint64_t kKeepEvery = 16;

  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Aggregates count only spans that end while the window is open. The
  /// driver opens and closes it once; window_start_ns()/window_end_ns()
  /// give its bounds on the span clock.
  void SetWindowOpen(bool open) {
    (open ? window_start_ns_ : window_end_ns_) = NowNs();
    window_open_.store(open, std::memory_order_relaxed);
  }
  int64_t window_start_ns() const { return window_start_ns_; }
  int64_t window_end_ns() const { return window_end_ns_; }

  /// RAII span on the calling thread.
  class Scope {
   public:
    Scope(SpanRecorder* rec, Layer layer, uint32_t unit, uint64_t tuple_id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
  };

  /// Notes the probes a joiner handler call receives (a tuple message or
  /// a batch), keyed as the joiner's order buffer releases them.
  void RecordProbes(uint32_t unit, const bistream::Message& msg);
  /// Largest event-time distance (us) by which a probe was released at a
  /// joiner behind the newest probe that joiner had already released. The
  /// joiner expires its index by probe timestamps, so it loses pairs only
  /// where this exceeds the engine's expiry slack. Call after the executor
  /// quiesced.
  int64_t ProbeDisorderMaxUs() const;

  /// Per-layer sums over all threads. Call after the executor quiesced.
  std::array<LayerAgg, kNumLayers> Aggregate() const;
  /// Kept spans of `layer` that started in [from, to), all threads.
  std::vector<Span> Kept(Layer layer, int64_t from, int64_t to) const;
  /// Writes every kept span as tab-separated lines (thread, layer, unit,
  /// tuple id, start, end, parent), one thread's spans after another in
  /// record order; parent is the enclosing span's position among its
  /// thread's lines, -1 for none. Returns false on an I/O error.
  bool WriteTsv(const std::string& path) const;

 private:
  struct Open {
    int64_t start_ns;
    int64_t child_ns;
    uint64_t tuple_id;
    int32_t kept_index;
    uint32_t unit;
    Layer layer;
  };
  /// A probe in the order buffer's release order: (round, seq, router).
  struct Probe {
    uint64_t round;
    uint64_t seq;
    uint32_t router;
    uint32_t unit;
    bistream::EventTime ts;
  };
  struct ThreadBuffer {
    std::vector<Span> kept;
    std::vector<Probe> probes;
    std::vector<Open> stack;
    std::array<LayerAgg, kNumLayers> agg{};
    uint64_t idless_seen = 0;
  };
  ThreadBuffer* Local();
  void Begin(Layer layer, uint32_t unit, uint64_t tuple_id);
  void End();

  const uint64_t serial_;
  std::atomic<bool> window_open_{false};
  int64_t window_start_ns_ = 0;  // Driver thread only.
  int64_t window_end_ns_ = 0;
  mutable std::mutex buffers_mu_;  // Guards registration, not appends.
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Executor decorator recording router/joiner/inbox spans; see file
/// comment. Units and transports it hands out wrap the inner backend's.
class TracedExecutor final : public bistream::runtime::Executor {
 public:
  TracedExecutor(bistream::runtime::Executor* inner, SpanRecorder* recorder);
  ~TracedExecutor() override;
  TracedExecutor(const TracedExecutor&) = delete;
  TracedExecutor& operator=(const TracedExecutor&) = delete;

  bistream::runtime::BackendKind kind() const override {
    return inner_->kind();
  }
  bistream::runtime::Unit* AddUnit(const std::string& label) override;
  bistream::runtime::Transport* Connect(bistream::runtime::Unit* dst) override;
  bistream::runtime::Transport* Connect(
      bistream::runtime::Unit* dst, bistream::ChannelOptions options) override;
  bistream::runtime::Clock* clock() override { return inner_->clock(); }
  const bistream::CostModel& cost() const override { return inner_->cost(); }
  void RunUntil(bistream::SimTime deadline) override {
    inner_->RunUntil(deadline);
  }
  void RunUntilIdle() override { inner_->RunUntilIdle(); }
  uint64_t pending_events() const override { return inner_->pending_events(); }
  uint64_t total_messages() const override { return inner_->total_messages(); }
  uint64_t total_bytes() const override { return inner_->total_bytes(); }
  uint64_t total_dropped() const override { return inner_->total_dropped(); }
  uint64_t total_dropped_dead() const override {
    return inner_->total_dropped_dead();
  }
  uint64_t total_lost_on_crash() const override {
    return inner_->total_lost_on_crash();
  }
  bistream::SimTime timer_lag_max_ns() const override {
    return inner_->timer_lag_max_ns();
  }
  uint64_t timer_fires() const override { return inner_->timer_fires(); }
  void SetTimeline(
      std::shared_ptr<bistream::runtime::TimelineSink> sink) override {
    inner_->SetTimeline(std::move(sink));
  }
  bistream::runtime::TimelineSink* timeline() const override {
    return inner_->timeline();
  }
  void ForEachUnit(
      const std::function<void(bistream::runtime::Unit&)>& fn) override;

 private:
  class TracedUnit;
  class TracedTransport;

  /// The inner backend's unit behind one of this decorator's units.
  static bistream::runtime::Unit* InnerOf(bistream::runtime::Unit* unit);
  /// Wraps an inner transport to `dst` (a decorator unit) and keeps it.
  bistream::runtime::Transport* Wrap(bistream::runtime::Unit* dst,
                                     bistream::runtime::Transport* inner);

  bistream::runtime::Executor* inner_;
  SpanRecorder* recorder_;
  mutable std::mutex mu_;  // Guards units_/transports_ (recovery adds units).
  std::vector<std::unique_ptr<TracedUnit>> units_;
  std::vector<std::unique_ptr<TracedTransport>> transports_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
