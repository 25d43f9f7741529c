#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <tuple>
#include <utility>

#include "common/logging.h"

namespace perfbench {

using bistream::Message;
using bistream::SimTime;
using bistream::runtime::Clock;
using bistream::runtime::Transport;
using bistream::runtime::Unit;

namespace {

std::atomic<uint64_t> g_next_serial{1};

uint64_t TupleIdOf(const Message& msg) {
  if (msg.kind == Message::Kind::kTuple) return msg.tuple.id;
  if (msg.kind == Message::Kind::kBatch && !msg.batch.empty()) {
    return msg.batch.front().tuple.id;
  }
  return 0;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kIngest: return "ingest";
    case Layer::kInbox: return "inbox";
    case Layer::kRouter: return "router";
    case Layer::kJoiner: return "joiner";
    case Layer::kSink: return "sink";
    case Layer::kCount: break;
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// SpanRecorder

SpanRecorder::SpanRecorder() : serial_(g_next_serial.fetch_add(1)) {}

SpanRecorder::ThreadBuffer* SpanRecorder::Local() {
  // Keyed by the recorder's process-unique serial, so a recorder allocated
  // at a recycled address never inherits a stale buffer.
  thread_local uint64_t cached_serial = 0;
  thread_local ThreadBuffer* cached = nullptr;
  if (cached_serial != serial_) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->kept.reserve(1 << 14);
    buffer->stack.reserve(8);
    cached = buffer.get();
    cached_serial = serial_;
    std::lock_guard<std::mutex> lk(buffers_mu_);
    buffers_.push_back(std::move(buffer));
  }
  return cached;
}

void SpanRecorder::Begin(Layer layer, uint32_t unit, uint64_t tuple_id) {
  ThreadBuffer* buf = Local();
  int32_t kept_index = -1;
  bool keep = tuple_id != 0 ? tuple_id % kKeepEvery == 0
                            : buf->idless_seen++ % kKeepEvery == 0;
  int64_t now = NowNs();
  if (keep) {
    int32_t parent = -1;
    if (!buf->stack.empty()) parent = buf->stack.back().kept_index;
    kept_index = static_cast<int32_t>(buf->kept.size());
    buf->kept.push_back(Span{.start_ns = now,
                             .end_ns = 0,
                             .tuple_id = tuple_id,
                             .parent = parent,
                             .unit = unit,
                             .layer = layer});
  }
  buf->stack.push_back(Open{.start_ns = now,
                            .child_ns = 0,
                            .tuple_id = tuple_id,
                            .kept_index = kept_index,
                            .unit = unit,
                            .layer = layer});
}

void SpanRecorder::End() {
  int64_t now = NowNs();
  ThreadBuffer* buf = Local();
  BISTREAM_CHECK(!buf->stack.empty());
  Open open = buf->stack.back();
  buf->stack.pop_back();
  int64_t duration = now - open.start_ns;
  if (open.kept_index >= 0) buf->kept[open.kept_index].end_ns = now;
  if (!buf->stack.empty()) buf->stack.back().child_ns += duration;
  if (window_open_.load(std::memory_order_relaxed)) {
    LayerAgg& agg = buf->agg[static_cast<size_t>(open.layer)];
    ++agg.count;
    agg.total_ns += duration;
    agg.self_ns += duration - open.child_ns;
    if (duration > agg.max_ns) {
      agg.max_ns = duration;
      agg.max_tuple_id = open.tuple_id;
    }
  }
}

SpanRecorder::Scope::Scope(SpanRecorder* rec, Layer layer, uint32_t unit,
                           uint64_t tuple_id)
    : rec_(rec) {
  if (rec_ != nullptr) rec_->Begin(layer, unit, tuple_id);
}

SpanRecorder::Scope::~Scope() {
  if (rec_ != nullptr) rec_->End();
}

void SpanRecorder::RecordProbes(uint32_t unit, const Message& msg) {
  ThreadBuffer* buf = Local();
  if (msg.kind == Message::Kind::kTuple) {
    if (msg.stream != bistream::StreamKind::kJoin) return;
    buf->probes.push_back(Probe{.round = msg.round,
                                .seq = msg.seq,
                                .router = msg.router_id,
                                .unit = unit,
                                .ts = msg.tuple.ts});
  } else if (msg.kind == Message::Kind::kBatch) {
    for (const bistream::BatchEntry& e : msg.batch) {
      if (e.stream != bistream::StreamKind::kJoin) continue;
      buf->probes.push_back(Probe{.round = e.round,
                                  .seq = e.seq,
                                  .router = msg.router_id,
                                  .unit = unit,
                                  .ts = e.tuple.ts});
    }
  }
}

int64_t SpanRecorder::ProbeDisorderMaxUs() const {
  std::vector<Probe> probes;
  {
    std::lock_guard<std::mutex> lk(buffers_mu_);
    for (const auto& buf : buffers_) {
      probes.insert(probes.end(), buf->probes.begin(), buf->probes.end());
    }
  }
  auto key = [](const Probe& p) {
    return std::tie(p.unit, p.round, p.seq, p.router);
  };
  std::sort(probes.begin(), probes.end(),
            [&key](const Probe& a, const Probe& b) { return key(a) < key(b); });
  int64_t worst = 0;
  bistream::EventTime newest = 0;
  for (size_t i = 0; i < probes.size(); ++i) {
    if (i == 0 || probes[i].unit != probes[i - 1].unit) newest = probes[i].ts;
    newest = std::max(newest, probes[i].ts);
    worst = std::max(worst, static_cast<int64_t>(newest - probes[i].ts));
  }
  return worst;
}

std::array<LayerAgg, kNumLayers> SpanRecorder::Aggregate() const {
  std::array<LayerAgg, kNumLayers> out{};
  std::lock_guard<std::mutex> lk(buffers_mu_);
  for (const auto& buf : buffers_) {
    for (size_t i = 0; i < kNumLayers; ++i) {
      out[i].count += buf->agg[i].count;
      out[i].total_ns += buf->agg[i].total_ns;
      out[i].self_ns += buf->agg[i].self_ns;
      if (buf->agg[i].max_ns > out[i].max_ns) {
        out[i].max_ns = buf->agg[i].max_ns;
        out[i].max_tuple_id = buf->agg[i].max_tuple_id;
      }
    }
  }
  return out;
}

std::vector<Span> SpanRecorder::Kept(Layer layer, int64_t from,
                                     int64_t to) const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lk(buffers_mu_);
  for (const auto& buf : buffers_) {
    for (const Span& span : buf->kept) {
      if (span.layer == layer && span.end_ns > 0 && span.start_ns >= from &&
          span.start_ns < to) {
        out.push_back(span);
      }
    }
  }
  return out;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tlayer\tunit\ttuple_id\tstart_ns\tend_ns\tparent\n");
  std::lock_guard<std::mutex> lk(buffers_mu_);
  for (size_t t = 0; t < buffers_.size(); ++t) {
    for (const Span& s : buffers_[t]->kept) {
      std::fprintf(f, "%zu\t%s\t%u\t%llu\t%lld\t%lld\t%d\n", t,
                   LayerName(s.layer), s.unit,
                   static_cast<unsigned long long>(s.tuple_id),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent);
    }
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// TracedExecutor

class TracedExecutor::TracedUnit final : public Unit {
 public:
  TracedUnit(Unit* inner, SpanRecorder* rec, Layer handler_layer)
      : inner_(inner), rec_(rec), handler_layer_(handler_layer) {}

  Unit* inner() const { return inner_; }

  void SetHandler(bistream::NodeHandler handler) override {
    inner_->SetHandler([handler = std::move(handler), rec = rec_,
                        layer = handler_layer_,
                        unit = inner_->id()](const Message& msg) {
      if (layer == Layer::kJoiner) rec->RecordProbes(unit, msg);
      SpanRecorder::Scope scope(rec, layer, unit, TupleIdOf(msg));
      return handler(msg);
    });
  }
  void Deliver(Message msg) override { inner_->Deliver(std::move(msg)); }
  void Fail() override { inner_->Fail(); }
  void Restart() override { inner_->Restart(); }
  bool alive() const override { return inner_->alive(); }
  uint32_t id() const override { return inner_->id(); }
  const std::string& label() const override { return inner_->label(); }
  const bistream::NodeStats& stats() const override { return inner_->stats(); }
  size_t queue_depth() const override { return inner_->queue_depth(); }
  size_t window_queue_hwm() const override {
    return inner_->window_queue_hwm();
  }
  void ResetWindowQueueHwm() override { inner_->ResetWindowQueueHwm(); }
  double SampleUtilization(SimTime now) override {
    return inner_->SampleUtilization(now);
  }
  Clock* clock() override { return inner_->clock(); }

 private:
  Unit* inner_;
  SpanRecorder* rec_;
  Layer handler_layer_;
};

class TracedExecutor::TracedTransport final : public Transport {
 public:
  TracedTransport(Transport* inner, Unit* dst, SpanRecorder* rec)
      : inner_(inner), dst_(dst), rec_(rec) {}

  void Send(Message msg) override {
    SpanRecorder::Scope scope(rec_, Layer::kInbox, dst_->id(), TupleIdOf(msg));
    inner_->Send(std::move(msg));
  }
  Unit* destination() const override { return dst_; }
  uint64_t messages_sent() const override { return inner_->messages_sent(); }
  uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  uint64_t messages_dropped() const override {
    return inner_->messages_dropped();
  }

 private:
  Transport* inner_;
  Unit* dst_;
  SpanRecorder* rec_;
};

TracedExecutor::TracedExecutor(bistream::runtime::Executor* inner,
                               SpanRecorder* recorder)
    : inner_(inner), recorder_(recorder) {}

TracedExecutor::~TracedExecutor() = default;

Unit* TracedExecutor::AddUnit(const std::string& label) {
  bool router = label.rfind("router", 0) == 0;
  auto unit = std::make_unique<TracedUnit>(
      inner_->AddUnit(label), recorder_,
      router ? Layer::kRouter : Layer::kJoiner);
  std::lock_guard<std::mutex> lk(mu_);
  units_.push_back(std::move(unit));
  return units_.back().get();
}

Transport* TracedExecutor::Connect(Unit* dst) {
  return Wrap(dst, inner_->Connect(InnerOf(dst)));
}

Transport* TracedExecutor::Connect(Unit* dst,
                                   bistream::ChannelOptions options) {
  return Wrap(dst, inner_->Connect(InnerOf(dst), options));
}

Unit* TracedExecutor::InnerOf(Unit* unit) {
  auto* traced = dynamic_cast<TracedUnit*>(unit);
  BISTREAM_CHECK(traced != nullptr) << "unit not created by TracedExecutor";
  return traced->inner();
}

Transport* TracedExecutor::Wrap(Unit* dst, Transport* inner) {
  auto transport = std::make_unique<TracedTransport>(inner, dst, recorder_);
  std::lock_guard<std::mutex> lk(mu_);
  transports_.push_back(std::move(transport));
  return transports_.back().get();
}

void TracedExecutor::ForEachUnit(const std::function<void(Unit&)>& fn) {
  std::vector<Unit*> units;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& unit : units_) units.push_back(unit.get());
  }
  for (Unit* unit : units) fn(*unit);
}

}  // namespace perfbench
