// In-memory span recorder for the benchmark's traced runs. Spans are
// recorded around calls into library layers from the benchmark's own code:
// each span has a name, start and end (steady clock), the span open on the
// same thread when it began (its parent), a request id (0 = none) and an
// item count (the candidates ranked, documents embedded, ...).
//
// Each thread appends to its own buffer, so recording takes no lock after a
// thread's first span. Nothing is written until WriteJson() at the end.
#ifndef MICROREC_PERFBENCH_SPANS_H_
#define MICROREC_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class SpanRecorder {
 public:
  struct Span {
    const char* name = "";  // string literal or interned, never freed
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;  // index into the same thread's buffer
    uint64_t request = 0;
    uint64_t items = 0;
  };

  /// Per-name totals derived from the spans.
  struct LayerTotals {
    uint64_t count = 0;
    uint64_t items = 0;
    double busy_s = 0.0;  // sum of span durations, across threads
    double self_s = 0.0;  // busy time minus the time child spans cover
  };

  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span on the calling thread; returns its handle for End().
  int64_t Begin(const char* name, uint64_t request);
  void End(int64_t handle, uint64_t items);

  /// Interns a dynamically built span name for the recorder's lifetime.
  const char* Intern(const std::string& name);

  uint64_t NumSpans() const;
  std::map<std::string, LayerTotals> Totals() const;
  /// Writes every span as JSON (one object per line inside an array).
  bool WriteJson(const std::string& path) const;

 private:
  struct Buffer {
    uint32_t thread = 0;
    std::vector<Span> spans;
    std::vector<int64_t> open;  // stack of open span indices
  };
  Buffer* LocalBuffer();

  const uint64_t id_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;  // guards buffers_ and names_
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::vector<std::unique_ptr<std::string>> names_;
};

/// RAII span; a null recorder makes it a no-op, so untraced runs call the
/// same code with tracing off.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t request = 0)
      : recorder_(recorder),
        handle_(recorder != nullptr ? recorder->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(handle_, items_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_items(uint64_t items) { items_ = items; }

 private:
  SpanRecorder* recorder_;
  int64_t handle_;
  uint64_t items_ = 0;
};

}  // namespace perfbench

#endif  // MICROREC_PERFBENCH_SPANS_H_
