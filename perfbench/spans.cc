#include "spans.h"

#include <atomic>
#include <cstdio>

namespace perfbench {
namespace {

std::atomic<uint64_t> next_recorder_id{1};

// The calling thread's buffer in the most recent recorder it used. The
// recorder id guards against a buffer of a destroyed recorder.
struct ThreadSlot {
  uint64_t recorder = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot slot;

}  // namespace

SpanRecorder::SpanRecorder()
    : id_(next_recorder_id.fetch_add(1)), epoch_(Clock::now()) {}

SpanRecorder::Buffer* SpanRecorder::LocalBuffer() {
  if (slot.recorder == id_) return static_cast<Buffer*>(slot.buffer);
  std::lock_guard<std::mutex> lock(mu_);
  auto buffer = std::make_unique<Buffer>();
  buffer->thread = static_cast<uint32_t>(buffers_.size());
  buffer->spans.reserve(1 << 12);
  slot.recorder = id_;
  slot.buffer = buffer.get();
  buffers_.push_back(std::move(buffer));
  return buffers_.back().get();
}

int64_t SpanRecorder::Begin(const char* name, uint64_t request) {
  Buffer* buffer = LocalBuffer();
  Span span;
  span.name = name;
  span.parent = buffer->open.empty() ? -1 : buffer->open.back();
  span.request = request;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
  const int64_t handle = static_cast<int64_t>(buffer->spans.size());
  buffer->spans.push_back(span);
  buffer->open.push_back(handle);
  return handle;
}

void SpanRecorder::End(int64_t handle, uint64_t items) {
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - epoch_)
                          .count();
  Buffer* buffer = LocalBuffer();
  Span& span = buffer->spans[static_cast<size_t>(handle)];
  span.end_ns = now;
  span.items = items;
  // Spans close in LIFO order on a thread (they are scoped).
  if (!buffer->open.empty() && buffer->open.back() == handle) {
    buffer->open.pop_back();
  }
}

const char* SpanRecorder::Intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  names_.push_back(std::make_unique<std::string>(name));
  return names_.back()->c_str();
}

uint64_t SpanRecorder::NumSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->spans.size();
  return n;
}

std::map<std::string, SpanRecorder::LayerTotals> SpanRecorder::Totals()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, LayerTotals> totals;
  for (const auto& buffer : buffers_) {
    // Children of one parent run one after another on the parent's thread,
    // so the time they cover is the sum of their durations.
    std::vector<int64_t> child_ns(buffer->spans.size(), 0);
    for (const Span& span : buffer->spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (size_t i = 0; i < buffer->spans.size(); ++i) {
      const Span& span = buffer->spans[i];
      LayerTotals& t = totals[span.name];
      const int64_t duration = span.end_ns - span.start_ns;
      ++t.count;
      t.items += span.items;
      t.busy_s += static_cast<double>(duration) * 1e-9;
      t.self_s += static_cast<double>(duration - child_ns[i]) * 1e-9;
    }
  }
  return totals;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("[\n", file);
  bool first = true;
  // Global span id = offset of the thread's buffer + index within it.
  int64_t offset = 0;
  for (const auto& buffer : buffers_) {
    for (size_t i = 0; i < buffer->spans.size(); ++i) {
      const Span& span = buffer->spans[i];
      std::fprintf(file,
                   "%s{\"id\":%lld,\"name\":\"%s\",\"thread\":%u,"
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%lld,"
                   "\"request\":%llu,\"items\":%llu}\n",
                   first ? "" : ",", static_cast<long long>(offset + i),
                   span.name, buffer->thread,
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns),
                   static_cast<long long>(
                       span.parent < 0 ? -1 : offset + span.parent),
                   static_cast<unsigned long long>(span.request),
                   static_cast<unsigned long long>(span.items));
      first = false;
    }
    offset += static_cast<int64_t>(buffer->spans.size());
  }
  std::fputs("]\n", file);
  return std::fclose(file) == 0;
}

}  // namespace perfbench
