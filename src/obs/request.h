// Request-level telemetry (DESIGN.md §12): one RequestTrace per served
// query, carrying the request id end-to-end so the serving ladder, the
// batch ranker and the scoring kernels attribute their wall-clock to the
// same causal tree. Stages are coarse phases of one query's life:
//
//   candidate_gen  the score-cache probe
//   score          Engine::Score work (embedding + similarity kernel)
//   rank           NaN sanitation + canonical ordering + top-K selection
//   degrade        time burned on ladder rungs that failed before the
//                  rung that actually served
//
// A RequestTrace is plumbed down as an optional pointer: every layer
// accepts nullptr and skips attribution, so offline evaluation pays
// nothing. Stage seconds live in a fixed array indexed by Stage, so a
// trace allocates nothing and attributing a stage is one add. A
// StageClock times a chain of consecutive stages from one running
// timestamp: each stage boundary is one clock read, which closes one stage
// and opens the next. When Chrome tracing is active, each stage a
// StageClock enters additionally emits a trace span tagged with the
// request id (args.rid), so one query's spans — across the client thread
// and the scoring pool's shards — can be filtered into a single causal
// tree in Perfetto.
//
// RequestTrace is not thread-safe; it belongs to the one thread driving
// the query. The sharded kernel phase is attributed as one "score" stage
// on that thread (its pool spans still carry the rid).
#ifndef MICROREC_OBS_REQUEST_H_
#define MICROREC_OBS_REQUEST_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "obs/trace.h"

namespace microrec::obs {

enum class Stage : uint8_t { kCandidateGen, kScore, kRank, kDegrade };
inline constexpr size_t kNumStages = 4;

/// Stable stage names, shared by trace spans and the per-stage latency
/// histograms (`rec.stage.<name>`).
constexpr std::string_view StageName(Stage stage) {
  constexpr std::array<std::string_view, kNumStages> kNames = {
      "candidate_gen", "score", "rank", "degrade"};
  return kNames[static_cast<size_t>(stage)];
}

class RequestTrace {
 public:
  /// `op_class` must outlive the trace (the load driver passes the static
  /// OpClassName strings).
  RequestTrace(uint64_t request_id, std::string_view op_class)
      : request_id_(request_id), op_(op_class) {}

  uint64_t id() const { return request_id_; }
  std::string_view op() const { return op_; }

  /// Accumulates `seconds` into `stage` (stages may be visited repeatedly:
  /// one query can score on several ladder rungs).
  void AddStage(Stage stage, double seconds) {
    const size_t i = static_cast<size_t>(stage);
    seconds_[i] += seconds;
    entered_ |= static_cast<uint8_t>(1u << i);
  }

  /// Adds every stage `other` entered: folds a ladder attempt's scratch
  /// trace into its query's trace.
  void AddStages(const RequestTrace& other) {
    for (size_t i = 0; i < kNumStages; ++i) {
      const auto stage = static_cast<Stage>(i);
      if (other.Entered(stage)) AddStage(stage, other.StageSeconds(stage));
    }
  }

  /// True once `stage` has been attributed any time.
  bool Entered(Stage stage) const {
    return (entered_ >> static_cast<size_t>(stage)) & 1u;
  }

  /// Total accumulated seconds of `stage`; 0 for a stage never entered.
  double StageSeconds(Stage stage) const {
    return seconds_[static_cast<size_t>(stage)];
  }

 private:
  uint64_t request_id_;
  std::string_view op_;
  std::array<double, kNumStages> seconds_{};
  uint8_t entered_ = 0;  // bit i set once stage i is attributed
};

/// Chained stage attribution. Enter(next) reads the clock once: that
/// instant closes the open stage, adding its seconds to the trace, and
/// opens `next`. The destructor closes the last stage with one more read,
/// so a chain of k stages costs k + 1 clock reads. With a null trace no
/// clock is read; the spans below are emitted either way.
///
/// While Chrome tracing is active, each entered stage is a begin/end span
/// pair named StageName(stage) and tagged with the trace's request id.
class StageClock {
 public:
  explicit StageClock(RequestTrace* trace) : trace_(trace) {}
  ~StageClock() {
    if (open_) Close(Now());
  }

  StageClock(const StageClock&) = delete;
  StageClock& operator=(const StageClock&) = delete;

  /// Closes the open stage, if any, and opens `next` at the same instant.
  void Enter(Stage next) {
    const Clock::time_point now = Now();
    if (open_) Close(now);
    stage_ = next;
    start_ = now;
    open_ = true;
    span_open_ = TracingEnabled();
    if (span_open_) internal::RecordEvent(StageName(next), 'B', RequestId());
  }

 private:
  using Clock = std::chrono::steady_clock;

  Clock::time_point Now() const {
    return trace_ != nullptr ? Clock::now() : Clock::time_point{};
  }
  uint64_t RequestId() const { return trace_ != nullptr ? trace_->id() : 0; }

  void Close(Clock::time_point now) {
    // As in TraceSpan: no end event once tracing has stopped mid-stage.
    if (span_open_ && TracingEnabled()) {
      internal::RecordEvent(StageName(stage_), 'E', RequestId());
    }
    if (trace_ != nullptr) {
      trace_->AddStage(stage_,
                       std::chrono::duration<double>(now - start_).count());
    }
    open_ = false;
  }

  RequestTrace* trace_;
  Stage stage_ = Stage::kCandidateGen;
  bool open_ = false;
  bool span_open_ = false;
  Clock::time_point start_{};
};

}  // namespace microrec::obs

#endif  // MICROREC_OBS_REQUEST_H_
