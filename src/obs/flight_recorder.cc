#include "obs/flight_recorder.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"

namespace microrec::obs {

FlightRecorder::FlightRecorder(Options options)
    : options_(std::move(options)) {
  options_.interval_seconds = std::max(options_.interval_seconds, 0.01);
  file_ = std::fopen(options_.path.c_str(), options_.truncate ? "w" : "a");
  if (file_ == nullptr) {
    std::fprintf(stderr, "obs: cannot open flight recorder file %s\n",
                 options_.path.c_str());
    return;
  }
  start_ = std::chrono::steady_clock::now();
  sampler_ = std::thread([this] { SamplerLoop(); });
}

FlightRecorder::~FlightRecorder() { Stop(); }

void FlightRecorder::SamplerLoop() {
  const auto interval =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.interval_seconds));
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (wake_.wait_for(lock, interval, [this] { return stop_; })) break;
    // Snapshotting outside the lock would let Stop()'s final sample
    // interleave mid-line; the registry snapshot is cheap enough to take
    // while holding it.
    WriteSample();
  }
}

void FlightRecorder::WriteSample() {
  // Caller holds mu_.
  if (file_ == nullptr) return;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  const uint64_t sample = samples_.fetch_add(1, std::memory_order_relaxed);
  std::string line = "{\"schema\":\"microrec.flight/1\",\"sample\":" +
                     std::to_string(sample) +
                     ",\"elapsed_seconds\":" + JsonNumber(elapsed) +
                     ",\"metrics\":" +
                     MetricsRegistry::Global().Snapshot().ToJson() + "}\n";
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
}

void FlightRecorder::Stop() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  wake_.notify_all();
  if (sampler_.joinable()) sampler_.join();
  std::unique_lock<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    WriteSample();  // the closing sample: final counter/histogram state
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace microrec::obs
