// Tracing for the benchmark's traced run.
//
// SpanLog keeps spans in memory -- the benchmark's own spans around each
// call into a layer, plus the engine's phase spans -- and writes them as
// Chrome trace-event JSON when the run ends.  TeeSink sits between the
// engine and a histogram-mode telemetry::TelemetryRecorder: it forwards
// every callback to the recorder (so the traced run pays the telemetry
// layer's real cost) and folds each round's phase spans into one
// RoundSample, from which the per-layer metrics are computed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/recorder.hpp"
#include "telemetry/sink.hpp"

namespace perfbench {

/// steady_clock nanoseconds since its epoch: the engine's span time base.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Track ids of the benchmark's own spans; engine lanes use their index.
inline constexpr std::uint32_t kMainTrack = 1000;
inline constexpr std::uint32_t kClientTrack = 1001;

class SpanLog {
 public:
  /// Spans beyond `cap` are counted but not kept.
  explicit SpanLog(std::size_t cap) : cap_(cap) {}

  /// `name` must be a string literal (it is stored as a pointer).
  void add(const char* name, std::uint32_t track, std::uint64_t start_ns,
           std::uint64_t dur_ns);
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t dropped() const;
  /// Writes {"traceEvents": [...]} with times relative to the first span.
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  struct Entry {
    const char* name;
    std::uint32_t track;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
  };
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  std::size_t cap_;
  std::size_t dropped_ = 0;
};

/// One engine round, folded from its spans and its RoundRecord.
struct RoundSample {
  std::uint64_t changes = 0;
  std::uint64_t stepped = 0;
  std::uint64_t messages = 0;
  std::uint64_t payload_bits = 0;
  std::uint64_t apply_ns = 0;
  std::uint64_t exchange_ns = 0;
  std::uint64_t route_ns = 0;
  std::uint64_t barrier_ns = 0;
  std::uint64_t round_ns = 0;    // the engine's own whole-round span
  std::uint64_t covered_ns = 0;  // union of the phase spans inside it
  /// The caller's span around the step; round_ns until note_step sets it.
  std::uint64_t step_ns = 0;
  std::vector<std::uint64_t> lane_busy_ns;  // react + receive, per lane
};

class TeeSink final : public dynsub::telemetry::TelemetrySink {
 public:
  /// Neither argument is owned; both must outlive the sink.  `log` may be
  /// null.
  TeeSink(dynsub::telemetry::TelemetryRecorder& recorder, SpanLog* log)
      : recorder_(recorder), log_(log) {}

  void on_lanes(std::size_t lanes) override;
  void on_shards(std::size_t shards, std::size_t lanes_per_shard) override;
  void on_round(const dynsub::telemetry::RoundRecord& record) override;
  void on_span(const dynsub::telemetry::Span& span) override;
  void on_wire_bytes(std::uint64_t bytes) override;
  [[nodiscard]] bool timing_enabled() const override { return true; }

  /// Rounds completed while recording become samples; others are dropped.
  void set_recording(bool on) { recording_.store(on, std::memory_order_release); }
  /// Replaces the last sample's step_ns with the caller's step span.
  void note_step(std::uint64_t step_ns);

  [[nodiscard]] const std::vector<RoundSample>& samples() const { return samples_; }
  [[nodiscard]] const std::vector<double>& react_spans_ns() const { return react_ns_; }
  [[nodiscard]] const std::vector<double>& receive_spans_ns() const { return receive_ns_; }

 private:
  dynsub::telemetry::TelemetryRecorder& recorder_;
  SpanLog* log_;
  std::atomic<bool> recording_{false};
  // Written by the lane that owns the index (lanes run concurrently), and
  // read only at the round barrier.
  std::vector<std::vector<dynsub::telemetry::Span>> pending_;
  std::vector<RoundSample> samples_;
  std::vector<double> react_ns_;
  std::vector<double> receive_ns_;
};

}  // namespace perfbench
