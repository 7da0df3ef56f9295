#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "stats.hpp"

namespace perfbench {

using dynsub::telemetry::Phase;

void SpanLog::add(const char* name, std::uint32_t track, std::uint64_t start_ns,
                  std::uint64_t dur_ns) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (entries_.size() >= cap_) {
    ++dropped_;
    return;
  }
  entries_.push_back({name, track, start_ns, dur_ns});
}

std::size_t SpanLog::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::size_t SpanLog::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool SpanLog::write_chrome(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  std::uint64_t t0 = entries_.empty() ? 0 : entries_.front().start_ns;
  for (const Entry& e : entries_) t0 = std::min(t0, e.start_ns);
  out << "{\"traceEvents\":[\n";
  out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << kMainTrack
      << ",\"args\":{\"name\":\"bench\"}},\n";
  out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << kClientTrack
      << ",\"args\":{\"name\":\"client\"}}";
  char buf[256];
  for (const Entry& e : entries_) {
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  e.name, e.track, static_cast<double>(e.start_ns - t0) / 1e3,
                  static_cast<double>(e.dur_ns) / 1e3);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void TeeSink::on_lanes(std::size_t lanes) {
  pending_.assign(lanes, {});
  recorder_.on_lanes(lanes);
}

void TeeSink::on_shards(std::size_t shards, std::size_t lanes_per_shard) {
  recorder_.on_shards(shards, lanes_per_shard);
}

void TeeSink::on_span(const dynsub::telemetry::Span& span) {
  recorder_.on_span(span);
  pending_[span.lane].push_back(span);
}

void TeeSink::on_wire_bytes(std::uint64_t bytes) { recorder_.on_wire_bytes(bytes); }

void TeeSink::on_round(const dynsub::telemetry::RoundRecord& record) {
  recorder_.on_round(record);
  if (recording_.load(std::memory_order_acquire)) {
    RoundSample s;
    s.changes = record.changes;
    s.stepped = record.stepped;
    s.messages = record.messages;
    s.payload_bits = record.payload_bits;
    s.lane_busy_ns.assign(pending_.size(), 0);
    Interval round{};
    std::vector<Interval> children;
    for (std::size_t lane = 0; lane < pending_.size(); ++lane) {
      for (const auto& sp : pending_[lane]) {
        const Interval iv{sp.start_ns, sp.start_ns + sp.dur_ns};
        switch (sp.phase) {
          case Phase::kApply: s.apply_ns += sp.dur_ns; break;
          case Phase::kExchange: s.exchange_ns += sp.dur_ns; break;
          case Phase::kRoute: s.route_ns += sp.dur_ns; break;
          case Phase::kBarrier: s.barrier_ns += sp.dur_ns; break;
          case Phase::kReact:
            s.lane_busy_ns[lane] += sp.dur_ns;
            react_ns_.push_back(static_cast<double>(sp.dur_ns));
            break;
          case Phase::kReceive:
            s.lane_busy_ns[lane] += sp.dur_ns;
            receive_ns_.push_back(static_cast<double>(sp.dur_ns));
            break;
          case Phase::kRound:
            s.round_ns = sp.dur_ns;
            round = iv;
            break;
        }
        if (sp.phase != Phase::kRound) children.push_back(iv);
        if (log_ != nullptr) {
          log_->add(dynsub::telemetry::phase_name(sp.phase),
                    static_cast<std::uint32_t>(lane), sp.start_ns, sp.dur_ns);
        }
      }
    }
    s.covered_ns = covered_ns(round, children);
    s.step_ns = s.round_ns;
    samples_.push_back(std::move(s));
  }
  for (auto& spans : pending_) spans.clear();
}

void TeeSink::note_step(std::uint64_t step_ns) {
  if (!samples_.empty()) samples_.back().step_ns = step_ns;
}

}  // namespace perfbench
