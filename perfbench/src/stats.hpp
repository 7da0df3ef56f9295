// The benchmark's arithmetic: percentiles, self time, and the ratios the
// per-layer report is made of.  Pure functions on plain numbers, so
// selftest.cpp can pin each one on fixed synthetic inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A percentile together with the number of samples it was taken from.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Nearest-rank percentile (q in (0, 1]): the smallest sample that has at
/// least q of all samples at or below it.  An empty input gives 0 with a
/// sample count of 0.  Takes the samples by value because it sorts them.
inline Percentile percentile(std::vector<double> v, double q) {
  if (v.empty()) return {};
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  const std::size_t at = std::min(idx, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(at),
                   v.end());
  return {v[at], v.size()};
}

/// The q-percentile of each slice of the samples (slice[i] numbers sample
/// i's slice, 0-based), in slice order; empty slices are skipped.
inline std::vector<double> slice_percentiles(const std::vector<double>& v,
                                             const std::vector<std::size_t>& slice, double q) {
  std::vector<std::vector<double>> groups;
  for (std::size_t i = 0; i < v.size() && i < slice.size(); ++i) {
    if (slice[i] >= groups.size()) groups.resize(slice[i] + 1);
    groups[slice[i]].push_back(v[i]);
  }
  std::vector<double> out;
  for (auto& g : groups) {
    if (!g.empty()) out.push_back(percentile(std::move(g), q).value);
  }
  return out;
}

/// The median over slices of each slice's q-percentile, with the total
/// sample count.  The benchmark shares its host, and interference from
/// outside the process comes in bursts of seconds; a burst that hits fewer
/// than half the slices does not move the median slice, while a slowdown
/// the program causes in most slices (or in a steady share of the rounds
/// of each) does.
inline Percentile slice_median(const std::vector<double>& v, const std::vector<std::size_t>& slice,
                               double q) {
  const std::vector<double> per_slice = slice_percentiles(v, slice, q);
  if (per_slice.empty()) return {};
  return {percentile(per_slice, 0.5).value, std::min(v.size(), slice.size())};
}

/// num / den, or 0 when den is 0 (a layer that did no work).
inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Failed operations over attempted ones.
inline double error_rate(std::uint64_t failed, std::uint64_t attempted) {
  return ratio(static_cast<double>(failed), static_cast<double>(attempted));
}

/// Open-loop latency: from when the request was due to be sent to when it
/// was answered.  Counting from the due time charges a stall to every
/// request scheduled behind it, not only to the one that hit it.
inline std::uint64_t latency_from_due(std::uint64_t due_ns,
                                      std::uint64_t answer_ns) {
  return answer_ns > due_ns ? answer_ns - due_ns : 0;
}

struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// Nanoseconds of `parent` covered by the union of `children` (children
/// may overlap each other and stick out of the parent).
inline std::uint64_t covered_ns(Interval parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::uint64_t covered = 0;
  std::uint64_t reach = parent.start;  // everything before reach is counted
  for (const Interval& c : children) {
    const std::uint64_t s = std::max(c.start, reach);
    const std::uint64_t e = std::min(c.end, parent.end);
    if (e > s) {
      covered += e - s;
      reach = e;
    }
  }
  return covered;
}

/// Lane imbalance over many rounds: the sum over rounds of the slowest
/// lane's busy time, divided by the sum over rounds of the mean lane busy
/// time.  1.0 means every round's lanes finished together; a round waits
/// for its slowest lane, so this is the factor lost to uneven shards.
/// `lane_ns[r][l]` is lane l's busy time in round r.
inline double lane_imbalance(const std::vector<std::vector<std::uint64_t>>& lane_ns) {
  double max_sum = 0.0;
  double mean_sum = 0.0;
  for (const auto& lanes : lane_ns) {
    if (lanes.empty()) continue;
    std::uint64_t mx = 0;
    double total = 0.0;
    for (const std::uint64_t t : lanes) {
      mx = std::max(mx, t);
      total += static_cast<double>(t);
    }
    max_sum += static_cast<double>(mx);
    mean_sum += total / static_cast<double>(lanes.size());
  }
  return ratio(max_sum, mean_sum);
}

/// Share of round time spent in the phases that run on one thread whatever
/// the lane count (apply, exchange, route, barrier wait): the part more
/// lanes cannot shrink.
inline double serial_share(std::uint64_t apply_ns, std::uint64_t exchange_ns,
                           std::uint64_t route_ns, std::uint64_t barrier_ns,
                           std::uint64_t round_ns) {
  return ratio(static_cast<double>(apply_ns + exchange_ns + route_ns + barrier_ns),
               static_cast<double>(round_ns));
}

}  // namespace perfbench
