// perfbench_selftest -- the benchmark's arithmetic on fixed synthetic
// inputs.  Exits 0 when every expectation holds, 1 otherwise.
#include <cmath>
#include <cstdio>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

void test_percentile() {
  using perfbench::percentile;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  const auto p50 = percentile(v, 0.5);
  expect(p50.value == 50 && p50.samples == 100, "p50 of 1..100 is 50 over 100 samples");
  expect(percentile(v, 0.9).value == 90, "p90 of 1..100 is 90");
  expect(percentile(v, 0.99).value == 99, "p99 of 1..100 is 99");
  expect(percentile(v, 1.0).value == 100, "p100 is the maximum");
  expect(percentile({7.0, 1.0, 3.0}, 0.5).value == 3, "p50 of three samples is the middle one");
  expect(percentile({1.0, 2.0, 3.0, 4.0}, 0.5).value == 2, "nearest rank takes the lower middle");
  const auto empty = percentile({}, 0.5);
  expect(empty.value == 0 && empty.samples == 0, "no samples gives 0 with count 0");
}

void test_slice_median() {
  using namespace perfbench;
  // Three slices; a neighbour slowed the middle one down.
  const std::vector<double> v = {3, 1, 2, 30, 10, 20, 40, 4, 5, 6};
  const std::vector<std::size_t> slice = {0, 0, 0, 1, 1, 1, 1, 2, 2, 2};
  const std::vector<double> p50 = slice_percentiles(v, slice, 0.5);
  expect(p50.size() == 3 && p50[0] == 2 && p50[1] == 20 && p50[2] == 5,
         "per-slice medians in slice order");
  const Percentile med = slice_median(v, slice, 0.5);
  expect(med.value == 5 && med.samples == 10,
         "median slice ignores one slowed slice, counting all samples");
  expect(slice_median(v, slice, 0.9).value == 6, "median slice p90");
  // A slowdown in most slices moves it: the one quiet slice is not picked.
  const std::vector<double> slow = {3, 1, 2, 30, 10, 20, 40, 40, 50, 60};
  expect(slice_median(slow, slice, 0.5).value == 20, "a slowdown in most slices shows");
  expect(slice_median({}, {}, 0.5).samples == 0, "no slices gives 0 with count 0");
}

void test_latency_from_due() {
  using perfbench::latency_from_due;
  // Requests due every 10 ns; the server stalls until t=100 and then
  // answers one per ns.  Timed from the due time, the stall shows on every
  // request queued behind it, not only on the first.
  const std::uint64_t due[] = {0, 10, 20};
  const std::uint64_t answered[] = {100, 101, 102};
  expect(latency_from_due(due[0], answered[0]) == 100, "first request waits out the stall");
  expect(latency_from_due(due[2], answered[2]) == 82, "later request counts from its due time");
  expect(latency_from_due(50, 40) == 0, "an answer stamped before the due time clamps to 0");
}

void test_ratios() {
  using namespace perfbench;
  expect(near(error_rate(2, 8), 0.25), "error_rate 2 of 8 is 0.25");
  expect(error_rate(0, 0) == 0, "error_rate with nothing attempted is 0");
  expect(near(lane_imbalance({{10, 10}, {30, 10}}), 40.0 / 30.0),
         "lane_imbalance sums each round's slowest lane over its mean lane");
  expect(lane_imbalance({{5}, {7}}) == 1.0, "one lane is never imbalanced");
  expect(near(serial_share(10, 5, 5, 20, 100), 0.4), "serial_share is (apply+exchange+route+barrier)/round");
}

void test_self_time() {
  using perfbench::Interval;
  const Interval parent{0, 100};
  // Children overlap each other and one sticks out of the parent.
  const std::vector<Interval> children = {{20, 40}, {10, 30}, {90, 120}};
  expect(perfbench::covered_ns(parent, children) == 40, "covered counts overlaps once, clipped");
  expect(perfbench::covered_ns(parent, {}) == 0, "no children cover nothing");
}

void test_tee_sink() {
  using dynsub::telemetry::Phase;
  dynsub::telemetry::TelemetryRecorder recorder({.timing = true, .keep_rounds = false});
  perfbench::SpanLog log(4);
  perfbench::TeeSink tee(recorder, &log);
  tee.on_lanes(2);
  auto span = [&](Phase phase, std::uint32_t lane, std::uint64_t start, std::uint64_t end) {
    tee.on_span({phase, lane, 1, start, end - start});
  };
  dynsub::telemetry::RoundRecord rec;
  rec.changes = 4;
  rec.stepped = 3;
  span(Phase::kApply, 0, 0, 10);  // a round before recording is dropped
  tee.on_round(rec);
  tee.set_recording(true);
  span(Phase::kApply, 0, 1000, 1010);
  span(Phase::kReact, 0, 1010, 1040);
  span(Phase::kReact, 1, 1010, 1030);
  span(Phase::kBarrier, 0, 1040, 1050);
  span(Phase::kExchange, 0, 1050, 1055);
  span(Phase::kRoute, 0, 1055, 1060);
  span(Phase::kReceive, 0, 1060, 1080);
  span(Phase::kReceive, 1, 1060, 1070);
  span(Phase::kRound, 0, 1000, 1100);
  tee.on_round(rec);
  tee.note_step(120);
  expect(tee.samples().size() == 1, "only the recorded round becomes a sample");
  const perfbench::RoundSample& s = tee.samples().front();
  expect(s.apply_ns == 10 && s.barrier_ns == 10 && s.exchange_ns == 5 && s.route_ns == 5,
         "phase spans fold into the round's sample");
  expect(s.round_ns == 100 && s.covered_ns == 80, "phase spans cover 80 of the 100 ns round");
  expect(s.step_ns == 120, "note_step replaces the step time with the caller's span");
  expect(s.lane_busy_ns.size() == 2 && s.lane_busy_ns[0] == 50 && s.lane_busy_ns[1] == 30,
         "lane busy time is react plus receive per lane");
  expect(tee.react_spans_ns().size() == 2 && tee.receive_spans_ns().size() == 2,
         "react and receive span durations are kept per lane");
  expect(log.size() == 4 && log.dropped() == 5, "the span log keeps its cap and counts the rest");
  expect(recorder.merged_phase_ns(Phase::kApply).count() == 2,
         "every span is forwarded to the telemetry recorder");
}

}  // namespace

int main() {
  test_percentile();
  test_slice_median();
  test_latency_from_due();
  test_ratios();
  test_self_time();
  test_tee_sink();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
