// The engine workloads: a manual detect::Session stepped round by round,
// each Session::step timed from outside.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

namespace {

struct EngineWorkload {
  const char* name;
  const char* detector;
  std::uint32_t n;
  std::uint64_t edges;
  std::uint32_t changes;  // per round, half deletes and half inserts
  std::size_t threads;
  /// Timed rounds per requested second.  The round count is fixed by the
  /// workload and --seconds, never by the clock, so the event stream and
  /// the amortized ratio are the same on every run of a seed, traced or
  /// not, on any machine.  Sized so one run times about --seconds on a
  /// 4-core x86 VM at the commit that added the benchmark.
  double rounds_per_second;
  /// Requested seconds per slice: enough rounds that a slice's p90 is not
  /// one of its last few samples.
  std::uint32_t slice_seconds;
};

constexpr EngineWorkload kWorkloads[] = {
    // Phase 0 (the oracle's graph apply) dominates; no lanes.  Not listed in
    // BENCHMARK.json: its apply is memory-bandwidth bound, and on a shared
    // host its run-to-run spread exceeds any bound the benchmark may set.
    {"triangle_n1m", "triangle", 1000000, 200000, 500, 0, 10.0, 4},
    // Node programs dominate; two lanes on the worker pool.
    {"robust3hop_n5k_t2", "robust3hop", 5000, 15000, 100, 2, 62.0, 2},
};

/// Sets up `setups` times, then times every churn round, cut into slices
/// of `slice_seconds` requested seconds each.
Timed run_pass(const EngineWorkload& w, const Stream& stream,
               const std::vector<std::vector<dynsub::EdgeEvent>>& rounds, const Args& args,
               bool traced, int setups, bool finish, Report& report) {
  Tracing tracing(traced);
  dynsub::detect::SessionOptions opts;
  opts.detector = w.detector;
  opts.n = w.n;
  opts.seed = args.seed;
  opts.sim.threads = w.threads;
  opts.sim.telemetry = tracing.sink();

  Timed pass;
  const PeakRss rss;
  std::optional<dynsub::detect::Session> session;
  const bool settled = repeat_setups(
      setups,
      [&](Setup& setup) {
        session.reset();
        session = open_and_settle(opts, nullptr, stream, setup, tracing.spans());
        return session && session->settled();
      },
      pass.setups, report);
  if (!settled) return pass;

  tracing.tee.set_recording(traced);
  const std::size_t slices = std::clamp<std::size_t>(args.seconds / w.slice_seconds, 1,
                                                     rounds.size());
  std::uint64_t slice_start = now_ns();
  std::uint64_t slice_events = 0;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const std::uint64_t t0 = now_ns();
    session->step(rounds[r]);
    const std::uint64_t t1 = now_ns();
    pass.latency_ns.push_back(static_cast<double>(t1 - t0));
    pass.slice.push_back(r * slices / rounds.size());
    slice_events += rounds[r].size();
    if (traced) {
      tracing.tee.note_step(t1 - t0);
      tracing.log.add("step", kMainTrack, t0, t1 - t0);
    }
    if ((r + 1) * slices / rounds.size() != r * slices / rounds.size()) {
      pass.slice_rates.push_back(static_cast<double>(slice_events) * 1e9 /
                                 static_cast<double>(t1 - slice_start));
      slice_start = t1;
      slice_events = 0;
    }
  }
  tracing.tee.set_recording(false);
  pass.peak_rss_mb = rss.mb();
  pass.amortized = session->summary().amortized;
  if (finish) finish_pass(*session, stream, stream.rounds(), pass.setups, tracing, args, report);
  return pass;
}

}  // namespace

int run_engine(const Args& args, Report& report) {
  const EngineWorkload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) return 2;

  const auto churn_rounds =
      static_cast<std::uint64_t>(std::ceil(w->rounds_per_second * args.seconds));
  const StreamSpec spec{w->n, w->edges, w->changes, churn_rounds};
  const Stream stream = make_stream(spec, args.seed);
  std::vector<std::vector<dynsub::EdgeEvent>> rounds(churn_rounds);
  for (std::uint64_t r = 0; r < churn_rounds; ++r) stream.round(r, rounds[r]);
  std::printf("workload %s: %s, n=%u, |E|=%llu, %u changes/round, threads=%zu\n", w->name,
              w->detector, w->n, static_cast<unsigned long long>(w->edges), w->changes,
              w->threads);
  std::printf("stream hash %s (%llu timed rounds)\n", stream.hash_hex().c_str(),
              static_cast<unsigned long long>(churn_rounds));

  check_regenerates(spec, stream, args.seed, report);
  return run_modes(
      args, stream.hash_hex(), true,
      [&](bool traced, int setups, bool finish) {
        return run_pass(*w, stream, rounds, args, traced, setups, finish, report);
      },
      report);
}

}  // namespace perfbench
