// The serve workload: serve::Server runs the engine on its own thread over
// live churn while one open-loop client thread submits requests on a fixed
// schedule.  Each request is timed from when it was due, not from when
// the client got round to sending it.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <span>
#include <thread>

#include "bench.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

using dynsub::serve::Request;
using dynsub::serve::RequestKind;
using dynsub::serve::Response;

constexpr std::uint32_t kNodes = 1000;
constexpr std::uint64_t kEdges = 4000;
constexpr std::uint32_t kChanges = 4;
constexpr double kRequestsPerSecond = 50000.0;
constexpr std::size_t kQueueSlots = 4096;
/// Churn rounds generated per requested second: about four times the
/// round rate measured when the benchmark was added, so churn outlasts
/// the window (a run whose churn runs dry fails its check).
constexpr double kChurnRoundsPerSecond = 50000.0;
/// The end-to-end figures are medians over one-second slices of the window.
constexpr std::uint64_t kSliceNs = 1000000000;

/// Replays the stream's churn rounds, one per engine round; done() is read
/// by the main thread while the engine thread advances it.
class ChurnWorkload final : public dynsub::net::Workload {
 public:
  explicit ChurnWorkload(const Stream& stream) : stream_(stream) {}

  [[nodiscard]] std::vector<dynsub::EdgeEvent> next_round(
      const dynsub::net::WorkloadObservation& obs) override {
    (void)obs;
    std::vector<dynsub::EdgeEvent> out;
    const std::uint64_t r = done_.load(std::memory_order_relaxed);
    if (r < stream_.rounds()) {
      stream_.round(r, out);
      done_.store(r + 1, std::memory_order_release);
    }
    return out;
  }
  [[nodiscard]] bool finished() const override { return done() >= stream_.rounds(); }
  [[nodiscard]] std::uint64_t done() const { return done_.load(std::memory_order_acquire); }

 private:
  const Stream& stream_;
  std::atomic<std::uint64_t> done_{0};
};

/// Wall clock that also stamps the end of every engine round, up to a fixed
/// capacity allocated (and touched) up front so it does not count towards
/// the run's peak memory.  Stamps are written by the engine thread only and
/// read after it is joined.
class BarrierClock final : public dynsub::serve::Clock {
 public:
  explicit BarrierClock(std::size_t rounds) : stamps_(rounds, 0) {}
  [[nodiscard]] std::uint64_t now_ns() override { return perfbench::now_ns(); }
  void advance_round() override {
    if (size_ < stamps_.size()) stamps_[size_++] = perfbench::now_ns();
  }
  [[nodiscard]] bool is_simulated() const override { return false; }
  /// Forgets the stamps of an earlier engine thread (which must be stopped).
  void restart() { size_ = 0; }
  [[nodiscard]] std::span<const std::uint64_t> stamps() const { return {stamps_.data(), size_}; }

 private:
  std::vector<std::uint64_t> stamps_;
  std::size_t size_ = 0;
};

/// One request of the mix, drawn before the clock starts.
struct Planned {
  std::uint32_t node = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint8_t kind = 0;  // 0 edge query, 1 triangle query, 2 triangle listing
};

std::vector<Planned> plan_requests(std::uint64_t seed, std::size_t count, Fnv& fnv) {
  Rng rng(seed ^ 0x7265717565737473ULL);  // "requests"
  std::vector<Planned> plan(count);
  for (auto& p : plan) {
    const std::uint64_t pick = rng.below(10);
    p.kind = pick < 5 ? 0 : pick < 8 ? 1 : 2;
    p.node = static_cast<std::uint32_t>(rng.below(kNodes));
    do {
      p.a = static_cast<std::uint32_t>(rng.below(kNodes));
    } while (p.a == p.node);
    do {
      p.b = static_cast<std::uint32_t>(rng.below(kNodes));
    } while (p.b == p.node || p.b == p.a);
    fnv.add((std::uint64_t{p.kind} << 60) | (std::uint64_t{p.node} << 40) |
            (std::uint64_t{p.a} << 20) | p.b);
  }
  return plan;
}

Request make_request(const Planned& p) {
  Request req;
  req.node = p.node;
  if (p.kind == 2) {
    req.kind = RequestKind::kList;
    req.list_kind = dynsub::detect::QueryKind::kTriangle;
  } else if (p.kind == 1) {
    req.query = dynsub::detect::TriangleQuery{p.a, p.b};
  } else {
    req.query = dynsub::detect::EdgeQuery{dynsub::Edge(p.node, p.a)};
  }
  return req;
}

/// What came back for one request id.
struct Outcome {
  std::uint64_t arrival_ns = 0;
  std::uint64_t answer_ns = 0;
  dynsub::Round round = 0;
  std::uint8_t responses = 0;
  bool shed = false;
  bool refused = false;
  bool inconsistent = false;
};

/// Serve-layer samples of a pass, beside the gated ones in Timed.
struct ServeSamples {
  std::vector<double> barrier_wait_ns;
  std::vector<double> drain_ns;
  std::vector<double> round_ns;
  std::uint64_t rounds = 0;  // engine rounds inside the window
  std::uint64_t answered = 0;
  std::uint64_t inconsistent = 0;
};

Timed run_pass(const Stream& stream, const std::vector<Planned>& plan, const Args& args,
               bool traced, int setups, bool finish, Report& report) {
  Tracing tracing(traced);
  SpanLog* spans = tracing.spans();
  dynsub::detect::SessionOptions opts;
  opts.detector = "triangle(k=4)";
  opts.n = kNodes;
  opts.seed = args.seed;
  opts.sim.telemetry = tracing.sink();
  dynsub::serve::ServeConfig cfg;
  cfg.queue = {kQueueSlots, dynsub::serve::OverflowPolicy::kShed};

  const std::size_t count = plan.size();
  std::vector<Outcome> out(count);
  std::vector<double> lag(count);
  std::vector<double> submit(count);

  BarrierClock clock(stream.rounds() + 1024);

  Timed pass;
  const PeakRss rss;
  std::optional<dynsub::detect::Session> session;
  std::unique_ptr<dynsub::serve::Server> server;
  ChurnWorkload* churn = nullptr;
  dynsub::Round base_round = 0;
  const bool settled = repeat_setups(
      setups,
      [&](Setup& setup) {
        if (server) server->stop();
        server.reset();
        session.reset();
        clock.restart();
        auto workload = std::make_unique<ChurnWorkload>(stream);
        churn = workload.get();
        session = open_and_settle(opts, std::move(workload), stream, setup, spans);
        if (!session || !session->settled()) return false;
        const std::uint64_t t0 = now_ns();
        server = std::make_unique<dynsub::serve::Server>(*session, clock, cfg);
        base_round = session->sim().round();
        server->start();
        const std::uint64_t t1 = now_ns();
        if (spans != nullptr) spans->add("server_start", kMainTrack, t0, t1 - t0);
        setup.total_s += static_cast<double>(t1 - t0) / 1e9;
        return true;
      },
      pass.setups, report);
  if (!settled) return pass;

  const auto interval = static_cast<std::uint64_t>(1e9 / kRequestsPerSecond);
  std::atomic<bool> client_done{false};
  const std::uint64_t start = now_ns() + 2000000;  // 2 ms to let the client thread start

  tracing.tee.set_recording(traced);
  std::thread client([&] {
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t due = start + i * interval;
      while (now_ns() < due) {
        __builtin_ia32_pause();  // leave the core's other hardware thread its share
      }
      Request req = make_request(plan[i]);
      const std::uint64_t s0 = now_ns();
      const std::optional<Response> refusal = server->submit(std::move(req));
      const std::uint64_t s1 = now_ns();
      lag[i] = static_cast<double>(s0 - due);
      submit[i] = static_cast<double>(s1 - s0);
      if (refusal) out[i].shed = true;
      if (spans != nullptr) spans->add("submit", kClientTrack, s0, s1 - s0);
    }
    client_done.store(true, std::memory_order_release);
  });

  std::uint64_t unknown = 0;
  auto collect = [&] {
    for (const Response& r : server->take_responses()) {
      if (r.id == 0 || r.id > count) {
        ++unknown;
        continue;
      }
      Outcome& o = out[r.id - 1];
      ++o.responses;
      o.arrival_ns = r.arrival_ns;
      o.answer_ns = r.answer_ns;
      o.round = r.round;
      o.refused = r.status != dynsub::serve::Status::kOk || !r.detail.empty();
      o.inconsistent = r.answer == dynsub::net::Answer::kInconsistent;
    }
  };
  while (!client_done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    collect();
  }
  client.join();
  const std::uint64_t end = now_ns();
  const std::uint64_t churn_end = churn->done();
  tracing.tee.set_recording(false);
  server->stop();  // answers everything still queued, then joins the engine
  collect();
  pass.peak_rss_mb = rss.mb();
  pass.amortized = session->summary().amortized;
  const std::uint64_t backlog_peak = server->stats().backlog_peak;
  const double window_s = static_cast<double>(end - start) / 1e9;
  ServeSamples ss;

  // Every engine round applies kChanges churn events while churn lasts
  // (checked below), so rounds per slice give the slice's event rate.
  const std::span<const std::uint64_t> stamps = clock.stamps();
  std::vector<std::uint64_t> slice_rounds(args.seconds, 0);
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    if (stamps[i] < start || stamps[i] > end) continue;
    ++ss.rounds;
    const std::size_t slice = (stamps[i] - start) / kSliceNs;
    if (slice < slice_rounds.size()) ++slice_rounds[slice];
    if (i > 0 && stamps[i - 1] >= start) {
      ss.round_ns.push_back(static_cast<double>(stamps[i] - stamps[i - 1]));
    }
  }
  for (const std::uint64_t r : slice_rounds) {
    pass.slice_rates.push_back(static_cast<double>(r * kChanges) * 1e9 /
                               static_cast<double>(kSliceNs));
  }
  auto stamp_of = [&](dynsub::Round round) -> std::optional<std::uint64_t> {
    const dynsub::Round idx = round - base_round - 1;
    if (idx < 0 || static_cast<std::size_t>(idx) >= stamps.size()) return std::nullopt;
    return stamps[static_cast<std::size_t>(idx)];
  };

  std::uint64_t failed = unknown;
  for (std::size_t i = 0; i < count; ++i) {
    const Outcome& o = out[i];
    const int seen = o.responses + (o.shed ? 1 : 0);
    if (seen != 1 || o.shed || o.refused) {
      ++failed;
      continue;
    }
    ++ss.answered;
    if (o.inconsistent) ++ss.inconsistent;
    pass.latency_ns.push_back(
        static_cast<double>(latency_from_due(start + i * interval, o.answer_ns)));
    pass.slice.push_back(i * interval / kSliceNs);
    if (const auto stamp = stamp_of(o.round)) {
      ss.barrier_wait_ns.push_back(static_cast<double>(latency_from_due(o.arrival_ns, *stamp)));
      ss.drain_ns.push_back(static_cast<double>(latency_from_due(*stamp, o.answer_ns)));
    }
  }
  if (!finish) return pass;

  report.ops(count + unknown, failed, "requests answered once, none shed or refused");
  report.check(churn_end < stream.rounds(), "churn outlasts the request window");
  finish_pass(*session, stream, churn->done(), pass.setups, tracing, args, report);
  if (!traced) {
    report.metric("run.round_p50_us", "us", percentile(to_us(ss.round_ns), 0.5));
    return pass;
  }
  report.metric("serve.submit_ns_p50", "ns", percentile(submit, 0.5));
  report.metric("serve.barrier_wait_us_p50", "us", percentile(to_us(ss.barrier_wait_ns), 0.5));
  report.metric("serve.drain_us_p50", "us", percentile(to_us(ss.drain_ns), 0.5));
  report.metric("serve.backlog_peak", "requests", static_cast<double>(backlog_peak));
  report.metric("serve.rounds_per_sec", "rounds/s", ratio(static_cast<double>(ss.rounds), window_s));
  report.metric("serve.inconsistent_share", "ratio",
                ratio(static_cast<double>(ss.inconsistent), static_cast<double>(ss.answered)));
  report.metric("serve.answer_p99_us", "us", percentile(to_us(pass.latency_ns), 0.99));
  report.metric("loadgen.lag_p99_us", "us", percentile(to_us(lag), 0.99));
  report.metric("loadgen.offered_per_sec", "requests/s",
                ratio(static_cast<double>(count), window_s));
  return pass;
}

}  // namespace

int run_serve(const Args& args, Report& report) {
  if (args.workload != "serve_triangle_n1k") return 2;
  const auto churn_rounds = static_cast<std::uint64_t>(kChurnRoundsPerSecond * args.seconds);
  const StreamSpec spec{kNodes, kEdges, kChanges, churn_rounds};
  const Stream stream = make_stream(spec, args.seed);
  Fnv plan_hash;
  plan_hash.add(stream.hash());
  const std::vector<Planned> plan = plan_requests(
      args.seed, static_cast<std::size_t>(kRequestsPerSecond * args.seconds), plan_hash);
  char hash[40];
  std::snprintf(hash, sizeof hash, "%s-%016llx", stream.hash_hex().c_str(),
                static_cast<unsigned long long>(plan_hash.value()));
  std::printf("workload serve_triangle_n1k: triangle(k=4), n=%u, |E|=%llu, %u changes/round, "
              "open loop at %.0f requests/s, %zu-slot shed queue\n",
              kNodes, static_cast<unsigned long long>(kEdges), kChanges, kRequestsPerSecond,
              kQueueSlots);
  std::printf("stream hash %s (%zu requests, up to %llu churn rounds)\n", hash, plan.size(),
              static_cast<unsigned long long>(churn_rounds));

  check_regenerates(spec, stream, args.seed, report);
  return run_modes(
      args, hash, false,
      [&](bool traced, int setups, bool finish) {
        return run_pass(stream, plan, args, traced, setups, finish, report);
      },
      report);
}

}  // namespace perfbench
