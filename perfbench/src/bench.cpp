#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace fs = std::filesystem;
using dynsub::detect::Query;
using dynsub::detect::QueryKind;
using dynsub::detect::Session;

namespace {

double sum_of(const std::vector<RoundSample>& s, std::uint64_t RoundSample::*field) {
  double total = 0.0;
  for (const auto& r : s) total += static_cast<double>(r.*field);
  return total;
}

std::vector<double> column(const std::vector<RoundSample>& s,
                           std::uint64_t RoundSample::*field) {
  std::vector<double> out;
  out.reserve(s.size());
  for (const auto& r : s) out.push_back(static_cast<double>(r.*field));
  return out;
}

void check_graph(const Session& session, const Stream& stream, std::uint64_t churn_rounds,
                 Report& report) {
  const std::vector<std::uint64_t> want = stream.edges_after(churn_rounds);
  const auto& have = session.sim().graph().edges();
  bool same = have.size() == want.size();
  if (same) {
    std::size_t i = 0;
    for (const auto& [edge, ts] : have) {
      (void)ts;
      if (edge.key() != want[i++]) {
        same = false;
        break;
      }
    }
  }
  report.check(same, "graph == stream edge set (" + std::to_string(want.size()) + " edges)");
}

void check_audit(const Session& session, Report& report, SpanLog* log) {
  const std::uint64_t t0 = now_ns();
  const auto failure = session.audit();
  const std::uint64_t t1 = now_ns();
  if (log != nullptr) log->add("audit", kMainTrack, t0, t1 - t0);
  report.metric("detect.audit_ms", "ms", static_cast<double>(t1 - t0) / 1e6);
  if (failure) std::fprintf(stderr, "perfbench: audit failed: %s\n", failure->c_str());
  report.check(!failure.has_value(), "oracle audit");
}

}  // namespace

void Report::metric(const std::string& name, const std::string& unit, double value,
                    std::size_t samples) {
  values_[name] = {value, unit};
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  std::printf("  %-28s %s %s", name.c_str(), std::string(buf, res.ptr).c_str(),
              unit.c_str());
  if (samples > 0) std::printf("  (n=%zu)", samples);
  std::printf("\n");
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) ++failed_;
  std::printf("  check %-40s %s\n", what.c_str(), ok ? "ok" : "FAILED");
}

void Report::ops(std::uint64_t attempted, std::uint64_t failed, const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  std::printf("  check %-40s %llu of %llu failed\n", what.c_str(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
}

void Report::note(const std::string& line) { std::printf("  %s\n", line.c_str()); }

std::optional<Session> open_and_settle(dynsub::detect::SessionOptions opts,
                                       std::unique_ptr<dynsub::net::Workload> workload,
                                       const Stream& stream, Setup& setup, SpanLog* log) {
  std::string error;
  const std::uint64_t t0 = now_ns();
  std::optional<Session> s =
      workload ? Session::open(std::move(opts), std::move(workload), stream.n(), &error)
               : Session::open(std::move(opts), &error);
  const std::uint64_t t1 = now_ns();
  if (!s) {
    std::fprintf(stderr, "perfbench: Session::open failed: %s\n", error.c_str());
    return std::nullopt;
  }
  s->step(stream.bulk());
  const std::uint64_t t2 = now_ns();
  setup.settle_rounds = s->run_until_stable();
  const std::uint64_t t3 = now_ns();
  const auto sum = s->summary();
  Fnv fp;
  for (const std::uint64_t word : {static_cast<std::uint64_t>(sum.rounds), sum.changes,
                                   sum.inconsistent_rounds, sum.messages, sum.payload_bits}) {
    fp.add(word);
  }
  setup.fingerprint = fp.value();
  setup.construct_ms = static_cast<double>(t1 - t0) / 1e6;
  setup.bootstrap_ms = static_cast<double>(t2 - t1) / 1e6;
  setup.total_s = static_cast<double>(t3 - t0) / 1e9;
  if (log != nullptr) {
    log->add("open", kMainTrack, t0, t1 - t0);
    log->add("bulk_load", kMainTrack, t1, t2 - t1);
    log->add("settle", kMainTrack, t2, t3 - t2);
  }
  return s;
}

double median_setup_s(const std::vector<Setup>& setups) {
  std::vector<double> v;
  for (const auto& s : setups) v.push_back(s.total_s);
  return percentile(std::move(v), 0.5).value;
}

bool repeat_setups(int count, const std::function<bool(Setup&)>& one, std::vector<Setup>& out,
                   Report& report) {
  for (int k = 0; k < count; ++k) {
    Setup setup;
    if (!one(setup)) {
      report.check(false, "set-up settles");
      return false;
    }
    out.push_back(setup);
  }
  bool alike = true;
  for (const Setup& s : out) alike = alike && s.fingerprint == out.front().fingerprint;
  report.check(alike, std::to_string(out.size()) + " set-ups settle alike");
  return true;
}

Tracing::Tracing(bool on_)
    : recorder({.timing = true, .keep_rounds = false, .keep_spans = false}),
      log(200000),
      tee(recorder, &log),
      on(on_) {}

void report_setup_layers(const std::vector<Setup>& setups, Report& report) {
  std::vector<double> construct, bootstrap, settle;
  for (const auto& s : setups) {
    construct.push_back(s.construct_ms);
    bootstrap.push_back(s.bootstrap_ms);
    settle.push_back(static_cast<double>(s.settle_rounds));
  }
  report.metric("net.construct_ms", "ms", percentile(construct, 0.5));
  report.metric("net.bootstrap_ms", "ms", percentile(bootstrap, 0.5));
  report.metric("net.settle_rounds", "rounds", percentile(settle, 0.5));
}

Probe probe_detect(const Session& session, std::uint64_t seed) {
  constexpr std::size_t kOps = 20000;
  const auto& det = session.detector();
  const bool triangles = det.supports_query(QueryKind::kTriangle);
  const QueryKind list_kind =
      det.supports_list(QueryKind::kTriangle) ? QueryKind::kTriangle : QueryKind::kCycle4;
  const auto n = static_cast<std::uint32_t>(session.nodes());

  // The whole mix is drawn before the first call is timed.
  struct Op {
    int kind;  // 0 edge query, 1 triangle/cycle query, 2 listing
    dynsub::NodeId v;
    Query q;
  };
  Rng rng(seed ^ 0x70726f6265ULL);  // "probe"
  auto other = [&](std::vector<dynsub::NodeId> taken) {
    for (;;) {
      const auto u = static_cast<dynsub::NodeId>(rng.below(n));
      if (std::find(taken.begin(), taken.end(), u) == taken.end()) return u;
    }
  };
  std::vector<Op> ops;
  ops.reserve(kOps);
  for (std::size_t i = 0; i < kOps; ++i) {
    const std::uint64_t pick = rng.below(10);
    const auto v = static_cast<dynsub::NodeId>(rng.below(n));
    if (pick < 5) {
      ops.push_back({0, v, dynsub::detect::EdgeQuery{dynsub::Edge(v, other({v}))}});
    } else if (pick < 8) {
      const auto a = other({v});
      const auto b = other({v, a});
      if (triangles) {
        ops.push_back({1, v, dynsub::detect::TriangleQuery{a, b}});
      } else {
        ops.push_back({1, v, dynsub::detect::CycleQuery{{v, a, b, other({v, a, b})}}});
      }
    } else {
      ops.push_back({2, v, dynsub::detect::EdgeQuery{dynsub::Edge(0, 1)}});
    }
  }

  Probe p;
  double tuples = 0.0;
  std::uint64_t lists = 0;
  for (const Op& op : ops) {
    const std::uint64_t t0 = now_ns();
    std::size_t listed = 0;
    bool served = true;
    if (op.kind == 2) {
      const auto out = session.list(op.v, list_kind);
      served = out.has_value();
      if (served) listed = out->size();
    } else {
      const auto answer = session.query(op.v, op.q);
      (void)answer;
    }
    const auto dt = static_cast<double>(now_ns() - t0);
    if (op.kind == 2) {
      p.list_ns.push_back(dt);
      if (served) {
        tuples += static_cast<double>(listed);
        ++lists;
      }
    } else {
      p.query_ns.push_back(dt);
    }
  }
  p.tuples_mean = ratio(tuples, static_cast<double>(lists));
  return p;
}

void report_probe(const Probe& p, Report& report) {
  report.metric("detect.query_ns_p50", "ns", percentile(p.query_ns, 0.5));
  report.metric("detect.query_ns_p90", "ns", percentile(p.query_ns, 0.9));
  report.metric("detect.list_us_p50", "us", percentile(to_us(p.list_ns), 0.5));
  report.metric("detect.list_tuples_mean", "tuples", p.tuples_mean, p.list_ns.size());
}

void check_regenerates(const StreamSpec& spec, const Stream& stream, std::uint64_t seed,
                       Report& report) {
  report.check(make_stream(spec, seed).hash() == stream.hash(), "stream regenerates to its hash");
}

void check_record(const Args& args, const std::string& hash, std::optional<double> amortized,
                  Report& report) {
  if (args.code_id.empty()) {
    report.note("no --code-id: not compared with earlier runs");
    return;
  }
  std::ostringstream text;
  text << "hash " << hash << "\n";
  if (amortized) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, *amortized);
    text << "amortized " << std::string(buf, res.ptr) << "\n";
  }
  const fs::path dir = fs::path(args.out_dir) / "records";
  const fs::path file = dir / (args.code_id + "-" + args.workload + "-seed" +
                               std::to_string(args.seed) + "-sec" +
                               std::to_string(args.seconds) + ".txt");
  std::error_code ec;
  fs::create_directories(dir, ec);
  std::ifstream in(file);
  if (in) {
    std::stringstream prev;
    prev << in.rdbuf();
    report.check(prev.str() == text.str(), "hash/amortized equal earlier runs of this code");
    return;
  }
  std::ofstream out(file);
  out << text.str();
  report.check(static_cast<bool>(out), "hash/amortized recorded for seed");
}

void report_round_layers(const TeeSink& tee, std::uint64_t edges, Report& report) {
  const auto& s = tee.samples();
  const double step = sum_of(s, &RoundSample::step_ns);
  const double apply = sum_of(s, &RoundSample::apply_ns);
  const double changes = sum_of(s, &RoundSample::changes);
  const double stepped = sum_of(s, &RoundSample::stepped);
  const double rounds = static_cast<double>(s.size());

  report.metric("oracle.apply_us_p50", "us",
                percentile(to_us(column(s, &RoundSample::apply_ns)), 0.5));
  report.metric("oracle.apply_share", "ratio", ratio(apply, step));
  report.metric("oracle.apply_ns_per_event", "ns", ratio(apply, changes));
  report.metric("oracle.edges", "edges", static_cast<double>(edges));

  std::vector<std::vector<std::uint64_t>> lanes;
  double busy = 0.0;  // react + receive over all lanes and rounds
  double covered = 0.0;
  for (const auto& r : s) {
    lanes.push_back(r.lane_busy_ns);
    for (const std::uint64_t t : r.lane_busy_ns) busy += static_cast<double>(t);
    covered += static_cast<double>(r.covered_ns);
  }
  const double lane_mean = lanes.empty() || lanes.front().empty()
                               ? 0.0
                               : busy / static_cast<double>(lanes.front().size());
  report.metric("core.react_us_p50", "us", percentile(to_us(tee.react_spans_ns()), 0.5));
  report.metric("core.receive_us_p50", "us", percentile(to_us(tee.receive_spans_ns()), 0.5));
  report.metric("core.ns_per_node_step", "ns", ratio(busy, stepped));
  report.metric("core.stepped_per_round", "nodes", ratio(stepped, rounds), s.size());
  report.metric("core.messages_per_round", "messages",
                ratio(sum_of(s, &RoundSample::messages), rounds));
  report.metric("core.payload_bits_per_round", "bits",
                ratio(sum_of(s, &RoundSample::payload_bits), rounds));
  report.metric("core.steps_per_event", "ratio", ratio(stepped, changes));
  report.metric("core.lane_share", "ratio", ratio(lane_mean, step));

  report.metric("net.route_us_p50", "us",
                percentile(to_us(column(s, &RoundSample::route_ns)), 0.5));
  report.metric("net.exchange_us_p50", "us",
                percentile(to_us(column(s, &RoundSample::exchange_ns)), 0.5));
  report.metric("net.barrier_us_p50", "us",
                percentile(to_us(column(s, &RoundSample::barrier_ns)), 0.5));
  report.metric("net.lane_imbalance", "ratio", lane_imbalance(lanes));
  report.metric("net.serial_share", "ratio",
                serial_share(static_cast<std::uint64_t>(apply),
                             static_cast<std::uint64_t>(sum_of(s, &RoundSample::exchange_ns)),
                             static_cast<std::uint64_t>(sum_of(s, &RoundSample::route_ns)),
                             static_cast<std::uint64_t>(sum_of(s, &RoundSample::barrier_ns)),
                             static_cast<std::uint64_t>(step)));
  report.metric("net.unattributed_share", "ratio", ratio(step - covered, step));
}

void report_timing(const Timed& t, Report& report) {
  const std::vector<double> us = to_us(t.latency_ns);
  report.metric("events_per_sec", "events/s", percentile(t.slice_rates, 0.5));
  report.metric("latency_p50_us", "us", slice_median(us, t.slice, 0.5));
  report.metric("latency_p90_us", "us", slice_median(us, t.slice, 0.9));
  report.metric("run.latency_p50_us", "us", percentile(us, 0.5));
  report.metric("run.latency_p90_us", "us", percentile(us, 0.9));
  report.metric("run.latency_p99_us", "us", percentile(us, 0.99));
}

namespace {

void write_trace(const Args& args, const SpanLog& log, Report& report) {
  const fs::path dir = fs::path(args.out_dir) / "traces";
  std::error_code ec;
  fs::create_directories(dir, ec);
  const fs::path file = dir / (args.workload + "-seed" + std::to_string(args.seed) + ".json");
  if (log.write_chrome(file.string())) {
    report.note("chrome trace: " + file.string() + " (" + std::to_string(log.size()) +
                " spans, " + std::to_string(log.dropped()) + " over the cap)");
  } else {
    report.note("chrome trace: could not write " + file.string());
  }
}

/// A "VmHWM:" / "VmRSS:" line of /proc/self/status, in KiB (0 if absent).
double status_kib(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::stod(line.substr(key.size()));
  }
  return 0.0;
}

}  // namespace

PeakRss::PeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // resets VmHWM to the current resident size
  clear.flush();
  base_kib_ = clear ? status_kib("VmRSS:") : 0.0;
}

double PeakRss::mb() const {
  double peak = status_kib("VmHWM:");
  if (peak == 0.0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    peak = static_cast<double>(ru.ru_maxrss);  // KiB
  }
  return (peak - base_kib_) / 1024.0;
}

std::vector<double> to_us(const std::vector<double>& ns) {
  std::vector<double> out;
  out.reserve(ns.size());
  for (const double v : ns) out.push_back(v / 1e3);
  return out;
}

void finish_pass(Session& session, const Stream& stream, std::uint64_t churn_rounds,
                 const std::vector<Setup>& setups, Tracing& tracing, const Args& args,
                 Report& report) {
  const std::size_t drain = session.run_until_stable();
  report.note("drained to settled in " + std::to_string(drain) + " untimed rounds");
  check_graph(session, stream, churn_rounds, report);
  check_audit(session, report, tracing.spans());
  if (!tracing.on) return;
  report_setup_layers(setups, report);
  report_round_layers(tracing.tee, session.sim().graph().edge_count(), report);
  report_probe(probe_detect(session, args.seed), report);
  report.note("telemetry recorder saw " +
              std::to_string(tracing.recorder.round_latency_ns().count()) +
              " rounds of the last set-up's session");
  write_trace(args, tracing.log, report);
}

int run_modes(const Args& args, const std::string& hash, bool exact_amortized, const PassFn& pass,
              Report& report) {
  auto ran = [](const Timed& t) { return !t.setups.empty() && !t.latency_ns.empty(); };
  if (!args.trace) {
    const Timed t = pass(false, kSetups, true);
    if (!ran(t)) return 1;
    report_timing(t, report);
    report.metric("setup_s", "s", median_setup_s(t.setups), t.setups.size());
    report.metric("peak_rss_mb", "MB", t.peak_rss_mb);
    report.metric("amortized", "ratio", t.amortized);
    check_record(args, hash, exact_amortized ? std::optional(t.amortized) : std::nullopt, report);
    return 0;
  }
  const Timed plain = pass(false, 1, false);
  const Timed traced = pass(true, kSetups, true);
  if (!ran(plain) || !ran(traced)) return 1;
  const double base = slice_median(plain.latency_ns, plain.slice, 0.5).value;
  const double with = slice_median(traced.latency_ns, traced.slice, 0.5).value;
  report.metric("telemetry.overhead_pct", "%", (ratio(with, base) - 1.0) * 100.0);
  if (exact_amortized) {
    report.check(plain.amortized == traced.amortized, "amortized equal untraced and traced");
  }
  check_record(args, hash, exact_amortized ? std::optional(traced.amortized) : std::nullopt,
               report);
  return 0;
}

}  // namespace perfbench
