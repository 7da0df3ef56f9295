// Shared pieces of the benchmark driver: the command line, the report every
// workload fills, and the steps all workloads share (set-up, the detect
// probe, the end-of-run checks, the per-layer metrics of a traced run).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "detect/session.hpp"
#include "stats.hpp"
#include "stream.hpp"
#include "trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint32_t seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  // traces/ and records/ go here
  /// Names the code under test (run.py passes a hash of the sources);
  /// records of earlier runs are kept per code id.  Empty skips them.
  std::string code_id;
};

/// Set-ups per run; setup_s is their median, so set-up cost shows even
/// though it is paid once per process.
inline constexpr int kSetups = 3;

/// What a run measured and checked.  metric() prints one line per metric;
/// check() counts one operation and prints whether it passed.
class Report {
 public:
  void metric(const std::string& name, const std::string& unit, double value,
              std::size_t samples = 0);
  void metric(const std::string& name, const std::string& unit, const Percentile& p) {
    metric(name, unit, p.value, p.samples);
  }
  void check(bool ok, const std::string& what);
  /// Counts `attempted` operations of which `failed` failed.
  void ops(std::uint64_t attempted, std::uint64_t failed, const std::string& what);
  void note(const std::string& line);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  [[nodiscard]] const std::map<std::string, Value>& metrics() const { return values_; }

 private:
  std::map<std::string, Value> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// One set-up: Session::open, the bulk-load round, and the quiet rounds
/// until every node is consistent (plus whatever the workload adds).
struct Setup {
  double total_s = 0.0;
  double construct_ms = 0.0;
  double bootstrap_ms = 0.0;
  std::size_t settle_rounds = 0;
  /// Hash of the settled session's timing-free summary (rounds, changes,
  /// inconsistent rounds, messages, payload bits).  Every set-up of a run
  /// loads the same input, so a deterministic program repeats it exactly.
  std::uint64_t fingerprint = 0;
};

/// Opens a manual session (or one driven by `workload`), bulk-loads and
/// settles it, timing each part; spans go to `log` when given.
std::optional<dynsub::detect::Session> open_and_settle(
    dynsub::detect::SessionOptions opts, std::unique_ptr<dynsub::net::Workload> workload,
    const Stream& stream, Setup& setup, SpanLog* log);

/// Runs `one` `count` times, keeping each set-up.  When one fails (returns
/// false) the "set-up settles" check fails and this returns false; else it
/// checks that all set-ups settled with the same fingerprint.
bool repeat_setups(int count, const std::function<bool(Setup&)>& one, std::vector<Setup>& out,
                   Report& report);

/// Per-layer set-up metrics: medians over the set-ups.
void report_setup_layers(const std::vector<Setup>& setups, Report& report);
[[nodiscard]] double median_setup_s(const std::vector<Setup>& setups);

/// The sinks of a pass: a histogram-mode TelemetryRecorder behind a
/// TeeSink that also feeds the span log.  Only a traced pass attaches them.
struct Tracing {
  explicit Tracing(bool on);
  dynsub::telemetry::TelemetryRecorder recorder;
  SpanLog log;
  TeeSink tee;
  const bool on;
  [[nodiscard]] SpanLog* spans() { return on ? &log : nullptr; }
  [[nodiscard]] dynsub::telemetry::TelemetrySink* sink() { return on ? &tee : nullptr; }
};

/// What one pass of a workload timed.  `latency_ns` are the gated latency
/// samples and `slice[i]` the slice sample i fell in; `slice_rates` holds
/// each slice's events per second.
struct Timed {
  std::vector<Setup> setups;
  std::vector<double> latency_ns;
  std::vector<std::size_t> slice;
  std::vector<double> slice_rates;
  double peak_rss_mb = 0.0;  // set-ups and the timed part
  double amortized = 0.0;
};

/// One pass of a workload: `setups` set-ups, then the timed part, with the
/// sinks attached when `traced`.  With `finish`, the pass is then drained,
/// checked, and (when traced) reports its layers; see finish_pass.
using PassFn = std::function<Timed(bool traced, int setups, bool finish)>;

/// Runs a workload's passes for the mode args asks for.  Untraced: one
/// finished pass of kSetups set-ups, reporting the end-to-end metrics.
/// Traced: an untraced pass of one set-up, the base of
/// telemetry.overhead_pct, then a finished traced pass.  Both modes then compare `hash` (and
/// amortized, when `exact_amortized`) with earlier runs of the same code;
/// traced runs also require the two passes' amortized to be equal.
int run_modes(const Args& args, const std::string& hash, bool exact_amortized, const PassFn& pass,
              Report& report);

/// Direct detect-layer timings on a settled session: the serve mix (50%
/// edge query, 30% triangle query, 20% triangle listing at uniform nodes;
/// 4-cycles stand in for triangles on detectors without them).
struct Probe {
  std::vector<double> query_ns;
  std::vector<double> list_ns;
  double tuples_mean = 0.0;  // over the listings a consistent node served
};
Probe probe_detect(const dynsub::detect::Session& session, std::uint64_t seed);
void report_probe(const Probe& probe, Report& report);

/// The untimed end of a pass.  Drains the session to settled, checks its
/// graph against the stream after `churn_rounds` churn rounds, and runs the
/// oracle audit (its time goes to detect.audit_ms).  A traced pass then
/// reports its set-up, round and detect-probe layers and writes its trace.
void finish_pass(dynsub::detect::Session& session, const Stream& stream,
                 std::uint64_t churn_rounds, const std::vector<Setup>& setups, Tracing& tracing,
                 const Args& args, Report& report);

/// Checks that regenerating the stream from `spec` and the seed gives the
/// same hash.
void check_regenerates(const StreamSpec& spec, const Stream& stream, std::uint64_t seed,
                       Report& report);

/// Compares this run's stream hash (and amortized ratio, when given) with
/// what an earlier run of the same code, workload, seed and length recorded
/// in out_dir/records, and records them when nothing was recorded yet.
void check_record(const Args& args, const std::string& hash,
                  std::optional<double> amortized, Report& report);

/// oracle.*, core.* and net.* (except the set-up ones) from a traced run's
/// round samples.  |E| comes from the caller.
void report_round_layers(const TeeSink& tee, std::uint64_t edges, Report& report);

/// The gated timing metrics of a run cut into slices: the median over
/// slices of each slice's p50 and p90 latency and event rate (see
/// slice_median), plus the whole-run percentiles as ungated diagnostics.
void report_timing(const Timed& timed, Report& report);

/// Peak resident memory added since construction: the process's resident
/// high-water mark is reset when the object is made, so inputs and buffers
/// the benchmark allocated before that do not count.  Where the reset is not
/// available it falls back to the process's lifetime peak.
class PeakRss {
 public:
  PeakRss();
  [[nodiscard]] double mb() const;

 private:
  double base_kib_ = 0.0;
};
[[nodiscard]] std::vector<double> to_us(const std::vector<double>& ns);

int run_engine(const Args& args, Report& report);
int run_serve(const Args& args, Report& report);

}  // namespace perfbench
