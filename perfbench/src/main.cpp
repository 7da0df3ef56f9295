// perfbench_driver -- runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--out-dir <dir>] [--code-id <id>]
//
// Prints one line per metric and per check, then, as the last line, one
// JSON object with every metric measured plus the attempted and failed
// operation counts.  Exits 0 when every check passed, 1 when one failed,
// 2 on a usage error.  perfbench/run.py builds this program and turns its
// last line into the benchmark's result.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

bool parse_uint(const char* text, std::uint64_t& out) {
  const char* end = text + std::strlen(text);
  const auto res = std::from_chars(text, end, out);
  return res.ec == std::errc() && res.ptr == end;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <triangle_n1m|robust3hop_n5k_t2|"
               "serve_triangle_n1k> --seed <n> --seconds <1..60> --trace <0|1> "
               "[--out-dir <dir>] [--code-id <id>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::uint64_t seconds = 10;
  std::uint64_t trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      ok = parse_uint(value, args.seed);
    } else if (flag == "--seconds") {
      ok = parse_uint(value, seconds) && seconds >= 1 && seconds <= 60;
    } else if (flag == "--trace") {
      ok = parse_uint(value, trace) && trace <= 1;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--code-id") {
      args.code_id = value;
      ok = !args.code_id.empty() &&
           args.code_id.find_first_not_of("0123456789abcdef") == std::string::npos;
    } else {
      ok = false;
    }
    if (!ok) return usage();
  }
  args.seconds = static_cast<std::uint32_t>(seconds);
  args.trace = trace == 1;
  std::printf("perfbench workload=%s seed=%llu seconds=%u trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);

  perfbench::Report report;
  int rc = 2;
  try {
    rc = args.workload.rfind("serve_", 0) == 0 ? perfbench::run_serve(args, report)
                                               : perfbench::run_engine(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (rc == 2) return usage();
  if (rc != 0) return rc;

  report.metric("error_rate", "ratio",
                perfbench::error_rate(report.failed(), report.attempted()));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  bool first = true;
  for (const auto& [name, m] : report.metrics()) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, m.value);
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                std::string(buf, res.ptr).c_str(), m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return report.failed() == 0 ? 0 : 1;
}
