// perfbench: runs one workload and prints its metrics. Normally started by
// run.py, which builds it and turns the last output line into the result.
//
//   perfbench --workload ycsb-b --seed 1 --seconds 10 --trace 0 --out-dir DIR
//
// Prints a human-readable report, then one JSON line: {"correct",
// "attempted", "failed", "end_to_end", "per_layer", "oracles",
// "provenance", "notes"}. Exits 1 when an oracle found a wrong output,
// 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "run.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ycsb-b|tpcc|tenant-wake|kv-contend --seed N "
               "--seconds N --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opts;
  opts.out_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--out-dir") {
      opts.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || opts.seconds < 1 || opts.seconds > 600) return Usage();

  RunResult r;
  if (opts.workload == "ycsb-b") {
    r = RunYcsbB(opts);
  } else if (opts.workload == "tpcc") {
    r = RunTpcc(opts);
  } else if (opts.workload == "tenant-wake") {
    r = RunTenantWake(opts);
  } else if (opts.workload == "kv-contend") {
    r = RunKvContend(opts);
  } else {
    return Usage();
  }

  const bool correct = r.violations() == 0;
  std::printf("workload %s seed %llu seconds %d trace %d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds, opts.trace ? 1 : 0);
  for (const OracleVerdict& o : r.oracles) {
    std::printf("oracle %-4s %s (%llu checks, %llu violations)\n",
                o.violations == 0 ? "PASS" : "FAIL", o.name.c_str(),
                static_cast<unsigned long long>(o.checks),
                static_cast<unsigned long long>(o.violations));
  }
  PrintTable("end-to-end:", r.end_to_end);
  if (!r.per_layer.empty()) PrintTable("per-layer:", r.per_layer);
  for (const std::string& n : r.notes) std::printf("note: %s\n", n.c_str());

  std::string oracles = "[";
  for (size_t i = 0; i < r.oracles.size(); ++i) {
    const OracleVerdict& o = r.oracles[i];
    oracles += std::string(i > 0 ? ", " : "") + "{\"name\": \"" + JsonEscape(o.name) +
               "\", \"checks\": " + std::to_string(o.checks) +
               ", \"violations\": " + std::to_string(o.violations) + "}";
  }
  oracles += "]";
  std::string notes = "[";
  for (size_t i = 0; i < r.notes.size(); ++i) {
    notes += std::string(i > 0 ? ", " : "") + "\"" + JsonEscape(r.notes[i]) + "\"";
  }
  notes += "]";
  const std::string provenance =
      "{\"workload\": \"" + JsonEscape(opts.workload) + "\", \"seed\": " +
      std::to_string(opts.seed) + ", \"seconds\": " + std::to_string(opts.seconds) +
      ", \"trace\": " + (opts.trace ? "1" : "0") + ", \"nproc\": " +
      std::to_string(std::thread::hardware_concurrency()) + ", \"cpu_model\": \"" +
      JsonEscape(CpuModel()) + "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"}";
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"end_to_end\": %s, "
      "\"per_layer\": %s, \"oracles\": %s, \"provenance\": %s, \"notes\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed_ops + r.violations()),
      MetricsJson(r.end_to_end).c_str(), MetricsJson(r.per_layer).c_str(), oracles.c_str(),
      provenance.c_str(), notes.c_str());
  return correct ? 0 : 1;
}
