// One benchmark run: options in, metrics and oracle verdicts out.
#ifndef PERFBENCH_RUN_H_
#define PERFBENCH_RUN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;     ///< sets the fixed amount of work (k*PerSecond)
  bool trace = false;   ///< traced run: seams, spans, per-layer metrics
  std::string out_dir;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct OracleVerdict {
  std::string name;
  uint64_t checks = 0;
  uint64_t violations = 0;
};

struct RunResult {
  uint64_t attempted = 0;   ///< ops attempted in the measured window
  uint64_t failed_ops = 0;  ///< ops that returned an error or were refused
  std::vector<OracleVerdict> oracles;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;   ///< traced runs only
  std::vector<std::string> notes;  ///< human-readable context lines

  uint64_t violations() const {
    uint64_t v = 0;
    for (const OracleVerdict& o : oracles) v += o.violations;
    return v;
  }
  void E2E(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void Layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

RunResult RunYcsbB(const RunOptions& opts);
RunResult RunTpcc(const RunOptions& opts);
RunResult RunTenantWake(const RunOptions& opts);
RunResult RunKvContend(const RunOptions& opts);

}  // namespace perfbench

#endif  // PERFBENCH_RUN_H_
