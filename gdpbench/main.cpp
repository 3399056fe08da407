// gdpbench: one workload of the GDP end-to-end benchmark per invocation.
//
//   gdpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--commit <id>]
//
// Prints the workload's detail rows ("name value unit"), a host stamp line
// and, last, one JSON object: {"correct", "attempted", "failed", "metrics"}
// where metrics are the end-to-end metrics (--trace 0) or the per-layer
// metrics of a traced run (--trace 1).  Exits 1 when any output was wrong.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef GDPBENCH_BUILD_TYPE
#define GDPBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using gdpbench::Metric;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + number(metric.value) + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: gdpbench --workload edge_small_rw|model_store|fabric_forward "
               "--seed N --seconds S --trace 0|1 [--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  gdpbench::Config cfg;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      cfg.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--commit") {
      commit = val;
    } else {
      return usage();
    }
  }
  if (cfg.seconds <= 0) return usage();

  gdpbench::Report r;
  if (cfg.workload == "edge_small_rw") {
    gdpbench::run_edge_small_rw(cfg, r);
  } else if (cfg.workload == "model_store") {
    gdpbench::run_model_store(cfg, r);
  } else if (cfg.workload == "fabric_forward") {
    gdpbench::run_fabric_forward(cfg, r);
  } else {
    return usage();
  }
  r.e2e.try_emplace("peak_rss_mb", Metric{gdpbench::peak_rss_mib(), "MiB"});
  if (r.attempted == 0) r.wrong("no operation was attempted");
  if (cfg.trace) {
    r.layer["error_rate"] = {
        static_cast<double>(r.failed) / static_cast<double>(std::max<std::uint64_t>(r.attempted, 1)),
        "ratio"};
    // Layers this workload does not cross read 0.
    for (const auto& spec : gdpbench::kLayerMetrics) {
      r.layer.try_emplace(spec.name, Metric{0.0, spec.unit});
    }
  }

  for (const auto& [name, m] : r.detail) {
    std::printf("%-34s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [name, m] : r.e2e) {
    std::printf("%-34s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : r.errors) std::fprintf(stderr, "WRONG: %s\n", e.c_str());

  std::string stamp = "{\"workload\": \"" + cfg.workload + "\", \"seed\": " +
                      std::to_string(cfg.seed) + ", \"seconds\": " + number(cfg.seconds) +
                      ", \"trace\": " + (cfg.trace ? "1" : "0") + ", \"nproc\": " +
                      std::to_string(std::thread::hardware_concurrency()) +
                      ", \"compiler\": \"" + json_escape(__VERSION__) +
                      "\", \"build_type\": \"" GDPBENCH_BUILD_TYPE "\", \"commit\": \"" +
                      json_escape(commit) + "\"";
  for (const auto& [k, v] : r.stamp) stamp += ", \"" + k + "\": " + number(v);
  std::printf("# stamp %s}\n", stamp.c_str());

  const bool correct = r.errors.empty() && r.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics_json(cfg.trace ? r.layer : r.e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
