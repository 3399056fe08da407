// Shared pieces of the GDP end-to-end benchmark: run configuration, the
// report every workload fills, wall-clock helpers, the fastest-decile
// estimator and the outside-in span tracer.
//
// Every workload reports the same four end-to-end metrics (set-up time,
// peak memory and two wall-clock rates) plus workload-specific detail
// rows, and in a traced run the per-layer metrics listed in kLayerMetrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/name.hpp"
#include "net/network.hpp"
#include "telemetry/metrics.hpp"

namespace gdp::router {
class Router;
}
namespace gdp::server {
class CapsuleServer;
}

namespace gdpbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run produced.  `e2e` and `layer` feed the final JSON
/// line; `detail` rows are printed for people (the paper-facing numbers
/// under their own names, e.g. save_MBps or read_sim_ms_p50).
struct Report {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, Metric> detail;
  std::map<std::string, double> stamp;  ///< batch counts and sizes
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  /// Records a wrong output: fails the run and counts `ops` failed ops.
  void wrong(const std::string& what, std::uint64_t ops = 1) {
    if (errors.size() < 20) errors.push_back(what);
    failed += ops;
  }
};

/// Metric names and units every traced run reports (0 = the workload does
/// not cross that layer).
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<LayerMetricSpec> kLayerMetrics;

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Fastest-decile estimators: on a host whose speed drifts, the fastest
/// tenth of repeated fixed-size batches (or set-ups) repeats across runs
/// while the mean and median follow the drift.
inline double fast_rate(const std::vector<double>& rates) { return quantile(rates, 0.9); }
inline double fast_duration(const std::vector<double>& secs) { return quantile(secs, 0.1); }

/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// Sums a registry counter family: every counter whose name starts with
/// `prefix` and, after it, ends with `part` (kSuffix) or contains it (kInfix).
enum class Match : std::uint8_t { kSuffix, kInfix };
std::uint64_t sum_counters(const gdp::telemetry::MetricsRegistry& reg,
                           const std::string& prefix, const std::string& part, Match match);

/// Steps the simulator in 100 us slices until no PDU is in flight (timers
/// keep firing, so the event queue never empties).  False if it never is.
bool drain_network(gdp::net::Network& net);

/// Counters of the stack's own registry that feed per-layer metrics.
struct StackCounts {
  std::uint64_t client_retries = 0, client_timeouts = 0, server_rejects = 0;
  std::uint64_t fib_hits = 0, fib_misses = 0, router_drops = 0, glookup_queries = 0;
  std::uint64_t cas_win = 0, cas_conflict = 0;

  static StackCounts read(const gdp::telemetry::MetricsRegistry& m);
  StackCounts operator-(const StackCounts& o) const;
  /// Writes the client/server/router/glookup/scl count metrics.
  void fill(double ops, Report& r) const;
};

// ---- outside-in tracing -----------------------------------------------------

enum class NodeKind : std::uint8_t { kClient, kServer, kRouter, kGlookup, kSink, kSource };

/// Span kinds: handler spans are PDU deliveries at a node; call spans wrap
/// the benchmark's own calls into the stack.
enum class SpanKind : std::uint8_t { kDelivery, kIssue, kCall };

struct Span {
  std::uint32_t cause = 0;   ///< span id that caused this one (0 = op root)
  std::uint32_t node = 0;    ///< node index
  std::uint32_t from = 0;    ///< delivering neighbor (deliveries only)
  SpanKind kind = SpanKind::kDelivery;
  std::uint16_t pdu_type = 0;
  std::uint32_t wire_bytes = 0;
  std::uint64_t trace_id = 0;
  std::int64_t sim_ns = 0;
  std::int64_t wall_start = 0;
  std::int64_t wall_end = 0;
  std::int64_t child_ns = 0;  ///< wall time covered by nested spans
  std::string name;           ///< call spans: what was called
  std::int64_t self_ns() const { return wall_end - wall_start - child_ns; }
};

/// Records spans in memory.  Handler spans come from NodeTap wrappers the
/// benchmark installs in front of every node; call spans from begin/end
/// around its own calls.  Causes are resolved after the run: a forwarded
/// hop is caused by the previous hop of the same trace id, a PDU's first
/// hop by the sender's span that sent it (simulated delivery never nests).
/// Install a tracer while no PDU is in flight, or those PDUs' hops have
/// no cause.
class Tracer {
 public:
  explicit Tracer(gdp::net::Network& net);
  /// Re-attaches the wrapped handlers.
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint32_t add_node(const gdp::Name& name, NodeKind kind);
  /// Wraps the handler currently attached for `name` (call after attach).
  void tap(const gdp::Name& name, NodeKind kind, gdp::net::PduHandler* inner);
  void set_link(const gdp::Name& a, const gdp::Name& b, gdp::net::LinkParams p);

  std::uint32_t begin(SpanKind kind, const gdp::Name& node, std::string name);
  std::uint32_t begin_delivery(std::uint32_t node, const gdp::Name& from,
                               const gdp::wire::PduView& view);
  void end(std::uint32_t id);
  std::uint32_t current() const { return stack_.empty() ? 0 : stack_.back(); }

  /// Deliveries left without a cause by resolve_causes().  A background
  /// root is a PDU a node sent from a timer rather than from a span;
  /// `uncaused` counts every other delivery that found no sending span.
  struct CauseStats {
    std::size_t uncaused = 0;
    std::size_t background_roots = 0;
  };
  /// Fills Span::cause for every span.
  CauseStats resolve_causes();

  const std::vector<Span>& spans() const { return spans_; }
  NodeKind kind_of(std::uint32_t node) const { return kinds_[node]; }

  struct HopTerms {
    double serialization_ns = 0, propagation_ns = 0, queueing_ns = 0;
    std::size_t hops = 0;
    bool reached_root = false;
  };
  /// Walks the blocking path back from `last` (the span that resolved an
  /// op) to `root`, summing the three link terms of every hop.
  HopTerms blocking_path(std::uint32_t last, std::uint32_t root) const;

 private:
  struct Link {
    gdp::net::LinkParams params;
  };
  class NodeTap;

  gdp::net::Network& net_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::unordered_map<gdp::Name, std::uint32_t> node_index_;
  std::vector<NodeKind> kinds_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, Link> links_;
  std::vector<std::unique_ptr<NodeTap>> taps_;
  std::vector<std::pair<gdp::Name, gdp::net::PduHandler*>> wrapped_;
};

/// Per-layer self-time totals over a set of spans.
struct LayerTotals {
  std::map<std::string, double> self_ns;   ///< by layer key
  std::map<std::string, std::uint64_t> n;  ///< spans per layer key
  double total_self_ns = 0;

  /// Mean self time of one span of layer `key`, ns (0 if none ran).
  double per_span_ns(const std::string& key) const;
  /// Layer `key`'s self time divided over `ops` ops, ns.
  double per_op_ns(const std::string& key, double ops) const;
};
LayerTotals layer_totals(const Tracer& t, std::size_t first_span, std::size_t end_span);

/// Store layer ratios over every capsule log of `servers`.
struct StoreRatios {
  double flushes_per_append = 0;
  double bytes_per_user_byte = 0;
};
StoreRatios store_ratios(const std::vector<const gdp::server::CapsuleServer*>& servers,
                         double user_bytes);

/// Hit share of the routers' signature-verification caches.
double verify_cache_hit_ratio(const std::vector<const gdp::router::Router*>& routers);

/// Crypto, capsule, wire and store calls timed on the workload's own
/// payloads (call spans around the benchmark's direct calls).
void probe_layers(const std::vector<gdp::Bytes>& payloads, std::uint64_t seed,
                  const std::string& scratch_tag, Report& r);

/// Workloads.
void run_edge_small_rw(const Config& cfg, Report& r);
void run_model_store(const Config& cfg, Report& r);
void run_fabric_forward(const Config& cfg, Report& r);
/// ShardedDataPlane per-layer metrics (dp.*), taken in fabric_forward's
/// traced run.
void data_plane_layers(const Config& cfg, Report& r);

}  // namespace gdpbench
